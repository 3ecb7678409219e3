import random

import pytest

from d8index.linalg import (gf2_in_span, howell_form, howell_solve,
                            z4_kernel, z4_log2_order)


def test_howell_solve_scalar_cases():
    assert howell_solve([(2,)], (2,)) is True
    assert howell_solve([(2,)], (1,)) is False


def test_howell_solve_two_columns():
    # exhausting all 16 coefficient pairs confirms (1,3) = 1*(1,1) + 1*(0,2)
    assert howell_solve([(1, 1), (0, 2)], (1, 3)) is True


def test_howell_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        howell_solve([(1, 2)], (1,))


def _brute_span(columns, width):
    span = {tuple([0] * width)}
    for col in columns:
        span = {tuple((s[i] + c * col[i]) % 4 for i in range(width))
                for s in span for c in range(4)}
    return span


@pytest.mark.parametrize("seed", range(12))
def test_howell_solve_matches_brute_force(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(rng.randint(1, 3))]
    span = _brute_span(columns, width)
    for _ in range(20):
        target = tuple(rng.randrange(4) for _ in range(width))
        assert howell_solve(columns, target) == (target in span)


@pytest.mark.parametrize("seed", range(8))
def test_howell_solve_invariances(seed):
    """Solvability is unchanged by permuting columns and by scaling any
    column by a unit of Z/4."""
    rng = random.Random(100 + seed)
    width = rng.randint(2, 4)
    columns = [tuple(rng.randrange(4) for _ in range(width)) for _ in range(4)]
    target = tuple(rng.randrange(4) for _ in range(width))
    expected = howell_solve(columns, target)

    shuffled = columns[:]
    rng.shuffle(shuffled)
    assert howell_solve(shuffled, target) == expected

    scaled = [tuple((3 * v) % 4 for v in c) if rng.random() < 0.5 else c
              for c in columns]
    assert howell_solve(scaled, target) == expected


def test_howell_form_pivot_structure():
    pivots = howell_form([[2, 1]])
    cols = [c for c, _ in pivots]
    assert cols == sorted(cols)
    # the annihilator 2*(2,1) = (0,2) must appear as its own pivot row
    assert cols == [0, 1]


@pytest.mark.parametrize("seed", range(10))
def test_z4_kernel_vectors_annihilate(seed):
    rng = random.Random(200 + seed)
    width = rng.randint(1, 4)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(rng.randint(1, 4))]
    for ker in z4_kernel(columns):
        out = [0] * width
        for c, col in zip(ker, columns):
            out = [(a + c * b) % 4 for a, b in zip(out, col)]
        assert not any(out)


@pytest.mark.parametrize("seed", range(10))
def test_z4_kernel_complete_on_small_instances(seed):
    rng = random.Random(300 + seed)
    width = rng.randint(1, 3)
    ncols = rng.randint(1, 5)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(ncols)]
    brute = set()
    for mask in range(4 ** ncols):
        coeffs = [(mask // 4 ** i) % 4 for i in range(ncols)]
        out = [0] * width
        for c, col in zip(coeffs, columns):
            out = [(a + c * b) % 4 for a, b in zip(out, col)]
        if not any(out):
            brute.add(tuple(coeffs))
    generated = _brute_span([tuple(k) for k in z4_kernel(columns)], ncols)
    assert generated == brute


@pytest.mark.parametrize("seed", range(12))
def test_z4_log2_order_matches_span_size(seed):
    rng = random.Random(400 + seed)
    width = rng.randint(1, 4)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(rng.randint(0, 5))]
    assert 2 ** z4_log2_order(columns) == len(_brute_span(columns, width))


def test_gf2_span_and_nullspace():
    vectors = [0b011, 0b101, 0b110]  # third = first ^ second
    assert gf2_in_span(vectors, 0b110)
    assert not gf2_in_span(vectors, 0b111)
    # the F2 nullspace is the mod-2 image of the Z/4 kernel of the
    # columns together with the relation columns 2*e_i
    cols = [[v >> i & 1 for i in range(3)] for v in vectors]
    rel = [[2 * (i == k) for i in range(3)] for k in range(3)]
    null = {tuple(c % 2 for c in ker[:3]) for ker in z4_kernel(cols + rel)}
    assert null - {(0, 0, 0)} == {(1, 1, 1)}
