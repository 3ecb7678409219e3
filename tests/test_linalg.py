import itertools
import random

import pytest

from d8index.linalg import howell_basis, z4_in_span, z4_log2_order


def _pack(values):
    """Bitplanes (lo, hi) of a vector: coordinate i = lo_i + 2*hi_i."""
    return (sum((v & 1) << i for i, v in enumerate(values)),
            sum((v >> 1 & 1) << i for i, v in enumerate(values)))


def _unpack(vector, width):
    lo, hi = vector
    return tuple((lo >> i & 1) + 2 * (hi >> i & 1) for i in range(width))


def _z4_mask(width):
    return (1 << width) - 1


def _solvable(columns, target):
    """Whether `target` is a Z/4-combination of `columns`, all in (Z/4)^n."""
    return z4_in_span([_pack(c) for c in columns], _pack(target),
                      _z4_mask(len(target)))


def test_z4_in_span_scalar_cases():
    assert _solvable([(2,)], (2,)) is True
    assert _solvable([(2,)], (1,)) is False


def test_z4_in_span_two_columns():
    # exhausting all 16 coefficient pairs confirms (1,3) = 1*(1,1) + 1*(0,2)
    assert _solvable([(1, 1), (0, 2)], (1, 3)) is True


def _brute_span(columns, orders):
    """Every sum of multiples of the columns in (+) Z/o_i."""
    span = {tuple([0] * len(orders))}
    for col in columns:
        span = {tuple((a + c * b) % o for a, b, o in zip(s, col, orders))
                for s in span for c in range(4)}
    return span


@pytest.mark.parametrize("seed", range(12))
def test_z4_in_span_matches_brute_force(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(rng.randint(1, 3))]
    span = _brute_span(columns, [4] * width)
    for _ in range(20):
        target = tuple(rng.randrange(4) for _ in range(width))
        assert _solvable(columns, target) == (target in span)


@pytest.mark.parametrize("seed", range(8))
def test_z4_in_span_invariances(seed):
    """Solvability is unchanged by permuting columns and by scaling any
    column by a unit of Z/4."""
    rng = random.Random(100 + seed)
    width = rng.randint(2, 4)
    columns = [tuple(rng.randrange(4) for _ in range(width)) for _ in range(4)]
    target = tuple(rng.randrange(4) for _ in range(width))
    expected = _solvable(columns, target)

    shuffled = columns[:]
    rng.shuffle(shuffled)
    assert _solvable(shuffled, target) == expected

    scaled = [tuple((3 * v) % 4 for v in c) if rng.random() < 0.5 else c
              for c in columns]
    assert _solvable(scaled, target) == expected


def test_howell_basis_pivot_structure():
    # (1, 2): its lead, coordinate 1, holds a pivot 2
    basis = howell_basis([_pack([1, 2])], _z4_mask(2))
    assert set(basis) == {0, 1}
    assert _unpack(basis[1], 2) == (1, 2)
    # the annihilator 2*(1, 2) = (2, 0) must appear as its own pivot row
    assert _unpack(basis[0], 2) == (2, 0)


@pytest.mark.parametrize("seed", range(12))
def test_z4_log2_order_matches_span_size(seed):
    rng = random.Random(400 + seed)
    width = rng.randint(1, 4)
    columns = [tuple(rng.randrange(4) for _ in range(width))
               for _ in range(rng.randint(0, 5))]
    assert 2 ** z4_log2_order([_pack(c) for c in columns], _z4_mask(width)) \
        == len(_brute_span(columns, [4] * width))


def test_z4_in_span_and_howell_basis_over_f2():
    # with mask4 = 0 every coordinate has order 2: plain F2 bitmasks
    vectors = [(0b011, 0), (0b101, 0), (0b110, 0)]  # third = first ^ second
    assert z4_in_span(vectors, (0b110, 0), 0)
    assert not z4_in_span(vectors, (0b111, 0), 0)
    assert howell_basis(vectors, 0) == {1: (0b011, 0), 2: (0b101, 0)}
    # the dependent third vector leaves the span of order 2^2
    assert z4_log2_order(vectors, 0) == 2


def _mixed_instance(rng, max_width):
    orders = [rng.choice((2, 4)) for _ in range(rng.randint(1, max_width))]
    mask4 = sum(1 << i for i, o in enumerate(orders) if o == 4)
    return orders, mask4


@pytest.mark.parametrize("seed", range(40))
def test_mixed_orders_match_brute_force(seed):
    """Membership and order over (+) Z/o_i, o_i in {2, 4}."""
    rng = random.Random(500 + seed)
    orders, mask4 = _mixed_instance(rng, 4)
    vectors = [tuple(rng.randrange(o) for o in orders)
               for _ in range(rng.randint(0, 4))]
    packed = [_pack(v) for v in vectors]
    span = _brute_span(vectors, orders)
    assert 2 ** z4_log2_order(packed, mask4) == len(span)
    for target in itertools.product(*(range(o) for o in orders)):
        assert z4_in_span(packed, _pack(target), mask4) == (target in span)
