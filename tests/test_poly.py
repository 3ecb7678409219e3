import itertools
import random

import pytest

from d8index.linalg import z4_in_span
from d8index.poly import (contains_by_enumeration, element_vector,
                          graded_ideal_slice, ideal_contains,
                          ideal_slice_vectors, ideal_subset,
                          slice_intersection_is_zero,
                          span_contains_by_enumeration, vector_element)
from d8index.rings import (CATALOG, GradedSlice, RingMismatchError, YW_F2,
                           get_ring)
from d8index.verify import random_homogeneous

BOUND = get_ring("D8_Z_BOUND")
D8 = get_ring("D8_F2")


def _yw(text):
    return YW_F2.parse(text)


def test_graded_ideal_slice_examples():
    slice3 = graded_ideal_slice([_yw("y^2"), _yw("y^3+w*y")], 3)
    assert [str(e) for e in slice3] == ["y^3", "y^3+w*y"]
    # generator degrees in the bound ring are 4 and 6: nothing in degree 5
    assert graded_ideal_slice([BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y")], 5) == []
    assert graded_ideal_slice([], 7) == []


def test_graded_ideal_slice_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        graded_ideal_slice([_yw("y+w")], 3)


@pytest.mark.parametrize("decide", [ideal_contains, contains_by_enumeration])
def test_deciders_reject_inhomogeneous(decide):
    """An inhomogeneous generator raises for f = 0 and for f != 0, in or
    past the slice degree, and so does an inhomogeneous target."""
    bad = _yw("y+w")
    for f in (YW_F2.zero(), _yw("y^3"), _yw("w^2"), _yw("y")):
        for gens in ([bad], [_yw("y"), bad]):
            with pytest.raises(ValueError, match="inhomogeneous"):
                decide(gens, f)
    with pytest.raises(ValueError, match="inhomogeneous"):
        decide([_yw("y")], _yw("y^3+w"))


def _ring_span_vectors(gens, slice_):
    """What `ideal_slice_vectors` returns, formed in ring arithmetic."""
    return [element_vector(e, slice_)
            for e in graded_ideal_slice(gens, slice_.degree)]


@pytest.mark.parametrize("ring", [YW_F2, *CATALOG.values()],
                         ids=lambda ring: ring.name)
def test_packed_span_matches_ring_arithmetic(ring):
    rng = random.Random(23)
    checked = 0
    for _ in range(30):
        degree = rng.randint(1, 12)
        gens = [random_homogeneous(ring, rng.randint(0, degree), rng)
                for _ in range(rng.randint(1, 3))]
        slice_ = ring.graded_slice(degree)
        vectors = _ring_span_vectors(gens, slice_)
        assert ideal_slice_vectors(gens, slice_) == vectors
        checked += bool(vectors)
    assert checked >= 5


def test_packed_span_reduces_coefficients_per_monomial():
    """Coefficients 2 and 3 on the order-4 W^k, moved by a product onto an
    order-2 monomial, a normal form with two terms (M^2 -> W*X + W*Y) or
    none (x*y -> 0), and free degree-0 generators."""
    full = get_ring("D8_Z_FULL")
    cases = [
        (BOUND, ["2*W", "3*W", "3*W^2+Y^4", "2*W+Y^2", "M"], (8, 9, 10, 11, 12)),
        (full, ["2*W", "3*W", "3*W+X^2", "M", "3*W^2+W*X^2"], (6, 7, 8, 10, 11, 12)),
        (D8, ["x", "y", "x*w+y^3"], (3, 4, 5)),
        (get_ring("H2_Z"), ["3*U", "2*U^2"], (4, 6)),
    ]
    for ring, texts, degrees in cases:
        gens = [ring.parse(t) for t in texts] + [ring.one(), 2 * ring.one()]
        for degree in degrees:
            slice_ = ring.graded_slice(degree)
            for g in gens:
                assert ideal_slice_vectors([g], slice_) == \
                    _ring_span_vectors([g], slice_), (ring.name, g, degree)
    # 2*(Y*W) = 0: every product of 2*W with Y*m drops out
    assert ideal_slice_vectors([BOUND.parse("2*W")], BOUND.graded_slice(6)) == []


@pytest.mark.parametrize("ring_name, degree", [("H2_F2", 2 ** 17 + 3),
                                               ("K3_Z", 2 ** 18 + 2)])
def test_packed_span_key_width_grows_with_degree(ring_name, degree):
    """Exponents above 2^17 fit their key fields: the width follows the
    degree."""
    ring = get_ring(ring_name)
    slice_ = ring.graded_slice(degree)
    top = ring.element({slice_.basis[0]: 1})
    gens = [ring.gen(s) for s in ring.gens] + [top]
    assert ideal_slice_vectors(gens, slice_) == _ring_span_vectors(gens, slice_)
    assert ideal_contains(gens[:1], top)


def _fresh_verdict(gens, f):
    """ideal_contains on a slice built here, with an empty memo."""
    ring, degree = f.ring, f.degree()
    basis = ring.monomials(degree)
    fresh = GradedSlice(degree, basis, [ring.monomial_order(m) for m in basis])
    return z4_in_span(ideal_slice_vectors(gens, fresh),
                      element_vector(f, fresh), fresh.mask4)


@pytest.mark.parametrize("ring_name, ideals, targets, other", [
    ("D8_Z_FULL", (["M", "2*W"], ["X^2+Y^2", "W*X"]),
     ["M^2*W", "W^2*X", "X^5", "W*X^3+W*Y^3"], "2*W^2"),
    ("D8_F2", (["x"], ["w+y^2", "y*x"]),
     ["w^2*y+y^5", "x^5", "x*w^2", "w*y^3"], "w^2"),
])
def test_reused_slice_verdicts_match_fresh_slices(ring_name, ideals, targets,
                                                  other):
    """Two ideals decided at one degree, in either order and interleaved
    with another degree, give the verdicts of fresh slices, and the memo
    keeps only normal forms of single monomials."""
    ring = get_ring(ring_name)
    first, second = ([ring.parse(t) for t in gens] for gens in ideals)
    fs = [ring.parse(t) for t in targets]
    degree = fs[0].degree()
    assert {f.degree() for f in fs} == {degree}
    g = ring.parse(other)
    expected = {(i, f): _fresh_verdict(gens, f)
                for i, gens in enumerate((first, second)) for f in fs}
    assert len(set(expected.values())) == 2
    for order in ((0, 1), (1, 0), (0, "other", 1), (1, "other", 0)):
        for n in (degree - 1, degree - 2):  # fill both slice slots, so
            ring.graded_slice(n)            # every order starts afresh
        for step in order:
            if step == "other":
                ideal_contains(first + second, g)
                continue
            gens = (first, second)[step]
            for f in fs:
                assert ideal_contains(gens, f) == expected[(step, f)]
    slice_ = ring.graded_slice(degree)
    width = degree.bit_length() + 1
    assert slice_.memo
    for key, vector in slice_.memo.items():
        mono = tuple(key >> (width * i) & ((1 << width) - 1)
                     for i in range(len(ring.gens)))
        assert vector == element_vector(ring.element({mono: 1}), slice_)


def test_ideal_contains_f2_examples():
    gens = [_yw("y^2"), _yw("y^3+w*y")]
    assert ideal_contains(gens, _yw("y*w"))
    assert not ideal_contains([_yw("y^3+w*y"), _yw("y^4")], _yw("y*w"))


def test_ideal_contains_bound_ring_examples():
    gens = [BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y"), BOUND.parse("M*Y")]
    assert ideal_contains(gens, BOUND.parse("Y*W"))
    assert not ideal_contains([BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y")],
                              BOUND.parse("Y*M"))


def test_ideal_contains_zero_and_degree_zero():
    gens = [_yw("y^2")]
    assert ideal_contains(gens, YW_F2.zero())
    with pytest.raises(ValueError):
        ideal_contains(gens, YW_F2.one())


def test_ideal_contains_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_contains([_yw("y")], D8.gen("y"))


def test_enumeration_keeps_the_membership_input_checks():
    assert contains_by_enumeration([_yw("y^2")], YW_F2.zero())
    with pytest.raises(ValueError):
        contains_by_enumeration([_yw("y^2")], YW_F2.one())
    with pytest.raises(RingMismatchError):
        contains_by_enumeration([_yw("y")], D8.gen("y"))


def test_enumeration_over_a_given_span():
    """`contains_by_enumeration` is `span_contains_by_enumeration` over
    `graded_ideal_slice`; the span may be any list of elements of f's
    ring and degree."""
    full = get_ring("D8_Z_FULL")
    W, X = full.gen("W"), full.gen("X")
    assert span_contains_by_enumeration([2 * W], 2 * W)
    assert not span_contains_by_enumeration([2 * W], W)
    assert not span_contains_by_enumeration([], W)
    assert span_contains_by_enumeration([W + X * X, X * X], 3 * W)
    with pytest.raises(RingMismatchError):
        span_contains_by_enumeration([_yw("w")], D8.gen("w"))
    rng = random.Random(8)
    for ring in (D8, BOUND, full):
        for _ in range(40):
            degree = rng.randint(2, 8)
            gens = [random_homogeneous(ring, rng.randint(1, degree), rng)
                    for _ in range(2)]
            f = random_homogeneous(ring, degree, rng)
            span = graded_ideal_slice(gens, degree)
            if f and len(span) <= 8:
                assert (span_contains_by_enumeration(span, f)
                        == contains_by_enumeration(gens, f)
                        == ideal_contains(gens, f))


def test_torsion_membership():
    """2W is a Z/4 multiple of W but 2 itself only reaches even coefficients."""
    full = get_ring("D8_Z_FULL")
    W = full.gen("W")
    assert ideal_contains([2 * W], 2 * W)
    assert not ideal_contains([2 * W], W)
    assert ideal_contains([W], 2 * W)


def test_ideal_subset_examples():
    a1 = [BOUND.parse("Y*M"), BOUND.parse("Y*W")]
    assert ideal_subset(a1, [BOUND.parse("Y"), BOUND.parse("Y^2")])
    assert not ideal_subset(a1, [BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y")])
    assert ideal_subset([], a1)


def test_ideal_subset_reflexive_transitive():
    g1 = [_yw("y^2"), _yw("y^3+w*y")]
    g2 = [_yw("y^2"), _yw("w*y")]  # same ideal, different generators
    assert ideal_subset(g1, g1)
    assert ideal_subset(g1, g2) and ideal_subset(g2, g1)
    a, b, c = [_yw("y^4")], [_yw("y^2")], [_yw("y")]
    assert ideal_subset(a, b) and ideal_subset(b, c) and ideal_subset(a, c)


def test_membership_monotone_under_more_generators():
    rng = random.Random(5)
    for _ in range(60):
        ring = rng.choice([YW_F2, BOUND])
        degree = rng.randint(2, 8)
        gens = [g for g in (random_homogeneous(ring, rng.randint(1, degree), rng)
                            for _ in range(2)) if g]
        if not gens:
            continue
        f = random_homogeneous(ring, degree, rng)
        if not f:
            continue
        extra = random_homogeneous(ring, rng.randint(1, degree), rng)
        if ideal_contains(gens, f):
            assert ideal_contains(gens + [extra], f)


@pytest.mark.parametrize("ring_name,degree_cap", [("D8_F2", 8), ("H1_F2", 8),
                                                  ("D8_Z_BOUND", 10),
                                                  ("D8_Z_FULL", 10),
                                                  ("H2_Z", 10)])
def test_oracle_agreement_sample(ring_name, degree_cap):
    """Quick seeded slice of the full oracle-equivalence acceptance run."""
    ring = get_ring(ring_name)
    rng = random.Random(42)
    for _ in range(60):
        degree = rng.randint(2, degree_cap)
        gens = [g for g in (random_homogeneous(ring, rng.randint(1, degree), rng)
                            for _ in range(rng.randint(1, 2))) if g]
        f = random_homogeneous(ring, degree, rng)
        if not f:
            continue
        if len(graded_ideal_slice(gens, degree)) > 8:
            continue
        assert ideal_contains(gens, f) == contains_by_enumeration(gens, f)


def test_slice_intersection():
    x = D8.gen("x")
    y, w = D8.gen("y"), D8.gen("w")
    for n in range(1, 10):
        assert slice_intersection_is_zero([x], [y * w], n)
    # <y^2> and <y^3> share y^5 in degree 5
    assert not slice_intersection_is_zero([_yw("y^2")], [_yw("y^3")], 5)
    assert slice_intersection_is_zero([_yw("y^2")], [_yw("w")], 3)
    # no generators on one side, or on both
    assert slice_intersection_is_zero([], [], 3)
    assert slice_intersection_is_zero([], [x], 3)
    # Z coefficients: 2*(W + Y^2) = 2*W because Y^2 has order 2
    full = get_ring("D8_Z_FULL")
    W, Y = full.gen("W"), full.gen("Y")
    assert not slice_intersection_is_zero([2 * W], [W + Y ** 2], 4)
    assert slice_intersection_is_zero([2 * W], [Y ** 2], 4)


def test_slice_intersection_rejects_degree_below_one():
    # H^0 of a Z ring is Z, not a finite slice: 4Z meets Z in 4Z, not 0
    full = get_ring("D8_Z_FULL")
    with pytest.raises(ValueError):
        slice_intersection_is_zero([4 * full.one()], [full.one()], 0)
    with pytest.raises(ValueError):
        slice_intersection_is_zero([], [], -1)


def _span_elements(elems, zero):
    """Every sum of Z/4 multiples of the elements (F2 reduces mod 2)."""
    span = {zero}
    for e in elems:
        span = {s + c * e for s in span for c in range(4)}
    return span


@pytest.mark.parametrize("ring", [YW_F2] + [get_ring(name) for name in (
    "D8_F2", "H1_F2", "D8_Z_BOUND", "D8_Z_FULL", "H1_Z", "H2_Z")],
    ids=lambda ring: ring.name)
def test_slice_intersection_matches_brute_force(ring):
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        degree = rng.randint(1, 8)
        if not 0 < len(ring.monomials(degree)) <= 5:
            continue
        a_gens, b_gens = ([random_homogeneous(ring, rng.randint(1, degree), rng)
                           for _ in range(rng.randint(1, 2))] for _ in range(2))
        span_a = _span_elements(graded_ideal_slice(a_gens, degree), ring.zero())
        span_b = _span_elements(graded_ideal_slice(b_gens, degree), ring.zero())
        assert slice_intersection_is_zero(a_gens, b_gens, degree) == \
            (span_a & span_b == {ring.zero()})
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("ring_name", ["D8_Z_BOUND", "D8_Z_FULL", "H1_Z", "H2_Z",
                                       "H3_Z", "Z2xZ2_Z"])
def test_z_membership_matches_element_arithmetic(ring_name):
    """ideal_contains against lookup in the set of every Z/4 combination
    of the ideal slice, formed in RingElement arithmetic, so the encoding
    is not shared."""
    ring = get_ring(ring_name)
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        degree = rng.randint(1, 8)
        slice_ = ring.graded_slice(degree)
        if not 0 < len(slice_) <= 4:
            continue
        gens = [g for g in (random_homogeneous(ring, rng.randint(1, degree), rng)
                            for _ in range(rng.randint(1, 2))) if g]
        span = _span_elements(graded_ideal_slice(gens, degree), ring.zero())
        orders = [ring.monomial_order(m) for m in slice_.basis]
        for coeffs in itertools.product(*(range(o) for o in orders)):
            f = ring.element(dict(zip(slice_.basis, coeffs)))
            assert ideal_contains(gens, f) == (f in span), (gens, f)
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("ring_name", ["D8_F2", "H1_F2", "D8_Z_BOUND", "D8_Z_FULL",
                                       "H3_Z"])
def test_vector_element_inverts_element_vector(ring_name):
    """Every element of a small slice survives the round trip through its
    packed vector, and distinct elements get distinct vectors."""
    ring = get_ring(ring_name)
    for degree in range(1, 7):
        slice_ = ring.graded_slice(degree)
        if not 0 < len(slice_) <= 4:
            continue
        vectors = set()
        orders = [ring.monomial_order(m) for m in slice_.basis]
        for coeffs in itertools.product(*(range(o) for o in orders)):
            f = ring.element(dict(zip(slice_.basis, coeffs)))
            v = element_vector(f, slice_)
            assert vector_element(v, slice_, ring) == f
            vectors.add(v)
        assert len(vectors) == 2 ** sum(o.bit_length() - 1 for o in orders)
