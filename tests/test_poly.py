import itertools
import random
import zlib

import pytest

from d8index import poly
from d8index.bounds import (CRITERION_REGISTRY, bound_report, criterion_ideal,
                            criterion_targets, expected_min_d,
                            verify_inclusion_steps, verify_membership_transfer)
from d8index.indexes import index_sphere_r4j_z
from d8index.linalg import z4_in_span
from d8index.poly import (GradedSlice, _common_ring, element_vector, graded_ideal_slice, graded_slice,
                          ideal_contains, ideal_slice_vectors, ideal_subset,
                          slice_intersection_is_zero,
                          span_contains_by_enumeration)
from d8index.rings import (CATALOG, RingMismatchError, RingPresentation,
                           YW_F2, get_ring)
from d8index.verify import random_homogeneous

BOUND = get_ring("D8_Z_BOUND")
D8 = get_ring("D8_F2")
# a strand ring whose shifts leave the order-4 v^k for order-2 monomials
CUBE_Z = RingPresentation("BUV_Z", "Z", ("b", "u", "v"), (1, 3, 6), (2, 2, 4),
                          relations=[((3, 0, 0), {(0, 1, 0): 1})])
T_Z = RingPresentation("T", "Z", ("u", "v"), (2, 2), (4, 2))
# free degrees 2 and 3: not a strand ring
UV23_F2 = RingPresentation("UV23_F2", "F2", ("u", "v"), (2, 3))


def _yw(text):
    return YW_F2.parse(text)


def _enumerate_ideal(gens, f):
    """The enumeration oracle on the ideal <gens>: its span of f's degree
    in ring arithmetic, or `gens` itself when f = 0, where no degree is
    defined and the oracle only checks the generators."""
    span = graded_ideal_slice(gens, f.degree()) if f else gens
    return span_contains_by_enumeration(span, f)


def test_graded_ideal_slice_examples():
    slice3 = graded_ideal_slice([_yw("y^2"), _yw("y^3+w*y")], 3)
    assert [str(e) for e in slice3] == ["y^3", "y^3+w*y"]
    # generator degrees in the bound ring are 4 and 6: nothing in degree 5
    assert graded_ideal_slice([BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y")], 5) == []
    assert graded_ideal_slice([], 7) == []


def test_graded_ideal_slice_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        graded_ideal_slice([_yw("y+w")], 3)


@pytest.mark.parametrize("decide", [ideal_contains, _enumerate_ideal])
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


@pytest.mark.parametrize("ring", [YW_F2, CUBE_Z, UV23_F2, *CATALOG.values()],
                         ids=lambda ring: ring.name)
def test_packed_span_matches_ring_arithmetic(ring):
    rng = random.Random(23)
    checked = 0
    for _ in range(30):
        degree = rng.randint(1, 12)
        gens = [random_homogeneous(ring, rng.randint(0, degree), rng)
                for _ in range(rng.randint(1, 3))]
        slice_ = graded_slice(ring, degree)
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
            slice_ = graded_slice(ring, degree)
            for g in gens:
                assert ideal_slice_vectors([g], slice_) == \
                    _ring_span_vectors([g], slice_), (ring.name, g, degree)
    # 2*(Y*W) = 0: every product of 2*W with Y*m drops out
    assert ideal_slice_vectors([BOUND.parse("2*W")], graded_slice(BOUND, 6)) == []


@pytest.mark.parametrize("ring_name, degree", [("H2_F2", 2 ** 17 + 3),
                                               ("K3_Z", 2 ** 18 + 2)])
def test_huge_exponents_land_on_their_bits(ring_name, degree):
    """Products with exponents above 2^17 land on their monomials' bits:
    the spans match ring arithmetic, with nothing packed per exponent."""
    ring = get_ring(ring_name)
    slice_ = graded_slice(ring, degree)
    top = ring.element({slice_.basis[0]: 1})
    gens = [ring.gen(s) for s in ring.gens] + [top]
    assert ideal_slice_vectors(gens, slice_) == _ring_span_vectors(gens, slice_)
    assert ideal_contains(gens[:1], top)


def test_graded_slice_orders():
    bound = get_ring("D8_Z_BOUND")
    slice8 = graded_slice(bound, 8)
    assert bound.monomial_order((0, 0, 2)) == 4      # W^2
    assert bound.monomial_order((2, 0, 1)) == 2      # Y^2*W
    assert slice8.mask4 == 1 << slice8.index[(0, 0, 2)]
    assert slice8.degree == 8


def test_graded_slice_is_reused_at_one_degree():
    """A slice is returned again after asks of other rings and degrees,
    and rebuilt only once `graded_slice` has been asked for as many other
    (ring, degree) pairs as it keeps: memory stays bounded."""
    graded_slice.cache_clear()
    ring = get_ring("D8_Z_FULL")
    s9 = graded_slice(ring, 9)
    assert s9.degree == 9 and s9.basis == tuple(ring.monomials(9))
    assert graded_slice(ring, 9) is s9
    graded_slice(ring, 8)
    graded_slice(D8, 4)
    assert graded_slice(ring, 9) is s9
    size = graded_slice.cache_info().maxsize
    assert size == poly.SLICE_CACHE_SIZE == 16
    others = [(r, n) for r in (ring, D8) for n in range(10, 20)][:size - 1]
    for other in others:
        graded_slice(*other)
    assert graded_slice(ring, 9) is s9  # size - 1 other pairs: still kept
    for other in others + [(BOUND, 3)]:
        graded_slice(*other)
    assert graded_slice(ring, 9) is not s9  # size other pairs: rebuilt


def _basis_path_vectors(gens, slice_, monkeypatch):
    """`ideal_slice_vectors` with the strand path turned off: every
    multiplier is read from its degree's slice."""
    with monkeypatch.context() as patch:
        patch.setattr(RingPresentation, "strand", lambda ring, degree: None)
        return ideal_slice_vectors(gens, slice_)


def test_strand_path_matches_basis_path_on_every_criterion_slice(monkeypatch):
    """For j <= 128 and d one below, at and one above `expected_min_d`,
    the shifted vectors of each criterion ideal over each target's slice
    are the basis path's, in value and order."""
    compared = 0
    for criterion in CRITERION_REGISTRY:
        for j in range(1, 129):
            d_star = expected_min_d(j, criterion)
            for d in (d_star - 1, d_star, d_star + 1):
                gens = criterion_ideal(criterion, d)
                assert gens[0].ring.strand(0) is not None
                for target in criterion_targets(criterion, j):
                    slice_ = graded_slice(target.ring, target.degree())
                    assert ideal_slice_vectors(gens, slice_) == \
                        _basis_path_vectors(gens, slice_, monkeypatch), (criterion, j, d)
                    compared += 1
    assert compared == 1344


def test_strand_shift_reduces_coefficients_onto_order_2_monomials(monkeypatch):
    """A shift that moves 2 or 3 times an order-4 monomial onto an
    order-2 one kills 2 and turns 3 into 1: Y^2 * 3W is Y^2*W, Y^2 * 2W
    is 0, while W * 3W keeps 3 on the order-4 W^2.  The same holds for
    v^k in a strand ring made here, and H2_Z, all of order 4 and off
    the strand path, keeps every coefficient on the basis path.  In T
    (u of order 4, v of order 2, both of degree 2) the lowest multiplier
    v^k of 3*u gives the order-2 u*v^k, whose last shift is the order-4
    u^(k+1): the raw Z/4 sum is shifted before it is masked, so 3
    survives there, where the product m0 * g put in normal form first
    would carry 1."""
    slice8 = graded_slice(BOUND, 8)
    assert slice8.basis == ((4, 0, 0), (2, 0, 1), (0, 0, 2))  # bits 2, 1, 0
    assert ideal_slice_vectors([BOUND.parse("3*W")], slice8) == [(0b10, 0), (0b01, 0b01)]
    assert ideal_slice_vectors([BOUND.parse("2*W")], slice8) == [(0, 0b01)]
    cases = [(BOUND, ["2*W", "3*W", "2*W^2", "3*W^2+Y^4", "3*W^3+Y^4*W", "M*W"], range(8, 25)),
             (CUBE_Z, ["2*v", "3*v", "2*v^2", "3*v+u^2", "3*v^2+b*u^3*b^2"], range(6, 25)),
             (get_ring("H2_Z"), ["2*U", "3*U", "3*U^2"], range(2, 13, 2)),
             (T_Z, ["3*u", "2*u", "3*u+v", "2*u^2+v^2", "3*u*v+u^2"], range(4, 13))]
    for ring, texts, degrees in cases:
        assert (ring.strand(0) is None) == (ring.name == "H2_Z")
        for degree in degrees:
            slice_ = graded_slice(ring, degree)
            for g in map(ring.parse, texts):
                vectors = ideal_slice_vectors([g], slice_)
                assert vectors == _ring_span_vectors([g], slice_), (ring.name, g, degree)
                assert vectors == _basis_path_vectors([g], slice_, monkeypatch)


def _slices_built(monkeypatch, run):
    """The (ring, degree) of every graded slice `run()` builds, from an
    empty slice cache, in build order."""
    graded_slice.cache_clear()
    built = []
    init = GradedSlice.__init__

    def counting_init(self, ring, degree):
        built.append((ring.name, degree))
        init(self, ring, degree)

    with monkeypatch.context() as patch:
        patch.setattr(GradedSlice, "__init__", counting_init)
        run()
    return built


def test_bound_reports_up_to_32_build_96_slices(monkeypatch):
    """Every criterion ring is a strand ring, so a report builds only its
    target slices, never a multiplier degree: j = 1..32 build 96 slices,
    one per target (ring, degree), none twice (293 over 191 pairs when
    every multiplier degree was a slice)."""
    def reports():
        for j in range(1, 33):
            bound_report(j)

    built = _slices_built(monkeypatch, reports)
    targets = {(t.ring.name, t.degree()) for j in range(1, 33)
               for criterion in CRITERION_REGISTRY
               for t in criterion_targets(criterion, j)}
    assert len(built) == len(set(built)) == 96
    assert set(built) == targets


def test_inclusion_steps_build_each_target_slice_once(monkeypatch):
    """`verify_inclusion_steps(12, 24)` builds one slice per degree of
    the generators of A_j, j <= 13: 14 builds (230 over 43 pairs when
    every multiplier degree was a slice)."""
    built = _slices_built(monkeypatch, lambda: verify_inclusion_steps(12, 24))
    degrees = {g.degree() for j in range(1, 14) for g in index_sphere_r4j_z(j)}
    assert len(built) == len(set(built)) == 14
    assert set(built) == {("D8_Z_BOUND", n) for n in degrees}


def test_membership_transfer_sweep_builds_each_target_slice_once(monkeypatch):
    """The `verify_membership_transfer` sweep of `verify` (d <= 20,
    j <= 10) builds the slice of each target a^j c^j (a+c)^j once: 10
    builds (112 over 30 pairs when every multiplier degree was a
    slice)."""
    built = _slices_built(monkeypatch, lambda: all(
        verify_membership_transfer(d, j)
        for j in range(1, 11) for d in range(1, 21)))
    assert built == [("H1_F2", 3 * j) for j in range(1, 11)]


def _fresh_verdict(gens, f):
    """ideal_contains on a slice built here, outside the slice cache."""
    fresh = GradedSlice(f.ring, f.degree())
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
    with another degree, give the verdicts of fresh slices, and no
    decision leaves state in a slice: after every order each cached slice
    equals a fresh one in every slot."""
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
        graded_slice.cache_clear()  # every order starts afresh
        for step in order:
            if step == "other":
                ideal_contains(first + second, g)
                continue
            gens = (first, second)[step]
            for f in fs:
                assert ideal_contains(gens, f) == expected[(step, f)]
        for n in range(1, max(degree, g.degree()) + 1):
            cached, fresh = graded_slice(ring, n), GradedSlice(ring, n)
            for slot in GradedSlice.__slots__:
                assert getattr(cached, slot) == getattr(fresh, slot), (order, n, slot)


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
    assert _enumerate_ideal([_yw("y^2")], YW_F2.zero())
    with pytest.raises(ValueError):
        _enumerate_ideal([_yw("y^2")], YW_F2.one())
    with pytest.raises(RingMismatchError):
        _enumerate_ideal([_yw("y")], D8.gen("y"))


def test_enumeration_over_a_given_span():
    """The span may be any list of elements of f's ring and degree, not
    only the `graded_ideal_slice` of an ideal."""
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
                        == _enumerate_ideal(gens, f)
                        == ideal_contains(gens, f))


def test_enumeration_rejects_span_elements_of_another_degree_or_ring():
    """A span element not of f's degree raises ValueError, as the deciders
    do on bad input, and one of another ring RingMismatchError."""
    y = _yw("y")
    for span in ([y], [y * y, _yw("y^3+w*y")], [_yw("w+y")]):
        with pytest.raises(ValueError, match="not of degree 2"):
            span_contains_by_enumeration(span, y * y)
    with pytest.raises(RingMismatchError):
        span_contains_by_enumeration([D8.gen("y") ** 2], y * y)


def test_enumeration_of_zero_is_true():
    """0 is the empty sum, whatever the span, as for the deciders (it
    raised TypeError before); and as the deciders refuse an
    inhomogeneous generator at f = 0, the enumeration refuses an
    inhomogeneous span element (it returned True before)."""
    assert span_contains_by_enumeration([], YW_F2.zero())
    assert span_contains_by_enumeration([_yw("y^2")], YW_F2.zero())
    with pytest.raises(RingMismatchError):
        span_contains_by_enumeration([D8.gen("y")], YW_F2.zero())
    with pytest.raises(ValueError, match="inhomogeneous"):
        span_contains_by_enumeration([_yw("y+w")], YW_F2.zero())


def test_enumeration_rejects_a_degree_zero_target():
    """H^0 of a Z ring is Z, not a finite slice: 2 is not in 3Z, but the
    bitplanes read 3 as 1 and 2 as 0 (it returned True before)."""
    one = get_ring("D8_Z_FULL").one()
    for span, f in (([3 * one], 2 * one), ([], YW_F2.one())):
        with pytest.raises(ValueError, match="positive-degree"):
            span_contains_by_enumeration(span, f)


def _reference_span_contains(span, f):
    """`span_contains_by_enumeration` as it was before its closure skipped
    covered vectors and stopped at the target: every vector's multiples
    are added to every sum, and the target is looked up at the end."""
    _common_ring(list(span) + [f])
    slice_ = graded_slice(f.ring, f.degree())
    target = element_vector(f, slice_)
    vectors = [element_vector(e, slice_) for e in span]
    mask4 = slice_.mask4

    def plus(a, b):
        return a[0] ^ b[0], (a[1] ^ b[1] ^ (a[0] & b[0])) & mask4

    sums = {(0, 0)}
    for v in vectors:
        multiples = {v, (0, v[0] & mask4), plus(v, (0, v[0] & mask4))} - {(0, 0)}
        sums |= {plus(s, m) for s in sums for m in multiples}
    return target in sums


@pytest.mark.parametrize("ring", CATALOG.values(), ids=lambda ring: ring.name)
def test_enumeration_matches_the_full_closure(ring):
    """Random spans, each with repeated vectors, vectors the earlier ones
    already cover (c*e, sums of two) and zero vectors among them, against
    member targets (sums of multiples of the span) and random targets,
    over every catalog ring: in a Z ring with an order-2 generator the
    slices mix order-2 and order-4 coordinates, or hold only order-2
    ones."""
    rng = random.Random(zlib.crc32(ring.name.encode()))
    hi = 1 if ring.coeff == "F2" else 3
    answers = []
    for _ in range(60):
        degree = rng.randint(1, 8)
        if not ring.monomials(degree):
            continue
        base = [random_homogeneous(ring, degree, rng)
                for _ in range(rng.randint(0, 3))]
        span = list(base)
        for _ in range(rng.randint(0, 4) if base else 0):
            e, e2 = rng.choice(base), rng.choice(base)
            span.append(rng.choice([e, rng.randint(0, hi) * e, e + e2]))
        rng.shuffle(span)
        member = ring.zero()
        for e in span:
            member = member + rng.randint(0, hi) * e
        for f in (member, random_homogeneous(ring, degree, rng)):
            if f:
                expected = _reference_span_contains(span, f)
                assert span_contains_by_enumeration(span, f) == expected
                answers.append(expected)
    assert True in answers and False in answers


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
        assert ideal_contains(gens, f) == _enumerate_ideal(gens, f)


@pytest.mark.parametrize("ring_name", ["YW_F2", "D8_F2"])
def test_f2_membership_matches_sympy_groebner(ring_name):
    """Random instances of degree 12..20, past the enumeration oracle's F2
    cap of 8, against sympy's Groebner basis over GF(2), which shares no
    code with the slice solver.  In D8_F2 the relation x*y joins the
    basis, since the ring is F2[x,y,w]/<x*y>.  Half the targets are drawn
    inside the ideal; both verdicts occur."""
    sympy = pytest.importorskip("sympy")
    ring = YW_F2 if ring_name == "YW_F2" else get_ring(ring_name)
    symbols = sympy.symbols(ring.gens)
    relations = [sympy.Mul(*symbols[:2])] if ring_name == "D8_F2" else []

    def expr(e):
        return sympy.Add(*(sympy.Mul(*(s ** k for s, k in zip(symbols, mono)))
                           for mono in e.terms))

    rng = random.Random(61)
    verdicts = []
    for _ in range(20):
        degree = rng.randint(12, 20)
        gens = [g for g in (random_homogeneous(ring, rng.randint(2, 10), rng)
                            for _ in range(rng.randint(1, 3))) if g]
        f = ring.zero()
        if rng.random() < 0.5:
            for g in gens:
                f = f + random_homogeneous(ring, degree - g.degree(), rng) * g
        f = f or random_homogeneous(ring, degree, rng)
        groebner = sympy.groebner([expr(g) for g in gens] + relations,
                                  *symbols, modulus=2)
        verdict = ideal_contains(gens, f)
        assert verdict == groebner.contains(expr(f)), (gens, f)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


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
        slice_ = graded_slice(ring, degree)
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
def test_element_vector_is_injective(ring_name):
    """Distinct elements of a small slice get distinct packed vectors: as
    many vectors as the slice has elements."""
    ring = get_ring(ring_name)
    for degree in range(1, 7):
        slice_ = graded_slice(ring, degree)
        if not 0 < len(slice_) <= 4:
            continue
        vectors = set()
        orders = [ring.monomial_order(m) for m in slice_.basis]
        for coeffs in itertools.product(*(range(o) for o in orders)):
            f = ring.element(dict(zip(slice_.basis, coeffs)))
            vectors.add(element_vector(f, slice_))
        assert len(vectors) == 2 ** sum(o.bit_length() - 1 for o in orders)
