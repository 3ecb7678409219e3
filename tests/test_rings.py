import copy
import itertools
import random
import zlib

import pytest
from test_poly import CUBE_Z, UV23_F2

from d8index.bounds import bound_report
from d8index.rings import (CATALOG, ElementParseError,
                           RingElement, RingMismatchError, RingPresentation,
                           YW_F2, get_ring)
from d8index.verify import random_homogeneous

ALL_RING_IDS = [
    "D8_F2", "D8_Z_FULL", "D8_Z_BOUND",
    "H1_F2", "H1_Z", "H2_F2", "H2_Z", "H3_F2", "H3_Z",
    "K1_F2", "K2_F2", "K3_F2", "K4_F2", "K5_F2", "K3_Z",
    "Z2xZ2_F2", "Z2xZ2_Z", "Z2_F2", "Z2_Z",
]


def test_catalog_identifiers():
    assert sorted(CATALOG) == sorted(ALL_RING_IDS)
    with pytest.raises(KeyError):
        get_ring("D8_Q")


def test_addition_examples():
    y, w = YW_F2.gen("y"), YW_F2.gen("w")
    assert (y + w) + w == y
    bound = get_ring("D8_Z_BOUND")
    W = bound.gen("W")
    assert 2 * W + 2 * W == bound.zero()
    p = y ** 3 + w * y
    assert p + YW_F2.zero() == p


def test_multiplication_examples():
    y = YW_F2.gen("y")
    assert y * y == YW_F2.parse("y^2")
    d8 = get_ring("D8_F2")
    assert d8.gen("x") * d8.gen("y") == d8.zero()
    bound = get_ring("D8_Z_BOUND")
    assert bound.gen("M") * bound.gen("M") == bound.parse("W*Y")


def test_normal_form_examples():
    d8 = get_ring("D8_F2")
    assert d8.parse("x^2*y*w") == d8.zero()
    full = get_ring("D8_Z_FULL")
    assert full.parse("M^2*X") == full.parse("W*X^2")
    h1z = get_ring("H1_Z")
    assert h1z.parse("mu^2") == h1z.parse("alpha^2*beta+alpha*beta^2")
    h2 = get_ring("H2_F2")
    assert h2.parse("e^2") == h2.zero()
    h3z = get_ring("H3_Z")
    assert h3z.parse("eta^2") == h3z.parse("gamma^2*delta+gamma*delta^2")
    zz = get_ring("Z2xZ2_Z")
    assert zz.parse("mu^2") == zz.parse("tau1^2*tau2+tau1*tau2^2")


@pytest.mark.parametrize("name, sym", [("H1_Z", "mu"), ("H3_Z", "eta"),
                                       ("Z2xZ2_Z", "mu")])
def test_two_term_rule_rewrites_a_power_in_polynomial_steps(name, sym, monkeypatch):
    """Rewriting sym^2 -> two terms one raw term at a time fans sym^(2k)
    out into 2^k terms, one rewrite each; adding up equal monomials in
    each round leaves at most k + 1 a round."""
    ring = get_ring(name)
    rewrite, calls = RingPresentation._rewrite, []

    def counted(*args):
        calls.append(args)
        return rewrite(*args)

    monkeypatch.setattr(RingPresentation, "_rewrite", staticmethod(counted))
    power = ring.parse(f"{sym}^24")
    assert len(calls) <= 13 * 14 // 2
    monkeypatch.undo()
    assert power == ring.parse(f"{sym}^2") ** 12
    assert ring.parse(f"{sym}^602") == ring.parse(f"{sym}^2") ** 301


def test_coefficient_orders():
    full = get_ring("D8_Z_FULL")
    assert full.monomial_order((0, 0, 0, 2)) == 4   # W^2
    assert full.monomial_order((1, 0, 0, 1)) == 2   # X*W
    assert full.monomial_order((0, 1, 0, 0)) == 2   # Y
    assert full.monomial_order((0, 0, 0, 0)) == 0   # degree 0 is free
    h2z = get_ring("H2_Z")
    assert h2z.monomial_order((3,)) == 4
    # reduction in action: 4W = 0 but 2W != 0, while 2Y = 0
    W, Y = full.gen("W"), full.gen("Y")
    assert 4 * W == full.zero()
    assert 2 * W != full.zero()
    assert 2 * Y == full.zero()
    # degree-0 coefficients are reduced only in F2 rings
    assert full.parse("3").terms == {(0, 0, 0, 0): 3}
    assert get_ring("D8_F2").parse("3") == get_ring("D8_F2").one()


@pytest.mark.parametrize("name", ALL_RING_IDS + ["YW_F2"])
def test_rewrite_confluence(name):
    ring = YW_F2 if name == "YW_F2" else get_ring(name)
    assert ring.check_confluence()


class Unchecked(RingPresentation):
    """A presentation whose construction skips the confluence refusal, so
    that a test can hold a ring the pair check rejects; the decision
    itself is `RingPresentation.check_confluence(ring)`."""

    def check_confluence(self):
        return True


def _rebuild(ring):
    """The ring's presentation constructed afresh, with every check."""
    return RingPresentation(ring.name, ring.coeff, ring.gens, ring.degrees,
                            ring.orders, ring.relations)


NON_CONFLUENT = Unchecked("F2[x,y]/rules", "F2", ("x", "y"), (1, 1),
                          relations=[((2, 0), {(0, 2): 1}), ((1, 1), {})])


def test_confluence_check_can_fail():
    """x^2 -> y^2, x*y -> 0 terminates but is not confluent: x^2*y
    rewrites to y^3 by one rule and to 0 by the other."""
    assert not RingPresentation.check_confluence(NON_CONFLUENT)


@pytest.mark.parametrize("relations", [
    [((2, 0), {(0, 2): 1}), ((1, 1), {})],
    [((1, 1), {}), ((2, 0), {(0, 2): 1})],
], ids=["listed", "reversed"])
def test_rules_that_are_not_confluent_are_refused(relations):
    """Listed either way round, x^2 -> y^2 and x*y -> 0 would rewrite
    x^2*y to y^3 or to 0 depending on the order; construction refuses
    them."""
    with pytest.raises(ValueError, match="confluent"):
        RingPresentation("F2[x,y]/rules", "F2", ("x", "y"), (1, 1),
                         relations=relations)


def _confluent_to_degree(ring, top):
    """Reference sweep: every monomial of degree <= top, rewritten once
    by each matching rule, has one normal form."""
    for degree in range(top + 1):
        for mono in ring.all_exponents(degree):
            # rep's monomials are distinct, so are their shifts
            firsts = [ring.normal_form(dict(ring._rewrite(mono, 1, pat, rep)))
                      for support, pat, rep in ring._rules
                      if all(mono[i] >= p for i, p in support)]
            if firsts and any(f != firsts[0] for f in firsts[1:]):
                return False
    return True


def _random_presentation(rng):
    """An F2 or Z ring on 2-3 generators of degree 1-3 (order 2 or 4 in
    a Z ring) with 2-4 rules: pattern exponents 0-2, each replaced by 0-2
    monomials of its degree with coefficients 1-3, built as `Unchecked`;
    None when construction refuses it."""
    coeff = rng.choice(("F2", "Z"))
    n = rng.randint(2, 3)
    degrees = tuple(rng.randint(1, 3) for _ in range(n))
    orders = tuple(rng.choice((2, 4)) for _ in range(n)) if coeff == "Z" else None
    relations = []
    for _ in range(rng.randint(2, 4)):
        pat = tuple(rng.randint(0, 2) for _ in range(n))
        degree = sum(e * d for e, d in zip(pat, degrees))
        same = [m for m in itertools.product(*(range(degree // d + 1) for d in degrees))
                if sum(e * d for e, d in zip(m, degrees)) == degree]
        picked = rng.sample(same, min(len(same), rng.randint(0, 2)))
        relations.append((pat, {m: rng.randint(1, 3) for m in picked}))
    try:
        return Unchecked("random", coeff, "uvw"[:n], degrees, orders, relations)
    except ValueError:
        return None


def test_confluence_matches_the_degree_sweep_on_random_presentations():
    """The pairs-of-rules decision agrees with the sweep run 8 degrees
    past the largest lcm of two patterns, on seeded random presentations
    of both verdicts, and construction refuses exactly the presentations
    it finds not confluent."""
    rng = random.Random(34)
    verdicts = []
    while len(verdicts) < 1000:
        ring = _random_presentation(rng)
        if ring is None:
            continue
        top = max(ring.monomial_degree(tuple(map(max, p, q)))
                  for (_, p, _), (_, q, _) in itertools.combinations(ring._rules, 2))
        verdict = RingPresentation.check_confluence(ring)
        assert verdict == _confluent_to_degree(ring, top + 8), ring.relations
        if verdict:
            assert _rebuild(ring) == ring
        else:
            with pytest.raises(ValueError, match="confluent"):
                _rebuild(ring)
        verdicts.append(verdict)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_confluence_lists_no_monomials(monkeypatch):
    """`check_confluence` works from the rules alone: it never lists the
    exponent tuples of a degree, and neither does construction, which
    runs it."""
    def refuse(self, *args):
        raise AssertionError("check_confluence listed monomials")

    monkeypatch.setattr(RingPresentation, "all_exponents", refuse)
    monkeypatch.setattr(RingPresentation, "_exponent_walk", refuse)
    for ring in (*CATALOG.values(), YW_F2):
        assert ring.check_confluence(), ring.name
        assert _rebuild(ring) == ring
    assert not RingPresentation.check_confluence(NON_CONFLUENT)


@pytest.mark.parametrize("name", ALL_RING_IDS)
def test_normal_form_idempotent(name):
    ring = get_ring(name)
    rng = random.Random(zlib.crc32(name.encode()))  # the same in every process
    for _ in range(1000):
        degree = rng.randint(1, 10)
        monos = ring.all_exponents(degree)
        if not monos:
            continue
        terms = {m: rng.randint(1, 3) for m in rng.sample(monos, min(3, len(monos)))}
        once = ring.normal_form(terms)
        assert ring.normal_form(once) == once


ENUMERATED_RINGS = {**CATALOG, "YW_F2": YW_F2,
                    "F2[]": RingPresentation("F2[]", "F2", (), ())}


@pytest.mark.parametrize("name", sorted(ENUMERATED_RINGS))
def test_exponent_enumeration_matches_product(name):
    """Reference: filter the full box of exponent tuples, in the same
    (ascending lexicographic) order, for every degree up to 14."""
    ring = ENUMERATED_RINGS[name]
    for n in range(15):
        box = itertools.product(*(range(n // d + 1) for d in ring.degrees))
        expected = [e for e in box if ring.monomial_degree(e) == n]
        assert ring.all_exponents(n) == expected
        assert ring.monomials(n) == sorted(
            (e for e in expected if ring.is_normal_monomial(e)), reverse=True)


@pytest.mark.parametrize("name, n", [
    (name, n) for name in ("D8_Z_BOUND", "D8_F2") for n in (97, 384, 768)
] + [("D8_Z_FULL", 97), ("D8_Z_FULL", 384)])
def test_staircase_matches_filtered_exponents_at_large_degree(name, n):
    """The staircase lists exactly the normal tuples of `all_exponents`,
    at the degrees of deep verdicts."""
    ring = get_ring(name)
    assert ring.monomials(n) == sorted(
        (e for e in ring.all_exponents(n) if ring.is_normal_monomial(e)),
        reverse=True)


def test_generator_degrees_must_be_positive():
    for degrees in ([0], [-1], [1.0]):
        with pytest.raises(ValueError):
            RingPresentation("F2[t]", "F2", ("t",), degrees)


@pytest.mark.parametrize("orders, relations", [
    ((2, 2), [((1,), {})]),                       # pattern too short
    ((2, 2), [((1, 1, 0), {})]),                  # pattern too long
    ((2, 2), [((1, -1), {})]),                    # negative exponent
    ((2, 2), [((1, 1.0), {})]),                   # non-integer exponent
    ((2, 2), [((0, 2), {(1,): 1})]),              # replacement too short
    ((2, 2), [((0, 2), {(1, 0, 1): 1})]),         # replacement too long
    ((3, 2), []),                                 # order 3
    ((2, 8), []),                                 # order 8
    ((2, 2), [((0, 0), {})]),                     # unit pattern
    ((2, 2), [((2, 0), {(1, 0): 1})]),            # replacement changes degree
    ((2, 2), [((1, 0), {(1, 0): 1})]),            # pattern divides replacement
    ((2, 4), [((2, 0), {(0, 1): 1})]),            # 2*u^2 = 0 but 2*v != 0
    ((2, 2), [((2, 0), {(0, 1): 1}), ((0, 1), {(2, 0): 1})]),  # u^2 -> v -> u^2
])
def test_bad_presentations_are_rejected_at_construction(orders, relations):
    """Only constructed, never rewritten: a malformed rule could make
    `normal_form` loop."""
    with pytest.raises(ValueError):
        RingPresentation("bad", "Z", ("u", "v"), (1, 2), orders=orders,
                         relations=relations)


def test_rules_must_be_oriented_one_lexicographic_way():
    """x^2 -> y^2 with y^2 -> x^2 rewrites x^2 forever, and so do x^2 ->
    xy -> x^2 and a replacement equal to its pattern.  Construction
    refuses them, and every rule set whose replacements move both up and
    down in lex order, even one that terminates (the last: the test is
    sufficient, not necessary).  They are constructed only, never
    normalised.  Confluent rule sets oriented one way are accepted, an
    empty replacement counting for neither direction."""
    def ring(relations):
        return RingPresentation("cyc", "F2", ("x", "y"), (1, 1),
                                relations=relations)

    for relations in ([((2, 0), {(0, 2): 1}), ((0, 2), {(2, 0): 1})],
                      [((2, 0), {(1, 1): 1}), ((1, 1), {(2, 0): 1})],
                      [((2, 0), {(0, 2): 1, (2, 0): 1})],
                      [((0, 2), {(1, 1): 1, (0, 2): 1})],
                      [((2, 0), {(0, 2): 1}), ((0, 3), {(1, 2): 1})]):
        with pytest.raises(ValueError, match="orients"):
            ring(relations)
    down = ring([((2, 0), {(1, 1): 1, (0, 2): 1}), ((0, 2), {})])
    assert down.parse("x^2") == down.parse("x*y")
    up = ring([((0, 2), {(1, 1): 1}), ((1, 1), {(2, 0): 1}), ((3, 0), {})])
    assert up.parse("y^3") == up.zero()
    assert up.parse("x*y") == up.parse("x^2")


def test_rules_must_respect_torsion():
    """X^2 -> W^2 with 2X = 0 and 4W = 0 would make X*(2*X) = 0 but
    (X*X)*2 = 2*W^2.  A replacement term that the pattern's order kills
    is accepted: the coefficient 2 on the order-4 W^2, and an order-2
    term under an order-4 pattern."""
    def ring(orders, rep):
        return RingPresentation("r", "Z", ("X", "W"), (2, 2), orders,
                                relations=[((2, 0), rep)])

    with pytest.raises(ValueError, match="does not kill"):
        ring((2, 4), {(0, 2): 1})
    with pytest.raises(ValueError, match="does not kill"):
        ring((2, 4), {(0, 2): 3, (1, 1): 1})
    doubled = ring((2, 4), {(0, 2): 2})
    assert doubled.parse("X^2") == doubled.parse("2*W^2")
    assert doubled.parse("2*X^2") == doubled.zero()
    order4 = ring((4, 2), {(0, 2): 1})
    assert order4.parse("2*X^2") == order4.zero()
    # an F2 ring has every order 2
    RingPresentation("r", "F2", ("X", "W"), (2, 2),
                     relations=[((2, 0), {(0, 2): 1})])


def test_presentation_equality_is_structural():
    """The name is a label: a renamed copy is equal, hashes alike and its
    elements mix with the original's; other relations or orders differ."""
    bound = get_ring("D8_Z_BOUND")
    gens, degrees = ("Y", "M", "W"), (2, 3, 4)
    relations = [((0, 2, 0), {(1, 0, 1): 1})]
    copy = RingPresentation("renamed", "Z", gens, degrees, (2, 2, 4), relations)
    assert copy == bound and hash(copy) == hash(bound) and copy is not bound
    assert len({copy, bound}) == 1
    for other in (
            RingPresentation("r", "Z", gens, degrees, (2, 2, 4)),
            RingPresentation("r", "Z", gens, degrees, (2, 2, 4),
                             [((0, 2, 0), {(1, 0, 1): 1}), ((2, 0, 0), {})]),
            RingPresentation("r", "Z", gens, degrees, (2, 2, 2), relations),
            RingPresentation("r", "Z", gens, degrees, (2, 4, 4), relations),
            RingPresentation("r", "F2", gens, degrees, relations=relations)):
        assert other != bound
        assert other.parse("Y") != bound.parse("Y")
        with pytest.raises(RingMismatchError):
            _ = other.parse("Y") + bound.parse("Y")
    assert bound != "D8_Z_BOUND"
    a, b = copy.parse("M*Y+3*W"), bound.parse("W^2")
    assert a * b == bound.parse("M*Y") * b + 3 * bound.parse("W^3")
    assert a + bound.parse("W") == bound.parse("M*Y")
    assert (a * a, a - a) == (bound.parse("W*Y^3+W^2"), bound.zero())


class ReferenceNormalForm:
    """`RingPresentation.normal_form`, `_matching_rule` and
    `monomial_order` as they were before construction compiled each
    rule's support and the order-2 generators, copied word for word: the
    compiled normal form must agree with it."""

    def __init__(self, ring):
        self.coeff, self.orders, self.relations = ring.coeff, ring.orders, ring.relations

    def monomial_order(self, mono):
        """Additive order of a normal monomial: 2, 4, or 0 for 'free'."""
        if self.coeff == "F2":
            return 2
        support = [self.orders[i] for i, e in enumerate(mono) if e]
        if not support:
            return 0
        return 4 if min(support) == 4 else 2

    def _reduce_coeff(self, mono, c):
        order = self.monomial_order(mono)
        return c % order if order else c

    def _matching_rule(self, mono):
        for pat, rep in self.relations:
            if all(m >= p for m, p in zip(mono, pat)):
                return pat, rep
        return None

    @staticmethod
    def _rewrite(mono, coeff, pat, rep):
        """One rewrite step of coeff * mono by the rule (pat, rep), pat
        dividing mono: the raw terms of coeff * (mono/pat) * rep."""
        rest = tuple(m - p for m, p in zip(mono, pat))
        return [(tuple(a + b for a, b in zip(rest, rmono)), coeff * rcoeff)
                for rmono, rcoeff in rep]

    def normal_form(self, terms):
        """Rewrite a raw {monomial: int} dict to normal form.

        Rules are applied until none matches (each catalog rule strictly
        lowers a well-founded measure, so this terminates), then coefficients
        are reduced modulo each monomial's additive order.
        """
        out = {}
        stack = list(terms.items())
        while stack:
            mono, coeff = stack.pop()
            if coeff == 0:
                continue
            rule = self._matching_rule(mono)
            if rule is None:
                out[mono] = out.get(mono, 0) + coeff
            else:
                stack += self._rewrite(mono, coeff, *rule)
        return {mono: r for mono, c in out.items()
                if (r := self._reduce_coeff(mono, c))}


REFERENCE_RINGS = {**CATALOG, "YW_F2": YW_F2, "non-confluent": NON_CONFLUENT}


@pytest.mark.parametrize("name", sorted(REFERENCE_RINGS))
def test_compiled_normal_form_matches_reference(name):
    """Random raw dicts of every degree up to 12, normal monomials or not,
    the degree-0 monomial among them, coefficients -3..5 with 0."""
    ring = REFERENCE_RINGS[name]
    reference = ReferenceNormalForm(ring)
    raw = [m for n in range(13) for m in ring.all_exponents(n)]
    for mono in raw:
        assert ring.monomial_order(mono) == reference.monomial_order(mono), mono
    unit = (0,) * len(ring.gens)
    rng = random.Random(zlib.crc32(name.encode()))
    rewritten = 0
    for _ in range(400):
        monos = rng.sample(raw, min(rng.randint(1, 4), len(raw)))
        if rng.random() < 0.2:
            monos.append(unit)
        terms = {m: rng.randint(-3, 5) for m in monos}
        expected = reference.normal_form(terms)
        assert ring.normal_form(terms) == expected, terms
        rewritten += not all(map(ring.is_normal_monomial, terms))
    assert rewritten >= 40 or not ring.relations


@pytest.mark.parametrize("mono", [(-1, 2), (1.5, 1), (1,), (1, 1, 0)])
def test_element_rejects_bad_exponents(mono):
    with pytest.raises(ValueError):
        YW_F2.element({mono: 1})


def test_monomial_basis_is_sorted_and_normal():
    d8 = get_ring("D8_F2")
    basis = d8.monomials(3)
    assert basis == [(3, 0, 0), (1, 0, 1), (0, 3, 0), (0, 1, 1)]
    bound = get_ring("D8_Z_BOUND")
    assert bound.monomials(1) == []
    assert bound.monomials(0) == [(0, 0, 0)]
    assert all(m[1] <= 1 for m in bound.monomials(12))  # M^2 rewrites away


# one free generator: off the strand path, with a staircase of one monomial
ONE_FREE_CATALOG = {"H2_Z", "K1_F2", "K2_F2", "K3_F2", "K4_F2", "K5_F2", "K3_Z",
                    "Z2_F2", "Z2_Z"}
NON_STRAND_CATALOG = {"D8_F2", "H2_F2", "D8_Z_FULL", "H1_Z", "H3_Z", "Z2xZ2_Z",
                      *ONE_FREE_CATALOG}
# CUBE_Z, shared with test_poly: a strand ring with a bounded generator
# first in lex order whose rule rewrites its cube
STRAND_RINGS = [YW_F2, CUBE_Z,
                *(r for name, r in CATALOG.items() if name not in NON_STRAND_CATALOG)]


def test_catalog_rings_that_are_not_strands():
    """Zero products (x*y -> 0, e^2 -> 0) and two-term rules keep a ring
    off the strand path, and so do one or three free generators, a first
    free degree that does not divide the second, or a bounded generator
    whose powers do not fix the degree modulo the free ones."""
    assert {name for name, r in CATALOG.items()
            if r.strand(0) is None} == NON_STRAND_CATALOG
    assert all(r.strand(0) is not None for r in STRAND_RINGS)
    free3 = RingPresentation("ABC_F2", "F2", ("a", "b", "c"), (1, 1, 1))
    square = RingPresentation("BUV_F2", "F2", ("b", "u", "v"), (2, 2, 2),
                              relations=[((2, 0, 0), {(0, 2, 0): 1})])
    for ring in (free3, square):
        assert ring.strand(0) is None
        assert len(_steps(ring.monomials(2)[::-1])) > 1  # not one progression


def _steps(ascending):
    """The differences of consecutive monomials of a list."""
    return {tuple(b - a for a, b in zip(m, m_next))
            for m, m_next in zip(ascending, ascending[1:])}


@pytest.mark.parametrize(
    "ring", [*STRAND_RINGS, UV23_F2, *map(get_ring, sorted(ONE_FREE_CATALOG))],
    ids=lambda ring: ring.name)
def test_strand_closed_form_matches_the_staircase(ring):
    """In ascending lex order each degree's normal monomials, as the
    staircase walk lists them, are `strand`'s m0 + k*step, k < count,
    with one step at every degree.  A ring off the strand path (one free
    generator, or free degrees 2 and 3) has no closed form at any degree:
    `strand` is None, and `monomials` lists the normal tuples of
    `all_exponents`, in descending order."""
    is_strand = ring in STRAND_RINGS
    steps = set()
    for n in range(-2, 301):
        if not is_strand:
            assert ring.strand(n) is None, n
            assert ring.monomials(n) == [m for m in ring.all_exponents(n)[::-1]
                                         if ring.is_normal_monomial(m)], n
            continue
        ascending = ring._exponent_walk(n, staircase=True)
        low, count = ring.strand(n)
        assert count == len(ascending), n
        assert low == (ascending[0] if ascending else None), n
        steps |= _steps(ascending)
    assert len(steps) <= 1


def test_rings_keep_no_per_degree_state():
    """Listing an unseen degree and running the bound reports to j = 64
    leave every ring's attributes as they were: the one per-degree cache
    is `poly.graded_slice`, bounded, and no ring grows a cache of its
    own."""
    rings = [*CATALOG.values(), YW_F2]
    before = [copy.deepcopy(vars(ring)) for ring in rings]
    for ring in rings:
        assert ring.monomials(1000)  # no earlier test lists degree 1000
    for j in range(1, 65):
        bound_report(j)
    assert [vars(ring) for ring in rings] == before


def test_parse_and_print_round_trip():
    samples = {
        "YW_F2": ["y^3+w*y", "0", "1", "w^2*y"],
        "D8_Z_BOUND": ["2*W^2+Y*M", "M*Y", "3*W", "Y^3+W*Y"],
        "D8_Z_FULL": ["W*X^2", "2*W", "M*X"],
        "H3_F2": ["c^2+c*d", "d^3"],
        "Z2xZ2_Z": ["mu*tau1", "tau1^2+tau2^2"],
    }
    for name, texts in samples.items():
        ring = YW_F2 if name == "YW_F2" else get_ring(name)
        for text in texts:
            e = ring.parse(text)
            assert ring.parse(str(e)) == e


def test_parse_term_order_insensitive():
    bound = get_ring("D8_Z_BOUND")
    assert bound.parse("2*W^2+Y*M") == bound.parse("M*Y+W^2*2")


def test_negative_constants_round_trip():
    """Subtraction can leave a negative value on the free degree-0 part
    of a Z-coefficient ring; its printed form must re-parse."""
    full = get_ring("D8_Z_FULL")
    e = full.zero() - 3 * full.one()
    assert str(e) == "-3"
    assert full.parse(str(e)) == e
    assert full.parse("-2+W") == full.gen("W") - 2 * full.one()


def test_parse_errors():
    d8 = get_ring("D8_F2")
    for bad in ["", "y+", "q^2", "y^", "x**2", "2.5*x"]:
        with pytest.raises(ElementParseError):
            d8.parse(bad)


def test_parse_reports_overlong_integers():
    """A coefficient or exponent past the interpreter's int-conversion
    digit limit is a parse error naming the factor, not a bare
    ValueError from int()."""
    d8 = get_ring("D8_F2")
    for text in ("1" * 5000 + "*x", "x^" + "1" * 5000):
        with pytest.raises(ElementParseError, match="too long") as info:
            d8.parse(text)
        assert type(info.value) is ElementParseError
        assert text.split("*")[0][:20] in str(info.value)


def test_h3_display_names():
    e = get_ring("H3_F2").parse("c*d^2")
    assert str(e) == "c*d^2"


def test_ring_mismatch():
    y = YW_F2.gen("y")
    x = get_ring("D8_F2").gen("x")
    with pytest.raises(RingMismatchError):
        _ = y + x
    with pytest.raises(RingMismatchError):
        _ = y * x


def test_degree_and_homogeneity():
    """`degree()` keeps its value after the first call: the same answer,
    None for zero and ValueError for an inhomogeneous element on every
    call, with equality and hashing untouched.  That holds for elements
    built by `element`, by `RingElement(ring, terms)`, by `**` and by a
    hom application alike: a failure is never kept."""
    from d8index.homs import restriction

    y, w = YW_F2.gen("y"), YW_F2.gen("w")
    zero, mixed = YW_F2.zero(), y + w
    res = restriction("D8", "H1", "F2")
    d8 = get_ring("D8_F2")
    homogeneous = [(y ** 2 + w, 2), (zero, None),
                   (RingElement(YW_F2, {(3, 0): 1, (1, 1): 1}), 3),
                   (RingElement(YW_F2, {}), None),
                   ((y * w + y ** 3) ** 5, 15), (mixed ** 0, 0), (zero ** 3, None),
                   ((y ** 2 + w) ** 3, 6),
                   (res(d8.gen("w") ** 2 + d8.gen("y") ** 4), 4),
                   (res(d8.gen("x")), None)]
    inhomogeneous = [mixed, RingElement(YW_F2, {(1, 0): 1, (0, 1): 1}),
                     mixed ** 2, (y + w * y) ** 5,
                     res(d8.gen("y") + d8.gen("w"))]
    for _ in range(2):
        for element, degree in homogeneous:
            assert element.degree() == degree, element
        for element in inhomogeneous:
            with pytest.raises(ValueError, match="inhomogeneous"):
                element.degree()
    asked, fresh = y ** 2 + w, y ** 2 + w
    assert asked.degree() == 2
    assert asked == fresh and hash(asked) == hash(fresh)
    assert zero == YW_F2.zero() and hash(zero) == hash(YW_F2.zero())


def _random_element(ring, rng):
    """A sum of random homogeneous elements of two degrees, with a
    degree-0 integer in a Z ring (degree 0 is not reduced, so its powers
    grow)."""
    element = (random_homogeneous(ring, rng.randint(1, 4), rng)
               + random_homogeneous(ring, rng.randint(1, 4), rng))
    if ring.coeff == "Z" and rng.random() < 0.5:
        element = element + rng.choice([-3, -1, 2, 5])
    return element


@pytest.mark.parametrize("name", ALL_RING_IDS + ["YW_F2"])
def test_power_is_repeated_multiplication(name):
    """x^0 is one, zero included; zero^n is zero; a negative exponent is
    refused; x^n is x multiplied n times for n <= 12, on random
    elements, on every order-4 generator with coefficients 1 to 3, and
    on a degree-0 integer in a Z ring."""
    ring = YW_F2 if name == "YW_F2" else get_ring(name)
    one, zero = ring.one(), ring.zero()
    rng = random.Random(zlib.crc32(name.encode()))
    samples = [one, ring.gen(ring.gens[0]), _random_element(ring, rng),
               _random_element(ring, rng), _random_element(ring, rng)]
    if ring.coeff == "Z":
        samples += [ring.element({(0,) * len(ring.gens): c}) for c in (-3, 2, 7)]
        samples += [c * ring.gen(s) + 2
                    for s, order in zip(ring.gens, ring.orders) if order == 4
                    for c in (1, 2, 3)]
    assert zero ** 0 == one
    with pytest.raises(ValueError, match="negative"):
        ring.gen(ring.gens[0]) ** -1
    for n in range(1, 13):
        assert zero ** n == zero
    for x in samples:
        assert x ** 0 == one
        product = one
        for n in range(1, 13):
            product = product * x
            assert x ** n == product, (x, n)


@pytest.mark.parametrize("name", [n for n in ALL_RING_IDS if n.endswith("_F2")])
def test_f2_powers_are_repeated_products(name):
    """On random elements of every F2 catalog ring, with up to six terms
    over two degrees, x^2 is x * x and x^4 is (x * x) * (x * x)."""
    ring = get_ring(name)
    rng = random.Random(zlib.crc32(name.encode()) ^ 2)
    for _ in range(40):
        x = (random_homogeneous(ring, rng.randint(1, 6), rng, max_terms=4)
             + random_homogeneous(ring, rng.randint(1, 6), rng, max_terms=2))
        square = x * x
        assert x ** 2 == square, x
        assert x ** 4 == square * square, x


def test_printing_orders_terms_and_factors():
    # terms: descending lex on exponents; factors: descending generator degree
    assert str(YW_F2.parse("w*y^3+y^5+w^2*y")) == "y^5+w*y^3+w^2*y"
    bound = get_ring("D8_Z_BOUND")
    assert str(bound.parse("Y*M")) == "M*Y"
