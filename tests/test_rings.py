import copy
import itertools
import random
import zlib

import pytest

from d8index.bounds import bound_report
from d8index.rings import (CATALOG, ElementParseError,
                           RingMismatchError, RingPresentation, YW_F2,
                           get_ring)

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


NON_CONFLUENT = RingPresentation("F2[x,y]/rules", "F2", ("x", "y"), (1, 1),
                                 relations=[((2, 0), {(0, 2): 1}), ((1, 1), {})])


def test_confluence_check_can_fail():
    """x^2 -> y^2, x*y -> 0 terminates but is not confluent: x^2*y
    rewrites to y^3 by one rule and to 0 by the other."""
    assert not NON_CONFLUENT.check_confluence()


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
    normalised.  Rule sets oriented one way are accepted, an empty
    replacement counting for neither direction."""
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
    down = ring([((2, 0), {(1, 1): 1, (0, 2): 1}), ((1, 1), {(0, 2): 1})])
    assert down.parse("x^2") == down.zero()
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
                             [((0, 2, 0), {(1, 0, 1): 1}), ((1, 1, 0), {})]),
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
    call, with equality and hashing untouched."""
    y, w = YW_F2.gen("y"), YW_F2.gen("w")
    zero, mixed = YW_F2.zero(), y + w
    for _ in range(2):
        assert (y ** 2 + w).degree() == 2
        assert zero.degree() is None
        with pytest.raises(ValueError, match="inhomogeneous"):
            mixed.degree()
    asked, fresh = y ** 2 + w, y ** 2 + w
    assert asked.degree() == 2
    assert asked == fresh and hash(asked) == hash(fresh)
    assert zero == YW_F2.zero() and hash(zero) == hash(YW_F2.zero())


def test_printing_orders_terms_and_factors():
    # terms: descending lex on exponents; factors: descending generator degree
    assert str(YW_F2.parse("w*y^3+y^5+w^2*y")) == "y^5+w*y^3+w^2*y"
    bound = get_ring("D8_Z_BOUND")
    assert str(bound.parse("Y*M")) == "M*Y"
