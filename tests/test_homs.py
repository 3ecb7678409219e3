import itertools
import random

import pytest

from d8index import homs
from d8index.homs import (F2_DIAGRAM, MOD2_REDUCTION, RestrictionDiagram,
                          RingHom, Z_DIAGRAM, check_reduction_cube,
                          lift_bound_to_full, restriction)
from d8index.rings import get_ring
from d8index.verify import random_homogeneous

D8 = get_ring("D8_F2")
FULL = get_ring("D8_Z_FULL")
BOUND = get_ring("D8_Z_BOUND")
H1 = get_ring("H1_F2")

# the quotient that kills X; `lift_bound_to_full` is its section
FULL_TO_BOUND = RingHom(FULL, BOUND, {"X": 0, "Y": "Y", "M": "M", "W": "W"})


def test_restriction_images():
    res = restriction("D8", "H1", "F2")
    assert res(D8.gen("w")) == H1.parse("a^2+a*b")
    assert res(D8.gen("x")) == H1.zero()
    res_k3 = restriction("H2", "K3", "F2")
    assert res_k3(get_ring("H2_F2").gen("u")) == get_ring("K3_F2").parse("t3^2")
    assert restriction("D8", "H2", "Z")(FULL.gen("Y")) == get_ring("H2_Z").parse("2*U")


def test_reduction_images():
    c = MOD2_REDUCTION["D8"]
    assert c(FULL.gen("M")) == D8.parse("w*x+w*y")
    assert c(FULL.gen("X")) == D8.parse("x^2")
    # the images respect M^2 = W(X+Y): (wx+wy)^2 = w^2(x^2+y^2)
    assert D8.parse("w*x+w*y") ** 2 == D8.parse("w^2") * D8.parse("x^2+y^2")


def test_composed_restrictions_through_canonical_subgroup():
    # w restricts to zero on every order-2 subgroup except K3
    for node in ("K1", "K2", "K4", "K5"):
        assert restriction("D8", node, "F2")(D8.gen("w")) == \
            F2_DIAGRAM.rings[node].zero()
    assert restriction("D8", "K3", "F2")(D8.gen("w")) == \
        get_ring("K3_F2").parse("t3^2")


def test_assumption_images_for_order_two_subgroups():
    res1 = restriction("H1", "K1", "F2")
    res2 = restriction("H1", "K2", "F2")
    assert res1(H1.gen("a")) == get_ring("K1_F2").gen("t1")
    assert res1(H1.gen("b")) == get_ring("K1_F2").gen("t1")
    assert res2(H1.gen("a")) == get_ring("K2_F2").zero()
    assert res2(H1.gen("b")) == get_ring("K2_F2").gen("t2")
    h3 = get_ring("H3_F2")
    res4 = restriction("H3", "K4", "F2")
    res5 = restriction("H3", "K5", "F2")
    assert res4(h3.parse("c")) == res4(h3.parse("d")) == get_ring("K4_F2").gen("t4")
    assert res5(h3.parse("c")) == get_ring("K5_F2").zero()


def test_invalid_homs_rejected():
    with pytest.raises(ValueError):
        RingHom(D8, H1, {"x": "a", "y": "b", "w": "a*b"})  # breaks x*y = 0
    with pytest.raises(ValueError):
        RingHom(D8, H1, {"x": 0, "y": "b", "w": "a"})  # wrong degree
    with pytest.raises(ValueError):
        RingHom(FULL, get_ring("H2_Z"),
                {"X": "U", "Y": "2*U", "M": 0, "W": "U^2"})  # 2X != 0


def test_hom_multiplicative_on_random_elements():
    rng = random.Random(7)
    homs = list(F2_DIAGRAM.edges.values()) + list(Z_DIAGRAM.edges.values()) \
        + list(MOD2_REDUCTION.values()) + [FULL_TO_BOUND]
    for hom in homs:
        for _ in range(25):
            p = random_homogeneous(hom.domain, rng.randint(1, 8), rng)
            q = random_homogeneous(hom.domain, rng.randint(1, 8), rng)
            assert hom(p * q) == hom(p) * hom(q)
            assert hom(p + q) == hom(p) + hom(q)


def _reference_apply(hom, element):
    """The image of `element` the way a map was once applied: for each
    monomial, the product of image_i ** e started from codomain.one()
    and built afresh, times the coefficient, summed in the codomain."""
    codomain = hom.codomain
    total = codomain.zero()
    for mono, coeff in element.terms.items():
        image = codomain.one()
        for img, e in zip(hom.images, mono):
            if e:
                image = image * img ** e
        total = total + coeff * image
    return total


def _multi_term_elements(ring, rng):
    """Multi-term elements of `ring`: random homogeneous ones of degrees
    1..10, each also plus one of another degree, and in a Z ring plus a
    degree-0 integer.  Terms share generators at different exponents and
    exponents across generators, so a power table keyed by the exponent
    or the generator alone, or reused past its call, gives wrong images."""
    elements = []
    for degree in range(1, 11):
        p = random_homogeneous(ring, degree, rng, max_terms=6)
        q = random_homogeneous(ring, rng.randint(1, 10), rng, max_terms=6)
        elements += [p, p + q]
        if ring.coeff == "Z":
            elements.append(p + q + rng.choice([-3, 2, 5]))
    return elements


def _maps_under_reference_check():
    """Every F2 and Z diagram edge, every two-step route, every mod-2
    reduction."""
    maps = []
    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        maps += [(f"{diagram.coeff} {src}->{dst}", hom)
                 for (src, dst), hom in diagram.edges.items()]
        for src, dst in itertools.permutations(diagram.rings, 2):
            maps += [(f"{diagram.coeff} {label}", hom)
                     for label, hom in diagram.routes(src, dst)
                     if label.count("->") == 2]
    maps += [(hom.name, hom) for hom in MOD2_REDUCTION.values()]
    return maps


def test_application_matches_the_per_monomial_reference():
    """`RingHom.__call__`, which builds each generator power once per
    call, equals `_reference_apply` on multi-term elements of every map
    (the same elements in the same order through every map, so a table
    left over from one call or one map shows), and on pi_d and the lifted
    Pi_d for d <= 64 under every map out of D8."""
    from d8index.indexes import capital_pi_poly, pi_in_d8
    maps = _maps_under_reference_check()
    assert sum(label.count("->") == 2 for label, _ in maps) == 10
    rng = random.Random(28)
    samples = {ring: _multi_term_elements(ring, rng)
               for ring in {hom.domain for _, hom in maps}}
    for label, hom in maps:
        for element in samples[hom.domain]:
            assert hom(element) == _reference_apply(hom, element), (label, element)
    families = {D8: [pi_in_d8(d) for d in range(65)],
                FULL: [lift_bound_to_full(capital_pi_poly(d)) for d in range(65)]}
    for label, hom in maps:
        for element in families.get(hom.domain, ()):
            assert hom(element) == _reference_apply(hom, element), (label, element)


def test_nearby_huge_exponents_share_one_power_chain(monkeypatch):
    """W^1000001 + Y*W^1000003 under the quotient that kills X: W^1000003
    is built from W^1000001 times W^2, so the call forms fewer products
    than two square-and-multiply chains would (a chain for e takes at
    least e.bit_length() - 1), and a lone huge exponent stays one `**`."""
    from d8index.rings import RingElement
    element = FULL.element({(0, 0, 0, 1000001): 1, (0, 1, 0, 1000003): 1})
    products = 0
    multiply = RingElement.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    image = FULL_TO_BOUND(element)
    monkeypatch.undo()
    assert image == BOUND.element({(0, 0, 1000001): 1, (1, 0, 1000003): 1})
    assert products < 2 * ((1000001).bit_length() - 1), products


def test_diagrams_commute():
    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        results = diagram.check_commutativity()
        assert results, "expected at least one multi-route comparison"
        assert all(ok for _, ok in results), results


def test_diagram_nodes_in_order_of_first_appearance():
    assert list(F2_DIAGRAM.rings) == ["D8", "H1", "H2", "H3",
                                      "K1", "K2", "K3", "K4", "K5"]
    assert list(Z_DIAGRAM.rings) == ["D8", "H1", "H2", "H3", "K3"]
    assert F2_DIAGRAM.rings["H3"] == get_ring("H3_F2")


def _z_diagram_with_u_dead():
    """The Z diagram with H2 -> K3 sending U to 0: a valid ring map, but
    D8 -> H2 -> K3 then differs from D8 -> H1 -> K3 only on W, which has
    degree 4, so a sweep capped below degree 4 would pass it."""
    edges = dict(Z_DIAGRAM.edges)
    edges[("H2", "K3")] = RingHom(get_ring("H2_Z"), get_ring("K3_Z"), {"U": 0})
    return RestrictionDiagram("Z", edges)


def test_commutativity_check_can_fail():
    results = dict(_z_diagram_with_u_dead().check_commutativity())
    assert results == {"Z: D8->H1->K3 == D8->H2->K3": False,
                       "Z: D8->H1->K3 == D8->H3->K3": True}


def test_every_route_has_the_generator_images_of_res():
    """A restriction is fixed by its generator images, so `res` may take
    any route: every route between two nodes gives the same images."""
    pairs = 0
    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        for src, dst in itertools.permutations(diagram.rings, 2):
            routes = diagram.routes(src, dst)
            if not routes:
                with pytest.raises(KeyError):
                    diagram.res(src, dst)
                continue
            images = diagram.res(src, dst).images
            for label, hom in routes:
                assert hom.images == images, label
                pairs += 1
    assert pairs > len(F2_DIAGRAM.edges) + len(Z_DIAGRAM.edges)
    d8_to_k3 = {"F2": {"x": "0", "y": "0", "w": "t3^2"},
                "Z": {"X": "0", "Y": "0", "M": "0", "W": "theta3^2"}}
    for coeff, expected in d8_to_k3.items():
        hom = restriction("D8", "K3", coeff)
        assert hom.images == tuple(hom.codomain.parse(expected[s])
                                   for s in hom.domain.gens)


def test_reduction_cube_commutes():
    results = check_reduction_cube()
    assert len(results) == 7
    assert all(ok for _, ok in results), results


def test_reduction_cube_can_fail(monkeypatch):
    # one wrong reduction image: theta3 -> 0 instead of t3^2
    monkeypatch.setitem(MOD2_REDUCTION, "K3",
                        RingHom(get_ring("K3_Z"), get_ring("K3_F2"),
                                {"theta3": 0}))
    failed = {label for label, ok in check_reduction_cube() if not ok}
    assert failed == {"cube H1->K3", "cube H2->K3", "cube H3->K3",
                      "cube D8->K3"}
    monkeypatch.undo()
    # one wrong restriction image in the Z diagram
    monkeypatch.setattr(homs, "Z_DIAGRAM", _z_diagram_with_u_dead())
    failed = {label for label, ok in check_reduction_cube() if not ok}
    assert failed == {"cube H2->K3"}


# Universal coefficients: for n >= 1, 0 -> H^n(G;Z) (x) F2 -> H^n(G;F2)
# -> Tor(H^(n+1)(G;Z), F2) -> 0, the first map being the reduction c_G.
# Every positive-degree normal monomial of a Z ring spans one cyclic
# summand Z/2 or Z/4, so with s(n) the number of degree-n normal monomials
# of the Z ring, each tensor and Tor term has F2-dimension s(n), s(n + 1).
# The catalog rings and maps are entered by hand; these check them against
# each other, independently of the deciders.  A mismatch is a catalog bug.
UCT_PAIRS = {**{group: (hom.codomain, hom.domain)
                for group, hom in MOD2_REDUCTION.items()},
             "Z2": (get_ring("Z2_F2"), get_ring("Z2_Z"))}


@pytest.mark.parametrize("group", sorted(UCT_PAIRS))
def test_f2_slices_count_the_universal_coefficient_summands(group):
    """dim H^n(G;F2) = s(n) + s(n + 1) for 1 <= n < 80."""
    f2, z = UCT_PAIRS[group]
    s = [len(z.monomials(n)) for n in range(81)]
    for n in range(1, 80):
        assert len(f2.monomials(n)) == s[n] + s[n + 1], (group, n)


@pytest.mark.parametrize("group", sorted(MOD2_REDUCTION))
def test_mod2_reduction_has_rank_s_n(group):
    """c_G is injective on H^n(G;Z) (x) F2 for 1 <= n <= 40: the images of
    the degree-n normal monomials of the Z ring are nonzero and their
    leading monomials (the largest exponent tuple, first in the slice
    order) are pairwise distinct, so the images are independent over F2
    by triangularity and the rank is s(n)."""
    hom = MOD2_REDUCTION[group]
    z = hom.domain
    for n in range(1, 41):
        images = [hom(z.element({m: 1})) for m in z.monomials(n)]
        assert all(images), (group, n)
        leads = {max(image.terms) for image in images}
        assert len(leads) == len(images), (group, n)


def test_full_to_bound_and_lift():
    assert FULL_TO_BOUND(FULL.gen("X")) == BOUND.zero()
    assert FULL_TO_BOUND(FULL.gen("W")) == BOUND.gen("W")
    e = BOUND.parse("Y^2*M+2*W^2")
    lifted = lift_bound_to_full(e)
    assert lifted == FULL.parse("Y^2*M+2*W^2")
    assert FULL_TO_BOUND(lifted) == e
    rng = random.Random(11)
    for degree in range(1, 25):
        e = random_homogeneous(BOUND, degree, rng)
        assert FULL_TO_BOUND(lift_bound_to_full(e)) == e


def test_restriction_lookup_errors():
    with pytest.raises(KeyError):
        restriction("D8", "K1", "Z")
    with pytest.raises(KeyError):
        restriction("H1", "H2", "F2")
    with pytest.raises(KeyError):
        restriction("D8", "H1", "Q")
