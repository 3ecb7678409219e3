import itertools
import random

import pytest

from d8index import homs
from d8index.homs import (F2_DIAGRAM, FULL_TO_BOUND, MOD2_REDUCTION,
                          RestrictionDiagram, RingHom, Z_DIAGRAM,
                          check_reduction_cube, hom_kernel_slice,
                          lift_bound_to_full, restriction)
from d8index.rings import get_ring
from d8index.verify import random_homogeneous

D8 = get_ring("D8_F2")
FULL = get_ring("D8_Z_FULL")
BOUND = get_ring("D8_Z_BOUND")
H1 = get_ring("H1_F2")


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


def test_kernel_slices():
    assert hom_kernel_slice(restriction("D8", "H1", "F2"), 1) == [D8.gen("x")]
    assert hom_kernel_slice(restriction("D8", "H3", "F2"), 1) == [D8.gen("y")]
    assert hom_kernel_slice(restriction("D8", "H1", "Z"), 2) == [FULL.gen("X")]
    # X + Y is the degree-2 kernel of the restriction to the cyclic subgroup
    assert hom_kernel_slice(restriction("D8", "H2", "Z"), 2) == \
        [FULL.gen("X") + FULL.gen("Y")]
    # 2*U^2 and 2*W die only because every coordinate of the F2
    # codomain slice has order 2
    assert hom_kernel_slice(MOD2_REDUCTION["H2"], 4) == \
        [get_ring("H2_Z").parse("2*U^2")]
    assert hom_kernel_slice(MOD2_REDUCTION["D8"], 4) == [FULL.parse("2*W")]
    with pytest.raises(ValueError):
        hom_kernel_slice(restriction("D8", "H1", "F2"), 0)


def test_kernel_slice_elements_die():
    for hom in (restriction("D8", "H1", "F2"), restriction("D8", "H1", "Z"),
                MOD2_REDUCTION["H2"]):
        for degree in range(1, 7):
            for e in hom_kernel_slice(hom, degree):
                assert hom(e) == hom.codomain.zero()
                assert e.degree() == degree


def _kernel_check_cases():
    homs = list(F2_DIAGRAM.edges.values()) + list(Z_DIAGRAM.edges.values()) \
        + list(MOD2_REDUCTION.values())
    for hom in homs:
        for degree in range(1, 13):
            if len(hom.domain.monomials(degree)) <= 6:
                yield hom, degree


def test_kernel_slice_complete():
    """The elements of the domain slice that map to 0 are exactly the
    span of the listed kernel generators, by enumerating the slice."""
    checked = 0
    for hom, degree in _kernel_check_cases():
        dom = hom.domain
        dslice = dom.graded_slice(degree)
        dead = set()
        orders = [dom.monomial_order(m) for m in dslice.basis]
        for coeffs in itertools.product(*(range(o) for o in orders)):
            e = dom.element(dict(zip(dslice.basis, coeffs)))
            if not hom(e):
                dead.add(e)
        span = {dom.zero()}
        for e in hom_kernel_slice(hom, degree):
            span = {s + c * e for s in span for c in range(4)}
        assert span == dead, (hom.name, degree)
        checked += 1
    assert checked >= 100


def test_full_to_bound_and_lift():
    assert FULL_TO_BOUND(FULL.gen("X")) == BOUND.zero()
    assert FULL_TO_BOUND(FULL.gen("W")) == BOUND.gen("W")
    e = BOUND.parse("Y^2*M+2*W^2")
    lifted = lift_bound_to_full(e)
    assert lifted == FULL.parse("Y^2*M+2*W^2")
    assert FULL_TO_BOUND(lifted) == e


def test_restriction_lookup_errors():
    with pytest.raises(KeyError):
        restriction("D8", "K1", "Z")
    with pytest.raises(KeyError):
        restriction("H1", "H2", "F2")
    with pytest.raises(KeyError):
        restriction("D8", "H1", "Q")
