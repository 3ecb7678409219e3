import math

import pytest

from d8index.indexes import (capital_pi_generating_function_holds,
                             capital_pi_poly,
                             capital_pi_reduces_to_pi,
                             full_index_restriction_images_hold,
                             index_h1_z_product, index_join,
                             index_product_groups, index_product_spheres_f2,
                             index_product_spheres_z, index_rep_sphere_z2k,
                             index_sphere_r4j_f2, index_sphere_r4j_z,
                             index_torus_z2k,
                             join_gives_sphere_index, join_scheme_obstruction,
                             join_scheme_vanishes,
                             lucas_binom_mod2, pi_in_d8, pi_poly,
                             pi_restricts_to_rho,
                             recurrence_matches_binomial, rho_poly,
                             rho_recurrence_holds,
                             two_plane_sphere_index_matches_h1)
from d8index.poly import ideal_subset
from d8index.rings import RingElement, YW_F2, f2_polynomial_ring, get_ring

D8 = get_ring("D8_F2")
BOUND = get_ring("D8_Z_BOUND")


def test_lucas_examples():
    assert lucas_binom_mod2(3, 1) == 1
    assert lucas_binom_mod2(5, 2) == 0
    assert all(lucas_binom_mod2(n, 0) == 1 for n in range(10))
    assert lucas_binom_mod2(2, 3) == 0  # out of range
    with pytest.raises(ValueError):
        lucas_binom_mod2(-1, 0)


def test_lucas_matches_comb():
    for n in range(40):
        for k in range(n + 2):
            assert lucas_binom_mod2(n, k) == math.comb(n, k) % 2


def test_pi_examples():
    assert pi_poly(0) == YW_F2.zero()
    assert pi_poly(1) == YW_F2.parse("y")
    assert pi_poly(3) == YW_F2.parse("y^3+w*y")
    assert pi_poly(4) == YW_F2.parse("y^4")
    assert pi_poly(5) == YW_F2.parse("y^5+w*y^3+w^2*y")


def test_capital_pi_examples():
    assert capital_pi_poly(0) == BOUND.zero()
    assert capital_pi_poly(2) == BOUND.parse("Y^2")
    assert capital_pi_poly(8) == BOUND.parse("Y^8")


def test_recurrence_matches_binomial():
    """pi_d, Pi_d and pi_d in H*(D8;F2), written out by Lucas' rule,
    equal the ring-arithmetic recurrence."""
    assert recurrence_matches_binomial(256)
    for d in range(1, 257):
        assert pi_poly(d).degree() == d
        assert capital_pi_poly(d).degree() == 2 * d


def test_negative_d_rejected():
    for family in (pi_poly, capital_pi_poly, pi_in_d8, rho_poly):
        with pytest.raises(ValueError, match="d must be >= 0"):
            family(-1)


def test_sphere_index_f2():
    assert index_sphere_r4j_f2(1) == (D8.parse("y*w"),)
    assert index_sphere_r4j_f2(2) == (D8.parse("y^2*w^2"),)
    for j in range(1, 21):
        [gen] = index_sphere_r4j_f2(j)
        assert gen.degree() == 3 * j


def test_sphere_index_z():
    assert index_sphere_r4j_z(1) == (BOUND.parse("Y*M"), BOUND.parse("Y*W"))
    assert index_sphere_r4j_z(2) == (BOUND.parse("Y*W"),)
    assert [g.degree() for g in index_sphere_r4j_z(1)] == [5, 6]
    assert [g.degree() for g in index_sphere_r4j_z(5)] == [17, 18]
    assert [g.degree() for g in index_sphere_r4j_z(6)] == [18]


def test_product_spheres_f2():
    assert index_product_spheres_f2(1) == (D8.parse("y^2"), D8.parse("y^3+w*y"))
    assert index_product_spheres_f2(2, "full") == \
        (D8.parse("y^3+w*y"), D8.parse("y^4"), D8.parse("w^3"))
    for d in (1, 3, 6):
        assert ideal_subset(index_product_spheres_f2(d),
                            index_product_spheres_f2(d, "full"))
    with pytest.raises(ValueError):
        index_product_spheres_f2(2, "everything")


def test_product_spheres_z():
    assert index_product_spheres_z(1) == (BOUND.parse("Y"), BOUND.parse("Y^2"))
    assert index_product_spheres_z(2) == \
        (BOUND.parse("Y^2"), BOUND.parse("Y^3+W*Y"), BOUND.parse("M*Y"))
    assert index_product_spheres_z(3) == (BOUND.parse("Y^2"),
                                          BOUND.parse("Y^3+W*Y"))


def test_rep_sphere_index():
    ring = get_ring("Z2xZ2_F2")
    assert index_rep_sphere_z2k([(-1, 1)], 2) == (ring.gen("t1"),)
    assert index_rep_sphere_z2k([(-1, -1)], 2) == (ring.parse("t1+t2"),)
    r4 = index_rep_sphere_z2k([(-1, 1), (1, -1), (-1, -1)], 2)
    assert r4 == (ring.parse("t1^2*t2+t1*t2^2"),)
    # a trivial summand kills the whole index
    assert index_rep_sphere_z2k([(1, 1), (-1, 1)], 2) == (ring.zero(),)
    with pytest.raises(ValueError):
        index_rep_sphere_z2k([(-1,)], 2)
    with pytest.raises(ValueError):
        index_rep_sphere_z2k([], 2)


def test_torus_index():
    ring2 = get_ring("Z2xZ2_F2")
    d = 4
    assert index_torus_z2k([d, d]) == \
        (ring2.gen("t1") ** (d + 1), ring2.gen("t2") ** (d + 1))
    assert index_torus_z2k([0]) == (f2_polynomial_ring(["t1"]).gen("t1"),)
    assert index_torus_z2k([1, 2]) == (ring2.parse("t1^2"), ring2.parse("t2^3"))


def test_join():
    assert join_gives_sphere_index()
    for j in (1, 3):
        assert index_join((D8.gen("x"),), index_sphere_r4j_f2(j)) == (D8.zero(),)
    g = index_sphere_r4j_f2(2)
    assert index_join((D8.one(),), g) == g
    with pytest.raises(ValueError):
        index_join(index_sphere_r4j_z(1), index_sphere_r4j_z(1))


def test_product_groups():
    r1 = f2_polynomial_ring(["t1"])
    r2 = f2_polynomial_ring(["t2"])
    d = 5
    f = (r1.gen("t1") ** (d + 1),)
    g = (r2.gen("t2") ** (d + 1),)
    prod = index_product_groups(f, g)
    assert prod == index_torus_z2k([d, d])
    assert [str(e) for e in prod] == ["t1^6", "t2^6"]
    with pytest.raises(ValueError):
        index_product_groups(f, index_sphere_r4j_z(1))
    with pytest.raises(ValueError):
        index_product_groups(f, f)  # name clash


T1 = f2_polynomial_ring(["t1"])
T2 = f2_polynomial_ring(["t2"])

INDEX_CONSTRUCTORS = {
    "sphere_r4j_f2": lambda: index_sphere_r4j_f2(3),
    "sphere_r4j_z_even": lambda: index_sphere_r4j_z(4),
    "sphere_r4j_z_odd": lambda: index_sphere_r4j_z(5),
    "product_spheres_f2": lambda: index_product_spheres_f2(3),
    "product_spheres_f2_full": lambda: index_product_spheres_f2(3, "full"),
    "product_spheres_z_even": lambda: index_product_spheres_z(4),
    "product_spheres_z_odd": lambda: index_product_spheres_z(5),
    "h1_z_product_even": lambda: index_h1_z_product(2),
    "h1_z_product_odd": lambda: index_h1_z_product(3),
    "torus_z2k": lambda: index_torus_z2k([1, 2, 0]),
    "rep_sphere_z2k": lambda: index_rep_sphere_z2k([(-1, 1), (1, -1)], 2),
    "join": lambda: index_join((D8.gen("w"),), index_sphere_r4j_f2(2)),
    "product_groups": lambda: index_product_groups((T1.gen("t1") ** 2,),
                                                   (T2.gen("t2") ** 3,)),
}


@pytest.mark.parametrize("name", INDEX_CONSTRUCTORS)
def test_index_constructors_return_generator_tuples(name):
    """Every index is a non-empty tuple of nonzero homogeneous elements of
    one ring; `degree` raises on an inhomogeneous one."""
    gens = INDEX_CONSTRUCTORS[name]()
    assert type(gens) is tuple and gens
    assert all(isinstance(g, RingElement) and g.degree() is not None for g in gens)
    assert len({g.ring for g in gens}) == 1


@pytest.mark.parametrize("build", [index_join, index_product_groups])
def test_constructions_reject_empty_and_mixed_rings(build):
    t1, t2 = T1.gen("t1"), T2.gen("t2")
    with pytest.raises(ValueError):
        build((), (t2,))
    with pytest.raises(ValueError):
        build((t1,), ())
    with pytest.raises(ValueError):
        build((t1, D8.gen("y")), (t2,))
    if build is index_join:  # two factors of a join share their ring
        with pytest.raises(ValueError):
            build((t1,), (t2,))


def test_h1_z_product_index():
    zz = get_ring("Z2xZ2_Z")
    assert index_h1_z_product(1) == (zz.gen("tau1"), zz.gen("tau2"))
    assert index_h1_z_product(2) == \
        (zz.parse("tau1^2"), zz.parse("tau2^2"),
         zz.parse("tau1*mu"), zz.parse("tau2*mu"))
    assert index_h1_z_product(3) == (zz.parse("tau1^2"), zz.parse("tau2^2"))


def test_join_scheme_obstruction():
    assert join_scheme_vanishes("F2")
    assert join_scheme_obstruction(1, "Z")
    assert join_scheme_obstruction(3, "Z")
    with pytest.raises(ValueError):
        join_scheme_obstruction(1, "Q")
    with pytest.raises(ValueError, match="j must be >= 1"):
        join_scheme_obstruction(0, "Z")


def test_generating_function_truncation():
    assert capital_pi_generating_function_holds()


def test_restriction_of_pi_is_rho():
    assert pi_restricts_to_rho(32)


def test_rho_recurrence():
    assert rho_recurrence_holds(32)


def test_reduction_of_capital_pi():
    assert capital_pi_reduces_to_pi(32)


def test_full_index_restriction_images():
    assert full_index_restriction_images_hold()


def test_sphere_index_consistent_with_h1_value():
    assert two_plane_sphere_index_matches_h1()
