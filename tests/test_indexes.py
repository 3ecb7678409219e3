import math

import pytest

from d8index.indexes import (capital_pi_generating_function_holds,
                             capital_pi_poly,
                             capital_pi_reduces_to_pi,
                             full_index_restriction_images_hold,
                             index_h1_z_product, index_join,
                             index_product_spheres_f2,
                             index_product_spheres_z, index_rep_sphere_z2k,
                             index_sphere_r4j_f2, index_sphere_r4j_z,
                             join_gives_sphere_index, join_scheme_obstruction,
                             join_scheme_vanishes,
                             lucas_binom_mod2, pi_in_d8, pi_poly,
                             pi_restricts_to_rho,
                             recurrence_matches_binomial, rho_poly,
                             rho_recurrence_holds,
                             two_plane_sphere_index_matches_h1)
from d8index.poly import ideal_subset
from d8index.rings import RingElement, YW_F2, get_ring

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


def test_doubling_squares_pi_and_capital_pi():
    """Pi_2n = Pi_n^2 and pi_2n = pi_n^2 for n <= 64, as Lucas' rule
    proves for every n.  The term w^i y^(2n-2i) of p_2n has coefficient
    binom(2n-1-i, i) mod 2, which is 0 for odd i (the last binary digit
    of i is 1, that of 2n-1-i is 0) and binom(n-1-k, k) mod 2 for
    i = 2k (2n-1-2k = 2(n-1-k) + 1).  So p_2n is the sum of the squares
    of the terms of p_n.  The cross terms of p_n^2 are 2 * (a monomial
    divisible by y): 0 in F2[y,w], and 0 in the bound ring, where every
    Y-divisible monomial has order 2.  With Pi_1 = Y this gives
    Pi_(2^q) = Y^(2^q) for every q, which the lemmas suite samples to
    q <= POWERS_OF_TWO_Q."""
    for n in range(65):
        assert capital_pi_poly(2 * n) == capital_pi_poly(n) ** 2, n
        assert pi_poly(2 * n) == pi_poly(n) ** 2, n


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


def test_sphere_index_z_monomials_are_the_power_products():
    """A_j, written out as monomials, is the product of powers of the
    generators, in the same order, for every j <= 64."""
    Y, M, W = (BOUND.gen(s) for s in ("Y", "M", "W"))
    for j in range(1, 65):
        h = (j + 1) // 2
        powers = ((Y ** h * W ** (h - 1) * M, Y ** h * W ** h) if j % 2
                  else (Y ** h * W ** h,))
        assert index_sphere_r4j_z(j) == powers, j


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
    assert index_rep_sphere_z2k([(-1, 1)]) == (ring.gen("t1"),)
    assert index_rep_sphere_z2k([(-1, -1)]) == (ring.parse("t1+t2"),)
    r4 = index_rep_sphere_z2k([(-1, 1), (1, -1), (-1, -1)])
    assert r4 == (ring.parse("t1^2*t2+t1*t2^2"),)
    # a trivial summand kills the whole index
    assert index_rep_sphere_z2k([(1, 1), (-1, 1)]) == (ring.zero(),)
    for bad in ([(-1,)], [(-1, 1, 1)], [(-1, 0)], [(1, 2)], []):
        with pytest.raises(ValueError):
            index_rep_sphere_z2k(bad)


def test_join():
    assert join_gives_sphere_index()
    for j in (1, 3):
        assert index_join((D8.gen("x"),), index_sphere_r4j_f2(j)) == (D8.zero(),)
    g = index_sphere_r4j_f2(2)
    assert index_join((D8.one(),), g) == g
    with pytest.raises(ValueError):
        index_join(index_sphere_r4j_z(1), index_sphere_r4j_z(1))


T1 = get_ring("K1_F2")
T2 = get_ring("K2_F2")

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
    "rep_sphere_z2k": lambda: index_rep_sphere_z2k([(-1, 1), (1, -1)]),
    "join": lambda: index_join((D8.gen("w"),), index_sphere_r4j_f2(2)),
}


@pytest.mark.parametrize("name", INDEX_CONSTRUCTORS)
def test_index_constructors_return_generator_tuples(name):
    """Every index is a non-empty tuple of nonzero homogeneous elements of
    one ring; `degree` raises on an inhomogeneous one."""
    gens = INDEX_CONSTRUCTORS[name]()
    assert type(gens) is tuple and gens
    assert all(isinstance(g, RingElement) and g.degree() is not None for g in gens)
    assert len({g.ring for g in gens}) == 1


@pytest.mark.parametrize("build", [index_join])
def test_constructions_reject_empty_and_mixed_rings(build):
    t1, t2 = T1.gen("t1"), T2.gen("t2")
    with pytest.raises(ValueError):
        build((), (t2,))
    with pytest.raises(ValueError):
        build((t1,), ())
    with pytest.raises(ValueError):
        build((t1, D8.gen("y")), (t2,))
    with pytest.raises(ValueError):  # two factors of a join share their ring
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


def test_recurrence_transfer_proves_the_restriction_and_reduction_sweeps():
    """Finite checks that prove `pi_restricts_to_rho` and
    `capital_pi_reduces_to_pi` for every d, where the sweeps stop at a cap.

    Recurrence transfer: let a_(n+1) = p*a_n + q*a_(n-1) and b_(n+1) =
    P*b_n + Q*b_(n-1), and let f be additive and multiplicative on the
    a_n, p and q.  If f(p) = P, f(q) = Q, f(a_0) = b_0 and f(a_1) = b_1,
    then f(a_n) = b_n for every n, by induction.

    pi_d obeys p_(d+1) = y*p_d + w*p_(d-1) for every d: its coefficient
    binom(d-i, i) of w^i*y^(d+1-2i) is binom(d-1-i, i) + binom(d-1-i,
    i-1) mod 2, which is Pascal's rule.  Pi_d is the same family in Y
    and W; for d >= 1 each of its monomials has the order-2 factor Y, so
    its coefficients are read mod 2 and Pascal's rule gives the same
    recurrence.

    - pi -> rho: res_H1 is a ring map, res(y) = b and res(w) = a(a+b).
      rho_d = a^d + (a+b)^d obeys rho_(d+2) = b*rho_(d+1) +
      a(a+b)*rho_d, since a and a+b are roots of t^2 = b*t + a(a+b);
      with res(pi_0) = rho_0 and res(pi_1) = rho_1 the lemma applies.
    - Pi -> pi_2d: the stride-2 subsequence c_n = a_(2n) of a_(n+1) =
      p*a_n + q*a_(n-1) obeys c_(n+1) = (p^2 + 2q)*c_n - q^2*c_(n-1),
      which for pi is (y^2, w^2) mod 2.  phi = mod-2 reduction o lift
      is additive and multiplicative on polynomials in Y and W: no rule
      of the bound or the full ring rewrites a monomial in Y and W alone,
      and Y, W have the same orders in both rings.  With phi(Y) = y^2,
      phi(W) = w^2, phi(Pi_0) = pi_0 and phi(Pi_1) = pi_2 the lemma
      applies.
    """
    from d8index.homs import MOD2_REDUCTION, lift_bound_to_full, restriction
    h1 = get_ring("H1_F2")
    a, b = h1.gen("a"), h1.gen("b")
    y, w = D8.gen("y"), D8.gen("w")
    res = restriction("D8", "H1", "F2")
    assert res(y) == b and res(w) == a * (a + b)
    assert res(pi_in_d8(0)) == rho_poly(0) and res(pi_in_d8(1)) == rho_poly(1)
    assert a * a == b * a + a * (a + b)
    assert (a + b) ** 2 == b * (a + b) + a * (a + b)

    full = get_ring("D8_Z_FULL")
    for ring in (BOUND, full):
        yw = {ring.gens.index("Y"), ring.gens.index("W")}
        assert all(any(e for i, e in enumerate(pattern) if i not in yw)
                   for pattern, _ in ring.relations), ring.name
        assert [ring.orders[ring.gens.index(s)] for s in "YW"] == [2, 4]

    def phi(e):
        return MOD2_REDUCTION["D8"](lift_bound_to_full(e))

    assert phi(BOUND.gen("Y")) == y * y and phi(BOUND.gen("W")) == w * w
    assert phi(capital_pi_poly(0)) == pi_in_d8(0)
    assert phi(capital_pi_poly(1)) == pi_in_d8(2)


def test_full_index_restriction_images():
    assert full_index_restriction_images_hold()


def test_sphere_index_consistent_with_h1_value():
    assert two_plane_sphere_index_matches_h1()
