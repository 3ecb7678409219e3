"""Fadell-Husseini index ideals of the spaces acted on by D8 and (Z2)^2.

The ideal of a G-space is the kernel of H*(BG;R) -> H*_G(X;R); this
catalog stores each one that enters the two-hyperplane mass partition
argument as a tuple of homogeneous generators of one ring, together
with the pi/Pi polynomial families that present the product-of-spheres
indexes.

pi_d lives in F2[y,w] (deg y=1, w=2) and Pi_d in the bound ring
Z[Y,M,W]/(2Y,2M,4W,M^2-WY) (deg Y=2, W=4); both satisfy the recurrence
p_0 = 0, p_1 = y, p_{d+1} = y*p_d + w*p_{d-1}, equivalently the
generating function y/(1-y-w).  Both are written out term by term as
sum_i binom(d-1-i, i) w^i y^{d-2i}, each binomial read mod 2 by Lucas'
rule (`lucas_binom_mod2`, the one statement of that rule); the
recurrence itself is run only to check them.

The module ends with the identities the bounds rest on, each stated
once.  Where callers sweep different ranges the range is the only
parameter; where all share one it is a module constant.  Identities that
apply a homomorphism import `homs` in their bodies: a verdict builds none.
"""

from .poly import slice_intersection_is_zero
from .rings import (D8_F2, D8_Z_BOUND, D8_Z_FULL, H1_F2, YW_F2, RingElement,
                    Z2xZ2_F2, Z2xZ2_Z)

__all__ = [
    "lucas_binom_mod2",
    "pi_poly",
    "capital_pi_poly",
    "rho_poly",
    "pi_in_d8",
    "index_sphere_r4j_f2",
    "index_sphere_r4j_z",
    "index_product_spheres_f2",
    "index_product_spheres_z",
    "index_rep_sphere_z2k",
    "index_join",
    "index_h1_z_product",
    "join_scheme_obstruction",
    "recurrence_matches_binomial",
    "POWERS_OF_TWO_Q",
    "capital_pi_powers_of_two_hold",
    "GENERATING_FUNCTION_DEGREE",
    "capital_pi_generating_function_holds",
    "pi_restricts_to_rho",
    "rho_recurrence_holds",
    "capital_pi_reduces_to_pi",
    "join_gives_sphere_index",
    "JOIN_SCHEME_J",
    "join_scheme_vanishes",
    "FULL_IMAGES_DEGREE",
    "full_index_restriction_images_hold",
    "two_plane_sphere_index_matches_h1",
]


def lucas_binom_mod2(n, k):
    """binom(n, k) mod 2 by the digit-wise rule: odd iff the binary
    digits of k are dominated by those of n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be >= 0")
    return 1 if (n & k) == k else 0


def _pi_family(ring, y_sym, w_sym, d):
    """p_d = sum of w^i y^(d-2i) over the i with binom(d-1-i, i) odd,
    written term by term: p_0 = 0, p_1 = y.  It solves the recurrence
    p_(d+1) = y*p_d + w*p_(d-1) (`recurrence_matches_binomial`).  Its
    terms are normal monomials with coefficient 1, so the element is
    built from them as written, without `element` or `normal_form`."""
    if d < 0:
        raise ValueError("d must be >= 0")
    iy, iw = ring.gens.index(y_sym), ring.gens.index(w_sym)
    terms = {}
    for i in range((d + 1) // 2):  # binom(d-1-i, i) = 0 for larger i
        if lucas_binom_mod2(d - 1 - i, i):
            mono = [0] * len(ring.gens)
            mono[iy], mono[iw] = d - 2 * i, i
            terms[tuple(mono)] = 1
    return RingElement(ring, terms)


def pi_poly(d):
    """pi_d in F2[y,w], written out by Lucas' rule."""
    return _pi_family(YW_F2, "y", "w", d)


def capital_pi_poly(d):
    """Pi_d in the bound ring, homogeneous of degree 2d."""
    return _pi_family(D8_Z_BOUND, "Y", "W", d)


def pi_in_d8(d):
    """pi_d embedded in the full mod-2 cohomology ring of D8."""
    return _pi_family(D8_F2, "y", "w", d)


def rho_poly(d):
    """rho_d = a^d + (a+b)^d in F2[a,b], the restriction of pi_d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    a, b = H1_F2.gen("a"), H1_F2.gen("b")
    return a ** d + (a + b) ** d


# ------------------------------------------------------------- D8 indexes

def index_sphere_r4j_f2(j):
    """Mod-2 index of the sphere of j copies of the 3-dimensional
    representation R4: the principal ideal <y^j w^j>, the full kernel
    and partial stage 3j+1."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return (D8_F2.gen("y") ** j * D8_F2.gen("w") ** j,)


def index_sphere_r4j_z(j):
    """Integral index of S(R4^j), in the bound ring: <Y^(j/2) W^(j/2)>
    for even j, <Y^((j+1)/2) W^((j-1)/2) M, Y^((j+1)/2) W^((j+1)/2)>
    for odd j; the full kernel and partial stage 3j+1."""
    if j < 1:
        raise ValueError("j must be >= 1")
    h = (j + 1) // 2  # each generator is one normal monomial in (Y, M, W)
    monos = [(h, 0, h)] if j % 2 == 0 else [(h, 1, h - 1), (h, 0, h)]
    return tuple(RingElement(D8_Z_BOUND, {m: 1}) for m in monos)


def index_product_spheres_f2(d, kind="partial"):
    """Mod-2 index of S^d x S^d: partial stage d+2 is <pi_{d+1}, pi_{d+2}>,
    the full kernel adds w^{d+1}."""
    if d < 1:
        raise ValueError("d must be >= 1")
    gens = (pi_in_d8(d + 1), pi_in_d8(d + 2))
    if kind == "partial":
        return gens
    if kind == "full":
        return gens + (D8_F2.gen("w") ** (d + 1),)
    raise ValueError(f"kind must be 'partial' or 'full', not {kind!r}")


def index_product_spheres_z(d):
    """Integral index of S^d x S^d at stage d+2, in the bound ring."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d % 2 == 0:
        return (capital_pi_poly((d + 2) // 2), capital_pi_poly((d + 4) // 2),
                D8_Z_BOUND.gen("M") * capital_pi_poly(d // 2))
    return (capital_pi_poly((d + 1) // 2), capital_pi_poly((d + 3) // 2))


# ---------------------------------------------------------- (Z2)^2 indexes

def index_rep_sphere_z2k(sign_vectors):
    """Mod-2 (Z2)^2 index of the sphere of a sum of one-dimensional
    representations, each given by its +-1 vector of length 2: the
    principal ideal of Z2xZ2_F2 generated by the product of the linear
    forms abar_1*t1 + abar_2*t2, where abar_i = 1 exactly for the -1
    entries."""
    if not sign_vectors:
        raise ValueError("at least one sign vector required")
    ts = (Z2xZ2_F2.gen("t1"), Z2xZ2_F2.gen("t2"))
    product = Z2xZ2_F2.one()
    for vec in sign_vectors:
        if len(vec) != 2:
            raise ValueError(f"sign vector {vec} has length != 2")
        form = Z2xZ2_F2.zero()
        for entry, t in zip(vec, ts):
            if entry == -1:
                form = form + t
            elif entry != 1:
                raise ValueError(f"sign entries must be +-1, got {entry}")
        product = product * form  # an all-+1 vector contributes the factor 0
    return (product,)


def index_h1_z_product(n):
    """Integral (Z2)^2 index of S^n x S^n:
    <tau1^((n+1)/2), tau2^((n+1)/2)> for odd n, and
    <tau1^((n+2)/2), tau2^((n+2)/2), tau1^(n/2) mu, tau2^(n/2) mu> for
    even n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t1, t2, mu = (Z2xZ2_Z.gen(s) for s in ("tau1", "tau2", "mu"))
    if n % 2 == 1:
        return (t1 ** ((n + 1) // 2), t2 ** ((n + 1) // 2))
    return (t1 ** ((n + 2) // 2), t2 ** ((n + 2) // 2),
            t1 ** (n // 2) * mu, t2 ** (n // 2) * mu)


# ----------------------------------------------------------- constructions

def index_join(f, g):
    """Index of the sphere of a direct sum, from principal indexes of
    the summand spheres: <f> join <g> = <f*g>."""
    if not len(f) == len(g) == 1:
        raise ValueError("join requires principal index ideals")
    if f[0].ring != g[0].ring:
        raise ValueError("join requires indexes in the same ring")
    return (f[0] * g[0],)


def join_scheme_obstruction(j, coeff="F2"):
    """True iff the join-scheme index obstruction vanishes.

    With F2 coefficients: x * y^j w^j = 0 in H*(D8;F2).  With Z
    coefficients: the ideal <X> meets the sphere index (lifted to the
    full ring) only in 0 in every degree up to 3j+6.  The sphere index
    rejects j < 1."""
    from .homs import lift_bound_to_full
    if coeff == "F2":
        return not (D8_F2.gen("x") * index_sphere_r4j_f2(j)[0])
    if coeff == "Z":
        x_gen = [D8_Z_FULL.gen("X")]
        sphere = [lift_bound_to_full(g) for g in index_sphere_r4j_z(j)]
        return all(slice_intersection_is_zero(x_gen, sphere, n)
                   for n in range(1, 3 * j + 7))
    raise ValueError(f"unknown coefficient system {coeff!r}")


# -------------------------------------------------------------- identities

# the fixed ranges of the identities every caller sweeps alike
POWERS_OF_TWO_Q = 6
GENERATING_FUNCTION_DEGREE = 40
JOIN_SCHEME_J = 10
FULL_IMAGES_DEGREE = 20


def recurrence_matches_binomial(top):
    """The recurrence p_0 = 0, p_1 = y, p_(d+1) = y*p_d + w*p_(d-1), run
    by ring arithmetic, gives the Lucas-written pi_d, Pi_d and pi_d in
    H*(D8;F2) for every d <= top."""
    for family, ring, y_sym, w_sym in ((pi_poly, YW_F2, "y", "w"),
                                       (capital_pi_poly, D8_Z_BOUND, "Y", "W"),
                                       (pi_in_d8, D8_F2, "y", "w")):
        y, w = ring.gen(y_sym), ring.gen(w_sym)
        p, p_next = ring.zero(), y
        for d in range(top + 1):
            if family(d) != p:
                return False
            p, p_next = p_next, y * p_next + w * p
    return True


def capital_pi_powers_of_two_hold():
    """Pi_(2^q) = Y^(2^q) for 1 <= q <= POWERS_OF_TWO_Q."""
    return all(capital_pi_poly(2 ** q) == D8_Z_BOUND.gen("Y") ** (2 ** q)
               for q in range(1, POWERS_OF_TWO_Q + 1))


def capital_pi_generating_function_holds():
    """True iff sum_d Pi_d equals y/(1-y-w) = sum_n y*(y+w)^n in the
    bound ring up to degree GENERATING_FUNCTION_DEGREE; y*(y+w)^n starts
    in degree 2n+2 and Pi_d has degree 2d."""
    top = GENERATING_FUNCTION_DEGREE
    Y, W = D8_Z_BOUND.gen("Y"), D8_Z_BOUND.gen("W")
    series, power = D8_Z_BOUND.zero(), D8_Z_BOUND.one()
    for _ in range(top // 2):
        series = series + Y * power
        power = power * (Y + W)
    truncated = D8_Z_BOUND.element({m: c for m, c in series.terms.items()
                                    if D8_Z_BOUND.monomial_degree(m) <= top})
    return truncated == sum((capital_pi_poly(d) for d in range(top // 2 + 1)),
                            D8_Z_BOUND.zero())


def pi_restricts_to_rho(top):
    """res_H1(pi_d) = rho_d for every d <= top."""
    from .homs import restriction
    res = restriction("D8", "H1", "F2")
    return all(res(pi_in_d8(d)) == rho_poly(d) for d in range(top + 1))


def rho_recurrence_holds(top):
    """rho_(d+2) = b*rho_(d+1) + a(a+b)*rho_d for every d <= top."""
    a, b = H1_F2.gen("a"), H1_F2.gen("b")
    rho = [rho_poly(d) for d in range(top + 3)]
    return all(rho[d + 2] == b * rho[d + 1] + a * (a + b) * rho[d]
               for d in range(top + 1))


def capital_pi_reduces_to_pi(top):
    """Mod-2 reduction of Pi_d, lifted to the full ring, is pi_2d for
    every d <= top."""
    from .homs import MOD2_REDUCTION, lift_bound_to_full
    mod2 = MOD2_REDUCTION["D8"]
    return all(mod2(lift_bound_to_full(capital_pi_poly(d))) == pi_in_d8(2 * d)
               for d in range(top + 1))


def join_gives_sphere_index():
    """<w> join <y> is the sphere index <y*w> of S(R4)."""
    return (index_join((D8_F2.gen("w"),), (D8_F2.gen("y"),))
            == index_sphere_r4j_f2(1))


def join_scheme_vanishes(coeff):
    """The join-scheme obstruction vanishes for 1 <= j <= JOIN_SCHEME_J."""
    return all(join_scheme_obstruction(j, coeff) for j in range(1, JOIN_SCHEME_J + 1))


def full_index_restriction_images_hold():
    """res_H1 sends the full index of S^d x S^d to rho_(d+1), rho_(d+2)
    and (a(a+b))^(d+1) for 1 <= d <= FULL_IMAGES_DEGREE."""
    from .homs import restriction
    res = restriction("D8", "H1", "F2")
    a, b = H1_F2.gen("a"), H1_F2.gen("b")
    return all([res(g) for g in index_product_spheres_f2(d, "full")]
               == [rho_poly(d + 1), rho_poly(d + 2), (a * (a + b)) ** (d + 1)]
               for d in range(1, FULL_IMAGES_DEGREE + 1))


def two_plane_sphere_index_matches_h1():
    """The (Z2)^2 index <t1*t2> of the 2-plane sphere, renamed by
    t1 -> a, t2 -> a+b, is res_H1(w) = a(a+b)."""
    from .homs import RingHom, restriction
    a, b = H1_F2.gen("a"), H1_F2.gen("b")
    rename = RingHom(Z2xZ2_F2, H1_F2, {"t1": "a", "t2": "a+b"})
    rep = index_rep_sphere_z2k([(-1, 1), (1, -1)])
    return (rep == (Z2xZ2_F2.parse("t1*t2"),)
            and restriction("D8", "H1", "F2")(D8_F2.gen("w")) == a * (a + b)
            and rename(rep[0]) == a * (a + b))
