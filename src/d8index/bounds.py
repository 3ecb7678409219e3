"""Admissibility criteria for the two-hyperplane mass partition problem.

A triple (d, j, 2) is admissible when j masses in R^d can always be
equiparted by two hyperplanes.  Each criterion here certifies it when
some target lies outside an index ideal I_d:

* F2_D8:  y^j w^j not in <pi_{d+1}, pi_{d+2}>            in F2[y,w]
* Z_D8:   A_j not contained in B_d                        in the bound ring
* H1_F2:  a^j b^j (a+b)^j not in <a^{d+1}, (a+b)^{d+1}>   in F2[a,b]

H1_F2 is decided in the basis (a, a+b), where its ideal is the monomial
ideal <a^{d+1}, b^{d+1}> (`criterion_ideal`).

A_j is the generator set of the integral sphere index and B_d that of
the integral product index; an equivariant map forces the product index
to contain the sphere index, so it is NON-inclusion that certifies.
The published inclusion sign is the other way around, which would
certify (d,j) = (1,1) against the ham-sandwich lower bound; the literal
reading stays available behind `literal_inclusion`.

`admissible(d, j, criterion)` is the one verdict body for all three: it
reads I_d from `criterion_ideal` and the targets from `criterion_targets`,
and words the verdict from the first target outside I_d (`_witness`).

Besides the criteria the module carries the ideal chains they test
against, whose shrinking makes certification upward closed in d, the
two classical bounds on the minimal admissible dimension (`ramos_lower`,
`mvz_upper`), the least d each criterion is expected to certify
(`expected_min_d`), which the scan driver checks with two verdicts
instead of searching for it, and the mechanical verifiers of the
inclusion lemmas that show the Z criterion never improves on the upper
bound.
"""

from bisect import bisect_left
from collections import namedtuple

from .indexes import (index_product_spheres_z, index_sphere_r4j_z,
                      lucas_binom_mod2, pi_poly)
from .poly import ideal_contains, ideal_subset
from .rings import D8_Z_BOUND, H1_F2, YW_F2, RingElement

__all__ = [
    "CRITERION_REGISTRY",
    "AdmissibilityVerdict",
    "BoundReport",
    "admissible_z",
    "admissible",
    "criterion_targets",
    "criterion_ideal",
    "criterion_chain_step",
    "criterion_chains_shrink",
    "ramos_lower",
    "mvz_upper",
    "min_certified_d",
    "default_scan_cap",
    "expected_min_d",
    "bound_report",
    "verify_inclusion_power_case",
    "verify_inclusion_steps",
    "verify_membership_transfer",
]


class AdmissibilityVerdict(namedtuple("AdmissibilityVerdict",
                                       "d j criterion certified witness")):
    """One verdict: d, j (int), criterion (str), certified (bool) and
    witness (str), the wording of `_witness`."""
    __slots__ = ()

    def to_dict(self):
        return self._asdict()


class BoundReport(namedtuple("BoundReport", "j ramos_lower mvz_upper f2_min_d "
                                            "z_min_d h1_min_d scan_cap")):
    """Bounds for one j: ramos_lower, mvz_upper and scan_cap (int), and the
    least d each criterion certifies (int, or None up to scan_cap)."""
    __slots__ = ()

    def to_dict(self):
        return self._asdict()


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


# criterion name -> CLI --coeff value
CRITERION_REGISTRY = {"F2_D8": "f2", "Z_D8": "z", "H1_F2": "h1f2"}


def admissible(d, j, criterion):
    """Certify (d, j, 2) by the named criterion: certified iff some target
    of `criterion_targets` is NOT in the ideal I_d of `criterion_ideal`.
    The first target outside I_d, if any, words the witness."""
    if criterion not in CRITERION_REGISTRY:
        raise KeyError(f"unknown criterion {criterion!r}")
    gens = criterion_ideal(criterion, d)
    failing = next((t for t in criterion_targets(criterion, j)
                    if not ideal_contains(gens, t)), None)
    return AdmissibilityVerdict(d, j, criterion, failing is not None,
                                _witness(criterion, d, j, failing))


def admissible_z(d, j, literal_inclusion=False):
    """Certify (d, j, 2) from the integral D8 indexes.

    Default reading: certified iff A_j is NOT contained in B_d.  Set
    `literal_inclusion` to certify on containment instead.
    """
    verdict = admissible(d, j, "Z_D8")
    if literal_inclusion:
        verdict = verdict._replace(certified=not verdict.certified)
    return verdict


# -------------------------------------------------------------- index chains

def criterion_targets(criterion, j):
    """The elements a criterion certifies (d, j) with when one lies
    outside I_d: y^j w^j for F2_D8, the generators of A_j for Z_D8 and
    a^j b^j (a+b)^j for H1_F2, written out by Lucas' rule: its terms are
    a^(j+k) b^(2j-k) for the k with binom(j, k) odd.  Every target's
    terms are normal monomials with coefficient 1, so it is built from
    them as written, without `element` or `normal_form`."""
    _check_positive(j=j)
    if criterion == "F2_D8":
        return [RingElement(YW_F2, {(j, j): 1})]
    if criterion == "Z_D8":
        return list(index_sphere_r4j_z(j))
    if criterion == "H1_F2":
        return [RingElement(H1_F2, {(j + k, 2 * j - k): 1 for k in range(j + 1)
                                    if lucas_binom_mod2(j, k)})]
    raise KeyError(f"unknown criterion {criterion!r}")


def criterion_ideal(criterion, d):
    """Generators of the ideal I_d that a criterion tests its targets
    against: <pi_{d+1}, pi_{d+2}> for F2_D8, B_d for Z_D8 and the
    monomial ideal <a^{d+1}, b^{d+1}> for H1_F2.

    The H1 criterion of the paper tests against <a^{d+1}, (a+b)^{d+1}>.
    The involution b -> a+b of F2[a,b] maps that ideal onto
    <a^{d+1}, b^{d+1}> and fixes the target a^j b^j (a+b)^j, so the
    verdict is the same, and every span vector of the monomial ideal is
    one monomial.  The witness still names the paper's ideal."""
    _check_positive(d=d)
    if criterion == "F2_D8":
        return [pi_poly(d + 1), pi_poly(d + 2)]
    if criterion == "Z_D8":
        return list(index_product_spheres_z(d))
    if criterion == "H1_F2":
        return [RingElement(H1_F2, {m: 1}) for m in ((d + 1, 0), (0, d + 1))]
    raise KeyError(f"unknown criterion {criterion!r}")


def _witness(criterion, d, j, failing):
    """Wording of a verdict of a registered criterion, `failing` being
    the first target outside I_d, or None."""
    where = "decomposes over" if failing is None else "is outside"
    if criterion == "F2_D8":
        return (f"y^{j}*w^{j} {where} the degree-{3 * j} slice of "
                f"<pi_{d + 1}, pi_{d + 2}>")
    if criterion == "Z_D8":
        if failing is None:
            return f"every generator of A_{j} lies in B_{d}"
        return (f"generator {failing} of A_{j} escapes B_{d} at degree "
                f"{failing.degree()}")
    # H1_F2
    return (f"a^{j}*b^{j}*(a+b)^{j} {where} the degree-{3 * j} slice of "
            f"<a^{d + 1}, (a+b)^{d + 1}>")


def criterion_chain_step(criterion, d):
    """Rows of coefficients writing each generator of I_(d+1) over the
    generators of I_d: generator k of I_(d+1) is sum_i row_k[i] * I_d[i].
    Every row is a monomial multiple of a generator or the recurrence
    p_(n+1) = y*p_n + w*p_(n-1), so it holds for every d."""
    _check_positive(d=d)
    if criterion == "F2_D8":  # pi_(d+2); pi_(d+3) = y*pi_(d+2) + w*pi_(d+1)
        y, w = YW_F2.gen("y"), YW_F2.gen("w")
        return [[0, 1], [w, y]]
    if criterion == "Z_D8":
        if d % 2 == 0:  # B_(d+1) is the first two generators of B_d
            return [[1, 0, 0], [0, 1, 0]]
        # B_d = <Pi_n, Pi_(n+1)>, n = (d+1)/2, and B_(d+1) is
        # <Pi_(n+1), Pi_(n+2) = Y*Pi_(n+1) + W*Pi_n, M*Pi_n>
        Y, M, W = (D8_Z_BOUND.gen(s) for s in ("Y", "M", "W"))
        return [[0, 1], [W, Y], [M, 0]]
    if criterion == "H1_F2":  # a^(d+2) = a*a^(d+1), b^(d+2) = b*b^(d+1)
        a, b = H1_F2.gen("a"), H1_F2.gen("b")
        return [[a, 0], [0, b]]
    raise KeyError(f"unknown criterion {criterion!r}")


def criterion_chains_shrink(top):
    """I_(d+1) lies inside I_d for every criterion and 1 <= d <= top,
    replayed from `criterion_chain_step` by ring arithmetic, no solve.
    A target outside I_d is then outside I_(d+1): certification is
    upward closed in d.  These are also the chains of the product
    indexes: F2[y,w] embeds in H*(D8;F2) by y -> y, w -> w, sending
    pi_poly(d) to pi_in_d8(d), so the chain replayed in YW_F2 is that of
    `index_product_spheres_f2`; Z_D8 uses the same B_d as
    `index_product_spheres_z`, and H1_F2 is the (Z2)^2 index of S^d x S^d."""
    for criterion in CRITERION_REGISTRY:
        for d in range(1, top + 1):
            gens = criterion_ideal(criterion, d)
            zero = gens[0].ring.zero()
            replayed = [sum((c * g for c, g in zip(row, gens, strict=True)), zero)
                        for row in criterion_chain_step(criterion, d)]
            if replayed != criterion_ideal(criterion, d + 1):
                return False
    return True


# -------------------------------------------------------------- Delta bounds

def ramos_lower(j):
    """Lower bound ceil(3j/2) for the minimal admissible d."""
    if j < 0:
        raise ValueError("need j >= 0")
    return -(-3 * j // 2)


def mvz_upper(j):
    """Upper bound 2^(q+1) + r for the minimal admissible d, where
    j = 2^q + r with 0 <= r < 2^q."""
    if j < 1:
        raise ValueError("need j >= 1")
    q = j.bit_length() - 1
    r = j - (1 << q)
    return 2 ** (q + 1) + r


def default_scan_cap(j):
    """The default d cap of `min_certified_d`: 2 * mvz_upper(j), at least 24."""
    return max(2 * mvz_upper(j), 24)


def expected_min_d(j, criterion):
    """The least d the criterion is expected to certify: mvz_upper(j)
    = 2^(q+1) + r for j = 2^q + r, 0 <= r < 2^q, except 2j + 1 for
    Z_D8 at j = 2^k - 1.

    For H1_F2 this is a theorem for every j.  In the basis (a, c = a+b)
    the ideal is the monomial ideal <a^(d+1), c^(d+1)> and the target is
    the sum of a^(j+k) c^(2j-k) over the k that are bitwise subsets of j
    (`criterion_targets`).  A sum lies in a monomial ideal iff each of
    its terms does, so d certifies iff some k subset of j has
    max(j+k, 2j-k) <= d.  k = 2^q gives max(2^(q+1)+r, 2^q+2r) =
    2^(q+1)+r.  Every other k either contains the bit 2^q, so
    j+k >= j+2^q = 2^(q+1)+r, or is a subset of r, so
    2j-k >= 2j-r = 2^(q+1)+r.

    F2_D8 certifies no later than H1_F2, by restriction: res_H1 sends
    y -> b and w -> a(a+b), so it sends y^j w^j to the H1 target and
    pi_n to rho_n, which lies in <a^(d+1), (a+b)^(d+1)> for n >= d+1.
    An H1 non-member at d is therefore an F2 non-member at d.

    That F2_D8 certifies at no smaller d, and the Z_D8 value, are
    observations, checked for every j <= 512.  `min_certified_d` checks
    the value with its verdicts and searches when it misses, so its
    answer does not depend on this function.
    """
    _check_positive(j=j)
    if criterion not in CRITERION_REGISTRY:
        raise KeyError(f"unknown criterion {criterion!r}")
    if criterion == "Z_D8" and j & (j + 1) == 0:
        return 2 * j + 1
    return mvz_upper(j)


def min_certified_d(j, criterion, d_cap=None):
    """Smallest d in [1, d_cap] the criterion certifies, or None.

    Certification is upward closed in d, since each criterion's ideals
    shrink as d grows (`criterion_chains_shrink`).  So if d is certified
    and d - 1 is not, d is the least certified d.  The scan checks that
    for d = `expected_min_d`, moved into [1, d_cap], with two verdicts.
    On a miss it bisects the range the two verdicts leave: above d if d
    is not certified, below d - 1 if d - 1 is.
    """
    _check_positive(j=j)
    if criterion not in CRITERION_REGISTRY:
        raise KeyError(f"unknown criterion {criterion!r}")
    if d_cap is None:
        d_cap = default_scan_cap(j)
    if d_cap < 1:
        return None

    def certified(d):
        return admissible(d, j, criterion).certified

    hint = min(max(expected_min_d(j, criterion), 1), d_cap)
    if not certified(hint):
        ds, fallback = range(hint + 1, d_cap + 1), None
    elif hint == 1 or not certified(hint - 1):
        return hint
    else:
        ds, fallback = range(1, hint - 1), hint - 1
    i = bisect_left(ds, True, key=certified)
    return ds[i] if i < len(ds) else fallback


def bound_report(j, scan_cap=None):
    """Both classical bounds and each criterion's least certified d for j."""
    _check_positive(j=j)
    if scan_cap is None:
        scan_cap = default_scan_cap(j)
    return BoundReport(
        j=j,
        ramos_lower=ramos_lower(j),
        mvz_upper=mvz_upper(j),
        f2_min_d=min_certified_d(j, "F2_D8", scan_cap),
        z_min_d=min_certified_d(j, "Z_D8", scan_cap),
        h1_min_d=min_certified_d(j, "H1_F2", scan_cap),
        scan_cap=scan_cap,
    )


# ------------------------------------------------- inclusion lemma verifiers

def verify_inclusion_power_case(q):
    """Check A_{2^q} is contained in B_{2^(q+1)-1}."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return ideal_subset(index_sphere_r4j_z(2 ** q),
                        index_product_spheres_z(2 ** (q + 1) - 1))


def verify_inclusion_steps(j_top, d_top):
    """Check every step instance with j <= j_top and d <= d_top: A_j in
    B_d implies A_(j+1) in B_(d+1).  Each inclusion A_j in B_d with
    j <= j_top + 1 and d <= d_top + 1 is decided once, with each A_j and
    each B_d built once."""
    _check_positive(j_top=j_top, d_top=d_top)
    a = [index_sphere_r4j_z(j) for j in range(1, j_top + 2)]
    b = [index_product_spheres_z(d) for d in range(1, d_top + 2)]
    inside = [[ideal_subset(a_j, b_d) for b_d in b] for a_j in a]  # [j-1][d-1]
    return all(inside[i + 1][k + 1] or not inside[i][k]
               for i in range(j_top) for k in range(d_top))


def verify_membership_transfer(d, j):
    """Check, in F2[a,c], that membership of a^j c^j (a+c)^j in
    <a^{d+1}, c^{d+1}> forces membership in
    <a^{d+1}+c^{d+1}, a^{d+2}+c^{d+2}>; this transfers the subgroup
    criterion to the symmetric one."""
    _check_positive(d=d, j=j)
    a, c = H1_F2.gen("a"), H1_F2.gen("b")  # c := a+b plays the second variable
    [target] = criterion_targets("H1_F2", j)  # a^j c^j (a+c)^j
    if not ideal_contains(criterion_ideal("H1_F2", d), target):
        return True
    return ideal_contains([a ** (d + 1) + c ** (d + 1),
                           a ** (d + 2) + c ** (d + 2)], target)
