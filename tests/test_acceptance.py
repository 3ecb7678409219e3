"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything here is exact arithmetic; there are no tolerances.
"""

from d8index.bounds import (admissible, default_scan_cap, min_certified_d,
                            mvz_upper, ramos_lower)
from d8index.homs import F2_DIAGRAM, Z_DIAGRAM, check_reduction_cube
from d8index.indexes import (FULL_IMAGES_DEGREE, GENERATING_FUNCTION_DEGREE,
                             JOIN_SCHEME_J, POWERS_OF_TWO_Q,
                             capital_pi_generating_function_holds,
                             capital_pi_powers_of_two_hold,
                             capital_pi_reduces_to_pi,
                             full_index_restriction_images_hold,
                             index_product_spheres_z, index_sphere_r4j_z,
                             join_gives_sphere_index, join_scheme_vanishes,
                             pi_restricts_to_rho, recurrence_matches_binomial,
                             lucas_binom_mod2, rho_recurrence_holds)
from d8index.poly import ideal_subset
from d8index.rings import CATALOG
from d8index.verify import ORACLE_INSTANCES, suite_oracle


def _report(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {description}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_equality_cases():
    failures = []
    expected = {1: 2, 3: 5, 7: 11}
    for j, d in expected.items():
        found = min_certified_d(j, "F2_D8", 24)
        if not (found == d == ramos_lower(j) == mvz_upper(j)):
            failures.append((j, found))
    _report(1, "minimal certified d matches both bounds for j in {1,3,7}",
            failures)


def h1_closed_form_min_d(j):
    """Least d the H1 criterion certifies, in closed form.  With c = a+b
    the ideal is the monomial ideal <a^(d+1), c^(d+1)> and the target is
    sum_k binom(j,k) a^(j+k) c^(2j-k), so d certifies iff some k with
    binom(j,k) odd has j+k <= d and 2j-k <= d."""
    return min(max(j + k, 2 * j - k) for k in range(j + 1)
               if lucas_binom_mod2(j, k))


def z_closed_form_min_d(j):
    """Least d the Z criterion certifies, in closed form: the upper bound
    2^(q+1)+r, except 2j+1 at j = 2^k - 1, where the integral index is
    strictly weaker than the (Z2)^2 bound."""
    return 2 * j + 1 if j & (j + 1) == 0 else mvz_upper(j)


def test_criterion_2_bound_coincidence():
    failures = []
    for j in range(1, 65):
        q = j.bit_length() - 1
        r = j - (1 << q)
        expected = 2 ** (q + 1) + r
        f2 = min_certified_d(j, "F2_D8", default_scan_cap(j))
        h1 = min_certified_d(j, "H1_F2", default_scan_cap(j))
        z = min_certified_d(j, "Z_D8", default_scan_cap(j))
        if not (f2 == h1 == expected == h1_closed_form_min_d(j)
                and z == z_closed_form_min_d(j)):
            failures.append((j, f2, h1, expected, z))
    _report(2, "F2 and H1 criteria certify at exactly 2^(q+1)+r, the H1 "
               "closed form, and Z at its closed form, for j <= 64", failures)


def test_criterion_3_no_improvement_for_z():
    failures = []
    for j in range(1, 65):
        d = mvz_upper(j) - 1
        if not ideal_subset(index_sphere_r4j_z(j), index_product_spheres_z(d)):
            failures.append(("inclusion", j, d))
    for j in range(1, 13):
        z_min = min_certified_d(j, "Z_D8", 24)
        if z_min is not None and z_min < mvz_upper(j):
            failures.append(("min_d", j, z_min))
    _report(3, "A_j inside B_(2^(q+1)+r-1), so the Z criterion never "
               "certifies below the upper bound; inclusion for j <= 64", failures)


def test_criterion_4_polynomial_identities():
    identities = {
        "recurrence vs binomial, d <= 128": recurrence_matches_binomial(128),
        f"Pi at powers of two, q <= {POWERS_OF_TWO_Q}":
            capital_pi_powers_of_two_hold(),
        f"generating function to degree {GENERATING_FUNCTION_DEGREE}":
            capital_pi_generating_function_holds(),
        "restriction of pi_d, d <= 64": pi_restricts_to_rho(64),
        "rho recurrence, d <= 64": rho_recurrence_holds(64),
        "reduction of Pi_d, d <= 64": capital_pi_reduces_to_pi(64),
    }
    failures = [label for label, ok in identities.items() if not ok]
    _report(4, "pi/Pi/rho identities hold on their full sweeps", failures)


def test_criterion_5_restriction_diagrams():
    failures = []
    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        for label, ok in diagram.check_commutativity():
            if not ok:
                failures.append(label)
    for label, ok in check_reduction_cube():
        if not ok:
            failures.append(label)
    _report(5, "all restriction triangles and the reduction cube have "
               "equal generator images", failures)


def test_criterion_6_index_catalog_consistency():
    failures = []
    if not join_gives_sphere_index():
        failures.append("join <w>*<y>")
    for coeff in ("F2", "Z"):
        if not join_scheme_vanishes(coeff):
            failures.append(f"{coeff} join-scheme obstruction, j <= {JOIN_SCHEME_J}")
    if not full_index_restriction_images_hold():
        failures.append(f"full-index restriction images, d <= {FULL_IMAGES_DEGREE}")
    _report(6, "join, join-scheme vanishing, and restriction images agree",
            failures)


def test_criterion_7_oracle_equivalence():
    checks = suite_oracle()
    failures = [(c.name, c.detail) for c in checks if not c.ok]
    if len(checks) != len(CATALOG):
        failures.append(f"{len(checks)} oracle checks for {len(CATALOG)} rings")
    _report(7, "elimination matches brute-force enumeration on "
               f"{ORACLE_INSTANCES} random instances per ring", failures)


def test_criterion_8_soundness_guard():
    failures = []
    for j in range(1, 11):
        for d in range(1, min(ramos_lower(j), 25)):
            for criterion in ("F2_D8", "Z_D8", "H1_F2"):
                if admissible(d, j, criterion).certified:
                    failures.append((criterion, d, j))
    _report(8, "no criterion certifies below the necessary lower bound",
            failures)
