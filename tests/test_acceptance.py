"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything here is exact arithmetic; there are no tolerances.
"""

from d8index.bounds import (a_ideal, admissible, b_ideal, min_certified_d,
                            mvz_upper, ramos_lower)
from d8index.homs import (F2_DIAGRAM, MOD2_REDUCTION, Z_DIAGRAM,
                          check_reduction_cube, lift_bound_to_full,
                          restriction)
from d8index.indexes import (GENERATING_FUNCTION_DEGREE, IndexIdeal,
                             capital_pi_generating_function_holds,
                             capital_pi_poly, capital_pi_poly_binomial, index_join,
                             index_product_spheres_f2, index_sphere_r4j_f2,
                             join_scheme_obstruction, pi_in_d8, pi_poly,
                             pi_poly_binomial, rho_poly)
from d8index.poly import ideal_subset
from d8index.rings import get_ring
from d8index.verify import suite_oracle

BOUND = get_ring("D8_Z_BOUND")
D8 = get_ring("D8_F2")
H1 = get_ring("H1_F2")


def _report(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {description}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_equality_cases():
    failures = []
    expected = {1: 2, 3: 5, 7: 11}
    for j, d in expected.items():
        found = min_certified_d(j, "F2_D8", 24)
        if not (found == d == ramos_lower(j, 2) == mvz_upper(j, 2)):
            failures.append((j, found))
    _report(1, "minimal certified d matches both bounds for j in {1,3,7}",
            failures)


def test_criterion_2_bound_coincidence():
    failures = []
    for j in range(1, 11):
        q = j.bit_length() - 1
        r = j - (1 << q)
        expected = 2 ** (q + 1) + r
        f2 = min_certified_d(j, "F2_D8", 24)
        h1 = min_certified_d(j, "H1_F2", 24)
        if not (f2 == h1 == expected):
            failures.append((j, f2, h1, expected))
    _report(2, "F2 and H1 criteria certify at exactly 2^(q+1)+r for j <= 10",
            failures)


def test_criterion_3_no_improvement_for_z():
    failures = []
    for j in range(1, 13):
        q = j.bit_length() - 1
        r = j - (1 << q)
        d = 2 ** (q + 1) + r - 1
        if not ideal_subset(a_ideal(j), b_ideal(d)):
            failures.append(("inclusion", j, d))
        z_min = min_certified_d(j, "Z_D8", 24)
        if z_min is not None and z_min < mvz_upper(j, 2):
            failures.append(("min_d", j, z_min))
    _report(3, "A_j inside B_(2^(q+1)+r-1), so the Z criterion never "
               "certifies below the upper bound, j <= 12", failures)


def test_criterion_4_polynomial_identities():
    failures = []
    if not all(pi_poly(d) == pi_poly_binomial(d)
               and capital_pi_poly(d) == capital_pi_poly_binomial(d)
               for d in range(129)):
        failures.append("recurrence vs binomial, d <= 128")
    if not all(capital_pi_poly(2 ** q) == BOUND.gen("Y") ** (2 ** q)
               for q in range(1, 7)):
        failures.append("Pi at powers of two")

    if not capital_pi_generating_function_holds():
        failures.append(f"generating function to degree {GENERATING_FUNCTION_DEGREE}")

    res = restriction("D8", "H1", "F2")
    a, b = H1.gen("a"), H1.gen("b")
    if not all(res(pi_in_d8(d)) == rho_poly(d) for d in range(65)):
        failures.append("restriction of pi_d, d <= 64")
    if not all(rho_poly(d + 2) == b * rho_poly(d + 1) + a * (a + b) * rho_poly(d)
               for d in range(65)):
        failures.append("rho recurrence, d <= 64")

    c = MOD2_REDUCTION["D8"]
    if not all(c(lift_bound_to_full(capital_pi_poly(d))) == pi_in_d8(2 * d)
               for d in range(65)):
        failures.append("reduction of Pi_d, d <= 64")
    _report(4, "pi/Pi/rho identities hold on their full sweeps", failures)


def test_criterion_5_restriction_diagrams():
    failures = []
    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        for label, ok in diagram.check_commutativity(12):
            if not ok:
                failures.append(label)
    for label, ok in check_reduction_cube(8):
        if not ok:
            failures.append(label)
    _report(5, "all restriction triangles commute to degree 12, the "
               "reduction cube to degree 8", failures)


def test_criterion_6_index_catalog_consistency():
    failures = []
    w_ideal = IndexIdeal(D8, (D8.gen("w"),), True, None, "S(V2)")
    y_ideal = IndexIdeal(D8, (D8.gen("y"),), True, None, "S(V1)")
    if index_join(w_ideal, y_ideal).gens != index_sphere_r4j_f2(1).gens:
        failures.append("join <w>*<y>")
    x = D8.gen("x")
    for j in range(1, 11):
        if x * index_sphere_r4j_f2(j).gens[0] != D8.zero():
            failures.append(f"x*y^{j}*w^{j}")
        if not join_scheme_obstruction(j, "Z", 3 * j + 6):
            failures.append(f"<X> meets the integral sphere index, j={j}")
    res = restriction("D8", "H1", "F2")
    a, b = H1.gen("a"), H1.gen("b")
    for d in range(1, 21):
        images = [res(g) for g in index_product_spheres_f2(d, "full").gens]
        if images != [rho_poly(d + 1), rho_poly(d + 2), (a * (a + b)) ** (d + 1)]:
            failures.append(f"full-index restriction images, d={d}")
    _report(6, "join, join-scheme vanishing, and restriction images agree",
            failures)


def test_criterion_7_oracle_equivalence():
    checks = suite_oracle(count=500)
    failures = [(c.name, c.detail) for c in checks if not c.ok]
    _report(7, "elimination matches brute-force enumeration on 500 random "
               "instances per ring", failures)


def test_criterion_8_soundness_guard():
    failures = []
    for j in range(1, 11):
        for d in range(1, min(ramos_lower(j, 2), 25)):
            for criterion in ("F2_D8", "Z_D8", "H1_F2"):
                if admissible(d, j, criterion).certified:
                    failures.append((criterion, d, j))
    _report(8, "no criterion certifies below the necessary lower bound",
            failures)
