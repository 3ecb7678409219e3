import random
from bisect import bisect_left

import pytest
from test_acceptance import h1_closed_form_min_d, z_closed_form_min_d

from d8index import bounds, poly
from d8index.bounds import (CRITERION_REGISTRY, AdmissibilityVerdict,
                            admissible, admissible_z, bound_report,
                            criterion_chain_step, criterion_chains_shrink,
                            criterion_ideal, criterion_targets, default_scan_cap,
                            expected_min_d, min_certified_d, mvz_upper,
                            ramos_lower, verify_inclusion_power_case,
                            verify_inclusion_steps, verify_membership_transfer)
from d8index.homs import RingHom, lift_bound_to_full
from d8index.indexes import (capital_pi_poly, index_product_spheres_z,
                             index_sphere_r4j_z, pi_in_d8, pi_poly)
from d8index.poly import ideal_contains, ideal_subset
from d8index.rings import YW_F2, get_ring
from d8index.verify import Check, random_homogeneous

BOUND = get_ring("D8_Z_BOUND")
H1 = get_ring("H1_F2")


def test_admissible_f2_examples():
    assert admissible(2, 1, "F2_D8").certified
    assert not admissible(1, 1, "F2_D8").certified
    assert not admissible(3, 2, "F2_D8").certified
    assert admissible(4, 2, "F2_D8").certified


def test_admissible_z_examples():
    assert not admissible_z(1, 1).certified
    assert not admissible_z(2, 1).certified
    assert admissible_z(3, 1).certified


def test_admissible_z_literal_flag():
    """The literal inclusion reading would certify (1,1), contradicting
    the ham-sandwich lower bound; it stays available but off."""
    assert admissible_z(1, 1, literal_inclusion=True).certified
    assert not admissible_z(3, 1, literal_inclusion=True).certified
    for j in range(1, 4):
        for d in range(1, 8):
            verdict = admissible_z(d, j)
            literal = admissible_z(d, j, literal_inclusion=True)
            assert literal.to_dict() == {**verdict.to_dict(),
                                         "certified": not verdict.certified}


def test_records_are_immutable():
    verdict, report = admissible(2, 1, "F2_D8"), bound_report(1)
    check = Check("label", True)
    for record, field in ((verdict, "certified"), (report, "z_min_d"),
                          (check, "ok")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_admissible_h1_examples():
    assert admissible(2, 1, "H1_F2").certified
    assert not admissible(1, 1, "H1_F2").certified
    assert admissible(4, 2, "H1_F2").certified
    assert not admissible(3, 2, "H1_F2").certified


def test_verdict_shape_and_witness():
    verdict = admissible(2, 1, "F2_D8")
    assert isinstance(verdict, AdmissibilityVerdict)
    assert verdict.criterion == "F2_D8"
    assert "degree-3" in verdict.witness
    assert list(verdict.to_dict()) == ["d", "j", "criterion", "certified",
                                       "witness"]
    failing = admissible_z(3, 1)
    assert "M*Y" in failing.witness and "degree 5" in failing.witness


def test_admissible_validation():
    with pytest.raises(ValueError):
        admissible(0, 1, "F2_D8")
    with pytest.raises(ValueError):
        admissible_z(1, 0)
    with pytest.raises(KeyError):
        admissible(2, 1, "F3_D8")


def test_a_and_b_ideal_examples():
    """A_j and B_d are the Z_D8 targets and ideal."""
    assert criterion_targets("Z_D8", 2) == [BOUND.parse("Y*W")]
    assert criterion_targets("Z_D8", 1) == [BOUND.parse("Y*M"), BOUND.parse("Y*W")]
    assert criterion_ideal("Z_D8", 1) == [BOUND.parse("Y"), BOUND.parse("Y^2")]


def test_ramos_lower():
    assert ramos_lower(1) == 2
    assert ramos_lower(3) == 5
    assert ramos_lower(0) == 0
    assert ramos_lower(7) == 11
    with pytest.raises(ValueError):
        ramos_lower(-1)


def test_mvz_upper():
    assert mvz_upper(1) == 2
    assert mvz_upper(3) == 5
    assert mvz_upper(5) == 9
    assert mvz_upper(12) == 20
    with pytest.raises(ValueError):
        mvz_upper(0)


def test_min_certified_d():
    assert min_certified_d(1, "F2_D8", 10) == 2
    assert min_certified_d(2, "F2_D8", 10) == 4
    assert min_certified_d(1, "Z_D8", 10) == 3
    assert min_certified_d(1, "F2_D8", 1) is None


def test_bound_report():
    report = bound_report(1)
    assert report.to_dict() == {"j": 1, "ramos_lower": 2, "mvz_upper": 2,
                                "f2_min_d": 2, "z_min_d": 3, "h1_min_d": 2,
                                "scan_cap": 24}
    assert default_scan_cap(12) == 40


def test_report_min_d_never_below_ramos():
    for j in range(1, 7):
        report = bound_report(j)
        for value in (report.f2_min_d, report.z_min_d, report.h1_min_d):
            assert value is None or value >= report.ramos_lower


def test_certification_upward_closed_in_d():
    """Once a criterion certifies some d it certifies every larger d
    (the index chains only shrink); spot-check instead of assuming."""
    for j in range(1, 11):
        for criterion in ("F2_D8", "Z_D8", "H1_F2"):
            seen = False
            for d in range(1, 21):
                now = admissible(d, j, criterion).certified
                assert now or not seen, (criterion, j, d)
                seen = seen or now


def _linear_min_certified_d(j, criterion, d_cap):
    """The least certified d by evaluating d = 1, 2, ... in turn."""
    return next((d for d in range(1, d_cap + 1)
                 if admissible(d, j, criterion).certified), None)


def test_min_certified_d_bisection_matches_linear_scan():
    for j in range(1, 13):
        for criterion in CRITERION_REGISTRY:
            for cap in (24, None):
                linear = _linear_min_certified_d(j, criterion,
                                                 cap or default_scan_cap(j))
                assert min_certified_d(j, criterion, cap) == linear, \
                    (criterion, j, cap)


def test_min_certified_d_edge_caps():
    for cap in (0, -3, 1):
        for criterion in CRITERION_REGISTRY:
            assert min_certified_d(3, criterion, cap) is None
    for j, criterion in ((5, "F2_D8"), (6, "H1_F2"), (1, "Z_D8")):
        least = min_certified_d(j, criterion)
        assert min_certified_d(j, criterion, least) == least
        assert min_certified_d(j, criterion, least - 1) is None
    for cap in (10, 0, -3):  # checked before the cap empties the range
        with pytest.raises(KeyError):
            min_certified_d(2, "F3_D8", cap)


def test_min_certified_d_probes_at_most_bit_length(monkeypatch):
    """Bisection probes only d in [1, cap], at most cap.bit_length() times."""
    probed = []

    def recording(d, j, criterion):
        probed.append(d)
        return admissible(d, j, criterion)

    monkeypatch.setattr(bounds, "admissible", recording)
    for j in range(1, 13):
        for criterion in CRITERION_REGISTRY:
            for cap in (1, 2, 3, 5, 24, None):
                probed.clear()
                min_certified_d(j, criterion, cap)
                top = cap or default_scan_cap(j)
                assert all(1 <= d <= top for d in probed), (criterion, j, cap)
                assert len(probed) <= top.bit_length(), (criterion, j, cap)


def _bisect_min_certified_d(j, criterion, d_cap):
    """The least certified d by a plain `bisect_left` over [1, d_cap]."""
    ds = range(1, d_cap + 1)
    i = bisect_left(ds, True, key=lambda d: admissible(d, j, criterion).certified)
    return ds[i] if i < len(ds) else None


def test_min_certified_d_matches_plain_bisection():
    for j in range(1, 33):
        for criterion in CRITERION_REGISTRY:
            for cap in (1, 2, 3, 5, 24, None):
                plain = _bisect_min_certified_d(j, criterion,
                                                cap or default_scan_cap(j))
                assert min_certified_d(j, criterion, cap) == plain, \
                    (criterion, j, cap)


@pytest.mark.parametrize("wrong", [lambda hint, top: hint - 3,
                                   lambda hint, top: hint - 1,
                                   lambda hint, top: hint + 1,
                                   lambda hint, top: hint + 4,
                                   lambda hint, top: 1,
                                   lambda hint, top: top + 5],
                         ids=["hint-3", "hint-1", "hint+1", "hint+4", "one",
                              "cap+5"])
def test_a_wrong_expected_min_d_cannot_change_the_result(monkeypatch, wrong):
    """Every fallback of the scan, the hint above the cap included."""
    for j in range(1, 13):
        for criterion in CRITERION_REGISTRY:
            for cap in (3, 24, None):
                top = cap or default_scan_cap(j)
                linear = _linear_min_certified_d(j, criterion, top)
                hint = expected_min_d(j, criterion)
                monkeypatch.setattr(bounds, "expected_min_d",
                                    lambda *_: wrong(hint, top))
                assert min_certified_d(j, criterion, cap) == linear, \
                    (criterion, j, cap)


def test_expected_min_d_is_the_acceptance_closed_forms():
    """Pure arithmetic: acceptance criterion 2 keeps its own closed forms."""
    for j in range(1, 1025):
        h1 = h1_closed_form_min_d(j)
        assert expected_min_d(j, "F2_D8") == h1 == mvz_upper(j), j
        assert expected_min_d(j, "H1_F2") == h1, j
        assert expected_min_d(j, "Z_D8") == z_closed_form_min_d(j), j
    with pytest.raises(KeyError):
        expected_min_d(3, "F3_D8")
    with pytest.raises(ValueError):
        expected_min_d(0, "F2_D8")


def test_f2_verdicts_match_sympy_groebner():
    """Both `F2_D8` verdicts of each table row, d = mvz(j) - 1 (a member)
    and d = mvz(j) (certified), for j <= 16, against sympy's Groebner
    basis of <pi_(d+1), pi_(d+2)> over GF(2), which shares no code with
    the slice solver.  The pi_n come from the recurrence
    pi_(n+1) = y*pi_n + w*pi_(n-1), pi_0 = 0, pi_1 = y, run in sympy."""
    sympy = pytest.importorskip("sympy")
    y, w = sympy.symbols("y w")
    Y, W = (sympy.Poly(v, y, w, modulus=2) for v in (y, w))
    pi = [Y - Y, Y]
    while len(pi) < mvz_upper(16) + 3:
        pi.append(pi[-1] * Y + pi[-2] * W)
    for j in range(1, 17):
        for d in (mvz_upper(j) - 1, mvz_upper(j)):
            groebner = sympy.groebner([pi[d + 1], pi[d + 2]], y, w, modulus=2)
            member = groebner.contains(y ** j * w ** j)
            assert member != admissible(d, j, "F2_D8").certified, (d, j)


def _wbar(top):
    """wbar_0, ..., wbar_top in F2[y,w]: wbar_0 = 1, wbar_1 = y and the pi
    recurrence wbar_(n+1) = y*wbar_n + w*wbar_(n-1), run in ring
    arithmetic.  These are the dual Stiefel-Whitney classes of the
    Grassmannian of 2-planes, with w1 = y and w2 = w."""
    y, w = YW_F2.gen("y"), YW_F2.gen("w")
    wbar = [YW_F2.one(), y]
    while len(wbar) <= top:
        wbar.append(y * wbar[-1] + w * wbar[-2])
    return wbar


def test_pi_is_y_times_wbar():
    """pi_d = y*wbar_(d-1) for every d >= 1, by recurrence transfer
    (`tests/test_indexes.py`): a_n = wbar_n and b_n = pi_(n+1) both obey
    x_(n+1) = y*x_n + w*x_(n-1), wbar by definition and pi by Pascal's
    rule.  YW_F2 has no rewrite rule, so it is the commutative ring
    F2[y,w] and f(x) = y*x is additive with f(y*x) = y*f(x) and
    f(w*x) = w*f(x): f carries a solution of the recurrence to a
    solution.  The base terms f(wbar_0) = pi_1 and f(wbar_1) = pi_2 then
    give f(wbar_n) = pi_(n+1) for every n.  The sweep to d = 128 checks
    the statement itself."""
    wbar = _wbar(127)
    y, w = YW_F2.gen("y"), YW_F2.gen("w")
    assert YW_F2.relations == () and y * w == w * y
    assert pi_poly(1) == y * wbar[0] and pi_poly(2) == y * wbar[1]
    for d in range(1, 129):
        assert pi_poly(d) == y * wbar[d - 1], d


def test_f2_verdicts_are_grassmannian_memberships():
    """F2[y,w] is a domain and pi_n = y*wbar_(n-1), so y^j w^j lies in
    <pi_(d+1), pi_(d+2)> iff y^(j-1) w^j lies in <wbar_d, wbar_(d+1)>:
    `F2_D8` certifies (d, j) iff w1^(j-1) w2^j is not 0 in the cohomology
    of the Grassmannian of 2-planes in R^(d+1).  Both verdicts of each
    table row, d = mvz(j) - 1 and d = mvz(j), for j <= 64."""
    wbar = _wbar(mvz_upper(64) + 1)
    for j in range(1, 65):
        target = YW_F2.element({(j - 1, j): 1})
        for d in (mvz_upper(j) - 1, mvz_upper(j)):
            member = ideal_contains([wbar[d], wbar[d + 1]], target)
            assert member != admissible(d, j, "F2_D8").certified, (d, j)


def test_criterion_ideal():
    assert criterion_ideal("F2_D8", 3) == [pi_poly(4), pi_poly(5)]
    assert criterion_ideal("Z_D8", 4) == list(index_product_spheres_z(4))
    a, b = (H1.gen(s) for s in ("a", "b"))
    assert criterion_ideal("H1_F2", 2) == [a ** 3, b ** 3]
    with pytest.raises(KeyError):
        criterion_ideal("F3_D8", 2)
    with pytest.raises(ValueError):
        criterion_ideal("F2_D8", 0)


def test_h1_ideal_is_the_paper_ideal_in_the_basis_a_and_a_plus_b():
    """b -> a+b maps the paper's <a^(d+1), (a+b)^(d+1)> onto
    `criterion_ideal("H1_F2", d)` and fixes the target, so the criterion
    asks the paper's question.  The map is an involution, so it is
    enough to map the generators of `criterion_ideal` onto the paper's
    (the cheap direction: b^(d+1) has one term)."""
    swap = RingHom(H1, H1, {"a": "a", "b": "a+b"})
    a, b = (H1.gen(s) for s in ("a", "b"))
    assert [swap(swap(g)) for g in (a, b)] == [a, b]
    for d in range(1, 257):
        paper = [a ** (d + 1), (a + b) ** (d + 1)]
        assert [swap(g) for g in criterion_ideal("H1_F2", d)] == paper
    for j in range(1, 65):
        targets = criterion_targets("H1_F2", j)
        assert [swap(t) for t in targets] == targets


def test_h1_verdicts_match_the_paper_ideal():
    """Membership in the paper's ideal is the negation of the verdict, on
    both sides of the bound."""
    a, b = (H1.gen(s) for s in ("a", "b"))
    for j in range(1, 33):
        [target] = criterion_targets("H1_F2", j)
        for d in (mvz_upper(j) - 1, mvz_upper(j)):
            inside = ideal_contains([a ** (d + 1), (a + b) ** (d + 1)], target)
            assert inside == (not admissible(d, j, "H1_F2").certified), (d, j)


def test_criterion_targets():
    """The targets built directly (one monomial, a Lucas expansion) equal
    their `**` products."""
    a, b = (get_ring("H1_F2").gen(s) for s in ("a", "b"))
    y, w = (YW_F2.gen(s) for s in ("y", "w"))
    for j in range(1, 65):
        assert criterion_targets("F2_D8", j) == [y ** j * w ** j]
        assert criterion_targets("Z_D8", j) == list(index_sphere_r4j_z(j))
        assert criterion_targets("H1_F2", j) == [a ** j * b ** j * (a + b) ** j]
    with pytest.raises(KeyError):
        criterion_targets("F3_D8", 2)
    with pytest.raises(ValueError):
        criterion_targets("H1_F2", 0)


def _is_its_own_normal_form(e):
    return e.terms == e.ring.normal_form(dict(e.terms))


def test_closed_forms_are_their_own_normal_forms():
    """The closed forms that are built without `normal_form` (pi_d, Pi_d,
    pi_d in H*(D8;F2), the criterion targets, the H1 ideal and the lift
    to the full ring) are what `normal_form` would make of their terms."""
    for d in range(301):
        for family in (pi_poly, capital_pi_poly, pi_in_d8):
            assert _is_its_own_normal_form(family(d)), (family.__name__, d)
    for j in range(1, 301):
        for criterion in CRITERION_REGISTRY:
            for target in criterion_targets(criterion, j):
                assert _is_its_own_normal_form(target), (criterion, j)
    for d in range(1, 301):
        for g in criterion_ideal("H1_F2", d):
            assert _is_its_own_normal_form(g), d
    lifted = [capital_pi_poly(d) for d in range(101)]
    rng = random.Random(33)
    lifted += [random_homogeneous(BOUND, rng.randint(0, 60), rng, max_terms=6)
               for _ in range(300)]
    for e in lifted:
        assert _is_its_own_normal_form(lift_bound_to_full(e)), e


def test_criteria_read_their_ideal_from_criterion_ideal(monkeypatch):
    """The criteria test against the ideals the chain proof covers."""
    asked = []

    def recording(criterion, d):
        asked.append((criterion, d))
        return criterion_ideal(criterion, d)

    monkeypatch.setattr(bounds, "criterion_ideal", recording)
    for criterion in CRITERION_REGISTRY:
        admissible(5, 2, criterion)
    assert asked == [(criterion, 5) for criterion in CRITERION_REGISTRY]


def test_criterion_chains_shrink():
    """Every step I_(d+1) inside I_d, replayed by ring arithmetic."""
    assert criterion_chains_shrink(256)


@pytest.mark.parametrize("criterion, row, wrong", [
    ("F2_D8", 1, ("0", "y")),    # pi_(d+3) = y*pi_(d+2), dropping w*pi_(d+1)
    ("Z_D8", 1, ("0", "Y")),     # Pi_(n+2) = Y*Pi_(n+1), dropping W*Pi_n
    ("H1_F2", 0, ("a+b", "0")),  # a^(d+2) = (a+b)*a^(d+1)
])
def test_wrong_chain_step_fails(monkeypatch, criterion, row, wrong):
    ring = criterion_ideal(criterion, 1)[0].ring

    def broken(name, d):
        rows = criterion_chain_step(name, d)
        if name == criterion and len(rows[row]) == len(wrong):
            rows[row] = [ring.parse(text) for text in wrong]
        return rows

    monkeypatch.setattr(bounds, "criterion_chain_step", broken)
    assert not criterion_chains_shrink(8)


def test_inclusion_power_case():
    for q in range(1, 5):
        assert verify_inclusion_power_case(q)
    with pytest.raises(ValueError):
        verify_inclusion_power_case(0)


def _inclusion_step(j, d):
    """One step instance, decided on its own: A_j in B_d implies
    A_(j+1) in B_(d+1)."""
    if not ideal_subset(index_sphere_r4j_z(j), index_product_spheres_z(d)):
        return True
    return ideal_subset(index_sphere_r4j_z(j + 1), index_product_spheres_z(d + 1))


def test_inclusion_step_examples(monkeypatch):
    """`verify_inclusion_steps(12, 24)` decides every inclusion A_j in B_d
    by `ideal_subset`, so each step reads as `_inclusion_step` does: the
    memberships `ideal_subset` asks `poly.ideal_contains` for are
    recorded and replayed pair by pair."""
    decided = {}

    def recorded(gens, f):
        decided[tuple(gens), f] = verdict = ideal_contains(gens, f)
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(poly, "ideal_contains", recorded)
        assert verify_inclusion_steps(12, 24)

    def inside(j, d):
        b = index_product_spheres_z(d)
        return all(decided[b, g] for g in index_sphere_r4j_z(j))

    for j in range(1, 14):
        for d in range(1, 26):
            assert inside(j, d) == ideal_subset(index_sphere_r4j_z(j),
                                                index_product_spheres_z(d)), (j, d)
    for j in range(1, 13):
        for d in range(1, 25):
            assert _inclusion_step(j, d) == (not inside(j, d)
                                             or inside(j + 1, d + 1)), (j, d)
    assert not inside(1, 3)  # the step (1, 3) is vacuous
    assert inside(2, 3) and inside(3, 4)
    assert inside(4, 7) and inside(5, 8)


def test_inclusion_steps_fail_on_a_broken_step(monkeypatch):
    """Shrinking B_8 to a degree-200 principal ideal breaks the step
    (4, 7): A_4 lies in B_7, A_5 not in the shrunk B_8."""
    b_of = bounds.index_product_spheres_z

    def broken(d):
        return (BOUND.parse("W^50"),) if d == 8 else b_of(d)

    monkeypatch.setattr(bounds, "index_product_spheres_z", broken)
    assert not verify_inclusion_steps(4, 7)
    assert not verify_inclusion_steps(12, 24)
    assert verify_inclusion_steps(3, 6)  # reads B_d for d <= 7 only


def test_inclusion_steps_reject_an_empty_range():
    for j_top, d_top in ((0, 3), (3, 0)):
        with pytest.raises(ValueError):
            verify_inclusion_steps(j_top, d_top)


def test_membership_transfer_examples():
    assert verify_membership_transfer(1, 1)
    assert verify_membership_transfer(2, 1)
    assert verify_membership_transfer(4, 2)
