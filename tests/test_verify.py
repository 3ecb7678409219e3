"""The verify suites keep every check label.  The benchmark counts PASS
lines, so a dropped or renamed check must fail here first."""

import hashlib

import pytest

from d8index import bounds, poly, verify
from d8index.verify import run_suite

RINGS = ("D8_F2 D8_Z_FULL D8_Z_BOUND H1_F2 H1_Z H2_F2 H2_Z H3_F2 H3_Z K1_F2 "
         "K2_F2 K3_F2 K4_F2 K5_F2 K3_Z Z2xZ2_F2 Z2xZ2_Z Z2_F2 Z2_Z YW_F2").split()


def _labels(name, max_degree=None):
    checks = run_suite(name, max_degree)
    assert all(check.ok for check in checks)
    return [check.name for check in checks]


def test_lemmas_labels():
    assert _labels("lemmas") == [
        "binomial parity rule, n < 64",
        "Pi at powers of two collapses to Y^(2^q), q <= 6",
        "A_(2^1) inside B_(2^2-1)",
        "A_(2^2) inside B_(2^3-1)",
        "A_(2^3) inside B_(2^4-1)",
        "A_(2^4) inside B_(2^5-1)",
        "inclusion step A_j->A_(j+1), j <= 12, d <= 24",
        "membership transfer in F2[a,c], d <= 20, j <= 10",
    ]


def test_diagram_labels():
    assert _labels("diagram") == [
        *(f"rewrite confluence in {ring}" for ring in RINGS),
        "normal form is idempotent, 1000 samples per ring",
        "F2 diagram: 2 route comparisons have equal generator images",
        "Z diagram: 2 route comparisons have equal generator images",
        "mod-2 reduction cube commutes",
        "order-2 subgroup images fixed as declared",
        "homomorphisms are multiplicative on samples",
    ]


def _index_labels(cap, chain_cap):
    return [
        f"recurrence matches binomial expansion, d <= {cap}",
        "generating function y/(1-y-w) to degree 40",
        f"restriction of pi_d is rho_d, d <= {cap}",
        f"rho recurrence, d <= {cap}",
        f"mod-2 reduction of Pi_d is pi_2d, d <= {cap}",
        "join of <w> and <y> is the sphere index <y*w>",
        "join scheme gives no mod-2 obstruction, j <= 10",
        "join scheme gives no integral obstruction, j <= 10",
        "full-index restriction images, d <= 20",
        f"product index chains shrink as d grows, d <= {chain_cap}",
        "sphere index of the 2-plane matches the H1 value",
    ]


def test_indexes_labels():
    assert _labels("indexes") == _index_labels(64, 30)
    assert _labels("indexes", 6) == _index_labels(6, 6)


def test_chain_check_runs_the_replay(monkeypatch):
    """The chain line reports what `bounds.criterion_chains_shrink` says."""
    monkeypatch.setattr(bounds, "criterion_chains_shrink", lambda top: False)
    failing = [check.name for check in run_suite("indexes") if not check.ok]
    assert failing == ["product index chains shrink as d grows, d <= 30"]


# sha256 over f"{(gens, f)}\n" for every instance `suite_oracle` builds,
# in build order (the order of the RNG draws), as recorded before the
# oracle reused the builder's span
ORACLE_DIGEST = "432859f64b9793f6e101b601ba34c016d7482ffa29cc22649b0cc6d8dc59c444"

# member instances (verdict True) among the 500 per catalog ring, as
# recorded before the enumeration skipped covered vectors: agreement of
# the two sides alone would not see a change to both
ORACLE_MEMBERS = {
    "D8_F2": 354, "D8_Z_FULL": 302, "D8_Z_BOUND": 328, "H1_F2": 383,
    "H1_Z": 306, "H2_F2": 413, "H2_Z": 333, "H3_F2": 367, "H3_Z": 306,
    "K1_F2": 500, "K2_F2": 500, "K3_F2": 500, "K4_F2": 500, "K5_F2": 500,
    "K3_Z": 351, "Z2xZ2_F2": 374, "Z2xZ2_Z": 307, "Z2_F2": 500, "Z2_Z": 353,
}


@pytest.fixture(scope="module")
def oracle_run():
    """One run of `suite_oracle`, from an empty slice cache, that records
    each instance it builds and each one it decides, counts the
    `graded_ideal_slice` calls made inside and outside the instance
    builder, wherever the callers look the name up, and records the
    (ring, degree) of every graded slice built, and of those built while
    `ideal_contains` runs."""
    record = {"instances": [], "decided": [], "inside": 0, "outside": 0,
              "spans": [], "reused": [], "members": {}, "slices": [],
              "decide_slices": []}
    building = [False]
    deciding = [None]  # the ring name while `ideal_contains` runs
    span_of = verify.graded_ideal_slice
    build, decide = verify._random_instance, verify.ideal_contains
    enumerate_span = verify.span_contains_by_enumeration
    new_slice = poly.GradedSlice

    def counted_span(gens, degree):
        record["inside" if building[0] else "outside"] += 1
        return span_of(gens, degree)

    def counted_build(*args):
        building[0] = True
        try:
            instance = build(*args)
        finally:
            building[0] = False
        gens, f, span = instance
        record["instances"].append((gens, f))
        record["spans"].append(span)
        return instance

    def recorded_decide(gens, f):
        record["decided"].append((gens, f))
        deciding[0] = f.ring.name
        try:
            return decide(gens, f)
        finally:
            deciding[0] = None

    def counted_slice(ring, degree):
        record["slices"].append((ring.name, degree))
        if deciding[0] is not None:
            record["decide_slices"].append((deciding[0], degree))
        return new_slice(ring, degree)

    def checked_enumeration(span, f):
        record["reused"].append(span is record["spans"][-1])
        verdict = enumerate_span(span, f)
        members = record["members"]
        members[f.ring.name] = members.get(f.ring.name, 0) + verdict
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        for module in (verify, poly):
            mp.setattr(module, "graded_ideal_slice", counted_span)
        mp.setattr(verify, "_random_instance", counted_build)
        mp.setattr(verify, "ideal_contains", recorded_decide)
        mp.setattr(verify, "span_contains_by_enumeration", checked_enumeration)
        mp.setattr(poly, "GradedSlice", counted_slice)
        poly.graded_slice.cache_clear()
        record["checks"] = verify.suite_oracle()
    return record


def test_oracle_checks_the_recorded_instances(oracle_run):
    assert all(check.ok for check in oracle_run["checks"])
    instances = oracle_run["instances"]
    assert len(instances) == 19 * verify.ORACLE_INSTANCES
    digest = hashlib.sha256()
    for gens, f in instances:
        digest.update(f"{(gens, f)}\n".encode())
    assert digest.hexdigest() == ORACLE_DIGEST


def test_oracle_decides_each_built_instance_once(oracle_run):
    """The decided (gens, f) pairs are the built ones, each once, in
    whatever order they are decided."""
    def ids(pairs):
        return sorted((id(gens), id(f)) for gens, f in pairs)

    built = ids(oracle_run["instances"])
    assert len(set(built)) == len(built)
    assert ids(oracle_run["decided"]) == built


def test_oracle_decides_each_degree_on_one_slice(oracle_run):
    """`ideal_contains` builds no graded slice: it decides each instance
    on the slice its enumeration, run just before, built or found.
    Deciding the instances afterwards, in ascending degree, built 136."""
    assert oracle_run["decide_slices"] == []


def test_oracle_builds_each_ring_degree_slice_once(oracle_run):
    """The whole oracle, its draws and its multiplier degrees included,
    builds one graded slice per (ring, degree) it reads, never one twice:
    187 slices, degrees 0..8 of each F2 ring and 0..10 of each Z ring."""
    built = oracle_run["slices"]
    pairs = {(f.ring.name, f.degree()) for _, f in oracle_run["instances"]}
    caps = {name: 8 if name.endswith("_F2") else 10 for name, _ in pairs}
    assert len(built) == len(set(built)) == 187
    assert set(built) == {(name, n) for name, cap in caps.items()
                          for n in range(cap + 1)}


def test_oracle_verdicts_are_the_recorded_ones(oracle_run):
    """Both sides agree (the checks pass) and the enumeration finds the
    recorded number of members in each ring."""
    assert all(check.ok for check in oracle_run["checks"])
    assert oracle_run["members"] == ORACLE_MEMBERS


def test_oracle_spans_each_instance_once(oracle_run):
    """The enumeration reads the span the builder made: no
    `graded_ideal_slice` call outside the builder (9,500 of 20,252 calls
    were, when the enumeration spanned each instance again)."""
    assert oracle_run["outside"] == 0
    assert oracle_run["inside"] == 10_752
    assert len(oracle_run["spans"]) == len(oracle_run["instances"])
    assert oracle_run["reused"] == [True] * len(oracle_run["instances"])
