"""Self-tests of the d8index benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))

TINY = {
    "table_sweep": run.Workload(
        lambda seed: run.table_calls(seed, j_max=4),
        ("table", "--j-max", "1", "--format", "json"), lambda seed: "j_max 4"),
    "deep_verdicts": run.Workload(
        lambda seed: run.deep_calls(seed, js=[8]),
        ("admissible", "--d", "2", "--j", "1", "--coeff", "f2"), lambda seed: "j 8"),
    "verify_all": run.Workload(
        lambda seed: run.verify_calls(seed, suite="lemmas", checks=8),
        ("verify", "--suite", "lemmas"), lambda seed: "lemmas"),
}


@pytest.fixture(scope="module", autouse=True)
def runs_dir():
    run.RUNS.mkdir(exist_ok=True)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    metrics, attempted, failed, _ = run.measure(workload, TINY[workload], 1, 0, trace)
    assert failed == 0 and attempted >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in metrics.items()] == list(expected)
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if not trace:
        assert all(metrics[name]["value"] > 0 for name, _ in run.END_TO_END)
    elif workload == "table_sweep":
        assert metrics["bounds.admissible.Z_D8.calls"]["value"] > 0
        assert metrics["linalg.howell_solve.calls"]["value"] > 0
        assert metrics["trace.overhead_ratio"]["value"] > 0
    elif workload == "verify_all":
        assert metrics["verify.run_suite.lemmas.wall_s"]["value"] > 0


def _snapshot():
    """Every attribute of the d8index modules and of their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "d8index" or name.startswith("d8index."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_wrappers_are_installed_where_callers_look_and_restored():
    from d8index import cli, linalg, poly, rings

    before = _snapshot()
    tracer = spans.Tracer()
    installed = tracer.install()
    try:
        assert len(installed) == len(spans.TARGETS)
        assert hasattr(poly.howell_solve, "__perfbench_span__")
        assert hasattr(linalg.howell_form, "__perfbench_span__")
        assert hasattr(vars(rings.RingElement)["__mul__"], "__perfbench_span__")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["table", "--j-max", "3", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert out.getvalue().encode() == run.expected_table(3)
    recorded = tracer.dump()["spans"]
    assert recorded["cli.main"]["calls"] == 1
    assert recorded["bounds.min_certified_d"]["calls"] == 9
    assert recorded["linalg.howell_solve"]["calls"] > 0
    assert recorded["poly.graded_ideal_slice"]["counters"]["span_vectors"] > 0
    main = recorded["cli.main"]
    assert 0 < main["self_ns"] <= main["total_ns"]


def test_table_gate_accepts_the_recording_and_flags_a_corrupted_row():
    recorded = run.RECORDED_TABLE.read_bytes()
    assert run.expected_table(32) == recorded
    assert run.check_table(recorded, 32, recorded) == 2734
    doc = json.loads(recorded)
    doc["rows"][4]["f2_min_d"] += 1
    corrupted = (json.dumps(doc) + "\n").encode()
    for expected in (recorded, None):
        with pytest.raises(run.GateError):
            run.check_table(corrupted, 32, expected)
    doc = json.loads(recorded)
    doc["rows"][6]["z_min_d"] = None
    with pytest.raises(run.GateError):
        run.check_table((json.dumps(doc) + "\n").encode(), 32, None)


def _verdict(d, j, criterion, certified):
    return json.dumps({"schema": "1", "d": d, "j": j, "criterion": criterion,
                       "certified": certified, "witness": ""}).encode()


def test_verdict_gate_flags_corrupted_verdicts():
    assert run.check_verdict(_verdict(16, 8, "F2_D8", True), 16, 8, "F2_D8") == 1
    assert run.check_verdict(_verdict(15, 8, "Z_D8", False), 15, 8, "Z_D8") == 1
    bad = [
        (_verdict(16, 8, "F2_D8", False), 16, 8, "F2_D8"),   # flipped
        (_verdict(15, 8, "H1_F2", True), 15, 8, "H1_F2"),    # flipped
        (_verdict(15, 8, "Z_D8", True), 15, 8, "Z_D8"),      # Z below mvz
        (_verdict(17, 8, "F2_D8", True), 16, 8, "F2_D8"),    # wrong echo
        (_verdict(16, 8, "Z_D8", True), 16, 8, "F2_D8"),     # wrong criterion
        (b"not json", 16, 8, "F2_D8"),
    ]
    for stdout, d, j, criterion in bad:
        with pytest.raises(run.GateError):
            run.check_verdict(stdout, d, j, criterion)


def test_verify_gate_flags_a_failing_check():
    good = b"PASS a\nPASS b\n2/2 checks passed\n"
    assert run.check_verify(good, 2) == 2
    for bad in (b"PASS a\nFAIL b  [x]\n1/2 checks passed\n",
                b"PASS a\n1/1 checks passed\n", b""):
        with pytest.raises(run.GateError):
            run.check_verify(bad, 2)


def test_failing_and_overrunning_calls_count_against_the_run():
    calls = [run.Call(("admissible", "--d", "16", "--j", "8", "--coeff", "f2"),
                      lambda out: run.check_verdict(out, 15, 8, "F2_D8")),
             run.Call(("admissible", "--d", "0", "--j", "8", "--coeff", "f2"),
                      lambda out: 1),
             run.Call(("table", "--j-max", "40", "--format", "json"), lambda out: 1)]
    result = run.run_pass(calls, time.perf_counter() + 3)
    assert [i for i, _ in result.errors] == [0, 1, 2]
    assert result.errors[2][1].startswith("exit -9")
    assert result.verdicts == 0


def test_deep_draw_is_seeded_stratified_and_balanced():
    js = run.deep_js(7)
    assert js == run.deep_js(7) and js != run.deep_js(8)
    assert len(js) == 5 and all(128 <= j < 256 for j in js) and js[-1] == 255
    for k, start in enumerate((150, 210)):
        low, high = js[2 * k], js[2 * k + 1]
        assert start <= low < high < start + 20
        assert (low + high) % 2 == 1
    assert len(run.deep_calls(7)) == 30


def test_timings_are_calibrated_medians_of_repeats():
    def outcome(wall, cpu, speed=1.0):
        return run.Outcome(0, b"", b"", wall, cpu, 10.0, speed)

    passes = [run.Pass(3.0, [outcome(1.0, 0.9), outcome(2.0, 1.9, 0.5)], 2, []),
              run.Pass(2.6, [outcome(1.5, 1.4), outcome(1.1, 1.0)], 2, []),
              run.Pass(0.8, [outcome(0.8, 0.7)], 1, [])]
    setup = [run.Outcome(0, b"usage: d8index", b"", w, w, 9.0, speed)
             for w, speed in ((0.1, 1.0), (0.3, 0.5), (0.2, 1.0))]
    values, attempted, failed, _ = run.end_to_end_metrics(setup, passes)
    assert (attempted, failed) == (8, 0)
    assert values["wall_s"] == pytest.approx(1.0 + 1.05)
    assert values["cpu_s"] == pytest.approx(0.9 + 0.975)
    assert values["verdicts_per_s"] == pytest.approx(2 / 2.05)
    assert values["call_p50_s"] == pytest.approx(1.025)
    assert values["setup_s"] == pytest.approx(0.15)
    assert 0 < run.host_speed() < 10


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 49))
    q, value = run.tail_percentile(samples)
    assert q == 79 and 38 < value < 39.5
    assert run.tail_percentile([3.0]) == (100, 3.0)
    assert run.tail_percentile([2.0] * 30) == (66, pytest.approx(2.0))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "table_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
