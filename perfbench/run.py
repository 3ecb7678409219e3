"""End-to-end benchmark of the d8index command-line tool.

Runs the CLI as a user does: one fresh `python -m d8index` process per
invocation, started one after another from this single client process
(a closed loop with one client).  Every invocation's output is checked
by a correctness gate that recomputes the expected values here, without
importing the code under test.

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 40 --trace 0

With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` the run alternates untraced and
traced passes (see spans.py) and reports the per-layer metrics.  The
program is taken from `src/` of the checkout this file sits in.  See
README.md in this directory for the workloads and the metric map.
"""

import argparse
import functools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
RECORDED_TABLE = HERE / "expected" / "table_j32.json"

RUN_LIMIT = 150.0   # seconds after which every remaining call is cut short
SETUP_REPEATS = 20
SETUP_BURST = 2
PROBE_EVERY = 8
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.235   # the reference loop's fastest time on the recording host

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

COEFF_OF = {"F2_D8": "f2", "Z_D8": "z", "H1_F2": "h1f2"}
CRITERIA = tuple(COEFF_OF)
SUITES = ("lemmas", "diagram", "indexes", "oracle")
IMPORT_MODULES = ("__init__", "rings", "linalg", "poly", "homs", "indexes",
                  "bounds", "verify", "cli")


def _layer(span, *fields):
    return [(f"{span}.{f}", "s" if f.endswith("_s") else "count")
            for f in fields]


PER_LAYER = (
    *_layer("rings.all_exponents", "calls", "self_s", "exponents"),
    *_layer("rings.monomials", "calls", "self_s"),
    *_layer("rings.normal_form", "calls", "self_s"),
    *_layer("rings.RingElement.__mul__", "calls", "self_s"),
    *_layer("rings.graded_slice", "calls", "dim"),
    *_layer("poly.graded_ideal_slice", "calls", "self_s", "span_vectors"),
    *_layer("poly.ideal_contains", "calls", "self_s"),
    *_layer("poly.element_bitmask", "calls", "self_s"),
    *_layer("poly.element_coeffs", "calls", "self_s"),
    *_layer("poly.contains_by_enumeration", "calls", "self_s"),
    *_layer("linalg.gf2_in_span", "calls", "self_s", "vectors"),
    *_layer("linalg.howell_solve", "calls", "self_s", "columns"),
    *_layer("linalg.howell_form", "calls", "self_s", "pivots", "pivots2"),
    *_layer("homs.RingHom.__call__", "calls", "self_s"),
    *_layer("indexes.index_sphere_r4j_z", "calls", "self_s"),
    *_layer("indexes.index_product_spheres_z", "calls", "self_s"),
    *_layer("indexes.pi_poly", "calls", "self_s"),
    *[m for c in CRITERIA for m in _layer(f"bounds.admissible.{c}", "calls", "self_s")],
    *_layer("bounds.min_certified_d", "calls"),
    *[(f"verify.run_suite.{s}.wall_s", "s") for s in SUITES],
    *_layer("cli.main", "self_s"),
    *[(f"import.d8index.{m}.self_s", "s") for m in IMPORT_MODULES],
    ("trace.overhead_ratio", "ratio"),
)


# ------------------------------------------------------------ reference math
# Stated here from the paper, independently of the code under test.

def ramos(j):
    """Ramos lower bound ceil(3j/2) for two hyperplanes."""
    return -(-3 * j // 2)


def mvz(j):
    """Mani-Levitska-Vrecica-Zivaljevic upper bound 2^(q+1) + r, j = 2^q + r."""
    q = j.bit_length() - 1
    return 2 ** (q + 1) + j - (1 << q)


def scan_cap(j):
    """The default degree cap of a `table` scan for row j."""
    return max(2 * mvz(j), 24)


# ------------------------------------------------------- correctness gates

class GateError(Exception):
    """An invocation's output is wrong."""


def _parse_json(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise GateError(f"output is not JSON: {exc}") from None


def expected_table(j_max):
    """The stdout of `table --j-max j_max --format json` recorded at the
    commit that added this benchmark."""
    recorded = RECORDED_TABLE.read_bytes()
    rows = json.loads(recorded)["rows"]
    if j_max == len(rows):
        return recorded
    return (json.dumps({"schema": "1", "rows": rows[:j_max]}) + "\n").encode()


def check_table(stdout, j_max, expected):
    """Gate a `table --format json` output; returns its verdict count:
    the three min_d columns summed over all rows, scan_cap for a null."""
    if expected is not None and stdout != expected:
        raise GateError("stdout differs from the recorded table")
    rows = _parse_json(stdout).get("rows")
    if not isinstance(rows, list) or [r.get("j") for r in rows] != list(range(1, j_max + 1)):
        raise GateError(f"rows are not j = 1..{j_max}")
    verdicts = 0
    for r in rows:
        j, m = r["j"], mvz(r["j"])
        if r.get("ramos") != ramos(j) or r.get("mvz") != m:
            raise GateError(f"row j={j}: bounds {r.get('ramos')}, {r.get('mvz')} "
                            f"!= {ramos(j)}, {m}")
        if r.get("f2_min_d") != m or r.get("h1_min_d") != m:
            raise GateError(f"row j={j}: f2/h1 minimum is not mvz = {m}")
        z = r.get("z_min_d")
        if not isinstance(z, int) or z < m:
            raise GateError(f"row j={j}: z_min_d {z!r} is not an integer >= {m}")
        verdicts += sum(scan_cap(j) if r[c] is None else r[c]
                        for c in ("f2_min_d", "z_min_d", "h1_min_d"))
    return verdicts


def check_verdict(stdout, d, j, criterion):
    """Gate one `admissible` output: F2/H1 certify exactly from mvz on;
    Z never certifies below mvz.  Returns 1 verdict."""
    doc = _parse_json(stdout)
    for key, want in (("d", d), ("j", j), ("criterion", criterion)):
        if doc.get(key) != want:
            raise GateError(f"{key} echoed as {doc.get(key)!r}, asked {want!r}")
    certified = doc.get("certified")
    if not isinstance(certified, bool):
        raise GateError(f"certified is {certified!r}")
    if criterion == "Z_D8":
        if certified and d < mvz(j):
            raise GateError(f"Z certifies d={d} < mvz({j}) = {mvz(j)}")
    elif certified != (d >= mvz(j)):
        raise GateError(f"{criterion} gives certified={certified} at d={d}, "
                        f"mvz({j}) = {mvz(j)}")
    return 1


def check_verify(stdout, checks):
    """Gate a `verify` output: no FAIL line, `checks` PASS lines and the
    all-passed summary.  Returns the number of checks."""
    lines = stdout.decode(errors="replace").splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    if failing:
        raise GateError(f"{len(failing)} failing checks, first: {failing[0]}")
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != checks or not lines or lines[-1] != f"{checks}/{checks} checks passed":
        raise GateError(f"expected {checks}/{checks} checks passed, "
                        f"got {passed} PASS lines")
    return checks


# ---------------------------------------------------------------- workloads

class Call(NamedTuple):
    """One CLI invocation of a pass and the gate its stdout must pass."""
    args: tuple
    check: Callable[[bytes], int]


class Workload(NamedTuple):
    calls: Callable[[int], list]   # seed -> the calls of one pass
    warmup: tuple                  # arguments of the untimed warm-up call
    inputs: Callable[[int], str]   # seed -> description of the inputs


def table_calls(seed, j_max=32):
    del seed  # the table is fixed by j_max
    return [Call(("table", "--j-max", str(j_max), "--format", "json"),
                 functools.partial(check_table, j_max=j_max,
                                   expected=expected_table(j_max)))]


def deep_js(seed, starts=(150, 210), width=20, anchor=255):
    """Stratified antithetic draw of j from the strata [start, start +
    width), plus the fixed anchor.  Per stratum one offset u gives j =
    start + u and j = end - u: one even and one odd j whose summed cost
    is nearly the same for every u, so a pass costs about the same for
    every seed.  The strata are narrow because the cost of a call grows
    steeply with j: in wide strata the median and tail latencies of a
    pass would depend on the seed more than on the program.  The anchor
    j = 255 has the densest H1 target in the range, 256 terms in
    (a+b)^383, so the largest slice of a pass, which sets peak_rss_mb,
    does not depend on the seed."""
    rng = random.Random(seed)
    js = []
    for start in starts:
        u = rng.randrange(width // 2)
        js += [start + u, start + width - 1 - u]
    return js + [anchor]


def deep_calls(seed, js=None):
    calls = []
    for j in (deep_js(seed) if js is None else js):
        m = mvz(j)
        for criterion in CRITERIA:
            for d in (m - 1, m):
                calls.append(Call(
                    ("admissible", "--d", str(d), "--j", str(j),
                     "--coeff", COEFF_OF[criterion]),
                    functools.partial(check_verdict, d=d, j=j, criterion=criterion)))
    return calls


def verify_calls(seed, suite="all", checks=64):
    del seed  # the suites seed themselves (97, 11, 1789)
    return [Call(("verify", "--suite", suite),
                 functools.partial(check_verify, checks=checks))]


WORKLOADS = {
    "table_sweep": Workload(
        table_calls, ("table", "--j-max", "2", "--format", "json"),
        lambda seed: "table --j-max 32 --format json (seed not used)"),
    "deep_verdicts": Workload(
        deep_calls, ("admissible", "--d", "2", "--j", "1", "--coeff", "z"),
        lambda seed: f"admissible at d = mvz-1, mvz for j = {deep_js(seed)}"),
    "verify_all": Workload(
        verify_calls, ("verify", "--suite", "lemmas"),
        lambda seed: "verify --suite all (fixed seeds 97, 11, 1789; seed not used)"),
}


# ------------------------------------------------------------ running calls

class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float
    speed: float = 1.0   # host_speed() measured before the call


def reference_loop(n=REFERENCE_LOOPS):
    """Fixed pure-Python work of the kind the program does: integer
    arithmetic, tuples, and a dict that grows past the CPU caches.
    Returns its time in seconds."""
    start = time.perf_counter()
    table, x = {}, 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x & 1023, x >> 22)
        table[key] = table.get(key, 0) ^ (x & 3)
    return time.perf_counter() - start


def host_speed():
    """REFERENCE_S over the reference loop's time in a fresh process:
    1 when the host runs Python as fast as when the numbers in README.md
    were recorded, 0.6 when the loop takes 0.39 s.  A fresh process, like
    the program's, and one that keeps the loop's memory out of this
    process, whose size a child inherits into its max RSS."""
    out = subprocess.run([sys.executable, "-c", "import run; print(run.reference_loop())"],
                         cwd=HERE, capture_output=True, check=True, timeout=60)
    return REFERENCE_S / float(out.stdout)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(args, timeout, spans_out=None, python_flags=()):
    """Run one fresh CLI process to completion; its usage comes from wait4."""
    if spans_out is None:
        cmd = [sys.executable, *python_flags, "-m", "d8index", *args]
    else:
        cmd = [sys.executable, str(HERE / "spans.py"), str(spans_out), "--", *args]
    with tempfile.TemporaryFile(dir=RUNS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Outcome(proc.returncode, out, stderr, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Pass(NamedTuple):
    wall: float
    outcomes: list
    verdicts: int
    errors: list   # (call index, message)


def run_pass(calls, deadline, spans_dir=None, probe=None, until=None, estimates=None):
    """Run the calls in order and gate their outputs.  A call still
    running at `deadline` (a perf_counter value) is killed and fails.
    With `until` the pass stops before the first call that would end
    after it, judged by `estimates`.  `probe()`, if given, runs before
    every PROBE_EVERY-th call and returns the host speed, which is
    recorded with the calls up to the next probe.  The pass wall time is
    the sum of the calls' wall times, so probes do not count in it."""
    outcomes, speed = [], 1.0
    for i, call in enumerate(calls):
        if until is not None and time.perf_counter() + estimates[i] > until:
            break
        if probe is not None and i % PROBE_EVERY == 0:
            speed = probe()
        spans_out = None if spans_dir is None else spans_dir / f"{i}.json"
        timeout = max(0.1, deadline - time.perf_counter())
        outcomes.append(invoke(call.args, timeout, spans_out)._replace(speed=speed))
    wall = sum(o.wall for o in outcomes)
    verdicts, errors = 0, []
    for i, (call, out) in enumerate(zip(calls, outcomes)):
        if out.code != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            errors.append((i, f"exit {out.code} {tail}"))
            continue
        try:
            verdicts += call.check(out.stdout)
        except GateError as exc:
            errors.append((i, str(exc)))
    return Pass(wall, outcomes, verdicts, errors)


def harrell_davis(samples, p, steps=64):
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their interval.
    The latencies of a pass are few and far apart near the tail, so a
    single order statistic there jumps whenever noise reorders two calls;
    the weighted average does not."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = [sum(t ** (a - 1) * (1 - t) ** (b - 1)
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(samples):
    """(q, value): the highest integer percentile q that leaves at least
    TAIL_BEYOND samples above its nearest rank, with the Harrell-Davis
    estimate of that percentile; the maximum (q = 100) when there are
    too few samples for that."""
    n = len(samples)
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            return q, harrell_davis(samples, q / 100)
    return 100, max(samples)


def per_call(passes, value):
    """Each invocation's median `value(outcome)` over its repeats in the
    passes; only the last pass may be cut short."""
    return [statistics.median(value(p.outcomes[i]) for p in passes if i < len(p.outcomes))
            for i in range(len(passes[0].outcomes))]


def calibrated(field):
    """An outcome's `field` time scaled by the host speed taken before
    it.  The speed this shared host gives a process drifts by up to 80%
    for stretches of seconds to many minutes, and the reference loop
    slows with the program; the scaled time estimates the call's time on
    the host running as fast as at recording, and varies far less from
    run to run than the raw one."""
    return lambda out: getattr(out, field) * out.speed


def end_to_end_metrics(setup, passes):
    """The `--trace 0` metrics from the `--help` outcomes and timed passes."""
    attempted = len(setup) + sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.errors) for p in passes) + sum(
        1 for o in setup if o.code != 0 or not o.stdout.startswith(b"usage: d8index"))
    walls = per_call(passes, calibrated("wall"))
    q, tail = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(map(calibrated("wall"), setup)),
        "wall_s": sum(walls),
        "cpu_s": sum(per_call(passes, calibrated("cpu"))),
        "verdicts_per_s": passes[0].verdicts / sum(walls),
        "call_p50_s": harrell_davis(walls, 0.5),
        "call_tail_s": tail,
        "peak_rss_mb": max(per_call(passes, lambda out: out.rss_mb)),
        "ok_ratio": (attempted - failed) / attempted,
    }
    speeds = [o.speed for p in passes for o in p.outcomes]
    repeats = len(speeds) / len(walls)
    notes = [f"call_tail_s is p{q} of {len(walls)} calls, each the median "
             f"of its repeats, {repeats:.2f} on average",
             f"host speed: median {statistics.median(speeds):.3f}, range "
             f"{min(speeds):.3f}..{max(speeds):.3f}; uncalibrated wall_s "
             f"{sum(per_call(passes, lambda out: out.wall)):.4f}, setup_s "
             f"{statistics.median(o.wall for o in setup):.4f}"]
    return values, attempted, failed, notes


# ------------------------------------------------------------ traced passes

def merge_spans(paths):
    """Sum the span files of one pass, span by span and edge by edge."""
    spans, edges = {}, {}
    for path in paths:
        doc = json.loads(path.read_text())
        for name, rec in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0,
                                          "self_ns": 0, "counters": {}})
            for key in ("calls", "total_ns", "self_ns"):
                acc[key] += rec[key]
            for key, value in rec["counters"].items():
                acc["counters"][key] = acc["counters"].get(key, 0) + value
        for edge in doc["edges"]:
            acc = edges.setdefault((edge["parent"], edge["child"]), [0, 0])
            acc[0] += edge["calls"]
            acc[1] += edge["total_ns"]
    return {"spans": spans,
            "edges": [{"parent": parent, "child": child, "calls": calls,
                       "total_ns": total}
                      for (parent, child), (calls, total) in edges.items()]}


def layer_values(spans):
    """Per-layer metrics of one traced pass, except import and overhead."""
    values = {}
    for name, _ in PER_LAYER:
        if name.startswith("import.") or name.startswith("trace."):
            continue
        span, field = name.rsplit(".", 1)
        rec = spans.get(span, {"calls": 0, "total_ns": 0, "self_ns": 0,
                               "counters": {}})
        if field == "calls":
            values[name] = rec["calls"]
        elif field == "self_s":
            values[name] = rec["self_ns"] / 1e9
        elif field == "wall_s":
            values[name] = rec["total_ns"] / 1e9
        else:
            values[name] = rec["counters"].get(field, 0)
    return values


def import_self_times():
    """Median self time of each d8index module in `python -X importtime`."""
    samples = {m: [] for m in IMPORT_MODULES}
    failed = 0
    for _ in range(IMPORT_REPEATS):
        out = invoke(("--help",), 30.0, python_flags=("-X", "importtime"))
        if out.code != 0:
            failed += 1
            continue
        for line in out.stderr.decode(errors="replace").splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            module = parts[2]
            key = "__init__" if module == "d8index" else module.removeprefix("d8index.")
            if module.startswith("d8index") and key in samples:
                samples[key].append(int(parts[0].split(":")[1]) / 1e6)
    return ({f"import.d8index.{m}.self_s": statistics.median(v) if v else 0.0
             for m, v in samples.items()}, failed)


def traced_metrics(calls, seconds, deadline, workdir, spans_out):
    """Alternate untraced and traced passes; per-layer medians.  The
    merged spans of the last traced pass are written to `spans_out`."""
    plain, traced, layers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        spans_dir = workdir / f"pass{len(traced)}"
        spans_dir.mkdir()
        ref = run_pass(calls, deadline)
        run = run_pass(calls, deadline, spans_dir)
        plain.append(ref.wall)
        traced.append(run.wall)
        attempted += 2 * len(calls)
        erred = {i for i, _ in ref.errors + run.errors}
        mismatched = [i for i, (a, b) in enumerate(zip(ref.outcomes, run.outcomes))
                      if a.stdout != b.stdout and i not in erred]
        failed += len(ref.errors) + len(run.errors) + len(mismatched)
        merged = merge_spans(sorted(spans_dir.glob("*.json")))
        layers.append(layer_values(merged["spans"]))
        shutil.rmtree(spans_dir)
        elapsed = time.perf_counter() - start
        if elapsed + ref.wall + run.wall > seconds:
            break
    spans_out.write_text(json.dumps(merged, indent=1) + "\n")
    values = {name: statistics.median_low(layer[name] for layer in layers)
              for name in layers[0]}
    imports, import_failed = import_self_times()
    values.update(imports)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    note = (f"{len(traced)} untraced + {len(traced)} traced passes; spans of "
            f"the last traced pass in {spans_out.relative_to(ROOT)}")
    return values, attempted + IMPORT_REPEATS, failed + import_failed, note


# --------------------------------------------------------------------- main

def timed_passes(calls, seconds, deadline):
    """One whole pass, then passes until the next call would end after
    `seconds`: the last pass may stop part-way, so that every run uses
    its time whatever the speed of the host.  Each probe gauges the host
    speed and takes SETUP_BURST `--help` set-up samples, so that their
    median sees the same host conditions as the passes."""
    passes, setup, probe_s = [], [], []

    def probe():
        began = time.perf_counter()
        speed = host_speed()
        setup.extend(invoke(("--help",), 30.0)._replace(speed=speed)
                     for _ in range(SETUP_BURST))
        probe_s.append(time.perf_counter() - began)
        return speed

    start = time.perf_counter()
    passes.append(run_pass(calls, deadline, probe=probe))
    estimates = [o.wall + (max(probe_s) if i % PROBE_EVERY == 0 else 0.0)
                 for i, o in enumerate(passes[0].outcomes)]
    while len(passes[-1].outcomes) == len(calls):
        more = run_pass(calls, deadline, probe=probe, until=start + seconds,
                        estimates=estimates)
        if not more.outcomes:
            break
        passes.append(more)
    while len(setup) < SETUP_REPEATS:
        probe()
    return setup, passes


def measure(workload, spec, seed, seconds, trace):
    """Warm up, then measure the Workload `spec`; returns (metrics with
    units, attempted, failed, notes).  Raises RuntimeError if the
    program does not run."""
    deadline = time.perf_counter() + RUN_LIMIT
    for args in (("--help",), spec.warmup):
        out = invoke(args, 60.0)
        if out.code != 0:
            raise RuntimeError(f"warm-up `d8index {' '.join(args)}` exited "
                               f"{out.code}: {out.stderr.decode(errors='replace')[-400:]}")
    calls = spec.calls(seed)
    notes = [f"{workload}: {spec.inputs(seed)}"]
    if trace:
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
        try:
            values, attempted, failed, note = traced_metrics(
                calls, seconds, deadline, workdir,
                RUNS / f"spans-{workload}-seed{seed}.json")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        notes.append(note)
        units = dict(PER_LAYER)
    else:
        setup, passes = timed_passes(calls, seconds, deadline)
        values, attempted, failed, more_notes = end_to_end_metrics(setup, passes)
        notes += more_notes
        for p in passes:
            notes += [f"call {i} ({' '.join(calls[i].args)}): {msg}"
                      for i, msg in p.errors]
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "d8index" / "cli.py").is_file():
        print(f"no d8index sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    try:
        metrics, attempted, failed, notes = measure(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace))
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
