import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import d8index
from d8index import cli
from d8index.cli import build_parser, main
from d8index.rings import YW_F2, get_ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_certified(capsys):
    code, out, _ = run(capsys, "admissible", "--d", "2", "--j", "1",
                       "--coeff", "f2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["certified"] is True
    assert payload["criterion"] == "F2_D8"
    assert list(payload) == ["schema", "d", "j", "criterion", "certified",
                             "witness"]


def test_admissible_not_certified(capsys):
    code, out, _ = run(capsys, "admissible", "--d", "1", "--j", "1",
                       "--coeff", "f2")
    assert code == 0
    assert json.loads(out)["certified"] is False


def test_admissible_rejects_bad_flags(capsys):
    code, _, _ = run(capsys, "admissible", "--d", "0", "--j", "1",
                     "--coeff", "f2")
    assert code == 2
    code, _, _ = run(capsys, "admissible", "--d", "1", "--j", "1",
                     "--coeff", "f3")
    assert code == 2


ADMISSIBLE_J8 = {
    ("f2", 15): ("F2_D8", False, "y^8*w^8 decomposes over the degree-24 "
                 "slice of <pi_16, pi_17>"),
    ("f2", 16): ("F2_D8", True, "y^8*w^8 is outside the degree-24 slice "
                 "of <pi_17, pi_18>"),
    ("z", 15): ("Z_D8", False, "every generator of A_8 lies in B_15"),
    ("z", 16): ("Z_D8", True, "generator W^4*Y^4 of A_8 escapes B_16 at "
                "degree 24"),
    ("h1f2", 15): ("H1_F2", False, "a^8*b^8*(a+b)^8 decomposes over the "
                   "degree-24 slice of <a^16, (a+b)^16>"),
    ("h1f2", 16): ("H1_F2", True, "a^8*b^8*(a+b)^8 is outside the "
                   "degree-24 slice of <a^17, (a+b)^17>"),
}


ADMISSIBLE_J255 = {
    ("f2", 383): ("F2_D8", True, "y^255*w^255 is outside the degree-765 "
                  "slice of <pi_384, pi_385>"),
    ("h1f2", 383): ("H1_F2", True, "a^255*b^255*(a+b)^255 is outside the "
                    "degree-765 slice of <a^384, (a+b)^384>"),
    ("z", 383): ("Z_D8", False, "every generator of A_255 lies in B_383"),
}


def _assert_admissible_json(capsys, j, cases):
    for (coeff, d), (criterion, certified, witness) in cases.items():
        code, out, _ = run(capsys, "admissible", "--d", str(d), "--j", str(j),
                           "--coeff", coeff)
        assert code == 0
        assert json.loads(out) == {"schema": "1", "d": d, "j": j,
                                   "criterion": criterion,
                                   "certified": certified,
                                   "witness": witness}


def test_admissible_full_json_at_j8(capsys):
    # d = 15, 16 straddle mvz_upper(8) = 16
    _assert_admissible_json(capsys, 8, ADMISSIBLE_J8)


def test_admissible_full_json_at_j255(capsys):
    # d = 383 = mvz_upper(255) - 1: the deep slices of degree 765
    _assert_admissible_json(capsys, 255, ADMISSIBLE_J255)


def test_closed_stdout_exits_141():
    # the read end is closed before the process starts, so every write
    # to stdout fails: no race with a reader that quits early
    src = os.path.dirname(os.path.dirname(d8index.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["bounds", "--j", "1"],
                 ["table", "--j-max", "4", "--format", "csv"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "d8index", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141, argv
        assert proc.stderr == b"", argv


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--j", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"schema": "1", "j": 1, "ramos_lower": 2,
                       "mvz_upper": 2, "f2_min_d": 2, "z_min_d": 3,
                       "h1_min_d": 2, "scan_cap": 24}


def test_bounds_j3(capsys):
    code, out, _ = run(capsys, "bounds", "--j", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["ramos_lower"] == payload["mvz_upper"] == 5
    assert payload["f2_min_d"] == 5


def test_bounds_with_the_z_expectation_above_the_cap(capsys):
    # Z_D8 is expected at 31 for j = 15; the scan probes the cap instead
    code, out, _ = run(capsys, "bounds", "--j", "15", "--scan-cap", "24")
    assert code == 0
    assert out == ('{"schema": "1", "j": 15, "ramos_lower": 23, "mvz_upper": 23, '
                   '"f2_min_d": 23, "z_min_d": null, "h1_min_d": 23, '
                   '"scan_cap": 24}\n')


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "bounds", "--j", "2")
    _, second, _ = run(capsys, "bounds", "--j", "2")
    assert first == second


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--j-max", "2", "--format", "csv")
    assert code == 0
    assert out == ("j,ramos,mvz,f2_min_d,z_min_d,h1_min_d\n"
                   "1,2,2,2,3,2\n"
                   "2,3,4,4,4,4\n")


def test_table_j32_json_matches_recorded_bytes(capsys):
    """The recorded table the benchmark checks against stays the output."""
    recorded = Path(__file__).parents[1] / "perfbench" / "expected" / "table_j32.json"
    code, out, err = run(capsys, "table", "--j-max", "32", "--format", "json")
    assert (code, err) == (0, "")
    assert out.encode() == recorded.read_bytes()


def test_table_json_and_text(capsys):
    code, out, _ = run(capsys, "table", "--j-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["j"] for row in payload["rows"]] == [1, 2]
    code, out, _ = run(capsys, "table", "--j-max", "1", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["j", "ramos", "mvz", "f2_min_d", "z_min_d",
                                "h1_min_d"]
    assert lines[1].split() == ["1", "2", "2", "2", "3", "2"]


def test_poly_families(capsys):
    code, out, _ = run(capsys, "poly", "--family", "pi", "--d", "5")
    assert code == 0 and out.strip() == "y^5+w*y^3+w^2*y"
    code, out, _ = run(capsys, "poly", "--family", "Pi", "--d", "3")
    assert code == 0 and out.strip() == "Y^3+W*Y"
    code, out, _ = run(capsys, "poly", "--family", "rho", "--d", "2")
    assert code == 0 and out.strip() == "b^2"
    for family in ("pi", "Pi", "rho"):
        code, _, err = run(capsys, "poly", "--family", family, "--d", "-1")
        assert code == 2 and err == "d must be >= 0\n"


def test_restrict(capsys):
    code, out, _ = run(capsys, "restrict", "--from", "D8", "--to", "H1",
                       "--coeff", "f2", "--element", "w")
    assert code == 0 and out.strip() == "a^2+a*b"
    code, out, _ = run(capsys, "restrict", "--from", "D8", "--to", "H2",
                       "--coeff", "z", "--element", "Y")
    assert code == 0 and out.strip() == "2*U"


def test_restrict_errors(capsys):
    code, _, err = run(capsys, "restrict", "--from", "D8", "--to", "K1",
                       "--coeff", "z", "--element", "Y")
    assert code == 2 and err == "no restriction D8 -> K1 in the Z diagram\n"
    # an unknown node gets the same message, not a bare KeyError of its name
    code, _, err = run(capsys, "restrict", "--from", "Q", "--to", "Q",
                       "--coeff", "f2", "--element", "w")
    assert code == 2 and err == "no restriction Q -> Q in the F2 diagram\n"
    code, _, err = run(capsys, "restrict", "--from", "D8", "--to", "H1",
                       "--coeff", "f2", "--element", "w+")
    assert code == 3 and err
    # a digit that is not decimal is a parse error, not a crash in int()
    code, _, err = run(capsys, "restrict", "--from", "D8", "--to", "H1",
                       "--coeff", "f2", "--element", "\u00b2")
    assert code == 3 and err


def test_restrict_overlong_integer_is_a_parse_error(capsys):
    # past the interpreter's int-conversion digit limit: a parse error,
    # not its bare ValueError (exit 2)
    for element in ("1" * 5000 + "*x", "x^" + "1" * 5000):
        code, out, err = run(capsys, "restrict", "--from", "D8", "--to", "H1",
                             "--coeff", "f2", "--element", element)
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("integer too long in factor")


def test_restrict_overlong_coefficient_is_a_parse_error(capsys):
    # every integer fits the digit limit, but the normal form's degree-0
    # coefficient does not, so printing it would fail (exit 2)
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    for element in ("9" * 3000 + "*" + "9" * 3000, nines + "+" + nines,
                    nines + "+1"):
        code, out, err = run(capsys, "restrict", "--from", "D8", "--to", "D8",
                             "--coeff", "z", "--element", element)
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith(f"coefficient of more than {limit} digits")
    # the largest coefficient of `limit` digits still prints
    code, out, _ = run(capsys, "restrict", "--from", "D8", "--to", "D8",
                       "--coeff", "z", "--element", nines)
    assert code == 0 and out == nines + "\n"
    # an F2 ring reduces the coefficient before anything is printed
    code, out, err = run(capsys, "restrict", "--from", "D8", "--to", "D8",
                         "--coeff", "f2", "--element", f"{nines}*{nines}*x")
    assert (code, out, err) == (0, "x\n", "")


def test_option_value_of_two_dashes_is_a_usage_error(capsys):
    # argparse (3.11) gives `--opt=--` the value [], which no verb takes
    for argv in (["restrict", "--from", "D8", "--to", "H1", "--coeff", "f2",
                  "--element=--"],
                 ["restrict", "--from=--", "--to", "H1", "--coeff", "f2",
                  "--element", "w"],
                 ["ideal", "--name=--"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1


def test_ideal_command(capsys):
    code, out, _ = run(capsys, "ideal", "--name", "product_spheres_z",
                       "--d", "2")
    assert code == 0 and out.strip() == "Y^2; Y^3+W*Y; M*Y"
    code, out, _ = run(capsys, "ideal", "--name", "sphere_f2", "--j", "2")
    assert code == 0 and out.strip() == "w^2*y^2"
    code, out, _ = run(capsys, "ideal", "--name", "product_spheres_f2",
                       "--d", "2", "--kind", "full")
    assert code == 0 and out.strip() == "y^3+w*y; y^4; w^3"
    code, out, _ = run(capsys, "ideal", "--name", "a_ideal", "--j", "1")
    assert code == 0 and out.strip() == "M*Y; W*Y"
    code, out, _ = run(capsys, "ideal", "--name", "sphere_z", "--j", "3")
    assert code == 0 and out.strip() == "W*M*Y^2; W^2*Y^2"
    code, out, _ = run(capsys, "ideal", "--name", "h1_product_z", "--n", "2")
    assert code == 0 and out.strip() == "tau1^2; tau2^2; mu*tau1; mu*tau2"
    code, out, _ = run(capsys, "ideal", "--name", "b_ideal", "--d", "2")
    assert code == 0 and out.strip() == "Y^2; Y^3+W*Y; M*Y"


def test_ideal_errors(capsys):
    code, _, err = run(capsys, "ideal", "--name", "nonsense", "--d", "1")
    assert code == 2 and err
    code, _, err = run(capsys, "ideal", "--name", "sphere_f2")
    assert code == 2 and "--j" in err


def test_printed_elements_reparse(capsys):
    _, out, _ = run(capsys, "poly", "--family", "pi", "--d", "9")
    element = YW_F2.parse(out.strip())
    assert str(element) == out.strip()
    _, out, _ = run(capsys, "ideal", "--name", "sphere_z", "--j", "3")
    bound = get_ring("D8_Z_BOUND")
    for part in out.strip().split("; "):
        assert str(bound.parse(part)) == part


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_diagram_with_max_degree(capsys):
    # the diagram suite compares generator images and ignores the flag
    code, out, _ = run(capsys, "verify", "--suite", "diagram",
                       "--max-degree", "3")
    assert code == 0
    assert "have equal generator images" in out
    # the parser refuses values outside 1..1024 before any suite runs
    for bad in ("0", "banana", "1025"):
        code, out, err = run(capsys, "verify", "--suite", "diagram",
                             "--max-degree", bad)
        assert code == 2 and err and not out


def test_verify_suite_choices_are_the_verify_suites():
    from d8index import verify
    parser = build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in verbs.choices["verify"]._actions
                 if a.dest == "suite")
    assert suite.choices == verify.SUITE_NAMES + ("all",)


# argparse 3.11 at COLUMNS=80; the parser builds without loading `verify`,
# and its help must not change for that
HELP_TEXT = """\
usage: d8index [-h] {admissible,bounds,table,verify,poly,restrict,ideal} ...

Exact index computations for two-hyperplane mass partitions under the dihedral
symmetry group of order 8.

positional arguments:
  {admissible,bounds,table,verify,poly,restrict,ideal}
    admissible          evaluate one admissibility criterion
    bounds              bound report for one value of j
    table               bound table for j = 1..j_max
    verify              run a verification suite
    poly                print a member of a polynomial family
    restrict            apply a restriction homomorphism
    ideal               print the generators of an index ideal

options:
  -h, --help            show this help message and exit
"""

VERIFY_HELP_TEXT = """\
usage: d8index verify [-h] --suite {lemmas,diagram,indexes,oracle,all}
                      [--max-degree MAX_DEGREE]

options:
  -h, --help            show this help message and exit
  --suite {lemmas,diagram,indexes,oracle,all}
  --max-degree MAX_DEGREE
"""


@pytest.mark.parametrize("argv, text", [(["--help"], HELP_TEXT),
                                        (["verify", "--help"], VERIFY_HELP_TEXT)],
                         ids=["help", "verify help"])
def test_help_text_is_pinned(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (0, text, "")


def test_verify_indexes_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "indexes",
                       "--max-degree", "16")
    assert code == 0
    assert "generating function" in out
    assert "PASS product index chains shrink as d grows, d <= 16\n" in out


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "everything")
    assert code == 2


def test_missing_subcommand(capsys):
    code, _, _ = run(capsys)
    assert code == 2


# Run in a fresh interpreter: the modules it loads after the snapshot are
# the ones `cli.main(argv)` needs, whatever the host's site preloads.
# the snapshot comes first, so that the probe sees every module the
# verb loads, `json` included; the probe imports `json` only to report
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from d8index.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, loaded]))
"""

HEAVY_MODULES = {"dataclasses", "inspect", "csv", "d8index.homs", "d8index.verify"}

JSON_ARGVS = [
    *(["admissible", "--d", "2", "--j", "1", "--coeff", c] for c in ("f2", "z", "h1f2")),
    ["bounds", "--j", "3"],
    ["table", "--j-max", "3", "--format", "json"],
]

# verbs that print no JSON load no `json` either
TEXT_ARGVS = [
    ["--help"],
    ["table", "--j-max", "3", "--format", "text"],
    ["poly", "--family", "Pi", "--d", "5"],
    ["ideal", "--name", "b_ideal", "--d", "3"],
]

LEAN_ARGVS = JSON_ARGVS + TEXT_ARGVS


def _modules_loaded_by(argv, expected_code=0):
    src = os.path.dirname(os.path.dirname(d8index.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == expected_code, argv
    return set(loaded)


@pytest.mark.parametrize("argv", LEAN_ARGVS, ids=" ".join)
def test_verb_loads_no_heavy_module(argv):
    loaded = _modules_loaded_by(argv)
    assert "d8index.cli" in loaded
    heavy = HEAVY_MODULES if argv in JSON_ARGVS else HEAVY_MODULES | {"json"}
    assert loaded & heavy == set()


@pytest.mark.parametrize("argv, needed", [
    (["restrict", "--from", "D8", "--to", "H1", "--coeff", "f2", "--element", "w"],
     "d8index.homs"),
    (["verify", "--suite", "diagram"], "d8index.homs"),
    (["verify", "--suite", "lemmas"], "d8index.verify"),
    (["bounds", "--j", "3"], "json"),
    (["table", "--j-max", "3", "--format", "csv"], "csv"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_verb_loads_what_it_uses(argv, needed):
    assert needed in _modules_loaded_by(argv)


NEEDLESS_MODULES = [
    (["restrict", "--from", "D8", "--to", "H1", "--coeff", "f2", "--element", "w"],
     {"d8index.bounds", "d8index.indexes", "d8index.poly", "d8index.linalg"}),
    (["poly", "--family", "Pi", "--d", "5"], {"d8index.bounds"}),
    (["ideal", "--name", "b_ideal", "--d", "3"], {"d8index.bounds"}),
]


@pytest.mark.parametrize("argv, needless", NEEDLESS_MODULES,
                         ids=[" ".join(argv) for argv, _ in NEEDLESS_MODULES])
def test_verb_does_not_load_what_it_does_not_use(argv, needless):
    assert _modules_loaded_by(argv) & needless == set()


# help and usage errors end before any verb runs, or in a verb's own
# checks, and load no engine module
ENGINE_FREE_ARGVS = [
    (["--help"], 0),
    (["admissible", "--help"], 0),
    (["table", "--help"], 0),
    (["verify", "--help"], 0),
    (["admissible", "--d", "0", "--j", "1", "--coeff", "z"], 2),
    (["table", "--j-max", "3", "--format", "bogus"], 2),
    (["verify", "--suite", "bogus"], 2),
    (["verify", "--suite", "all", "--max-degree", "2000"], 2),
    (["ideal", "--name", "bogus", "--j", "2"], 2),
    (["ideal", "--name", "sphere_f2"], 2),
]


@pytest.mark.parametrize("argv, code", ENGINE_FREE_ARGVS,
                         ids=[" ".join(argv) for argv, _ in ENGINE_FREE_ARGVS])
def test_help_and_usage_errors_load_no_engine_module(argv, code):
    package = {m for m in _modules_loaded_by(argv, code) if m.split(".")[0] == "d8index"}
    assert package == {"d8index", "d8index.cli"}


def test_coeff_choices_are_the_criteria_inverted():
    from d8index import bounds
    assert cli._CRITERION_OF_COEFF == {
        coeff: name for name, coeff in bounds.CRITERION_REGISTRY.items()}


def test_families_call_their_indexes_functions():
    from d8index import indexes
    functions = {"pi": indexes.pi_poly, "Pi": indexes.capital_pi_poly,
                 "rho": indexes.rho_poly}
    assert cli._FAMILIES.keys() == functions.keys()
    for family, function in functions.items():
        for d in (1, 5, 12):
            assert cli._FAMILIES[family](d) == function(d)


@pytest.mark.parametrize("name", sorted(cli._IDEALS))
def test_every_ideal_name_builds_generators(capsys, name):
    flag = cli._IDEALS[name][0]
    code, out, err = run(capsys, "ideal", "--name", name, f"--{flag}", "2")
    assert (code, err) == (0, "") and out.strip()
