"""Property-based fuzzing of the element grammar and the CLI argv.

Every text or argv ends in a value or a clean error: a parsed element
re-parses equal from its printed form, and the CLI returns its
documented exit code with at most one line on stderr.  The settings
keep runs deterministic and write no example database.
"""

import contextlib
import io
import os
import re

# Even with no example database, hypothesis caches the constants it reads
# from the package source under its storage directory (`.hypothesis/` in
# the working directory); one that cannot be created leaves no files.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)

from hypothesis import given, settings
from hypothesis import strategies as st

from d8index.cli import main
from d8index.homs import F2_DIAGRAM, Z_DIAGRAM
from d8index.rings import CATALOG, ElementParseError, YW_F2

FUZZ = settings(database=None, derandomize=True, deadline=None)

RINGS = [YW_F2, *CATALOG.values()]

EDGES = [(coeff, src, dst, diagram.rings[src])
         for coeff, diagram in (("f2", F2_DIAGRAM), ("z", Z_DIAGRAM))
         for src, dst in diagram.edges]


def _element_texts(ring):
    """Texts over the ring's symbols, digits, `+ * ^ -` and blanks, with
    no number longer than 3 digits: half follow the grammar, half are
    token soup."""
    number = st.integers(0, 999).map(str)
    symbol = st.sampled_from(ring.gens)
    factor = st.one_of(number, number.map("-{}".format), symbol,
                       st.builds("{}^{}".format, symbol, number))
    grammatical = st.lists(st.lists(factor, min_size=1, max_size=3).map("*".join),
                           min_size=1, max_size=3).map("+".join)
    token = st.one_of(symbol, number, st.sampled_from("+*^- "))
    soup = st.lists(token, max_size=12).map(
        lambda tokens: re.sub(r"(\d{3})\d+", r"\1", "".join(tokens)))
    return st.one_of(grammatical, soup)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(st.data())
def test_parse_round_trips_or_raises_a_parse_error(data):
    ring = data.draw(st.sampled_from(RINGS), label="ring")
    text = data.draw(_element_texts(ring), label="text")
    try:
        e = ring.parse(text)
    except ElementParseError:
        return
    assert ring.parse(str(e)) == e


@FUZZ
@given(st.data())
def test_restrict_ends_with_a_documented_exit_code(data):
    coeff, src, dst, domain = data.draw(st.sampled_from(EDGES), label="edge")
    text = data.draw(_element_texts(domain), label="text")
    # `--element=TEXT`, since argparse takes a separate "-U" for a flag
    code, _, err = _run(["restrict", "--from", src, "--to", dst,
                         "--coeff", coeff, f"--element={text}"])
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


_INT = st.integers(-2, 12).map(str)

# verb -> {flag: values}, each with one value the verb refuses
VERB_FLAGS = {
    "admissible": {"--d": _INT, "--j": _INT,
                   "--coeff": st.sampled_from(["f2", "z", "h1f2", "q"])},
    "bounds": {"--j": _INT, "--scan-cap": _INT},
    "table": {"--j-max": _INT, "--scan-cap": _INT,
              "--format": st.sampled_from(["json", "csv", "text", "xml"])},
    "poly": {"--family": st.sampled_from(["pi", "Pi", "rho", "sigma"]),
             "--d": _INT},
    "ideal": {"--name": st.sampled_from(["sphere_f2", "sphere_z",
                                         "product_spheres_f2",
                                         "product_spheres_z", "h1_product_z",
                                         "a_ideal", "b_ideal", "c_ideal"]),
              "--d": _INT, "--j": _INT, "--n": _INT,
              "--kind": st.sampled_from(["partial", "full", "half"])},
}


@st.composite
def _argvs(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    argv = [verb]
    for flag, values in VERB_FLAGS[verb].items():
        if draw(st.integers(0, 3)):  # each flag present 3 times in 4
            argv += [flag, draw(values)]
    return argv


@FUZZ
@given(_argvs())
def test_small_argv_succeeds_or_is_a_usage_error(argv):
    code, _, _ = _run(argv)
    assert code in (0, 2)
