"""Runnable verification suites behind the `verify` CLI command.

Each suite returns a list of Check records; a suite passes when every
check does.  The suites re-run, at machine speed, the identities the
library is built on: the inclusion lemma sweeps, the restriction
diagram commutativity, the index identities, and the agreement of the
linear-algebra membership decision with brute-force enumeration.  Each
index identity has one body in `indexes`, and the shrinking index
chains theirs in `bounds.criterion_chains_shrink`; a suite only sets
its range and its label, as the tests do with theirs.

The three seeded samplers (the oracle's instances, the idempotence and
the multiplicativity samples of `diagram`) draw through `Draws`, which
reproduces what `random.Random(seed)` draws with `randint`, `sample`
and `random` on CPython 3.10-3.13, without the per-call overhead of the
stdlib API.  The recorded digests of the drawn samples rest on that.
"""

import math
import random
from collections import namedtuple

from . import bounds, indexes
from .poly import (graded_ideal_slice, graded_slice, ideal_contains,
                   span_contains_by_enumeration)
from .rings import CATALOG, H1_F2, RingElement, YW_F2

__all__ = ["Check", "ORACLE_INSTANCES", "SUITE_NAMES", "run_suite",
           "random_homogeneous"]


class Check(namedtuple("Check", "name ok detail", defaults=("",))):
    """One check: its label name (str), ok (bool) and detail (str), the
    text printed after a failure."""
    __slots__ = ()


class Draws:
    """The draws of `random.Random(seed)`, value for value, from its
    `getrandbits`, as on CPython 3.10-3.13.  `randint` is CPython's
    `_randbelow_with_getrandbits` rejection loop: a value below n is
    n.bit_length() bits, redrawn while >= n.  `sample` draws through it
    and chooses, as CPython does, between a shrinking pool (when n is
    at most 21, plus 4 ** ceil(log(3k, 4)) when k > 5) and a set of
    taken indices.  `random` is the generator's own.  An empty range
    raises ValueError."""

    __slots__ = ("_bits", "random")

    def __init__(self, seed):
        rng = random.Random(seed)
        self._bits = rng.getrandbits
        self.random = rng.random

    def randint(self, a, b):
        """A uniform int in [a, b]."""
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range [{a}, {b}]")
        bits, k = self._bits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return a + r

    def sample(self, population, k):
        """k distinct entries of the sequence, in draw order."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("sample larger than population or is negative")
        randint = self.randint
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            result = []
            for i in range(n - 1, n - 1 - k, -1):
                j = randint(0, i)
                result.append(pool[j])
                pool[j] = pool[i]
            return result
        taken = set()
        result = []
        for _ in range(k):
            j = randint(0, n - 1)
            while j in taken:
                j = randint(0, n - 1)
            taken.add(j)
            result.append(population[j])
        return result


# ------------------------------------------------------------------ lemmas

def suite_lemmas():
    return [
        Check("binomial parity rule, n < 64",
              all(indexes.lucas_binom_mod2(n, k) == math.comb(n, k) % 2
                  for n in range(64) for k in range(n + 1))),
        Check("Pi at powers of two collapses to Y^(2^q), "
              f"q <= {indexes.POWERS_OF_TWO_Q}",
              indexes.capital_pi_powers_of_two_hold()),
        *(Check(f"A_(2^{q}) inside B_(2^{q + 1}-1)",
                bounds.verify_inclusion_power_case(q)) for q in range(1, 5)),
        Check("inclusion step A_j->A_(j+1), j <= 12, d <= 24",
              bounds.verify_inclusion_steps(12, 24)),
        Check("membership transfer in F2[a,c], d <= 20, j <= 10",
              all(bounds.verify_membership_transfer(d, j)
                  for j in range(1, 11) for d in range(1, 21))),
    ]


# ----------------------------------------------------------------- diagram

def suite_diagram():
    """Rewrite confluence, the restriction diagrams and the reduction cube,
    and two sampled checks whose statements hold in every degree:

    - normal form is idempotent: `normal_form` stops rewriting only when
      no rule pattern divides a monomial, and reducing coefficients
      modulo each monomial's order creates no monomial, so a second pass
      changes nothing;
    - homomorphisms are multiplicative: `RingHom._validate` checks at
      construction that each generator image kills the generator's
      torsion and that every relation is respected, so a map applied
      monomial-wise to normal forms is a ring map; construction refuses
      rules that are not confluent, so normal forms are well defined.
    """
    from .homs import (F2_DIAGRAM, MOD2_REDUCTION, Z_DIAGRAM,
                       check_reduction_cube, restriction)
    checks = []
    for ring in (*CATALOG.values(), YW_F2):
        checks.append(Check(f"rewrite confluence in {ring.name}",
                            ring.check_confluence()))

    draws = Draws(97)
    ok = True
    for ring in CATALOG.values():
        raw = {n: ring.all_exponents(n) for n in range(1, 11)}
        for _ in range(1000):
            once = ring.normal_form(_raw_terms(raw, draws))
            ok = ok and ring.normal_form(once) == once
    checks.append(Check("normal form is idempotent, 1000 samples per ring", ok))

    for diagram in (F2_DIAGRAM, Z_DIAGRAM):
        results = diagram.check_commutativity()
        ok = all(flag for _, flag in results)
        checks.append(Check(
            f"{diagram.coeff} diagram: {len(results)} route comparisons "
            "have equal generator images", ok))

    cube = check_reduction_cube()
    checks.append(Check("mod-2 reduction cube commutes", all(f for _, f in cube)))

    fixed = {("K1", "a"): "t1", ("K1", "b"): "t1",
             ("K2", "a"): "0", ("K2", "b"): "t2"}
    ok = all(restriction("H1", node, "F2")(H1_F2.gen(sym))
             == F2_DIAGRAM.rings[node].parse(img)
             for (node, sym), img in fixed.items())
    checks.append(Check("order-2 subgroup images fixed as declared", ok))

    draws = Draws(11)
    ok = True
    all_homs = (list(F2_DIAGRAM.edges.values()) + list(Z_DIAGRAM.edges.values())
                + list(MOD2_REDUCTION.values()))
    for hom in all_homs:
        for _ in range(20):
            p = random_homogeneous(hom.domain, draws.randint(1, 8), draws)
            q = random_homogeneous(hom.domain, draws.randint(1, 8), draws)
            if hom(p * q) != hom(p) * hom(q):
                ok = False
    checks.append(Check("homomorphisms are multiplicative on samples", ok))

    return checks


def _raw_terms(raw, draws):
    """Up to three monomials of one random degree 1..10, read from `raw`
    (degree -> every exponent tuple, normal or not, so that the rewrite
    rules fire), with coefficients 1..3."""
    monos = raw[draws.randint(1, 10)]
    return {m: draws.randint(1, 3) for m in draws.sample(monos, min(3, len(monos)))}


# ----------------------------------------------------------------- indexes

def suite_indexes(max_degree=64):
    cap = max_degree
    chain_cap = min(cap, 30)
    return [
        Check(f"recurrence matches binomial expansion, d <= {cap}",
              indexes.recurrence_matches_binomial(cap)),
        Check("generating function y/(1-y-w) to degree "
              f"{indexes.GENERATING_FUNCTION_DEGREE}",
              indexes.capital_pi_generating_function_holds()),
        Check(f"restriction of pi_d is rho_d, d <= {cap}",
              indexes.pi_restricts_to_rho(cap)),
        Check(f"rho recurrence, d <= {cap}", indexes.rho_recurrence_holds(cap)),
        Check(f"mod-2 reduction of Pi_d is pi_2d, d <= {cap}",
              indexes.capital_pi_reduces_to_pi(cap)),
        Check("join of <w> and <y> is the sphere index <y*w>",
              indexes.join_gives_sphere_index()),
        Check("join scheme gives no mod-2 obstruction, "
              f"j <= {indexes.JOIN_SCHEME_J}", indexes.join_scheme_vanishes("F2")),
        Check("join scheme gives no integral obstruction, "
              f"j <= {indexes.JOIN_SCHEME_J}", indexes.join_scheme_vanishes("Z")),
        Check(f"full-index restriction images, d <= {indexes.FULL_IMAGES_DEGREE}",
              indexes.full_index_restriction_images_hold()),
        Check(f"product index chains shrink as d grows, d <= {chain_cap}",
              bounds.criterion_chains_shrink(chain_cap)),
        Check("sphere index of the 2-plane matches the H1 value",
              indexes.two_plane_sphere_index_matches_h1()),
    ]


# ------------------------------------------------------------------ oracle

def random_homogeneous(ring, degree, rng, max_terms=3):
    """Random homogeneous element of the given degree, zero only when the
    degree piece vanishes.  The monomials are the basis of the degree's
    slice, `graded_slice(ring, degree)`, kept with the slices the oracle
    then decides on, and are normal already, so one `normal_form`
    reduces the drawn coefficients."""
    monos = graded_slice(ring, degree).basis
    if not monos:
        return ring.zero()
    count = rng.randint(1, min(max_terms, len(monos)))
    chosen = rng.sample(monos, count)
    hi = 1 if ring.coeff == "F2" else 3
    terms = ring.normal_form({m: rng.randint(1, hi) for m in chosen})
    return RingElement(ring, terms or {chosen[0]: 1})


def _random_instance(ring, rng, max_degree, slice_cap):
    """A membership instance (gens, f) whose slice stays below the cap,
    with the spanning set `graded_ideal_slice(gens, f.degree())` it was
    drawn from: (gens, f, span)."""
    while True:
        degree = rng.randint(2, max_degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            gdeg = rng.randint(1, degree)
            g = random_homogeneous(ring, gdeg, rng, max_terms=2)
            if g:
                gens.append(g)
        slice_elems = graded_ideal_slice(gens, degree)
        while len(slice_elems) > slice_cap and gens:
            gens.pop()
            slice_elems = graded_ideal_slice(gens, degree)
        if rng.random() < 0.5 and slice_elems:
            # f = sum of c * e, summed as raw terms and normalised once
            terms = {}
            hi = 1 if ring.coeff == "F2" else 3
            for e in rng.sample(slice_elems, rng.randint(1, len(slice_elems))):
                c = rng.randint(1, hi)
                for mono, ec in e.terms.items():
                    terms[mono] = terms.get(mono, 0) + c * ec
            f = RingElement(ring, ring.normal_form(terms)) or slice_elems[0]
        else:
            f = random_homogeneous(ring, degree, rng)
        if f:
            return gens, f, slice_elems


# random membership instances per catalog ring
ORACLE_INSTANCES = 500


def suite_oracle():
    """Membership against enumeration on `ORACLE_INSTANCES` random
    instances per catalog ring.  Each instance is enumerated over its
    builder's span as soon as it is drawn, then decided by
    `ideal_contains`, and dropped."""
    checks = []
    draws = Draws(1789)
    for ring in CATALOG.values():
        if ring.coeff == "F2":
            deg_cap, slice_cap = 8, 15
        else:
            deg_cap, slice_cap = 10, 8
        mismatches = 0
        for _ in range(ORACLE_INSTANCES):
            gens, f, span = _random_instance(ring, draws, deg_cap, slice_cap)
            enumerated = span_contains_by_enumeration(span, f)
            mismatches += ideal_contains(gens, f) != enumerated
        checks.append(Check(
            f"membership matches enumeration on {ORACLE_INSTANCES} instances "
            f"in {ring.name}",
            mismatches == 0, detail=f"{mismatches} mismatches"))
    return checks


_SUITES = {
    "lemmas": suite_lemmas,
    "diagram": suite_diagram,
    "indexes": suite_indexes,
    "oracle": suite_oracle,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, max_degree=None):
    """Run one named suite, or all of them.  `max_degree` sets the range
    of the `indexes` suite; the other suites sweep fixed ranges."""
    if name == "all":
        out = []
        for key in SUITE_NAMES:
            out.extend(run_suite(key, max_degree))
        return out
    try:
        suite = _SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}") from None
    if name == "indexes" and max_degree is not None:
        return suite(max_degree)
    return suite()
