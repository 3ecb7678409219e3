"""Graded commutative ring presentations with torsion, and their elements.

A ring is presented by generators with degrees, an additive order class
per generator (2, or 4 for the degree-4 class), and monomial rewrite
rules such as x*y -> 0 or M^2 -> W*X + W*Y.  Elements are stored in
normal form: a dict from admissible monomials (exponent tuples) to
coefficients already reduced modulo the monomial's additive order.

Coefficient conventions.  In an F2 ring every coefficient lives mod 2.
In a Z-coefficient ring a positive-degree normal monomial has additive
order 4 when every generator in its support has order class 4, else
order 2; the degree-0 monomial is not reduced at all (H^0 = Z).

The module ends with the catalog of the cohomology rings of D8 and its
subgroups, for both coefficient systems, keyed by stable identifiers.
It is algebra only and keeps no per-degree state: packed degree slices,
and the one cache of monomial lists, live in `poly`.
"""

import re
import sys
from operator import add, mul, sub

__all__ = [
    "RingMismatchError",
    "ElementParseError",
    "RingPresentation",
    "RingElement",
    "CATALOG",
    "get_ring",
    "YW_F2",
]

class RingMismatchError(ValueError):
    """Operands belong to different ring presentations."""


class ElementParseError(ValueError):
    """Text does not match the element grammar of the target ring."""


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def _parse_int(digits, factor):
    """int(digits); past the interpreter's int-conversion digit limit, a
    parse error of the factor."""
    try:
        return int(digits)
    except ValueError:
        raise ElementParseError(f"integer too long in factor {factor[:20]!r}...") from None


class RingPresentation:
    """A graded commutative ring given by generators and rewrite rules.

    relations: iterable of (pattern, replacement) pairs.  `pattern` is a
    monomial exponent tuple; any monomial divisible by it rewrites to
    (monomial/pattern) * replacement, where `replacement` maps monomials
    to integer coefficients.  Construction rejects a unit pattern, and a
    replacement monomial of another degree than its pattern.  It also
    rejects a rule set unless one lexicographic direction orients every
    rule: every replacement monomial lex-above its pattern, or every one
    lex-below.  Rewriting then moves each monomial strictly one way
    within its degree, which holds finitely many monomials, so it
    terminates.  The test is sufficient, not necessary: a terminating
    rule set that neither direction orients is refused too.  A
    replacement divisible by its pattern is the pattern itself (the
    degrees agree) and is refused as unoriented.  In a Z ring
    construction also rejects a replacement term c*m that the pattern's
    additive order o does not kill (o*c not 0 modulo the order of m),
    judged from the order classes alone, without rewriting.  Last, it
    rejects a rule set that `check_confluence` rejects: no normal form
    depends on the order the rules are listed in.

    Construction compiles what `normal_form` needs for every monomial:
    each rule's pattern support as (index, exponent) pairs, the indices
    of the order-2 generators, which fix a monomial's order class, and
    the structural hash.  It also decides from the rules whether the
    ring is a strand ring (`strand`).
    """

    def __init__(self, name, coeff, gens, degrees, orders=None,
                 relations=()):
        if coeff not in ("F2", "Z"):
            raise ValueError(f"unknown coefficient system {coeff!r}")
        self.name = name
        self.coeff = coeff
        self.gens = tuple(gens)
        self.degrees = tuple(degrees)
        self.orders = tuple(orders) if orders is not None else (2,) * len(self.gens)
        if not (len(self.gens) == len(self.degrees) == len(self.orders)):
            raise ValueError("generator/degree/order length mismatch")
        for d in self.degrees:
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"generator degree {d!r} is not an integer >= 1")
        for o in self.orders:
            if o not in (2, 4):
                raise ValueError(f"generator order {o!r} is not 2 or 4")
        self.relations = tuple(
            (self._exponents(pat),
             tuple(sorted((self._exponents(m), int(c)) for m, c in dict(rep).items())))
            for pat, rep in relations
        )
        # a rule is (support, pattern, replacement): support lists the
        # (index, exponent) pairs of the pattern's nonzero exponents
        self._rules = tuple(
            (tuple((i, p) for i, p in enumerate(pat) if p), pat, rep)
            for pat, rep in self.relations)
        # a positive-degree Z monomial has order 2 iff one of these divides it
        self._order2 = tuple(i for i, o in enumerate(self.orders) if o == 2)
        for support, pat, rep in self._rules:
            if not support:
                raise ValueError("relation pattern is the unit monomial")
            order = self.monomial_order(pat)
            for mono, c in rep:
                if self.monomial_degree(mono) != self.monomial_degree(pat):
                    raise ValueError(f"relation {pat!r} -> {mono!r} changes degree")
                if order * c % self.monomial_order(mono):
                    raise ValueError(f"relation {pat!r} -> {mono!r}: order {order} "
                                     f"of the pattern does not kill {c}*{mono!r}")
        # +1 for a replacement monomial lex-above its pattern, -1 below
        directions = {(mono > pat) - (mono < pat)
                      for _, pat, rep in self._rules for mono, _ in rep}
        if 0 in directions or len(directions) > 1:
            raise ValueError("no lexicographic direction orients every relation: "
                             "rewriting may not terminate")
        if not self.check_confluence():
            raise ValueError("the relations are not confluent: rule order would matter")
        self._symbols = {s: i for i, s in enumerate(self.gens)}
        # factors print in descending generator degree, ties by position
        self._print_order = sorted(range(len(self.gens)),
                                   key=lambda i: (-self.degrees[i], i))
        # equality is structural: the name is only a catalog label
        self._key = (self.coeff, self.gens, self.degrees, self.orders,
                     self.relations)
        self._hash = hash(self._key)
        self._strand = self._strand_shape()

    def __eq__(self, other):
        return self is other or (isinstance(other, RingPresentation)
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingPresentation({self.name})"

    # -- monomial helpers ------------------------------------------------

    def _exponents(self, mono):
        """`mono` as an exponent tuple, checked to be len(gens) ints >= 0."""
        mono = tuple(mono)
        if len(mono) != len(self.gens) or not all(
                isinstance(e, int) and e >= 0 for e in mono):
            raise ValueError(f"exponent tuple {mono!r} is not {len(self.gens)} "
                             "integers >= 0")
        return mono

    def monomial_degree(self, mono):
        return sum(map(mul, mono, self.degrees))

    def monomial_order(self, mono):
        """Additive order of a normal monomial: 2, 4, or 0 for 'free'."""
        if self.coeff == "F2":
            return 2
        if not any(mono):
            return 0
        return 2 if any(map(mono.__getitem__, self._order2)) else 4

    def is_normal_monomial(self, mono):
        """No rule pattern divides the monomial."""
        for support, _, _ in self._rules:
            for i, p in support:
                if mono[i] < p:
                    break
            else:
                return False
        return True

    @staticmethod
    def _rewrite(mono, coeff, pat, rep):
        """One rewrite step of coeff * mono by the rule (pat, rep), pat
        dividing mono: the raw terms of coeff * (mono/pat) * rep."""
        rest = tuple(map(sub, mono, pat))
        return [(tuple(map(add, rest, rmono)), coeff * rcoeff)
                for rmono, rcoeff in rep]

    def normal_form(self, terms):
        """Rewrite a raw {monomial: int} dict to normal form.

        The first rule whose pattern divides a monomial rewrites it, until
        none does (the rules are oriented one lexicographic way, so this
        terminates); a ring without rules skips the loop.  Each round of
        rewriting adds up equal monomials, mod 4 (they have positive
        degree), so a two-term rule fans eta^(2k) out to k + 1, not 2^k.
        Then coefficients are reduced modulo each monomial's additive
        order: `& 1` in an F2 ring; in a Z ring `& 1` when an order-2
        generator divides the monomial, else `& 3`, and not at all at
        degree 0.
        """
        rules = self._rules
        if rules:
            out = {}
            while terms:
                pending, terms = terms, {}
                for mono, coeff in pending.items():
                    if not coeff:
                        continue
                    for support, pat, rep in rules:
                        for i, p in support:  # does pat divide mono?
                            if mono[i] < p:
                                break
                        else:
                            for m, c in self._rewrite(mono, coeff, pat, rep):
                                terms[m] = (terms.get(m, 0) + c) & 3
                            break
                    else:
                        out[mono] = out.get(mono, 0) + coeff
        else:
            out = terms
        if self.coeff == "F2":
            return {mono: 1 for mono, c in out.items() if c & 1}
        order2 = self._order2
        return {mono: r for mono, c in out.items()
                if (r := c & 1 if any(map(mono.__getitem__, order2))
                    else c & 3 if any(mono) else c)}

    def check_confluence(self):
        """Rewriting reaches the same normal form whichever matching rule
        fires first, in every degree: the lcm of each pair of patterns,
        rewritten once by each rule (rep's monomials are distinct, so are
        their shifts), has one normal form.  Rewriting terminates (the lex
        orientation is checked at construction), one rule rewrites a
        monomial in one way only, and two rules that both match a monomial
        match it as a monomial multiple of their lcm, so joinability at
        the lcm carries to every multiple and Newman's lemma gives
        confluence (Baader-Nipkow, Term Rewriting and All That, 1998).
        Construction refuses a rule set this rejects, after the torsion check."""
        for k, (_, pat, rep) in enumerate(self._rules):
            for _, pat2, rep2 in self._rules[k + 1:]:
                lcm = tuple(map(max, pat, pat2))
                if (self.normal_form(dict(self._rewrite(lcm, 1, pat, rep)))
                        != self.normal_form(dict(self._rewrite(lcm, 1, pat2, rep2)))):
                    return False
        return True

    def _exponent_walk(self, degree, staircase):
        """Exponent tuples of the degree in ascending lexicographic order:
        every one, or with `staircase` only the normal ones.  The last
        exponent is solved from the remaining degree, not looped over.
        On the staircase, the loop over exponent i stops at the first
        value that completes a rule pattern whose later entries are all
        0, since every completion is then divisible by that pattern; a
        finished tuple is checked with `is_normal_monomial` for the
        patterns that reach the last generator."""
        degrees = self.degrees
        if not degrees or degree < 0:
            return [()] if degree == 0 else []
        last = len(degrees) - 1
        # closing[i]: the patterns whose last nonzero entry is i < last
        closing = [[] for _ in degrees]
        if staircase:
            for support, pat, _ in self._rules:
                i = support[-1][0]
                if i < last:
                    closing[i].append(pat)
        result = []

        def rec(i, remaining, prefix):
            d = degrees[i]
            if i == last:
                if remaining % d == 0:
                    mono = prefix + (remaining // d,)
                    if not staircase or self.is_normal_monomial(mono):
                        result.append(mono)
                return
            top = remaining // d
            for pat in closing[i]:
                if all(e >= p for e, p in zip(prefix, pat)):
                    top = min(top, pat[i] - 1)
            for e in range(top + 1):
                rec(i + 1, remaining - e * d, prefix + (e,))

        rec(0, degree, ())
        return result

    def _strand_shape(self):
        """What `strand` reads, or None unless the ring is a strand ring:
        exactly two free generators u before v (in no rule pattern), h =
        deg(u) dividing deg(v), and at most one rule g_i^p -> r, r one
        monomial with coefficient 1, whose e*deg(g_i) for e < p are
        distinct modulo h (which keeps g_i out of r).  This is the shape
        of every criterion ring: F2[y,w], the bound ring and F2[a,b].  A
        normal monomial of degree n is then u^x v^y g_i^e with e fixed by
        n modulo h and x + c*y fixed, c = deg(v)/h.  The shape: h; by
        residue modulo h, g_i^e and its degree, or None; u; v; c."""
        rules, degs = self._rules, self.degrees
        free = [k for k in range(len(degs))
                if all(pat[k] == 0 for _, pat, _ in rules)]
        if len(free) != 2 or len(rules) > 1 or degs[free[1]] % degs[free[0]]:
            return None
        i, p = 0, 1  # without a rule, e = 0 only
        if rules:
            [(support, _, rep)] = rules
            if len(support) > 1 or len(rep) != 1 or rep[0][1] != 1:
                return None
            [(i, p)] = support
        u, v = free
        h = degs[u]
        starts = [None] * h
        for e in range(p):
            if starts[e * degs[i] % h] is not None:
                return None
            starts[e * degs[i] % h] = (
                tuple(e if k == i else 0 for k in range(len(degs))), e * degs[i])
        return h, starts, u, v, degs[v] // h

    def strand(self, degree):
        """(m0, count) for a strand ring, else None: the normal monomials
        of the degree are m0 + k*step, k < count, in ascending lex order
        ((None, 0) when there are none), found by exponent arithmetic:
        with n = (degree - deg(g_i^e))/h, m0 has x = n mod c and y = n
        div c, and count is y + 1.  The step, x += c and y -= 1, is the
        same at every degree, so the normal form of m*t moves one step
        when m does."""
        shape = self._strand
        if shape is None:
            return None
        h, starts, u, v, c = shape
        start = starts[degree % h]
        if start is None or degree < start[1]:
            return None, 0
        mono = list(start[0])
        mono[v], mono[u] = divmod((degree - start[1]) // h, c)
        return tuple(mono), mono[v] + 1

    def all_exponents(self, degree):
        """Every exponent tuple of the given degree, normal or not, in
        ascending lexicographic order."""
        return self._exponent_walk(degree, staircase=False)

    def monomials(self, degree):
        """Normal-form monomials of the degree (the staircase: those no
        rule pattern divides), in descending lex order, listed afresh on
        every call: the ring keeps no per-degree state, and a caller that
        asks for one degree again reads `poly.graded_slice(ring,
        degree).basis`, the same list as a tuple.  A strand ring steps
        along `strand`'s progression, x += c and y -= 1 from m0; any
        other ring walks the staircase."""
        strand = self.strand(degree)
        if strand is None:
            return self._exponent_walk(degree, staircase=True)[::-1]
        low, count = strand
        if not count:
            return []
        _, _, u, v, c = self._strand
        mono = list(low)
        x, y = low[u], low[v]
        out = []
        for k in range(count - 1, -1, -1):
            mono[u], mono[v] = x + k * c, y - k
            out.append(tuple(mono))
        return out

    # -- element constructors --------------------------------------------

    def element(self, terms):
        """The element of a {monomial: int} dict, each monomial checked
        by `_exponents`, in normal form."""
        return RingElement(self, self.normal_form(
            {self._exponents(m): c for m, c in dict(terms).items()}))

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return self.element({(0,) * len(self.gens): 1})

    def gen(self, symbol):
        i = self._symbols.get(symbol)
        if i is None:
            raise KeyError(f"{self.name} has no generator {symbol!r}")
        mono = [0] * len(self.gens)
        mono[i] = 1
        return self.element({tuple(mono): 1})

    # -- grammar -----------------------------------------------------------

    def parse(self, text):
        """Parse the element grammar: terms joined by `+`, each term a
        `*`-separated product of an optional integer and powers sym^k.
        An integer, or a coefficient of the normal form, too long to
        print (`sys.get_int_max_str_digits`) is an ElementParseError."""
        text = text.strip()
        if not text:
            raise ElementParseError("empty element")
        terms = {}
        for raw_term in text.split("+"):
            raw_term = raw_term.strip()
            if not raw_term:
                raise ElementParseError(f"empty term in {text!r}")
            coeff = 1
            mono = [0] * len(self.gens)
            for factor in raw_term.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ElementParseError(f"empty factor in {raw_term!r}")
                # minus only on integers: the free degree-0 part of a
                # Z-coefficient ring can carry negative values
                if factor.isdecimal() or (factor[0] == "-" and factor[1:].isdecimal()):
                    coeff *= _parse_int(factor, factor)
                    continue
                m = _FACTOR_RE.match(factor)
                if m is None:
                    raise ElementParseError(f"bad factor {factor!r}")
                sym, exp = m.group(1), m.group(2)
                i = self._symbols.get(sym)
                if i is None:
                    raise ElementParseError(f"unknown symbol {sym!r} in {self.name}")
                mono[i] += _parse_int(exp, factor) if exp else 1
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + coeff
        element = self.element(terms)
        # printing refuses an int of more digits than the interpreter's
        # limit (0, or no such function before Python 3.10.7: none), so
        # the parse refuses it; an int of at most 3 * limit bits is
        # below 10^limit, which spares the power
        limit = getattr(sys, "get_int_max_str_digits", int)()
        for c in element.terms.values():
            if limit and c.bit_length() > 3 * limit and abs(c) >= 10 ** limit:
                raise ElementParseError(
                    f"coefficient of more than {limit} digits in {text[:20]!r}...")
        return element

    def format_monomial(self, mono, coeff):
        factors = [self.gens[i] if mono[i] == 1 else f"{self.gens[i]}^{mono[i]}"
                   for i in self._print_order if mono[i]]
        if not factors:
            return str(coeff)
        if coeff != 1:
            factors.insert(0, str(coeff))
        return "*".join(factors)


_UNKNOWN = object()  # the `_degree` of an element not yet asked


class RingElement:
    """Normal-form element of a ring presentation.

    Immutable by convention; `terms` maps normal monomials to nonzero
    coefficients already reduced modulo their additive order.  The
    constructor wraps such terms as they are; `RingPresentation.element`
    checks and normalises raw ones.  `degree()` keeps its value in the
    `_degree` slot, `_UNKNOWN` until first use, which immutability makes
    safe.
    """

    __slots__ = ("ring", "terms", "_degree")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._degree = _UNKNOWN

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Degree of a homogeneous element; None for the zero element.
        Computed once per element; an inhomogeneous element raises
        ValueError on every call."""
        degree = self._degree
        if degree is _UNKNOWN:
            degs = {self.ring.monomial_degree(m) for m in self.terms}
            if len(degs) > 1:
                raise ValueError(f"inhomogeneous element {self}")
            degree = self._degree = degs.pop() if degs else None
        return degree

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"elements of {self.ring.name} and {other.ring.name}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.element({(0,) * len(self.ring.gens): other})
        self._check_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return RingElement(self.ring, self.ring.normal_form(terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, self.ring.normal_form(
                {m: c * other for m, c in self.terms.items()}))
        self._check_ring(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(map(add, m1, m2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return RingElement(self.ring, self.ring.normal_form(terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by repeated squaring, base * base in every ring, the
        result starting at the lowest square self^(2^k) that n needs;
        n = 0 gives `ring.one()`."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.ring.one()
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return "+".join(self.ring.format_monomial(m, self.terms[m])
                        for m in sorted(self.terms, reverse=True)) or "0"

    def __repr__(self):
        return f"<{self.ring.name}: {self}>"


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _f2(name, gens, degrees, relations=()):
    return RingPresentation(name, "F2", gens, degrees, relations=relations)


def _z(name, gens, degrees, orders, relations=()):
    return RingPresentation(name, "Z", gens, degrees, orders=orders,
                            relations=relations)


# mod-2 cohomology of D8 and its subgroups
D8_F2 = _f2("D8_F2", ("x", "y", "w"), (1, 1, 2),
            relations=[((1, 1, 0), {})])
H1_F2 = _f2("H1_F2", ("a", "b"), (1, 1))
H2_F2 = _f2("H2_F2", ("e", "u"), (1, 2),
            relations=[((2, 0), {})])
H3_F2 = _f2("H3_F2", ("c", "d"), (1, 1))
K1_F2 = _f2("K1_F2", ("t1",), (1,))
K2_F2 = _f2("K2_F2", ("t2",), (1,))
K3_F2 = _f2("K3_F2", ("t3",), (1,))
K4_F2 = _f2("K4_F2", ("t4",), (1,))
K5_F2 = _f2("K5_F2", ("t5",), (1,))
Z2xZ2_F2 = _f2("Z2xZ2_F2", ("t1", "t2"), (1, 1))
Z2_F2 = _f2("Z2_F2", ("t",), (1,))

# integral cohomology; all torsion, orders as forced by 2X=2Y=2M=4W=0
D8_Z_FULL = _z("D8_Z_FULL", ("X", "Y", "M", "W"), (2, 2, 3, 4), (2, 2, 2, 4),
               relations=[((1, 1, 0, 0), {}),
                          ((0, 0, 2, 0), {(1, 0, 0, 1): 1, (0, 1, 0, 1): 1})])
D8_Z_BOUND = _z("D8_Z_BOUND", ("Y", "M", "W"), (2, 3, 4), (2, 2, 4),
                relations=[((0, 2, 0), {(1, 0, 1): 1})])
H1_Z = _z("H1_Z", ("alpha", "beta", "mu"), (2, 2, 3), (2, 2, 2),
          relations=[((0, 0, 2), {(2, 1, 0): 1, (1, 2, 0): 1})])
H2_Z = _z("H2_Z", ("U",), (2,), (4,))
H3_Z = _z("H3_Z", ("gamma", "delta", "eta"), (2, 2, 3), (2, 2, 2),
          relations=[((0, 0, 2), {(2, 1, 0): 1, (1, 2, 0): 1})])
K3_Z = _z("K3_Z", ("theta3",), (2,), (2,))
Z2xZ2_Z = _z("Z2xZ2_Z", ("tau1", "tau2", "mu"), (2, 2, 3), (2, 2, 2),
             relations=[((0, 0, 2), {(2, 1, 0): 1, (1, 2, 0): 1})])
Z2_Z = _z("Z2_Z", ("tau",), (2,), (2,))

CATALOG = {r.name: r for r in (
    D8_F2, D8_Z_FULL, D8_Z_BOUND,
    H1_F2, H1_Z, H2_F2, H2_Z, H3_F2, H3_Z,
    K1_F2, K2_F2, K3_F2, K4_F2, K5_F2, K3_Z,
    Z2xZ2_F2, Z2xZ2_Z, Z2_F2, Z2_Z,
)}

# the two-variable polynomial ring where the pi family and the mod-2
# admissibility criterion live; not a group cohomology ring
YW_F2 = _f2("YW_F2", ("y", "w"), (1, 2))


def get_ring(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown ring identifier {name!r}") from None

