"""Homogeneous ideal membership and inclusion, decided degree by degree.

Every ideal handled here is homogeneous and every graded piece of every
ring is a finite group (+) Z/o_i with o_i in {2, 4} (an F2 slice is the
case where every o_i is 2), so membership is exact linear algebra on the
degree slice, a `GradedSlice`, of which `graded_slice` keeps the most
recently used few; its `basis` is the one cached monomial list.
`element_vector`, the one encoder, packs an element over its bit map
`index` as two bitplanes (lo, hi), with `hi` masked by its order-4
mask `mask4`.  The deciders span an ideal slice with
`ideal_slice_vectors`, which builds those packed vectors of the products
m * g directly from monomial keys and the slice's memo of
single-monomial normal forms, with no `RingElement` product; in a
strand ring (`RingPresentation.strand`), as every criterion ring is,
those of one generator are the shifts of one vector.  Every
decider, for every ring, hands the vectors to one Howell basis
(`linalg.howell_basis`): membership is a reduction against it, and
whether two ideal slices meet only in 0 is a count of subgroup orders.

Every membership answer, decider or oracle, starts with one prelude
(`_membership_instance`): it checks the inputs, answers f = 0, and
encodes the target.  `span_contains_by_enumeration` is the independent
brute-force oracle: it takes a span made in `RingElement` arithmetic,
such as `graded_ideal_slice` gives, and closes the sums of multiples
of the span under its own bitplane addition until the target appears
or the span is used up, and never touches the elimination code paths.
"""

from functools import lru_cache
from operator import add, lshift

from .linalg import z4_in_span, z4_log2_order
from .rings import RingElement, RingMismatchError

__all__ = [
    "GradedSlice",
    "graded_slice",
    "graded_ideal_slice",
    "ideal_slice_vectors",
    "ideal_contains",
    "ideal_subset",
    "span_contains_by_enumeration",
    "slice_intersection_is_zero",
    "element_vector",
]


def _common_ring(elems):
    """The ring of a sequence of elements, None when it is empty; raises
    RingMismatchError when two differ.  Elements almost always share one
    ring object, so identity is tested before structural equality."""
    ring = elems[0].ring if elems else None
    for e in elems:
        if e.ring is not ring and e.ring != ring:
            raise RingMismatchError("elements from different rings")
    return ring


class GradedSlice:
    """The degree-n piece of a ring: `basis` lists its normal monomials in
    descending lex order, `index` maps each to its bit (the largest on the
    top bit), and the bits of `mask4` are the order-4 monomials.  `memo`,
    filled lazily by `ideal_slice_vectors`, maps a raw degree-n monomial
    packed into one int to the packed vector of its normal form, which
    no generator set changes, so every decision at the degree shares it."""

    __slots__ = ("degree", "basis", "index", "mask4", "memo")

    def __init__(self, ring, degree):
        self.degree = degree
        self.basis = tuple(ring.monomials(degree))
        self.index = {m: i for i, m in enumerate(reversed(self.basis))}
        order = ring.monomial_order
        self.mask4 = sum(1 << i for m, i in self.index.items() if order(m) == 4)
        self.memo = {}

    def __len__(self):
        return len(self.basis)


SLICE_CACHE_SIZE = 16


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def graded_slice(ring, degree):
    """The ring's slice of the degree, kept with its memo among the
    `SLICE_CACHE_SIZE` most recently used (ring, degree) pairs: the
    package's one per-degree cache, whose `basis` every repeated monomial
    list is read from (targets, multiplier degrees outside strand rings,
    random draws), so memory stays bounded and every verdict at one
    degree shares one slice.  The oracle reads at most 11 degrees of one
    ring and one `bound_report` at most 4 pairs, its targets' slices, so
    neither rebuilds a slice it uses."""
    return GradedSlice(ring, degree)


def graded_ideal_slice(gens, degree):
    """Spanning set {m * g} of the degree piece of the ideal <gens>:
    g runs over the generators and m over the normal-form monomials with
    deg(m) + deg(g) = degree.  Each m * g is the shift of g's terms by m
    (distinct terms give distinct shifts), put in normal form once.  Zero
    products are dropped; an inhomogeneous generator raises ValueError
    (`RingElement.degree`)."""
    ring = _common_ring(gens)
    out = []
    for g in gens:
        if not g:
            continue
        mdeg = degree - g.degree()
        if mdeg < 0:
            continue
        terms = g.terms.items()
        for mono in graded_slice(ring, mdeg).basis:
            prod = RingElement(ring, ring.normal_form(
                {tuple(map(add, mono, t)): c for t, c in terms}))
            if prod:
                out.append(prod)
    return out


def ideal_slice_vectors(gens, slice_):
    """Packed vectors of the spanning set `graded_ideal_slice(gens, n)` of
    the degree-n piece of <gens> over `slice_` (degree n), in the same
    order, formed without `RingElement` products.

    A monomial packs into one int with a field of n.bit_length() + 1 bits
    per exponent.  Every exponent of a degree-n product is at most n, so
    no field carries into the next and a product of monomials is the sum
    of their keys.  The raw vector of m * g is then the Z/4 sum of
    c * slice_.memo[key(m) + key(t)] over the terms c * t of g, added in
    bitplanes; masking `hi` with `mask4` reduces every coefficient modulo
    its own monomial's order.  A raw monomial's normal form is computed
    once per slice, on its first use.

    In a strand ring (`RingPresentation.strand`) the multipliers of one
    degree are m0 + k*step, k < K, and the normal form of each m * t
    moves one bit up per step, so the raw vector of m0 * g, shifted
    left by k and masked, is that of the k-th multiplier's product: the
    multiplier degree's slice is never built.  Elsewhere the multipliers
    are read from its `basis`.  Zero products are dropped; an
    inhomogeneous generator raises ValueError (`RingElement.degree`)."""
    ring = _common_ring(gens)
    if ring is None:
        return []
    degree, memo, index, mask4 = (slice_.degree, slice_.memo, slice_.index,
                                  slice_.mask4)
    width = degree.bit_length() + 1
    field = (1 << width) - 1
    shifts = [width * i for i in range(len(ring.gens))]

    def key(mono):
        return sum(map(lshift, mono, shifts))

    def fill(k):
        mono = tuple(k >> s & field for s in shifts)
        i = index.get(mono)  # a normal monomial is one bit
        memo[k] = v = ((1 << i, 0) if i is not None else element_vector(
            RingElement(ring, ring.normal_form({mono: 1})), slice_))
        return v

    out = []
    for g in gens:
        if not g:
            continue
        mdeg = degree - g.degree()
        if mdeg < 0:
            continue
        terms = [(key(t), c & 3) for t, c in g.terms.items() if c & 3]
        strand = ring.strand(mdeg)
        if strand is None:
            monos = graded_slice(ring, mdeg).basis
        else:  # the lowest multiplier only, shifted to each one's bits
            low, count = strand
            monos = (low,) if count else ()
        for mono in monos:
            base = key(mono)
            lo = hi = 0
            for tk, c in terms:
                k = base + tk
                vlo, vhi = memo.get(k) or fill(k)
                if c == 2:
                    vlo, vhi = 0, vlo
                elif c == 3:
                    vhi ^= vlo
                lo, hi = lo ^ vlo, hi ^ vhi ^ (lo & vlo)
            if strand is None:
                hi &= mask4
                if lo or hi:
                    out.append((lo, hi))
            else:
                out += [v for k in range(count - 1, -1, -1)
                        if (v := (lo << k, hi << k & mask4)) != (0, 0)]
    return out


def element_vector(e, slice_):
    """Coefficients of e over the slice, packed as bitplanes (lo, hi): the
    monomial on bit i = slice_.index[m] has coefficient lo_i + 2*hi_i."""
    index = slice_.index
    lo = hi = 0
    for mono, c in e.terms.items():
        i = index[mono]
        lo |= (c & 1) << i
        hi |= (c >> 1 & 1) << i
    return lo, hi & slice_.mask4


def _membership_instance(gens, f):
    """The one prelude of every membership answer: checks the inputs and
    encodes the target f over the slice of f.  Returns (slice, target
    vector), or None when f = 0 (0 lies in every ideal).  `gens` may be
    ideal generators or the elements of a span; each answer spans or
    encodes them over the slice its own way, which rejects an element of
    the wrong degree, so only f = 0 checks their degrees here."""
    _common_ring(list(gens) + [f])
    if not f:
        for g in gens:
            g.degree()  # raises ValueError on an inhomogeneous element
        return None
    degree = f.degree()
    if degree == 0:
        raise ValueError("membership is defined for positive-degree elements")
    slice_ = graded_slice(f.ring, degree)
    return slice_, element_vector(f, slice_)


def ideal_contains(gens, f):
    """True iff the homogeneous element f lies in the ideal <gens>."""
    instance = _membership_instance(gens, f)
    if instance is None:
        return True
    slice_, target = instance
    return z4_in_span(ideal_slice_vectors(gens, slice_), target, slice_.mask4)


def ideal_subset(a_gens, b_gens):
    """True iff <a_gens> is contained in <b_gens>."""
    return all(ideal_contains(b_gens, g) for g in a_gens)


def span_contains_by_enumeration(span, f):
    """True iff f is a sum of multiples of the elements of `span`, a list
    of elements of f's ring and degree such as `graded_ideal_slice`
    gives.  The deciders' prelude checks the inputs, the span in place
    of the generators: f = 0 is always a sum, a nonzero f of degree 0
    raises ValueError (H^0 of a Z ring is Z, not a finite slice), as
    does a span element of another degree or an inhomogeneous one, and
    one of another ring raises RingMismatchError.  The set of every sum,
    packed as bitplanes (lo, hi), grows one span vector v at a time by
    v's distinct nonzero multiples among v, 2v, 3v (over F2 only v).  It
    is always the subgroup the vectors so far generate, so a vector
    already in it is skipped, and the closure stops at the target."""
    instance = _membership_instance(span, f)
    if instance is None:
        return True
    slice_, target = instance
    try:
        vectors = [element_vector(e, slice_) for e in span]
    except KeyError:  # a monomial of another degree has no bit
        raise ValueError(f"span element not of degree {slice_.degree}") from None
    mask4 = slice_.mask4
    sums = {(0, 0)}
    for v in vectors:
        if v in sums:
            continue
        lo, hi = v
        multiples = {v, (0, lo & mask4), (lo, (hi ^ lo) & mask4)} - {(0, 0)}
        sums |= {(slo ^ mlo, (shi ^ mhi ^ (slo & mlo)) & mask4)
                 for slo, shi in sums for mlo, mhi in multiples}
        if target in sums:
            return True
    return target in sums


def slice_intersection_is_zero(a_gens, b_gens, degree):
    """True iff the degree pieces A, B of <a_gens>, <b_gens> meet only in 0,
    that is iff |A|*|B| = |A+B|, with every order read off a Howell basis.
    Defined for degree >= 1; H^0 of a Z ring is Z, not a finite slice."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    ring = _common_ring(list(a_gens) + list(b_gens))
    if ring is None:
        return True
    slice_ = graded_slice(ring, degree)
    vec_a = ideal_slice_vectors(a_gens, slice_)
    vec_b = ideal_slice_vectors(b_gens, slice_)
    if not vec_a or not vec_b:
        return True
    mask4 = slice_.mask4
    return (z4_log2_order(vec_a, mask4) + z4_log2_order(vec_b, mask4)
            == z4_log2_order(vec_a + vec_b, mask4))
