"""Homogeneous ideal membership and inclusion, decided degree by degree.

Every ideal handled here is homogeneous and every graded piece of every
ring is a finite group (+) Z/o_i with o_i in {2, 4} (an F2 slice is the
case where every o_i is 2), so membership is exact linear algebra on the
degree slice.  `element_vector` is the one encoder: it packs an element
over the slice's own index map as two bitplanes (lo, hi), with `hi`
masked to the slice's order-4 coordinates (`GradedSlice.mask4`).  The
deciders span an ideal slice with `ideal_slice_vectors`, which builds
those packed vectors of the products m * g directly from monomial keys
and the slice's memo of single-monomial normal forms, with no
`RingElement` product.  Every decider, for every ring, hands the vectors
to one Howell basis (`linalg.howell_basis`): membership is a reduction
against it, and whether two ideal slices meet only in 0 is a count of
subgroup orders.

`contains_by_enumeration` is the independent brute-force oracle: it
spans the slice in `RingElement` arithmetic (`graded_ideal_slice`) and
hands the span to `span_contains_by_enumeration`, which enumerates
every sum of multiples of the slice elements with its own bitplane
addition and never touches the elimination code paths.  A caller that
has already spanned an instance in ring arithmetic passes that span to
`span_contains_by_enumeration` itself.
"""

from operator import add, lshift

from .linalg import z4_in_span, z4_log2_order
from .rings import GradedSlice, RingElement, RingMismatchError

__all__ = [
    "GradedSlice",
    "graded_ideal_slice",
    "ideal_slice_vectors",
    "ideal_contains",
    "ideal_subset",
    "contains_by_enumeration",
    "span_contains_by_enumeration",
    "slice_intersection_is_zero",
    "element_vector",
    "vector_element",
]


def _common_ring(elems):
    rings = {e.ring for e in elems}
    if len(rings) > 1:
        raise RingMismatchError("elements from different rings")
    return rings.pop() if rings else None


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
        for mono in ring.monomials(mdeg):
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
    of their keys.  The vector of m * g is then the Z/4 sum of
    c * slice_.memo[key(m) + key(t)] over the terms c * t of g, added in
    bitplanes; masking `hi` with `mask4` reduces every coefficient modulo
    its own monomial's order.  A raw monomial's normal form is computed
    once per slice, on its first use.  Zero products are dropped; an
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
        for mono in ring.monomials(mdeg):
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
            hi &= mask4
            if lo or hi:
                out.append((lo, hi))
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


def vector_element(vector, slice_, ring):
    """The element of `ring` that `element_vector` packs as `vector`."""
    lo, hi = vector
    return ring.element({m: (lo >> i & 1) + 2 * (hi >> i & 1)
                         for m, i in slice_.index.items()})


def _membership_instance(gens, f):
    """Shared prelude of the membership deciders: checks the inputs and
    encodes the target f over the slice of f.  Returns (slice, target
    vector), or None when f = 0 (0 lies in every ideal).  Each decider
    spans the slice of <gens> its own way; reading each generator's
    degree there rejects an inhomogeneous one, so only f = 0 checks the
    generators here."""
    _common_ring(list(gens) + [f])
    if not f:
        for g in gens:
            g.degree()  # raises ValueError on an inhomogeneous generator
        return None
    degree = f.degree()
    if degree == 0:
        raise ValueError("membership is defined for positive-degree elements")
    slice_ = f.ring.graded_slice(degree)
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


def contains_by_enumeration(gens, f):
    """Brute-force membership oracle.

    Spans the slice in `RingElement` arithmetic (`graded_ideal_slice`),
    not by `ideal_slice_vectors`, so it also checks span generation, and
    enumerates that span with `span_contains_by_enumeration`.
    """
    if _membership_instance(gens, f) is None:
        return True
    return span_contains_by_enumeration(graded_ideal_slice(gens, f.degree()), f)


def span_contains_by_enumeration(span, f):
    """True iff f is a sum of multiples of the elements of `span`.

    f is a nonzero homogeneous element of positive degree and `span` a
    list of elements of f's ring and degree, such as the spanning set
    `graded_ideal_slice` gives.  Builds the set of every sum of multiples
    of the span elements, each packed vector v contributing its distinct
    nonzero multiples among v, 2v, 3v (over F2 only v itself), and looks
    the target up.
    """
    _common_ring(list(span) + [f])
    slice_ = f.ring.graded_slice(f.degree())
    target = element_vector(f, slice_)
    vectors = [element_vector(e, slice_) for e in span]
    mask4 = slice_.mask4

    def plus(a, b):
        return a[0] ^ b[0], (a[1] ^ b[1] ^ (a[0] & b[0])) & mask4

    sums = {(0, 0)}
    for v in vectors:
        multiples = {v, (0, v[0] & mask4), plus(v, (0, v[0] & mask4))} - {(0, 0)}
        sums |= {plus(s, m) for s in sums for m in multiples}
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
    slice_ = ring.graded_slice(degree)
    vec_a = ideal_slice_vectors(a_gens, slice_)
    vec_b = ideal_slice_vectors(b_gens, slice_)
    if not vec_a or not vec_b:
        return True
    mask4 = slice_.mask4
    return (z4_log2_order(vec_a, mask4) + z4_log2_order(vec_b, mask4)
            == z4_log2_order(vec_a + vec_b, mask4))
