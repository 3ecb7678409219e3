"""Homogeneous ideal membership and inclusion, decided degree by degree.

Every ideal handled here is homogeneous and every graded piece of every
ring is a finite abelian group, so membership is exact linear algebra on
the degree slice: Gaussian elimination over F2, and a Z/4 Howell-form
solve for the Z-coefficient rings, where each order-2 basis monomial
contributes an extra relation column 2*e_i.  Every decider encodes its
elements through `encode_columns` over the slice's own index map.
Whether two ideal slices meet only in 0 is one Z/4 count for every
ring: subgroup orders read off Howell forms.

`contains_by_enumeration` is the independent brute-force oracle: it
enumerates all coefficient assignments to the slice elements and never
touches the elimination code paths.
"""

from .linalg import gf2_in_span, howell_solve, z4_log2_order
from .rings import GradedSlice, RingMismatchError

__all__ = [
    "GradedSlice",
    "graded_ideal_slice",
    "ideal_contains",
    "ideal_subset",
    "contains_by_enumeration",
    "slice_intersection_is_zero",
    "element_bitmask",
    "element_coeffs",
    "encode_columns",
]


def _check_homogeneous(elems):
    for e in elems:
        if not e.is_homogeneous():
            raise ValueError(f"inhomogeneous element {e}")


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
    products are dropped."""
    _check_homogeneous(gens)
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
            prod = ring.element({tuple(a + b for a, b in zip(mono, t)): c
                                 for t, c in terms})
            if prod:
                out.append(prod)
    return out


def element_bitmask(e, slice_):
    """Coordinates of an F2 element over the slice basis, as a bitmask."""
    index = slice_.index
    v = 0
    for mono in e.terms:
        v |= 1 << index[mono]
    return v


def element_coeffs(e, slice_):
    """Coordinates of a Z-ring element over the slice basis."""
    index = slice_.index
    v = [0] * len(slice_.basis)
    for mono, c in e.terms.items():
        v[index[mono]] = c
    return v


def encode_columns(elems, slice_, f2):
    """Solver columns of the elements over the slice: bitmasks when `f2`,
    else coefficient lists (without the slice's relation columns)."""
    encode = element_bitmask if f2 else element_coeffs
    return [encode(e, slice_) for e in elems]


def _membership_instance(gens, f):
    """Shared prelude of the membership deciders: checks the inputs and
    encodes the span of <gens> and the target f over the slice of f.
    Returns (slice, f2, span columns, target column), or None when f = 0
    (0 lies in every ideal)."""
    _check_homogeneous(list(gens) + [f])
    _common_ring(list(gens) + [f])
    if not f:
        return None
    degree = f.degree()
    if degree == 0:
        raise ValueError("membership is defined for positive-degree elements")
    slice_ = f.ring.graded_slice(degree)
    f2 = f.ring.coeff == "F2"
    cols = encode_columns(graded_ideal_slice(gens, degree), slice_, f2)
    return slice_, f2, cols, encode_columns([f], slice_, f2)[0]


def ideal_contains(gens, f):
    """True iff the homogeneous element f lies in the ideal <gens>."""
    instance = _membership_instance(gens, f)
    if instance is None:
        return True
    slice_, f2, cols, target = instance
    if f2:
        return gf2_in_span(cols, target)
    return howell_solve(cols + slice_.relation_columns(), target)


def ideal_subset(a_gens, b_gens):
    """True iff <a_gens> is contained in <b_gens>."""
    return all(ideal_contains(b_gens, g) for g in a_gens)


def contains_by_enumeration(gens, f):
    """Brute-force membership oracle.

    Builds the set of all achievable sums over every coefficient
    assignment to the slice elements (all of F2^n, respectively all of
    (Z/4)^n pushed into the quotient group) and looks the target up.
    """
    instance = _membership_instance(gens, f)
    if instance is None:
        return True
    slice_, f2, cols, target = instance
    if f2:
        sums = {0}
        for v in cols:
            sums |= {s ^ v for s in sums}
        return target in sums

    orders = slice_.orders

    def canon(vec):
        return tuple(c % o for c, o in zip(vec, orders))

    sums = {canon([0] * len(orders))}
    for v in cols:
        new = set(sums)
        for s in sums:
            for c in (1, 2, 3):
                new.add(canon([a + c * b for a, b in zip(s, v)]))
        sums = new
    return canon(target) in sums


def slice_intersection_is_zero(a_gens, b_gens, degree):
    """True iff the degree pieces A, B of <a_gens>, <b_gens> meet only in 0.

    Counts subgroup orders in the slice modulo its relation columns R:
    A and B meet only in 0 iff |A|*|B| = |A+B|.  Orders are taken as
    |A| = |A+R|/|R|, and R (independent columns 2*e_i, one for every
    coordinate of an F2 slice) has log2-order len(R).
    """
    _common_ring(list(a_gens) + list(b_gens))
    span_a = graded_ideal_slice(a_gens, degree)
    span_b = graded_ideal_slice(b_gens, degree)
    if not span_a or not span_b:
        return True
    slice_ = span_a[0].ring.graded_slice(degree)
    rel = slice_.relation_columns()
    cols_a = encode_columns(span_a, slice_, False)
    cols_b = encode_columns(span_b, slice_, False)
    return (z4_log2_order(cols_a + rel) + z4_log2_order(cols_b + rel)
            == z4_log2_order(cols_a + cols_b + rel) + len(rel))
