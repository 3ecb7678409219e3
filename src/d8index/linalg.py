"""Exact linear algebra in finite groups (+) Z/o_i with every o_i in {2, 4}.

Every graded slice is such a group; an F2 slice is the case where every
o_i is 2.  A vector is packed as two bitplanes (lo, hi): coordinate i
holds lo_i + 2*hi_i, and `hi` is masked to the order-4 coordinates, an
int `mask4`, so every order-2 coordinate reduces mod 2 by itself.  Sums
are bitwise: lo = a.lo ^ b.lo, hi = (a.hi ^ b.hi ^ carry) & mask4.

Since 2 is a zero divisor in Z/4, solvability uses a Howell basis of the
span (Howell, Lin. Multilin. Alg. 19, 1986; Storjohann-Mulders, ESA
1998): a triangular basis against which every element of the span
reduces to zero.  One insertion loop, `_extend`, reduces each vector
and places what is left: `howell_basis` extends an empty basis, and a
target lies in the span iff extending the span's basis by it places no
row.  The order of the span is read off the basis.  With `mask4 == 0`
it is plain F2 elimination on bitmasks.
Every entry point takes packed vectors; callers pack their own.
"""

__all__ = [
    "howell_basis",
    "z4_in_span",
    "z4_log2_order",
]


def _extend(basis, vectors, mask4):
    """Insert `vectors` into the Howell basis {leading coordinate: row}
    in place; True iff a row was placed.

    Each vector is reduced against the basis until it is zero, its
    leading (highest nonzero) coordinate holds no pivot, or it has a
    unit entry over a pivot 2; a nonzero remainder is placed at its
    leading coordinate, its pivot a unit (1 or 3) or 2.  A unit landing
    on a pivot 2 becomes the pivot and the old row is inserted again;
    after a row whose pivot has additive order 2 is placed, its
    annihilator multiple 2*row is inserted too.
    """
    grew = False
    pending = list(vectors)[::-1]
    while pending:
        lo, hi = pending.pop()
        while lo | hi:
            k = (lo | hi).bit_length() - 1
            row = basis.get(k)
            if row is None:
                break
            rlo, rhi = row
            bit = 1 << k
            if rlo & bit and not lo & bit:    # entry 2 over a unit: add 2*row
                hi ^= rlo & mask4
            elif lo & bit and not rlo & bit:  # unit entry over a pivot 2
                break
            else:       # subtract row: a unit minus a unit leaves 0 or 2
                hi = (hi ^ rhi ^ (rlo & ~lo)) & mask4
                lo ^= rlo
        if not lo | hi:
            continue
        grew = True
        k = (lo | hi).bit_length() - 1
        bit = 1 << k
        old = basis.get(k)
        basis[k] = (lo, hi)
        if old is not None:           # a unit replaces a pivot 2: swap
            pending.append(old)
        two = lo & mask4
        if two and not two & bit:     # pivot of additive order 2
            pending.append((0, two))  # annihilator 2*row
    return grew


def howell_basis(vectors, mask4):
    """Howell basis {leading coordinate: row} of the span of `vectors`:
    the empty basis extended by them."""
    basis = {}
    _extend(basis, vectors, mask4)
    return basis


def z4_in_span(vectors, target, mask4):
    """True iff the packed `target` lies in the span of `vectors`: it
    reduces to zero against their Howell basis, which it leaves as it
    was."""
    return not _extend(howell_basis(vectors, mask4), [target], mask4)


def z4_log2_order(vectors, mask4):
    """log2 of the order of the span of `vectors`.  Every span element
    is sum c_k*row_k over the Howell rows in exactly one way, with c_k
    in Z/4 for a unit pivot on an order-4 coordinate and c_k in {0, 1}
    for a pivot of order 2."""
    return sum(2 if (lo & mask4) >> k & 1 else 1
               for k, (lo, _) in howell_basis(vectors, mask4).items())
