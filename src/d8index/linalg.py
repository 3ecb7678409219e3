"""Exact linear algebra over F2 and over Z/4.

F2 vectors are int bitmasks (bit i = coordinate i), so elimination is
XOR on Python ints.  Z/4 vectors are sequences of ints in {0,1,2,3}.
Solvability over Z/4 cannot use plain Gaussian elimination because 2 is
a zero divisor; instead we compute the Howell form of the row span,
which has the property that every element of the span reduces to zero
against it.  The same form gives the order of the span and, through
tracking coordinates, the kernel of a column matrix.
"""

__all__ = [
    "gf2_basis",
    "gf2_reduce",
    "gf2_in_span",
    "howell_form",
    "howell_solve",
    "z4_log2_order",
    "z4_kernel",
]


# ----------------------------------------------------------------- F2

def gf2_reduce(v, basis):
    """Reduce bitmask v against a triangular basis {lead bit: row}."""
    while v:
        row = basis.get(v.bit_length() - 1)
        if row is None:
            return v
        v ^= row
    return 0


def gf2_basis(vectors):
    basis = {}
    for v in vectors:
        v = gf2_reduce(v, basis)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def gf2_in_span(vectors, target):
    return gf2_reduce(target, gf2_basis(vectors)) == 0


# ---------------------------------------------------------------- Z/4

def howell_form(rows):
    """Howell form of the Z/4 row span of `rows`.

    Returns a list of (leading column, row) pairs with strictly
    increasing leading columns.  Pivot entries are 1 or 2.  When a pivot
    is 2 its annihilator multiple 2*row is fed back into the sweep; this
    is what upgrades plain echelon form to Howell form.
    """
    work = [[v % 4 for v in r] for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    pivots = []
    for col in range(ncols):
        piv = None
        for i, r in enumerate(work):
            if r[col] % 2:
                piv = work.pop(i)
                if piv[col] == 3:
                    piv = [(3 * v) % 4 for v in piv]
                break
        if piv is None:
            for i, r in enumerate(work):
                if r[col]:
                    piv = work.pop(i)
                    break
        if piv is None:
            continue
        rest = []
        for r in work:
            if r[col]:
                if piv[col] == 1:
                    f = r[col]
                    r = [(a - f * b) % 4 for a, b in zip(r, piv)]
                else:  # both entries equal 2
                    r = [(a - b) % 4 for a, b in zip(r, piv)]
            if any(r):
                rest.append(r)
        work = rest
        if piv[col] == 2:
            ann = [(2 * v) % 4 for v in piv]
            if any(ann):
                work.append(ann)
        pivots.append((col, piv))
    return pivots


def _reduce_z4(vec, pivots):
    v = [x % 4 for x in vec]
    for col, row in pivots:
        x = v[col]
        if not x:
            continue
        if row[col] == 1:
            v = [(a - x * b) % 4 for a, b in zip(v, row)]
        else:
            if x % 2:
                return v  # odd entry over a 2-pivot: not reducible
            v = [(a - (x // 2) * b) % 4 for a, b in zip(v, row)]
    return v


def howell_solve(columns, target):
    """True iff `target` is a Z/4-linear combination of `columns`."""
    t = list(target)
    cols = [list(c) for c in columns]
    if any(len(c) != len(t) for c in cols):
        raise ValueError("dimension mismatch")
    return not any(_reduce_z4(t, howell_form(cols)))


def z4_log2_order(columns):
    """log2 of the order of the Z/4 span of `columns`.  Every span
    element is sum c_i*row_i over the Howell rows in exactly one way with
    c_i in Z/4 for a unit pivot and c_i in {0, 1} for a pivot 2."""
    return sum(2 if row[col] == 1 else 1 for col, row in howell_form(columns))


def z4_kernel(columns):
    """Generators of {x : sum_i x_i*columns[i] = 0} over Z/4.

    Augments each column with a tracking coordinate; Howell rows whose
    leading index lies in the tracking block record Z/4 combinations of
    the columns that vanish, and by the Howell property they generate
    every such combination.
    """
    if not columns:
        return []
    m = len(columns[0])
    if any(len(c) != m for c in columns):
        raise ValueError("dimension mismatch")
    p = len(columns)
    rows = []
    for i, c in enumerate(columns):
        track = [0] * p
        track[i] = 1
        rows.append(list(c) + track)
    return [tuple(row[m:]) for col, row in howell_form(rows) if col >= m]
