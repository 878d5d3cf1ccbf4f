"""Dense row/column reduction of the block that sparse elimination leaves.

intlinalg.smith_normal_form removes every unit pivot it can find on the
sparse entries and hands what remains here.  This kernel pivots on the
entry of least absolute value in the active block, so it also copes
with blocks that hold no +-1 entry at all.
"""


def _min_abs_pivot(m, t, nr, nc):
    # Smallest |entry| in the active submatrix m[t:, t:]; ties go to the
    # lowest (row, col) because the scan is row-major and strict.
    best = 0
    bi = bj = -1
    for i in range(t, nr):
        mi = m[i]
        for j in range(t, nc):
            v = mi[j]
            if v:
                if v < 0:
                    v = -v
                if best == 0 or v < best:
                    best, bi, bj = v, i, j
                    if best == 1:
                        return bi, bj, 1
    return bi, bj, best


def diagonalize(rows):
    """Reduce an integer matrix to diagonal form with unimodular row and
    column operations and return the positive diagonal entries.

    The entries come back in pivot order with no divisibility
    normalization; the caller is expected to sort them into an invariant
    factor chain.  ``rows`` is a dense list of lists and is not modified.
    All arithmetic is exact.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = [list(r) for r in rows]
    diag = []
    t = 0
    while t < nr and t < nc:
        pi, pj, pv = _min_abs_pivot(m, t, nr, nc)
        if pv == 0:
            break
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        mt = m[t]
        if mt[t] < 0:
            mt[t:] = [-x for x in mt[t:]]
        a = mt[t]
        dirty = False
        for i in range(t + 1, nr):
            mi = m[i]
            v = mi[t]
            if not v:
                continue
            q, r = divmod(v, a)
            if q:
                mi[t:] = [x - q * y for x, y in zip(mi[t:], mt[t:])]
            if r:
                dirty = True
        if dirty:
            # The column now holds a remainder smaller than the pivot;
            # rescan so it becomes the next pivot.
            continue
        for j in range(t + 1, nc):
            # The column below the pivot is already clear, so a column
            # shear only changes the pivot row.
            r = mt[j] % a
            if r != mt[j]:
                mt[j] = r
            if r:
                dirty = True
        if dirty:
            continue
        diag.append(a)
        t += 1
    return diag
