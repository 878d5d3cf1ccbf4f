"""Exact integer linear algebra.

Sparse integer matrices held by column, Smith normal form by one sparse
elimination, finitely generated abelian groups in invariant factor
form, and the homology of a chain complex.
A matrix stores ``{col: {row: value}}`` with no empty column and no zero
value, and each stage below reads that layout as it is: the sparse
product and the intake of the elimination.
The complex is reduced once, top down (``homology_of_complex``): each
boundary is first checked to compose to zero with the boundary below,
by that product on every column that the unit pivots of the boundary
above it do not account for, then gets one Smith normal form without
those columns.
Everything here works over arbitrary-precision integers; entry growth
during reduction is expected and must not overflow.
"""

from math import gcd
from operator import index

from .records import Record

#: the one SNF kernel: sparse elimination in pure Python, unit pivots
#: first, then pivots of least absolute value on what they leave
KERNEL_NAME = "python"


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class BoundaryCompositionError(ValueError):
    """A pair of maps that should compose to zero does not."""


class IntegerMatrix:
    """Sparse matrix over the integers, held by column; absent entries
    are zero.

    ``columns`` maps a column index to ``{row: value}`` and holds only
    nonzero columns and nonzero values.  ``entries`` is the same matrix
    keyed by (row, col), derived afresh on each read.

    >>> m = IntegerMatrix(2, 2, {(0, 0): 2, (1, 1): -3})
    >>> m.to_rows()
    [[2, 0], [0, -3]]
    >>> m.columns
    {0: {0: 2}, 1: {1: -3}}
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, entries=None):
        rows = _integer(rows, "row count")
        cols = _integer(cols, "column count")
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative dimensions {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        columns = {}
        if entries:
            for (i, j), v in entries.items():
                try:
                    i, j = index(i), index(j)
                except TypeError:
                    raise TypeError(f"entry index ({i!r}, {j!r}) is not a "
                                    "pair of integers") from None
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeError(f"entry ({i}, {j}) outside {rows}x{cols}")
                try:
                    v = index(v)
                except TypeError:
                    raise TypeError(f"entry ({i}, {j}) = {v!r} is not an "
                                    "integer") from None
                if v:
                    col = columns.get(j)
                    if col is None:
                        columns[j] = {i: v}
                    else:
                        col[i] = v
        self.columns = columns

    @classmethod
    def _unchecked(cls, rows, cols, columns):
        """Wrap columns that are known to be nonempty dicts of nonzero
        integers inside the shape, without checking or copying them;
        only the public constructor validates."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.columns = columns
        return m

    @classmethod
    def from_rows(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(rows, cols, entries)

    @property
    def entries(self):
        """The nonzero entries as a new dict keyed by (row, col)."""
        return {(i, j): v for j, col in self.columns.items()
                for i, v in col.items()}

    def to_rows(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, col in self.columns.items():
            for i, v in col.items():
                dense[i][j] = v
        return dense

    def is_zero(self):
        return not self.columns

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with "
                f"{other.rows}x{other.cols}")
        # column j of the product is the sum of other[k, j] * column k
        mine = self.columns
        columns = {}
        for j, ocol in other.columns.items():
            acc = {}
            for k, b in ocol.items():
                col = mine.get(k)
                if col:
                    for i, a in col.items():
                        acc[i] = acc.get(i, 0) + a * b
            if any(acc.values()):
                columns[j] = {i: v for i, v in acc.items() if v}
        return IntegerMatrix._unchecked(self.rows, other.cols, columns)

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == \
            (other.rows, other.cols, other.columns)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}, {self.cols}, {self.entries!r})"


class SNFResult(Record):
    """Invariant factors d1 | d2 | ... of an integer matrix, ones included.

    The rank of the matrix is the number of factors.  ``smith_normal_form``
    also records what its unit sweep did: ``pivot_rows``, the rows of
    the matrix it was given that hold its unit pivots, in pivot order,
    and ``leftover``, the (rows, cols) shape of the block still nonzero
    after the sweep.  Only the factors are compared and shown.
    """

    __slots__ = ("invariant_factors", "pivot_rows", "leftover")

    def __init__(self, invariant_factors, pivot_rows=(), leftover=(0, 0)):
        d = invariant_factors
        for k, v in enumerate(d):
            if v < 1:
                raise ValueError(f"invariant factor {v} < 1")
            if k and d[k] % d[k - 1]:
                raise ValueError(f"broken divisibility chain {d}")
        self._set(invariant_factors=invariant_factors, pivot_rows=pivot_rows,
                  leftover=leftover)

    def _fields(self):
        # the first slot alone, so the repr shows only it too
        return (self.invariant_factors,)

    @property
    def rank(self):
        return len(self.invariant_factors)


def _divisor_chain(values):
    # diag(a, b) and diag(gcd(a, b), lcm(a, b)) present the same group, so
    # bubbling adjacent pairs sorts the prime valuations into a chain.
    d = sorted(values)
    n = len(d)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = d[i], d[i + 1]
            if b % a:
                g = gcd(a, b)
                d[i], d[i + 1] = g, a // g * b
                changed = True
    return d


def _subtract(rows, cols, i, f, prow):
    # row_i -= f * prow, keeping the column index in step: i joins the
    # line of an entry that appears and leaves that of one that cancels
    row = rows[i]
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            if k not in row:
                cols[k].append(i)
            row[k] = w
        else:
            del row[k]
            cols[k].remove(i)


def smith_normal_form(m, drop_cols=()):
    """Smith normal form of an IntegerMatrix, as an SNFResult.

    The columns of ``m`` listed in ``drop_cols`` are left out: the result
    is that of ``m`` without them, and the shape that decides the
    orientation below is that of the columns left.  A column to drop
    that is not an integer raises TypeError, one outside the matrix
    ShapeError.  One pass over the stored columns reads the lines of
    the elimination, skipping each column to drop where it reads it: a
    copy of the column is a row of a tall matrix's transpose, its row
    list a line of the column index of a wide one.
    Rows are dicts.  Each line of the index is a list of the rows that
    cross it: a row operation appends a row when its entry on the line
    appears and removes it when the entry cancels, so row i is in line
    k exactly when k is in row i.

    The elimination is sparse throughout.  A unit sweep comes first.  It
    takes the lines along the longer side of the matrix: the columns of
    a wide or square matrix, the rows of a tall one, which is eliminated
    as its transpose since SNF(A) = SNF(A^T).  Its free pivots go first
    (the coreduction step of Mrozek and Batko): a row whose only entry
    is +-1 pivots with no row operation, as its column's other entries
    just drop out, and a row this leaves with one entry is taken in the
    next batch; each batch goes in row order.  Then the swept lines go
    in order.  In each, a +-1 entry whose crossing line is shortest
    becomes the pivot, ties to the lowest index.  Operations on the
    crossing lines clear the rest of the swept line; the pivot's row
    and column then drop out with an invariant factor of 1.  Lines
    without a unit entry are left alone.  On sd2(RP2) under a fan of
    two points, the tall top boundary (1620x1080) takes 718 row
    operations this way and 24,450 by columns; the wide one below it
    (543x1620) takes 1,080 by columns and 24,160 by rows.  Neither has
    a row with one entry.  Without the 718 columns that the top
    boundary's unit pivots account for, the wide one makes 302 free
    pivots and 174 row operations, against 1,080 row operations with no
    free pivots.

    The block that is still nonzero after the sweep is reduced in place
    with the same row operation.  Each step pivots on its entry of least
    absolute value, ties to the lowest (row, col), and reduces the
    pivot's column, then its row, modulo the pivot.  A pivot with
    nothing left beside it is an invariant factor up to sign; a
    remainder becomes a smaller pivot.  The result records the rows of
    ``m`` that hold the unit pivots and the shape of the block the sweep
    left.  The later pivots span no +-1 minor and are not recorded.
    ``m`` is not modified.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    SNFResult(invariant_factors=(2, 4))
    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]), [1])
    SNFResult(invariant_factors=(2,))
    """
    drop_cols = tuple(drop_cols)
    try:
        drop = set(map(index, drop_cols))
    except TypeError:
        for j in drop_cols:
            _integer(j, "drop column")
        raise
    if drop:
        low, high = min(drop), max(drop)
        if low < 0 or high >= m.cols:
            raise ShapeError(f"drop column {low if low < 0 else high} "
                             f"outside {m.rows}x{m.cols}")
    # rows and cols name the lines of the matrix that is eliminated: m
    # itself, or m^T when m is tall, whose rows are the columns left
    flip = m.rows > m.cols - len(drop)
    rows = {}
    cols = {}
    for j, col in m.columns.items():
        if j in drop:
            continue
        if flip:
            rows[j] = dict(col)
            for i in col:
                line = cols.get(i)
                if line is None:
                    cols[i] = [j]
                else:
                    line.append(j)
        else:
            cols[j] = list(col)
            for i, v in col.items():
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: v}
                else:
                    row[j] = v
    # the row of m that holds each unit pivot: the column of the pivot
    # in m^T, its row in m
    pivots = []
    # free pivots: a row whose only entry is +-1 clears its column with
    # no arithmetic, and a row it leaves with one entry joins the next
    # batch
    batch = sorted(i for i, row in rows.items() if len(row) == 1)
    while batch:
        exposed = []
        for i in batch:
            row = rows[i]
            if len(row) != 1:
                continue
            (j, v), = row.items()
            if v != 1 and v != -1:
                continue
            del rows[i]
            col = cols.pop(j)
            col.remove(i)
            for k in col:
                other = rows[k]
                del other[j]
                if len(other) == 1:
                    exposed.append(k)
            pivots.append(j if flip else i)
        batch = sorted(exposed)
    for j in sorted(cols):
        col = cols[j]
        pivot = None
        for i in col:
            row = rows[i]
            if row[j] in (1, -1):
                n = len(row)
                if pivot is None or n < best or (n == best and i < pivot):
                    pivot, best = i, n
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        sign = prow.pop(j)
        col.remove(pivot)
        for k in prow:
            cols[k].remove(pivot)
        for i in col:
            # the multiple of prow that zeroes entry (i, j)
            _subtract(rows, cols, i, rows[i].pop(j) * sign, prow)
        del cols[j]
        pivots.append(j if flip else pivot)
    rows = {i: row for i, row in rows.items() if row}
    shape = (len(rows), sum(1 for col in cols.values() if col))
    factors = []
    while rows:
        # the entry of least |value|, in the lowest row that holds one
        best = 0
        for i, row in rows.items():
            v = min(map(abs, row.values()))
            if not best or v < best or (v == best and i < pivot):
                best, pivot = v, i
        prow = rows[pivot]
        j = min(k for k, v in prow.items() if abs(v) == best)
        a = prow[j]
        # a remainder left in column j is the next pivot
        for i in [i for i in cols[j] if i != pivot]:
            _subtract(rows, cols, i, rows[i][j] // a, prow)
            if not rows[i]:
                del rows[i]
        if len(cols[j]) > 1:
            continue
        # column j is clear below the pivot, so a column shear only
        # changes the pivot row
        for k in [k for k in prow if k != j]:
            r = prow[k] % a
            if r:
                prow[k] = r
            else:
                del prow[k]
                cols[k].remove(pivot)
        if len(prow) > 1:
            continue
        factors.append(abs(a))
        del rows[pivot], cols[j]
    return SNFResult(
        (1,) * len(pivots) + tuple(_divisor_chain(factors)),
        tuple(pivots), shape[::-1] if flip else shape)


def _integer(value, name):
    """value as an int, or TypeError naming it when it is not integral:
    a float or a string is not truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


class AbelianGroup:
    """Finitely generated abelian group, free rank plus torsion.

    Torsion is normalized to invariant factor form (each entry >= 2 and
    dividing the next), so descriptor equality is group isomorphism:

    >>> AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))
    True
    >>> AbelianGroup(0, (2, 4)) == AbelianGroup(0, (8,))
    False
    >>> str(AbelianGroup(1, (2, 4)))
    'Z + Z/2 + Z/4'
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        free_rank = _integer(free_rank, "free rank")
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        self.free_rank = free_rank
        # most groups a run makes are free: no factor to check or chain
        if isinstance(torsion, (tuple, list)) and not torsion:
            self.torsion = ()
            return
        factors = [_integer(d, "torsion factor") for d in torsion]
        for d in factors:
            if d < 1:
                raise ValueError(f"torsion factor {d} < 1")
        self.torsion = tuple(d for d in _divisor_chain(factors) if d > 1)

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return (self.free_rank, self.torsion) == \
            (other.free_rank, other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __add__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return AbelianGroup(self.free_rank + other.free_rank,
                            self.torsion + other.torsion)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative multiplicity")
        return AbelianGroup(self.free_rank * k, self.torsion * k)

    __rmul__ = __mul__

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroup({self.free_rank}, {self.torsion!r})"


def homology_of_complex(boundaries):
    """Homology at C_0 .. C_top of the complex

        <-- d_0 -- C_0 <-- d_1 -- C_1 <-- ... <-- d_top+1 --

    where ``boundaries[n]`` is d_n, the map out of C_n, so it has one
    column per basis element of C_n; the first map may end in a nonzero
    term (an augmentation), the last one may start at one.  A pair of
    maps whose shapes do not fit raises ShapeError before anything is
    reduced.

    Then each map is reduced once, by ``smith_normal_form``, from the
    top down, and shrunk.  The unit pivots of d_n lie on rows P and
    columns J of a +-1 minor, so the columns of d_n in J together with
    the unit vectors off P are a lattice basis of C_n-1, and d_n-1
    vanishes on the first part: d_n-1 with its columns in P deleted has
    the same Smith normal form, so the kernel is told to drop them.
    Pivots of the block the sweep leaves span no such minor and drop
    nothing.
    H_n has free rank dim C_n minus the ranks of d_n and d_n+1, and the
    nontrivial invariant factors of d_n+1 as its torsion.

    This pass is also where d o d = 0 is checked, on both routes.
    Before d_n is reduced, d_n-1 @ d_n is taken on the columns of d_n
    that are kept (not in the rows P of the unit pivots of d_n+1), one
    sparse column at a time, and a nonzero product raises
    BoundaryCompositionError; so the highest failing pair is named, and
    a failing pair raises before d_n or anything below it is reduced.
    That checks the whole pair:
    - every kept column of d_n is checked directly;
    - a dropped column of d_n is in P, and the step above checked every
      kept column of d_n+1, the columns J of its unit pivots among them,
      so it is -d_n[:, P^c] d_n+1[P^c, J] d_n+1[P, J]^-1, an integer
      combination of kept columns;
    - the top map drops nothing, so by induction every pair is checked.

    Each map is handed to the kernel whole, with the columns to drop
    named beside it, so that what a caller sees going in (its shape and
    entries) depends on the complex alone; which columns are dropped
    depends on the kernel's pivot order.  The kernel skips them as it
    reads the map; the product above reads the one filtered copy.

    >>> two = IntegerMatrix(1, 1, {(0, 0): 2})
    >>> homology_of_complex([IntegerMatrix(0, 1), two, IntegerMatrix(1, 0)])
    [AbelianGroup(0, (2,)), AbelianGroup(0, ())]
    """
    for n in range(1, len(boundaries)):
        d_in, d_out = boundaries[n - 1], boundaries[n]
        if d_in.cols != d_out.rows:
            raise ShapeError(
                f"dimension mismatch at C_{n - 1}: d_{n - 1} has "
                f"{d_in.cols} columns, d_{n} has {d_out.rows} rows")
    groups = []
    above = None
    for n in range(len(boundaries) - 1, -1, -1):
        d = boundaries[n]
        drop = () if above is None else above.pivot_rows
        if n and boundaries[n - 1].columns:
            kept = d
            if drop:
                dropped = set(drop)
                kept = IntegerMatrix._unchecked(d.rows, d.cols, {
                    j: col for j, col in d.columns.items()
                    if j not in dropped})
            if not (boundaries[n - 1] @ kept).is_zero():
                raise BoundaryCompositionError(
                    f"d_{n - 1} o d_{n} is not zero")
        snf = smith_normal_form(d, drop) if d.columns else SNFResult(())
        if above is not None:
            groups.append(AbelianGroup(
                d.cols - snf.rank - above.rank,
                [f for f in above.invariant_factors if f > 1]))
        above = snf
    groups.reverse()
    return groups


def homology_of_pair(d_in, d_out):
    """Homology at the middle of  . <-- d_in -- C <-- d_out -- .

    The two-map case of ``homology_of_complex``: the pair must compose
    to zero, the free rank is dim C minus both ranks, and the torsion is
    the nontrivial part of the invariant factors of d_out.

    >>> homology_of_pair(IntegerMatrix(0, 1), IntegerMatrix(1, 1, {(0, 0): 2}))
    AbelianGroup(0, (2,))
    """
    return homology_of_complex([d_in, d_out])[0]
