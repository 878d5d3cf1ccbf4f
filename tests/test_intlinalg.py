import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (as_pairs, assert_column_storage, bareiss_rank,
                     change_one_entry, composes_to_zero, dense,
                     dense_product, determinantal_factors,
                     diagonal_complexes, diagonalize, divisor_chain,
                     random_matrix, sd2_rp2, time_limit)

from tracehom import intlinalg
from tracehom.chains import DELTA, boundary_matrix
from tracehom.intlinalg import (AbelianGroup, BoundaryCompositionError,
                                IntegerMatrix, ShapeError, SNFResult,
                                homology_of_complex, homology_of_pair,
                                smith_normal_form)
from tracehom.msets import BASEPOINT, full_action_from_successor


def snf_of(rows):
    return smith_normal_form(IntegerMatrix.from_rows(rows))


# --- IntegerMatrix -------------------------------------------------------

def test_from_rows_round_trip():
    rows = [[1, 0, -2], [0, 3, 0]]
    m = IntegerMatrix.from_rows(rows)
    assert (m.rows, m.cols) == (2, 3)
    assert m.to_rows() == rows


def test_ragged_rows_rejected():
    with pytest.raises(ShapeError):
        IntegerMatrix.from_rows([[1, 2], [3]])


def test_negative_dimensions_rejected():
    with pytest.raises(ShapeError):
        IntegerMatrix(-1, 2)


def test_entry_outside_shape_rejected():
    for key in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ShapeError):
            IntegerMatrix(2, 2, {key: 1})


def test_zero_entries_dropped():
    m = IntegerMatrix(2, 2, {(0, 0): 0, (1, 1): 5})
    assert m.entries == {(1, 1): 5}


def test_non_integral_entries_rejected_not_truncated():
    # int() would store 1, drop 0.4 as zero and parse '3'
    for value in (1.5, 0.4, "3", 0.0, None):
        with pytest.raises(TypeError,
                           match=rf"entry \(0, 0\) = {value!r} is not"):
            IntegerMatrix(1, 1, {(0, 0): value})
    with pytest.raises(TypeError, match=r"entry \(0, 0\) = 0.5 is not"):
        IntegerMatrix.from_rows([[0.5, 2]])
    # what operator.index accepts is kept exactly
    assert IntegerMatrix.from_rows([[True, 0], [0, 2 ** 70]]).to_rows() == \
        [[1, 0], [0, 2 ** 70]]


def test_non_integral_shape_or_index_rejected():
    # a 1.5-row matrix once held an entry in row 1, reduced to (3,) and
    # failed only in to_rows
    with pytest.raises(TypeError, match="row count 1.5 is not an integer"):
        IntegerMatrix(1.5, 2, {(1, 0): 3})
    with pytest.raises(TypeError, match="column count '2' is not"):
        IntegerMatrix(1, "2")
    # an entry in row 0.5 of a 2x2 matrix once joined the elimination
    with pytest.raises(TypeError, match=r"entry index \(0.5, 1\) is not"):
        IntegerMatrix(2, 2, {(0.5, 1): 3, (1, 1): 1})
    with pytest.raises(TypeError, match=r"entry index \(0, 1.0\) is not"):
        IntegerMatrix(2, 2, {(0, 1.0): 3})
    assert IntegerMatrix(True, 2, {(0, 1): 3}).to_rows() == [[0, 3]]


def test_matmul_known_product():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]


def test_matmul_stores_no_zeros():
    # a product that cancels to zero stores nothing
    zero = IntegerMatrix.from_rows([[1, 1]]) @ \
        IntegerMatrix.from_rows([[1], [-1]])
    assert (zero.rows, zero.cols, zero.entries) == (1, 1, {})
    assert zero.is_zero()
    # [[1, 1], [1, 0]] @ [[1, 2], [-1, 3]] = [[0, 5], [1, 2]]
    partial = IntegerMatrix.from_rows([[1, 1], [1, 0]]) @ \
        IntegerMatrix.from_rows([[1, 2], [-1, 3]])
    assert partial.entries == {(0, 1): 5, (1, 0): 1, (1, 1): 2}
    assert partial.to_rows() == [[0, 5], [1, 2]]


def test_matmul_shape_mismatch():
    a = IntegerMatrix.from_rows([[1, 2]])
    with pytest.raises(ShapeError):
        a @ a


def test_matmul_empty_dimensions():
    a = IntegerMatrix(2, 0)
    b = IntegerMatrix(0, 3)
    assert (a @ b) == IntegerMatrix(2, 3)


def test_is_zero():
    assert IntegerMatrix(3, 4).is_zero()
    assert not IntegerMatrix.from_rows([[0, 1]]).is_zero()


def test_stored_by_column():
    m = IntegerMatrix(3, 4, {(2, 1): 7, (0, 1): -1, (1, 3): 0, (0, 0): 2})
    assert m.columns == {1: {2: 7, 0: -1}, 0: {0: 2}}
    assert m.entries == {(2, 1): 7, (0, 1): -1, (0, 0): 2}
    # the view is derived: changing it leaves the matrix alone
    m.entries[(1, 1)] = 5
    assert len(m.entries) == 3
    with pytest.raises(AttributeError):
        m.entries = {}


#: entry values, zeros and cancelling units included
SMALL = st.sampled_from((0, 0, 1, -1, 1, -1, 2, -3, 2 ** 65))


@st.composite
def entry_dicts(draw, rows=None, cols=None):
    """(rows, cols, {(i, j): value}) with zeros among the values."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    if not (rows and cols):
        return rows, cols, {}
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return rows, cols, draw(st.dictionaries(keys, SMALL))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(entry_dicts())
def test_constructor_round_trip(case):
    rows, cols, entries = case
    m = IntegerMatrix(rows, cols, entries)
    assert_column_storage(m)
    assert m.entries == {key: v for key, v in entries.items() if v}
    assert IntegerMatrix(rows, cols, m.entries) == m
    assert m.to_rows() == [[entries.get((i, j), 0) for j in range(cols)]
                           for i in range(rows)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(entry_dicts(), st.data())
def test_matmul_agrees_with_the_dense_product(left, data):
    rows, inner, entries = left
    _, cols, right = data.draw(entry_dicts(rows=inner))
    a = IntegerMatrix(rows, inner, entries)
    b = IntegerMatrix(inner, cols, right)
    product = a @ b
    assert_column_storage(product)
    assert (product.rows, product.cols) == (rows, cols)
    want = dense_product(dense(a), dense(b)) if inner else \
        [[0] * cols for _ in range(rows)]
    assert dense(product) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entry_dicts(), st.randoms(use_true_random=False))
def test_equality_ignores_insertion_order(case, rng):
    rows, cols, entries = case
    m = IntegerMatrix(rows, cols, entries)
    items = list(entries.items())
    rng.shuffle(items)
    shuffled = IntegerMatrix(rows, cols, dict(items))
    assert shuffled == m
    # the same columns, stored in reverse order and with reversed rows
    columns = {j: dict(reversed(col.items()))
               for j, col in reversed(m.columns.items())}
    assert IntegerMatrix._unchecked(rows, cols, columns) == m
    if m.columns:
        j = next(iter(m.columns))
        i = next(iter(m.columns[j]))
        changed = dict(m.entries)
        changed[(i, j)] += 1
        assert IntegerMatrix(rows, cols, changed) != m


# --- Smith normal form ---------------------------------------------------

def test_snf_already_diagonal():
    assert snf_of([[2, 0], [0, 0]]) == SNFResult((2,))
    assert snf_of([[2, 0], [0, 0]]).rank == 1


def test_snf_identity():
    assert snf_of([[1, 0], [0, 1]]) == SNFResult((1, 1))


def test_snf_classic_example():
    assert snf_of([[2, 4], [6, 8]]) == SNFResult((2, 4))


def test_snf_needs_divisor_fix():
    # diag(4, 6) is diagonal but not a divisor chain
    assert snf_of([[4, 0], [0, 6]]) == SNFResult((2, 12))


def test_snf_three_by_three():
    assert snf_of([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == \
        SNFResult((2, 6, 12))


def test_snf_zero_and_empty():
    assert snf_of([[0, 0], [0, 0]]) == SNFResult(())
    assert smith_normal_form(IntegerMatrix(0, 5)) == SNFResult(())
    assert smith_normal_form(IntegerMatrix(5, 0)) == SNFResult(())


def test_snf_single_negative_entry():
    assert snf_of([[-6]]) == SNFResult((6,))


def test_snf_matches_minor_gcd_oracle_frozen():
    cases = [
        [[2, 4], [6, 8]],
        [[1, 2], [3, 4]],
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[3, 0], [0, 5]],
        [[2, 3], [4, 6]],
    ]
    for rows in cases:
        got = snf_of(rows).invariant_factors
        assert list(got) == determinantal_factors(rows), rows


def test_snf_matches_minor_gcd_oracle_random():
    rng = random.Random(20)
    for _ in range(60):
        m = random_matrix(rng, max_dim=5)
        expect = determinantal_factors(m.to_rows()) if m.entries else []
        assert list(smith_normal_form(m).invariant_factors) == expect


def test_snf_rank_matches_elimination_oracle():
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng)
        result = smith_normal_form(m)
        assert result.rank == bareiss_rank(m.to_rows())
        d = result.invariant_factors
        assert all(v >= 1 for v in d)
        assert all(d[k + 1] % d[k] == 0 for k in range(len(d) - 1))


def test_snf_huge_entries_stay_exact():
    # entries past the fixed-width range; product of factors must equal
    # the determinant exactly
    rows = [[2 ** 70, 3], [5, 7]]
    det = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    d = snf_of(rows).invariant_factors
    assert len(d) == 2
    assert d[0] * d[1] == det


def test_snf_result_validates_chain():
    with pytest.raises(ValueError):
        SNFResult((3, 2))
    with pytest.raises(ValueError):
        SNFResult((0,))


def test_snf_result_compares_and_shows_only_the_factors():
    recorded = SNFResult((1, 2), pivot_rows=(3,), leftover=(2, 1))
    assert recorded == SNFResult((1, 2))
    assert hash(recorded) == hash(SNFResult((1, 2)))
    assert recorded != SNFResult((1, 4), (3,), (2, 1))
    assert repr(recorded) == "SNFResult(invariant_factors=(1, 2))"
    assert (recorded.pivot_rows, recorded.leftover) == ((3,), (2, 1))
    with pytest.raises(AttributeError):
        recorded.invariant_factors = (1,)
    with pytest.raises(AttributeError):
        del recorded.leftover


def test_snf_records_unit_pivots_and_leftover():
    # a unit pivot in row 1; the unit sweep leaves the 1x2 block [2, 4]
    # in row 0, and the pivot 2 reduces it without joining pivot_rows
    result = snf_of([[2, 4, 0], [0, 3, 1]])
    assert result.invariant_factors == (1, 2)
    assert (result.pivot_rows, result.leftover) == ((1,), (1, 2))
    # tall: eliminated as its transpose, recorded in its own rows and
    # columns
    result = snf_of([[2, 0], [4, 3], [0, 1]])
    assert (result.pivot_rows, result.leftover) == ((2,), (2, 1))
    # column 1 is cleared by the sweep: it is twice column 0
    result = snf_of([[1, 2], [3, 6]])
    assert result.pivot_rows == (0,)
    assert snf_of([[2, 4], [6, 8]]).pivot_rows == ()
    assert snf_of([[0, 0]]).leftover == (0, 0)


# --- sparse elimination against the dense oracle and the others ---------

def dense_snf(m):
    """Invariant factors from the dense oracle, which shares no code with
    smith_normal_form."""
    return tuple(divisor_chain(diagonalize(dense(m))))


def random_sparse(rng, rows, cols, density, values):
    return IntegerMatrix(rows, cols, {
        (i, j): rng.choice(values)
        for i in range(rows) for j in range(cols) if rng.random() < density})


def test_kernel_name_published():
    assert intlinalg.KERNEL_NAME == "python"


def test_sparse_agrees_with_dense_kernel():
    rng = random.Random(95)
    for _ in range(300):
        m = random_matrix(rng, max_dim=8)
        assert smith_normal_form(m).invariant_factors == dense_snf(m)


def test_sparse_agrees_with_dense_kernel_on_unit_matrices():
    # +-1 entries with fill-in: the shape of a boundary matrix, where the
    # sparse pass does most of the work and leaves torsion behind
    rng = random.Random(96)
    for _ in range(30):
        m = random_sparse(rng, rng.randint(1, 30), rng.randint(1, 30),
                          density=rng.choice((0.05, 0.15, 0.4)),
                          values=(1, -1, 1, -1, 2, -3))
        assert smith_normal_form(m).invariant_factors == dense_snf(m)


def test_snf_without_unit_entries():
    # no +-1 entry anywhere: the unit sweep leaves the whole matrix to the
    # pivots of least absolute value
    rng = random.Random(97)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 4), rng.randint(1, 4),
                          density=0.7, values=(2, -3, 4, 6, -9, 10))
        rows = m.to_rows()
        result = smith_normal_form(m)
        assert list(result.invariant_factors) == determinantal_factors(rows)
        assert result.rank == bareiss_rank(rows)


def test_snf_free_pivots_cascade():
    """Row i holds +-1 in column n-1-i and, below row 0, a 1 in column
    n-i, the pivot column of the row above: a lower triangular chain
    with its columns reversed.  Only row 0 starts with one entry, and
    each free pivot leaves the next row with one.  Taken as free
    pivots, the rows come in their own order; the sweep in column order
    would begin with the last row."""
    n = 12
    entries = {(i, n - 1 - i): (-1) ** i for i in range(n)}
    entries.update({(i, n - i): 1 for i in range(1, n)})
    result = smith_normal_form(IntegerMatrix(n, n, entries))
    assert result.invariant_factors == (1,) * n
    assert result.pivot_rows == tuple(range(n))
    assert result.leftover == (0, 0)


def test_snf_singleton_non_unit_row_is_not_a_free_pivot():
    # row 0 holds only a 2 (or -2); row 1 is the unit pivot of column 0,
    # and the 2 comes out of the block the sweep leaves
    for two in (2, -2):
        m = IntegerMatrix.from_rows([[two, 0, 0], [1, 1, 0], [0, 0, 1]])
        result = smith_normal_form(m)
        assert result.invariant_factors == dense_snf(m) == (1, 1, 2)
        assert result.pivot_rows == (2, 1)
        assert result.leftover == (1, 1)


def test_snf_reduces_a_large_block_without_unit_entries_sparse():
    """2 on the diagonal and 4 at (i, i+1 mod n) for every third i: 2
    times an upper unitriangular matrix, so every factor is 2.  With no
    +-1 entry the unit sweep leaves the whole matrix; reducing it in its
    sparse form takes a fraction of a second, where a dense copy
    rescanned for each pivot takes seconds."""
    n = 1200
    entries = {(i, i): 2 for i in range(n)}
    entries.update({(i, (i + 1) % n): 4 for i in range(0, n, 3)})
    start = time.perf_counter()
    with time_limit(30):
        result = smith_normal_form(IntegerMatrix(n, n, entries))
    assert time.perf_counter() - start < 3.0
    assert result.invariant_factors == (2,) * n
    assert (result.pivot_rows, result.leftover) == ((), (n, n))


def test_snf_ignores_zero_rows_and_columns():
    rng = random.Random(98)
    for _ in range(40):
        core = random_matrix(rng, max_dim=5)
        pad_r, pad_c = rng.randint(0, 4), rng.randint(0, 4)
        row_at = sorted(rng.sample(range(core.rows + pad_r), core.rows))
        col_at = sorted(rng.sample(range(core.cols + pad_c), core.cols))
        padded = IntegerMatrix(core.rows + pad_r, core.cols + pad_c, {
            (row_at[i], col_at[j]): v for (i, j), v in core.entries.items()})
        assert smith_normal_form(padded) == smith_normal_form(core)


def test_snf_unit_pivots_on_huge_entries():
    # elimination on a unit pivot multiplies entries past 2**63
    big = 2 ** 64 + 1
    cases = [
        [[1, 2 ** 70], [big, 3]],
        [[-1, big, 0], [2 ** 65, 1, 2 ** 63], [3, 2 ** 80, 5]],
        [[2 ** 63, 2 ** 64], [2 ** 64, 2 ** 63 * 6]],
    ]
    for rows in cases:
        assert list(snf_of(rows).invariant_factors) == \
            determinantal_factors(rows), rows


def test_snf_drops_the_columns_it_is_told_to():
    # the same elimination as on the matrix with those columns deleted,
    # orientation included
    rng = random.Random(99)
    for _ in range(200):
        m = random_matrix(rng, max_dim=7)
        drop = tuple(j for j in range(m.cols) if rng.random() < 0.4)
        kept = [j for j in range(m.cols) if j not in drop]
        deleted = IntegerMatrix(m.rows, len(kept), {
            (i, kept.index(j)): v for (i, j), v in m.entries.items()
            if j in kept})
        got, want = smith_normal_form(m, drop), smith_normal_form(deleted)
        assert (got, got.pivot_rows, got.leftover) == \
            (want, want.pivot_rows, want.leftover)


def test_snf_leaves_its_argument_alone():
    # square and wide matrices are eliminated as given, tall ones as
    # their transpose; neither may touch the stored columns
    for rows in ([[1, 2, 0], [3, 1, 4], [0, 5, -1]],
                 [[1, 2], [3, 1], [0, 5]]):
        m = IntegerMatrix.from_rows(rows)
        before = {j: dict(col) for j, col in m.columns.items()}
        smith_normal_form(m)
        smith_normal_form(m, [0])
        assert m.columns == before


def test_snf_rejects_dropped_columns_outside_the_shape():
    """A column to drop must be a column of the matrix; naming two that
    are not, as many as it has, once made the matrix look empty."""
    m = IntegerMatrix.from_rows([[1, 0], [0, 2]])
    for drop, name in (([5, 6], "6"), ([2], "2"), ([-1], "-1"),
                       ([0, 2], "2"), ((-3, 1), "-3")):
        with pytest.raises(ShapeError, match=f"column {name} outside 2x2"):
            smith_normal_form(m, drop)
    for empty in (IntegerMatrix(2, 2), IntegerMatrix(0, 2)):
        with pytest.raises(ShapeError):
            smith_normal_form(empty, [2])
    assert smith_normal_form(m, [0, 1]) == SNFResult(())
    assert smith_normal_form(m, [1, 1]) == SNFResult((1,))


def test_snf_rejects_non_integral_dropped_columns():
    # 0.5 matches no column, so all of m was once reduced
    m = IntegerMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(TypeError, match="drop column 0.5 is not an integer"):
        smith_normal_form(m, [0.5])
    with pytest.raises(TypeError, match="drop column '1' is not"):
        smith_normal_form(m, (0, "1"))
    # a generator is read once
    with pytest.raises(TypeError, match="drop column 0.5 is not an integer"):
        smith_normal_form(m, (j for j in [0.5]))
    assert smith_normal_form(m, [True]) == SNFResult((1,))


def transpose(m):
    return IntegerMatrix(m.cols, m.rows,
                         {(j, i): v for (i, j), v in m.entries.items()})


ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6, 2 ** 64, -(2 ** 70)))


@st.composite
def small_matrices(draw):
    # one side up to 7 long, so that tall and wide shapes both come up
    short = draw(st.integers(0, 4))
    long = draw(st.integers(0, 7))
    nr, nc = (long, short) if draw(st.booleans()) else (short, long)
    return draw(st.lists(st.lists(ENTRIES, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_snf_property_against_oracles(rows):
    m = IntegerMatrix(len(rows), len(rows[0]) if rows else 0, {
        (i, j): v for i, row in enumerate(rows)
        for j, v in enumerate(row) if v})
    result = smith_normal_form(m)
    assert result.invariant_factors == dense_snf(m)
    assert list(result.invariant_factors) == determinantal_factors(rows)
    assert result.rank == bareiss_rank(rows)
    assert smith_normal_form(transpose(m)) == result
    # the unit pivot rows carry a +-1 minor: the lattice their rows span
    # has a basis of unit vectors, so every factor of those rows is 1;
    # the rest of the rank comes from the block the unit sweep leaves
    pivots = result.pivot_rows
    assert len(set(pivots)) == len(pivots) <= result.rank
    assert determinantal_factors([rows[i] for i in pivots]) == \
        [1] * len(pivots)
    assert result.rank - len(pivots) <= min(result.leftover)
    assert result.leftover[0] <= m.rows and result.leftover[1] <= m.cols


def test_snf_of_sd2_rp2_boundaries_both_ways():
    """The real d_2 (905x2700) and d_3 (2700x1800) of sd2(RP2) under a
    fan of four points, and their transposes.  The factors are frozen
    from the groups of test_criterion_9: H_3 = Z^360 gives rank d_3 =
    1800 - 360 = 1440, with the (Z/2)^4 of H_2 as its torsion; the free
    rank 540 of H_2 = 2700 - rank d_2 - rank d_3 gives rank d_2 = 720,
    and H_1 = Z^181 is free, so d_2 has no torsion."""
    fan = full_action_from_successor(
        sd2_rp2(), {f"x{k}": BASEPOINT for k in range(4)})
    expect = {2: ((905, 2700), (1,) * 720),
              3: ((2700, 1800), (1,) * 1436 + (2,) * 4)}
    # every factor of d_2 comes from a unit pivot; the torsion of d_3
    # comes from a 150x4 block that the unit sweep leaves, which is the
    # same block whichever way round the matrix is handed over
    leftover = {2: (0, 0), 3: (150, 4)}
    for n, (shape, factors) in expect.items():
        d = boundary_matrix(fan, DELTA, n)
        assert (d.rows, d.cols) == shape
        for m, rows_cols in ((d, leftover[n]),
                             (transpose(d), leftover[n][::-1])):
            result = smith_normal_form(m)
            assert result.invariant_factors == factors
            assert result.leftover == rows_cols
            assert len(result.pivot_rows) == factors.count(1)


# --- AbelianGroup --------------------------------------------------------

def test_group_canonical_form():
    assert AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))
    assert AbelianGroup(0, (2, 4)) != AbelianGroup(0, (8,))
    assert AbelianGroup(0, (4, 6)).torsion == (2, 12)
    assert AbelianGroup(0, (1, 1)) == AbelianGroup(0)
    assert AbelianGroup(2).torsion == ()


def test_group_torsion_matches_minor_gcd_oracle():
    rng = random.Random(30)
    for _ in range(40):
        ds = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 25))
              for _ in range(rng.randint(1, 4))]
        diag = [[d if i == j else 0 for j in range(len(ds))]
                for i, d in enumerate(ds)]
        expect = tuple(f for f in determinantal_factors(diag) if f > 1)
        assert AbelianGroup(0, ds).torsion == expect, ds


def test_group_large_prime_torsion_without_factoring():
    start = time.perf_counter()
    with time_limit(10):
        g = AbelianGroup(0, (2 ** 89 - 1,))
    assert time.perf_counter() - start < 1.0
    assert g.torsion == (2 ** 89 - 1,)
    assert AbelianGroup(0, (2 ** 89 - 1, 2)).torsion == (2 * (2 ** 89 - 1),)


def test_group_rejects_bad_input():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (0,))


def test_group_rejects_non_integral_input():
    # int() would make AbelianGroup(1.7, (2.9,)) the group Z + Z/2
    with pytest.raises(TypeError, match="free rank 1.7 is not an integer"):
        AbelianGroup(1.7, (2.9,))
    with pytest.raises(TypeError, match="torsion factor 2.9 is not"):
        AbelianGroup(1, (2.9,))
    with pytest.raises(TypeError, match="free rank '3' is not"):
        AbelianGroup("3")
    assert AbelianGroup(True, (2,)) == AbelianGroup(1, (2,))


def test_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3, (2,))) == "Z^3 + Z/2"
    assert str(AbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


def test_group_sum_and_multiple():
    assert AbelianGroup(1, (2,)) + AbelianGroup(0, (3,)) == \
        AbelianGroup(1, (6,))
    assert 3 * AbelianGroup(1, (2,)) == AbelianGroup(3, (2, 2, 2))
    assert 0 * AbelianGroup(5, (7,)) == AbelianGroup(0)
    with pytest.raises(ValueError):
        (-1) * AbelianGroup(1)


def test_group_hashable():
    assert len({AbelianGroup(0, (2, 3)), AbelianGroup(0, (6,))}) == 1


def test_direct_sum():
    total = AbelianGroup(2, (2,)) + AbelianGroup(1) + AbelianGroup(0, (2,))
    assert total == AbelianGroup(3, (2, 2))


# --- homology_of_complex and homology_of_pair ----------------------------

@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(diagonal_complexes())
def test_complex_homology_read_off_the_diagonals(case):
    """Torsion from entries 2, 3 and 6 hidden by unimodular changes of
    basis has to come out of the block the unit sweep leaves, and only
    the unit pivots above may shrink the map below."""
    boundaries, groups = case
    assert as_pairs(homology_of_complex(boundaries)) == groups


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(diagonal_complexes(), st.data())
def test_complex_with_a_changed_entry_is_checked_at_every_pair(case, data):
    changed = change_one_entry(data.draw, case[0])
    if changed is None:
        return
    if composes_to_zero(changed):
        homology_of_complex(changed)
    else:
        with pytest.raises(BoundaryCompositionError):
            homology_of_complex(changed)


def test_composition_check_is_not_fooled_by_carries():
    """Nonzero products whose entries would cancel if each column were
    read as one integer in base 2^w with w too small: 256 above -1 in
    base 2^8, 2^64 above -1 eight rows down, the sum 2 of two unit terms
    above -1, a single entry 2^64 = 2^63 + 2^63, and 4 above -1.  The
    check sums each column of the product entry by entry, so none of
    them can cancel."""
    one = IntegerMatrix.from_rows([[1]])
    cases = [
        (IntegerMatrix.from_rows([[256], [-1]]), one),
        (IntegerMatrix(9, 1, {(0, 0): 2 ** 64, (8, 0): -1}), one),
        (IntegerMatrix.from_rows([[1, 1], [-1, 0]]),
         IntegerMatrix.from_rows([[1], [1]])),
        # a single nonzero entry 2^64 = 2^63 + 2^63
        (IntegerMatrix.from_rows([[2 ** 63, 2 ** 63]]),
         IntegerMatrix.from_rows([[1], [1]])),
        # product [[4], [-1]]: fields sized by d_in and the column length
        # alone (2 bits) would let 4 in row 0 cancel -1 in row 1
        (IntegerMatrix.from_rows([[1, 0], [0, -1]]),
         IntegerMatrix.from_rows([[4], [1]])),
    ]
    for d_in, d_out in cases:
        assert not (d_in @ d_out).is_zero()
        with pytest.raises(BoundaryCompositionError):
            homology_of_pair(d_in, d_out)


def test_composition_check_finds_a_nonzero_deep_in_a_long_column():
    """The two columns of d_in cancel in every one of 300 rows but row
    297, so d_in @ d_out is +1 there only, far from row 0; with -1 in
    row 297 too, the pair composes to zero."""
    plus = {(i, 0): 1 for i in range(300)}
    minus = {(i, 1): -1 for i in range(300) if i != 297}
    d_out = IntegerMatrix.from_rows([[1], [1]])
    d_in = IntegerMatrix(300, 2, {**plus, **minus})
    assert (d_in @ d_out).entries == {(297, 0): 1}
    with pytest.raises(BoundaryCompositionError):
        homology_of_complex([d_in, d_out])
    d_in = IntegerMatrix(300, 2, {**plus, **minus, (297, 1): -1})
    assert homology_of_complex([d_in, d_out]) == [AbelianGroup(0)]


def test_composition_check_sees_the_leftover_columns():
    """[[0, 1]] @ [[1, 0], [0, 2]] is nonzero only in column 1, which
    has no unit entry and is left to the block after the unit sweep."""
    d_out = IntegerMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(BoundaryCompositionError, match="d_0 o d_1"):
        homology_of_complex([IntegerMatrix.from_rows([[0, 1]]), d_out])


def test_composition_check_sees_a_dropped_column():
    """The filled triangle with its augmentation, with one entry of d_1
    broken in the column that the reduction of d_2 drops from d_1: the
    pair below never reads that column, so the pair above must."""
    d_0 = IntegerMatrix.from_rows([[1, 1, 1]])
    # edges ab, bc, ac over vertices a, b, c; the face abc
    d_1 = [[-1, 0, -1], [1, -1, 0], [0, 1, 1]]
    d_2 = IntegerMatrix.from_rows([[1], [1], [-1]])
    assert homology_of_complex(
        [d_0, IntegerMatrix.from_rows(d_1), d_2]) == [AbelianGroup(0)] * 2
    dropped, = smith_normal_form(d_2).pivot_rows
    d_1[2][dropped] += 1
    broken = IntegerMatrix.from_rows(d_1)
    with pytest.raises(BoundaryCompositionError, match="d_1 o d_2"):
        homology_of_complex([d_0, broken, d_2])


def test_composition_check_runs_before_the_lower_map_is_reduced(
        monkeypatch):
    """d_0 = [[1, 2, 1]] breaks the pair below the filled triangle: the
    check of d_0 o d_1 raises before d_1 is handed to the kernel."""
    reduced = []
    kernel = intlinalg.smith_normal_form

    def logged(m, drop_cols=()):
        reduced.append(m)
        return kernel(m, drop_cols)

    monkeypatch.setattr(intlinalg, "smith_normal_form", logged)
    d_0 = IntegerMatrix.from_rows([[1, 2, 1]])
    d_1 = IntegerMatrix.from_rows([[-1, 0, -1], [1, -1, 0], [0, 1, 1]])
    d_2 = IntegerMatrix.from_rows([[1], [1], [-1]])
    with pytest.raises(BoundaryCompositionError, match="d_0 o d_1"):
        homology_of_complex([d_0, d_1, d_2])
    assert reduced == [d_2]


def test_composition_check_names_the_highest_failing_pair():
    one = IntegerMatrix.from_rows([[1]])
    with pytest.raises(BoundaryCompositionError,
                       match=r"^d_1 o d_2 is not zero$"):
        homology_of_complex([one, one, one])


def test_composition_check_memory_is_linear():
    """The cycle with 5,000 edges: d_1 is 5000x5000 and d_2 its one
    fundamental cycle.  The check holds one column of the product at a
    time; packing each column of d_1 into one integer, as an earlier
    check did, peaked at about 21 MB."""
    n = 5000
    d_1 = IntegerMatrix(n, n, {**{(k, k): -1 for k in range(n)},
                               **{((k + 1) % n, k): 1 for k in range(n)}})
    d_2 = IntegerMatrix(n, 1, {(k, 0): 1 for k in range(n)})
    tracemalloc.start()
    try:
        groups = homology_of_complex(
            [IntegerMatrix(0, n), d_1, d_2, IntegerMatrix(1, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert groups == [AbelianGroup(1), AbelianGroup(0), AbelianGroup(0)]
    assert peak < 6_000_000, peak


def test_complex_of_no_maps_or_one_has_no_groups():
    assert homology_of_complex([]) == []
    assert homology_of_complex([IntegerMatrix(2, 3, {(0, 0): 5})]) == []


def test_homology_zero_boundaries():
    h = homology_of_pair(IntegerMatrix(0, 3), IntegerMatrix(3, 0))
    assert h == AbelianGroup(3)


def test_homology_multiplication_by_two():
    d_out = IntegerMatrix.from_rows([[2]])
    assert homology_of_pair(IntegerMatrix(0, 1), d_out) == AbelianGroup(0, (2,))


def circle_boundary():
    # 4 vertices v0..v3, 4 edges v0v1, v1v2, v2v3, v0v3
    return IntegerMatrix.from_rows([
        [-1, 0, 0, -1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, 1],
    ])


def test_homology_circle_degree_one():
    h = homology_of_pair(circle_boundary(), IntegerMatrix(4, 0))
    assert h == AbelianGroup(1)


def test_homology_circle_degree_zero():
    h = homology_of_pair(IntegerMatrix(0, 4), circle_boundary())
    assert h == AbelianGroup(1)


def test_homology_torsion_recombines():
    d_out = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    h = homology_of_pair(IntegerMatrix(0, 2), d_out)
    assert h == AbelianGroup(0, (6,))


def test_homology_shape_mismatch():
    with pytest.raises(ShapeError):
        homology_of_pair(IntegerMatrix(0, 2), IntegerMatrix(3, 0))


def test_homology_nonzero_composition():
    d_in = IntegerMatrix.from_rows([[1, 0]])
    d_out = IntegerMatrix.from_rows([[1], [0]])
    with pytest.raises(BoundaryCompositionError):
        homology_of_pair(d_in, d_out)
