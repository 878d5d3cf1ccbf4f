import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (bareiss_rank, determinantal_factors, random_matrix,
                     sd2_rp2)

from tracehom import intlinalg
from tracehom.chains import DELTA, boundary_matrix
from tracehom.intlinalg import (AbelianGroup, BoundaryCompositionError,
                                IntegerMatrix, ShapeError, SNFResult,
                                homology_of_pair, smith_normal_form)
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
    with pytest.raises(ShapeError):
        IntegerMatrix(2, 2, {(2, 0): 1})


def test_zero_entries_dropped():
    m = IntegerMatrix(2, 2, {(0, 0): 0, (1, 1): 5})
    assert m.entries == {(1, 1): 5}


def test_matmul_known_product():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]


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


# --- sparse elimination against the dense kernel and the oracles ---------

def dense_snf(m):
    """Invariant factors from the dense kernel alone, skipping the
    sparse elimination that smith_normal_form runs first."""
    return tuple(intlinalg._divisor_chain(intlinalg.diagonalize(m.to_rows())))


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
    # no +-1 entry anywhere: the whole matrix is left to the dense kernel
    rng = random.Random(97)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 4), rng.randint(1, 4),
                          density=0.7, values=(2, -3, 4, 6, -9, 10))
        rows = m.to_rows()
        result = smith_normal_form(m)
        assert list(result.invariant_factors) == determinantal_factors(rows)
        assert result.rank == bareiss_rank(rows)


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


def test_snf_leaves_its_argument_alone():
    m = IntegerMatrix.from_rows([[1, 2, 0], [3, 1, 4], [0, 5, -1]])
    before = dict(m.entries)
    smith_normal_form(m)
    assert m.entries == before


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
    for n, (shape, factors) in expect.items():
        d = boundary_matrix(fan, DELTA, n)
        assert (d.rows, d.cols) == shape
        assert smith_normal_form(d).invariant_factors == factors
        assert smith_normal_form(transpose(d)).invariant_factors == factors


# --- AbelianGroup --------------------------------------------------------

def test_group_canonical_form():
    assert AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))
    assert AbelianGroup(0, (2, 4)) != AbelianGroup(0, (8,))
    assert AbelianGroup(0, (4, 6)).torsion == (2, 12)
    assert AbelianGroup(0, (1, 1)).is_trivial
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
    g = AbelianGroup(0, (2 ** 89 - 1,))
    assert time.perf_counter() - start < 1.0
    assert g.torsion == (2 ** 89 - 1,)
    assert AbelianGroup(0, (2 ** 89 - 1, 2)).torsion == (2 * (2 ** 89 - 1),)


def test_group_rejects_bad_input():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (0,))


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


# --- homology_of_pair ----------------------------------------------------

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
