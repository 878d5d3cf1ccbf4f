import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import alphabets, random_alphabet, random_mset, \
    relabel_elements, rename_generators, shuffle_generators

from tracehom.alphabet import IndependenceAlphabet, clique_counts
from tracehom.chains import (BASEPOINT_ONLY, DELTA, PUNCTURED, SYSTEMS,
                             ChainComplex, boundary_matrix, build_complex,
                             enumerate_basis, homology)
from tracehom.intlinalg import (AbelianGroup, BoundaryCompositionError,
                                IntegerMatrix)
from tracehom.msets import (BASEPOINT, PointedMSet, chain_mset, fan_mset,
                            x0_mset)
from tracehom.simplicial import clique_complex

SINGLE = IndependenceAlphabet(["e"])
PAIR = IndependenceAlphabet(["a", "b"], [("a", "b")])
CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

Z = AbelianGroup(1)
ZERO = AbelianGroup(0)


def one_point(alpha):
    return PointedMSet(alpha, [], {})


# --- coefficient systems -------------------------------------------------

def test_system_values():
    assert (DELTA.value_at("x"), DELTA.value_at(BASEPOINT)) == (1, 1)
    assert (PUNCTURED.value_at("x"), PUNCTURED.value_at(BASEPOINT)) == (1, 0)
    assert (BASEPOINT_ONLY.value_at("x"),
            BASEPOINT_ONLY.value_at(BASEPOINT)) == (0, 1)


def test_system_registry():
    assert set(SYSTEMS) == {"delta", "punctured", "basepoint"}
    assert SYSTEMS["delta"] is DELTA


# --- bases ---------------------------------------------------------------

def test_basis_element_major_order():
    m = chain_mset(CYCLE4)
    basis = enumerate_basis(m, DELTA, 1)
    assert len(basis) == 12
    assert basis[:4] == [("x0", ("a",)), ("x0", ("b",)),
                         ("x0", ("c",)), ("x0", ("d",))]
    assert basis[-1] == (BASEPOINT, ("d",))


def test_basis_skips_trivial_points():
    m = chain_mset(CYCLE4)
    assert len(enumerate_basis(m, PUNCTURED, 1)) == 8
    assert enumerate_basis(m, BASEPOINT_ONLY, 1) == \
        [(BASEPOINT, (g,)) for g in "abcd"]


def test_basis_degree_zero():
    m = x0_mset(CYCLE4)
    assert enumerate_basis(m, BASEPOINT_ONLY, 0) == [(BASEPOINT, ())]
    assert enumerate_basis(m, DELTA, 0) == [("x0", ()), (BASEPOINT, ())]


# --- boundary matrices ---------------------------------------------------

def test_boundary_degree_one_unit_column():
    # the sole degree-1 generator maps to +1 on the carrier point
    d1 = boundary_matrix(x0_mset(SINGLE), PUNCTURED, 1)
    assert d1.to_rows() == [[1]]


def test_boundary_degree_two_difference():
    d2 = boundary_matrix(x0_mset(PAIR), PUNCTURED, 2)
    # basis1 = [(x0, a), (x0, b)]; column is (x0, b) - (x0, a)
    assert d2.to_rows() == [[-1], [1]]


def test_boundary_zero_for_one_point_constant():
    m = one_point(PAIR)
    assert boundary_matrix(m, DELTA, 1).is_zero()
    assert boundary_matrix(m, DELTA, 2).is_zero()


def test_boundary_needs_positive_degree():
    with pytest.raises(ValueError):
        boundary_matrix(x0_mset(SINGLE), DELTA, 0)


def test_complex_shapes_and_edges():
    cx = build_complex(x0_mset(CYCLE4), DELTA)
    assert cx.top == 2
    assert [cx.dim(n) for n in range(4)] == [2, 8, 8, 0]
    assert cx.boundary(0).rows == 0
    assert cx.boundary(0).cols == 2
    assert cx.boundary(3).rows == 8
    assert cx.boundary(3).cols == 0


def test_boundaries_compose_to_zero():
    rng = random.Random(52)
    for _ in range(15):
        m = random_mset(rng, random_alphabet(rng))
        for name, system in SYSTEMS.items():
            cx = build_complex(m, system)
            for n in range(1, cx.top + 1):
                assert (cx.boundary(n) @ cx.boundary(n + 1)).is_zero(), \
                    (name, n)


def test_homology_rejects_boundaries_that_do_not_compose():
    """d o d = 0 is checked where homology is taken, so a complex whose
    boundaries were assembled wrong fails there."""
    m = x0_mset(CYCLE4)
    cx = build_complex(m, DELTA)
    d1, d2 = cx.boundary(1), cx.boundary(2)
    # flip the sign of one entry of d_2 in a row where d_1 is nonzero
    i, j = next((i, j) for i, j in d2.entries
                if any(k == i for _, k in d1.entries))
    broken = IntegerMatrix(d2.rows, d2.cols,
                           {**d2.entries, (i, j): -d2.entries[(i, j)]})
    bad = ChainComplex(cx.bases, [d1, broken])
    with pytest.raises(BoundaryCompositionError):
        bad.homology()


# --- homology ------------------------------------------------------------

def test_one_point_binomial_homology():
    assert homology(one_point(PAIR), DELTA) == [Z, 2 * Z, Z]


def test_one_point_empty_alphabet():
    m = PointedMSet(IndependenceAlphabet([]), ["x0", "x1"], {})
    assert homology(m, DELTA) == [AbelianGroup(3)]
    assert homology(m, PUNCTURED) == [AbelianGroup(2)]


def test_x0_cycle4_punctured():
    assert homology(x0_mset(CYCLE4), PUNCTURED) == [ZERO, ZERO, Z]


def test_x0_cycle4_delta():
    assert homology(x0_mset(CYCLE4), DELTA) == [Z, 4 * Z, 5 * Z]


def test_chain_and_fan_agree_over_cycle4():
    for system, expect in [
        (DELTA, [Z, 4 * Z, 6 * Z]),
        (PUNCTURED, [ZERO, ZERO, 2 * Z]),
    ]:
        assert homology(chain_mset(CYCLE4), system) == expect
        assert homology(fan_mset(CYCLE4), system) == expect


def test_basepoint_system_sees_only_cliques():
    rng = random.Random(3)
    for _ in range(10):
        alpha = random_alphabet(rng)
        m = random_mset(rng, alpha)
        counts = clique_counts(alpha)
        assert homology(m, BASEPOINT_ONLY) == \
            [AbelianGroup(p) for p in counts]


def test_degree_one_torsion_free_for_reference_msets():
    rng = random.Random(41)
    for _ in range(15):
        h = homology(x0_mset(random_alphabet(rng)), PUNCTURED)
        assert h[1].torsion == ()


def test_euler_characteristic_matches_homology():
    rng = random.Random(68)
    for _ in range(10):
        m = random_mset(rng, random_alphabet(rng, max_size=5))
        for system in (DELTA, PUNCTURED):
            cx = build_complex(m, system)
            chi_cells = sum((-1) ** n * cx.dim(n)
                            for n in range(cx.top + 1))
            chi_ranks = sum((-1) ** n * g.free_rank
                            for n, g in enumerate(cx.homology()))
            assert chi_cells == chi_ranks


def test_homology_ignores_labeling_and_order():
    rng = random.Random(29)
    for _ in range(10):
        m = random_mset(rng, random_alphabet(rng, max_size=5))
        relabeled = relabel_elements(m)
        shuffled = shuffle_generators(rng, m)
        for system in SYSTEMS.values():
            reference = homology(m, system)
            assert homology(relabeled, system) == reference
            assert homology(shuffled, system) == reference


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=6), st.randoms(use_true_random=False), st.data())
def test_invariants_ignore_generator_names_and_order(alpha, rng, data):
    """Permuting and renaming the generators of an alphabet and its
    action changes none of the invariants."""
    m = random_mset(rng, alpha, max_elements=3)
    renamed = rename_generators(m, data.draw(st.permutations(
        alpha.generators)))
    assert clique_counts(renamed.alphabet) == clique_counts(alpha)
    for system in (DELTA, PUNCTURED):
        assert homology(renamed, system) == homology(m, system)
    assert clique_complex(renamed.alphabet).reduced_homology() == \
        clique_complex(alpha).reduced_homology()


def test_homology_bounded_by_max_degree():
    """A bound gives the full list cut off or padded with zero groups."""
    rng = random.Random(37)
    for _ in range(10):
        m = random_mset(rng, random_alphabet(rng, max_size=5))
        for system in SYSTEMS.values():
            full = homology(m, system)
            padded = full + [ZERO] * 3
            for bound in range(-1, len(full) + 2):
                assert homology(m, system, bound) == padded[:bound + 1]


def test_bounded_complex_lists_no_higher_clique():
    gens = [f"e{k}" for k in range(6)]
    m = x0_mset(IndependenceAlphabet(gens, combinations(gens, 2)))
    complex_ = build_complex(m, DELTA, top=2)
    assert complex_.top == 2
    assert len(m.alphabet._cliques) == 3


def test_full_complete_alphabet_matches_binomials():
    gens = [f"e{k}" for k in range(4)]
    alpha = IndependenceAlphabet(gens, combinations(gens, 2))
    got = homology(one_point(alpha), DELTA)
    assert got == [AbelianGroup(p) for p in clique_counts(alpha)]
