import ast
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from helpers import (RP2_TRIANGLES, actions, alphabets, as_pairs,
                     assert_column_storage, change_one_entry,
                     closed_form_homology, composes_to_zero,
                     degree_zero_rank, mod_p_betti, moore_faces,
                     pair_route_homology, random_alphabet, random_matrix,
                     random_mset, rank_mod, rank_mod_p_sparse,
                     reference_boundary, reference_face_table,
                     relabel_elements, rename_generators, sd2_rp2,
                     shuffle_generators, successor_cycles, successor_maps,
                     time_limit)

from tracehom import alphabet, chains, intlinalg
from tracehom.alphabet import (IndependenceAlphabet, clique_counts,
                               max_clique_size)
from tracehom.chains import (BASEPOINT_ONLY, DELTA, PUNCTURED, SYSTEMS,
                             boundary_matrix, build_complex, enumerate_basis,
                             homology)
from tracehom.intlinalg import (AbelianGroup, BoundaryCompositionError,
                                IntegerMatrix, homology_of_complex,
                                smith_normal_form)
from tracehom.msets import (BASEPOINT, PointedMSet, chain_mset, fan_mset,
                            full_action_from_successor, x0_mset)
from tracehom.simplicial import barycentric_flagification, clique_complex
from tracehom.verify import check_lemma_split

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

SINGLE = IndependenceAlphabet(["e"])
PAIR = IndependenceAlphabet(["a", "b"], [("a", "b")])
CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

Z = AbelianGroup(1)
ZERO = AbelianGroup(0)


def one_point(alpha):
    return PointedMSet(alpha, [], {})


def load_action(name):
    doc = json.loads((PROBLEMS / name).read_text())
    return PointedMSet(IndependenceAlphabet(doc["generators"],
                                            doc["independence"]),
                       doc["elements"], doc["action"])


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_boundary_matches_term_by_term_reference(data):
    """The face-table builder stores exactly the entries that adding up
    every term of every face leaves, all of them +-1 and in shape."""
    alpha = data.draw(alphabets(max_size=8))
    m = data.draw(actions(alpha))
    for system in SYSTEMS.values():
        for n in range(1, max_clique_size(alpha) + 1):
            d = boundary_matrix(m, system, n)
            reference = reference_boundary(m, system, n)
            assert (d.rows, d.cols) == (reference.rows, reference.cols)
            assert d.entries == reference.entries
            assert_column_storage(d)
            assert all(v in (1, -1) for col in d.columns.values()
                       for v in col.values())


def test_boundary_of_a_fixed_point_stores_nothing():
    """A point that every generator fixes contributes zero columns, which
    are not stored; a point that only some generators fix keeps the
    columns of the cliques that move it."""
    fixed = PointedMSet(PAIR, ["x0"], {"x0": {"a": "x0", "b": "x0"}})
    for n in (1, 2):
        d = boundary_matrix(fixed, PUNCTURED, n)
        assert d.cols and d.is_zero() and d.columns == {}
    half = PointedMSet(PAIR, ["x0"], {"x0": {"a": "x0", "b": BASEPOINT}})
    d1 = boundary_matrix(half, PUNCTURED, 1)
    # column 0 is (x0, a), which a fixes; (x0, b) loses x0 to the basepoint
    assert d1.columns == {1: {0: 1}}
    assert_column_storage(d1)


def test_boundary_needs_positive_degree():
    with pytest.raises(ValueError):
        boundary_matrix(x0_mset(SINGLE), DELTA, 0)


def test_complex_shapes_and_edges():
    m = x0_mset(CYCLE4)
    maps = build_complex(m, DELTA)
    assert len(maps) - 2 == 2
    assert [maps[n].cols for n in range(4)] == [2, 8, 8, 0]
    assert maps[0].rows == 0
    assert maps[0].cols == 2
    assert maps[3].rows == 8
    assert maps[3].cols == 0
    # each map starts where the one below it ends
    assert [d.rows for d in maps[1:]] == [d.cols for d in maps[:-1]]
    # past the largest clique every map is zero; a negative top keeps d_0
    high = build_complex(m, DELTA, top=5)
    assert high[:4] == maps
    assert [(d.rows, d.cols) for d in high[4:]] == [(0, 0)] * 3
    assert build_complex(m, DELTA, top=-3) == [IntegerMatrix(0, 2)]
    assert build_complex(m, DELTA, top=-1) == [IntegerMatrix(0, 2)]


def test_boundaries_compose_to_zero():
    rng = random.Random(52)
    for _ in range(15):
        m = random_mset(rng, random_alphabet(rng))
        for name, system in SYSTEMS.items():
            maps = build_complex(m, system)
            for n in range(1, len(maps) - 1):
                assert (maps[n] @ maps[n + 1]).is_zero(), (name, n)


def test_homology_rejects_boundaries_that_do_not_compose():
    """d o d = 0 is checked where homology is taken, so a complex whose
    boundaries were assembled wrong fails there."""
    m = x0_mset(CYCLE4)
    maps = build_complex(m, DELTA)
    d1, d2 = maps[1], maps[2]
    # flip the sign of one entry of d_2 in a row where d_1 is nonzero
    i, j = next((i, j) for i, j in d2.entries
                if any(k == i for _, k in d1.entries))
    broken = IntegerMatrix(d2.rows, d2.cols,
                           {**d2.entries, (i, j): -d2.entries[(i, j)]})
    with pytest.raises(BoundaryCompositionError):
        homology_of_complex([maps[0], d1, broken, maps[3]])


def record_snf_calls(monkeypatch):
    """Wrap the kernel where the reduction calls it; the list collects
    (matrix, columns to drop, result) per call."""
    calls = []

    def recording(m, drop_cols=()):
        result = smith_normal_form(m, drop_cols)
        calls.append((m, drop_cols, result))
        return result

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    return calls


def test_each_boundary_reduced_once_and_shrunk(monkeypatch):
    """One SNF per nonzero boundary, top down; each is handed over whole,
    with the unit pivot rows of the boundary above it to drop."""
    m = load_action("rp2_x0.json")
    maps = build_complex(m, DELTA)
    calls = record_snf_calls(monkeypatch)
    groups = homology(m, DELTA)
    assert [str(g) for g in groups] == ["Z", "Z^31", "Z^90 + Z/2", "Z^60"]
    nonzero = [n for n in range(1, len(maps) - 1) if not maps[n].is_zero()]
    assert len(calls) == len(nonzero) == 3
    assert [d for d, _, _ in calls] == [maps[n] for n in (3, 2, 1)]
    assert calls[0][1] == ()
    for (_, _, above), (below, drop, result) in zip(calls, calls[1:]):
        assert drop == above.pivot_rows
        kept = IntegerMatrix(below.rows, below.cols - len(drop), {
            (i, j - sum(k < j for k in drop)): v
            for (i, j), v in below.entries.items() if j not in drop})
        assert smith_normal_form(kept) == result
        if above.leftover == (0, 0):
            assert kept.cols == below.cols - above.rank
    # the unit sweep leaves the torsion of d_3 behind, and the pivots that
    # reduce it drop nothing from d_2
    snf3 = calls[0][2]
    assert snf3.leftover != (0, 0)
    assert len(calls[1][1]) == snf3.rank - 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reduction_matches_pair_route_oracle(data):
    """The top-down reduction against each degree on its own: Bareiss
    ranks and determinantal factors of the full boundaries, up to a
    drawn degree.  A changed entry that breaks d o d = 0 below it is
    caught."""
    alpha = data.draw(alphabets(max_size=5))
    m = data.draw(actions(alpha, max_elements=3))
    for system in SYSTEMS.values():
        maps = build_complex(m, system)
        top = data.draw(st.integers(-1, len(maps) - 2))
        assert as_pairs(homology_of_complex(maps[:top + 2])) == \
            pair_route_homology(maps[:top + 2])
        changed = change_one_entry(data.draw, maps)
        if changed is not None and not composes_to_zero(changed[:top + 2]):
            with pytest.raises(BoundaryCompositionError):
                homology_of_complex(changed[:top + 2])


def test_reduction_matches_pair_route_oracle_with_dense_leftover():
    """Over the flagified projective plane the unit sweep of d_3 leaves its
    torsion behind.  The pivots that reduce it must not shrink d_2: under
    the fan, d_2 loses rank if they do."""
    alpha = barycentric_flagification(RP2_TRIANGLES)
    cases = [(x0_mset(alpha), system) for system in SYSTEMS.values()]
    for m, system in cases + [(fan_mset(alpha), PUNCTURED)]:
        maps = build_complex(m, system)
        assert as_pairs(homology_of_complex(maps)) == \
            pair_route_homology(maps)


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_euler_characteristic_matches_homology(data):
    """Sum of (-1)^n rank H_n equals sum of (-1)^n dim C_n: free ranks
    checked with no Smith normal form in the oracle."""
    alpha = data.draw(alphabets(max_size=6))
    m = data.draw(actions(alpha))
    for system in SYSTEMS.values():
        maps = build_complex(m, system)
        chi_cells = sum((-1) ** n * d.cols for n, d in enumerate(maps[:-1]))
        chi_ranks = sum((-1) ** n * g.free_rank
                        for n, g in enumerate(homology_of_complex(maps)))
        assert chi_cells == chi_ranks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_degree_zero_counts_the_closed_components(data):
    """H_0 of any action, full or not, in every system: free on the
    components of the transition graph that no step leaves, counted by
    a union-find with no engine code."""
    alpha = data.draw(alphabets(max_size=6))
    m = data.draw(actions(alpha))
    for system in SYSTEMS.values():
        h0 = homology(m, system, 0)[0]
        assert (h0.free_rank, h0.torsion) == \
            (degree_zero_rank(m, system.name), ()), system


def test_degree_zero_counts_the_closed_components_of_random_actions():
    rng = random.Random(12)
    for _ in range(200):
        m = random_mset(rng, random_alphabet(rng, min_size=0))
        for system in SYSTEMS.values():
            assert homology(m, system, 0)[0] == \
                AbelianGroup(degree_zero_rank(m, system.name)), system


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


def universal_coefficients(groups, p):
    """dim H_n(C (x) F_p) = b_n + t_n(p) + t_n-1(p) by the universal
    coefficient theorem, t_n(p) counting the invariant factors of H_n
    that p divides."""
    t = [sum(d % p == 0 for d in g.torsion) for g in groups]
    return [g.free_rank + t[n] + (t[n - 1] if n else 0)
            for n, g in enumerate(groups)]


def test_rank_mod_p_sparse_matches_the_dense_rank():
    rng = random.Random(11)
    for _ in range(200):
        m = random_matrix(rng, lo=-4, hi=4)
        for p in (2, 3, 2 ** 31 - 1):
            assert rank_mod_p_sparse(m, p) == rank_mod(m.to_rows(), p)


@pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS)
def test_mod_p_betti_numbers_of_sd2_rp2_under_a_fan_of_32(system):
    """sd2(RP2) under a full fan of 32 points: the engine's groups, with
    (Z/2)^32 in H_2 under DELTA and PUNCTURED, predict the mod-p Betti
    numbers that the sparse oracle counts, for a small and a large
    prime."""
    with time_limit(30):
        m = full_action_from_successor(
            sd2_rp2(), {f"x{k}": BASEPOINT for k in range(32)})
        boundaries = build_complex(m, system)
        groups = homology(m, system)
        for p in (2, 2 ** 31 - 1):
            assert mod_p_betti(boundaries, p) == \
                universal_coefficients(groups, p)
        if system is DELTA:
            assert mod_p_betti(boundaries, 2) == [1, 181, 572, 392]


@pytest.mark.parametrize("n, counts", [
    (4, [1, 103, 318, 216]),
    (8, [1, 199, 630, 432]),
])
def test_two_point_action_over_a_moore_space(n, counts):
    """PUNCTURED H_2 of the two-point action over the flagified mod-n
    Moore space is its H~_1, Z/n."""
    alpha = barycentric_flagification(moore_faces(n))
    assert clique_counts(alpha) == counts
    assert homology(x0_mset(alpha), PUNCTURED) == \
        [ZERO, ZERO, AbelianGroup(0, (n,)), ZERO]


def test_z4_is_told_apart_from_z2_squared():
    """The two-point action over M(Z/4) and a fan of two over M(Z/2):
    the engine tells Z/4 from (Z/2)^2, and the mod-2 oracle counts one
    2-primary summand in the first and two in the second."""
    x0 = x0_mset(barycentric_flagification(moore_faces(4)))
    fan = fan_mset(barycentric_flagification(moore_faces(2)))
    assert homology(x0, PUNCTURED)[2] == AbelianGroup(0, (4,))
    assert homology(fan, PUNCTURED)[2] == AbelianGroup(0, (2, 2))
    assert mod_p_betti(build_complex(x0, PUNCTURED), 2) == [0, 0, 1, 1]
    assert mod_p_betti(build_complex(fan, PUNCTURED), 2) == [0, 0, 2, 2]


def test_kept_homology_is_handed_out_as_a_fresh_list():
    m = x0_mset(CYCLE4)
    first = homology(m, DELTA)
    expected = list(first)
    first.clear()
    again = homology(m, DELTA)
    assert again == expected
    again[0] = ZERO
    assert homology(m, DELTA) == expected
    assert homology(x0_mset(CYCLE4), DELTA) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kept_homology_matches_a_fresh_computation(data):
    """Two actions over one alphabet keep their homology in the same
    table.  Requests for every system and bound of both, each made twice
    in random order, each give what a complex built for that request
    alone gives, so two different complexes never share an entry."""
    alpha = data.draw(alphabets(max_size=5))
    ms = [data.draw(actions(alpha, max_elements=3)) for _ in range(2)]
    requests = [(m, system, bound) for m in ms for system in SYSTEMS.values()
                for bound in (None, -2, -1, 0, 1, 2, 4)]
    for m, system, bound in data.draw(st.permutations(2 * requests)):
        assert homology(m, system, bound) == \
            homology_of_complex(build_complex(m, system, bound))


def test_equal_image_tables_share_one_kept_entry(monkeypatch):
    """The two-point action under another element name gives the
    reference's PUNCTURED complex, and BASEPOINT of any action gives the
    basepoint fixed by every generator: each is built once."""
    alpha = IndependenceAlphabet(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    built = []
    build = chains.build_complex

    def counting(m, system, top=None):
        built.append((m, system))
        return build(m, system, top)

    monkeypatch.setattr(chains, "build_complex", counting)
    renamed = full_action_from_successor(alpha, {"p": BASEPOINT})
    assert homology(renamed, PUNCTURED) == [ZERO, ZERO, Z]
    assert homology(x0_mset(alpha), PUNCTURED) == [ZERO, ZERO, Z]
    assert built == [(renamed, PUNCTURED)]
    assert len(alpha._kept["homology"]) == 1
    chain, fan = chain_mset(alpha), fan_mset(alpha)
    assert homology(chain, BASEPOINT_ONLY) == \
        homology(fan, BASEPOINT_ONLY) == [Z, 4 * Z, 4 * Z]
    assert built[1:] == [(chain, BASEPOINT_ONLY)]
    # different complexes still get entries of their own
    homology(chain, PUNCTURED)
    homology(fan, PUNCTURED)
    assert len(built) == len(alpha._kept["homology"]) == 4


def test_no_bound_and_the_largest_clique_size_share_one_entry(monkeypatch):
    """homology keys its groups by the bound it resolved, so asking with
    no bound and with w = 2, in either order, builds one complex."""
    built = []
    build = chains.build_complex

    def counting(m, system, top=None):
        built.append(top)
        return build(m, system, top)

    monkeypatch.setattr(chains, "build_complex", counting)
    for bounds in ((None, 2), (2, None)):
        alpha = IndependenceAlphabet(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        m = x0_mset(alpha)
        assert [homology(m, DELTA, b) for b in bounds] == \
            [[Z, 4 * Z, 5 * Z]] * 2
        assert len(alpha._kept["homology"]) == 1
    assert built == [2, 2]


def test_one_image_table_per_action_and_system(monkeypatch):
    """The image table is kept on the action: homology, build_complex and
    every boundary read the one built first, and a result read back
    from the alphabet builds none.  A boundary read from the kept table
    equals one from a fresh copy of the action, in every degree."""
    m = load_action("rp2_x0.json")
    built = []
    basis_points = chains._basis_points

    def counting(m, system):
        built.append((m, system))
        return basis_points(m, system)

    monkeypatch.setattr(chains, "_basis_points", counting)
    homology(m, DELTA)
    check_lemma_split(m)
    assert built == [(m, DELTA), (m, PUNCTURED)]
    fresh = load_action("rp2_x0.json")
    for system in SYSTEMS.values():
        for n in range(1, max_clique_size(m.alphabet) + 2):
            assert boundary_matrix(m, system, n) == \
                boundary_matrix(fresh, system, n), (system, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_face_tables_from_masks_match_name_tuples(data):
    """Asked for the degrees in any order, the face tables derived from
    the clique masks equal the ones looked up by name, entry by entry,
    up to one degree past the top.  The oracle lists its cliques on a
    fresh copy of the alphabet, so it shares no kept level."""
    alpha = data.draw(alphabets(max_size=10))
    fresh = IndependenceAlphabet(alpha.generators, alpha.pairs)
    degrees = data.draw(st.permutations(range(1, len(alpha.generators) + 3)))
    for n in degrees:
        assert alphabet._face_table(alpha, n) == \
            reference_face_table(fresh, n), n


def test_face_tables_from_masks_on_sd2_rp2():
    alpha = sd2_rp2()
    fresh = IndependenceAlphabet(alpha.generators, alpha.pairs)
    for n in range(1, 6):
        assert alphabet._face_table(alpha, n) == \
            reference_face_table(fresh, n), n
    # the homology path builds the tables without naming a clique
    assert "names" not in alpha._kept
    kept = alpha._kept["faces"]
    assert [len(kept[n]) for n in range(1, 5)] == [181, 540, 360, 0]


def test_each_face_table_is_built_once(monkeypatch):
    """The face table of degree n is built from the growth records of
    levels n and n - 1 and the face table of degree n - 1.  Each table
    is built once and kept, in whatever order the degrees are asked
    for, and homology builds none again."""
    built = []
    kept = alphabet._kept

    def recording(owner, kind, key, build, *args):
        def counted(*built_from):
            built.append((kind, key))
            return build(*built_from)
        return kept(owner, kind, key, counted, *args)

    monkeypatch.setattr(alphabet, "_kept", recording)
    gens = [f"e{k}" for k in range(5)]
    alpha = IndependenceAlphabet(gens, combinations(gens, 2))
    for n in (3, 1, 5, 2, 6, 4):
        alphabet._face_table(alpha, n)
    assert sorted(built) == [("faces", n) for n in range(1, 7)]
    homology(x0_mset(alpha), DELTA)
    assert sorted(built) == [("faces", n) for n in range(1, 7)]



def assert_one_object_per_index(maps, seen):
    """Every row and column key of the maps is the first object seen
    with its value."""
    for d in maps:
        for j, column in d.columns.items():
            assert seen.setdefault(j, j) is j
            for i in column:
                assert seen.setdefault(i, i) is i


def check_one_object_per_index(m, later):
    """The maps of m's complex in every system, then the boundaries of a
    later action over the same alphabet, key each basis index by one
    object; so do the boundaries and the augmentation of the alphabet's
    clique complex, among themselves."""
    alpha = m.alphabet
    seen = {}
    for system in SYSTEMS.values():
        assert_one_object_per_index(build_complex(m, system), seen)
    assert_one_object_per_index(
        [boundary_matrix(later, DELTA, n)
         for n in range(1, max_clique_size(alpha) + 2)], seen)
    cx = clique_complex(alpha)
    assert_one_object_per_index(
        [cx.augmentation()]
        + [cx.boundary_matrix(k) for k in range(1, cx.dim + 2)], {})


def test_one_object_per_index_on_sd2_rp2():
    """sd2(RP2) under a fan of two has 543 basis elements in degree 1
    and more above, past the ints that CPython shares anyway."""
    alpha = sd2_rp2()
    check_one_object_per_index(
        fan_mset(alpha),
        full_action_from_successor(alpha, {"x0": "x1", "x1": "x2",
                                           "x2": "x0", "x3": BASEPOINT}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_object_per_index_on_drawn_actions(data):
    alpha = data.draw(alphabets(max_size=8))
    check_one_object_per_index(data.draw(actions(alpha)),
                               data.draw(actions(alpha)))


def test_chains_reads_the_clique_table_through_alphabet_alone():
    """Only ``alphabet`` knows the layout of a clique level's record:
    chains.py imports from it no more than these names."""
    tree = ast.parse(Path(chains.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [f"{base}.{alias.name}" for alias in node.names]
    # a module imported whole ends in "alphabet" and fails the comparison
    assert {name.rpartition(".")[2] for name in imported
            if "alphabet" in name.split(".")} == {
        "_check_size", "_face_table", "_kept", "clique_counts",
        "enumerate_cliques", "max_clique_size"}

def test_bounded_complex_lists_no_higher_clique():
    """A bound top needs d_top+1, whose columns are the (top+1)-cliques:
    levels 0 to top+1 are grown (0 and 1 come with the alphabet, and
    none above w+1 = 7 exists), with the growth record of each level
    from 1 to top+1 that has cliques for its face table.  So top=1
    grows levels 0 to 2 and knows no 3-clique.  No level above is grown
    and no clique is named.  Every bound from -1 to w+2 is asked, each
    on a fresh alphabet."""
    gens = [f"e{k}" for k in range(6)]
    for top in range(-1, 9):
        m = x0_mset(IndependenceAlphabet(gens, combinations(gens, 2)))
        maps = build_complex(m, DELTA, top=top)
        assert len(maps) - 2 == top
        grown = max(1, min(top + 1, 7))
        assert [len(masks) for masks, _, _ in m.alphabet._cliques] == \
            [comb(6, k) for k in range(grown + 1)]
        assert "names" not in m.alphabet._kept
        assert sorted(m.alphabet._kept.get("faces", ())) == \
            list(range(1, min(top + 1, 6) + 1))


def test_bound_above_the_largest_clique_builds_up_to_it(monkeypatch):
    """Above the largest clique size w there are no chains: a bound of
    1000 builds the complex only up to d_w+1, like no bound, and pads the
    groups with zeros."""
    tops = []
    build = chains.build_complex

    def recording(m, system, top=None):
        tops.append(top)
        return build(m, system, top)

    monkeypatch.setattr(chains, "build_complex", recording)
    m = x0_mset(IndependenceAlphabet(CYCLE4.generators, CYCLE4.pairs))
    assert homology(m, DELTA, 1000) == \
        homology(m, DELTA) + [ZERO] * 998
    assert tops == [2, 2]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_zero_boundaries_build_no_face_table(data):
    """A boundary with no cliques above it, like the top map d_w+1, or
    with every rank-1 point fixed, as under BASEPOINT_ONLY, gets no face
    table.  The maps come out equal to the term-by-term reference and to
    a fresh build on copies that share no kept table."""
    alpha = data.draw(alphabets(max_size=8, min_size=1))
    m = x0_mset(alpha)
    w = max_clique_size(alpha)
    homology(m, DELTA)
    assert sorted(alpha._kept["faces"]) == list(range(1, w + 1))

    alpha = IndependenceAlphabet(alpha.generators, alpha.pairs)
    m = data.draw(actions(alpha))
    homology(m, BASEPOINT_ONLY)
    assert "faces" not in alpha._kept

    fresh = IndependenceAlphabet(alpha.generators, alpha.pairs)
    copy = PointedMSet(fresh, m.elements,
                       {x: {e: m.act(x, e) for e in alpha.generators}
                        for x in m.elements})
    for system in SYSTEMS.values():
        maps = build_complex(m, system)
        assert maps == build_complex(copy, system), system
        assert maps[1:] == [reference_boundary(m, system, n)
                            for n in range(1, w + 2)], system


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=6), successor_maps())
def test_full_actions_match_the_closed_form(alpha, successor):
    """An action where every generator acts as one map, with cycles,
    fixed points and trees drawn alike: in every system the homology is
    (N - c) copies of the clique complex's reduced homology one degree
    down plus Z^(c p_n), computed by the dense oracle."""
    m = full_action_from_successor(alpha, successor)
    cycles = sum(BASEPOINT not in cycle
                 for cycle in successor_cycles(successor))
    event(f"cycles among the elements: {cycles}")
    for system in SYSTEMS.values():
        assert as_pairs(homology(m, system)) == \
            closed_form_homology(alpha, successor, system.name), system


def test_full_action_with_torsion_matches_the_closed_form():
    """A 2-cycle beside a chain of three points to the basepoint, over
    sd(RP2) (clique counts [1, 31, 90, 60], H~_1 = Z/2): four copies of
    Z/2 in H_2, next to Z^(c p_2) with c = 1 for PUNCTURED (the 2-cycle)
    and c = 2 for DELTA (the 2-cycle and the basepoint)."""
    alpha = barycentric_flagification(RP2_TRIANGLES)
    successor = {"a": "b", "b": "a", "c": "d", "d": "e", "e": BASEPOINT}
    m = full_action_from_successor(alpha, successor)
    for system in SYSTEMS.values():
        assert as_pairs(homology(m, system)) == \
            closed_form_homology(alpha, successor, system.name), system
    assert homology(m, PUNCTURED)[2] == AbelianGroup(90, (2,) * 4)
    assert homology(m, DELTA)[2] == AbelianGroup(180, (2,) * 4)

def test_full_complete_alphabet_matches_binomials():
    gens = [f"e{k}" for k in range(4)]
    alpha = IndependenceAlphabet(gens, combinations(gens, 2))
    got = homology(one_point(alpha), DELTA)
    assert got == [AbelianGroup(p) for p in clique_counts(alpha)]
