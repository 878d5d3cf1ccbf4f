import ast
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (RP2_TRIANGLES, alphabets, as_pairs,
                     assert_column_storage, change_one_entry,
                     composes_to_zero, moore_faces, pair_route_homology,
                     random_alphabet)

from tracehom import ValidationError, alphabet, intlinalg, simplicial
from tracehom.alphabet import (IndependenceAlphabet, clique_counts,
                               max_clique_size)
from tracehom.intlinalg import (AbelianGroup, BoundaryCompositionError,
                                IntegerMatrix, smith_normal_form)
from tracehom.simplicial import (SimplicialComplex, barycentric_flagification,
                                 clique_complex, read_face_list)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

Z = AbelianGroup(1)
ZERO = AbelianGroup(0)
Z2 = AbelianGroup(0, (2,))

def rp2_complex():
    return SimplicialComplex.from_maximal_faces(RP2_TRIANGLES)


# --- construction and validation -----------------------------------------

def test_from_maximal_faces_closure():
    cx = SimplicialComplex.from_maximal_faces([("a", "b", "c")])
    assert [cx.count(k) for k in range(3)] == [3, 3, 1]
    assert cx.dim == 2


def test_vertices_sorted_token_order():
    cx = SimplicialComplex.from_maximal_faces([("b", "a")])
    assert cx.vertices == ("a", "b")
    assert cx.simplices[1] == [("a", "b")]


def test_empty_face_rejected():
    with pytest.raises(ValidationError, match="empty face"):
        SimplicialComplex.from_maximal_faces([()])


def test_no_faces_gives_empty_complex():
    cx = SimplicialComplex.from_maximal_faces([])
    assert cx.vertices == ()
    assert cx.dim == -1
    assert cx.reduced_homology() == []


def problems_of(vertices, levels):
    with pytest.raises(ValidationError) as info:
        SimplicialComplex(vertices, levels)
    return info.value.problems


def test_missing_face_rejected():
    assert problems_of(["a", "b"], [[("a",)], [("a", "b")]]) == \
        ("missing face ('b',) of ('a', 'b')",)


def test_unsorted_simplex_rejected():
    assert problems_of(["a", "b"], [[("a",), ("b",)], [("b", "a")]]) == \
        ("simplex ('b', 'a') is not a sorted vertex tuple",)
    assert problems_of(["a", "b"], [[("a",), ("b",)], [("a", "a")]]) == \
        ("simplex ('a', 'a') is not a sorted vertex tuple",)
    assert problems_of(["a"], [[("z",)]]) == \
        ("simplex ('z',) is not a sorted vertex tuple",)


def test_wrong_dimension_rejected():
    assert problems_of(["a", "b"], [[("a", "b")]]) == \
        ("simplex ('a', 'b') is not 0-dimensional",)


def test_duplicate_vertices_rejected():
    assert problems_of(["a", "a"], [[("a",)]]) == ("duplicate vertices",)


def test_simplex_listed_twice_rejected():
    """A repeated simplex would count twice: a one-point complex would
    have reduced H_0 = Z, and one edge over a and b a false H_1 = Z.  It
    is named after the level's other checks, so a level that also holds
    a malformed simplex reports that one."""
    assert problems_of(["a"], [[("a",), ("a",)]]) == \
        ("simplex ('a',) is listed twice",)
    edge_twice = [[("a",), ("b",)], [("a", "b"), ("a", "b")]]
    assert problems_of(["a", "b"], edge_twice) == \
        ("simplex ('a', 'b') is listed twice",)
    assert problems_of(["a"], [[("a",), ("a",), ("z",)]]) == \
        ("simplex ('z',) is not a sorted vertex tuple",)


def test_missing_face_named_first_in_combinations_order():
    """(a, b, c) lacks the edges ac and bc; combinations lists ab, ac,
    bc, so ac is the one named."""
    vertices = ["a", "b", "c"]
    levels = [[("a",), ("b",), ("c",)], [("a", "b")], [("a", "b", "c")]]
    assert problems_of(vertices, levels) == \
        ("missing face ('a', 'c') of ('a', 'b', 'c')",)
    assert problems_of(["a", "b"], [[], [("a", "b")]]) == \
        ("missing face ('a',) of ('a', 'b')",)


def test_every_level_validated_before_closure():
    """Level 1 misses the vertex c and level 2 holds an unsorted
    simplex: the unsorted simplex is reported."""
    levels = [[("a",), ("b",)], [("a", "c")], [("b", "a", "c")]]
    assert problems_of(["a", "b", "c"], levels) == \
        ("simplex ('b', 'a', 'c') is not a sorted vertex tuple",)


# --- homology ------------------------------------------------------------

def test_single_vertex_contractible():
    cx = SimplicialComplex.from_maximal_faces([("a",)])
    assert cx.reduced_homology() == [ZERO]


def test_two_isolated_vertices():
    cx = SimplicialComplex.from_maximal_faces([("a",), ("b",)])
    assert cx.reduced_homology() == [Z]


def test_circle():
    cx = SimplicialComplex.from_maximal_faces(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert cx.reduced_homology() == [ZERO, Z]


def test_solid_triangle_contractible():
    cx = SimplicialComplex.from_maximal_faces([("a", "b", "c")])
    assert cx.reduced_homology() == [ZERO, ZERO, ZERO]


def test_projective_plane():
    cx = rp2_complex()
    assert [cx.count(k) for k in range(3)] == [6, 15, 10]
    assert cx.euler_characteristic() == 1
    assert cx.reduced_homology() == [ZERO, Z2, ZERO]


def test_boundary_matrix_edges():
    cx = SimplicialComplex.from_maximal_faces([("a", "b")])
    assert cx.boundary_matrix(1).to_rows() == [[-1], [1]]
    past_top = cx.boundary_matrix(2)
    assert (past_top.rows, past_top.cols) == (1, 0)
    with pytest.raises(ValueError):
        cx.boundary_matrix(0)


def face_sum_boundary(cx, k):
    """d_k term by term through the public constructor: the face that
    drops vertex i of a simplex gets the sign (-1)^i, its row found by
    searching the level below."""
    lower = cx.simplices[k - 1]
    upper = cx.simplices[k] if k <= cx.dim else []
    entries = {}
    for col, simplex in enumerate(upper):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            entries[(lower.index(face), col)] = (-1) ** i
    return IntegerMatrix(len(lower), len(upper), entries)


def assert_boundaries_term_by_term(cx):
    n = cx.count(0)
    augmentation = cx.augmentation()
    assert augmentation == IntegerMatrix(1, n, {(0, j): 1 for j in range(n)})
    assert_column_storage(augmentation)
    for k in range(1, cx.dim + 2):
        d = cx.boundary_matrix(k)
        assert d == face_sum_boundary(cx, k), k
        assert_column_storage(d)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1), max_size=6))
def test_boundaries_of_drawn_faces_term_by_term(faces):
    assert_boundaries_term_by_term(SimplicialComplex.from_maximal_faces(faces))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=8))
def test_boundaries_of_clique_complexes_term_by_term(alpha):
    assert_boundaries_term_by_term(clique_complex(alpha))


def test_euler_characteristic():
    assert rp2_complex().euler_characteristic() == 1
    disc = SimplicialComplex.from_maximal_faces([("a", "b", "c")])
    assert disc.euler_characteristic() == 1


# --- clique complexes ----------------------------------------------------

def test_clique_complex_cycle4():
    alpha = IndependenceAlphabet(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    cx = clique_complex(alpha)
    assert [cx.count(k) for k in range(2)] == [4, 4]
    assert cx.dim == 1
    assert cx.reduced_homology() == [ZERO, Z]


def test_clique_complex_complete3():
    alpha = IndependenceAlphabet("abc", combinations("abc", 2))
    cx = clique_complex(alpha)
    assert cx.reduced_homology() == [ZERO, ZERO, ZERO]


def test_clique_complex_counts_match():
    rng = random.Random(17)
    for _ in range(15):
        alpha = random_alphabet(rng)
        cx = clique_complex(alpha)
        counts = clique_counts(alpha)
        assert [cx.count(k) for k in range(cx.dim + 1)] == counts[1:]
        assert cx.euler_characteristic() == \
            sum((-1) ** k * p for k, p in enumerate(counts[1:]))



def test_clique_complex_cap_counts_the_simplices_it_would_list(monkeypatch):
    """The complete alphabet on 4 generators has levels 4, 6, 4 and 1:
    its 1-skeleton holds 10 simplices and the whole complex 15."""
    alpha = IndependenceAlphabet("abcd", combinations("abcd", 2))
    monkeypatch.setattr(alphabet, "_SIZE_CAP", 10)
    assert clique_complex(alpha, 1).count(1) == 6
    with pytest.raises(ValidationError) as info:
        clique_complex(alpha)
    assert info.value.problems == (
        "too large: the clique complex would hold 15 simplices; "
        "the limit is 10",)
    monkeypatch.setattr(alphabet, "_SIZE_CAP", 9)
    with pytest.raises(ValidationError, match="would hold 10 simplices"):
        clique_complex(alpha, 1)

@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=8, min_size=1))
def test_reduced_euler_characteristic_matches_homology(alpha):
    """Sum of (-1)^n rank of reduced H_n equals the Euler characteristic
    minus one, the empty simplex's term."""
    cx = clique_complex(alpha)
    ranks = sum((-1) ** n * g.free_rank
                for n, g in enumerate(cx.reduced_homology()))
    assert ranks == cx.euler_characteristic() - 1


def maps_of(cx):
    """The augmentation and the boundaries that reduced homology takes."""
    return [cx.augmentation()] + [cx.boundary_matrix(k)
                                  for k in range(1, cx.dim + 2)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=7, min_size=1), st.data())
def test_reduction_matches_pair_route_oracle(alpha, data):
    """The top-down reduction against each degree on its own: Bareiss
    ranks and determinantal factors of the augmentation and the full
    boundaries; a changed entry that breaks d o d = 0 is caught."""
    cx = clique_complex(alpha)
    maps = maps_of(cx)
    assert as_pairs(cx.reduced_homology()) == pair_route_homology(maps)
    changed = change_one_entry(data.draw, maps)
    if not composes_to_zero(changed):
        with pytest.raises(BoundaryCompositionError):
            intlinalg.homology_of_complex(changed)


def test_each_boundary_reduced_once_and_shrunk(monkeypatch):
    """One SNF per nonzero map, top down, the augmentation included;
    each is handed over whole, with the unit pivot rows of the map above
    it to drop."""
    cx = clique_complex(barycentric_flagification(RP2_TRIANGLES))
    assert as_pairs(cx.reduced_homology()) == pair_route_homology(maps_of(cx))
    calls = []

    def recording(m, drop_cols=()):
        result = smith_normal_form(m, drop_cols)
        calls.append((m, drop_cols, result))
        return result

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    assert cx.reduced_homology() == [ZERO, Z2, ZERO]
    # the unit sweep of d_2 leaves the torsion behind
    assert calls[0][2].leftover != (0, 0)
    assert [d for d, _, _ in calls] == maps_of(cx)[-2::-1]
    assert calls[0][1] == ()
    for (_, _, above), (_, drop, _) in zip(calls, calls[1:]):
        assert drop == above.pivot_rows


def test_reduced_homology_rejects_boundaries_that_do_not_compose(
        monkeypatch):
    """d o d = 0 is checked where homology is taken, on this route too:
    one flipped sign in d_2 of a solid triangle raises."""
    cx = clique_complex(IndependenceAlphabet("abc", [("a", "b"), ("b", "c"),
                                                     ("a", "c")]))
    d2 = cx.boundary_matrix(2)
    key = next(iter(d2.entries))
    broken = IntegerMatrix(d2.rows, d2.cols,
                           {**d2.entries, key: -d2.entries[key]})
    real = type(cx).boundary_matrix
    monkeypatch.setattr(type(cx), "boundary_matrix",
                        lambda self, k: broken if k == 2 else real(self, k))
    with pytest.raises(BoundaryCompositionError):
        cx.reduced_homology()


# --- face lists ----------------------------------------------------------

def test_read_face_list():
    faces = read_face_list("# heading\n1 2 4\n\n  # indented comment\n5 6\n")
    assert faces == [["1", "2", "4"], ["5", "6"]]


def test_read_face_list_repeated_vertex():
    with pytest.raises(ValidationError, match="line 2"):
        read_face_list("1 2\n3 3\n")


def test_read_face_list_hash_inside_a_face_line():
    """'#' starts a comment line only; a '#' token later in a face line
    is an error, not a vertex, and every bad line is named."""
    text = "#a b\n a b c # tri\nd e\nf f\ng #h #h\nx#y z\n"
    with pytest.raises(ValidationError) as info:
        read_face_list(text)
    assert info.value.problems == (
        "line 2: '#' starts a comment only at the start of a line: "
        "'a b c # tri'",
        "line 4: face repeats a vertex: 'f f'",
        "line 5: '#' starts a comment only at the start of a line: "
        "'g #h #h'",
        "line 5: face repeats a vertex: 'g #h #h'",
    )
    assert read_face_list("#a b\nd e\nx#y z\n") == [["d", "e"], ["x#y", "z"]]


# --- barycentric flagification -------------------------------------------

def test_flagification_hollow_triangle():
    alpha = barycentric_flagification([("a", "b"), ("a", "c"), ("b", "c")])
    assert alpha.generators == ("a", "b", "c", "a,b", "a,c", "b,c")
    assert len(alpha.pairs) == 6
    assert clique_counts(alpha) == [1, 6, 6]
    assert clique_complex(alpha).reduced_homology() == [ZERO, Z]


def test_flagification_solid_triangle():
    alpha = barycentric_flagification([("a", "b", "c")])
    assert len(alpha.generators) == 7
    assert clique_complex(alpha).reduced_homology() == [ZERO, ZERO, ZERO]


def test_flagification_orders_faces_by_dimension():
    alpha = barycentric_flagification([("1", "2"), ("1", "3")])
    assert alpha.generators == ("1", "2", "3", "1,2", "1,3")
    assert alpha.independent("1", "1,2")
    assert not alpha.independent("2", "1,3")


def test_flagification_names_every_pair_of_faces_whose_names_collide():
    with pytest.raises(ValidationError) as info:
        barycentric_flagification([("a,b", "c"), ("a", "b"), ("a", "b,c")])
    rule = "a vertex name must not contain ','"
    assert info.value.problems == (
        f"faces ('a,b',) and ('a', 'b') both get the generator name "
        f"'a,b': {rule}",
        f"faces ('a', 'b,c') and ('a,b', 'c') both get the generator name "
        f"'a,b,c': {rule}")


def test_flagification_face_list_cap_counts_each_distinct_face_once(
        monkeypatch):
    """a b, c and b a list the subfaces a, b, ab and c: the repeated face
    counts once."""
    faces = [("a", "b"), ("c",), ("b", "a")]
    monkeypatch.setattr(alphabet, "_SIZE_CAP", 4)
    assert len(barycentric_flagification(faces).generators) == 4
    monkeypatch.setattr(alphabet, "_SIZE_CAP", 3)
    with pytest.raises(ValidationError) as info:
        barycentric_flagification(faces)
    assert info.value.problems == (
        "too large: the face list would hold 4 faces; the limit is 3",)


def test_flagification_projective_plane():
    alpha = barycentric_flagification(RP2_TRIANGLES)
    assert len(alpha.generators) == 31
    assert len(alpha.pairs) == 90
    assert clique_counts(alpha) == [1, 31, 90, 60]
    assert max_clique_size(alpha) == 3
    assert clique_complex(alpha).reduced_homology() == [ZERO, Z2, ZERO]


def test_moore_space_has_three_torsion():
    """A disc wrapped three times round a circle: Z/3 in degree 1,
    directly and through its flagified alphabet."""
    z3 = AbelianGroup(0, (3,))
    direct = SimplicialComplex.from_maximal_faces(moore_faces(3))
    assert [direct.count(k) for k in range(3)] == [13, 39, 27]
    assert direct.reduced_homology() == [ZERO, z3, ZERO]
    alpha = barycentric_flagification(moore_faces(3))
    assert clique_counts(alpha) == [1, 79, 240, 162]
    assert clique_complex(alpha).reduced_homology() == [ZERO, z3, ZERO]


def test_flagification_is_subdivision():
    # the flagified alphabet's clique complex must carry the homology of
    # the complex it came from
    cases = [
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        [("a", "b", "c")],
        [("a",), ("b",)],
        RP2_TRIANGLES,
    ]
    rng = random.Random(59)
    verts = "pqrstu"
    for _ in range(6):
        cases.append([rng.sample(verts, rng.randint(1, 3))
                      for _ in range(rng.randint(1, 4))])
    for faces in cases:
        direct = SimplicialComplex.from_maximal_faces(faces)
        subdivided = clique_complex(barycentric_flagification(faces))
        lhs = direct.reduced_homology()
        rhs = subdivided.reduced_homology()
        depth = max(len(lhs), len(rhs))
        pad = lambda h: h + [ZERO] * (depth - len(h))
        assert pad(lhs) == pad(rhs), faces


def test_bundled_flagified_alphabet_is_reproducible():
    faces = read_face_list((PROBLEMS / "rp2_faces.txt").read_text())
    alpha = barycentric_flagification(faces)
    doc = json.loads((PROBLEMS / "rp2_x0.json").read_text())
    bundled = IndependenceAlphabet(doc["generators"], doc["independence"])
    assert bundled == alpha


# --- independence of the two routes ---------------------------------------

def test_simplicial_route_imports_nothing_from_chains():
    """``verify``'s main and aug identities compare the chains route with
    this one; they stay two implementations only while simplicial.py
    imports nothing from chains.py."""
    tree = ast.parse(Path(simplicial.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.append(base)
            imported += [f"{base}.{alias.name}" for alias in node.names]
    assert imported
    for name in imported:
        assert "chains" not in name.split("."), name
