import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from helpers import RP2_TRIANGLES, random_alphabet

from tracehom import ValidationError
from tracehom.alphabet import (IndependenceAlphabet, clique_counts,
                               max_clique_size)
from tracehom.intlinalg import AbelianGroup
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


def test_missing_face_rejected():
    with pytest.raises(ValidationError, match="missing face"):
        SimplicialComplex(["a", "b"], [[("a",)], [("a", "b")]])


def test_unsorted_simplex_rejected():
    with pytest.raises(ValidationError, match="sorted"):
        SimplicialComplex(["a", "b"], [[("a",), ("b",)], [("b", "a")]])


def test_wrong_dimension_rejected():
    with pytest.raises(ValidationError, match="not 0-dimensional"):
        SimplicialComplex(["a", "b"], [[("a", "b")]])


def test_duplicate_vertices_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        SimplicialComplex(["a", "a"], [[("a",)]])


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


# --- face lists ----------------------------------------------------------

def test_read_face_list():
    faces = read_face_list("# heading\n1 2 4\n\n  # indented comment\n5 6\n")
    assert faces == [["1", "2", "4"], ["5", "6"]]


def test_read_face_list_repeated_vertex():
    with pytest.raises(ValidationError, match="line 2"):
        read_face_list("1 2\n3 3\n")


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


def test_flagification_projective_plane():
    alpha = barycentric_flagification(RP2_TRIANGLES)
    assert len(alpha.generators) == 31
    assert len(alpha.pairs) == 90
    assert clique_counts(alpha) == [1, 31, 90, 60]
    assert max_clique_size(alpha) == 3
    assert clique_complex(alpha).reduced_homology() == [ZERO, Z2, ZERO]


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
