from itertools import combinations
from math import comb
from pathlib import Path
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import alphabets, brute_force_cliques, random_alphabet

from tracehom import ValidationError
from tracehom.alphabet import (IndependenceAlphabet, _growth, _position,
                               clique_counts, enumerate_cliques,
                               max_clique_size)
from tracehom.simplicial import barycentric_flagification, read_face_list

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
COMPLETE3 = IndependenceAlphabet("abc", combinations("abc", 2))
FREE3 = IndependenceAlphabet("abc")


def test_valid_pair():
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    assert alpha.generators == ("a", "b")
    assert len(alpha.pairs) == 1


def test_pairs_normalized_symmetric():
    alpha = IndependenceAlphabet(["a", "b"], [("b", "a"), ("a", "b")])
    assert alpha.pairs == frozenset({("a", "b")})
    assert alpha.independent("a", "b")
    assert alpha.independent("b", "a")
    assert not alpha.independent("a", "a")
    assert CYCLE4.independent("d", "a")
    assert not CYCLE4.independent("c", "a")


def test_reflexive_pair_rejected():
    with pytest.raises(ValidationError, match="reflexive"):
        IndependenceAlphabet(["a"], [("a", "a")])


def test_all_problems_reported_at_once():
    with pytest.raises(ValidationError) as exc:
        IndependenceAlphabet(["a", "a", "*", ""],
                             [("a", "z"), ("a",), ("a", "a")])
    text = str(exc.value)
    assert "duplicate" in text
    assert "reserved" in text
    assert "nonempty string" in text
    assert "unknown" in text
    assert "not a pair" in text
    assert "reflexive" in text
    assert len(exc.value.problems) == 6


def test_index_declaration_order():
    assert [CYCLE4.index(g) for g in "abcd"] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="unknown"):
        CYCLE4.index("z")


def test_independent_unknown_generator():
    with pytest.raises(ValueError):
        CYCLE4.independent("a", "z")


def test_enumerate_cliques_complete():
    assert enumerate_cliques(COMPLETE3, 2) == \
        [("a", "b"), ("a", "c"), ("b", "c")]


def test_enumerate_cliques_free():
    assert enumerate_cliques(FREE3, 2) == []


def test_enumerate_cliques_cycle():
    assert enumerate_cliques(CYCLE4, 0) == [()]
    assert enumerate_cliques(CYCLE4, 2) == \
        [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")]
    assert enumerate_cliques(CYCLE4, 3) == []


def test_enumerate_cliques_negative():
    with pytest.raises(ValueError):
        enumerate_cliques(CYCLE4, -1)


def test_clique_counts():
    assert clique_counts(COMPLETE3) == [1, 3, 3, 1]
    assert clique_counts(FREE3) == [1, 3]
    assert clique_counts(CYCLE4) == [1, 4, 4]
    assert clique_counts(IndependenceAlphabet([])) == [1]


def test_max_clique_size():
    assert max_clique_size(COMPLETE3) == 3
    assert max_clique_size(FREE3) == 1
    assert max_clique_size(CYCLE4) == 2
    assert max_clique_size(IndependenceAlphabet([])) == 0


def test_complete_alphabet_counts_are_binomial():
    gens = [f"e{k}" for k in range(5)]
    alpha = IndependenceAlphabet(gens, combinations(gens, 2))
    assert clique_counts(alpha) == [comb(5, k) for k in range(6)]


def test_cliques_match_brute_force():
    rng = random.Random(31)
    for _ in range(20):
        alpha = random_alphabet(rng)
        for k in range(max_clique_size(alpha) + 2):
            fast = enumerate_cliques(alpha, k)
            assert sorted(fast) == sorted(brute_force_cliques(alpha, k))
            assert len(set(fast)) == len(fast)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_clique_table_matches_brute_force_in_order(data):
    """Asked for the levels in any order, the table lists exactly the
    brute-force cliques, in the same (lexicographic) order."""
    alpha = data.draw(alphabets(max_size=10))
    sizes = data.draw(st.permutations(range(len(alpha.generators) + 2)))
    for k in sizes:
        assert enumerate_cliques(alpha, k) == brute_force_cliques(alpha, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=10))
def test_growth_record_rebuilds_each_clique(alpha):
    """Level by level, the recorded parent and generator of each clique
    rebuild it from the brute-force cliques one level down, the lookup
    gives back each clique's position, and the named levels equal the
    brute-force ones."""
    gens = alpha.generators
    below = [()]
    for k in range(1, len(gens) + 2):
        parents, added = _growth(alpha, k)
        level = brute_force_cliques(alpha, k)
        assert [below[p] + (gens[j],) for p, j in zip(parents, added)] == \
            level
        assert _position(alpha, k) == {pair: c for c, pair
                                       in enumerate(zip(parents, added))}
        assert enumerate_cliques(alpha, k) == level
        below = level


def test_returned_cliques_are_a_fresh_list():
    alpha = IndependenceAlphabet(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    first = enumerate_cliques(alpha, 2)
    first.append(("a", "c"))
    del first[0]
    enumerate_cliques(alpha, 0).clear()
    assert enumerate_cliques(alpha, 2) == \
        [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")]
    assert enumerate_cliques(alpha, 0) == [()]


def corpus_alphabets():
    for path in sorted(PROBLEMS.glob("*.json")):
        doc = json.loads(path.read_text())
        yield path.name, IndependenceAlphabet(doc["generators"],
                                              doc.get("independence", []))
    faces = read_face_list((PROBLEMS / "rp2_faces.txt").read_text())
    yield "rp2_faces.txt", barycentric_flagification(faces)


@pytest.mark.parametrize("alpha", [pytest.param(alpha, id=name)
                                   for name, alpha in corpus_alphabets()])
def test_clique_counts_on_corpus(alpha):
    expected = [1]
    while True:
        n = len(brute_force_cliques(alpha, len(expected)))
        if not n:
            break
        expected.append(n)
    assert clique_counts(alpha) == expected
