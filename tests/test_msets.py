import random
from math import factorial

import pytest
from helpers import random_alphabet, random_mset, relabel_elements

from tracehom import ValidationError
from tracehom.alphabet import IndependenceAlphabet
from tracehom.msets import (BASEPOINT, PointedMSet, bijection_count,
                            chain_mset, check_conditions, fan_mset,
                            full_action_from_successor, iso_check, x0_mset)

EMPTY = IndependenceAlphabet([])
SINGLE = IndependenceAlphabet(["e"])
PAIR_FREE = IndependenceAlphabet(["e1", "e2"])
CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def example_one_element():
    return PointedMSet(SINGLE, ["x0"], {"x0": {"e": BASEPOINT}})


def not_full_mset():
    # x0.e1 = x1 but x0.e2 = *, so the generators disagree at x0
    return PointedMSet(PAIR_FREE, ["x0", "x1"], {
        "x0": {"e1": "x1", "e2": BASEPOINT},
        "x1": {"e1": BASEPOINT, "e2": BASEPOINT},
    })


# --- validation ----------------------------------------------------------

def test_minimal_valid_mset():
    m = example_one_element()
    assert m.carrier == ("x0", BASEPOINT)
    assert m.act("x0", "e") == BASEPOINT
    assert m.act(BASEPOINT, "e") == BASEPOINT


def test_explicit_basepoint_row_allowed():
    m = PointedMSet(SINGLE, ["x0"],
                    {"x0": {"e": "*"}, "*": {"e": "*"}})
    assert m.act("*", "e") == "*"


def test_basepoint_moved_rejected():
    with pytest.raises(ValidationError, match="basepoint moved"):
        PointedMSet(SINGLE, ["x0"],
                    {"x0": {"e": "*"}, "*": {"e": "x0"}})


def test_missing_cell_named():
    with pytest.raises(ValidationError, match=r"\('x0', 'e2'\)"):
        PointedMSet(PAIR_FREE, ["x0"], {"x0": {"e1": "*"}})


def test_missing_row_reports_every_cell():
    with pytest.raises(ValidationError) as exc:
        PointedMSet(PAIR_FREE, ["x0", "x1"], {"x0": {"e1": "*", "e2": "*"}})
    assert len(exc.value.problems) == 2


def test_undeclared_row_rejected():
    with pytest.raises(ValidationError, match="undeclared"):
        PointedMSet(SINGLE, ["x0"],
                    {"x0": {"e": "*"}, "ghost": {"e": "*"}})


def test_unknown_generator_in_row_rejected():
    with pytest.raises(ValidationError, match="unknown generator"):
        PointedMSet(SINGLE, ["x0"], {"x0": {"e": "*", "f": "*"}})


def test_bad_target_rejected():
    with pytest.raises(ValidationError, match="not an element"):
        PointedMSet(SINGLE, ["x0"], {"x0": {"e": "nowhere"}})


def test_reserved_and_duplicate_element_names():
    with pytest.raises(ValidationError) as exc:
        PointedMSet(SINGLE, ["*", "x0", "x0"],
                    {"x0": {"e": "*"}, "*": {"e": "*"}})
    text = str(exc.value)
    assert "reserved" in text
    assert "duplicate" in text


def test_commutation_violation_located():
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    action = {
        "x0": {"a": "x1", "b": "x2"},
        "x1": {"a": "*", "b": "*"},
        "x2": {"a": "x3", "b": "*"},
        "x3": {"a": "*", "b": "*"},
    }
    with pytest.raises(ValidationError, match="commutation fails at 'x0'"):
        PointedMSet(alpha, ["x0", "x1", "x2", "x3"], action)


def test_commutation_not_checked_when_cells_missing():
    # the incomplete table is reported as such, not as a crash inside
    # the commutation scan
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    with pytest.raises(ValidationError, match="missing action entry"):
        PointedMSet(alpha, ["x0"], {"x0": {"a": "x0"}})


def test_same_image_always_commutes():
    # any shared-successor table is valid whatever the independence
    alpha = IndependenceAlphabet("ab", [("a", "b")])
    m = full_action_from_successor(alpha, {"x0": "x1", "x1": "x1"})
    assert m.act("x0", "a") == m.act("x0", "b") == "x1"


# --- action --------------------------------------------------------------

def test_independent_letters_interchange():
    rng = random.Random(4)
    for _ in range(15):
        m = random_mset(rng, random_alphabet(rng))
        for a, b in m.alphabet.pairs:
            for x in m.carrier:
                assert m.act(m.act(x, a), b) == m.act(m.act(x, b), a)


def test_act_unknown_element():
    with pytest.raises(ValueError):
        example_one_element().act("nope", "e")


# --- full action / transition graph / conditions -------------------------

# name -> (action builder, full, tree)
CONDITIONS = {
    "one_element": (example_one_element, True, True),
    "chain": (lambda: chain_mset(CYCLE4), True, True),
    "fan": (lambda: fan_mset(CYCLE4), True, True),
    "fan_pair_free": (lambda: fan_mset(PAIR_FREE), True, True),
    "two_cycle": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x1", "x1": "x0"}), True, False),
    "element_self_loop": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x0"}), True, False),
    "self_loop_below_element": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x1", "x1": "x1"}), True, False),
    "not_full": (not_full_mset, False, False),
    "no_generators_one_element": (
        lambda: PointedMSet(EMPTY, ["x0"], {"x0": {}}), True, False),
    "no_generators_no_elements": (
        lambda: PointedMSet(EMPTY, [], {}), True, True),
}


@pytest.mark.parametrize("name", CONDITIONS)
def test_check_conditions_table(name):
    make, full, tree = CONDITIONS[name]
    report = check_conditions(make())
    assert (report.full, report.tree) == (full, tree)
    assert report.satisfied == (full and tree)
    assert (report.violations == ()) == (full and tree)


def test_is_full_action():
    assert check_conditions(fan_mset(PAIR_FREE)).full
    assert not check_conditions(not_full_mset()).full
    assert check_conditions(PointedMSet(PAIR_FREE, [], {})).full


def test_transition_graph_disagreement_gives_no_edge():
    # x0's generators disagree, so x0 has no edge and the graph is no
    # tree; x1 keeps its edge to the basepoint and is not reported
    report = check_conditions(not_full_mset())
    assert not report.tree
    assert [v for v in report.violations if "not full" in v] == [
        "action not full at 'x0': x0.e1 = x1, x0.e2 = *"]


def test_check_conditions_fan_of_three():
    fan = full_action_from_successor(
        CYCLE4, {"x0": "x1", "x1": "*", "x2": "x1", "x3": "x1"})
    report = check_conditions(fan)
    assert (report.full, report.tree) == (True, True)
    assert report.satisfied
    assert report.violations == ()


def test_check_conditions_one_point():
    m = PointedMSet(CYCLE4, [], {})
    assert check_conditions(m).satisfied


def test_check_conditions_not_full():
    report = check_conditions(not_full_mset())
    assert not report.full
    assert not report.satisfied
    assert any("not full at 'x0'" in v for v in report.violations)


def test_check_conditions_cycle_not_tree():
    two_cycle = full_action_from_successor(SINGLE, {"x0": "x1", "x1": "x0"})
    report = check_conditions(two_cycle)
    assert report.full and not report.tree
    assert any("rooted" in v for v in report.violations)


# --- isomorphism search --------------------------------------------------

def test_iso_self():
    m = chain_mset(CYCLE4)
    witness = iso_check(m, m)
    assert witness == {"x0": "x0", "x1": "x1", BASEPOINT: BASEPOINT}


def test_iso_chain_vs_fan():
    assert iso_check(chain_mset(CYCLE4), fan_mset(CYCLE4)) is None
    assert iso_check(fan_mset(CYCLE4), chain_mset(CYCLE4)) is None


def test_iso_chain_vs_fan_single_generator():
    assert iso_check(chain_mset(SINGLE), fan_mset(SINGLE)) is None


def test_iso_relabeled_chain():
    chain = chain_mset(SINGLE)
    flipped = full_action_from_successor(
        SINGLE, {"y1": "y0", "y0": BASEPOINT})
    witness = iso_check(chain, flipped)
    assert witness == {"x0": "y1", "x1": "y0", BASEPOINT: BASEPOINT}


def test_iso_size_mismatch():
    assert iso_check(x0_mset(CYCLE4), chain_mset(CYCLE4)) is None


def test_iso_alphabet_mismatch():
    with pytest.raises(ValueError, match="different alphabets"):
        iso_check(chain_mset(CYCLE4), chain_mset(SINGLE))


def test_iso_witness_is_equivariant():
    rng = random.Random(13)
    found = 0
    for _ in range(20):
        m = random_mset(rng, random_alphabet(rng))
        other = relabel_elements(m)
        witness = iso_check(m, other)
        assert witness is not None
        found += 1
        for x in m.carrier:
            for e in m.alphabet.generators:
                assert witness[m.act(x, e)] == other.act(witness[x], e)
    assert found == 20


def test_iso_is_symmetric():
    rng = random.Random(77)
    for _ in range(15):
        alpha = random_alphabet(rng, max_size=3)
        m1 = random_mset(rng, alpha, max_elements=3)
        m2 = random_mset(rng, alpha, max_elements=3)
        assert (iso_check(m1, m2) is None) == (iso_check(m2, m1) is None)


def test_bijection_count():
    assert bijection_count(x0_mset(SINGLE)) == 1
    assert bijection_count(chain_mset(SINGLE)) == 2
    m = full_action_from_successor(
        SINGLE, {f"x{k}": BASEPOINT for k in range(5)})
    assert bijection_count(m) == factorial(5)
