import random
from itertools import combinations

from hypothesis import given, settings
from helpers import alphabets, random_alphabet, random_mset

from tracehom.alphabet import IndependenceAlphabet
from tracehom.intlinalg import AbelianGroup
from tracehom.msets import (BASEPOINT, PointedMSet,
                            full_action_from_successor, x0_mset)
from tracehom.verify import (ALL_CHECKS, DegreeComparison,
                             VerificationReport, check_lemma_split,
                             check_prop_power, check_theorem_aug,
                             check_theorem_main, counterexample_report)

SINGLE = IndependenceAlphabet(["e"])
CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
COMPLETE3 = IndependenceAlphabet("abc", combinations("abc", 2))

Z = AbelianGroup(1)
ZERO = AbelianGroup(0)


def fan_of_three(alpha):
    return full_action_from_successor(
        alpha, {"x0": "x1", "x1": BASEPOINT, "x2": "x1", "x3": "x1"})


def random_tree_mset(rng, alpha, max_elements=4):
    """Full action whose reduced graph is a tree: each element points at
    a strictly later element or the basepoint."""
    n = rng.randint(0, max_elements)
    names = [f"x{k}" for k in range(n)]
    successor = {x: rng.choice(names[k + 1:] + [BASEPOINT])
                 for k, x in enumerate(names)}
    return full_action_from_successor(alpha, successor)


# --- report plumbing ------------------------------------------------------

def test_groups_isomorphic():
    # descriptors are canonical, so == is group isomorphism
    assert AbelianGroup(1) == AbelianGroup(1)
    assert AbelianGroup(0, (2, 4)) != AbelianGroup(0, (8,))
    assert AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))


def test_direct_sum_examples():
    assert AbelianGroup(2, (2,)) + Z == AbelianGroup(3, (2,))
    assert AbelianGroup(0, (2,)) + AbelianGroup(0, (2,)) == \
        AbelianGroup(0, (2, 2))
    assert AbelianGroup(0, (2,)) + AbelianGroup(0, (3,)) == \
        AbelianGroup(0, (6,))


def test_report_status_and_witness():
    good = DegreeComparison(1, Z, Z)
    bad = DegreeComparison(2, Z, ZERO)
    report = VerificationReport("split", True, (good, bad))
    assert not report.holds
    assert report.status == "FAIL"
    assert report.witness is bad
    assert VerificationReport("split", True, (good,)).status == "PASS"
    na = VerificationReport("power", False, note="why not")
    assert na.status == "N-A"
    assert not na.holds


def test_all_checks_registry():
    assert ALL_CHECKS == ("split", "power", "main", "aug")


# --- split ----------------------------------------------------------------

def test_split_frozen_reference():
    report = check_lemma_split(x0_mset(CYCLE4))
    assert report.holds
    assert [(c.degree, c.lhs) for c in report.comparisons] == \
        [(1, 4 * Z), (2, 5 * Z)]


def test_split_one_point():
    m = PointedMSet(COMPLETE3, [], {})
    assert check_lemma_split(m).holds


def test_split_holds_for_random_msets():
    rng = random.Random(88)
    for _ in range(15):
        m = random_mset(rng, random_alphabet(rng, max_size=5))
        report = check_lemma_split(m)
        assert report.applicable
        assert report.holds, report.witness


def test_split_holds_for_non_tree_action():
    # the splitting needs no conditions at all
    loop = full_action_from_successor(CYCLE4, {"x0": "x0"})
    assert check_lemma_split(loop).holds


# --- power ----------------------------------------------------------------

def test_power_reference_is_tautological():
    report = check_prop_power(x0_mset(CYCLE4))
    assert report.holds


def test_power_fan_squares_reference():
    fan = full_action_from_successor(
        CYCLE4, {"x0": BASEPOINT, "x1": BASEPOINT})
    report = check_prop_power(fan)
    assert report.holds
    assert report.comparisons[1].lhs == 2 * Z  # degree 2, two copies of Z


def test_power_fan_of_three_fourth_power():
    report = check_prop_power(fan_of_three(CYCLE4))
    assert report.holds
    assert report.comparisons[1].lhs == 4 * Z


def test_power_not_applicable_without_full_action():
    pair = IndependenceAlphabet(["e1", "e2"])
    skewed = PointedMSet(pair, ["x0", "x1"], {
        "x0": {"e1": "x1", "e2": BASEPOINT},
        "x1": {"e1": BASEPOINT, "e2": BASEPOINT},
    })
    report = check_prop_power(skewed)
    assert report.status == "N-A"
    assert "not full" in report.note


def test_power_not_applicable_on_cycle():
    two_cycle = full_action_from_successor(SINGLE,
                                           {"x0": "x1", "x1": "x0"})
    report = check_prop_power(two_cycle)
    assert report.status == "N-A"
    assert "tree" in report.note


def test_power_holds_on_random_trees():
    rng = random.Random(5)
    for _ in range(10):
        m = random_tree_mset(rng, random_alphabet(rng, max_size=5))
        report = check_prop_power(m)
        assert report.holds, report.witness


# --- main -----------------------------------------------------------------

def test_main_frozen_reference():
    report = check_theorem_main(x0_mset(CYCLE4))
    assert report.holds
    assert [(c.degree, c.lhs) for c in report.comparisons] == \
        [(1, 4 * Z), (2, 5 * Z)]


def test_main_fan_of_three_over_cycle4():
    # H_s = (reduced schema homology one degree down)^4 + Z^(p_s)
    report = check_theorem_main(fan_of_three(CYCLE4))
    assert report.holds
    assert [c.lhs for c in report.comparisons] == [4 * Z, 8 * Z]


def test_main_fan_of_three_over_complete2():
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    report = check_theorem_main(fan_of_three(alpha))
    assert report.holds
    assert [c.lhs for c in report.comparisons] == [2 * Z, Z]


def test_main_one_point_is_pure_clique_part():
    m = PointedMSet(COMPLETE3, [], {})
    report = check_theorem_main(m)
    assert report.holds
    assert [c.lhs for c in report.comparisons] == [3 * Z, 3 * Z, Z]


def test_main_not_applicable_mirrors_power():
    two_cycle = full_action_from_successor(SINGLE,
                                           {"x0": "x1", "x1": "x0"})
    assert check_theorem_main(two_cycle).status == "N-A"


def test_main_holds_on_random_trees():
    rng = random.Random(6)
    for _ in range(10):
        m = random_tree_mset(rng, random_alphabet(rng, max_size=5))
        report = check_theorem_main(m)
        assert report.holds, report.witness


# --- aug ------------------------------------------------------------------

def test_aug_contractible_schema():
    report = check_theorem_aug(COMPLETE3)
    assert report.holds
    assert all(c.lhs == ZERO for c in report.comparisons)


def test_aug_cycle4():
    report = check_theorem_aug(CYCLE4)
    assert report.holds
    assert [(c.degree, c.lhs) for c in report.comparisons] == \
        [(1, ZERO), (2, Z)]


def test_aug_torsion_case():
    from tracehom.simplicial import barycentric_flagification
    alpha = barycentric_flagification(
        ["124", "126", "134", "135", "156",
         "235", "236", "245", "346", "456"])
    report = check_theorem_aug(alpha, max_degree=2)
    assert report.holds
    assert report.comparisons[1].lhs == AbelianGroup(0, (2,))


def test_aug_cross_path_randomized():
    rng = random.Random(23)
    for _ in range(15):
        report = check_theorem_aug(random_alphabet(rng))
        assert report.holds, report.witness


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alphabets(max_size=8))
def test_aug_property(alpha):
    """Chains route and simplicial route agree on random alphabets."""
    report = check_theorem_aug(alpha)
    assert report.holds, report.witness


def test_aug_respects_max_degree():
    report = check_theorem_aug(CYCLE4, max_degree=5)
    assert [c.degree for c in report.comparisons] == [1, 2, 3, 4, 5]
    assert report.holds


# --- bounds ---------------------------------------------------------------

def test_bound_cuts_or_pads_every_report():
    """With a bound N only what degrees up to N need is computed, and the
    reports match the unbounded ones there; degrees past the largest
    clique size compare zero with zero."""
    rng = random.Random(41)
    for _ in range(12):
        alpha = random_alphabet(rng, max_size=6)
        m = random_tree_mset(rng, alpha)
        reports = [
            lambda b=None: check_lemma_split(m, b).comparisons,
            lambda b=None: check_prop_power(m, b).comparisons,
            lambda b=None: check_theorem_main(m, b).comparisons,
            lambda b=None: check_theorem_aug(alpha, b).comparisons,
            lambda b=None: counterexample_report(alpha, b).tables["delta"],
            lambda b=None: counterexample_report(
                alpha, b).tables["punctured"]]
        for rows in reports:
            full = rows()
            first = full[0].degree
            for bound in range(-2, len(full) + 3):
                got = rows(bound)
                assert [c.degree for c in got] == \
                    list(range(first, bound + 1))
                assert got[:len(full)] == full[:len(got)]
                assert all(c.lhs == c.rhs == ZERO for c in got[len(full):])


# --- counterexample -------------------------------------------------------

def test_counterexample_cycle4():
    report = counterexample_report(CYCLE4)
    assert not report.isomorphic
    assert report.witness is None
    assert report.bijections_searched == 2
    assert report.homology_equal
    delta = {c.degree: c.lhs for c in report.tables["delta"]}
    assert delta == {0: Z, 1: 4 * Z, 2: 6 * Z}
    punctured = {c.degree: c.lhs for c in report.tables["punctured"]}
    assert punctured == {0: ZERO, 1: ZERO, 2: 2 * Z}


def test_counterexample_degree_zero_agrees():
    report = counterexample_report(SINGLE)
    assert not report.isomorphic
    assert report.homology_equal
    table = report.tables["delta"]
    assert table[0].lhs == table[0].rhs == Z


def test_counterexample_empty_alphabet_is_degenerate():
    report = counterexample_report(IndependenceAlphabet([]))
    assert report.isomorphic
    assert report.note != ""


def test_counterexample_randomized():
    rng = random.Random(99)
    for _ in range(10):
        report = counterexample_report(random_alphabet(rng, max_size=5))
        assert not report.isomorphic
        assert report.homology_equal


def test_counterexample_respects_max_degree():
    report = counterexample_report(CYCLE4, max_degree=1)
    assert [c.degree for c in report.tables["delta"]] == [0, 1]
