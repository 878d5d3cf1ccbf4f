import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from helpers import (alphabets, moore3_faces, random_alphabet, random_mset,
                     sd2_rp2)

from tracehom import chains, cli, intlinalg, simplicial, verify
from tracehom.alphabet import IndependenceAlphabet, max_clique_size
from tracehom.intlinalg import AbelianGroup
from tracehom.msets import (BASEPOINT, ConditionsReport, PointedMSet,
                            full_action_from_successor, x0_mset)
from tracehom.simplicial import SimplicialComplex, barycentric_flagification
from tracehom.verify import (ALL_CHECKS, CounterexampleReport,
                             DegreeComparison, VerificationReport,
                             check_lemma_split,
                             check_prop_power, check_theorem_aug,
                             check_theorem_main, counterexample_report,
                             run_checks)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

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


def test_reports_are_immutable_records():
    report = VerificationReport(claim="aug", applicable=True)
    assert report == VerificationReport("aug", True, (), "")
    assert report != VerificationReport("aug", True, note="n")
    assert repr(report) == ("VerificationReport(claim='aug', "
                            "applicable=True, comparisons=(), note='')")
    assert repr(DegreeComparison(1, Z, ZERO)) == (
        "DegreeComparison(degree=1, lhs=AbelianGroup(1, ()), "
        "rhs=AbelianGroup(0, ()))")
    assert hash(DegreeComparison(1, Z, Z)) == hash(DegreeComparison(1, Z, Z))
    assert DegreeComparison(1, Z, Z) != (1, Z, Z)
    assert repr(ConditionsReport(True, False, ("v",))) == \
        "ConditionsReport(full=True, tree=False, violations=('v',))"
    first, second = (CounterexampleReport(False, None, 2) for _ in range(2))
    assert first == second and first.tables == {}
    assert first.tables is not second.tables
    for record, field in ((report, "note"), (first, "tables"),
                          (ConditionsReport(True, True, ()), "full")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_all_checks_registry():
    assert ALL_CHECKS == ("split", "power", "main", "aug")


def test_run_checks_on_an_alphabet_alone():
    """Without an action aug still runs, and every other check is N-A."""
    reports = run_checks("all", CYCLE4, None)
    assert [r.claim for r in reports] == list(ALL_CHECKS)
    assert [r.status for r in reports] == ["N-A", "N-A", "N-A", "PASS"]
    assert {r.note for r in reports[:3]} == {"file has no action table"}
    assert reports[3] == check_theorem_aug(CYCLE4)
    assert run_checks("main", CYCLE4, None) == reports[2:3]
    assert run_checks("aug", CYCLE4, None, 1) == \
        [check_theorem_aug(CYCLE4, 1)]


@pytest.mark.parametrize("bound", [None, -1, 0, 1, 3])
def test_run_checks_gives_each_check_its_own_report(bound):
    m = fan_of_three(CYCLE4)
    assert run_checks("all", CYCLE4, m, bound) == [
        check_lemma_split(m, bound), check_prop_power(m, bound),
        check_theorem_main(m, bound), check_theorem_aug(CYCLE4, bound)]
    assert run_checks("power", CYCLE4, m, bound) == \
        [check_prop_power(m, bound)]


def test_run_checks_calls_the_checks_bound_at_call_time(monkeypatch):
    """A tracer rebinds the check functions in this module after import;
    the entry point still goes through the rebound ones."""
    called = []
    for name in ("check_lemma_split", "check_prop_power",
                 "check_theorem_main", "check_theorem_aug"):
        def rebound(*args, _name=name, _check=getattr(verify, name)):
            called.append(_name)
            return _check(*args)
        monkeypatch.setattr(verify, name, rebound)
    run_checks("all", CYCLE4, x0_mset(CYCLE4))
    assert called == ["check_lemma_split", "check_prop_power",
                      "check_theorem_main", "check_theorem_aug"]


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


def test_main_on_sd2_rp2_under_a_fan_of_32_points(monkeypatch):
    """32 copies of the Z/2 of RP2 in H_2.  They come from a 990x32 block
    of d_3 that the unit sweep leaves behind, reduced by non-unit pivots
    that must not shrink d_2."""
    fan = full_action_from_successor(
        sd2_rp2(), {f"x{k}": BASEPOINT for k in range(32)})
    snf = intlinalg.smith_normal_form
    calls = []

    def recording(m, drop_cols=()):
        calls.append(snf(m, drop_cols))
        return calls[-1]

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    report = check_theorem_main(fan)
    assert report.holds, report.witness
    assert chains.homology(fan, chains.DELTA) == [
        Z, 181 * Z, AbelianGroup(540, (2,) * 32), 360 * Z]
    snf3 = calls[0]
    assert snf3.leftover == (990, 32)
    assert snf3.rank == 11520
    assert len(snf3.pivot_rows) == snf3.rank - 32


def test_main_and_aug_on_the_moore_space_under_a_fan_of_3_points():
    """Three copies of the Z/3 of the mod-3 Moore space in H_2: torsion
    other than Z/2 through both routes."""
    alpha = barycentric_flagification(moore3_faces())
    fan = full_action_from_successor(
        alpha, {f"x{k}": BASEPOINT for k in range(3)})
    assert chains.homology(fan, chains.DELTA)[2] == \
        AbelianGroup(240, (3, 3, 3))
    for report in (check_theorem_main(fan), check_theorem_aug(alpha)):
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


def test_aug_keeps_one_reduced_homology_per_resolved_bound(monkeypatch):
    """No bound and the largest clique size are the same bound: the
    clique complex's reduced homology is computed once for both and kept
    under the resolved bound alone."""
    listed = []
    build = verify.clique_complex

    def recording(alpha, top=None):
        listed.append(top)
        return build(alpha, top)

    monkeypatch.setattr(verify, "clique_complex", recording)
    alpha = IndependenceAlphabet(CYCLE4.generators, CYCLE4.pairs)
    first = check_theorem_aug(alpha)
    assert check_theorem_aug(alpha, max_clique_size(alpha)) == first
    assert listed == [2]
    assert list(alpha._kept["reduced"]) == [2]

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


# --- shared terms ---------------------------------------------------------

def reduced_shapes(monkeypatch, problem):
    """Run `verify` on a problem file, which raises SystemExit on a
    FAIL, and give the boundary shapes of each complex it reduces, on
    the chains and the simplicial route alike, in order."""
    shapes = []

    def wrap(original):
        def recording(boundaries):
            shapes.append([(d.rows, d.cols) for d in boundaries])
            return original(boundaries)
        return recording

    for module in (chains, simplicial):
        monkeypatch.setattr(module, "homology_of_complex",
                            wrap(module.homology_of_complex))
    cli.main(["verify", str(PROBLEMS / problem)])
    return shapes


def complex_shapes(counts, points):
    dims = [points * c for c in counts]
    return [(0, dims[0])] + list(zip(dims, dims[1:])) + [(dims[-1], 0)]


def schema_shapes(counts):
    return [(1, counts[1])] + list(zip(counts[1:], counts[2:])) + \
        [(counts[-1], 0)]


def test_verify_all_reduces_each_distinct_complex_once(monkeypatch):
    """split, power, main and aug on the two-point action over sd(RP2)
    need DELTA and PUNCTURED of the action, PUNCTURED of the two-point
    reference and the schema's reduced homology.  The action is the
    reference, so its PUNCTURED complex is the reference's: three
    complexes, each reduced once."""
    p = [1, 31, 90, 60]  # the clique counts of sd(RP2)
    assert reduced_shapes(monkeypatch, "rp2_x0.json") == \
        [complex_shapes(p, 2), complex_shapes(p, 1), schema_shapes(p)]


def test_verify_on_a_fan_reduces_four_complexes(monkeypatch):
    """The action of four points has a PUNCTURED complex of its own, so
    the reference's is a fourth one."""
    p = [1, 4, 4]  # the clique counts of the 4-cycle
    assert reduced_shapes(monkeypatch, "fan4_cycle4.json") == \
        [complex_shapes(p, 5), complex_shapes(p, 4), complex_shapes(p, 1),
         schema_shapes(p)]


@pytest.mark.parametrize("claim", ["main", "aug"])
def test_main_and_aug_still_take_both_routes(monkeypatch, claim):
    """Keeping terms leaves a side from each route in both checks."""
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def recording(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, recording)

    count(chains, "build_complex")
    count(SimplicialComplex, "reduced_homology")
    alpha = IndependenceAlphabet(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    if claim == "main":
        report = check_theorem_main(fan_of_three(alpha))
    else:
        report = check_theorem_aug(alpha)
    assert report.holds
    assert sorted(calls) == ["build_complex", "reduced_homology"]


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
    # nothing is forced, so x0 and then x1 take their first candidate
    assert report.witness == {"*": "*", "x0": "x0", "x1": "x1"}
    assert report.bijections_searched == 2
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
