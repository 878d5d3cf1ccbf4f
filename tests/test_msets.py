import random
import time

import pytest
from helpers import (action_problems, actions, alphabets, brute_force_iso,
                     conditions_oracle, random_alphabet, random_mset,
                     relabel_elements, successor_maps, time_limit)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tracehom import ValidationError
from tracehom.alphabet import IndependenceAlphabet
from tracehom.msets import (BASEPOINT, ConditionsReport, PointedMSet,
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


def test_commutation_failures_keep_their_order():
    """Every failed square is reported, sorted by the pair (as names,
    each pair in declaration order) and then by carrier position, not
    by name: here the pairs sort as (a, b) < (c, a) < (c, b) and the
    points come as y, x, z."""
    alpha = IndependenceAlphabet(["c", "a", "b"],
                                 [("a", "c"), ("b", "c"), ("a", "b")])
    action = {"y": {"c": "x", "a": "z", "b": "*"},
              "x": {"c": "*", "a": "x", "b": "z"},
              "z": {"c": "y", "a": "*", "b": "y"}}
    with pytest.raises(ValidationError) as exc:
        PointedMSet(alpha, ["y", "x", "z"], action)
    assert list(exc.value.problems) == [
        "commutation fails at 'y': (y.a).b = y but (y.b).a = *",
        "commutation fails at 'x': (x.a).b = z but (x.b).a = *",
        "commutation fails at 'z': (z.a).b = * but (z.b).a = z",
        "commutation fails at 'y': (y.c).a = x but (y.a).c = y",
        "commutation fails at 'z': (z.c).a = z but (z.a).c = *",
        "commutation fails at 'y': (y.c).b = z but (y.b).c = *",
        "commutation fails at 'x': (x.c).b = * but (x.b).c = y",
        "commutation fails at 'z': (z.c).b = * but (z.b).c = x",
    ]


def test_commutation_not_checked_when_cells_missing():
    # the incomplete table is reported as such, not as a crash inside
    # the commutation scan
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    with pytest.raises(ValidationError, match="missing action entry"):
        PointedMSet(alpha, ["x0"], {"x0": {"a": "x0"}})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_validation_matches_the_brute_force_square_check(data):
    """A valid drawn action or a table drawn row by row, each row
    constant or drawn cell by cell, its basepoint row omitted or written
    out, with up to three cells missing or moved, the basepoint's
    included.  The oracle checks every square at every point, the
    basepoint and the constant rows included, where ``PointedMSet``
    skips the basepoint and a constant row onto a constant row; the
    problems raised are exactly the oracle's."""
    alpha = data.draw(alphabets(max_size=4))
    m = data.draw(actions(alpha, max_elements=3, min_elements=1))
    target = st.sampled_from(m.carrier)
    if data.draw(st.booleans()):
        table = {x: {e: m.act(x, e) for e in alpha.generators}
                 for x in m.elements}
    else:
        table = {x: dict.fromkeys(alpha.generators, data.draw(target))
                 if data.draw(st.booleans())
                 else {e: data.draw(target) for e in alpha.generators}
                 for x in m.elements}
    if data.draw(st.booleans()):
        table[BASEPOINT] = dict.fromkeys(alpha.generators, BASEPOINT)
    if alpha.generators:
        for _ in range(data.draw(st.integers(0, 3))):
            x = data.draw(st.sampled_from(sorted(table)))
            e = data.draw(st.sampled_from(alpha.generators))
            if data.draw(st.sampled_from(["drop", "move", "move"])) \
                    == "drop":
                table[x].pop(e, None)
            else:
                table[x][e] = data.draw(target)
    expected = action_problems(alpha, m.elements, table)
    event(expected[0].split(" ")[0] if expected else "valid")
    if expected:
        with pytest.raises(ValidationError) as exc:
            PointedMSet(alpha, m.elements, table)
        assert list(exc.value.problems) == expected
    else:
        PointedMSet(alpha, m.elements, table)


def test_a_constant_row_onto_a_split_row_fails_its_square():
    """x0 goes to x1 under both generators, but x1 splits them, so the
    square at x0 fails although x0's row is constant."""
    alpha = IndependenceAlphabet(["a", "b"], [("a", "b")])
    table = {"x0": {"a": "x1", "b": "x1"},
             "x1": {"a": "x1", "b": BASEPOINT}}
    expected = action_problems(alpha, ["x0", "x1"], table)
    assert expected == [
        "commutation fails at 'x0': (x0.a).b = * but (x0.b).a = x1"]
    with pytest.raises(ValidationError) as exc:
        PointedMSet(alpha, ["x0", "x1"], table)
    assert list(exc.value.problems) == expected


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

# name -> (action builder, full, cycles of the common map among the
# elements)
CONDITIONS = {
    "one_element": (example_one_element, True, 0),
    "chain": (lambda: chain_mset(CYCLE4), True, 0),
    "fan": (lambda: fan_mset(CYCLE4), True, 0),
    "fan_pair_free": (lambda: fan_mset(PAIR_FREE), True, 0),
    "two_cycle": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x1", "x1": "x0"}), True, 1),
    "element_self_loop": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x0"}), True, 1),
    "self_loop_below_element": (lambda: full_action_from_successor(
        SINGLE, {"x0": "x1", "x1": "x1"}), True, 1),
    "not_full": (not_full_mset, False, 0),
    # a tail into a 3-cycle, listed first, a 2-cycle, a fixed element
    # and a chain to the basepoint
    "mixed": (lambda: full_action_from_successor(SINGLE, {
        "t": "c0", "c0": "c1", "c1": "c2", "c2": "c0", "a0": "a1",
        "a1": "a0", "f": "f", "p": "q", "q": BASEPOINT}), True, 3),
    "no_generators_one_element": (
        lambda: PointedMSet(EMPTY, ["x0"], {"x0": {}}), True, 1),
    "no_generators_no_elements": (
        lambda: PointedMSet(EMPTY, [], {}), True, 0),
}


@pytest.mark.parametrize("name", CONDITIONS)
def test_check_conditions_table(name):
    make, full, cycles = CONDITIONS[name]
    report = check_conditions(make())
    assert (report.full, report.cycles) == (full, cycles)
    assert (report.violations == ()) == full


def test_is_full_action():
    assert check_conditions(fan_mset(PAIR_FREE)).full
    assert not check_conditions(not_full_mset()).full
    assert check_conditions(PointedMSet(PAIR_FREE, [], {})).full


def test_transition_graph_disagreement_gives_no_edge():
    # x0's generators disagree, so x0 has no edge and lies on no cycle;
    # x1 keeps its edge to the basepoint and is not reported
    report = check_conditions(not_full_mset())
    assert report == ConditionsReport(0, (
        "action not full at 'x0': x0.e1 = x1, x0.e2 = *",))


def test_check_conditions_fan_of_three():
    fan = full_action_from_successor(
        CYCLE4, {"x0": "x1", "x1": "*", "x2": "x1", "x3": "x1"})
    assert check_conditions(fan) == ConditionsReport(0, ())


def test_check_conditions_one_point():
    m = PointedMSet(CYCLE4, [], {})
    assert check_conditions(m) == ConditionsReport(0, ())


def test_check_conditions_not_full():
    report = check_conditions(not_full_mset())
    assert not report.full
    assert any("not full at 'x0'" in v for v in report.violations)


def test_check_conditions_counts_a_two_cycle():
    two_cycle = full_action_from_successor(SINGLE, {"x0": "x1", "x1": "x0"})
    report = check_conditions(two_cycle)
    assert report.full and report.cycles == 1
    assert report.violations == ()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_check_conditions_matches_the_brute_force_oracle(data):
    """Over drawn alphabets, some with no generators, a full
    action from a drawn successor map or an action drawn by ``actions``,
    which is full only now and then: the report's fullness, its cycle
    count and its violations, one per element where the generators
    disagree, in element order, with that element's row in generator
    order, are the oracle's."""
    alpha = data.draw(alphabets(max_size=4))
    if data.draw(st.booleans()):
        m = full_action_from_successor(alpha, data.draw(successor_maps()))
    else:
        m = data.draw(actions(alpha, max_elements=5))
    full, disagree, cycles = conditions_oracle(m)
    event("full" if full else "not full")
    if not alpha.generators:
        event("no generators")
    report = check_conditions(m)
    assert (report.full, report.cycles) == (full, cycles)
    assert list(report.violations) == [
        f"action not full at {x!r}: " + ", ".join(
            f"{x}.{e} = {m.act(x, e)}" for e in alpha.generators)
        for x in disagree]


# --- isomorphism search --------------------------------------------------

def test_iso_self():
    m = chain_mset(CYCLE4)
    witness, tried = iso_check(m, m)
    assert witness == {"x0": "x0", "x1": "x1", BASEPOINT: BASEPOINT}
    assert list(witness) == [BASEPOINT, "x0", "x1"]
    # x0 -> x0 forces x1 -> x1, so one branch decides it
    assert tried == 1


def test_iso_chain_vs_fan():
    # each of the two candidates for x0 clashes
    assert iso_check(chain_mset(CYCLE4), fan_mset(CYCLE4)) == (None, 2)
    # x0 -> x1 holds, then x1 has only x0 left, which clashes
    assert iso_check(fan_mset(CYCLE4), chain_mset(CYCLE4)) == (None, 3)


def test_iso_chain_vs_fan_single_generator():
    assert iso_check(chain_mset(SINGLE), fan_mset(SINGLE)) == (None, 2)


def test_iso_relabeled_chain():
    chain = chain_mset(SINGLE)
    flipped = full_action_from_successor(
        SINGLE, {"y1": "y0", "y0": BASEPOINT})
    witness, tried = iso_check(chain, flipped)
    assert witness == {"x0": "y1", "x1": "y0", BASEPOINT: BASEPOINT}
    assert tried == 1


def test_iso_size_mismatch():
    assert iso_check(x0_mset(CYCLE4), chain_mset(CYCLE4)) == (None, 0)


def test_iso_alphabet_mismatch():
    with pytest.raises(ValueError, match="different alphabets"):
        iso_check(chain_mset(CYCLE4), chain_mset(SINGLE))


def test_iso_witness_is_equivariant():
    rng = random.Random(13)
    found = 0
    for _ in range(20):
        m = random_mset(rng, random_alphabet(rng))
        other = relabel_elements(m)
        witness, _ = iso_check(m, other)
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
        assert (iso_check(m1, m2)[0] is None) == \
            (iso_check(m2, m1)[0] is None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_iso_matches_the_brute_force_oracle(data):
    """The witness is the first equivariant bijection in the order that
    ``itertools.permutations`` lists m2's elements, None exactly when
    there is none.  The second action is the first relabeled in a drawn
    order, another drawn action of the same size, or one of any size."""
    alpha = data.draw(alphabets(max_size=3))
    m1 = data.draw(actions(alpha, max_elements=5))
    other = data.draw(st.sampled_from(["relabeled", "same size", "any"]))
    if other == "relabeled":
        order = data.draw(st.permutations(m1.elements))
        name = {x: f"y{k}" for k, x in enumerate(order)}
        name[BASEPOINT] = BASEPOINT
        m2 = PointedMSet(alpha, [name[x] for x in order], {
            name[x]: {e: name[m1.act(x, e)] for e in alpha.generators}
            for x in m1.elements})
    elif other == "same size":
        n = len(m1.elements)
        m2 = data.draw(actions(alpha, max_elements=n, min_elements=n))
    else:
        m2 = data.draw(actions(alpha, max_elements=5))
    witness, tried = iso_check(m1, m2)
    expected = brute_force_iso(m1, m2)
    assert witness == expected
    if len(m1.elements) != len(m2.elements):
        event("sizes differ")
        assert tried == 0
    else:
        event("isomorphic" if witness else "same size, not isomorphic")
        assert tried >= 1 or not m1.elements


def _fan_and_chain(n):
    fan = full_action_from_successor(
        CYCLE4, {f"x{k}": BASEPOINT for k in range(n)})
    chain = full_action_from_successor(
        CYCLE4, {f"x{k}": f"x{k + 1}" for k in range(n - 1)}
        | {f"x{n - 1}": BASEPOINT})
    return fan, chain


def test_time_limit_stops_a_block_that_runs_past_it():
    start = time.perf_counter()
    with pytest.raises(TimeoutError):
        with time_limit(0.05):
            while True:
                pass
    assert time.perf_counter() - start < 1.0
    with time_limit(0.05):
        pass
    # the timer was cleared when the block ended
    time.sleep(0.1)


def test_iso_of_a_long_fan_with_itself_needs_no_recursion():
    """1,200 elements, more than the default recursion limit: one
    assignment per element, each holding at once."""
    fan, _ = _fan_and_chain(1200)
    start = time.perf_counter()
    with time_limit(10):
        witness, tried = iso_check(fan, fan)
    assert time.perf_counter() - start < 1.0
    assert witness == {x: x for x in fan.carrier}
    assert tried == 1200


def test_iso_rejects_a_long_chain_against_a_long_fan():
    """Every candidate for the chain's x0 clashes, since x0.e = x1 is
    not fixed while each fan element goes to the basepoint."""
    fan, chain = _fan_and_chain(1200)
    start = time.perf_counter()
    with time_limit(10):
        assert iso_check(chain, fan) == (None, 1200)
    assert time.perf_counter() - start < 1.0
