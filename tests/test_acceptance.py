"""Acceptance gate.

One test per acceptance criterion; each prints a single [PASS]/[FAIL]
line (visible with -s, and mirrored by the pytest verdict).  Criteria
with a wall-clock budget assert it.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb

from helpers import (RP2_TRIANGLES, bareiss_rank, random_alphabet,
                     random_matrix, random_mset, relabel_elements,
                     sd2_rp2, shuffle_generators, time_limit)

from tracehom.alphabet import (IndependenceAlphabet, clique_counts,
                               max_clique_size)
from tracehom.chains import DELTA, PUNCTURED, SYSTEMS, build_complex, homology
from tracehom.intlinalg import AbelianGroup, smith_normal_form
from tracehom.msets import (BASEPOINT, PointedMSet, chain_mset, fan_mset,
                            full_action_from_successor, iso_check, x0_mset)
from tracehom.simplicial import barycentric_flagification, clique_complex
from tracehom.verify import counterexample_report

CYCLE4 = IndependenceAlphabet(
    "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

ZERO = AbelianGroup(0)


@contextmanager
def criterion(name, budget=None):
    """Print the criterion's verdict; with a budget, assert it, and stop
    the block with TimeoutError at three times the budget."""
    start = time.perf_counter()
    try:
        if budget is None:
            yield
        else:
            with time_limit(3 * budget):
                yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s over {budget}s"
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def padded(groups, degree):
    return groups[degree] if degree < len(groups) else ZERO


def test_criterion_1_one_point_binomial_homology():
    with criterion("one-point set over complete independence", budget=1.0):
        gens = [f"e{k}" for k in range(4)]
        alpha = IndependenceAlphabet(gens, combinations(gens, 2))
        got = homology(PointedMSet(alpha, [], {}), DELTA)
        assert got == [AbelianGroup(comb(4, s)) for s in range(5)]


def test_criterion_2_cross_path_reduced_homology():
    with criterion("cross-path: action route vs schema route", budget=10.0):
        rng = random.Random(1202)
        for _ in range(25):
            alpha = random_alphabet(rng, max_size=6)
            via_action = homology(x0_mset(alpha), PUNCTURED)
            via_schema = clique_complex(alpha).reduced_homology()
            for n in range(1, max_clique_size(alpha) + 2):
                assert padded(via_action, n) == padded(via_schema, n - 1), \
                    (alpha, n)


def test_criterion_3_projective_plane_torsion():
    with criterion("projective plane torsion at degree 2", budget=30.0):
        alpha = barycentric_flagification(RP2_TRIANGLES)
        m = x0_mset(alpha)
        h2_punctured = homology(m, PUNCTURED)[2]
        assert h2_punctured.free_rank == 0
        assert h2_punctured.torsion == (2,)
        p2 = clique_counts(alpha)[2]
        assert homology(m, DELTA)[2] == AbelianGroup(p2, (2,))


def test_criterion_4_fan_of_four_decomposition():
    with criterion("fan action matches the fourth-power decomposition"):
        complete3 = IndependenceAlphabet("abc", combinations("abc", 2))
        for alpha in (CYCLE4, complete3):
            fan = full_action_from_successor(
                alpha, {"x0": "x1", "x1": BASEPOINT,
                        "x2": "x1", "x3": "x1"})
            counts = clique_counts(alpha)
            reduced = clique_complex(alpha).reduced_homology()
            h_delta = homology(fan, DELTA)
            for s in range(1, max_clique_size(alpha) + 1):
                expect = 4 * padded(reduced, s - 1) + AbelianGroup(counts[s])
                assert padded(h_delta, s) == expect, (alpha, s)


def test_criterion_5_unconditional_splitting():
    with criterion("splitting of constant into punctured plus free"):
        rng = random.Random(1205)
        for _ in range(25):
            alpha = random_alphabet(rng, max_size=5)
            m = random_mset(rng, alpha, max_elements=4)
            counts = clique_counts(alpha)
            h_delta = homology(m, DELTA)
            h_punct = homology(m, PUNCTURED)
            for s in range(1, max_clique_size(alpha) + 1):
                expect = padded(h_punct, s) + AbelianGroup(counts[s])
                assert padded(h_delta, s) == expect, (alpha, s)


def test_criterion_6_nonisomorphic_with_equal_homology():
    with criterion("non-isomorphic actions, identical homology"):
        chain = chain_mset(CYCLE4)
        fan = fan_mset(CYCLE4)
        assert iso_check(chain, fan)[0] is None
        assert iso_check(fan, chain)[0] is None
        report = counterexample_report(CYCLE4, max_degree=2)
        assert not report.isomorphic
        assert report.bijections_searched == 2
        for system in (DELTA, PUNCTURED):
            h_chain = homology(chain, system)
            h_fan = homology(fan, system)
            for degree in range(3):
                assert padded(h_chain, degree) == padded(h_fan, degree), \
                    (system.name, degree)
        assert report.homology_equal


def test_criterion_7_degree_one_torsion_free():
    with criterion("degree-1 homology carries no torsion"):
        rng = random.Random(1207)
        for _ in range(25):
            h = homology(x0_mset(random_alphabet(rng)), PUNCTURED)
            assert padded(h, 1).torsion == ()


def test_criterion_8_property_suites():
    with criterion("engine property suites"):
        rng = random.Random(1208)
        # boundary of boundary vanishes
        for _ in range(10):
            m = random_mset(rng, random_alphabet(rng))
            for system in SYSTEMS.values():
                maps = build_complex(m, system)
                for n in range(1, len(maps) - 1):
                    assert (maps[n] @ maps[n + 1]).is_zero()
        # normal form against an independent elimination oracle
        for _ in range(100):
            matrix = random_matrix(rng)
            result = smith_normal_form(matrix)
            assert result.rank == bareiss_rank(matrix.to_rows())
            d = result.invariant_factors
            assert all(v >= 1 for v in d)
            assert all(d[k + 1] % d[k] == 0 for k in range(len(d) - 1))
        # presentation-independence of the homology
        for _ in range(10):
            m = random_mset(rng, random_alphabet(rng, max_size=5))
            relabeled = relabel_elements(m)
            shuffled = shuffle_generators(rng, m)
            for system in SYSTEMS.values():
                reference = homology(m, system)
                assert homology(relabeled, system) == reference
                assert homology(shuffled, system) == reference


def test_criterion_9_midsize_fan_regression():
    with criterion("sd2(RP2) under a fan of four points", budget=10.0):
        alpha = sd2_rp2()
        fan = full_action_from_successor(
            alpha, {f"x{k}": BASEPOINT for k in range(4)})
        # Frozen answers, not computed by the engine.  The schema sd2(RP2)
        # has the reduced homology of RP2, Z/2 in degree 1 only.  By main,
        # H_s(delta) = 4 * H~_{s-1}(schema) + Z^{p_s}; by split the
        # punctured group is that minus Z^{p_s}, for s >= 1.
        counts = [1, 181, 540, 360]
        schema_below = [ZERO, ZERO, AbelianGroup(0, (2,)), ZERO]
        delta = [4 * schema_below[s] + AbelianGroup(counts[s])
                 for s in range(4)]
        punctured = [4 * schema_below[s] for s in range(1, 4)]
        assert [str(g) for g in delta] == \
            ["Z", "Z^181", "Z^540 + Z/2 + Z/2 + Z/2 + Z/2", "Z^360"]
        assert [str(g) for g in punctured] == \
            ["0", "Z/2 + Z/2 + Z/2 + Z/2", "0"]
        assert clique_counts(alpha) == counts
        assert homology(fan, DELTA) == delta
        assert homology(fan, PUNCTURED)[1:] == punctured
