"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import oracle
import run
from spans import aggregate

HERE = Path(__file__).resolve().parent


def _files(tmp_path, seed, sample, hash_seed):
    """Inputs of every workload, built in a fresh process whose string
    hashing is seeded by ``hash_seed``."""
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    code = ("import sys, inputs\n"
            "for w in inputs.WORKLOADS:\n"
            "    inputs.build(w, int(sys.argv[1]), int(sys.argv[2]),"
            " sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(seed), str(sample),
                    str(directory)], check=True, cwd=HERE,
                   env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
    return {p.name: p.read_text() for p in directory.iterdir()}


def test_inputs_depend_only_on_seed_and_sample(tmp_path):
    first = _files(tmp_path, 1, 0, hash_seed=1)
    assert len(first) == 12
    assert first == _files(tmp_path, 1, 0, hash_seed=2)
    assert first != _files(tmp_path, 1, 1, hash_seed=1)
    assert first != _files(tmp_path, 2, 0, hash_seed=1)


def test_wrong_expectation_yields_errors(tmp_path, monkeypatch):
    _, attempted, failures = run.run_sample("corpus_sweep", 2, 0, tmp_path,
                                            (False,))
    assert attempted == 56 and failures == []

    # claim the 4-cycle is a wedge of two circles: every invocation over
    # it whose output shows degree-1 schema homology must now count
    wrong = oracle.Schema([1, 4, 4], [oracle.ZERO, oracle.free(2)])
    monkeypatch.setitem(oracle.SCHEMAS, "circle", wrong)
    _, attempted, failures = run.run_sample("corpus_sweep", 2, 0, tmp_path,
                                            (False,))
    assert len(failures) / attempted > 0
    assert any("schema cycle4.json" in f for f in failures)


def test_self_time_subtracts_direct_children():
    spans = [("outer", -1, 0.0, 10.0, None),
             ("inner", 0, 1.0, 4.0, {"listed": 3}),
             ("inner", 1, 2.0, 3.0, {"listed": 1}),
             ("leaf", 0, 5.0, 6.0, None)]
    rows = aggregate(spans)
    assert rows["outer"]["self_s"] == 6.0
    assert rows["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0,
                             "listed": 4}
    assert rows["leaf"]["total_s"] == 1.0


def test_count_that_drifts_between_samples_fails():
    reports = [{"trace": False},
               {"trace": True, "layers": {"a_calls": 6, "a_s": 1.0}},
               {"trace": True, "layers": {"a_calls": 7, "a_s": 2.0}}]
    assert run.count_drift(reports) == [
        "count a_calls differs between samples: [6, 7]"]
    reports[2]["layers"]["a_calls"] = 6
    assert run.count_drift(reports) == []


def test_verify_counts_at_seed(tmp_path):
    """The call counts of sd2rp2_verify that the program made when the
    benchmark was defined, on two seeds.  A change that dedups work
    (memoized homology, cliques computed once) lowers them on purpose."""
    for seed in (1, 2):
        reports, _, failures = run.run_sample(
            "sd2rp2_verify", seed, 0, tmp_path, (True,))
        assert failures == []
        layers = reports[0]["layers"]
        assert layers["chains.homology_calls"] == 6
        assert layers["alphabet.cliques_calls"] == 116
        assert layers["intlinalg.snf_calls"] == 60
