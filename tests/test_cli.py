import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

from tracehom import alphabet
from tracehom.chains import SYSTEMS, homology
from tracehom.cli import main
from tracehom.msets import PointedMSet
from tracehom.alphabet import IndependenceAlphabet

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
ACTION_FILES = sorted(p.name for p in PROBLEMS.glob("*.json")
                      if "action" in json.loads(p.read_text()))


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


# --- homology -------------------------------------------------------------

def test_homology_human_punctured():
    result = run("homology", PROBLEMS / "x0_cycle4.json",
                 "--coeff", "punctured")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "coefficients: punctured",
        "H_0 = 0",
        "H_1 = 0",
        "H_2 = Z",
    ]


def test_homology_human_delta_default():
    result = run("homology", PROBLEMS / "x0_cycle4.json")
    assert result.exit_code == 0
    assert "H_1 = Z^4" in result.stdout
    assert "H_2 = Z^5" in result.stdout


def test_homology_one_point_binomials():
    result = run("homology", PROBLEMS / "one_point_pair.json")
    assert result.stdout.splitlines()[1:] == \
        ["H_0 = Z", "H_1 = Z^2", "H_2 = Z"]


def test_homology_max_degree_pads():
    result = run("homology", PROBLEMS / "x0_cycle4.json", "--max-degree", 4)
    lines = result.stdout.splitlines()
    assert lines[-2:] == ["H_3 = 0", "H_4 = 0"]


def test_homology_max_degree_truncates():
    result = run("homology", PROBLEMS / "x0_cycle4.json", "--max-degree", 1)
    assert "H_2" not in result.stdout


def complete_alphabet_file(tmp_path, n):
    """One element sent to the basepoint by every generator of a complete
    alphabet on n generators, which has 2^n cliques."""
    gens = [f"e{k}" for k in range(n)]
    return write(tmp_path, f"complete{n}.json", {
        "generators": gens,
        "independence": list(combinations(gens, 2)),
        "elements": ["x0"],
        "action": {"x0": {g: "*" for g in gens}},
    })


def test_homology_max_degree_bounds_the_work(tmp_path):
    """On a complete alphabet of 40 generators (2^40 cliques) a bound of
    1 lists cliques only up to size 2.  The flag complex is a simplex,
    so aug and split give H_0 = Z and H_1 = Z^40."""
    path = complete_alphabet_file(tmp_path, 40)
    start = time.perf_counter()
    result = run("homology", path, "--max-degree", 1, "--format", "json")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["homology"] == [
        {"degree": 0, "rank": 1, "torsion": []},
        {"degree": 1, "rank": 40, "torsion": []}]
    assert elapsed < 2.0


def test_verify_and_counterexample_max_degree_bound_the_work(tmp_path):
    """The same 40-generator alphabet through the other two commands
    that take a bound.  In degree 1: split and main see Z^40 = 0 + Z^40
    (the flag complex, a simplex, is connected), power and aug compare
    0 with 0, and the chain and fan both have H_1 = Z^40 for constant
    coefficients and 0 for punctured ones."""
    path = complete_alphabet_file(tmp_path, 40)
    z40 = {"rank": 40, "torsion": []}
    zero = {"rank": 0, "torsion": []}
    start = time.perf_counter()
    result = run("verify", path, "--max-degree", 1, "--format", "json")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    checks = json.loads(result.stdout)["checks"]
    assert [(c["claim"], c["status"]) for c in checks] == [
        ("split", "PASS"), ("power", "PASS"), ("main", "PASS"),
        ("aug", "PASS")]
    assert [[(d["degree"], d["lhs"]) for d in c["degrees"]]
            for c in checks] == [[(1, z40)], [(1, zero)], [(1, z40)],
                                 [(1, zero)]]
    assert elapsed < 2.0

    start = time.perf_counter()
    result = run("counterexample", path, "--max-degree", 1,
                 "--format", "json")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert not report["isomorphic"] and report["homology_equal"]
    assert {name: [row["chain"] for row in table]
            for name, table in report["tables"].items()} == {
        "delta": [{"rank": 1, "torsion": []}, z40],
        "punctured": [zero, zero]}
    assert elapsed < 2.0


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_homology_negative_max_degree_reports_no_degrees(fmt):
    outputs = set()
    for bound in (-1, -2, -5):
        result = run("homology", PROBLEMS / "fan4_complete3.json",
                     "--max-degree", bound, "--format", fmt)
        assert result.exit_code == 0, result.output
        outputs.add(result.stdout)
    assert len(outputs) == 1
    (out,) = outputs
    if fmt == "json":
        assert json.loads(out)["homology"] == []
    else:
        assert out.splitlines() == ["coefficients: delta"]


@pytest.mark.parametrize("bound", [-1, 0, 1, 2, 3, 5])
def test_homology_max_degree_cuts_or_pads_full_list(bound):
    full = run("homology", PROBLEMS / "fan4_complete3.json")
    lines = full.stdout.splitlines() + ["H_4 = 0", "H_5 = 0"]
    result = run("homology", PROBLEMS / "fan4_complete3.json",
                 "--max-degree", bound)
    assert result.exit_code == 0
    assert result.stdout.splitlines() == lines[:bound + 2]


def test_homology_json_round_trip():
    for name in ACTION_FILES:
        doc = json.loads((PROBLEMS / name).read_text())
        alpha = IndependenceAlphabet(doc["generators"], doc["independence"])
        m = PointedMSet(alpha, doc["elements"], doc["action"])
        for coeff, system in SYSTEMS.items():
            result = run("homology", PROBLEMS / name, "--coeff", coeff,
                         "--format", "json")
            assert result.exit_code == 0
            payload = json.loads(result.stdout)
            assert payload["coefficients"] == coeff
            expected = homology(m, system)
            got = payload["homology"]
            assert [g["degree"] for g in got] == list(range(len(expected)))
            for g, h in zip(got, expected):
                assert g["rank"] == h.free_rank
                assert tuple(g["torsion"]) == h.torsion


def test_homology_needs_action():
    result = run("homology", PROBLEMS / "cycle4.json")
    assert result.exit_code == 2
    assert "needs" in result.stderr


# --- schema ---------------------------------------------------------------

def test_schema_cycle4():
    result = run("schema", PROBLEMS / "cycle4.json")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "p = [1, 4, 4]"
    assert "H̃_0 = 0" in lines
    assert "H̃_1 = Z" in lines


def test_schema_works_on_action_files_too():
    result = run("schema", PROBLEMS / "fan4_complete3.json")
    assert result.stdout.splitlines()[0] == "p = [1, 3, 3, 1]"


def test_schema_empty_alphabet(tmp_path):
    path = write(tmp_path, "empty.json", {"generators": []})
    result = run("schema", path)
    assert result.exit_code == 0
    assert "p = [1]" in result.stdout
    assert "empty schema" in result.stdout


def test_schema_flagify_projective_plane():
    result = run("schema", PROBLEMS / "rp2_faces.txt", "--flagify")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "p = [1, 31, 90, 60]"
    assert "H̃_1 = Z/2" in lines
    assert "H̃_2 = 0" in lines


def test_schema_flagify_rejects_bad_face(tmp_path):
    path = write(tmp_path, "faces.txt", "1 2\n2 2\n")
    result = run("schema", path, "--flagify")
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_schema_json():
    result = run("schema", PROBLEMS / "cycle4.json", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["clique_counts"] == [1, 4, 4]
    assert payload["reduced_homology"][1] == \
        {"degree": 1, "rank": 1, "torsion": []}


# --- verify ---------------------------------------------------------------

def test_verify_reference_file_passes():
    result = run("verify", PROBLEMS / "x0_cycle4.json")
    assert result.exit_code == 0
    assert "[PASS] split degree 1" in result.stdout
    assert "[PASS] aug degree 2" in result.stdout
    assert "FAIL" not in result.stdout


def test_verify_alphabet_only_file():
    result = run("verify", PROBLEMS / "cycle4.json")
    assert result.exit_code == 0
    assert "[N-A ] split: file has no action table" in result.stdout
    assert "[PASS] aug degree 1" in result.stdout


def test_verify_single_check_json():
    result = run("verify", PROBLEMS / "cycle4.json", "--which", "aug",
                 "--format", "json")
    payload = json.loads(result.stdout)
    assert len(payload["checks"]) == 1
    check = payload["checks"][0]
    assert check["claim"] == "aug"
    assert check["status"] == "PASS"
    assert all(d["equal"] for d in check["degrees"])


def test_verify_no_degrees(tmp_path):
    path = write(tmp_path, "empty.json", {"generators": []})
    result = run("verify", path, "--which", "aug")
    assert result.exit_code == 0
    assert "[PASS] aug: no degrees to check" in result.stdout


def test_verify_not_applicable_conditions(tmp_path):
    path = write(tmp_path, "skewed.json", {
        "generators": ["e1", "e2"],
        "independence": [],
        "elements": ["x0", "x1"],
        "action": {
            "x0": {"e1": "x1", "e2": "*"},
            "x1": {"e1": "*", "e2": "*"},
        },
    })
    result = run("verify", path, "--which", "power")
    assert result.exit_code == 0
    assert "[N-A ] power:" in result.stdout
    assert "not full" in result.stdout


@pytest.mark.parametrize("name", ACTION_FILES)
def test_verify_bundled_corpus(name):
    result = run("verify", PROBLEMS / name)
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.stdout


def test_verify_lists_each_clique_level_once(monkeypatch):
    """All four checks share one clique table: every level of the
    alphabet is grown once, however often the checks ask for it."""
    grown = []
    next_level = alphabet._next_level

    def counting(gens, later, cliques, masks):
        grown.append((gens, len(cliques[0])))
        return next_level(gens, later, cliques, masks)

    monkeypatch.setattr(alphabet, "_next_level", counting)
    result = run("verify", PROBLEMS / "rp2_x0.json")
    assert result.exit_code == 0, result.output
    assert len({gens for gens, _ in grown}) == 1
    # levels 0 and 1 come with the alphabet; level 3 is the top, and
    # growing it finds level 4 empty
    assert [level for _, level in grown] == [1, 2, 3]


# --- iso ------------------------------------------------------------------

def test_iso_negative_pair():
    result = run("iso", PROBLEMS / "chain2_cycle4.json",
                 PROBLEMS / "fan2_cycle4.json")
    assert result.exit_code == 1
    assert "NOT ISOMORPHIC (searched 2 basepoint-preserving bijections)" \
        in result.stdout


def test_iso_self():
    result = run("iso", PROBLEMS / "chain2_cycle4.json",
                 PROBLEMS / "chain2_cycle4.json")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "ISOMORPHIC"
    assert "  x0 -> x0" in lines
    assert "  * -> *" in lines


def test_iso_relabeled_witness(tmp_path):
    path = write(tmp_path, "relabeled.json", {
        "generators": ["a", "b", "c", "d"],
        "independence": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        "elements": ["y1", "y0"],
        "action": {
            "y1": {g: "y0" for g in "abcd"},
            "y0": {g: "*" for g in "abcd"},
        },
    })
    result = run("iso", PROBLEMS / "chain2_cycle4.json", path)
    assert result.exit_code == 0
    assert "  x0 -> y1" in result.stdout.splitlines()


def test_iso_json():
    result = run("iso", PROBLEMS / "chain2_cycle4.json",
                 PROBLEMS / "fan2_cycle4.json", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload == {"isomorphic": False, "witness": None,
                       "bijections_searched": 2}
    assert result.exit_code == 1


def test_iso_alphabet_mismatch():
    result = run("iso", PROBLEMS / "chain2_cycle4.json",
                 PROBLEMS / "fan4_complete3.json")
    assert result.exit_code == 2
    assert "different alphabets" in result.stderr


# --- counterexample -------------------------------------------------------

def test_counterexample_cycle4_human():
    result = run("counterexample", PROBLEMS / "cycle4.json")
    assert result.exit_code == 0
    out = result.stdout
    assert "isomorphic: NO (searched 2 bijections)" in out
    assert "delta:" in out and "punctured:" in out
    assert "MISMATCH" not in out
    assert "verdict: non-isomorphic actions, identical homology" in out


def test_counterexample_json():
    result = run("counterexample", PROBLEMS / "cycle4.json",
                 "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["isomorphic"] is False
    assert payload["homology_equal"] is True
    degree2 = payload["tables"]["delta"][2]
    assert degree2["chain"] == degree2["fan"] == {"rank": 6, "torsion": []}


def test_counterexample_empty_alphabet(tmp_path):
    path = write(tmp_path, "empty.json", {"generators": []})
    result = run("counterexample", path)
    assert result.exit_code == 0
    assert "isomorphic: YES" in result.stdout
    assert "note:" in result.stdout


# --- malformed input ------------------------------------------------------

def test_unparseable_json(tmp_path):
    result = run("homology", write(tmp_path, "broken.json", "{"))
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_top_level_not_object(tmp_path):
    result = run("schema", write(tmp_path, "list.json", "[]"))
    assert result.exit_code == 2
    assert "top level" in result.stderr


def test_unknown_key(tmp_path):
    path = write(tmp_path, "extra.json", {"generators": ["a"], "extra": 1})
    result = run("schema", path)
    assert result.exit_code == 2
    assert "unknown key 'extra'" in result.stderr


def test_missing_action_cell_named(tmp_path):
    path = write(tmp_path, "partial.json", {
        "generators": ["a", "b"],
        "independence": [],
        "elements": ["x0"],
        "action": {"x0": {"a": "*"}},
    })
    result = run("homology", path)
    assert result.exit_code == 2
    assert "missing action entry ('x0', 'b')" in result.stderr


def test_elements_without_action(tmp_path):
    path = write(tmp_path, "half.json",
                 {"generators": ["a"], "elements": ["x0"]})
    result = run("homology", path)
    assert result.exit_code == 2
    assert "together" in result.stderr


def test_commutation_violation_reported(tmp_path):
    path = write(tmp_path, "bad_square.json", {
        "generators": ["a", "b"],
        "independence": [["a", "b"]],
        "elements": ["x0", "x1", "x2", "x3"],
        "action": {
            "x0": {"a": "x1", "b": "x2"},
            "x1": {"a": "*", "b": "*"},
            "x2": {"a": "x3", "b": "*"},
            "x3": {"a": "*", "b": "*"},
        },
    })
    result = run("homology", path)
    assert result.exit_code == 2
    assert "commutation fails at 'x0'" in result.stderr


def test_missing_file():
    result = run("homology", "no_such_file.json")
    assert result.exit_code == 2


@pytest.mark.parametrize("args, name", [
    ((), "bad.json"),
    (("--flagify",), "bad.txt"),
])
def test_non_utf8_input_named(tmp_path, args, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}\n")
    result = run("schema", path, *args)
    assert result.exit_code == 2
    assert f"{path}: not UTF-8 text" in result.stderr


def test_malformed_independence_pairs_all_listed(tmp_path):
    path = write(tmp_path, "pairs.json", {
        "generators": ["a", "b"],
        "independence": [[["a"], "b"], "ab", {"a": 1, "b": 2}],
    })
    result = run("schema", path)
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert errors == [
        "error: independence pair [['a'], 'b'] is not a pair of "
        "generator names",
        "error: independence pair 'ab' is not a pair of generator names",
        "error: independence pair {'a': 1, 'b': 2} is not a pair of "
        "generator names",
    ]


def test_malformed_element_and_target_all_listed(tmp_path):
    path = write(tmp_path, "elements.json", {
        "generators": ["e"],
        "elements": [["x"], "x0"],
        "action": {"x0": {"e": ["*"]}},
    })
    result = run("homology", path)
    assert result.exit_code == 2
    assert f"{path}: element ['x'] is not a nonempty string" in result.stderr
    assert f"{path}: action target 'x0'.'e' = ['*'] is not an element " \
        "or the basepoint" in result.stderr


# --- console script -------------------------------------------------------

SUBCOMMANDS = ("homology", "schema", "verify", "iso", "counterexample")


def assert_help_lists_subcommands(done):
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Usage: tracehom")
    _, _, commands = done.stdout.partition("\nCommands:\n")
    listed = {line.split()[0] for line in commands.splitlines() if line}
    assert set(SUBCOMMANDS) <= listed


def test_console_script(tmp_path):
    # Runs the entry point that pyproject.toml declares the way the
    # wrapper script generated by an install does, but from the
    # checkout's src/, so it needs no install and no PATH entry.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    scripts = pyproject["project"].get("scripts", {})
    assert "tracehom" in scripts, "[project.scripts] does not declare tracehom"
    module, _, attr = scripts["tracehom"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'tracehom'\n"
               f"sys.exit({attr}())\n")
    pythonpath = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    done = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert_help_lists_subcommands(done)


@pytest.mark.skipif(shutil.which("tracehom") is None,
                    reason="tracehom console script is not on PATH "
                           "(package not installed)")
def test_installed_console_script():
    done = subprocess.run([shutil.which("tracehom"), "--help"],
                          capture_output=True, text=True)
    assert_help_lists_subcommands(done)
