import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracehom import alphabet, chains, verify
from tracehom.chains import SYSTEMS, homology
from tracehom.intlinalg import AbelianGroup
from tracehom.cli import _json, main
from tracehom.msets import PointedMSet
from tracehom.alphabet import IndependenceAlphabet
from tracehom.simplicial import barycentric_flagification, read_face_list

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
ACTION_FILES = sorted(p.name for p in PROBLEMS.glob("*.json")
                      if "action" in json.loads(p.read_text()))


class Result:
    def __init__(self, exit_code, stdout, stderr):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = stdout + stderr


def run(*args):
    """Exit code, stdout and stderr of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code or 0
    return Result(code, out.getvalue(), err.getvalue())


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


def complete_alphabet_file(tmp_path, n, elements=("x0",)):
    """Each of the elements (by default one) sent to the basepoint by
    every generator of a complete alphabet on n generators, which has 2^n
    cliques."""
    gens = [f"e{k}" for k in range(n)]
    return write(tmp_path, f"complete{n}_{len(elements)}.json", {
        "generators": gens,
        "independence": list(combinations(gens, 2)),
        "elements": list(elements),
        "action": {x: {g: "*" for g in gens} for x in elements},
    })


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*args):
    """One CLI invocation as ``python -m tracehom`` in a child process
    limited to 1 GiB of address space and 60 s, so a bound that no
    longer bounds the work fails fast instead of filling memory."""
    done = subprocess.run([sys.executable, "-m", "tracehom",
                           *(str(a) for a in args)],
                          env=checkout_env(), capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=_cap_address_space)
    return Result(done.returncode, done.stdout, done.stderr)


def test_homology_max_degree_bounds_the_work(tmp_path):
    """On a complete alphabet of 40 generators (2^40 cliques) a bound of
    1 lists cliques only up to size 2.  The flag complex is a simplex,
    so aug and split give H_0 = Z and H_1 = Z^40."""
    path = complete_alphabet_file(tmp_path, 40)
    start = time.perf_counter()
    result = run_capped("homology", path, "--max-degree", 1,
                        "--format", "json")
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
    result = run_capped("verify", path, "--max-degree", 1,
                        "--format", "json")
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
    result = run_capped("counterexample", path, "--max-degree", 1,
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


def test_schema_flagify_of_a_long_face_stops_at_the_size_cap(tmp_path):
    """One face of 10 vertices flagifies to 1,023 generators whose clique
    levels hold 57,002 and then 874,500 cliques, under the cap, but the
    masks of level 3 may hold 894,613,500 bits (106.6 MiB), more than
    the mask-bit cap: exit 2 naming that level and its bound, before it
    is grown."""
    path = write(tmp_path, "faces.txt", "a b c d e f g h i j\n")
    start = time.perf_counter()
    result = run_capped("schema", path, "--flagify")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: too large: clique level 3 would hold 894613500 mask bits "
        f"at most; the limit is {alphabet._MASK_BITS_CAP}"]
    assert elapsed < 2.0



def test_schema_flagify_of_an_8_vertex_face_stops_at_the_complex_cap(
        tmp_path):
    """One face of 8 vertices flagifies to 255 generators whose clique
    levels each stay under the caps, but together hold 255 + 6,050 +
    46,620 + 166,824 + 317,520 + 332,640 + 181,440 + 40,320 = 1,091,669
    simplices: exit 2 once the levels are counted, before any clique is
    named."""
    path = write(tmp_path, "faces.txt", "a b c d e f g h\n")
    start = time.perf_counter()
    result = run_capped("schema", path, "--flagify")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: too large: the clique complex would hold 1091669 simplices; "
        f"the limit is {alphabet._SIZE_CAP}"]
    assert elapsed < 2.0


def test_verify_over_an_8_vertex_face_stops_at_the_chain_complex_cap(
        tmp_path):
    """The two-point action over the same 255 generators: its DELTA
    complex has 2 rank-1 points times the 1 + 1,091,669 cliques of every
    degree.  split, the first check, exits 2 before any map is built."""
    alpha = barycentric_flagification(read_face_list("a b c d e f g h\n"))
    gens = list(alpha.generators)
    path = write(tmp_path, "face8.json", {
        "generators": gens, "independence": [list(p) for p in alpha.pairs],
        "elements": ["x0"], "action": {"x0": {g: "*" for g in gens}}})
    start = time.perf_counter()
    result = run_capped("verify", path)
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: too large: the chain complex would hold 2183340 basis "
        f"elements; the limit is {alphabet._SIZE_CAP}"]
    assert elapsed < 2.0


def test_mask_bits_cap_admits_its_limit_and_refuses_one_more(tmp_path,
                                                             monkeypatch):
    """On the complete alphabet of 4 generators the masks of level 1, of
    3, 2, 1 and 0 bits set below bit 4, bound those of level 2 by
    3*4 + 2*4 + 1*4 = 24 bits, the largest bound of any level."""
    path = complete_alphabet_file(tmp_path, 4)
    unbounded = run("schema", path)
    assert unbounded.exit_code == 0, unbounded.output
    monkeypatch.setattr(alphabet, "_MASK_BITS_CAP", 24)
    at_cap = run("schema", path)
    assert (at_cap.exit_code, at_cap.stdout, at_cap.stderr) == \
        (0, unbounded.stdout, "")
    monkeypatch.setattr(alphabet, "_MASK_BITS_CAP", 23)
    over = run("schema", path)
    assert (over.exit_code, over.stdout) == (2, "")
    assert over.stderr.splitlines() == [
        "error: too large: clique level 2 would hold 24 mask bits at most; "
        "the limit is 23"]


@pytest.mark.parametrize("command", ["homology", "verify", "counterexample"])
def test_max_degree_past_the_size_cap_exits_2(tmp_path, command):
    """A bound of 10^20 would report 10^20 + 1 degrees: exit 2 at once,
    with nothing built past the largest clique."""
    path = complete_alphabet_file(tmp_path, 3)
    start = time.perf_counter()
    result = run_capped(command, path, "--max-degree", 10 ** 20)
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: too large: homology up to degree {10 ** 20} would hold "
        f"{10 ** 20 + 1} groups; the limit is {alphabet._SIZE_CAP}"]
    assert elapsed < 2.0


def _size_cap_cases(tmp_path):
    """(argv, the largest listing, its error) for each of the four size
    checks: a clique level (levels [1, 4, 6, 4, 1]; the action has no
    elements, so its punctured complex has no basis at all and level 2
    is the largest listing), a chain complex (2 rank-1 points times the
    1 + 4 + 4 cliques of every degree), a face list (a and b; the
    repeated line counts once) and a clique complex (the 4 + 6 + 4 + 1
    simplices of the same levels)."""
    complete = complete_alphabet_file(tmp_path, 4, elements=())
    faces = write(tmp_path, "faces.txt", "a\nb\na\n")
    return [
        (("homology", complete, "--coeff", "punctured"), 6,
         "error: too large: clique level 2 would hold 6 cliques"),
        (("homology", PROBLEMS / "x0_cycle4.json"), 18,
         "error: too large: the chain complex would hold 18 basis "
         "elements"),
        (("schema", faces, "--flagify"), 2,
         f"error: {faces}: too large: the face list would hold 2 faces"),
        (("schema", complete), 15,
         "error: too large: the clique complex would hold 15 simplices"),
    ]


@pytest.mark.parametrize("case", range(4),
                         ids=["level", "degree", "faces", "complex"])
def test_size_cap_admits_its_limit_and_refuses_one_more(tmp_path,
                                                        monkeypatch, case):
    argv, count, error = _size_cap_cases(tmp_path)[case]
    unbounded = run(*argv)
    assert unbounded.exit_code == 0, unbounded.output
    monkeypatch.setattr(alphabet, "_SIZE_CAP", count)
    at_cap = run(*argv)
    assert (at_cap.exit_code, at_cap.stdout, at_cap.stderr) == \
        (0, unbounded.stdout, "")
    monkeypatch.setattr(alphabet, "_SIZE_CAP", count - 1)
    over = run(*argv)
    assert over.exit_code == 2
    assert over.stdout == ""
    assert over.stderr.splitlines() == [f"{error}; the limit is {count - 1}"]


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


def test_schema_flagify_names_faces_whose_generator_names_collide(tmp_path):
    """The vertex 'a,b' and the edge ab would both be the generator
    'a,b': exit 2 naming both faces, not a duplicate generator the file
    never wrote."""
    path = write(tmp_path, "faces.txt", "a,b c\na b\n")
    result = run("schema", path, "--flagify")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {path}: faces ('a,b',) and ('a', 'b') both get the "
        "generator name 'a,b': a vertex name must not contain ','"]


def test_schema_flagify_keeps_a_comma_name_that_does_not_collide(tmp_path):
    path = write(tmp_path, "faces.txt", "a,b c d\n")
    result = run("schema", path, "--flagify")
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "p = [1, 7, 12, 6]"


def test_schema_flagify_rejects_a_hash_inside_a_face_line(tmp_path):
    """'a b c # tri' is no triangle with a comment, nor a 5-vertex face:
    exit 2, naming every bad line."""
    path = write(tmp_path, "faces.txt",
                 "# triangle\na b c # tri\nc d\nd d\n")
    result = run("schema", path, "--flagify")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {path}: line 2: '#' starts a comment only at the start "
        "of a line: 'a b c # tri'",
        f"error: {path}: line 4: face repeats a vertex: 'd d'",
    ]


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
    alphabet's masks is grown once, however often the checks ask for
    it."""
    grown = []
    next_level = alphabet._next_level

    def counting(later, masks):
        grown.append((later, masks))
        return next_level(later, masks)

    monkeypatch.setattr(alphabet, "_next_level", counting)
    result = run("verify", PROBLEMS / "rp2_x0.json")
    assert result.exit_code == 0, result.output
    assert len({id(later) for later, _ in grown}) == 1
    assert len({id(masks) for _, masks in grown}) == len(grown)
    # levels 0 and 1 come with the alphabet; levels 1, 2 and 3 (the top,
    # clique counts 31, 90, 60) are grown from, the last into an empty
    # level 4
    assert [len(masks) for _, masks in grown] == [31, 90, 60]


# --- iso ------------------------------------------------------------------

def test_iso_negative_pair():
    result = run("iso", PROBLEMS / "chain2_cycle4.json",
                 PROBLEMS / "fan2_cycle4.json")
    assert result.exit_code == 1
    assert "NOT ISOMORPHIC (tried 2 assignments)" in result.stdout


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
    assert "isomorphic: NO (tried 2 assignments)" in out
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


@pytest.mark.parametrize("bound", [-1, -2])
def test_counterexample_negative_bound_compares_no_degrees(bound):
    """With no degree in either table the verdict claims nothing; the
    JSON report keeps its empty tables as they were."""
    result = run("counterexample", PROBLEMS / "cycle4.json",
                 "--max-degree", bound)
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-3:] == [
        "delta:", "punctured:", "verdict: no degrees compared"]
    payload = json.loads(run("counterexample", PROBLEMS / "cycle4.json",
                             "--max-degree", bound, "--format",
                             "json").stdout)
    assert payload["tables"] == {"delta": [], "punctured": []}
    assert payload["isomorphic"] is False
    assert payload["homology_equal"] is True


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



DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command, text", [
    ("homology", DEEP),
    ("schema", '{"generators": ' + DEEP + "}"),
], ids=["top-level", "in-generators"])
def test_deeply_nested_json_exits_2(tmp_path, command, text):
    """JSON nested deeper than the parser can follow is malformed input:
    exit 2 with an error naming the file, not a traceback."""
    path = write(tmp_path, "deep.json", text)
    result = run(command, path)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {path}: ")

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


@pytest.mark.parametrize("args, token", [
    ((), "COMMAND"),
    (("frob",), "frob"),
    (("homology",), "PROBLEM"),
    (("homology", "{x0}", "--coeff", "bogus"), "bogus"),
    (("homology", "{x0}", "--max-degree", "x"), "'x'"),
    (("homology", "{x0}", "--form", "json"), "--form"),
    (("homology", "{missing}"), "{missing}"),
    (("homology", "{dir}"), "{dir}"),
    (("schema", "{dir}", "--flagify"), "{dir}"),
    (("iso", "{x0}", "{missing}"), "{missing}"),
], ids=["no-command", "unknown-command", "no-problem", "bad-coeff",
        "bad-max-degree", "abbreviated-option", "missing-file",
        "directory", "flagify-directory", "iso-right-missing"])
def test_usage_errors_and_unreadable_inputs_exit_2(tmp_path, args, token):
    """Exit 2, nothing on stdout, and stderr names what was wrong."""
    paths = {"x0": PROBLEMS / "x0_cycle4.json", "dir": tmp_path,
             "missing": tmp_path / "missing.json"}
    result = run(*(a.format(**paths) for a in args))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert token.format(**paths) in result.stderr


def test_main_in_process(capsys, monkeypatch):
    """``main(argv, standalone_mode=False)``, as the benchmark drives it:
    it returns on success and raises SystemExit with the exit code
    otherwise."""
    def call(*args):
        return main([str(a) for a in args], standalone_mode=False)

    call("homology", PROBLEMS / "x0_cycle4.json")
    assert "H_2 = Z^5" in capsys.readouterr().out
    call("verify", PROBLEMS / "x0_cycle4.json")
    assert "[PASS] main degree 2" in capsys.readouterr().out
    call("iso", PROBLEMS / "chain2_cycle4.json",
         PROBLEMS / "chain2_cycle4.json")
    assert capsys.readouterr().out.startswith("ISOMORPHIC\n")
    with pytest.raises(SystemExit) as exc:
        call("iso", PROBLEMS / "chain2_cycle4.json",
             PROBLEMS / "fan2_cycle4.json")
    assert exc.value.code == 1
    monkeypatch.setattr(verify, "check_theorem_aug", lambda alpha, top: (
        verify.VerificationReport("aug", True, (verify.DegreeComparison(
            1, AbelianGroup(1), AbelianGroup(0)),))))
    with pytest.raises(SystemExit) as exc:
        call("verify", PROBLEMS / "cycle4.json", "--which", "aug")
    assert exc.value.code == 1
    assert "[FAIL] aug degree 1: Z = 0" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        call("schema", PROBLEMS / "rp2_faces.txt")
    assert exc.value.code == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_while_a_command_runs(tmp_path, monkeypatch,
                                               enabled):
    """The command runs with the cyclic collector off, and however it
    ends, the collector is left as main found it."""
    during = []
    compute = chains.homology

    def recording(*args):
        during.append(gc.isenabled())
        return compute(*args)

    def failing(*args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    bad = write(tmp_path, "bad.json", "{not json")
    calls = [
        (recording, ("homology", PROBLEMS / "x0_cycle4.json"), 0),
        (recording, ("iso", PROBLEMS / "chain2_cycle4.json",
                     PROBLEMS / "fan2_cycle4.json"), 1),
        (recording, ("homology", bad), 2),
        (failing, ("homology", PROBLEMS / "x0_cycle4.json"), RuntimeError),
    ]
    try:
        for command, args, outcome in calls:
            monkeypatch.setattr(chains, "homology", command)
            (gc.enable if enabled else gc.disable)()
            if outcome is RuntimeError:
                with pytest.raises(RuntimeError, match="boom"):
                    main([str(a) for a in args])
            else:
                assert run(*args).exit_code == outcome
            assert gc.isenabled() is enabled, args
    finally:
        gc.enable()
    # the two calls that reach the homology see the collector off
    assert during == [False, False]


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
        f"error: {path}: independence pair [['a'], 'b'] is not a pair of "
        "generator names",
        f"error: {path}: independence pair 'ab' is not a pair of "
        "generator names",
        f"error: {path}: independence pair {{'a': 1, 'b': 2}} is not a "
        "pair of generator names",
    ]


@pytest.mark.parametrize("bad_side", [0, 1])
def test_iso_names_the_file_with_the_malformed_alphabet(tmp_path, bad_side):
    good = {"generators": ["a", "b"], "elements": ["x0"],
            "action": {"x0": {"a": "*", "b": "*"}}}
    bad = dict(good, independence=["ab"])
    paths = [write(tmp_path, "l.json", bad if bad_side == 0 else good),
             write(tmp_path, "r.json", bad if bad_side == 1 else good)]
    result = run("iso", *paths)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: {paths[bad_side]}: independence pair 'ab' is not a pair "
        "of generator names"]
    assert str(paths[1 - bad_side]) not in result.stderr


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
    assert done.stdout.startswith("usage: tracehom")
    listed = {line.split()[0] for line in done.stdout.splitlines()
              if line.startswith("    ")}
    assert set(SUBCOMMANDS) <= listed


def checkout_env():
    """The environment with the checkout's src/ first on PYTHONPATH."""
    pythonpath = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


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
    done = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          cwd=tmp_path, env=checkout_env(),
                          capture_output=True, text=True)
    assert_help_lists_subcommands(done)


def test_non_ascii_output_survives_an_ascii_stdout(tmp_path):
    """A line stdout cannot encode is written as UTF-8, not lost."""
    done = subprocess.run(
        [sys.executable, "-m", "tracehom", "schema",
         str(PROBLEMS / "cycle4.json")],
        cwd=tmp_path, env=dict(checkout_env(), PYTHONIOENCODING="ascii"),
        capture_output=True)
    assert done.returncode == 0, done.stderr
    assert b"H\xcc\x83_0 = 0" in done.stdout


def test_imports_only_the_standard_library():
    """With site-packages hidden (-S) and PYTHONPATH ignored (-E), the
    command line still imports from the checkout."""
    code = f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); " \
        "import tracehom.cli"
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_python_m_tracehom(tmp_path):
    done = subprocess.run([sys.executable, "-m", "tracehom", "--help"],
                          cwd=tmp_path, env=checkout_env(),
                          capture_output=True, text=True)
    assert_help_lists_subcommands(done)


@pytest.mark.skipif(shutil.which("tracehom") is None,
                    reason="tracehom console script is not on PATH "
                           "(package not installed)")
def test_installed_console_script():
    done = subprocess.run([shutil.which("tracehom"), "--help"],
                          capture_output=True, text=True)
    assert_help_lists_subcommands(done)


# --- JSON layout and the README's examples --------------------------------

TEXT = st.text(st.characters(exclude_categories=()) |
               st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800\udfff'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT |
    st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -2 ** 64),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) |
    st.dictionaries(TEXT, inner),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [0.5], {"a": float("nan")}, {1: 2}, {None: 0}, {"a": {1}}])
def test_json_writer_rejects_what_json_dumps_would_print_differently(value):
    """json.dumps prints floats and turns non-string keys into strings;
    the writer raises instead, as it does on a set."""
    with pytest.raises(TypeError):
        _json(value)


JSON_CALLS = [
    *[("homology", name, "--coeff", coeff)
      for name in ACTION_FILES for coeff in sorted(SYSTEMS)],
    *[(command, p.name) for p in sorted(PROBLEMS.glob("*.json"))
      for command in ("schema", "verify", "counterexample")],
    ("schema", "--flagify", "rp2_faces.txt"),
    ("iso", "chain2_cycle4.json", "fan2_cycle4.json"),
    ("iso", "x0_cycle4.json", "x0_cycle4.json"),
]


@pytest.mark.parametrize("args", JSON_CALLS, ids=" ".join)
def test_json_output_is_laid_out_as_json_dumps(monkeypatch, args):
    """--format json prints what json.dumps(..., indent=2) would."""
    monkeypatch.chdir(PROBLEMS)
    result = run(*args, "--format", "json")
    assert result.exit_code in (0, 1), result.stderr
    assert result.stdout == \
        json.dumps(json.loads(result.stdout), indent=2) + "\n"


def readme_command_lines():
    """The argv of each `tracehom` line of the fenced block under
    README.md's "## Command line"."""
    section = (REPO / "README.md").read_text().split(
        "\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("tracehom ")]


def test_readme_command_line_examples_run(monkeypatch):
    """Each example runs from the repository root; only the iso line
    exits 1, as the chain and the fan are not isomorphic."""
    monkeypatch.chdir(REPO)
    lines = readme_command_lines()
    assert {argv[0] for argv in lines} == \
        {"homology", "schema", "verify", "iso", "counterexample"}
    for argv in lines:
        result = run(*argv)
        assert result.exit_code == (1 if argv[0] == "iso" else 0), argv
        assert result.stdout and not result.stderr, argv
