"""The benchmark's tracer wraps functions of the package by name; every
name it lists has to resolve, or ``--trace 1`` stops at install, and has
to be reached by the command line, or its metrics read 0."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

#: targets that no command reaches any more, and why
RETIRED = {
    # the chain complex is built from dimensions, with no basis listed
    "chains.basis",
    # both routes call homology_of_complex, never its two-map case
    "intlinalg.pair",
    # the SNF kernel reads the sparse entries, with no dense copy
    "intlinalg.to_rows",
}

#: in-process command lines over problems/, with their exit codes
CALLS = [
    (["homology", "rp2_x0.json"], 0),
    (["schema", "--flagify", "rp2_faces.txt"], 0),
    (["verify", "fan4_cycle4.json"], 0),
    (["iso", "chain2_cycle4.json", "fan2_cycle4.json"], 1),
    (["counterexample", "cycle4.json"], 0),
]

# Installs the tracer in a fresh interpreter, runs each command line
# there and prints the exit codes and the names of the spans recorded.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import tracehom.cli
tracer = spans.Tracer()
tracer.install("tracehom")
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            tracehom.cli.main(argv)
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted({span[0] for span in tracer.spans})]))
"""


def targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("name,target", sorted(targets().items()))
def test_trace_target_resolves(name, target):
    module, path, _ = target
    owner = importlib.import_module(f"tracehom.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name


def test_every_trace_target_is_reached_unless_retired():
    """A change that leaves a target unreached has to retire it here."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS),
         json.dumps([argv for argv, _ in CALLS])],
        cwd=ROOT / "problems", env=env, capture_output=True, text=True,
        check=True).stdout
    codes, reached = json.loads(out)
    assert codes == [code for _, code in CALLS]
    assert set(targets()) - set(reached) == RETIRED
