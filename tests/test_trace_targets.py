"""The benchmark's tracer wraps functions of the package by name; every
name it lists has to resolve, or ``--trace 1`` stops at install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
