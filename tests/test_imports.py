"""The package runs on the standard library alone: every module of
``tracehom`` imports only ``tracehom`` itself and standard modules."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tracehom"
MODULES = sorted(SRC.glob("*.py"))


def imported(tree):
    """(line, top-level module name) of every absolute import; a
    relative import (``from . import x``) names the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, "tracehom"
            else:
                yield node.lineno, node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "alphabet", "chains",
                                         "cli", "intlinalg", "msets"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [(line, name) for line, name in imported(tree)
               if name != "tracehom" and name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports outside the stdlib"
