import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tracehom

MODULES = [importlib.import_module(f"tracehom.{info.name}")
           for info in pkgutil.iter_modules(tracehom.__path__)]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__.split(".")[-1])
def test_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_library_block(capsys):
    """Each line the README's Library example prints is the one its
    trailing comment shows."""
    block = re.search(r"^## Library\n\n```python\n(.*?)^```",
                      README.read_text(), re.M | re.S).group(1)
    expected = [re.search(r"#\s*(\[.*\])\s*$", line).group(1)
                for line in block.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
