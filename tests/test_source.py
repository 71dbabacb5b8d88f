import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pointcharge"


def unused_imports(source):
    """Names an import binds that no other line of the module reads: the
    leftovers of deleted or moved code."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import numpy as np\nimport os.path\n"
              "from .minkowski import METRIC, inner, lower\n"
              "def f(x):\n    return np.sum(inner(x, x))\n")
    assert unused_imports(source) == ["METRIC (line 3)", "lower (line 3)",
                                      "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
