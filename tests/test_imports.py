"""No package module imports a name it never uses.

No linter ships with the toolchain, so this is the unused-import rule in
the standard library: every module under src/shocklayer/ except
`__init__.py` (which imports in order to re-export) is parsed, and each
name an import binds must be read somewhere in the module. The names the
benchmark tracer swaps on `cli` and `profiles` are all called there, so
they pass.
"""

import ast
from pathlib import Path

import pytest

import shocklayer

MODULES = sorted(p for p in Path(shocklayer.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no Name node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_rule_catches_unused_names():
    source = "import os\nimport os.path as osp\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os", "osp", "tau"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []
