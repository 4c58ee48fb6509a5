"""No package module imports a name it never uses or defines a dead private name.

No linter ships with the toolchain, so these are two rules in the
standard library's `ast`:

- unused imports: every module under src/shocklayer/ is parsed, and
  each name an import binds must be read somewhere in the module or in
  the source the module compiles at run time against its own globals. The
  names the benchmark tracer swaps on `cli` and `profiles` are all called
  there, so they pass.
- dead names: every private (single-underscore) function, class or
  constant defined at module level must be read somewhere in the
  package or in its generated source, as a name or as an attribute. A
  helper left behind by a refactor fails it.

The generated source is every right-hand-side closure `reduction` builds
and every step kernel `sode` compiles: the kernel of each `RhsSource`,
the call source of foreign callbacks included, in both modes.
"""

import ast
from pathlib import Path

import pytest

import shocklayer
from shocklayer import profiles, reduction, sode

MODULES = sorted(Path(shocklayer.__file__).parent.glob("*.py"))
SOURCES = (reduction.TW_RHS, profiles.FLUX_RHS)
GENERATED = {
    "reduction.py": [reduction._closure_source(rhs) for rhs in SOURCES],
    "sode.py": [
        sode._kernel_source(len(rhs.state) + (mode == "rescaled"), mode, rhs)
        for mode in ("direct", "rescaled")
        for rhs in (sode._call_source(2), *SOURCES)
    ],
}


def unused_imports(source: str, generated: list[str] = ()) -> list[str]:
    """Names bound by the imports of source that no Name node reads, there or in the generated source."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    trees = [tree, *map(ast.parse, generated)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), GENERATED.get(path.name, [])) == []


def test_rule_catches_unused_names():
    source = "import os\nimport os.path as osp\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os", "osp", "tau"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []


def test_rule_reads_generated_source():
    source = "from math import isfinite, sqrt\nprint(sqrt(2.0))\n"
    assert unused_imports(source, ["def f(x):\n    return isfinite(x)\n"]) == []
    assert unused_imports(source, ["def f(x):\n    return x - x == 0.0\n"]) == ["isfinite"]


def defined_private_names(tree: ast.Module) -> set[str]:
    """Single-underscore names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.AST) -> set[str]:
    """Names a tree reads, as a bare name or as an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def dead_names(sources: list[str], generated: list[str] = ()) -> list[str]:
    """Private module-level names defined in sources that none of them, nor the generated source, reads."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*(defined_private_names(tree) for tree in trees))
    reads = [read_names(tree) for tree in trees + [ast.parse(source) for source in generated]]
    return sorted(defined - set().union(*reads))


def test_no_dead_private_names():
    package = sorted(Path(shocklayer.__file__).parent.glob("*.py"))
    generated = [source for sources in GENERATED.values() for source in sources]
    assert dead_names([path.read_text() for path in package], generated) == []


def test_a_helper_only_generated_source_reads_is_used():
    lib = "_check = 1.0\ndef _helper():\n    return 0.0\nSOURCE = '_helper()'\n"
    assert dead_names([lib], ["def stage():\n    return _helper()\n"]) == ["_check"]
    assert dead_names([lib], ["def stage():\n    return 0.0\n"]) == ["_check", "_helper"]


def test_rule_catches_dead_names():
    lib = "_LIMIT = 1.0\n_A, _B = 1, 2\ndef _helper():\n    return _LIMIT\nclass _Old:\n    pass\n__all__ = []\n"
    user = "from lib import _helper\nimport lib\nprint(_helper(), lib._B)\n"
    assert dead_names([lib, user]) == ["_A", "_Old"]
