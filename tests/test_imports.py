"""No package module imports an unused name, defines a dead private name, calls LAPACK off its two sites or does I/O outside `cli`.

Nor does any module but `sode` read the dense output's layout.

No linter ships with the toolchain, so these are rules in the standard
library's `ast`:

- unused imports: every module under src/shocklayer/ is parsed, and
  each name an import binds must be read somewhere in the module or in
  the source the module compiles at run time against its own globals. The
  names the benchmark tracer swaps on `cli` and `profiles` are all called
  there, so they pass.
- dead names: every private (single-underscore) function, class or
  constant defined at module level must be read somewhere in the
  package or in its generated source, as a name or as an attribute. A
  helper left behind by a refactor fails it.
- no numpy set routines: no module names `unique`, `isin`, `in1d`,
  `setdiff1d`, `intersect1d` or `union1d` as an attribute or imports
  them from numpy, because under numpy >= 2 each call imports
  `numpy.ma`, which nothing in the package uses.
- LAPACK in two places: only `structure` (its `eigvalsh` and `svd`) and
  the general branch of `sode.linearize` name numpy's `linalg`, as an
  attribute or an import, so the shock and layer path stays free of it.
- I/O in one module: no module but `cli` imports `json`, `os` or
  `pathlib`, so files and serialized formats stay in the command line.
- the dense output's layout in one module: no module but `sode` names
  `Q`, `_invert`, `_quartic`, `_quartic_value` or `_newton` as an
  attribute or an import, so every other module reads a dense output
  through `Trajectory`'s public methods (`eval`, `eval_where`,
  `step_eval`), and the layout can change in `sode` alone.

The generated source is every right-hand-side closure `reduction` builds
and every step kernel `sode` compiles: the kernel of each `RhsSource`,
the call source of foreign callbacks included, in both modes, each
with the inline stop rule.
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


SET_ROUTINES = {"unique", "isin", "in1d", "setdiff1d", "intersect1d", "union1d"}


def set_routines(source: str) -> list[str]:
    """numpy set routines source names, as an attribute (np.unique) or a from-import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(alias.name for alias in node.names if alias.name in SET_ROUTINES)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_set_routines(path):
    assert set_routines("\n".join([path.read_text(), *GENERATED.get(path.name, [])])) == []


def test_rule_catches_set_routines():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import isin, sort\n"
        "g = np.unique(np.sort(x))\nh = numpy.lib.arraysetops.union1d(g, g)\n"
        "print(np.setdiff1d(g, h), isin(g, h), sort(g))\n"
    )
    assert set_routines(source) == ["isin", "setdiff1d", "union1d", "unique"]
    assert set_routines("import numpy as np\ng = np.sort(x)\ng = g[np.concatenate(([True], g[1:] != g[:-1]))]\n") == []


def linalg_sites(source: str) -> list[str]:
    """Where source names numpy's linalg: the attribute ``linalg``, or an import of numpy.linalg.

    A site is the path of the functions, classes and if-arms around it,
    joined by dots, an arm named ``if`` or ``else``: ``f.else`` is the
    else arm of an if directly in f, and the empty string the module level.
    """
    found = []

    def names_linalg(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "linalg"
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.linalg") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.linalg") or module == "numpy" and any(
                alias.name == "linalg" for alias in node.names
            )
        return False

    def visit(node, path):
        if names_linalg(node):
            found.append(".".join(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = [*path, node.name]
        if isinstance(node, ast.If):
            visit(node.test, path)
            for arm, body in (("if", node.body), ("else", node.orelse)):
                for child in body:
                    visit(child, [*path, arm])
            return
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(ast.parse(source), [])
    return sorted(found)


LINALG_ALLOWED = {"sode.py": {"linearize.else"}}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "structure.py"], ids=lambda p: p.name)
def test_linalg_only_in_structure_and_the_general_branch(path):
    assert set(linalg_sites(path.read_text())) <= LINALG_ALLOWED.get(path.name, set())


def test_rule_catches_linalg():
    source = (
        "import numpy as np\nimport numpy.linalg\nfrom numpy import linalg, sort\nfrom numpy.linalg import eig\n"
        "def f(J):\n    if np.linalg.norm(J):\n        return np.linalg.eigvals(J)\n"
        "    elif J.size:\n        return sort(J)\n    else:\n        return np.linalg.eig(J)\n"
        "class C:\n    def g(self, M):\n        return np.linalg.svd(M)\n"
    )
    assert linalg_sites(source) == ["", "", "", "C.g", "f", "f.else.else", "f.if"]
    assert linalg_sites("import numpy as np\nfrom numpy import sort\ng = np.sort(x)\nh = x.linalg_like\n") == []


IO_MODULES = {"json", "os", "pathlib"}


def io_imports(source: str) -> list[str]:
    """The modules of IO_MODULES that source imports, whole or from, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found & IO_MODULES)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_cli_imports_io_modules(path):
    assert io_imports(path.read_text()) == []


def test_rule_catches_io_imports():
    source = (
        "import math\nimport os.path\nimport json as js\nfrom .pathlib_like import Path\n"
        "def f():\n    from pathlib import PurePath\n    import jsonschema\n"
    )
    assert io_imports(source) == ["json", "os", "pathlib"]
    assert io_imports("from .cli import main\nimport numpy as np\nfrom dataclasses import field\n") == []


DENSE_OUTPUT_LAYOUT = {"Q", "_invert", "_quartic", "_quartic_value", "_newton"}


def dense_output_reads(source: str) -> list[str]:
    """The names of DENSE_OUTPUT_LAYOUT that source names as an attribute (traj.Q) or imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in DENSE_OUTPUT_LAYOUT:
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(alias.name for alias in node.names if alias.name in DENSE_OUTPUT_LAYOUT)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sode.py"], ids=lambda p: p.name)
def test_only_sode_reads_the_dense_output_layout(path):
    assert dense_output_reads(path.read_text()) == []


def test_rule_catches_dense_output_reads():
    source = (
        "from .sode import Trajectory, _quartic\nfrom shocklayer.sode import _newton as newton\n"
        "def f(traj, c, s, d):\n    def g():\n        return sode._quartic_value(1.0, 2.0, 3.0, 4.0, 0.5)\n"
        "    return traj.Q, traj.hs, g(), traj._invert(0, c, s, d)\n"
    )
    assert dense_output_reads(source) == ["Q", "_invert", "_newton", "_quartic", "_quartic_value"]
    # a bare local named Q is no read of the layout, and the public methods pass
    source = "def f(traj):\n    Q, dQ = traj.step_eval(slice(None), 0.5)\n    return traj.eval_where(0, Q[:, 0])\n"
    assert dense_output_reads(source) == []


def test_rule_catches_the_hand_evaluated_midpoints():
    # profiles with max_extended_residual evaluating the quartic by hand, as it once did, fails the rule
    source = Path(profiles.__file__).read_text()
    read = "    U, dU = traj.step_eval(slice(None), 0.5)"
    assert read in source
    by_hand = source.replace(
        read, "    p, dU = _quartic(*traj.Q.transpose(2, 0, 1), 0.5)\n    U = traj.y0s + traj.hs[:, None] * p",
    )
    by_hand = by_hand.replace("    _positive_finite,\n", "    _positive_finite,\n    _quartic,\n", 1)
    assert dense_output_reads(source) == []
    assert dense_output_reads(by_hand) == ["Q", "_quartic"]


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
