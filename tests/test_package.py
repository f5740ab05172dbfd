import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fockbench


def test_every_traced_benchmark_target_resolves(monkeypatch):
    # perfbench wraps these by name; a deletion that would break its traced run fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    layers = importlib.import_module("perfbench.layers")
    assert len(layers.TARGETS) >= 20
    assert [(owner, attr) for owner, attr, *_ in layers.TARGETS if not hasattr(owner, attr)] == []


def test_every_exported_name_resolves():
    modules = [fockbench] + [importlib.import_module(f"fockbench.{m.name}") for m in pkgutil.iter_modules(fockbench.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len({mod for mod, _ in exported}) >= 7
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []


def _unused_imports(source):
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_has_an_unused_import():
    unused = {
        path.name: found
        for path in sorted(Path(fockbench.__file__).parent.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _private_definitions(tree):
    """(name, node) of each module-level ``_name`` and each ``_method`` of a
    module-level class, dunders excluded; a method is named ``Class._method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            found += [(f"{node.name}.{m.name}", m) for m in methods]
    return [(name, node) for name, node in found if name.rsplit(".", 1)[-1].startswith("_") and not name.endswith("__")]


def _unread_private_names(sources):
    """The private names that ``sources`` (module name -> source) define but
    never read outside their own definition.  A read is a loaded name or
    attribute, matched by identifier across all the sources."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for mod, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            ident = name.rsplit(".", 1)[-1]
            if not any(r == ident and id(node) not in inside for r, node in reads):
                unread.append(f"{mod}.{name}")
    return sorted(unread)


def test_every_private_helper_has_a_caller():
    root = Path(fockbench.__file__).parent
    assert _unread_private_names({path.stem: path.read_text() for path in sorted(root.glob("*.py"))}) == []


def test_private_name_finder_sees_each_kind():
    a = (
        "_USED, _UNUSED = 1, 2\n_K: int = _USED\n"
        "def _called(): return _K\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "class _Box:\n"
        "    def __init__(self): self._kept = self._helper()\n"
        "    def _helper(self): return 0\n"
        "    def _orphan(self): return self._orphan()\n"
    )
    b = "from .a import _called\nx = _called() + _Box()._kept\n"
    assert _unread_private_names({"a": a, "b": b}) == ["a._Box._orphan", "a._UNUSED", "a._recursive"]


def _boundary_takers(source):
    """Names of the functions in ``source`` with a ``boundary`` parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if "boundary" in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_only_the_stencil_primitives_take_a_boundary():
    # the stencil policy is the chart's field; only chart's primitives take one
    root = Path(fockbench.__file__).parent
    takers = {path.name: _boundary_takers(path.read_text()) for path in sorted(root.glob("*.py"))}
    primitives = ["_stencil", "dx_array", "dy_array", "_d_dispatch", "dz_array", "dzbar_array"]
    assert takers.pop("chart.py") == primitives
    assert {name: found for name, found in takers.items() if found} == {}
    assert _boundary_takers("def f(a, *, boundary=None): pass\ng = lambda boundary: 0\n") == ["f", "<lambda>"]


def test_unused_import_finder_sees_each_kind():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c as d\nfrom . import e\n__all__ = ['e']\nnp.zeros(b)\n"
    assert _unused_imports(src) == [(2, "os"), (3, "d")]


def _fresh_python(*args, cwd=None):
    """Run a fresh interpreter on ``args`` with the package's source on its path."""
    src = str(Path(fockbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


def _scipy_modules(imported):
    return [m for m in imported if m.split(".")[0] == "scipy"]


def test_import_loads_no_scipy():
    # the stencils are numpy; scipy.sparse loads only where the solver assembles its Galerkin matrix
    code = "import json, sys, fockbench\nprint(json.dumps(sorted(sys.modules)))"
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "fockbench.solver" in loaded
    assert _scipy_modules(loaded) == []


def _run_cli(tmp_path, *args):
    """``python -m fockbench *args`` in a fresh interpreter under ``-X
    importtime``; its report and the modules it imported."""
    proc = _fresh_python("-X", "importtime", "-m", "fockbench", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return json.loads(proc.stdout), imported


def _config(tmp_path, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "o"))))
    return str(path)


def test_python_m_fockbench_runs_the_cli(tmp_path):
    report, imported = _run_cli(tmp_path, "fiber-verify", "--n", "3")
    assert report["status"] == "ok"
    assert "fockbench.cli" in imported
    assert _scipy_modules(imported) == []


_DISK12 = {"kind": "dirichlet-disk", "nx": 12, "ny": 12, "radius": 0.5}
_PERIODIC12 = {"kind": "periodic-rect", "nx": 12, "ny": 12}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("fillin", {"n": 3, "chart": _PERIODIC12, "beltrami": {"3": {"type": "bump", "center": [0.5, 0.5], "amplitude": 0.02}}}),
        ("fuchsian", {"n": 2, "chart": _DISK12, "grids": [12, 16]}),
    ],
    ids=["fillin", "fuchsian"],
)
def test_stencil_commands_import_no_scipy(tmp_path, command, cfg):
    report, imported = _run_cli(tmp_path, command, "--config", _config(tmp_path, cfg))
    assert report["status"] == "ok"
    assert _scipy_modules(imported) == []


def test_solve_imports_scipy_sparse_when_it_assembles(tmp_path):
    # nothing has loaded scipy in a fresh process, so this runs the solver's own imports
    cfg = {
        "n": 3,
        "chart": _DISK12,
        "beltrami": {"3": {"type": "bump", "center": [0.0, 0.0], "radius": 0.3, "amplitude": 0.01}},
        "solver": {"continuation_steps": 1, "preconditioner": "jacobi"},
    }
    report, imported = _run_cli(tmp_path, "solve", "--config", _config(tmp_path, cfg))
    assert report["status"] == "ok"
    assert report["iteration_traces"]["per_step"][0]["newton_iters"] > 0
    # a ``from scipy import sparse`` logs the package's own submodules, not the package
    assert "scipy.sparse._csr" in imported
