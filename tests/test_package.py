"""The package's export list and what importing it loads."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import rfl

# SciPy subpackages that would about double the import time of rfl; only
# halton_points, rate_study_power and sobolev kernels of orders other than
# 1 and 2 load them
_DEFERRED_SCIPY = (
    "scipy.stats",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.special",
    "scipy.sparse",
)


def test_every_exported_name_resolves_once():
    assert len(rfl.__all__) == len(set(rfl.__all__))
    missing = [name for name in rfl.__all__ if not hasattr(rfl, name)]
    assert missing == []


def test_public_names_are_exported():
    # every public function and class of a library module is in rfl.__all__;
    # cli is the command-line front end and _-prefixed modules are private
    unexported = []
    for info in pkgutil.iter_modules(rfl.__path__):
        if info.name.startswith("_") or info.name == "cli":
            continue
        module = importlib.import_module(f"rfl.{info.name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
                and name not in rfl.__all__
            ):
                unexported.append(f"{info.name}.{name}")
    assert unexported == []


def _code_names(path: Path) -> set[str]:
    """Names a Python file uses in code, leaving out strings, comments and definitions.

    A definition is the name after ``def`` or ``class``, or a module-level
    name assigned at the start of a line.
    """
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    names = set()
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME or (i and tokens[i - 1].string in ("def", "class")):
            continue
        nxt = tokens[i + 1].string if i + 1 < len(tokens) else ""
        if tok.start[1] == 0 and nxt in ("=", ":"):
            continue
        names.add(tok.string)
    return names


def test_every_export_has_a_caller():
    # an exported name that only the tests use is dead public code: each one
    # is used by the package's own code, a demo, the benchmark, or the README
    repo = Path(__file__).resolve().parents[1]
    package = repo / "src" / "rfl"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(repo / "demos").rglob("*.py"), *(repo / "perfbench").rglob("*.py")]
    used = set().union(*map(_code_names, sources))
    readme = (repo / "README.md").read_text()
    uncalled = [
        name
        for name in rfl.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert uncalled == []


def test_every_import_is_used():
    # an import that its module never reads is dead code; __init__ re-exports
    # through __all__, so the names listed there count as read
    unused = []
    for path in sorted(Path(rfl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(rfl.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_import_loads_no_deferred_scipy_subpackage():
    src = str(Path(rfl.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    code = "import sys, rfl, rfl.cli; print('\\n'.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        name
        for name in proc.stdout.split()
        if any(name == p or name.startswith(p + ".") for p in _DEFERRED_SCIPY)
    ]
    assert loaded == []


# what makes an isinstance call a number-type check
_NUMBER_TYPES = {"Integral", "Real", "Number", "integer", "floating"}


def _number_checks(tree: ast.AST, where: str = ""):
    """(function, line) of each number-type decision under ``tree``.

    That is an ``.is_integer()`` call, or an ``isinstance`` whose types
    name ``Integral``, ``Real``, ``Number``, ``np.integer`` or ``np.floating``.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _number_checks(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "is_integer":
                yield where, node.lineno
            if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
                named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
                if named & _NUMBER_TYPES:
                    yield where, node.lineno
        yield from _number_checks(node, where)


def test_only_errors_decides_what_an_integer_or_a_finite_real_is():
    # the rfl.errors checks are the one rule; cli._csv_cell reads number
    # types to format a cell, not to validate one
    found = []
    for path in sorted(Path(rfl.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for where, line in _number_checks(ast.parse(path.read_text())):
            if (path.name, where) != ("cli.py", "_csv_cell"):
                found.append(f"{path.name}:{line} in {where or 'module'}")
    assert found == []
