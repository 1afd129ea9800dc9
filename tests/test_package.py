"""The package's export list and what importing it loads."""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rfl

# SciPy subpackages that would about double the import time of rfl; only
# halton_points, rate_study_power and spline-order sobolev kernels load them
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
