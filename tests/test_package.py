"""The package's export list."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import rfl


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
