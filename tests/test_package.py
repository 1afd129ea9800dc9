"""The package's export list."""

from __future__ import annotations

import rfl


def test_every_exported_name_resolves_once():
    assert len(rfl.__all__) == len(set(rfl.__all__))
    missing = [name for name in rfl.__all__ if not hasattr(rfl, name)]
    assert missing == []
