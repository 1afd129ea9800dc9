"""JSON form of the study result dataclasses, derived from their fields."""

from __future__ import annotations

import dataclasses


def _json_value(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


class Report:
    """Mixin for result dataclasses: ``to_json`` walks the declared fields.

    Fields are emitted in declaration order.  A value with its own
    ``to_json`` is serialized through it, a list or tuple becomes a list,
    and any other value is passed through unchanged.  A field declared with
    ``metadata={"json": False}`` is left out.
    """

    def to_json(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.metadata.get("json", True)
        }
