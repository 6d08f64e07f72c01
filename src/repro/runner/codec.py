"""One codec between dataclass trees and JSON values.

Unit tasks cross the fabric's wire, unit results land in artifact
stores, and a unit's identity is a digest of its settings; all three
are the same dataclasses rendered as JSON.  Both directions are driven
by the dataclasses' own fields and type hints, so a field added to any
of them is carried everywhere without being named here.  Fields
declared with ``compare=False`` (in-memory attachments such as an
experiment's aligned layouts) are not data and are left out.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints


def to_plain(value: Any) -> Any:
    """A dataclass tree as JSON values: dicts, lists and scalars."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_plain(getattr(value, f.name)) for f in fields(value) if f.compare
        }
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_plain(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    return value


def from_plain(hint: Any, value: Any) -> Any:
    """Rebuild a value of type ``hint`` from :func:`to_plain` output.

    A field missing from ``value`` takes its default.  Malformed input
    raises ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    if value is None:
        return None
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        concrete = [arg for arg in args if arg is not type(None)]
        # Optional[X] rebuilds an X; any wider union keeps the JSON value.
        return from_plain(concrete[0], value) if len(concrete) == 1 else value
    if origin is tuple:
        return tuple(from_plain(args[0], item) for item in value)
    if origin is dict:
        return {key: from_plain(args[1], item) for key, item in value.items()}
    if isinstance(hint, type) and is_dataclass(hint):
        if not isinstance(value, dict):
            raise TypeError(f"{hint.__name__} needs a mapping, got {value!r}")
        hints = get_type_hints(hint)
        return hint(**{
            f.name: from_plain(hints[f.name], value[f.name])
            for f in fields(hint)
            if f.compare and f.name in value
        })
    return value
