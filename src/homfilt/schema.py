"""Config values read and written by the annotation of their dataclass field:
``int``, ``float``, ``str``, ``dict``, or a ``tuple[...]`` of one of these."""

import dataclasses
import typing


def whole(value) -> int:
    """``value`` as an int: only a whole number that is not a bool passes."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(float(value))


def real(value) -> float:
    """``value`` as a float: a bool is refused, not read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a real number, got {value!r}")
    return float(value)


def item_kind(kind):
    """The item annotation of ``tuple[item, ...]``, or None."""
    return typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None


def parse(kind, value):
    """``value`` as a field annotated ``kind``; a tuple parses item by item."""
    item = item_kind(kind)
    if item:
        return tuple(parse(item, v) for v in value)
    return {int: whole, float: real, str: str, dict: dict}[kind](value)


def fmt(kind, value) -> str:
    """A field annotated ``kind`` as text: a float as its repr, a tuple's items
    joined by spaces, anything else by ``str``."""
    item = item_kind(kind)
    if item:
        return " ".join(fmt(item, v) for v in value)
    return repr(float(value)) if kind is float else str(value)


def build(cls, values: dict):
    """``cls`` from a mapping of its field names to unparsed values."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    return cls(**{key: parse(kinds[key], v) for key, v in values.items()})
