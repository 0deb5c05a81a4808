"""The one JSON form of every config: written with ``asdict`` and ``dump``, read back by ``load_section``.

A bundle's ``model.json`` and ``pipeline.json`` are read as a ``Manifest``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import json
import math
import types
import typing
from pathlib import Path


class Manifest(dict):
    """A JSON object of a bundle file: the whole file, or the entry at
    ``where`` in it (``meta``).  A missing or malformed key raises
    ``ValueError`` naming the file and the entry."""

    def __init__(self, path: Path, where: str = "", meta=None):
        if not where:
            with open(path, encoding="utf-8") as handle:
                meta = json.load(handle)
        self.path = path
        self.location = f"{path}{where}"
        if not isinstance(meta, dict):
            raise ValueError(f"{self.location} must hold a JSON object, got {type(meta).__name__}")
        super().__init__(meta)

    def __missing__(self, key: str):
        raise ValueError(f"{self.location} is missing key {key!r}")

    def malformed(self, key: str, expected: str) -> ValueError:
        return ValueError(f"{self.location} key {key!r} must be {expected}, got {self[key]!r}")

    def entries(self, key: str) -> list["Manifest"]:
        """The JSON objects listed under ``key``."""
        if not isinstance(self[key], list):
            raise self.malformed(key, "a list")
        return [Manifest(self.path, f" {key}[{i}]", item) for i, item in enumerate(self[key])]

    def layout(self) -> list[tuple[str, int]]:
        """The ``layout`` key: (block, dim) pairs."""
        layout = self["layout"]
        pairs = isinstance(layout, list) and all(
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and type(pair[1]) is int
            for pair in layout
        )
        if not pairs:
            raise self.malformed("layout", "a list of [block, dim] pairs")
        return [(name, dim) for name, dim in layout]


def _resolve(path, base: Path | None):
    """``path`` (a string, a tuple of them or None) resolved against ``base``."""
    if isinstance(path, tuple):
        return tuple(_resolve(p, base) for p in path)
    if path is None or base is None or Path(path).is_absolute():
        return path
    return str(base / path)


def load_section(cls, raw, where: str, base_dir: Path | None = None):
    """Build section ``cls`` from its JSON object, checking keys and value types."""
    if not isinstance(raw, dict):
        raise ValueError(f"config section {where!r} must be a JSON object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"config section {where!r} has unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, f in fields.items():
        if name in raw:
            key = name if where == "<root>" else f"{where}.{name}"
            values[name] = _load_value(raw[name], hints[name], key, base_dir)
        elif f.default is not dataclasses.MISSING:
            values[name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            values[name] = f.default_factory()
        else:
            raise ValueError(f"config section {where!r} is missing required key {name!r}")
        if "path" in f.metadata:
            values[name] = _resolve(values[name], base_dir)
    return cls(**values)


def _load_value(value, kind, key: str, base_dir: Path | None):
    """``value`` checked against the annotation ``kind``; sections load recursively."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if dataclasses.is_dataclass(kind):
        return load_section(kind, value, key, base_dir)
    origin = typing.get_origin(kind)
    if origin in (tuple, frozenset):
        # A lone string stands for a one-item tuple; a frozenset is always a list.
        items = [value] if isinstance(value, str) and origin is tuple else value
        if not isinstance(items, (list, tuple)):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        item_kind = typing.get_args(kind)[0]
        return origin(_load_value(item, item_kind, f"{key}[{i}]", base_dir) for i, item in enumerate(items))
    if origin is collections.abc.Mapping:
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
        item_kind = typing.get_args(kind)[1]
        return {name: _load_value(item, item_kind, f'{key}["{name}"]', base_dir) for name, item in value.items()}
    if kind in (int, float):
        # An int fits a float field and a whole float an int one; bools, NaN and infinities fit neither.
        if isinstance(value, float):
            fits = math.isfinite(value) and (kind is float or value.is_integer())
        else:
            fits = isinstance(value, int) and not isinstance(value, bool)
    else:
        fits = isinstance(value, kind)
    if not fits:
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def dump(payload, ensure_ascii: bool = False) -> str:
    """Indented JSON with sorted keys and a final newline; frozensets become sorted lists."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=ensure_ascii, default=sorted) + "\n"
