"""Small shared helpers: stable hashing, seed derivation, and the one typed
JSON codec every artifact and the config go through.

Writing: :func:`dump_json` and :func:`write_jsonl` serialize a dataclass as
the object of its fields, in declaration order, at any depth. So a file's
keys are its dataclass's fields, declared once. A JSONL file can also be
written in parts: :func:`open_jsonl`, then :func:`append_jsonl` for each
part, through the row encoder :func:`write_jsonl` uses.

Reading: :func:`decode` builds an annotated type from parsed JSON or TOML,
checking every value against its field's annotation. A dataclass reads
from an object of its fields, one with a ``parse`` method also from its
label string, a ``tuple`` or ``list`` from an array, and a ``float`` also
from an integer. A missing, unknown or mistyped field raises
:class:`FieldError` naming the field; :func:`read_jsonl` and
:func:`load_json` turn that into a :class:`~sqlsynth.errors.DataFileError`
naming the file and the line.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import DataFileError

SCHEMA_VERSION = 1

#: Field metadata of a config path key: a relative value resolves against
#: the config file's directory, and the snapshot writes it relative to it.
PATH = {"path": True}

_SEP = "\x1f"


def stable_hash_hex(*parts, length: int = 16) -> str:
    """Platform-stable hex digest of the given parts.

    Used for record ids, subschema ids, and prompt keys; Python's built-in
    ``hash`` is salted per process and must not be used for anything
    persisted.
    """
    payload = _SEP.join(str(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


def derive_seed(*parts) -> int:
    """Derive a 63-bit RNG seed from a global seed plus stage/batch labels."""
    return int(stable_hash_hex(*parts, length=16), 16) & (2**63 - 1)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))  # a TypeError unless a dataclass


def fields_of(obj) -> dict:
    """A dataclass instance as the dict of its fields, in declaration order
    and not copied: the shape every file holds it in."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def dump_json(obj, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, indent=2, default=fields_of)
    path.write_text(text + "\n", encoding="utf-8")


_encode_row = json.JSONEncoder(default=fields_of).encode  # one encoder for every row


def write_jsonl(path: str | Path, kind: str, rows) -> None:
    """Write a JSONL file headed by a schema-version line."""
    with open_jsonl(path, kind) as fh:
        append_jsonl(fh, rows)


def open_jsonl(path: str | Path, kind: str):
    """Open ``path`` as a new JSONL file of ``kind``: a text file holding
    its schema-version line, to which :func:`append_jsonl` adds rows."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", encoding="utf-8")
    append_jsonl(fh, ({"schema_version": SCHEMA_VERSION, "kind": kind},))
    return fh


def append_jsonl(fh, rows) -> None:
    """Write each of ``rows`` as one line to the JSONL file open as ``fh``."""
    for row in rows:
        fh.write(_encode_row(row) + "\n")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def load_json(path: str | Path, kind: str | None = None, cls=None):
    """Read a JSON file. With ``kind``, the file is an object headed by
    ``schema_version`` and a ``kind`` that must match; with ``cls``, the
    rest of the object is decoded as ``cls``. A file that is not JSON, of
    another kind, or with a bad field raises DataFileError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}, line {exc.lineno}: not JSON ({exc})") from exc
    if kind is not None:
        _check_kind(path, data, kind)
        data = {k: v for k, v in data.items() if k not in ("schema_version", "kind")}
    return data if cls is None else decode_in(cls, data, path)


def read_jsonl(path: str | Path, kind: str | None = None, cls=None) -> list:
    """Read a JSONL file, checking the header line when ``kind`` is given
    and decoding each row as ``cls`` when given.

    A line that is not JSON, a header of another kind, or a row with a
    missing, unknown or mistyped field raises
    :class:`~sqlsynth.errors.DataFileError` naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = _json_line(path, 1, fh.readline())
        if kind is not None:
            _check_kind(path, header, kind)
        rows = [
            (lineno, _json_line(path, lineno, line))
            for lineno, line in enumerate(fh, start=2)
            if line.strip()
        ]
    if cls is None:
        return [row for _, row in rows]
    return [decode_in(cls, row, f"{path}, line {lineno}") for lineno, row in rows]


def _json_line(path, lineno: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}, line {lineno}: not JSON ({exc})") from exc


def _check_kind(path, header, kind: str) -> None:
    found = header.get("kind") if isinstance(header, dict) else None
    if found != kind:
        raise DataFileError(f"{path}: expected kind {kind!r}, found {found!r}")


def decode_in(hint, data, where, path: tuple = ()):
    """``data`` decoded as ``hint``; a bad field is a DataFileError that
    names ``where`` (the file and line) and the field, found at ``path``
    when ``data`` is one entry of the file's object."""
    try:
        return decode(hint, data, path=path)
    except FieldError as exc:
        raise DataFileError(f"{where}: {exc.where or hint.__name__}: {exc}") from exc


class FieldError(ValueError):
    """A value that does not fit its annotated field. ``path`` holds the
    field names and list indices from the decoded value down to it; a map
    entry is reported as its map."""

    def __init__(self, path: tuple, message: str):
        super().__init__(message)
        self.path = path

    @property
    def where(self) -> str:
        """``path`` written as ``spanning_joins[0].to_table``."""
        return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path).lstrip(".")


@functools.cache
def _init_fields(cls) -> dict:
    """name -> (annotation, required) of each field ``cls(...)`` takes."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


def decode(hint, value, partial: bool = False, path: tuple = ()):
    """``value``, parsed JSON or TOML, as the annotated type ``hint``.

    Every field a dataclass takes must be present, unless ``partial``, which
    lets the value leave out the fields that have defaults, as a config file
    does. Raises :class:`FieldError` on a missing, unknown or mistyped
    field, or on a value its dataclass refuses.
    """
    if isinstance(hint, UnionType):  # the optional fields: X | None
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    origin = get_origin(hint) or hint
    args = get_args(hint)
    if is_dataclass(hint) and isinstance(value, dict):
        return _decode_dataclass(hint, value, partial, path)
    if is_dataclass(hint) and isinstance(value, str) and hasattr(hint, "parse"):
        try:
            return hint.parse(value)
        except ValueError as exc:
            raise FieldError(path, str(exc)) from exc
    if origin in (tuple, list) and isinstance(value, list) and args:
        kinds = args[:1] * len(value) if origin is list or args[1:] == (Ellipsis,) else args
        if len(kinds) == len(value):
            return origin(
                decode(kind, item, partial, path + (index,))
                for index, (kind, item) in enumerate(zip(kinds, value))
            )
    elif origin is dict and isinstance(value, dict) and args:
        return {key: decode(args[1], item, partial, path) for key, item in value.items()}
    elif hint is float and type(value) is int:
        return float(value)
    elif not is_dataclass(hint) and isinstance(value, origin) and (
        (type(value) is bool) == (origin is bool)
    ):
        return value
    expected = hint.__name__ if isinstance(hint, type) else str(hint)
    raise FieldError(path, f"expected {expected}, got {value!r}")


def _decode_dataclass(cls, value: dict, partial: bool, path: tuple):
    known = _init_fields(cls)
    for key in value:
        if key not in known:
            raise FieldError(path + (key,), "unknown key")
    kwargs = {}
    for name, (hint, required) in known.items():
        if name in value:
            kwargs[name] = decode(hint, value[name], partial, path + (name,))
        elif required or not partial:
            raise FieldError(path + (name,), "missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise FieldError(path, str(exc)) from exc
