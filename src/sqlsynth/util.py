"""Small shared helpers: stable hashing, seed derivation, JSONL io."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import DataFileError

SCHEMA_VERSION = 1

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


def dump_json(obj, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=False) + "\n", encoding="utf-8")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_jsonl(path: str | Path, kind: str, rows) -> None:
    """Write a JSONL file headed by a schema-version line."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": kind}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=False) + "\n")


def read_jsonl(path: str | Path, kind: str | None = None) -> list:
    """Read a JSONL file, checking the header line when ``kind`` is given.

    A line that is not JSON, or a header of another kind, raises
    :class:`~sqlsynth.errors.DataFileError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = _json_line(path, 1, fh.readline())
        found = header.get("kind") if isinstance(header, dict) else None
        if kind is not None and found != kind:
            raise DataFileError(f"{path}: expected kind {kind!r}, found {found!r}")
        return [
            _json_line(path, lineno, line)
            for lineno, line in enumerate(fh, start=2)
            if line.strip()
        ]


def _json_line(path, lineno: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}, line {lineno}: not JSON ({exc})") from exc
