"""The SQLite engine process: one connection, driven over a pair of pipes.

``execution.SqliteSession`` starts this file as ``python -I -S
sqlite_engine.py DATABASE``. It imports only the standard library and never
the ``sqlsynth`` package, so it starts in about 30 ms; ``-I -S`` keep
``PYTHONPATH``, site-packages and this file's directory off ``sys.path``.

Requests arrive on stdin and replies leave on stdout, one pickled tuple
each. The first reply, sent unasked, says whether the database opened. Each
request ``(op, *args)`` then gets ``("ok", result)`` or ``("error",
message)``. The process exits at the end of its input.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import sqlite3
import sys
import time
from itertools import islice

PROGRESS_STEP = 5_000  # VM instructions between deadline checks
FETCH_CHUNK = 1024


def elapsed_ms(started_ns: int) -> float:
    """Milliseconds since the ``perf_counter_ns`` reading ``started_ns``,
    rounded up to the microsecond so that no finished statement reads 0."""
    return math.ceil((time.perf_counter_ns() - started_ns) / 1_000) / 1_000


def run(conn, sql: str, timeout_ms: int):
    """Execute and consume ``sql`` under a progress-handler deadline; returns
    (row_count, timed_out, error, elapsed_ms). The time covers execution and
    fetching only."""
    deadline = time.monotonic() + timeout_ms / 1000.0
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, PROGRESS_STEP)
    started = time.perf_counter_ns()
    try:
        cursor = conn.execute(sql)
        rows = 0
        while chunk := cursor.fetchmany(FETCH_CHUNK):
            rows += len(chunk)
        return rows, False, None, elapsed_ms(started)
    except sqlite3.OperationalError as exc:
        if "interrupted" in str(exc).lower():
            return None, True, None, elapsed_ms(started)
        return None, False, str(exc), elapsed_ms(started)
    except sqlite3.Error as exc:
        return None, False, str(exc), elapsed_ms(started)
    finally:
        conn.set_progress_handler(None, 0)


class DataFileError(Exception):
    """A table's data file is missing or malformed, or its rows would not
    insert."""


def read_rows(data_dir: str, table: str, columns: list[str], cap: int):
    """Yield at most ``cap`` rows of ``<table>.tbl`` (pipe delimited, with or
    without a trailing delimiter) or, failing that, ``<table>.csv``, whose
    header line must name ``columns`` in order (in any letter case). Each
    row must hold one field per column."""
    width = len(columns)
    tbl_path = os.path.join(data_dir, f"{table}.tbl")
    csv_path = os.path.join(data_dir, f"{table}.csv")
    if os.path.exists(tbl_path):
        with open(tbl_path, encoding="utf-8") as fh:
            for line in islice(fh, cap):
                fields = line.rstrip("\n").split("|")
                if fields and fields[-1] == "":
                    fields.pop()
                if len(fields) != width:
                    raise DataFileError(f"{table}.tbl: expected {width} fields, got {len(fields)}")
                yield tuple(fields)
    elif os.path.exists(csv_path):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and [name.lower() for name in header] != [
                name.lower() for name in columns
            ]:
                raise DataFileError(
                    f"{table}.csv: header {','.join(header)!r} does not name the "
                    f"columns {','.join(columns)!r} in order"
                )
            for fields in islice(reader, cap):
                if len(fields) != width:
                    raise DataFileError(f"{table}.csv: expected {width} fields, got {len(fields)}")
                yield tuple(fields)
    else:
        raise DataFileError(f"no data file for table {table!r} in {data_dir}")


def load(conn, table: str, data_dir: str, columns: list[str], cap: int) -> int:
    """Insert the rows ``read_rows`` yields into ``table`` in one
    transaction; returns how many there were."""
    placeholders = ", ".join("?" * len(columns))
    quoted = table.replace('"', '""')  # the name may be a reserved word
    rows = read_rows(data_dir, table, columns, cap)
    try:
        cursor = conn.executemany(f'INSERT INTO "{quoted}" VALUES ({placeholders})', rows)
        conn.commit()
    except DataFileError:
        conn.rollback()
        raise
    except Exception as exc:
        conn.rollback()
        raise DataFileError(f"loading table {table!r} failed: {exc}") from exc
    return cursor.rowcount


def script(conn, text: str) -> None:
    conn.executescript(text)


OPS = {"run": run, "load": load, "script": script}


def main(database: str) -> int:
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the replies

    def reply(status: str, payload) -> None:
        pickle.dump((status, payload), replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()

    try:
        conn = sqlite3.connect(database)
    except sqlite3.Error as exc:
        reply("error", f"cannot open sqlite database {database!r}: {exc}")
        return 1
    reply("ok", sqlite3.sqlite_version)
    while True:
        try:
            op, *args = pickle.load(requests)
        except EOFError:
            break
        try:
            result = OPS[op](conn, *args)
        except Exception as exc:
            reply("error", str(exc))
        else:
            reply("ok", result)
    conn.close()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group
        sys.exit(130)
