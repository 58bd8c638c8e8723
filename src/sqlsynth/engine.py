"""The engine process: one database connection, driven over a pair of pipes.

``execution.SqliteSession`` starts this file for every engine, SQLite or
DB-API. A SQLite engine runs as ``python -I -S engine.py``: it imports only
the standard library and never the ``sqlsynth`` package, so it starts in
about 30 ms, and ``-I -S`` keep ``PYTHONPATH``, site-packages and this
file's directory off ``sys.path``. A DB-API engine runs as ``python -P
engine.py``, which keeps site-packages and ``PYTHONPATH``, so an installed
driver imports, and keeps this file's directory off ``sys.path``.

Requests arrive on stdin and replies leave on stdout, one pickled tuple
each. Each request ``(op, *args)`` gets ``("ok", result)`` or ``("error",
message)``. The first request is ``("open", database, module,
connect_args)``: it opens the SQLite ``database`` when ``module`` is None,
and ``module.connect(**connect_args)`` otherwise; if that fails, the
process exits after its reply. It exits at the end of its input.

The ops (:data:`OPS`):

* ``run``: execute, consume and time one statement (:func:`run`);
* ``script``: execute a script, such as the CREATE TABLE statements;
* ``load``: bulk-insert a table's rows from its data file (:func:`load`);
* ``save``: write the whole database to a new file (:func:`save`);
* ``copy``: copy tables from another engine's saved file (:func:`copy`).

The last three are SQLite's: a DB-API engine is never loaded.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import pickle
import sqlite3
import sys
import time
from itertools import chain, islice

PROGRESS_STEP = 5_000  # VM instructions between deadline checks
FETCH_CHUNK = 1024
#: The most rows one INSERT of a load carries. Loading the 52,688 rows of a
#: 16-column table took the same time at 64 to 1,000 rows per statement,
#: about a fifth less than one row per statement, but a third more at
#: 15,625, where a limit of 250,000 bound variables would put it.
ROWS_PER_INSERT = 256


def elapsed_ms(started_ns: int) -> float:
    """Milliseconds since the ``perf_counter_ns`` reading ``started_ns``,
    rounded up to the microsecond so that no finished statement reads 0."""
    return math.ceil((time.perf_counter_ns() - started_ns) / 1_000) / 1_000


def run(conn, sql: str, timeout_ms: int):
    """Execute and consume ``sql``; returns (row_count, timed_out, error,
    elapsed_ms). The time covers execution and fetching only. A SQLite
    statement stops at ``timeout_ms`` through a progress handler, which
    keeps the loaded data; any other driver's statement runs until the
    parent kills this process."""
    interruptible = isinstance(conn, sqlite3.Connection)
    if interruptible:
        deadline = time.monotonic() + timeout_ms / 1000.0
        conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, PROGRESS_STEP)
    started = time.perf_counter_ns()
    try:
        cursor = conn.cursor()
        cursor.execute(sql)
        rows = 0
        while chunk := cursor.fetchmany(FETCH_CHUNK):
            rows += len(chunk)
        return rows, False, None, elapsed_ms(started)
    except Exception as exc:  # a failing statement is data, not an engine failure
        if isinstance(exc, sqlite3.OperationalError) and "interrupted" in str(exc).lower():
            return None, True, None, elapsed_ms(started)
        return None, False, str(exc), elapsed_ms(started)
    finally:
        if interruptible:
            conn.set_progress_handler(None, 0)


class DataFileError(Exception):
    """A table's data file is missing or malformed, or its rows would not
    insert."""


def data_file(data_dir: str, table: str) -> str | None:
    """The path of ``table``'s data file in ``data_dir``: ``<table>.tbl`` or,
    failing that, ``<table>.csv``; None when neither exists."""
    for suffix in (".tbl", ".csv"):
        path = os.path.join(data_dir, table + suffix)
        if os.path.exists(path):
            return path
    return None


def read_rows(data_dir: str, table: str, columns: list[str], cap: int):
    """Yield at most ``cap`` rows of ``<table>.tbl`` (pipe delimited, with or
    without a trailing delimiter) or, failing that, ``<table>.csv``, whose
    header line must name ``columns`` in order (in any letter case). Each
    row must hold one field per column."""
    width = len(columns)
    path = data_file(data_dir, table)
    if path is None:
        raise DataFileError(f"no data file for table {table!r} in {data_dir}")
    if path.endswith(".tbl"):
        with open(path, encoding="utf-8") as fh:
            for line in islice(fh, cap):
                fields = line.rstrip("\n").split("|")
                if fields and fields[-1] == "":
                    fields.pop()
                if len(fields) != width:
                    raise DataFileError(f"{table}.tbl: expected {width} fields, got {len(fields)}")
                yield tuple(fields)
    else:
        with open(path, newline="", encoding="utf-8") as fh:
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


def _quoted(table: str) -> str:
    return '"' + table.replace('"', '""') + '"'  # the name may be a reserved word


def load(conn, table: str, data_dir: str, columns: list[str], cap: int) -> int:
    """Insert the rows ``read_rows`` yields into ``table`` in one
    transaction; returns how many there were. Each INSERT carries
    ``ROWS_PER_INSERT`` rows, or as many as the connection's limit on bound
    variables allows if that is fewer."""
    width = len(columns)
    limit = conn.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
    per_statement = max(1, min(ROWS_PER_INSERT, limit // width))
    row = "(" + ", ".join("?" * width) + ")"
    insert = f"INSERT INTO {_quoted(table)} VALUES "
    full = insert + ", ".join([row] * per_statement)
    rows = read_rows(data_dir, table, columns, cap)
    count = 0
    try:
        while values := list(chain.from_iterable(islice(rows, per_statement))):
            batch = len(values) // width
            statement = full if batch == per_statement else insert + ", ".join([row] * batch)
            conn.execute(statement, values)
            count += batch
        conn.commit()
    except DataFileError:
        conn.rollback()
        raise
    except Exception as exc:
        conn.rollback()
        raise DataFileError(f"loading table {table!r} failed: {exc}") from exc
    return count


def script(conn, text: str) -> None:
    conn.executescript(text)


def save(conn, path: str) -> None:
    """Write the database to the new file ``path``, without syncing it.
    ``VACUUM INTO`` syncs its output as the database's ``synchronous``
    setting says, FULL by default; the file only hands tables to a peer
    engine that reads it moments later, so it is written with that setting
    OFF, which is then put back. A file that is never synced and is
    removed within seconds never reaches the disk, so a load does not
    wait on it."""
    (synchronous,) = conn.execute("PRAGMA synchronous").fetchone()
    conn.execute("PRAGMA synchronous = OFF")
    try:
        conn.execute("VACUUM INTO ?", (path,))
    finally:
        conn.execute(f"PRAGMA synchronous = {int(synchronous)}")


def copy(conn, path: str, tables: list[str]) -> dict[str, int]:
    """Copy every row of ``tables`` from the database file ``path`` into the
    same tables here, which are empty and alike, in one transaction;
    returns rows per table. Between alike tables SQLite copies a plain
    ``INSERT INTO ... SELECT *`` record by record (its transfer
    optimization), so every row keeps its rowid."""
    conn.execute("ATTACH DATABASE ? AS peer", (path,))
    try:
        with conn:  # one transaction, rolled back if any table fails
            return {
                table: conn.execute(
                    f"INSERT INTO main.{_quoted(table)} SELECT * FROM peer.{_quoted(table)}"
                ).rowcount
                for table in tables
            }
    finally:
        conn.execute("DETACH DATABASE peer")


OPS = {"run": run, "load": load, "script": script, "save": save, "copy": copy}


def open_connection(database: str, module: str | None, connect_args: dict):
    if module is None:
        try:
            return sqlite3.connect(database)
        except sqlite3.Error as exc:
            raise ConnectionError(f"cannot open sqlite database {database!r}: {exc}") from exc
    try:
        return importlib.import_module(module).connect(**connect_args)
    except Exception as exc:
        raise ConnectionError(f"cannot connect via {module}: {exc}") from exc


def main() -> int:
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray output, a driver's included, must not corrupt the replies

    def reply(status: str, payload) -> None:
        pickle.dump((status, payload), replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()

    _, *target = pickle.load(requests)  # ("open", database, module, connect_args)
    try:
        conn = open_connection(*target)
    except ConnectionError as exc:
        reply("error", str(exc))
        return 1
    reply("ok", None)
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
        sys.exit(main())
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group
        sys.exit(130)
