"""Query execution against database engines: timing, timeouts, retention.

Two driver kinds: an embedded SQLite engine for CI and desk-scale runs,
and a generic DB-API driver that imports a configured module (Presto, Hive,
anything PEP 249) for real deployments. A label's runtime covers statement
execution plus full result consumption, timed with ``perf_counter_ns``
where the statement runs and stored as float milliseconds at microsecond
resolution. Each engine runs its batch serially, so its labels never
overlap each other.

Every engine, of either driver, runs in its own child process
(``engine.py``), which opens the connection, runs and times every
statement and replies over a pipe; ``SqliteSession`` is the parent's handle
to it. A statement whose reply does not come within its timeout plus a
grace has its process killed and reads as timed out, and the next statement
starts a fresh process. In-process SQLite does not scale across threads: a
one-row recursive CTE took 2.31 s alone and 4.8 s on each of two threads,
but 3.0-3.2 s on each of two processes, and the 209 demo queries on a 100x
TPC-H dataset took 7.3 s on one engine alone, about 11 s per engine with
two engine threads, and 6.2-6.8 s per engine with two engine processes. So
engines that share a process inflate each other's labels by about 1.5x;
engines in their own processes keep labels uncontended while the engines
run in parallel.
"""

from __future__ import annotations

import pickle
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EngineConnectionError, LoadError
from .schema import SchemaCatalog, render_create_statements

DEFAULT_TIMEOUT_MS = 600_000  # ten minutes
DEFAULT_MIN_EMPTY_RUNTIME_MS = 10_000  # empty results faster than this are dropped

BUCKET_LT_1S = "lt_1s"
BUCKET_1S_1M = "s1_to_1m"
BUCKET_1M_5M = "m1_to_5m"
BUCKET_GT_5M = "gt_5m"

#: Half-open, lower-inclusive runtime buckets in milliseconds.
_BUCKET_EDGES = (
    (1_000, BUCKET_LT_1S),
    (60_000, BUCKET_1S_1M),
    (300_000, BUCKET_1M_5M),
)


@dataclass
class EngineSpec:
    engine_id: str
    driver: str  # "sqlite" | "dbapi"
    options: dict = field(default_factory=dict)


@dataclass
class EngineLabel:
    """A runtime label as a record holds it, under its engine id: the
    :class:`RuntimeLabel` without its ids."""

    runtime_ms: float
    row_count: int | None
    timed_out: bool = False
    error: str | None = None


@dataclass
class RuntimeLabel:
    query_id: str
    engine_id: str
    runtime_ms: float
    row_count: int | None
    timed_out: bool = False
    error: str | None = None

    def engine_label(self) -> EngineLabel:
        return EngineLabel(self.runtime_ms, self.row_count, self.timed_out, self.error)


def bucket_runtime(label: RuntimeLabel | EngineLabel) -> str:
    """Bucket per the partition [0,1s) [1s,1m) [1m,5m) [5m,inf)."""
    for edge, name in _BUCKET_EDGES:
        if label.runtime_ms < edge:
            return name
    return BUCKET_GT_5M


def apply_retention(labels, min_empty_runtime_ms: int = DEFAULT_MIN_EMPTY_RUNTIME_MS):
    """Split labels into (kept, dropped-with-reason).

    Empty-result labels faster than the threshold are dropped (they teach a
    cost model nothing), as are errored labels; everything else is kept.
    """
    kept: list[RuntimeLabel] = []
    dropped: list[tuple[RuntimeLabel, str]] = []
    for label in labels:
        if label.error is not None:
            dropped.append((label, f"error: {label.error}"))
        elif label.row_count == 0 and label.runtime_ms < min_empty_runtime_ms:
            dropped.append(
                (label, f"empty result in {label.runtime_ms} ms < {min_empty_runtime_ms} ms")
            )
        else:
            kept.append(label)
    return kept, dropped


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class SqliteSession:
    """Handle to one engine process, which owns the connection: the SQLite
    ``database`` or, given a ``module``, the PEP 249 connection
    ``module.connect(**connect_args)``.

    The class serves every driver but keeps the name of the first one it
    served, because the benchmark harness times ``SqliteSession.run`` by
    that name.

    The process times each statement itself, so a label holds no pipe
    latency. A SQLite statement stops at its timeout inside the process,
    which keeps the loaded data. A statement that has not replied
    ``_REPLY_GRACE_S`` after its timeout, as a DB-API one may not, is timed
    out by killing the process; the next statement then starts a fresh one
    from the same open request. The process exits when its input closes: on
    ``close()``, or when an unclosed session is dropped.
    """

    _ENGINE = Path(__file__).with_name("engine.py")
    _CLOSE_GRACE_S = 5.0  # a busy engine is killed after this long
    _REPLY_GRACE_S = 5.0  # a statement's reply may come this long after its timeout

    def __init__(self, database=":memory:", module: str | None = None, connect_args=None):
        # -I -S start a stdlib-only SQLite engine in about 30 ms; -P keeps
        # site-packages and PYTHONPATH, where a DB-API driver is installed
        flags = ("-I", "-S") if module is None else ("-P",)
        self._command = [sys.executable, *flags, str(self._ENGINE)]
        self._open = ("open", database, module, connect_args or {})
        self._start()

    def _start(self):
        """Start the engine process and have it open the connection;
        EngineConnectionError if it cannot."""
        self.process = subprocess.Popen(
            self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        reply = self._request(*self._open)
        if reply is None or reply[0] != "ok":
            detail = self._exited() if reply is None else reply[1]
            self.close()
            raise EngineConnectionError(detail)
        self._killed = False

    def _request(self, *request, wait_s: float | None = None):
        """Send ``request`` and return the engine's reply; None once the
        engine process is gone, or once it is killed for sending no reply
        within ``wait_s`` seconds."""
        try:
            pickle.dump(request, self.process.stdin, pickle.HIGHEST_PROTOCOL)
            self.process.stdin.flush()
            # one reply per request, so the reader never holds a buffered one
            if wait_s is not None and not select.select([self.process.stdout], [], [], wait_s)[0]:
                self.process.kill()
                self.close()
                self._killed = True
                return None
            return pickle.load(self.process.stdout)
        except (OSError, EOFError, ValueError, pickle.UnpicklingError):
            return None

    def _exited(self) -> str:
        return f"engine process exited (code {self.process.wait()})"

    def run(self, sql: str, timeout_ms: int):
        """Execute and consume ``sql``; returns (row_count, timed_out, error,
        elapsed_ms). A dead engine process yields an error, not a hang."""
        if self._killed:
            try:
                self._start()
            except EngineConnectionError as exc:
                return None, False, str(exc), 0.0
        wait_s = timeout_ms / 1000 + self._REPLY_GRACE_S
        reply = self._request("run", sql, timeout_ms, wait_s=wait_s)
        if reply is None:
            if self._killed:
                return None, True, None, float(timeout_ms)
            return None, False, self._exited(), 0.0
        status, payload = reply
        if status != "ok":
            return None, False, payload, 0.0
        return payload

    def _setup(self, *request):
        """Send a request that fills the database; LoadError if it fails."""
        reply = self._request(*request)
        if reply is None:
            raise LoadError(self._exited())
        status, payload = reply
        if status != "ok":
            raise LoadError(payload)
        return payload

    def executescript(self, script: str):
        self._setup("script", script)

    def load_table(self, table: str, data_dir, columns: list[str], cap: int) -> int:
        """Have the engine insert at most ``cap`` rows of ``<table>.tbl`` or
        ``<table>.csv`` from ``data_dir``, whose fields are ``columns`` in
        order; returns the loaded count."""
        return self._setup("load", table, str(data_dir), columns, cap)

    def close(self):
        """Close the engine's input and reap the process; idempotent."""
        try:
            self.process.stdin.close()
        except OSError:
            pass  # a dead engine leaves unflushed bytes behind
        try:
            self.process.wait(self._CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __del__(self):
        # Popen keeps a running child's object, pipes included, alive after
        # the last reference goes; closing the pipes lets the engine exit.
        process = getattr(self, "process", None)
        if process is not None:
            for pipe in (process.stdin, process.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


def connect(engine: EngineSpec) -> SqliteSession:
    """Start the engine process for ``engine``; EngineConnectionError when
    it cannot open the database or connect."""
    if engine.driver == "sqlite":
        return SqliteSession(engine.options.get("database", ":memory:"))
    if engine.driver == "dbapi":
        return SqliteSession(
            module=engine.options["module"],
            connect_args=engine.options.get("connect_args", {}),
        )
    raise EngineConnectionError(f"unknown driver kind {engine.driver!r}")


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def execute_batch(
    records,
    engine: EngineSpec,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    *,
    session: SqliteSession,
) -> list[RuntimeLabel]:
    """Run every record serially in ``session``, an open session on
    ``engine``, and label it.

    Per-query failures are captured in the labels and never abort the
    batch. Timed-out labels carry runtime equal to the timeout.
    """
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be > 0")
    labels = []
    for record in records:
        row_count, timed_out, error, runtime_ms = session.run(record.sql, timeout_ms)
        if timed_out:
            runtime_ms = timeout_ms
        labels.append(
            RuntimeLabel(
                query_id=record.id,
                engine_id=engine.engine_id,
                runtime_ms=runtime_ms,
                row_count=row_count,
                timed_out=timed_out,
                error=error,
            )
        )
    return labels


# ---------------------------------------------------------------------------
# Test-database loading
# ---------------------------------------------------------------------------


def restrict_dataset(
    catalog: SchemaCatalog,
    data_dir: str | Path,
    session,
    max_rows_per_table: int,
) -> dict[str, int]:
    """Create the catalog's tables in the SQLite ``session`` and load at
    most ``max_rows_per_table`` rows per table from ``<table>.tbl`` (pipe
    delimited) or ``<table>.csv`` files (whose header names the table's
    columns in order); returns loaded counts. The engine process reads the
    files itself."""
    if max_rows_per_table < 1:
        raise LoadError(f"max_rows_per_table must be >= 1, got {max_rows_per_table}")
    session.executescript("\n".join(render_create_statements(catalog)))
    return {
        table.name: session.load_table(
            table.name, data_dir, table.column_names(), max_rows_per_table
        )
        for table in catalog.tables
    }


def runtime_bucket_rows(records) -> list[dict]:
    """Histogram rows (setting, engine, bucket, count) over labeled records,
    for the workload-balance report."""
    counts: dict[tuple[str, str, str], int] = {}
    for record in records:
        setting = record.setting_label
        for engine_id, label in sorted(record.labels.items()):
            key = (setting, engine_id, bucket_runtime(label))
            counts[key] = counts.get(key, 0) + 1
    bucket_order = {BUCKET_LT_1S: 0, BUCKET_1S_1M: 1, BUCKET_1M_5M: 2, BUCKET_GT_5M: 3}
    rows = [
        {"setting": setting, "engine": engine, "bucket": bucket, "count": count}
        for (setting, engine, bucket), count in sorted(
            counts.items(), key=lambda kv: (kv[0][0], kv[0][1], bucket_order[kv[0][2]])
        )
    ]
    return rows
