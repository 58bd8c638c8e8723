"""Query execution against database engines: timing, timeouts, retention.

Two driver kinds: an embedded SQLite engine for CI and desk-scale runs,
and a generic DB-API driver that imports a configured module (Presto, Hive,
anything PEP 249) for real deployments. A label's runtime covers statement
execution plus full result consumption, timed with ``perf_counter_ns``
where the statement runs and stored as float milliseconds at microsecond
resolution. Each engine runs its batch serially, so its labels never
overlap each other. A run writes each label once, as a
:class:`RuntimeLabel` row of ``labels.jsonl`` (:func:`save_labels`), which
names its query and engine by id.

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

:func:`label_corpus` is the execution stage, which ``run`` and ``execute``
share. :func:`restrict_dataset` loads the dataset into each SQLite engine,
and several SQLite engines load it once between them (:func:`split_load`):
each bulk-loads a share of whole tables, saves its database to a part
file, waits for every peer to save theirs, then copies the peers' tables
from their part files. So every row is parsed and inserted once, and the
engines' processes load different tables at once.
Two in-memory engines on a 2-core host, loading a 100x TPC-H-style
dataset (106,718 rows), took a median 0.66 s of wall time when each loaded
every row, and 0.40 s split: one engine loaded ``lineitem`` (median
0.32 s) while the other loaded the other seven tables (0.19 s), and saving
a part took 28 ms and copying a peer's tables 37 ms. The copies hold the
same schema and the same rows, by rowid, as a direct load.
"""

from __future__ import annotations

import os
import pickle
import select
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory

from .engine import data_file
from .errors import EngineConnectionError, LoadError
from .schema import SchemaCatalog, render_create_statements
from .util import PATH, read_jsonl, write_jsonl

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
class ExecutionSettings:
    enabled: bool = False
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    min_empty_runtime_ms: int = DEFAULT_MIN_EMPTY_RUNTIME_MS
    data_dir: str | None = field(default=None, metadata=PATH)
    max_rows_per_table: int = 40_000
    engines: tuple[EngineSpec, ...] = field(default=(), init=False)  # the [engines.*] tables

    def validate(self):
        if self.timeout_ms < 1:
            raise ValueError(f"timeout_ms must be >= 1, got {self.timeout_ms}")
        # an engine's reply is awaited past the timeout, and select waits no longer
        longest_ms = (threading.TIMEOUT_MAX - SqliteSession._REPLY_GRACE_S) * 1000
        if self.timeout_ms > longest_ms:
            raise ValueError(f"timeout_ms must be at most {longest_ms:.0f}, got {self.timeout_ms}")
        if self.max_rows_per_table < 1:
            raise ValueError(f"max_rows_per_table must be >= 1, got {self.max_rows_per_table}")
        if self.enabled and not self.engines:
            raise ValueError("enabled requires at least one [engines.*] section")
        if self.enabled and not self.data_dir:
            raise ValueError("data_dir is required when execution is enabled")


@dataclass
class RuntimeLabel:
    """One query's runtime on one engine: a row of ``labels.jsonl``."""

    query_id: str
    engine_id: str
    runtime_ms: float
    row_count: int | None
    timed_out: bool = False
    error: str | None = None


def bucket_runtime(label: RuntimeLabel) -> str:
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
    from the same open request. An engine that has not opened its connection
    ``_OPEN_WAIT_S`` after it was started, as a driver whose ``connect``
    hangs on an unreachable host may not, is killed too, and the open fails
    with EngineConnectionError; a reopen that fails so labels its statement
    with the error. The process exits when its input closes: on
    ``close()``, or when an unclosed session is dropped.
    """

    _ENGINE = Path(__file__).with_name("engine.py")
    _CLOSE_GRACE_S = 5.0  # a busy engine is killed after this long
    _REPLY_GRACE_S = 5.0  # a statement's reply may come this long after its timeout
    _OPEN_WAIT_S = 60.0  # an engine that has not opened after this long is killed

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
        self._killed = False
        reply = self._request(*self._open, wait_s=self._OPEN_WAIT_S)
        if reply is None or reply[0] != "ok":
            if reply is not None:
                detail = reply[1]
            elif self._killed:
                detail = f"engine did not open within {self._OPEN_WAIT_S:g} s"
            else:
                detail = self._exited()
            self.close()
            self._killed = True  # the next statement starts a fresh process
            raise EngineConnectionError(detail)

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

    def save(self, path) -> None:
        """Have the engine write its database to the new file ``path``."""
        self._setup("save", str(path))

    def copy_tables(self, path, tables) -> dict[str, int]:
        """Have the engine copy every row of ``tables`` from the database
        file ``path`` into its own empty tables of the same names, in one
        transaction; returns rows per table."""
        return self._setup("copy", str(path), list(tables))

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


@dataclass(frozen=True)
class LoadShare:
    """One engine's part in a dataset load split across engines
    (:func:`split_load`): it bulk-loads ``tables``, saves its database to
    ``part``, waits at ``rendezvous`` until every peer has saved its own,
    then copies each peer's tables from the peer's part file (``peers``:
    part file and tables, one pair per peer that loads any). An engine that
    fails before it has saved must abort the rendezvous, so that no peer
    waits for it; :func:`label_corpus` does."""

    tables: tuple[str, ...]
    part: Path
    peers: tuple[tuple[Path, tuple[str, ...]], ...]
    rendezvous: threading.Barrier


def split_load(catalog: SchemaCatalog, data_dir, part_dir, engines: int) -> list[LoadShare]:
    """Share loading the catalog's tables among ``engines`` engines, whole
    tables each: the largest data file first, each to the engine with the
    fewest bytes so far (the first such engine on a tie). Engine ``i``
    saves its part to ``part_dir/part<i>.db``. Returns each engine's
    share, in engine order; every engine loads with its own thread."""
    sizes = {}
    for table in catalog.tables:
        path = data_file(str(data_dir), table.name)
        sizes[table.name] = 0 if path is None else os.path.getsize(path)
    loaded = [0] * engines
    owner = {}
    for name in sorted(sizes, key=lambda name: -sizes[name]):  # stable: catalog order on ties
        owner[name] = loaded.index(min(loaded))
        loaded[owner[name]] += sizes[name]
    owned = [tuple(name for name in sizes if owner[name] == i) for i in range(engines)]
    parts = [Path(part_dir) / f"part{i}.db" for i in range(engines)]
    rendezvous = threading.Barrier(engines)
    return [
        LoadShare(
            owned[i],
            parts[i],
            tuple((parts[j], owned[j]) for j in range(engines) if j != i and owned[j]),
            rendezvous,
        )
        for i in range(engines)
    ]


def restrict_dataset(
    catalog: SchemaCatalog,
    data_dir: str | Path,
    session,
    max_rows_per_table: int,
    share: LoadShare | None = None,
) -> dict[str, int]:
    """Create the catalog's tables in the SQLite ``session`` and load at
    most ``max_rows_per_table`` rows per table from ``<table>.tbl`` (pipe
    delimited) or ``<table>.csv`` files (whose header names the table's
    columns in order); returns loaded counts. The engine process reads the
    files itself.

    Given a ``share``, the engine bulk-loads only the share's tables and
    copies the rest from its peers' part files once every peer has saved
    one (:class:`LoadShare`). A peer that fails first ends the wait with
    ``threading.BrokenBarrierError``: the peer's own error says why. The
    counts are those of every table either way."""
    if max_rows_per_table < 1:
        raise LoadError(f"max_rows_per_table must be >= 1, got {max_rows_per_table}")
    session.executescript("\n".join(render_create_statements(catalog)))
    own = catalog.tables if share is None else [
        table for table in catalog.tables if table.name in share.tables
    ]
    counts = {
        table.name: session.load_table(
            table.name, data_dir, table.column_names(), max_rows_per_table
        )
        for table in own
    }
    if share is None:
        return counts
    if share.tables:
        session.save(share.part)
    share.rendezvous.wait()
    for part, tables in share.peers:
        counts.update(session.copy_tables(part, tables))
    return {table.name: counts[table.name] for table in catalog.tables}


# ---------------------------------------------------------------------------
# The execution stage
# ---------------------------------------------------------------------------


def label_corpus(settings: ExecutionSettings, catalog, records, work_dir):
    """The execution stage: label ``records`` on every engine of
    ``settings``, each engine on a thread of its own. Several SQLite engines
    load the dataset once between them, through part files in a temporary
    directory under ``work_dir``. Returns the labels retention keeps,
    engines in config order and each engine's in corpus order, and the
    stage's counts. A failed engine raises its own error first."""
    engines = list(settings.engines)
    loading = [i for i, engine in enumerate(engines) if engine.driver == "sqlite"]
    shares = [None] * len(engines)
    with ExitStack() as stack:
        if len(loading) > 1:
            Path(work_dir).mkdir(parents=True, exist_ok=True)
            part_dir = stack.enter_context(TemporaryDirectory(prefix=".load-", dir=work_dir))
            split = split_load(catalog, settings.data_dir, part_dir, len(loading))
            for i, share in zip(loading, split):
                shares[i] = share
        # the engines of a split load wait for each other, so each needs a thread of its own
        with ThreadPoolExecutor(max_workers=max(1, len(engines))) as pool:
            futures = [
                pool.submit(_label_on, settings, catalog, records, engine, share)
                for engine, share in zip(engines, shares)
            ]
    # a failed load breaks its peers' wait, so its own error is raised first
    for future in sorted(
        futures, key=lambda f: isinstance(f.exception(), threading.BrokenBarrierError)
    ):
        future.result()
    labels = [label for future in futures for label in future.result()]
    kept, dropped = apply_retention(labels, settings.min_empty_runtime_ms)
    return kept, {
        "executed": len(labels),
        "labels_kept": len(kept),
        "labels_dropped": len(dropped),
        "labeled_records": len({label.query_id for label in kept}),
    }


def _label_on(settings: ExecutionSettings, catalog, records, engine, share=None):
    """One engine's worker: connect, load the dataset into a SQLite engine
    (its ``share`` of a split load, if given), then label ``records``."""
    try:
        with closing(connect(engine)) as session:
            if engine.driver == "sqlite":
                data_dir, cap = settings.data_dir, settings.max_rows_per_table
                restrict_dataset(catalog, data_dir, session, cap, share)
            return execute_batch(records, engine, settings.timeout_ms, session=session)
    except BaseException:
        if share is not None:  # no peer waits for a part that will not come
            share.rendezvous.abort()
        raise


def save_labels(labels, path) -> None:
    write_jsonl(path, "runtime_labels", labels)


def load_labels(path) -> list[RuntimeLabel]:
    return read_jsonl(path, "runtime_labels", RuntimeLabel)


def runtime_bucket_rows(labels, settings: dict[str, str]) -> list[dict]:
    """Histogram rows (setting, engine, bucket, count) over ``labels``, for
    the workload-balance report; ``settings`` maps each label's query id to
    its record's setting label."""
    counts: dict[tuple[str, str, str], int] = {}
    for label in labels:
        key = (settings[label.query_id], label.engine_id, bucket_runtime(label))
        counts[key] = counts.get(key, 0) + 1
    bucket_order = {BUCKET_LT_1S: 0, BUCKET_1S_1M: 1, BUCKET_1M_5M: 2, BUCKET_GT_5M: 3}
    return [
        {"setting": setting, "engine": engine, "bucket": bucket, "count": count}
        for (setting, engine, bucket), count in sorted(
            counts.items(), key=lambda kv: (kv[0][0], kv[0][1], bucket_order[kv[0][2]])
        )
    ]
