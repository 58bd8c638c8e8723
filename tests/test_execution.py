from __future__ import annotations

import gc
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from sqlsynth.errors import EngineConnectionError, LoadError
from sqlsynth.execution import (
    BUCKET_1M_5M,
    BUCKET_1S_1M,
    BUCKET_GT_5M,
    BUCKET_LT_1S,
    EngineSpec,
    RuntimeLabel,
    SqliteSession,
    apply_retention,
    bucket_runtime,
    connect,
    execute_batch,
    restrict_dataset,
)
from sqlsynth.records import make_record

SAMPLE_DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "tpch_sample"


@pytest.fixture
def open_session():
    """Opens in-memory SQLite sessions for a test and closes them after it,
    so no engine process outlives the test."""
    opened = []

    def open_():
        opened.append(SqliteSession(":memory:"))
        return opened[-1]

    yield open_
    for session in opened:
        session.close()


def label(ms, rows=1, timed_out=False, error=None):
    return RuntimeLabel(
        query_id="q", engine_id="e", runtime_ms=ms, row_count=rows, timed_out=timed_out,
        error=error,
    )


class TestBuckets:
    @pytest.mark.parametrize(
        "ms,expected",
        [
            (0, BUCKET_LT_1S),
            (500, BUCKET_LT_1S),
            (999, BUCKET_LT_1S),
            (1_000, BUCKET_1S_1M),
            (59_999, BUCKET_1S_1M),
            (60_000, BUCKET_1M_5M),
            (299_999, BUCKET_1M_5M),
            (300_000, BUCKET_GT_5M),
            (600_000, BUCKET_GT_5M),
        ],
    )
    def test_boundaries(self, ms, expected):
        assert bucket_runtime(label(ms)) == expected

    def test_timed_out_ten_minutes(self):
        assert bucket_runtime(label(600_000, rows=None, timed_out=True)) == BUCKET_GT_5M


class TestRetention:
    def test_fast_empty_dropped(self):
        kept, dropped = apply_retention([label(3_000, rows=0)])
        assert not kept
        assert len(dropped) == 1 and "empty" in dropped[0][1]

    def test_slow_empty_kept(self):
        kept, dropped = apply_retention([label(12_000, rows=0)])
        assert len(kept) == 1 and not dropped

    def test_boundary_exactly_threshold_kept(self):
        kept, _ = apply_retention([label(10_000, rows=0)])
        assert len(kept) == 1

    def test_just_below_threshold_dropped(self):
        _, dropped = apply_retention([label(9_999, rows=0)])
        assert len(dropped) == 1

    def test_fast_nonempty_kept(self):
        kept, _ = apply_retention([label(100, rows=500)])
        assert len(kept) == 1

    def test_errored_dropped_with_reason(self):
        kept, dropped = apply_retention([label(50, rows=None, error="boom")])
        assert not kept
        assert dropped[0][1] == "error: boom"

    def test_kept_invariant(self):
        labels = [label(ms, rows=rows) for ms in (100, 9_999, 10_000) for rows in (0, 3)]
        kept, _ = apply_retention(labels)
        for item in kept:
            assert item.row_count >= 1 or item.runtime_ms >= 10_000


def numbers_script(rows: int) -> str:
    """A script creating table ``n`` holding x = 0 .. rows-1."""
    return (
        "CREATE TABLE n (x integer);"
        "INSERT INTO n WITH RECURSIVE c(x) AS (SELECT 0 UNION ALL SELECT x + 1 FROM c "
        f"WHERE x + 1 < {rows}) SELECT x FROM c;"
    )


class TestSqliteExecution:
    def _engine(self):
        return EngineSpec(engine_id="sqlite-mem", driver="sqlite")

    def _session_with_table(self, open_session):
        session = open_session()
        session.executescript(
            "CREATE TABLE region (r_regionkey integer, r_name char(25));"
            "INSERT INTO region VALUES (0, 'R0'), (1, 'R1'), (2, 'R2'), (3, 'R3'), (4, 'R4');"
        )
        return session

    def test_count_query(self, open_session):
        session = self._session_with_table(open_session)
        records = [make_record("SELECT COUNT(*) FROM region", "mechanical", "s")]
        labels = execute_batch(records, self._engine(), timeout_ms=5_000, session=session)
        assert labels[0].row_count == 1
        assert labels[0].runtime_ms >= 0
        assert not labels[0].timed_out and labels[0].error is None

    def test_row_counts_consume_results(self, open_session):
        session = self._session_with_table(open_session)
        records = [make_record("SELECT r_name FROM region", "mechanical", "s")]
        labels = execute_batch(records, self._engine(), timeout_ms=5_000, session=session)
        assert labels[0].row_count == 5

    def test_error_query_is_data_not_exception(self, open_session):
        session = self._session_with_table(open_session)
        records = [
            make_record("SELECT ghost FROM region", "mechanical", "s"),
            make_record("SELECT COUNT(*) FROM region", "mechanical", "s"),
        ]
        labels = execute_batch(records, self._engine(), timeout_ms=5_000, session=session)
        assert labels[0].error is not None and labels[0].row_count is None
        assert labels[1].error is None  # batch continued

    def test_timeout_clamps_runtime(self, open_session):
        session = open_session()
        session.executescript(numbers_script(300))
        slow = make_record(
            "SELECT COUNT(*) FROM n a, n b, n c, n d WHERE a.x + b.x + c.x + d.x > 0",
            "mechanical",
            "s",
        )
        labels = execute_batch([slow], self._engine(), timeout_ms=150, session=session)
        assert labels[0].timed_out
        assert labels[0].runtime_ms == 150
        assert labels[0].row_count is None

    def test_rerun_same_row_counts(self, open_session):
        engine = EngineSpec(engine_id="sqlite-mem", driver="sqlite")
        record = make_record(
            "SELECT r_regionkey FROM region WHERE r_regionkey < 3", "mechanical", "s"
        )
        for _ in range(2):
            session = self._session_with_table(open_session)
            labels = execute_batch([record], engine, timeout_ms=5_000, session=session)
            assert labels[0].row_count == 3

    def test_unreachable_engine(self, tmp_path):
        engine = EngineSpec(
            engine_id="bad",
            driver="sqlite",
            options={"database": str(tmp_path / "missing" / "nope.db")},
        )
        with pytest.raises(EngineConnectionError):
            connect(engine)

    def test_unknown_driver(self):
        with pytest.raises(EngineConnectionError):
            connect(EngineSpec(engine_id="x", driver="warp"))


def _wait_exit_code(pid: int, seconds: float = 10.0):
    """The exit code of child ``pid`` once it exits, or None if it was
    already reaped elsewhere; fails if it is still running after
    ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            reaped, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return None
        if reaped:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    pytest.fail(f"engine process {pid} still running after {seconds} s")


class TestEngineProcess:
    """Each SQLite session is a child process that owns the connection."""

    def _engine(self):
        return EngineSpec(engine_id="sqlite-mem", driver="sqlite")

    def _session(self, open_session, rows=300):
        session = open_session()
        session.executescript(numbers_script(rows))
        return session

    def test_labels_are_positive_float_ms(self, open_session):
        session = self._session(open_session)
        records = [
            make_record(sql, "mechanical", "s")
            for sql in ("SELECT 1", "SELECT x FROM n", "SELECT COUNT(*) FROM n a, n b")
        ]
        labels = execute_batch(records, self._engine(), timeout_ms=5_000, session=session)
        for item in labels:
            assert isinstance(item.runtime_ms, float)
            assert item.runtime_ms > 0
            assert round(item.runtime_ms, 3) == item.runtime_ms  # microsecond resolution

    def test_killed_engine_labels_the_rest_as_errors(self, open_session):
        session = self._session(open_session)
        records = [
            make_record("SELECT COUNT(*) FROM n", "mechanical", "s"),
            make_record(
                "SELECT COUNT(*) FROM n a, n b, n c, n d WHERE a.x + b.x + c.x + d.x > 0",
                "mechanical",
                "s",
            ),
            make_record("SELECT x FROM n", "mechanical", "s"),
        ]
        killer = threading.Timer(0.5, os.kill, (session.process.pid, signal.SIGKILL))
        killer.start()
        try:
            labels = execute_batch(records, self._engine(), timeout_ms=60_000, session=session)
        finally:
            killer.cancel()
        assert labels[0].error is None and labels[0].row_count == 1
        exited = f"engine process exited (code {-signal.SIGKILL})"
        assert [item.error for item in labels[1:]] == [exited, exited]
        assert not any(item.timed_out for item in labels)
        session.close()
        session.close()
        assert session.process.returncode == -signal.SIGKILL

    def test_load_into_dead_engine_raises_load_error(self, open_session, tpch_catalog_inferred):
        session = open_session()
        session.process.kill()
        with pytest.raises(LoadError, match="engine process exited"):
            restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 10)

    def test_close_is_idempotent_and_reaps(self, open_session):
        session = self._session(open_session)
        session.close()
        assert session.process.returncode == 0
        session.close()
        assert session.process.returncode == 0
        assert session.run("SELECT 1", 1_000)[2] == "engine process exited (code 0)"

    def test_dropped_session_exits_on_eof(self):
        session = SqliteSession(":memory:")
        pid = session.process.pid
        with pytest.warns(ResourceWarning, match="still running"):  # Popen's note on the drop
            del session
            gc.collect()
        assert _wait_exit_code(pid) in (0, None)

    def test_engine_rejects_multiple_statements_as_data(self, open_session):
        session = self._session(open_session)
        row_count, timed_out, error, _ = session.run("SELECT 1; SELECT 2", 1_000)
        assert row_count is None and not timed_out and error
        assert session.run("SELECT 1", 1_000)[:3] == (1, False, None)

    def test_malformed_tbl_rejected_and_rolled_back(self, open_session, tmp_path):
        from sqlsynth.schema import ingest_ddl

        catalog = ingest_ddl("CREATE TABLE t (a integer, b varchar(5))")
        (tmp_path / "t.tbl").write_text("1|x|\n2|y|\n3|\n", encoding="utf-8")
        session = open_session()
        with pytest.raises(LoadError, match="t.tbl: expected 2 fields, got 1"):
            restrict_dataset(catalog, tmp_path, session, 100)
        assert session.run("SELECT * FROM t", 1_000)[0] == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            # the CSV of a region table whose columns are in another order
            ("r_name,r_regionkey\nAFRICA,0\n",
             "region.csv: header 'r_name,r_regionkey' does not name the columns"),
            ("r_regionkey,r_name\n0,AFRICA\n1,AMERICA,x\n",
             "region.csv: expected 2 fields, got 3"),
        ],
    )
    def test_malformed_csv_rejected_and_rolled_back(self, open_session, tmp_path, text, message):
        from sqlsynth.schema import ingest_ddl

        catalog = ingest_ddl("CREATE TABLE region (r_regionkey integer, r_name char(25))")
        (tmp_path / "region.csv").write_text(text, encoding="utf-8")
        session = open_session()
        with pytest.raises(LoadError, match=message):
            restrict_dataset(catalog, tmp_path, session, 100)
        assert session.run("SELECT * FROM region", 1_000)[0] == 0

    def test_missing_file_message(self, open_session, tmp_path):
        from sqlsynth.schema import ingest_ddl

        catalog = ingest_ddl("CREATE TABLE t (a integer)")
        session = open_session()
        with pytest.raises(LoadError, match=f"no data file for table 't' in {tmp_path}"):
            restrict_dataset(catalog, tmp_path, session, 100)

    def test_engines_run_in_separate_processes(self, open_session):
        first, second = open_session(), open_session()
        assert len({os.getpid(), first.process.pid, second.process.pid}) == 3
        first.close()
        second.close()
        assert (first.process.returncode, second.process.returncode) == (0, 0)


class _FakeCursor:
    def __init__(self, rows, fail=False):
        self._rows = list(rows)
        self._fail = fail

    def execute(self, sql):
        if self._fail:
            raise RuntimeError("fake engine rejected the query")

    def fetchmany(self, n):
        chunk, self._rows = self._rows[:n], self._rows[n:]
        return chunk


class _FakeConn:
    def __init__(self, rows, fail=False):
        self.rows = rows
        self.fail = fail
        self.closed = False

    def cursor(self):
        return _FakeCursor(self.rows, self.fail)

    def close(self):
        self.closed = True


class _FakeDbApi:
    def __init__(self, rows, fail=False, refuse=False):
        self.rows = rows
        self.fail = fail
        self.refuse = refuse

    def connect(self, **kwargs):
        if self.refuse:
            raise ConnectionError("connection refused")
        return _FakeConn(self.rows, self.fail)


class _HangingDbApi:
    """A DB-API module whose connections hang on ``HANG`` until closed and
    refuse every statement once closed, as a server-side session does."""

    HANG = "SELECT 'hang'"

    def __init__(self):
        self.connect_calls = []

    def connect(self, **kwargs):
        self.connect_calls.append(kwargs)
        return _HangingConn()


class _HangingConn:
    def __init__(self):
        self.closed = threading.Event()

    def cursor(self):
        if self.closed.is_set():
            raise RuntimeError("connection closed")
        return _HangingCursor(self)

    def close(self):
        self.closed.set()


class _HangingCursor:
    def __init__(self, conn):
        self.conn = conn
        self.rows = []

    def execute(self, sql):
        if sql == _HangingDbApi.HANG:
            self.conn.closed.wait(10)
            raise RuntimeError("connection closed")
        self.rows = [(1,)] * 3

    def fetchmany(self, n):
        chunk, self.rows = self.rows[:n], self.rows[n:]
        return chunk


class TestDbApiDriver:
    def test_timeout_reconnects_for_the_next_queries(self):
        module = _HangingDbApi()
        engine = EngineSpec(
            engine_id="presto-w1",
            driver="dbapi",
            options={"module": "fake", "module_obj": module, "connect_args": {"host": "h"}},
        )
        sqls = ["SELECT 1", _HangingDbApi.HANG, "SELECT 2", "SELECT 3"]
        records = [make_record(sql, "mechanical", "s") for sql in sqls]
        labels = execute_batch(records, engine, timeout_ms=200)
        assert labels[1].timed_out and labels[1].runtime_ms == 200
        assert labels[1].row_count is None and labels[1].error is None
        for label in labels[:1] + labels[2:]:
            assert (label.row_count, label.timed_out, label.error) == (3, False, None)
        assert module.connect_calls == [{"host": "h"}, {"host": "h"}]

    def test_row_counting(self):
        engine = EngineSpec(
            engine_id="presto-w1",
            driver="dbapi",
            options={"module": "fake", "module_obj": _FakeDbApi(rows=[(1,)] * 7)},
        )
        labels = execute_batch(
            [make_record("SELECT 1", "mechanical", "s")], engine, timeout_ms=2_000
        )
        assert labels[0].row_count == 7
        assert isinstance(labels[0].runtime_ms, float) and labels[0].runtime_ms > 0

    def test_query_error_captured(self):
        engine = EngineSpec(
            engine_id="presto-w1",
            driver="dbapi",
            options={"module": "fake", "module_obj": _FakeDbApi(rows=[], fail=True)},
        )
        labels = execute_batch(
            [make_record("SELECT 1", "mechanical", "s")], engine, timeout_ms=2_000
        )
        assert "rejected" in labels[0].error

    def test_connect_failure(self):
        engine = EngineSpec(
            engine_id="presto-w1",
            driver="dbapi",
            options={"module": "fake", "module_obj": _FakeDbApi(rows=[], refuse=True)},
        )
        with pytest.raises(EngineConnectionError):
            execute_batch([make_record("SELECT 1", "mechanical", "s")], engine)


class TestRestrictDataset:
    def test_loads_sample_capped(self, open_session, tpch_catalog_inferred):
        session = open_session()
        counts = restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 40_000)
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["lineitem"] > 100

    def test_cap_truncates(self, open_session, tpch_catalog_inferred):
        session = open_session()
        counts = restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 10)
        assert all(count <= 10 for count in counts.values())
        assert counts["lineitem"] == 10

    def test_zero_cap_rejected(self, open_session, tpch_catalog_inferred):
        session = open_session()
        with pytest.raises(LoadError):
            restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 0)

    def test_missing_file_rejected(self, open_session, tpch_catalog_inferred, tmp_path):
        session = open_session()
        with pytest.raises(LoadError):
            restrict_dataset(tpch_catalog_inferred, tmp_path, session, 100)

    def test_reserved_word_names_load_and_run(self, open_session, tmp_path):
        from sqlsynth.mechgen import MechConfig, generate_mechanical
        from sqlsynth.schema import ingest_ddl
        from sqlsynth.subschema import build_join_graph, enumerate_subschemas

        catalog = ingest_ddl(
            'CREATE TABLE t (id integer, "order" integer, "select" varchar(10));'
            'CREATE TABLE "group" (id integer)'
        )
        (tmp_path / "t.tbl").write_text("1|2|ab|\n2|3|cd|\n", encoding="utf-8")
        (tmp_path / "group.tbl").write_text("1|\n", encoding="utf-8")
        session = open_session()
        assert restrict_dataset(catalog, tmp_path, session, 100) == {"t": 2, "group": 1}
        subschema = next(
            s for s in enumerate_subschemas(build_join_graph(catalog)) if s.tables == ("t",)
        )
        records = generate_mechanical(subschema, catalog, MechConfig(), 20, seed=1)
        record = next(r for r in records if 't."order"' in r.sql)
        engine = EngineSpec(engine_id="sqlite-mem", driver="sqlite")
        (label,) = execute_batch([record], engine, timeout_ms=5_000, session=session)
        assert label.error is None and not label.timed_out and label.row_count is not None

    def test_loaded_data_queryable(self, open_session, tpch_catalog_inferred):
        session = open_session()
        restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 40_000)
        rows, timed_out, error, elapsed = session.run(
            "SELECT n_name FROM nation INNER JOIN region ON n_regionkey = r_regionkey "
            "WHERE r_name = 'EUROPE'",
            5_000,
        )
        assert error is None and not timed_out and elapsed > 0
        assert rows == 5  # France, Germany, Romania, Russia, United Kingdom

    def test_csv_fallback(self, open_session, tmp_path):
        from sqlsynth.schema import ingest_ddl

        catalog = ingest_ddl("CREATE TABLE t (a integer, b varchar(5))")
        (tmp_path / "t.csv").write_text("a,b\n1,x\n2,y\n3,z\n", encoding="utf-8")
        session = open_session()
        counts = restrict_dataset(catalog, tmp_path, session, 2)
        assert counts == {"t": 2}


class TestBucketTotality:
    def test_every_nonnegative_duration_buckets(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(min_value=0, max_value=10**12))
        @settings(max_examples=300, deadline=None)
        def run(ms):
            bucket = bucket_runtime(label(ms))
            assert bucket in (BUCKET_LT_1S, BUCKET_1S_1M, BUCKET_1M_5M, BUCKET_GT_5M)
            if ms < 1_000:
                assert bucket == BUCKET_LT_1S
            elif ms < 60_000:
                assert bucket == BUCKET_1S_1M
            elif ms < 300_000:
                assert bucket == BUCKET_1M_5M
            else:
                assert bucket == BUCKET_GT_5M

        run()
