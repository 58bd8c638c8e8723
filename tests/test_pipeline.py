from __future__ import annotations

import gc
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

from sqlsynth import coverage as coverage_mod
from sqlsynth import mechgen as mechgen_mod
from sqlsynth import pipeline as pipeline_mod
from sqlsynth import sqltree as sqltree_mod
from sqlsynth import validation as validation_mod
from sqlsynth.config import config_from_dict, load_config
from sqlsynth.coverage import aggregate_coverage, profile_query
from sqlsynth.errors import ConfigError
from sqlsynth.execution import load_labels
from sqlsynth.llmgen import StubBackend, prompt_hash
from sqlsynth.pipeline import run_pipeline
from sqlsynth.records import QueryRecord, load_records, make_record
from sqlsynth.schema import load_catalog
from sqlsynth.util import SCHEMA_VERSION, dump_json, load_json, read_jsonl

from tests.conftest import REPO_ROOT, TPCH_DDL_PATH, tokenizes

SAMPLE_DATA_DIR = REPO_ROOT / "data" / "tpch_sample"
DEMO_CONFIG = REPO_ROOT / "data" / "demo" / "demo.toml"
COMMITTED_DEMO_OUT = REPO_ROOT / "out" / "demo"


def load_candidates(out_dir) -> list:
    """Every candidate of a run: the rows not kept (``records.jsonl``), then
    the kept ones (``kept.jsonl``)."""
    out = Path(out_dir)
    return load_records(out / "records.jsonl") + load_records(out / "kept.jsonl")


def assert_split_by_reasons(out_dir) -> None:
    """Every row of ``records.jsonl`` has a rejection reason, and no row of
    ``kept.jsonl`` has one."""
    out = Path(out_dir)
    for record in load_records(out / "records.jsonl"):
        assert record.validation.rejection_reasons, record.sql
    for record in load_records(out / "kept.jsonl"):
        assert record.validation.rejection_reasons == [], record.sql


def base_config(tmp_path, **overrides):
    data = {
        "pipeline": {
            "name": "test-run",
            "out_dir": str(tmp_path / "out"),
            "seed": 13,
            "mech_per_subschema": 2,
        },
        "schema": {"ddl": str(TPCH_DDL_PATH)},
        "subschema": {"max_tables": 2},
    }
    for key, value in overrides.items():
        data.setdefault(key, {}).update(value)
    return config_from_dict(data, base_dir=tmp_path)


class RecordingBackend(StubBackend):
    """Collects the prompts the pipeline issues; returns no completions."""

    def __init__(self, directory, sink):
        super().__init__(directory)
        self.sink = sink

    def complete(self, prompt, params):
        self.sink.append(prompt)
        return []


def capture_prompts(config, monkeypatch, tmp_path):
    """Dry-run the pipeline to learn the exact prompts it will issue."""
    prompts: list[str] = []
    monkeypatch.setattr(
        pipeline_mod, "make_backend", lambda cfg: RecordingBackend(tmp_path, prompts)
    )
    dry_out = tmp_path / "dry"
    saved_out = config.out_dir
    config.out_dir = str(dry_out)
    run_pipeline(config)
    config.out_dir = saved_out
    monkeypatch.undo()
    return prompts


class TestMechanicalOnly:
    def test_single_batch_manifest(self, tmp_path):
        config = base_config(tmp_path)
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 1
        assert manifest["counts"]["llm_calls"] == 0
        assert manifest["counts"]["generated"] > 0
        assert manifest["counts"]["kept"] > 0

    def test_lossless_accounting(self, tmp_path):
        config = base_config(tmp_path)
        manifest = run_pipeline(config)
        for batch in manifest["batches"]:
            assert batch["generated"] == (
                batch["kept"] + batch["rejected"] + batch["dedup_dropped"]
            )
        counts = manifest["counts"]
        assert counts["generated"] == counts["kept"] + counts["rejected"] + counts["dedup_dropped"]

    def test_outputs_written(self, tmp_path):
        config = base_config(tmp_path)
        run_pipeline(config)
        out = Path(config.out_dir)
        for name in (
            "catalog.json",
            "subschemas.jsonl",
            "records.jsonl",
            "kept.jsonl",
            "coverage.json",
            "coverage_facets.csv",
            "coverage_clauses.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    def test_mechanical_all_kept_first_batch(self, tmp_path):
        # Mechanical output validates by construction; only duplicates drop.
        config = base_config(tmp_path)
        manifest = run_pipeline(config)
        batch = manifest["batches"][0]
        assert batch["rejected"] == 0

    def test_regeneration_loop_runs(self, tmp_path):
        config = base_config(tmp_path, pipeline={"loop_limit": 2})
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 3  # initial + two regeneration rounds

    def test_kept_target_stops_loop(self, tmp_path):
        config = base_config(tmp_path, pipeline={"loop_limit": 5, "kept_target": 1})
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 1

    def test_records_have_profiles_and_ids(self, tmp_path):
        config = base_config(tmp_path)
        run_pipeline(config)
        kept = load_records(Path(config.out_dir) / "kept.jsonl")
        for record in kept:
            assert record.validation.accepted
            assert record.profile is not None
            assert record.id


class TestStubLlmPipeline:
    SETTINGS = {
        "enabled": True,
        "backend": "stub",
        "settings": ["0:none", "3:group_by"],
    }

    def _config(self, tmp_path, stub_dir, **extra):
        llm = dict(self.SETTINGS)
        llm["stub_dir"] = str(stub_dir)
        llm.update(extra.pop("llm", {}))
        return base_config(
            tmp_path,
            llm=llm,
            subschema={"max_tables": 2, "llm_sample_count": 2},
            **extra,
        )

    def test_llm_candidates_flow_through(self, tmp_path, monkeypatch):
        stub_dir = tmp_path / "stub"
        config = self._config(tmp_path, stub_dir)
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        assert prompts, "pipeline issued no prompts"
        for i, prompt in enumerate(prompts):
            StubBackend.store(
                stub_dir,
                prompt,
                [
                    f"```sql\nSELECT n_name FROM nation WHERE n_nationkey = {i}\n```",
                    "Here you go: SELECT r_name FROM region;",
                ],
            )
        manifest = run_pipeline(config)
        assert manifest["counts"]["llm_calls"] == len(prompts)
        assert manifest["counts"]["llm_failures"] == 0
        kept = load_records(Path(config.out_dir) / "kept.jsonl")
        llm_kept = [r for r in kept if r.origin == "llm"]
        assert llm_kept
        for record in llm_kept:
            assert record.prompt_hash and record.model_name and record.prompt_setting

    def test_prompt_reconstructible_from_metadata(self, tmp_path, monkeypatch):
        # Auditability: persisted metadata should name a prompt whose hash we
        # stored a completion file for.
        stub_dir = tmp_path / "stub"
        config = self._config(tmp_path, stub_dir)
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        hash_by_prompt = {}
        for prompt in prompts:
            StubBackend.store(stub_dir, prompt, ["SELECT r_name FROM region"])
            hash_by_prompt[prompt_hash(prompt)] = prompt
        run_pipeline(config)
        records = load_candidates(config.out_dir)
        assert any(record.origin == "llm" for record in records)
        for record in records:
            if record.origin == "llm":
                assert record.prompt_hash in hash_by_prompt

    def test_missing_stub_files_counted_as_failures(self, tmp_path):
        stub_dir = tmp_path / "stub"
        stub_dir.mkdir()
        config = self._config(tmp_path, stub_dir)
        manifest = run_pipeline(config)
        assert manifest["counts"]["llm_failures"] == manifest["counts"]["llm_calls"] > 0
        assert manifest["counts"]["kept"] > 0  # mechanical corpus still flows

    def test_malformed_stub_files_counted_as_failures(self, tmp_path, monkeypatch):
        stub_dir = tmp_path / "stub"
        config = self._config(tmp_path, stub_dir)
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        for prompt in prompts:
            StubBackend.store(stub_dir, prompt, ["SELECT r_name FROM region"])
        for prompt, text in zip(prompts, ["[]", "not json"]):
            (stub_dir / f"{prompt_hash(prompt)}.json").write_text(text, encoding="utf-8")
        manifest = run_pipeline(config)
        assert manifest["counts"]["llm_calls"] == len(prompts)
        assert manifest["counts"]["llm_failures"] == 2

    def test_accounting_with_rejects_and_duplicates(self, tmp_path, monkeypatch):
        # LLM-only run: 10 completions = 8 distinct valid + 1 syntax error
        # + 1 literal-level duplicate -> 10 generated, 1 syntax-rejected,
        # 1 dedup-dropped, 8 kept.
        stub_dir = tmp_path / "stub"
        config = base_config(
            tmp_path,
            pipeline={"mech_per_subschema": 0},
            llm={
                "enabled": True,
                "backend": "stub",
                "stub_dir": str(stub_dir),
                "settings": ["0:none"],
            },
            subschema={"max_tables": 1, "llm_sample_count": 1},
        )
        config.llm.params.n_completions = 10
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        assert len(prompts) == 1
        # the line after the request names the prompted subschema's table
        lines = prompts[0].splitlines()
        table = lines[lines.index(
            "Write an interesting and complicated SQL query that uses all of these tables:"
        ) + 1].strip()
        completions = [
            f"SELECT COUNT(*) FROM {table}",
            f"SELECT * FROM {table}",
            f"SELECT COUNT(*) FROM {table} WHERE 1 = 1",
            f"SELECT * FROM {table} LIMIT 5",
            f"SELECT * FROM {table} ORDER BY 1",
            f"SELECT 1 FROM {table}",
            f"SELECT DISTINCT * FROM {table}",
            f"SELECT * FROM {table} WHERE 2 > 1",
            f"select   count( * )   from {table}",  # duplicate modulo whitespace/case
            "SELECT FROM oops",  # syntax error
        ]
        assert len(completions) == 10
        StubBackend.store(stub_dir, prompts[0], completions)
        manifest = run_pipeline(config)
        batch = manifest["batches"][0]
        assert batch["generated"] == 10
        assert batch["rejected"] == 1
        assert batch["rejected_by_reason"]["syntax"] == 1
        assert batch["dedup_dropped"] == 1
        assert batch["kept"] == 8

    def test_duplicates_dropped_across_batches(self, tmp_path, monkeypatch):
        # Every prompt of every batch completes to the same table-free query,
        # valid on any subschema: the first batch keeps it once, and later
        # batches must drop every copy as a duplicate.
        class ConstantBackend(StubBackend):
            def complete(self, prompt, params):
                return ["SELECT 1 AS one"]

        monkeypatch.setattr(pipeline_mod, "make_backend", lambda cfg: ConstantBackend(tmp_path))
        config = self._config(
            tmp_path, tmp_path / "stub",
            pipeline={"loop_limit": 2}, coverage={"min_clause_freq": 0.99},
        )
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 3
        kept = load_records(Path(config.out_dir) / "kept.jsonl")
        forms = [record.validation.normalized_form for record in kept]
        assert len(set(forms)) == len(forms)
        assert sum(1 for record in kept if record.origin == "llm") == 1
        for batch in manifest["batches"][1:]:
            assert batch["llm_calls"] > 0
            assert batch["dedup_dropped"] >= batch["llm_calls"]

    def test_end_to_end_determinism(self, tmp_path, monkeypatch):
        stub_dir = tmp_path / "stub"
        config = self._config(tmp_path, stub_dir)
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        for prompt in prompts:
            StubBackend.store(stub_dir, prompt, ["```sql\nSELECT r_name FROM region\n```"])

        out_a = tmp_path / "run-a"
        out_b = tmp_path / "run-b"
        config.out_dir = str(out_a)
        run_pipeline(config)
        config.out_dir = str(out_b)
        run_pipeline(config)
        for name in ("kept.jsonl", "records.jsonl", "manifest.json", "coverage.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestResume:
    def test_resume_reuses_checkpoints(self, tmp_path):
        ddl = tmp_path / "schema.sql"
        shutil.copyfile(TPCH_DDL_PATH, ddl)
        config = base_config(tmp_path, schema={"ddl": str(ddl)})
        first = run_pipeline(config)
        # Make the DDL unreadable: a resumed run must not re-ingest it.
        ddl.unlink()
        second = run_pipeline(config, resume=True)
        assert second["counts"]["kept"] == first["counts"]["kept"]
        assert second["counts"]["batches"] == first["counts"]["batches"]

    def test_resume_with_another_seed_is_a_config_error(self, tmp_path):
        config = base_config(tmp_path)
        run_pipeline(config)
        out = Path(config.out_dir)
        finished = {path.name: path.read_bytes() for path in out.iterdir()}
        config.seed += 1
        with pytest.raises(ConfigError, match=r"\[pipeline\] seed"):
            run_pipeline(config, resume=True)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == finished

    def test_resume_with_another_selection_size_reuses_the_generation(
        self, tmp_path, monkeypatch
    ):
        config = base_config(tmp_path)
        first = run_pipeline(config)
        out = Path(config.out_dir)
        kept = (out / "kept.jsonl").read_bytes()

        def generate(*args):
            raise AssertionError("a resume with the generation done generated again")

        monkeypatch.setattr(pipeline_mod, "_generate", generate)
        config.selection.size = 3
        second = run_pipeline(config, resume=True)
        assert second["counts"]["kept"] == first["counts"]["kept"]
        assert second["counts"]["training_selected"] == 3
        assert len(read_jsonl(out / "training.jsonl", "training_ids")) == 3
        assert (out / "kept.jsonl").read_bytes() == kept

    def test_resume_without_manifest_generates_again(self, tmp_path):
        config = base_config(tmp_path)
        run_pipeline(config)
        out = Path(config.out_dir)
        finished = {name: (out / name).read_bytes()
                    for name in ("manifest.json", "kept.jsonl", "records.jsonl")}
        (out / "manifest.json").unlink()
        run_pipeline(config, resume=True)
        for name, data in finished.items():
            assert (out / name).read_bytes() == data, name

    def test_kept_count_is_the_batches_and_the_file(self, tmp_path):
        # the kept rows are streamed out batch by batch; the count adds the
        # batches up, on a fresh run and on a resumed one
        config = multi_batch_demo_config(tmp_path / "out")
        kept = Path(config.out_dir) / "kept.jsonl"
        for resume in (False, True):
            manifest = run_pipeline(config, resume=resume)
            assert manifest["counts"]["batches"] == 4
            assert manifest["counts"]["kept"] == sum(b["kept"] for b in manifest["batches"])
            assert manifest["counts"]["kept"] == len(load_records(kept)) > 0

    def test_fresh_run_fails_without_ddl(self, tmp_path):
        config = base_config(tmp_path)
        run_pipeline(config)
        config.schema.ddl = str(tmp_path / "gone.sql")
        with pytest.raises(OSError):
            run_pipeline(config, resume=False)


class TestExecutionStage:
    def test_execution_labels_records(self, tmp_path):
        config = base_config(
            tmp_path,
            pipeline={"mech_per_subschema": 1},
            execution={
                "enabled": True,
                "data_dir": str(SAMPLE_DATA_DIR),
                "timeout_ms": 30_000,
                "min_empty_runtime_ms": 0,
            },
            engines={"sqlite-mem": {"driver": "sqlite"}},
        )
        manifest = run_pipeline(config)
        assert manifest["counts"]["executed"] == manifest["counts"]["kept"]
        assert manifest["counts"]["labels_kept"] > 0
        labels = load_labels(Path(config.out_dir) / "labels.jsonl")
        assert len(labels) == manifest["counts"]["labels_kept"]
        for label in labels:
            assert label.engine_id == "sqlite-mem"
            assert label.error is None
            assert label.row_count is not None


class TestManifestShape:
    def test_manifest_fields(self, tmp_path):
        config = base_config(tmp_path)
        manifest = run_pipeline(config)
        assert manifest["kind"] == "manifest"
        assert manifest["schema_version"] == 1
        assert manifest["config"]["mechanical"]["p_group_by"] == pytest.approx(0.3)
        assert "files" in manifest and manifest["files"]["kept"] == "kept.jsonl"
        raw = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        assert raw == manifest


class TestRejectionReasons:
    def test_records_rows_have_reasons_kept_rows_none(self, tmp_path, monkeypatch):
        from sqlsynth.llmgen import StubBackend

        stub_dir = tmp_path / "stub"
        config = base_config(
            tmp_path,
            llm={
                "enabled": True,
                "backend": "stub",
                "stub_dir": str(stub_dir),
                "settings": ["0:none"],
            },
            subschema={"max_tables": 2, "llm_sample_count": 2},
        )
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        for prompt in prompts:
            StubBackend.store(
                stub_dir, prompt, ["SELECT ghost FROM nowhere", "SELECT FROM", "SELECT 1"]
            )
        run_pipeline(config)
        assert load_records(Path(config.out_dir) / "records.jsonl")
        assert_split_by_reasons(config.out_dir)


class TestTrainingSelection:
    def test_pipeline_writes_training_file(self, tmp_path):
        config = base_config(tmp_path)
        config.selection.size = 15
        manifest = run_pipeline(config)
        out = Path(config.out_dir)
        ids = [row["query_id"] for row in read_jsonl(out / "training.jsonl", "training_ids")]
        assert len(set(ids)) == len(ids) == 15
        chosen = set(ids)
        assert ids == [r.id for r in load_records(out / "kept.jsonl") if r.id in chosen]
        assert manifest["counts"]["training_selected"] == 15


class TestManifestOnStageFailure:
    def test_manifest_written_before_failing_execution(self, tmp_path):
        from sqlsynth.errors import LoadError

        config = base_config(
            tmp_path,
            pipeline={"mech_per_subschema": 1},
            execution={
                "enabled": True,
                "data_dir": str(tmp_path / "no-such-dir"),
            },
            engines={"sqlite-mem": {"driver": "sqlite"}},
        )
        with pytest.raises(LoadError):
            run_pipeline(config)
        manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        assert manifest["counts"]["kept"] > 0  # generation stage is reflected
        assert "executed" not in manifest["counts"]


class TestCrossEngineExecution:
    def test_two_engines_labeled_in_config_order(self, tmp_path):
        config = base_config(
            tmp_path,
            pipeline={"mech_per_subschema": 1},
            subschema={"max_tables": 1},
            execution={
                "enabled": True,
                "data_dir": str(SAMPLE_DATA_DIR),
                "min_empty_runtime_ms": 0,
                "timeout_ms": 30_000,
            },
            engines={
                "alpha": {"driver": "sqlite"},
                "beta": {"driver": "sqlite"},
            },
        )
        run_pipeline(config)
        kept_ids = [record.id for record in load_records(Path(config.out_dir) / "kept.jsonl")]
        labels = load_labels(Path(config.out_dir) / "labels.jsonl")
        assert kept_ids
        # engines in config order, each engine's labels in corpus order
        assert [(label.engine_id, label.query_id) for label in labels] == [
            (engine, query) for engine in ("alpha", "beta") for query in kept_ids
        ]


#: Tables of a small dataset that a split load shares out as ``big`` to
#: one engine and the rest to the other; ``pair``'s key holds every column.
SHARED_LOAD_DDL = """
CREATE TABLE big (id integer, "order" integer, "select" varchar(10), PRIMARY KEY (id, "order"));
CREATE TABLE "group" (id integer, name varchar(10));
CREATE TABLE pair (a integer, b integer, PRIMARY KEY (a, b));
"""
SHARED_LOAD_CAP = 50
SHARED_LOAD_QUERIES = (
    "SELECT * FROM big",
    'SELECT "select" FROM big WHERE "order" > 20',
    'SELECT * FROM "group"',
    'SELECT g.name FROM "group" AS g INNER JOIN pair ON g.id = pair.a',
    "SELECT a FROM pair WHERE b = 1",
)


def shared_load_case(tmp_path, engines: dict):
    """A config labelling on ``engines`` over the shared-load dataset, the
    dataset's catalog, and a fresh record per query; rows out of key order."""
    from sqlsynth.schema import ingest_ddl

    data = tmp_path / "data"
    data.mkdir(parents=True)
    (data / "big.tbl").write_text(
        "".join(f"{i * 37 % 101}|{i}|s{i}|\n" for i in range(120)), encoding="utf-8"
    )
    (data / "group.tbl").write_text(
        "".join(f"{i % 7}|g{i}|\n" for i in range(30)), encoding="utf-8"
    )
    (data / "pair.tbl").write_text(
        "".join(f"{9 - i % 10}|{i // 10}|\n" for i in range(40)), encoding="utf-8"
    )
    config = base_config(
        tmp_path,
        execution={
            "enabled": True,
            "data_dir": str(data),
            "max_rows_per_table": SHARED_LOAD_CAP,
            "timeout_ms": 30_000,
            "min_empty_runtime_ms": 0,
        },
        engines=engines,
    )
    Path(config.out_dir).mkdir()  # as generation leaves it, empty here
    records = [make_record(sql, "mechanical", "s") for sql in SHARED_LOAD_QUERIES]
    return config, ingest_ddl(SHARED_LOAD_DDL), records


def database_contents(path) -> tuple:
    """The schema, then every table's rows with their rowids, of ``path``."""
    import sqlite3
    from contextlib import closing

    with closing(sqlite3.connect(path)) as conn:
        schema = conn.execute("SELECT * FROM sqlite_master ORDER BY name").fetchall()
        tables = [name for type_, name, *_ in schema if type_ == "table"]
        return schema, {
            table: conn.execute(f'SELECT rowid, * FROM "{table}" ORDER BY rowid').fetchall()
            for table in tables
        }


@pytest.fixture
def engine_sessions(monkeypatch):
    """Every engine session started while the test runs, failed ones too."""
    from sqlsynth.execution import SqliteSession

    started = []
    start = SqliteSession._start

    def recorded(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(SqliteSession, "_start", recorded)
    return started


@pytest.fixture
def execute_within(monkeypatch):
    """``label_corpus`` of a config's execution settings, with its out_dir
    as the work directory, on a thread that must finish within ``seconds``;
    returns its result, or raises its error. If it does not finish, every
    split load's rendezvous is aborted, so no engine thread outlives the
    test."""
    import threading

    from sqlsynth import execution as execution_mod

    shares = []
    split_load = execution_mod.split_load

    def recorded(*args):
        split = split_load(*args)
        shares.extend(split)
        return split

    monkeypatch.setattr(execution_mod, "split_load", recorded)

    def execute(config, catalog, records, seconds=60):
        outcome = {}

        def target():
            try:
                outcome["result"] = execution_mod.label_corpus(
                    config.execution, catalog, records, config.out_dir
                )
            except BaseException as exc:  # handed to the test
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        if thread.is_alive():
            for share in shares:
                share.rendezvous.abort()
            thread.join(seconds)
            pytest.fail("an engine was still waiting for its peers")
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    return execute


class TestSharedLoad:
    """Several SQLite engines load the dataset once between them."""

    def test_split_gives_the_largest_file_to_the_least_loaded_engine(self, tmp_path):
        from sqlsynth.execution import split_load
        from sqlsynth.schema import ingest_ddl

        catalog = ingest_ddl(
            "CREATE TABLE a (x integer); CREATE TABLE b (x integer);"
            "CREATE TABLE c (x integer); CREATE TABLE d (x integer);"
            "CREATE TABLE e (x integer)"
        )
        for name, size in {"a": 30, "b": 100, "c": 50, "d": 60}.items():  # no e file
            (tmp_path / f"{name}.tbl").write_text("1\n" * (size // 2), encoding="utf-8")
        shares = split_load(catalog, tmp_path, tmp_path / "parts", 2)
        # bytes so far: b -> [100, 0], d -> [100, 60], c -> [100, 110],
        # a -> [130, 110], e -> [130, 110]; each share in catalog order
        assert [share.tables for share in shares] == [("a", "b"), ("c", "d", "e")]
        assert shares[0].peers == ((tmp_path / "parts" / "part1.db", ("c", "d", "e")),)
        assert shares[1].peers == ((tmp_path / "parts" / "part0.db", ("a", "b")),)
        # more engines than tables: the last loads none and has no part
        six = split_load(catalog, tmp_path, tmp_path / "parts", 6)
        assert [share.tables for share in six] == [("b",), ("d",), ("c",), ("a",), ("e",), ()]
        assert [len(share.peers) for share in six] == [4, 4, 4, 4, 4, 5]

    # four engines, more than a 2-core host has, and one of them loads none
    @pytest.mark.parametrize("engine_count", [2, 4])
    def test_engines_hold_what_one_direct_load_holds(
        self, tmp_path, engine_sessions, execute_within, engine_count
    ):
        from sqlsynth.execution import SqliteSession, restrict_dataset

        names = [f"e{i}" for i in range(1, engine_count + 1)]
        engines = {
            name: {"driver": "sqlite", "database": str(tmp_path / f"{name}.db")} for name in names
        }
        config, catalog, records = shared_load_case(tmp_path, engines)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the engine threads as finely as possible
        try:
            labels, counts = execute_within(config, catalog, records)
        finally:
            sys.setswitchinterval(switch)
        assert counts["executed"] == engine_count * len(records)

        direct = SqliteSession(str(tmp_path / "direct.db"))
        try:
            loaded = restrict_dataset(catalog, config.execution.data_dir, direct, SHARED_LOAD_CAP)
        finally:
            direct.close()
        assert loaded == {"big": SHARED_LOAD_CAP, "group": 30, "pair": 40}
        expected = database_contents(tmp_path / "direct.db")
        assert len(expected[1]["big"]) == SHARED_LOAD_CAP
        for name in names:
            assert database_contents(tmp_path / f"{name}.db") == expected

        solo_config, _, solo_records = shared_load_case(
            tmp_path / "solo", {"solo": {"driver": "sqlite"}}
        )
        solo, _ = execute_within(solo_config, catalog, solo_records)
        solo_rows = [label.row_count for label in solo]
        assert len(solo_rows) == len(records)
        assert [label.engine_id for label in labels] == [name for name in names for _ in records]
        assert [label.row_count for label in labels] == solo_rows * engine_count
        assert all(session.process.poll() is not None for session in engine_sessions)
        assert list(Path(config.out_dir).iterdir()) == []  # no part file is left

    @pytest.mark.parametrize("table", ["big", "group"])  # one of each engine's share
    def test_malformed_file_fails_as_one_engine_does(
        self, tmp_path, engine_sessions, execute_within, table
    ):
        from sqlsynth.errors import LoadError

        def failure(case_dir, engines):
            config, catalog, records = shared_load_case(case_dir, engines)
            path = Path(config.execution.data_dir) / f"{table}.tbl"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:5] + ["1|\n"] + lines[5:]), encoding="utf-8")
            with pytest.raises(LoadError) as caught:
                execute_within(config, catalog, records)
            assert list(Path(config.out_dir).iterdir()) == []
            return str(caught.value)

        alone = failure(tmp_path / "one", {"e1": {"driver": "sqlite"}})
        shared = failure(tmp_path / "two", {"e1": {"driver": "sqlite"}, "e2": {"driver": "sqlite"}})
        assert alone.startswith(f"{table}.tbl: expected")
        assert shared == alone
        assert all(session.process.poll() is not None for session in engine_sessions)

    @pytest.mark.parametrize("broken", ["a-broken", "z-broken"])  # first or last engine
    def test_engine_that_cannot_open_releases_its_peer(
        self, tmp_path, engine_sessions, execute_within, broken
    ):
        from sqlsynth.errors import EngineConnectionError

        engines = {
            "m-fine": {"driver": "sqlite"},
            broken: {"driver": "sqlite", "database": str(tmp_path / "missing" / "e.db")},
        }
        config, catalog, records = shared_load_case(tmp_path, engines)
        with pytest.raises(EngineConnectionError, match="cannot open sqlite database"):
            execute_within(config, catalog, records)
        assert len(engine_sessions) == 2
        assert all(session.process.poll() is not None for session in engine_sessions)
        assert list(Path(config.out_dir).iterdir()) == []


class TestDegenerateInputs:
    def test_empty_schema_completes(self, tmp_path):
        empty_ddl = tmp_path / "empty.sql"
        empty_ddl.write_text("", encoding="utf-8")
        from sqlsynth.config import config_from_dict

        config = config_from_dict(
            {
                "pipeline": {"out_dir": str(tmp_path / "out")},
                "schema": {"ddl": str(empty_ddl)},
            },
            base_dir=tmp_path,
        )
        manifest = run_pipeline(config)
        assert manifest["counts"]["subschemas"] == 0
        assert manifest["counts"]["kept"] == 0


def demo_config(out_dir):
    """The shipped demo config (seed 42) writing to ``out_dir``, execution off."""
    config = load_config(DEMO_CONFIG)
    config.out_dir = str(out_dir)
    config.execution.enabled = False
    return config


def multi_batch_demo_config(out_dir):
    """The demo with its coverage gaps held open, so all four batches run."""
    config = demo_config(out_dir)
    config.loop_limit = 3
    config.coverage.min_clause_freq = 0.99
    return config


def count_calls(monkeypatch, functions: dict) -> Counter:
    """Rebind each function, in every loaded sqlsynth module holding it, to a
    shim that counts its calls under the function's key in ``functions``."""
    counts: Counter = Counter()
    modules = [
        module for name, module in list(sys.modules.items())
        if name == "sqlsynth" or name.startswith("sqlsynth.")
    ]

    def shim(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key, fn in functions.items():
        counted = shim(key, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


class TestCommittedDemoOutputs:
    # labels.jsonl holds measured runtimes; every other file of the
    # committed demo run is pinned, the manifest from any checkout.
    GOLDEN = (
        "catalog.json",
        "subschemas.jsonl",
        "records.jsonl",
        "kept.jsonl",
        "coverage.json",
        "coverage_facets.csv",
        "coverage_clauses.csv",
        "manifest.json",
    )

    def test_demo_rerun_matches_committed_bytes(self, tmp_path):
        config = load_config(DEMO_CONFIG)
        config.out_dir = str(tmp_path)
        run_pipeline(config)
        for name in self.GOLDEN:
            assert (tmp_path / name).read_bytes() == (COMMITTED_DEMO_OUT / name).read_bytes(), name

    def test_demo_rows_split_by_rejection_reasons(self):
        assert_split_by_reasons(COMMITTED_DEMO_OUT)

    def test_demo_directory_holds_what_its_manifest_lists(self):
        # a rerun into the directory leaves any file the run no longer writes
        manifest = load_json(COMMITTED_DEMO_OUT / "manifest.json")
        assert sorted(path.name for path in COMMITTED_DEMO_OUT.iterdir()) == sorted(
            [*manifest["files"].values(), "manifest.json"]
        )

    def test_every_kept_demo_query_prepares_on_the_catalog(self):
        # SQLite as the validator's oracle: a kept query compiles against
        # the catalog's tables alone, with no rows loaded
        import sqlite3
        from contextlib import closing

        from sqlsynth.schema import render_create_statements

        catalog = load_catalog(COMMITTED_DEMO_OUT / "catalog.json")
        kept = load_records(COMMITTED_DEMO_OUT / "kept.jsonl")
        assert len(kept) == load_json(COMMITTED_DEMO_OUT / "manifest.json")["counts"]["kept"]
        failed = []
        with closing(sqlite3.connect(":memory:")) as conn:
            conn.executescript("\n".join(render_create_statements(catalog)))
            for record in kept:
                try:
                    conn.execute(f"EXPLAIN {record.sql}").fetchall()
                except sqlite3.Error as exc:
                    failed.append((record.id, str(exc)))
        assert failed == []


class TestIncrementalAnalysis:
    def test_folded_coverage_matches_from_scratch_oracle(self, tmp_path):
        config = multi_batch_demo_config(tmp_path / "out")
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 4
        out = Path(config.out_dir)
        catalog = load_catalog(out / "catalog.json")

        kept = load_records(out / "kept.jsonl")
        by_setting: dict[str, list] = {}
        all_profiles = []
        for record in kept:
            profile = profile_query(record.sql, catalog)
            assert record.profile == profile, record.sql
            label = (
                "mechanical" if record.origin == "mechanical" else record.prompt_setting.label
            )
            by_setting.setdefault(label, []).append(profile)
            all_profiles.append(profile)
        reports = [
            aggregate_coverage(profiles, label, catalog, config.coverage)
            for label, profiles in sorted(by_setting.items())
        ]
        reports.append(aggregate_coverage(all_profiles, "all", catalog, config.coverage))
        expected = tmp_path / "expected_coverage.json"
        header = {"schema_version": SCHEMA_VERSION, "kind": "coverage"}
        dump_json({**header, "reports": reports}, expected)
        assert (out / "coverage.json").read_bytes() == expected.read_bytes()

        # records.jsonl holds the candidates not kept; with kept.jsonl, every one
        records = load_records(out / "records.jsonl")
        assert not any(r.validation.accepted for r in records)
        assert any("duplicate" in r.validation.rejection_reasons for r in records)
        assert any("duplicate" not in r.validation.rejection_reasons for r in records)
        assert len(records) + len(kept) == manifest["counts"]["generated"]
        for record in records:
            assert record.profile is None, record.sql

    def test_each_candidate_parsed_once_and_never_reprofiled(self, tmp_path, monkeypatch):
        # The stub LLM on: its candidates, and the seed examples its prompts
        # draw from the mechanical pools, are counted too.
        config = multi_batch_demo_config(tmp_path / "out")
        calls = count_calls(
            monkeypatch,
            {
                "tokenize": sqltree_mod.tokenize,
                "parse": sqltree_mod.parse_select,
                "resolve": validation_mod.resolve_references,
                "normalize": sqltree_mod.normalize_sql,
                "forms": sqltree_mod.normalized_forms,
                "clause_tags": mechgen_mod.clause_tags,
                "profile": coverage_mod.profile_query,
            },
        )
        counts = run_pipeline(config)["counts"]
        monkeypatch.undo()
        assert counts["batches"] == 4
        assert counts["llm_calls"] > counts["llm_failures"]
        generated = counts["generated"]
        assert generated > 0
        records = load_candidates(config.out_dir)
        assert len(records) == generated
        origins = Counter(record.origin for record in records)
        assert 0 < sum(tokenizes(r.sql) for r in records if r.origin == "llm") < origins["llm"]
        assert origins["mechanical"] > 0
        # each LLM candidate is parsed once (an untokenizable one fails in
        # its one tokenize); a mechanical one carries the tree of its
        # construction and is never tokenized; the DDL is tokenized once
        assert calls["parse"] == origins["llm"]
        assert calls["tokenize"] == origins["llm"] + 1
        assert calls["resolve"] <= generated
        # ids and dedup keys come from each candidate's forms: scanned once
        # for an LLM candidate, printed from the tree for a mechanical one
        assert calls["normalize"] == 0
        assert calls["forms"] == origins["llm"]
        # seed pools hold the mechanical generator's own clause tags
        assert calls["clause_tags"] == 0
        assert calls["profile"] == 0


class TestStreamedBatches:
    def test_run_holds_one_batch_at_a_time(self, tmp_path, monkeypatch):
        # while batch k settles, chunk by chunk, every record made during the
        # run and alive is one of batch k's: the earlier batches' rows are on
        # disk, not in memory
        config = demo_config(tmp_path / "out")
        config.loop_limit = 4
        config.coverage.min_clause_freq = 0.99  # the gaps stay open: every batch runs
        gc.collect()
        earlier = [o for o in gc.get_objects() if isinstance(o, QueryRecord)]
        earlier_ids = {id(o) for o in earlier}
        settle_chunk, live = pipeline_mod.settle_chunk, []

        def counted(chunk, seen_forms, accounting, files, folds):
            gc.collect()
            live.append((accounting.batch, len(chunk), Counter(
                o.batch for o in gc.get_objects()
                if isinstance(o, QueryRecord) and id(o) not in earlier_ids
            )))
            return settle_chunk(chunk, seen_forms, accounting, files, folds)

        monkeypatch.setattr(pipeline_mod, "settle_chunk", counted)
        manifest = run_pipeline(config)
        assert manifest["counts"]["batches"] == 5
        assert sorted({batch for batch, _, _ in live}) == [0, 1, 2, 3, 4]
        assert [batch for batch, _, _ in live] == sorted(batch for batch, _, _ in live)
        for batch, _, by_batch in live:
            assert set(by_batch) == {batch}, (batch, by_batch)
        for batch in range(5):
            sizes = [size for settled, size, _ in live if settled == batch]
            # each batch settles in more than one chunk, and every candidate once
            assert len(sizes) > 1
            assert sum(sizes) == manifest["batches"][batch]["generated"]


class TestDemoLabelsScore:
    def test_demo_labels_round_trip_through_evaluate(self, tmp_path):
        """Every label the shipped demo measures is a duration ``evaluate``
        accepts: predicting twice each label scores a Q-error of exactly 2."""
        import csv

        from sqlsynth.cli import main

        config = load_config(DEMO_CONFIG)
        config.out_dir = str(tmp_path / "out")
        counts = run_pipeline(config)["counts"]
        labels = load_labels(tmp_path / "out" / "labels.jsonl")
        assert len(labels) == counts["labels_kept"]
        assert len({label.query_id for label in labels}) == counts["kept"]

        predictions = tmp_path / "predictions.csv"
        with open(predictions, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "engine_id", "predicted_ms", "true_ms"])
            for label in labels:
                assert label.runtime_ms > 0, label.query_id
                writer.writerow(
                    [label.query_id, label.engine_id, 2 * label.runtime_ms, label.runtime_ms]
                )
        summary_path = tmp_path / "evaluation.json"
        assert main(["evaluate", "--predictions", str(predictions), "--out", str(summary_path)]) == 0
        evaluation = json.loads(summary_path.read_text(encoding="utf-8"))
        summary = evaluation["summary"]
        assert (summary["q_median"], summary["q_mean"], summary["q_p95"]) == (2.0, 2.0, 2.0)
        assert len(evaluation["routing"]["assignments"]) == counts["kept"]
