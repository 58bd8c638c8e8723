from __future__ import annotations

import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sqlsynth.cli import main
from sqlsynth.execution import load_labels
from sqlsynth.records import load_records
from sqlsynth.util import load_json

from tests.conftest import TPCH_DDL_PATH

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DATA_DIR = REPO_ROOT / "data" / "tpch_sample"
DEMO_DIR = REPO_ROOT / "data" / "demo"
DEMO_OUT = REPO_ROOT / "out" / "demo"


def write_stage_config(tmp_path, ddl=TPCH_DDL_PATH, seed=0, per_subschema=2):
    """A config for the stage commands: TPC-H, subschemas of up to two
    tables, labelling on one in-memory SQLite engine."""
    config = tmp_path / "stages.toml"
    config.write_text(
        f"""
        [pipeline]
        name = "schema"
        out_dir = "out"
        seed = {seed}
        mech_per_subschema = {per_subschema}

        [schema]
        ddl = "{Path(ddl).as_posix()}"

        [subschema]
        max_tables = 2

        [execution]
        enabled = true
        data_dir = "{SAMPLE_DATA_DIR.as_posix()}"
        timeout_ms = 30000
        min_empty_runtime_ms = 0

        [engines.sqlite-local]
        driver = "sqlite"
        """,
        encoding="utf-8",
    )
    return config


@pytest.fixture()
def config_path(tmp_path):
    return write_stage_config(tmp_path)


@pytest.fixture()
def catalog_path(tmp_path, config_path):
    out = tmp_path / "catalog.json"
    assert main(["preprocess", "--config", str(config_path), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def subschemas_path(tmp_path, config_path, catalog_path):
    out = tmp_path / "subschemas.jsonl"
    code = main(
        ["subschemas", "--config", str(config_path), "--catalog", str(catalog_path),
         "--out", str(out)]
    )
    assert code == 0
    return out


class TestPreprocess:
    def test_writes_catalog_with_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "catalog.json"
        code = main(["preprocess", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "8 tables" in printed
        data = load_json(out)
        assert data["kind"] == "catalog"
        assert len(data["tables"]) == 8

    def test_missing_ddl_nonzero_exit(self, tmp_path):
        config = write_stage_config(tmp_path, ddl=tmp_path / "nope.sql")
        code = main(["preprocess", "--config", str(config), "--out", str(tmp_path / "c.json")])
        assert code != 0

    def test_bad_ddl_exit_code_1(self, tmp_path):
        bad = tmp_path / "bad.sql"
        bad.write_text("CREATE TABLE t (x NOTATYPE)")
        config = write_stage_config(tmp_path, ddl=bad)
        code = main(["preprocess", "--config", str(config), "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_json_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("CREATE TABLE t (x NOTATYPE)")
        config = write_stage_config(tmp_path, ddl=bad)
        main(["--json-errors", "preprocess", "--config", str(config),
              "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["error"]["kind"] == "DdlSyntaxError"

    def test_creates_missing_output_directory(self, tmp_path, config_path):
        out = tmp_path / "new_dir" / "deeper" / "catalog.json"
        assert main(["preprocess", "--config", str(config_path), "--out", str(out)]) == 0
        assert load_json(out)["kind"] == "catalog"


class TestStageCommands:
    def test_subschemas(self, subschemas_path, capsys):
        assert subschemas_path.exists()

    def test_gen_mech_and_validate_and_coverage(self, tmp_path):
        config = write_stage_config(tmp_path, seed=5, per_subschema=2)
        catalog = tmp_path / "catalog.json"
        subschemas = tmp_path / "subschemas.jsonl"
        assert main(["preprocess", "--config", str(config), "--out", str(catalog)]) == 0
        assert main(["subschemas", "--config", str(config), "--catalog", str(catalog),
                     "--out", str(subschemas)]) == 0
        records = tmp_path / "mech.jsonl"
        code = main(
            [
                "gen-mech",
                "--config", str(config),
                "--catalog", str(catalog),
                "--subschemas", str(subschemas),
                "--out", str(records),
            ]
        )
        assert code == 0
        validated = tmp_path / "validated.jsonl"
        kept = tmp_path / "kept.jsonl"
        code = main(
            [
                "validate",
                "--config", str(config),
                "--catalog", str(catalog),
                "--subschemas", str(subschemas),
                "--records", str(records),
                "--out", str(validated),
                "--kept", str(kept),
            ]
        )
        assert code == 0
        kept_records = load_records(kept)
        assert kept_records
        coverage = tmp_path / "csv" / "coverage.json"
        code = main(
            [
                "coverage",
                "--config", str(config),
                "--catalog", str(catalog),
                "--records", str(kept),
                "--out", str(coverage),
            ]
        )
        assert code == 0
        assert (tmp_path / "csv" / "coverage_facets.csv").exists()
        assert (tmp_path / "csv" / "coverage_clauses.csv").exists()

    def test_execute_labels(self, tmp_path):
        self._execute_labels(tmp_path, ["sqlite-local"])

    def test_execute_on_two_engines_loads_once_and_labels_alike(self, tmp_path):
        self._execute_labels(tmp_path, ["sqlite-local", "sqlite-w2"])

    def _execute_labels(self, tmp_path, engines):
        config = write_stage_config(tmp_path, per_subschema=1)
        with config.open("a", encoding="utf-8") as fh:
            fh.writelines(f'\n[engines.{name}]\ndriver = "sqlite"\n' for name in engines[1:])
        catalog = tmp_path / "catalog.json"
        subschemas = tmp_path / "subschemas.jsonl"
        main(["preprocess", "--config", str(config), "--out", str(catalog)])
        main(["subschemas", "--config", str(config), "--catalog", str(catalog),
              "--out", str(subschemas)])
        records = tmp_path / "mech.jsonl"
        main(
            [
                "gen-mech",
                "--config", str(config),
                "--catalog", str(catalog),
                "--subschemas", str(subschemas),
                "--out", str(records),
            ]
        )
        labels_path = tmp_path / "labels.jsonl"
        code = main(
            [
                "execute",
                "--config", str(config),
                "--catalog", str(catalog),
                "--records", str(records),
                "--out", str(labels_path),
            ]
        )
        assert code == 0
        labels = load_labels(labels_path)
        assert labels
        by_query = {}
        for label in labels:
            by_query.setdefault(label.query_id, []).append(label)
        assert all([label.engine_id for label in ls] == engines for ls in by_query.values())
        # engines that loaded the dataset between them return the same rows
        assert all(len({label.row_count for label in ls}) == 1 for ls in by_query.values())
        # the part files live beside --out, not in the config's out_dir, and none is left
        assert not (tmp_path / "out").exists()
        assert list(tmp_path.glob(".load-*")) == []
        report_dir = tmp_path / "report"
        code = main(["report", "--kept", str(records), "--labels", str(labels_path),
                     "--out-dir", str(report_dir)])
        assert code == 0
        assert (report_dir / "runtime_buckets.csv").exists()


class TestEvaluate:
    def _write_predictions(self, path):
        path.write_text(
            "query_id,engine_id,predicted_ms,true_ms\n"
            "q0,presto-w1,100,120\n"
            "q0,spark-w1,220,200\n"
            "q1,presto-w1,50,55\n"
            "q1,spark-w1,45,40\n",
            encoding="utf-8",
        )

    def test_prints_summary_table(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        self._write_predictions(preds)
        out = tmp_path / "summary.json"
        code = main(["evaluate", "--predictions", str(preds), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "q_median" in printed and "q_mean" in printed
        payload = load_json(out)
        assert payload["summary"]["q_mean"] >= 1.0
        assert "routing" in payload

    def test_baseline_comparison(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        base = tmp_path / "b.csv"
        self._write_predictions(preds)
        base.write_text(
            "query_id,engine_id,predicted_ms,true_ms\n"
            "q0,presto-w1,200,120\n"
            "q0,spark-w1,100,200\n"
            "q1,presto-w1,50,55\n"
            "q1,spark-w1,60,40\n",
            encoding="utf-8",
        )
        code = main(["evaluate", "--predictions", str(preds), "--baseline", str(base)])
        assert code == 0
        assert "routing improvement" in capsys.readouterr().out

    def test_bad_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(bad)]) == 1

    @pytest.mark.parametrize("name, text, line", [
        ("p.csv", "query_id,engine_id,predicted_ms,true_ms\nq0,a,100,120\nq1,a,abc,5\n", 3),
        ("p.jsonl", '{"schema_version": 1, "kind": "predictions"}\n'
                    '{"query_id": "q0", "engine_id": "a", "predicted_ms": 100}\n', 2),
    ], ids=["csv", "jsonl"])
    def test_malformed_prediction_row_is_a_json_error(self, tmp_path, capsys, name, text, line):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["--json-errors", "evaluate", "--predictions", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "DataFileError"
        assert f"{path}, line {line}" in error["message"]


class TestRun:
    def _write_config(self, tmp_path, **pipeline_extra):
        config = tmp_path / "run.toml"
        extra = "\n".join(f"{k} = {v}" for k, v in pipeline_extra.items())
        config.write_text(
            f"""
            [pipeline]
            name = "cli-run"
            out_dir = "out"
            seed = 3
            mech_per_subschema = 1
            {extra}

            [schema]
            ddl = "{TPCH_DDL_PATH}"

            [subschema]
            max_tables = 2
            """,
            encoding="utf-8",
        )
        return config

    def test_run_mechanical(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert "kept" in capsys.readouterr().out

    def test_run_config_error_exit_2(self, tmp_path):
        config = tmp_path / "broken.toml"
        config.write_text("[pipeline]\nname = \"x\"\n", encoding="utf-8")  # no schema.ddl
        assert main(["run", "--config", str(config)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.toml")]) == 2

    def test_seed_and_out_overrides(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config), "--seed", "9", "--out", str(out)]) == 0
        manifest = load_json(out / "manifest.json")
        assert manifest["seed"] == 9
        assert manifest["config"]["pipeline"]["seed"] == 9


class TestEntryPoint:
    def test_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "sqlsynth.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "sqlsynth" in result.stdout


class TestShippedDemo:
    def test_run_with_shipped_fixtures(self, tmp_path, capsys):
        # The bundled demo config and canned completions must complete with a
        # nonzero kept corpus and no backend failures.
        demo = Path(__file__).resolve().parent.parent / "data" / "demo" / "demo.toml"
        code = main(["run", "--config", str(demo), "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = load_json(tmp_path / "out" / "manifest.json")
        assert manifest["counts"]["kept"] > 0
        assert manifest["counts"]["llm_calls"] > 0
        assert manifest["counts"]["llm_failures"] == 0
        kept = load_records(tmp_path / "out" / "kept.jsonl")
        assert any(r.origin == "llm" for r in kept)


class TestValidateSubschemaRule:
    def test_out_of_subschema_reference_rejected(
        self, tmp_path, config_path, catalog_path, subschemas_path
    ):
        from sqlsynth.records import make_record, save_records
        from sqlsynth.subschema import load_subschemas

        subs = load_subschemas(subschemas_path)
        region_only = next(s for s in subs if s.tables == ("region",))
        stray = make_record("SELECT n_name FROM nation", "mechanical", region_only.id)
        records_path = tmp_path / "stray.jsonl"
        save_records([stray], records_path)
        out = tmp_path / "validated.jsonl"
        code = main(
            [
                "validate",
                "--config", str(config_path),
                "--catalog", str(catalog_path),
                "--records", str(records_path),
                "--subschemas", str(subschemas_path),
                "--out", str(out),
                "--kept", str(tmp_path / "kept.jsonl"),
            ]
        )
        assert code == 0
        checked = load_records(out)
        assert checked[0].validation.rejection_reasons == ["uses_wrong_tables"]
        assert load_records(tmp_path / "kept.jsonl") == []


class TestWrongInputs:
    def _validate(self, config_path, catalog_path, subschemas_path, records, out):
        return main(
            [
                "--json-errors", "validate",
                "--config", str(config_path),
                "--catalog", str(catalog_path),
                "--subschemas", str(subschemas_path),
                "--records", str(records),
                "--out", str(out),
                "--kept", str(out.with_name("kept.jsonl")),
            ]
        )

    def test_wrong_kind_is_a_json_error(
        self, tmp_path, config_path, catalog_path, subschemas_path, capsys
    ):
        capsys.readouterr()
        code = self._validate(
            config_path, catalog_path, subschemas_path, subschemas_path, tmp_path / "v.jsonl"
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "DataFileError"
        assert "'query_records'" in error["message"] and "'subschemas'" in error["message"]
        assert not (tmp_path / "v.jsonl").exists()

    def test_non_json_first_line_is_a_json_error(
        self, tmp_path, config_path, catalog_path, subschemas_path, capsys
    ):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("SELECT 1\n", encoding="utf-8")
        capsys.readouterr()
        code = self._validate(
            config_path, catalog_path, subschemas_path, junk, tmp_path / "v.jsonl"
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "DataFileError"
        assert "line 1" in error["message"]

    def test_same_out_and_kept_is_a_config_error(
        self, tmp_path, config_path, catalog_path, subschemas_path, capsys
    ):
        records = tmp_path / "mech.jsonl"
        assert main(["gen-mech", "--config", str(config_path), "--catalog", str(catalog_path),
                     "--subschemas", str(subschemas_path), "--out", str(records)]) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = main([
            "--json-errors", "validate", "--config", str(config_path),
            "--catalog", str(catalog_path), "--subschemas", str(subschemas_path),
            "--records", str(records), "--out", str(tmp_path / "same.jsonl"),
            "--kept", f"{tmp_path}/elsewhere/../same.jsonl",
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and "same file" in error["message"]
        assert sorted(tmp_path.iterdir()) == before

    def _one_json_error(self, capsys, argv) -> dict:
        capsys.readouterr()
        code = main(["--json-errors", *argv])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1 and len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "DataFileError"
        return error

    def test_catalog_not_json_is_a_json_error(self, tmp_path, config_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text('{"schema_version": 1,\n  "kind": catalog}\n', encoding="utf-8")
        error = self._one_json_error(capsys, [
            "subschemas", "--config", str(config_path), "--catalog", str(catalog),
            "--out", str(tmp_path / "subs.jsonl"),
        ])
        assert f"{catalog}, line 2: not JSON" in error["message"]

    def test_catalog_without_tables_is_a_json_error(
        self, tmp_path, config_path, catalog_path, capsys
    ):
        data = json.loads(catalog_path.read_text(encoding="utf-8"))
        del data["tables"]
        catalog = tmp_path / "no_tables.json"
        catalog.write_text(json.dumps(data), encoding="utf-8")
        error = self._one_json_error(capsys, [
            "subschemas", "--config", str(config_path), "--catalog", str(catalog),
            "--out", str(tmp_path / "subs.jsonl"),
        ])
        assert error["message"] == f"{catalog}: tables: missing"

    def test_record_without_sql_is_a_json_error(
        self, tmp_path, config_path, catalog_path, subschemas_path, capsys
    ):
        records = tmp_path / "mech.jsonl"
        assert main(["gen-mech", "--config", str(config_path), "--catalog", str(catalog_path),
                     "--subschemas", str(subschemas_path), "--out", str(records)]) == 0
        lines = records.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        del row["sql"]
        lines[2] = json.dumps(row)
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        error = self._one_json_error(capsys, [
            "validate", "--config", str(config_path), "--catalog", str(catalog_path),
            "--subschemas", str(subschemas_path), "--records", str(records),
            "--out", str(tmp_path / "v.jsonl"), "--kept", str(tmp_path / "k.jsonl"),
        ])
        assert error["message"] == f"{records}, line 3: sql: missing"
        assert not (tmp_path / "v.jsonl").exists()

    def _report_failure(self, tmp_path, capsys, edit) -> str:
        """The error ``report`` gives on the demo's kept records and a labels
        file of the demo's first label, changed by ``edit``."""
        lines = (DEMO_OUT / "labels.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        edit(row)
        labels = tmp_path / "labels.jsonl"
        labels.write_text(f"{lines[0]}\n{json.dumps(row)}\n", encoding="utf-8")
        error = self._one_json_error(capsys, [
            "report", "--kept", str(DEMO_OUT / "kept.jsonl"), "--labels", str(labels),
            "--out-dir", str(tmp_path / "report"),
        ])
        assert not (tmp_path / "report" / "runtime_buckets.csv").exists()
        return error["message"].removeprefix(f"{labels}, ")

    def test_label_without_runtime_is_a_json_error(self, tmp_path, capsys):
        message = self._report_failure(tmp_path, capsys, lambda row: row.pop("runtime_ms"))
        assert message == "line 2: runtime_ms: missing"

    def test_label_of_a_query_not_kept_is_a_json_error(self, tmp_path, capsys):
        message = self._report_failure(
            tmp_path, capsys, lambda row: row.update(query_id="0000000000000000")
        )
        assert message == f"line 2: query_id '0000000000000000' is not in {DEMO_OUT / 'kept.jsonl'}"

    def test_resume_with_malformed_batches_is_a_json_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(DEMO_OUT, out)
        manifest = load_json(out / "manifest.json")
        manifest["batches"] = [{"batch": 0}]
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        error = self._one_json_error(capsys, [
            "run", "--config", str(DEMO_DIR / "demo.toml"), "--out", str(out), "--resume",
        ])
        assert error["message"] == f"{out / 'manifest.json'}: batches[0].generated: missing"

    def test_coverage_needs_profiled_records(
        self, tmp_path, config_path, catalog_path, subschemas_path, capsys
    ):
        records = tmp_path / "mech.jsonl"
        assert main(["gen-mech", "--config", str(config_path), "--catalog", str(catalog_path),
                     "--subschemas", str(subschemas_path), "--out", str(records)]) == 0
        capsys.readouterr()
        code = main(["--json-errors", "coverage", "--config", str(config_path),
                     "--catalog", str(catalog_path), "--records", str(records),
                     "--out", str(tmp_path / "coverage.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "DataFileError"


def demo_config_copy(tmp_path, loop_limit: int = 0):
    """The shipped demo config with ``loop_limit`` replaced and its relative
    paths made absolute, written under ``tmp_path``."""
    text = (DEMO_DIR / "demo.toml").read_text(encoding="utf-8")
    for old, new in (
        ("loop_limit = 1 ", f"loop_limit = {loop_limit} "),
        ('"../', f'"{DEMO_DIR.parent.as_posix()}/'),
        ('"stub_completions"', f'"{(DEMO_DIR / "stub_completions").as_posix()}"'),
    ):
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "demo.toml"
    path.write_text(text, encoding="utf-8")
    return path


def _without_runtimes(path):
    rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    assert len(rows) > 1
    for row in rows[1:]:
        assert row["runtime_ms"] > 0
        row["runtime_ms"] = None
    return rows


class TestStagesMatchRun:
    def test_stage_chain_writes_what_run_writes(self, tmp_path):
        config = str(demo_config_copy(tmp_path, loop_limit=0))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(run_dir)]) == 0

        cli = tmp_path / "cli"
        catalog, subschemas = str(cli / "catalog.json"), str(cli / "subschemas.jsonl")
        mech, llm = str(cli / "mech.jsonl"), str(cli / "llm.jsonl")
        kept = str(cli / "kept.jsonl")
        common = ["--config", config, "--catalog", catalog]
        for argv in (
            ["preprocess", "--config", config, "--out", catalog],
            ["subschemas", *common, "--out", subschemas],
            ["gen-mech", *common, "--subschemas", subschemas, "--out", mech],
            ["gen-llm", *common, "--subschemas", subschemas, "--pool", mech, "--out", llm],
            ["validate", *common, "--subschemas", subschemas, "--records", mech,
             "--records", llm, "--out", str(cli / "records.jsonl"), "--kept", kept],
            ["coverage", *common, "--records", kept, "--out", str(cli / "coverage.json")],
            ["execute", *common, "--records", kept, "--out", str(cli / "labels.jsonl")],
        ):
            assert main(argv) == 0, argv

        manifest = load_json(run_dir / "manifest.json")
        assert manifest["counts"]["llm_calls"] > 0
        assert manifest["counts"]["kept"] > 0
        for name in ("catalog.json", "subschemas.jsonl", "records.jsonl", "kept.jsonl",
                     "coverage.json", "coverage_facets.csv", "coverage_clauses.csv"):
            assert (cli / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert _without_runtimes(cli / "labels.jsonl") == _without_runtimes(
            run_dir / "labels.jsonl"
        )


    def test_coverage_of_kept_file_matches_the_runs(self, tmp_path):
        # the run reads coverage off per-setting folds of each batch's kept
        # rows; the coverage command aggregates the whole kept file at once
        config = str(demo_config_copy(tmp_path, loop_limit=2))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(run_dir)]) == 0
        manifest = load_json(run_dir / "manifest.json")
        assert manifest["counts"]["batches"] == 3
        labels = {record.setting_label for record in load_records(run_dir / "kept.jsonl")}
        assert len(labels) > 1
        assert {record.batch for record in load_records(run_dir / "kept.jsonl")} == {0, 1, 2}

        cli = tmp_path / "cli"
        assert main(["coverage", "--config", config, "--catalog", str(run_dir / "catalog.json"),
                     "--records", str(run_dir / "kept.jsonl"),
                     "--out", str(cli / "coverage.json")]) == 0
        for name in ("coverage.json", "coverage_facets.csv", "coverage_clauses.csv"):
            assert (cli / name).read_bytes() == (run_dir / name).read_bytes(), name


class TestReadmeStageByStage:
    def test_every_command_of_the_block_runs(self, tmp_path, monkeypatch):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("Stage by stage:", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [
            line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sqlsynth ")
        ]
        assert len(commands) >= 9
        monkeypatch.chdir(tmp_path)
        for command in commands:
            argv = [
                str(REPO_ROOT / arg) if arg.startswith("data/") else arg
                for arg in shlex.split(command, comments=True)[1:]
            ]
            assert main(argv) == 0, command


class TestCrossProcessDeterminism:
    def test_byte_identical_across_processes_and_hash_seeds(self, tmp_path):
        # Persisted artifacts must not depend on interpreter hash
        # randomization; run the demo config in two subprocesses with
        # different PYTHONHASHSEED values and compare bytes.
        import os

        demo = Path(__file__).resolve().parent.parent / "data" / "demo" / "demo.toml"
        outputs = []
        for hash_seed, out_name in (("0", "a"), ("424242", "b")):
            out_dir = tmp_path / out_name
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-m", "sqlsynth.cli", "run",
                 "--config", str(demo), "--out", str(out_dir)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out_dir)
        # labels.jsonl carries measured runtimes and is rightly excluded
        for name in ("kept.jsonl", "records.jsonl", "coverage.json", "manifest.json"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs across processes"
