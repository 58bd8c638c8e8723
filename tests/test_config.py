from __future__ import annotations

import copy
import json
import re
import tomllib
from dataclasses import fields, is_dataclass
from typing import get_type_hints

import pytest

from sqlsynth.cli import main
from sqlsynth.config import (
    ENGINE_OPTIONS,
    ConfigError,
    PipelineConfig,
    SchemaSettings,
    config_from_dict,
    config_snapshot,
    load_config,
    load_toml,
)

from tests.conftest import REPO_ROOT, TPCH_DDL_PATH

DEMO_DIR = REPO_ROOT / "data" / "demo"


MINIMAL = {
    "pipeline": {"name": "t", "out_dir": "out", "seed": 1},
    "schema": {"ddl": str(TPCH_DDL_PATH)},
}


class TestPipelineConfig:
    def test_minimal(self, tmp_path):
        config = config_from_dict(MINIMAL, base_dir=tmp_path)
        assert config.name == "t"
        assert config.seed == 1
        assert config.schema.infer_fks

    def test_requires_ddl(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"pipeline": {}}, base_dir=tmp_path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "schema.sql").write_text("CREATE TABLE t (a INT)")
        data = {"pipeline": {}, "schema": {"ddl": "schema.sql"}}
        config = config_from_dict(data, base_dir=tmp_path)
        assert config.schema.ddl == str(tmp_path / "schema.sql")

    def test_llm_settings_parsed(self, tmp_path):
        data = dict(MINIMAL)
        data["llm"] = {
            "enabled": True,
            "backend": "stub",
            "stub_dir": "stub",
            "settings": ["0:none", "3:group_by"],
        }
        config = config_from_dict(data, base_dir=tmp_path)
        assert [s.label for s in config.llm.settings] == ["0-shot:none", "3-shot:group_by"]

    def test_stub_requires_dir(self, tmp_path):
        data = dict(MINIMAL)
        data["llm"] = {"enabled": True, "backend": "stub"}
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)

    def test_http_requires_url(self, tmp_path):
        data = dict(MINIMAL)
        data["llm"] = {"enabled": True, "backend": "http"}
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)

    @pytest.mark.parametrize(
        "url", ["localhost:8000/v1", "ftp://localhost/v1", "http:///v1", "http://h:port/v1"]
    )
    def test_http_url_needs_scheme_and_host(self, tmp_path, url):
        data = dict(MINIMAL)
        data["llm"] = {"enabled": True, "backend": "http", "url": url}
        with pytest.raises(ConfigError, match=r"\[llm\] url"):
            config_from_dict(data, base_dir=tmp_path)

    def test_unknown_backend_rejected(self, tmp_path):
        data = dict(MINIMAL)
        data["llm"] = {"enabled": True, "backend": "htpp", "url": "localhost:8000/v1"}
        with pytest.raises(ConfigError, match=r"\[llm\] backend"):
            config_from_dict(data, base_dir=tmp_path)

    def test_engines_parsed(self, tmp_path):
        data = dict(MINIMAL)
        data["execution"] = {"enabled": True, "data_dir": "data"}
        data["engines"] = {"sqlite-mem": {"driver": "sqlite", "database": "run.db"}}
        config = config_from_dict(data, base_dir=tmp_path)
        assert config.execution.engines[0].engine_id == "sqlite-mem"
        assert config.execution.engines[0].options == {"database": str(tmp_path / "run.db")}

    def test_execution_requires_engines(self, tmp_path):
        data = dict(MINIMAL)
        data["execution"] = {"enabled": True, "data_dir": "data"}
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)

    def test_bad_probability_rejected(self, tmp_path):
        data = dict(MINIMAL)
        data["mechanical"] = {"p_group_by": 1.7}
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(
            f"""
            [pipeline]
            name = "demo"
            out_dir = "out"
            seed = 7

            [schema]
            ddl = "{TPCH_DDL_PATH}"

            [mechanical]
            p_group_by = 0.9
            """,
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.mechanical.p_group_by == 0.9
        assert config.out_dir == str(tmp_path / "out")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.toml")

    @pytest.mark.parametrize("text", ["key value", "x = ", "x = [1, 2"])
    def test_malformed_toml_is_config_error(self, tmp_path, text):
        path = tmp_path / "bad.toml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.toml"):
            load_config(path)


class TestTypeGuards:
    def test_bool_not_accepted_as_int(self, tmp_path):
        data = {
            "pipeline": {"seed": True},
            "schema": {"ddl": str(TPCH_DDL_PATH)},
        }
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)

    def test_int_not_accepted_as_bool(self, tmp_path):
        data = dict(MINIMAL)
        data["schema"] = {"ddl": str(TPCH_DDL_PATH), "infer_fks": 1}
        with pytest.raises(ConfigError):
            config_from_dict(data, base_dir=tmp_path)


def accepted_keys() -> set[str]:
    """Every key the loader accepts, as ``section.key``, read off the dataclasses."""
    keys = {"engines.<id>.driver"}
    keys.update(f"engines.<id>.{key}" for options in ENGINE_OPTIONS.values() for key in options)

    def walk(cls, section):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if not f.init:
                continue
            if is_dataclass(hints[f.name]):
                walk(hints[f.name], f.name if cls is PipelineConfig else f"{section}.{f.name}")
            else:
                keys.add(f"{section}.{f.name}")

    walk(PipelineConfig, "pipeline")
    return keys


def with_ddl(text: str) -> str:
    """``text``, a TOML fragment, plus the TPC-H DDL as ``[schema] ddl``."""
    ddl = f'ddl = "{TPCH_DDL_PATH.as_posix()}"'
    if text.startswith("[schema]\n"):
        return text.replace("[schema]\n", f"[schema]\n{ddl}\n", 1)
    return f"{text}\n\n[schema]\n{ddl}\n"


#: One misspelt or dead key per section, as it would be written in a file.
UNKNOWN_KEYS = [
    ("[pipeline] loop_limt", "[pipeline]\nloop_limt = 5"),
    ("[schema] infer_fk", "[schema]\ninfer_fk = false"),
    ("[subschema] max_table", "[subschema]\nmax_table = 2"),
    ("[mechanical] p_groupby", "[mechanical]\np_groupby = 0.99"),
    ("[mechanical] seed", "[mechanical]\nseed = 3"),
    ("[llm] enable", "[llm]\nenable = true"),
    ("[llm.params] temprature", "[llm.params]\ntemprature = 0.5"),
    ("[validators] require_exact_table", "[validators]\nrequire_exact_table = true"),
    ("[coverage] min_clause_frq", "[coverage]\nmin_clause_frq = 0.5"),
    ("[selection] sise", "[selection]\nsise = 5"),
    ("[execution] timout_ms", "[execution]\ntimout_ms = 10"),
    ("[execution] engines", "[execution]\nengines = []"),
    ("[engines.e1] workers", '[engines.e1]\ndriver = "sqlite"\nworkers = 1'),
    ("[engines.e1] module", '[engines.e1]\ndriver = "sqlite"\nmodule = "m"'),
    ("[pipeline] schema", "[pipeline.schema]\nddl = 'x.sql'"),
    ("[mech]: unknown section", "[mech]\np_where = 0.5"),
]

#: Values of the wrong type.
WRONG_TYPES = [
    ("[pipeline] kept_target", '[pipeline]\nkept_target = "100"'),
    ("[selection] size", '[selection]\nsize = "5"'),
    ("[llm] timeout", '[llm]\ntimeout = "60"'),
    ("[mechanical] projection_count_range", "[mechanical]\nprojection_count_range = [1]"),
    ("[mechanical] aggregate_functions", "[mechanical]\naggregate_functions = [1]"),
    ("[schema] prefixes", "[schema.prefixes]\nnation = 1"),
    ("[llm] settings", '[llm]\nsettings = ["9:sideways"]'),
    ("[engines.e1] connect_args",
     '[engines.e1]\ndriver = "dbapi"\nmodule = "m"\nconnect_args = 1'),
]

#: Values out of their key's range.
OUT_OF_RANGE = [
    ("[execution] timeout_ms", "[execution]\ntimeout_ms = 0"),
    ("[execution] max_rows_per_table", "[execution]\nmax_rows_per_table = 0"),
    ("[llm] retries", "[llm]\nretries = -1"),
    ("[llm] concurrency", "[llm]\nconcurrency = 0"),
    ("[llm] timeout", "[llm]\ntimeout = 0"),
    ("[llm] timeout", "[llm]\ntimeout = nan"),
    ("[llm] timeout", "[llm]\ntimeout = inf"),
    # longer than a socket or select can wait on this platform
    ("[llm] timeout", "[llm]\ntimeout = 1e10"),
    ("[execution] timeout_ms", "[execution]\ntimeout_ms = 10_000_000_000_000"),
]


class TestStrictLoader:
    def test_file_with_only_a_ddl_is_all_defaults(self):
        config = config_from_dict({"schema": {"ddl": str(TPCH_DDL_PATH)}})
        assert config == PipelineConfig(schema=SchemaSettings(ddl=str(TPCH_DDL_PATH)))

    @pytest.mark.parametrize(
        "named, text",
        UNKNOWN_KEYS + WRONG_TYPES + OUT_OF_RANGE,
        ids=[n for n, _ in UNKNOWN_KEYS + WRONG_TYPES]
        + [text.replace("\n", " ") for _, text in OUT_OF_RANGE],
    )
    def test_bad_key_is_named_and_run_exits_2(self, tmp_path, capsys, named, text):
        with pytest.raises(ConfigError) as error:
            config_from_dict(tomllib.loads(with_ddl(text)), base_dir=tmp_path)
        assert named in str(error.value)

        path = tmp_path / "run.toml"
        path.write_text(with_ddl(text), encoding="utf-8")
        assert main(["--json-errors", "run", "--config", str(path)]) == 2
        reported = json.loads(capsys.readouterr().err)["error"]
        assert reported["kind"] == "config" and named in reported["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "named, text",
        [
            ("[llm.params] temperature", "[llm.params]\ntemperature = nan"),
            ("[llm.params] temperature", "[llm.params]\ntemperature = inf"),
            ("[llm.params] top_p", "[llm.params]\ntop_p = nan"),
            ("[llm.params] repetition_penalty", "[llm.params]\nrepetition_penalty = nan"),
            ("[llm.params] repetition_penalty", "[llm.params]\nrepetition_penalty = +inf"),
        ],
    )
    def test_non_finite_params_rejected_and_run_exits_2(self, tmp_path, capsys, named, text):
        with pytest.raises(ConfigError) as error:
            config_from_dict(tomllib.loads(with_ddl(text)), base_dir=tmp_path)
        assert named in str(error.value) and "finite" in str(error.value)

        path = tmp_path / "run.toml"
        path.write_text(with_ddl(text), encoding="utf-8")
        assert main(["--json-errors", "run", "--config", str(path)]) == 2
        reported = json.loads(capsys.readouterr().err)["error"]
        assert reported["kind"] == "config" and named in reported["message"]
        assert not (tmp_path / "out").exists()

    def test_integer_is_accepted_where_a_float_is_due(self):
        data = {"schema": {"ddl": str(TPCH_DDL_PATH)}, "llm": {"timeout": 30}}
        timeout = config_from_dict(data).llm.timeout
        assert timeout == 30.0 and isinstance(timeout, float)

    def test_label_columns_need_a_table(self):
        data = {"schema": {"ddl": str(TPCH_DDL_PATH), "label_columns": ["p_mfgr"]}}
        with pytest.raises(ConfigError, match=r"\[schema\] label_columns"):
            config_from_dict(data)

    def test_dbapi_engine_needs_a_module(self):
        data = {"schema": {"ddl": str(TPCH_DDL_PATH)}, "engines": {"e1": {"driver": "dbapi"}}}
        with pytest.raises(ConfigError, match=r"\[engines.e1\] module"):
            config_from_dict(data)


class TestShippedConfigs:
    def test_demo_and_every_benchmark_workload_load(self, tmp_path, perfbench_run):
        bench = perfbench_run
        base = load_toml(DEMO_DIR / "demo.toml")
        assert config_from_dict(base, base_dir=DEMO_DIR).execution.engines
        inputs = {"url": "http://localhost:9", "dataset": tmp_path}
        for name, transform in bench.WORKLOADS.items():
            data = copy.deepcopy(base)
            transform(data, 1, inputs)
            config_from_dict(data, base_dir=DEMO_DIR)

    def test_readme_table_lists_every_accepted_key(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
        assert listed == accepted_keys()
        assert "workers" not in section


class TestSnapshot:
    def test_snapshot_loads_back_to_the_config(self):
        config = load_config(DEMO_DIR / "demo.toml")
        snapshot = config_snapshot(config)
        assert "out_dir" not in snapshot["pipeline"]
        assert snapshot["schema"]["ddl"] == "../tpch_schema.sql"
        assert snapshot["llm"]["settings"][0] == "0-shot:none"
        assert snapshot["engines"] == {"sqlite-w1": {"driver": "sqlite"}}
        snapshot["pipeline"]["out_dir"] = config.out_dir
        assert config_from_dict(snapshot, base_dir=config.base_dir) == config

    def test_sqlite_database_written_relative(self, tmp_path):
        data = {
            "schema": {"ddl": str(TPCH_DDL_PATH)},
            "engines": {"e1": {"driver": "sqlite", "database": "db/run.sqlite"}},
        }
        config = config_from_dict(data, base_dir=tmp_path)
        assert config.execution.engines[0].options["database"] == str(tmp_path / "db/run.sqlite")
        assert config_snapshot(config)["engines"]["e1"]["database"] == "db/run.sqlite"
