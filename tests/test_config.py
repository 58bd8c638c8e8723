from __future__ import annotations

import pytest

from sqlsynth.config import ConfigError, config_from_dict, load_config

from tests.conftest import TPCH_DDL_PATH


MINIMAL = {
    "pipeline": {"name": "t", "out_dir": "out", "seed": 1},
    "schema": {"ddl": str(TPCH_DDL_PATH)},
}


class TestPipelineConfig:
    def test_minimal(self, tmp_path):
        config = config_from_dict(MINIMAL, base_dir=tmp_path)
        assert config.name == "t"
        assert config.seed == 1
        assert config.infer_fks

    def test_requires_ddl(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"pipeline": {}}, base_dir=tmp_path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "schema.sql").write_text("CREATE TABLE t (a INT)")
        data = {"pipeline": {}, "schema": {"ddl": "schema.sql"}}
        config = config_from_dict(data, base_dir=tmp_path)
        assert config.ddl_path == str(tmp_path / "schema.sql")

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

    def test_engines_parsed(self, tmp_path):
        data = dict(MINIMAL)
        data["execution"] = {"enabled": True, "data_dir": "data"}
        data["engines"] = {"sqlite-mem": {"driver": "sqlite", "workers": 2}}
        config = config_from_dict(data, base_dir=tmp_path)
        assert config.execution.engines[0].engine_id == "sqlite-mem"
        assert config.execution.engines[0].worker_count == 2

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
