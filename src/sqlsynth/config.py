"""Pipeline configuration: TOML file loading and typed sub-configs.

The file format is TOML, parsed by the standard library's ``tomllib``. A
file that is not valid TOML, or whose values have the wrong types or
violate a constraint, is a :class:`~sqlsynth.errors.ConfigError`.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from .coverage import CoverageTargets
from .errors import ConfigError
from .execution import DEFAULT_MIN_EMPTY_RUNTIME_MS, DEFAULT_TIMEOUT_MS, EngineSpec
from .llmgen import CANONICAL_SETTINGS, GenParams, PromptSetting
from .mechgen import MechConfig


def load_toml(path: str | Path) -> dict:
    try:
        return tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Typed pipeline config
# ---------------------------------------------------------------------------


@dataclass
class SubschemaPolicy:
    min_tables: int = 1
    max_tables: int | None = None
    safety_limit: int = 24
    llm_sample_count: int = 4  # subschemas prompted per batch


@dataclass
class LlmSettings:
    enabled: bool = False
    settings: tuple[PromptSetting, ...] = CANONICAL_SETTINGS
    backend: str = "stub"  # stub | http
    stub_dir: str | None = None
    url: str | None = None
    model: str = "unspecified-model"
    auth_env: str = "SQLSYNTH_API_TOKEN"
    timeout: float = 60.0
    retries: int = 2
    concurrency: int = 4
    params: GenParams = field(default_factory=GenParams)


@dataclass
class ExecutionSettings:
    enabled: bool = False
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    min_empty_runtime_ms: int = DEFAULT_MIN_EMPTY_RUNTIME_MS
    data_dir: str | None = None
    max_rows_per_table: int = 40_000
    engines: tuple[EngineSpec, ...] = ()


@dataclass
class PipelineConfig:
    name: str = "run"
    out_dir: str = "out"
    seed: int = 0
    loop_limit: int = 0  # regeneration rounds after the initial batch
    kept_target: int | None = None
    ddl_path: str = ""
    infer_fks: bool = True
    prefix_overrides: dict = field(default_factory=dict)
    sample_data_dir: str | None = None  # column profiling source
    sample_cap: int = 10_000
    enum_threshold: int = 20
    label_columns: tuple = ()
    subschema: SubschemaPolicy = field(default_factory=SubschemaPolicy)
    mechanical: MechConfig = field(default_factory=MechConfig)
    mech_per_subschema: int = 2
    llm: LlmSettings = field(default_factory=LlmSettings)
    literal_placeholder_dedup: bool = True
    require_exact_tables: bool = False
    coverage_targets: CoverageTargets = field(default_factory=CoverageTargets)
    selection_size: int | None = None  # training-subset size; None keeps everything
    selection_mode: str = "stratified"  # stratified | first_n
    execution: ExecutionSettings = field(default_factory=ExecutionSettings)

    def validate(self):
        if not self.ddl_path:
            raise ConfigError("schema.ddl is required")
        if self.loop_limit < 0:
            raise ConfigError("pipeline.loop_limit must be >= 0")
        if self.mech_per_subschema < 0:
            raise ConfigError("pipeline.mech_per_subschema must be >= 0")
        if self.selection_size is not None and self.selection_size < 1:
            raise ConfigError("selection.size must be >= 1 when given")
        if self.selection_mode not in ("stratified", "first_n"):
            raise ConfigError("selection.mode must be 'stratified' or 'first_n'")
        try:
            self.mechanical.validate()
            self.llm.params.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.llm.enabled and self.llm.backend == "stub" and not self.llm.stub_dir:
            raise ConfigError("llm.stub_dir is required for the stub backend")
        if self.llm.enabled and self.llm.backend == "http" and not self.llm.url:
            raise ConfigError("llm.url is required for the http backend")
        if self.execution.enabled and not self.execution.engines:
            raise ConfigError("execution.enabled requires at least one [engines.*] section")
        if self.execution.enabled and not self.execution.data_dir:
            raise ConfigError("execution.data_dir is required when execution is enabled")


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"[{name}] must be a section")
    return value


def _take(section: dict, key: str, default):
    value = section.get(key, default)
    if default is not None and value is not None:
        # bool is an int subclass; require an exact match so `seed = true`
        # cannot masquerade as an integer (and vice versa)
        if isinstance(value, bool) != isinstance(default, bool) and isinstance(default, (bool, int)):
            raise ConfigError(
                f"{key}: expected {type(default).__name__}, got {type(value).__name__}"
            )
        if not isinstance(value, type(default)):
            if isinstance(default, float) and isinstance(value, int):
                return float(value)
            raise ConfigError(
                f"{key}: expected {type(default).__name__}, got {type(value).__name__}"
            )
    return value


def config_from_dict(data: dict, base_dir: Path | None = None) -> PipelineConfig:
    """Build and validate a PipelineConfig from parsed TOML data.

    Relative paths are resolved against ``base_dir`` (the config file's
    directory) so runs behave the same from any working directory.
    """
    base = base_dir or Path(".")

    def resolve(path_text):
        if path_text in (None, ""):
            return path_text
        path = Path(path_text)
        return str(path if path.is_absolute() else base / path)

    pipeline = _section(data, "pipeline")
    schema = _section(data, "schema")
    sub = _section(data, "subschema")
    mech = _section(data, "mechanical")
    llm = _section(data, "llm")
    llm_params = _section(llm, "params")
    validators = _section(data, "validators")
    cov = _section(data, "coverage")
    selection = _section(data, "selection")
    execution = _section(data, "execution")
    engines_raw = _section(data, "engines")

    mech_config = MechConfig(
        seed=_take(pipeline, "seed", 0),
        p_where=_take(mech, "p_where", 0.6),
        p_group_by=_take(mech, "p_group_by", 0.3),
        p_order_by=_take(mech, "p_order_by", 0.4),
        p_having=_take(mech, "p_having", 0.25),
        p_aggregate=_take(mech, "p_aggregate", 0.3),
        max_predicates=_take(mech, "max_predicates", 3),
        aggregate_functions=tuple(
            mech.get("aggregate_functions", list(MechConfig().aggregate_functions))
        ),
        projection_count_range=tuple(mech.get("projection_count_range", [1, 4])),
    )

    setting_labels = llm.get("settings")
    if setting_labels is None:
        settings = CANONICAL_SETTINGS
    else:
        try:
            settings = tuple(PromptSetting.parse(label) for label in setting_labels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    llm_settings = LlmSettings(
        enabled=_take(llm, "enabled", False),
        settings=settings,
        backend=_take(llm, "backend", "stub"),
        stub_dir=resolve(llm.get("stub_dir")),
        url=llm.get("url"),
        model=_take(llm, "model", "unspecified-model"),
        auth_env=_take(llm, "auth_env", "SQLSYNTH_API_TOKEN"),
        timeout=_take(llm, "timeout", 60.0),
        retries=_take(llm, "retries", 2),
        concurrency=_take(llm, "concurrency", 4),
        params=GenParams(
            temperature=_take(llm_params, "temperature", 0.8),
            top_p=_take(llm_params, "top_p", 0.95),
            repetition_penalty=_take(llm_params, "repetition_penalty", 1.05),
            n_completions=_take(llm_params, "n_completions", 5),
            max_tokens=_take(llm_params, "max_tokens", 512),
        ),
    )

    engine_specs = []
    for engine_id, options in sorted(engines_raw.items()):
        if not isinstance(options, dict):
            raise ConfigError(f"[engines.{engine_id}] must be a section")
        driver = options.get("driver")
        if driver not in ("sqlite", "dbapi"):
            raise ConfigError(f"engines.{engine_id}.driver must be 'sqlite' or 'dbapi'")
        opts = {k: v for k, v in options.items() if k not in ("driver", "workers")}
        if "database" in opts:
            opts["database"] = resolve(opts["database"]) if opts["database"] != ":memory:" else opts["database"]
        engine_specs.append(
            EngineSpec(
                engine_id=engine_id,
                driver=driver,
                options=opts,
                worker_count=options.get("workers", 1),
            )
        )

    execution_settings = ExecutionSettings(
        enabled=_take(execution, "enabled", False),
        timeout_ms=_take(execution, "timeout_ms", DEFAULT_TIMEOUT_MS),
        min_empty_runtime_ms=_take(
            execution, "min_empty_runtime_ms", DEFAULT_MIN_EMPTY_RUNTIME_MS
        ),
        data_dir=resolve(execution.get("data_dir")),
        max_rows_per_table=_take(execution, "max_rows_per_table", 40_000),
        engines=tuple(engine_specs),
    )

    label_columns = tuple(
        tuple(item.split(".", 1)) for item in schema.get("label_columns", [])
    )

    config = PipelineConfig(
        name=_take(pipeline, "name", "run"),
        out_dir=resolve(_take(pipeline, "out_dir", "out")),
        seed=_take(pipeline, "seed", 0),
        loop_limit=_take(pipeline, "loop_limit", 0),
        kept_target=pipeline.get("kept_target"),
        ddl_path=resolve(schema.get("ddl", "")),
        infer_fks=_take(schema, "infer_fks", True),
        prefix_overrides=_section(schema, "prefixes"),
        sample_data_dir=resolve(schema.get("sample_data_dir")),
        sample_cap=_take(schema, "sample_cap", 10_000),
        enum_threshold=_take(schema, "enum_threshold", 20),
        label_columns=label_columns,
        subschema=SubschemaPolicy(
            min_tables=_take(sub, "min_tables", 1),
            max_tables=sub.get("max_tables"),
            safety_limit=_take(sub, "safety_limit", 24),
            llm_sample_count=_take(sub, "llm_sample_count", 4),
        ),
        mechanical=mech_config,
        mech_per_subschema=_take(pipeline, "mech_per_subschema", 2),
        llm=llm_settings,
        literal_placeholder_dedup=_take(validators, "literal_placeholder_dedup", True),
        require_exact_tables=_take(validators, "require_exact_tables", False),
        coverage_targets=CoverageTargets(
            min_table_freq=_take(cov, "min_table_freq", 0.02),
            min_clause_freq=_take(cov, "min_clause_freq", 0.10),
            min_column_freq=_take(cov, "min_column_freq", 0.005),
        ),
        selection_size=selection.get("size"),
        selection_mode=_take(selection, "mode", "stratified"),
        execution=execution_settings,
    )
    config.validate()
    return config


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return config_from_dict(load_toml(path), base_dir=path.resolve().parent)
