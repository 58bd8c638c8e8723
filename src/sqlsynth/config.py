"""Pipeline configuration: one dataclass per TOML section, one strict loader.

A config file has the sections ``[pipeline]``, ``[schema]``,
``[subschema]``, ``[mechanical]``, ``[llm]`` (with ``[llm.params]``),
``[validators]``, ``[coverage]``, ``[selection]`` and ``[execution]``, plus
one ``[engines.<id>]`` table per engine. Each section is a dataclass whose
field names are the section's keys and whose field defaults are the only
defaults. The ``[pipeline]`` keys are the plain fields of
:class:`PipelineConfig`; each other section is its field of the same name,
so ``[selection] size`` is ``config.selection.size``. The engine tables
land in ``config.execution.engines``.

:func:`config_from_dict` reads a parsed file into those dataclasses
through the typed reader every artifact uses (:func:`sqlsynth.util.decode`),
which lets a section leave keys out and a prompt setting be its label.
An unknown section or key, a value that does not match its field's
annotation, and a value that violates a constraint are each a
:class:`~sqlsynth.errors.ConfigError` naming ``[section] key``, as is a file
that is not TOML. :func:`config_snapshot` writes a config back in the
file's shape for the run manifest.
"""

from __future__ import annotations

import os
import threading
import tomllib
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .coverage import CoverageTargets
from .errors import ConfigError
from .execution import EngineSpec, ExecutionSettings
from .llmgen import CANONICAL_SETTINGS, GenParams, PromptSetting, split_url
from .mechgen import MechConfig
from .training import SelectionSettings
from .util import PATH, FieldError, decode

#: The keys of an ``[engines.<id>]`` table besides ``driver``, by driver.
ENGINE_OPTIONS = {
    "sqlite": {"database": str},
    "dbapi": {"module": str, "connect_args": dict},
}


def load_toml(path: str | Path) -> dict:
    try:
        return tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass
class SchemaSettings:
    ddl: str = field(default="", metadata=PATH)
    infer_fks: bool = True
    prefixes: dict[str, str] = field(default_factory=dict)  # table -> column prefix
    sample_data_dir: str | None = field(default=None, metadata=PATH)  # column profiling source
    sample_cap: int = 10_000
    enum_threshold: int = 20
    label_columns: tuple[str, ...] = ()  # "table.column" entries


@dataclass
class SubschemaPolicy:
    min_tables: int = 1
    max_tables: int | None = None
    safety_limit: int = 24
    llm_sample_count: int = 4  # subschemas prompted per batch

    def validate(self):
        if self.safety_limit < 1:
            raise ValueError(f"safety_limit must be >= 1, got {self.safety_limit}")
        if self.min_tables < 1:
            raise ValueError(f"min_tables must be >= 1, got {self.min_tables}")
        if self.max_tables is not None and self.max_tables < self.min_tables:
            raise ValueError(f"max_tables must be >= min_tables, got {self.max_tables}")
        if self.llm_sample_count < 0:
            raise ValueError(f"llm_sample_count must be >= 0, got {self.llm_sample_count}")


@dataclass
class LlmSettings:
    enabled: bool = False
    settings: tuple[PromptSetting, ...] = CANONICAL_SETTINGS
    backend: str = "stub"  # stub | http
    stub_dir: str | None = field(default=None, metadata=PATH)
    url: str | None = None
    model: str = "unspecified-model"
    auth_env: str = "SQLSYNTH_API_TOKEN"
    timeout: float = 60.0
    retries: int = 2
    concurrency: int = 4
    params: GenParams = field(default_factory=GenParams)


@dataclass
class ValidatorSettings:
    literal_placeholder_dedup: bool = True
    require_exact_tables: bool = False


@dataclass
class PipelineConfig:
    name: str = "run"
    out_dir: str = field(default="out", metadata=PATH)
    seed: int = 0
    loop_limit: int = 0  # regeneration rounds after the initial batch
    kept_target: int | None = None
    mech_per_subschema: int = 2
    schema: SchemaSettings = field(default_factory=SchemaSettings)
    subschema: SubschemaPolicy = field(default_factory=SubschemaPolicy)
    mechanical: MechConfig = field(default_factory=MechConfig)
    llm: LlmSettings = field(default_factory=LlmSettings)
    validators: ValidatorSettings = field(default_factory=ValidatorSettings)
    coverage: CoverageTargets = field(default_factory=CoverageTargets)
    selection: SelectionSettings = field(default_factory=SelectionSettings)
    execution: ExecutionSettings = field(default_factory=ExecutionSettings)
    #: The config file's directory, when loaded from one.
    base_dir: str | None = field(default=None, init=False)

    def validate(self):
        if not self.schema.ddl:
            raise ConfigError("[schema] ddl is required")
        bad_columns = [c for c in self.schema.label_columns if "." not in c]
        if bad_columns:
            raise ConfigError(
                f"[schema] label_columns: expected 'table.column', got {bad_columns}"
            )
        if self.loop_limit < 0:
            raise ConfigError("[pipeline] loop_limit must be >= 0")
        if self.mech_per_subschema < 0:
            raise ConfigError("[pipeline] mech_per_subschema must be >= 0")
        if self.kept_target is not None and self.kept_target < 1:
            raise ConfigError(f"[pipeline] kept_target must be >= 1, got {self.kept_target}")
        if self.schema.sample_cap < 1:
            raise ConfigError(f"[schema] sample_cap must be >= 1, got {self.schema.sample_cap}")
        if self.schema.enum_threshold < 0:
            raise ConfigError(
                f"[schema] enum_threshold must be >= 0, got {self.schema.enum_threshold}"
            )
        sections = (("subschema", self.subschema), ("mechanical", self.mechanical),
                    ("llm.params", self.llm.params), ("coverage", self.coverage),
                    ("selection", self.selection), ("execution", self.execution))
        for section, checked in sections:
            try:
                checked.validate()
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        if self.llm.backend not in ("stub", "http"):
            raise ConfigError("[llm] backend must be 'stub' or 'http'")
        if self.llm.enabled and self.llm.backend == "stub" and not self.llm.stub_dir:
            raise ConfigError("[llm] stub_dir is required for the stub backend")
        if self.llm.enabled and self.llm.backend == "http":
            if not self.llm.url:
                raise ConfigError("[llm] url is required for the http backend")
            try:
                split_url(self.llm.url)
            except ValueError as exc:
                raise ConfigError(f"[llm] url: {exc}") from exc
        timeout, longest = self.llm.timeout, threading.TIMEOUT_MAX  # as long as a socket waits
        if not 0 < timeout <= longest:
            raise ConfigError(f"[llm] timeout must be > 0 and <= {longest:g}, got {timeout}")
        if self.llm.retries < 0:
            raise ConfigError(f"[llm] retries must be >= 0, got {self.llm.retries}")
        if self.llm.concurrency < 1:
            raise ConfigError(f"[llm] concurrency must be >= 1, got {self.llm.concurrency}")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def config_from_dict(data: dict, base_dir: Path | None = None) -> PipelineConfig:
    """Build and validate a PipelineConfig from parsed TOML data.

    An unknown section or key, or a value of the wrong type, is a
    ConfigError naming ``[section] key``. Relative paths are resolved
    against ``base_dir`` (the config file's directory) so runs behave the
    same from any working directory.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    hints = get_type_hints(PipelineConfig)
    pipeline = _table(data.get("pipeline", {}), "pipeline")
    for key in pipeline:
        if is_dataclass(hints.get(key)):  # a section, not a [pipeline] key
            raise ConfigError(f"[pipeline] {key}: unknown key")
    config = _decode(PipelineConfig, pipeline, "pipeline")
    _resolve_paths(config, pipeline, base)
    for name, table in data.items():
        if name in ("pipeline", "engines"):
            continue
        if not is_dataclass(hints.get(name)):
            raise ConfigError(f"[{name}]: unknown section")
        section = _decode(hints[name], _table(table, name), name)
        _resolve_paths(section, table, base)
        setattr(config, name, section)
    config.execution.engines = tuple(
        _engine(engine_id, table, base)
        for engine_id, table in sorted(_table(data.get("engines", {}), "engines").items())
    )
    config.base_dir = None if base_dir is None else str(base_dir)
    config.validate()
    return config


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return config_from_dict(load_toml(path), base_dir=path.resolve().parent)


def _table(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"[{section}] must be a table")
    return value


def _decode(hint, value, section: str, *keys: str):
    """``value``, the TOML value at ``[section]`` (and ``keys`` below it),
    as ``hint``. A bad key is a ConfigError naming ``[section] key``, with a
    nested table joined to its section by a dot."""
    try:
        return decode(hint, value, partial=True)
    except FieldError as exc:
        names = [section, *keys, *(part for part in exc.path if isinstance(part, str))]
        where = f"[{'.'.join(names[:-1])}] {names[-1]}" if len(names) > 1 else f"[{section}]"
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve_paths(section, table: dict, base: Path) -> None:
    """Resolve the path keys that ``table`` sets in ``section``, and in the
    sections nested in it, against the config file's directory ``base``."""
    for f in fields(section):
        if f.name not in table:
            continue
        value = getattr(section, f.name)
        if f.metadata.get("path") and value:
            setattr(section, f.name, str(base / value))
        elif is_dataclass(value):
            _resolve_paths(value, table[f.name], base)


def _engine(engine_id: str, table, base: Path) -> EngineSpec:
    section = f"engines.{engine_id}"
    options = dict(_table(table, section))
    driver = options.pop("driver", None)
    if driver not in ENGINE_OPTIONS:
        raise ConfigError(f"[{section}] driver must be 'sqlite' or 'dbapi'")
    for key, value in options.items():
        if key not in ENGINE_OPTIONS[driver]:
            raise ConfigError(f"[{section}] {key}: unknown key for driver {driver!r}")
        options[key] = _decode(ENGINE_OPTIONS[driver][key], value, section, key)
    if driver == "dbapi" and "module" not in options:
        raise ConfigError(f"[{section}] module is required for the dbapi driver")
    if options.get("database", ":memory:") != ":memory:":
        options["database"] = str(base / options["database"])
    return EngineSpec(engine_id=engine_id, driver=driver, options=options)


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------


def config_snapshot(config: PipelineConfig) -> dict:
    """``config`` in its file's shape, for the run manifest.

    Every section and key is written, settings as labels, engines as
    ``[engines.<id>]`` tables, and paths relative to the config file's
    directory, so the manifest does not depend on the checkout. Two things
    are left out: ``out_dir``, the directory the manifest sits in, and
    optional keys left unset, which TOML cannot spell. Loading the result
    from the config file's directory gives ``config`` back, ``out_dir``
    apart.
    """
    tables = _dump(config, config.base_dir)
    del tables["out_dir"]
    snapshot = {"pipeline": {k: v for k, v in tables.items() if not isinstance(v, dict)}}
    snapshot.update((k, v) for k, v in tables.items() if isinstance(v, dict))
    snapshot["engines"] = {}
    for engine in config.execution.engines:
        options = dict(engine.options)
        if options.get("database", ":memory:") != ":memory:":
            options["database"] = _relative(options["database"], config.base_dir)
        snapshot["engines"][engine.engine_id] = {"driver": engine.driver, **options}
    return snapshot


#: The sections a resumed run may change: their stages run again on every resume.
RERUN_SECTIONS = ("selection", "execution", "engines")


def check_resume(snapshot: dict, config: PipelineConfig) -> None:
    """Raise a ConfigError naming the first ``[section] key`` whose value
    differs between ``snapshot``, the config in the manifest of the run
    being resumed, and ``config``, leaving out :data:`RERUN_SECTIONS`."""
    old, now = (
        {name: table for name, table in tables.items() if name not in RERUN_SECTIONS}
        for tables in (snapshot, config_snapshot(config))
    )
    changed = _difference(old, now, ())
    if changed is not None:
        raise ConfigError(f"--resume: {changed} differs from the run being resumed")


def _difference(old, new, where: tuple) -> str | None:
    if isinstance(old, dict) or isinstance(new, dict):
        old = old if isinstance(old, dict) else {}
        new = new if isinstance(new, dict) else {}
        for key in [*new, *(key for key in old if key not in new)]:
            found = _difference(old.get(key), new.get(key), (*where, key))
            if found is not None:
                return found
        return None
    if old == new:
        return None
    return f"[{'.'.join(where[:-1])}] {where[-1]}"


def _dump(section, base_dir: str | None) -> dict:
    table = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if not f.init or value is None:
            continue
        if f.metadata.get("path"):
            value = _relative(value, base_dir)
        table[f.name] = _plain(value, base_dir)
    return table


def _plain(value, base_dir: str | None):
    if isinstance(value, PromptSetting):
        return value.label
    if is_dataclass(value):
        return _dump(value, base_dir)
    if isinstance(value, tuple):
        return [_plain(item, base_dir) for item in value]
    return value


def _relative(path: str, base_dir: str | None) -> str:
    return os.path.relpath(path, base_dir) if base_dir else path
