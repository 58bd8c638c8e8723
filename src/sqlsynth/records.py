"""QueryRecord: one query plus provenance, validation, profile, and labels.

This is the dataset row every stage appends to. A JSONL row holds its
fields in declaration order, nested records (prompt setting, generation
parameters, validation report, complexity profile) as the objects of
their own fields, through the codec in :mod:`sqlsynth.util`; loading checks
every field. Runtime labels are plain per-engine maps
(``engine_id -> {runtime_ms, row_count, timed_out, error}``), the label
without its ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coverage import ComplexityProfile
from .llmgen import GenParams, PromptSetting
from .util import read_jsonl, write_jsonl
from .validation import ValidationReport, query_id

ORIGIN_MECHANICAL = "mechanical"
ORIGIN_LLM = "llm"


@dataclass
class QueryRecord:
    id: str
    sql: str
    origin: str
    subschema_id: str
    batch: int = 0
    prompt_setting: PromptSetting | None = None
    prompt_hash: str | None = None
    model_name: str | None = None
    generation_params: GenParams | None = None
    validation: ValidationReport | None = None
    profile: ComplexityProfile | None = None  # set on kept records
    labels: dict[str, dict] = field(default_factory=dict)  # engine id -> RuntimeLabel.to_dict()

    def __post_init__(self):
        if self.origin == ORIGIN_LLM:
            if not (self.prompt_setting and self.prompt_hash and self.model_name):
                raise ValueError("llm records need prompt_setting, prompt_hash, model_name")
        elif self.origin == ORIGIN_MECHANICAL:
            if self.prompt_setting or self.prompt_hash or self.model_name:
                raise ValueError("mechanical records must not carry prompt metadata")
        else:
            raise ValueError(f"unknown origin {self.origin!r}")

    @property
    def setting_label(self) -> str:
        """The group coverage and training selection report this record
        under: ``mechanical``, or its prompt setting's label."""
        if self.origin == ORIGIN_MECHANICAL:
            return ORIGIN_MECHANICAL
        return self.prompt_setting.label


def make_record(sql: str, origin: str, subschema_id: str, batch: int = 0, **kwargs) -> QueryRecord:
    """Build a record with its id derived from the normalized SQL."""
    return QueryRecord(
        id=query_id(sql), sql=sql, origin=origin, subschema_id=subschema_id, batch=batch, **kwargs
    )


def save_records(records, path) -> None:
    write_jsonl(path, "query_records", records)


def load_records(path) -> list[QueryRecord]:
    return read_jsonl(path, "query_records", QueryRecord)
