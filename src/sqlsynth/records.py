"""QueryRecord: one query plus provenance, validation, profile, and labels.

This is the dataset row every stage appends to. Serialized as JSONL with a
stable field order; runtime labels are stored as plain per-engine maps
(``engine_id -> {runtime_ms, row_count, timed_out, error}``) matching the
on-disk interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .llmgen import PromptSetting
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
    prompt_setting: dict | None = None  # {"shots": int, "bias": str}
    prompt_hash: str | None = None
    model_name: str | None = None
    generation_params: dict | None = None
    validation: ValidationReport | None = None
    profile: dict | None = None
    labels: dict[str, dict] = field(default_factory=dict)

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
        return PromptSetting.from_dict(self.prompt_setting).label

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "sql": self.sql,
            "origin": self.origin,
            "subschema_id": self.subschema_id,
            "batch": self.batch,
            "prompt_setting": self.prompt_setting,
            "prompt_hash": self.prompt_hash,
            "model_name": self.model_name,
            "generation_params": self.generation_params,
            "validation": self.validation.to_dict() if self.validation else None,
            "profile": self.profile,
            "labels": self.labels,
        }

    @staticmethod
    def from_dict(data: dict) -> "QueryRecord":
        return QueryRecord(
            id=data["id"],
            sql=data["sql"],
            origin=data["origin"],
            subschema_id=data["subschema_id"],
            batch=data.get("batch", 0),
            prompt_setting=data.get("prompt_setting"),
            prompt_hash=data.get("prompt_hash"),
            model_name=data.get("model_name"),
            generation_params=data.get("generation_params"),
            validation=ValidationReport.from_dict(data["validation"])
            if data.get("validation")
            else None,
            profile=data.get("profile"),
            labels=data.get("labels", {}),
        )


def make_record(sql: str, origin: str, subschema_id: str, batch: int = 0, **kwargs) -> QueryRecord:
    """Build a record with its id derived from the normalized SQL."""
    return QueryRecord(
        id=query_id(sql), sql=sql, origin=origin, subschema_id=subschema_id, batch=batch, **kwargs
    )


def save_records(records, path) -> None:
    write_jsonl(path, "query_records", (r.to_dict() for r in records))


def load_records(path) -> list[QueryRecord]:
    return [QueryRecord.from_dict(row) for row in read_jsonl(path, "query_records")]
