"""QueryRecord: one query plus provenance, validation and profile.

This is the dataset row every stage appends to. A JSONL row holds its
fields in declaration order, nested records (prompt setting, generation
parameters, validation report, complexity profile) as the objects of
their own fields, through the codec in :mod:`sqlsynth.util`; loading checks
every field. A record holds no runtime labels: execution writes them to
their own file, keyed by record id (:func:`~sqlsynth.execution.save_labels`).

:func:`make_record` takes the query's two normalized forms: the record id
is the hash of the literal form, and the record holds both strings as
``forms`` until the pipeline's validator has taken the dedup key from them
and dropped them. A mechanical query's forms are printed from its syntax
tree (:func:`~sqlsynth.sqltree.print_sql`), so it is never scanned; an LLM
query's come from one scan (:func:`~sqlsynth.sqltree.normalized_forms`). A
mechanical record also carries the clauses its generator used as ``tags``,
which go with it into a seed pool, and the syntax tree it was built as,
which its SQL was written from, as ``tree``; the validator uses the tree in
place of a parse and drops it. All three are plain attributes, not fields:
the codec neither writes nor reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coverage import ComplexityProfile
from .llmgen import GenParams, PromptSetting
from .sqltree import normalized_forms
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

    # Transient, never written (see the module docstring).
    forms = None  # (literal form, placeholder form) | None
    tags = None  # frozenset | None
    tree = None  # sqltree.Query | None

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


def make_record(
    sql: str, origin: str, subschema_id: str, batch: int = 0, *,
    forms: tuple[str, str] | None = None, **kwargs,
) -> QueryRecord:
    """Build a record with its id derived from the normalized SQL. The record
    holds the two normalized forms as ``forms``: ``forms`` when the caller
    printed them from the tree ``sql`` was written from, else one scan's."""
    if forms is None:
        forms = normalized_forms(sql)
    record = QueryRecord(
        id=query_id(sql, forms[0]), sql=sql, origin=origin, subschema_id=subschema_id,
        batch=batch, **kwargs,
    )
    record.forms = forms
    return record


def save_records(records, path) -> None:
    write_jsonl(path, "query_records", records)


def load_records(path) -> list[QueryRecord]:
    return read_jsonl(path, "query_records", QueryRecord)
