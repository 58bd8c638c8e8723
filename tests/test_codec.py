"""The typed JSON codec: every artifact loads back to what was saved."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.coverage import ComplexityProfile
from sqlsynth.errors import DataFileError
from sqlsynth.execution import RuntimeLabel, load_labels, save_labels
from sqlsynth.llmgen import BIAS_GROUP_BY, BIAS_NONE, BIAS_ORDER_BY, GenParams, PromptSetting
from sqlsynth.records import QueryRecord, load_records, save_records
from sqlsynth.schema import load_catalog, save_catalog
from sqlsynth.subschema import load_subschemas, save_subschemas
from sqlsynth.util import write_jsonl
from sqlsynth.validation import ValidationReport

from tests.conftest import REPO_ROOT

DEMO_OUT = REPO_ROOT / "out" / "demo"


@pytest.mark.parametrize(
    "name, load, save",
    [
        ("catalog.json", load_catalog, save_catalog),
        ("subschemas.jsonl", load_subschemas, save_subschemas),
        ("records.jsonl", load_records, save_records),
        ("kept.jsonl", load_records, save_records),
        ("labels.jsonl", load_labels, save_labels),
    ],
)
def test_committed_demo_artifact_resaves_byte_for_byte(tmp_path, name, load, save):
    save(load(DEMO_OUT / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DEMO_OUT / name).read_bytes()


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

names = st.text(min_size=1, max_size=12)
counts = st.dictionaries(names, st.integers(0, 50), max_size=4)
finite = st.floats(allow_nan=False, allow_infinity=False)

validations = st.builds(
    ValidationReport,
    rejection_reasons=st.lists(names, max_size=3),
    normalized_form=st.text(max_size=40),
)
profiles = st.builds(
    ComplexityProfile,
    join_count=st.integers(0, 9),
    clause_counts=counts,
    operator_counts=counts,
    function_counts=counts,
    subselect_count=st.integers(0, 3),
    referenced_tables=counts,
    referenced_columns=counts,
)
runtime_labels = st.builds(
    RuntimeLabel,
    query_id=names,
    engine_id=names,
    runtime_ms=st.floats(0, 1e6),
    row_count=st.none() | st.integers(0, 10**6),
    timed_out=st.booleans(),
    error=st.none() | st.text(max_size=20),
)


def _records(origin: str, prompt: dict):
    return st.builds(
        QueryRecord,
        id=names,
        sql=st.text(max_size=80),
        origin=st.just(origin),
        subschema_id=names,
        batch=st.integers(0, 20),
        validation=st.none() | validations,
        profile=st.none() | profiles,
        **prompt,
    )


llm_records = _records(
    "llm",
    {
        "prompt_setting": st.builds(
            PromptSetting,
            shots=st.integers(0, 8),
            bias=st.sampled_from([BIAS_NONE, BIAS_ORDER_BY, BIAS_GROUP_BY]),
        ),
        "prompt_hash": names,
        "model_name": names,
        "generation_params": st.none() | st.builds(
            GenParams,
            temperature=finite,
            top_p=finite,
            repetition_penalty=finite,
            n_completions=st.integers(1, 9),
            max_tokens=st.integers(1, 4096),
        ),
    },
)
mechanical_records = _records("mechanical", {})


@settings(max_examples=60, deadline=None)
@given(st.lists(mechanical_records | llm_records, max_size=6))
def test_saved_records_load_back_equal(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("codec") / "records.jsonl"
    save_records(records, path)
    assert load_records(path) == records


@settings(max_examples=60, deadline=None)
@given(st.lists(runtime_labels, max_size=6))
def test_saved_labels_load_back_equal(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("codec") / "labels.jsonl"
    save_labels(labels, path)
    assert load_labels(path) == labels


# ---------------------------------------------------------------------------
# Strict reading
# ---------------------------------------------------------------------------

ROW = {
    "id": "q1", "sql": "SELECT 1", "origin": "mechanical", "subschema_id": "s", "batch": 0,
    "prompt_setting": None, "prompt_hash": None, "model_name": None,
    "generation_params": None, "validation": None, "profile": None,
}
LABEL = {
    "query_id": "q1", "engine_id": "e", "runtime_ms": 1.5, "row_count": 1, "timed_out": False,
    "error": None,
}


@pytest.mark.parametrize(
    "row, named",
    [
        ({**ROW, "sql": None}, "sql: expected str, got None"),
        ({**ROW, "batch": "0"}, "batch: expected int, got '0'"),
        ({**ROW, "batch": True}, "batch: expected int, got True"),
        ({**ROW, "extra": 1}, "extra: unknown key"),
        ({**ROW, "labels": {}}, "labels: unknown key"),  # a row of the old format
        ({**ROW, "origin": "human"}, "QueryRecord: unknown origin 'human'"),
        ({**ROW, "validation": {"normalized_form": "select 1"}},
         "validation.rejection_reasons: missing"),
        ({**ROW, "profile": {"join_count": 0}}, "profile.clause_counts: missing"),
        # a report of the old format, which repeated the id and the verdict
        ({**ROW, "validation": {"query_id": "q1", "verdict": "accepted",
                                "rejection_reasons": [], "normalized_form": "select 1"}},
         "validation.query_id: unknown key"),
    ],
)
def test_bad_field_names_file_line_and_field(tmp_path, row, named):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, "query_records", [ROW, row])
    with pytest.raises(DataFileError) as error:
        load_records(path)
    assert str(error.value) == f"{path}, line 3: {named}"


@pytest.mark.parametrize(
    "row, named",
    [
        ({k: v for k, v in LABEL.items() if k != "runtime_ms"}, "runtime_ms: missing"),
        ({**LABEL, "runtime_ms": "1"}, "runtime_ms: expected float, got '1'"),
    ],
)
def test_bad_label_field_names_file_line_and_field(tmp_path, row, named):
    path = tmp_path / "labels.jsonl"
    write_jsonl(path, "runtime_labels", [LABEL, row])
    with pytest.raises(DataFileError) as error:
        load_labels(path)
    assert str(error.value) == f"{path}, line 3: {named}"


def test_nested_list_index_is_named(tmp_path):
    path = tmp_path / "subschemas.jsonl"
    write_jsonl(
        path,
        "subschemas",
        [{"id": "s", "tables": ["a", "b"], "spanning_joins": [{"from_table": "a"}]}],
    )
    with pytest.raises(DataFileError, match=r"line 2: spanning_joins\[0\]\.from_columns: missing"):
        load_subschemas(path)
