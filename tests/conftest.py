from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from sqlsynth.errors import SqlSyntaxError
from sqlsynth.schema import infer_foreign_keys, ingest_ddl, load_catalog
from sqlsynth.sqltree import tokenize
from sqlsynth.subschema import load_subschemas

REPO_ROOT = Path(__file__).resolve().parent.parent
TPCH_DDL_PATH = REPO_ROOT / "data" / "tpch_schema.sql"
PERFBENCH_RUN = REPO_ROOT / "perfbench" / "run.py"
DEMO_OUT = REPO_ROOT / "out" / "demo"

TINY_DDL = """
CREATE TABLE region (
  r_regionkey integer NOT NULL,
  r_name char(25) NOT NULL,
  PRIMARY KEY (r_regionkey)
);
CREATE TABLE nation (
  n_nationkey integer NOT NULL,
  n_name char(25) NOT NULL,
  n_regionkey integer NOT NULL,
  PRIMARY KEY (n_nationkey),
  FOREIGN KEY (n_regionkey) REFERENCES region (r_regionkey)
);
"""


def tokenizes(sql: str) -> bool:
    """Whether ``tokenize`` reads ``sql`` without a SqlSyntaxError."""
    try:
        tokenize(sql)
    except SqlSyntaxError:
        return False
    return True


#: Every candidate of the committed demo run, the rows not kept and then
#: the kept ones: mechanical queries and extracted LLM completions, three of
#: which cannot be tokenized.
DEMO_SQL = [
    json.loads(line)["sql"]
    for name in ("records.jsonl", "kept.jsonl")
    for line in (DEMO_OUT / name).read_text(encoding="utf-8").splitlines()[1:]
]


@st.composite
def messy_sql(draw):
    """A demo query re-spaced, re-cased and commented at random word breaks."""
    words = draw(st.sampled_from(DEMO_SQL)).split(" ")
    gaps = st.sampled_from([" ", "  ", "\n", "\t", " /* note */ ", " -- note\n"])
    text = words[0]
    for word in words[1:]:
        text += draw(gaps) + (word.upper() if draw(st.booleans()) else word)
    return text + draw(st.sampled_from(["", ";", " ; ", "\n"]))


sql_texts = st.sampled_from(DEMO_SQL) | messy_sql() | st.text(max_size=120)

#: A generator probability, drawn with its bounds 0 and 1 often.
probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@pytest.fixture(scope="session")
def demo_inputs():
    """The demo's profiled catalog (enumerated, label, date and numeric
    columns) and its subschemas."""
    return load_catalog(DEMO_OUT / "catalog.json"), load_subschemas(DEMO_OUT / "subschemas.jsonl")


@pytest.fixture()
def perfbench_run(monkeypatch):
    """The benchmark harness ``perfbench/run.py``, imported (never run)."""
    monkeypatch.syspath_prepend(str(PERFBENCH_RUN.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    return bench


@pytest.fixture(scope="session")
def tpch_ddl() -> str:
    return TPCH_DDL_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def tpch_catalog(tpch_ddl):
    return ingest_ddl(tpch_ddl, name="tpch")


@pytest.fixture(scope="session")
def tpch_catalog_inferred(tpch_catalog):
    return infer_foreign_keys(tpch_catalog)


@pytest.fixture()
def tiny_catalog():
    return ingest_ddl(TINY_DDL, name="tiny")


def strip_declared_fks(ddl: str) -> str:
    """TPC-H DDL with every FOREIGN KEY clause removed (for inference tests)."""
    lines = [line for line in ddl.splitlines() if "FOREIGN KEY" not in line]
    out = []
    for i, line in enumerate(lines):
        nxt = lines[i + 1].strip() if i + 1 < len(lines) else ""
        if line.rstrip().endswith(",") and nxt.startswith(")"):
            line = line.rstrip()[:-1]
        out.append(line)
    return "\n".join(out)


@pytest.fixture(scope="session")
def tpch_bare_catalog(tpch_ddl):
    """TPC-H catalog ingested without any declared foreign keys."""
    return ingest_ddl(strip_declared_fks(tpch_ddl), name="tpch-bare")
