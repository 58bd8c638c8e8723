"""Synthetic SQL workload generation and learned-cost-model evaluation.

The package splits into stages mirroring the generation pipeline:

* :mod:`sqlsynth.schema`      DDL ingestion, FK inference, column profiling
* :mod:`sqlsynth.subschema`   join graph + connected-subschema enumeration
* :mod:`sqlsynth.mechgen`     mechanical (algorithmic) query generation
* :mod:`sqlsynth.llmgen`      prompt construction, backends, SQL extraction
* :mod:`sqlsynth.validation`  syntax/relevance checks and deduplication
* :mod:`sqlsynth.coverage`    structural profiling, gap detection, steering
* :mod:`sqlsynth.execution`   engine drivers, runtime labels, retention
* :mod:`sqlsynth.engine`      the child process behind each engine session
* :mod:`sqlsynth.evaluation`  Q-error aggregates and routing simulation
* :mod:`sqlsynth.pipeline`    end-to-end orchestration (also: the CLI)

The most common entry points are re-exported here.
"""

__version__ = "0.1.0"

from .coverage import aggregate_coverage, plan_regeneration, profile_query
from .evaluation import compare_routing, q_error, route, summarize
from .execution import apply_retention, bucket_runtime, execute_batch, restrict_dataset
from .llmgen import PromptSetting, build_prompt, extract_sql, generate_llm
from .mechgen import MechConfig, generate_mechanical, select_seed_examples
from .schema import infer_foreign_keys, ingest_ddl, profile_columns, render_create_statements
from .subschema import build_join_graph, enumerate_subschemas
from .validation import deduplicate, validate_relevance, validate_syntax

__all__ = [
    "__version__",
    "aggregate_coverage",
    "apply_retention",
    "bucket_runtime",
    "build_join_graph",
    "build_prompt",
    "compare_routing",
    "deduplicate",
    "enumerate_subschemas",
    "execute_batch",
    "extract_sql",
    "generate_llm",
    "generate_mechanical",
    "infer_foreign_keys",
    "ingest_ddl",
    "MechConfig",
    "plan_regeneration",
    "profile_columns",
    "profile_query",
    "PromptSetting",
    "q_error",
    "render_create_statements",
    "restrict_dataset",
    "route",
    "select_seed_examples",
    "summarize",
    "validate_relevance",
    "validate_syntax",
]
