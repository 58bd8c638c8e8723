#!/usr/bin/env python3
"""sqlsynth benchmark: end-to-end and per-layer numbers for run_pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload steer_loop --seed 1 --seconds 36 --trace 0

Each run builds its inputs from ``--seed``, then calls
``sqlsynth.pipeline.run_pipeline`` in this process: at least twice, and
again while another call should end within ``--seconds``. With
``--trace 0`` only a few coarse call boundaries are timed and the
end-to-end metrics are reported, as medians over the calls. With
``--trace 1`` calls alternate between untraced and traced, and the
per-layer metrics of the traced calls are reported; the last traced call's
spans are written to ``.perfbench_work/trace-<workload>.json``.

Workloads:

* ``steer_loop``: the demo schema with ``loop_limit = 6``,
  ``mech_per_subschema = 20`` and ``min_clause_freq = 0.99``, so the
  coverage gaps never close and all seven batches run; completions come from
  the benchmark's HTTP completion server; execution off.
* ``llm_fewshot``: all 32 demo subschemas x 8 prompt settings,
  ``mech_per_subschema = 5``, ``loop_limit = 3``, five completions per
  prompt, two concurrent requests, a completion server with a 10 ms service
  delay; execution off.
* ``label_exec``: the shipped demo generation unchanged (seed 42, stub
  backend), executed on two SQLite engines that each load a TPC-H-style
  dataset 100 times the bundled sample, built from the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Operations are LLM
prompts, execution labels and output checks; a prompt whose final outcome is
an error, a label with an error or timeout and a failed check count as
failed. A failed check also makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from completion_server import CompletionServer
from tracer import END, ERROR, ID, NAME, PARENT, START, VALUE, Tracer, busy_times, by_name
from tracer import covered_time, package_modules, self_times, wall

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "data" / "demo"
WORK = ROOT / ".perfbench_work"

#: No pipeline call starts that could end later than this into the run.
RUN_BUDGET_S = 150.0
DATASET_SCALE = 100
LLM_CONCURRENCY = 2  # the pipeline's worker threads; the host has 2 cores

OUTPUT_FILES = ("kept.jsonl", "records.jsonl", "coverage.json")

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("candidates_per_s", "candidates/s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
)

PER_LAYER = (
    ("sqltree.tokenize.calls", "count"),
    ("sqltree.tokenize.self_s", "s"),
    ("sqltree.parse.calls", "count"),
    ("sqltree.parse.self_s", "s"),
    ("sqltree.normalize.calls", "count"),
    ("sqltree.normalize.self_s", "s"),
    ("sqltree.parse_per_candidate", "calls/candidate"),
    ("sqltree.tokenize_per_candidate", "calls/candidate"),
    ("validation.syntax.self_s", "s"),
    ("validation.relevance.self_s", "s"),
    ("validation.resolve.calls", "count"),
    ("validation.dedup.busy_s", "s"),
    ("validation.accept_ratio", "ratio"),
    ("validation.dedup_drop_ratio", "ratio"),
    ("coverage.profile.calls", "count"),
    ("coverage.profile.self_s", "s"),
    ("coverage.profile_per_kept", "calls/kept"),
    ("coverage.aggregate.busy_s", "s"),
    ("coverage.plan.busy_s", "s"),
    ("mechgen.generate.busy_s", "s"),
    ("mechgen.generate.queries", "count"),
    ("mechgen.seed_select.busy_s", "s"),
    ("mechgen.clause_tags.calls", "count"),
    ("llmgen.prompt.busy_s", "s"),
    ("llmgen.backend.calls", "count"),
    ("llmgen.backend.attempts", "count"),
    ("llmgen.backend.attempts_per_prompt", "attempts/prompt"),
    ("llmgen.backend.wait_s", "s"),
    ("llmgen.backend.failed", "count"),
    ("llmgen.extract.busy_s", "s"),
    ("llm_server.requests", "count"),
    ("llm_server.http_503", "count"),
    ("llm_server.service_s", "s"),
    ("execution.load.busy_s", "s"),
    ("execution.load.rows", "rows"),
    ("execution.query.calls", "count"),
    ("execution.query.busy_s", "s"),
    ("execution.query_ms.p50", "ms"),
    ("execution.query_ms.p99", "ms"),
    ("execution.engine_overlap", "ratio"),
    ("execution.timeouts", "count"),
    ("execution.errors", "count"),
    ("execution.zero_ms_labels", "count"),
    ("execution.labels_per_s", "labels/s"),
    ("schema.busy_s", "s"),
    ("subschema.busy_s", "s"),
    ("records.save.busy_s", "s"),
    ("records.save.bytes", "bytes"),
    ("pipeline.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("failed_share", "ratio"),
)

#: Per-layer counts that must repeat exactly from one traced call to the next.
DETERMINISTIC = (
    "sqltree.tokenize.calls",
    "sqltree.parse.calls",
    "sqltree.normalize.calls",
    "sqltree.parse_per_candidate",
    "sqltree.tokenize_per_candidate",
    "validation.resolve.calls",
    "coverage.profile.calls",
    "coverage.profile_per_kept",
    "mechgen.generate.queries",
    "mechgen.clause_tags.calls",
    "llmgen.backend.calls",
    "llmgen.backend.attempts",
    "llmgen.backend.attempts_per_prompt",
    "llm_server.requests",
    "llm_server.http_503",
    "execution.load.rows",
    "execution.query.calls",
)


# ---------------------------------------------------------------------------
# Probes: the functions whose calls become spans
# ---------------------------------------------------------------------------


def _label_outcomes(labels, _args):
    return (
        len(labels),
        sum(label.timed_out for label in labels),
        sum(label.error is not None for label in labels),
        sum(label.runtime_ms == 0 for label in labels),
    )


def _rows_loaded(counts, _args):
    return sum(counts.values())


def _file_size(_result, args):
    return os.path.getsize(args[1])


#: The untraced run times only these call boundaries.
COARSE_PROBES = (
    ("pipeline.run_pipeline", "sqlsynth.pipeline:run_pipeline", None),
    ("pipeline._generate", "sqlsynth.pipeline:_generate", None),
    ("pipeline._execute", "sqlsynth.pipeline:_execute", None),
    ("schema.ingest_ddl", "sqlsynth.schema:ingest_ddl", None),
    ("schema.infer_foreign_keys", "sqlsynth.schema:infer_foreign_keys", None),
    ("schema.profile_columns", "sqlsynth.schema:profile_columns", None),
    ("subschema.enumerate_subschemas", "sqlsynth.subschema:enumerate_subschemas", None),
    ("execution.restrict_dataset", "sqlsynth.execution:restrict_dataset", _rows_loaded),
    ("execution.execute_batch", "sqlsynth.execution:execute_batch", _label_outcomes),
)

LAYER_PROBES = COARSE_PROBES + (
    ("schema.derive_column_prefixes", "sqlsynth.schema:derive_column_prefixes", None),
    ("schema.save_catalog", "sqlsynth.schema:save_catalog", None),
    ("subschema.build_join_graph", "sqlsynth.subschema:build_join_graph", None),
    ("subschema.save_subschemas", "sqlsynth.subschema:save_subschemas", None),
    ("mechgen.generate_mechanical", "sqlsynth.mechgen:generate_mechanical",
     lambda records, _args: len(records)),
    ("mechgen.select_seed_examples", "sqlsynth.mechgen:select_seed_examples", None),
    ("mechgen.clause_tags", "sqlsynth.mechgen:clause_tags", None),
    ("llmgen.build_prompt", "sqlsynth.llmgen:build_prompt", None),
    ("llmgen.generate_llm", "sqlsynth.llmgen:generate_llm", None),
    ("llmgen.backend_complete", "sqlsynth.llmgen:HttpBackend.complete", None),
    ("llmgen.backend_complete", "sqlsynth.llmgen:StubBackend.complete", None),
    ("llmgen.extract_sql", "sqlsynth.llmgen:extract_sql", None),
    ("sqltree.tokenize", "sqlsynth.sqltree:tokenize", None),
    ("sqltree.parse_select", "sqlsynth.sqltree:parse_select", None),
    ("sqltree.normalize_sql", "sqlsynth.sqltree:normalize_sql", None),
    ("validation.validate_syntax", "sqlsynth.validation:validate_syntax", None),
    ("validation.validate_relevance", "sqlsynth.validation:validate_relevance", None),
    ("validation.resolve_references", "sqlsynth.validation:resolve_references", None),
    ("validation.deduplicate", "sqlsynth.validation:deduplicate", None),
    ("validation.query_id", "sqlsynth.validation:query_id", None),
    ("coverage.profile_query", "sqlsynth.coverage:profile_query", None),
    ("coverage.aggregate_coverage", "sqlsynth.coverage:aggregate_coverage", None),
    ("coverage.plan_regeneration", "sqlsynth.coverage:plan_regeneration", None),
    ("coverage.write_csv", "sqlsynth.coverage:write_csv", None),
    ("execution.query", "sqlsynth.execution:SqliteSession.run", None),
    ("execution.apply_retention", "sqlsynth.execution:apply_retention", None),
    ("records.make_record", "sqlsynth.records:make_record", None),
    ("records.save_records", "sqlsynth.records:save_records", _file_size),
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _use_server(data: dict, url: str) -> None:
    llm = data["llm"]
    llm.update(backend="http", url=url, concurrency=LLM_CONCURRENCY, retries=2)


def steer_loop(data: dict, seed: int, inputs: dict) -> None:
    # half the 40 queries per subschema of the roadmap's scaled run, so two
    # calls fit in one run; the batches and the cost structure stay
    data["pipeline"].update(seed=seed, loop_limit=6, mech_per_subschema=20)
    data["coverage"]["min_clause_freq"] = 0.99  # the gaps never close: all batches run
    _use_server(data, inputs["url"])
    data["execution"]["enabled"] = False


def llm_fewshot(data: dict, seed: int, inputs: dict) -> None:
    data["pipeline"].update(seed=seed, loop_limit=3, mech_per_subschema=5)
    data["subschema"]["llm_sample_count"] = 32  # every demo subschema
    _use_server(data, inputs["url"])
    data["llm"]["settings"] = [
        "0:none", "0:group_by", "0:order_by", "3:none",
        "3:group_by", "3:order_by", "5:group_by", "5:order_by",
    ]
    data["llm"]["params"]["n_completions"] = 5
    data["execution"]["enabled"] = False


def label_exec(data: dict, seed: int, inputs: dict) -> None:
    # generation stays the shipped demo's (its stub completions cover every
    # prompt); the seed only shapes the dataset
    data["llm"]["concurrency"] = LLM_CONCURRENCY
    execution = data["execution"]
    execution["data_dir"] = str(inputs["dataset"])
    execution["max_rows_per_table"] = 10**9  # load every row
    data["engines"]["sqlite-w2"] = dict(data["engines"]["sqlite-w1"])


WORKLOADS = {"steer_loop": steer_loop, "llm_fewshot": llm_fewshot, "label_exec": label_exec}
USES_SERVER = {"steer_loop", "llm_fewshot"}
USES_DATASET = {"label_exec"}
#: label_exec generates for only about 0.3 s per call, too short to time
#: steadily on a shared host. In untraced runs each of its calls is followed
#: by this many calls with execution off; they add samples of
#: candidates_per_s and nothing else.
GENERATION_REPEATS = {"label_exec": 8}


def make_dataset(seed: int, out_dir: Path) -> dict:
    """Write a TPC-H-style dataset ``DATASET_SCALE`` times the bundled
    sample with ``scripts/make_tpch_sample.py``; returns rows per table."""
    spec = importlib.util.spec_from_file_location(
        "make_tpch_sample", ROOT / "scripts" / "make_tpch_sample.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.SEED = seed
    script.OUT_DIR = out_dir
    for name in ("SUPPLIER_COUNT", "PART_COUNT", "CUSTOMER_COUNT", "ORDER_COUNT"):
        setattr(script, name, getattr(script, name) * DATASET_SCALE)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        script.main()
    counts = {}
    for line in printed.getvalue().splitlines():  # "<table>.tbl: <n> rows"
        table, rest = line.split(".tbl: ")
        counts[table] = int(rest.split()[0])
    return counts


# ---------------------------------------------------------------------------
# One pipeline call
# ---------------------------------------------------------------------------


@dataclass
class Call:
    traced: bool
    manifest: dict
    spans: list
    server: dict
    output_hash: str
    engines: int
    generation_only: bool = False

    def durations(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[NAME] == name]

    @cached_property
    def label_outcomes(self) -> tuple:
        """(labels, timeouts, errors, zero-ms labels) summed over engines."""
        outcomes = [s[VALUE] for s in self.named("execution.execute_batch") if s[VALUE]]
        return tuple(sum(o[i] for o in outcomes) for i in range(4))

    @cached_property
    def e2e(self) -> dict:
        setup = sum(self.durations(n) for n in (
            "schema.ingest_ddl", "schema.infer_foreign_keys", "schema.profile_columns",
            "subschema.enumerate_subschemas",
        ))
        # engines load in parallel: count the loading's wall time once
        setup += wall(self.named("execution.restrict_dataset"))
        return {
            "run_s": self.durations("pipeline.run_pipeline"),
            "setup_s": setup,
            "candidates_per_s": self.manifest["counts"]["generated"]
            / self.durations("pipeline._generate"),
        }

    def operations(self) -> tuple[int, int]:
        """(attempted, failed) pipeline operations: prompts and labels."""
        counts = self.manifest["counts"]
        labels, timeouts, errors, _ = self.label_outcomes
        return counts["llm_calls"] + labels, counts["llm_failures"] + timeouts + errors

    def checks(self) -> list[tuple[str, bool]]:
        counts = self.manifest["counts"]
        labels, timeouts, _, _ = self.label_outcomes
        checks = [
            ("generated == kept + rejected + dedup_dropped",
             counts["generated"] == counts["kept"] + counts["rejected"] + counts["dedup_dropped"]),
            ("llm_failures == 0", counts["llm_failures"] == 0),
        ]
        if self.engines:
            checks += [
                ("executed == kept x engines",
                 counts.get("executed") == counts["kept"] * self.engines == labels),
                ("no timeouts", timeouts == 0),
            ]
        return checks


def clear_caches(modules) -> None:
    """Empty the package's memo caches so every call starts cold, as a new
    process would."""
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def hash_outputs(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced call
# ---------------------------------------------------------------------------


def _percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def layer_metrics(call: Call) -> dict:
    spans = call.spans
    names = by_name(spans)
    own = self_times(spans)
    busy = busy_times(spans)
    counts = call.manifest["counts"]

    def calls(name):
        return len(names.get(name, ()))

    def total(name):
        return sum(s[END] - s[START] for s in names.get(name, ()))

    def values(name):
        return sum(s[VALUE] or 0 for s in names.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    generated, kept = counts["generated"], counts["kept"]
    accepted = generated - counts["rejected"]

    # orchestration: pipeline time no span of another layer covers, on any thread
    name_of = {s[ID]: s[NAME] for s in spans}
    run = names["pipeline.run_pipeline"][0]
    outside = [
        (s[START], s[END]) for s in spans
        if not s[NAME].startswith("pipeline.")
        and (s[PARENT] == 0 or name_of.get(s[PARENT], "").startswith("pipeline."))
    ]
    pipeline_self = (run[END] - run[START]) - covered_time(outside, (run[START], run[END]))

    query_ms = [(s[END] - s[START]) * 1000.0 for s in names.get("execution.query", ())]
    batches = names.get("execution.execute_batch", [])
    labels, timeouts, errors, zero_ms = call.label_outcomes
    attempts = calls("llmgen.generate_llm")
    prompts = counts["llm_calls"]
    return {
        "sqltree.tokenize.calls": calls("sqltree.tokenize"),
        "sqltree.tokenize.self_s": own.get("sqltree.tokenize", 0.0),
        "sqltree.parse.calls": calls("sqltree.parse_select"),
        "sqltree.parse.self_s": own.get("sqltree.parse_select", 0.0),
        "sqltree.normalize.calls": calls("sqltree.normalize_sql"),
        "sqltree.normalize.self_s": own.get("sqltree.normalize_sql", 0.0),
        "sqltree.parse_per_candidate": ratio(calls("sqltree.parse_select"), generated),
        "sqltree.tokenize_per_candidate": ratio(calls("sqltree.tokenize"), generated),
        "validation.syntax.self_s": own.get("validation.validate_syntax", 0.0),
        "validation.relevance.self_s": own.get("validation.validate_relevance", 0.0),
        "validation.resolve.calls": calls("validation.resolve_references"),
        "validation.dedup.busy_s": busy.get("validation.deduplicate", 0.0),
        "validation.accept_ratio": ratio(accepted, generated),
        "validation.dedup_drop_ratio": ratio(counts["dedup_dropped"], accepted),
        "coverage.profile.calls": calls("coverage.profile_query"),
        "coverage.profile.self_s": own.get("coverage.profile_query", 0.0),
        "coverage.profile_per_kept": ratio(calls("coverage.profile_query"), kept),
        "coverage.aggregate.busy_s": busy.get("coverage.aggregate_coverage", 0.0),
        "coverage.plan.busy_s": busy.get("coverage.plan_regeneration", 0.0),
        "mechgen.generate.busy_s": busy.get("mechgen.generate_mechanical", 0.0),
        "mechgen.generate.queries": values("mechgen.generate_mechanical"),
        "mechgen.seed_select.busy_s": busy.get("mechgen.select_seed_examples", 0.0),
        "mechgen.clause_tags.calls": calls("mechgen.clause_tags"),
        "llmgen.prompt.busy_s": busy.get("llmgen.build_prompt", 0.0),
        "llmgen.backend.calls": prompts,
        "llmgen.backend.attempts": attempts,
        "llmgen.backend.attempts_per_prompt": ratio(attempts, prompts),
        "llmgen.backend.wait_s": total("llmgen.backend_complete"),
        "llmgen.backend.failed": sum(s[ERROR] for s in names.get("llmgen.generate_llm", ())),
        "llmgen.extract.busy_s": busy.get("llmgen.extract_sql", 0.0),
        "llm_server.requests": call.server["requests"],
        "llm_server.http_503": call.server["http_503"],
        "llm_server.service_s": call.server["service_s"],
        "execution.load.busy_s": total("execution.restrict_dataset"),
        "execution.load.rows": values("execution.restrict_dataset"),
        "execution.query.calls": len(query_ms),
        "execution.query.busy_s": sum(query_ms) / 1000.0,
        "execution.query_ms.p50": _percentile(query_ms, 0.50),
        "execution.query_ms.p99": _percentile(query_ms, 0.99),
        "execution.engine_overlap": ratio(sum(s[END] - s[START] for s in batches), wall(batches)),
        "execution.timeouts": timeouts,
        "execution.errors": errors,
        "execution.zero_ms_labels": zero_ms,
        "execution.labels_per_s": ratio(labels, wall(batches)),
        "schema.busy_s": busy.get("schema", 0.0),
        "subschema.busy_s": busy.get("subschema", 0.0),
        "records.save.busy_s": busy.get("records.save_records", 0.0),
        "records.save.bytes": values("records.save_records"),
        "pipeline.self_s": pipeline_self,
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        from sqlsynth.config import load_toml

        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.base_config = load_toml(DEMO_DIR / "demo.toml")
        self.inputs: dict = {}
        self.server = None

    def config(self, out_dir: Path, generation_only: bool):
        from sqlsynth.config import config_from_dict

        data = copy.deepcopy(self.base_config)
        WORKLOADS[self.workload](data, self.seed, self.inputs)
        data["pipeline"]["out_dir"] = str(out_dir)
        if generation_only:
            data["execution"]["enabled"] = False
        return config_from_dict(data, base_dir=DEMO_DIR)

    def call(self, index: int, traced: bool, generation_only: bool = False) -> Call:
        import sqlsynth.pipeline

        out_dir = self.run_dir / f"call{index}"
        config = self.config(out_dir, generation_only)
        clear_caches(package_modules())
        if self.server is not None:
            self.server.reset()
        gc.collect()
        with Tracer() as tracer:
            tracer.install(LAYER_PROBES if traced else COARSE_PROBES)
            manifest = sqlsynth.pipeline.run_pipeline(config)
        server = self.server.reset() if self.server is not None else \
            CompletionServer.zero_stats()
        call = Call(
            traced=traced,
            manifest=manifest,
            spans=tracer.spans,
            server=server,
            output_hash=hash_outputs(out_dir),
            engines=len(config.execution.engines) if config.execution.enabled else 0,
            generation_only=generation_only,
        )
        shutil.rmtree(out_dir)
        print(
            f"{self.workload} seed={self.seed} call={index} traced={traced} "
            f"generation_only={generation_only} "
            + " ".join(f"{k}={v:.4f}" for k, v in call.e2e.items())
            + " " + " ".join(f"{k}={manifest['counts'].get(k)}" for k in (
                "generated", "kept", "rejected", "dedup_dropped", "llm_calls", "executed")),
            file=sys.stderr,
        )
        return call

    def run(self, seconds: float, trace: bool) -> dict:
        with contextlib.ExitStack() as stack:
            if self.workload in USES_SERVER:
                self.server = stack.enter_context(CompletionServer(self.seed))
                self.inputs["url"] = self.server.url
            if self.workload in USES_DATASET:
                dataset = self.run_dir / "dataset"
                rows = make_dataset(self.seed, dataset)
                self.inputs["dataset"] = dataset
                print(f"dataset rows: {json.dumps(rows)} total {sum(rows.values())}",
                      file=sys.stderr)
            calls = self.loop(seconds, trace)
        return self.result(calls, trace)

    def loop(self, seconds: float, trace: bool) -> list[Call]:
        calls: list[Call] = []
        full = 0
        started = time.perf_counter()
        longest = 0.0  # the longest round: one full call and its generation repeats
        while True:
            elapsed = time.perf_counter() - started
            # another round starts only if it should end within the run's time
            if full >= 2 and elapsed + longest > min(seconds, RUN_BUDGET_S):
                return calls
            round_started = time.perf_counter()
            calls.append(self.call(len(calls), traced=trace and full % 2 == 1))
            full += 1
            for _ in range(0 if trace else GENERATION_REPEATS.get(self.workload, 0)):
                calls.append(self.call(len(calls), traced=False, generation_only=True))
            longest = max(longest, time.perf_counter() - round_started)

    def result(self, calls: list[Call], trace: bool) -> dict:
        attempted = failed = 0
        checks: list[tuple[str, bool]] = []
        for index, call in enumerate(calls):
            ops_attempted, ops_failed = call.operations()
            attempted += ops_attempted
            failed += ops_failed
            checks += [(f"call {index}: {name}", ok) for name, ok in call.checks()]
            checks.append((f"call {index}: {', '.join(OUTPUT_FILES)} identical to call 0",
                           call.output_hash == calls[0].output_hash))

        untraced = [c for c in calls if not c.traced and not c.generation_only]
        run_s = statistics.median(c.e2e["run_s"] for c in untraced)
        if trace:
            traced = [c for c in calls if c.traced]
            layers = [layer_metrics(c) for c in traced]
            for name in DETERMINISTIC:
                checks.append((f"{name} repeats", all(m[name] == layers[0][name] for m in layers)))
            values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            values["trace.overhead_s"] = (
                statistics.median(c.e2e["run_s"] for c in traced) - run_s
            )
            units = PER_LAYER
            self.write_trace(traced[-1])
        else:
            values = {
                "run_s": run_s,
                "setup_s": statistics.median(c.e2e["setup_s"] for c in untraced),
                "candidates_per_s": statistics.median(
                    c.e2e["candidates_per_s"] for c in calls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END

        attempted += len(checks)
        failed_checks = [name for name, ok in checks if not ok]
        failed += len(failed_checks)
        for name in failed_checks:
            print(f"CHECK FAILED: {name}", file=sys.stderr)
        if trace:
            values["failed_share"] = failed / attempted
        else:
            values["success_share"] = 1.0 - failed / attempted
        return {
            "correct": not failed_checks,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
        }

    def write_trace(self, call: Call) -> None:
        WORK.mkdir(exist_ok=True)
        path = WORK / f"trace-{self.workload}.json"
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "fields": ["id", "parent", "name", "thread", "start", "end", "error", "value"],
            "spans": sorted(call.spans),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sqlsynth" / "pipeline.py").is_file():
        print(f"perfbench: no sqlsynth sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # SQLite spills big sorts to temporary files; keep them inside the
    # checkout. The library reads this once, so set it before sqlite3 loads.
    os.environ["SQLITE_TMPDIR"] = str(run_dir)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sqlsynth.pipeline  # noqa: F401  (loads every layer module)

        result = Bench(args.workload, args.seed, run_dir).run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
