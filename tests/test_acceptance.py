"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print (pytest captures stdout otherwise; failures always show them).
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from sqlsynth.coverage import aggregate_coverage, profile_query
from sqlsynth.evaluation import (
    PredictionMatrix,
    RoutingResult,
    compare_routing,
    route,
    summarize,
)
from sqlsynth.execution import (
    EngineSpec,
    RuntimeLabel,
    SqliteSession,
    apply_retention,
    bucket_runtime,
    execute_batch,
    restrict_dataset,
)
from sqlsynth.mechgen import MechConfig, generate_mechanical
from sqlsynth.pipeline import run_pipeline
from sqlsynth.schema import infer_foreign_keys
from sqlsynth.subschema import JoinGraph, build_join_graph, enumerate_subschemas
from sqlsynth.util import fields_of
from sqlsynth.validation import validate_relevance, validate_syntax

from tests.test_subschema import brute_force_connected_subsets, graph_of

DATA_DIR = Path(__file__).parent / "data"
SAMPLE_DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "tpch_sample"


def _report(number: int, name: str):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            outcome = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number} ({name}): {outcome}")
            return False

    return _Reporter()


# -- 1. subschema enumeration ------------------------------------------------


def test_criterion_1_enumerator_matches_oracle(tpch_catalog_inferred):
    with _report(1, "subschema enumeration vs brute-force oracle"):
        started = time.perf_counter()
        graph = build_join_graph(tpch_catalog_inferred)
        got = {s.tables for s in enumerate_subschemas(graph)}
        expected = brute_force_connected_subsets(graph.nodes, list(graph.edges))
        assert got == expected

        rng = random.Random(187)
        for _ in range(200):
            n = rng.randint(1, 12)
            nodes = [f"t{i:02d}" for i in range(n)]
            pairs = [p for p in combinations(nodes, 2) if rng.random() < 0.3]
            random_graph = graph_of(nodes, pairs)
            got = {s.tables for s in enumerate_subschemas(random_graph)}
            assert got == brute_force_connected_subsets(nodes, pairs)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# The TPC-H specification's foreign keys as table pairs, written out by hand
# so that the expected groupings never come from the catalog under test.
TPCH_TABLES = (
    "customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier",
)
TPCH_SINGLE_COLUMN_FK_PAIRS = (
    ("nation", "region"),
    ("nation", "supplier"),
    ("customer", "nation"),
    ("part", "partsupp"),
    ("partsupp", "supplier"),
    ("customer", "orders"),
    ("lineitem", "orders"),
    ("lineitem", "part"),
    ("lineitem", "supplier"),
)
# lineitem (l_partkey, l_suppkey) -> partsupp (ps_partkey, ps_suppkey) is the
# one composite key; inference matches single-column primary keys only.
TPCH_FK_PAIRS = TPCH_SINGLE_COLUMN_FK_PAIRS + (("lineitem", "partsupp"),)

TPCH_GROUPING_COUNTS = {
    ("declared", "with_singletons"): 98,
    ("declared", "no_singletons"): 90,
    ("inferred", "with_singletons"): 93,
    ("inferred", "no_singletons"): 85,
    ("declared+inferred", "with_singletons"): 98,
    ("declared+inferred", "no_singletons"): 90,
}


def test_criterion_1_reproduce_187_groupings(tpch_catalog, tpch_bare_catalog):
    """Ingest, FK inference, graph building and enumeration reproduce the
    TPC-H table groupings under every (edge provenance, singleton policy).

    For declared-only, inferred-only and declared+inferred edges, with and
    without singletons, the enumerated table sets must equal the brute-force
    oracle over the specification's FK pairs written out above: all ten
    pairs for declared and declared+inferred, the nine single-column pairs
    for inferred-only. Inference must add no table pair to the declared
    graph, and the counts must be 98/90, 93/85 and 98/90.

    The test was first written to find 187 groupings among these six counts.
    187 is not a property of TPC-H, and no document in the repository names
    the schema it was counted on. These derivations were tried on the eight
    TPC-H tables, and none gives 187, or 195 (187 plus the 8 singletons):

    - connected table sets: 98 (10 pairs) and 93 (9 single-column pairs),
      90 and 85 without singletons;
    - connected edge subsets, singletons included: 469 and 213;
    - spanning-tree edge subsets, singletons included: 303 and 180;
    - the 9-pair graph with up to four extra table pairs added.

    The smallest graphs that reach 187 add five pairs, such as
    region-supplier, that no TPC-H column links. A check of the 187 figure
    waits for the schema it was counted on.
    """
    with _report(1, "TPC-H subschema groupings vs specification FK graph"):
        assert tpch_bare_catalog.fk_edges == [], "bare catalog still declares FKs"
        graphs = {
            "declared": build_join_graph(tpch_catalog),
            "inferred": build_join_graph(infer_foreign_keys(tpch_bare_catalog)),
            "declared+inferred": build_join_graph(infer_foreign_keys(tpch_catalog)),
        }
        declared_pairs = set(graphs["declared"].edges)
        union_pairs = set(graphs["declared+inferred"].edges)
        assert union_pairs == declared_pairs, (
            f"inference changed the declared table pairs: "
            f"added {sorted(union_pairs - declared_pairs)}"
        )

        counts, mismatches = {}, []
        for provenance, spec_pairs in (
            ("declared", TPCH_FK_PAIRS),
            ("inferred", TPCH_SINGLE_COLUMN_FK_PAIRS),
            ("declared+inferred", TPCH_FK_PAIRS),
        ):
            graph = graphs[provenance]
            for policy, min_tables in (("with_singletons", 1), ("no_singletons", 2)):
                got = [s.tables for s in enumerate_subschemas(graph, min_tables=min_tables)]
                expected = brute_force_connected_subsets(
                    TPCH_TABLES, spec_pairs, min_size=min_tables
                )
                counts[(provenance, policy)] = len(got)
                if set(got) != expected:
                    mismatches.append(
                        f"{provenance}/{policy}: missing {sorted(expected - set(got))}, "
                        f"extra {sorted(set(got) - expected)}"
                    )
        assert not mismatches, "; ".join(mismatches) + f"; measured: {counts}"
        assert counts == TPCH_GROUPING_COUNTS, f"measured: {counts}"


# -- 2. q-error correctness ----------------------------------------------------


def _oracle_summary(matrix):
    medians, means, p95s = [], [], []
    for engine in matrix.engines:
        errors = np.array(
            [
                max(
                    matrix.pred[(q, engine)] / matrix.true[(q, engine)],
                    matrix.true[(q, engine)] / matrix.pred[(q, engine)],
                )
                for q in matrix.queries
            ]
        )
        medians.append(np.median(errors))
        means.append(np.mean(errors))
        p95s.append(np.percentile(errors, 95))
    return float(np.mean(medians)), float(np.mean(means)), float(np.mean(p95s))


def _random_matrix(rng):
    engines = [f"e{i}" for i in range(rng.randint(1, 3))]
    queries = [f"q{i}" for i in range(rng.randint(1, 10))]
    pred, true = {}, {}
    for q in queries:
        for e in engines:
            pred[(q, e)] = rng.uniform(0.1, 1000.0)
            true[(q, e)] = rng.uniform(0.1, 1000.0)
    return PredictionMatrix(engines=engines, queries=queries, pred=pred, true=true)


def test_criterion_2_q_error_correctness():
    with _report(2, "q-error vs brute-force oracle"):
        started = time.perf_counter()
        rng = random.Random(2)
        for _ in range(1000):
            matrix = _random_matrix(rng)
            summary = summarize(matrix)
            median, mean, p95 = _oracle_summary(matrix)
            assert summary.q_median == pytest.approx(median, rel=1e-12)
            assert summary.q_mean == pytest.approx(mean, rel=1e-12)
            assert summary.q_p95 == pytest.approx(p95, rel=1e-12)

        # perfect predictor: exactly 1.0 on all three aggregates
        values = {(f"q{i}", e): float(i + 1) for i in range(8) for e in ("a", "b")}
        perfect = PredictionMatrix(
            engines=["a", "b"],
            queries=[f"q{i}" for i in range(8)],
            pred=dict(values),
            true=dict(values),
        )
        summary = summarize(perfect)
        assert (summary.q_median, summary.q_mean, summary.q_p95) == (1.0, 1.0, 1.0)

        # constant scale: pred = c * true yields exactly c (power-of-two
        # truths keep the IEEE division exact)
        for c in (1.5, 2.0, 3.25):
            queries = [f"q{i}" for i in range(10)]
            engines = ["a", "b", "c"]
            true = {(q, e): float(2 ** (i % 7)) for i, q in enumerate(queries) for e in engines}
            pred = {k: c * v for k, v in true.items()}
            scaled = PredictionMatrix(engines=engines, queries=queries, pred=pred, true=true)
            summary = summarize(scaled)
            assert (summary.q_median, summary.q_mean, summary.q_p95) == (c, c, c)

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"q-error checks took {elapsed:.1f}s"


# -- 3. routing arithmetic ----------------------------------------------------


def test_criterion_3_routing_arithmetic():
    with _report(3, "routing improvement and scale invariance"):
        minutes = lambda m: RoutingResult(  # noqa: E731 - tiny local helper
            assignments={f"q{i}": "e" for i in range(1000)},
            total_routed_time=float(m),
            oracle_time=float(m),
        )
        improvement = compare_routing(minutes(165), minutes(150))
        assert improvement == pytest.approx(0.0909, abs=1e-4)

        rng = random.Random(3)
        for _ in range(1000):
            matrix = _random_matrix(rng)
            scale = rng.uniform(0.01, 100.0)
            scaled = PredictionMatrix(
                engines=matrix.engines,
                queries=matrix.queries,
                pred={k: v * scale for k, v in matrix.pred.items()},
                true=matrix.true,
            )
            assert route(matrix).assignments == route(scaled).assignments


# -- 4. clause-bias statistics ---------------------------------------------------


def test_criterion_4_clause_bias_statistics(tpch_catalog_inferred):
    with _report(4, "mechanical clause bias measured by the analyzer"):
        started = time.perf_counter()
        graph = build_join_graph(tpch_catalog_inferred)
        subschema = next(
            s for s in enumerate_subschemas(graph) if s.tables == ("nation", "region")
        )

        config = MechConfig(p_group_by=0.9)
        records = generate_mechanical(subschema, tpch_catalog_inferred, config, 10_000, seed=4)
        profiles = [profile_query(r.sql, tpch_catalog_inferred) for r in records]
        report = aggregate_coverage(profiles, "mechanical", tpch_catalog_inferred)
        share = report.clause_presence_freq["group_by"]
        assert 0.87 <= share <= 0.93, f"group_by presence {share:.4f} outside [0.87, 0.93]"

        zero_config = MechConfig(p_group_by=0.0, p_having=0.0)
        zero_records = generate_mechanical(
            subschema, tpch_catalog_inferred, zero_config, 2_000, seed=5
        )
        zero_profiles = [profile_query(r.sql, tpch_catalog_inferred) for r in zero_records]
        zero_report = aggregate_coverage(zero_profiles, "mechanical", tpch_catalog_inferred)
        assert zero_report.clause_presence_freq["group_by"] == 0.0

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"clause-bias check took {elapsed:.1f}s"


# -- 5. validator rules ---------------------------------------------------------


def test_criterion_5_validator_fixture():
    with _report(5, "validator fixture: zero false accepts/rejects"):
        import json

        from sqlsynth.schema import ingest_ddl, profile_columns

        data = json.loads((DATA_DIR / "validator_fixture.json").read_text())

        class Sampler:
            def sample(self, table, column, limit):
                key = f"{table}.{column}"
                if key not in data["samples"]:
                    raise KeyError(key)
                return data["samples"][key][:limit]

        catalog = profile_columns(ingest_ddl(data["ddl"]), Sampler())
        expects = [entry["expect"] for entry in data["queries"]]
        assert len(data["queries"]) == 30
        assert expects.count("label_arithmetic") == 10
        assert expects.count("enum_literal_violation") == 10
        assert expects.count("clean") == 10
        for entry in data["queries"]:
            codes = validate_relevance(validate_syntax(entry["sql"]), catalog)
            if entry["expect"] == "clean":
                assert codes == [], f"false reject: {entry['sql']} -> {codes}"
            else:
                assert codes == [entry["expect"]], f"misclassified: {entry['sql']} -> {codes}"


# -- 6. coverage fixture ----------------------------------------------------------


def test_criterion_6_coverage_fixture(tpch_catalog_inferred):
    with _report(6, "hand-profiled coverage fixture matches exactly"):
        import json

        entries = json.loads((DATA_DIR / "coverage_fixture.json").read_text())["queries"]
        assert len(entries) == 20
        for entry in entries:
            profile = profile_query(entry["sql"], tpch_catalog_inferred)
            assert fields_of(profile) == entry["profile"], entry["sql"]


# -- 7. bucketing and retention -----------------------------------------------------


def test_criterion_7_buckets_and_retention():
    with _report(7, "runtime buckets and empty-result retention"):
        def bucket_of(ms):
            return bucket_runtime(
                RuntimeLabel(query_id="q", engine_id="e", runtime_ms=ms, row_count=1)
            )

        assert bucket_of(999) == "lt_1s"
        assert bucket_of(1_000) == "s1_to_1m"
        assert bucket_of(59_999) == "s1_to_1m"
        assert bucket_of(60_000) == "m1_to_5m"
        assert bucket_of(299_999) == "m1_to_5m"
        assert bucket_of(300_000) == "gt_5m"

        def empty_label(ms):
            return RuntimeLabel(query_id="q", engine_id="e", runtime_ms=ms, row_count=0)

        kept, dropped = apply_retention([empty_label(9_999)])
        assert not kept and len(dropped) == 1
        kept, dropped = apply_retention([empty_label(10_000)])
        assert len(kept) == 1 and not dropped


# -- 8. end-to-end determinism --------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    with _report(8, "stub-backend run is byte-identical and lossless"):
        from sqlsynth.llmgen import StubBackend

        from tests.test_pipeline import base_config, capture_prompts

        stub_dir = tmp_path / "stub"
        config = base_config(
            tmp_path,
            llm={
                "enabled": True,
                "backend": "stub",
                "stub_dir": str(stub_dir),
                "settings": ["0:none", "3:group_by"],
            },
            subschema={"max_tables": 2, "llm_sample_count": 2},
        )
        prompts = capture_prompts(config, monkeypatch, tmp_path)
        assert prompts
        for i, prompt in enumerate(prompts):
            StubBackend.store(
                stub_dir,
                prompt,
                [
                    f"```sql\nSELECT n_name FROM nation WHERE n_nationkey = {i}\n```",
                    "Some prose then SELECT r_name FROM region;",
                ],
            )

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config.out_dir = str(out_a)
        manifest_a = run_pipeline(config)
        config.out_dir = str(out_b)
        manifest_b = run_pipeline(config)

        assert (out_a / "kept.jsonl").read_bytes() == (out_b / "kept.jsonl").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        for batch in manifest_a["batches"]:
            assert batch["generated"] == (
                batch["kept"] + batch["rejected"] + batch["dedup_dropped"]
            )


# -- 9. desk-scale execution ------------------------------------------------------------


def test_criterion_9_desk_scale_execution(tpch_catalog_inferred):
    with _report(9, "50 mechanical queries run clean on the embedded engine"):
        started = time.perf_counter()
        graph = build_join_graph(tpch_catalog_inferred)
        subschemas = enumerate_subschemas(graph)
        rng = random.Random(9)
        chosen = rng.sample(subschemas, 25)
        config = MechConfig(p_group_by=0.4, p_having=0.3, p_where=0.7)
        records = []
        for subschema in chosen:
            records.extend(
                generate_mechanical(subschema, tpch_catalog_inferred, config, 2, seed=9)
            )
        assert len(records) == 50

        session = SqliteSession(":memory:")
        counts = restrict_dataset(tpch_catalog_inferred, SAMPLE_DATA_DIR, session, 40_000)
        assert all(count > 0 for count in counts.values())
        engine = EngineSpec(engine_id="sqlite-desk", driver="sqlite")
        labels = execute_batch(records, engine, timeout_ms=60_000, session=session)
        session.close()

        failures = [label for label in labels if label.error is not None]
        assert not failures, f"engine rejected {len(failures)}: {failures[:3]}"
        assert all(not label.timed_out for label in labels)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"desk-scale execution took {elapsed:.1f}s"
