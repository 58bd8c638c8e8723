from __future__ import annotations

import json
import statistics
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.coverage import (
    CLAUSE_KEYS,
    FACET_KEYS,
    OPERATOR_KEYS,
    PRESENCE_CLAUSES,
    ComplexityProfile,
    CoverageFold,
    CoverageGap,
    CoverageReport,
    CoverageTargets,
    FacetStats,
    RegenDirectives,
    aggregate_coverage,
    clause_presence_rows,
    facet_stats_rows,
    plan_regeneration,
    profile_query,
    profile_tree,
    write_csv,
)
from sqlsynth.errors import EmptyInputError, SqlSyntaxError, UnknownObjectError
from sqlsynth.mechgen import MechConfig, clause_tags, generate_mechanical
from sqlsynth.sqltree import parse_select
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.util import dump_json, fields_of
from sqlsynth.validation import resolve_references

from tests.conftest import probability, sql_texts
from tests.walk_reference import (
    reference_profile,
    reference_tags,
    refers_in_limits,
    without_limits,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fixture_entries():
    return json.loads((DATA_DIR / "coverage_fixture.json").read_text())["queries"]


class TestProfileQuery:
    def test_plain_select(self, tpch_catalog_inferred):
        profile = profile_query("SELECT r_name FROM region", tpch_catalog_inferred)
        assert profile.join_count == 0
        assert profile.clause_counts["select"] == 1
        assert profile.subselect_count == 0
        assert profile.referenced_tables == {"region": 1}
        assert profile.referenced_columns == {"region.r_name": 1}

    def test_group_having_order_hand_count(self, tpch_catalog_inferred):
        profile = profile_query(
            "SELECT r_name, COUNT(*) FROM region GROUP BY r_name "
            "HAVING COUNT(*) > 1 ORDER BY r_name",
            tpch_catalog_inferred,
        )
        assert profile.clause_counts == {
            "select": 1,
            "where": 0,
            "group_by": 1,
            "order_by": 1,
            "having": 1,
            "limit": 0,
        }
        assert profile.function_counts == {"count": 2}
        assert profile.referenced_columns == {"region.r_name": 3}

    def test_subselect_rule(self, tpch_catalog_inferred):
        profile = profile_query(
            "SELECT r_name FROM (SELECT r_name FROM region) s", tpch_catalog_inferred
        )
        assert profile.subselect_count == 1
        assert profile.clause_counts["select"] == 2

    def test_pure_function(self, tpch_catalog_inferred):
        sql = "SELECT n_name FROM nation WHERE n_regionkey IN (1, 2)"
        assert profile_query(sql, tpch_catalog_inferred) == profile_query(
            sql, tpch_catalog_inferred
        )

    def test_unresolved_identifier_raises(self, tpch_catalog_inferred):
        with pytest.raises(UnknownObjectError):
            profile_query("SELECT ghost FROM region", tpch_catalog_inferred)

    def test_fixture_corpus_exact(self, fixture_entries, tpch_catalog_inferred):
        for entry in fixture_entries:
            profile = profile_query(entry["sql"], tpch_catalog_inferred)
            assert fields_of(profile) == entry["profile"], entry["sql"]

    def test_fixture_size(self, fixture_entries):
        assert len(fixture_entries) == 20


class TestAggregate:
    def _profiles(self, catalog, sqls):
        return [profile_query(sql, catalog) for sql in sqls]

    def test_single_profile_stats(self, tpch_catalog_inferred):
        profiles = self._profiles(
            tpch_catalog_inferred,
            ["SELECT n_name, r_name FROM nation INNER JOIN region ON n_regionkey = r_regionkey"],
        )
        report = aggregate_coverage(profiles, "mechanical", tpch_catalog_inferred)
        joins = report.facets["joins"]
        assert (joins.mean, joins.std, joins.min, joins.max) == (1.0, 0.0, 1, 1)

    def test_clause_presence_fraction(self, tpch_catalog_inferred):
        profiles = self._profiles(
            tpch_catalog_inferred,
            [
                "SELECT r_name FROM region GROUP BY r_name",
                "SELECT r_name FROM region",
            ],
        )
        report = aggregate_coverage(profiles, "mechanical", tpch_catalog_inferred)
        assert report.clause_presence_freq["group_by"] == 0.5

    def test_zero_filled_reference_maps(self, tpch_catalog_inferred):
        profiles = self._profiles(tpch_catalog_inferred, ["SELECT r_name FROM region"])
        report = aggregate_coverage(profiles, "mechanical", tpch_catalog_inferred)
        assert set(report.table_reference_freq) == {t.name for t in tpch_catalog_inferred.tables}
        assert report.table_reference_freq["part"] == 0.0
        assert len(report.column_reference_freq) == sum(
            len(t.columns) for t in tpch_catalog_inferred.tables
        )

    def test_untouched_table_becomes_gap(self, tpch_catalog_inferred):
        profiles = self._profiles(tpch_catalog_inferred, ["SELECT r_name FROM region"])
        report = aggregate_coverage(
            profiles,
            "mechanical",
            tpch_catalog_inferred,
            CoverageTargets(min_table_freq=0.05),
        )
        gap = next(g for g in report.gap_list if g.subject == "part")
        assert gap.kind == "table_underused"
        assert gap.observed_freq == 0.0
        assert gap.target_freq == 0.05

    def test_conservation_of_reference_numerators(self, tpch_catalog_inferred):
        sqls = [
            "SELECT r_name FROM region ORDER BY r_name",
            "SELECT n_name, r_name FROM nation INNER JOIN region ON n_regionkey = r_regionkey",
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 3",
        ]
        profiles = self._profiles(tpch_catalog_inferred, sqls)
        report = aggregate_coverage(profiles, "x", tpch_catalog_inferred)
        total = sum(sum(p.referenced_columns.values()) for p in profiles)
        numerators = sum(round(v * total) for v in report.column_reference_freq.values())
        assert numerators == total

    def test_min_le_mean_le_max(self, tpch_catalog_inferred):
        sqls = [
            "SELECT r_name FROM region",
            "SELECT n_name, r_name FROM nation INNER JOIN region ON n_regionkey = r_regionkey",
        ]
        report = aggregate_coverage(
            self._profiles(tpch_catalog_inferred, sqls), "x", tpch_catalog_inferred
        )
        for stats in report.facets.values():
            assert stats.min <= stats.mean <= stats.max

    def test_empty_profiles_rejected(self, tpch_catalog_inferred):
        with pytest.raises(EmptyInputError):
            aggregate_coverage([], "x", tpch_catalog_inferred)

    def test_generator_to_analyzer_link(self, tpch_catalog_inferred):
        # End-to-end: generate with p_group_by = 0.9 and measure presence
        # through the analyzer.
        graph = build_join_graph(tpch_catalog_inferred)
        subschema = next(
            s for s in enumerate_subschemas(graph) if s.tables == ("nation", "region")
        )
        config = MechConfig(p_group_by=0.9)
        records = generate_mechanical(subschema, tpch_catalog_inferred, config, 2000, seed=11)
        profiles = [profile_query(r.sql, tpch_catalog_inferred) for r in records]
        report = aggregate_coverage(profiles, "mechanical", tpch_catalog_inferred)
        assert 0.87 <= report.clause_presence_freq["group_by"] <= 0.93


#: Query shapes the demo texts lack, each counted by the resolver on a path
#: of its own: set-operation ORDER BY terms that are not bare names, comma
#: joins, LIMIT / OFFSET expressions, CTEs, windows, CASE, CAST, EXISTS.
SHAPES = [
    "SELECT a FROM t UNION SELECT b FROM u ORDER BY lower(a)",
    "SELECT r_name FROM region UNION SELECT n_name FROM nation "
    "ORDER BY lower(r_name), (SELECT count(*) FROM nation WHERE n_name LIKE 'A%') DESC",
    "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey",
    "SELECT count(*) FROM nation, region, supplier s JOIN partsupp ON s_suppkey = ps_suppkey",
    "SELECT r_name FROM region LIMIT (SELECT count(*) FROM ghost)",
    "SELECT r_name FROM region LIMIT (SELECT count(*) FROM nation "
    "WHERE n_regionkey BETWEEN 1 AND 2) OFFSET (SELECT max(r_regionkey) FROM region)",
    "SELECT r_name FROM region LIMIT 2 + 1 OFFSET abs(-1)",
    "WITH w AS (SELECT n_regionkey, count(*) AS c FROM nation GROUP BY n_regionkey "
    "HAVING count(*) > 1) SELECT r_name FROM region JOIN w ON w.n_regionkey = r_regionkey "
    "WHERE NOT r_name IN ('A', 'B') OR EXISTS (SELECT 1 FROM nation WHERE n_name LIKE '%A') "
    "ORDER BY r_name LIMIT 3",
    "SELECT CASE WHEN r_regionkey < 2 THEN upper(r_name) ELSE lower(r_name) END, "
    "row_number() OVER (PARTITION BY r_name ORDER BY abs(r_regionkey)) FROM region",
    "SELECT CAST(r_regionkey AS integer) FROM region "
    "WHERE r_name IS NOT NULL AND r_regionkey <> 3 AND r_regionkey NOT BETWEEN 5 AND 6",
    "SELECT x FROM (SELECT r_name AS x FROM region) s WHERE x IN (SELECT n_name FROM nation)",
    "SELECT n_name FROM nation JOIN region USING (r_regionkey) INTERSECT "
    "SELECT r_name FROM region EXCEPT SELECT 'x' ORDER BY 1",
]

def assert_counts_match_the_walk(tree, catalog):
    """The profile read off the resolver's counts equals the profile one walk
    over ``tree`` counts (``tests/walk_reference.py``), with the reference
    multisets of a resolution that skips LIMIT and OFFSET, as the resolver
    once did. References inside LIMIT / OFFSET are the one difference."""
    profile = profile_tree(resolve_references(tree, catalog))
    expected = reference_profile(tree, resolve_references(without_limits(tree), catalog))
    if refers_in_limits(tree):
        assert Counter(profile.referenced_tables) >= Counter(expected.referenced_tables)
        assert Counter(profile.referenced_columns) >= Counter(expected.referenced_columns)
        profile.referenced_tables = expected.referenced_tables
        profile.referenced_columns = expected.referenced_columns
    assert profile == expected


class TestCountsMatchTheWalk:
    """The resolver counts what a walk over the whole tree counts, and
    clause_tags reads what that walk reads."""

    @given(sql_texts | st.sampled_from(SHAPES))
    @settings(max_examples=300, deadline=None)
    def test_texts(self, demo_inputs, sql):
        try:
            tree = parse_select(sql)
        except SqlSyntaxError:
            return
        assert_counts_match_the_walk(tree, demo_inputs[0])
        assert clause_tags(sql) == reference_tags(tree)

    @pytest.mark.parametrize("sql", SHAPES)
    def test_shapes(self, demo_inputs, sql):
        tree = parse_select(sql)
        assert_counts_match_the_walk(tree, demo_inputs[0])
        assert clause_tags(sql) == reference_tags(tree)

    def test_fixture_corpus(self, fixture_entries, tpch_catalog_inferred):
        for entry in fixture_entries:
            tree = parse_select(entry["sql"])
            assert_counts_match_the_walk(tree, tpch_catalog_inferred)
            assert clause_tags(entry["sql"]) == reference_tags(tree)

    @given(
        seed=st.integers(0, 2**31),
        index=st.integers(0, 10_000),
        p_where=probability,
        p_group_by=probability,
        p_having=probability,
        p_order_by=probability,
        p_aggregate=probability,
    )
    @settings(max_examples=60, deadline=None)
    def test_mechanical_trees(
        self, demo_inputs, seed, index, p_where, p_group_by, p_having, p_order_by, p_aggregate
    ):
        catalog, subschemas = demo_inputs
        config = MechConfig(
            p_where=p_where,
            p_group_by=p_group_by,
            p_having=p_having if p_group_by > 0 else 0.0,
            p_order_by=p_order_by,
            p_aggregate=p_aggregate,
        )
        subschema = subschemas[index % len(subschemas)]
        for record in generate_mechanical(subschema, catalog, config, 8, seed=seed):
            assert_counts_match_the_walk(record.tree, catalog)
            assert clause_tags(record.sql) == reference_tags(record.tree)

    def test_limit_references_are_counted(self, demo_inputs):
        profile = profile_query(
            "SELECT r_name FROM region LIMIT (SELECT count(*) FROM nation)", demo_inputs[0]
        )
        assert profile.referenced_tables == {"nation": 1, "region": 1}
        assert profile.clause_counts["select"] == 2 and profile.clause_counts["limit"] == 1
        assert profile.function_counts == {"count": 1}

    def test_set_operation_order_by_counted_not_resolved(self, demo_inputs):
        sql = "SELECT r_name FROM region UNION SELECT n_name FROM nation ORDER BY lower(ghost)"
        refs = resolve_references(parse_select(sql), demo_inputs[0])
        assert refs.codes == []
        assert dict(refs.functions) == {"lower": 1}
        assert refs.clauses["order_by"] == 1


def list_aggregate_coverage(profiles, setting, catalog, targets=None) -> CoverageReport:
    """The list-scanning aggregation that CoverageFold replaced, kept as the
    oracle: statistics.fmean / pstdev over each facet's values."""
    targets = targets or CoverageTargets()
    n = len(profiles)
    totals = [p.facet_totals() for p in profiles]
    facets = {}
    for facet in FACET_KEYS:
        values = [t[facet] for t in totals]
        facets[facet] = FacetStats(
            mean=statistics.fmean(values),
            std=statistics.pstdev(values),
            min=min(values),
            max=max(values),
        )
    clause_presence = {
        clause: sum(1 for p in profiles if p.clause_counts.get(clause, 0) > 0) / n
        for clause in PRESENCE_CLAUSES
    }
    table_occurrences, column_occurrences = Counter(), Counter()
    table_hits, column_hits = Counter(), Counter()
    for profile in profiles:
        table_occurrences.update(profile.referenced_tables)
        column_occurrences.update(profile.referenced_columns)
        table_hits.update(set(profile.referenced_tables))
        column_hits.update(set(profile.referenced_columns))
    all_tables = [t.name for t in catalog.tables]
    all_columns = [f"{t.name}.{c.name}" for t in catalog.tables for c in t.columns]
    total_tables = sum(table_occurrences.values())
    total_columns = sum(column_occurrences.values())
    table_presence = {t: table_hits.get(t, 0) / n for t in all_tables}
    column_presence = {c: column_hits.get(c, 0) / n for c in all_columns}
    gaps = [
        CoverageGap("table_underused", t, table_presence[t], targets.min_table_freq)
        for t in all_tables
        if table_presence[t] < targets.min_table_freq
    ]
    gaps += [
        CoverageGap("column_unused", c, 0.0, targets.min_column_freq)
        for c in all_columns
        if column_presence[c] == 0.0 and targets.min_column_freq > 0
    ]
    gaps += [
        CoverageGap("operation_underused", c, clause_presence[c], targets.min_clause_freq)
        for c in PRESENCE_CLAUSES
        if clause_presence[c] < targets.min_clause_freq
    ]
    return CoverageReport(
        setting=setting,
        query_count=n,
        facets=facets,
        table_reference_freq={
            t: table_occurrences.get(t, 0) / total_tables if total_tables else 0.0
            for t in all_tables
        },
        column_reference_freq={
            c: column_occurrences.get(c, 0) / total_columns if total_columns else 0.0
            for c in all_columns
        },
        table_presence_freq=table_presence,
        column_presence_freq=column_presence,
        clause_presence_freq=clause_presence,
        gap_list=gaps,
    )


TPCH_TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp", "orders")
TPCH_COLUMNS = ("region.r_name", "nation.n_name", "customer.c_acctbal", "orders.o_orderdate")


def counts(keys, values):
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


def profile_lists(values):
    """Lists of profiles whose counts are drawn from ``values``."""
    profile = st.builds(
        ComplexityProfile,
        join_count=values,
        clause_counts=st.fixed_dictionaries({key: values for key in CLAUSE_KEYS}),
        operator_counts=st.fixed_dictionaries({key: values for key in OPERATOR_KEYS}),
        function_counts=counts(("count", "sum", "avg", "min", "max"), values),
        subselect_count=values,
        referenced_tables=counts(TPCH_TABLES, values.filter(bool)),
        referenced_columns=counts(TPCH_COLUMNS, values.filter(bool)),
    )
    one_profile_repeated = st.tuples(profile, st.integers(1, 20)).map(lambda pn: [pn[0]] * pn[1])
    return st.lists(profile, min_size=1, max_size=30) | one_profile_repeated


def written(report) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coverage.json"
        dump_json({"reports": [report]}, path)
        return path.read_bytes()


class TestCoverageFold:
    """CoverageFold (and aggregate_coverage, a fold over a list) writes the
    same bytes as the list-scanning oracle above."""

    small = st.integers(0, 6)
    large = st.integers(0, 10**12)

    @given(profiles=profile_lists(small | large), split=st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_fold_matches_list_aggregation(self, tpch_catalog_inferred, profiles, split):
        catalog = tpch_catalog_inferred
        targets = CoverageTargets(min_clause_freq=0.5, min_table_freq=0.3)
        expected = written(list_aggregate_coverage(profiles, "all", catalog, targets))
        assert written(aggregate_coverage(profiles, "all", catalog, targets)) == expected
        # folded in two batches, as the pipeline folds a growing kept corpus
        fold = CoverageFold()
        fold.add(profiles[:split])
        fold.add(iter(profiles[split:]))
        assert written(fold.report("all", catalog, targets)) == expected

    @pytest.mark.parametrize("values", [[7], [3, 3, 3, 3], [0, 10**12, 5, 10**12 - 1], [1, 2]])
    def test_mean_and_std_bit_identical(self, tpch_catalog_inferred, values):
        profiles = [
            ComplexityProfile(v, {}, {}, {}, 0, {}, {}) for v in values
        ]
        joins = aggregate_coverage(profiles, "x", tpch_catalog_inferred).facets["joins"]
        assert joins.mean == statistics.fmean(values)
        assert joins.std == statistics.pstdev(values)
        assert (joins.min, joins.max) == (min(values), max(values))

    def test_empty_fold_rejected(self, tpch_catalog_inferred):
        with pytest.raises(EmptyInputError):
            CoverageFold().report("x", tpch_catalog_inferred)


class TestPlanRegeneration:
    @pytest.fixture()
    def subschemas(self, tpch_catalog_inferred):
        graph = build_join_graph(tpch_catalog_inferred)
        return enumerate_subschemas(graph, max_tables=2)

    def _report_with(self, catalog, sqls, targets=None):
        profiles = [profile_query(sql, catalog) for sql in sqls]
        return aggregate_coverage(profiles, "mechanical", catalog, targets)

    def test_empty_gaps_empty_directives(self, tpch_catalog_inferred, subschemas):
        report = self._report_with(
            tpch_catalog_inferred,
            ["SELECT r_name FROM region"],
            CoverageTargets(min_table_freq=0.0, min_clause_freq=0.0, min_column_freq=0.0),
        )
        assert report.gap_list == []
        directives = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        assert directives == RegenDirectives()

    def test_table_gap_boosts_containing_subschemas(self, tpch_catalog_inferred, subschemas):
        report = self._report_with(tpch_catalog_inferred, ["SELECT r_name FROM region"])
        directives = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        for subschema in subschemas:
            weight = directives.subschema_weights[subschema.id]
            if "part" in subschema.tables:
                assert weight > 1.0
            assert weight > 0

    def test_operation_gap_sets_bias(self, tpch_catalog_inferred, subschemas):
        report = self._report_with(tpch_catalog_inferred, ["SELECT r_name FROM region"] * 5)
        directives = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        assert directives.bias_override in ("group_by", "order_by")

    def test_having_gap_maps_to_group_by(self, tpch_catalog_inferred, subschemas):
        # Order-by and group-by satisfied; only having lags.
        sqls = (
            ["SELECT r_name, COUNT(*) FROM region GROUP BY r_name ORDER BY r_name"] * 9
            + ["SELECT r_name FROM region"]
        )
        report = self._report_with(tpch_catalog_inferred, sqls)
        directives = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        assert directives.bias_override == "group_by"

    def test_column_gap_filter_keeps_keys(self, tpch_catalog_inferred, subschemas):
        report = self._report_with(tpch_catalog_inferred, ["SELECT n_comment FROM nation"])
        directives = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        nation_filter = directives.column_filters["nation"]
        assert "n_nationkey" in nation_filter  # primary key retained
        assert "n_name" in nation_filter  # unused column spotlighted

    def test_deterministic(self, tpch_catalog_inferred, subschemas):
        report = self._report_with(tpch_catalog_inferred, ["SELECT r_name FROM region"])
        a = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        b = plan_regeneration(report, subschemas, tpch_catalog_inferred)
        assert a == b


class TestExport:
    def test_csv_round_trip(self, tmp_path, tpch_catalog_inferred):
        profiles = [profile_query("SELECT r_name FROM region", tpch_catalog_inferred)]
        report = aggregate_coverage(profiles, "0-shot:none", tpch_catalog_inferred)
        facet_path = tmp_path / "facets.csv"
        write_csv(facet_stats_rows([report]), facet_path)
        lines = facet_path.read_text().strip().splitlines()
        assert lines[0] == "setting,facet,mean,std,min,max"
        assert len(lines) == 5
        clause_path = tmp_path / "clauses.csv"
        write_csv(clause_presence_rows([report]), clause_path)
        assert "group_by" in clause_path.read_text()
