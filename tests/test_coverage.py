from __future__ import annotations

import json
from pathlib import Path

import pytest

from sqlsynth.coverage import (
    CoverageTargets,
    aggregate_coverage,
    clause_presence_rows,
    facet_stats_rows,
    plan_regeneration,
    profile_query,
    write_csv,
)
from sqlsynth.errors import EmptyInputError, UnknownObjectError
from sqlsynth.mechgen import MechConfig, generate_mechanical
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.util import fields_of

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
        assert directives.is_empty()

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
