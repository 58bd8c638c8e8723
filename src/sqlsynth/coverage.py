"""Structural profiling of validated queries and corpus-level coverage.

Counting contract (fixed here, used by every metric, and counted by the
reference resolver, :func:`~sqlsynth.validation.resolve_references`, as it
visits each node; a profile reads the counts off its
:class:`~sqlsynth.validation.ResolvedReferences` and walks no tree):

* ``join_count``: explicit JOIN nodes, plus k-1 for each comma-list of k
  relations, summed over all SELECT cores including sub-selects.
* ``clause_counts``: each clause keyword counts once per occurrence,
  including inside sub-selects (``select`` counts SELECT cores; ``order_by``
  and ``limit`` count per query expression carrying them).
* ``operator_counts``: total occurrences in the tree; all comparison
  operators pool into ``comparison``.
* ``function_counts``: every function call by lower-cased name (CAST and
  typed literals are syntax, not functions).
* ``subselect_count``: SELECT cores minus one.
* reference multisets: every resolved occurrence counts, so a column used
  in SELECT, GROUP BY, and ORDER BY counts three times.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyInputError, UnknownObjectError
from .schema import SchemaCatalog
from .sqltree import parse_select
from .validation import REJECT_UNKNOWN_OBJECT, ResolvedReferences, resolve_references

CLAUSE_KEYS = ("select", "where", "group_by", "order_by", "having", "limit")
OPERATOR_KEYS = ("and", "or", "not", "comparison", "in", "between", "like")
FACET_KEYS = ("joins", "clauses", "operators", "functions")
PRESENCE_CLAUSES = ("group_by", "order_by", "having")


@dataclass
class ComplexityProfile:
    join_count: int
    clause_counts: dict[str, int]
    operator_counts: dict[str, int]
    function_counts: dict[str, int]
    subselect_count: int
    referenced_tables: dict[str, int]
    referenced_columns: dict[str, int]

    def facet_totals(self) -> dict:
        return {
            "joins": self.join_count,
            "clauses": sum(self.clause_counts.values()),
            "operators": sum(self.operator_counts.values()),
            "functions": sum(self.function_counts.values()),
        }


def profile_query(sql: str, catalog: SchemaCatalog) -> ComplexityProfile:
    """Profile one query under the counting contract above.

    The one-shot form: parses and resolves ``sql`` itself, then runs
    :func:`profile_tree`. The pipeline does not call it; it profiles each
    accepted candidate from the references its validation already resolved.
    The query must already have passed syntax validation and resolve against
    the catalog; unresolved identifiers raise UnknownObjectError.
    """
    tree = parse_select(sql)
    refs = resolve_references(tree, catalog)
    if REJECT_UNKNOWN_OBJECT in refs.codes:
        raise UnknownObjectError("; ".join(refs.notes) or "unresolved identifier")
    return profile_tree(refs)


def profile_tree(refs: ResolvedReferences) -> ComplexityProfile:
    """Profile a resolved query from the counts its resolution took."""
    return ComplexityProfile(
        join_count=refs.joins + refs.comma_joins,
        clause_counts={key: refs.clauses[key] for key in CLAUSE_KEYS},
        operator_counts={key: refs.operators[key] for key in OPERATOR_KEYS},
        function_counts=dict(sorted(refs.functions.items())),
        subselect_count=refs.clauses["select"] - 1,
        referenced_tables=dict(sorted(refs.tables.items())),
        referenced_columns=dict(sorted(refs.columns.items())),
    )


# ---------------------------------------------------------------------------
# Corpus aggregation
# ---------------------------------------------------------------------------


@dataclass
class FacetStats:
    mean: float
    std: float  # population standard deviation
    min: float
    max: float


@dataclass
class CoverageTargets:
    min_table_freq: float = 0.02  # share of queries that must touch each table
    min_clause_freq: float = 0.10  # share of queries carrying each steerable clause
    min_column_freq: float = 0.005  # columns below this presence count as unused

    def validate(self):
        for name in ("min_table_freq", "min_clause_freq", "min_column_freq"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be finite and within [0, 1], got {value}")


@dataclass
class CoverageGap:
    kind: str  # table_underused | column_unused | operation_underused
    subject: str
    observed_freq: float
    target_freq: float


@dataclass
class CoverageReport:
    setting: str
    query_count: int
    facets: dict[str, FacetStats]
    table_reference_freq: dict  # occurrence share over all table references
    column_reference_freq: dict  # occurrence share over all column references
    table_presence_freq: dict  # share of queries referencing the table
    column_presence_freq: dict
    clause_presence_freq: dict  # group_by / order_by / having presence shares
    gap_list: list[CoverageGap] = field(default_factory=list)


class CoverageFold:
    """Running totals over a growing corpus of profiles.

    :meth:`add` folds in new profiles; :meth:`report` reads the corpus
    report off the totals, so a corpus that grows batch by batch is never
    re-scanned. Facet values are summed, and summed squared, as exact
    integers: the report's mean and standard deviation equal
    ``statistics.fmean`` and ``statistics.pstdev`` over the facet values,
    bit for bit (the mean while each facet value stays below 2**53).
    """

    def __init__(self):
        self.n = 0
        self.facet_sums = dict.fromkeys(FACET_KEYS, 0)
        self.facet_squares = dict.fromkeys(FACET_KEYS, 0)
        self.facet_mins: dict[str, int] = {}
        self.facet_maxes: dict[str, int] = {}
        self.clause_hits = dict.fromkeys(PRESENCE_CLAUSES, 0)
        # name -> references, and name -> profiles referencing it
        self.table_occurrences: dict[str, int] = {}
        self.column_occurrences: dict[str, int] = {}
        self.table_hits: dict[str, int] = {}
        self.column_hits: dict[str, int] = {}

    def add(self, profiles) -> None:
        sums, squares = self.facet_sums, self.facet_squares
        mins, maxes, clause_hits = self.facet_mins, self.facet_maxes, self.clause_hits
        table_occurrences, table_hits = self.table_occurrences, self.table_hits
        column_occurrences, column_hits = self.column_occurrences, self.column_hits
        for profile in profiles:
            first = self.n == 0
            self.n += 1
            values = (  # the facet totals, in FACET_KEYS order
                profile.join_count,
                sum(profile.clause_counts.values()),
                sum(profile.operator_counts.values()),
                sum(profile.function_counts.values()),
            )
            for facet, value in zip(FACET_KEYS, values):
                sums[facet] += value
                squares[facet] += value * value
                if first or value < mins[facet]:
                    mins[facet] = value
                if first or value > maxes[facet]:
                    maxes[facet] = value
            clauses = profile.clause_counts
            for clause in PRESENCE_CLAUSES:
                if clauses.get(clause, 0) > 0:
                    clause_hits[clause] += 1
            for table, count in profile.referenced_tables.items():
                table_occurrences[table] = table_occurrences.get(table, 0) + count
                table_hits[table] = table_hits.get(table, 0) + 1
            for column, count in profile.referenced_columns.items():
                column_occurrences[column] = column_occurrences.get(column, 0) + count
                column_hits[column] = column_hits.get(column, 0) + 1

    def merge(self, other: CoverageFold) -> None:
        """Fold in ``other``'s totals, as if its profiles were added here.
        The totals are exact, so the report is the same whatever the order
        of the profiles and of the merges."""
        if not other.n:
            return
        first = self.n == 0
        self.n += other.n
        for facet in FACET_KEYS:
            self.facet_sums[facet] += other.facet_sums[facet]
            self.facet_squares[facet] += other.facet_squares[facet]
            if first or other.facet_mins[facet] < self.facet_mins[facet]:
                self.facet_mins[facet] = other.facet_mins[facet]
            if first or other.facet_maxes[facet] > self.facet_maxes[facet]:
                self.facet_maxes[facet] = other.facet_maxes[facet]
        for clause in PRESENCE_CLAUSES:
            self.clause_hits[clause] += other.clause_hits[clause]
        for name in ("table_occurrences", "column_occurrences", "table_hits", "column_hits"):
            totals = getattr(self, name)
            for key, count in getattr(other, name).items():
                totals[key] = totals.get(key, 0) + count

    def report(
        self, setting: str, catalog: SchemaCatalog, targets: CoverageTargets | None = None
    ) -> CoverageReport:
        """The corpus report with gap detection.

        Frequency maps are zero-filled over the catalog so untouched tables
        and columns are visible; reference frequencies are occurrence shares
        (their numerators sum to the total reference count), while presence
        frequencies are per-query shares used against the targets.
        """
        if not self.n:
            raise EmptyInputError("cannot aggregate coverage over zero profiles")
        targets = targets or CoverageTargets()
        n = self.n

        facets = {}
        for facet in FACET_KEYS:
            total, squares = self.facet_sums[facet], self.facet_squares[facet]
            variance = Fraction(n * squares - total * total, n * n)
            facets[facet] = FacetStats(
                mean=float(total) / n,
                std=_sqrt_of_fraction(variance.numerator, variance.denominator),
                min=self.facet_mins[facet],
                max=self.facet_maxes[facet],
            )

        clause_presence = {clause: self.clause_hits[clause] / n for clause in PRESENCE_CLAUSES}

        all_tables = [t.name for t in catalog.tables]
        all_columns = [f"{t.name}.{c.name}" for t in catalog.tables for c in t.columns]
        total_table_refs = sum(self.table_occurrences.values())
        total_column_refs = sum(self.column_occurrences.values())
        table_reference_freq = {
            t: (self.table_occurrences.get(t, 0) / total_table_refs if total_table_refs else 0.0)
            for t in all_tables
        }
        column_reference_freq = {
            c: (self.column_occurrences.get(c, 0) / total_column_refs if total_column_refs else 0.0)
            for c in all_columns
        }
        table_presence_freq = {t: self.table_hits.get(t, 0) / n for t in all_tables}
        column_presence_freq = {c: self.column_hits.get(c, 0) / n for c in all_columns}

        gaps: list[CoverageGap] = []
        for table in all_tables:
            observed = table_presence_freq[table]
            if observed < targets.min_table_freq:
                gaps.append(CoverageGap("table_underused", table, observed, targets.min_table_freq))
        for column in all_columns:
            if column_presence_freq[column] == 0.0 and targets.min_column_freq > 0:
                gaps.append(CoverageGap("column_unused", column, 0.0, targets.min_column_freq))
        for clause in PRESENCE_CLAUSES:
            observed = clause_presence[clause]
            if observed < targets.min_clause_freq:
                gaps.append(
                    CoverageGap("operation_underused", clause, observed, targets.min_clause_freq)
                )

        return CoverageReport(
            setting=setting,
            query_count=n,
            facets=facets,
            table_reference_freq=table_reference_freq,
            column_reference_freq=column_reference_freq,
            table_presence_freq=table_presence_freq,
            column_presence_freq=column_presence_freq,
            clause_presence_freq=clause_presence,
            gap_list=gaps,
        )


def _sqrt_of_fraction(numerator: int, denominator: int) -> float:
    """The square root of ``numerator / denominator``, correctly rounded, by
    the method ``statistics.pstdev`` uses for exact data: an integer square
    root carried to 109 bits, rounded to odd, then rounded once to a float."""
    shift = (numerator.bit_length() - denominator.bit_length() - 109) // 2
    if shift >= 0:
        return float(_isqrt_round_to_odd(numerator, denominator << 2 * shift) << shift)
    return _isqrt_round_to_odd(numerator << -2 * shift, denominator) / (1 << -shift)


def _isqrt_round_to_odd(numerator: int, denominator: int) -> int:
    root = math.isqrt(numerator // denominator)
    return root | (root * root * denominator != numerator)


def aggregate_coverage(
    profiles: list[ComplexityProfile],
    setting: str,
    catalog: SchemaCatalog,
    targets: CoverageTargets | None = None,
) -> CoverageReport:
    """Fold per-query profiles into a corpus report with gap detection: one
    :class:`CoverageFold` over ``profiles``."""
    fold = CoverageFold()
    fold.add(profiles)
    return fold.report(setting, catalog, targets)


# ---------------------------------------------------------------------------
# Regeneration directives
# ---------------------------------------------------------------------------


@dataclass
class RegenDirectives:
    subschema_weights: dict = field(default_factory=dict)  # subschema id -> weight > 0
    column_filters: dict = field(default_factory=dict)  # table -> sorted column list
    bias_override: str | None = None


def plan_regeneration(
    report: CoverageReport, subschemas, catalog: SchemaCatalog
) -> RegenDirectives:
    """Turn coverage gaps into concrete steering for the next batch.

    Under-referenced tables raise the sampling weight of every subschema
    containing them (proportionally to the shortfall); unused columns yield
    per-table column filters (the unused columns plus the table's key
    columns, so joins stay expressible); the most underused steerable
    clause becomes the bias override, with ``having`` steered through
    ``group_by`` since HAVING requires grouping. Deterministic given the
    report.
    """
    directives = RegenDirectives()
    if not report.gap_list:
        return directives

    table_gaps = {g.subject: g for g in report.gap_list if g.kind == "table_underused"}
    if table_gaps:
        weights = {}
        for subschema in subschemas:
            weight = 1.0
            for table in subschema.tables:
                gap = table_gaps.get(table)
                if gap is not None:
                    weight += (gap.target_freq - gap.observed_freq) / gap.target_freq
            weights[subschema.id] = weight
        directives.subschema_weights = weights

    unused_by_table: dict[str, list[str]] = {}
    for gap in report.gap_list:
        if gap.kind != "column_unused":
            continue
        table, column = gap.subject.split(".", 1)
        unused_by_table.setdefault(table, []).append(column)
    for table_name, columns in sorted(unused_by_table.items()):
        table = catalog.table(table_name)
        if table is None:
            continue
        keep = set(columns) | set(table.primary_key)
        for fk in catalog.fk_edges:
            if fk.from_table == table_name:
                keep.update(fk.from_columns)
            if fk.to_table == table_name:
                keep.update(fk.to_columns)
        directives.column_filters[table_name] = sorted(keep)

    operation_gaps = [g for g in report.gap_list if g.kind == "operation_underused"]
    if operation_gaps:
        worst = min(
            operation_gaps, key=lambda g: (g.observed_freq / g.target_freq, g.subject)
        )
        directives.bias_override = "group_by" if worst.subject == "having" else worst.subject
    return directives


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def facet_stats_rows(reports: list[CoverageReport]) -> list[dict]:
    rows = []
    for report in reports:
        for facet in FACET_KEYS:
            stats = report.facets[facet]
            rows.append(
                {
                    "setting": report.setting,
                    "facet": facet,
                    "mean": f"{stats.mean:.6g}",
                    "std": f"{stats.std:.6g}",
                    "min": f"{stats.min:g}",
                    "max": f"{stats.max:g}",
                }
            )
    return rows


def clause_presence_rows(reports: list[CoverageReport]) -> list[dict]:
    rows = []
    for report in reports:
        for clause in PRESENCE_CLAUSES:
            rows.append(
                {
                    "setting": report.setting,
                    "clause": clause,
                    "presence": f"{report.clause_presence_freq[clause]:.6g}",
                }
            )
    return rows


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise EmptyInputError("no rows to export")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
