"""Q-error aggregation and prediction-driven routing simulation.

The per-pair error is max(pred/true, true/pred), at least 1, exactly 1 for
a perfect prediction. Aggregation order is fixed: compute the statistic
(median / mean / 95th percentile) per engine over its per-query errors,
then take the arithmetic mean over engines. Percentiles use linear
interpolation on the sorted values; the median of an even-sized set is the
mean of the two middle values.

Routing assigns each query to the engine with the minimum predicted time
(ties broken by engine order) and scores the assignment with the measured
times against the per-query-minimum oracle.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataFileError, DomainError, EmptyInputError, MismatchError
from .util import read_jsonl


@dataclass
class PredictionMatrix:
    engines: list[str]
    queries: list[str]
    pred: dict  # (query_id, engine_id) -> predicted duration > 0
    true: dict  # (query_id, engine_id) -> measured duration > 0

    def validate(self):
        if not self.queries:
            raise EmptyInputError("prediction matrix has no queries")
        if not self.engines:
            raise EmptyInputError("prediction matrix has no engines")
        for query in self.queries:
            for engine in self.engines:
                key = (query, engine)
                for name, mapping in (("pred", self.pred), ("true", self.true)):
                    if key not in mapping:
                        raise MismatchError(f"missing {name} value for {key}")
                    if not mapping[key] > 0:
                        raise DomainError(
                            f"{name} duration for {key} must be > 0, got {mapping[key]}"
                        )


@dataclass
class QErrorSummary:
    q_median: float
    q_mean: float
    q_p95: float
    per_engine: dict  # engine_id -> {"median": .., "mean": .., "p95": ..}


@dataclass
class RoutingResult:
    assignments: dict  # query_id -> engine_id
    total_routed_time: float
    oracle_time: float
    regret: float = field(init=False)  # routed minus oracle time

    def __post_init__(self):
        self.regret = self.total_routed_time - self.oracle_time


def q_error(pred: float, true: float) -> float:
    """max(pred/true, true/pred); symmetric, >= 1, 1 iff pred == true."""
    if pred <= 0 or true <= 0:
        raise DomainError(f"durations must be positive, got pred={pred}, true={true}")
    return max(pred / true, true / pred)


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile on the sorted values."""
    if not values:
        raise EmptyInputError("percentile of empty set")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] + weight * (ordered[upper] - ordered[lower])


def summarize(matrix: PredictionMatrix) -> QErrorSummary:
    """Per-engine median/mean/p95 of q-errors, then mean over engines."""
    matrix.validate()
    per_engine = {}
    for engine in matrix.engines:
        errors = [
            q_error(matrix.pred[(query, engine)], matrix.true[(query, engine)])
            for query in matrix.queries
        ]
        per_engine[engine] = {
            "median": statistics.median(errors),
            "mean": statistics.fmean(errors),
            "p95": percentile(errors, 0.95),
        }
    engine_count = len(matrix.engines)
    return QErrorSummary(
        q_median=sum(stats["median"] for stats in per_engine.values()) / engine_count,
        q_mean=sum(stats["mean"] for stats in per_engine.values()) / engine_count,
        q_p95=sum(stats["p95"] for stats in per_engine.values()) / engine_count,
        per_engine=per_engine,
    )


def route(matrix: PredictionMatrix) -> RoutingResult:
    """Assign each query to its minimum-predicted-time engine.

    Ties break toward the earlier engine in matrix.engines, so assignments
    are deterministic and invariant under positive rescaling of the
    predictions.
    """
    matrix.validate()
    assignments = {}
    total = 0.0
    oracle = 0.0
    for query in matrix.queries:
        best = min(matrix.engines, key=lambda engine: matrix.pred[(query, engine)])
        assignments[query] = best
        total += matrix.true[(query, best)]
        oracle += min(matrix.true[(query, engine)] for engine in matrix.engines)
    return RoutingResult(assignments=assignments, total_routed_time=total, oracle_time=oracle)


def compare_routing(a: RoutingResult, b: RoutingResult) -> float:
    """Signed improvement of b over a: (a.total - b.total) / a.total."""
    if set(a.assignments) != set(b.assignments):
        raise MismatchError("routing results cover different query sets")
    return (a.total_routed_time - b.total_routed_time) / a.total_routed_time


# ---------------------------------------------------------------------------
# Loading and reporting
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("query_id", "engine_id", "predicted_ms", "true_ms")


def load_predictions_csv(path: str | Path) -> PredictionMatrix:
    """Load a (query_id, engine_id, predicted_ms, true_ms) CSV.

    Engine and query order follow first appearance, which also fixes the
    routing tie-break order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise MismatchError(f"{path}: missing columns {sorted(missing)}")
        return _prediction_matrix(path, ((reader.line_num, row) for row in reader))


def load_predictions_jsonl(path: str | Path) -> PredictionMatrix:
    """Load a ``predictions`` JSONL file of the CSV's columns, one row per line."""
    return _prediction_matrix(path, enumerate(read_jsonl(path, "predictions"), start=2))


def _prediction_matrix(path, numbered_rows) -> PredictionMatrix:
    """Fold ``(line number, row)`` pairs into a validated matrix; a row
    missing a column or holding a non-number is a DataFileError naming its
    file and line."""
    engines: list[str] = []
    queries: list[str] = []
    pred: dict = {}
    true: dict = {}
    for lineno, row in numbered_rows:
        try:
            query, engine = row["query_id"], row["engine_id"]
            key = (query, engine)
            pred[key] = float(row["predicted_ms"])
            true[key] = float(row["true_ms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFileError(f"{path}, line {lineno}: bad prediction row ({exc!r})") from exc
        if engine not in engines:
            engines.append(engine)
        if query not in queries:
            queries.append(query)
    matrix = PredictionMatrix(engines=engines, queries=queries, pred=pred, true=true)
    matrix.validate()
    return matrix


def format_summary_table(summaries: dict[str, QErrorSummary]) -> str:
    """Human-readable table: one row per prediction source, aggregate and
    per-engine columns."""
    if not summaries:
        raise EmptyInputError("no summaries to format")
    engines: list[str] = []
    for summary in summaries.values():
        for engine in summary.per_engine:
            if engine not in engines:
                engines.append(engine)
    headers = ["source", "q_median", "q_mean", "q_p95"] + [f"q_mean[{e}]" for e in engines]
    rows = []
    for name, summary in summaries.items():
        row = [name, f"{summary.q_median:.2f}", f"{summary.q_mean:.2f}", f"{summary.q_p95:.2f}"]
        for engine in engines:
            stats = summary.per_engine.get(engine)
            row.append(f"{stats['mean']:.2f}" if stats else "-")
        rows.append(row)
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
