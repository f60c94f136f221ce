"""Weighted multi-criteria evaluation of schema graphs.

A criterion binds one structural metric to a (type, collection) target and a
direction; a weight case assigns each criterion a share of 100 points. Raw
metric values are normalised to [0, 1] per direction, and a schema's score
under a case is the weighted sum of its normalised criterion values.

Normalisation rules (reconstructed: the source material states only that
values are normalised between 0 and 1 and that width translates to a
reciprocal "potential value"):

* absent target          -> 0
* presence               -> 1 if the value is >= 1, else 0
* minimize (count >= 1)  -> 1 / value, so 1 is ideal; 0 maps to the ideal 1
* maximize (copy counts) -> min(1, 1 / value) for positive values, 0 at 0,
  so exactly one copy scores 1; more copies score below 1 (flagged choice:
  the direction's behaviour above one copy is not pinned down elsewhere)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, Sequence

from . import metrics
from .errors import TypeAbsent, UnknownCollection, UnknownCriterionMetric, require
from .graph import MetricGraph
from .metrics import ABSENT, Absent, MetricValue, WidthCoefficients

PRESENCE = "presence"
MAXIMIZE = "maximize"
MINIMIZE = "minimize"

WEIGHT_SUM_TOLERANCE = 0.01  # admits 3 x 6.667 rounding in the bundled cases


@dataclass(frozen=True)
class CriterionSpec:
    id: int
    metric: str
    type_name: str | None = None
    collection: str | None = None
    direction: str = PRESENCE
    label: str = ""

    def target_label(self) -> str:
        if self.type_name and self.collection:
            return f"{self.metric}({self.type_name}, {self.collection})"
        if self.type_name:
            return f"{self.metric}({self.type_name})"
        if self.collection:
            return f"{self.metric}({self.collection})"
        return f"{self.metric}()"


@dataclass(frozen=True)
class WeightCase:
    """A named criterion-to-points assignment.

    Configured cases must distribute 100 points (checked by
    ``validate_total`` when loading; tolerance admits 3 x 6.667 rounding).
    Ad-hoc cases built in code, e.g. for linearity checks, are free."""

    name: str
    weights: Mapping[int, float]

    def weight(self, criterion_id: int) -> float:
        return self.weights.get(criterion_id, 0.0)

    def total(self) -> float:
        return sum(self.weights.values())

    def validate_total(self) -> "WeightCase":
        if abs(self.total() - 100.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError(f"weights of case {self.name!r} sum to {self.total()}, not 100")
        return self


@dataclass
class EvaluationResult:
    schema_name: str
    per_criterion: dict[int, float] = field(default_factory=dict)
    per_case: dict[str, float] = field(default_factory=dict)


@dataclass
class ComparisonResult:
    schemas: list[str]
    cases: list[str]
    criteria: list[CriterionSpec]
    raw: dict[str, dict[int, MetricValue]]
    normalized: dict[str, dict[int, float]]
    totals: dict[str, dict[str, float]]

    def chart_data(self) -> dict[str, dict[str, float]]:
        """case -> schema -> rounded score, ready for external plotting."""
        return {
            case: {schema: round2(self.totals[schema][case]) for schema in self.schemas}
            for case in self.cases
        }


def round2(value: float) -> float:
    """Half-up rounding to two decimals, for display only."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def criterion_value(
    graph: MetricGraph,
    criterion: CriterionSpec,
    coefficients: WidthCoefficients = metrics.DEFAULT_COEFFICIENTS,
) -> MetricValue:
    """Raw metric value for one criterion target, with missing targets
    surfaced as the Absent marker rather than 0."""
    name = criterion.metric
    t = criterion.type_name
    col = criterion.collection
    try:
        if name == "colExistence":
            return metrics.col_existence(graph, t or col or "")
        if name == "docExistence":
            return metrics.doc_existence(graph, col or "", t or "") or ABSENT
        if name in ("docCopies", "docCopiesInCol"):
            return metrics.doc_copies_in_col(graph, t or "", col or "") or ABSENT
        if name == "refLoad":
            return metrics.ref_load(graph, t or col or "")
        if name == "docWidth":
            return metrics.doc_width(graph, t or col or "", col or t or "", coefficients)
        if name == "docDepthInCol":
            return metrics.doc_depth_in_col(graph, col or "", t or "")
        if name == "nbrCol":
            return metrics.nbr_col(graph)
        if name == "colDepth":
            return metrics.col_depth(graph, col or t or "")
        if name == "globalDepth":
            return metrics.global_depth(graph)
        if name == "maxDocDepth":
            return metrics.max_doc_depth(graph, t or "")
        if name == "minDocDepth":
            return metrics.min_doc_depth(graph, t or "")
        if name == "docTypeCopies":
            return metrics.doc_type_copies(graph, t or "")
    except (TypeAbsent, UnknownCollection):
        return ABSENT
    raise UnknownCriterionMetric(f"criterion {criterion.id} uses unknown metric {name!r}")


def normalize(value: MetricValue, direction: str) -> float:
    """Map a raw metric value into [0, 1] for the given direction."""
    if isinstance(value, Absent):
        return 0.0
    v = float(value)
    if direction == PRESENCE:
        return 1.0 if v >= 1 else 0.0
    if direction == MINIMIZE:
        return 1.0 if v <= 0 else min(1.0, 1.0 / v)
    if direction == MAXIMIZE:
        return 0.0 if v <= 0 else min(1.0, 1.0 / v)
    raise ValueError(f"unknown direction {direction!r}")


def evaluate_schema(
    values: Mapping[int, MetricValue],
    criteria: Sequence[CriterionSpec],
    case: WeightCase,
    schema_name: str = "",
) -> EvaluationResult:
    """Weighted sum of normalised criterion values under one weight case."""
    per_criterion: dict[int, float] = {}
    total = 0.0
    for criterion in criteria:
        if criterion.id not in values:
            raise UnknownCriterionMetric(
                f"criterion {criterion.id} ({criterion.metric}) missing from the metric values"
            )
        score = normalize(values[criterion.id], criterion.direction)
        per_criterion[criterion.id] = score
        total += case.weight(criterion.id) * score
    return EvaluationResult(
        schema_name=schema_name,
        per_criterion=per_criterion,
        per_case={case.name: total},
    )


def run_comparison(
    schemas: Mapping[str, MetricGraph] | Sequence[tuple[str, MetricGraph]],
    criteria: Sequence[CriterionSpec],
    cases: Sequence[WeightCase],
    coefficients: WidthCoefficients = metrics.DEFAULT_COEFFICIENTS,
) -> ComparisonResult:
    """Score every schema under every weight case; also keeps the raw and
    normalised per-criterion values for breakdown reporting."""
    pairs = list(schemas.items()) if isinstance(schemas, Mapping) else list(schemas)
    if not pairs or not cases:
        raise ValueError("need at least one schema and one weight case")
    raw: dict[str, dict[int, MetricValue]] = {}
    normalized: dict[str, dict[int, float]] = {}
    totals: dict[str, dict[str, float]] = {}
    for name, graph in pairs:
        values = {c.id: criterion_value(graph, c, coefficients) for c in criteria}
        raw[name] = values
        normalized[name] = {c.id: normalize(values[c.id], c.direction) for c in criteria}
        totals[name] = {}
        for case in cases:
            result = evaluate_schema(values, criteria, case, schema_name=name)
            totals[name][case.name] = result.per_case[case.name]
    return ComparisonResult(
        schemas=[n for n, _ in pairs],
        cases=[c.name for c in cases],
        criteria=list(criteria),
        raw=raw,
        normalized=normalized,
        totals=totals,
    )


def load_criteria(path: str | Path) -> tuple[list[CriterionSpec], str]:
    """Read a criteria config document; returns the specs and the default
    collection name the targets refer to."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = require(data, "criteria", path, list)
    collection = data.get("collection", "")
    criteria = []
    for entry in entries:
        criteria.append(
            CriterionSpec(
                id=int(require(entry, "id", path)),
                metric=require(entry, "metric", path, str),
                type_name=entry.get("type"),
                collection=entry.get("collection"),
                direction=entry.get("direction", PRESENCE),
                label=entry.get("label", ""),
            )
        )
    return criteria, collection


def load_weight_cases(path: str | Path) -> list[WeightCase]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        WeightCase(
            name=require(entry, "name", path, str),
            weights={int(k): float(v) for k, v in require(entry, "weights", path, dict).items()},
        ).validate_total()
        for entry in require(data, "cases", path, list)
    ]
