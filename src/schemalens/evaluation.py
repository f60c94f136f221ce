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

from collections import namedtuple
from collections.abc import Mapping, Sequence
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from . import metrics
from .errors import (
    ConfigError, Record, TypeAbsent, UnknownCollection, UnknownCriterionMetric, as_number, optional, read_config,
    require,
)
from .graph import MetricGraph
from .metrics import ABSENT, Absent, MetricValue, WidthCoefficients

PRESENCE = "presence"
MAXIMIZE = "maximize"
MINIMIZE = "minimize"
DIRECTIONS = (PRESENCE, MAXIMIZE, MINIMIZE)

WEIGHT_SUM_TOLERANCE = 0.01  # admits 3 x 6.667 rounding in the bundled cases


class CriterionSpec(
    namedtuple("CriterionSpec", "id metric type_name collection direction label", defaults=(None, None, PRESENCE, ""))
):
    __slots__ = ()

    def target_label(self) -> str:
        if self.type_name and self.collection:
            return f"{self.metric}({self.type_name}, {self.collection})"
        if self.type_name:
            return f"{self.metric}({self.type_name})"
        if self.collection:
            return f"{self.metric}({self.collection})"
        return f"{self.metric}()"


class WeightCase(namedtuple("WeightCase", "name weights")):
    """A named criterion-to-points assignment: ``weights`` maps criterion
    ids to points.

    Configured cases must distribute 100 points (checked by
    ``load_weight_cases``; tolerance admits 3 x 6.667 rounding).
    Ad-hoc cases built in code, e.g. for linearity checks, are free."""

    __slots__ = ()

    def weight(self, criterion_id: int) -> float:
        return self.weights.get(criterion_id, 0.0)

    def total(self) -> float:
        return sum(self.weights.values())


class EvaluationResult(Record):
    __slots__ = ("schema_name", "per_criterion", "per_case")

    def __init__(
        self,
        schema_name: str,
        per_criterion: dict[int, float] | None = None,
        per_case: dict[str, float] | None = None,
    ):
        self.schema_name = schema_name
        self.per_criterion = {} if per_criterion is None else per_criterion
        self.per_case = {} if per_case is None else per_case


class ComparisonResult(Record):
    __slots__ = ("schemas", "cases", "criteria", "raw", "normalized", "totals")

    def __init__(
        self,
        schemas: list[str],
        cases: list[str],
        criteria: list[CriterionSpec],
        raw: dict[str, dict[int, MetricValue]],
        normalized: dict[str, dict[int, float]],
        totals: dict[str, dict[str, float]],
    ):
        self.schemas = schemas
        self.cases = cases
        self.criteria = criteria
        self.raw = raw
        self.normalized = normalized
        self.totals = totals

    def chart_data(self) -> dict[str, dict[str, float]]:
        """case -> schema -> rounded score, ready for external plotting."""
        return {
            case: {schema: round2(self.totals[schema][case]) for schema in self.schemas}
            for case in self.cases
        }


def round2(value: float) -> float:
    """Half-up rounding to two decimals, for display only."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# Metric name -> call on (graph, type name, collection, docWidth
# coefficients), with a missing type name or collection passed as "". A
# count of 0 from docExistence or docCopies means the target is absent.
_METRIC_CALLS = {
    "colExistence": lambda g, t, col, cf: metrics.col_existence(g, t or col),
    "docExistence": lambda g, t, col, cf: metrics.doc_existence(g, col, t) or ABSENT,
    "docCopies": lambda g, t, col, cf: metrics.doc_copies_in_col(g, t, col) or ABSENT,
    "docCopiesInCol": lambda g, t, col, cf: metrics.doc_copies_in_col(g, t, col) or ABSENT,
    "refLoad": lambda g, t, col, cf: metrics.ref_load(g, t or col),
    "docWidth": lambda g, t, col, cf: metrics.doc_width(g, t or col, col or t, cf),
    "docDepthInCol": lambda g, t, col, cf: metrics.doc_depth_in_col(g, col, t),
    "nbrCol": lambda g, t, col, cf: metrics.nbr_col(g),
    "colDepth": lambda g, t, col, cf: metrics.col_depth(g, col or t),
    "globalDepth": lambda g, t, col, cf: metrics.global_depth(g),
    "maxDocDepth": lambda g, t, col, cf: metrics.max_doc_depth(g, t),
    "minDocDepth": lambda g, t, col, cf: metrics.min_doc_depth(g, t),
    "docTypeCopies": lambda g, t, col, cf: metrics.doc_type_copies(g, t),
}


def criterion_value(
    graph: MetricGraph,
    criterion: CriterionSpec,
    coefficients: WidthCoefficients = metrics.DEFAULT_COEFFICIENTS,
) -> MetricValue:
    """Raw metric value for one criterion target, with missing targets
    surfaced as the Absent marker rather than 0."""
    call = _METRIC_CALLS.get(criterion.metric)
    if call is None:
        raise UnknownCriterionMetric(f"criterion {criterion.id} uses unknown metric {criterion.metric!r}")
    try:
        return call(graph, criterion.type_name or "", criterion.collection or "", coefficients)
    except (TypeAbsent, UnknownCollection):
        return ABSENT


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
    schemas: Mapping[str, MetricGraph],
    criteria: Sequence[CriterionSpec],
    cases: Sequence[WeightCase],
    coefficients: WidthCoefficients = metrics.DEFAULT_COEFFICIENTS,
) -> ComparisonResult:
    """Score every schema under every weight case; also keeps the raw and
    normalised per-criterion values for the metric table and breakdowns."""
    if not schemas:
        raise ValueError("need at least one schema")
    raw: dict[str, dict[int, MetricValue]] = {}
    normalized: dict[str, dict[int, float]] = {}
    totals: dict[str, dict[str, float]] = {}
    for name, graph in schemas.items():
        raw[name] = values = {c.id: criterion_value(graph, c, coefficients) for c in criteria}
        normalized[name] = {c.id: normalize(values[c.id], c.direction) for c in criteria}
        totals[name] = {
            case.name: evaluate_schema(values, criteria, case, name).per_case[case.name] for case in cases
        }
    return ComparisonResult(
        schemas=list(schemas),
        cases=[c.name for c in cases],
        criteria=list(criteria),
        raw=raw,
        normalized=normalized,
        totals=totals,
    )


def load_criteria(path: str | Path) -> tuple[list[CriterionSpec], str]:
    """Read a criteria config document; returns the specs and the default
    collection name the targets refer to."""
    data = read_config(path)
    entries = require(data, "criteria", path, list)
    collection = optional(data, "collection", path, str, "")
    criteria: list[CriterionSpec] = []
    for entry in entries:
        criterion = CriterionSpec(
            id=as_number(require(entry, "id", path), int, path, "id"),
            metric=require(entry, "metric", path, str),
            type_name=optional(entry, "type", path, str, None),
            collection=optional(entry, "collection", path, str, None),
            direction=optional(entry, "direction", path, str, PRESENCE),
            label=optional(entry, "label", path, str, ""),
        )
        if criterion.direction not in DIRECTIONS:
            raise ConfigError(f"{path}: key 'direction' must be one of {DIRECTIONS}, not {criterion.direction!r}")
        if any(c.id == criterion.id for c in criteria):
            raise ConfigError(f"{path}: key 'id' repeats criterion {criterion.id}")
        criteria.append(criterion)
    return criteria, collection


def load_weight_cases(path: str | Path) -> list[WeightCase]:
    data = read_config(path)
    entries = require(data, "cases", path, list)
    if not entries:
        raise ConfigError(f"{path}: key 'cases' must hold at least one weight case")
    cases = []
    for entry in entries:
        name = require(entry, "name", path, str)
        weights: dict[int, float] = {}
        for key, value in require(entry, "weights", path, dict).items():
            criterion = as_number(key, int, path, key)
            if criterion in weights:
                raise ConfigError(f"{path}: key {key!r} repeats criterion {criterion} in case {name!r}")
            weights[criterion] = as_number(value, float, path, key)
        case = WeightCase(name=name, weights=weights)
        if abs(case.total() - 100.0) > WEIGHT_SUM_TOLERANCE:
            raise ConfigError(f"{path}: weights of case {case.name!r} sum to {case.total()}, not 100")
        if any(c.name == case.name for c in cases):
            raise ConfigError(f"{path}: key 'name' repeats case {case.name!r}")
        cases.append(case)
    return cases
