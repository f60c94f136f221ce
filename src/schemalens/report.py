"""Report shaping and rendering: metric tables, score matrices, breakdowns.

Reports come in three formats. ``table`` is aligned text for humans, ``csv``
is the same grid for diffing, and ``records`` is machine-readable JSON that
round-trips: parsing a records dump reproduces the report values exactly
(absent cells carry ``"value": null, "absent": true``).
"""

from __future__ import annotations

import csv
import io

from .evaluation import ComparisonResult, round2
from .metrics import Absent, MetricValue

ABSENT_GLYPH = "-"


def _cell(value: MetricValue) -> str:
    if isinstance(value, Absent):
        return ABSENT_GLYPH
    return str(value)


def render_grid(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header, ["-" * w for w in widths]] + rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def grid_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render(fmt: str, header: list[str], rows: list[list[str]]) -> str:
    """The grid as CSV for ``fmt == "csv"``, else as an aligned table."""
    return grid_csv(header, rows) if fmt == "csv" else render_grid(header, rows)


def metric_report_grid(result: ComparisonResult) -> tuple[list[str], list[list[str]]]:
    header = ["criterion", "metric", *result.schemas]
    rows = [
        [f"Criterion {c.id}", c.target_label(), *(_cell(result.raw[s][c.id]) for s in result.schemas)]
        for c in result.criteria
    ]
    return header, rows


def metric_report_records(result: ComparisonResult) -> list[dict]:
    records = []
    for criterion in result.criteria:
        for schema in result.schemas:
            value = result.raw[schema][criterion.id]
            records.append(
                {
                    "schema": schema,
                    "criterion": criterion.id,
                    "metric": criterion.metric,
                    "target": criterion.target_label(),
                    "value": None if isinstance(value, Absent) else value,
                    "absent": isinstance(value, Absent),
                }
            )
    return records


def score_matrix_grid(result: ComparisonResult) -> tuple[list[str], list[list[str]]]:
    header = ["schema", *result.cases]
    rows = [
        [schema, *(f"{round2(result.totals[schema][case]):.2f}" for case in result.cases)]
        for schema in result.schemas
    ]
    return header, rows


def score_records(result: ComparisonResult) -> list[dict]:
    return [
        {"schema": schema, "case": case, "score": result.totals[schema][case]}
        for schema in result.schemas
        for case in result.cases
    ]


def breakdown_grid(result: ComparisonResult) -> tuple[list[str], list[list[str]]]:
    header = ["criterion", "direction", *result.schemas]
    rows = []
    for criterion in result.criteria:
        rows.append(
            [
                f"Criterion {criterion.id}",
                criterion.direction,
                *(f"{round2(result.normalized[s][criterion.id]):.2f}" for s in result.schemas),
            ]
        )
    return header, rows

