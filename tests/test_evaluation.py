import json

import pytest

from schemalens import corpus as corpus_mod
from schemalens import metrics
from schemalens.errors import ConfigError, TypeAbsent, UnknownCriterionMetric
from schemalens.evaluation import (
    MAXIMIZE,
    MINIMIZE,
    PRESENCE,
    CriterionSpec,
    WeightCase,
    criterion_value,
    evaluate_schema,
    load_criteria,
    load_weight_cases,
    normalize,
    round2,
    run_comparison,
)
from schemalens.metrics import ABSENT

# Frozen reference values: per-criterion normalised scores for the bundled fixtures.
EXPECTED_CRITERION_SCORES = {
    "LEI": [1, 1, 1, 1, 1, 0.17, 1, 1],
    "ICAR": [1, 0, 0, 0, 1, 0.08, 1, 0],
    "ISC": [1, 0, 0, 0, 1, 0.05, 1, 0],
}

# Frozen reference values: schema x case totals for the bundled fixtures.
EXPECTED_CASE_TOTALS = {
    "LEI": [89.58, 87.50, 87.50, 87.50, 87.50],
    "ICAR": [38.54, 86.25, 86.25, 66.25, 66.25],
    "ISC": [38.13, 85.75, 85.75, 65.75, 65.75],
}


@pytest.fixture(scope="module")
def comparison(graphs, criteria, weight_cases):
    return run_comparison(graphs, criteria, weight_cases)


# ------------------------------------------------------------ normalisation

@pytest.mark.parametrize(
    "value,direction,expected",
    [
        (6, MINIMIZE, 1 / 6),
        (12, MINIMIZE, 1 / 12),
        (20, MINIMIZE, 0.05),
        (1, MINIMIZE, 1.0),
        (0, MINIMIZE, 1.0),
        (ABSENT, MINIMIZE, 0.0),
        (ABSENT, PRESENCE, 0.0),
        (ABSENT, MAXIMIZE, 0.0),
        (1, PRESENCE, 1.0),
        (0, PRESENCE, 0.0),
        (3, PRESENCE, 1.0),
        (0, MAXIMIZE, 0.0),
        (1, MAXIMIZE, 1.0),
        (4, MAXIMIZE, 0.25),
    ],
)
def test_normalize(value, direction, expected):
    assert normalize(value, direction) == pytest.approx(expected)


def test_normalize_rounds_for_display():
    assert round2(normalize(6, MINIMIZE)) == 0.17
    assert round2(normalize(12, MINIMIZE)) == 0.08
    assert round2(normalize(20, MINIMIZE)) == 0.05


def test_normalize_stays_in_unit_interval():
    for direction in (PRESENCE, MAXIMIZE, MINIMIZE):
        for value in (ABSENT, 0, 0.5, 1, 2, 100):
            assert 0.0 <= normalize(value, direction) <= 1.0


def test_normalize_unknown_direction():
    with pytest.raises(ValueError):
        normalize(1, "sideways")


def test_round2_is_half_up():
    assert round2(38.125) == 38.13
    assert round2(89.5833333) == 89.58
    assert round2(0.165) == 0.17


# --------------------------------------------------------------- criterion

def test_criterion_values_render_absent_for_missing_targets(graphs, criteria):
    icar_values = {c.id: criterion_value(graphs["ICAR"], c) for c in criteria}
    assert icar_values[2] is ABSENT
    assert icar_values[3] is ABSENT
    assert icar_values[4] is ABSENT
    assert icar_values[8] is ABSENT
    assert icar_values[6] == 12


# Metric names the bundled criteria file does not use: (metric, type,
# collection, the metrics call it stands for).
_UNBUNDLED_METRICS = [
    ("docCopiesInCol", "id", "weight", lambda g: metrics.doc_copies_in_col(g, "id", "weight")),
    ("nbrCol", None, None, metrics.nbr_col),
    ("colDepth", None, "weight", lambda g: metrics.col_depth(g, "weight")),
    ("globalDepth", None, None, metrics.global_depth),
    ("maxDocDepth", "id", None, lambda g: metrics.max_doc_depth(g, "id")),
    ("minDocDepth", "session", None, lambda g: metrics.min_doc_depth(g, "session")),
    ("docTypeCopies", "id", None, lambda g: metrics.doc_type_copies(g, "id")),
]


def _metric_or_absent(call, graph):
    try:
        return call(graph)
    except TypeAbsent:
        return ABSENT


def test_each_metric_name_of_a_criteria_file_reads_its_metric(tmp_path, manifest):
    entries = [
        {"id": i, "metric": metric, **({"type": t} if t else {}), **({"collection": c} if c else {})}
        for i, (metric, t, c, _) in enumerate(_UNBUNDLED_METRICS, 1)
    ]
    (tmp_path / "criteria.json").write_text(json.dumps({"criteria": entries}))
    criteria, _ = load_criteria(tmp_path / "criteria.json")
    graphs = manifest.graphs()
    raw = run_comparison(graphs, criteria, ()).raw
    for name, graph in graphs.items():
        assert raw[name] == {
            i: _metric_or_absent(call, graph) for i, (*_, call) in enumerate(_UNBUNDLED_METRICS, 1)
        }, name
    assert raw["LEI"] == {1: 3, 2: 1, 3: 4, 4: 4, 5: 5, 6: 2, 7: 1}
    assert raw["ICAR"][6] is ABSENT


def test_unknown_metric_raises(graphs):
    crit = CriterionSpec(id=99, metric="telepathy", type_name="weight")
    with pytest.raises(UnknownCriterionMetric):
        criterion_value(graphs["LEI"], crit)


def test_reference_criterion_scores(comparison):
    for schema, expected in EXPECTED_CRITERION_SCORES.items():
        got = [round2(comparison.normalized[schema][c.id]) for c in comparison.criteria]
        assert got == expected, schema


# --------------------------------------------------------------- evaluation

def test_lei_case1_total(comparison):
    assert comparison.totals["LEI"]["Case 1"] == pytest.approx(89.58, abs=0.01)


def test_icar_case4_total(comparison):
    assert comparison.totals["ICAR"]["Case 4"] == pytest.approx(66.25, abs=0.01)


def test_reference_score_matrix(comparison):
    for schema, expected in EXPECTED_CASE_TOTALS.items():
        for case, value in zip(comparison.cases, expected):
            assert comparison.totals[schema][case] == pytest.approx(value, abs=0.01)


def test_all_zero_weights_scores_zero(graphs, criteria):
    values = {c.id: criterion_value(graphs["LEI"], c) for c in criteria}
    case = WeightCase(name="zero", weights={c.id: 0.0 for c in criteria})
    result = evaluate_schema(values, criteria, case, schema_name="LEI")
    assert result.per_case["zero"] == 0.0


def test_missing_criterion_value_raises(criteria, weight_cases):
    with pytest.raises(UnknownCriterionMetric):
        evaluate_schema({1: 1.0}, criteria, weight_cases[0])


def test_single_schema_single_case(graphs, criteria, weight_cases):
    result = run_comparison({"LEI": graphs["LEI"]}, criteria, weight_cases[:1])
    assert result.schemas == ["LEI"]
    assert result.cases == ["Case 1"]
    assert len(result.totals["LEI"]) == 1


def test_doubling_weights_doubles_every_total(graphs, criteria, weight_cases):
    base = weight_cases[0]
    doubled = WeightCase(name="double", weights={k: 2 * v for k, v in base.weights.items()})
    single = run_comparison(graphs, criteria, [base])
    both = run_comparison(graphs, criteria, [doubled])
    for schema in single.schemas:
        assert both.totals[schema]["double"] == pytest.approx(
            2 * single.totals[schema]["Case 1"]
        )


def test_empty_comparison_rejected(criteria, weight_cases):
    with pytest.raises(ValueError):
        run_comparison({}, criteria, weight_cases)


# ------------------------------------------------------------------ configs

def test_bundled_weight_cases_sum_to_100(weight_cases):
    assert [c.name for c in weight_cases] == [f"Case {i}" for i in range(1, 6)]
    for case in weight_cases:
        assert abs(case.total() - 100.0) <= 0.01
    # case 5 carries the 3 x 6.667 rounding residue and must still load
    assert weight_cases[4].total() == pytest.approx(100.001, abs=1e-9)


def test_misweighted_case_file_is_rejected(tmp_path):
    bad = {"cases": [{"name": "skewed", "weights": {"1": 90.0}}]}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"weights\.json: weights of case 'skewed' sum to 90\.0, not 100$"):
        load_weight_cases(path)


def test_bundled_criteria_shape(criteria):
    assert [c.id for c in criteria] == list(range(1, 9))
    assert [c.metric for c in criteria] == [
        "colExistence", "docCopies", "docCopies", "docCopies",
        "refLoad", "docWidth", "docDepthInCol", "docExistence",
    ]
    assert [c.direction for c in criteria] == [
        "presence", "maximize", "maximize", "maximize",
        "maximize", "minimize", "minimize", "presence",
    ]


def test_criteria_loader_returns_default_collection():
    _, collection = load_criteria(corpus_mod.default_criteria_path())
    assert collection == "weight"


def test_chart_data_shape(comparison):
    chart = comparison.chart_data()
    assert list(chart) == comparison.cases
    assert chart["Case 1"]["LEI"] == 89.58
    assert chart["Case 1"]["ISC"] == 38.13
