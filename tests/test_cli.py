import csv
import io
import json

import pytest

from schemalens.cli import main
from schemalens.corpus import capability_grid, capability_matrix
from schemalens.evaluation import run_comparison
from schemalens.report import breakdown_grid, parse_metric_records, score_matrix_grid

from harness import envelope_mutants


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_metrics_table_contains_the_width_row(capsys):
    code, out, _ = run_cli(capsys, "metrics")
    assert code == 0
    width_row = next(line for line in out.splitlines() if "docWidth" in line)
    assert ["6", "12", "20"] == width_row.split()[-3:]


def test_metrics_single_schema(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--schema", "lei")
    assert code == 0
    assert "LEI" in out and "ICAR" not in out


def test_metrics_type_filter(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--type", "eventDateTime")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("Criterion")]
    assert len(rows) == 1 and "docDepthInCol" in rows[0]


def test_metrics_unit_coefficients_equal_raw_attribute_totals(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--coefficients", "1,1,1,1")
    assert code == 0
    width_row = next(line for line in out.splitlines() if "docWidth" in line)
    # totals recomputed by hand from the fixture level-1 members
    assert ["4", "8", "12"] == width_row.split()[-3:]


def test_metrics_records_round_trip(capsys, manifest, graphs, criteria):
    code, out, _ = run_cli(capsys, "metrics", "--format", "records")
    assert code == 0
    parsed = parse_metric_records(out)
    from schemalens.report import build_metric_report

    report = build_metric_report(graphs, criteria)
    for row in report.rows:
        for schema in report.schemas:
            assert parsed[(schema, row.criterion_id)] == row.values[schema]


def test_metrics_csv_parses(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["criterion", "metric", "LEI", "ICAR", "ISC"]
    assert len(rows) == 9


def test_metrics_missing_corpus_dir_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "metrics", "--corpus", str(tmp_path / "void"))
    assert code == 2
    assert "error" in err


def test_corpus_env_var_fallback(capsys, manifest, monkeypatch):
    monkeypatch.setenv("SCHEMALENS_CORPUS", str(manifest.root))
    code, out, _ = run_cli(capsys, "metrics")
    assert code == 0 and "docWidth" in out


def test_evaluate_default_reproduces_reference_scores(capsys):
    code, out, _ = run_cli(capsys, "evaluate")
    assert code == 0
    lei_row = next(line for line in out.splitlines() if line.startswith("LEI"))
    assert lei_row.split()[1:] == ["89.58", "87.50", "87.50", "87.50", "87.50"]
    isc_row = next(line for line in out.splitlines() if line.startswith("ISC"))
    assert isc_row.split()[1] == "38.13"


def test_evaluate_breakdown_prints_per_criterion_scores(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--breakdown")
    assert code == 0
    assert "0.17" in out and "0.08" in out and "0.05" in out


def test_evaluate_chart_data(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--chart-data")
    assert code == 0
    chart = json.loads(out)
    assert chart["Case 1"] == {"LEI": 89.58, "ICAR": 38.54, "ISC": 38.13}
    assert list(chart) == [f"Case {i}" for i in range(1, 6)]


def test_evaluate_with_custom_single_case(capsys, tmp_path):
    weights = {"cases": [{"name": "Only", "weights": {str(i): 12.5 for i in range(1, 9)}}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(weights))
    code, out, _ = run_cli(capsys, "evaluate", "--weights", str(path))
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0].split() == ["schema", "Only"]
    assert len([l for l in lines if l.startswith(("LEI", "ICAR", "ISC"))]) == 3


def test_evaluate_records_includes_scores(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--format", "records", "--breakdown")
    assert code == 0
    payload = json.loads(out)
    assert {"schema", "case", "score"} <= set(payload["scores"][0])
    assert payload["breakdown"]["LEI"]["6"] == pytest.approx(1 / 6)


def test_validate_all_scenarios_exits_0(capsys, manifest):
    scenario_dir = manifest.root / "scenarios"
    code, out, _ = run_cli(capsys, "validate", str(scenario_dir))
    assert code == 0
    assert out.count(": valid") == 19


def test_validate_mutant_exits_1_with_violation_paths(capsys, manifest, tmp_path, scenario_documents):
    _, doc = scenario_documents[0]
    label, mutant = envelope_mutants(doc)[0]  # drop source
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutant))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "INVALID" in out
    assert "[required]" in out


def test_validate_records_format(capsys, manifest):
    files = [str(p) for p in manifest.scenario_files(4)]
    code, out, _ = run_cli(capsys, "validate", "--format", "records", *files)
    assert code == 0
    records = json.loads(out)
    assert records[0]["valid"] is True
    assert records[0]["violations"] == []


def test_validate_nonexistent_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/instance.json")
    assert code == 2
    assert "error" in err


def test_validate_rejects_non_json(capsys, tmp_path):
    bad = tmp_path / "mangled.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2


def test_capability_table(capsys):
    code, out, _ = run_cli(capsys, "capability")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["event", "LEI", "ICAR", "ISC"]
    castration = next(line for line in lines if line.startswith("Castration"))
    assert castration.split()[-3:] == ["✓", "x", "x"]


def test_capability_csv_equals_the_grid(capsys, manifest):
    code, out, _ = run_cli(capsys, "capability", "--format", "csv")
    assert code == 0
    header, rows = capability_grid(manifest, capability_matrix(manifest))
    assert list(csv.reader(io.StringIO(out))) == [header, *rows]


def test_evaluate_breakdown_csv_equals_both_grids(capsys, graphs, criteria, weight_cases):
    code, out, _ = run_cli(capsys, "evaluate", "--format", "csv", "--breakdown")
    assert code == 0
    result = run_comparison(graphs, criteria, weight_cases)
    score_header, score_rows = score_matrix_grid(result)
    breakdown_header, breakdown_rows = breakdown_grid(result)
    expected = [score_header, *score_rows, breakdown_header, *breakdown_rows]
    assert list(csv.reader(io.StringIO(out))) == expected


def test_capability_records(capsys):
    code, out, _ = run_cli(capsys, "capability", "--format", "records")
    assert code == 0
    assert len(json.loads(out)) == 45


def test_graph_dot_to_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "graph", "--schema", "icar")
    assert code == 0
    assert out.startswith('digraph "ICAR"')
    assert "Collection:weight" in out

    target = tmp_path / "lei.dot"
    code, out, _ = run_cli(capsys, "graph", "--graph-dot", str(target))
    assert code == 0
    assert out == ""
    assert "Collection:weight" in target.read_text()


def test_unknown_schema_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "metrics", "--schema", "agroxml")
    assert code == 2


def test_bad_coefficients_exit_2(capsys):
    code, _, err = run_cli(capsys, "metrics", "--coefficients", "1,2")
    assert code == 2


def _write(path, document):
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    return str(path)


def _metrics_on_manifest(tmp_path, manifest):
    _write(tmp_path / "manifest.json", manifest)
    return ["metrics", "--corpus", str(tmp_path)]


def _manifest_without(key):
    entry = {"corpus": "corpora/lei", "metric_entry": "m.json", "events": {}}
    del entry[key]
    return {"schemas": {"lei": entry}}


@pytest.mark.parametrize(
    "make_argv, expected",
    [
        (lambda tmp: ["metrics", "--criteria", _write(tmp / "c.json", {"collection": "weight"})], "'criteria'"),
        (lambda tmp: ["metrics", "--criteria", _write(tmp / "c.json", {"criteria": [{"id": 1}]})], "'metric'"),
        (lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", {})], "'cases'"),
        (lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", {"cases": [{"weights": {}}]})], "'name'"),
        (lambda tmp: _metrics_on_manifest(tmp, {}), "'schemas'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_without("corpus")), "'corpus'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_without("metric_entry")), "'metric_entry'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_without("events")), "'events'"),
        (lambda tmp: _metrics_on_manifest(tmp, {"schemas": {"lei": []}}), "'lei'"),
        (
            lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", {"cases": [{"name": "x", "weights": [1]}]})],
            "'weights'",
        ),
        (lambda tmp: ["validate", _write(tmp / "deep.json", "[" * 100_000 + "]" * 100_000)], "recursion"),
    ],
    ids=[
        "criteria", "criterion-metric", "cases", "case-name", "schemas",
        "corpus", "metric_entry", "events", "schema-entry-type", "case-weights-type",
        "deep-instance",
    ],
)
def test_malformed_inputs_exit_2_with_one_line(capsys, tmp_path, make_argv, expected):
    code, _, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("schemalens: error:")
    assert expected in err
