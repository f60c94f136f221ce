import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schemalens
from schemalens import corpus, metrics
from schemalens.cli import main
from schemalens.corpus import capability_grid, capability_matrix
from schemalens.evaluation import run_comparison
from schemalens.loader import STATE_BUDGET
from schemalens.report import breakdown_grid, score_matrix_grid

from harness import clique_docs, diamond_docs, envelope_mutants, parse_metric_records, write_manifest_dir


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# What argparse prints for --help, for usage errors and for an unknown or
# missing command, at an 80-column terminal: exit code, stdout and stderr.
_CLI_TEXTS = json.loads(Path(__file__).with_name("cli_texts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _CLI_TEXTS, ids=[" ".join(c["argv"]) or "no-arguments" for c in _CLI_TEXTS])
def test_help_and_usage_texts_are_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(case["argv"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_metrics_table_contains_the_width_row(capsys):
    code, out, _ = run_cli(capsys, "metrics")
    assert code == 0
    width_row = next(line for line in out.splitlines() if "docWidth" in line)
    assert ["6", "12", "20"] == width_row.split()[-3:]


def test_metrics_single_schema(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--schema", "lei")
    assert code == 0
    assert "LEI" in out and "ICAR" not in out


@pytest.mark.parametrize("command", ["metrics", "evaluate", "graph"])
def test_a_repeated_schema_name_is_resolved_once(capsys, monkeypatch, command):
    _, once, _ = run_cli(capsys, command, "--schema", "lei")
    calls = []
    real = corpus.resolve

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(corpus, "resolve", counting)
    code, twice, _ = run_cli(capsys, command, "--schema", "lei,lei", "--schema", "lei")
    assert code == 0
    assert calls == ["leiWeightEventSchema.json"]
    assert twice == once


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


def test_coefficients_in_exponent_form_read_as_plain_ones(capsys):
    plain = run_cli(capsys, "metrics", "--coefficients", "1,2,1,3")
    assert plain[0] == 0
    assert run_cli(capsys, "metrics", "--coefficients", "1e0,2,1,3") == plain


def test_metrics_records_round_trip(capsys, manifest, graphs, criteria):
    code, out, _ = run_cli(capsys, "metrics", "--format", "records")
    assert code == 0
    parsed = parse_metric_records(out)
    raw = run_comparison(graphs, criteria, []).raw
    for schema, values in raw.items():
        for criterion_id, value in values.items():
            assert parsed[(schema, criterion_id)] == value


def test_criteria_without_a_type_are_labelled_by_collection_or_bare(capsys, tmp_path, graphs):
    criteria = [{"id": 1, "metric": "colDepth", "collection": "weight"}, {"id": 2, "metric": "nbrCol"}]
    code, out, _ = run_cli(capsys, *_metrics_with_criteria(tmp_path, {"criteria": criteria}), "--format", "records")
    assert code == 0
    records = json.loads(out)
    assert {(r["criterion"], r["target"]) for r in records} == {(1, "colDepth(weight)"), (2, "nbrCol()")}
    assert {(r["schema"], r["criterion"]): r["value"] for r in records} == {
        **{(title, 1): metrics.col_depth(graph, "weight") for title, graph in graphs.items()},
        **{(title, 2): metrics.nbr_col(graph) for title, graph in graphs.items()},
    }


def test_metrics_collection_renames_the_default_collection(capsys):
    _, default, _ = run_cli(capsys, "metrics", "--format", "csv")
    code, renamed, _ = run_cli(capsys, "metrics", "--format", "csv", "--collection", "herd")
    assert code == 0
    assert "weight" in default and renamed == default.replace("weight", "herd")


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


def test_validate_walks_a_directory_as_the_loader_does(capsys, manifest, tmp_path):
    root = tmp_path / "instances"
    shutil.copytree(manifest.root / "scenarios" / "scenario-01", root)
    (root / "sub.json").mkdir()
    (root / "sub.json" / "inner.json").write_text((root / "arrival.json").read_text())
    (root / "broken.json").symlink_to(tmp_path / "missing.json")
    expected = sorted(p for p in root.rglob("*.json") if p.is_file())
    code, out, err = run_cli(capsys, "validate", str(root))
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{path}: valid" for path in expected]
    assert root / "sub.json" / "inner.json" in expected


def test_validate_accepts_a_repeated_schema_name(capsys, manifest):
    files = [str(p) for p in manifest.scenario_files(1)]
    once = run_cli(capsys, "validate", *files)
    assert once[0] == 0
    assert run_cli(capsys, "validate", "--schema", "lei,lei", "--schema", "lei", *files) == once


def test_validate_records_format(capsys, manifest):
    files = [str(p) for p in manifest.scenario_files(4)]
    code, out, _ = run_cli(capsys, "validate", "--format", "records", *files)
    assert code == 0
    records = json.loads(out)
    assert records[0]["valid"] is True
    assert records[0]["violations"] == []


def test_validate_records_of_an_invalid_instance_match_the_table(capsys, tmp_path, scenario_documents):
    _, doc = scenario_documents[0]
    _, mutant = envelope_mutants(doc)[0]
    bad = _write(tmp_path / "bad.json", mutant)
    code, out, _ = run_cli(capsys, "validate", "--format", "records", bad)
    assert code == 1
    [record] = json.loads(out)
    assert (record["file"], record["valid"]) == (bad, False)
    assert record["violations"]
    assert all(list(v) == ["instancePath", "schemaPath", "keyword", "message"] for v in record["violations"])
    code, table, _ = run_cli(capsys, "validate", bad)
    assert code == 1
    rows = [line.split(" ", 4)[2:4] for line in table.splitlines()[1:]]
    assert [(v["instancePath"] or "/", f"[{v['keyword']}]") for v in record["violations"]] == [
        (path, keyword) for path, keyword in rows
    ]


def test_validate_prints_each_path_in_its_normal_form(capsys, manifest, monkeypatch, tmp_path):
    source = manifest.root / "scenarios" / "scenario-01" / "arrival.json"
    (tmp_path / "d").mkdir()
    shutil.copy(source, tmp_path / "a.json")
    shutil.copy(source, tmp_path / "d" / "b.json")
    monkeypatch.chdir(tmp_path)
    paths = ["./a.json", "d//b.json"]
    assert run_cli(capsys, "validate", *paths) == (0, "a.json: valid\nd/b.json: valid\n", "")
    code, out, err = run_cli(capsys, "validate", "--format", "records", *paths)
    assert (code, [record["file"] for record in json.loads(out)], err) == (0, ["a.json", "d/b.json"], "")


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


def _on_manifest(tmp_path, manifest, *argv):
    _write(tmp_path / "manifest.json", manifest)
    return [*argv, "--corpus", str(tmp_path)]


def _metrics_on_manifest(tmp_path, manifest):
    return _on_manifest(tmp_path, manifest, "metrics")


def _metrics_on_manifest_bytes(tmp_path, data):
    (tmp_path / "manifest.json").write_bytes(data)
    return ["metrics", "--corpus", str(tmp_path)]


def _manifest_without(key):
    entry = {"corpus": "corpora/lei", "metric_entry": "m.json", "events": {}}
    del entry[key]
    return {"schemas": {"lei": entry}}


def _manifest_with(**slots):
    return {"schemas": {"lei": {"corpus": "corpora/lei", "metric_entry": "m.json", "events": {}}}, **slots}


def _manifest_with_entry(**slots):
    return {"schemas": {"lei": {"corpus": "corpora/lei", "metric_entry": "m.json", "events": {}, **slots}}}


def _manifest_with_sets(**sets):
    """One schema set per keyword, holding that keyword's extra slots."""
    entry = {"corpus": "corpora/lei", "metric_entry": "m.json", "events": {}}
    return {"schemas": {name: {**entry, **slots} for name, slots in sets.items()}}


def _metrics_on_schema(tmp_path, schema):
    (tmp_path / "k").mkdir()
    _write(tmp_path / "k" / "k.json", schema)
    return _metrics_on_manifest(tmp_path, {"schemas": {"k": {"corpus": "k", "metric_entry": "k.json", "events": {}}}})


def _metrics_with_criteria(tmp_path, criteria):
    return ["metrics", "--criteria", _write(tmp_path / "c.json", criteria)]


def _metrics_with_criterion(tmp_path, **slots):
    return _metrics_with_criteria(tmp_path, {"criteria": [{"id": 1, "metric": "nbrCol", **slots}]})


def _validate_bytes(tmp_path, data):
    (tmp_path / "i.json").write_bytes(data)
    return ["validate", str(tmp_path / "i.json")]


def _validate_recursive(tmp_path, instance):
    # a.json references itself through "n"; validation does not follow it.
    (tmp_path / "r").mkdir()
    schema = {"type": "object", "properties": {"n": {"$ref": "a.json"}, "x": {"type": "string"}}}
    _write(tmp_path / "r" / "a.json", schema)
    entry = {"corpus": "r", "metric_entry": "a.json", "envelope": "a.json", "events": {}}
    _write(tmp_path / "manifest.json", {"schemas": {"r": entry}})
    return ["validate", "--corpus", str(tmp_path), "--schema", "r", _write(tmp_path / "i.json", instance)]


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
        (lambda tmp: ["metrics", "--criteria", _write(tmp / "c.json", {"criteria": [{"id": [1], "metric": "nbrCol"}]})], "'id'"),
        (
            lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", {"cases": [{"name": "x", "weights": {"1": [1]}}]})],
            "'1'",
        ),
        (lambda tmp: ["validate", _write(tmp / "deep.json", "[" * 100_000 + "]" * 100_000)], "recursion"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(scenarios=[])), "'scenarios'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(scenarios={"1": 5})), "'1'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(scenarios={"1": [5]})), "'1'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(collection=[1])), "'collection'"),
        (lambda tmp: _metrics_on_manifest(tmp, {"schemas": {"lei": {"corpus": "c", "metric_entry": "m.json", "events": {}, "title": [1]}}}), "'title'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(case_study_events=[1])), "'label'"),
        (lambda tmp: _metrics_on_manifest(tmp, _manifest_with(case_study_events=[{"label": "a"}])), "'event'"),
        (lambda tmp: _metrics_with_criterion(tmp, type=[1]), "'type'"),
        (lambda tmp: _metrics_with_criterion(tmp, collection=[1]), "'collection'"),
        (lambda tmp: _metrics_with_criterion(tmp, label={}), "'label'"),
        (lambda tmp: _metrics_with_criterion(tmp, direction="sideways"), "'direction'"),
        (lambda tmp: _metrics_with_criterion(tmp, direction=[1]), "'direction'"),
        (lambda tmp: _metrics_with_criteria(tmp, {"collection": [1], "criteria": []}), "'collection'"),
        (
            lambda tmp: _metrics_with_criteria(
                tmp, {"criteria": [{"id": 1, "metric": "nbrCol"}, {"id": "1", "metric": "colDepth"}]}
            ),
            "'id'",
        ),
        (lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", {"cases": []})], "'cases'"),
        (lambda tmp: _validate_recursive(tmp, {"n": 5}), "/n: "),
        (lambda tmp: _metrics_on_schema(tmp, {"oneOf": 1}), "k.json: oneOf must be a list"),
        (
            lambda tmp: _on_manifest(tmp, _manifest_with_entry(envelope=[]), "validate", _write(tmp / "i.json", {})),
            "'envelope'",
        ),
        (
            lambda tmp: _on_manifest(
                tmp,
                {**_manifest_with_entry(events={"birth": ["b.json"]}), "case_study_events": [{"label": "Birth", "event": "birth"}]},
                "capability",
            ),
            "'birth'",
        ),
        (lambda tmp: _metrics_on_manifest(tmp, "{nope"), "manifest.json: not valid JSON"),
        (lambda tmp: _metrics_with_criteria(tmp, "{nope"), "c.json: not valid JSON"),
        (lambda tmp: ["evaluate", "--weights", _write(tmp / "w.json", "{nope")], "w.json: not valid JSON"),
        (
            lambda tmp: [
                "evaluate", "--weights", _write(tmp / "w.json", {"cases": [{"name": "skewed", "weights": {"1": 90}}]})
            ],
            "w.json: weights of case 'skewed' sum to 90.0, not 100",
        ),
        (lambda tmp: _metrics_on_manifest_bytes(tmp, b'{"title": "caf\xe9"}'), "manifest.json: not UTF-8"),
        (lambda tmp: _validate_bytes(tmp, b"\xff{}"), "i.json: not UTF-8: invalid start byte at byte offset 0"),
        (
            lambda tmp: _validate_bytes(tmp, b"[" * 100_000 + b"]" * 100_000),
            "i.json: nested too deeply for the recursion limit",
        ),
        (lambda tmp: ["validate", "--schema", "", _write(tmp / "i.json", {})], "--schema '' names no schema set"),
        (lambda tmp: ["graph", "--schema", ","], "--schema ',' names no schema set"),
        (lambda tmp: ["metrics", "--schema", ""], "--schema '' names no schema set"),
        (lambda tmp: ["evaluate", "--schema", " , "], "--schema ' , ' names no schema set"),
        (lambda tmp: ["graph", "--schema", "lei,isc"], "graph takes one schema set; --schema names lei, isc"),
        (
            lambda tmp: ["validate", "--schema", "lei", "--schema", "icar,lei", _write(tmp / "i.json", {})],
            "validate takes one schema set; --schema names lei, icar",
        ),
        (
            lambda tmp: ["metrics", "--coefficients", "1.0e999,1,1,1"],
            "--coefficients '1.0e999,1,1,1': width coefficients must be positive and finite",
        ),
        (lambda tmp: ["evaluate", "--coefficients", "1,1,-1.0e999,1"], "--coefficients '1,1,-1.0e999,1': "),
        (lambda tmp: ["metrics", "--coefficients", "a,1,1,1"], "--coefficients 'a,1,1,1': 'a' is not a number"),
        (lambda tmp: ["evaluate", "--coefficients", "1,2,x.5,3"], "--coefficients '1,2,x.5,3': 'x.5' is not a number"),
        (
            lambda tmp: _metrics_with_criteria(tmp, "[" * 100_000 + "]" * 100_000),
            "c.json: nested too deeply for the recursion limit",
        ),
        (
            lambda tmp: [
                "evaluate", "--weights", _write(tmp / "w.json", {"cases": [{"name": "Case 1", "weights": {"1": 100}}] * 2})
            ],
            "w.json: key 'name' repeats case 'Case 1'",
        ),
        (
            lambda tmp: _metrics_on_manifest(tmp, _manifest_with_sets(isc={}, icar={"title": "ISC"})),
            "manifest.json: key 'title' repeats schema-set title 'ISC'",
        ),
        (lambda tmp: ["validate", str(Path(_write(tmp / "notes.txt", "{}")).parent)], "no instance files found"),
        (
            lambda tmp: _on_manifest(tmp, _manifest_with_entry(envelope=None), "validate", _write(tmp / "i.json", {})),
            "schema set 'lei' has no instance envelope to validate against",
        ),
    ],
    ids=[
        "criteria", "criterion-metric", "cases", "case-name", "schemas",
        "corpus", "metric_entry", "events", "schema-entry-type", "case-weights-type",
        "criterion-id-type", "weight-value-type", "deep-instance",
        "scenarios-type", "scenario-files-type", "scenario-file-type", "collection-type", "title-type",
        "case-study-row-type", "case-study-event",
        "criterion-type-type", "criterion-collection-type", "criterion-label-type",
        "criterion-direction", "criterion-direction-type", "criteria-collection-type",
        "criterion-id-repeated", "cases-empty", "cycle-stub", "oneOf-type", "envelope-type", "event-file-type",
        "manifest-not-json", "criteria-not-json", "weights-not-json", "weights-not-100", "manifest-not-utf8",
        "instance-not-utf8", "instance-too-deep", "validate-schema-empty", "graph-schema-comma",
        "metrics-schema-empty", "evaluate-schema-blank", "graph-schema-two", "validate-schema-two",
        "coefficients-infinite", "coefficients-negative-infinite",
        "coefficients-not-int", "coefficients-not-float", "criteria-too-deep", "case-name-repeated",
        "title-repeated", "validate-no-instance-files", "envelope-null",
    ],
)
def test_malformed_inputs_exit_2_with_one_line(capsys, tmp_path, make_argv, expected):
    code, _, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("schemalens: error:")
    assert expected in err


@pytest.mark.parametrize("referenced", [False, True], ids=["unreferenced", "referenced"])
def test_a_corpus_file_too_deep_to_parse_fails_only_where_it_is_referenced(capsys, tmp_path, referenced):
    entry = {"type": "object", "properties": {"tag": {"type": "string"}}}
    if referenced:
        entry["properties"]["deep"] = {"$ref": "deep.json"}
    argv = _metrics_on_schema(tmp_path, entry)
    levels = 600
    _write(tmp_path / "k" / "deep.json", '{"properties": {"a": ' * levels + "{}" + "}}" * levels)
    code, _, err = run_cli(capsys, *argv)
    if referenced:
        assert code == 2
        assert err == "schemalens: error: deep.json: nested too deeply\n"
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("referenced", [False, True], ids=["unreferenced", "referenced"])
def test_a_corpus_file_deleted_after_loading_fails_only_where_it_is_referenced(
    capsys, monkeypatch, tmp_path, referenced
):
    entry = {"type": "object", "properties": {"tag": {"type": "string"}}}
    if referenced:
        entry["properties"]["gone"] = {"$ref": "gone.json"}
    argv = _metrics_on_schema(tmp_path, entry)
    gone = tmp_path / "k" / "gone.json"
    _write(gone, {"type": "string"})
    load_corpus = corpus.load_corpus

    def load_then_delete(directory):
        handle = load_corpus(directory)
        gone.unlink()
        return handle

    monkeypatch.setattr(corpus, "load_corpus", load_then_delete)
    code, _, err = run_cli(capsys, *argv)
    assert not gone.exists()
    if referenced:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"schemalens: error: cannot read {gone}: ")
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("instance, expected", [({"x": "ok"}, 0), ({"x": 1}, 1)])
def test_validate_on_a_recursive_schema_away_from_the_cycle(capsys, tmp_path, instance, expected):
    code, _, err = run_cli(capsys, *_validate_recursive(tmp_path, instance))
    assert (code, err) == (expected, "")


# sha256 over (argv, exit code, stdout) of every subcommand in each of its
# output shapes on the bundled data, computed in process. Data-directory and
# tmp_path prefixes are replaced first, so the digest is machine-independent.
GOLDEN_CLI_SHA256 = "97712dd6758d2eaaf71b710190bc2faa49359c32e560de958ff37558ea69188d"

FORMATS = ("table", "csv", "records")


def test_cli_output_matches_golden_digest(capsys, tmp_path, manifest, scenario_documents):
    _, doc = scenario_documents[0]
    _, mutant = envelope_mutants(doc)[0]
    bad = _write(tmp_path / "bad.json", mutant)
    scenarios = str(manifest.root / "scenarios")
    commands = [
        ["metrics"],
        ["metrics", "--format", "csv"],
        ["metrics", "--format", "records"],
        ["metrics", "--type", "eventDateTime"],
        ["metrics", "--type", "nothing"],
        ["metrics", "--coefficients", "1,1,1,1"],
        ["metrics", "--schema", "icar"],
        *(["evaluate", "--format", fmt, *extra] for fmt in FORMATS for extra in ([], ["--breakdown"])),
        ["evaluate", "--chart-data"],
        *(["capability", "--format", fmt] for fmt in FORMATS),
        *(["graph", "--schema", name] for name in ("lei", "icar", "isc")),
        ["validate", scenarios],
        ["validate", "--format", "records", scenarios],
        ["validate", bad],
    ]

    def portable(text):
        return text.replace(str(tmp_path), "<tmp>").replace(str(manifest.root), "<data>")

    rows = []
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        rows.append([[portable(arg) for arg in argv], code, portable(out)])
    assert rows[-1][1] == 1
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GOLDEN_CLI_SHA256


# ------------------------------------------------ graphs too large to unfold

@pytest.fixture(scope="module")
def diamond_30_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("diamond")
    docs, entry = diamond_docs(30, fragments=False)
    (root / "d").mkdir()
    for doc_id, doc in docs.items():
        (root / "d" / doc_id).write_text(json.dumps(doc))
    manifest = {"schemas": {"d": {"corpus": "d", "metric_entry": entry, "events": {}}}}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return str(root)


def test_graph_of_a_depth_30_diamond_exits_2_with_one_line(capsys, diamond_30_dir):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", "--corpus", diamond_30_dir, "--schema", "d")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "'weight'" in err and str(5 * 2**30 - 1) in err


def test_metrics_of_a_depth_30_diamond_exit_0(capsys, diamond_30_dir):
    code, out, err = run_cli(capsys, "metrics", "--corpus", diamond_30_dir, "--format", "records")
    assert (code, err) == (0, "")
    width = next(r for r in json.loads(out) if r["target"] == "docWidth(weight, weight)")
    assert width["value"] == 1 + 2 * 2  # one atomic tag, two embedded parts


# ------------------------------------------ corpora too cyclic to resolve

@pytest.fixture(scope="module")
def clique_16_dir(tmp_path_factory):
    return write_manifest_dir(tmp_path_factory.mktemp("clique"), clique_docs(16), "node0.json")


@pytest.mark.parametrize("command", ["graph", "metrics"])
def test_a_sixteen_document_clique_exits_2_with_one_line(capsys, clique_16_dir, command):
    # 15 * 2^14 states under a cycle stack; resolution stops past the budget
    code, out, err = run_cli(capsys, command, "--corpus", clique_16_dir)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("schemalens: error: node0.json: ")
    assert f"more than {STATE_BUDGET} " in err


_NEW_TOP_LEVEL_MODULES = """
import json, sys
before = set(sys.modules)
import schemalens, schemalens.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_the_runtime_imports_only_the_stdlib():
    # a fresh interpreter, so modules the test run already imported count too
    src = str(Path(schemalens.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_TOP_LEVEL_MODULES], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout)
    assert "schemalens" in new
    assert [m for m in new if m != "schemalens" and m not in sys.stdlib_module_names] == []


_MODULES_AFTER_EACH_IMPORT = """
import json, sys
import schemalens
package = sorted(sys.modules)
import schemalens.cli
print(json.dumps([package, sorted(sys.modules)]))
"""


def test_neither_import_loads_dataclasses_inspect_or_typing():
    # -S: a site hook may import typing before the program does
    src = str(Path(schemalens.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_AFTER_EACH_IMPORT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    package, cli = json.loads(proc.stdout)
    assert "schemalens.metrics" in package and "schemalens.validator" in cli
    for loaded in (package, cli):
        assert [m for m in ("dataclasses", "inspect", "typing") if m in loaded] == []


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from schemalens import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(schemalens.__all__)
    assert all(namespace[name] is getattr(schemalens, name) for name in schemalens.__all__)


def test_the_package_lists_every_public_name_once_in_order():
    names = dir(schemalens)
    assert names == sorted(set(names))
    assert set(schemalens.__all__) | {"__version__"} <= set(names)


# The public names whose module `import schemalens` leaves unloaded.
_LAZY_NAMES = {
    "corpus": ["CorpusManifest", "capability_matrix", "load_manifest"],
    "evaluation": ["CriterionSpec", "WeightCase", "evaluate_schema", "normalize", "run_comparison"],
    "validator": ["ValidationOutcome", "dispatch_event_schema", "validate", "validate_batch"],
}

_IMPORT_CONTRACT = """
import importlib, json, sys
import schemalens
package = sorted(sys.modules)
missing_from_dir = sorted(set(schemalens.__all__) - set(dir(schemalens)))
import schemalens.cli
cli = sorted(sys.modules)
unbound = sorted(set(schemalens.__all__) - set(vars(schemalens)))
lazy = json.loads(sys.argv[1])
same = {
    name: getattr(schemalens, name) is getattr(importlib.import_module("schemalens." + module), name)
    for module, names in lazy.items()
    for name in names
}
print(json.dumps({"package": package, "missing_from_dir": missing_from_dir, "cli": cli, "unbound": unbound, "same": same}))
"""


@pytest.fixture(scope="module")
def fresh_imports():
    """What a fresh interpreter loads at ``import schemalens`` and then at
    ``import schemalens.cli``, and how the lazy names resolve there."""
    src = str(Path(schemalens.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT, json.dumps(_LAZY_NAMES)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_only_loader_graph_and_metrics(fresh_imports):
    deferred = [f"schemalens.{m}" for m in ("corpus", "evaluation", "validator", "report", "cli")]
    assert [m for m in [*deferred, "decimal", "csv", "argparse"] if m in fresh_imports["package"]] == []
    assert {"schemalens.loader", "schemalens.graph", "schemalens.metrics"} <= set(fresh_imports["package"])
    assert fresh_imports["missing_from_dir"] == []


def test_importing_the_cli_loads_every_module(fresh_imports):
    # so an in-process CLI session imports nothing after its start
    package_dir = Path(schemalens.__file__).parent
    every = {"schemalens" if p.stem == "__init__" else f"schemalens.{p.stem}" for p in package_dir.glob("*.py")}
    assert len(every) == 10
    assert every <= set(fresh_imports["cli"])


def test_each_lazy_name_is_its_module_attribute(fresh_imports):
    lazy = sorted(name for names in _LAZY_NAMES.values() for name in names)
    assert fresh_imports["unbound"] == lazy
    assert sorted(fresh_imports["same"]) == lazy and all(fresh_imports["same"].values())


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schemalens.no_such_name


# ------------------------------------------------ random JSON in config slots

_DATA = Path(schemalens.__file__).parent / "data"
_SCENARIO = str(_DATA / "scenarios" / "scenario-03" / "weight.json")

# Keys whose dicts map names to entries: one entry stands for all of them.
_NAME_MAPS = frozenset(["schemas", "events", "scenarios", "weights"])

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)

# What each file is read by: the manifest by every subcommand, each config by
# `evaluate` given its path.
_COMMANDS = {
    "manifest.json": [["metrics"], ["evaluate"], ["capability"], ["graph"], ["validate", _SCENARIO]],
    "configs/criteria.json": [["evaluate", "--criteria"]],
    "configs/weights.json": [["evaluate", "--weights"]],
}

# Fixed examples, few per slot, so the suite's time stays flat.
_SLOT_SETTINGS = settings(derandomize=True, max_examples=4, deadline=None, database=None)


def _slots(document, path=(), parent_key=None):
    """Every position in ``document`` whose value a config reader takes, one
    per shape: the first element of each list and the first entry of each
    name map stand for the others."""
    yield path
    if isinstance(document, list):
        if document:
            yield from _slots(document[0], (*path, 0), None)
    elif isinstance(document, dict):
        entries = list(document.items())
        for key, value in entries[:1] if parent_key in _NAME_MAPS else entries:
            yield from _slots(value, (*path, key), key)


def _with_value(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    holder = document
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return document


def _bundled(name):
    return json.loads((_DATA / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def slot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("slots")
    for name in ("corpora", "scenarios", "configs"):
        (root / name).symlink_to(_DATA / name, target_is_directory=True)
    return root


_SLOT_CASES = [(name, path) for name in _COMMANDS for path in _slots(_bundled(name))]


@pytest.mark.parametrize(
    "name, path", _SLOT_CASES, ids=[f"{name}:/{'/'.join(map(str, path))}" for name, path in _SLOT_CASES]
)
def test_random_json_in_a_config_slot_exits_0_or_2_with_at_most_one_line(slot_dir, name, path):
    original = _bundled(name)

    @_SLOT_SETTINGS
    @given(value=_JSON, command=st.sampled_from(_COMMANDS[name]))
    def run(value, command):
        written = slot_dir / name.rpartition("/")[2]
        written.write_text(json.dumps(_with_value(original, path, value)))
        argv = [*command, "--corpus", str(slot_dir)] if name == "manifest.json" else [*command, str(written)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()

    run()
