import json
from collections import Counter

import pytest

from schemalens import corpus as corpus_mod
from schemalens.corpus import (
    FULL,
    PARTIAL,
    UNSUPPORTED,
    capability_grid,
    capability_matrix,
    capability_records,
    load_manifest,
)
from schemalens.errors import ConfigError, CorpusError, UnknownSchema, UnknownScenario
from schemalens.loader import resolve
from schemalens.validator import validate

LEI_EVENTS = [
    "Weight", "Score", "Arrival", "Departure", "Death", "Registration", "Retag",
    "Treatment program", "Treatment", "Diagnosis", "Daily Milking Averages",
    "Feed Intake", "Milking Dry Off", "Milking Visit", "Abortion", "Heat",
    "Insemination", "Parturition", "Pregnancy Check", "Semen Straw",
    "Status Observed", "Lactation Status Observed", "Birth", "Synchronisation",
    "Weaning", "Audit", "Castrate", "Pulse check", "Respiration",
    "Find age by dentition", "Hoof trimming", "Horn tipping", "Dehorning", "Location",
]

# Frozen reference verdicts: 15 case-study events x 3 schemas.
CAPABILITY_ROWS = {
    "Departure": ("∼", "∼", "✓"),
    "Arrival": ("∼", "∼", "✓"),
    "Death": ("∼", "∼", "✓"),
    "Status observed": ("∼", "x", "✓"),
    "Weight": ("∼", "∼", "✓"),
    "Audit": ("x", "x", "✓"),
    "Synchronisation": ("x", "x", "✓"),
    "Insemination": ("∼", "x", "✓"),
    "Pregnancy check": ("∼", "x", "✓"),
    "Birth": ("∼", "x", "✓"),
    "Parturition": ("∼", "x", "✓"),
    "Registration": ("∼", "∼", "✓"),
    "Weaning": ("x", "x", "✓"),
    "Treatment": ("∼", "∼", "✓"),
    "Castration": ("x", "x", "✓"),
}


def test_lei_event_list_is_the_full_34(manifest):
    assert manifest.list_events("lei") == LEI_EVENTS


def test_icar_event_list(manifest):
    events = manifest.list_events("icar")
    assert len(events) == 21
    assert "Insemination" in events
    assert "Castrate" not in events
    assert "Castration" not in events
    # the movement/registration family is part of the fixture event set
    assert {"Death", "Registration", "Arrival", "Departure"} <= set(events)
    assert "Fat" not in events


def test_isc_event_list(manifest):
    events = manifest.list_events("isc")
    assert len(events) == 14
    assert {"Fat", "Condition", "Frame", "Muscle", "Change of ownership", "Retag"} <= set(events)
    assert "Insemination" not in events
    assert "Status Observed" not in events


def test_unknown_schema_raises(manifest):
    with pytest.raises(UnknownSchema):
        manifest.list_events("agroxml")


def test_scenario_1_is_departure_plus_arrival(manifest):
    files = manifest.scenario_files(1)
    assert [p.name for p in files] == ["departure.json", "arrival.json"]
    instances = manifest.scenario_instances(1)
    assert [i["message"]["eventName"] for i in instances] == ["Departure", "Arrival"]


def test_scenario_10_is_parturition_plus_birth(manifest):
    instances = manifest.scenario_instances(10)
    assert [i["message"]["eventName"] for i in instances] == ["Parturition", "Birth"]


def test_scenario_3_has_three_events(manifest):
    instances = manifest.scenario_instances(3)
    assert [i["message"]["eventName"] for i in instances] == [
        "Death", "Status Observed", "Weight",
    ]


def test_unknown_scenario_ids(manifest):
    with pytest.raises(UnknownScenario):
        manifest.scenario_files(0)
    with pytest.raises(UnknownScenario):
        manifest.scenario_files(15)


def test_fourteen_scenarios_bundled(manifest):
    assert sorted(manifest.scenarios) == list(range(1, 15))
    assert len(manifest.all_scenario_files()) == 19


def test_every_scenario_instance_is_lei_valid(manifest, lei_envelope, scenario_documents):
    for path, doc in scenario_documents:
        assert validate(doc, lei_envelope).valid, path


def test_every_lei_event_schema_declares_a_date_property(manifest, lei_corpus):
    schema_set = manifest.schema_set("lei")
    for event, rel in schema_set.events.items():
        resolved = resolve(lei_corpus, rel)
        assert "date" in resolved.child_map(), event


def test_capability_matrix_reproduces_all_15_rows(manifest):
    verdicts = capability_matrix(manifest)
    assert len(verdicts) == 45
    by_key = {(v.schema, v.event): v for v in verdicts}
    for event, (icar, isc, lei) in CAPABILITY_ROWS.items():
        assert by_key[("icar", event)].glyph == icar, event
        assert by_key[("isc", event)].glyph == isc, event
        assert by_key[("lei", event)].glyph == lei, event


def test_capability_spot_verdicts(manifest):
    verdicts = {(v.schema, v.event): v for v in capability_matrix(manifest)}
    castration = verdicts[("lei", "Castration")]
    assert castration.level == FULL and castration.missing == []
    birth = verdicts[("isc", "Birth")]
    assert birth.level == UNSUPPORTED
    weight = verdicts[("icar", "Weight")]
    assert weight.level == PARTIAL and weight.missing == ["source", "owner"]


def test_capability_level_and_missing_are_consistent(manifest):
    for verdict in capability_matrix(manifest):
        if verdict.level == FULL:
            assert verdict.missing == []
        elif verdict.level == PARTIAL:
            assert verdict.missing
        else:
            assert verdict.level == UNSUPPORTED


def test_capability_grid_uses_glyph_legend(manifest):
    verdicts = capability_matrix(manifest)
    header, rows = capability_grid(manifest, verdicts)
    assert header == ["event", "LEI", "ICAR", "ISC"]
    assert len(rows) == 15
    flat = {cell for row in rows for cell in row[1:]}
    assert flat <= {"✓", "∼", "x"}


def test_capability_records_shape(manifest):
    records = capability_records(capability_matrix(manifest))
    assert len(records) == 45
    assert {"schema", "event", "level", "missing"} <= set(records[0])


def test_manifest_missing_directory_raises(tmp_path):
    with pytest.raises(CorpusError):
        load_manifest(tmp_path)


def test_a_scenario_file_that_is_not_json_is_named(tmp_path):
    (tmp_path / "good.json").write_text("{}")
    (tmp_path / "bad.json").write_text("{nope")
    manifest = {"schemas": {}, "scenarios": {"1": ["good.json", "bad.json"]}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=r"bad\.json: not valid JSON: "):
        load_manifest(tmp_path).scenario_instances(1)


def test_manifest_from_explicit_root_matches_bundled(manifest):
    again = load_manifest(manifest.root)
    assert again.schema_names() == manifest.schema_names()
    assert again.collection == manifest.collection


def test_capability_matrix_resolves_each_envelope_once(monkeypatch):
    manifest = load_manifest()
    calls = Counter()
    real_resolve = corpus_mod.resolve

    def counting_resolve(corpus, entry_id):
        calls[(corpus.root_dir, entry_id)] += 1
        return real_resolve(corpus, entry_id)

    monkeypatch.setattr(corpus_mod, "resolve", counting_resolve)
    capability_matrix(manifest)
    expected = {
        (s.corpus_dir, s.envelope or s.events[event])
        for s in manifest.schema_sets.values()
        for _, event in manifest.case_study_events
        if event in s.events
    }
    assert set(calls) == expected
    assert set(calls.values()) == {1}
    lei = manifest.schema_set("lei")
    assert calls[(lei.corpus_dir, "eventCore.json")] == 1
