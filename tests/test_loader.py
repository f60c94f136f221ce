import pytest

from schemalens.errors import CorpusError, MergeConflict, ParseError, UnknownRef
from schemalens.loader import CYCLE, load_corpus, parse_schema, resolve

from harness import make_corpus


def _count_json_files(directory):
    return sum(1 for p in directory.rglob("*.json") if p.is_file())


def test_bundled_lei_corpus_loads_every_file(manifest):
    schema_set = manifest.schema_set("lei")
    handle = load_corpus(schema_set.corpus_dir)
    assert not handle.errors
    # independent oracle: the filesystem itself
    assert len(handle.documents) == _count_json_files(schema_set.corpus_dir)
    assert len(handle.documents) >= 35  # envelope + 34 event sub-schemas at least


def test_empty_directory_is_a_corpus_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


def test_missing_directory_is_an_io_error(tmp_path):
    from schemalens.errors import IoError

    with pytest.raises(IoError):
        load_corpus(tmp_path / "nowhere")


def test_malformed_file_is_reported_and_others_still_load(tmp_path):
    (tmp_path / "good.json").write_text('{"type": "object"}')
    (tmp_path / "alsogood.json").write_text('{"type": "string"}')
    (tmp_path / "broken.json").write_text('{"type": "obj')  # truncated
    handle = load_corpus(tmp_path)
    assert set(handle.documents) == {"good.json", "alsogood.json"}
    assert len(handle.errors) == 1
    assert handle.errors[0].file_id == "broken.json"


def test_non_object_document_is_a_parse_error(tmp_path):
    (tmp_path / "list.json").write_text("[1, 2, 3]")
    (tmp_path / "ok.json").write_text('{"type": "object"}')
    handle = load_corpus(tmp_path)
    assert "ok.json" in handle.documents
    assert any(e.file_id == "list.json" for e in handle.errors)


def test_event_core_required_set(lei_corpus):
    resolved = resolve(lei_corpus, "eventCore.json")
    assert set(resolved.required) == {"source", "owner", "eventDateTime", "message"}
    assert resolved.additional_allowed is False


def test_self_reference_terminates_with_cycle_marker():
    corpus = make_corpus(
        {"self.json": {"type": "object", "properties": {"again": {"$ref": "self.json"}}}}
    )
    resolved = resolve(corpus, "self.json")
    again = resolved.child_map()["again"]
    assert again.kind == CYCLE
    assert again.cycle_target == "self.json"


def test_cycle_marker_targets_name_a_corpus_document():
    corpus = make_corpus(
        {
            "a.json": {"type": "object", "properties": {"b": {"$ref": "b.json"}}},
            "b.json": {"type": "object", "properties": {"a": {"$ref": "a.json"}}},
        }
    )
    resolved = resolve(corpus, "a.json")
    marker = resolved.child_map()["b"].child_map()["a"]
    assert marker.kind == CYCLE
    assert marker.cycle_target in corpus.documents


def test_allof_disjoint_union_merges_all_properties():
    corpus = make_corpus(
        {
            "entry.json": {
                "type": "object",
                "allOf": [
                    {"properties": {"a": {"type": "string"}, "b": {"type": "number"}}},
                    {"properties": {"c": {"type": "string"}, "d": {"type": "boolean"}}},
                ],
            }
        }
    )
    resolved = resolve(corpus, "entry.json")
    assert sorted(resolved.child_map()) == ["a", "b", "c", "d"]


def test_allof_merge_is_commutative_for_disjoint_branches():
    branch1 = {"properties": {"a": {"type": "string"}}, "required": ["a"]}
    branch2 = {"properties": {"z": {"type": "object", "properties": {"q": {"type": "number"}}}}}
    first = resolve(
        make_corpus({"e.json": {"type": "object", "allOf": [branch1, branch2]}}), "e.json"
    )
    second = resolve(
        make_corpus({"e.json": {"type": "object", "allOf": [branch2, branch1]}}), "e.json"
    )
    # identical up to property order
    first_map = {n: c.structural_key() for n, c in first.children}
    second_map = {n: c.structural_key() for n, c in second.children}
    assert first_map == second_map
    assert sorted(first.required) == sorted(second.required)


def test_allof_conflicting_duplicate_child_raises():
    corpus = make_corpus(
        {
            "e.json": {
                "type": "object",
                "allOf": [
                    {"properties": {"a": {"type": "string"}}},
                    {"properties": {"a": {"type": "number"}}},
                ],
            }
        }
    )
    with pytest.raises(MergeConflict):
        resolve(corpus, "e.json")


def test_allof_same_shape_duplicate_is_fine():
    corpus = make_corpus(
        {
            "e.json": {
                "type": "object",
                "allOf": [
                    {"properties": {"a": {"type": "string"}}},
                    {"properties": {"a": {"type": "string"}}},
                ],
            }
        }
    )
    assert "a" in resolve(corpus, "e.json").child_map()


@pytest.mark.parametrize(
    "schema",
    [
        {  # the host forbids a property that an allOf branch declares
            "additionalProperties": False,
            "properties": {"a": {"type": "string"}},
            "allOf": [{"properties": {"b": {"type": "number"}}}],
        },
        {  # a branch forbids a property that the host declares
            "properties": {"a": {"type": "string"}},
            "allOf": [{"additionalProperties": False, "properties": {"b": {"type": "number"}}}],
        },
    ],
    ids=["host", "branch"],
)
def test_allof_participant_forbidding_a_merged_property_raises(schema):
    # jsonschema evaluates each participant on its own and rejects
    # {"a": "x", "b": 1}; the merged tree would accept it.
    with pytest.raises(MergeConflict):
        resolve(make_corpus({"e.json": schema}), "e.json")


def test_allof_closed_participant_holding_every_merged_property_is_fine():
    corpus = make_corpus(
        {
            "e.json": {
                "additionalProperties": False,
                "properties": {"a": {"type": "string"}, "b": {"type": "number"}},
                "allOf": [{"properties": {"b": {"type": "number"}}, "required": ["b"]}],
            }
        }
    )
    resolved = resolve(corpus, "e.json")
    assert sorted(resolved.child_map()) == ["a", "b"]
    assert resolved.additional_allowed is False


def test_resolution_is_deterministic(lei_corpus):
    first = resolve(lei_corpus, "eventCore.json")
    second = resolve(lei_corpus, "eventCore.json")
    assert first.structural_key() == second.structural_key()


def test_unknown_ref_target():
    corpus = make_corpus(
        {"e.json": {"type": "object", "properties": {"x": {"$ref": "missing.json"}}}}
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


def test_absolute_url_refs_are_rejected():
    corpus = make_corpus(
        {"e.json": {"type": "object", "properties": {"x": {"$ref": "https://example.com/x.json"}}}}
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


def test_refs_escaping_the_corpus_root_are_rejected():
    corpus = make_corpus(
        {"e.json": {"type": "object", "properties": {"x": {"$ref": "../../outside.json"}}}}
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


def test_ref_with_constraint_siblings_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_schema({"$ref": "x.json", "type": "object"}, "inline")


def test_fragment_refs_resolve_within_a_document():
    corpus = make_corpus(
        {
            "e.json": {
                "type": "object",
                "properties": {"x": {"$ref": "lib.json#/$defs/thing"}},
            },
            "lib.json": {
                "$defs": {"thing": {"type": "object", "properties": {"y": {"type": "string"}}}}
            },
        }
    )
    resolved = resolve(corpus, "e.json")
    x = resolved.child_map()["x"]
    assert "y" in x.child_map()
    assert x.ref_names[0] == "thing"


def test_missing_fragment_is_unknown_ref():
    corpus = make_corpus(
        {
            "e.json": {"type": "object", "properties": {"x": {"$ref": "lib.json#/$defs/nope"}}},
            "lib.json": {"$defs": {}},
        }
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


def test_ref_chain_records_every_hop():
    corpus = make_corpus(
        {
            "a.json": {"type": "object", "properties": {"x": {"$ref": "b.json"}}},
            "b.json": {"$ref": "c.json"},
            "c.json": {"type": "object", "properties": {"leaf": {"type": "string"}}},
        }
    )
    x = resolve(corpus, "a.json").child_map()["x"]
    assert x.ref_names == ("b", "c")
    assert x.ref_docs == ("b.json", "c.json")


def test_relative_refs_resolve_against_the_referencing_document(lei_corpus):
    # events/leiWeightEvent.json refs ../ICAR/types/uncefactMassUnitsType.json
    resolved = resolve(lei_corpus, "events/leiWeightEvent.json")
    units = resolved.child_map()["weight"].child_map()["units"]
    assert units.ref_names == ("uncefactMassUnitsType",)
    assert units.enum_values  # the enum was inlined


def test_draft_tag_is_recorded(lei_corpus):
    doc = lei_corpus.get("eventCore.json")
    assert "2019-09" in doc.draft
