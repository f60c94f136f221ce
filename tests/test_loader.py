import hashlib
import json
import operator
import random
import re

import jsonschema
import pytest

from schemalens import loader
from schemalens.cli import main
from schemalens.errors import CorpusError, IoError, MergeConflict, ParseError, ResolutionTooLarge, UnknownRef
from schemalens.loader import CYCLE, ResolvedNode, load_corpus, parse_schema, resolve
from schemalens.validator import validate

from harness import (
    chain_docs as _chain_docs,
    clique_docs,
    diamond_docs,
    make_corpus,
    random_cyclic_corpus,
    random_ref_corpus,
    reference_validator,
    ring_docs,
    write_manifest_dir,
)

# sha256 over the canonical walk of every resolve() output named in
# test_resolve_output_matches_golden_digest. Any change to a resolved field
# -- provenance, cycle stubs, merge order -- changes it.
GOLDEN_RESOLVE_SHA256 = "4e3789ff8fc80a02d59230b872773fbc3e15ff919de9bd600d71956b05c0e960"
N_REF_CORPORA = 60
N_CYCLIC_CORPORA = 50


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


def test_the_walk_finds_what_rglob_finds(tmp_path):
    root = tmp_path / "corpus"
    for rel in ["a-b.json", "a/b.json", "a/c/d.json", "a/c/.hidden.json", ".hidden.json", "X.JSON",
                "notes.txt", "d.json/inner.json", ".dot/e.json", "locked/away.json"]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text('{"type": "object"}')
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "o.json").write_text('{"type": "string"}')
    (root / "linked-file.json").symlink_to(outside / "o.json")
    (root / "linked-dir").symlink_to(outside, target_is_directory=True)
    (root / "linked-dir.json").symlink_to(outside, target_is_directory=True)
    (root / "broken.json").symlink_to(tmp_path / "missing.json")
    (root / "loop.json").symlink_to(root / "loop.json")
    (root / "locked").chmod(0)  # unreadable unless the tests run as root; both walks agree either way
    try:
        expected = [p.relative_to(root).as_posix() for p in sorted(p for p in root.rglob("*.json") if p.is_file())]
        handle = load_corpus(root)
    finally:
        (root / "locked").chmod(0o755)
    assert list(handle.documents) == expected
    assert not handle.errors
    # the tree exercises each rule
    assert {"a/b.json", ".hidden.json", "d.json/inner.json", "linked-file.json"} <= set(expected)
    assert not {"X.JSON", "broken.json", "loop.json", "linked-dir.json", "linked-dir/o.json"} & set(expected)
    assert expected.index("a/b.json") < expected.index("a-b.json")


def test_a_crlf_syntax_error_reports_the_offset_read_text_reports(tmp_path):
    (tmp_path / "crlf.json").write_bytes(b'{\r\n  "type": "object",\r\n  "required": ["a",,]\r\n}\r\n')
    (tmp_path / "cr.json").write_bytes(b'{\r"type":\r\r"object" "x"}')
    (tmp_path / "ok.json").write_bytes(b'{\r\n  "type": "object"\r\n}\r\n')
    handle = load_corpus(tmp_path)
    assert list(handle.documents) == ["ok.json"]
    assert [e.file_id for e in handle.errors] == ["cr.json", "crlf.json"]
    # untranslated, the CRLF file's error sits two characters later
    assert "invalid JSON at offset 41:" in str(handle.errors[1])
    with pytest.raises(json.JSONDecodeError, match=r"\(char 43\)"):
        json.loads((tmp_path / "crlf.json").read_bytes().decode("utf-8"))
    for error in handle.errors:
        path = tmp_path / error.file_id
        with pytest.raises(json.JSONDecodeError) as read_text:
            json.loads(path.read_text(encoding="utf-8"))
        assert str(error) == f"{error.file_id}: invalid JSON at offset {read_text.value.pos}: {read_text.value.msg}"


def test_a_file_that_is_not_utf8_is_recorded_and_the_rest_load(tmp_path):
    prefix = '{"title": "caf'
    (tmp_path / "latin1.json").write_bytes(f'{prefix}é"}}'.encode("latin-1"))
    (tmp_path / "ok.json").write_text('{"type": "object", "properties": {"x": {"$ref": "latin1.json"}}}')
    (tmp_path / "other.json").write_text('{"type": "string"}')
    handle = load_corpus(tmp_path)
    assert list(handle.documents) == ["ok.json", "other.json"]
    [error] = handle.errors
    assert error.file_id == "latin1.json"
    assert str(error).endswith(f"at byte offset {len(prefix)}")
    resolve(handle, "other.json")
    with pytest.raises(ParseError, match="^latin1.json: not UTF-8"):
        resolve(handle, "ok.json")


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


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "string", "allOf": [{"type": "integer"}]}, "x"),
        ({"allOf": [{"enum": [1, 2]}]}, 1),
        ({"type": "string", "allOf": [{"format": "date-time"}]}, "nope"),
        ({"type": "array", "allOf": [{"items": {"type": "integer"}}]}, ["a"]),
        ({"enum": [1, 2], "allOf": [{"enum": [2, 3]}]}, 1),
        ({"type": "number", "allOf": [{"type": "integer"}]}, 1.5),
        ({"enum": [1, True], "allOf": [{"enum": [True, 3]}, {"enum": [1.0]}]}, 1),
        ({"type": "array", "items": {"type": "integer"}, "allOf": [{"items": {"type": "string"}}]}, [1]),
        ({"enum": [], "allOf": [{"enum": [1]}]}, 1),
    ],
    ids=["type", "branch-enum", "format", "items", "enum-intersection", "integer-number",
         "enum-empty-intersection", "items-conflict", "host-empty-enum"],
)
def test_allof_merges_exactly_or_refuses(tmp_path, schema, instance):
    document = {"$schema": "https://json-schema.org/draft/2019-09/schema", **schema}
    (tmp_path / "s.json").write_text(json.dumps(document))
    try:
        resolved = resolve(make_corpus({"s.json": document}), "s.json")
    except MergeConflict:
        return
    oracle = reference_validator(tmp_path, "s.json")
    assert validate(instance, resolved).valid is oracle.is_valid(instance)


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


def test_broken_references_are_reported_in_site_order():
    # One missing target under each keyword; each resolve reports the first
    # one still missing, in the resolver's site order: allOf comes last,
    # though it is parsed before if/then/else.
    order = ["properties", "items", "oneOf", "if", "then", "else", "allOf"]
    docs = {
        "e.json": {
            "allOf": [{"$ref": "allOf.json"}],
            "else": {"$ref": "else.json"},
            "then": {"$ref": "then.json"},
            "if": {"$ref": "if.json"},
            "oneOf": [{"$ref": "oneOf.json"}],
            "items": {"$ref": "items.json"},
            "properties": {"p": {"$ref": "properties.json"}},
        }
    }
    reported = []
    for _ in order:
        with pytest.raises(UnknownRef, match="^no document '") as info:
            resolve(make_corpus(docs), "e.json")
        missing = re.search(r"no document '(\w+)\.json'", str(info.value)).group(1)
        reported.append(missing)
        docs[f"{missing}.json"] = {}
    assert reported == order
    assert list(resolve(make_corpus(docs), "e.json").child_map()) == ["p"]


def test_absolute_url_refs_are_rejected():
    corpus = make_corpus(
        {"e.json": {"type": "object", "properties": {"x": {"$ref": "https://example.com/x.json"}}}}
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


@pytest.mark.parametrize(
    "ref, message",
    [
        ("/etc/x.json", "absolute path references are rejected: '/etc/x.json'"),
        ("#foo", "unsupported fragment 'foo' in e.json (plain-name anchors not supported)"),
        ("#/required", "reference target is not a schema: e.json#/required: schema must be an object, got list"),
    ],
    ids=["absolute-path", "plain-name-anchor", "not-a-schema"],
)
def test_a_reference_outside_the_subset_is_unknown_ref(ref, message):
    corpus = make_corpus({"e.json": {"type": "object", "required": ["x"], "properties": {"x": {"$ref": ref}}}})
    with pytest.raises(UnknownRef) as info:
        resolve(corpus, "e.json")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "docs, message",
    [
        (
            {"e.json": {"properties": {"x": {"$ref": "#/$defs/x"}}, "$defs": {"x": {"type": "foo"}}}},
            "e.json#/$defs/x: type 'foo' is not a JSON Schema type name",
        ),
        (
            {"e.json": {"properties": {"x": {"$ref": "#/$defs/x"}}, "$defs": {"x": {"anyOf": [{"type": "string"}]}}}},
            "e.json#/$defs/x: keywords ['anyOf'] are outside the supported subset",
        ),
        (
            {
                "e.json": {"properties": {"x": {"$ref": "b.json#/$defs/x"}}},
                "b.json": {"$defs": {"x": {"not": {"type": "string"}}}},
            },
            "b.json#/$defs/x: keywords ['not'] are outside the supported subset",
        ),
    ],
    ids=["unknown-type", "any-of", "not-in-another-file"],
)
def test_a_schema_outside_the_subset_behind_a_fragment_is_a_parse_error(docs, message):
    """The refusal a schema gets in a file of its own, located at the
    fragment: a target that is a schema but outside the subset is no
    broken reference."""
    with pytest.raises(ParseError) as info:
        resolve(make_corpus(docs), "e.json")
    assert (str(info.value), info.value.file_id) == (message, message.partition(":")[0])


def test_an_all_of_branch_that_refers_to_its_own_document_is_a_merge_conflict():
    corpus = make_corpus({"e.json": {"type": "object", "allOf": [{"$ref": "e.json"}]}})
    with pytest.raises(MergeConflict, match="^e.json: allOf branch 0 is a cyclic reference and cannot be merged$"):
        resolve(corpus, "e.json")


def test_a_fragment_indexes_into_a_list():
    docs = {
        "e.json": {"type": "object", "properties": {"x": {"$ref": "lib.json#/oneOf/1"}}},
        "lib.json": {"oneOf": [{"type": "string"}, {"type": "integer"}]},
    }
    x = resolve(make_corpus(docs), "e.json").child_map()["x"]
    assert (x.type_tag, x.doc_id, x.path, x.ref_docs) == ("integer", "lib.json", "/oneOf/1", ("lib.json",))


@pytest.mark.parametrize("token", ["¹", "٠"], ids=["superscript-one", "arabic-indic-zero"])
def test_a_fragment_index_is_ascii_digits_only(token):
    # str.isdigit() holds for both; int() refuses the first and reads the
    # second as 0.
    docs = {
        "e.json": {"type": "object", "properties": {"x": {"$ref": f"lib.json#/oneOf/{token}"}}},
        "lib.json": {"oneOf": [{"type": "string"}, {"type": "integer"}]},
    }
    with pytest.raises(UnknownRef, match=f"^fragment {re.escape(repr(f'/oneOf/{token}'))} not found in lib.json$"):
        resolve(make_corpus(docs), "e.json")
    # a leading zero still indexes, as it does for the oracle
    docs["e.json"]["properties"]["x"]["$ref"] = "lib.json#/oneOf/01"
    assert resolve(make_corpus(docs), "e.json").child_map()["x"].type_tag == "integer"


def test_refs_escaping_the_corpus_root_are_rejected():
    corpus = make_corpus(
        {"e.json": {"type": "object", "properties": {"x": {"$ref": "../../outside.json"}}}}
    )
    with pytest.raises(UnknownRef):
        resolve(corpus, "e.json")


def test_a_document_named_with_two_leading_dots_can_be_referenced():
    docs = {
        "e.json": {"type": "object", "properties": {"x": {"$ref": "..a.json"}, "y": {"$ref": "sub/f.json"}}},
        "..a.json": {"type": "string"},
        "sub/f.json": {"$ref": "../..a.json"},
    }
    tree = resolve(make_corpus(docs), "e.json")
    assert [(name, child.type_tag, child.ref_docs) for name, child in tree.children] == [
        ("x", "string", ("..a.json",)),
        ("y", "string", ("sub/f.json", "..a.json")),
    ]
    for escaping in ("../x.json", "..", "sub/../../x.json"):
        corpus = make_corpus({"e.json": {"$ref": escaping}, "x.json": {}})
        with pytest.raises(UnknownRef, match="reference escapes the corpus root"):
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


def _distinct_nodes(root: ResolvedNode) -> list[ResolvedNode]:
    seen: dict[int, ResolvedNode] = {}
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        pending.extend(child for _, child in node.children)
        pending.extend(b for group in node.one_of_groups for b in group)
        pending.extend(p for cond in node.conditionals for p in cond if p is not None)
        if node.item is not None:
            pending.append(node.item)
    return list(seen.values())


def test_resolved_nodes_are_the_immutable_records_the_constructor_builds(lei_envelope):
    nodes = _distinct_nodes(lei_envelope)
    assert len(nodes) > 100
    for node in nodes:
        rebuilt = ResolvedNode(**{name: getattr(node, name) for name in node._fields})
        assert all(getattr(rebuilt, name) is getattr(node, name) for name in node._fields)
        moved = node._replace(path="x")
        assert moved.path == "x"
        back = moved._replace(path=node.path)
        assert all(getattr(back, name) is getattr(node, name) for name in node._fields)
        with pytest.raises(AttributeError):
            node.path = "x"
        with pytest.raises(AttributeError):
            node.kind = "x"
        assert node.checks is node.checks
        assert node.structural_key() is node.structural_key()
        assert node.structural_key() == rebuilt.structural_key()


def test_resolved_nodes_are_identities(lei_corpus):
    first, second = resolve(lei_corpus, "eventCore.json"), resolve(lei_corpus, "eventCore.json")
    assert first != second
    assert first.structural_key() == second.structural_key()
    assert len({first, second}) == 2
    for method in ("__eq__", "__hash__", "__repr__"):
        assert getattr(ResolvedNode, method) is getattr(object, method)
    # On a depth-30 diamond a field-wise ==, hash or repr would unfold 2^30
    # paths; by identity each is constant work.
    docs, entry = diamond_docs(30, False)
    corpus = make_corpus(docs)
    root, again = resolve(corpus, entry), resolve(corpus, entry)
    assert hash(root) == hash(root) and root != again
    assert len(repr(root)) < 100


def test_resolved_nodes_are_identity_records(lei_corpus, scenario_documents):
    first, second = resolve(lei_corpus, "eventCore.json"), resolve(lei_corpus, "eventCore.json")
    leaf = next(node for node in _distinct_nodes(first) if node.kind == "atomic")
    [twin] = [n for n in _distinct_nodes(second) if (n.doc_id, n.path) == (leaf.doc_id, leaf.path)]
    assert leaf.structural_key() == twin.structural_key()
    assert leaf != twin and not leaf == twin
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(ResolvedNode, compare) is getattr(object, compare)
        with pytest.raises(TypeError):
            getattr(operator, compare)(leaf, twin)
    # the tuple protocol runs over the fields
    assert len(leaf) == len(ResolvedNode._fields) == 15
    assert tuple(leaf) == tuple(getattr(leaf, name) for name in ResolvedNode._fields)
    assert leaf[0] is leaf.kind
    # the instance dict holds the two cached values and nothing else
    assert validate(scenario_documents[0][1], first).valid
    first.structural_key()
    assert set(first.__dict__) == {"checks", "_structural_key"}
    assert all(set(node.__dict__) <= {"checks", "_structural_key"} for node in _distinct_nodes(first))
    assert first._replace(path="x").__dict__ == {}
    for name in ("kind", "checks", "other"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert set(first.__dict__) == {"checks", "_structural_key"}


def test_relative_refs_resolve_against_the_referencing_document(lei_corpus):
    # events/leiWeightEvent.json refs ../ICAR/types/uncefactMassUnitsType.json
    resolved = resolve(lei_corpus, "events/leiWeightEvent.json")
    units = resolved.child_map()["weight"].child_map()["units"]
    assert units.ref_names == ("uncefactMassUnitsType",)
    assert units.enum_values  # the enum was inlined


def test_draft_tag_is_recorded(lei_corpus):
    doc = lei_corpus.get("eventCore.json")
    assert "2019-09" in doc.draft


def _node_digest(node: ResolvedNode | None, memo: dict) -> str | None:
    """Merkle digest of a resolved tree over every field. Shared
    subtrees hash once, and a tree and a DAG of the same shape digest alike."""
    if node is None:
        return None
    if id(node) not in memo:
        record = {}
        for field in node._fields:
            value = getattr(node, field)
            if field == "children":
                value = [[name, _node_digest(child, memo)] for name, child in value]
            elif field == "item":
                value = _node_digest(value, memo)
            elif field == "one_of_groups":
                value = [[_node_digest(b, memo) for b in group] for group in value]
            elif field == "conditionals":
                value = [[_node_digest(part, memo) for part in cond] for cond in value]
            record[field] = value
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        memo[id(node)] = (node, digest)  # the node keeps its id() from being reused
    return memo[id(node)][1]


def _resolve_digests(corpus, entries):
    return [[entry, _node_digest(resolve(corpus, entry), {})] for entry in entries]


def test_resolve_output_matches_golden_digest(manifest):
    rows = []
    for name in manifest.schema_names():
        schema_set = manifest.schema_set(name)
        entries = dict.fromkeys(
            [schema_set.metric_entry, *filter(None, [schema_set.envelope]), *schema_set.events.values()]
        )
        rows.append([name, _resolve_digests(schema_set.corpus(), entries)])
    for seed in range(N_REF_CORPORA):
        corpus = random_ref_corpus(random.Random(seed))
        rows.append([f"ref-{seed}", _resolve_digests(corpus, sorted(corpus.documents))])
    for seed in range(N_CYCLIC_CORPORA):
        corpus, _ = random_cyclic_corpus(random.Random(seed))
        rows.append([f"cyclic-{seed}", _resolve_digests(corpus, sorted(corpus.documents))])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GOLDEN_RESOLVE_SHA256


def _key_digest(key, memo: dict) -> str:
    """Merkle digest of a structural key. Each node's key tuple is one
    shared object, so a DAG digests at its own size, not its unfolding's."""
    if not isinstance(key, tuple):
        return repr(key)
    if id(key) not in memo:
        parts = [_key_digest(part, memo) for part in key]
        memo[id(key)] = (key, hashlib.sha256(repr(parts).encode()).hexdigest())
    return memo[id(key)][1]


# sha256 over the structural keys of every ring and clique resolved in
# test_rings_and_cliques_resolve_to_their_golden_shapes.
GOLDEN_CYCLES_SHA256 = "c72a0ea01a6f5b9d832b14cb1c80acbb2bf6bbc6fc867319e1f4c8859159e8ca"


def test_rings_and_cliques_resolve_to_their_golden_shapes():
    rows = [
        [f"ring-{n}", _key_digest(resolve(make_corpus(ring_docs(n)), "ring0.json").structural_key(), {})]
        for n in range(2, 151)
    ]
    rows += [
        [f"clique-{k}", _key_digest(resolve(make_corpus(clique_docs(k)), "node0.json").structural_key(), {})]
        for k in range(3, 11)
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GOLDEN_CYCLES_SHA256


# --------------------------------------------------------------------------
# Shared targets: ref diamonds and long chains (no timing gates; the work is
# bounded by counting calls)


def _diamond_docs(depth: int, fragments: bool) -> tuple[dict, str]:
    """Level k refs level k+1 twice (``leftPart``/``rightPart``); an
    expanded tree would hold 2^depth copies of the last level. With
    ``fragments`` the levels are ``$defs`` of one library document."""
    def level(k: int) -> dict:
        if k == depth:
            return {"type": "object", "properties": {"value": {"type": "string"}}}
        target = {"$ref": f"#/$defs/t{k + 1}" if fragments else f"t{k + 1}.json"}
        return {
            "type": "object",
            "properties": {"leftPart": target, "rightPart": dict(target), "tag": {"type": "string"}},
        }

    if fragments:
        library = {"$defs": {f"t{k}": level(k) for k in range(depth + 1)}}
        entry = {"type": "object", "properties": {"top": {"$ref": "lib.json#/$defs/t0"}}}
        return {"entry.json": entry, "lib.json": library}, "entry.json"
    docs = {f"t{k}.json": level(k) for k in range(depth + 1)}
    docs["entry.json"] = {"type": "object", "properties": {"top": {"$ref": "t0.json"}}}
    return docs, "entry.json"


@pytest.mark.parametrize("fragments", [False, True], ids=["documents", "fragments"])
def test_depth_30_diamond_shares_each_level(monkeypatch, fragments):
    depth = 30
    docs, entry = _diamond_docs(depth, fragments)
    corpus = make_corpus(docs)
    calls = []
    original = loader.parse_schema
    monkeypatch.setattr(
        loader, "parse_schema", lambda *args: calls.append(args[1:]) or original(*args)
    )
    node = resolve(corpus, entry).child_map()["top"]
    # Document roots are parsed once, by load_corpus; a fragment target is
    # parsed once per resolution (4 parse_schema calls per level, 2 for the
    # last).
    assert len(calls) == (4 * depth + 2 if fragments else 0)
    for k in range(depth):
        members = node.child_map()
        assert members["leftPart"] is members["rightPart"], k
        assert members["leftPart"].ref_names == (f"t{k + 1}",)
        node = members["leftPart"]
    assert list(node.child_map()) == ["value"]


def test_a_wide_one_of_copies_no_node_and_joins_each_directory_ref_once(monkeypatch):
    # The shape of the benchmark's wide oneOf: a root whose property is a
    # oneOf over branch files, each with a discriminator and a ref to one
    # shared type.
    branches = 200
    docs = {
        "shared/Code.json": {"type": "string"},
        "root.json": {
            "type": "object",
            "required": ["id", "event"],
            "properties": {
                "id": {"type": "string"},
                "event": {"oneOf": [{"$ref": f"branches/b{i}.json"} for i in range(branches)]},
            },
        },
    }
    for i in range(branches):
        docs[f"branches/b{i}.json"] = {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": [f"kind{i}"]}, f"p{i}": {"$ref": "../shared/Code.json"}},
        }
    corpus = make_corpus(docs)
    copies, joins = [], []
    original_replace, original_join = ResolvedNode._replace, loader._resolve_target_id
    monkeypatch.setattr(ResolvedNode, "_replace", lambda *a, **k: copies.append(a) or original_replace(*a, **k))
    monkeypatch.setattr(loader, "_resolve_target_id", lambda *a: joins.append(a) or original_join(*a))
    event = resolve(corpus, "root.json").child_map()["event"]
    assert copies == []
    # one join per distinct (directory, ref): the root's 200 and the branches' one
    assert len(joins) == branches + 1
    [group] = event.one_of_groups
    assert [b.ref_names for b in group] == [(f"b{i}",) for i in range(branches)]
    assert len({id(b.child_map()[f"p{i}"]) for i, b in enumerate(group)}) == 1


def test_allof_merge_of_shared_diamonds_compares_each_node_once(monkeypatch):
    # Both branches declare "shape" through different keys (t0.json and
    # t0.json#/), so the merge compares two distinct nodes whose subtrees
    # are shared; compared as trees this is 2^25 work.
    depth = 25
    docs, _ = _diamond_docs(depth, fragments=False)
    docs["merged.json"] = {
        "type": "object",
        "allOf": [
            {"properties": {"shape": {"$ref": "t0.json"}}},
            {"properties": {"shape": {"$ref": "t0.json#/"}}},
        ],
    }
    corpus = make_corpus(docs)
    calls = []
    original = ResolvedNode.structural_key
    monkeypatch.setattr(
        ResolvedNode, "structural_key", lambda self: calls.append(self) or original(self)
    )
    merged = resolve(corpus, "merged.json")
    assert merged.child_map()["shape"].ref_names == ("t0",)
    # Each distinct node computes its key once and asks each child once.
    assert len({id(node) for node in calls}) <= 2 * (depth + 2)
    assert len(calls) <= 4 * 3 * (depth + 2)


CHAIN_LENGTH = 10_000


def test_ten_thousand_document_chain_resolves():
    node = resolve(make_corpus(_chain_docs(CHAIN_LENGTH)), "link0.json")
    hops = 0
    while "next" in node.child_map():
        node = node.child_map()["next"]
        hops += 1
        assert node.ref_names == (f"link{hops}",)
    assert hops == CHAIN_LENGTH - 1


@pytest.mark.parametrize("length", [300, 1200])
def test_an_all_of_merge_compares_long_ref_chains(length):
    docs = _chain_docs(length)
    docs["merged.json"] = {
        "allOf": [
            {"properties": {"s": {"$ref": "link0.json"}}},
            {"properties": {"s": {"$ref": "link0.json#/"}}},
        ],
    }
    node = resolve(make_corpus(docs), "merged.json").child_map()["s"]
    assert node.ref_names == ("link0",)
    hops = 0
    while "next" in node.child_map():
        node = node.child_map()["next"]
        hops += 1
    assert hops == length - 1


@pytest.mark.parametrize("length", [300, 1200])
def test_an_all_of_merge_of_two_unequal_long_ref_chains_is_a_conflict(length):
    docs = _chain_docs(length)
    docs["merged.json"] = {
        "allOf": [
            {"properties": {"s": {"$ref": "link0.json"}}},
            {"properties": {"s": {"$ref": "link1.json"}}},
        ],
    }
    with pytest.raises(MergeConflict, match="disagrees on property 's'"):
        resolve(make_corpus(docs), "merged.json")


_FRAGMENT_RING = {
    "ring.json": {
        "$ref": "#/$defs/r0",
        "$defs": {
            f"r{k}": {
                "type": "object",
                "properties": {"tag": {"type": "string"}, "next": {"$ref": f"#/$defs/r{(k + 1) % 3}"}},
            }
            for k in range(3)
        },
    }
}


@pytest.mark.parametrize(
    "tail_ref, cycle_docs, hops, cycle_target",
    [
        ("ring0.json", ring_docs(3), 4, "ring0.json"),
        ("ring.json#/$defs/r0", _FRAGMENT_RING, 4, "ring.json"),
        ("link299.json", {}, 1, "link299.json"),
    ],
    ids=["ring", "ring-through-a-fragment", "self-reference"],
)
def test_a_cycle_behind_a_long_chain_resolves_as_it_does_alone(tail_ref, cycle_docs, hops, cycle_target):
    """The one cycle of the reference graph lies behind 299 references
    that close none, and resolves to the shape it has with the chain
    removed."""
    docs = {**_chain_docs(300), **cycle_docs}
    docs["link299.json"]["properties"]["next"] = {"$ref": tail_ref}
    last = resolve(make_corpus(docs), "link0.json")
    for _ in range(299):
        last = last.child_map()["next"]
    alone = resolve(make_corpus({"link299.json": docs["link299.json"], **cycle_docs}), "link299.json")
    assert loader._same_shape(last.child_map()["next"], alone.child_map()["next"])
    node = last
    for _ in range(hops):
        node = node.child_map()["next"]
    assert (node.kind, node.cycle_target) == (CYCLE, cycle_target)


def test_a_cycle_through_the_entry_closed_at_the_end_of_a_long_chain():
    """``link1`` refers back to the entry, so the one back edge leaves the
    second-last key to finish, behind 298 keys that close no cycle."""
    docs = _chain_docs(300)
    docs["link1.json"]["properties"]["back"] = {"$ref": "link0.json"}
    link1 = resolve(make_corpus(docs), "link0.json").child_map()["next"]
    back = link1.child_map()["back"]
    assert (back.kind, back.cycle_target) == (CYCLE, "link0.json")
    alone = resolve(make_corpus(_chain_docs(300)), "link2.json")
    assert loader._same_shape(link1.child_map()["next"], alone)


@pytest.fixture(scope="module")
def chain_manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    (root / "chain").mkdir()
    for doc_id, doc in _chain_docs(CHAIN_LENGTH).items():
        (root / "chain" / doc_id).write_text(json.dumps(doc))
    manifest = {"schemas": {"lei": {"corpus": "chain", "metric_entry": "link0.json", "events": {}}}}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_ten_thousand_document_chain_graph_exits_0(capsys, chain_manifest_dir):
    code = main(["graph", "--corpus", str(chain_manifest_dir)])
    dot = capsys.readouterr().out
    assert code == 0
    # root, collection, then one tag per document and one next per link
    assert sum(1 for line in dot.splitlines() if "[label=" in line and "->" not in line) == 2 * CHAIN_LENGTH + 1


def test_ten_thousand_document_chain_metrics_exit_0(capsys, chain_manifest_dir):
    code = main(["metrics", "--corpus", str(chain_manifest_dir), "--format", "records"])
    records = json.loads(capsys.readouterr().out)
    assert code == 0
    width = next(r for r in records if r["target"] == "docWidth(weight, weight)")
    assert width["value"] == 3  # one atomic tag plus one embedded next


# --------------------------------------------------------- rings and cliques

RING_LENGTH = 10_000


def test_ten_thousand_document_ring_resolves():
    node = resolve(make_corpus(ring_docs(RING_LENGTH)), "ring0.json")
    hops = 0
    while node.kind != CYCLE:
        node = node.child_map()["next"]
        hops += 1
        assert node.ref_names == (f"ring{hops % RING_LENGTH}",)
    assert (hops, node.cycle_target) == (RING_LENGTH, "ring0.json")


@pytest.fixture(scope="module")
def ring_manifest_dir(tmp_path_factory):
    return write_manifest_dir(tmp_path_factory.mktemp("ring"), ring_docs(RING_LENGTH), "ring0.json")


def test_ten_thousand_document_ring_graph_exits_0(capsys, ring_manifest_dir):
    code = main(["graph", "--corpus", ring_manifest_dir])
    dot = capsys.readouterr().out
    assert code == 0
    # root, collection, then one tag and one next per document
    assert sum(1 for line in dot.splitlines() if "[label=" in line and "->" not in line) == 2 * RING_LENGTH + 2


def test_ten_thousand_document_ring_metrics_exit_0(capsys, ring_manifest_dir):
    code = main(["metrics", "--corpus", ring_manifest_dir, "--format", "records"])
    records = json.loads(capsys.readouterr().out)
    assert code == 0
    width = next(r for r in records if r["target"] == "docWidth(weight, weight)")
    assert width["value"] == 3  # one atomic tag plus one embedded next


@pytest.mark.parametrize("docs, entry, states", [
    (ring_docs(50), "ring0.json", 49),
    (clique_docs(8), "node0.json", 7 * 2**6),
], ids=["ring", "clique"])
def test_the_budget_counts_the_states_under_a_cycle_stack(monkeypatch, docs, entry, states):
    corpus = make_corpus(docs)
    monkeypatch.setattr(loader, "STATE_BUDGET", states)
    resolve(corpus, entry)
    monkeypatch.setattr(loader, "STATE_BUDGET", states - 1)
    with pytest.raises(ResolutionTooLarge, match=f"^{entry}: .* more than {states - 1} "):
        resolve(corpus, entry)


@pytest.mark.parametrize("k", [13, 16])
def test_a_clique_over_the_budget_builds_no_node(monkeypatch, k):
    # Nodes are built with tuple.__new__, which calls no __init__: count the
    # resolver's one way in to building any node instead.
    built = []
    original = loader._Resolver._node
    monkeypatch.setattr(loader._Resolver, "_node", lambda self, *args: built.append(args[1:3]) or original(self, *args))
    with pytest.raises(ResolutionTooLarge, match=f"^node0.json: .* more than {loader.STATE_BUDGET} "):
        resolve(make_corpus(clique_docs(k)), "node0.json")
    assert built == []
    resolve(make_corpus(clique_docs(3)), "node0.json")
    assert built


def test_a_chain_needs_no_state_under_a_cycle_stack(monkeypatch):
    monkeypatch.setattr(loader, "STATE_BUDGET", 0)
    resolve(make_corpus(_chain_docs(100)), "link0.json")


def test_a_twelve_document_clique_resolves():
    node = resolve(make_corpus(clique_docs(12)), "node0.json")
    assert list(node.child_map()) == ["tag", *(f"to{j}" for j in range(1, 12))]
    for j in range(1, 12):
        path = node.child_map()[f"to{j}"]
        assert path.child_map()["to0"].kind == CYCLE
        assert all(path.child_map()[f"to{i}"].kind != CYCLE for i in range(1, 12) if i != j)


# --------------------------------------------------- the edge of the subset

_SUBSET = {"type", "properties", "items", "required", "additionalProperties", "enum", "format", "$ref", "oneOf", "allOf", "if"}
_REFUSED = sorted(set(jsonschema.Draft201909Validator.VALIDATORS) - _SUBSET)


def test_the_refused_keywords_are_the_draft_assertions_outside_the_subset():
    assert len(_REFUSED) == 25
    assert _SUBSET <= set(jsonschema.Draft201909Validator.VALIDATORS)


@pytest.mark.parametrize("keyword", _REFUSED)
def test_assertion_keywords_outside_the_subset_are_refused(keyword):
    with pytest.raises(ParseError, match=re.escape(f"k.json: keywords ['{keyword}']")):
        parse_schema({keyword: 1}, "k.json")
    with pytest.raises(ParseError, match=re.escape(f"k.json/properties/a: keywords ['{keyword}']")):
        parse_schema({"type": "object", "properties": {"a": {"type": "string", keyword: 1}}}, "k.json")


# Each malformed schema with the (file_id, message) of the ParseError it
# raises. The rows with two faults pin the order in which the parser finds
# them: refused keywords, $ref, type, properties (children in order), items,
# required, additionalProperties, oneOf, allOf, if/then/else, enum.
_MALFORMED = [
    (5, "k.json", "schema must be an object, got int"),
    (["a"], "k.json", "schema must be an object, got list"),
    ({"type": "string", "minLength": 1}, "k.json", "keywords ['minLength'] are outside the supported subset"),
    ({"not": {}, "anyOf": []}, "k.json", "keywords ['anyOf', 'not'] are outside the supported subset"),
    ({"$ref": 5}, "k.json", "$ref must be a string"),
    (
        {"$ref": "a.json", "type": "object", "description": "x"},
        "k.json",
        "$ref with constraint siblings ['type'] is outside the supported subset",
    ),
    (
        {"$ref": "a.json", "then": {}, "allOf": []},
        "k.json",
        "$ref with constraint siblings ['allOf', 'then'] is outside the supported subset",
    ),
    (
        {"type": ["string", "null"]},
        "k.json",
        "type must be one type name; a list of types is outside the supported subset",
    ),
    ({"type": "foo"}, "k.json", "type 'foo' is not a JSON Schema type name"),
    ({"properties": []}, "k.json", "properties must be an object"),
    ({"items": [{"type": "string"}]}, "k.json", "tuple-form items is outside the supported subset"),
    ({"required": "a"}, "k.json", "required must be a list of names"),
    ({"required": ["a", 1]}, "k.json", "required must be a list of names"),
    (
        {"additionalProperties": {"type": "string"}},
        "k.json",
        "schema-valued additionalProperties is outside the supported subset",
    ),
    ({"enum": "a"}, "k.json", "enum must be a list"),
    (
        {"type": "object", "enum": []},
        "k.json",
        "an empty enum beside other constraints is outside the supported subset",
    ),
    (
        {"properties": {"a": {}}, "enum": []},
        "k.json",
        "an empty enum beside other constraints is outside the supported subset",
    ),
    (
        {"properties": {"a": {"properties": {"b": 1}}}},
        "k.json/properties/a/properties/b",
        "schema must be an object, got int",
    ),
    ({"oneOf": []}, "k.json", "oneOf must hold at least one schema"),
    ({"oneOf": [{}, 3]}, "k.json/oneOf/1", "schema must be an object, got int"),
    ({"if": {"maxItems": 1}, "then": 5}, "k.json/if", "keywords ['maxItems'] are outside the supported subset"),
    ({"if": {}, "then": {}, "else": {"$ref": 1}}, "k.json/else", "$ref must be a string"),
    # two faults: the first one found is reported
    ({"minimum": 1, "$ref": 1}, "k.json", "keywords ['minimum'] are outside the supported subset"),
    ({"$ref": 1, "type": "object"}, "k.json", "$ref must be a string"),
    (
        {"type": [1], "properties": 1},
        "k.json",
        "type must be one type name; a list of types is outside the supported subset",
    ),
    ({"type": "Object", "properties": 1}, "k.json", "type 'Object' is not a JSON Schema type name"),
    (
        {"properties": {"a": {"const": 1}}, "allOf": [{"type": 1}]},
        "k.json/properties/a",
        "keywords ['const'] are outside the supported subset",
    ),
    (
        {"properties": {"a": {}, "b": {"$ref": 1}, "c": 1}},
        "k.json/properties/b",
        "$ref must be a string",
    ),
    ({"items": {"items": [1]}, "required": 1}, "k.json/items", "tuple-form items is outside the supported subset"),
    ({"required": 1, "enum": 1}, "k.json", "required must be a list of names"),
    (
        {"additionalProperties": 1, "oneOf": [1]},
        "k.json",
        "schema-valued additionalProperties is outside the supported subset",
    ),
    ({"allOf": [{"type": 1}], "oneOf": [{"$ref": 1}]}, "k.json/oneOf/0", "$ref must be a string"),
    ({"if": {"$ref": 1}, "allOf": [5]}, "k.json/allOf/0", "schema must be an object, got int"),
    ({"enum": 1, "if": {"type": [1]}}, "k.json/if", "type must be one type name; a list of types is outside the supported subset"),
    ({"type": "array", "enum": [], "items": {"enum": 1}}, "k.json/items", "enum must be a list"),
    # oneOf and allOf must be lists; each is checked where it is read
    ({"oneOf": 1}, "k.json", "oneOf must be a list"),
    ({"oneOf": {"a": {}}}, "k.json", "oneOf must be a list"),
    ({"oneOf": "ab"}, "k.json", "oneOf must be a list"),
    ({"allOf": 1}, "k.json", "allOf must be a list"),
    ({"allOf": {"a": {}}}, "k.json", "allOf must be a list"),
    ({"allOf": "ab"}, "k.json", "allOf must be a list"),
    ({"oneOf": {}, "allOf": [5]}, "k.json", "oneOf must be a list"),
    ({"oneOf": [{"$ref": 1}], "allOf": 1}, "k.json/oneOf/0", "$ref must be a string"),
    ({"allOf": 1, "if": {"$ref": 1}}, "k.json", "allOf must be a list"),
]


@pytest.mark.parametrize("schema, file_id, message", _MALFORMED)
def test_each_malformed_schema_raises_its_exact_parse_error(schema, file_id, message):
    with pytest.raises(ParseError) as caught:
        parse_schema(schema, "k.json")
    assert (caught.value.file_id, str(caught.value)) == (file_id, f"{file_id}: {message}")


def test_a_list_of_types_is_refused():
    with pytest.raises(ParseError, match="list of types"):
        parse_schema({"type": ["string", "null"]}, "k.json")


def test_annotations_and_unknown_keys_are_ignored():
    annotated = {
        "$schema": "https://json-schema.org/draft/2019-09/schema",
        "$id": "k.json",
        "$defs": {"unused": {"anyOf": [{"type": "string"}]}},
        "description": "a string",
        "x-origin": {"not": "a schema"},
        "type": "string",
    }
    assert parse_schema(annotated, "k.json") == parse_schema({"type": "string"}, "k.json")


def test_a_refused_document_is_reported_where_it_is_referenced(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"type": "object", "properties": {"b": {"$ref": "b.json"}}}))
    (tmp_path / "b.json").write_text(json.dumps({"anyOf": [{"type": "string"}]}))
    handle = load_corpus(tmp_path)
    assert [e.file_id for e in handle.errors] == ["b.json"]
    with pytest.raises(ParseError, match="b.json: keywords \\['anyOf'\\]"):
        resolve(handle, "a.json")


def _count_parses(monkeypatch):
    parsed = []
    parse_file = loader._parse_file

    def counting(doc_id, data):
        parsed.append(doc_id)
        return parse_file(doc_id, data)

    monkeypatch.setattr(loader, "_parse_file", counting)
    return parsed


@pytest.mark.parametrize(
    "argv, expected",
    [(["metrics"], 34), (["evaluate"], 34), (["graph"], 14), (["capability"], 114), (["validate", None], 79)],
    ids=["metrics", "evaluate", "graph", "capability", "validate"],
)
def test_a_session_parses_only_the_documents_it_resolves(capsys, monkeypatch, manifest, argv, expected):
    argv = [str(manifest.root / "scenarios") if arg is None else arg for arg in argv]
    parsed = _count_parses(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(parsed) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [(["metrics"], 34), (["evaluate"], 34), (["graph"], 14), (["capability"], 114), (["validate", None], 79)],
    ids=["metrics", "evaluate", "graph", "capability", "validate"],
)
def test_a_session_reads_only_the_files_it_resolves(capsys, monkeypatch, manifest, argv, expected):
    argv = [str(manifest.root / "scenarios") if arg is None else arg for arg in argv]
    read = []
    original = loader._read
    monkeypatch.setattr(loader, "_read", lambda path: read.append(path) or original(path))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(read) == len(set(read)) == expected


def test_a_file_larger_than_one_read_loads_whole(tmp_path):
    document = {"enum": [f"value-{i:06d}" for i in range(20_000)]}
    text = json.dumps(document)
    assert len(text) > 3 * 65536
    (tmp_path / "big.json").write_text(text)
    assert load_corpus(tmp_path).get("big.json").raw == document


def test_a_file_deleted_after_loading_fails_only_where_it_is_referenced(tmp_path):
    # deleted rather than made unreadable: mode 0 does not stop a root user
    (tmp_path / "a.json").write_text(json.dumps({"type": "object", "properties": {"b": {"$ref": "b.json"}}}))
    (tmp_path / "b.json").write_text('{"type": "string"}')
    (tmp_path / "c.json").write_text('{"type": "string"}')
    handle = load_corpus(tmp_path)
    (tmp_path / "b.json").unlink()
    assert resolve(handle, "c.json").type_tag == "string"
    with pytest.raises(IoError, match=f"^cannot read {re.escape(str(tmp_path / 'b.json'))}: "):
        resolve(handle, "a.json")
    with pytest.raises(IoError):
        handle.documents


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metrics", "--coefficients", "a,1,1,1"], "--coefficients 'a,1,1,1': 'a' is not a number"),
        (["metrics", "--criteria", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
        (["evaluate", "--weights", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
        (["validate", "{missing}"], "no such file or directory: {missing}"),
        (
            ["validate", "{bad}"],
            "{bad}: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
    ],
    ids=["metrics-coefficients", "metrics-criteria", "evaluate-weights", "validate-files", "validate-not-json"],
)
def test_a_bad_user_input_is_refused_before_any_document_is_parsed(capsys, monkeypatch, tmp_path, argv, message):
    paths = {"missing": str(tmp_path / "missing.json"), "bad": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text("{nope")
    parsed = _count_parses(monkeypatch)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"schemalens: error: {message.format(**paths)}\n"
    assert parsed == []


def test_an_unreferenced_malformed_file_does_not_stop_resolve(tmp_path, monkeypatch):
    (tmp_path / "a.json").write_text(json.dumps({"type": "object", "properties": {"b": {"$ref": "b.json"}}}))
    (tmp_path / "b.json").write_text('{"type": "string"}')
    (tmp_path / "broken.json").write_text('{"type": "obj')
    (tmp_path / "refused.json").write_text(json.dumps({"anyOf": [{"type": "string"}]}))
    handle = load_corpus(tmp_path)
    parsed = _count_parses(monkeypatch)
    assert resolve(handle, "a.json").child_map()["b"].type_tag == "string"
    assert parsed == ["a.json", "b.json"]
    assert [e.file_id for e in handle.errors] == ["broken.json", "refused.json"]
    assert list(handle.documents) == ["a.json", "b.json"]


def test_documents_keep_path_order_when_parsed_out_of_order(tmp_path):
    names = ["a.json", "b/c.json", "b-d.json", "e.json", "z.json"]
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text('{"type": "object"}')
    (tmp_path / "c.json").write_text("[]")
    handle = load_corpus(tmp_path)
    for doc_id in ["z.json", "b-d.json", "e.json"]:
        handle.get(doc_id)
    with pytest.raises(ParseError):
        handle.get("c.json")
    assert list(handle.documents) == names
    assert [e.file_id for e in handle.errors] == ["c.json"]


def test_each_get_of_a_refused_file_raises_its_parse_error(tmp_path, monkeypatch):
    (tmp_path / "ok.json").write_text('{"type": "object"}')
    (tmp_path / "refused.json").write_text(json.dumps({"not": {"type": "string"}}))
    handle = load_corpus(tmp_path)
    parsed = _count_parses(monkeypatch)
    raised = []
    for _ in range(3):
        with pytest.raises(ParseError, match="^refused.json: keywords \\['not'\\]") as info:
            handle.get("refused.json")
        raised.append(info.value)
    assert parsed == ["refused.json"]
    assert handle.errors == raised[:1] and all(error is raised[0] for error in raised)
    with pytest.raises(UnknownRef):
        handle.get("missing.json")


def test_the_bundled_corpora_hold_only_subset_keywords(manifest):
    for name in manifest.schema_names():
        assert manifest.schema_set(name).corpus().errors == []
