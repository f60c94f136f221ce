import calendar
import copy
import hashlib
import json
import math
import random
import sys
from collections import OrderedDict
from types import MappingProxyType

import pytest

from schemalens import validator
from schemalens.errors import AmbiguousBranch, CycleReached, MergeConflict, NoBranch, ParseError, SchemaUnresolved
from schemalens.loader import ResolvedNode, resolve
from schemalens.validator import (
    dispatch_event_schema,
    is_date_time,
    is_ipv4,
    json_equal,
    validate,
    validate_batch,
)

from harness import (
    BAD_IPS,
    BAD_TIMESTAMPS,
    LEI_EVENT_NAMES,
    chain_docs,
    envelope_mutants,
    int_parsing_is_date_time,
    int_parsing_is_ipv4,
    make_corpus,
    oracle_for_docs,
    random_variant,
    reference_validator,
)


@pytest.fixture(scope="module")
def weight_instance(scenario_documents):
    for path, doc in scenario_documents:
        if doc["message"]["eventName"] == "Weight":
            return doc
    raise AssertionError("no weight scenario bundled")


def test_every_scenario_instance_validates(scenario_documents, lei_envelope):
    for path, doc in scenario_documents:
        outcome = validate(doc, lei_envelope)
        assert outcome.valid, (path.name, outcome.violations[:3])


def test_missing_owner_is_a_required_violation_at_root(weight_instance, lei_envelope):
    mutant = copy.deepcopy(weight_instance)
    del mutant["owner"]
    outcome = validate(mutant, lei_envelope)
    assert not outcome.valid
    assert any(v.keyword == "required" and v.instance_path == "" for v in outcome.violations)


def test_wrong_event_body_fails_one_of_dispatch(weight_instance, lei_envelope):
    mutant = copy.deepcopy(weight_instance)
    mutant["message"]["event"] = {
        "score": 3.5,
        "scoreType": "Condition",
        "date": "2021-02-05T16:00:00+11:00",
    }
    outcome = validate(mutant, lei_envelope)
    assert not outcome.valid
    assert any(v.keyword == "oneOf" for v in outcome.violations)


def test_extra_top_level_property_is_rejected(weight_instance, lei_envelope):
    mutant = copy.deepcopy(weight_instance)
    mutant["surprise"] = True
    outcome = validate(mutant, lei_envelope)
    assert any(v.keyword == "additionalProperties" for v in outcome.violations)


def test_corrupted_event_date_time_fails_format(weight_instance, lei_envelope):
    for bad in BAD_TIMESTAMPS:
        mutant = copy.deepcopy(weight_instance)
        mutant["eventDateTime"] = bad
        assert not validate(mutant, lei_envelope).valid, bad


def test_corrupted_ip_fails_format(weight_instance, lei_envelope):
    for bad in BAD_IPS:
        mutant = copy.deepcopy(weight_instance)
        mutant["source"]["ip_address"] = bad
        assert not validate(mutant, lei_envelope).valid, bad


def test_systematic_mutants_all_invalid(scenario_documents, lei_envelope):
    for path, doc in scenario_documents:
        for label, mutant in envelope_mutants(doc):
            assert not validate(mutant, lei_envelope).valid, (path.name, label)


def test_violation_lists_are_deterministic(weight_instance, lei_envelope):
    mutant = copy.deepcopy(weight_instance)
    del mutant["owner"]
    mutant["eventDateTime"] = "nope"
    first = validate(mutant, lei_envelope).violations
    second = validate(mutant, lei_envelope).violations
    assert [(v.instance_path, v.keyword) for v in first] == [
        (v.instance_path, v.keyword) for v in second
    ]


def test_validate_requires_resolved_schema(weight_instance):
    with pytest.raises(SchemaUnresolved):
        validate(weight_instance, {"type": "object"})


# Full violation lists of a fixed seeded stream, recorded before quiet checks
# stopped early and discriminated oneOf groups were dispatched.
GOLDEN_VIOLATIONS_SHA256 = "23fb9968b18d8fd2dbb7e5e62dbd5dfe7aee931c1e3adfbcafde2bb871525433"


def test_violation_lists_match_golden_digest(scenario_documents, lei_envelope):
    rng = random.Random(0)
    bases = [doc for _, doc in scenario_documents]
    bodies = [copy.deepcopy(doc["message"]["event"]) for doc in bases]
    lists = []
    for _ in range(300):
        variant = random_variant(rng, rng.choice(bases), bodies)
        lists.append(
            [
                [v.instance_path, v.schema_path, v.keyword, v.message]
                for v in validate(variant, lei_envelope).violations
            ]
        )
    assert sum(1 for violations in lists if not violations) == 99
    digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
    assert digest == GOLDEN_VIOLATIONS_SHA256


def test_quiet_checks_build_no_violation(scenario_documents, lei_envelope, monkeypatch):
    # oneOf branches and if-conditions run quietly; only reported
    # violations may be constructed.
    built = []
    real = validator.Violation

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(validator, "Violation", counting)
    rng = random.Random(1)
    bases = [doc for _, doc in scenario_documents]
    bodies = [copy.deepcopy(doc["message"]["event"]) for doc in bases]
    reported = 0
    for _ in range(300):
        variant = random_variant(rng, rng.choice(bases), bodies)
        reported += len(validate(variant, lei_envelope).violations)
    assert reported >= 200
    assert len(built) == reported


# ----------------------------------------------------------------- dispatch

def test_dispatch_weight(lei_envelope):
    message = {"eventName": "Weight", "item": {"itemType": "Animals"}}
    assert dispatch_event_schema(lei_envelope, message) == "events/leiWeightEvent.json"


def test_dispatch_score(lei_envelope):
    message = {"eventName": "Score", "item": {"itemType": "Animals"}}
    assert dispatch_event_schema(lei_envelope, message) == "events/leiScoreEvent.json"


def test_dispatch_unknown_event_name(lei_envelope):
    with pytest.raises(NoBranch):
        dispatch_event_schema(lei_envelope, {"eventName": "Nonexistent", "item": {"itemType": "Animals"}})


@pytest.mark.parametrize("message", [[1], "x", None], ids=["array", "string", "null"])
def test_dispatch_refuses_a_message_that_is_not_an_object(lei_envelope, message):
    with pytest.raises(NoBranch, match="no event branch accepts a message that is not an object"):
        dispatch_event_schema(lei_envelope, message)


def test_dispatch_of_an_empty_message_names_its_missing_event_name(lei_envelope):
    with pytest.raises(NoBranch, match="^no event branch accepts eventName None$"):
        dispatch_event_schema(lei_envelope, {})


def test_dispatch_requires_a_resolved_schema():
    with pytest.raises(SchemaUnresolved, match="dispatch needs a resolved schema tree"):
        dispatch_event_schema({"type": "object"}, {"eventName": "Weight"})


def test_dispatch_requires_a_message_member():
    schema = resolve(make_corpus({"a.json": {"type": "object", "properties": {"id": {"type": "string"}}}}), "a.json")
    with pytest.raises(SchemaUnresolved, match="schema has no 'message' member to dispatch on"):
        dispatch_event_schema(schema, {"eventName": "Weight"})


def test_dispatch_ambiguous_branch_reported():
    corpus = make_corpus(
        {
            "dup.json": {
                "type": "object",
                "properties": {
                    "message": {
                        "type": "object",
                        "properties": {"eventName": {"type": "string"}, "event": {"type": "object"}},
                        "oneOf": [
                            {"properties": {"eventName": {"enum": ["Weight"]}, "event": {"$ref": "a.json"}}},
                            {"properties": {"eventName": {"enum": ["Weight"]}, "event": {"$ref": "b.json"}}},
                        ],
                    }
                },
            },
            "a.json": {"type": "object"},
            "b.json": {"type": "object"},
        }
    )
    schema = resolve(corpus, "dup.json")
    with pytest.raises(AmbiguousBranch):
        dispatch_event_schema(schema, {"eventName": "Weight"})


def test_dispatch_admits_a_branch_the_validator_admits():
    # A branch whose eventName declaration is not a string enum admits what
    # the validator admits there, as in the message's oneOf.
    corpus = make_corpus(
        {
            "any.json": {
                "type": "object",
                "properties": {
                    "message": {
                        "oneOf": [
                            {"properties": {"eventName": {"enum": ["Weight"]}, "event": {"$ref": "a.json"}}},
                            {"properties": {"eventName": {"enum": [7]}, "event": {"$ref": "b.json"}}},
                            {"properties": {"eventName": {"type": "string"}, "event": {"$ref": "c.json"}}},
                        ],
                    }
                },
            },
            "a.json": {"type": "object"},
            "b.json": {"type": "object"},
            "c.json": {"type": "object"},
        }
    )
    schema = resolve(corpus, "any.json")
    assert dispatch_event_schema(schema, {"eventName": 7}) == "b.json"
    assert dispatch_event_schema(schema, {"eventName": 7.0}) == "b.json"
    assert dispatch_event_schema(schema, {"eventName": "Arrival"}) == "c.json"
    with pytest.raises(AmbiguousBranch):
        dispatch_event_schema(schema, {"eventName": "Weight"})
    with pytest.raises(NoBranch):
        dispatch_event_schema(schema, {"eventName": True})
    for name, valid in [(7, True), ("Arrival", True), ("Weight", False), (True, False)]:
        assert validate({"message": {"eventName": name}}, schema).valid is valid


def test_dispatch_to_a_branch_whose_event_has_no_ref_names_the_branch_document():
    corpus = make_corpus(
        {
            "inline.json": {
                "type": "object",
                "properties": {
                    "message": {
                        "oneOf": [
                            {"properties": {"eventName": {"enum": ["Weight"]}, "event": {"type": "object"}}},
                            {"$ref": "walk.json"},
                            {"properties": {"eventName": {"enum": ["Score"]}, "event": {"$ref": "s.json"}}},
                        ],
                    }
                },
            },
            "walk.json": {"properties": {"eventName": {"enum": ["Walk"]}, "event": {"type": "object"}}},
            "s.json": {"type": "object"},
        }
    )
    schema = resolve(corpus, "inline.json")
    assert dispatch_event_schema(schema, {"eventName": "Weight"}) == "inline.json"
    assert dispatch_event_schema(schema, {"eventName": "Walk"}) == "walk.json"
    assert dispatch_event_schema(schema, {"eventName": "Score"}) == "s.json"


_ABSENT = object()

# (eventName, item) -> doc id or exception class of dispatch_event_schema, for
# every LEI event name and a few odd names, crossed with every LEI itemType, an
# unknown item type and a missing item; _ABSENT leaves the key out.
GOLDEN_DISPATCH_SHA256 = "75910678df3dcf6a890e477e944c509abc4efa1b5dede62355e68c6eee7801dd"


def test_dispatch_matches_golden_table(lei_envelope):
    names = [*LEI_EVENT_NAMES, "", "weight", 7, None, True, ["Weight"], _ABSENT]
    items = [{"itemType": t} for t in ("Animals", "Crops", "Machinery", "Robots")] + [_ABSENT]
    table = []
    for name in names:
        for item in items:
            message = {key: value for key, value in (("eventName", name), ("item", item)) if value is not _ABSENT}
            try:
                outcome = dispatch_event_schema(lei_envelope, message)
            except Exception as exc:
                outcome = type(exc).__name__
            table.append([message, outcome])
    outcomes = [outcome for _, outcome in table]
    assert len(table) == 205
    assert outcomes.count("NoBranch") == 7 * 5
    assert outcomes[:5] == ["events/leiWeightEvent.json"] * 5
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == GOLDEN_DISPATCH_SHA256


def test_weight_scenario_evaluates_one_message_branch(weight_instance, lei_envelope, monkeypatch):
    (group,) = lei_envelope.child_map()["message"].one_of_groups
    assert len(group) == 34
    evaluated = []
    quiet_valid = validator._quiet_valid

    def counting(value, node, ipath=""):
        if any(node is branch for branch in group):
            evaluated.append(node)
        return quiet_valid(value, node, ipath)

    monkeypatch.setattr(validator, "_quiet_valid", counting)
    assert validate(weight_instance, lei_envelope).valid
    assert len(evaluated) == 1
    assert evaluated[0].child_map()["eventName"].enum_values == ("Weight",)


def test_weight_scenario_evaluates_one_item_branch(weight_instance, lei_envelope, monkeypatch):
    (group,) = lei_envelope.child_map()["message"].child_map()["item"].one_of_groups
    assert len(group) == 3
    evaluated = []
    quiet_valid = validator._quiet_valid

    def counting(value, node, ipath=""):
        if any(node is branch for branch in group):
            evaluated.append(node)
        return quiet_valid(value, node, ipath)

    monkeypatch.setattr(validator, "_quiet_valid", counting)
    assert validate(weight_instance, lei_envelope).valid
    assert len(evaluated) == 1
    assert evaluated[0].child_map()["itemType"].enum_values == ("Animals",)


# ------------------------------------------------- discriminated oneOf groups

def _branch(tag_values, body, required=("kind",)):
    branch = {"properties": {"kind": {"enum": list(tag_values)}, **body}}
    if required is not None:
        branch["required"] = [*required, *body]
    return branch


_A = _branch(["a"], {"x": {"type": "string"}})
_BC = _branch(["b", "c"], {"y": {"type": "integer"}})

_INSTANCES = [
    {"kind": "a", "x": "s"},
    {"kind": "a", "x": 1},
    {"kind": "b", "y": 2},
    {"kind": "c", "y": "no"},
    {"kind": "a", "y": 2},
    {"kind": "a", "x": "s", "y": 2},
    {"kind": "zzz", "x": "s"},
    {"kind": 1, "x": "s"},
    {"kind": True, "y": 2},
    {"kind": None, "x": "s"},
    {"kind": "b"},
    {"kind": "c", "x": "s", "y": "no"},
    {"kind": "b", "x": "s", "y": "no"},
    {"x": "s"},
    {"y": 2},
    {"y": "no"},
    {"x": 1, "y": 2},
    {},
    "a",
    ["a"],
    7,
    None,
]


def _assert_agrees_with_oracle(tmp_path, branches, discriminator):
    document = {"$schema": "https://json-schema.org/draft/2019-09/schema", "oneOf": branches}
    (tmp_path / "s.json").write_text(json.dumps(document))
    schema = resolve(make_corpus({"s.json": document}), "s.json")
    assert (validator._discriminator(schema.one_of_groups[0]) or (None,))[0] == discriminator
    oracle = reference_validator(tmp_path, "s.json")
    for instance in _INSTANCES:
        assert validate(instance, schema).valid is oracle.is_valid(instance), instance


def test_discriminated_group_agrees_with_oracle(tmp_path):
    _assert_agrees_with_oracle(tmp_path, [_A, _BC], "kind")


def test_a_tag_every_branch_declares_discriminates(tmp_path):
    loose = _branch(["b", "c"], {"y": {"type": "integer"}}, required=None)
    _assert_agrees_with_oracle(tmp_path, [_A, loose], "kind")


def test_a_tag_every_branch_requires_is_preferred(tmp_path):
    # Every branch declares "mode" before "kind" but none requires it.
    branches = [
        {**branch, "properties": {"mode": {"enum": [mode]}, **branch["properties"]}}
        for branch, mode in ((_A, "m"), (_BC, "n"))
    ]
    _assert_agrees_with_oracle(tmp_path, branches, "kind")


def test_duplicated_enum_value_falls_back(tmp_path):
    overlapping = _branch(["a", "b"], {"y": {"type": "integer"}})
    _assert_agrees_with_oracle(tmp_path, [_A, overlapping], None)


# ------------------------------------------- keywords checked against oracle

def _oracle_and_schema(tmp_path, schema):
    document = {"$schema": "https://json-schema.org/draft/2019-09/schema", **schema}
    (tmp_path / "a.json").write_text(json.dumps(document))
    return reference_validator(tmp_path, "a.json"), resolve(make_corpus({"a.json": document}), "a.json")


@pytest.mark.parametrize(
    "schema, instances",
    [
        ({"type": "array", "items": {"type": "integer"}}, [[], [1, 2], [1, "a"], ["a"], "x", {}]),
        (
            {"if": {"properties": {"k": {"enum": ["a"]}}}, "then": {"required": ["x"]}, "else": {"required": ["y"]}},
            [{"k": "a", "x": 1}, {"k": "a"}, {"k": "b", "y": 1}, {"k": "b"}, {}, 5],
        ),
        ({"type": "null"}, [None, 0, "", False, []]),
        ({"type": "array"}, [[], {}, "a", None]),
        ({"format": "ipv4"}, ["1.2.3.4", "\u0661.2.3.4", "1.2.3.\uff14", "1.2.\u0663\u0663.4"]),
        (
            {"format": "date-time"},
            ["2020-01-01T00:00:00Z", "\uff12\uff10\uff12\uff10-01-01T00:00:00Z",
             "2020-01-01T00:00:00.\u0665Z", "2020-01-01T00:00:00+\u0661\u0660:00"],
        ),
    ],
    ids=["items", "else", "null", "array", "ipv4-non-ascii-digits", "date-time-non-ascii-digits"],
)
def test_keywords_agree_with_oracle(tmp_path, schema, instances):
    oracle, resolved = _oracle_and_schema(tmp_path, schema)
    for instance in instances:
        assert validate(instance, resolved).valid is oracle.is_valid(instance), instance


@pytest.mark.parametrize("format_value", [5, True], ids=["number", "boolean"])
@pytest.mark.parametrize("schema", [{}, {"type": "string"}], ids=["untyped", "string"])
def test_a_format_that_is_not_a_string_is_dropped(schema, format_value):
    docs = {"a.json": {**schema, "format": format_value}}
    resolved = resolve(make_corpus(docs), "a.json")
    assert resolved.format_tag is None
    oracle = oracle_for_docs(docs, "a.json")
    for instance in ["x", "not-a-date", "2020-01-01T00:00:00Z", 3]:
        assert validate(instance, resolved).valid is oracle.is_valid(instance), instance


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "object", "enum": []}, {}),
        ({"properties": {"a": {}}, "enum": []}, {}),
        ({"enum": [], "allOf": [{"type": "string"}]}, "x"),
        ({"type": "string", "enum": []}, "x"),
        ({"type": ["string", "null"]}, 5),
        ({"not": {"type": "string"}}, "x"),
        ({"type": "object", "minProperties": 1}, {}),
        ({"const": 3}, 4),
        ({"anyOf": [{"type": "string"}]}, 1),
        ({"oneOf": []}, 1),
        ({"type": "foo"}, 1),
    ],
    ids=["object-empty-enum", "properties-empty-enum", "allof-host-empty-enum", "string-empty-enum",
         "type-list", "not", "minProperties", "const", "anyOf", "empty-oneOf", "unknown-type"],
)
def test_schemas_at_the_subset_edge_are_refused_or_agree_with_oracle(tmp_path, schema, instance):
    try:
        oracle, resolved = _oracle_and_schema(tmp_path, schema)
    except (ParseError, MergeConflict):
        return
    assert validate(instance, resolved).valid is oracle.is_valid(instance)


# ------------------------------------------------------------- cycle stubs

_RECURSIVE = {"type": "object", "properties": {"n": {"$ref": "a.json"}, "x": {"type": "string"}}}


@pytest.mark.parametrize("instance", [{"n": 5}, {"n": {"x": 1}}, {"x": 1, "n": None}])
def test_reaching_a_cycle_stub_is_refused(instance):
    schema = resolve(make_corpus({"a.json": _RECURSIVE}), "a.json")
    with pytest.raises(CycleReached, match="^/n: .*'a.json'"):
        validate(instance, schema)


@pytest.mark.parametrize(
    "document, instance, where",
    [
        ({"properties": {"n": {"oneOf": [{"$ref": "a.json"}]}}}, {"n": {}}, "/n"),
        ({"properties": {"n": {"if": {"$ref": "a.json"}}}}, {"n": {}}, "/n"),
        (
            {"properties": {"a": {"oneOf": [{"properties": {"b": {"if": {"properties": {"c": {"$ref": "a.json"}}}}}}]}}},
            {"a": {"b": {"c": 1}}},
            "/a/b/c",
        ),
        (
            {"properties": {"a": {"oneOf": [{"items": {"properties": {"c": {"$ref": "a.json"}}}}]}}},
            {"a": [{}, {"c": 1}]},
            "/a/1/c",
        ),
        (
            {"properties": {"a": {"if": {"properties": {"b": {"items": {"properties": {"c": {"$ref": "a.json"}}}}}}}}},
            {"a": {"b": [{}, {}, {"c": 1}]}},
            "/a/b/2/c",
        ),
        (
            {"properties": {"a": {"oneOf": [
                {"required": ["t"], "properties": {"t": {"enum": ["x"]}, "n": {"items": {"$ref": "a.json"}}}},
                {"required": ["t"], "properties": {"t": {"enum": ["y"]}}},
            ]}}},
            {"a": {"t": "x", "n": [1, {}]}},
            "/a/n/0",
        ),
    ],
    ids=["oneOf", "if", "nested", "oneOf-items", "if-items", "discriminated-oneOf"],
)
def test_reaching_a_cycle_stub_in_a_quiet_check_is_refused(document, instance, where):
    schema = resolve(make_corpus({"a.json": document}), "a.json")
    with pytest.raises(CycleReached, match=f"^{where}: "):
        validate(instance, schema)


def test_a_cycle_stub_under_nested_quiet_checks_is_located_in_quadratic_work(monkeypatch):
    # Levels alternate oneOf and if. A quiet check passes the path None on, so a
    # level reruns its checks to locate the stub only within a rerun above it:
    # work grows with the square of the depth, not with 2 ** depth.
    depth = 12
    document, instance = {"$ref": "a.json"}, 1
    for level in range(depth):
        document = {"properties": {"a": {"oneOf": [document]} if level % 2 else {"if": document}}}
        instance = {"a": instance}
    schema = resolve(make_corpus({"a.json": document}), "a.json")
    calls = []
    quiet_valid = validator._quiet_valid

    def counted(*args):
        calls.append(args)
        return quiet_valid(*args)

    monkeypatch.setattr(validator, "_quiet_valid", counted)
    with pytest.raises(CycleReached, match=f"^{'/a' * depth}: "):
        validate(instance, schema)
    assert len(calls) <= depth * depth


@pytest.mark.parametrize("instance", [{"x": "ok"}, {"x": 1}, {}, 5])
def test_instances_that_reach_no_cycle_stub_agree_with_oracle(tmp_path, instance):
    oracle, schema = _oracle_and_schema(tmp_path, _RECURSIVE)
    assert validate(instance, schema).valid is oracle.is_valid(instance)


# ------------------------------------------------------------ compilation

def test_each_node_is_compiled_on_its_first_validation():
    schema = resolve(
        make_corpus({"s.json": {"properties": {"a": {"type": "string"}, "b": {"type": "integer"}}}}), "s.json"
    )
    a, b = (child for _, child in schema.children)
    assert not any("checks" in node.__dict__ for node in (schema, a, b))
    # A leaf member its parent's inline test accepts compiles nothing.
    assert validate({"a": "x"}, schema).valid
    assert "checks" in schema.__dict__ and "checks" not in a.__dict__ and "checks" not in b.__dict__
    # One it does not accept falls through to the leaf's own checks.
    assert not validate({"a": 5}, schema).valid
    assert "checks" in a.__dict__ and "checks" not in b.__dict__
    assert schema.checks is schema.checks
    assert "checks" not in ResolvedNode._fields


class _Str(str):
    pass


# Leaves a parent's object check tests inline (the first six), then leaves
# that have no inline test, whose every value runs the leaf's own checks.
_LEAVES = {
    "string": {"type": "string"},
    "date-time": {"type": "string", "format": "date-time"},
    "ipv4": {"type": "string", "format": "ipv4"},
    "string-enum": {"type": "string", "enum": ["a", "b"]},
    "integer": {"type": "integer"},
    "number": {"type": "number"},
    "unknown-format": {"type": "string", "format": "x-unknown"},
    "untyped-enum": {"enum": ["a", "b"]},
    "mixed-enum": {"enum": ["a", 1, None]},
}
_LEAF_VALUES = [
    "", _Str("a"), True, 0, 1.0, 1.5, math.nan, None, [], {}, MappingProxyType({"a": 1}),
    "2020-01-01T00:00:00Z", "2021-02-29T00:00:00Z", "10.0.0.1", "a", "c",
]


def _placements(leaf):
    """(schema, instance builder) with ``leaf`` as a property, as an items
    schema, and inside the branch a discriminated oneOf selects."""
    branch = {"required": ["kind"], "properties": {"kind": {"enum": ["x"]}, "p": leaf}}
    other = {"required": ["kind"], "properties": {"kind": {"enum": ["y"]}}}
    return [
        ({"type": "object", "properties": {"p": leaf}}, lambda value: {"p": value}),
        ({"type": "array", "items": leaf}, lambda value: ["a", value, value]),
        ({"oneOf": [branch, other]}, lambda value: {"kind": "x", "p": value}),
    ]


@pytest.mark.parametrize("leaf", list(_LEAVES.values()), ids=list(_LEAVES))
def test_an_inline_leaf_test_accepts_only_what_the_leaf_accepts(leaf):
    for schema, build in _placements(leaf):
        docs = {"s.json": schema}
        resolved = resolve(make_corpus(docs), "s.json")
        oracle = oracle_for_docs(docs, "s.json")
        for value in _LEAF_VALUES:
            instance = build(value)
            native = sorted((v.instance_path, v.keyword) for v in validate(instance, resolved).violations)
            expected = sorted(
                ("".join(f"/{step}" for step in error.absolute_path), error.validator)
                for error in oracle.iter_errors(instance)
            )
            assert native == expected, (schema, value)


class _DictSubclass(dict):
    pass


# jsonschema's ``object`` is ``isinstance(value, dict)``: a dict subclass is
# an object, any other Mapping is not.
_MAPPINGS = {"MappingProxyType": MappingProxyType, "dict subclass": _DictSubclass, "OrderedDict": OrderedDict}

_OBJECT_SCHEMAS = [
    {"type": "object", "required": ["p"], "properties": {"p": {"type": "string"}}, "additionalProperties": False},
    {"required": ["p"], "properties": {"p": {"type": "string"}}},
    {"oneOf": [
        {"required": ["p"], "properties": {"p": {"enum": ["x"]}}},
        {"required": ["p"], "properties": {"p": {"enum": ["y"]}}},
    ]},
]


@pytest.mark.parametrize("wrap", list(_MAPPINGS.values()), ids=list(_MAPPINGS))
def test_only_a_dict_is_a_json_object_as_in_the_oracle(wrap):
    for inner in _OBJECT_SCHEMAS:
        placements = [
            (inner, lambda value: value),
            ({"type": "object", "properties": {"m": inner}}, lambda value: {"m": value}),
        ]
        for schema, build in placements:
            docs = {"s.json": schema}
            resolved = resolve(make_corpus(docs), "s.json")
            oracle = oracle_for_docs(docs, "s.json")
            for members in ({"p": "x"}, {"p": 5}, {}):
                instance = build(wrap(members))
                native = sorted((v.instance_path, v.keyword) for v in validate(instance, resolved).violations)
                expected = sorted(
                    ("".join(f"/{step}" for step in error.absolute_path), error.validator)
                    for error in oracle.iter_errors(instance)
                )
                assert native == expected, (schema, instance)


# ----------------------------------------------------------- deep instances

def _chain_instance(levels, bottom):
    instance = bottom
    for _ in range(levels - 1):
        instance = {"tag": "t", "next": instance}
    return instance


def test_a_900_level_instance_validates_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    schema = resolve(make_corpus(chain_docs(1200)), "link0.json")
    assert validate(_chain_instance(900, {"tag": "t"}), schema).valid
    outcome = validate(_chain_instance(900, {"tag": 5}), schema)
    assert [(v.instance_path, v.keyword) for v in outcome.violations] == [("/next" * 899 + "/tag", "type")]


# -------------------------------------------------------------------- batch

def test_batch_preserves_order_and_counts(scenario_documents, lei_envelope):
    docs = [doc for _, doc in scenario_documents]
    outcomes, totals = validate_batch(docs, lei_envelope)
    assert totals == {"valid": len(docs), "invalid": 0}
    assert len(outcomes) == len(docs)

    mutated = [copy.deepcopy(d) for d in docs]
    del mutated[4]["owner"]
    outcomes, totals = validate_batch(mutated, lei_envelope)
    assert totals == {"valid": len(docs) - 1, "invalid": 1}
    assert [o.valid for o in outcomes].index(False) == 4


def test_batch_empty_list():
    corpus = make_corpus({"s.json": {"type": "object"}})
    outcomes, totals = validate_batch([], resolve(corpus, "s.json"))
    assert outcomes == []
    assert totals == {"valid": 0, "invalid": 0}


# ---------------------------------------------------------- format checkers

@pytest.mark.parametrize(
    "value,ok",
    [
        ("2021-01-17T09:30:00Z", True),
        ("2021-01-17t09:30:00z", True),
        ("2021-12-31T23:59:59+11:00", True),
        ("2024-02-29T00:00:00Z", True),   # leap day
        ("2023-02-29T00:00:00Z", False),  # not a leap year
        ("2021-01-17T09:30:00.123Z", True),
        ("2021-01-17 09:30:00Z", False),  # space separator
        ("2021-01-17", False),
        ("2021-01-17T09:30:00", False),   # offset required
        ("2021-13-01T00:00:00Z", False),
        ("2021-01-32T00:00:00Z", False),
        ("2021-01-17T24:00:00Z", False),
        ("2021-01-17T09:30:00+24:00", False),
        ("garbage", False),
        ("\uff12\uff10\uff12\uff10-01-01T00:00:00Z", False),  # fullwidth digits
    ],
)
def test_is_date_time(value, ok):
    assert is_date_time(value) is ok


def test_is_date_time_knows_the_length_of_every_month():
    for year in (1900, 2000, 2019, 2020, 2100):
        for month in range(1, 13):
            last = calendar.monthrange(year, month)[1]
            for day in (29, 30, 31):
                value = f"{year:04d}-{month:02d}-{day:02d}T12:00:00Z"
                assert is_date_time(value) is (day <= last), value


@pytest.mark.parametrize(
    "value,ok",
    [
        ("10.20.30.41", True),
        ("0.0.0.0", True),
        ("255.255.255.255", True),
        ("256.1.1.1", False),
        ("01.2.3.4", False),  # leading zero
        ("1.2.3", False),
        ("1.2.3.4.5", False),
        ("a.b.c.d", False),
        ("", False),
        ("\u0661.2.3.4", False),  # Arabic-Indic digit
        ("1.2.3.4\n", False),  # trailing newline
    ],
)
def test_is_ipv4(value, ok):
    assert is_ipv4(value) is ok


def _date_time_grid():
    """Every field just inside and just outside its range, one at a time or
    together: whole dates, whole times, and offsets."""
    for year in (1900, 2000, 2019, 2020, 2100):
        for month in range(14):
            for day in range(33):
                yield f"{year:04d}-{month:02d}-{day:02d}T12:30:30Z"
    edges = (0, 1, 9, 10, 58, 59, 60, 61)
    for hour in range(26):
        for minute in range(62):
            for second in edges:
                yield f"2020-06-15T{hour:02d}:{minute:02d}:{second:02d}Z"
                yield f"2020-06-15T{hour:02d}:{second:02d}:{minute:02d}Z"
    for sign in "+-":
        for hour in (0, 1, 22, 23, 24, 25, 99):
            for minute in (0, 1, 58, 59, 60, 61, 99):
                yield f"2020-02-29t23:59:59.5{sign}{hour:02d}:{minute:02d}"


def test_is_date_time_agrees_with_int_parsing_on_a_grid():
    checked = 0
    for value in _date_time_grid():
        for text in (value, value + "\n"):
            assert is_date_time(text) is int_parsing_is_date_time(text), repr(text)
            checked += 1
    assert checked > 50_000


def test_is_ipv4_agrees_with_int_parsing_on_every_octet():
    octets = {f"{n:0{width}d}" for n in range(1000) for width in (1, 2, 3)}
    for octet in octets:
        for position in range(4):
            parts = ["1", "1", "1", "1"]
            parts[position] = octet
            value = ".".join(parts)
            assert is_ipv4(value) is int_parsing_is_ipv4(value), value
            # The int-parsing route's ``$`` accepts a final newline;
            # ipaddress, jsonschema's route, refuses it.
            assert not is_ipv4(value + "\n"), value


def test_json_equal_distinguishes_bools_from_numbers():
    assert not json_equal(True, 1)
    assert not json_equal(0, False)
    assert json_equal(1, 1.0)
    assert json_equal({"a": [1, True]}, {"a": [1, True]})
    assert not json_equal({"a": [1, True]}, {"a": [1, 1]})


def test_enum_validation_uses_json_equality():
    corpus = make_corpus({"s.json": {"enum": [1, "one"]}})
    schema = resolve(corpus, "s.json")
    assert validate(1, schema).valid
    assert validate("one", schema).valid
    assert not validate(True, schema).valid


def test_integer_accepts_integral_floats_rejects_bools():
    corpus = make_corpus({"s.json": {"type": "integer"}})
    schema = resolve(corpus, "s.json")
    assert validate(3, schema).valid
    assert validate(3.0, schema).valid
    assert not validate(3.5, schema).valid
    assert not validate(True, schema).valid
