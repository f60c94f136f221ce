import copy
import hashlib
import json
import random

import pytest

from schemalens import validator
from schemalens.errors import AmbiguousBranch, NoBranch, SchemaUnresolved
from schemalens.loader import resolve
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
    envelope_mutants,
    make_corpus,
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


def test_weight_scenario_evaluates_one_message_branch(weight_instance, lei_envelope, monkeypatch):
    (group,) = lei_envelope.child_map()["message"].one_of_groups
    assert len(group) == 34
    evaluated = []
    quiet_valid = validator._quiet_valid

    def counting(value, node):
        if any(node is branch for branch in group):
            evaluated.append(node)
        return quiet_valid(value, node)

    monkeypatch.setattr(validator, "_quiet_valid", counting)
    assert validate(weight_instance, lei_envelope).valid
    assert len(evaluated) == 1
    assert evaluated[0].child_map()["eventName"].enum_values == ("Weight",)


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
    {"x": "s"},
    {"y": 2},
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
    assert schema.one_of_tags[0].discriminator == discriminator
    oracle = reference_validator(tmp_path, "s.json")
    for instance in _INSTANCES:
        assert validate(instance, schema).valid is oracle.is_valid(instance), instance


def test_discriminated_group_agrees_with_oracle(tmp_path):
    _assert_agrees_with_oracle(tmp_path, [_A, _BC], "kind")


def test_branch_without_required_falls_back(tmp_path):
    loose = _branch(["b", "c"], {"y": {"type": "integer"}}, required=None)
    _assert_agrees_with_oracle(tmp_path, [_A, loose], None)


def test_duplicated_enum_value_falls_back(tmp_path):
    overlapping = _branch(["a", "b"], {"y": {"type": "integer"}})
    _assert_agrees_with_oracle(tmp_path, [_A, overlapping], None)


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
    ],
)
def test_is_date_time(value, ok):
    assert is_date_time(value) is ok


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
    ],
)
def test_is_ipv4(value, ok):
    assert is_ipv4(value) is ok


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
