"""Verdict agreement between the shipped validator and an independent
reference validator (jsonschema, draft 2019-09, file-URI resolution) across
the bundled instances, systematic mutants, a large randomised stream, and
random schemas and corpora over the loader's subset with instances drawn
from them."""

import copy
import random

import pytest

from schemalens.errors import CycleReached, MergeConflict, ParseError
from schemalens.loader import resolve
from schemalens.validator import is_date_time, is_ipv4, validate

from harness import (
    NON_RFC3339_DATE_TIMES,
    envelope_mutants,
    make_corpus,
    oracle_for_docs,
    oracle_format_checker,
    random_instance,
    random_multi_file_corpus,
    random_subset_schema,
    random_variant,
    reference_validator,
)

N_RANDOM_VARIANTS = 1000


@pytest.fixture(scope="module")
def oracle(manifest):
    schema_set = manifest.schema_set("lei")
    return reference_validator(schema_set.corpus_dir, "eventCore.json")


def _agree(instance, lei_envelope, oracle):
    native = validate(instance, lei_envelope).valid
    reference = oracle.is_valid(instance)
    return native, reference


def test_oracle_accepts_every_scenario_instance(scenario_documents, oracle):
    for path, doc in scenario_documents:
        errors = list(oracle.iter_errors(doc))
        assert not errors, (path.name, [e.message for e in errors[:3]])


def test_agreement_on_scenario_instances(scenario_documents, lei_envelope, oracle):
    for path, doc in scenario_documents:
        native, reference = _agree(doc, lei_envelope, oracle)
        assert native is True and reference is True, path.name


def test_agreement_on_systematic_mutants(scenario_documents, lei_envelope, oracle):
    for path, doc in scenario_documents:
        for label, mutant in envelope_mutants(doc):
            native, reference = _agree(mutant, lei_envelope, oracle)
            assert native is False, (path.name, label)
            assert reference is False, (path.name, label)


def _item_mutants(animal):
    """Items of LEI's itemType.json group: each body without a tag, with a
    tag no branch admits, and with each branch's tag."""
    bodies = [
        ("animal", animal),
        ("crop", {"cropType": "Wheat", "paddock": "North"}),
        ("machinery", {"machineryType": "Tractor", "registration": "AB-123"}),
    ]
    items = [{key: body} for key, body in bodies]
    for tag in (3, None, "Robots", "Animals", "Crops", "Machinery"):
        items += [{"itemType": tag, key: body} for key, body in bodies]
    return items


def test_agreement_on_item_mutants(manifest, lei_corpus, scenario_documents, lei_envelope, oracle):
    weight = next(doc for _, doc in scenario_documents if doc["message"]["eventName"] == "Weight")
    item_schema = resolve(lei_corpus, "itemType.json")
    item_oracle = reference_validator(manifest.schema_set("lei").corpus_dir, "itemType.json")
    valid_items = []
    for item in _item_mutants(weight["message"]["item"]["animal"]):
        document = copy.deepcopy(weight)
        document["message"]["item"] = item
        native, reference = _agree(document, lei_envelope, oracle)
        assert native is reference, item
        native = validate(item, item_schema).valid
        assert native is item_oracle.is_valid(item), item
        if native:
            valid_items.append(item)
    assert [(item["itemType"], len(item)) for item in valid_items] == [
        ("Animals", 2), ("Crops", 2), ("Machinery", 2)
    ]
    assert valid_items[0] == weight["message"]["item"]


def test_agreement_on_random_variants(scenario_documents, lei_envelope, oracle):
    rng = random.Random(18250117)
    bases = [doc for _, doc in scenario_documents]
    bodies = [copy.deepcopy(doc["message"]["event"]) for doc in bases]

    disagreements = []
    valid_seen = invalid_seen = 0
    for i in range(N_RANDOM_VARIANTS):
        base = rng.choice(bases)
        variant = random_variant(rng, base, bodies)
        native, reference = _agree(variant, lei_envelope, oracle)
        if native:
            valid_seen += 1
        else:
            invalid_seen += 1
        if native is not reference:
            disagreements.append((i, native, reference, variant))

    assert not disagreements, disagreements[:3]
    # the stream must genuinely exercise both verdicts
    assert valid_seen >= 50
    assert invalid_seen >= 200


# ------------------------------------------------- random subset schemas

FUZZ_SEEDS = (1, 2, 3)
N_FUZZ_SCHEMAS = 500
N_FUZZ_INSTANCES = 30
N_FUZZ_CORPORA = 120
N_CORPUS_INSTANCES = 10


def _verdicts(rng, docs, entry, instances):
    """Native verdicts on ``instances`` drawn from ``docs[entry]``, checked
    against the oracle: None when the loader refuses the schema, else
    (checked, valid) counts. An instance that reaches a cycle stub is
    refused and skipped."""
    try:
        schema = resolve(make_corpus(docs), entry)
    except (ParseError, MergeConflict):
        return None
    oracle = oracle_for_docs(docs, entry)
    checked = valid = 0
    for _ in range(instances):
        instance = random_instance(rng, docs[entry], docs, entry)
        try:
            native = validate(instance, schema).valid
        except CycleReached:
            continue
        assert native is oracle.is_valid(instance), (docs, entry, instance)
        checked += 1
        valid += native
    return checked, valid


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_subset_schemas_are_refused_or_agree_with_oracle(seed):
    rng = random.Random(seed)
    results = []
    for _ in range(N_FUZZ_SCHEMAS):
        schema = random_subset_schema(rng)
        results.append(_verdicts(rng, {"s.json": schema}, "s.json", N_FUZZ_INSTANCES))
    resolved = [r for r in results if r is not None]
    assert len(resolved) >= N_FUZZ_SCHEMAS // 2
    checked = sum(c for c, _ in resolved)
    valid = sum(v for _, v in resolved)
    assert valid >= checked // 5 and checked - valid >= checked // 5


def test_random_multi_file_corpora_are_refused_or_agree_with_oracle():
    rng = random.Random(20230101)
    results = []
    for _ in range(N_FUZZ_CORPORA):
        docs, entries = random_multi_file_corpus(rng)
        for entry in rng.sample(entries, min(2, len(entries))):
            results.append(_verdicts(rng, docs, entry, N_CORPUS_INSTANCES))
    resolved = [r for r in results if r is not None]
    assert len(resolved) >= len(results) // 2
    assert sum(c for c, _ in resolved) >= 1000


def test_the_date_time_oracle_follows_rfc3339():
    checker = oracle_format_checker()
    for value in NON_RFC3339_DATE_TIMES:
        assert not checker.conforms(value, "date-time"), value
        assert not is_date_time(value), value
    for value in ["2020-01-01T00:00:00Z", "2020-01-01t00:00:00.5z", "2020-02-29T23:59:59-01:30"]:
        assert checker.conforms(value, "date-time"), value


def test_a_trailing_newline_gets_the_oracle_verdict():
    checker = oracle_format_checker()
    for value in ["1.2.3.4\n", "255.255.255.255\n", "0.0.0.0\n"]:
        assert not checker.conforms(value, "ipv4"), value
        assert not is_ipv4(value), value
    for value in ["2020-01-01T00:00:00Z\n", "2020-02-29t23:59:59.5-01:30\n"]:
        assert checker.conforms(value, "date-time"), value
        assert is_date_time(value), value
