"""The contracts of the package's classes: which are immutable values, which
compare by identity, and which constructor arguments they refuse."""

import pytest

from schemalens.corpus import CapabilityVerdict
from schemalens.evaluation import CriterionSpec, EvaluationResult, WeightCase
from schemalens.graph import COLLECTION, ROOT, CardinalityAnnotation, Spec
from schemalens.loader import ResolvedNode
from schemalens.metrics import AttributeCounts, WidthCoefficients
from schemalens.validator import ValidationOutcome, Violation

# (value, an equal value built anew, a different value, its repr)
_VALUES = {
    "CriterionSpec": (
        CriterionSpec(3, "docWidth", "Weight", "weight", "minimize"),
        CriterionSpec(3, "docWidth", "Weight", "weight", "minimize", ""),
        CriterionSpec(3, "docWidth", "Weight", "weight"),
        "CriterionSpec(id=3, metric='docWidth', type_name='Weight', collection='weight',"
        " direction='minimize', label='')",
    ),
    "WeightCase": (
        WeightCase("Case 1", {1: 60.0, 2: 40.0}),
        WeightCase("Case 1", {2: 40.0, 1: 60.0}),
        WeightCase("Case 1", {1: 40.0, 2: 60.0}),
        "WeightCase(name='Case 1', weights={1: 60.0, 2: 40.0})",
    ),
    "WidthCoefficients": (
        WidthCoefficients(),
        WidthCoefficients(1, 2, 1, 3),
        WidthCoefficients(1, 2, 1, 4),
        "WidthCoefficients(cf_atom=1, cf_doc=2, cf_tbl_atom=1, cf_tbl_doc=3)",
    ),
    "AttributeCounts": (
        AttributeCounts(4, 1),
        AttributeCounts(4, 1, 0, 0),
        AttributeCounts(4, 0, 1, 0),
        "AttributeCounts(atomic=4, document=1, array_atomic=0, array_document=0)",
    ),
    "CardinalityAnnotation": (
        CardinalityAnnotation("weight", "message/session", 3),
        CardinalityAnnotation("weight", "message/session", 3),
        CardinalityAnnotation("weight", "message/session", 2),
        "CardinalityAnnotation(collection='weight', path='message/session', cardinality=3)",
    ),
    "Violation": (
        Violation("/message", "eventCore.json#", "type", "expected object, got str"),
        Violation("/message", "eventCore.json#", "type", "expected object, got str"),
        Violation("/message", "eventCore.json#", "required", "expected object, got str"),
        "Violation(instance_path='/message', schema_path='eventCore.json#', keyword='type',"
        " message='expected object, got str')",
    ),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_classes_are_immutable_and_compare_by_value(name):
    value, same, other, text = _VALUES[name]
    assert value == same and value is not same
    assert value != other and not value == other
    assert repr(value) == text
    if name != "WeightCase":  # its weights are a dict, so it has no hash
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2
    first = text[len(name) + 1:].split("=", 1)[0]
    for attribute in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert value == same


@pytest.mark.parametrize(
    "build",
    [
        lambda: WidthCoefficients(0, 2, 1, 3),
        lambda: WidthCoefficients(1, 2, 1, float("inf")),
        lambda: WidthCoefficients()._replace(cf_doc=-1),
        lambda: CardinalityAnnotation("c", "p", 0),
        lambda: CardinalityAnnotation("c", "p", 2)._replace(cardinality=0),
    ],
    ids=["zero-coefficient", "infinite-coefficient", "replaced-coefficient", "zero-cardinality", "replaced-cardinality"],
)
def test_value_classes_refuse_out_of_range_fields(build):
    with pytest.raises(ValueError):
        build()


def test_resolved_nodes_refuse_every_assignment(lei_envelope):
    node = lei_envelope.child_map()["message"]
    for attribute in ("path", "kind", "extra", "checks"):
        with pytest.raises(AttributeError):
            setattr(node, attribute, None)
    for attribute in ("path", "checks"):
        with pytest.raises(AttributeError):
            delattr(node, attribute)
    assert node.path == "/properties/message"


def test_specs_compare_by_identity():
    first, second = Spec(COLLECTION, "weight"), Spec(COLLECTION, "weight")
    assert first == first and first != second
    assert len({first, second}) == 2
    for method in ("__eq__", "__hash__", "__repr__"):
        assert getattr(Spec, method) is getattr(object, method)
    top = Spec(ROOT, "root", kids=(first,))
    assert top.kids[0] is first and top.card is None


def test_value_copies_change_only_the_fields_named():
    spec = CriterionSpec(3, "docWidth", "Weight", "weight", "minimize")
    moved = spec._replace(type_name="Event", collection="event")
    assert moved == CriterionSpec(3, "docWidth", "Event", "event", "minimize")
    assert type(moved) is CriterionSpec and spec.type_name == "Weight"


def test_result_records_compare_by_value_and_have_no_hash():
    violation = Violation("/a", "s.json#", "type", "expected string, got int")
    outcome = ValidationOutcome(False, [violation])
    assert outcome == ValidationOutcome(False, [violation])
    assert outcome != ValidationOutcome(True) and ValidationOutcome(True).violations == []
    assert repr(ValidationOutcome(True)) == "ValidationOutcome(valid=True, violations=[])"
    verdict = CapabilityVerdict("lei", "Weight", "Partial", ["owner"])
    assert verdict == CapabilityVerdict(schema="lei", event="Weight", level="Partial", missing=["owner"])
    assert verdict != EvaluationResult("lei")
    assert repr(verdict) == "CapabilityVerdict(schema='lei', event='Weight', level='Partial', missing=['owner'])"
    for record in (outcome, verdict, EvaluationResult("lei")):
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.extra = None
