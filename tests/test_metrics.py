import math
import random

import pytest

from schemalens import metrics
from schemalens.errors import TypeAbsent, UnknownCollection
from schemalens.evaluation import run_comparison
from schemalens.graph import (
    ATOMIC, ATTRIBUTE, COLLECTION, EMBEDDED, ROOT, CardinalityAnnotation, MetricGraph, Spec, build_graph,
)
from schemalens.loader import ARRAY, CYCLE, OBJECT, ResolvedNode, resolve
from schemalens.metrics import AttributeCounts, WidthCoefficients

from harness import (
    diamond_docs, enumerate_paths, make_corpus, oracle_ref_load, random_annotations, tree_walk, unfold,
)


def _resolve_single(schema_dict):
    return resolve(make_corpus({"entry.json": schema_dict}), "entry.json")


def _empty_graph():
    return MetricGraph(Spec(ROOT, "root"))


# ----------------------------- reference values for the bundled fixtures

def test_col_existence_weight_is_one_for_all_schemas(graphs):
    for graph in graphs.values():
        assert metrics.col_existence(graph, "weight") == 1


def test_col_existence_zero_when_absent(graphs):
    assert metrics.col_existence(_empty_graph(), "weight") == 0
    assert metrics.col_existence(graphs["LEI"], "score") == 0


def test_col_existence_requires_level_zero():
    # a type named "weight" embedded deeper must not count as a collection
    entry = _resolve_single(
        {"type": "object", "properties": {"weight": {"type": "object", "properties": {}}}}
    )
    graph = build_graph({"outer": entry})
    assert metrics.col_existence(graph, "weight") == 0
    assert metrics.doc_existence(graph, "outer", "weight") == 1


def test_doc_copies_reference_values(graphs):
    for type_name in ("source", "session", "owner"):
        assert metrics.doc_copies_in_col(graphs["LEI"], type_name, "weight") == 1
        assert metrics.doc_copies_in_col(graphs["ICAR"], type_name, "weight") == 0
        assert metrics.doc_copies_in_col(graphs["ISC"], type_name, "weight") == 0


def test_ref_load_uncefact_is_one_everywhere(graphs):
    for graph in graphs.values():
        assert metrics.ref_load(graph, "uncefactMassUnitsType") == 1


def test_doc_width_reference_values(graphs):
    assert metrics.doc_width(graphs["LEI"], "weight", "weight") == 6
    assert metrics.doc_width(graphs["ICAR"], "weight", "weight") == 12
    assert metrics.doc_width(graphs["ISC"], "weight", "weight") == 20


def test_doc_depth_in_col_event_date_time_is_one(graphs):
    for graph in graphs.values():
        assert metrics.doc_depth_in_col(graph, "weight", "eventDateTime") == 1


def test_doc_existence_event_name(graphs):
    assert metrics.doc_existence(graphs["LEI"], "weight", "eventName") == 1
    assert metrics.doc_existence(graphs["ICAR"], "weight", "eventName") == 0
    assert metrics.doc_existence(graphs["ISC"], "weight", "eventName") == 0


# ------------------------------------------------- width and counts details

def test_envelope_attribute_counts(envelope_graph):
    counts = metrics.attribute_counts(envelope_graph, "weight", "weight")
    assert counts == AttributeCounts(atomic=1, document=3, array_atomic=0, array_document=0)


def test_isc_attribute_counts(graphs):
    counts = metrics.attribute_counts(graphs["ISC"], "weight", "weight")
    assert counts == AttributeCounts(atomic=4, document=8, array_atomic=0, array_document=0)


def test_icar_attribute_counts(graphs):
    counts = metrics.attribute_counts(graphs["ICAR"], "weight", "weight")
    assert counts == AttributeCounts(atomic=4, document=4, array_atomic=0, array_document=0)


def test_attribute_counts_empty_node():
    graph = build_graph({"c": _resolve_single({"type": "object"})})
    assert metrics.attribute_counts(graph, "c", "c") == AttributeCounts(0, 0, 0, 0)


def test_attribute_counts_type_absent_raises(graphs):
    with pytest.raises(TypeAbsent):
        metrics.attribute_counts(graphs["LEI"], "ghost", "weight")


def test_doc_width_zero_counts_is_zero():
    graph = build_graph({"c": _resolve_single({"type": "object"})})
    assert metrics.doc_width(graph, "c", "c") == 0


def test_doc_width_with_unit_coefficients_is_total_attribute_count(graphs):
    unit = WidthCoefficients(1, 1, 1, 1)
    for graph in graphs.values():
        counts = metrics.attribute_counts(graph, "weight", "weight")
        assert metrics.doc_width(graph, "weight", "weight", unit) == counts.total


def test_width_coefficients_must_be_positive():
    with pytest.raises(ValueError):
        WidthCoefficients(0, 2, 1, 3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_width_coefficients_must_be_finite(value):
    with pytest.raises(ValueError, match="positive and finite"):
        WidthCoefficients(1, 2, value, 3)


def test_width_coefficients_parse():
    coeffs = WidthCoefficients.parse("1, 2, 1, 3")
    assert coeffs == metrics.DEFAULT_COEFFICIENTS
    with pytest.raises(ValueError):
        WidthCoefficients.parse("1,2,3")


def test_absent_is_one_marker_that_shows_as_its_name():
    assert metrics.Absent() is metrics.ABSENT
    assert repr(metrics.ABSENT) == "Absent"


# ------------------------------------------------------------ depth metrics

def test_col_depth_chain_of_two():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "a": {
                    "type": "object",
                    "properties": {"b": {"type": "object", "properties": {"leaf": {"type": "string"}}}},
                }
            },
        }
    )
    graph = build_graph({"c": entry})
    assert metrics.col_depth(graph, "c") == 2


def test_col_depth_childless_collection_is_zero():
    graph = build_graph({"c": _resolve_single({"type": "object"})})
    assert metrics.col_depth(graph, "c") == 0


def test_col_depth_matches_path_enumeration(graphs, envelope_graph):
    for graph in list(graphs.values()) + [envelope_graph]:
        expected = max((p.emb_count for p in enumerate_paths(graph, "weight")), default=0)
        assert metrics.col_depth(graph, "weight") == expected


def test_global_depth_is_max_over_collections():
    shallow = _resolve_single({"type": "object", "properties": {"x": {"type": "string"}}})
    deep = _resolve_single(
        {
            "type": "object",
            "properties": {"a": {"type": "object", "properties": {"b": {"type": "object"}}}},
        }
    )
    graph = build_graph({"s": shallow, "d": deep})
    assert metrics.global_depth(graph) == max(
        metrics.col_depth(graph, "s"), metrics.col_depth(graph, "d")
    )
    assert metrics.global_depth(_empty_graph()) == 0


def test_doc_depth_two_level_hand_count():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "direct": {"type": "string"},
                "nested": {"type": "object", "properties": {"tucked": {"type": "string"}}},
            },
        }
    )
    graph = build_graph({"c": entry})
    assert metrics.doc_depth_in_col(graph, "c", "direct") == 1
    assert metrics.doc_depth_in_col(graph, "c", "nested") == 1
    assert metrics.doc_depth_in_col(graph, "c", "tucked") == 2


def test_doc_depth_absent_type_raises(graphs):
    with pytest.raises(TypeAbsent):
        metrics.doc_depth_in_col(graphs["LEI"], "weight", "ghost")


def test_max_min_doc_depth_single_occurrence_coincide(graphs):
    graph = graphs["LEI"]
    assert metrics.max_doc_depth(graph, "eventDateTime") == metrics.min_doc_depth(
        graph, "eventDateTime"
    )


def test_max_min_doc_depth_across_collections():
    shallow = _resolve_single({"type": "object", "properties": {"t": {"type": "string"}}})
    deep = _resolve_single(
        {
            "type": "object",
            "properties": {"wrap": {"type": "object", "properties": {"t": {"type": "string"}}}},
        }
    )
    graph = build_graph({"s": shallow, "d": deep})
    assert metrics.min_doc_depth(graph, "t") == 1
    assert metrics.max_doc_depth(graph, "t") == 2
    with pytest.raises(TypeAbsent):
        metrics.max_doc_depth(graph, "ghost")


# ------------------------------------------------------------ existence etc

def test_nbr_col():
    assert metrics.nbr_col(_empty_graph()) == 0
    one = build_graph({"a": _resolve_single({"type": "object"})})
    assert metrics.nbr_col(one) == 1
    three = build_graph(
        {name: _resolve_single({"type": "object"}) for name in ("a", "b", "c")}
    )
    assert metrics.nbr_col(three) == 3


def test_doc_existence_unknown_collection(graphs):
    with pytest.raises(UnknownCollection):
        metrics.doc_existence(graphs["LEI"], "nope", "source")


def test_doc_type_copies_sums_over_collections():
    holder = {"type": "object", "properties": {"t": {"type": "string"}}}
    empty = {"type": "object"}
    graph = build_graph(
        {
            "a": _resolve_single(holder),
            "b": _resolve_single(holder),
            "c": _resolve_single(empty),
        }
    )
    assert metrics.doc_type_copies(graph, "t") == 2
    assert metrics.doc_type_copies(graph, "ghost") == 0


@pytest.mark.parametrize("holder_first", [False, True], ids=["holder-last", "holder-first"])
def test_two_collections_of_one_name_are_each_measured(holder_first):
    # Only a hand-built graph repeats a collection name: build_graph takes a
    # mapping. Each metric over all collections must measure each one.
    flat = Spec(COLLECTION, "c", kids=(Spec(ATTRIBUTE, "flat", ATOMIC),))
    holder = Spec(COLLECTION, "c", kids=(Spec(EMBEDDED, "box", kids=(Spec(ATTRIBUTE, "inner", ATOMIC),)),))
    graph = MetricGraph(Spec(ROOT, "root", kids=(holder, flat) if holder_first else (flat, holder)))
    tree = unfold(graph)
    walks = [list(tree_walk(graph, c)) for c in tree.child_ids(tree.root)]
    depths = [max((level - (node.kind != EMBEDDED) for node, level, _ in walk), default=0) for walk in walks]
    levels = [max(found) for walk in walks if (found := [level for node, level, _ in walk if node.matches("inner")])]
    assert sorted(depths) == [0, 1] and levels == [2]
    assert metrics.global_depth(graph) == max(depths) == 1
    assert metrics.max_doc_depth(graph, "inner") == max(levels) == 2
    assert metrics.min_doc_depth(graph, "inner") == min(levels) == 2
    assert metrics.doc_type_copies(graph, "inner") == len(levels) == 1


def test_build_graph_and_run_comparison_take_only_a_mapping(criteria):
    entry = _resolve_single({"type": "object"})
    with pytest.raises(AttributeError):
        build_graph([("c", entry)])
    with pytest.raises(AttributeError):
        run_comparison([("X", build_graph({"c": entry}))], criteria, ())


# ---------------------------------------------------------------- refLoad

def test_ref_load_unreferenced_collection_is_zero():
    graph = build_graph({"lonely": _resolve_single({"type": "object"})})
    assert metrics.ref_load(graph, "lonely") == 0


def test_ref_load_unknown_name_raises(graphs):
    with pytest.raises(UnknownCollection):
        metrics.ref_load(graphs["LEI"], "neverHeardOfIt")


def test_ref_load_of_the_root_name_raises():
    # "root" names only the synthetic Root node, which is no type of the graph.
    graph = build_graph({"lonely": resolve(make_corpus({"a.json": {"type": "object"}}), "a.json")})
    with pytest.raises(UnknownCollection):
        metrics.ref_load(graph, "root")
    assert metrics.ref_load(graph, "lonely") == 0


def test_ref_load_counts_each_referencing_site():
    corpus = make_corpus(
        {
            "eventA.json": {"type": "object", "properties": {"shared": {"$ref": "sharedType.json"}}},
            "eventB.json": {"type": "object", "properties": {"also": {"$ref": "sharedType.json"}}},
            "sharedType.json": {"type": "object", "properties": {"v": {"type": "number"}}},
        }
    )
    graph = build_graph(
        {"a": resolve(corpus, "eventA.json"), "b": resolve(corpus, "eventB.json")}
    )
    assert metrics.ref_load(graph, "sharedType") == 2


def test_ref_load_outgoing_direction():
    corpus = make_corpus(
        {
            "eventA.json": {"type": "object", "properties": {"shared": {"$ref": "sharedType.json"}}},
            "plain.json": {"type": "object", "properties": {"v": {"type": "number"}}},
            "sharedType.json": {"type": "object", "properties": {"v": {"type": "number"}}},
        }
    )
    graph = build_graph(
        {"a": resolve(corpus, "eventA.json"), "p": resolve(corpus, "plain.json")}
    )
    assert metrics.ref_load(graph, "a", direction="outgoing") == 1
    assert metrics.ref_load(graph, "p", direction="outgoing") == 0
    with pytest.raises(ValueError):
        metrics.ref_load(graph, "a", direction="sideways")


def test_ref_load_counts_a_cycle_stub_that_names_no_target():
    # resolve names every cycle stub after its $ref. A stub without
    # ref_names becomes a Reference named after its property, or
    # "<property>Item" as an array's item, and refLoad counts it by that name.
    stub = ResolvedNode(kind=CYCLE, doc_id="<test>", path="/properties/back")
    backs = ResolvedNode(kind=ARRAY, doc_id="<test>", path="/properties/backs", item=stub)
    entry = ResolvedNode(kind=OBJECT, doc_id="<test>", path="", children=(("back", stub), ("backs", backs)))
    graph = build_graph({"c": entry})
    for name in ("back", "backsItem"):
        assert metrics.ref_load(graph, name) == oracle_ref_load(graph, name) == 1
    assert metrics.ref_load(graph, "backs") == oracle_ref_load(graph, "backs") == 0
    assert metrics.ref_load(graph, "c", direction="outgoing") == 2


# ------------------------------------------------------------- redundancy

def test_doc_copies_absent_type_is_zero(graphs):
    assert metrics.doc_copies_in_col(graphs["LEI"], "ghost", "weight") == 0


def test_doc_copies_annotated_chain_is_the_product():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "pen": {
                    "type": "object",
                    "properties": {"animal": {"type": "object", "properties": {"tag": {"type": "string"}}}},
                }
            },
        }
    )
    annotations = [
        CardinalityAnnotation("c", "pen", 3),
        CardinalityAnnotation("c", "pen/animal", 4),
    ]
    graph = build_graph({"c": entry}, annotations)
    assert metrics.doc_copies_in_col(graph, "animal", "c") == 12
    assert metrics.doc_copies_in_col(graph, "pen", "c") == 3
    assert metrics.doc_copies_in_col(graph, "tag", "c") == 12


def test_doc_copies_zero_iff_doc_existence_zero(graphs):
    for graph in graphs.values():
        for type_name in ("source", "session", "owner", "eventName", "ghost"):
            copies = metrics.doc_copies_in_col(graph, type_name, "weight")
            existence = metrics.doc_existence(graph, "weight", type_name)
            assert (copies == 0) == (existence == 0)


# ------------------------------------------- the DAG programs against the tree

def _tree_oracle(graph, collection, names):
    """Every metric of the graph's collection recomputed on its unfolded
    tree: the occurrences come from a plain preorder walk, colDepth from
    enumerate_paths."""
    tree = unfold(graph)
    start = tree.collection_node(collection)
    walked = list(tree_walk(graph, start.id))
    values = {
        "col_depth": max((p.emb_count for p in enumerate_paths(graph, collection)), default=0),
        "global_depth": max((p.emb_count for p in enumerate_paths(graph, collection)), default=0),
        "nbr_col": len(tree.child_ids(tree.root)),
        "ref_out": sum(
            len(node.ref_names) if node.kind != "Reference" else max(len(node.ref_names), 1)
            for node, _, _ in walked
        ),
    }
    for name in names:
        found = [(node, level, copies) for node, level, copies in walked if node.matches(name)]
        target = start if start.matches(name) or name == collection else (found[0][0] if found else None)
        kids = [tree.node(k) for k in tree.child_ids(target.id)] if target else []
        values[name] = {
            "exists": int(bool(found)),
            "copies": sum(copies for _, _, copies in found),
            "depth": max((level for _, level, _ in found), default="TypeAbsent"),
            "ref_in": (
                sum(
                    node.ref_names.count(name)
                    + (node.kind == "Reference" and node.type_name == name and name not in node.ref_names)
                    for node in tree.nodes.values()
                )
                if any(node.matches(name) for node in tree.nodes.values() if node.id != tree.root)
                else "UnknownCollection"
            ),
            "counts": (
                AttributeCounts(
                    sum(k.kind == "Attribute" and k.attr_class == "atomic" for k in kids),
                    sum(k.kind in ("Embedded", "Reference") for k in kids),
                    sum(k.kind == "Attribute" and k.attr_class == "arrayAtomic" for k in kids),
                    sum(k.kind == "Attribute" and k.attr_class == "arrayDocument" for k in kids),
                )
                if target
                else "TypeAbsent"
            ),
        }
    return values


def _dag_values(graph, collection, names):
    def value(call, *args):
        try:
            return call(*args)
        except (TypeAbsent, UnknownCollection) as exc:
            return type(exc).__name__

    values = {
        "col_depth": metrics.col_depth(graph, collection),
        "global_depth": metrics.global_depth(graph),
        "nbr_col": metrics.nbr_col(graph),
        "ref_out": metrics.ref_load(graph, collection, "outgoing"),
    }
    for name in names:
        depths = {value(metrics.doc_depth_in_col, graph, collection, name)}
        depths |= {value(metrics.max_doc_depth, graph, name), value(metrics.min_doc_depth, graph, name)}
        assert len(depths) == 1, (name, depths)
        assert metrics.doc_type_copies(graph, name) == metrics.doc_existence(graph, collection, name)
        values[name] = {
            "exists": metrics.doc_existence(graph, collection, name),
            "copies": metrics.doc_copies_in_col(graph, name, collection),
            "depth": depths.pop(),
            "ref_in": value(metrics.ref_load, graph, name),
            "counts": value(metrics.attribute_counts, graph, name, collection),
        }
    return values


@pytest.mark.parametrize(
    "fragments, arrays, one_of",
    [(False, False, False), (True, False, False), (False, True, False), (False, False, True)],
    ids=["documents", "fragments", "arrays", "oneOf"],
)
@pytest.mark.parametrize("depth", range(1, 11))
def test_dag_metrics_match_the_tree_on_diamonds(depth, fragments, arrays, one_of):
    docs, entry = diamond_docs(depth, fragments, arrays, one_of)
    resolved = resolve(make_corpus(docs), entry)
    bare = build_graph({"c": resolved})
    rng = random.Random(depth)
    annotations = []
    while len(annotations) < 3:
        annotations += random_annotations(rng, bare, ["c"], stop=0.2)
    annotated = build_graph({"c": resolved}, annotations)
    for graph in (build_graph({"c": resolved}), annotated):
        specs = [spec for group in graph.postorder() for spec in group]
        names = sorted({r for spec in specs for r in (spec.type_name, *spec.ref_names)} | {"ghost"})
        count = len(graph.nodes)
        dag = _dag_values(graph, "c", names)
        assert dag == _tree_oracle(graph, "c", names)
        assert count == len(unfold(graph).nodes) == len(unfold(graph).children)
        assert count == 5 * 2**depth - 1 or arrays
    # The annotations set exactly the edges their paths name in the bare
    # tree, and change nothing else.
    edges = {}
    bare_tree, annotated_tree = unfold(bare), unfold(annotated)
    for ann in annotations:
        current = bare_tree.collection_node("c").id
        for step in ann.path.split("/"):
            parent, current = current, next(
                k for k in bare_tree.child_ids(current) if bare_tree.node(k).type_name == step
            )
        edges[parent, current] = ann.cardinality
    assert annotated_tree.cardinalities == edges
    assert annotated_tree.nodes == bare_tree.nodes and annotated_tree.children == bare_tree.children
