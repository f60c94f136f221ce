import hashlib
import json
import random
import re
import time
from dataclasses import astuple

import pytest

from schemalens import graph as graph_module
from schemalens import loader, metrics
from schemalens.errors import GraphTooLarge, SchemaLensError, UnknownCollection
from schemalens.graph import (
    ARRAY_DOCUMENT,
    ATOMIC,
    ATTRIBUTE,
    COLLECTION,
    DOCUMENT,
    EMBEDDED,
    CardinalityAnnotation,
    build_graph,
    classify_attribute,
    to_dot,
)
from schemalens.loader import ResolvedNode, resolve

from harness import (
    diamond_docs,
    enumerate_paths,
    make_corpus,
    random_cyclic_corpus,
    random_graph,
    random_ref_corpus,
    unfold,
)

# sha256 over every node, edge and cardinality of the graphs named in
# test_graph_and_metrics_match_golden_digest, plus the type-scoped metrics of
# every type name they hold. Any change to node ids, sibling order, node
# fields or a metric value changes it.
GOLDEN_GRAPH_SHA256 = "773047b2a6e2c2765daf8d29df529b830afad6ebc4d6b2177d4967a2d97c2802"
# sha256 over the to_dot text of the graphs named in
# test_to_dot_matches_golden_digest: the bundled graphs under their titles,
# random graphs (annotated ones among them), the ref and cyclic corpora, and
# a depth-16 diamond, bare and with an annotated edge. Any change to node
# ids, labels, edge order or edge labels changes it.
GOLDEN_DOT_SHA256 = "56d18d0e0ae0be7aced28c6adab8cba46d431f4daf51bd0ac56234a08e5a1d03"
N_REF_CORPORA = 40
N_CYCLIC_CORPORA = 40
N_RANDOM_GRAPHS = 20
N_DOT_RANDOM_GRAPHS = 40


def _resolve_single(schema_dict):
    return resolve(make_corpus({"entry.json": schema_dict}), "entry.json")


def _level1(graph, collection="weight"):
    tree = unfold(graph)
    node = tree.collection_node(collection)
    return {tree.node(k).type_name: tree.node(k) for k in tree.child_ids(node.id)}


def test_envelope_level1_members(envelope_graph):
    members = _level1(envelope_graph)
    assert set(members) == {"source", "owner", "eventDateTime", "message"}
    docs = [n for n in members.values() if n.kind == EMBEDDED]
    atomics = [n for n in members.values() if n.kind == ATTRIBUTE and n.attr_class == ATOMIC]
    assert sorted(n.type_name for n in docs) == ["message", "owner", "source"]
    assert [n.type_name for n in atomics] == ["eventDateTime"]


def test_entry_with_no_properties_yields_childless_collection():
    tree = unfold(build_graph({"empty": _resolve_single({"type": "object"})}))
    node = tree.collection_node("empty")
    assert node.kind == COLLECTION
    assert tree.child_ids(node.id) == ()


def test_collection_names_are_required():
    with pytest.raises(UnknownCollection):
        build_graph({})


def test_array_of_objects_is_array_document_with_embedded_item():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "readings": {
                    "type": "array",
                    "items": {"type": "object", "properties": {"value": {"type": "number"}}},
                }
            },
        }
    )
    graph = build_graph({"c": entry})
    tree = unfold(graph)
    members = _level1(graph, "c")
    readings = members["readings"]
    assert readings.attr_class == ARRAY_DOCUMENT
    (item_id,) = tree.child_ids(readings.id)
    assert tree.node(item_id).kind == EMBEDDED


@pytest.mark.parametrize(
    "schema,expected",
    [
        ({"type": "string"}, "atomic"),
        ({"type": "number"}, "atomic"),
        ({"enum": ["a", "b"]}, "atomic"),
        ({"type": "object", "properties": {"x": {"type": "string"}}}, "document"),
        ({"type": "array", "items": {"type": "string"}}, "arrayAtomic"),
        ({"type": "array", "items": {"type": "object"}}, "arrayDocument"),
    ],
)
def test_classify_attribute_basic(schema, expected):
    assert classify_attribute(_resolve_single(schema)) == expected


def test_classify_one_of_objects_is_document():
    node = _resolve_single(
        {
            "oneOf": [
                {"type": "object", "properties": {"a": {"type": "string"}}},
                {"type": "object", "properties": {"b": {"type": "string"}}},
            ]
        }
    )
    assert classify_attribute(node) == DOCUMENT


def test_classify_one_of_over_all_lei_event_bodies(manifest):
    schema_set = manifest.schema_set("lei")
    corpus = schema_set.corpus()
    bodies = tuple(resolve(corpus, path) for path in schema_set.events.values())
    assert len(bodies) == 34
    dispatch = ResolvedNode(kind="oneOf", doc_id="<test>", path="", one_of_groups=(bodies,))
    assert classify_attribute(dispatch) == DOCUMENT


def test_classify_mixed_one_of_counts_as_document_and_flags():
    mixed = _resolve_single(
        {"oneOf": [{"type": "object", "properties": {"a": {"type": "string"}}}, {"type": "string"}]}
    )
    assert classify_attribute(mixed) == DOCUMENT
    graph = build_graph(
        {"c": _resolve_single({"type": "object", "properties": {"odd": {"oneOf": [
            {"type": "object", "properties": {"a": {"type": "string"}}},
            {"type": "string"},
        ]}}})}
    )
    assert _level1(graph, "c")["odd"].flagged


def test_enumerate_paths_childless_collection_is_empty():
    graph = build_graph({"c": _resolve_single({"type": "object"})})
    assert enumerate_paths(graph, "c") == []


def test_enumerate_paths_single_chain():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "inner": {"type": "object", "properties": {"leaf": {"type": "string"}}}
            },
        }
    )
    graph = build_graph({"c": entry})
    paths = enumerate_paths(graph, "c")
    assert len(paths) == 1
    assert paths[0].emb_count == 1
    assert len(paths[0].nodes) == 3  # collection, embedded, leaf


def test_enumerate_paths_is_exhaustive(envelope_graph):
    # independent oracle: count leaves by direct DFS over the adjacency
    tree = unfold(envelope_graph)

    def leaves_below(node_id):
        kids = tree.child_ids(node_id)
        if not kids:
            return 1
        return sum(leaves_below(k) for k in kids)

    start = tree.collection_node("weight")
    paths = enumerate_paths(envelope_graph, "weight")
    assert len(paths) == leaves_below(start.id)
    for path in paths:
        embs = sum(1 for nid in path.nodes if tree.node(nid).kind == EMBEDDED)
        assert path.emb_count == embs


def test_unknown_collection_raises(envelope_graph):
    with pytest.raises(UnknownCollection):
        enumerate_paths(envelope_graph, "nope")


def test_cardinality_annotation_is_applied():
    entry = _resolve_single(
        {
            "type": "object",
            "properties": {
                "herd": {"type": "object", "properties": {"tag": {"type": "string"}}}
            },
        }
    )
    ann = CardinalityAnnotation(collection="c", path="herd", cardinality=7)
    tree = unfold(build_graph({"c": entry}, [ann]))
    col = tree.collection_node("c")
    (herd_id,) = tree.child_ids(col.id)
    assert tree.edge_cardinality(col.id, herd_id) == 7


def test_cardinality_annotation_bad_path_raises():
    entry = _resolve_single({"type": "object", "properties": {"a": {"type": "string"}}})
    with pytest.raises(UnknownCollection):
        build_graph({"c": entry}, [CardinalityAnnotation("c", "missing", 2)])


def test_cardinality_must_be_positive():
    with pytest.raises(ValueError):
        CardinalityAnnotation("c", "a", 0)


def test_graph_construction_is_pure(lei_envelope):
    def shape(graph):
        tree = unfold(graph)
        return [
            (tree.node(nid).kind, tree.node(nid).type_name, tree.child_ids(nid))
            for nid in sorted(tree.nodes)
        ]

    first = build_graph({"weight": lei_envelope})
    second = build_graph({"weight": lei_envelope})
    assert shape(first) == shape(second)


def test_required_membership_is_metadata_only(envelope_graph):
    members = _level1(envelope_graph)
    assert members["source"].required
    # optionality must not change the shape: session exists under message
    message = members["message"]
    tree = unfold(envelope_graph)
    message_kids = {tree.node(k).type_name: tree.node(k) for k in tree.child_ids(message.id)}
    assert "session" in message_kids
    assert not message_kids["session"].required


def test_one_of_branch_children_are_expanded(envelope_graph):
    # the weight event body is only declared inside a oneOf branch, yet its
    # units reference must be visible in the graph
    found = [
        n for n in unfold(envelope_graph).nodes.values() if "uncefactMassUnitsType" in n.ref_names
    ]
    assert len(found) == 1


def test_to_dot_labels_nodes_with_kind_and_type(envelope_graph):
    dot = to_dot(envelope_graph, title="weight")
    assert dot.startswith('digraph "weight"')
    assert '"Collection:weight"' in dot
    assert "Embedded:message" in dot
    assert "->" in dot


def test_to_dot_escapes_quotes_and_backslashes_in_strings():
    entry = _resolve_single(
        {"type": "object", "properties": {'a"b': {"type": "string"}, "c\\d": {"type": "object"}}}
    )
    lines = to_dot(build_graph({"c": entry}), title='my "LEI" \\ 2').splitlines()
    assert lines[0] == 'digraph "my \\"LEI\\" \\\\ 2" {'
    assert lines[4:6] == ['  n2 [label="Attribute:a\\"b [atomic]"];', '  n3 [label="Embedded:c\\\\d"];']


def _metric(call, *args):
    try:
        value = call(*args)
    except SchemaLensError as exc:
        return type(exc).__name__
    return tuple(value) if isinstance(value, metrics.AttributeCounts) else value


def _graph_record(graph):
    tree = unfold(graph)
    names = sorted(
        {n.type_name for n in tree.nodes.values() if n.id != tree.root}
        | {r for n in tree.nodes.values() for r in n.ref_names}
    )
    collections = [c.type_name for c in tree.collections()]
    return {
        "nodes": [astuple(n) for n in tree.nodes.values()],
        "children": list(tree.children.items()),
        "cardinalities": sorted(tree.cardinalities.items()),
        "col_depth": [_metric(metrics.col_depth, graph, c) for c in collections],
        "ref_load": [
            [_metric(metrics.ref_load, graph, t), _metric(metrics.ref_load, graph, t, "outgoing")]
            for t in names
        ],
        "per_collection": [
            [
                _metric(metrics.doc_depth_in_col, graph, c, t),
                _metric(metrics.doc_copies_in_col, graph, t, c),
                _metric(metrics.attribute_counts, graph, t, c),
            ]
            for c in collections
            for t in names
        ],
    }


def _bundled_graphs(manifest):
    """``(schema set, entry, graph)`` for the metric entry, the envelope and
    every event body of each bundled schema set."""
    for name in manifest.schema_names():
        schema_set = manifest.schema_set(name)
        corpus = schema_set.corpus()
        entries = dict.fromkeys(
            [schema_set.metric_entry, *filter(None, [schema_set.envelope]), *schema_set.events.values()]
        )
        for entry in entries:
            yield schema_set, entry, build_graph({"weight": resolve(corpus, entry)})


def _corpus_graphs():
    """The graph of every document of the seeded ref and cyclic corpora,
    one collection per document."""
    corpora = [random_ref_corpus(random.Random(seed)) for seed in range(N_REF_CORPORA)]
    corpora += [random_cyclic_corpus(random.Random(seed))[0] for seed in range(N_CYCLIC_CORPORA)]
    for corpus in corpora:
        entries = {doc_id.removesuffix(".json"): resolve(corpus, doc_id) for doc_id in sorted(corpus.documents)}
        yield build_graph(entries)


def test_graph_and_metrics_match_golden_digest(manifest):
    rows = []
    for schema_set, entry, graph in _bundled_graphs(manifest):
        rows.append([schema_set.name, entry, _graph_record(graph)])
    rows += [_graph_record(graph) for graph in _corpus_graphs()]
    for seed in range(N_RANDOM_GRAPHS):
        graph, _ = random_graph(random.Random(seed))
        rows.append(_graph_record(graph))
    assert any(row["cardinalities"] for row in rows[-N_RANDOM_GRAPHS:])  # annotated graphs
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GOLDEN_GRAPH_SHA256


def test_to_dot_matches_golden_digest(manifest):
    texts = [to_dot(graph, title=schema_set.title) for schema_set, _, graph in _bundled_graphs(manifest)]
    texts += [to_dot(random_graph(random.Random(seed))[0]) for seed in range(N_DOT_RANDOM_GRAPHS)]
    texts += [to_dot(graph) for graph in _corpus_graphs()]
    texts += [to_dot(_diamond_graph(16)), to_dot(_diamond_graph(16, [CardinalityAnnotation("c", "leftPart", 3)]))]
    labelled = [text for text in texts if re.search(r"-> n\d+ \[label=", text)]
    assert len(labelled) > 1 and labelled[-1] is texts[-1]  # annotated edges, the diamond's among them
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == GOLDEN_DOT_SHA256


# ------------------------------------------ the DAG, and the tree it draws

def _diamond_graph(depth, annotations=()):
    docs, entry = diamond_docs(depth, fragments=False)
    return build_graph({"c": resolve(make_corpus(docs), entry)}, annotations)


def test_a_graph_is_walked_once_whatever_is_asked_of_it(monkeypatch):
    # Every fold reads the one postorder of the whole DAG; a query about a
    # collection reads the value at its spec.
    corpus = make_corpus({
        "a.json": {"type": "object", "properties": {"owner": {"$ref": "owner.json"}, "tag": {"type": "string"}}},
        "b.json": {"type": "object", "properties": {"owners": {"type": "array", "items": {"$ref": "owner.json"}}}},
        "owner.json": {"type": "object", "properties": {"name": {"type": "string"}}},
    })
    graph = build_graph({"a": resolve(corpus, "a.json"), "b": resolve(corpus, "b.json")})
    walks = []
    postorder = loader.postorder

    def counted(*args, **kwargs):
        walks.append(args[0])
        return postorder(*args, **kwargs)

    monkeypatch.setattr(graph_module.loader, "postorder", counted)
    assert graph.node_count() == len(graph.nodes) == 9
    to_dot(graph)
    metrics.nbr_col(graph)
    metrics.global_depth(graph)
    metrics.ref_load(graph, "owner")
    metrics.doc_type_copies(graph, "owner")
    metrics.max_doc_depth(graph, "owner")
    metrics.min_doc_depth(graph, "owner")
    for collection in ("a", "b"):
        metrics.col_existence(graph, collection)
        metrics.col_depth(graph, collection)
        metrics.doc_existence(graph, collection, "owner")
        metrics.doc_depth_in_col(graph, collection, "owner")
        metrics.doc_copies_in_col(graph, "owner", collection)
        metrics.attribute_counts(graph, "owner", collection)
        metrics.doc_width(graph, collection, collection)
        metrics.ref_load(graph, collection, direction="outgoing")
    assert walks == [graph.dag()]


def test_node_count_of_a_depth_30_diamond_builds_no_node():
    graph = _diamond_graph(30)
    assert len(graph.nodes) == graph.node_count() == 5 * 2**30 - 1


def test_a_tree_over_the_budget_is_refused_and_metrics_still_answer():
    graph = _diamond_graph(30)
    with pytest.raises(GraphTooLarge, match=f"'c'.*{5 * 2**30 - 1}"):
        to_dot(graph)
    assert metrics.col_depth(graph, "c") == 30
    assert metrics.doc_copies_in_col(graph, "t17", "c") == 2**17
    assert metrics.ref_load(graph, "t30") == 2**30
    assert metrics.max_doc_depth(graph, "value1") == 31
    assert metrics.doc_width(graph, "t29", "c") == 1 + 2 * 2


def test_an_annotation_unshares_only_its_path():
    # leftPart -> 3: every level below it occurs three times on the left.
    graph = _diamond_graph(30, [CardinalityAnnotation("c", "leftPart", 3)])
    assert len(graph.nodes) == 5 * 2**30 - 1
    for k in (1, 2, 30):
        assert metrics.doc_copies_in_col(graph, f"t{k}", "c") == 3 * 2 ** (k - 1) + 2 ** (k - 1)
        assert metrics.ref_load(graph, f"t{k}") == 2**k
    deep = _diamond_graph(30, [CardinalityAnnotation("c", "rightPart/leftPart/leftPart", 5)])
    assert metrics.doc_copies_in_col(deep, "t3", "c") == 2**3 + 4
    assert metrics.doc_copies_in_col(deep, "t2", "c") == 2**2


def _head_graph(links: dict) -> "graph_module.MetricGraph":
    """The graph of collection ``c``, whose one property ``head`` is a ref
    to ``t0.json`` of ``links``."""
    docs = {**links, "c.json": {"type": "object", "properties": {"head": {"$ref": "t0.json"}}}}
    return build_graph({"c": resolve(make_corpus(docs), "c.json")})


_LAST_LINK = {"type": "object", "properties": {"tag": {"type": "string"}}}


def test_a_depth_40_one_of_diamond_classifies_each_level_once():
    # Each level is a oneOf of the next and of an array of the next, so a
    # classification per path would take 2^40 steps.
    depth = 40
    links = {
        f"t{k}.json": {"oneOf": [{"$ref": f"t{k + 1}.json"}, {"type": "array", "items": {"$ref": f"t{k + 1}.json"}}]}
        for k in range(depth)
    }
    started = time.perf_counter()
    graph = _head_graph({**links, f"t{depth}.json": _LAST_LINK})
    assert time.perf_counter() - started < 1.0
    tree = unfold(graph)
    head = tree.node(tree.child_ids(1)[0])
    assert (head.kind, head.type_name, head.flagged) == (EMBEDDED, "head", True)  # mixed at every level
    assert len(graph.nodes) == 3


CHAIN_LENGTH = 3_000


def test_a_one_of_chain_of_3000_documents_builds():
    # t<k> is a oneOf of t<k+1> and of an object whose ``next`` is t<k+1>:
    # classifying t0 reaches down the whole chain.
    links = {
        f"t{k}.json": {"oneOf": [
            {"$ref": f"t{k + 1}.json"}, {"type": "object", "properties": {"next": {"$ref": f"t{k + 1}.json"}}},
        ]}
        for k in range(CHAIN_LENGTH - 1)
    }
    graph = _head_graph({**links, f"t{CHAIN_LENGTH - 1}.json": _LAST_LINK})
    # root, c, head, a ``next`` for each later link, and a ``tag`` in the
    # last two: the last but one takes the last's members from its oneOf
    assert len(graph.nodes) == CHAIN_LENGTH + 4
    assert metrics.col_depth(graph, "c") == CHAIN_LENGTH
    assert not any(node.flagged for node in unfold(graph).nodes.values())


def test_an_array_chain_of_3000_documents_builds():
    # t<k> is an array of t<k+1>: t0 is an array of documents only because
    # the last link is an object.
    links = {f"t{k}.json": {"type": "array", "items": {"$ref": f"t{k + 1}.json"}} for k in range(CHAIN_LENGTH - 1)}
    graph = _head_graph({**links, f"t{CHAIN_LENGTH - 1}.json": _LAST_LINK})
    tree = unfold(graph)
    head_id = tree.child_ids(1)[0]
    assert tree.node(head_id).attr_class == ARRAY_DOCUMENT
    # root, c, head and head's item, an array with no members
    assert [tree.node(k).type_name for k in tree.child_ids(head_id)] == ["t1"]
    assert len(graph.nodes) == 4
    assert metrics.col_depth(graph, "c") == 1


def test_a_depth_16_diamond_still_builds_its_tree():
    graph = _diamond_graph(16)
    tree = unfold(graph)
    assert len(tree.children) == len(tree.nodes) == len(graph.nodes) == 5 * 2**16 - 1
    assert [tree.node(k).type_name for k in tree.child_ids(1)] == ["leftPart", "rightPart", "tag"]
    # preorder: each half below the collection holds 5 * 2^15 - 2 nodes
    assert tree.child_ids(1) == (2, 5 * 2**15, 5 * 2**16 - 2)
