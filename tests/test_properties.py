import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemalens import metrics
from schemalens.errors import SchemaLensError, TypeAbsent
from schemalens.evaluation import (
    MAXIMIZE,
    MINIMIZE,
    PRESENCE,
    CriterionSpec,
    WeightCase,
    evaluate_schema,
    normalize,
)
from schemalens.graph import ROOT, build_graph
from schemalens.loader import CYCLE, resolve
from schemalens.metrics import ABSENT, WidthCoefficients

from harness import (
    TYPE_POOL,
    enumerate_paths,
    make_corpus,
    oracle_attribute_counts,
    oracle_col_depth,
    oracle_doc_copies,
    oracle_doc_depth_in_col,
    oracle_doc_existence,
    oracle_ref_load,
    random_annotations,
    random_cyclic_corpus,
    random_graph,
    random_multi_file_corpus,
    random_ref_corpus,
    unfold,
)

N_GRAPHS = 500
N_WEIGHT_VECTORS = 500
N_CYCLIC_CORPORA = 100
N_CORPORA_PER_KIND = 30
MAX_CORPUS_TREE = 150

PROBE_TYPES = TYPE_POOL + ["absentType"]


def _assert_metrics_match_oracles(graph, collections, probe_types):
    """Every metric of ``graph`` equals its path-enumeration oracle, for each
    collection and each of ``probe_types``."""
    unit = WidthCoefficients(1, 1, 1, 1)
    for collection in collections:
        assert metrics.col_depth(graph, collection) == oracle_col_depth(graph, collection)
        for type_name in probe_types:
            existence = metrics.doc_existence(graph, collection, type_name)
            assert existence == oracle_doc_existence(graph, collection, type_name), (
                collection, type_name,
            )
            copies = metrics.doc_copies_in_col(graph, type_name, collection)
            assert copies == oracle_doc_copies(graph, collection, type_name)
            # docCopies = 0 exactly when the type is absent
            assert (copies == 0) == (existence == 0)

            expected_depth = oracle_doc_depth_in_col(graph, collection, type_name)
            if expected_depth is None:
                with pytest.raises(TypeAbsent):
                    metrics.doc_depth_in_col(graph, collection, type_name)
            else:
                assert (
                    metrics.doc_depth_in_col(graph, collection, type_name)
                    == expected_depth
                )

            expected_counts = oracle_attribute_counts(graph, collection, type_name)
            if expected_counts is None:
                with pytest.raises(TypeAbsent):
                    metrics.attribute_counts(graph, type_name, collection)
            else:
                got = metrics.attribute_counts(graph, type_name, collection)
                assert {
                    "atomic": got.atomic,
                    "document": got.document,
                    "arrayAtomic": got.array_atomic,
                    "arrayDocument": got.array_document,
                } == expected_counts
                # unit coefficients turn width into the plain count
                assert metrics.doc_width(graph, type_name, collection, unit) == got.total

    # schema-scope metrics
    assert metrics.global_depth(graph) == max(
        (oracle_col_depth(graph, c) for c in collections), default=0
    )
    for type_name in probe_types:
        assert metrics.doc_type_copies(graph, type_name) == sum(
            oracle_doc_existence(graph, c, type_name) for c in collections
        )
        holders = [
            c for c in collections if oracle_doc_existence(graph, c, type_name)
        ]
        if holders:
            depths = [oracle_doc_depth_in_col(graph, c, type_name) for c in holders]
            assert metrics.min_doc_depth(graph, type_name) == min(depths)
            assert metrics.max_doc_depth(graph, type_name) == max(depths)
            assert metrics.min_doc_depth(graph, type_name) <= metrics.max_doc_depth(
                graph, type_name
            )
        if graph.knows_name(type_name):
            assert metrics.ref_load(graph, type_name) == oracle_ref_load(graph, type_name)


def test_metrics_match_path_enumeration_oracle_on_random_graphs():
    rng = random.Random(20210117)
    for _ in range(N_GRAPHS):
        graph, collections = random_graph(rng)
        assert len(graph.nodes) <= 52  # node budget + root + collections slack
        assert metrics.nbr_col(graph) == len(collections)
        _assert_metrics_match_oracles(graph, collections, PROBE_TYPES)


def _random_corpus_graph(rng, kind):
    """A graph over one to three entries of a random multi-file corpus of
    ``kind``, with random cardinality annotations; None when the corpus is
    refused or its tree exceeds MAX_CORPUS_TREE nodes."""
    try:
        if kind == "ref":
            corpus = random_ref_corpus(rng)
        elif kind == "cyclic":
            corpus, _ = random_cyclic_corpus(rng)
        else:
            docs, _ = random_multi_file_corpus(rng)
            corpus = make_corpus(docs)
        ids = rng.sample(sorted(corpus.documents), min(len(corpus.documents), rng.randint(1, 3)))
        entries = {f"col{i}": resolve(corpus, doc_id) for i, doc_id in enumerate(ids)}
    except SchemaLensError:
        return None
    bare = build_graph(entries)
    if bare.node_count() > MAX_CORPUS_TREE:
        return None
    return build_graph(entries, random_annotations(rng, bare, list(entries))), list(entries)


@pytest.mark.parametrize("kind", ["ref", "cyclic", "multi-file"])
def test_metrics_match_path_enumeration_oracle_on_random_corpora(kind):
    # Shared targets, cycle stubs, oneOf, then/else members and allOf
    # merges, which random_graph's single-document trees never build.
    rng = random.Random(20231027)
    checked = 0
    for _ in range(N_CORPORA_PER_KIND):
        built = _random_corpus_graph(rng, kind)
        if built is None:
            continue
        graph, collections = built
        specs = [spec for specs in graph.postorder() for spec in specs if spec.kind != ROOT]
        names = {spec.type_name for spec in specs} | {name for spec in specs for name in spec.ref_names}
        probe = PROBE_TYPES + sorted(names - set(PROBE_TYPES))
        _assert_metrics_match_oracles(graph, collections, probe)
        checked += 1
    assert checked >= N_CORPORA_PER_KIND // 2


def test_evaluation_linearity_and_monotonicity_on_random_weight_vectors():
    rng = random.Random(987)
    criteria = [
        CriterionSpec(id=i, metric="docWidth", direction=rng.choice([PRESENCE, MAXIMIZE, MINIMIZE]))
        for i in range(1, 9)
    ]
    for _ in range(N_WEIGHT_VECTORS):
        values = {c.id: rng.choice([ABSENT, 0, 1, 2, 5, 12, 0.5]) for c in criteria}
        w1 = {c.id: rng.uniform(0, 40) for c in criteria}
        w2 = {c.id: rng.uniform(0, 40) for c in criteria}
        combined = {cid: w1[cid] + w2[cid] for cid in w1}

        total1 = evaluate_schema(values, criteria, WeightCase("w1", w1)).per_case["w1"]
        total2 = evaluate_schema(values, criteria, WeightCase("w2", w2)).per_case["w2"]
        both = evaluate_schema(values, criteria, WeightCase("w", combined)).per_case["w"]
        assert both == pytest.approx(total1 + total2, abs=1e-9)

        # raising one normalised score with positive weight never lowers the total
        target = rng.choice(criteria)
        if isinstance(values[target.id], metrics.Absent):
            continue
        scores = {c.id: normalize(values[c.id], c.direction) for c in criteria}
        bumped = dict(scores)
        bumped[target.id] = min(1.0, bumped[target.id] + rng.uniform(0, 1))
        base_total = sum(w1[cid] * scores[cid] for cid in scores)
        bumped_total = sum(w1[cid] * bumped[cid] for cid in scores)
        assert bumped_total >= base_total - 1e-12


def test_resolution_terminates_on_random_cyclic_corpora():
    rng = random.Random(4242)
    for _ in range(N_CYCLIC_CORPORA):
        corpus, entry = random_cyclic_corpus(rng)
        resolved = resolve(corpus, entry)

        markers = 0
        stack = [resolved]
        while stack:
            node = stack.pop()
            if node.kind == CYCLE:
                markers += 1
                assert node.cycle_target in corpus.documents
            stack.extend(child for _, child in node.children)
            if node.item:
                stack.append(node.item)
        assert markers >= 1  # the guaranteed ring came back around


def test_resolution_of_cyclic_corpus_is_deterministic():
    rng = random.Random(7)
    corpus, entry = random_cyclic_corpus(rng)
    assert resolve(corpus, entry).structural_key() == resolve(corpus, entry).structural_key()


# ------------------------------------------------------ hypothesis invariants

_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=1, max_size=4, unique=True
)


@given(first=_names, second=_names)
@settings(max_examples=60, deadline=None)
def test_allof_union_is_commutative_for_disjoint_branches(first, second):
    second = [f"z{name}" for name in second]  # force disjoint
    branch1 = {"properties": {n: {"type": "string"} for n in first}}
    branch2 = {"properties": {n: {"type": "number"} for n in second}}
    one = resolve(make_corpus({"e.json": {"type": "object", "allOf": [branch1, branch2]}}), "e.json")
    two = resolve(make_corpus({"e.json": {"type": "object", "allOf": [branch2, branch1]}}), "e.json")
    assert {n: c.structural_key() for n, c in one.children} == {
        n: c.structural_key() for n, c in two.children
    }


@given(
    value=st.one_of(st.just(ABSENT), st.integers(min_value=0, max_value=10 ** 6), st.floats(0, 10 ** 6)),
    direction=st.sampled_from([PRESENCE, MAXIMIZE, MINIMIZE]),
)
@settings(max_examples=200, deadline=None)
def test_normalize_always_lands_in_unit_interval(value, direction):
    assert 0.0 <= normalize(value, direction) <= 1.0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_path_enumeration_counts_leaves(data):
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 9))
    graph, collections = random_graph(random.Random(seed), max_nodes=25)
    for collection in collections:
        paths = enumerate_paths(graph, collection)
        tree = unfold(graph)
        start = tree.collection_node(collection)

        def leaves(nid):
            kids = tree.child_ids(nid)
            return 1 if not kids else sum(leaves(k) for k in kids)

        expected = 0 if not tree.child_ids(start.id) else leaves(start.id)
        assert len(paths) == expected
        for path in paths:
            embs = sum(1 for nid in path.nodes if tree.node(nid).kind == "Embedded")
            assert path.emb_count == embs
            assert 0 <= path.emb_count <= len(graph.nodes)
