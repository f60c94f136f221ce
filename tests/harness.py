"""Shared test machinery: the reference-validator oracle, instance mutation
generators, random schema/graph generators, the tree a metric graph unfolds
to, and path-enumeration oracles for the metric equivalence suite.

Everything here recomputes results through routes independent of the code
under test: validation goes through jsonschema with file-URI resolution, and
metrics are recomputed from enumerate_paths output alone, over the unfolded
tree rather than the DAG the metrics fold over.
"""

from __future__ import annotations

import calendar
import copy
import json
import posixpath
import random
import re
import weakref
from dataclasses import dataclass
from pathlib import Path

import jsonschema
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT201909
from rfc3339_validator import validate_rfc3339

from schemalens.errors import UnknownCollection
from schemalens.graph import (
    ARRAY_ATOMIC,
    ARRAY_DOCUMENT,
    ATOMIC,
    ATTRIBUTE,
    EMBEDDED,
    REFERENCE,
    TREE_NODE_BUDGET,
    CardinalityAnnotation,
    MetricGraph,
    Spec,
    build_graph,
)
from schemalens.loader import CorpusHandle, SchemaDocument, parse_schema, resolve
from schemalens.metrics import ABSENT, MetricValue

# --------------------------------------------------------------------------
# In-memory corpora


def make_corpus(docs: dict[str, dict]) -> CorpusHandle:
    """Build a CorpusHandle from literal schema dicts, no disk involved."""
    documents = {
        doc_id: SchemaDocument(
            id=doc_id, raw=raw, root=parse_schema(raw, doc_id), draft=raw.get("$schema", "")
        )
        for doc_id, raw in docs.items()
    }
    return CorpusHandle(root_dir=Path("<memory>"), documents=documents)


# --------------------------------------------------------------------------
# Reference validator (oracle side of the dual route)


def _oracle_date_time(value) -> bool:
    # RFC 3339 section 5.6 through rfc3339_validator: an implementation route
    # distinct from the shipped regex/bounds checker. The RFC's ABNF is
    # case-insensitive, the library's regex upper-case only.
    if not isinstance(value, str):
        return True
    return validate_rfc3339(value.upper())


def oracle_format_checker() -> jsonschema.FormatChecker:
    checker = jsonschema.FormatChecker()
    checker.checks("date-time")(_oracle_date_time)
    return checker


def _oracle(resources, entry_uri: str) -> jsonschema.Draft201909Validator:
    registry = Registry().with_resources(
        (uri, Resource.from_contents(contents, default_specification=DRAFT201909))
        for uri, contents in resources
    ).crawl()
    return jsonschema.Draft201909Validator(
        {"$ref": entry_uri}, registry=registry, format_checker=oracle_format_checker()
    )


def reference_validator(corpus_dir: Path, entry: str) -> jsonschema.Draft201909Validator:
    # Every corpus file is registered under its file URI and the registry is
    # crawled once up front, so no is_valid call re-reads or re-crawls files.
    return _oracle(
        (
            (path.resolve().as_uri(), json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(corpus_dir.rglob("*.json"))
        ),
        (corpus_dir / entry).resolve().as_uri(),
    )


def _pointer_root_as_hash(value):
    """``value`` with every ``$ref`` ending in ``#/`` written ending in ``#``.
    The loader reads the pointer ``/`` as the document root; jsonschema,
    following RFC 6901, as the member named ''."""
    if isinstance(value, list):
        return [_pointer_root_as_hash(v) for v in value]
    if not isinstance(value, dict):
        return value
    copied = {k: _pointer_root_as_hash(v) for k, v in value.items()}
    ref = copied.get("$ref")
    if isinstance(ref, str) and ref.endswith("#/"):
        copied["$ref"] = ref[:-1]
    return copied


def oracle_for_docs(docs: dict[str, dict], entry: str) -> jsonschema.Draft201909Validator:
    """The reference validator over in-memory documents, each registered
    under a file URI built from its corpus-relative id."""
    root = "file:///corpus/"
    return _oracle(((root + doc_id, _pointer_root_as_hash(doc)) for doc_id, doc in docs.items()), root + entry)


# --------------------------------------------------------------------------
# Format checks that parse each field with int(): the validator's route before
# the ranges moved into its patterns, kept as the reference for that rewrite.

_INT_DATE_TIME_RE = re.compile(
    r"^([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt]"
    r"([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]+)?"
    r"(?:[Zz]|([+-])([0-9]{2}):([0-9]{2}))$"
)
_INT_IPV4_RE = re.compile(r"^([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})$")


def int_parsing_is_date_time(value: str) -> bool:
    match = _INT_DATE_TIME_RE.match(value)
    if not match:
        return False
    year, month, day = int(match[1]), int(match[2]), int(match[3])
    hour, minute, second = int(match[4]), int(match[5]), int(match[6])
    if not (1 <= month <= 12):
        return False
    if not (1 <= day <= calendar.monthrange(year, month)[1]):
        return False
    if hour > 23 or minute > 59 or second > 59:
        return False
    if match[7] is not None and (int(match[8]) > 23 or int(match[9]) > 59):
        return False
    return True


def int_parsing_is_ipv4(value: str) -> bool:
    match = _INT_IPV4_RE.match(value)
    if not match:
        return False
    for octet in match.groups():
        if len(octet) > 1 and octet.startswith("0"):
            return False
        if int(octet) > 255:
            return False
    return True


# --------------------------------------------------------------------------
# Instance mutation


# Timestamp corruptions both validator routes agree on (no edge forms like
# missing seconds, space separators, or exotic fraction lengths).
BAD_TIMESTAMPS = [
    "not-a-timestamp",
    "17/01/2021 10:00",
    "2021-13-01T00:00:00Z",
    "2021-02-30T10:00:00Z",
    "2021-01-17T25:00:00Z",
    "2021-01-17T10:61:00Z",
    "2021-01-17T10:00:00",
]

BAD_IPS = ["999.0.0.1", "10.0.0", "01.2.3.4", "ip-address", "10.0.0.256", ""]

LEI_EVENT_NAMES = [
    "Weight", "Score", "Arrival", "Departure", "Death", "Registration", "Retag",
    "Treatment program", "Treatment", "Diagnosis", "Daily Milking Averages",
    "Feed Intake", "Milking Dry Off", "Milking Visit", "Abortion", "Heat",
    "Insemination", "Parturition", "Pregnancy Check", "Semen Straw",
    "Status Observed", "Lactation Status Observed", "Birth", "Synchronisation",
    "Weaning", "Audit", "Castrate", "Pulse check", "Respiration",
    "Find age by dentition", "Hoof trimming", "Horn tipping", "Dehorning", "Location",
]


def envelope_mutants(instance: dict) -> list[tuple[str, dict]]:
    """The systematic suite: drop each required top-level field, add one
    extra top-level field, corrupt eventDateTime. Every mutant must be
    invalid."""
    mutants = []
    for field in ("source", "owner", "eventDateTime", "message"):
        mutant = copy.deepcopy(instance)
        mutant.pop(field, None)
        mutants.append((f"drop {field}", mutant))
    extra = copy.deepcopy(instance)
    extra["unexpectedField"] = "boo"
    mutants.append(("extra top-level field", extra))
    corrupted = copy.deepcopy(instance)
    corrupted["eventDateTime"] = BAD_TIMESTAMPS[0]
    mutants.append(("corrupt eventDateTime", corrupted))
    return mutants


def _random_leaf_paths(value, prefix=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _random_leaf_paths(sub, prefix + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _random_leaf_paths(sub, prefix + (i,))
    else:
        yield prefix


def _set_path(doc, path, new_value):
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new_value


def _drop_path(doc, path):
    target = doc
    for step in path[:-1]:
        target = target[step]
    if isinstance(target, dict):
        target.pop(path[-1], None)


def random_variant(rng: random.Random, base: dict, other_bodies: list[dict]) -> dict:
    """One randomly mutated instance; 0..2 mutations from a broad catalog so
    the stream mixes valid and invalid documents."""
    doc = copy.deepcopy(base)
    for _ in range(rng.randint(0, 2)):
        roll = rng.randrange(12)
        if roll == 0:
            doc.pop(rng.choice(["source", "owner", "eventDateTime", "message"]), None)
        elif roll == 1:
            doc[f"extra{rng.randrange(100)}"] = rng.choice(["x", 1, None, True])
        elif roll == 2:
            doc["eventDateTime"] = rng.choice(BAD_TIMESTAMPS)
        elif roll == 3 and isinstance(doc.get("source"), dict):
            doc["source"]["ip_address"] = rng.choice(BAD_IPS)
        elif roll == 4 and isinstance(doc.get("message"), dict):
            doc["message"]["eventName"] = rng.choice(LEI_EVENT_NAMES)
        elif roll == 5 and isinstance(doc.get("message"), dict):
            doc["message"]["eventName"] = rng.choice(["", "Nonexistent", "weight", 7])
        elif roll == 6 and isinstance(doc.get("message"), dict):
            doc["message"]["event"] = copy.deepcopy(rng.choice(other_bodies))
        elif roll == 7 and isinstance(doc.get("message"), dict):
            doc["message"].pop(rng.choice(["eventName", "item", "event", "session"]), None)
        elif roll == 8 and isinstance(doc.get("message"), dict):
            item = doc["message"].get("item")
            if isinstance(item, dict):
                item["itemType"] = rng.choice(["Crops", "Machinery", "Robots", 3])
        elif roll == 9:
            session = doc.get("message", {}).get("session")
            if isinstance(session, dict):
                session["totalInSession"] = rng.choice([3.5, 3.0, True, "many", -2])
        elif roll == 10:
            paths = list(_random_leaf_paths(doc))
            if paths:
                _set_path(doc, rng.choice(paths), rng.choice([None, True, 3.5, "x", [], {}]))
        elif roll == 11:
            animal = doc.get("message", {}).get("item", {}).get("animal")
            if isinstance(animal, dict):
                animal.pop("identifier", None)
    return doc


# --------------------------------------------------------------------------
# Random metric graphs + path-based oracle recomputation

TYPE_POOL = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

_ATOMIC_SCHEMAS = [
    {"type": "string"},
    {"type": "number"},
    {"type": "integer"},
    {"type": "boolean"},
    {"enum": ["on", "off"]},
    {"type": "string", "format": "date-time"},
]


def _random_schema(rng: random.Random, depth: int, budget: list[int]) -> dict:
    roll = rng.random()
    if depth >= 4 or budget[0] <= 1 or roll < 0.4:
        return copy.deepcopy(rng.choice(_ATOMIC_SCHEMAS))
    if roll < 0.55:
        budget[0] -= 1
        return {"type": "array", "items": _random_schema(rng, depth + 1, budget)}
    props = {}
    for _ in range(rng.randint(0, 3)):
        if budget[0] <= 1:
            break
        name = rng.choice(TYPE_POOL)
        if name in props:
            continue
        budget[0] -= 1
        props[name] = _random_schema(rng, depth + 1, budget)
    return {"type": "object", "properties": props}


def random_graph(rng: random.Random, max_nodes: int = 50) -> tuple[MetricGraph, list[str]]:
    """A random multi-collection graph (node budget shared), with random
    cardinality annotations on some embedding edges."""
    n_collections = rng.randint(1, 3)
    budget = [max_nodes]
    docs = {}
    collection_names = []
    for i in range(n_collections):
        name = f"col{i}"
        collection_names.append(name)
        docs[f"{name}.json"] = {"type": "object", "properties": {}}
        for _ in range(rng.randint(0, 3)):
            if budget[0] <= 1:
                break
            prop = rng.choice(TYPE_POOL)
            budget[0] -= 1
            docs[f"{name}.json"]["properties"][prop] = _random_schema(rng, 1, budget)
    corpus = make_corpus(docs)
    entries = {name: resolve(corpus, f"{name}.json") for name in collection_names}

    graph = build_graph(entries, random_annotations(rng, build_graph(entries), collection_names))
    return graph, collection_names


def random_annotations(
    rng: random.Random, bare: MetricGraph, collection_names: list[str], stop: float = 0.4
) -> list[CardinalityAnnotation]:
    """For about half of the collections, a cardinality annotation on a random
    walk down the tree from the collection, ended at each step with
    probability ``stop``."""
    tree = unfold(bare)
    annotations = []
    for name in collection_names:
        if rng.random() < 0.5:
            node = tree.collection_node(name)
            steps = []
            current = node.id
            while True:
                kids = tree.child_ids(current)
                if not kids or rng.random() < stop:
                    break
                pick = rng.choice(kids)
                steps.append(tree.node(pick).type_name)
                current = pick
            if steps:
                annotations.append(
                    CardinalityAnnotation(
                        collection=name,
                        path="/".join(steps),
                        cardinality=rng.randint(1, 4),
                    )
                )
    return annotations


def diamond_docs(depth: int, fragments: bool, arrays: bool = False, one_of: bool = False) -> tuple[dict, str]:
    """A ref diamond whose entry is its level 0: level k < depth refs level
    k+1 twice (``leftPart``/``rightPart``) beside an atomic ``tag``, and the
    last level holds ``value0`` and ``value1``. Levels are documents
    ``t<k>.json``, or with ``fragments`` the ``$defs`` of the entry
    document, which is a bare ``$ref`` to its level 0. Its tree has
    5 * 2^depth - 1 nodes and holds level k 2^k times. With ``arrays``,
    ``rightPart`` is an array of objects whose ``cell`` is level k+1, so the
    right side is twice as deep as the left. With ``one_of``, ``rightPart``
    is a oneOf of level k+1 and an array of it: a mixed oneOf, so a flagged
    document whose members are level k+1's, and the tree keeps its size."""
    def level(k: int) -> dict:
        if k == depth:
            return {"type": "object", "properties": {"value0": {"type": "string"}, "value1": {"type": "number"}}}
        target = {"$ref": f"#/$defs/t{k + 1}" if fragments else f"t{k + 1}.json"}
        right = dict(target)
        if arrays:
            right = {"type": "array", "items": {"type": "object", "properties": {"cell": target}}}
        elif one_of:
            right = {"oneOf": [target, {"type": "array", "items": target}]}
        return {
            "type": "object",
            "properties": {"leftPart": target, "rightPart": right, "tag": {"type": "string"}},
        }

    if fragments:
        return {"entry.json": {"$ref": "#/$defs/t0", "$defs": {f"t{k}": level(k) for k in range(depth + 1)}}}, "entry.json"
    return {f"t{k}.json": level(k) for k in range(depth + 1)}, "t0.json"


def chain_docs(length: int) -> dict:
    """A ref chain of ``length`` documents: ``link<k>.json`` holds an atomic
    ``tag`` and, but for the last, ``next``, a ref to ``link<k+1>.json``."""
    docs = {}
    for k in range(length):
        properties = {"tag": {"type": "string"}}
        if k + 1 < length:
            properties["next"] = {"$ref": f"link{k + 1}.json"}
        docs[f"link{k}.json"] = {"type": "object", "properties": properties}
    return docs


def ring_docs(n: int) -> dict:
    """A reference cycle through ``n`` documents: ``ring<k>.json`` holds an
    atomic ``tag`` and ``next``, a ref to ``ring<k+1>.json``; the last
    refers back to ``ring0.json``. Resolved from ``ring0.json``, it is a
    chain of n nodes whose last ``next`` is a cycle stub."""
    return {
        f"ring{k}.json": {
            "type": "object",
            "properties": {"tag": {"type": "string"}, "next": {"$ref": f"ring{(k + 1) % n}.json"}},
        }
        for k in range(n)
    }


def clique_docs(k: int) -> dict:
    """``k`` documents that each reference all the others: ``node<i>.json``
    holds an atomic ``tag`` and ``to<j>``, a ref to ``node<j>.json``, for
    every j != i. Resolving ``node0.json`` expands (k-1) * 2^(k-2)
    (document, cycle stack) states."""
    return {
        f"node{i}.json": {
            "type": "object",
            "properties": {
                "tag": {"type": "string"},
                **{f"to{j}": {"$ref": f"node{j}.json"} for j in range(k) if j != i},
            },
        }
        for i in range(k)
    }


def write_manifest_dir(root: Path, docs: dict, entry: str) -> str:
    """Write ``docs`` as the corpus ``c`` of a manifest under ``root`` whose
    one schema set, ``lei`` (the CLI's default), has ``entry`` as its metric
    entry; the path to pass as ``--corpus``."""
    (root / "c").mkdir()
    for doc_id, doc in docs.items():
        (root / "c" / doc_id).write_text(json.dumps(doc))
    manifest = {"schemas": {"lei": {"corpus": "c", "metric_entry": entry, "events": {}}}}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return str(root)


@dataclass(frozen=True)
class TreeNode:
    """A node of the unfolded tree: the fields of its :class:`Spec`, after
    its preorder id."""

    id: int
    kind: str
    type_name: str
    attr_class: str | None = None
    ref_names: tuple[str, ...] = ()
    required: bool = False
    flagged: bool = False  # set when classification had to guess (mixed oneOf)

    def matches(self, type_name: str) -> bool:
        return self.type_name == type_name or type_name in self.ref_names


@dataclass(frozen=True)
class Tree:
    """The tree a metric graph unfolds to, numbered in preorder from its
    root, node 0: a spec shared by several parents is a separate subtree
    under each. ``children`` holds every node's kid ids, and
    ``cardinalities`` the cardinality of each annotated edge."""

    nodes: dict[int, TreeNode]
    children: dict[int, tuple[int, ...]]
    cardinalities: dict[tuple[int, int], int]
    root = 0

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def child_ids(self, node_id: int) -> tuple[int, ...]:
        return self.children.get(node_id, ())

    def edge_cardinality(self, parent: int, child: int) -> int:
        return self.cardinalities.get((parent, child), 1)

    def collections(self) -> list[TreeNode]:
        """The level-0 collection nodes."""
        return [self.nodes[c] for c in self.child_ids(self.root)]

    def collection_node(self, name: str) -> TreeNode:
        for node in self.collections():
            if node.type_name == name:
                return node
        raise UnknownCollection(f"no level-0 collection named {name!r}")


_TREES: weakref.WeakKeyDictionary[MetricGraph, Tree] = weakref.WeakKeyDictionary()


def unfold(graph: MetricGraph) -> Tree:
    """The tree ``graph`` unfolds to, built once per graph on an explicit
    stack: the reference the DAG folds are checked against."""
    if graph not in _TREES:
        count = graph.node_count()
        assert count <= TREE_NODE_BUDGET, f"{count} nodes is too large a tree to unfold"
        _TREES[graph] = _unfold(graph.dag())
    return _TREES[graph]


def _unfold(top: Spec) -> Tree:
    nodes: dict[int, TreeNode] = {}
    children: dict[int, list[int] | tuple[int, ...]] = {}  # a list while building
    cardinalities: dict[tuple[int, int], int] = {}
    stack: list[tuple[int, Spec]] = [(-1, top)]
    while stack:
        parent, spec = stack.pop()
        nid = len(nodes)
        nodes[nid] = TreeNode(
            nid, spec.kind, spec.type_name, spec.attr_class, spec.ref_names, spec.required, spec.flagged
        )
        if parent >= 0:
            children[parent].append(nid)
            if spec.card is not None:
                cardinalities[parent, nid] = spec.card
        children[nid] = [] if spec.kids else ()
        stack.extend([(nid, kid) for kid in reversed(spec.kids)])
    return Tree(nodes, {nid: tuple(ids) for nid, ids in children.items()}, cardinalities)


def tree_walk(graph: MetricGraph, start: int):
    """``(node, level, copies)`` for every node strictly below ``start`` of
    the unfolded tree, in preorder: ``level`` is 1 for direct members plus
    one per Embedded node strictly between, ``copies`` the product of the
    edge cardinalities from ``start`` down to the node."""
    tree = unfold(graph)
    stack = [(start, 1, 1)]
    while stack:
        node_id, level, copies = stack.pop()
        if node_id != start:
            node = tree.node(node_id)
            yield node, level, copies
            if node.kind == EMBEDDED:
                level += 1
        for kid in reversed(tree.child_ids(node_id)):
            stack.append((kid, level, copies * tree.edge_cardinality(node_id, kid)))


@dataclass(frozen=True)
class PathDescriptor:
    """A collection-to-leaf node path and its embedded-document count."""

    nodes: tuple[int, ...]
    emb_count: int


def enumerate_paths(graph: MetricGraph, collection: str) -> list[PathDescriptor]:
    """Every path from the named collection node down to a leaf, in
    preorder, with its count of Embedded nodes; a childless collection
    yields none. Walks on an explicit stack, so depth costs no recursion."""
    tree = unfold(graph)
    start = tree.collection_node(collection).id
    paths: list[PathDescriptor] = []
    pending = [(kid, (start,), 0) for kid in reversed(tree.child_ids(start))]
    while pending:
        node_id, trail, embs = pending.pop()
        trail += (node_id,)
        embs += 1 if tree.node(node_id).kind == EMBEDDED else 0
        kids = tree.child_ids(node_id)
        if kids:
            pending.extend((kid, trail, embs) for kid in reversed(kids))
        else:
            paths.append(PathDescriptor(nodes=trail, emb_count=embs))
    return paths


def _path_edge_product(tree: Tree, nodes: tuple[int, ...], upto: int) -> int:
    product = 1
    for i in range(upto):
        product *= tree.edge_cardinality(nodes[i], nodes[i + 1])
    return product


def _oracle_occurrences(graph, paths, type_name):
    """(node_id, level, copies) per unique occurrence, document order, from
    path data alone."""
    tree = unfold(graph)
    seen = {}
    for path in paths:
        for i in range(1, len(path.nodes)):
            node = tree.node(path.nodes[i])
            if not node.matches(type_name) or node.id in seen:
                continue
            embs_between = sum(
                1 for j in range(1, i) if tree.node(path.nodes[j]).kind == EMBEDDED
            )
            seen[node.id] = (embs_between + 1, _path_edge_product(tree, path.nodes, i))
    return [(nid, lvl, cp) for nid, (lvl, cp) in seen.items()]


def oracle_col_depth(graph, collection):
    paths = enumerate_paths(graph, collection)
    return max((p.emb_count for p in paths), default=0)


def oracle_doc_existence(graph, collection, type_name):
    paths = enumerate_paths(graph, collection)
    return int(bool(_oracle_occurrences(graph, paths, type_name)))


def oracle_doc_depth_in_col(graph, collection, type_name):
    paths = enumerate_paths(graph, collection)
    occurrences = _oracle_occurrences(graph, paths, type_name)
    return max(level for _, level, _ in occurrences) if occurrences else None


def oracle_doc_copies(graph, collection, type_name):
    paths = enumerate_paths(graph, collection)
    return sum(copies for _, _, copies in _oracle_occurrences(graph, paths, type_name))


def oracle_attribute_counts(graph, collection, type_name):
    paths = enumerate_paths(graph, collection)
    tree = unfold(graph)
    col_node = tree.collection_node(collection)
    if type_name == collection or col_node.matches(type_name):
        target = col_node.id
    else:
        occurrences = _oracle_occurrences(graph, paths, type_name)
        if not occurrences:
            return None
        target = occurrences[0][0]
    children = []
    for path in paths:
        for i, nid in enumerate(path.nodes[:-1]):
            if nid == target and path.nodes[i + 1] not in children:
                children.append(path.nodes[i + 1])
    counts = {"atomic": 0, "document": 0, "arrayAtomic": 0, "arrayDocument": 0}
    for kid in children:
        node = tree.node(kid)
        if node.kind in (EMBEDDED, REFERENCE):
            counts["document"] += 1
        elif node.kind == ATTRIBUTE:
            key = {ATOMIC: "atomic", ARRAY_ATOMIC: "arrayAtomic", ARRAY_DOCUMENT: "arrayDocument"}[
                node.attr_class
            ]
            counts[key] += 1
    return counts


def oracle_ref_load(graph, name):
    tree = unfold(graph)
    nodes = {}
    for col in tree.collections():
        nodes[col.id] = col
        for path in enumerate_paths(graph, col.type_name):
            for nid in path.nodes:
                nodes[nid] = tree.node(nid)
    total = 0
    for node in nodes.values():
        total += node.ref_names.count(name)
        if node.kind == REFERENCE and node.type_name == name and name not in node.ref_names:
            total += 1
    return total


# --------------------------------------------------------------------------
# Random cyclic corpora


def random_cyclic_corpus(rng: random.Random) -> tuple[CorpusHandle, str]:
    """A corpus whose documents form at least one reference cycle."""
    n = rng.randint(2, 6)
    docs = {}
    for i in range(n):
        props = {"next": {"$ref": f"doc{(i + 1) % n}.json"}}
        for _ in range(rng.randint(0, 2)):
            name = rng.choice(TYPE_POOL)
            target = rng.randrange(n)
            props[name] = {"$ref": f"doc{target}.json"}
        if rng.random() < 0.5:
            props["label"] = {"type": "string"}
        docs[f"doc{i}.json"] = {"type": "object", "properties": props}
    return make_corpus(docs), "doc0.json"


def random_ref_corpus(rng: random.Random) -> CorpusHandle:
    """A corpus that exercises every reference shape the resolver handles:
    self-references, mutual cycles (also through fragments), ``#``/``#/``
    root refs, fragment refs across documents and subdirectories, ref-only
    documents, and allOf branches that inline or reference shared
    definitions.

    Each document ``i`` carries two ``$defs``: ``pure`` holds atomics and
    refs to the ``pure`` of later documents only (so it is acyclic and safe
    as an allOf branch), ``mixed`` may reference any document root. allOf
    participants use disjoint property names, except that two branches may
    reference the same ``pure`` definition, which declares identical
    properties."""
    n = rng.randint(2, 6)
    ids = [f"sub/doc{i}.json" if rng.random() < 0.3 else f"doc{i}.json" for i in range(n)]

    def ref(src: int, dst: int, fragment: str = "") -> dict:
        base = "" if dst == src and fragment else posixpath.relpath(ids[dst], posixpath.dirname(ids[src]) or ".")
        return {"$ref": f"{base}#{fragment}" if fragment else base}

    def value(src: int) -> dict:
        roll = rng.random()
        dst = rng.randrange(n)
        if roll < 0.2:
            return copy.deepcopy(rng.choice(_ATOMIC_SCHEMAS))
        if roll < 0.4:
            return ref(src, dst)
        if roll < 0.5:
            return ref(src, dst, rng.choice(["/$defs/pure", "/$defs/mixed"]))
        if roll < 0.55:
            return {"$ref": rng.choice(["#", "#/"])}
        if roll < 0.65:
            return {"type": "array", "items": ref(src, dst)}
        if roll < 0.75:
            return {"oneOf": [ref(src, dst), copy.deepcopy(rng.choice(_ATOMIC_SCHEMAS))]}
        if roll < 0.85:
            return {"if": {"properties": {"alpha": {"enum": ["x"]}}}, "then": ref(src, dst)}
        return {"type": "object", "properties": {"inner": ref(src, dst, "/$defs/mixed")}}

    docs = {}
    for i in range(n):
        pure = {f"p{i}_{k}": copy.deepcopy(rng.choice(_ATOMIC_SCHEMAS)) for k in range(rng.randint(1, 3))}
        if i + 1 < n and rng.random() < 0.6:
            pure[f"p{i}_next"] = ref(i, rng.randrange(i + 1, n), "/$defs/pure")
        defs = {
            "pure": {"type": "object", "properties": pure},
            "mixed": {"type": "object", "properties": {f"m{i}_{k}": value(i) for k in range(rng.randint(1, 3))}},
        }
        if rng.random() < 0.1:
            docs[ids[i]] = {"$ref": ref(i, rng.randrange(n))["$ref"], "$defs": defs}
            continue
        props = {f"h{i}_{k}": value(i) for k in range(rng.randint(1, 4))}
        doc = {"type": "object", "properties": props, "$defs": defs}
        if rng.random() < 0.5:
            doc["required"] = sorted(rng.sample(sorted(props), rng.randint(1, len(props))))
        if rng.random() < 0.4:
            branches = []
            for b in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    branches.append({"properties": {f"b{i}_{b}": value(i)}, "required": [f"b{i}_{b}"]})
                else:
                    branches.append(ref(i, rng.randrange(i, n), "/$defs/pure"))
            doc["allOf"] = branches
        docs[ids[i]] = doc
    return make_corpus(docs)


# --------------------------------------------------------------------------
# Oracle fuzz: random subset schemas and schema-directed instances

PROPERTY_POOL = ["a", "b", "c", "d"]

_TYPES = ["string", "number", "integer", "boolean", "null", "object", "array"]

_ENUM_POOL = ["x", "y", "", "2020-01-01T00:00:00Z", 0, 1, 1.0, 2.5, -3, True, False, None, [], [1], {}, {"a": 1}]

# Forms that Python's fromisoformat accepts and RFC 3339 section 5.6 rejects.
NON_RFC3339_DATE_TIMES = [
    "2020-01-01T00:00Z",
    "2020-01-01T00:00:00,5Z",
    "20200101T000000Z",
    "2020-01-01T00:00:00.Z",
    "2020-01-01T00:00:00+0100",
]

_DATE_TIMES = [
    "2020-01-01T00:00:00Z",
    "2021-12-31T23:59:59+11:00",
    "2024-02-29T12:30:00.25-05:30",
    "2020-01-01t00:00:00z",
    "2023-02-29T00:00:00Z",
    *NON_RFC3339_DATE_TIMES,
    *BAD_TIMESTAMPS,
]

_IPS = ["10.20.30.41", "0.0.0.0", "255.255.255.255", *BAD_IPS]

_STRINGS = ["x", "y", "", "a", "10.0.0.1", "2020-01-01T00:00:00Z"]
_NUMBERS = [0, 1, -3, 2.5, 1.0, 7, 1e3]


def random_subset_schema(
    rng: random.Random, depth: int = 0, refs: tuple[str, ...] = (), member: bool = False
) -> dict | bool:
    """A random schema over the keywords of the loader's subset, at most
    three levels deep: type, properties, required, additionalProperties,
    items, enum, format, oneOf, allOf, if/then/else and boolean schemas.
    When ``refs`` is given, a property or items schema (a ``member``) may
    be a ``$ref`` to one of them; so every reference cycle descends into
    the instance, and jsonschema, which follows every reference it meets,
    terminates. Keywords are drawn independently, so some schemas fall
    outside the subset or merge conflicting ``allOf`` branches."""
    if depth > 0:
        if member and refs and rng.random() < 0.2:
            return {"$ref": rng.choice(refs)}
        if rng.random() < 0.06:
            return rng.random() < 0.7
    schema: dict = {}
    deeper = depth < 3
    if rng.random() < 0.6:
        schema["type"] = rng.choice(_TYPES)
    if deeper and rng.random() < 0.45:
        names = rng.sample(PROPERTY_POOL, rng.randint(1, 3))
        schema["properties"] = {name: random_subset_schema(rng, depth + 1, refs, True) for name in names}
    if rng.random() < 0.3:
        schema["required"] = rng.sample(PROPERTY_POOL, rng.randint(1, 2))
    if rng.random() < 0.2:
        schema["additionalProperties"] = rng.random() < 0.3
    if deeper and rng.random() < 0.2:
        schema["items"] = random_subset_schema(rng, depth + 1, refs, True)
    if rng.random() < 0.15:
        schema["enum"] = rng.sample(_ENUM_POOL, rng.randint(1, 4))
    if rng.random() < 0.15:
        schema["format"] = rng.choice(["date-time", "ipv4", "x-unchecked"])
    if deeper and rng.random() < 0.15:
        schema["oneOf"] = [random_subset_schema(rng, depth + 1, refs) for _ in range(rng.randint(1, 3))]
    if deeper and rng.random() < 0.15:
        schema["allOf"] = [random_subset_schema(rng, depth + 1, refs) for _ in range(rng.randint(1, 2))]
    if deeper and rng.random() < 0.15:
        schema["if"] = random_subset_schema(rng, depth + 1, refs)
        if rng.random() < 0.7:
            schema["then"] = random_subset_schema(rng, depth + 1, refs)
        if rng.random() < 0.5:
            schema["else"] = random_subset_schema(rng, depth + 1, refs)
    return schema


def _random_value(rng: random.Random, depth: int = 0):
    roll = rng.randrange(8 if depth < 2 else 6)
    if roll == 0:
        return rng.choice(_STRINGS)
    if roll == 1:
        return rng.choice(_NUMBERS)
    if roll == 2:
        return rng.choice([True, False])
    if roll == 3:
        return None
    if roll == 4:
        return rng.choice(_DATE_TIMES + _IPS)
    if roll == 5:
        return copy.deepcopy(rng.choice(_ENUM_POOL))
    if roll == 6:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 2))]
    return {rng.choice(PROPERTY_POOL): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 2))}


def _follow_ref(docs: dict[str, dict], doc_id: str, ref: str):
    """``(schema, doc_id)`` a reference from ``doc_id`` points at, reading
    ``#`` and ``#/`` as the document root; None when it points nowhere."""
    path_part, _, fragment = ref.partition("#")
    if path_part:
        doc_id = posixpath.normpath(posixpath.join(posixpath.dirname(doc_id), path_part))
    target = docs.get(doc_id)
    for token in [t for t in fragment.split("/") if t]:
        if not isinstance(target, dict) or token not in target:
            return None
        target = target[token]
    return target, doc_id


def random_instance(
    rng: random.Random, schema, docs: dict[str, dict] | None = None, doc_id: str = "", depth: int = 0
):
    """A random instance shaped by ``schema``: an enum value, or a value of
    its type with its required and some declared properties, array items,
    one chosen ``oneOf`` branch, every ``allOf`` branch and one arm of
    ``if``, each drawn the same way and merged into an object. References
    are followed through ``docs`` (the corpus, keyed by document id) from
    ``doc_id``. Now and then a value is drawn at random instead, so both
    verdicts are common."""
    if depth > 6 or not isinstance(schema, dict) or rng.random() < 0.08:
        return _random_value(rng)
    ref = schema.get("$ref")
    if isinstance(ref, str):
        target = _follow_ref(docs or {}, doc_id, ref)
        if target is None:
            return _random_value(rng)
        return random_instance(rng, target[0], docs, target[1], depth + 1)
    if schema.get("enum") and rng.random() < 0.8:
        return copy.deepcopy(rng.choice(schema["enum"]))

    def draw(sub):
        return random_instance(rng, sub, docs, doc_id, depth + 1)

    properties = schema.get("properties") or {}
    kind = schema.get("type") or ("object" if properties else "array" if "items" in schema else None)
    if kind == "object" or (kind is None and rng.random() < 0.5):
        names = [n for n in schema.get("required", []) if rng.random() < 0.9]
        names += [n for n in properties if n not in names and rng.random() < 0.7]
        if rng.random() < 0.15:
            names.append(rng.choice(PROPERTY_POOL + ["extra"]))
        value = {name: draw(properties[name]) if name in properties else _random_value(rng, 1) for name in names}
    elif kind == "array":
        value = [draw(schema.get("items", True)) for _ in range(rng.randint(0, 3))]
    elif kind == "string" or (kind is None and "format" in schema):
        pool = {"date-time": _DATE_TIMES, "ipv4": _IPS}.get(schema.get("format"), _STRINGS)
        value = rng.choice(pool)
    elif kind in ("number", "integer"):
        value = rng.choice(_NUMBERS)
    elif kind == "boolean":
        value = rng.choice([True, False])
    elif kind == "null":
        value = None
    else:
        value = _random_value(rng)

    parts = list(schema.get("allOf", []))
    if schema.get("oneOf"):
        parts.append(rng.choice(schema["oneOf"]))
    if "if" in schema:
        parts.append(schema["if"])
        arm = rng.choice(["then", "else"])
        if arm in schema:
            parts.append(schema[arm])
    for part in parts:
        drawn = draw(part)
        if isinstance(value, dict) and isinstance(drawn, dict):
            value.update(drawn)
        elif rng.random() < 0.3:
            value = drawn
    return value


def random_multi_file_corpus(rng: random.Random) -> tuple[dict[str, dict], list[str]]:
    """The documents of a random multi-file corpus and the ids to resolve:
    a ``random_ref_corpus``, a ``random_cyclic_corpus``, or a few
    ``random_subset_schema`` documents that reference one another."""
    roll = rng.random()
    if roll < 0.4:
        corpus = random_ref_corpus(rng)
    elif roll < 0.7:
        corpus, _ = random_cyclic_corpus(rng)
    else:
        ids = [f"doc{i}.json" for i in range(rng.randint(2, 4))]
        refs = tuple(ids) + ("#", "#/")
        docs = {doc_id: random_subset_schema(rng, 0, refs) for doc_id in ids}
        return docs, ids
    docs = {doc_id: doc.raw for doc_id, doc in corpus.documents.items()}
    return docs, sorted(docs)


# --------------------------------------------------------------------------
# Report records


def parse_metric_records(text: str) -> dict[tuple[str, int], MetricValue]:
    """Inverse of the ``records`` metric dump: (schema, criterion) -> value,
    or ABSENT."""
    out: dict[tuple[str, int], MetricValue] = {}
    for record in json.loads(text):
        value = ABSENT if record["absent"] else record["value"]
        out[(record["schema"], record["criterion"])] = value
    return out
