"""Build the collections/embedded-types/references graph metrics run on.

The graph has one Root node, one Collection node per named entry schema at
level 0, Embedded nodes for object-valued properties, Reference nodes for
cycle stubs, and Attribute nodes (atomic / arrayAtomic / arrayDocument) for
everything else. Document-class properties ARE the Embedded nodes; an
array-of-documents attribute gets an Embedded child holding the item type so
nesting through arrays still registers as depth.

oneOf branches and if/then/else arms are alternatives, not extra documents,
so their declared properties are unioned into the host node's children (a
structurally richer branch subtree replaces an empty placeholder; first
occurrence wins on collisions). Nodes remember the $ref chain that produced
them (``ref_names``) so referencing metrics can count inlined references.

The graph is a tree: a resolved node shared by several $ref sites is
expanded once per site. ``build_graph`` places nodes with one explicit stack
and ``MetricGraph.walk`` reads them with another, so neither recurses per
embedding level and a ref chain of any length builds and measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import loader
from .errors import UnknownCollection
from .loader import ResolvedNode

ROOT = "Root"
COLLECTION = "Collection"
EMBEDDED = "Embedded"
REFERENCE = "Reference"
ATTRIBUTE = "Attribute"

ATOMIC = "atomic"
DOCUMENT = "document"
ARRAY_ATOMIC = "arrayAtomic"
ARRAY_DOCUMENT = "arrayDocument"


@dataclass(frozen=True)
class GraphNode:
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
class PathDescriptor:
    """A collection-to-leaf node path and its embedded-document count."""

    nodes: tuple[int, ...]
    emb_count: int


@dataclass(frozen=True)
class CardinalityAnnotation:
    """Overrides the default cardinality 1 on one embedding edge.

    ``path`` is the slash-joined property-name path from the collection node,
    e.g. ``"message/session"``.
    """

    collection: str
    path: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")


def load_cardinality_annotations(path: str | Path) -> list[CardinalityAnnotation]:
    """Read an annotation file: a JSON list of {collection, path, cardinality}
    records."""
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        CardinalityAnnotation(
            collection=r["collection"], path=r["path"], cardinality=int(r["cardinality"])
        )
        for r in records
    ]


@dataclass
class MetricGraph:
    root: int
    nodes: dict[int, GraphNode] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)
    cardinalities: dict[tuple[int, int], int] = field(default_factory=dict)

    def node(self, node_id: int) -> GraphNode:
        return self.nodes[node_id]

    def child_ids(self, node_id: int) -> tuple[int, ...]:
        return self.children.get(node_id, ())

    def collections(self) -> list[GraphNode]:
        return [self.nodes[c] for c in self.child_ids(self.root)]

    def collection_node(self, name: str) -> GraphNode:
        for node in self.collections():
            if node.type_name == name:
                return node
        raise UnknownCollection(f"no level-0 collection named {name!r}")

    def edge_cardinality(self, parent: int, child: int) -> int:
        return self.cardinalities.get((parent, child), 1)

    def walk(self, start: int) -> Iterator[tuple[GraphNode, int, int]]:
        """``(node, level, copies)`` for every node strictly below ``start``,
        in preorder. ``level`` is 1 for direct members plus one per Embedded
        node strictly between; ``copies`` is the product of edge
        cardinalities from ``start`` down to the node."""
        nodes, children, cards = self.nodes, self.children, self.cardinalities
        stack = [(start, 1, 1)]
        push = stack.append
        while stack:
            node_id, level, copies = stack.pop()
            if node_id != start:
                node = nodes[node_id]
                yield node, level, copies
                if node.kind == EMBEDDED:
                    level += 1
            for kid in reversed(children.get(node_id, ())):
                push((kid, level, copies * cards.get((node_id, kid), 1) if cards else copies))

    def knows_name(self, name: str) -> bool:
        return any(n.matches(name) for n in self.nodes.values())


def classify_attribute(node: ResolvedNode) -> str:
    """Classify a property subtree as atomic / document / arrayAtomic /
    arrayDocument.

    enum counts as atomic; a oneOf whose branches are all objects counts as
    document; a oneOf mixing object and scalar branches is unclassifiable and
    conservatively counted as document (callers can flag it).
    """
    kind = node.kind
    if kind == loader.CYCLE:
        return DOCUMENT
    if kind == loader.ENUM:
        return ATOMIC
    if kind == loader.OBJECT:
        return DOCUMENT
    if kind == loader.ARRAY:
        if node.item is None:
            return ARRAY_ATOMIC
        item_class = classify_attribute(node.item)
        return ARRAY_DOCUMENT if item_class in (DOCUMENT, ARRAY_DOCUMENT) else ARRAY_ATOMIC
    if kind == loader.ONEOF:
        branch_classes = {classify_attribute(b) for b in node.one_of_branches()}
        if branch_classes <= {DOCUMENT}:
            return DOCUMENT
        if branch_classes <= {ATOMIC}:
            return ATOMIC
        return DOCUMENT  # mixed: conservative upper classification
    if kind == loader.CONDITIONAL:
        arms = [arm for _, then, other in node.conditionals for arm in (then, other) if arm]
        if arms and all(classify_attribute(a) == DOCUMENT for a in arms):
            return DOCUMENT
        return ATOMIC
    return ATOMIC  # atomic / any


def _is_mixed_one_of(node: ResolvedNode) -> bool:
    if node.kind != loader.ONEOF or not node.one_of_groups:
        return False
    branch_classes = {classify_attribute(b) for b in node.one_of_branches()}
    return not (branch_classes <= {DOCUMENT}) and not (branch_classes <= {ATOMIC})


def _richness(node: ResolvedNode) -> int:
    return (
        len(node.children)
        + len(node.one_of_branches())
        + len(node.enum_values)
        + (1 if node.item else 0)
    )


def effective_children(node: ResolvedNode) -> list[tuple[str, ResolvedNode]]:
    """The node's property map with oneOf-branch and then/else declarations
    unioned in. Alternative subtrees for an already-declared name only win
    when the declared subtree is an empty placeholder."""
    merged: dict[str, ResolvedNode] = dict(node.children)
    order: list[str] = [name for name, _ in node.children]

    def absorb(branch: ResolvedNode | None):
        if branch is None:
            return
        for name, sub in branch.children:
            if name not in merged:
                merged[name] = sub
                order.append(name)
            elif _richness(merged[name]) == 0 and _richness(sub) > 0:
                merged[name] = sub

    for branch in node.one_of_branches():
        absorb(branch)
    for _, then, otherwise in node.conditionals:
        absorb(then)
        absorb(otherwise)
    return [(name, merged[name]) for name in order]


def _member_specs(node: ResolvedNode) -> list[tuple[tuple, object]]:
    """What each effective property of ``node`` becomes, as ``(fields,
    below)``: ``fields`` are the GraphNode fields after ``id``; ``below`` is
    the ResolvedNode whose members go under the new node, or a tuple of
    ready specs. A cycle stub becomes a Reference, a document an Embedded
    node with its members below, anything else an Attribute, with the item's
    Embedded node (or Reference) below an array of documents."""
    required = set(node.required)
    specs: list[tuple[tuple, object]] = []
    for name, sub in effective_children(node):
        req = name in required
        if sub.kind == loader.CYCLE:
            type_name = sub.ref_names[0] if sub.ref_names else name
            specs.append(((REFERENCE, type_name, None, sub.ref_names, req, False), ()))
            continue
        attr_class = classify_attribute(sub)
        if attr_class == DOCUMENT:
            specs.append(((EMBEDDED, name, None, sub.ref_names, req, _is_mixed_one_of(sub)), sub))
            continue
        below: tuple = ()
        item = sub.item
        if attr_class == ARRAY_DOCUMENT and item is not None:
            item_name = item.ref_names[0] if item.ref_names else f"{name}Item"
            if item.kind == loader.CYCLE:
                below = (((REFERENCE, item_name, None, item.ref_names, False, False), ()),)
            else:
                below = (((EMBEDDED, item_name, None, item.ref_names, False, False), item),)
        specs.append(((ATTRIBUTE, name, attr_class, sub.ref_names, req, False), below))
    return specs


def build_graph(
    collections: Mapping[str, ResolvedNode] | Sequence[tuple[str, ResolvedNode]],
    annotations: Iterable[CardinalityAnnotation] = (),
) -> MetricGraph:
    """Build a metric graph with one level-0 Collection per named entry.

    ``collections`` maps collection names to their resolved entry schemas.
    Cardinality annotations override the default edge cardinality of 1.
    Node ids are assigned in preorder. A resolved node shared by several
    sites is expanded at each site, its member specs computed once.
    """
    items = list(collections.items()) if isinstance(collections, Mapping) else list(collections)
    if not items:
        raise UnknownCollection("at least one collection name is required")
    graph = MetricGraph(root=0)
    nodes, children = graph.nodes, graph.children
    nodes[0] = GraphNode(id=0, kind=ROOT, type_name="root")
    children[0] = []  # a list while building, a tuple when done
    memo: dict[int, list[tuple[tuple, object]]] = {}
    stack = [
        (0, ((COLLECTION, name, None, entry.ref_names, False, False), entry))
        for name, entry in reversed(items)
    ]
    while stack:
        parent, (node_fields, below) = stack.pop()
        nid = len(nodes)
        nodes[nid] = GraphNode(nid, *node_fields)
        children[parent].append(nid)
        if isinstance(below, ResolvedNode):
            specs = memo.get(id(below))
            if specs is None:
                specs = memo[id(below)] = _member_specs(below)
            below = specs
        children[nid] = [] if below else ()
        stack.extend([(nid, spec) for spec in reversed(below)])
    for nid, ids in children.items():
        children[nid] = tuple(ids)
    for ann in annotations:
        _apply_annotation(graph, ann)
    return graph


def _apply_annotation(graph: MetricGraph, ann: CardinalityAnnotation):
    node = graph.collection_node(ann.collection)
    current = node.id
    for step in ann.path.split("/"):
        for child_id in graph.child_ids(current):
            if graph.node(child_id).type_name == step:
                parent, current = current, child_id
                break
        else:
            raise UnknownCollection(
                f"annotation path {ann.path!r} has no member {step!r} under {ann.collection!r}"
            )
    graph.cardinalities[(parent, current)] = ann.cardinality


def enumerate_paths(graph: MetricGraph, collection: str) -> list[PathDescriptor]:
    """Every path from the named collection node down to a leaf, with its
    count of Embedded nodes. A childless collection yields no paths."""
    start = graph.collection_node(collection)
    paths: list[PathDescriptor] = []

    def descend(node_id: int, trail: tuple[int, ...], embs: int):
        kids = graph.child_ids(node_id)
        node = graph.node(node_id)
        embs += 1 if node.kind == EMBEDDED else 0
        trail = trail + (node_id,)
        if not kids:
            paths.append(PathDescriptor(nodes=trail, emb_count=embs))
            return
        for kid in kids:
            descend(kid, trail, embs)

    for kid in graph.child_ids(start.id):
        descend(kid, (start.id,), 0)
    return paths


def to_dot(graph: MetricGraph, title: str = "schema") -> str:
    """Render the graph as DOT text; node labels are ``kind:typeName``."""
    lines = [f'digraph "{title}" {{', "  rankdir=LR;"]
    for node in graph.nodes.values():
        label = f"{node.kind}:{node.type_name}" if node.type_name else node.kind
        if node.attr_class:
            label += f" [{node.attr_class}]"
        lines.append(f'  n{node.id} [label="{label}"];')
    for parent, kids in graph.children.items():
        for kid in kids:
            card = graph.edge_cardinality(parent, kid)
            attr = f' [label="{card}"]' if card != 1 else ""
            lines.append(f"  n{parent} -> n{kid}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
