"""Structural metrics over a MetricGraph.

Five families: existence (colExistence, docExistence, nbrCol), depth
(colDepth, globalDepth, docDepthInCol, maxDocDepth, minDocDepth), width (the
four attribute counts and docWidth), referencing (refLoad), and redundancy
(docCopiesInCol, docTypeCopies).

Depth conventions: the depth of a path is its number of Embedded nodes; the
depth of a type occurrence below a collection is its level, i.e. one plus the
number of Embedded nodes strictly between the collection node and the
occurrence, so members sitting directly under the collection are at depth 1.

A type "occurs" at a node when the node's name equals the type name or the
node was inlined from a $ref to that type; atomic named members match too
(an existence question about a string-typed member must answer yes).

All functions are pure reads of an immutable graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeAbsent, UnknownCollection
from .graph import ATTRIBUTE, ARRAY_ATOMIC, ARRAY_DOCUMENT, ATOMIC, EMBEDDED, REFERENCE, GraphNode, MetricGraph


class Absent:
    """Marker for a metric asked about a type the schema does not hold.

    Distinct from 0 so reports can render the cell as "-"; singleton.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Absent"


ABSENT = Absent()

MetricValue = float | int | Absent


@dataclass(frozen=True)
class WidthCoefficients:
    """Weights for the four attribute classes in docWidth."""

    cf_atom: float = 1
    cf_doc: float = 2
    cf_tbl_atom: float = 1
    cf_tbl_doc: float = 3

    def __post_init__(self):
        if min(self.cf_atom, self.cf_doc, self.cf_tbl_atom, self.cf_tbl_doc) <= 0:
            raise ValueError("width coefficients must be positive")

    @classmethod
    def parse(cls, text: str) -> "WidthCoefficients":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated coefficients")
        values = [float(p) if "." in p else int(p) for p in parts]
        return cls(*values)


DEFAULT_COEFFICIENTS = WidthCoefficients()


@dataclass(frozen=True)
class AttributeCounts:
    atomic: int = 0
    document: int = 0
    array_atomic: int = 0
    array_document: int = 0

    @property
    def total(self) -> int:
        return self.atomic + self.document + self.array_atomic + self.array_document


def col_existence(graph: MetricGraph, type_name: str) -> int:
    """1 iff a level-0 collection named ``type_name`` exists."""
    return int(any(c.type_name == type_name for c in graph.collections()))


def _occurrences(graph: MetricGraph, collection: str, type_name: str) -> list[tuple[GraphNode, int, int]]:
    """(node, level, copies) for every node strictly below the collection
    that matches the type. ``level`` is 1 for direct members; ``copies`` is
    the product of edge cardinalities from the collection down to the node."""
    start = graph.collection_node(collection)
    return [found for found in graph.walk(start.id) if found[0].matches(type_name)]


def doc_existence(graph: MetricGraph, collection: str, type_name: str) -> int:
    """1 iff a node of the given type occurs on some child path of the
    collection."""
    return int(bool(_occurrences(graph, collection, type_name)))


def nbr_col(graph: MetricGraph) -> int:
    return len(graph.collections())


def col_depth(graph: MetricGraph, collection: str) -> int:
    """Maximum embedded-node count over the collection's child paths
    (0 for a childless collection)."""
    start = graph.collection_node(collection)
    return max((level - (node.kind != EMBEDDED) for node, level, _ in graph.walk(start.id)), default=0)


def global_depth(graph: MetricGraph) -> int:
    collections = graph.collections()
    if not collections:
        return 0
    return max(col_depth(graph, c.type_name) for c in collections)


def doc_depth_in_col(graph: MetricGraph, collection: str, type_name: str) -> int:
    """Deepest level at which the type occurs below the collection."""
    occurrences = _occurrences(graph, collection, type_name)
    if not occurrences:
        raise TypeAbsent(f"type {type_name!r} does not occur in collection {collection!r}")
    return max(level for _, level, _ in occurrences)


def _doc_depths(graph: MetricGraph, type_name: str) -> list[int]:
    """docDepthInCol of the type in every collection that holds it."""
    depths = []
    for c in graph.collections():
        levels = [level for _, level, _ in _occurrences(graph, c.type_name, type_name)]
        if levels:
            depths.append(max(levels))
    if not depths:
        raise TypeAbsent(f"type {type_name!r} occurs in no collection")
    return depths


def max_doc_depth(graph: MetricGraph, type_name: str) -> int:
    return max(_doc_depths(graph, type_name))


def min_doc_depth(graph: MetricGraph, type_name: str) -> int:
    return min(_doc_depths(graph, type_name))


def _node_for_type(graph: MetricGraph, type_name: str, collection: str) -> GraphNode:
    start = graph.collection_node(collection)
    if start.matches(type_name) or type_name == collection:
        return start
    occurrences = _occurrences(graph, collection, type_name)
    if not occurrences:
        raise TypeAbsent(f"type {type_name!r} does not occur in collection {collection!r}")
    return occurrences[0][0]


def attribute_counts(graph: MetricGraph, type_name: str, collection: str) -> AttributeCounts:
    """Counts of the four attribute classes among the direct members of the
    type's node. Embedded and Reference children are document attributes."""
    node = _node_for_type(graph, type_name, collection)
    atomic = document = array_atomic = array_document = 0
    for kid in graph.child_ids(node.id):
        child = graph.node(kid)
        if child.kind in (EMBEDDED, REFERENCE):
            document += 1
        elif child.kind == ATTRIBUTE:
            if child.attr_class == ATOMIC:
                atomic += 1
            elif child.attr_class == ARRAY_ATOMIC:
                array_atomic += 1
            elif child.attr_class == ARRAY_DOCUMENT:
                array_document += 1
    return AttributeCounts(atomic, document, array_atomic, array_document)


def doc_width(
    graph: MetricGraph,
    type_name: str,
    collection: str,
    coefficients: WidthCoefficients = DEFAULT_COEFFICIENTS,
) -> float:
    """Weighted attribute count of the type's node."""
    counts = attribute_counts(graph, type_name, collection)
    value = (
        coefficients.cf_atom * counts.atomic
        + coefficients.cf_doc * counts.document
        + coefficients.cf_tbl_atom * counts.array_atomic
        + coefficients.cf_tbl_doc * counts.array_document
    )
    return int(value) if float(value).is_integer() else value


def ref_load(graph: MetricGraph, name: str, direction: str = "incoming") -> int:
    """How often the named type is referenced.

    ``incoming`` (default) counts every reference occurrence of the name in
    the whole graph: inlined $ref chains plus cycle-stub Reference nodes.
    ``outgoing`` counts reference occurrences inside the named collection's
    subtree instead (the alternative reading of the defining equation).
    """
    if direction not in ("incoming", "outgoing"):
        raise ValueError("direction must be 'incoming' or 'outgoing'")
    if direction == "outgoing":
        start = graph.collection_node(name)
        return sum(_reference_count(node, None) for node, _, _ in graph.walk(start.id))
    if not graph.knows_name(name):
        raise UnknownCollection(f"name {name!r} appears nowhere in the graph")
    return sum(_reference_count(n, name) for n in graph.nodes.values())


def _reference_count(node: GraphNode, name: str | None) -> int:
    if name is None:
        return len(node.ref_names) if node.kind != REFERENCE else max(len(node.ref_names), 1)
    count = node.ref_names.count(name)
    if node.kind == REFERENCE and node.type_name == name and name not in node.ref_names:
        count += 1
    return count


def doc_copies_in_col(graph: MetricGraph, type_name: str, collection: str) -> int:
    """Estimated copies of the type inside the collection: 0 when absent,
    otherwise the cardinality product along each embedding chain, summed
    over occurrence sites (1 per site when nothing is annotated)."""
    return sum(copies for _, _, copies in _occurrences(graph, collection, type_name))


def doc_type_copies(graph: MetricGraph, type_name: str) -> int:
    """Number of collections whose paths contain the type."""
    return sum(doc_existence(graph, c.type_name, type_name) for c in graph.collections())
