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

Every metric is defined on the graph's tree and computed as one dynamic
program over its DAG (``MetricGraph.fold``): each distinct spec is combined
once from the values of its children, so no metric builds the tree or pays
for the number of paths. A fold covers the whole DAG, in the one postorder
the graph keeps, and a metric reads the value at its collection, at each
collection, or at the root. All functions are pure reads of an immutable
graph.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import TypeAbsent, UnknownCollection
from .graph import ATTRIBUTE, ARRAY_ATOMIC, ARRAY_DOCUMENT, ATOMIC, EMBEDDED, REFERENCE, MetricGraph, Spec


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


class WidthCoefficients(
    namedtuple("WidthCoefficients", "cf_atom cf_doc cf_tbl_atom cf_tbl_doc", defaults=(1, 2, 1, 3))
):
    """Weights for the four attribute classes in docWidth."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0 < c < math.inf for c in self):
            raise ValueError("width coefficients must be positive and finite")
        return self

    @classmethod
    def _make(cls, values) -> WidthCoefficients:
        return cls(*values)  # so a _replace copy is checked too

    @classmethod
    def parse(cls, text: str) -> WidthCoefficients:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated coefficients")
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError:
                raise ValueError(f"{part!r} is not a number") from None
        return cls(*values)


DEFAULT_COEFFICIENTS = WidthCoefficients()


class AttributeCounts(
    namedtuple("AttributeCounts", "atomic document array_atomic array_document", defaults=(0, 0, 0, 0))
):
    __slots__ = ()

    @property
    def total(self) -> int:
        return self.atomic + self.document + self.array_atomic + self.array_document


def col_existence(graph: MetricGraph, type_name: str) -> int:
    """1 iff a level-0 collection named ``type_name`` exists."""
    return int(any(c.type_name == type_name for c in graph.dag().kids))


def _holds(graph: MetricGraph, type_name: str) -> dict[Spec, bool]:
    """Per spec: whether the type occurs strictly below it."""

    def combine(spec: Spec, values: dict[Spec, bool]) -> bool:
        for kid in spec.kids:
            if values[kid] or kid.matches(type_name):
                return True
        return False

    return graph.fold(combine, False)


def doc_existence(graph: MetricGraph, collection: str, type_name: str) -> int:
    """1 iff a node of the given type occurs on some child path of the
    collection."""
    start = graph.collection_spec(collection)
    return int(_holds(graph, type_name)[start])


def nbr_col(graph: MetricGraph) -> int:
    return len(graph.dag().kids)


def _depth_below(spec: Spec, values: dict[Spec, int]) -> int:
    deepest = 0
    for kid in spec.kids:
        depth = values[kid] + (kid.kind == EMBEDDED)
        if depth > deepest:
            deepest = depth
    return deepest


def col_depth(graph: MetricGraph, collection: str) -> int:
    """Maximum embedded-node count over the collection's child paths
    (0 for a childless collection)."""
    start = graph.collection_spec(collection)
    return graph.fold(_depth_below, 0)[start]


def global_depth(graph: MetricGraph) -> int:
    depths = graph.fold(_depth_below, 0)
    return max((depths[c] for c in graph.dag().kids), default=0)


def _deepest_levels(graph: MetricGraph, type_name: str) -> dict[Spec, int]:
    """Per spec: the deepest level at which the type occurs below it, 0
    when it does not. A kid sits at level 1; a level below an Embedded kid
    is one more than below the kid itself."""

    def combine(spec: Spec, values: dict[Spec, int]) -> int:
        deepest = 0
        for kid in spec.kids:
            level = values[kid]
            if level:
                level += kid.kind == EMBEDDED
            elif kid.matches(type_name):
                level = 1
            if level > deepest:
                deepest = level
        return deepest

    return graph.fold(combine, 0)


def doc_depth_in_col(graph: MetricGraph, collection: str, type_name: str) -> int:
    """Deepest level at which the type occurs below the collection."""
    start = graph.collection_spec(collection)
    level = _deepest_levels(graph, type_name)[start]
    if not level:
        raise TypeAbsent(f"type {type_name!r} does not occur in collection {collection!r}")
    return level


def _doc_depths(graph: MetricGraph, type_name: str) -> list[int]:
    """docDepthInCol of the type in every collection that holds it."""
    levels = _deepest_levels(graph, type_name)
    depths = [levels[c] for c in graph.dag().kids if levels[c]]
    if not depths:
        raise TypeAbsent(f"type {type_name!r} occurs in no collection")
    return depths


def max_doc_depth(graph: MetricGraph, type_name: str) -> int:
    return max(_doc_depths(graph, type_name))


def min_doc_depth(graph: MetricGraph, type_name: str) -> int:
    return min(_doc_depths(graph, type_name))


def _spec_for_type(graph: MetricGraph, type_name: str, collection: str) -> Spec:
    """The type's first occurrence in preorder: the collection itself, or
    the first kid that is an occurrence or holds one, descended into."""
    spec = graph.collection_spec(collection)
    if spec.matches(type_name) or type_name == collection:
        return spec
    holds = _holds(graph, type_name)
    if not holds[spec]:
        raise TypeAbsent(f"type {type_name!r} does not occur in collection {collection!r}")
    while True:
        for kid in spec.kids:
            if kid.matches(type_name):
                return kid
            if holds[kid]:
                spec = kid
                break


def attribute_counts(graph: MetricGraph, type_name: str, collection: str) -> AttributeCounts:
    """Counts of the four attribute classes among the direct members of the
    type's node. Embedded and Reference children are document attributes."""
    atomic = document = array_atomic = array_document = 0
    for child in _spec_for_type(graph, type_name, collection).kids:
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
        start, counted = graph.collection_spec(name), None
    elif not graph.knows_name(name):
        raise UnknownCollection(f"name {name!r} appears nowhere in the graph")
    else:
        start, counted = graph.dag(), name

    def combine(spec: Spec, values: dict[Spec, int]) -> int:
        total = 0
        for kid in spec.kids:
            total += values[kid] + _reference_count(kid, counted)
        return total

    below = graph.fold(combine, 0)[start]
    # incoming counts the whole graph, the root included
    return below if counted is None else _reference_count(start, counted) + below


def _reference_count(node: Spec, name: str | None) -> int:
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
    start = graph.collection_spec(collection)

    def combine(spec: Spec, values: dict[Spec, int]) -> int:
        total = 0
        for kid in spec.kids:
            total += (kid.card or 1) * (kid.matches(type_name) + values[kid])
        return total

    return graph.fold(combine, 0)[start]


def doc_type_copies(graph: MetricGraph, type_name: str) -> int:
    """Number of collections whose paths contain the type."""
    holds = _holds(graph, type_name)
    return sum(holds[c] for c in graph.dag().kids)
