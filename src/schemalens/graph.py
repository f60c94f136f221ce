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

The graph is defined as a tree: a resolved node shared by several $ref sites
is a separate subtree at each site, and node ids number that tree in
preorder. It is stored only as the DAG ``resolve`` returns: one :class:`Spec`
per member of each distinct resolved node, the members of a node shared by
every spec that embeds it. ``build_graph`` makes that DAG, and
``MetricGraph(dag)`` is the one way to make a graph. Metrics are dynamic
programs over the DAG (:meth:`MetricGraph.fold`), so a ref diamond costs its
depth, not 2^depth. A spec's value depends only on the specs below it, so
every fold runs over the whole DAG, in the one postorder each graph walks
once and keeps, and a metric about a collection reads the value at the
collection's spec; ``graph.nodes`` is the range of the tree's node ids,
counted by the same fold. :func:`to_dot` walks the DAG in the tree's preorder
and writes one line per tree node, so it refuses with GraphTooLarge a tree of
more than TREE_NODE_BUDGET nodes. Building, folding and drawing all run on
explicit stacks, so a ref chain of any length builds, measures and draws.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import attrgetter

from . import loader
from .errors import GraphTooLarge, UnknownCollection
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

# Most tree nodes the DOT text may hold, one line each: a depth-17 ref
# diamond (655,359 nodes) fits; a depth-30 one (5.4e9) is refused before any
# line is written.
TREE_NODE_BUDGET = 1_000_000


class Spec:
    """One node of the graph's DAG: its kind, type name, attribute class,
    the ``$ref`` names that produced it, whether it is required and whether
    its classification had to guess (a mixed oneOf), plus its children and
    the cardinality of the edge into it (None when no annotation set it; it
    then counts as 1).

    ``kids`` tuples are shared: every spec whose members are those of one
    resolved node holds the same tuple, so a spec stands for all the tree
    nodes it unfolds to. Treat specs as immutable once ``build_graph``
    returns; an annotation copies the specs along its path (:meth:`_replace`)
    instead of changing them. Equality and hashing are by identity, because
    comparing fields would unfold the DAG.
    """

    __slots__ = ("kind", "type_name", "attr_class", "ref_names", "required", "flagged", "kids", "card")

    def __init__(
        self, kind: str, type_name: str, attr_class: str | None = None, ref_names: tuple[str, ...] = (),
        required: bool = False, flagged: bool = False, kids: tuple[Spec, ...] = (), card: int | None = None,
    ):
        self.kind = kind
        self.type_name = type_name
        self.attr_class = attr_class
        self.ref_names = ref_names
        self.required = required
        self.flagged = flagged
        self.kids = kids
        self.card = card

    def _replace(self, **changes: object) -> Spec:
        """A copy of this spec with ``changes`` to some of its fields."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return Spec(**values)

    def matches(self, type_name: str) -> bool:
        return self.type_name == type_name or type_name in self.ref_names


_kids = attrgetter("kids")


def _subtree_size(spec: Spec, sizes: dict[Spec, int]) -> int:
    return 1 + sum(map(sizes.__getitem__, spec.kids))


class CardinalityAnnotation(namedtuple("CardinalityAnnotation", "collection path cardinality")):
    """Overrides the default cardinality 1 on one embedding edge.

    ``path`` is the slash-joined property-name path from the collection node,
    e.g. ``"message/session"``; ``cardinality`` is at least 1.
    """

    __slots__ = ()

    def __new__(cls, collection: str, path: str, cardinality: int):
        if cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        return super().__new__(cls, collection, path, cardinality)

    @classmethod
    def _make(cls, values) -> CardinalityAnnotation:
        return cls(*values)  # so a _replace copy is checked too


class MetricGraph:
    """A metric graph: the DAG of :class:`Spec` that metrics fold over.

    ``MetricGraph(dag)`` takes the root spec of the DAG (``build_graph``
    makes it). The tree it unfolds to is never built: its size is a fold,
    and :func:`to_dot` writes it in one walk.
    """

    def __init__(self, dag: Spec):
        self._dag = dag
        self._order: tuple[list[Spec], list[Spec]] | None = None

    def dag(self) -> Spec:
        """The root of the graph's DAG."""
        return self._dag

    def postorder(self) -> tuple[list[Spec], list[Spec]]:
        """The distinct specs of the DAG: those without kids, and those with
        kids, each after all of its kids. The DAG is walked once per graph,
        on first use, and the order kept."""
        if self._order is None:
            order = loader.postorder(self._dag, _kids)
            self._order = [s for s in order if not s.kids], [s for s in order if s.kids]
        return self._order

    def fold(self, combine: Callable[[Spec, dict], object], leaf: object) -> dict[Spec, object]:
        """A dynamic program over the whole DAG: the value of every spec. A
        spec without kids has value ``leaf``; for any other,
        ``combine(spec, values)`` runs once, after the value of each of
        ``spec.kids`` is in ``values``, and returns the spec's. Since a value
        depends only on the specs below, one fold answers for every start:
        read the collection's spec, or the root's."""
        leaves, inner = self.postorder()
        values: dict[Spec, object] = dict.fromkeys(leaves, leaf)
        for spec in inner:
            values[spec] = combine(spec, values)
        return values

    def node_count(self) -> int:
        """Number of nodes of the tree, counted without building it."""
        return self.fold(_subtree_size, 1)[self.dag()]

    @property
    def nodes(self) -> range:
        """The tree's preorder node ids, which :func:`to_dot` writes as
        ``n<id>``; the root is 0."""
        return range(self.node_count())

    def collection_spec(self, name: str) -> Spec:
        """The DAG node of the first level-0 collection named ``name``."""
        return _collection_spec(self.dag(), name)

    def knows_name(self, name: str) -> bool:
        """Whether a node other than the synthetic root bears ``name``."""
        root = self.dag()
        for specs in self.postorder():
            for spec in specs:
                if spec is not root and spec.matches(name):
                    return True
        return False


def _collection_spec(top: Spec, name: str) -> Spec:
    for spec in top.kids:
        if spec.type_name == name:
            return spec
    raise UnknownCollection(f"no level-0 collection named {name!r}")


def classify_attribute(node: ResolvedNode) -> str:
    """Classify a property subtree as atomic / document / arrayAtomic /
    arrayDocument.

    enum counts as atomic; a oneOf whose branches are all objects counts as
    document; a oneOf mixing object and scalar branches is unclassifiable and
    conservatively counted as document (callers can flag it).
    """
    return _classify(node, {})[0]


# The kinds whose class depends on the classes of other nodes.
_COMPOUND = frozenset([loader.ARRAY, loader.ONEOF, loader.CONDITIONAL])


def _classify(node: ResolvedNode, memo: dict[ResolvedNode, tuple[str, bool]]) -> tuple[str, bool]:
    """``node``'s class, and whether it is a oneOf that mixes document and
    atomic branches. A compound node's pair is computed once per ``memo``,
    kept under the node, after its parts' in one postorder, so a oneOf or
    array diamond costs its depth and a chain of any length classifies."""
    kind = node.kind
    if kind not in _COMPOUND:
        return (DOCUMENT if kind in (loader.CYCLE, loader.OBJECT) else ATOMIC), False
    if node not in memo:
        done = lambda sub: sub.kind not in _COMPOUND or sub in memo
        for sub in loader.postorder(node, _class_parts, done):
            classes = {_classify(part, memo)[0] for part in _class_parts(sub)}
            if sub.kind == loader.ARRAY:
                found = (ARRAY_DOCUMENT if classes & {DOCUMENT, ARRAY_DOCUMENT} else ARRAY_ATOMIC), False
            elif sub.kind == loader.ONEOF:
                # a mixed oneOf gets the conservative upper classification
                mixed = not classes <= {DOCUMENT} and not classes <= {ATOMIC}
                found = (ATOMIC if classes and classes <= {ATOMIC} else DOCUMENT), mixed
            else:
                found = (DOCUMENT if classes == {DOCUMENT} else ATOMIC), False
            memo[sub] = found
    return memo[node]


def _class_parts(node: ResolvedNode) -> tuple[ResolvedNode, ...] | list[ResolvedNode]:
    """The nodes whose classes decide ``node``'s: an array's item, a
    oneOf's branches, a conditional's then/else arms."""
    if node.kind == loader.ARRAY:
        return () if node.item is None else (node.item,)
    if node.kind == loader.ONEOF:
        return node.one_of_branches()
    return [arm for _, then, other in node.conditionals for arm in (then, other) if arm]


def _is_placeholder(node: ResolvedNode) -> bool:
    """Whether ``node`` declares no member, oneOf branch, enum value or
    item."""
    return not (node.children or node.enum_values or node.item is not None or any(node.one_of_groups))


def effective_children(node: ResolvedNode) -> Sequence[tuple[str, ResolvedNode]]:
    """The node's property map with oneOf-branch and then/else declarations
    unioned in; ``node.children`` itself when there are none. Alternative
    subtrees for an already-declared name only win when the declared
    subtree is an empty placeholder."""
    if not node.one_of_groups and not node.conditionals:
        return node.children
    merged: dict[str, ResolvedNode] = dict(node.children)
    order: list[str] = [name for name, _ in node.children]

    def absorb(branch: ResolvedNode | None):
        if branch is None:
            return
        for name, sub in branch.children:
            if name not in merged:
                merged[name] = sub
                order.append(name)
            elif _is_placeholder(merged[name]) and not _is_placeholder(sub):
                merged[name] = sub

    for branch in node.one_of_branches():
        absorb(branch)
    for _, then, otherwise in node.conditionals:
        absorb(then)
        absorb(otherwise)
    return [(name, merged[name]) for name in order]


def _member_specs(
    node: ResolvedNode, below: list[tuple[Spec, ResolvedNode]], classes: dict[ResolvedNode, tuple[str, bool]]
) -> tuple[Spec, ...]:
    """What each effective property of ``node`` becomes. A cycle stub becomes
    a Reference, a document an Embedded node, anything else an Attribute,
    with the item's Embedded node (or Reference) below an array of
    documents. Each spec whose members are those of a resolved node is
    appended to ``below`` with that node; its ``kids`` are filled in later.
    ``classes`` memoises :func:`_classify` across the calls of one build."""
    required = set(node.required)
    specs: list[Spec] = []
    for name, sub in effective_children(node):
        req = name in required
        if sub.kind == loader.CYCLE:
            type_name = sub.ref_names[0] if sub.ref_names else name
            specs.append(Spec(REFERENCE, type_name, None, sub.ref_names, req))
            continue
        attr_class, mixed = _classify(sub, classes)
        if attr_class == DOCUMENT:
            spec = Spec(EMBEDDED, name, None, sub.ref_names, req, mixed)
            below.append((spec, sub))
            specs.append(spec)
            continue
        spec = Spec(ATTRIBUTE, name, attr_class, sub.ref_names, req)
        item = sub.item
        if attr_class == ARRAY_DOCUMENT and item is not None:
            item_name = item.ref_names[0] if item.ref_names else f"{name}Item"
            if item.kind == loader.CYCLE:
                spec.kids = (Spec(REFERENCE, item_name, None, item.ref_names),)
            else:
                spec.kids = (Spec(EMBEDDED, item_name, None, item.ref_names),)
                below.append((spec.kids[0], item))
        specs.append(spec)
    return tuple(specs)


def build_graph(
    collections: Mapping[str, ResolvedNode],
    annotations: Iterable[CardinalityAnnotation] = (),
) -> MetricGraph:
    """Build a metric graph with one level-0 Collection per named entry.

    ``collections`` maps collection names to their resolved entry schemas.
    Cardinality annotations override the default edge cardinality of 1.
    The members of each distinct resolved node are computed once and shared
    by every spec that embeds it; the tree is not built here.
    """
    if not collections:
        raise UnknownCollection("at least one collection name is required")
    below = [(Spec(COLLECTION, name, None, entry.ref_names), entry) for name, entry in collections.items()]
    top = Spec(ROOT, "root", kids=tuple(spec for spec, _ in below))
    members: dict[ResolvedNode, tuple[Spec, ...]] = {}
    classes: dict[ResolvedNode, tuple[str, bool]] = {}
    # ``below`` is the work list: _member_specs appends to it as it is read.
    for spec, node in below:
        kids = members.get(node)
        if kids is None:
            kids = members[node] = _member_specs(node, below, classes)
        spec.kids = kids
    for ann in annotations:
        top = _annotate(top, ann)
    return MetricGraph(top)


def _annotate(top: Spec, ann: CardinalityAnnotation) -> Spec:
    """``top`` with the annotated edge set: the specs along the annotation's
    path are copied (copy-on-write) and the last copy takes the cardinality,
    so every other tree position keeps its own."""
    collection = _collection_spec(top, ann.collection)
    trail, indices = [top, collection], [top.kids.index(collection)]
    for step in ann.path.split("/"):
        for i, kid in enumerate(trail[-1].kids):
            if kid.type_name == step:
                trail.append(kid)
                indices.append(i)
                break
        else:
            raise UnknownCollection(
                f"annotation path {ann.path!r} has no member {step!r} under {ann.collection!r}"
            )
    spec = trail.pop()._replace(card=ann.cardinality)
    for parent, i in zip(reversed(trail), reversed(indices)):
        spec = parent._replace(kids=parent.kids[:i] + (spec,) + parent.kids[i + 1:])
    return spec


def to_dot(graph: MetricGraph, title: str = "schema") -> str:
    """Render the tree as DOT text; node labels are ``kind:typeName``, and
    the title and labels are DOT strings, with ``\\`` and ``"`` escaped.

    One preorder walk of the DAG: a kid's id is its parent's plus one plus
    the sizes of its earlier siblings' subtrees. Raises GraphTooLarge, before
    writing anything, when the tree has more than TREE_NODE_BUDGET nodes.
    """
    top = graph.dag()
    sizes = graph.fold(_subtree_size, 1)
    if sizes[top] > TREE_NODE_BUDGET:
        largest = max(top.kids, key=sizes.__getitem__)
        raise GraphTooLarge(largest.type_name, sizes[top], TREE_NODE_BUDGET)
    lines = [f"digraph {_dot_string(title)} {{", "  rankdir=LR;"]
    edges: list[str] = []
    stack = [(0, top)]
    while stack:
        nid, spec = stack.pop()
        label = f"{spec.kind}:{spec.type_name}" if spec.type_name else spec.kind
        if spec.attr_class:
            label += f" [{spec.attr_class}]"
        lines.append(f"  n{nid} [label={_dot_string(label)}];")
        placed = []
        kid_id = nid + 1
        for kid in spec.kids:
            attr = f' [label="{kid.card}"]' if kid.card not in (None, 1) else ""
            edges.append(f"  n{nid} -> n{kid_id}{attr};")
            placed.append((kid_id, kid))
            kid_id += sizes[kid]
        stack.extend(reversed(placed))
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(text: str) -> str:
    """``text`` as a double-quoted DOT string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
