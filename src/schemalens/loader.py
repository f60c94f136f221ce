"""Load multi-file JSON Schema corpora and resolve cross-file references.

A corpus is a directory tree of UTF-8 ``*.json`` schema files. ``load_corpus``
lists the files, and each is read and parsed into a :class:`SchemaDocument`
on first use; ``resolve`` turns one entry document into a self-contained,
reference-free :class:`ResolvedNode` graph:
``allOf`` branches are merged, reference cycles are stubbed with CYCLE
markers so resolution always terminates, and each ``$ref`` target is
resolved once per call, its one node shared by every site that references
it. The result is a DAG whose unfolding is the fully inlined tree, so a ref
diamond of depth d costs d resolutions rather than 2^d. Targets are built
in postorder, each after the targets it references, so a ref chain or
cycle of any length resolves without deep recursion. A reference graph
with no cycle is built straight from the order of the one walk that
discovers its targets. Inside a reference cycle a target is expanded once
per cycle stack that reaches it, which can be exponentially many; when
more than ``STATE_BUDGET`` such expansions are discovered, ``resolve``
raises ResolutionTooLarge before it builds any. Nodes are immutable, which
makes the sharing safe.

Supported dialect subset: type (one type name), properties, items,
required, additionalProperties, enum, format, $ref, oneOf, allOf,
if/then/else. Every other Draft 2019-09 assertion keyword (anyOf, not,
const, minLength, ...), a list of types, a type name outside the seven of
JSON Schema, an empty oneOf and an empty enum beside other constraints are
refused with ParseError, because ignoring them would accept instances the
schema rejects; behind a ``$ref`` fragment too, located at
``<document>#<fragment>``. Annotations and unknown keys ($schema, $id, $defs,
description, x-...) are ignored.

All reference targets are file-local, resolved relative to the referencing
document's directory; absolute URLs and paths escaping the corpus root are
rejected.

``allOf`` merges into its host exactly, or resolution raises MergeConflict.
Across the participants (the host schema and its branches), a property
declared twice and ``items`` set twice must have one shape; ``type`` and
``format`` set twice must be equal, except that ``integer`` with ``number``
gives ``integer``; ``enum`` becomes the values every enum admits (JSON
equality, host order) and must not be empty, the host's own enum included;
a participant with ``additionalProperties: false`` must declare every merged
property; and no branch may be a cyclic reference. ``required``, oneOf groups and
if/then/else conditionals are collected from every participant.
"""

from __future__ import annotations

import json
import os
import posixpath
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property
from pathlib import Path

from .errors import (
    CorpusError, IoError, MergeConflict, ParseError, ResolutionTooLarge, UnknownRef, decode_text, read_bytes,
)

# Keywords that make a $ref sibling constraint-bearing (and therefore illegal
# in this subset -- the loader inlines refs wholesale).
_CONSTRAINT_KEYWORDS = frozenset(
    ["type", "properties", "items", "required", "additionalProperties",
     "enum", "format", "oneOf", "allOf", "if", "then", "else"]
)

# The Draft 2019-09 assertion keywords (jsonschema's Draft201909Validator
# VALIDATORS) that lie outside the subset.
_REFUSED_KEYWORDS = frozenset(
    ["$recursiveRef", "additionalItems", "anyOf", "const", "contains", "dependentRequired",
     "dependentSchemas", "exclusiveMaximum", "exclusiveMinimum", "maxItems", "maxLength",
     "maxProperties", "maximum", "minItems", "minLength", "minProperties", "minimum",
     "multipleOf", "not", "pattern", "patternProperties", "propertyNames",
     "unevaluatedItems", "unevaluatedProperties", "uniqueItems"]
)

_SCALAR_TYPES = frozenset(["string", "number", "integer", "boolean", "null"])
_TYPE_NAMES = _SCALAR_TYPES | {"object", "array"}

# Node kind tags shared by raw and resolved trees.
REFERENCE = "reference"
OBJECT = "object"
ARRAY = "array"
ATOMIC = "atomic"
ENUM = "enum"
ONEOF = "oneOf"
CONDITIONAL = "conditional"
ANY = "any"
CYCLE = "cycle"


class RawNode(namedtuple(
    "RawNode",
    "kind type_tag children item refs required additional_allowed one_of all_of condition then otherwise"
    " enum_values format_tag",
    defaults=(None, (), None, (), (), True, (), (), None, None, None, (), None),
)):
    """One schema object as parsed, before reference resolution.

    ``kind`` is a primary classification (reference > oneOf > conditional >
    object > array > enum > atomic > any) of the node without its ``allOf``;
    the remaining facets coexist the way JSON Schema keywords do. A named
    tuple: one is built per schema node of every file, and a tuple builds
    about ten times faster than a frozen class; ``parse_schema`` builds it
    with ``tuple.__new__``, which skips the keyword-matching ``__new__`` as
    well.

    ``children`` holds ``(name, RawNode)`` pairs; ``item``, ``condition``,
    ``then`` and ``otherwise`` a RawNode or None; ``one_of`` and ``all_of``
    tuples of RawNodes.

    ``refs`` holds the ``$ref`` targets of the node and of every node below
    it, in the order the resolver reaches them: properties, items, oneOf
    branches, if, then, else, allOf; a reference node's is its own target.
    The host copy ``_merge_all_of`` makes with ``_replace`` keeps its allOf
    branches' targets in ``refs``; that is harmless, because the resolver
    reads the whole of ``refs`` only on a target's root node.
    """

    __slots__ = ()


class ResolvedNode(namedtuple(
    "ResolvedNode",
    "kind doc_id path type_tag children item required additional_allowed one_of_groups conditionals"
    " enum_values format_tag ref_names ref_docs cycle_target",
    defaults=(None, (), None, (), True, (), (), (), None, (), (), None),
)):
    """Reference-free, immutable schema node.

    Every ``$ref`` stands for its target's node (``ref_names`` /
    ``ref_docs`` record the reference chain, outermost first) or, on a
    cycle, for a ``kind == "cycle"`` stub naming the target. Target nodes
    are shared: within one ``resolve`` call, every site that references the
    same target outside a cycle holds the same object, so the nodes form a
    DAG. A walk that follows children as a tree visits a shared subtree once
    per path; key a memo or seen-set on the node to visit it once. allOf is
    gone: object branches are merged into ``children`` and residual
    constraint branches live in ``conditionals`` / ``one_of_groups``.

    A named tuple, as RawNode is, built by the resolver with
    ``tuple.__new__``: one allocation per node. It keeps the tuple protocol
    (``len``, iteration and indexing over ``_fields``), but not the tuple's
    value semantics: ``==``, ``!=``, ``hash``, ``repr`` and ordering are
    ``object``'s, so nodes compare by identity, in constant time however
    large the DAG, and ``<`` raises TypeError. To compare shapes, compare
    :meth:`structural_key`, which each node computes once. Fields cannot be
    set or deleted; ``_replace`` makes a changed copy.

    Unlike RawNode it has an instance dict, made only when first needed, for
    the two values a node caches: its structural key and :attr:`checks`,
    the validator's business, compiled there (how a oneOf group selects a
    branch included). A ``_replace`` copy caches neither.
    """

    __eq__, __ne__, __hash__, __repr__ = object.__eq__, object.__ne__, object.__hash__, object.__repr__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def child_map(self) -> dict[str, "ResolvedNode"]:
        return dict(self.children)

    @cached_property
    def checks(self) -> tuple:
        """The validator's checks for this node (``validator.compile_checks``),
        compiled the first time they run, never by ``resolve``. A leaf whose
        parent tests it inline runs them only for a value that test does not
        accept, so it may never be compiled. Not a field, so ``_fields``,
        :meth:`_replace` and :meth:`structural_key` ignore it."""
        from .validator import compile_checks

        return compile_checks(self)

    def one_of_branches(self) -> tuple["ResolvedNode", ...]:
        """All oneOf branches across groups, flattened (each group is an
        independent exactly-one constraint; this is for structural walks)."""
        return tuple(b for group in self.one_of_groups for b in group)

    def structural_key(self) -> object:
        """Provenance-free shape, used for merge-conflict checks and the
        determinism invariant. Computed once per node, so a shared subtree
        costs one walk however many paths lead to it, and on an explicit
        stack, so a ref chain of any length has a key."""
        key = self.__dict__.get("_structural_key")
        return _structural_key(self) if key is None else key


def _sub_nodes(node: ResolvedNode) -> Iterator[ResolvedNode]:
    for _, child in node.children:
        yield child
    if node.item is not None:
        yield node.item
    for group in node.one_of_groups:
        yield from group
    for condition in node.conditionals:
        for part in condition:
            if part is not None:
                yield part


def postorder(
    root: object, subs: Callable[[object], Iterable[object]], done: Callable[[object], bool] | None = None
) -> list:
    """The distinct nodes reachable from ``root`` through ``subs``, each
    after every node ``subs`` gives it, in depth-first site order; on a
    cyclic graph, the depth-first finishing order, where a node may precede
    one it gives that is still open on the walk's path. ``subs`` is called
    once per node, its iterable drawn lazily as the walk descends. Nodes
    are told apart by ``==`` and ``hash``, which for a ResolvedNode or a
    graph Spec is identity. A node below ``root`` for which ``done`` holds
    is left out, and so is everything reachable only through it.
    Iterative, so a chain of any length orders."""
    order = []
    seen = {root}
    stack = [(root, iter(subs(root)))]
    while stack:
        node, pending = stack[-1]
        for sub in pending:
            if sub not in seen:
                seen.add(sub)
                if done is None or not done(sub):
                    stack.append((sub, iter(subs(sub))))
                    break
        else:
            stack.pop()
            order.append(node)
    return order


def _structural_key(root: ResolvedNode) -> object:
    """Compute ``root``'s structural key in one postorder pass: each node
    without one gets its key, memoised in its instance dict (not a field),
    after every node under it."""

    def key(sub: ResolvedNode) -> object:
        return sub.__dict__["_structural_key"]

    for node in postorder(root, _sub_nodes, lambda node: "_structural_key" in node.__dict__):
        node.__dict__["_structural_key"] = (
            node.kind,
            node.type_tag,
            tuple((n, key(c)) for n, c in node.children),
            key(node.item) if node.item else None,
            tuple(sorted(node.required)),
            node.additional_allowed,
            tuple(tuple(key(b) for b in group) for group in node.one_of_groups),
            tuple(tuple(key(p) if p else None for p in cond) for cond in node.conditionals),
            tuple(repr(v) for v in node.enum_values),
            node.format_tag,
            node.cycle_target,
        )
    return root.__dict__["_structural_key"]


def _same_shape(a: ResolvedNode, b: ResolvedNode) -> bool:
    """``a.structural_key() == b.structural_key()``, compared on an explicit
    stack, so two unequal keys of long ref chains compare without deep
    recursion; a subkey shared by both compares by identity."""
    pending = [(a.structural_key(), b.structural_key())]
    while pending:
        x, y = pending.pop()
        if x is y:
            continue
        if type(x) is not tuple or type(y) is not tuple:
            if x != y:
                return False
        elif len(x) != len(y):
            return False
        else:
            pending.extend(zip(x, y))
    return True


class SchemaDocument(namedtuple("SchemaDocument", "id raw root draft")):
    """A parsed schema file: its corpus-relative id, its raw JSON object, its
    parsed root RawNode and its ``$schema`` tag."""

    __slots__ = ()


class CorpusHandle:
    """The files of one corpus directory, each read and parsed on first use.

    Built from a map of each id to its SchemaDocument or to its file's path,
    which the first ``get`` reads and parses. Reading ``documents`` or
    ``errors`` reads and parses every file still pending; both list files
    in the order given, whatever order they were parsed in.
    """

    def __init__(self, root_dir: Path, documents: Mapping[str, SchemaDocument | str]):
        self.root_dir = root_dir
        self._files: dict[str, SchemaDocument | str | ParseError] = dict(documents)

    def get(self, doc_id: str) -> SchemaDocument:
        """The document ``doc_id``; the ParseError that keeps it out of the
        corpus if it is refused; IoError if its file cannot be read; else
        UnknownRef."""
        found = self._files.get(doc_id)
        if type(found) is str:
            found = self._files[doc_id] = _parse_file(doc_id, _read(found))
        if type(found) is SchemaDocument:
            return found
        if found is None:
            raise UnknownRef(f"no document {doc_id!r} in corpus {self.root_dir}")
        raise found.with_traceback(None)  # the stored error keeps no frames of earlier raises

    def _parsed(self) -> dict[str, SchemaDocument | ParseError]:
        for doc_id, found in self._files.items():
            if type(found) is str:
                self._files[doc_id] = _parse_file(doc_id, _read(found))
        return self._files

    @property
    def documents(self) -> dict[str, SchemaDocument]:
        return {doc_id: doc for doc_id, doc in self._parsed().items() if type(doc) is SchemaDocument}

    @property
    def errors(self) -> list[ParseError]:
        return [error for error in self._parsed().values() if type(error) is not SchemaDocument]


_MISSING = object()
_TRUE_SCHEMA = RawNode(ANY)
_FALSE_SCHEMA = RawNode(ENUM)  # unsatisfiable: modelled as an empty enum


def _location(where: str | tuple) -> str:
    """The text of a parse location: a string, or for a child schema a tuple
    of its parent's location and the keys that lead from there to the child,
    spelled as the parent's text followed by each key after a slash, as in
    ``"a.json/properties/x/oneOf/0"``."""
    keys = []
    while type(where) is tuple:
        keys += where[:0:-1]
        where = where[0]
    keys.append(where)
    return "/".join(map(str, reversed(keys)))


def parse_schema(value: object, where: str | tuple = "<inline>") -> RawNode:
    """Parse one schema value (a dict, or booleans true/false) into a RawNode.

    ``where`` locates ``value`` for a ParseError. A child schema is parsed
    with its parent's location and its keys in a tuple, which
    :func:`_location` turns into text only if a ParseError is raised: most
    schema nodes raise none, so most locations are never spelled out.
    RawNodes are built with ``tuple.__new__``; the two boolean schemas are
    shared constants."""
    if value is True:
        return _TRUE_SCHEMA
    if value is False:
        return _FALSE_SCHEMA
    if not isinstance(value, dict):
        raise ParseError(_location(where), f"schema must be an object, got {type(value).__name__}")
    if not _REFUSED_KEYWORDS.isdisjoint(value):
        refused = _REFUSED_KEYWORDS.intersection(value)
        raise ParseError(_location(where), f"keywords {sorted(refused)} are outside the supported subset")
    get = value.get

    ref = get("$ref", _MISSING)
    if ref is not _MISSING:
        if not isinstance(ref, str):
            raise ParseError(_location(where), "$ref must be a string")
        if not _CONSTRAINT_KEYWORDS.isdisjoint(value):
            siblings = _CONSTRAINT_KEYWORDS.intersection(value)
            raise ParseError(
                _location(where), f"$ref with constraint siblings {sorted(siblings)} is outside the supported subset"
            )
        return tuple.__new__(RawNode, (REFERENCE, None, (), None, (ref,), (), True, (), (), None, None, None, (), None))

    type_tag = get("type")
    if type_tag is not None:
        if not isinstance(type_tag, str):
            raise ParseError(
                _location(where), "type must be one type name; a list of types is outside the supported subset"
            )
        if type_tag not in _TYPE_NAMES:
            raise ParseError(_location(where), f"type {type_tag!r} is not a JSON Schema type name")
    children: tuple[tuple[str, RawNode], ...] = ()
    props = get("properties")
    if props is not None:
        if not isinstance(props, dict):
            raise ParseError(_location(where), "properties must be an object")
        children = tuple(
            [(name, parse_schema(sub, (where, "properties", name))) for name, sub in props.items()]
        )

    item = get("items", _MISSING)
    if item is _MISSING:
        item = None
    elif isinstance(item, list):
        raise ParseError(_location(where), "tuple-form items is outside the supported subset")
    else:
        item = parse_schema(item, (where, "items"))

    required = get("required", _MISSING)
    if required is _MISSING:
        required = ()
    elif not isinstance(required, list) or not all(isinstance(n, str) for n in required):
        raise ParseError(_location(where), "required must be a list of names")
    else:
        required = tuple(required)

    additional = get("additionalProperties", True)
    if additional is not True and additional is not False:
        raise ParseError(_location(where), "schema-valued additionalProperties is outside the supported subset")

    one_of = get("oneOf", _MISSING)
    if one_of is _MISSING:
        one_of = ()
    elif not isinstance(one_of, list):
        raise ParseError(_location(where), "oneOf must be a list")
    elif not one_of:
        raise ParseError(_location(where), "oneOf must hold at least one schema")
    else:
        one_of = tuple([parse_schema(b, (where, "oneOf", i)) for i, b in enumerate(one_of)])
    all_of = get("allOf", _MISSING)
    if all_of is _MISSING:
        all_of = ()
    elif not isinstance(all_of, list):
        raise ParseError(_location(where), "allOf must be a list")
    else:
        all_of = tuple([parse_schema(b, (where, "allOf", i)) for i, b in enumerate(all_of)])

    condition = then = otherwise = None
    if "if" in value:
        condition = parse_schema(value["if"], (where, "if"))
        if "then" in value:
            then = parse_schema(value["then"], (where, "then"))
        if "else" in value:
            otherwise = parse_schema(value["else"], (where, "else"))

    enum = get("enum", _MISSING)
    enum_values: tuple[object, ...] = ()
    if enum is not _MISSING:
        if not isinstance(enum, list):
            raise ParseError(_location(where), "enum must be a list")
        enum_values = tuple(enum)

    format_tag = get("format")
    if format_tag is not None and not isinstance(format_tag, str):
        format_tag = None

    if one_of:
        kind = ONEOF
    elif condition is not None:
        kind = CONDITIONAL
    elif type_tag == "object" or props is not None:
        kind = OBJECT
    elif type_tag == "array" or item is not None:
        kind = ARRAY
    elif enum is not _MISSING:
        kind = ENUM
    elif type_tag in _SCALAR_TYPES:
        kind = ATOMIC
    else:
        kind = ANY
    if enum is not _MISSING and not enum_values and kind != ENUM:
        # A node tells an empty enum from none only by its ENUM kind.
        raise ParseError(_location(where), "an empty enum beside other constraints is outside the supported subset")

    # The $ref targets below, in the resolver's site order: allOf comes
    # last, though it is parsed before if/then/else.
    refs: list[str] = []
    for _, sub in children:
        refs += sub.refs
    if item is not None:
        refs += item.refs
    for sub in one_of:
        refs += sub.refs
    if condition is not None:
        refs += condition.refs
        if then is not None:
            refs += then.refs
        if otherwise is not None:
            refs += otherwise.refs
    for sub in all_of:
        refs += sub.refs
    return tuple.__new__(
        RawNode,
        (kind, type_tag, children, item, tuple(refs) if refs else (), required, additional, one_of,
         all_of, condition, then, otherwise, enum_values, format_tag),
    )


def _schema_files(root: str | Path) -> list[tuple[tuple[str, ...], str]]:
    """``(relative path parts, path)`` of the files that ``sorted(p for p in
    root.rglob("*.json") if p.is_file())`` lists, in its order, from one
    ``scandir`` per directory: names match case-sensitively, hidden ones
    too; symlinked directories are not descended; symlinked files count,
    broken links and directories do not; unreadable directories are
    skipped; ``a/b.json`` sorts before ``a-b.json``."""
    found = []
    pending: list[tuple[tuple[str, ...], str]] = [((), str(root))]
    while pending:
        parts, directory = pending.pop()
        try:
            with os.scandir(directory) as scan:
                entries = list(scan)
        except PermissionError:
            continue
        for entry in entries:
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                pending.append(((*parts, name), entry.path))
            elif name.endswith(".json"):
                try:
                    is_file = entry.is_file()
                except OSError:  # a symlink loop, or a target that cannot be examined
                    is_file = False
                if is_file:
                    found.append(((*parts, name), entry.path))
    found.sort()
    return found


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``; IoError naming it if it cannot be
    read."""
    try:
        return read_bytes(path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _parse_file(doc_id: str, data: bytes) -> SchemaDocument | ParseError:
    """The document in one file's bytes, read as ``Path.read_text`` would
    (UTF-8 with universal newlines), or the ParseError that refuses it."""
    try:
        raw = json.loads(decode_text(data))
        if not isinstance(raw, dict):
            return ParseError(doc_id, "top level must be an object document")
        return tuple.__new__(SchemaDocument, (doc_id, raw, parse_schema(raw, doc_id), raw.get("$schema", "")))
    except UnicodeDecodeError as exc:
        return ParseError(doc_id, f"not UTF-8: {exc.reason} at byte offset {exc.start}")
    except json.JSONDecodeError as exc:
        return ParseError(doc_id, f"invalid JSON at offset {exc.pos}: {exc.msg}")
    except RecursionError:
        return ParseError(doc_id, "nested too deeply")
    except ParseError as exc:
        return exc


def load_corpus(directory: str | Path) -> CorpusHandle:
    """List every ``*.json`` file under ``directory`` in a corpus handle.

    The files are those ``Path.rglob`` finds (see :func:`_schema_files`),
    in sorted path order, each with its relative POSIX path as id. Each
    file is read and parsed on first use (see :class:`CorpusHandle`), so a
    session reads only the files its resolves reach, and a file that cannot
    be read raises IoError there. Malformed files -- not UTF-8, not JSON,
    not an object, nested too deeply for the recursion limit, or outside
    the subset -- are recorded per file in ``handle.errors`` (as ParseError
    entries naming the file); the remaining documents stay loadable.
    Raises CorpusError when the directory holds no schema files at all and
    IoError when it cannot be read.
    """
    root = directory if isinstance(directory, Path) else Path(directory)
    if not root.is_dir():
        raise IoError(f"not a readable directory: {root}")
    files = {"/".join(parts): path for parts, path in _schema_files(root)}
    if not files:
        raise CorpusError(f"no schema files in {root}")
    return CorpusHandle(root, files)


def json_equal(a: object, b: object) -> bool:
    """JSON-semantics equality: booleans are distinct from numbers, and a
    ``str`` subclass equals an equal string, as jsonschema has it."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if type(a) is not type(b):
        return False
    return a == b


def _resolve_target_id(base_dir: str, base_doc: str, path_part: str) -> str:
    if path_part.startswith(("http://", "https://", "file://", "//")):
        raise UnknownRef(f"absolute URL references are rejected: {path_part!r}")
    if path_part.startswith("/"):
        raise UnknownRef(f"absolute path references are rejected: {path_part!r}")
    joined = posixpath.normpath(posixpath.join(base_dir, path_part))
    if joined == ".." or joined.startswith("../"):
        raise UnknownRef(f"reference escapes the corpus root: {path_part!r} from {base_doc!r}")
    return joined


def _navigate_fragment(doc: SchemaDocument, fragment: str) -> object:
    if not fragment.startswith("/"):
        raise UnknownRef(f"unsupported fragment {fragment!r} in {doc.id} (plain-name anchors not supported)")
    current: object = doc.raw
    for token in fragment[1:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(current, dict) and token in current:
            current = current[token]
        elif isinstance(current, list) and token.isascii() and token.isdigit() and int(token) < len(current):
            current = current[int(token)]
        else:
            raise UnknownRef(f"fragment {fragment!r} not found in {doc.id}")
    return current


def _type_name_for_target(doc_id: str, fragment: str) -> str:
    if fragment and fragment != "/":
        return fragment.rstrip("/").rsplit("/", 1)[-1]
    return posixpath.basename(doc_id).rsplit(".", 1)[0]


# A reference target: (document id, JSON-pointer fragment).
_Key = tuple[str, str]

# The most expansion states under a non-empty cycle stack that one
# ``resolve`` call discovers, before any is built, without raising
# ResolutionTooLarge. A k-clique needs (k-1) * 2^(k-2) of them: the
# 12-clique's 11,264 resolve, the 13-clique's 24,576 are refused. A ring of
# n documents needs n - 1.
STATE_BUDGET = 20_000


class _Resolver:
    """Resolve over the ref graph of one entry, sharing every target.

    The nodes of the ref graph are keys ``(target_id, fragment)``. A
    reference whose key is on the resolution stack becomes a cycle stub;
    any other stands for the expansion of its key under that stack. The
    expansion depends on the stack only through the stack keys it can
    reach, and every stack key reaches the key being expanded, so only keys
    in its strongly connected component matter. A stack is therefore
    ``(component, mask)``: the component's id and an int bitmask over the
    component-local indices of its keys. An expansion state is ``(key,
    mask)``; a key entered from another component is expanded once, under
    the empty mask, and its one node is shared by every site that
    references it.

    ``resolve`` lists every state reachable from the entry in one
    :func:`postorder`, each after the states its non-cycle references need,
    and builds them in that order, so each reference is a memo hit and the
    only recursion is the nesting inside one document. States with a
    non-empty mask are counted as they are discovered, before any is built;
    above STATE_BUDGET, resolution is refused. A ref graph with no cycle
    through two keys, as every bundled corpus is, has only empty-mask
    states, listed in the order the walk that discovers the keys finishes
    them, so it is built straight from that walk: no second pass over the
    references and no walk over the states.
    """

    def __init__(self, corpus: CorpusHandle):
        self.corpus = corpus
        self._raw: dict[_Key, RawNode] = {}
        self._targets: dict[_Key, list[_Key]] = {}
        self._site_keys: dict[tuple[str, str], _Key] = {}
        self._target_ids: dict[tuple[str, str], str] = {}
        self._place: dict[_Key, tuple[int, int]] = {}  # (component, bit)
        self._memo: dict[tuple[_Key, int], ResolvedNode] = {}

    def resolve(self, entry_id: str) -> ResolvedNode:
        entry = (entry_id, "")
        order = self._components(entry)  # None when a cycle joins two keys
        place, targets, state_of = self._place, self._targets, self._state
        cyclic = 0

        def needs(state: tuple[_Key, int]) -> list[tuple[_Key, int]]:
            # the states its non-cycle references stand for, in site order
            nonlocal cyclic
            key, mask = state
            if mask:
                cyclic += 1
                if cyclic > STATE_BUDGET:
                    raise ResolutionTooLarge(entry_id, STATE_BUDGET)
            component, bit = place[key]
            stack = (component, mask | bit)
            return [need for target in targets[key] if (need := state_of(target, stack)) is not None]

        states = [(key, 0) for key in order] if order else postorder((entry, 0), needs)
        states.pop()  # the entry, which no other state needs
        for key, mask in states:
            component, bit = place[key]
            target_id, fragment = key
            self._memo[key, mask] = self._node(
                self._raw[key], target_id, fragment, (component, mask | bit),
                (_type_name_for_target(target_id, fragment),), (target_id,),
            )
        return self._node(self._raw[entry], entry_id, "", place[entry])  # its bit is its stack

    def _components(self, entry: _Key) -> list[_Key] | None:
        """Place every key of the ref graph reachable from ``entry`` in its
        strongly connected component (Kosaraju-Sharir: two depth-first
        :func:`postorder` passes): ``_place[key]`` is the component's id and
        the key's bit, ``1 << i`` for the i-th member. The first pass
        discovers the keys depth-first in site order, so of several broken
        references the one a depth-first resolution reaches first is
        reported.

        In that finishing order only a back edge points to a key that
        finishes later than its source (Tarjan 1972), and every cycle
        through two or more keys has one. Without one, each key is a
        component of its own, ``(i, 1)`` (a self-reference is stubbed by
        the key's own bit), every state has the empty mask, and the state
        walk would repeat the first pass: its order is returned, to be
        built as it is. Otherwise the second pass walks the reversed
        references from each key not yet placed, latest finished first,
        reaches exactly its component, and None is returned."""
        order = postorder(entry, self._discover)
        place, targets = self._place, self._targets
        for i, key in enumerate(order):
            place[key] = (i, 1)
            if not all(map(place.__contains__, targets[key])):
                place.clear()
                break
        else:
            return order
        sources: dict[_Key, list[_Key]] = {key: [] for key in order}
        for key in order:
            for target in targets[key]:
                sources[target].append(key)
        for key in reversed(order):
            if key not in place:
                component = len(place)
                for i, member in enumerate(postorder(key, sources.__getitem__, place.__contains__)):
                    place[member] = (component, 1 << i)
        return None

    def _discover(self, key: _Key) -> Iterator[_Key]:
        """Parse the target of ``key`` and yield the key of each of its
        reference sites, in site order. Lazy, so errors surface in the order
        a depth-first resolution meets them."""
        doc_id, fragment = key
        doc = self.corpus.get(doc_id)
        if fragment in ("", "/"):
            raw = doc.root
        else:
            target = _navigate_fragment(doc, fragment)
            try:
                raw = parse_schema(target, f"{doc_id}#{fragment}")
            except ParseError as exc:
                if isinstance(target, (dict, bool)):
                    raise  # a schema outside the subset, refused as in a file of its own
                raise UnknownRef(f"reference target is not a schema: {exc}") from exc
        self._raw[key] = raw
        targets = self._targets[key] = []
        base_dir = posixpath.dirname(doc_id)
        for ref in raw.refs:
            target = self._site_keys.get((doc_id, ref))
            if target is None:
                path_part, _, target_fragment = ref.partition("#")
                target_id = doc_id
                if path_part:  # the join depends on the directory alone
                    joined = self._target_ids.get((base_dir, path_part))
                    target_id = joined or _resolve_target_id(base_dir, doc_id, path_part)
                    self._target_ids[base_dir, path_part] = target_id
                target = self._site_keys[doc_id, ref] = (target_id, target_fragment)
            targets.append(target)
            yield target

    def _state(self, target: _Key, stack: tuple[int, int]) -> tuple[_Key, int] | None:
        """The expansion state a reference to ``target`` under ``stack``
        stands for, or None when ``target`` is on the stack (a cycle)."""
        component, mask = stack
        target_component, bit = self._place[target]
        if target_component != component:
            return target, 0
        if mask & bit:
            return None
        return target, mask

    def _node(
        self, raw: RawNode, doc_id: str, path: str, stack: tuple[int, int],
        ref_names: tuple[str, ...] = (), ref_docs: tuple[str, ...] = (),
    ) -> ResolvedNode:
        """The node of ``raw``, its ref chain prefixed by ``ref_names`` /
        ``ref_docs`` (the references that lead to it)."""
        if raw.kind == REFERENCE:
            resolved = self._reference(raw, doc_id, path, stack)
            if not ref_names:
                return resolved
            # a reference target that is itself a reference
            return resolved._replace(ref_names=ref_names + resolved.ref_names, ref_docs=ref_docs + resolved.ref_docs)
        if raw.all_of:
            return self._merge_all_of(raw, doc_id, path, stack, ref_names, ref_docs)

        children = tuple(
            [(name, self._node(sub, doc_id, f"{path}/properties/{name}", stack)) for name, sub in raw.children]
        )
        item = self._node(raw.item, doc_id, f"{path}/items", stack) if raw.item else None
        one_of_groups: tuple = ()
        if raw.one_of:
            one_of_groups = (
                tuple([self._node(b, doc_id, f"{path}/oneOf/{i}", stack) for i, b in enumerate(raw.one_of)]),
            )
        conditionals: tuple = ()
        if raw.condition is not None:
            conditionals = (
                (
                    self._node(raw.condition, doc_id, f"{path}/if", stack),
                    self._node(raw.then, doc_id, f"{path}/then", stack) if raw.then else None,
                    self._node(raw.otherwise, doc_id, f"{path}/else", stack) if raw.otherwise else None,
                ),
            )
        return tuple.__new__(ResolvedNode, (
            raw.kind, doc_id, path, raw.type_tag, children, item, raw.required, raw.additional_allowed,
            one_of_groups, conditionals, raw.enum_values, raw.format_tag, ref_names, ref_docs, None,
        ))

    def _reference(self, raw: RawNode, doc_id: str, path: str, stack: tuple[int, int]) -> ResolvedNode:
        key = self._site_keys[doc_id, raw.refs[0]]
        state = self._state(key, stack)
        if state is not None:
            return self._memo[state]
        target_id, fragment = key
        return tuple.__new__(ResolvedNode, (
            CYCLE, doc_id, path, None, (), None, (), True, (), (), (), None,
            (_type_name_for_target(target_id, fragment),), (target_id,), target_id,
        ))

    def _merge_all_of(
        self, raw: RawNode, doc_id: str, path: str, stack: tuple[int, int],
        ref_names: tuple[str, ...], ref_docs: tuple[str, ...],
    ) -> ResolvedNode:
        host_kind = OBJECT if (raw.children or raw.type_tag == "object") else ANY
        host = self._node(raw._replace(kind=host_kind, all_of=()), doc_id, path, stack)
        participants = [("the host schema", host)]
        merged_children = list(host.children)
        names = {n: i for i, (n, _) in enumerate(merged_children)}
        required = list(host.required)
        one_of_groups = list(host.one_of_groups)
        conditionals = list(host.conditionals)
        ref_names = list(ref_names)  # the host is no reference: the chain starts with the prefix
        ref_docs = list(ref_docs)
        type_tag = host.type_tag
        format_tag = host.format_tag
        item = host.item
        enum_values = host.enum_values if raw.kind == ENUM or host.enum_values else None
        kind = host.kind

        def conflict(i: int, problem: str) -> MergeConflict:
            return MergeConflict(f"{doc_id}{path}: allOf branch {i} {problem}")

        for i, branch_raw in enumerate(raw.all_of):
            branch = self._node(branch_raw, doc_id, f"{path}/allOf/{i}", stack)
            if branch.kind == CYCLE:
                raise conflict(i, "is a cyclic reference and cannot be merged")
            participants.append((f"allOf branch {i}", branch))
            if type_tag and branch.type_tag and type_tag != branch.type_tag:
                if {type_tag, branch.type_tag} != {"integer", "number"}:
                    raise conflict(i, f"has type {branch.type_tag!r}, not {type_tag!r}")
                type_tag = "integer"
            type_tag = type_tag or branch.type_tag
            if format_tag and branch.format_tag and format_tag != branch.format_tag:
                raise conflict(i, f"has format {branch.format_tag!r}, not {format_tag!r}")
            format_tag = format_tag or branch.format_tag
            if item and branch.item and not _same_shape(item, branch.item):
                raise conflict(i, "disagrees on items")
            item = item or branch.item
            if branch.kind == ENUM or branch.enum_values:
                admitted = branch.enum_values
                if enum_values is not None:
                    admitted = tuple(v for v in enum_values if any(json_equal(v, w) for w in admitted))
                if not admitted:
                    raise conflict(i, "leaves no enum value that every participant admits")
                enum_values = admitted
            for name, sub in branch.children:
                if name in names:
                    existing = merged_children[names[name]][1]
                    if not _same_shape(existing, sub):
                        raise conflict(i, f"disagrees on property {name!r}")
                else:
                    names[name] = len(merged_children)
                    merged_children.append((name, sub))
            for name in branch.required:
                if name not in required:
                    required.append(name)
            one_of_groups.extend(branch.one_of_groups)
            conditionals.extend(branch.conditionals)
            ref_names.extend(branch.ref_names)
            ref_docs.extend(branch.ref_docs)
            if kind in (ANY, ATOMIC) and branch.kind in (OBJECT, ARRAY, ENUM):
                kind = branch.kind

        if enum_values == ():
            raise MergeConflict(f"{doc_id}{path}: the host schema's empty enum admits no value")
        for label, participant in participants:
            if participant.additional_allowed:
                continue
            foreign = names.keys() - {n for n, _ in participant.children}
            if foreign:
                raise MergeConflict(
                    f"{doc_id}{path}: {label} forbids additional properties"
                    f" but the merge adds {sorted(foreign)}"
                )

        if merged_children or type_tag == "object":
            kind = OBJECT
        return tuple.__new__(ResolvedNode, (
            kind, doc_id, path, type_tag, tuple(merged_children), item, tuple(required),
            all(p.additional_allowed for _, p in participants), tuple(one_of_groups),
            tuple(conditionals), enum_values or (), format_tag, tuple(ref_names), tuple(ref_docs), None,
        ))


def resolve(corpus: CorpusHandle, entry_id: str) -> ResolvedNode:
    """Resolve one entry document into a reference-free DAG of shared,
    immutable nodes (see :class:`ResolvedNode`).

    Cycles are stubbed (kind "cycle"), never expanded, so this terminates on
    any corpus. It refuses a corpus whose reference cycles need more than
    ``STATE_BUDGET`` expansions under a non-empty cycle stack, raising
    ResolutionTooLarge (a CorpusError) when they are discovered, before any
    is built, rather than building an output exponential in the size of a
    cycle. Resolution is deterministic: equal corpora yield structurally
    identical results, and the result unfolds to the tree a per-site
    inlining of every reference would build.
    """
    return _Resolver(corpus).resolve(entry_id)
