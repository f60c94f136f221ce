"""Load multi-file JSON Schema corpora and resolve cross-file references.

A corpus is a directory tree of UTF-8 ``*.json`` schema files. ``load_corpus``
parses every file into a :class:`SchemaDocument`; ``resolve`` turns one entry
document into a self-contained :class:`ResolvedNode` tree with every ``$ref``
inlined, ``allOf`` branches merged, and reference cycles stubbed with CYCLE
markers so resolution always terminates.

Supported dialect subset: type, properties, items, required,
additionalProperties, enum, format, $ref, oneOf, allOf, if/then/else,
description. Unknown keywords are ignored.

All reference targets are file-local, resolved relative to the referencing
document's directory; absolute URLs and paths escaping the corpus root are
rejected. ``additionalProperties: false`` must not appear on an allOf
participant -- the host schema or any of its branches -- that lacks a
property another participant declares: merged semantics would otherwise
diverge from per-branch evaluation, so resolution raises MergeConflict.
"""

from __future__ import annotations

import json
import posixpath
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .errors import CorpusError, IoError, MergeConflict, ParseError, UnknownRef

# Keywords that make a $ref sibling constraint-bearing (and therefore illegal
# in this subset -- the loader inlines refs wholesale).
_CONSTRAINT_KEYWORDS = frozenset(
    ["type", "properties", "items", "required", "additionalProperties",
     "enum", "format", "oneOf", "allOf", "if", "then", "else"]
)

_SCALAR_TYPES = frozenset(["string", "number", "integer", "boolean", "null"])

# Node kind tags shared by raw and resolved trees.
REFERENCE = "reference"
OBJECT = "object"
ARRAY = "array"
ATOMIC = "atomic"
ENUM = "enum"
ONEOF = "oneOf"
ALLOF = "allOf"
CONDITIONAL = "conditional"
ANY = "any"
CYCLE = "cycle"


@dataclass(frozen=True)
class RawNode:
    """One schema object as parsed, before reference resolution.

    ``kind`` is a primary classification (reference > allOf > oneOf >
    conditional > object > array > enum > atomic > any); the remaining facets
    coexist the way JSON Schema keywords do.
    """

    kind: str
    type_tag: str | None = None
    children: tuple[tuple[str, "RawNode"], ...] = ()
    item: "RawNode | None" = None
    ref_target: str | None = None
    required: tuple[str, ...] = ()
    additional_allowed: bool = True
    one_of: tuple["RawNode", ...] = ()
    all_of: tuple["RawNode", ...] = ()
    condition: "RawNode | None" = None
    then: "RawNode | None" = None
    otherwise: "RawNode | None" = None
    enum_values: tuple[Any, ...] = ()
    format_tag: str | None = None


@dataclass(frozen=True)
class OneOfTags:
    """Branch lookup for one oneOf group.

    A branch *gates* a property when it declares it as a non-cycle child
    whose enum holds only strings. ``gates`` maps each gated property to the
    branches each of its enum values admits, in group order.
    ``discriminator`` names a gated property that every branch gates and
    requires, with enum values disjoint across branches. In an object, a
    string there selects at most one branch, and every other branch fails on
    the enum; an absent or non-string value fails every branch. It is None
    when no property qualifies.
    """

    gates: dict[str, dict[str, tuple["ResolvedNode", ...]]]
    discriminator: str | None


def _is_gate(node: "ResolvedNode") -> bool:
    return (
        node.kind != CYCLE
        and bool(node.enum_values)
        and all(isinstance(v, str) for v in node.enum_values)
    )


def _one_of_tags(group: tuple["ResolvedNode", ...]) -> OneOfTags:
    gated = [{name for name, child in branch.children if _is_gate(child)} for branch in group]
    gates: dict[str, dict[str, list[ResolvedNode]]] = {}
    for branch, names in zip(group, gated):
        for name, child in branch.children:
            if name in names:
                table = gates.setdefault(name, {})
                for value in dict.fromkeys(child.enum_values):
                    table.setdefault(value, []).append(branch)
    discriminator = next(
        (
            name
            for name in (group[0].required if group else ())
            if all(name in b.required and name in g for b, g in zip(group, gated))
            and all(len(branches) == 1 for branches in gates[name].values())
        ),
        None,
    )
    return OneOfTags(
        gates={
            name: {value: tuple(branches) for value, branches in table.items()}
            for name, table in gates.items()
        },
        discriminator=discriminator,
    )


@dataclass(frozen=True)
class ResolvedNode:
    """Reference-free schema tree node.

    Every ``$ref`` has been replaced by the target subtree (``ref_names`` /
    ``ref_docs`` record the inlining chain, outermost first) or, on a cycle,
    by a ``kind == "cycle"`` stub naming the target. allOf is gone: object
    branches are merged into ``children`` and residual constraint branches
    live in ``conditionals`` / ``one_of_groups``.
    """

    kind: str
    doc_id: str
    path: str
    type_tag: str | None = None
    children: tuple[tuple[str, "ResolvedNode"], ...] = ()
    item: "ResolvedNode | None" = None
    required: tuple[str, ...] = ()
    additional_allowed: bool = True
    one_of_groups: tuple[tuple["ResolvedNode", ...], ...] = ()
    conditionals: tuple[tuple["ResolvedNode | None", "ResolvedNode | None", "ResolvedNode | None"], ...] = ()
    enum_values: tuple[Any, ...] = ()
    format_tag: str | None = None
    ref_names: tuple[str, ...] = ()
    ref_docs: tuple[str, ...] = ()
    cycle_target: str | None = None

    def child_map(self) -> dict[str, "ResolvedNode"]:
        return dict(self.children)

    @cached_property
    def one_of_tags(self) -> tuple[OneOfTags, ...]:
        """One :class:`OneOfTags` per oneOf group. Built on first use, so
        resolution does no extra work; not a field, so eq and hash ignore it."""
        return tuple(_one_of_tags(group) for group in self.one_of_groups)

    def one_of_branches(self) -> tuple["ResolvedNode", ...]:
        """All oneOf branches across groups, flattened (each group is an
        independent exactly-one constraint; this is for structural walks)."""
        return tuple(b for group in self.one_of_groups for b in group)

    def structural_key(self) -> Any:
        """Provenance-free shape, used for merge-conflict checks and the
        determinism invariant."""
        return (
            self.kind,
            self.type_tag,
            tuple((n, c.structural_key()) for n, c in self.children),
            self.item.structural_key() if self.item else None,
            tuple(sorted(self.required)),
            self.additional_allowed,
            tuple(
                tuple(b.structural_key() for b in group) for group in self.one_of_groups
            ),
            tuple(
                tuple(p.structural_key() if p else None for p in cond)
                for cond in self.conditionals
            ),
            tuple(repr(v) for v in self.enum_values),
            self.format_tag,
            self.cycle_target,
        )


@dataclass(frozen=True)
class SchemaDocument:
    """A parsed schema file: corpus-relative id, raw JSON, parsed root."""

    id: str
    raw: Mapping[str, Any]
    root: RawNode
    draft: str


@dataclass
class CorpusHandle:
    """All documents of one corpus directory plus per-file parse errors."""

    root_dir: Path
    documents: dict[str, SchemaDocument]
    errors: list[ParseError] = field(default_factory=list)

    def get(self, doc_id: str) -> SchemaDocument:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise UnknownRef(f"no document {doc_id!r} in corpus {self.root_dir}") from None


def parse_schema(value: Any, where: str = "<inline>") -> RawNode:
    """Parse one schema value (a dict, or booleans true/false) into a RawNode."""
    if value is True:
        return RawNode(kind=ANY)
    if value is False:
        # Unsatisfiable schema: modelled as an empty enum.
        return RawNode(kind=ENUM, enum_values=())
    if not isinstance(value, dict):
        raise ParseError(where, f"schema must be an object, got {type(value).__name__}")

    if "$ref" in value:
        ref = value["$ref"]
        if not isinstance(ref, str):
            raise ParseError(where, "$ref must be a string")
        siblings = _CONSTRAINT_KEYWORDS.intersection(value)
        if siblings:
            raise ParseError(
                where, f"$ref with constraint siblings {sorted(siblings)} is outside the supported subset"
            )
        return RawNode(kind=REFERENCE, ref_target=ref)

    type_tag = value.get("type") if isinstance(value.get("type"), str) else None
    children: list[tuple[str, RawNode]] = []
    props = value.get("properties")
    if props is not None:
        if not isinstance(props, dict):
            raise ParseError(where, "properties must be an object")
        for name, sub in props.items():
            children.append((name, parse_schema(sub, f"{where}/properties/{name}")))

    item = None
    if "items" in value:
        if isinstance(value["items"], list):
            raise ParseError(where, "tuple-form items is outside the supported subset")
        item = parse_schema(value["items"], f"{where}/items")

    required = value.get("required", [])
    if not isinstance(required, list) or not all(isinstance(n, str) for n in required):
        raise ParseError(where, "required must be a list of names")

    additional = value.get("additionalProperties", True)
    if not isinstance(additional, bool):
        raise ParseError(where, "schema-valued additionalProperties is outside the supported subset")

    one_of = tuple(
        parse_schema(b, f"{where}/oneOf/{i}") for i, b in enumerate(value.get("oneOf", []))
    )
    all_of = tuple(
        parse_schema(b, f"{where}/allOf/{i}") for i, b in enumerate(value.get("allOf", []))
    )

    condition = then = otherwise = None
    if "if" in value:
        condition = parse_schema(value["if"], f"{where}/if")
        if "then" in value:
            then = parse_schema(value["then"], f"{where}/then")
        if "else" in value:
            otherwise = parse_schema(value["else"], f"{where}/else")

    enum_values: tuple[Any, ...] = ()
    if "enum" in value:
        if not isinstance(value["enum"], list):
            raise ParseError(where, "enum must be a list")
        enum_values = tuple(value["enum"])

    format_tag = value.get("format") if isinstance(value.get("format"), str) else None

    if all_of:
        kind = ALLOF
    elif one_of:
        kind = ONEOF
    elif condition is not None:
        kind = CONDITIONAL
    elif type_tag == "object" or props is not None:
        kind = OBJECT
    elif type_tag == "array" or item is not None:
        kind = ARRAY
    elif "enum" in value:
        kind = ENUM
    elif type_tag in _SCALAR_TYPES:
        kind = ATOMIC
    else:
        kind = ANY

    return RawNode(
        kind=kind,
        type_tag=type_tag,
        children=tuple(children),
        item=item,
        required=tuple(required),
        additional_allowed=additional,
        one_of=one_of,
        all_of=all_of,
        condition=condition,
        then=then,
        otherwise=otherwise,
        enum_values=enum_values,
        format_tag=format_tag,
    )


def load_corpus(directory: str | Path) -> CorpusHandle:
    """Parse every ``*.json`` file under ``directory`` into a corpus handle.

    Malformed files are recorded per-file in ``handle.errors`` (as ParseError
    entries naming the file); the remaining documents stay loadable. Raises
    CorpusError when the directory holds no schema files at all and IoError
    when it cannot be read.
    """
    root = Path(directory)
    if not root.is_dir():
        raise IoError(f"not a readable directory: {root}")
    paths = sorted(p for p in root.rglob("*.json") if p.is_file())
    if not paths:
        raise CorpusError(f"no schema files in {root}")

    documents: dict[str, SchemaDocument] = {}
    errors: list[ParseError] = []
    for path in paths:
        doc_id = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            errors.append(ParseError(doc_id, f"invalid JSON at offset {exc.pos}: {exc.msg}"))
            continue
        if not isinstance(raw, dict):
            errors.append(ParseError(doc_id, "top level must be an object document"))
            continue
        try:
            node = parse_schema(raw, doc_id)
        except ParseError as exc:
            errors.append(exc)
            continue
        draft = raw.get("$schema", "")
        documents[doc_id] = SchemaDocument(id=doc_id, raw=raw, root=node, draft=draft)
    return CorpusHandle(root_dir=root, documents=documents, errors=errors)


def _resolve_target_id(base_doc: str, path_part: str) -> str:
    if path_part.startswith(("http://", "https://", "file://", "//")):
        raise UnknownRef(f"absolute URL references are rejected: {path_part!r}")
    if path_part.startswith("/"):
        raise UnknownRef(f"absolute path references are rejected: {path_part!r}")
    base_dir = posixpath.dirname(base_doc)
    joined = posixpath.normpath(posixpath.join(base_dir, path_part))
    if joined.startswith(".."):
        raise UnknownRef(f"reference escapes the corpus root: {path_part!r} from {base_doc!r}")
    return joined


def _navigate_fragment(doc: SchemaDocument, fragment: str) -> Any:
    if fragment in ("", "/"):
        return doc.raw
    if not fragment.startswith("/"):
        raise UnknownRef(f"unsupported fragment {fragment!r} in {doc.id} (plain-name anchors not supported)")
    current: Any = doc.raw
    for token in fragment[1:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(current, dict) and token in current:
            current = current[token]
        elif isinstance(current, list) and token.isdigit() and int(token) < len(current):
            current = current[int(token)]
        else:
            raise UnknownRef(f"fragment {fragment!r} not found in {doc.id}")
    return current


def _type_name_for_target(doc_id: str, fragment: str) -> str:
    if fragment and fragment != "/":
        return fragment.rstrip("/").rsplit("/", 1)[-1]
    return posixpath.basename(doc_id).rsplit(".", 1)[0]


class _Resolver:
    def __init__(self, corpus: CorpusHandle):
        self.corpus = corpus

    def resolve(self, entry_id: str) -> ResolvedNode:
        doc = self.corpus.get(entry_id)
        return self._node(doc.root, entry_id, "", frozenset({(entry_id, "")}))

    def _node(self, raw: RawNode, doc_id: str, path: str, stack: frozenset) -> ResolvedNode:
        if raw.kind == REFERENCE:
            return self._reference(raw, doc_id, path, stack)
        if raw.all_of:
            return self._merge_all_of(raw, doc_id, path, stack)

        children = tuple(
            (name, self._node(sub, doc_id, f"{path}/properties/{name}", stack))
            for name, sub in raw.children
        )
        item = self._node(raw.item, doc_id, f"{path}/items", stack) if raw.item else None
        one_of_groups: tuple = ()
        if raw.one_of:
            one_of_groups = (
                tuple(
                    self._node(b, doc_id, f"{path}/oneOf/{i}", stack)
                    for i, b in enumerate(raw.one_of)
                ),
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
        return ResolvedNode(
            kind=raw.kind,
            doc_id=doc_id,
            path=path,
            type_tag=raw.type_tag,
            children=children,
            item=item,
            required=raw.required,
            additional_allowed=raw.additional_allowed,
            one_of_groups=one_of_groups,
            conditionals=conditionals,
            enum_values=raw.enum_values,
            format_tag=raw.format_tag,
        )

    def _reference(self, raw: RawNode, doc_id: str, path: str, stack: frozenset) -> ResolvedNode:
        assert raw.ref_target is not None
        path_part, _, fragment = raw.ref_target.partition("#")
        target_id = _resolve_target_id(doc_id, path_part) if path_part else doc_id
        target_doc = self.corpus.get(target_id)
        key = (target_id, fragment)
        type_name = _type_name_for_target(target_id, fragment)
        if key in stack:
            return ResolvedNode(
                kind=CYCLE,
                doc_id=doc_id,
                path=path,
                cycle_target=target_id,
                ref_names=(type_name,),
                ref_docs=(target_id,),
            )
        fragment_raw = _navigate_fragment(target_doc, fragment)
        try:
            target_node = parse_schema(fragment_raw, f"{target_id}#{fragment}")
        except ParseError as exc:
            raise UnknownRef(f"reference target is not a schema: {exc}") from exc
        resolved = self._node(target_node, target_id, fragment, stack | {key})
        return replace(
            resolved,
            ref_names=(type_name,) + resolved.ref_names,
            ref_docs=(target_id,) + resolved.ref_docs,
        )

    def _merge_all_of(self, raw: RawNode, doc_id: str, path: str, stack: frozenset) -> ResolvedNode:
        host_kind = OBJECT if (raw.children or raw.type_tag == "object") else ANY
        host = self._node(replace(raw, kind=host_kind, all_of=()), doc_id, path, stack)
        participants = [("the host schema", host)]
        merged_children = list(host.children)
        names = {n: i for i, (n, _) in enumerate(merged_children)}
        required = list(host.required)
        one_of_groups = list(host.one_of_groups)
        conditionals = list(host.conditionals)
        ref_names = list(host.ref_names)
        ref_docs = list(host.ref_docs)
        type_tag = host.type_tag
        kind = host.kind

        for i, branch_raw in enumerate(raw.all_of):
            branch = self._node(branch_raw, doc_id, f"{path}/allOf/{i}", stack)
            if branch.kind == CYCLE:
                raise MergeConflict(
                    f"{doc_id}{path}: allOf branch {i} is a cyclic reference and cannot be merged"
                )
            participants.append((f"allOf branch {i}", branch))
            for name, sub in branch.children:
                if name in names:
                    existing = merged_children[names[name]][1]
                    if existing.structural_key() != sub.structural_key():
                        raise MergeConflict(
                            f"{doc_id}{path}: allOf branches disagree on property {name!r}"
                        )
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
            if branch.type_tag and not type_tag:
                type_tag = branch.type_tag
            if kind in (ANY, ATOMIC) and branch.kind in (OBJECT, ARRAY, ENUM):
                kind = branch.kind

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
        return replace(
            host,
            kind=kind,
            type_tag=type_tag,
            children=tuple(merged_children),
            required=tuple(required),
            additional_allowed=all(p.additional_allowed for _, p in participants),
            one_of_groups=tuple(one_of_groups),
            conditionals=tuple(conditionals),
            ref_names=tuple(ref_names),
            ref_docs=tuple(ref_docs),
        )

def resolve(corpus: CorpusHandle, entry_id: str) -> ResolvedNode:
    """Resolve one entry document into a reference-free tree.

    Cycles are stubbed (kind "cycle"), never expanded, so this terminates on
    any corpus. Resolution is deterministic: equal corpora yield structurally
    identical trees.
    """
    return _Resolver(corpus).resolve(entry_id)
