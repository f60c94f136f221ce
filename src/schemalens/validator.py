"""Native validation of event instances against a resolved schema tree.

The walker evaluates type, required, additionalProperties, enum, properties,
items, every oneOf group (exactly-one-match semantics), if/then/else, and
assertive format checks for ``date-time`` (ISO 8601 / RFC 3339 profile) and
``ipv4`` (strict dotted quad, no leading zeros). allOf never appears here:
the loader merges it during resolution. All violations are collected, not
just the first; identical inputs yield identical violation lists. An
instance that reaches a cycle stub is refused with CycleReached.

Checks whose violations nobody reads -- oneOf branches and if-conditions --
run the same walker in quiet mode, which stops at the first violation. A
discriminated oneOf group (see ``loader.OneOfTags``) is dispatched on its
tag: for an object instance only the branch a string tag selects is
evaluated, since every other branch fails on the tag's ``required`` or
``enum``. Non-object instances and other groups evaluate every branch.
Neither shortcut changes the top-level violation list, which stays complete.

Only ``(instance_path, keyword)`` pairs are contract-bearing; message text is
informational.
"""

from __future__ import annotations

import calendar
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from . import loader
from .errors import AmbiguousBranch, CycleReached, NoBranch, SchemaUnresolved
from .loader import ResolvedNode, json_equal

_DATE_TIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt]"
    r"(\d{2}):(\d{2}):(\d{2})(?:\.\d+)?"
    r"(?:[Zz]|([+-])(\d{2}):(\d{2}))$"
)
_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def is_date_time(value: str) -> bool:
    """RFC 3339 date-time: full date, 'T', full time, 'Z' or an offset."""
    match = _DATE_TIME_RE.match(value)
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


def is_ipv4(value: str) -> bool:
    match = _IPV4_RE.match(value)
    if not match:
        return False
    for octet in match.groups():
        if len(octet) > 1 and octet.startswith("0"):
            return False
        if int(octet) > 255:
            return False
    return True


_FORMAT_CHECKS = {"date-time": is_date_time, "ipv4": is_ipv4}


def _type_matches(value: Any, tag: str) -> bool:
    if tag == "string":
        return isinstance(value, str)
    if tag == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tag == "integer":
        if isinstance(value, bool):
            return False
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if tag == "boolean":
        return isinstance(value, bool)
    if tag == "null":
        return value is None
    if tag == "object":
        return isinstance(value, Mapping)
    if tag == "array":
        return isinstance(value, list)
    return True


@dataclass(frozen=True)
class Violation:
    instance_path: str
    schema_path: str
    keyword: str
    message: str


@dataclass
class ValidationOutcome:
    valid: bool
    violations: list[Violation] = field(default_factory=list)


def _check(value: Any, node: ResolvedNode, ipath: str, out: list[Violation] | _QuietSink) -> None:
    if node.kind == loader.CYCLE:
        raise CycleReached(ipath, node.cycle_target)
    spath = f"{node.doc_id}#{node.path}"

    if node.type_tag and not _type_matches(value, node.type_tag):
        out.append(
            Violation(ipath, spath, "type", f"expected {node.type_tag}, got {type(value).__name__}")
        )

    if node.kind == loader.ENUM or node.enum_values:
        if not any(json_equal(value, allowed) for allowed in node.enum_values):
            out.append(Violation(ipath, spath, "enum", f"{value!r} is not one of the allowed values"))

    if node.format_tag in _FORMAT_CHECKS and isinstance(value, str):
        if not _FORMAT_CHECKS[node.format_tag](value):
            out.append(
                Violation(ipath, spath, "format", f"{value!r} is not a valid {node.format_tag}")
            )

    if isinstance(value, Mapping):
        for name in node.required:
            if name not in value:
                out.append(Violation(ipath, spath, "required", f"missing required property {name!r}"))
        for name, child in node.children:
            if name in value:
                _check(value[name], child, f"{ipath}/{name}", out)
        if not node.additional_allowed:
            declared = {name for name, _ in node.children}
            for key in value:
                if key not in declared:
                    out.append(
                        Violation(f"{ipath}/{key}", spath, "additionalProperties",
                                  f"property {key!r} is not allowed")
                    )

    if isinstance(value, list) and node.item is not None:
        for i, element in enumerate(value):
            _check(element, node.item, f"{ipath}/{i}", out)

    # Quiet checks start at instance path "", so prefix this node's path.
    for group, tags in zip(node.one_of_groups, node.one_of_tags):
        try:
            matched = _count_matches(value, group, tags)
        except CycleReached as exc:
            exc.instance_path = ipath + exc.instance_path
            raise
        if matched != 1:
            out.append(
                Violation(ipath, spath, "oneOf",
                          f"matched {matched} of {len(group)} alternatives, expected exactly 1")
            )

    for condition, then, otherwise in node.conditionals:
        try:
            arm = then if _quiet_valid(value, condition) else otherwise
        except CycleReached as exc:
            exc.instance_path = ipath + exc.instance_path
            raise
        if arm is not None:
            _check(value, arm, ipath, out)


class _Invalid(Exception):
    """Raised by the quiet sink on the first violation."""


class _QuietSink:
    """Violation sink of quiet mode: the first append ends the walk."""

    def append(self, violation: Violation) -> None:
        raise _Invalid


_QUIET = _QuietSink()


def _quiet_valid(value: Any, node: ResolvedNode) -> bool:
    try:
        _check(value, node, "", _QUIET)
    except _Invalid:
        return False
    return True


def _count_matches(value: Any, group: tuple[ResolvedNode, ...], tags: loader.OneOfTags) -> int:
    """How many branches of one oneOf group ``value`` is valid against."""
    if tags.discriminator is not None and isinstance(value, Mapping):
        # Every branch requires the tag and lists the strings it admits, so
        # an absent or non-string tag fails them all, and a string tag all
        # but the branch it selects.
        group = tags.branches(tags.discriminator, value.get(tags.discriminator))
    return sum(1 for branch in group if _quiet_valid(value, branch))


def validate(instance: Any, schema: ResolvedNode) -> ValidationOutcome:
    """Validate one instance document against a resolved schema tree."""
    if not isinstance(schema, ResolvedNode):
        raise SchemaUnresolved("validate() needs a resolved schema tree (see loader.resolve)")
    violations: list[Violation] = []
    _check(instance, schema, "", violations)
    return ValidationOutcome(valid=not violations, violations=violations)


def dispatch_event_schema(schema: ResolvedNode, message: Mapping[str, Any]) -> str:
    """Pick the event sub-schema a message dispatches to.

    Uses the message node's conditional (itemType gates which event names are
    admissible) and the branch lookup the validator dispatches through
    (``OneOfTags.branches`` of ``ResolvedNode.one_of_tags``): the matches
    are the branches whose string enum on eventName admits the message's
    eventName. Returns the event schema's document id. Raises NoBranch when
    nothing matches and AmbiguousBranch when more than one branch does.
    """
    if not isinstance(schema, ResolvedNode):
        raise SchemaUnresolved("dispatch needs a resolved schema tree")
    message_node = schema.child_map().get("message")
    if message_node is None:
        raise SchemaUnresolved("schema has no 'message' member to dispatch on")
    event_name = message.get("eventName")

    for condition, then, _ in message_node.conditionals:
        if then is not None and _quiet_valid(message, condition):
            gate = then.child_map().get("eventName")
            if gate is not None and gate.enum_values:
                if not any(json_equal(event_name, v) for v in gate.enum_values):
                    raise NoBranch(
                        f"eventName {event_name!r} is not admissible for this item type"
                    )

    matches = [branch for tags in message_node.one_of_tags for branch in tags.branches("eventName", event_name)]
    if not matches:
        raise NoBranch(f"no event branch accepts eventName {event_name!r}")
    if len(matches) > 1:
        raise AmbiguousBranch(
            f"eventName {event_name!r} matches {len(matches)} branches (corpus defect)"
        )
    event_child = matches[0].child_map().get("event")
    if event_child is not None and event_child.ref_docs:
        return event_child.ref_docs[0]
    return matches[0].doc_id


def validate_batch(
    instances: Sequence[Any] | Iterable[Any], schema: ResolvedNode
) -> tuple[list[ValidationOutcome], dict[str, int]]:
    """Validate many instances; outcomes keep input order, plus totals."""
    outcomes = [validate(instance, schema) for instance in instances]
    valid = sum(1 for o in outcomes if o.valid)
    return outcomes, {"valid": valid, "invalid": len(outcomes) - valid}
