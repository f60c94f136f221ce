"""Native validation of event instances against a resolved schema tree.

The validator evaluates type, required, additionalProperties, enum,
properties, items, every oneOf group (exactly-one-match semantics),
if/then/else, and assertive format checks for ``date-time`` (ISO 8601 /
RFC 3339 profile) and ``ipv4`` (strict dotted quad, no leading zeros). Each
format's field ranges live in its anchored pattern; only a day of 29-31 is
parsed, to check its month's length. allOf never appears here: the loader
merges it during resolution. All violations are collected, not just the
first; identical inputs yield identical violation lists. An instance that
reaches a cycle stub is refused with CycleReached.

Each distinct node's checks are compiled once, lazily, the first time they
run (never by ``resolve``), and cached on the node
(``ResolvedNode.checks``): a tuple of closures holding only the checks its
keywords need, with the type test chosen at compile time; a typed object
tests its type inside its object check. A check that descends calls the
child's checks directly, so an instance nesting level costs one Python
frame. Since resolved nodes are shared, compilation costs once per distinct
node, not per instance.

A parent's object check tests a leaf member inline, without a call, when
the leaf's checks are a string, integer or number type test, a string-only
enum or a known format (see ``_inline_test``); array elements always run
their ``items`` schema's checks. The inline test can only accept: a value
it does not accept runs the leaf's compiled checks, which report every
violation, so a leaf is compiled only when such a value reaches it. A cold
validation of the 19 bundled LEI scenarios compiles 50 of the envelope's
309 nodes, against 166 when every leaf was compiled.

Checks whose violations nobody reads -- oneOf branches, if-conditions and
``dispatch_event_schema``'s tests -- run the same checks in quiet mode: they
get the sink None, and a failing check raises at once, before it builds a
Violation or formats a message. A quiet check builds no instance path
either: it passes down the path it was given, and a CycleReached raised
below gets each property step or ``/<i>`` prefixed on its way out. A caller
that wants a branch's violations runs that branch again with a list sink.
This module alone decides how a oneOf group selects a branch. A group is
discriminated (see ``_discriminator``) when every branch declares one tag
property with a string-only enum and no string is admitted by two branches;
a tag that every branch also requires is preferred. For an object instance
that carries the tag, only the branch a string tag selects is evaluated,
since every other branch fails on the tag's ``enum`` (and a non-string tag
fails them all); when the tag is absent, every branch is evaluated, unless
every branch requires it, in which case all fail. Non-object instances and
other groups evaluate every branch. Neither shortcut changes the top-level
violation list, which stays complete. ``dispatch_event_schema`` picks a
message's event branch with the same compiled checks.

A JSON object is a ``dict``, a subclass included, as in jsonschema's type
checker: another ``Mapping`` (a ``MappingProxyType``, say) is not one, so it
fails ``type: object`` and the object keywords pass over it.

Only ``(instance_path, keyword)`` pairs are contract-bearing; message text is
informational.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from . import loader
from .errors import AmbiguousBranch, CycleReached, NoBranch, Record, SchemaUnresolved
from .loader import ResolvedNode, json_equal

_DATE_TIME_RE = re.compile(
    r"([0-9]{4})-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])[Tt]"
    r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?"
    r"(?:[Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])$"
)
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_IPV4_RE = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}")
_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _days_in_month(year: int, month: int) -> int:
    """Days in ``month`` (1-12) of a proleptic Gregorian ``year``."""
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def is_date_time(value: str) -> bool:
    """RFC 3339 date-time: full date, 'T', full time, 'Z' or an offset.
    The pattern holds every field's range; only a day of 29-31 is checked
    against its month's length."""
    match = _DATE_TIME_RE.match(value)
    if match is None:
        return False
    day = match[3]
    return day < "29" or int(day) <= _days_in_month(int(match[1]), int(match[2]))


def is_ipv4(value: str) -> bool:
    """Dotted quad of decimal octets 0-255 with no leading zero. fullmatch,
    since ``$`` would also match before a final newline, which ipaddress
    refuses."""
    return _IPV4_RE.fullmatch(value) is not None


_FORMAT_CHECKS = {"date-time": is_date_time, "ipv4": is_ipv4}


def _is_object(value: object) -> bool:
    return isinstance(value, dict)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: object) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


_TYPE_TESTS: dict[str, Callable[[object], bool]] = {
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": _is_integer,
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "object": _is_object,
    "array": lambda value: isinstance(value, list),
}


class Violation(namedtuple("Violation", "instance_path schema_path keyword message")):
    __slots__ = ()


class ValidationOutcome(Record):
    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: list[Violation] | None = None):
        self.valid = valid
        self.violations = [] if violations is None else violations


class _Invalid(Exception):
    """Raised by a quiet check (one given no sink) at its first failure."""


# One check: (value, instance path, violation sink) -> None. A quiet check
# gets the sink None and raises _Invalid where it would append a violation.
Check = Callable[[object, str, "list[Violation] | None"], None]


def compile_checks(node: ResolvedNode) -> tuple[Check, ...]:
    """The checks ``node`` needs, in the order they run: type, enum, format,
    the object keywords, items, each oneOf group, each if/then/else. A node
    typed ``object`` with no enum or format gets one check for its type and
    object keywords. ``ResolvedNode.checks`` caches the result on the node,
    so each distinct node is compiled once, the first time its checks run. A
    check that descends runs its child's checks itself, so an instance level
    costs one frame; a leaf child that the parent's inline test accepts (see
    ``_inline_test``) costs none, and its checks run, and are compiled, only
    for a value that test does not accept."""
    if node.kind == loader.CYCLE:
        target = node.cycle_target

        def cycle(value: object, ipath: str, out) -> None:
            raise CycleReached(ipath, target)

        return (cycle,)
    spath = f"{node.doc_id}#{node.path}"
    checks = []
    enum = node.kind == loader.ENUM or node.enum_values
    known_format = node.format_tag in _FORMAT_CHECKS
    object_keywords = node.required or node.children or not node.additional_allowed
    # A typed object whose type test would run just before its object
    # keywords tests its type in the object check: one call, not two.
    typed = object_keywords and node.type_tag == "object" and not enum and not known_format
    if node.type_tag in _TYPE_TESTS and not typed:
        checks.append(_type_check(node.type_tag, spath))
    if enum:
        checks.append(_enum_check(node.enum_values, spath))
    if known_format:
        checks.append(_format_check(node.format_tag, spath))
    if object_keywords:
        checks.append(_object_check(node, spath, typed))
    if node.item is not None:
        checks.append(_items_check(node.item))
    for group in node.one_of_groups:
        checks.append(_one_of_check(group, spath))
    for condition, then, otherwise in node.conditionals:
        checks.append(_conditional_check(condition, then, otherwise))
    return tuple(checks)


def _type_check(tag: str, spath: str) -> Check:
    expected = f"expected {tag}, got "

    def fail(value: object, ipath: str, out) -> None:
        if out is None:
            raise _Invalid
        out.append(Violation(ipath, spath, "type", expected + type(value).__name__))

    # The two commonest tags test inline, saving a call per check.
    if tag == "string":
        def check(value: object, ipath: str, out) -> None:
            if not isinstance(value, str):
                fail(value, ipath, out)
    elif tag == "object":
        def check(value: object, ipath: str, out) -> None:
            if not isinstance(value, dict):
                fail(value, ipath, out)
    else:
        test = _TYPE_TESTS[tag]

        def check(value: object, ipath: str, out) -> None:
            if not test(value):
                fail(value, ipath, out)
    return check


def _enum_check(values: tuple[object, ...], spath: str) -> Check:
    if values and all(type(v) is str for v in values):
        # json_equal holds between a string and only an equal string.
        strings = frozenset(values)

        def check(value: object, ipath: str, out) -> None:
            if not isinstance(value, str) or value not in strings:
                if out is None:
                    raise _Invalid
                out.append(Violation(ipath, spath, "enum", f"{value!r} is not one of the allowed values"))
        return check

    def check(value: object, ipath: str, out) -> None:
        if not any(json_equal(value, allowed) for allowed in values):
            if out is None:
                raise _Invalid
            out.append(Violation(ipath, spath, "enum", f"{value!r} is not one of the allowed values"))
    return check


def _format_check(tag: str, spath: str) -> Check:
    test = _FORMAT_CHECKS[tag]

    def check(value: object, ipath: str, out) -> None:
        if isinstance(value, str) and not test(value):
            if out is None:
                raise _Invalid
            out.append(Violation(ipath, spath, "format", f"{value!r} is not a valid {tag}"))
    return check


_INLINE_TYPES = {"string": (str,), "integer": (int,), "number": (int, float)}


def _inline_test(node: ResolvedNode) -> tuple[tuple[type, ...], Callable[[object], bool] | None]:
    """``(types, test)`` such that a value whose exact type is in ``types``
    and that passes ``test`` (when not None) passes every check of ``node``.
    Only a leaf whose checks are a string, integer or number type test, a
    string-only enum or a known format has one; any other node gets
    ``((), None)``, which accepts nothing. The test can only accept: a value
    it does not accept runs ``node.checks``, which report as they always do."""
    if (node.kind == loader.CYCLE or node.required or node.children or not node.additional_allowed
            or node.item is not None or node.one_of_groups or node.conditionals):
        return (), None
    values, tag = node.enum_values, node.format_tag
    if node.kind == loader.ENUM or values:
        if node.type_tag in (None, "string") and tag is None and values and all(type(v) is str for v in values):
            return (str,), frozenset(values).__contains__
    elif tag is not None:
        if node.type_tag in (None, "string") and tag in _FORMAT_CHECKS:
            return (str,), _FORMAT_CHECKS[tag]
    elif node.type_tag in _INLINE_TYPES:
        return _INLINE_TYPES[node.type_tag], None
    return (), None


def _object_check(node: ResolvedNode, spath: str, typed: bool) -> Check:
    """The object keywords; with ``typed``, the ``type: object`` test too,
    whose failure ``_type_check`` reports. A leaf member that its inline
    test (see ``_inline_test``) accepts costs no call."""
    required = node.required
    children = tuple((name, f"/{name}", child, *_inline_test(child)) for name, child in node.children)
    declared = None if node.additional_allowed else frozenset(name for name, _ in node.children)
    type_check = _type_check("object", spath) if typed else None

    def check(value: object, ipath: str, out) -> None:
        if not isinstance(value, dict):
            if type_check is not None:
                type_check(value, ipath, out)
            return
        for name in required:
            if name not in value:
                if out is None:
                    raise _Invalid
                out.append(Violation(ipath, spath, "required", f"missing required property {name!r}"))
        for name, step, child, types, test in children:
            if name in value:
                member = value[name]
                if type(member) in types and (test is None or test(member)):
                    continue
                # A quiet check builds no path: a CycleReached gets its step
                # on the way out.
                path = ipath if out is None else ipath + step
                try:
                    for child_check in child.checks:
                        child_check(member, path, out)
                except CycleReached as exc:
                    if out is None:
                        exc.instance_path = step + exc.instance_path
                    raise
        if declared is not None and not declared.issuperset(value):
            if out is None:
                raise _Invalid
            for key in value:
                if key not in declared:
                    out.append(
                        Violation(f"{ipath}/{key}", spath, "additionalProperties",
                                  f"property {key!r} is not allowed")
                    )
    return check


def _items_check(item: ResolvedNode) -> Check:
    def check(value: object, ipath: str, out) -> None:
        if isinstance(value, list):
            item_checks = item.checks
            for i, element in enumerate(value):
                path = ipath if out is None else f"{ipath}/{i}"
                try:
                    for item_check in item_checks:
                        item_check(element, path, out)
                except CycleReached as exc:
                    if out is None:
                        exc.instance_path = f"/{i}{exc.instance_path}"
                    raise
    return check


def _tag_table(group: tuple[ResolvedNode, ...], name: str) -> dict[str, ResolvedNode] | None:
    """tag -> branch when every branch declares ``name`` as a non-cycle child
    whose enum holds only strings, no string admitted by two branches;
    otherwise None."""
    table: dict[str, ResolvedNode] = {}
    for branch in group:
        child = branch.child_map().get(name)
        if (
            child is None
            or child.kind == loader.CYCLE
            or not child.enum_values
            or not all(isinstance(v, str) for v in child.enum_values)
            or not table.keys().isdisjoint(child.enum_values)
        ):
            return None
        table.update(dict.fromkeys(child.enum_values, branch))
    return table


def _discriminator(
    group: tuple[ResolvedNode, ...]
) -> tuple[str, dict[str, ResolvedNode], bool] | None:
    """``(name, tag -> branch, every branch requires name)`` for the group's
    tag: the first name in the first branch's ``required`` that every branch
    requires and that has a tag table (see ``_tag_table``), else the first
    name the first branch declares that has one; None when no name
    qualifies."""
    first = group[0]
    required = [name for name in first.required if all(name in branch.required for branch in group)]
    for name in (*required, *(name for name, _ in first.children)):
        table = _tag_table(group, name)
        if table is not None:
            return name, table, name in required
    return None


def _one_of_check(group: tuple[ResolvedNode, ...], spath: str) -> Check:
    name, table, required = _discriminator(group) or (None, None, False)
    alternatives = f" of {len(group)} alternatives, expected exactly 1"

    def check(value: object, ipath: str, out) -> None:
        if table is not None and _is_object(value) and (required or name in value):
            # Every branch lists the strings it admits for the tag, so a
            # present non-string tag fails them all, and a string tag all but
            # the branch it selects; an absent tag fails them all when every
            # branch requires it.
            tag = value.get(name)
            branch = table.get(tag) if isinstance(tag, str) else None
            matched = 1 if branch is not None and _quiet_valid(value, branch, ipath) else 0
        else:
            matched = sum(1 for branch in group if _quiet_valid(value, branch, ipath))
        if matched != 1:
            if out is None:
                raise _Invalid
            out.append(Violation(ipath, spath, "oneOf", f"matched {matched}{alternatives}"))
    return check


def _conditional_check(
    condition: ResolvedNode, then: ResolvedNode | None, otherwise: ResolvedNode | None
) -> Check:
    def check(value: object, ipath: str, out) -> None:
        arm = then if _quiet_valid(value, condition, ipath) else otherwise
        if arm is not None:
            for arm_check in arm.checks:
                arm_check(value, ipath, out)
    return check


def _quiet_valid(value: object, node: ResolvedNode, ipath: str = "") -> bool:
    """Whether ``value`` passes ``node``'s checks, recording no violation.
    The checks run from instance path "", so a CycleReached they raise gets
    ``ipath``, the value's own path, prefixed here."""
    try:
        for check in node.checks:
            check(value, "", None)
    except _Invalid:
        return False
    except CycleReached as exc:
        exc.instance_path = ipath + exc.instance_path
        raise
    return True


def validate(instance: object, schema: ResolvedNode) -> ValidationOutcome:
    """Validate one instance document against a resolved schema tree."""
    if not isinstance(schema, ResolvedNode):
        raise SchemaUnresolved("validate() needs a resolved schema tree (see loader.resolve)")
    violations: list[Violation] = []
    for check in schema.checks:
        check(instance, "", violations)
    return ValidationOutcome(valid=not violations, violations=violations)


def dispatch_event_schema(schema: ResolvedNode, message: dict[str, object]) -> str:
    """Pick the event sub-schema a message dispatches to.

    Uses the message node's conditional (itemType gates which event names are
    admissible) and the oneOf branches of the message node: the matches are
    the branches whose non-cycle eventName declaration the message's
    eventName passes, tested with the validator's compiled checks, as is
    the gate. Returns the event schema's document id. Raises NoBranch when
    nothing matches and AmbiguousBranch when more than one branch does.

    ``message`` is a ``dict``: the gate's checks, like every compiled
    check, take another ``Mapping`` for a non-object and do not read its
    members, so pass ``dict(message)`` for one.
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
            if gate is not None and gate.enum_values and not _quiet_valid(event_name, gate):
                raise NoBranch(f"eventName {event_name!r} is not admissible for this item type")

    matches = [
        branch
        for group in message_node.one_of_groups
        for branch in group
        if (declared := branch.child_map().get("eventName")) is not None
        and declared.kind != loader.CYCLE
        and _quiet_valid(event_name, declared)
    ]
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
    instances: Sequence[object] | Iterable[object], schema: ResolvedNode
) -> tuple[list[ValidationOutcome], dict[str, int]]:
    """Validate many instances; outcomes keep input order, plus totals."""
    outcomes = [validate(instance, schema) for instance in instances]
    valid = sum(1 for o in outcomes if o.valid)
    return outcomes, {"valid": valid, "invalid": len(outcomes) - valid}
