"""Exception hierarchy shared across the toolkit.

Every error raised on a contract boundary derives from SchemaLensError so
callers (and the CLI) can catch one base type and map it to exit code 2.
The readers of config files and :class:`Record`, the base of the toolkit's
mutable result classes, live here too.
"""

from __future__ import annotations

import json
from pathlib import Path


class SchemaLensError(Exception):
    """Base class for all toolkit errors."""


class IoError(SchemaLensError):
    """A directory or file could not be read."""


class CorpusError(SchemaLensError):
    """The corpus as a whole is unusable (e.g. no schema files found)."""


class GraphTooLarge(CorpusError):
    """A metric graph unfolds to more tree nodes than its DOT text may hold,
    one line each. Metrics still answer: they run on the shared DAG."""

    def __init__(self, collection: str, nodes: int, budget: int):
        super().__init__(
            f"collection {collection!r}: the metric graph unfolds to {nodes} nodes,"
            f" more than the {budget} its DOT text may hold"
        )
        self.collection, self.nodes = collection, nodes


class ResolutionTooLarge(CorpusError):
    """Resolving an entry would expand more documents under non-empty
    reference-cycle stacks than the budget allows. Their number can grow
    exponentially with the density of a reference cycle."""

    def __init__(self, entry: str, budget: int):
        super().__init__(
            f"{entry}: resolution needs more than {budget} expansions of documents"
            f" inside reference cycles, the most one resolve may expand"
        )
        self.entry, self.budget = entry, budget


class ParseError(SchemaLensError):
    """A schema file is malformed. Carries the offending file id."""

    def __init__(self, file_id: str, message: str):
        super().__init__(f"{file_id}: {message}")
        self.file_id = file_id


class UnknownRef(SchemaLensError):
    """A $ref names a file or fragment that does not exist in the corpus."""


class MergeConflict(SchemaLensError):
    """allOf branches disagree on the shape of a shared property."""


class UnknownCollection(SchemaLensError):
    """A named collection (or referenced type) is not present in the graph."""


class TypeAbsent(SchemaLensError):
    """A type-scoped metric was asked about a type the scope does not contain."""


class UnknownCriterionMetric(SchemaLensError):
    """A criterion references a metric name the engine does not implement."""


class SchemaUnresolved(SchemaLensError):
    """validate() was handed something that is not a resolved schema tree."""


class CycleReached(SchemaLensError):
    """Validation reached a cycle stub: the instance goes on into a schema
    that references itself, which the validator does not follow."""

    def __init__(self, instance_path: str, target: str | None):
        super().__init__(instance_path, target)
        self.instance_path, self.target = instance_path, target

    def __str__(self) -> str:
        return f"{self.instance_path or '/'}: validation does not follow the recursive reference to {self.target!r}"


class NoBranch(SchemaLensError):
    """Event dispatch found no oneOf branch for the message's eventName."""


class AmbiguousBranch(SchemaLensError):
    """Event dispatch matched more than one oneOf branch (corpus defect)."""


class UnknownSchema(SchemaLensError):
    """A manifest lookup used a schema-set name that is not registered."""


class UnknownScenario(SchemaLensError):
    """A scenario id outside the bundled 1..14 range was requested."""


class ConfigError(SchemaLensError):
    """A criteria, weights or manifest document lacks a required key, or
    holds one of the wrong JSON type; or a config or instance file is not
    UTF-8, not JSON, or nested too deeply to decode."""


_JSON_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "a number",
    float: "a number", bool: "a boolean", type(None): "null",
}


def read_config(path: str | Path) -> object:
    """The JSON document in the file ``path``: a criteria, weights or
    manifest file, or an instance file. A ConfigError naming the path when
    the file is not UTF-8, not JSON, or nested too deeply to decode."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply for the recursion limit") from None


def require(data: object, key: str, source: object, expected: type = object) -> object:
    """``data[key]``, or a ConfigError naming ``source`` and the key when the
    key is missing or its value is not an ``expected`` (a JSON container or
    string type; the default accepts any value)."""
    if not isinstance(data, dict) or key not in data:
        raise ConfigError(f"{source}: missing required key {key!r}")
    value = data[key]
    if not isinstance(value, expected):
        raise ConfigError(
            f"{source}: key {key!r} must be {_JSON_TYPE_NAMES[expected]}, "
            f"not {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}"
        )
    return value


def optional(data: dict, key: str, source: object, expected: type, default: object) -> object:
    """``require`` for a key that may be absent: ``default`` when it is."""
    return require(data, key, source, expected) if key in data else default


def as_number(value: object, to: type, source: object, key: str) -> object:
    """``to(value)`` for ``to`` in (int, float), or a ConfigError naming
    ``source`` and the key when the value does not convert (a container,
    null, or a non-numeric string)."""
    try:
        return to(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{source}: key {key!r} must be a number, "
            f"not {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}"
        ) from None


class Record:
    """Base of a mutable result class: a subclass names its fields in
    ``__slots__`` and assigns each in ``__init__``. Two instances of one
    class are ``==`` when their fields are, instances are unhashable, and
    ``repr`` shows each field whose name does not start with ``_``."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, name) for name in names] == [getattr(other, name) for name in names]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({shown})"
