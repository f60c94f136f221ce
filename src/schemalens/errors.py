"""Exception hierarchy shared across the toolkit.

Every error raised on a contract boundary derives from SchemaLensError so
callers (and the CLI) can catch one base type and map it to exit code 2.
"""

from __future__ import annotations

from typing import Any


class SchemaLensError(Exception):
    """Base class for all toolkit errors."""


class IoError(SchemaLensError):
    """A directory or file could not be read."""


class CorpusError(SchemaLensError):
    """The corpus as a whole is unusable (e.g. no schema files found)."""


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
    holds one of the wrong JSON type."""


_JSON_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "a number",
    float: "a number", bool: "a boolean", type(None): "null",
}


def require(data: Any, key: str, source: object, expected: type = object) -> Any:
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
