"""Bundled corpora, case-study scenarios, and the event-capture capability
matrix.

The data tree ships with the package::

    data/manifest.json          schema sets, event maps, scenario index
    data/corpora/{lei,icar,isc} schema corpora (self-contained directories)
    data/scenarios/scenario-NN  event instance documents
    data/configs/               default criteria and weight cases

A manifest with the same layout can be pointed at on disk instead (the CLI's
--corpus flag / SCHEMALENS_CORPUS variable).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .errors import (
    ConfigError, CorpusError, Record, UnknownSchema, UnknownScenario, as_number, optional, read_config, require,
)
from .graph import MetricGraph, build_graph, effective_children
from .loader import CorpusHandle, load_corpus, resolve

FULL = "Full"
PARTIAL = "Partial"
UNSUPPORTED = "Unsupported"

CAPABILITY_GLYPHS = {FULL: "✓", PARTIAL: "∼", UNSUPPORTED: "x"}

DEFAULT_ENVELOPE_FIELDS = ("source", "owner")


def bundled_data_dir() -> Path:
    return Path(__file__).parent / "data"


def default_criteria_path() -> Path:
    return bundled_data_dir() / "configs" / "criteria.json"


def default_weights_path() -> Path:
    return bundled_data_dir() / "configs" / "weights.json"


class SchemaSet(Record):
    """One named corpus in the manifest plus its event map."""

    __slots__ = ("name", "title", "corpus_dir", "metric_entry", "envelope", "events", "_corpus")

    def __init__(
        self,
        name: str,
        title: str,
        corpus_dir: Path,
        metric_entry: str,
        envelope: str | None,
        events: dict[str, str],
        _corpus: CorpusHandle | None = None,
    ):
        self.name = name
        self.title = title
        self.corpus_dir = corpus_dir
        self.metric_entry = metric_entry
        self.envelope = envelope
        self.events = events
        self._corpus = _corpus

    def corpus(self) -> CorpusHandle:
        if self._corpus is None:
            self._corpus = load_corpus(self.corpus_dir)
        return self._corpus


class CapabilityVerdict(Record):
    __slots__ = ("schema", "event", "level", "missing")

    def __init__(self, schema: str, event: str, level: str, missing: list[str] | None = None):
        self.schema = schema
        self.event = event
        self.level = level
        self.missing = [] if missing is None else missing

    @property
    def glyph(self) -> str:
        return CAPABILITY_GLYPHS[self.level]


class CorpusManifest(Record):
    __slots__ = ("root", "collection", "schema_sets", "case_study_events", "scenarios")

    def __init__(
        self,
        root: Path,
        collection: str,
        schema_sets: dict[str, SchemaSet],
        case_study_events: list[tuple[str, str]],
        scenarios: dict[int, list[Path]],
    ):
        self.root = root
        self.collection = collection
        self.schema_sets = schema_sets
        self.case_study_events = case_study_events
        self.scenarios = scenarios

    def schema_names(self) -> list[str]:
        return list(self.schema_sets)

    def schema_set(self, name: str) -> SchemaSet:
        try:
            return self.schema_sets[name]
        except KeyError:
            raise UnknownSchema(f"no schema set named {name!r} in the manifest") from None

    def graph(self, name: str, collection: str | None = None) -> MetricGraph:
        schema_set = self.schema_set(name)
        entry = resolve(schema_set.corpus(), schema_set.metric_entry)
        return build_graph({collection or self.collection: entry})

    def graphs(self, names: Sequence[str] | None = None, collection: str | None = None) -> dict[str, MetricGraph]:
        return {
            self.schema_set(name).title: self.graph(name, collection)
            for name in (names or self.schema_names())
        }

    def list_events(self, name: str) -> list[str]:
        return list(self.schema_set(name).events)

    def scenario_files(self, scenario_id: int) -> list[Path]:
        if scenario_id not in self.scenarios:
            raise UnknownScenario(f"scenario id must be 1..{len(self.scenarios)}, got {scenario_id}")
        return self.scenarios[scenario_id]

    def scenario_instances(self, scenario_id: int) -> list[dict[str, object]]:
        return [read_config(path) for path in self.scenario_files(scenario_id)]

    def all_scenario_files(self) -> list[Path]:
        return [path for sid in sorted(self.scenarios) for path in self.scenarios[sid]]


def load_manifest(root: str | Path | None = None) -> CorpusManifest:
    root_dir = Path(root) if root else bundled_data_dir()
    manifest_path = root_dir / "manifest.json"
    if not manifest_path.is_file():
        raise CorpusError(f"no manifest.json under {root_dir}")
    data = read_config(manifest_path)

    schema_sets = {}
    schemas = require(data, "schemas", manifest_path, dict)
    for name in schemas:
        entry = require(schemas, name, manifest_path, dict)
        title = optional(entry, "title", manifest_path, str, name.upper())
        if any(other.title == title for other in schema_sets.values()):
            raise ConfigError(f"{manifest_path}: key 'title' repeats schema-set title {title!r}")
        corpus_dir = root_dir / require(entry, "corpus", manifest_path, str)
        metric_entry = require(entry, "metric_entry", manifest_path, str)
        envelope = entry.get("envelope")  # null: no envelope
        if envelope is not None:
            require(entry, "envelope", manifest_path, str)
        events = require(entry, "events", manifest_path, dict)
        for event in events:
            require(events, event, manifest_path, str)
        schema_sets[name] = SchemaSet(name, title, corpus_dir, metric_entry, envelope, dict(events))
    scenarios = {}
    scenario_files = optional(data, "scenarios", manifest_path, dict, {})
    for sid in scenario_files:
        files = require(scenario_files, sid, manifest_path, list)
        if not all(isinstance(rel, str) for rel in files):
            raise ConfigError(f"{manifest_path}: key {sid!r} must be an array of strings")
        scenarios[as_number(sid, int, manifest_path, sid)] = [root_dir / rel for rel in files]
    case_study = [
        (require(row, "label", manifest_path, str), require(row, "event", manifest_path, str))
        for row in optional(data, "case_study_events", manifest_path, list, [])
    ]
    return CorpusManifest(
        root=root_dir,
        collection=optional(data, "collection", manifest_path, str, "weight"),
        schema_sets=schema_sets,
        case_study_events=case_study,
        scenarios=scenarios,
    )


def capability_matrix(manifest: CorpusManifest) -> list[CapabilityVerdict]:
    """Per (schema, case-study event) verdicts: Unsupported when the event
    schema is absent, Partial when present but a required envelope field has
    no home, Full otherwise. Envelope fields are matched by property name at
    the top level of the resolved envelope schema; each distinct (schema,
    envelope entry) is resolved once."""
    names = manifest.schema_names()
    members: dict[tuple[str, str], set[str]] = {}
    verdicts: list[CapabilityVerdict] = []
    for label, event in manifest.case_study_events:
        for name in names:
            schema_set = manifest.schema_set(name)
            if event not in schema_set.events:
                verdicts.append(CapabilityVerdict(schema=name, event=label, level=UNSUPPORTED))
                continue
            key = (name, schema_set.envelope or schema_set.events[event])
            if key not in members:
                envelope = resolve(schema_set.corpus(), key[1])
                members[key] = {member for member, _ in effective_children(envelope)}
            missing = [f for f in DEFAULT_ENVELOPE_FIELDS if f not in members[key]]
            verdicts.append(
                CapabilityVerdict(
                    schema=name,
                    event=label,
                    level=PARTIAL if missing else FULL,
                    missing=missing,
                )
            )
    return verdicts


def capability_grid(
    manifest: CorpusManifest, verdicts: Sequence[CapabilityVerdict]
) -> tuple[list[str], list[list[str]]]:
    names = manifest.schema_names()
    titles = [manifest.schema_set(n).title for n in names]
    header = ["event", *titles]
    by_key = {(v.schema, v.event): v for v in verdicts}
    rows = []
    for label, _ in manifest.case_study_events:
        rows.append([label, *(by_key[(n, label)].glyph for n in names)])
    return header, rows


def capability_records(verdicts: Sequence[CapabilityVerdict]) -> list[dict[str, object]]:
    return [
        {"schema": v.schema, "event": v.event, "level": v.level, "missing": v.missing}
        for v in verdicts
    ]
