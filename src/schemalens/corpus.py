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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .errors import CorpusError, UnknownSchema, UnknownScenario, require
from .graph import MetricGraph, build_graph, effective_children
from .loader import CorpusHandle, ResolvedNode, load_corpus, resolve

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


@dataclass
class SchemaSet:
    """One named corpus in the manifest plus its event map."""

    name: str
    title: str
    corpus_dir: Path
    metric_entry: str
    envelope: str | None
    events: dict[str, str]
    _corpus: CorpusHandle | None = field(default=None, repr=False)

    def corpus(self) -> CorpusHandle:
        if self._corpus is None:
            self._corpus = load_corpus(self.corpus_dir)
        return self._corpus

    def resolved_metric_entry(self) -> ResolvedNode:
        return resolve(self.corpus(), self.metric_entry)


@dataclass
class CapabilityVerdict:
    schema: str
    event: str
    level: str
    missing: list[str] = field(default_factory=list)

    @property
    def glyph(self) -> str:
        return CAPABILITY_GLYPHS[self.level]


@dataclass
class CorpusManifest:
    root: Path
    collection: str
    schema_sets: dict[str, SchemaSet]
    case_study_events: list[tuple[str, str]]
    scenarios: dict[int, list[Path]]

    def schema_names(self) -> list[str]:
        return list(self.schema_sets)

    def schema_set(self, name: str) -> SchemaSet:
        try:
            return self.schema_sets[name]
        except KeyError:
            raise UnknownSchema(f"no schema set named {name!r} in the manifest") from None

    def graph(self, name: str, collection: str | None = None) -> MetricGraph:
        schema_set = self.schema_set(name)
        entry = schema_set.resolved_metric_entry()
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

    def scenario_instances(self, scenario_id: int) -> list[dict[str, Any]]:
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in self.scenario_files(scenario_id)
        ]

    def all_scenario_files(self) -> list[Path]:
        return [path for sid in sorted(self.scenarios) for path in self.scenarios[sid]]


def load_manifest(root: str | Path | None = None) -> CorpusManifest:
    root_dir = Path(root) if root else bundled_data_dir()
    manifest_path = root_dir / "manifest.json"
    if not manifest_path.is_file():
        raise CorpusError(f"no manifest.json under {root_dir}")
    data = json.loads(manifest_path.read_text(encoding="utf-8"))

    schema_sets = {}
    schemas = require(data, "schemas", manifest_path, dict)
    for name in schemas:
        entry = require(schemas, name, manifest_path, dict)
        schema_sets[name] = SchemaSet(
            name=name,
            title=entry.get("title", name.upper()),
            corpus_dir=root_dir / require(entry, "corpus", manifest_path, str),
            metric_entry=require(entry, "metric_entry", manifest_path, str),
            envelope=entry.get("envelope"),
            events=dict(require(entry, "events", manifest_path, dict)),
        )
    scenarios = {
        int(sid): [root_dir / rel for rel in files]
        for sid, files in data.get("scenarios", {}).items()
    }
    case_study = [(row["label"], row["event"]) for row in data.get("case_study_events", [])]
    return CorpusManifest(
        root=root_dir,
        collection=data.get("collection", "weight"),
        schema_sets=schema_sets,
        case_study_events=case_study,
        scenarios=scenarios,
    )


def capability_matrix(
    manifest: CorpusManifest,
    required_envelope_fields: Sequence[str] = DEFAULT_ENVELOPE_FIELDS,
    schemas: Sequence[str] | None = None,
) -> list[CapabilityVerdict]:
    """Per (schema, case-study event) verdicts: Unsupported when the event
    schema is absent, Partial when present but a required envelope field has
    no home, Full otherwise. Envelope fields are matched by property name at
    the top level of the resolved envelope schema; each distinct (schema,
    envelope entry) is resolved once."""
    names = list(schemas or manifest.schema_names())
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
            missing = [f for f in required_envelope_fields if f not in members[key]]
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


def capability_records(verdicts: Sequence[CapabilityVerdict]) -> list[dict[str, Any]]:
    return [
        {"schema": v.schema, "event": v.event, "level": v.level, "missing": v.missing}
        for v in verdicts
    ]
