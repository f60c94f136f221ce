"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and on the bundled data files read
as plain JSON; nothing imports schemalens. The program under test receives
only what these functions produce.

* ``variant_stream`` -- event instances for ``validate-stream``: the bundled
  scenario instances plus mutated variants (0-2 mutations each, about a
  third of the stream valid).
* ``diamond`` / ``chain`` / ``wide_one_of`` -- synthetic corpora for
  ``scale-refs``. Each returns the files to write plus the closed-form values
  the metrics must produce on them, so the reference never comes from the
  code under test.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# --------------------------------------------------------------------------
# validate-stream: mutated event instances

BAD_TIMESTAMPS = [
    "not-a-timestamp",
    "17/01/2021 10:00",
    "2021-13-01T00:00:00Z",
    "2021-02-30T10:00:00Z",
    "2021-01-17T25:00:00Z",
    "2021-01-17T10:61:00Z",
    "2021-01-17T10:00:00",
]

BAD_IPS = ["999.0.0.1", "10.0.0", "01.2.3.4", "ip-address", "10.0.0.256", ""]

LEI_EVENT_NAMES = [
    "Weight", "Score", "Arrival", "Departure", "Death", "Registration", "Retag",
    "Treatment program", "Treatment", "Diagnosis", "Daily Milking Averages",
    "Feed Intake", "Milking Dry Off", "Milking Visit", "Abortion", "Heat",
    "Insemination", "Parturition", "Pregnancy Check", "Semen Straw",
    "Status Observed", "Lactation Status Observed", "Birth", "Synchronisation",
    "Weaning", "Audit", "Castrate", "Pulse check", "Respiration",
    "Find age by dentition", "Hoof trimming", "Horn tipping", "Dehorning", "Location",
]


def scenario_instances(data_dir: Path) -> list[dict]:
    """The bundled scenario instances, in manifest order."""
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    files = [rel for sid in sorted(manifest["scenarios"], key=int) for rel in manifest["scenarios"][sid]]
    return [json.loads((data_dir / rel).read_text(encoding="utf-8")) for rel in files]


def _leaf_paths(value, prefix=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaf_paths(sub, prefix + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _leaf_paths(sub, prefix + (i,))
    else:
        yield prefix


def _mutate(rng: random.Random, doc: dict, bodies: list[dict]) -> None:
    """Apply one mutation drawn from a catalogue of envelope, format, dispatch
    and structural corruptions (some rolls are no-ops on some documents)."""
    message = doc.get("message") if isinstance(doc.get("message"), dict) else None
    roll = rng.randrange(12)
    if roll == 0:
        doc.pop(rng.choice(["source", "owner", "eventDateTime", "message"]), None)
    elif roll == 1:
        doc[f"extra{rng.randrange(100)}"] = rng.choice(["x", 1, None, True])
    elif roll == 2:
        doc["eventDateTime"] = rng.choice(BAD_TIMESTAMPS)
    elif roll == 3 and isinstance(doc.get("source"), dict):
        doc["source"]["ip_address"] = rng.choice(BAD_IPS)
    elif roll == 4 and message is not None:
        message["eventName"] = rng.choice(LEI_EVENT_NAMES)
    elif roll == 5 and message is not None:
        message["eventName"] = rng.choice(["", "Nonexistent", "weight", 7])
    elif roll == 6 and message is not None:
        message["event"] = copy.deepcopy(rng.choice(bodies))
    elif roll == 7 and message is not None:
        message.pop(rng.choice(["eventName", "item", "event", "session"]), None)
    elif roll == 8 and message is not None:
        item = message.get("item")
        if isinstance(item, dict):
            item["itemType"] = rng.choice(["Crops", "Machinery", "Robots", 3])
    elif roll == 9:
        session = doc.get("message", {}).get("session")
        if isinstance(session, dict):
            session["totalInSession"] = rng.choice([3.5, 3.0, True, "many", -2])
    elif roll == 10:
        paths = list(_leaf_paths(doc))
        if paths:
            path = rng.choice(paths)
            target = doc
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = rng.choice([None, True, 3.5, "x", [], {}])
    elif roll == 11:
        animal = doc.get("message", {}).get("item", {}).get("animal")
        if isinstance(animal, dict):
            animal.pop("identifier", None)


def variant_stream(seed: int, data_dir: Path, size: int) -> list[dict]:
    """``size`` documents: every bundled scenario instance once, then copies
    of the scenario instances in turn with 0, 1 and 2 seeded mutations in
    turn, shuffled. The mix of bases and mutation counts is the same for
    every seed (19 and 3 are coprime, so all 57 pairings recur); the seed
    picks the mutations and the order."""
    rng = random.Random(seed)
    bases = scenario_instances(data_dir)
    bodies = [base["message"]["event"] for base in bases]
    docs = [copy.deepcopy(base) for base in bases]
    for j in range(size - len(docs)):
        doc = copy.deepcopy(bases[j % len(bases)])
        for _ in range(j % 3):
            _mutate(rng, doc, bodies)
        docs.append(doc)
    rng.shuffle(docs)
    return docs


# --------------------------------------------------------------------------
# scale-refs: synthetic corpora with closed-form metric values

COLLECTION = "scale"

# docWidth coefficients the metric uses by default (README: a,b,c,d = 1,2,1,3):
# atomic attributes weigh 1, embedded documents 2.
CF_ATOM = 1
CF_DOC = 2

# Type (file) names and property names come from disjoint vocabularies so a
# property can never be mistaken for a referenced type.
_TYPE_WORDS = ["Herd", "Lot", "Pen", "Paddock", "Mob", "Yard", "Shed", "Batch", "Group", "Run"]
_PROP_WORDS = ["left", "right", "upper", "lower", "inner", "outer", "first", "second", "north", "south"]
_ATOMIC_SCHEMAS = [
    {"type": "string"},
    {"type": "integer"},
    {"type": "number"},
    {"type": "boolean"},
    {"type": "string", "format": "date-time"},
    {"enum": ["on", "off", "unknown"]},
]


@dataclass
class ScaleInput:
    """One synthetic corpus: its files, entry document, and the metric
    queries to run on it with their closed-form expected values."""

    family: str
    size: int
    files: dict[str, Any]
    entry: str
    graph_nodes: int
    # (metric function name, positional args after the graph, expected value)
    queries: list[tuple[str, tuple, int]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.family}-{self.size}"


def _atomic(rng: random.Random) -> dict:
    return copy.deepcopy(rng.choice(_ATOMIC_SCHEMAS))


def diamond(rng: random.Random, depth: int, leaf_props: int = 2) -> ScaleInput:
    """Documents t_0..t_depth in per-level directories; t_k (k < depth) refs
    t_{k+1} twice and has one atomic property, t_depth has ``leaf_props``.

    Closed forms: colDepth = depth; t_k occurs 2^k times, so docCopies and
    refLoad of t_k are 2^k and its maxDocDepth is k; docWidth of the
    collection is 1 atomic + 2 documents; the graph has
    3 + (2^(depth+1) - 4) + 2^depth * (1 + leaf_props) nodes.
    """
    word = rng.choice(_TYPE_WORDS)
    names = [f"{word}{k}" for k in range(depth + 1)]
    files = {}
    for k in range(depth):
        left, right = rng.sample(_PROP_WORDS, 2)
        target = f"../level{k + 1}/{names[k + 1]}.json"
        files[f"level{k}/{names[k]}.json"] = {
            "type": "object",
            "properties": {
                f"{left}Part": {"$ref": target},
                f"{right}Part": {"$ref": target},
                "tag": _atomic(rng),
            },
        }
    files[f"level{depth}/{names[depth]}.json"] = {
        "type": "object",
        "properties": {f"value{i}": _atomic(rng) for i in range(leaf_props)},
    }
    k = rng.randint(1, depth)
    nodes = 3 + (2 ** (depth + 1) - 4) + 2 ** depth * (1 + leaf_props)
    return ScaleInput(
        family="diamond",
        size=depth,
        files=files,
        entry=f"level0/{names[0]}.json",
        graph_nodes=nodes,
        queries=[
            ("col_depth", (COLLECTION,), depth),
            ("doc_copies_in_col", (names[k], COLLECTION), 2 ** k),
            ("ref_load", (names[k],), 2 ** k),
            ("doc_width", (COLLECTION, COLLECTION), CF_ATOM * 1 + CF_DOC * 2),
            ("max_doc_depth", (names[k],), k),
        ],
    )


def chain(rng: random.Random, length: int, leaf_props: int = 1) -> ScaleInput:
    """Documents c_0..c_{length-1}; each refs the next once and has one
    atomic property, the last has ``leaf_props``.

    Closed forms: colDepth = length - 1; each c_k occurs once, so docCopies
    and refLoad are 1 and its maxDocDepth is k; docWidth of the collection
    is 1 atomic + 1 document; the graph has 3 + 2 (length - 2) +
    (1 + leaf_props) nodes.
    """
    word = rng.choice(_TYPE_WORDS)
    prop = rng.choice(_PROP_WORDS)
    names = [f"{word}Link{k}" for k in range(length)]
    files = {}
    for k in range(length - 1):
        files[f"chain/{names[k]}.json"] = {
            "type": "object",
            "properties": {f"{prop}Next": {"$ref": f"{names[k + 1]}.json"}, "tag": _atomic(rng)},
        }
    files[f"chain/{names[-1]}.json"] = {
        "type": "object",
        "properties": {f"value{i}": _atomic(rng) for i in range(leaf_props)},
    }
    k = rng.randint(1, length - 1)
    return ScaleInput(
        family="chain",
        size=length,
        files=files,
        entry=f"chain/{names[0]}.json",
        graph_nodes=3 + 2 * (length - 2) + 1 + leaf_props,
        queries=[
            ("col_depth", (COLLECTION,), length - 1),
            ("doc_copies_in_col", (names[k], COLLECTION), 1),
            ("ref_load", (names[k],), 1),
            ("doc_width", (COLLECTION, COLLECTION), CF_ATOM * 1 + CF_DOC * 1),
            ("max_doc_depth", (names[k],), k),
        ],
    )


def wide_one_of(rng: random.Random, branches: int) -> ScaleInput:
    """An entry whose ``event`` property is a oneOf over ``branches`` branch
    files. Branch i holds a discriminator enum ``kind`` and one property of
    its own that refs a shared atomic type.

    The graph unions branch properties into the ``event`` node (first
    occurrence wins), so: colDepth = 1; the shared type occurs once per
    branch, so its docCopies and refLoad equal ``branches`` and its
    maxDocDepth is 2; docWidth of ``event`` is ``branches`` + 1 atomic
    attributes; the graph has ``branches`` + 5 nodes.
    """
    shared = f"{rng.choice(_TYPE_WORDS)}Code"
    event = f"{rng.choice(_PROP_WORDS)}Event"
    files: dict[str, Any] = {
        f"shared/{shared}.json": _atomic(rng),
        "root.json": {
            "type": "object",
            "required": ["id", event],
            "properties": {
                "id": {"type": "string"},
                event: {"oneOf": [{"$ref": f"branches/b{i}.json"} for i in range(branches)]},
            },
        },
    }
    for i in range(branches):
        files[f"branches/b{i}.json"] = {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": [f"kind{i}"]},
                f"{rng.choice(_PROP_WORDS)}{i}": {"$ref": f"../shared/{shared}.json"},
            },
        }
    return ScaleInput(
        family="wide",
        size=branches,
        files=files,
        entry="root.json",
        graph_nodes=branches + 5,
        queries=[
            ("col_depth", (COLLECTION,), 1),
            ("doc_copies_in_col", (shared, COLLECTION), branches),
            ("ref_load", (shared,), branches),
            ("doc_width", (event, COLLECTION), CF_ATOM * (branches + 1)),
            ("max_doc_depth", (shared,), 2),
        ],
    )


# Sizes and their order are fixed so every seed costs about the same; the
# seed picks names, atomic types, property names and the queried type.
DIAMOND_DEPTHS = (8, 10, 12)
# Below the resolver's recursion limit (about 245 documents today).
CHAIN_LENGTHS = (100, 150, 200)
WIDE_BRANCHES = (200, 600, 1000)


def scale_inputs(seed: int) -> list[ScaleInput]:
    rng = random.Random(seed)
    return (
        [diamond(rng, d) for d in DIAMOND_DEPTHS]
        + [chain(rng, n) for n in CHAIN_LENGTHS]
        + [wide_one_of(rng, k) for k in WIDE_BRANCHES]
    )


def write_corpus(directory: Path, files: dict[str, Any]) -> None:
    for rel, doc in files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
