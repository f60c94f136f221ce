"""The three benchmark workloads and their reference checks.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned. A workload provides

* ``import_program()`` / ``prepare()`` -- the program's own set-up, which
  ``cold_setup.py`` repeats in a fresh interpreter to time it;
* ``reimport_before(i)`` -- whether operation ``i`` of a round starts from a
  fresh import of the program, done outside the timed region;
* ``round()`` -- one round of operations as ``(key, thunk)`` pairs, looked up
  through the program's module attributes when the round is built, so a
  round built while tracing calls the traced bindings;
* ``check(key, output)`` -- the reference check of one output, or an error;
* ``finish()`` -- reference checks that run after the timed loop, returning
  ``{key: error}`` for wrong outputs;
* ``close()`` -- removal of whatever it wrote.

No reference value is produced by schemalens itself: verdicts come from the
jsonschema validator, CLI tables from the values written by hand in the
README and acceptance tests, and scale metrics from closed forms.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import random
import re
import shutil
import sys
from datetime import datetime
from pathlib import Path

import inputs
from cold_setup import lei_envelope


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "schemalens" or n.startswith("schemalens.")]:
        del sys.modules[name]
    re.purge()
    # Module objects sit in reference cycles; free the old copy before the
    # new one is imported, so peak_rss_mb counts one copy of the program.
    gc.collect()


class Workload:
    # What cold_setup.py times: the module it imports, and whether it also
    # resolves the LEI envelope.
    PROGRAM_MODULE = "schemalens"
    COLD_ENVELOPE = False

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.data_dir = root / "src" / "schemalens" / "data"

    def import_program(self) -> None:
        _purge_program()
        self.sl = importlib.import_module("schemalens")

    def prepare(self) -> None:
        pass

    def reimport_before(self, index: int) -> bool:
        return False

    def setup(self) -> None:
        self.import_program()
        self.prepare()

    def finish(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# validate-stream


def _oracle_date_time(value) -> bool:
    # datetime.fromisoformat based: a different route from the program's
    # regex checker. RFC 3339 needs the T separator and an offset.
    if not isinstance(value, str):
        return True
    try:
        parsed = datetime.fromisoformat(value.replace("Z", "+00:00").replace("z", "+00:00"))
    except ValueError:
        return False
    return parsed.tzinfo is not None and "T" in value.upper()


class ValidateStream(Workload):
    """One ``validate`` call per document against the LEI envelope, which is
    resolved once in set-up."""

    POOL = 500
    COLD_ENVELOPE = True

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.docs = inputs.variant_stream(seed, self.data_dir, self.POOL)
        self.verdicts: dict[int, tuple[bool, int]] = {}

    def prepare(self):
        self.envelope = lei_envelope(self.sl)

    def round(self):
        validate = self.sl.validate
        return [(i, functools.partial(validate, doc, self.envelope)) for i, doc in enumerate(self.docs)]

    def check(self, key, outcome):
        verdict = (bool(outcome.valid), len(outcome.violations))
        if outcome.valid == bool(outcome.violations):
            return f"document {key}: valid={outcome.valid} with {len(outcome.violations)} violations"
        first = self.verdicts.setdefault(key, verdict)
        if first != verdict:
            return f"document {key}: verdict {verdict} differs from an earlier {first}"
        return None

    def finish(self):
        try:
            oracle = self._oracle()
        except ImportError as exc:
            return {key: f"no reference validator: {exc}" for key in self.verdicts}
        wrong = {}
        for key, (valid, _) in self.verdicts.items():
            expected = oracle.is_valid(self.docs[key])
            if valid != expected:
                wrong[key] = f"document {key}: valid={valid}, reference says {expected}"
        return wrong

    def _oracle(self):
        import jsonschema
        from referencing import Registry, Resource
        from referencing.jsonschema import DRAFT201909

        manifest = json.loads((self.data_dir / "manifest.json").read_text(encoding="utf-8"))
        lei = manifest["schemas"]["lei"]
        corpus_dir = (self.data_dir / lei["corpus"]).resolve()
        resources = [
            (
                path.as_uri(),
                Resource.from_contents(
                    json.loads(path.read_text(encoding="utf-8")), default_specification=DRAFT201909
                ),
            )
            for path in sorted(corpus_dir.rglob("*.json"))
        ]
        registry = Registry().with_resources(resources).crawl()
        checker = jsonschema.FormatChecker()
        checker.checks("date-time")(_oracle_date_time)
        return jsonschema.Draft201909Validator(
            {"$ref": (corpus_dir / lei["envelope"]).as_uri()}, registry=registry, format_checker=checker
        )


# --------------------------------------------------------------------------
# cli-bundled

# Hand-written reference values (README and tests/test_acceptance.py).
METRIC_TABLE = {
    "Criterion 1": ("colExistence(weight)", "1", "1", "1"),
    "Criterion 2": ("docCopies(source, weight)", "1", "-", "-"),
    "Criterion 3": ("docCopies(session, weight)", "1", "-", "-"),
    "Criterion 4": ("docCopies(owner, weight)", "1", "-", "-"),
    "Criterion 5": ("refLoad(uncefactMassUnitsType)", "1", "1", "1"),
    "Criterion 6": ("docWidth(weight, weight)", "6", "12", "20"),
    "Criterion 7": ("docDepthInCol(eventDateTime, weight)", "1", "1", "1"),
    "Criterion 8": ("docExistence(eventName, weight)", "1", "-", "-"),
}
SCORE_MATRIX = {
    "LEI": (89.58, 87.50, 87.50, 87.50, 87.50),
    "ICAR": (38.54, 86.25, 86.25, 66.25, 66.25),
    "ISC": (38.13, 85.75, 85.75, 65.75, 65.75),
}
CAPABILITY_ROWS = {  # event: (LEI, ICAR, ISC)
    "Departure": ("✓", "∼", "∼"),
    "Arrival": ("✓", "∼", "∼"),
    "Death": ("✓", "∼", "∼"),
    "Status observed": ("✓", "∼", "x"),
    "Weight": ("✓", "∼", "∼"),
    "Audit": ("✓", "x", "x"),
    "Synchronisation": ("✓", "x", "x"),
    "Insemination": ("✓", "∼", "x"),
    "Pregnancy check": ("✓", "∼", "x"),
    "Birth": ("✓", "∼", "x"),
    "Parturition": ("✓", "∼", "x"),
    "Registration": ("✓", "∼", "∼"),
    "Weaning": ("✓", "x", "x"),
    "Treatment": ("✓", "∼", "∼"),
    "Castration": ("✓", "x", "x"),
}
# docWidth of the LEI weight collection (README), recomputed from the DOT
# output with the default coefficients: atomic 1, document 2, arrays 1 and 3.
LEI_WEIGHT_DOC_WIDTH = 6
_WIDTH_BY_CLASS = {"Embedded": 2, "Reference": 2, "atomic": 1, "arrayAtomic": 1, "arrayDocument": 3}


def _table_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [re.split(r"\s{2,}", line.strip()) for line in lines[2:] if line.strip()]


def _check_metrics(out: str):
    rows = {row[0]: tuple(row[1:]) for row in _table_rows(out)}
    return None if rows == METRIC_TABLE else f"metric table differs: {rows}"


def _check_evaluate(out: str):
    rows = {row[0]: [float(v) for v in row[1:]] for row in _table_rows(out)}
    if set(rows) != set(SCORE_MATRIX):
        return f"score matrix rows {sorted(rows)}"
    for schema, expected in SCORE_MATRIX.items():
        if len(rows[schema]) != 5 or any(abs(a - b) > 0.01 for a, b in zip(rows[schema], expected)):
            return f"score row {schema}: {rows[schema]}"
    return None


def _check_capability(out: str):
    header = re.split(r"\s{2,}", out.splitlines()[0].strip())
    rows = {row[0]: dict(zip(header[1:], row[1:])) for row in _table_rows(out)}
    expected = {event: dict(zip(("LEI", "ICAR", "ISC"), glyphs)) for event, glyphs in CAPABILITY_ROWS.items()}
    return None if rows == expected else f"capability rows differ: {rows}"


def _check_graph(out: str):
    labels = dict(re.findall(r'^\s*(n\d+) \[label="([^"]*)"\];$', out, re.M))
    edges = re.findall(r"^\s*(n\d+) -> (n\d+)(?: \[label=\"\d+\"\])?;$", out, re.M)
    if not out.startswith('digraph "LEI" {') or not out.rstrip().endswith("}"):
        return "graph output is not a DOT digraph"
    parents = {}
    for parent, child in edges:
        if child in parents or parent not in labels or child not in labels:
            return f"graph edge {parent} -> {child} breaks the tree shape"
        parents[child] = parent
    roots = set(labels) - set(parents)
    if roots != {"n0"} or labels["n0"] != "Root:root":
        return f"graph roots {sorted(roots)}"
    collections = [c for c, p in parents.items() if p == "n0"]
    if [labels[c] for c in collections] != ["Collection:weight"]:
        return "graph has no single weight collection"
    width = 0
    for child, parent in parents.items():
        if parent == collections[0]:
            kind, _, rest = labels[child].partition(":")
            attr_class = re.search(r"\[(\w+)\]$", rest) if kind == "Attribute" else None
            width += _WIDTH_BY_CLASS[attr_class[1] if attr_class else kind]
    return None if width == LEI_WEIGHT_DOC_WIDTH else f"docWidth(weight) from DOT is {width}"


class CliBundled(Workload):
    """One in-process ``cli.main`` call per operation, stdout captured."""

    PROGRAM_MODULE = "schemalens.cli"

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        # The sessions run on the bundled data, whatever the environment says.
        os.environ.pop("SCHEMALENS_CORPUS", None)
        manifest = json.loads((self.data_dir / "manifest.json").read_text(encoding="utf-8"))
        self.scenario_count = sum(len(files) for files in manifest["scenarios"].values())
        scenarios = str(self.data_dir / "scenarios")
        commands = [["metrics"], ["evaluate"], ["capability"], ["graph"], ["validate", scenarios]]
        random.Random(seed).shuffle(commands)
        self.commands = commands

    def import_program(self):
        super().import_program()
        self.cli = importlib.import_module("schemalens.cli")

    def round(self):
        return [(argv[0], functools.partial(self._session, argv)) for argv in self.commands]

    def reimport_before(self, index):
        # A user's session starts a fresh interpreter: no module-level state
        # (a memo, a cache) may carry over from an earlier session.
        return True

    def _session(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, key, output):
        code, out, err = output
        if code != 0:
            return f"{key}: exit {code}: {err.strip()[:200]}"
        if key == "validate":
            lines = out.splitlines()
            ok = len(lines) == self.scenario_count and all(line.endswith(": valid") for line in lines)
            return None if ok else f"validate: expected {self.scenario_count} valid files, got {lines[:3]}"
        return {"metrics": _check_metrics, "evaluate": _check_evaluate,
                "capability": _check_capability, "graph": _check_graph}[key](out)


# --------------------------------------------------------------------------
# scale-refs


class ScaleRefs(Workload):
    """One operation is load_corpus + resolve + build_graph + five metrics on
    one synthetic corpus written during set-up."""

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.inputs = inputs.scale_inputs(seed)
        self.corpus_root = work_dir / f"scale-{seed}"
        shutil.rmtree(self.corpus_root, ignore_errors=True)
        self.dirs = []
        for i, item in enumerate(self.inputs):
            directory = self.corpus_root / f"{i:02d}-{item.label}"
            inputs.write_corpus(directory, item.files)
            item.files = None  # keep only what the checks need in memory
            self.dirs.append(directory)

    def reimport_before(self, index):
        # A round's inputs are distinct corpora; a fresh import per round keeps
        # a module-level memo from carrying one input's work into its next
        # round.
        return index == 0

    def round(self):
        return [(i, functools.partial(self._op, item, directory))
                for i, (item, directory) in enumerate(zip(self.inputs, self.dirs))]

    def _op(self, item, directory):
        sl = self.sl
        corpus = sl.load_corpus(directory)
        tree = sl.resolve(corpus, item.entry)
        graph = sl.build_graph({inputs.COLLECTION: tree})
        values = [getattr(sl.metrics, name)(graph, *args) for name, args, _ in item.queries]
        return len(graph.nodes), values

    def check(self, key, output):
        item = self.inputs[key]
        nodes, values = output
        expected = [value for _, _, value in item.queries]
        if nodes != item.graph_nodes or values != expected:
            return f"{item.label}: nodes {nodes} metrics {values}, closed form {item.graph_nodes} {expected}"
        return None

    def close(self):
        shutil.rmtree(self.corpus_root, ignore_errors=True)


WORKLOADS = {
    "validate-stream": ValidateStream,
    "cli-bundled": CliBundled,
    "scale-refs": ScaleRefs,
}
