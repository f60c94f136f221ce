"""Span tracing from outside the program, by wrapping its public functions.

``Tracer.install`` wraps every public function defined in the layer modules
of ``schemalens`` and rebinds the wrapper at every module-level name bound to
the original, in every loaded ``schemalens`` module. ``resolve`` is imported
by name into ``loader``, ``corpus`` and ``cli`` (and the package), so all of
those bindings are replaced; a call through any of them is recorded.

A span is recorded only when a call enters a layer from outside it (from the
benchmark or from another layer); calls a layer makes to its own public
functions belong to the enclosing span. Spans are kept in memory as
``[name, layer, start, end, parent, op]`` and written out at the end.

Counters are taken from outside too: the wrappers of a few functions inspect
the returned objects (resolved trees, graphs, validation outcomes). That
inspection runs in its own ``trace.inspect`` span, so it is excluded from
the self time of the layer that called the function and shows up only as
tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("loader", "graph", "metrics", "evaluation", "corpus", "validator", "report", "cli")

SETUP_OP = -1


def tree_size(root) -> tuple[int, int]:
    """(nodes counted as a tree, distinct node objects) of a ResolvedNode
    structure; shared subtrees count once per occurrence in the first."""
    sizes: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in sizes and not expanded:
            continue
        kids = list(_resolved_children(node))
        if expanded:
            sizes[key] = 1 + sum(sizes[id(k)] for k in kids)
            continue
        stack.append((node, True))
        stack.extend((k, False) for k in kids if id(k) not in sizes)
    return sizes[id(root)], len(sizes)


def _resolved_children(node):
    for _, child in node.children:
        yield child
    if node.item is not None:
        yield node.item
    for group in node.one_of_groups:
        yield from group
    for cond in node.conditionals:
        yield from (part for part in cond if part is not None)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.pairs: dict[int, set] = defaultdict(set)
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._inspectors = {
            "loader.load_corpus": self._inspect_corpus,
            "loader.resolve": self._inspect_resolve,
            "graph.build_graph": self._inspect_graph,
            "validator.validate": self._inspect_outcome,
        }

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"schemalens.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "schemalens" and not mod_name.startswith("schemalens."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        inspector = self._inspectors.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if inspector is not None and self.op != SETUP_OP:
                self.call("trace.inspect", "trace", inspector, args, kwargs, result)
            return result

        return wrapper

    def call(self, name: str, layer: str, fn, *args):
        """Run ``fn(*args)`` inside a span of the given name and layer."""
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    # ---------------------------------------------------------- inspectors

    def _inspect_corpus(self, args, kwargs, handle):
        self.counters["loader.documents_parsed"] += len(handle.documents)
        self.counters["loader.parse_errors"] += len(handle.errors)

    def _inspect_resolve(self, args, kwargs, tree):
        corpus = _arg(args, kwargs, 0, "corpus")
        entry = _arg(args, kwargs, 1, "entry_id")
        total, distinct = tree_size(tree)
        self.counters["loader.resolved_nodes"] += total
        self.counters["loader.resolved_nodes_distinct"] += distinct
        self.pairs[self.op].add((str(corpus.root_dir), entry))

    def _inspect_graph(self, args, kwargs, graph):
        self.counters["graph.nodes"] += len(graph.nodes)

    def _inspect_outcome(self, args, kwargs, outcome):
        self.counters["validator.valid"] += bool(outcome.valid)
        self.counters["validator.violations"] += len(outcome.violations)

    # ---------------------------------------------------------- reporting

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def dump(self, path: Path) -> None:
        fields = ("name", "layer", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``ops`` operations, with every
    time multiplied by ``time_scale``.

    Calls and self times are per operation, except ``validator.validate.self_us``
    (per call) and ``corpus.capability_matrix.resolves`` (per
    capability_matrix call). ``metrics.*`` and ``report.render.self_ms`` sum
    over every public function of their module. ``setup.*`` come from the
    traced set-up that precedes the phase.
    """
    selfs = [t * time_scale for t in tracer.self_times()]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_self: Counter = Counter()
    setup_self: Counter = Counter()
    capability_resolves = 0
    for i, (name, layer, _, _, parent, op) in enumerate(tracer.spans):
        if op == SETUP_OP:
            setup_self[layer] += selfs[i]
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        layer_calls[layer] += 1
        layer_self[layer] += selfs[i]
        if name == "loader.resolve" and parent >= 0 and tracer.spans[parent][0] == "corpus.capability_matrix":
            capability_resolves += 1
    counters = tracer.counters
    pairs = sum(len(p) for op, p in tracer.pairs.items() if op != SETUP_OP)
    validates = calls["validator.validate"]

    def per_op(value):
        return value / ops

    def ms_per_op(seconds):
        return seconds * 1e3 / ops

    out = {
        "trace.ops": ops,
        "loader.load_corpus.calls": per_op(calls["loader.load_corpus"]),
        "loader.load_corpus.self_ms": ms_per_op(self_s["loader.load_corpus"]),
        "loader.documents_parsed": per_op(counters["loader.documents_parsed"]),
        "loader.parse_errors": per_op(counters["loader.parse_errors"]),
        "loader.resolve.calls": per_op(calls["loader.resolve"]),
        "loader.resolve.self_ms": ms_per_op(self_s["loader.resolve"]),
        "loader.resolved_nodes": per_op(counters["loader.resolved_nodes"]),
        "loader.resolved_nodes_distinct": per_op(counters["loader.resolved_nodes_distinct"]),
        "loader.resolve.distinct_pairs": per_op(pairs),
        "loader.resolve.distinct_ratio": _ratio(pairs, calls["loader.resolve"]),
        "graph.build_graph.calls": per_op(calls["graph.build_graph"]),
        "graph.build_graph.self_ms": ms_per_op(self_s["graph.build_graph"]),
        "graph.nodes": per_op(counters["graph.nodes"]),
        "metrics.calls": per_op(layer_calls["metrics"]),
        "metrics.self_ms": ms_per_op(layer_self["metrics"]),
        "evaluation.run_comparison.calls": per_op(calls["evaluation.run_comparison"]),
        "evaluation.run_comparison.self_ms": ms_per_op(self_s["evaluation.run_comparison"]),
        "corpus.load_manifest.calls": per_op(calls["corpus.load_manifest"]),
        "corpus.load_manifest.self_ms": ms_per_op(self_s["corpus.load_manifest"]),
        "corpus.capability_matrix.calls": per_op(calls["corpus.capability_matrix"]),
        "corpus.capability_matrix.self_ms": ms_per_op(self_s["corpus.capability_matrix"]),
        "corpus.capability_matrix.resolves": _ratio(capability_resolves, calls["corpus.capability_matrix"]),
        "validator.validate.calls": per_op(validates),
        "validator.validate.self_us": _ratio(self_s["validator.validate"] * 1e6, validates),
        "validator.valid_ratio": _ratio(counters["validator.valid"], validates),
        "validator.violations_per_doc": _ratio(counters["validator.violations"], validates),
        "report.render.self_ms": ms_per_op(layer_self["report"]),
        "cli.main.calls": per_op(calls["cli.main"]),
        "cli.main.self_ms": ms_per_op(self_s["cli.main"]),
    }
    for layer in ("loader", "graph", "evaluation", "corpus", "validator", "cli", "bench"):
        out[f"layer.{layer}.self_ms"] = ms_per_op(layer_self[layer])
    out["trace.inspect.self_ms"] = ms_per_op(layer_self["trace"])
    out["setup.loader.self_ms"] = setup_self["loader"] * 1e3
    out["setup.corpus.self_ms"] = setup_self["corpus"] * 1e3
    return out
