"""schemalens: structural metrics, weighted evaluation and native validation
for multi-file livestock event JSON Schema corpora.

Importing the package loads only the loader, graph and metrics layers. The
names of the corpus, evaluation and validator layers load their module on
first access (PEP 562); ``schemalens.cli`` imports every layer at start.
"""

from importlib import import_module

from .graph import MetricGraph, build_graph, classify_attribute
from .loader import CorpusHandle, ResolvedNode, load_corpus, resolve
from .metrics import ABSENT, Absent, WidthCoefficients

_LAZY = {
    "corpus": ("CorpusManifest", "capability_matrix", "load_manifest"),
    "evaluation": ("CriterionSpec", "WeightCase", "evaluate_schema", "normalize", "run_comparison"),
    "validator": ("ValidationOutcome", "dispatch_event_schema", "validate", "validate_batch"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "ABSENT",
    "Absent",
    "CorpusHandle",
    "CorpusManifest",
    "CriterionSpec",
    "MetricGraph",
    "ResolvedNode",
    "ValidationOutcome",
    "WeightCase",
    "WidthCoefficients",
    "build_graph",
    "capability_matrix",
    "classify_attribute",
    "dispatch_event_schema",
    "evaluate_schema",
    "load_corpus",
    "load_manifest",
    "normalize",
    "resolve",
    "run_comparison",
    "validate",
    "validate_batch",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
