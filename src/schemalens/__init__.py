"""schemalens: structural metrics, weighted evaluation and native validation
for multi-file livestock event JSON Schema corpora."""

from .corpus import CorpusManifest, capability_matrix, load_manifest
from .evaluation import (
    CriterionSpec,
    WeightCase,
    evaluate_schema,
    normalize,
    run_comparison,
)
from .graph import MetricGraph, build_graph, classify_attribute
from .loader import CorpusHandle, ResolvedNode, load_corpus, resolve
from .metrics import ABSENT, Absent, WidthCoefficients
from .validator import ValidationOutcome, dispatch_event_schema, validate, validate_batch

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
