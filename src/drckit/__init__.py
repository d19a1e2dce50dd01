"""Context-aware discourse relation classification toolkit.

Pipelines over dependency discourse treebanks: corpus ingestion and
validation, context selection (none, preceding sentences, tree ancestors),
dataset variant rendering, prompt-based and baseline inference, macro-F1
evaluation with signed-rank significance testing, and paired win/loss
error analysis.

A public name is imported from its module on first access, so a caller, the
CLI among them, loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "ConnectiveLexicon", "ConnectiveMatchReport", "RelationMargin",
        "connective_match_rate", "default_lexicon", "load_connective_lexicon",
        "margins_by_category", "pair_outcomes", "relation_margins"),
    "config": ("ContextScheme",),
    "context": (
        "RenderedInstance", "VariantDataset", "build_variant_dataset",
        "corpus_label_inventory", "read_variant_dataset", "render_instance",
        "write_variant_dataset"),
    "endpoint": ("EndpointConfig", "EndpointError", "run_endpoint_inference"),
    "evaluation": (
        "EvalReport", "RunAggregate", "SignificanceResult", "aggregate_runs",
        "bonferroni", "compare_runs", "score", "wilcoxon_signed_rank"),
    "inference": (
        "UNPARSED", "BaselineModel", "ICLExample", "PredictionSet", "build_prompt",
        "endpoint_predictions", "import_predictions", "parse_llm_output",
        "predict_baseline", "prompt_prefix", "sample_icl_examples", "train_baseline",
        "write_predictions"),
    "treebank": (
        "Corpus", "DiscourseTree", "DistanceStats", "EDU", "RelationInstance",
        "Violation", "ancestors", "dependency_distance_stats",
        "extract_instances", "load_corpus", "load_split", "parse_tree_document",
        "serialize_tree_document", "validate_tree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
