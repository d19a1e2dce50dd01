"""Context-aware discourse relation classification toolkit.

Pipelines over dependency discourse treebanks: corpus ingestion and
validation, context selection (none, preceding sentences, tree ancestors),
dataset variant rendering, prompt-based and baseline inference, macro-F1
evaluation with signed-rank significance testing, and paired win/loss
error analysis.
"""

__version__ = "0.1.0"

from .analysis import (
    ConnectiveLexicon,
    ConnectiveMatchReport,
    PairedOutcome,
    RelationMargin,
    connective_match_rate,
    default_lexicon,
    load_connective_lexicon,
    margins_by_category,
    pair_outcomes,
    relation_margins,
)
from .context import (
    ContextScheme,
    RenderedInstance,
    VariantDataset,
    build_variant_dataset,
    corpus_label_inventory,
    read_variant_dataset,
    render_instance,
    select_context,
    write_variant_dataset,
)
from .endpoint import EndpointConfig, EndpointError, run_endpoint_inference
from .evaluation import (
    EvalReport,
    RunAggregate,
    SignificanceResult,
    aggregate_runs,
    bonferroni,
    score,
    wilcoxon_signed_rank,
)
from .inference import (
    UNPARSED,
    BaselineModel,
    ICLExample,
    PredictionSet,
    PromptSpec,
    build_prompt,
    import_predictions,
    parse_llm_output,
    predict_baseline,
    sample_icl_examples,
    train_baseline,
    write_predictions,
)
from .treebank import (
    Corpus,
    DiscourseTree,
    DistanceStats,
    EDU,
    RelationInstance,
    Violation,
    ancestors,
    dependency_distance_stats,
    extract_instances,
    load_corpus,
    load_split,
    parse_tree_document,
    serialize_tree_document,
    validate_tree,
)
