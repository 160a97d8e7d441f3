"""Traceability-recovery engine.

Ranks candidate trace links between high-level source artifacts and
low-level target artifacts by enriching both with consensual biterms
centred on intermediate artifacts, and by adjusting IR similarity scores
along deduced outer- and inner-transitive link paths.
"""

from .biterms import (
    BitermSet,
    canonical_pair,
    consensual_filter,
    extract_code_biterms,
    extract_nl_biterms,
    import_parsed_pairs,
)
from .corpus import (
    Artifact,
    Dataset,
    Document,
    Kind,
    Level,
    load_dataset,
    porter_stem,
    preprocess,
    split_identifier,
    tokenize_natural,
)
from .enrich import enrich_artifact, select_related_intermediates
from .evaluate import (
    EvalReport,
    StatComparison,
    average_precision,
    cliffs_delta,
    evaluate_ranking,
    mean_average_precision,
    precision_recall,
    run_ablation,
    wilcoxon_rank_sum,
)
from .irmodels import (
    SimilarityTable,
    TermDocMatrix,
    build_matrix,
    build_similarity_table,
    rank_candidates,
    similarity_js,
    similarity_lsi,
    similarity_vsm,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .transitive import HopState, TransitiveLink, TransitivePath, adjust_scores, form_paths

__version__ = "0.1.0"

__all__ = [
    "Artifact", "BitermSet", "Dataset", "Document", "EvalReport",
    "HopState", "Kind", "Level", "PipelineConfig", "PipelineResult",
    "SimilarityTable", "StatComparison", "TermDocMatrix",
    "TransitiveLink", "TransitivePath", "adjust_scores", "average_precision",
    "build_matrix", "build_similarity_table", "canonical_pair",
    "cliffs_delta", "consensual_filter", "enrich_artifact",
    "evaluate_ranking", "extract_code_biterms", "extract_nl_biterms",
    "form_paths", "import_parsed_pairs", "load_dataset",
    "mean_average_precision", "porter_stem", "precision_recall", "preprocess",
    "rank_candidates", "run_ablation", "run_pipeline",
    "select_related_intermediates", "similarity_js", "similarity_lsi",
    "similarity_vsm", "split_identifier", "tokenize_natural",
    "wilcoxon_rank_sum",
]
