"""End-to-end pipeline: extract, filter, enrich, rank, deduce, adjust.

This module owns the ablation modes: `ABLATION_MODES` names them and
`parse_mode` maps one to its components. "b" turns on intermediate-centric
biterm enrichment, "o" turns on outer-transitive path deduction and score
adjustment, and "i" additionally allows one inner-transitive link per path.
Enrichment similarities are taken from a pre-enrichment table built over
documents carrying only their own biterm terms; candidate generation and
path deduction use a table rebuilt after enrichment. `PipelineConfig` is
the one run configuration and the only validator of the mode and of the
thresholds m and t, which reach enrichment and path deduction as plain
arguments.

A run is two stages over the base documents of `build_documents`:
`rank_stage` (biterms, enrichment, tables and IR ranking) depends only on
whether "b" is on, and `path_stage` (path deduction and score adjustment)
adds what "o" and "i" ask for. Both read the mode from the config. Neither
stage writes to its inputs, so one ranking can serve every mode with the
same "b", as `run_ablation` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Real
from pathlib import Path

from .biterms import Biterms, consensual_filter, extract_biterms
from .corpus.documents import build_document
from .corpus.types import Dataset, Document
from .enrich import add_own_biterms, enrich_artifact, select_related_intermediates
from .errors import ConfigError
from .evaluate import EvalReport, evaluate_ranking
from .irmodels import MODELS, SimilarityTable, build_similarity_table, rank_candidates
from .transitive import TransitivePath, adjust_scores, form_paths

ABLATION_MODES = ("ir-only", "b", "o", "b+o", "o+i", "b+o+i")


def parse_mode(mode: str) -> frozenset[str]:
    """Map an ablation mode name to its toggled components."""
    if mode not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    return frozenset() if mode == "ir-only" else frozenset(mode.split("+"))


@dataclass(frozen=True)
class PipelineConfig:
    model: str = "vsm"
    mode: str = "b+o+i"
    m: float = 0.5
    t: int = 3
    lsi_rank: int | None = None
    pairs_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown IR model {self.model!r}; expected one of {MODELS}")
        parse_mode(self.mode)
        if isinstance(self.m, bool) or not isinstance(self.m, Real) or not 0 < self.m <= 1:
            raise ConfigError(f"threshold m must be a number in (0, 1], got {self.m!r}")
        if not _is_int(self.t) or self.t < 1:
            raise ConfigError(f"cap t must be an integer >= 1, got {self.t!r}")
        if self.lsi_rank is not None and (not _is_int(self.lsi_rank) or self.lsi_rank < 1):
            raise ConfigError(f"LSI rank must be an integer >= 1, got {self.lsi_rank!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class PipelineResult:
    documents: dict[str, Document]
    similarity: SimilarityTable
    candidates: dict[str, list[tuple[str, float]]]
    paths: dict[str, list[TransitivePath]] = field(default_factory=dict)
    filtered_biterms: dict[str, Biterms] = field(default_factory=dict)


def run_pipeline(dataset: Dataset, config: PipelineConfig) -> PipelineResult:
    return path_stage(dataset, config, rank_stage(dataset, config, build_documents(dataset)))


def run_ablation(
    dataset: Dataset, config: PipelineConfig, modes: list[str]
) -> dict[str, EvalReport]:
    """Evaluate `config` under each mode against the S-T oracle.

    The modes share their stages: the base documents are built once, the
    ranking stage runs once per distinct "b" (so six modes build three
    similarity tables, not nine), and only the path stage runs per mode.
    Each report equals that of a separate `run_pipeline` for the mode.
    """
    if not modes:
        raise ConfigError("ablation requires at least one mode")
    configs = {mode: replace(config, mode=mode) for mode in modes}  # checks every mode first
    documents = build_documents(dataset)
    rankings: dict[bool, PipelineResult] = {}
    reports: dict[str, EvalReport] = {}
    for mode, mode_config in configs.items():
        has_b = "b" in parse_mode(mode)
        if has_b not in rankings:
            rankings[has_b] = rank_stage(dataset, mode_config, documents)
        result = path_stage(dataset, mode_config, rankings[has_b])
        reports[mode] = evaluate_ranking(result.candidates, dataset.oracle_st)
    return reports


def build_documents(dataset: Dataset) -> dict[str, Document]:
    """The base document of every artifact, before any biterm term is added."""
    return {a.id: build_document(a) for a in dataset.all_artifacts()}


def rank_stage(
    dataset: Dataset, config: PipelineConfig, documents: dict[str, Document]
) -> PipelineResult:
    """IR ranking of every source's targets, with biterm enrichment when the mode has "b".

    Reads only "b" of the mode, so modes that agree on it rank alike.
    `documents` is left as it is: enrichment writes to copies.
    """
    filtered_by_id: dict[str, Biterms] = {}

    if "b" in parse_mode(config.mode):
        source_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.sources]
        inter_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.intermediates]
        target_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.targets]
        f_sources, f_inters, f_targets = consensual_filter(source_sets, inter_sets, target_sets)
        filtered_by_id = dict(zip(
            [a.id for a in dataset.all_artifacts()], [*f_sources, *f_inters, *f_targets]
        ))

        documents = {
            a_id: add_own_biterms(doc, filtered_by_id[a_id])
            for a_id, doc in documents.items()
        }

        if dataset.intermediates:
            pre_table = build_similarity_table(
                list(documents.values()), config.model, config.lsi_rank
            )
            intermediate_ids = dataset.intermediate_ids()
            enriched: dict[str, Document] = dict(documents)
            for artifact in (*dataset.sources, *dataset.targets):
                related_ids = select_related_intermediates(
                    artifact.id, intermediate_ids, pre_table, config.m, config.t
                )
                related_sets = [filtered_by_id[i] for i in related_ids]
                enriched[artifact.id] = enrich_artifact(documents[artifact.id], related_sets)
            documents = enriched

    table = build_similarity_table(list(documents.values()), config.model, config.lsi_rank)
    return PipelineResult(
        documents=documents,
        similarity=table,
        candidates=rank_candidates(table, dataset.source_ids(), dataset.target_ids()),
        filtered_biterms=filtered_by_id,
    )


def path_stage(
    dataset: Dataset, config: PipelineConfig, ranking: PipelineResult
) -> PipelineResult:
    """`ranking` with the paths and score adjustment that "o" and "i" of the mode ask for.

    Returns a new result and leaves `ranking` as it is.
    """
    components = parse_mode(config.mode)
    if "o" not in components:
        return replace(ranking, paths={})
    paths = {
        source: form_paths(
            source, dataset, ranking.similarity, config.m, config.t,
            allow_inner="i" in components,
        )
        for source in dataset.source_ids()
    }
    return replace(ranking, candidates=adjust_scores(ranking.candidates, paths), paths=paths)
