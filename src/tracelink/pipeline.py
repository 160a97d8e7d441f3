"""End-to-end pipeline: extract, filter, enrich, deduce, adjust, rank.

This module owns the ablation modes: `ABLATION_MODES` names them and
`parse_mode` maps one to its components. "b" turns on intermediate-centric
biterm enrichment, "o" turns on outer-transitive path deduction and score
adjustment, and "i" additionally allows one inner-transitive link per path.
Enrichment similarities are taken from a pre-enrichment table built over
documents carrying only their own biterm terms; candidate generation and
path deduction use a table rebuilt after enrichment. Each table is the
block of cells its readers take: sources and targets by intermediates
before enrichment, and sources and intermediates by every artifact after
it (outer links S-I and I-T, inner links S-S and I-I, candidates S-T), for
every mode. `PipelineConfig` is the one run configuration and the only
validator of the mode and of the thresholds m and t, which reach
enrichment and path deduction as plain arguments.

A run is two stages over the base documents of `build_documents`.
`table_stage` (biterms, enrichment and similarity tables) depends only on
"b" and returns the final documents and table. `path_stage` walks the
`hop_lists` of that table for the paths that "o" and "i" ask for, adjusts
the scores, ranks the mode's candidates once, and returns both;
`run_pipeline` builds the `PipelineResult`. Neither stage writes to its
inputs (enrichment returns new documents), so one table serves every mode
with the same "b" (`run_ablation`).

A row is a manifest position. `build_documents` follows
`Dataset.all_artifacts()`, so every document list runs sources,
intermediates, targets, and each level is one contiguous run of rows;
`level_rows` takes those runs from the level sizes alone, with no id
lookup. The consensual biterm sets, the documents and the final table's
columns are in that order, and the table's rows are its first two levels,
so row k and column k are both manifest position k. The ranking is the
long form, `irmodels.RankedLinks`, with its sources in manifest order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from pathlib import Path

import numpy as np

from .biterms import consensual_filter, extract_biterms
from .corpus.preprocess import build_document
from .corpus.types import Dataset, Document
from .enrich import add_own_biterms, enrich_artifact, select_related_intermediates
from .errors import ConfigError
from .evaluate import EvalReport, evaluate_ranking
from .irmodels import MODELS, RankedLinks, SimilarityTable, build_similarity_table, rank_candidates
from .transitive import TransitivePath, adjust_scores, form_paths, hop_lists

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
        # is_dir is also False for a path the OS cannot take, such as one holding a NUL.
        if self.pairs_dir is not None and not Path(self.pairs_dir).is_dir():
            raise ConfigError(f"pairs_dir is not a directory: {str(self.pairs_dir)!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class PipelineResult:
    documents: dict[str, Document]
    candidates: RankedLinks
    paths: dict[str, list[TransitivePath]]


def run_pipeline(dataset: Dataset, config: PipelineConfig) -> PipelineResult:
    documents, table = table_stage(dataset, config, build_documents(dataset))
    candidates, paths = path_stage(dataset, config, table)
    return PipelineResult(dict(zip(table.col_ids, documents)), candidates, paths)


def run_ablation(
    dataset: Dataset, config: PipelineConfig, modes: list[str]
) -> dict[str, EvalReport]:
    """Evaluate `config` under each mode against the S-T oracle.

    The modes share their stages: the base documents are built once, the
    table stage runs once per distinct "b" (so six modes build three
    similarity tables, not nine), and only the path stage runs per mode.
    Each report equals that of a separate `run_pipeline` for the mode.
    """
    if not modes:
        raise ConfigError("ablation requires at least one mode")
    configs = {mode: replace(config, mode=mode) for mode in modes}  # checks every mode first
    documents = build_documents(dataset)
    tables: dict[bool, SimilarityTable] = {}
    reports: dict[str, EvalReport] = {}
    for mode, mode_config in configs.items():
        has_b = "b" in parse_mode(mode)
        if has_b not in tables:
            tables[has_b] = table_stage(dataset, mode_config, documents)[1]
        candidates, _ = path_stage(dataset, mode_config, tables[has_b])
        reports[mode] = evaluate_ranking(candidates, dataset.oracle_st)
    return reports


def build_documents(dataset: Dataset) -> list[Document]:
    """The base document of every artifact, in manifest order, before any biterm term is added."""
    return [build_document(a) for a in dataset.all_artifacts()]


def level_rows(dataset: Dataset) -> tuple[np.ndarray, ...]:
    """The source, intermediate and target rows: each level's run of manifest positions."""
    ends = np.cumsum([len(dataset.sources), len(dataset.intermediates), len(dataset.targets)])
    return tuple(np.split(np.arange(ends[-1]), ends[:2]))


def table_stage(
    dataset: Dataset, config: PipelineConfig, documents: list[Document]
) -> tuple[list[Document], SimilarityTable]:
    """The final documents and similarity table, with biterm enrichment when the mode has "b".

    Reads only "b" of the mode, so modes that agree on it share the table,
    which holds every cell a path stage of any mode reads. `documents`, in
    manifest order, is left as it is: enrichment returns new documents.
    """
    sources, intermediates, targets = level_rows(dataset)

    if "b" in parse_mode(config.mode):
        source_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.sources]
        inter_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.intermediates]
        target_sets = [extract_biterms(a, config.pairs_dir) for a in dataset.targets]
        f_sources, f_inters, f_targets = consensual_filter(source_sets, inter_sets, target_sets)
        filtered = [*f_sources, *f_inters, *f_targets]
        documents = [add_own_biterms(doc, own) for doc, own in zip(documents, filtered)]

        if dataset.intermediates:
            enriched = np.concatenate((sources, targets))
            pre_table = build_similarity_table(
                documents, config.model, config.lsi_rank, rows=enriched, cols=intermediates
            )
            related = select_related_intermediates(pre_table, config.m, config.t)
            for document, columns in zip(enriched.tolist(), related):
                documents[document] = enrich_artifact(
                    documents[document], [f_inters[c] for c in columns]
                )
            del pre_table  # Free its scores before the final table is built.

    table = build_similarity_table(
        documents, config.model, config.lsi_rank, rows=np.concatenate((sources, intermediates))
    )
    return documents, table


def path_stage(
    dataset: Dataset, config: PipelineConfig, table: SimilarityTable
) -> tuple[RankedLinks, dict[str, list[TransitivePath]]]:
    """The candidates of the mode, ranked once from `table`, and each source's paths.

    With "o" (and "i"), each source's paths are deduced first, and the IR
    scores are multiplied by their `adjust_scores` factors before ranking.
    Without "o" there are no paths. `table` is left as it is.
    """
    components = parse_mode(config.mode)
    levels = level_rows(dataset)
    paths: dict[str, list[TransitivePath]] = {}
    scale = 1.0
    if "o" in components:
        lists = hop_lists(table, levels, config.t)
        paths = {
            table.row_ids[row]: form_paths(
                row, lists, table.col_ids, config.m, config.t, allow_inner="i" in components
            )
            for row in levels[0].tolist()
        }
        scale = adjust_scores(paths, dataset.source_ids(), dataset.target_ids())
    return rank_candidates(table, levels[0], levels[2], scale), paths
