"""Document enrichment with consensual biterms.

Biterms become single compound vocabulary terms ("a_b", canonical order,
underscore-joined). An artifact's own consensual biterms are added with
their importance count as weight; biterms pulled in from highly related
intermediate artifacts are added once each with weight 1, on top of any
own weight for the same pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .biterms import BitermSet, Pair
from .corpus.types import Document
from .errors import ConfigError
from .irmodels import SimilarityTable


@dataclass(frozen=True)
class EnrichmentConfig:
    """Relative similarity threshold m and related-artifact cap t."""

    m: float = 0.5
    t: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.m <= 1:
            raise ConfigError(f"threshold m must be in (0, 1], got {self.m}")
        if self.t < 1:
            raise ConfigError(f"cap t must be >= 1, got {self.t}")


def compound_term(pair: Pair) -> str:
    return f"{pair[0]}_{pair[1]}"


def select_related_intermediates(
    artifact_id: str,
    intermediate_ids: list[str],
    table: SimilarityTable,
    cfg: EnrichmentConfig,
) -> list[str]:
    """Top intermediates by similarity: at most t, each within m of the maximum.

    Ties break by ascending id; an all-zero similarity row selects nothing.
    """
    scored = list(zip(intermediate_ids, table.row_scores(artifact_id, intermediate_ids)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    if not scored or scored[0][1] <= 0.0:
        return []
    cutoff = cfg.m * scored[0][1]
    selected = [other for other, score in scored if score >= cutoff]
    return selected[: cfg.t]


def add_own_biterms(document: Document, own: BitermSet) -> Document:
    """Add the artifact's own consensual biterms, weighted by importance count."""
    enriched = document.copy()
    for pair, count in own.biterms.items():
        enriched.added_biterm_terms[compound_term(pair)] += count
    return enriched


def enrich_artifact(document: Document, related: list[BitermSet]) -> Document:
    """Add each distinct biterm across the related sets once, with weight 1."""
    enriched = document.copy()
    distinct: set[Pair] = set()
    for biterm_set in related:
        distinct |= biterm_set.pairs()
    for pair in sorted(distinct):
        enriched.added_biterm_terms[compound_term(pair)] += 1
    return enriched


def corpus_dump_payload(documents: dict[str, Document]) -> list[dict]:
    """JSON-ready dump of base terms and added compound-term weights."""
    return [
        {
            "artifact_id": doc_id,
            "terms": dict(sorted(documents[doc_id].terms.items())),
            "added_biterm_terms": dict(sorted(documents[doc_id].added_biterm_terms.items())),
        }
        for doc_id in sorted(documents)
    ]
