"""Document enrichment with consensual biterms.

Biterms become single compound vocabulary terms ("a_b", canonical order,
underscore-joined). An artifact's own consensual biterms are added with
their importance count as weight; biterms pulled in from highly related
intermediate artifacts are added once each with weight 1, on top of any
own weight for the same pair. `irmodels.select_rows` picks the related
intermediates on rows of the pre-enrichment table.
"""

from __future__ import annotations

import numpy as np

from .biterms import Biterms, Pair
from .corpus.types import Document
from .irmodels import SimilarityTable, select_rows


def compound_term(pair: Pair) -> str:
    return f"{pair[0]}_{pair[1]}"


def select_related_intermediates(
    table: SimilarityTable, row: int, intermediates: np.ndarray, m: float, t: int
) -> list[str]:
    """Ids of the first t `intermediates` scoring at least m times the best against `row`."""
    selected, _ = select_rows(table, row, intermediates, m, t)
    return [table.ids[other] for other in selected.tolist()]


def add_own_biterms(document: Document, own: Biterms) -> Document:
    """Add the artifact's own consensual biterms, weighted by importance count."""
    enriched = document.copy()
    for pair, count in own.items():
        enriched.added_biterm_terms[compound_term(pair)] += count
    return enriched


def enrich_artifact(document: Document, related: list[Biterms]) -> Document:
    """Add each distinct biterm across the related sets once, with weight 1."""
    enriched = document.copy()
    for pair in sorted(set().union(*related)):
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
