"""Document enrichment with consensual biterms.

Biterms become single compound vocabulary terms ("a_b", canonical order,
underscore-joined). An artifact's own consensual biterms are added with
their importance count as weight; biterms pulled in from highly related
intermediate artifacts are added once each with weight 1, on top of any
own weight for the same pair. `select_related_intermediates` cuts a
prefix (`kept`) of each pre-enrichment table row's list, which leads with
its best, from one `irmodels.selection_lists` block over the
intermediates; its column positions index their consensual biterm sets.
Both steps return a new `Document` with a fresh `added_biterm_terms`
Counter that shares the base `terms` Counter, which nothing writes to.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .biterms import Biterms, Pair
from .corpus.types import Document
from .irmodels import SimilarityTable, kept, selection_lists


def compound_term(pair: Pair) -> str:
    return f"{pair[0]}_{pair[1]}"


def select_related_intermediates(table: SimilarityTable, m: float, t: int) -> list[list[int]]:
    """Per row, the first t columns scoring at least m times the row's best, in selection order."""
    cols, scores = selection_lists(
        table, np.arange(len(table.row_ids)), np.arange(len(table.col_ids)), t
    )
    return [mine[:kept(found, m, t)] for mine, found in zip(cols, scores)]


def add_own_biterms(document: Document, own: Biterms) -> Document:
    """Add the artifact's own consensual biterms, weighted by importance count."""
    added = document.added_biterm_terms.copy()
    for pair, count in own.items():
        added[compound_term(pair)] += count
    return replace(document, added_biterm_terms=added)


def enrich_artifact(document: Document, related: list[Biterms]) -> Document:
    """Add each distinct biterm across the related sets once, with weight 1."""
    added = document.added_biterm_terms.copy()
    added.update(map(compound_term, sorted(set().union(*related))))
    return replace(document, added_biterm_terms=added)


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
