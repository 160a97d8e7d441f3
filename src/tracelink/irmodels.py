"""tf-idf indexing and the pairwise similarity table under VSM, LSI and JS.

Each table starts from one dense count matrix: raw term counts, including
enrichment weights, with columns in sorted term order. VSM and LSI scale it
in place to tf-idf, times ln(N/df). LSI takes a deterministic dense SVD of
that matrix and compares documents in the scaled topic space; JS compares
smoothed term distributions with base-2 Jensen-Shannon divergence.

`build_similarity_table` computes one n x n score matrix per table, and
consumers resolve ids to its rows once, through `SimilarityTable.rows`. VSM
and LSI divide one Gram matrix of the tf-idf rows (or of the LSI topic
coordinates, from one SVD per table) by the outer product of the row norms.
JS scores each pair over that pair's own sorted union vocabulary (epsilon
smoothing, base-2 KL), with the per-document work done once: each document's
used columns form one sorted list, and a pair's union columns are a merge of
its two lists, so no step scans the whole vocabulary per pair. It batches the
pairs by union size, one row per pair, and reduces along rows only, so each
score is the one that pair would get alone and exact ties stay exact. All
stored similarities are clamped into [0, 1] and symmetric.

Ranking and selection take row indexes only, and `_order` owns their one
order: a lexsort by descending score and then by each id's rank in sorted id
order, so exact ties break by ascending id. `select_rows` applies it to one
row; `rank_candidates` applies it to every row of the source x target block,
times the path stage's multipliers, and turns rows into ids only for its
result.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus.types import Document
from .errors import ConfigError, NumericError, ParseError, ValidationError

MODELS = ("vsm", "lsi", "js")

_JS_EPSILON = 1e-9
# Elements per gathered (pairs x union size) JS block. Larger blocks raise peak
# memory and save no time, and smaller ones pay more per-block overhead.
_JS_BLOCK = 1 << 12


def _count_matrix(documents: list[Document]) -> np.ndarray:
    """The dense term counts, one row per document, columns in sorted term order."""
    counts = [d.weighted_terms() for d in documents]
    column = {term: k for k, term in enumerate(sorted(set().union(*counts)))}
    dense = np.zeros((len(documents), len(column)))
    for i, doc_counts in enumerate(counts):
        for term, count in doc_counts.items():
            dense[i, column[term]] = count
    return dense


def _tf_idf(counts: np.ndarray) -> np.ndarray:
    """`counts` scaled in place to tf-idf weights: tf = raw count, idf = ln(N/df)."""
    df = np.count_nonzero(counts > 0, axis=0)
    counts *= np.log(len(counts) / np.maximum(df, 1))
    return counts


def default_lsi_rank(n_docs: int) -> int:
    return max(2, int(0.3 * n_docs))


def lsi_document_space(weights: np.ndarray, k: int) -> np.ndarray:
    """Rows of V_k scaled by the top-k singular values (documents in topic space).

    A rank k above min(documents, terms) is lowered to that bound.
    """
    if k < 1:
        raise ConfigError(f"LSI rank must be at least 1, got {k}")
    k = min(k, *weights.shape)
    try:
        # weights is docs x terms; SVD of the term-document matrix A = weights.T
        # gives A = U S Vt with document coordinates in Vt.T.
        _, singular, vt = np.linalg.svd(weights.T, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    return vt.T[:, :k] * singular[:k]


class SimilarityTable:
    """Symmetric pairwise similarities in [0, 1].

    `scores[i, j]` is the similarity of `ids[i]` and `ids[j]`; only the
    strict upper triangle of the given matrix is read, so the stored matrix
    is exactly symmetric. A document has no similarity with itself.
    `id_rank[i]` is the position of `ids[i]` in sorted id order.
    """

    def __init__(self, ids: list[str], scores: np.ndarray):
        n = len(ids)
        if len(set(ids)) != n:
            raise ValidationError("duplicate document ids in similarity table")
        if scores.shape != (n, n):
            raise ValidationError(f"score matrix shape {scores.shape} does not match {n} ids")
        upper = np.triu(np.clip(scores, 0.0, 1.0), 1)
        self.ids = list(ids)
        # The zeros of `upper.T` also turn a clipped -0.0 into 0.0 ("0.000000").
        self.scores = upper + upper.T
        self._index = {doc_id: i for i, doc_id in enumerate(self.ids)}
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[sorted(range(n), key=self.ids.__getitem__)] = np.arange(n)

    def rows(self, ids: list[str]) -> np.ndarray:
        """The row index of each of `ids`, in the order given."""
        try:
            return np.array([self._index[doc_id] for doc_id in ids], dtype=np.intp)
        except KeyError as exc:
            raise ValidationError(f"unknown document id {exc.args[0]!r}") from None

    def score(self, a: str, b: str) -> float:
        if a == b:
            raise ValidationError(f"no similarity stored for pair ({a!r}, {b!r})")
        i, j = self.rows([a, b])
        return float(self.scores[i, j])

    def pairs(self) -> dict[tuple[str, str], float]:
        """Every stored pair, keyed by its two ids in ascending order."""
        ids, scores = self.ids, self.scores.tolist()
        return {
            (a, b) if a <= b else (b, a): scores[i][j]
            for i, a in enumerate(ids)
            for j, b in enumerate(ids[i + 1:], start=i + 1)
        }


def _gram(vectors: np.ndarray) -> np.ndarray:
    """Dot products of every pair of rows, each summed column by column in order.

    Each entry depends only on the values of its two rows, so identical
    documents tie exactly with every third one. A blocked BLAS product
    (`vectors @ vectors.T`) sums by row position and splits such ties by an ulp.
    """
    n = len(vectors)
    gram = np.zeros(n * n)
    columns, rows = np.nonzero(vectors.T)  # by column, then by row
    values = vectors[rows, columns]
    starts = np.flatnonzero(np.diff(columns)) + 1
    for r, v in zip(np.split(rows, starts), np.split(values, starts)):
        if len(r) > 1:
            gram[(r * n)[:, None] + r] += np.multiply.outer(v, v)
    return gram.reshape(n, n)


def _cosine_matrix(vectors: np.ndarray) -> np.ndarray:
    """Row-by-row cosines; a row with a zero norm scores 0 against every row."""
    norms = np.array([float(np.linalg.norm(row)) for row in vectors])
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = _gram(vectors) / np.outer(norms, norms)
    zero = norms == 0.0
    cosines[zero, :] = 0.0
    cosines[:, zero] = 0.0
    return cosines


def _js_matrix(dense: np.ndarray) -> np.ndarray:
    """1 - base-2 JSD for every pair of nonempty rows of the counts `dense`, in blocks of pairs.

    Each pair smooths and normalizes over its own union vocabulary: the
    columns of the shared sorted vocabulary that either document uses. Its
    size L is |A| + |B| - |A n B|, with the shared counts from `_gram` of
    the used mask. Pairs are grouped by L. For each block of a group, the
    two ascending column lists of every pair, padded with the sentinel V
    (the vocabulary size), are sorted together along the row; the values
    that differ from their left neighbour and are not V are the pair's
    union columns in vocabulary order. So a block costs O(pairs x L), not
    O(pairs x V). Each block is gathered into two (pairs x L) arrays. Every
    reduction runs along a row, so each score is summed over exactly its
    own pair's values in the same order as a per-pair computation, and
    exact ties (say, between duplicate documents) stay exact.

    Every stored count is positive (token counts and positive biterm
    weights), so a document uses exactly its columns with a count above 0.
    Epsilon is positive too, so every smoothed probability is positive and
    the KL sums need no `p > 0` mask.
    """
    used = dense > 0
    n, vocabulary_size = used.shape
    scores = np.zeros((n, n))
    lengths = np.count_nonzero(used, axis=1)
    nonempty = np.flatnonzero(lengths)
    if len(nonempty) < 2:
        return scores
    # Row d holds document d's used columns in ascending order, then the sentinel V.
    padded = np.full((n, lengths.max()), vocabulary_size)
    padded[np.arange(lengths.max()) < lengths[:, None]] = np.nonzero(used)[1]
    # The triu indexes are freed here, before `_gram`'s n x n array is built.
    first, second = (nonempty[i] for i in np.triu_indices(len(nonempty), 1))
    sizes = lengths[first] + lengths[second] - _gram(used)[first, second].astype(np.intp)
    order = np.argsort(sizes, kind="stable")
    first, second, sizes = first[order], second[order], sizes[order]
    starts = np.flatnonzero(np.diff(sizes)) + 1
    for a_group, b_group, size in zip(
        np.split(first, starts), np.split(second, starts), sizes[np.r_[0, starts]].tolist()
    ):
        step = max(1, _JS_BLOCK // size)
        for k in range(0, len(a_group), step):
            a, b = a_group[k:k + step], b_group[k:k + step]
            merged = np.concatenate(
                (padded[a, :lengths[a].max()], padded[b, :lengths[b].max()]), axis=1
            )
            merged.sort(axis=1)
            keep = merged != vocabulary_size
            keep[:, 1:] &= merged[:, 1:] != merged[:, :-1]
            cols = merged[keep].reshape(len(a), size)
            p = dense[a[:, None], cols] + _JS_EPSILON
            p = p / p.sum(axis=1, keepdims=True)
            q = dense[b[:, None], cols] + _JS_EPSILON
            q = q / q.sum(axis=1, keepdims=True)
            m = (p + q) / 2.0
            jsd = (0.5 * np.sum(p * np.log2(p / m), axis=1)
                   + 0.5 * np.sum(q * np.log2(q / m), axis=1))
            scores[a, b] = 1.0 - jsd
    return scores


def build_similarity_table(
    documents: list[Document],
    model: str,
    lsi_rank: int | None = None,
) -> SimilarityTable:
    """Compute all pairwise similarities among `documents` under `model`.

    One count matrix is built and handed to the model. Documents that are
    entirely empty compare as 0 to everything, and when every document is
    empty the table is all zeros (degenerate but well-defined).
    """
    if model not in MODELS:
        raise ConfigError(f"unknown IR model {model!r}; expected one of {MODELS}")
    ids = [d.artifact_id for d in documents]
    counts = _count_matrix(documents)
    if not counts.size:
        return SimilarityTable(ids, np.zeros((len(ids), len(ids))))
    if model == "js":
        return SimilarityTable(ids, _js_matrix(counts))
    vectors = _tf_idf(counts)
    if model == "lsi":
        k = lsi_rank if lsi_rank is not None else default_lsi_rank(len(ids))
        vectors = lsi_document_space(vectors, k)
    return SimilarityTable(ids, _cosine_matrix(vectors))


def _order(table: SimilarityTable, cols: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The order of `cols` along the last axis of `scores`: descending score, then ascending id."""
    return np.lexsort((np.broadcast_to(table.id_rank[cols], scores.shape), -scores), axis=-1)


def select_rows(
    table: SimilarityTable, row: int, cols: np.ndarray, m: float | None, t: int | None
) -> tuple[np.ndarray, list[float]]:
    """`cols` by descending score against `row`, ties by ascending id, with those scores.

    With `m`, only the rows scoring at least m times the best are kept, and
    an all-zero row keeps none; with `t`, only the first t of them.
    """
    scores = table.scores[row, cols]
    if m is not None:
        best = scores.max(initial=0.0)
        keep = (scores >= m * best) & (best > 0.0)
        cols, scores = cols[keep], scores[keep]
    order = _order(table, cols, scores)[:t]
    return cols[order], scores[order].tolist()


def rank_candidates(
    table: SimilarityTable, sources: np.ndarray, targets: np.ndarray, scale: np.ndarray | float
) -> dict[str, list[tuple[str, float]]]:
    """Each source's targets by descending score, ties by ascending id, with those scores.

    The scores are the `sources` x `targets` block of the table times
    `scale`: a number, or one multiplier per pair.
    """
    scores = table.scores[np.ix_(sources, targets)] * scale
    order = _order(table, targets, scores)
    ids = np.array([table.ids[col] for col in targets.tolist()], dtype=object)[order]
    scores = np.take_along_axis(scores, order, axis=1)
    return {
        table.ids[row]: list(zip(row_ids, row_scores))
        for row, row_ids, row_scores in zip(sources.tolist(), ids.tolist(), scores.tolist())
    }


_CSV_HEADER = ["source_id", "target_id", "score"]


def format_ranked_csv(ranked: dict[str, list[tuple[str, float]]]) -> str:
    """CSV export: source_id,target_id,score sorted by (source, -score, target).

    Fields are quoted only where they must be, so plain ids are written bare.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    # With a "\n" terminator the writer leaves a bare "\r" unquoted, which the reader splits on.
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(_CSV_HEADER)
    for source in sorted(ranked):
        for target, score in ranked[source]:
            row = (source, target, f"{score:.6f}")
            (quote_all if "\r" in source or "\r" in target else writer).writerow(row)
    return buffer.getvalue()


def parse_ranked_csv(text: str) -> dict[str, list[tuple[str, float]]]:
    """Inverse of format_ranked_csv; raises ParseError with the line number.

    A score must be finite, and a (source, target) pair may appear only once.
    """
    rows = _split_rows(text)
    ranked: dict[str, list[tuple[str, float]]] = {}
    if [field.strip() for field in next(rows, (1, []))[1]] != _CSV_HEADER:
        raise ParseError("line 1: expected header 'source_id,target_id,score'")
    for number, fields in rows:
        if len(fields) != 3:
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            raise ParseError(f"line {number}: expected 3 comma-separated fields, got {len(fields)}")
        source, target, score_text = fields
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"line {number}: bad score {score_text!r}") from None
        if not math.isfinite(score):
            raise ParseError(f"line {number}: score {score_text!r} is not finite")
        ranked.setdefault(source, []).append((target, score))
    # One set at a time: a set over every pair would cost megabytes on a full ranking.
    for source, targets in ranked.items():
        seen: set[str] = set()
        for target, _ in targets:
            if target in seen:
                raise ParseError(f"pair ({source!r}, {target!r}) appears more than once")
            seen.add(target)
    return ranked


def _split_rows(text: str):
    """(line number, fields) of each record of `text`, as csv.reader reads them."""
    lines = text.split("\n")
    # csv.reader splits a line without quotes, "\r" or NUL on its commas alone,
    # unless a field exceeds its size limit, and no field is longer than its line.
    if ('"' in text or "\r" in text or "\0" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return _csv_rows(lines)
    return enumerate(map(str.split, lines, repeat(",")), start=1)


def _csv_rows(lines: list[str]):
    """(line number, fields) of each record, through csv.reader."""
    # Each line keeps its "\n", so quoted line breaks survive. An io.StringIO
    # over the text would copy it at four bytes a character.
    reader = csv.reader(line + "\n" for line in lines)
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
