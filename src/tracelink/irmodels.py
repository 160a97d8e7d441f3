"""tf-idf indexing and pairwise similarity under VSM, LSI and JS.

The term-document matrix uses raw term counts (including enrichment weights)
times ln(N/df). LSI takes a deterministic dense SVD of that matrix and
compares documents in the scaled topic space; JS compares smoothed term
distributions with base-2 Jensen-Shannon divergence.

`build_similarity_table` computes one n x n score matrix per table, and
consumers read its rows through the table's id -> row index. VSM and LSI
divide one Gram matrix of the tf-idf rows (or of the LSI topic coordinates,
from one SVD per table) by the outer product of the row norms. JS keeps the
exact per-pair arithmetic of `similarity_js` (sorted union vocabulary,
epsilon smoothing, base-2 KL) with the per-document work done once. All
stored similarities are clamped into [0, 1] and symmetric.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .corpus.types import Document
from .errors import ConfigError, NumericError, ParseError, ValidationError

MODELS = ("vsm", "lsi", "js")

_JS_EPSILON = 1e-9


@dataclass
class TermDocMatrix:
    """tf-idf weighted document vectors over a shared vocabulary."""

    vocabulary: list[str]
    doc_ids: list[str]
    weights: np.ndarray  # shape (n_docs, n_terms)
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def row(self, doc_id: str) -> np.ndarray:
        try:
            return self.weights[self._index[doc_id]]
        except KeyError:
            raise ValidationError(f"unknown document id {doc_id!r}") from None


def build_matrix(documents: list[Document]) -> TermDocMatrix:
    """Index documents into a tf-idf matrix; idf = ln(N/df), tf = raw count."""
    if not documents:
        raise ValidationError("cannot build a matrix from zero documents")
    ids = [d.artifact_id for d in documents]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids in matrix input")

    vocabulary = sorted({t for d in documents for t in d.weighted_terms()})
    if not vocabulary:
        raise ValidationError("empty vocabulary: all documents are empty")
    term_index = {t: i for i, t in enumerate(vocabulary)}

    n_docs = len(documents)
    tf = np.zeros((n_docs, len(vocabulary)))
    for row, doc in enumerate(documents):
        for term, count in doc.weighted_terms().items():
            tf[row, term_index[term]] = count
    df = np.count_nonzero(tf > 0, axis=0)
    idf = np.log(n_docs / np.maximum(df, 1))
    weights = tf * idf

    matrix = TermDocMatrix(vocabulary=vocabulary, doc_ids=ids, weights=weights)
    matrix._index = {doc_id: i for i, doc_id in enumerate(ids)}
    return matrix


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def similarity_vsm(matrix: TermDocMatrix, a: str, b: str) -> float:
    """Cosine of the two tf-idf vectors; 0 when either vector is all-zero."""
    return _cosine(matrix.row(a), matrix.row(b))


def default_lsi_rank(n_docs: int) -> int:
    return max(2, int(0.3 * n_docs))


def lsi_document_space(matrix: TermDocMatrix, k: int) -> np.ndarray:
    """Rows of V_k scaled by the top-k singular values (documents in topic space)."""
    max_rank = min(len(matrix.vocabulary), len(matrix.doc_ids))
    if not 1 <= k <= max_rank:
        raise ConfigError(f"LSI rank {k} outside [1, {max_rank}]")
    try:
        # weights is docs x terms; SVD of the term-document matrix A = weights.T
        # gives A = U S Vt with document coordinates in Vt.T.
        _, singular, vt = np.linalg.svd(matrix.weights.T, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    return vt.T[:, :k] * singular[:k]


def similarity_lsi(matrix: TermDocMatrix, k: int, a: str, b: str) -> float:
    """Cosine between two documents' rank-k topic coordinates."""
    space = lsi_document_space(matrix, k)
    index = {doc_id: i for i, doc_id in enumerate(matrix.doc_ids)}
    for doc_id in (a, b):
        if doc_id not in index:
            raise ValidationError(f"unknown document id {doc_id!r}")
    return _cosine(space[index[a]], space[index[b]])


def similarity_js(doc_a: Document, doc_b: Document) -> float:
    """1 minus the base-2 Jensen-Shannon divergence of the term distributions."""
    a, b = doc_a.weighted_terms(), doc_b.weighted_terms()
    vocabulary = sorted(set(a) | set(b))
    if not vocabulary:
        return 0.0
    return _js(
        np.array([a.get(t, 0.0) for t in vocabulary], dtype=float),
        np.array([b.get(t, 0.0) for t in vocabulary], dtype=float),
    )


def _js(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """JS similarity of two count vectors over the pair's sorted union vocabulary."""
    p = counts_a + _JS_EPSILON
    p = p / p.sum()
    q = counts_b + _JS_EPSILON
    q = q / q.sum()
    m = (p + q) / 2.0
    jsd = 0.5 * _kl_base2(p, m) + 0.5 * _kl_base2(q, m)
    return 1.0 - float(jsd)


def _kl_base2(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


class SimilarityTable:
    """Symmetric pairwise similarities in [0, 1] under one model.

    `scores[i, j]` is the similarity of `ids[i]` and `ids[j]`; only the
    strict upper triangle of the given matrix is read, so the stored matrix
    is exactly symmetric. A document has no similarity with itself.
    """

    def __init__(self, model: str, ids: list[str], scores: np.ndarray):
        if model not in MODELS:
            raise ConfigError(f"unknown IR model {model!r}; expected one of {MODELS}")
        n = len(ids)
        if len(set(ids)) != n:
            raise ValidationError("duplicate document ids in similarity table")
        if scores.shape != (n, n):
            raise ValidationError(f"score matrix shape {scores.shape} does not match {n} ids")
        upper = np.triu(np.clip(scores, 0.0, 1.0), 1)
        self.model = model
        self.ids = list(ids)
        # The zeros of `upper.T` also turn a clipped -0.0 into 0.0 ("0.000000").
        self.scores = upper + upper.T
        self._index = {doc_id: i for i, doc_id in enumerate(self.ids)}

    def _rows(self, ids: list[str]) -> list[int]:
        try:
            return [self._index[doc_id] for doc_id in ids]
        except KeyError as exc:
            raise ValidationError(f"unknown document id {exc.args[0]!r}") from None

    def score(self, a: str, b: str) -> float:
        if a == b:
            raise ValidationError(f"no similarity stored for pair ({a!r}, {b!r})")
        i, j = self._rows([a, b])
        return float(self.scores[i, j])

    def row_scores(self, a: str, others: list[str]) -> list[float]:
        """Similarities of `a` to each of `others`, in the order given."""
        if a in others:
            raise ValidationError(f"no similarity stored for pair ({a!r}, {a!r})")
        (i,) = self._rows([a])
        return self.scores[i, self._rows(others)].tolist()

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
    """Row-by-row cosines, with the norms and the division of `_cosine`."""
    norms = np.array([float(np.linalg.norm(row)) for row in vectors])
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = _gram(vectors) / np.outer(norms, norms)
    zero = norms == 0.0
    cosines[zero, :] = 0.0
    cosines[:, zero] = 0.0
    return cosines


def _js_matrix(documents: list[Document]) -> np.ndarray:
    """`similarity_js` for every pair, with the per-document work done once.

    Each pair still smooths and normalizes over its own union vocabulary:
    the columns of the shared sorted vocabulary that either document uses.
    """
    counts = [d.weighted_terms() for d in documents]
    vocabulary = sorted(set().union(*counts))
    column = {term: k for k, term in enumerate(vocabulary)}
    n = len(documents)
    dense = np.zeros((n, len(vocabulary)))
    used = np.zeros((n, len(vocabulary)), dtype=bool)
    for i, doc_counts in enumerate(counts):
        for term, count in doc_counts.items():
            dense[i, column[term]] = count
            used[i, column[term]] = True
    nonempty = [i for i, d in enumerate(documents) if d.total_mass() != 0]
    scores = np.zeros((n, n))
    for x, i in enumerate(nonempty):
        for j in nonempty[x + 1:]:
            union = np.flatnonzero(used[i] | used[j])
            scores[i, j] = _js(dense[i, union], dense[j, union])
    return scores


def build_similarity_table(
    documents: list[Document],
    model: str,
    lsi_rank: int | None = None,
) -> SimilarityTable:
    """Compute all pairwise similarities among `documents` under `model`.

    Documents that are entirely empty compare as 0 to everything. When every
    document is empty the table is all zeros (degenerate but well-defined).
    An LSI rank above min(vocabulary, documents) is lowered to that bound.
    """
    if model not in MODELS:
        raise ConfigError(f"unknown IR model {model!r}; expected one of {MODELS}")
    ids = [d.artifact_id for d in documents]
    if model == "js":
        return SimilarityTable(model, ids, _js_matrix(documents))
    if all(d.total_mass() == 0 for d in documents):
        return SimilarityTable(model, ids, np.zeros((len(ids), len(ids))))

    matrix = build_matrix(documents)
    if model == "vsm":
        vectors = matrix.weights
    else:
        k = lsi_rank if lsi_rank is not None else default_lsi_rank(len(documents))
        vectors = lsi_document_space(
            matrix, min(k, len(matrix.vocabulary), len(matrix.doc_ids))
        )
    return SimilarityTable(model, ids, _cosine_matrix(vectors))


def ranked(table: SimilarityTable, a: str, pool: list[str]) -> list[tuple[str, float]]:
    """`pool` with its similarities to `a`, by descending score, ties by ascending id."""
    return sorted(zip(pool, table.row_scores(a, pool)), key=lambda item: (-item[1], item[0]))


def top_related(
    table: SimilarityTable, a: str, pool: list[str], m: float, t: int
) -> list[tuple[str, float]]:
    """The first `t` of `ranked`, each scoring at least m times the best.

    An all-zero row selects nothing.
    """
    scored = ranked(table, a, pool)
    if not scored or scored[0][1] <= 0.0:
        return []
    cutoff = m * scored[0][1]
    return [(other, s) for other, s in scored if s >= cutoff][:t]


def rank_candidates(
    table: SimilarityTable,
    source_ids: list[str],
    target_ids: list[str],
) -> dict[str, list[tuple[str, float]]]:
    """Per-source target ranking, descending score with ascending-id tie-break."""
    return {source: ranked(table, source, target_ids) for source in source_ids}


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
    """Inverse of format_ranked_csv; raises ParseError with the line number."""
    # Each line keeps its "\n", so quoted line breaks survive. An io.StringIO
    # over the text would copy it at four bytes a character.
    reader = csv.reader(line + "\n" for line in text.split("\n"))
    ranked: dict[str, list[tuple[str, float]]] = {}
    try:
        if [field.strip() for field in next(reader, [])] != _CSV_HEADER:
            raise ParseError("line 1: expected header 'source_id,target_id,score'")
        for fields in reader:
            if len(fields) != 3:
                if not fields or (len(fields) == 1 and not fields[0].strip()):
                    continue
                raise ParseError(
                    f"line {reader.line_num}: expected 3 comma-separated fields, got {len(fields)}"
                )
            source, target, score_text = fields
            try:
                score = float(score_text)
            except ValueError:
                raise ParseError(f"line {reader.line_num}: bad score {score_text!r}") from None
            ranked.setdefault(source, []).append((target, score))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return ranked

