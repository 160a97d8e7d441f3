"""tf-idf indexing and the similarity table under VSM, LSI and JS.

Each table starts from the raw term counts, including enrichment weights,
as (row, column, count) triplets ordered by column, then row, with columns
in sorted term order. VSM and LSI scale the counts to tf-idf, times
ln(N/df). LSI takes a deterministic dense SVD of the tf-idf matrix and
compares documents in the scaled topic space; JS compares smoothed term
distributions with base-2 Jensen-Shannon divergence.

`build_similarity_table` computes one block of scores per table: a row
per document of a row set and a column per document of a column set, each
in the order given (by default every document, the full matrix), with 0 at
a document's cell with itself. VSM and LSI divide each cell's dot product
by its two documents' norms. A dot product adds its column products in
column order from +0.0, so a score does not depend on which other cells
the block has, and identical documents tie exactly: VSM sums the products
of the pairs of triplets that share a column in one ordered scatter, LSI
folds its dense topic coordinates over the block column by column. A VSM
norm is the square root of its document's squares added the same way, in
column order, the order of its cells, so a document and its exact copy
score g / (sqrt(g) sqrt(g)) with one sum g. LSI takes each norm with
`np.linalg.norm` of the document's row of topic coordinates. JS
scores each pair of documents once, over its own sorted union vocabulary
(epsilon smoothing, base-2 KL), with the per-document work done once: each
document's used columns form one sorted list, and a pair's union columns
are a merge of its two lists, so no step scans the whole vocabulary per
pair. It batches the pairs by union size, one row per pair, and reduces
along rows only, so each score is the one that pair would get alone and
exact ties stay exact. All stored similarities are clamped into [0, 1].

Ranking and selection take row and column positions only, and `_order`
owns their one order: a lexsort by descending score and then by each
column id's rank in sorted id order, so exact ties break by ascending id.
`selection_lists` applies it once to a block of rows over one pool, so
each row's list leads with its best, and each selection is a prefix of
that list (`kept`); `rank_candidates` applies it to the source x target
block, times the path multipliers.

A ranking has one form, `RankedLinks`, the long form: each link's source
code, target code and score in file order, with one id list per level.
`rank_candidates` builds it from the ordered block, `format_ranked_csv`
writes it and `parse_ranked_csv` reads it back, the latter from comma
splits of plain text in blocks of lines, with any other text, and every
malformed line, read through csv.reader. Evaluation reads it without a
Python tuple per link.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import accumulate, chain, count, repeat

import numpy as np

from .corpus.types import Document
from .errors import ConfigError, NumericError, ParseError, ValidationError

MODELS = ("vsm", "lsi", "js")

_JS_EPSILON = 1e-9
# Elements per gathered (pairs x union size) JS block. Larger blocks raise peak
# memory and save no time, and smaller ones pay more per-block overhead.
_JS_BLOCK = 1 << 12
# Cells per block of rows of the ordered scatter, which bounds its count array
# and, in practice, its pair arrays: each row triplet pairs with every column
# triplet of its term. Larger blocks raise peak memory at scale and save no time.
_CELL_BLOCK = 1 << 19
# Cells per block of rows of the fold, which then reads the same few rows of
# the topic coordinates for every column: about 2.4 times faster than
# unblocked for 1,000 x 1,500 cells with 450 coordinates each.
_FOLD_BLOCK = 1 << 15
# Lines per %-format of the CSV writer, which bounds its argument tuple and its
# score objects, so that only the text grows with the file.
_LINK_BLOCK = 1 << 16
# Characters per block of lines that the CSV reader splits at commas, which
# bounds its field strings. Larger blocks raise peak memory and save no time.
_PARSE_BLOCK = 1 << 15


def _triplets(documents: list[Document]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The vocabulary size and the term counts as (row, column, count) triplets.

    Columns are in sorted term order, and the triplets are ordered by column,
    then by row.
    """
    counts = [d.weighted_terms() for d in documents]
    column = dict(zip(sorted(set().union(*counts)), count()))
    sizes = np.fromiter(map(len, counts), np.intp, len(counts))
    total = int(sizes.sum())
    rows = np.repeat(np.arange(len(counts)), sizes)
    cols = np.fromiter(map(column.__getitem__, chain.from_iterable(counts)), np.intp, total)
    values = np.fromiter(chain.from_iterable(c.values() for c in counts), np.float64, total)
    order = np.argsort(cols, kind="stable")
    return len(column), rows[order], cols[order], values[order]


def _dense(n: int, width: int, rows: np.ndarray, cols: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """The triplets as a dense (n x width) matrix."""
    dense = np.zeros((n, width))
    dense[rows, cols] = values
    return dense


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


def sorted_rank(ids: list[str]) -> np.ndarray:
    """Each id's position in sorted id order."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


class SimilarityTable:
    """Similarities in [0, 1] of each row artifact with each column artifact.

    `scores[i, j]` is the similarity of `row_ids[i]` and `col_ids[j]`, 0 where
    both name the same artifact: the float64 block the builder wrote, which
    the table takes over, clips in place and adds +0.0 to, so that -0.0
    becomes 0.0. `id_rank[j]` is the position of `col_ids[j]` in sorted order.
    """

    def __init__(self, row_ids: list[str], col_ids: list[str], scores: np.ndarray):
        self.row_ids, self.col_ids, self.scores = list(row_ids), list(col_ids), scores
        self._rows, self._cols = dict(zip(row_ids, count())), dict(zip(col_ids, count()))
        shape = (len(self.row_ids), len(self.col_ids))
        if (len(self._rows), len(self._cols)) != shape:
            raise ValidationError("duplicate document ids in similarity table")
        if scores.dtype != np.float64 or scores.shape != shape:
            raise ValidationError(f"scores must be a float64 {shape} block, not {scores.shape}")
        np.clip(scores, 0.0, 1.0, out=scores)
        scores += 0.0
        self.id_rank = sorted_rank(self.col_ids)

    def score(self, a: str, b: str) -> float:
        """The similarity of two artifacts, from the cell (a, b) or else (b, a)."""
        for row, col in ((a, b), (b, a)):
            i, j = self._rows.get(row), self._cols.get(col)
            if a != b and i is not None and j is not None:
                return float(self.scores[i, j])
        raise ValidationError(f"no similarity stored for pair ({a!r}, {b!r})")

    def pairs(self) -> dict[tuple[str, str], float]:
        """Every cell of two artifacts, keyed by their ids in ascending order."""
        return {(a, b) if a <= b else (b, a): score
                for a, row in zip(self.row_ids, self.scores.tolist())
                for b, score in zip(self.col_ids, row) if a != b}


def _scatter(n: int, doc_at: np.ndarray, term_at: np.ndarray, values: np.ndarray,
             rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each block cell's sum of products over the columns its two documents share, in order.

    The triplets of n documents are ordered by column, then document, and
    each of a row document pairs with every triplet of its column whose
    document is a column, at the cell of the two: listed by row triplet, so
    by column for every cell. One `np.bincount` per block of rows adds each
    cell's products from +0.0 in that order, as a loop over the columns
    would: identical documents tie exactly with every third one, where a
    blocked BLAS product (`x @ x.T`) sums by position and can split them by
    an ulp. With weights of 1 a cell counts its shared columns, exactly.
    """
    row_at, col_at = np.full((2, n), -1)  # each document's row and column, or -1
    row_at[rows], col_at[cols] = np.arange(len(rows)), np.arange(len(cols))
    row_at, col_at = row_at[doc_at], col_at[doc_at]
    partners = np.flatnonzero(col_at >= 0)
    # Each triplet's term column runs over partners[lo:hi].
    lo = np.searchsorted(term_at[partners], term_at, side="left")
    take = np.searchsorted(term_at[partners], term_at, side="right") - lo
    width = len(cols)
    gram = np.zeros((len(rows), width))
    step = max(1, _CELL_BLOCK // max(width, 1))
    for start in range(0, len(rows), step):
        block = gram[start:start + step]
        mine = np.flatnonzero((row_at >= start) & (row_at < start + len(block)))
        counts = take[mine]
        first = np.repeat(mine, counts)
        offsets = np.repeat(lo[mine] - np.cumsum(counts) + counts, counts)
        second = partners[offsets + np.arange(len(offsets))]
        cells = (row_at[first] - start) * width + col_at[second]
        weights = values[first] * values[second]
        block[...] = np.bincount(cells, weights, block.size).reshape(block.shape)
    return gram


def _fold(vectors: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each block cell's dot product of two rows of `vectors`, column by column in order.

    It adds the same products as `_scatter` in the same order, and also those
    of a zero entry. Each of those is ±0.0, which leaves every sum as it is:
    a sum starts at +0.0 and never becomes -0.0, since x + (-x) is +0.0.
    """
    gram = np.zeros((len(rows), len(cols)))
    step = max(1, _FOLD_BLOCK // max(len(cols), 1))
    right = vectors[cols].T.copy()  # contiguous columns
    for start in range(0, len(rows), step):
        block = gram[start:start + step]
        for a, b in zip(vectors[rows[start:start + step]].T, right):
            block += np.multiply.outer(a, b)
    return gram


def _cosines(gram: np.ndarray, norms: np.ndarray, rows: np.ndarray,
             cols: np.ndarray) -> np.ndarray:
    """`gram` divided in place by its cells' two norms; a zero norm or a self cell scores 0.

    It works by blocks of `_CELL_BLOCK` cells, so no divisor or mask is as large as `gram`.
    """
    col_norms = norms[cols]
    step = max(1, _CELL_BLOCK // max(len(cols), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(rows), step):
            block, mine = gram[start:start + step], rows[start:start + step]
            block /= norms[mine, None] * col_norms
            block[mine[:, None] == cols] = 0.0
    gram[norms[rows] == 0.0] = 0.0
    gram[:, col_norms == 0.0] = 0.0
    return gram


def _js_block(n: int, width: int, doc_at: np.ndarray, term_at: np.ndarray, values: np.ndarray,
              rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """1 - base-2 JSD of each block cell of two distinct nonempty documents, in pair blocks.

    Every other cell stays 0, and a pair with both its cells in the block is
    scored once and written to both. Each pair smooths and normalizes over
    its own union vocabulary: the columns of the shared sorted vocabulary
    that either document uses. Its size L is |A| + |B| - |A n B|, with the
    shared counts from `_scatter` (weights of 1). Pairs are grouped by L.
    For each block of a group, the two ascending column lists of every pair,
    padded with the sentinel V (the vocabulary size), are sorted together
    along the row; the values that differ from their left neighbour and are
    not V are the pair's union columns in vocabulary order. So a block costs
    O(pairs x L), not O(pairs x V). Each block is gathered from the flat
    counts into two (pairs x L) arrays. Every reduction runs along a row,
    so each score sums exactly its own pair's values in the same order as a
    per-pair computation, and exact ties (say, between duplicates) stay exact.

    A document uses exactly its columns with a count above 0. Epsilon is
    positive, so every smoothed probability is positive and the KL sums
    need no `p > 0` mask.
    """
    used = values > 0
    doc_at, term_at, values = doc_at[used], term_at[used], values[used]
    scores = np.zeros((len(rows), len(cols)))
    lengths = np.bincount(doc_at, minlength=n)
    row_at, col_at = np.full((2, n), -1)  # each document's row and column, or -1
    row_at[rows], col_at[cols] = np.arange(len(rows)), np.arange(len(cols))
    i, j = np.nonzero((lengths[rows] > 0)[:, None] & (lengths[cols] > 0))
    a, b = rows[i], cols[j]
    keep = (a != b) & ~((row_at[b] >= 0) & (col_at[a] >= 0) & (b < a))
    i, j = i[keep], j[keep]
    if not len(i):
        return scores
    shared = _scatter(n, doc_at, term_at, np.ones(len(doc_at)), rows, cols)[i, j]
    flat = _dense(n, width, doc_at, term_at, values).ravel()
    # Row d holds document d's used columns in ascending order, then the sentinel V.
    padded = np.full((n, lengths.max()), width)
    padded[np.arange(lengths.max()) < lengths[:, None]] = term_at[np.argsort(doc_at, kind="stable")]
    sizes = lengths[rows[i]] + lengths[cols[j]] - shared
    order = np.argsort(sizes, kind="stable")
    i, j, sizes = i[order], j[order], sizes[order]
    similarity = np.empty(len(i))
    bounds = np.r_[0, np.flatnonzero(np.diff(sizes)) + 1, len(sizes)].tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        size = int(sizes[lo])
        step = max(1, _JS_BLOCK // size)
        for k in range(lo, hi, step):
            a, b = rows[i[k:min(k + step, hi)]], cols[j[k:min(k + step, hi)]]
            merged = np.concatenate(
                (padded[a, :lengths[a].max()], padded[b, :lengths[b].max()]), axis=1
            )
            merged.sort(axis=1)
            keep = merged != width
            keep[:, 1:] &= merged[:, 1:] != merged[:, :-1]
            union = merged[keep].reshape(len(a), size)
            p = flat.take(a[:, None] * width + union) + _JS_EPSILON
            p = p / p.sum(axis=1, keepdims=True)
            q = flat.take(b[:, None] * width + union) + _JS_EPSILON
            q = q / q.sum(axis=1, keepdims=True)
            m = (p + q) / 2.0
            jsd = (0.5 * np.sum(p * np.log2(p / m), axis=1)
                   + 0.5 * np.sum(q * np.log2(q / m), axis=1))
            similarity[k:k + len(a)] = 1.0 - jsd
    scores[i, j] = similarity
    a, b = rows[i], cols[j]
    mirrored = (row_at[b] >= 0) & (col_at[a] >= 0)
    scores[row_at[b[mirrored]], col_at[a[mirrored]]] = similarity[mirrored]
    return scores


def build_similarity_table(
    documents: list[Document],
    model: str,
    lsi_rank: int | None = None,
    rows: np.ndarray | slice = slice(None),
    cols: np.ndarray | slice = slice(None),
) -> SimilarityTable:
    """Similarities under `model` of each document of `rows` with each document of `cols`.

    `rows` and `cols` index `documents` and default to every document. The
    counts are listed once, as triplets, and handed to the model. A
    document's cell with itself is 0. Documents that are entirely empty
    compare as 0 to everything, and when every document is empty the table
    is all zeros (degenerate but well-defined).
    """
    if model not in MODELS:
        raise ConfigError(f"unknown IR model {model!r}; expected one of {MODELS}")
    ids = [d.artifact_id for d in documents]
    n = len(ids)
    rows, cols = np.arange(n)[rows], np.arange(n)[cols]
    row_ids, col_ids = [ids[r] for r in rows.tolist()], [ids[c] for c in cols.tolist()]
    width, doc_at, term_at, values = _triplets(documents)
    if model == "js":
        scores = _js_block(n, width, doc_at, term_at, values, rows, cols)
        return SimilarityTable(row_ids, col_ids, scores)
    if not width:
        return SimilarityTable(row_ids, col_ids, np.zeros((len(rows), len(cols))))
    df = np.bincount(term_at[values > 0], minlength=width)
    values = values * np.log(n / np.maximum(df, 1))[term_at]
    if model == "lsi":
        k = lsi_rank if lsi_rank is not None else default_lsi_rank(n)
        weights = _dense(n, width, doc_at, term_at, values)
        del doc_at, term_at, values  # The SVD sets the peak: free the triplets first.
        vectors = lsi_document_space(weights, k)
        norms = np.array([np.linalg.norm(row) for row in vectors])
        gram = _fold(vectors, rows, cols)
    else:
        nonzero = values != 0.0
        doc_at, term_at, values = doc_at[nonzero], term_at[nonzero], values[nonzero]
        gram = _scatter(n, doc_at, term_at, values, rows, cols)
        norms = np.sqrt(np.bincount(doc_at, values * values, n))
    return SimilarityTable(row_ids, col_ids, _cosines(gram, norms, rows, cols))


def _order(table: SimilarityTable, cols: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The order of `cols` along the last axis of `scores`: descending score, then ascending id."""
    return np.lexsort((np.broadcast_to(table.id_rank[cols], scores.shape), -scores), axis=-1)


def selection_lists(table: SimilarityTable, rows: np.ndarray, pool: np.ndarray,
                    t: int) -> tuple[list[list[int]], list[list[float]]]:
    """Per row of `rows`: its first t columns of `pool` in `_order`, and their scores.

    A list descends, so it leads with the row's best over the pool. A row's
    cell with itself is 0, and `kept` never keeps a 0, so a level can be its
    own pool: the list then serves the pool without the row.
    """
    scores = table.scores[np.ix_(rows, pool)]
    order = _order(table, pool, scores)[:, :t]
    return pool[order].tolist(), np.take_along_axis(scores, order, axis=1).tolist()


def kept(scores: list[float], m: float, t: int) -> int:
    """How many of a selection list's first t `scores` are above 0 and at least m times its
    first, the row's best: as the list descends, that many lead it. A 0 is never kept."""
    return sum(0.0 < score >= m * scores[0] for score in scores[:t])


def rank_candidates(
    table: SimilarityTable, sources: np.ndarray, targets: np.ndarray, scale: np.ndarray | float
) -> RankedLinks:
    """Each source's targets by descending score, ties by ascending id, with those scores.

    The scores are the table's cells of the rows `sources` and the columns
    `targets`, times `scale`: a number, or one multiplier per pair. The long
    form lists the ids in the order given and each source's links in rank
    order, source by source.
    """
    scores = table.scores[np.ix_(sources, targets)] * scale
    order = _order(table, targets, scores)
    return RankedLinks(
        [table.row_ids[row] for row in sources.tolist()],
        np.repeat(np.arange(len(sources), dtype=np.int64), len(targets)),
        [table.col_ids[col] for col in targets.tolist()],
        order.ravel(),
        np.take_along_axis(scores, order, axis=1).ravel(),
    )


_CSV_HEADER = ["source_id", "target_id", "score"]


def _csv_fields(ids: list[str], quoting: int) -> list[str]:
    """Each id as `csv.writer` writes a row's first field, with the comma after it.

    An id the writer refuses (Python 3.10's refuses NUL) raises ValidationError.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=quoting)
    # A lone empty field is written '""', so each id takes an empty second field. Half the
    # length of a row of two empty fields (`writerow` returns it) follows each row's comma.
    try:
        ends = list(accumulate(map(writer.writerow, zip(ids, repeat(""))),
                               initial=writer.writerow(("", ""))))
    except csv.Error as exc:
        for doc_id in ids:  # name the first id the writer refuses
            try:
                writer.writerow((doc_id, ""))
            except csv.Error:
                raise ValidationError(f"cannot write id {doc_id!r} as CSV: {exc}") from exc
        raise
    cut, text = ends[0] // 2, buffer.getvalue()
    return [text[start:end - cut] for start, end in zip(ends, ends[1:])]


def _csv_columns(links: RankedLinks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The links in file order: their two id fields, each with its comma, their scores, and
    whether each is written as under csv.QUOTE_ALL.

    With a "\n" terminator the writer leaves a bare "\r" unquoted, which the
    reader splits on, so a link with a "\r" in either id quotes every field.
    """
    order = np.argsort(sorted_rank(links.sources)[links.source_codes], kind="stable")
    columns = [(links.sources, links.source_codes[order]),
               (links.targets, links.target_codes[order])]
    quoted = np.any([np.array(["\r" in doc_id for doc_id in ids], bool)[codes]
                     for ids, codes in columns], axis=0)
    fields = np.empty((len(order), 2), object)
    for column, (ids, codes) in enumerate(columns):
        for quoting, rows in ((csv.QUOTE_MINIMAL, ~quoted), (csv.QUOTE_ALL, quoted)):
            fields[rows, column] = np.array(_csv_fields(ids, quoting), object)[codes[rows]]
    return fields, links.scores[order], quoted


def format_ranked_csv(links: RankedLinks) -> str:
    """CSV export: source_id,target_id,score sorted by source id, each source's links in order.

    Fields are quoted only where they must be, so plain ids are written bare.
    Each id's field comes from `csv.writer` once, and each block of
    `_LINK_BLOCK` lines from one %-format.
    """
    fields, scores, quoted = _csv_columns(links)
    lines = ("%s%s%.6f\n", '%s%s"%.6f"\n')  # each quoted as csv.QUOTE_ALL writes the score
    text = [",".join(_CSV_HEADER) + "\n"]
    for start in range(0, len(scores), _LINK_BLOCK):
        block = slice(start, start + _LINK_BLOCK)
        mine = quoted[block]
        cells = np.empty((len(mine), 3), object)
        cells[:, :2], cells[:, 2] = fields[block], scores[block].tolist()
        layout = "".join(map(lines.__getitem__, mine.tolist())) if mine.any() else lines[0] * len(mine)
        text.append(layout % tuple(cells.ravel()))
    return "".join(text)


class RankedLinks(Mapping):
    """A ranking in long form: one entry per link, in file order.

    `sources` and `targets` list distinct ids, and link k runs from
    `sources[source_codes[k]]` to `targets[target_codes[k]]` with score
    `scores[k]`. A source may have no links. `parse_ranked_csv` lists the
    ids in order of first appearance, and `rank_candidates` in the order it
    was given them. Read as a mapping it is each source's (target, score)
    list in file order.
    """

    def __init__(self, sources: list[str], source_codes: np.ndarray,
                 targets: list[str], target_codes: np.ndarray, scores: np.ndarray):
        self.sources = sources
        self.source_codes = source_codes
        self.targets = targets
        self.target_codes = target_codes
        self.scores = scores
        self._index = {source: code for code, source in enumerate(sources)}

    @cached_property
    def by_source(self) -> tuple[np.ndarray, np.ndarray]:
        """The links grouped by source, in file order within each source.

        `order[starts[c]:starts[c + 1]]` are the links of `sources[c]`.
        """
        order = np.argsort(self.source_codes, kind="stable")
        starts = np.searchsorted(self.source_codes[order], np.arange(len(self.sources) + 1))
        return order, starts

    def pair_codes(self) -> np.ndarray:
        """One integer per link, equal for two links exactly when their pairs are."""
        return self.source_codes * len(self.targets) + self.target_codes

    def in_pairs(self, pairs: Iterable[tuple[str, str]]) -> np.ndarray:
        """Whether each link's (source, target) pair is one of `pairs`."""
        target_index = {target: code for code, target in enumerate(self.targets)}
        wanted = [self._index[s] * len(self.targets) + target_index[t]
                  for s, t in pairs if s in self._index and t in target_index]
        return np.isin(self.pair_codes(), np.array(wanted, np.int64))

    def __getitem__(self, source: str) -> list[tuple[str, float]]:
        order, starts = self.by_source
        code = self._index[source]
        links = order[starts[code]:starts[code + 1]]
        names = map(self.targets.__getitem__, self.target_codes[links].tolist())
        return list(zip(names, self.scores[links].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def __repr__(self) -> str:
        return f"RankedLinks({dict(self)!r})"


def _codes(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct `ids` in order of first appearance, and each id's index among them."""
    index: dict[str, int] = {}
    codes = _code_into(index, ids)
    return list(index), codes


def _code_into(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """The codes of `ids` in `index`, each new id taking the next code in order of appearance."""
    new = [doc_id for doc_id in dict.fromkeys(ids) if doc_id not in index]
    index.update(zip(new, count(len(index))))
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def parse_ranked_csv(text: str) -> RankedLinks:
    """Inverse of format_ranked_csv; raises ParseError with the line number.

    A score must be finite, and a (source, target) pair may appear only once:
    a repeat names the first line whose pair an earlier line has. Plain text
    is split at commas in blocks of lines (`_plain_links`); the rest, and
    every other error, goes through csv.reader.
    """
    links, lines = _plain_links(text), None
    if links is None:
        links, lines = _read_rows(text)
    ordered = links.pair_codes()
    ordered.sort()  # in place: no second array of codes
    if (ordered[1:] == ordered[:-1]).any():
        codes = links.pair_codes()
        # A stable sort keeps each pair's links in file order, so every link after
        # the first of its pair is a repeat.
        order = np.argsort(codes, kind="stable")
        again = int(order[1:][np.diff(codes[order]) == 0].min())
        source = links.sources[links.source_codes[again]]
        target = links.targets[links.target_codes[again]]
        number = again + 2 if lines is None else lines[again]
        raise ParseError(f"line {number}: pair ({source!r}, {target!r}) appears more than once")
    return links


def _plain_links(text: str) -> RankedLinks | None:
    """The long form of `text` from comma splits, or None where csv.reader must read it.

    csv.reader reads a line without quotes, "\r" or NUL as its comma-split
    fields, unless a field exceeds its size limit. In text without quotes
    every "\r\n" or "\r" ends a line for csv.reader too, so such text has
    them read as "\n" first. Any other text, and text
    with a bad header, a blank line, a line without three fields or a score
    that is not a finite number, goes to csv.reader, which names the line.
    The lines are split in blocks of whole lines, each ending at the first
    line end past `_PARSE_BLOCK` characters, and each block's ids are coded
    into running dicts in order of first appearance, so only one block's
    field strings are held at a time. The arrays hold a link per line end,
    as each block checks.
    """
    if "\r" in text and '"' not in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = text.find("\n")
    if (start < 0 or '"' in text or "\0" in text
            or [field.strip() for field in text[:start].split(",")] != _CSV_HEADER):
        return None
    stop = len(text) - text.endswith("\n")
    source_index: dict[str, int] = {}
    target_index: dict[str, int] = {}
    size = text.count("\n", start, stop)
    source_codes, target_codes = np.empty(size, np.int64), np.empty(size, np.int64)
    scores = np.empty(size)
    done = 0
    limit = csv.field_size_limit()
    while start < stop:
        end = text.find("\n", start + _PARSE_BLOCK, stop)
        block = text[start:stop if end < 0 else end]
        start += len(block)
        # Each line keeps the "\n" before it, and a comma goes in front of every
        # "\n", so a field holds at most one "\n", at its start. With as many
        # lines as sources and a "\n" leading every distinct source, every line
        # has three fields.
        fields = block.replace("\n", ",\n").split(",")
        sources, targets, score_texts = fields[1::3], fields[2::3], fields[3::3]
        if len(fields) != 3 * len(sources) + 1 or block.count("\n") != len(sources):
            return None
        rows = slice(done, done + len(sources))
        done = rows.stop
        try:
            scores[rows] = np.fromiter(map(float, score_texts), np.float64, len(score_texts))
        except ValueError:
            return None
        # No field of a block is longer than the block.
        if (not np.isfinite(scores[rows]).all()
                or len(block) > limit and max(map(len, fields)) > limit):
            return None
        source_codes[rows] = _code_into(source_index, sources)
        target_codes[rows] = _code_into(target_index, targets)
    if not all(source.startswith("\n") for source in source_index):
        return None
    source_ids = [source[1:] for source in source_index]
    return RankedLinks(source_ids, source_codes, list(target_index), target_codes, scores)


def _read_rows(text: str) -> tuple[RankedLinks, list[int]]:
    """The long form of `text` through csv.reader, with each link's line number."""
    rows = _csv_rows(text.split("\n"))
    if [field.strip() for field in next(rows, (1, []))[1]] != _CSV_HEADER:
        raise ParseError("line 1: expected header 'source_id,target_id,score'")
    sources: list[str] = []
    targets: list[str] = []
    scores: list[float] = []
    lines: list[int] = []
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
        sources.append(source)
        targets.append(target)
        scores.append(score)
        lines.append(number)
    source_ids, source_codes = _codes(sources)
    target_ids, target_codes = _codes(targets)
    links = RankedLinks(source_ids, source_codes, target_ids, target_codes,
                        np.array(scores, np.float64))
    return links, lines


def _csv_rows(lines: list[str]):
    """(line number, fields) of each record, through csv.reader."""
    # Each line keeps its "\n", so quoted line breaks survive, and is cut after each
    # bare "\r" (one not before "\n"), which csv.reader rejects inside an unquoted
    # field but takes as a line end at the end of one. An io.StringIO over the text
    # would copy it at four bytes a character.
    reader = csv.reader(chain.from_iterable(
        re.split(r"(?<=\r)(?!\n)", line + "\n") if "\r" in line else (line + "\n",)
        for line in lines))
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
