"""tf-idf matrix, the VSM/LSI/JS similarity table, and ranking.

Oracles are deliberately independent of the implementation: plain-Python
dot/norm loops for cosine, an eigendecomposition of the Gram matrix for the
LSI document space, and a direct two-term summation for Jensen-Shannon.
`similarity_js` is the exact per-pair JS reference the table must equal.
"""

import csv
import dataclasses
import io
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tracelink import irmodels
from tracelink.corpus.types import Document
from tracelink.errors import ConfigError, ParseError, ValidationError
from tracelink.evaluate import evaluate_ranking
from tracelink.irmodels import (
    MODELS,
    RankedLinks,
    SimilarityTable,
    _JS_EPSILON,
    build_similarity_table,
    default_lsi_rank,
    format_ranked_csv,
    lsi_document_space,
    parse_ranked_csv,
    rank_candidates,
)

from test_transitive import hand_table, rows


# Ids lean on the characters that CSV quoting and line splitting treat specially.
_ids = st.text(st.sampled_from(',"\r\n\u2028 x') | st.characters(), min_size=1, max_size=6)
# The writer's ids add NUL and the empty id.
_writer_ids = st.just("") | st.text(st.sampled_from(',"\r\n\0 x') | st.characters(),
                                    min_size=1, max_size=6)

_CSV_WRITER = csv.writer


class NulRefusingWriter:
    """`csv.writer` as Python 3.10 has it: a field that holds NUL raises csv.Error."""

    def __init__(self, *args, **kwargs):
        self._writer = _CSV_WRITER(*args, **kwargs)

    def writerow(self, row):
        if any("\0" in field for field in row):
            raise csv.Error("need to escape, but no escapechar set")
        return self._writer.writerow(row)


def _writer_refuses_nul():
    try:
        csv.writer(io.StringIO()).writerow(["\0"])
    except csv.Error:
        return True
    return False


WRITER_REFUSES_NUL = _writer_refuses_nul()


def refused_by_writer(links):
    """True where this Python's csv.writer refuses an id of `links`, as 3.10's does NUL."""
    return WRITER_REFUSES_NUL and any("\0" in doc_id for doc_id in [*links.sources, *links.targets])


# Text without '"', "\r" or NUL, which `parse_ranked_csv` splits without csv.reader.
_plain_id = st.text(st.sampled_from("ab \u2028\x0b\x1c\u00e9") | st.characters(
    exclude_characters='",\r\n\0'), max_size=4)
_score_text = st.sampled_from(["0.5", " 1 ", "-0.0", "1e999", "inf", "nan", "-inf", "1_0", "x", ""])
_plain_field = st.one_of(_plain_id, _score_text)


_ranking_lines = st.lists(
    st.one_of(
        st.sampled_from(["", " ", "\t \u2028", "x", "a,b,c,d"]),
        st.lists(_plain_field, min_size=2, max_size=4).map(",".join),
        st.tuples(_plain_id, _plain_id, _score_text).map(",".join),
    ),
    max_size=8,
)
# Few ids, so sources repeat, one source's rows interleave with another's, and pairs repeat.
_small_id = st.sampled_from(["a", "b", " a", "\u00e9"])
_small_rows = st.lists(
    st.tuples(_small_id, _small_id | st.sampled_from(["t", "t2", "u", "\u2028"]),
              st.sampled_from(["0.5", " 1 ", "-0.0"])).map(",".join),
    max_size=8,
)
_ranking_texts = st.builds(
    lambda header, body, end: "\n".join([header, *body]) + end,
    st.sampled_from(["source_id,target_id,score", " source_id , target_id,score", "a,b"]),
    _ranking_lines,
    st.sampled_from(["", "\n", "\n\n"]),
) | st.builds(lambda body: "\n".join(["source_id,target_id,score", *body, ""]), _small_rows)


def long_form(ranked):
    """`ranked`, a dict of each source's (target, score) list in rank order, as `RankedLinks`.

    The targets are listed in order of first appearance.
    """
    links = [link for targets in ranked.values() for link in targets]
    targets, target_codes = irmodels._codes([target for target, _ in links])
    sizes = list(map(len, ranked.values()))
    source_codes = np.repeat(np.arange(len(ranked), dtype=np.int64), sizes)
    scores = np.array([score for _, score in links], np.float64)
    return RankedLinks(list(ranked), source_codes, targets, target_codes, scores)


def oracle_format_ranked_csv(ranked):
    """`format_ranked_csv` as a loop over a dict of each source's (target, score) list writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["source_id", "target_id", "score"])
    for source in sorted(ranked):
        for target, score in ranked[source]:
            row = (source, target, f"{score:.6f}")
            (quote_all if "\r" in source or "\r" in target else writer).writerow(row)
    return buffer.getvalue()


def oracle_parse_ranked_csv(text):
    """`parse_ranked_csv` as a dict-building loop over csv.reader's rows computes it."""
    rows = irmodels._csv_rows(text.split("\n"))
    ranked = {}
    if [field.strip() for field in next(rows, (1, []))[1]] != ["source_id", "target_id", "score"]:
        raise ParseError("line 1: expected header 'source_id,target_id,score'")
    pairs = []
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
        pairs.append((number, source, target))
    seen = set()
    for number, source, target in pairs:
        if (source, target) in seen:
            raise ParseError(f"line {number}: pair ({source!r}, {target!r}) appears more than once")
        seen.add((source, target))
    return ranked


def _parse_outcome(parse, text):
    """The parsed mapping's items in order, or the error's message."""
    try:
        return list(parse(text).items())
    except ParseError as exc:
        return ("ParseError", str(exc))


def _row_cases(text):
    """The cases of `text` that only a parse holding every row in file order gets right."""
    outcome = _parse_outcome(oracle_parse_ranked_csv, text)
    if isinstance(outcome, tuple):
        return {"repeated pair"} if outcome[1].endswith("appears more than once") else set()
    sources = [fields[0] for fields in csv.reader(text.split("\n")[1:]) if len(fields) == 3]
    runs = [s for i, s in enumerate(sources) if i == 0 or s != sources[i - 1]]
    return ({"repeated source"} if len(set(sources)) < len(sources) else set()) | (
        {"interleaved sources"} if len(set(runs)) < len(runs) else set())


def doc(doc_id, terms, added=None):
    return Document(
        artifact_id=doc_id,
        terms=Counter(terms),
        added_biterm_terms=Counter(added or {}),
    )


def random_documents(rng, n_docs, n_terms):
    vocabulary = [f"t{i}" for i in range(n_terms)]
    docs = []
    for d in range(n_docs):
        size = rng.randint(1, n_terms)
        terms = Counter(rng.choices(vocabulary, k=size))
        docs.append(doc(f"d{d}", terms))
    return docs


def spearman_rank_correlation(a, b):
    """Spearman correlation of two equal-length score lists (midrank ties)."""
    assert len(a) == len(b) and a

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    ra, rb = ranks(a), ranks(b)
    mean_a = sum(ra) / len(ra)
    mean_b = sum(rb) / len(rb)
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(ra, rb))
    var_a = math.sqrt(sum((x - mean_a) ** 2 for x in ra))
    var_b = math.sqrt(sum((y - mean_b) ** 2 for y in rb))
    if var_a == 0 or var_b == 0:
        return 1.0 if ra == rb else 0.0
    return cov / (var_a * var_b)


def _js(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """JS similarity of two count vectors over one pair's sorted union vocabulary."""
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


def similarity_js(doc_a, doc_b):
    """1 minus the base-2 JSD of two documents, over the pair's own sorted union vocabulary.

    The exact per-pair reference: the table must equal it bit for bit, so a
    vectorized JS that splits a score tie fails against it.
    """
    a, b = doc_a.weighted_terms(), doc_b.weighted_terms()
    vocabulary = sorted(set(a) | set(b))
    if not vocabulary:
        return 0.0
    return _js(
        np.array([a.get(t, 0.0) for t in vocabulary], dtype=float),
        np.array([b.get(t, 0.0) for t in vocabulary], dtype=float),
    )


@dataclasses.dataclass
class TfIdf:
    """The tf-idf rows that the vsm and lsi tables are built from, with their labels."""

    vocabulary: list[str]
    doc_ids: list[str]
    weights: np.ndarray


def tf_idf(docs):
    """The tf-idf matrix of `docs` from a dense loop: tf = raw count, idf = ln(N/df)."""
    counts = [d.weighted_terms() for d in docs]
    vocabulary = sorted(set().union(*counts))
    weights = np.zeros((len(docs), len(vocabulary)))
    for j, term in enumerate(vocabulary):
        df = sum(c[term] > 0 for c in counts)
        idf = np.log(len(docs) / np.maximum(df, 1))
        for i, c in enumerate(counts):
            weights[i, j] = c[term] * idf
    return TfIdf(vocabulary, [d.artifact_id for d in docs], weights)


def lsi_matrix(matrix, k):
    """`matrix` with its rows replaced by the rank-k LSI document coordinates."""
    return dataclasses.replace(matrix, weights=lsi_document_space(matrix.weights, k))


def brute_cosine(matrix, a, b):
    """Independent cosine: explicit loops over the stored weights."""
    ia = matrix.doc_ids.index(a)
    ib = matrix.doc_ids.index(b)
    va = [float(x) for x in matrix.weights[ia]]
    vb = [float(x) for x in matrix.weights[ib]]
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(y * y for y in vb))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


class TestBuildMatrix:
    """The count matrix, scaled to tf-idf, and the all-empty corpus."""

    def test_two_doc_idf(self):
        matrix = tf_idf([doc("d1", ["a", "b"]), doc("d2", ["a"])])
        col_a = matrix.vocabulary.index("a")
        col_b = matrix.vocabulary.index("b")
        assert matrix.weights[0, col_a] == 0.0          # idf(a) = ln(2/2) = 0
        assert matrix.weights[0, col_b] == pytest.approx(math.log(2.0))
        assert matrix.weights[1, col_b] == 0.0          # tf = 0

    def test_single_document_degenerate(self):
        matrix = tf_idf([doc("d1", ["a", "b", "b"])])
        assert np.all(matrix.weights == 0.0)
        # Terms that every document uses weigh 0, and an all-zero row scores 0.
        table = build_similarity_table([doc("d1", ["a", "b", "b"]), doc("d2", ["a", "b"])], "vsm")
        assert table.score("d1", "d2") == 0.0

    def test_all_empty_corpus_scores_zero(self):
        for model in irmodels.MODELS:
            table = build_similarity_table([doc("d1", []), doc("d2", [])], model, lsi_rank=1)
            assert table.scores.tolist() == [[0.0, 0.0], [0.0, 0.0]]
            assert build_similarity_table([], model).scores.shape == (0, 0)

    def test_biterm_weights_count_into_tf(self):
        matrix = tf_idf([
            doc("d1", ["a"], added={"x_y": 3}),
            doc("d2", ["a"]),
        ])
        col = matrix.vocabulary.index("x_y")
        assert matrix.weights[0, col] == pytest.approx(3 * math.log(2.0))


class TestVsm:
    def test_identical_documents(self):
        docs = [doc("d1", ["a", "b"]), doc("d2", ["a", "b"]), doc("d3", ["c"])]
        assert build_similarity_table(docs, "vsm").score("d1", "d2") == pytest.approx(1.0)

    def test_disjoint_documents(self):
        docs = [doc("d1", ["a"]), doc("d2", ["b"]), doc("d3", ["a", "b"])]
        assert build_similarity_table(docs, "vsm").score("d1", "d2") == 0.0

    def test_three_doc_fixture_matches_brute_force(self):
        docs = [doc("d0", ["a", "b", "c"]), doc("d1", ["a", "a", "d"]), doc("d2", ["b", "d"])]
        matrix = tf_idf(docs)
        table = build_similarity_table(docs, "vsm")
        for a, b in id_pairs(matrix.doc_ids):
            assert table.score(a, b) == pytest.approx(brute_cosine(matrix, a, b), abs=1e-12)

    def test_random_matrices_against_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            docs = random_documents(rng, rng.randint(2, 20), rng.randint(2, 50))
            matrix = tf_idf(docs)
            table = build_similarity_table(docs, "vsm")
            ids = [d.artifact_id for d in docs]
            for a, b in zip(ids, ids[1:]):
                assert abs(table.score(a, b) - brute_cosine(matrix, a, b)) <= 1e-10


def oracle_lsi_space(matrix, k):
    """Document coordinates from the Gram matrix eigendecomposition.

    A = U S Vt over terms x docs, so A.T A = V S^2 V.T: eigenvectors of the
    docs x docs Gram matrix give V, eigenvalues give the squared singular
    values. Independent route from the implementation's SVD.
    """
    a = matrix.weights.T  # terms x docs
    gram = a.T @ a
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1][:k]
    singular = np.sqrt(np.clip(eigvals[order], 0.0, None))
    return eigvecs[:, order] * singular


def oracle_lsi_cosine(matrix, k, a, b):
    space = oracle_lsi_space(matrix, k)
    ia = matrix.doc_ids.index(a)
    ib = matrix.doc_ids.index(b)
    u, v = space[ia], space[ib]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


class TestLsi:
    def test_full_rank_equals_vsm(self):
        rng = random.Random(11)
        docs = random_documents(rng, 6, 12)
        matrix = tf_idf(docs)
        k = min(len(matrix.vocabulary), len(matrix.doc_ids))
        lsi = build_similarity_table(docs, "lsi", lsi_rank=k)
        vsm = build_similarity_table(docs, "vsm")
        for a, b in id_pairs(matrix.doc_ids):
            assert lsi.score(a, b) == pytest.approx(vsm.score(a, b), abs=1e-8)

    def test_identical_documents_at_low_rank(self):
        docs = [doc("d1", ["a", "b"]), doc("d2", ["a", "b"]), doc("d3", ["c", "d"]),
                doc("d4", ["a", "c"])]
        for k in (1, 2, 3):
            table = build_similarity_table(docs, "lsi", lsi_rank=k)
            assert table.score("d1", "d2") == pytest.approx(1.0)

    def test_four_doc_fixture_matches_eigen_oracle(self):
        docs = [doc("d0", ["a", "b", "c"]), doc("d1", ["a", "d"]),
                doc("d2", ["b", "d", "e"]), doc("d3", ["c", "e", "e"])]
        matrix = tf_idf(docs)
        table = build_similarity_table(docs, "lsi", lsi_rank=2)
        for a, b in id_pairs(matrix.doc_ids):
            assert abs(table.score(a, b) - clamp(oracle_lsi_cosine(matrix, 2, a, b))) <= 1e-8

    def test_full_rank_preserves_vsm_ordering(self):
        rng = random.Random(13)
        for _ in range(5):
            docs = random_documents(rng, 6, 10)
            matrix = tf_idf(docs)
            ids = matrix.doc_ids
            k = min(len(matrix.vocabulary), len(ids))
            lsi = build_similarity_table(docs, "lsi", lsi_rank=k)
            vsm = build_similarity_table(docs, "vsm")
            pairs = id_pairs(ids)
            # Scores equal within the full-rank tolerance are genuine ties.
            vsm_scores = [round(vsm.score(a, b), 8) for a, b in pairs]
            lsi_scores = [round(lsi.score(a, b), 8) for a, b in pairs]
            assert spearman_rank_correlation(vsm_scores, lsi_scores) == pytest.approx(1.0)


def oracle_jsd_similarity(counts_p, counts_q, epsilon=1e-9):
    """Direct summation of the base-2 JSD over the union vocabulary."""
    vocabulary = sorted(set(counts_p) | set(counts_q))
    p_raw = [counts_p.get(t, 0) + epsilon for t in vocabulary]
    q_raw = [counts_q.get(t, 0) + epsilon for t in vocabulary]
    p = [x / sum(p_raw) for x in p_raw]
    q = [x / sum(q_raw) for x in q_raw]
    jsd = 0.0
    for pi, qi in zip(p, q):
        mi = (pi + qi) / 2
        if pi > 0:
            jsd += 0.5 * pi * math.log2(pi / mi)
        if qi > 0:
            jsd += 0.5 * qi * math.log2(qi / mi)
    return 1.0 - jsd


class TestJs:
    def test_symmetric(self):
        rng = random.Random(31)
        for _ in range(20):
            a = doc("a", Counter(rng.choices("abcde", k=rng.randint(1, 8))))
            b = doc("b", Counter(rng.choices("cdefg", k=rng.randint(1, 8))))
            assert similarity_js(a, b) == pytest.approx(similarity_js(b, a), abs=1e-12)

    def test_identical_distributions(self):
        assert similarity_js(doc("a", ["x", "y"]), doc("b", ["x", "y"])) == pytest.approx(1.0)

    def test_disjoint_single_terms(self):
        assert similarity_js(doc("a", ["x"]), doc("b", ["y"])) == pytest.approx(0.0, abs=1e-6)

    def test_half_half_vs_point_mass(self):
        value = similarity_js(doc("a", ["x", "y"]), doc("b", ["x", "x"]))
        oracle = oracle_jsd_similarity(Counter(["x", "y"]), Counter(["x", "x"]))
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_random_documents_match_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            a = Counter(rng.choices("abcdef", k=rng.randint(1, 12)))
            b = Counter(rng.choices("defghi", k=rng.randint(1, 12)))
            value = similarity_js(doc("a", a), doc("b", b))
            assert value == pytest.approx(oracle_jsd_similarity(a, b), abs=1e-9)

    def test_maximal_iff_equal(self):
        rng = random.Random(19)
        for _ in range(20):
            a = Counter(rng.choices("abcd", k=rng.randint(1, 8)))
            b = Counter(rng.choices("abcd", k=rng.randint(1, 8)))
            sim = similarity_js(doc("a", a), doc("b", b))
            total_a, total_b = sum(a.values()), sum(b.values())
            equal_dist = all(
                a.get(t, 0) / total_a == pytest.approx(b.get(t, 0) / total_b)
                for t in set(a) | set(b)
            )
            if equal_dist:
                assert sim == pytest.approx(1.0, abs=1e-6)
            else:
                assert sim < 1.0 - 1e-9


class TestLsiRankBounds:
    def test_out_of_range_rank_rejected(self):
        # Below 1 is rejected; above min(vocabulary, documents) is lowered to it.
        weights = tf_idf([doc("d1", ["a", "b"]), doc("d2", ["b", "c"])]).weights
        for k in (0, -1):
            with pytest.raises(ConfigError):
                lsi_document_space(weights, k)
        assert np.array_equal(lsi_document_space(weights, 99), lsi_document_space(weights, 2))

    def test_table_lowers_only_a_high_rank(self):
        docs = [doc("d1", ["a", "b"]), doc("d2", ["b", "c"]), doc("d3", ["c"])]
        high = build_similarity_table(docs, "lsi", lsi_rank=99)
        full = build_similarity_table(docs, "lsi", lsi_rank=3)
        assert high.pairs() == full.pairs()
        with pytest.raises(ConfigError):
            build_similarity_table(docs, "lsi", lsi_rank=0)


def clamp(score):
    return min(1.0, max(0.0, score))


def id_pairs(ids):
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]


def documents_with_duplicates(rng):
    """Random documents plus an exact copy of the first one and an empty one."""
    docs = random_documents(rng, rng.randint(2, 12), rng.randint(2, 30))
    return [*docs, doc("copy", docs[0].terms), doc("empty", [])]


class TestTableOracles:
    """Every entry of the score matrix against its per-pair oracle."""

    def test_js_matrix_equals_similarity_js_exactly(self):
        rng = random.Random(41)
        for _ in range(20):
            docs = documents_with_duplicates(rng)
            by_id = {d.artifact_id: d for d in docs}
            table = build_similarity_table(docs, "js")
            for a, b in id_pairs(list(by_id)):
                expected = 0.0 if "empty" in (a, b) else clamp(similarity_js(by_id[a], by_id[b]))
                assert table.score(a, b) == expected

    def test_vsm_and_lsi_match_their_oracles(self):
        rng = random.Random(43)
        for _ in range(30):
            docs = documents_with_duplicates(rng)
            matrix = tf_idf(docs)
            k = min(default_lsi_rank(len(docs)), len(matrix.vocabulary))
            # The table's LSI cosines run over the same SVD rows as this oracle.
            for model, space in (("vsm", matrix), ("lsi", lsi_matrix(matrix, k))):
                table = build_similarity_table(docs, model)
                for a, b in id_pairs(matrix.doc_ids):
                    expected = clamp(brute_cosine(space, a, b))
                    assert abs(table.score(a, b) - expected) <= 1e-12
                    if expected == 0.0:
                        assert table.score(a, b) == 0.0

    def test_duplicate_documents_tie_exactly(self):
        # Under lsi the SVD gives a copy coordinates that differ in the last
        # bits, so there neither the oracle nor the table ties the two.
        rng = random.Random(47)
        for _ in range(30):
            docs = documents_with_duplicates(rng)
            others = [d.artifact_id for d in docs if d.artifact_id not in ("d0", "copy")]
            for model in ("vsm", "js"):
                table = build_similarity_table(docs, model)
                original, copy = rows(table, ["d0", "copy"])
                cols = rows(table, others)
                assert table.scores[original, cols].tolist() == table.scores[copy, cols].tolist()

    @given(st.integers(0, 2**32 - 1))
    def test_vsm_copy_scores_its_ordered_sum_over_its_two_norms(self, seed):
        # The dot product of a document with its copy and each of their norms
        # add the same squares in column order, so the cell is g / (sqrt(g) * sqrt(g)).
        docs = documents_with_duplicates(random.Random(seed))
        width, doc_at, term_at, values = irmodels._triplets(docs)
        values = tf_idf_values(len(docs), width, term_at, values)
        g = ordered_squares(len(docs), doc_at, values)[0]
        expected = min(1.0, g / (math.sqrt(g) * math.sqrt(g))) if g else 0.0
        assert build_similarity_table(docs, "vsm").score("d0", "copy") == expected


def assert_js_table_exact(docs):
    """The JS table equals `similarity_js` on every pair, 0 where a document is empty."""
    by_id = {d.artifact_id: d for d in docs}
    mass = {d.artifact_id: sum(d.weighted_terms().values()) for d in docs}
    table = build_similarity_table(docs, "js")
    for a, b in id_pairs(list(by_id)):
        if mass[a] == 0 or mass[b] == 0:
            expected = 0.0
        else:
            expected = clamp(similarity_js(by_id[a], by_id[b]))
        assert table.score(a, b) == expected
    return table


@st.composite
def js_corpora(draw):
    """Documents that stress the per-pair union columns, in a drawn order.

    One long document among short ones, one whose terms are a subset of the
    long one's, two disjoint from everything, exact copies and empty ones.
    """
    words = [f"w{i}" for i in range(40)]
    short = draw(st.lists(st.lists(st.sampled_from(words[:8]), min_size=1, max_size=4),
                          min_size=1, max_size=5))
    long = draw(st.lists(st.sampled_from(words), min_size=20, max_size=40, unique=True))
    subset = draw(st.lists(st.sampled_from(long), min_size=1, max_size=5))
    disjoint = [draw(st.lists(st.sampled_from([f"{prefix}{i}" for i in range(4)]),
                              min_size=1, max_size=4)) for prefix in "xy"]
    copies = draw(st.lists(st.sampled_from(short), max_size=2))
    terms = [*short, long, subset, *disjoint, *copies, *[[]] * draw(st.integers(0, 2))]
    order = draw(st.permutations(range(len(terms))))
    return [doc(f"d{k}", terms[i]) for k, i in enumerate(order)]


def per_column_gram(vectors):
    """Dot products of every two rows, a row with itself included, each summed column by column.

    The loop the ordered scatter and fold replace, kept as their oracle: one
    fancy-index scatter of each column's nonzero products.
    """
    n = len(vectors)
    gram = np.zeros(n * n)
    columns, rows = np.nonzero(vectors.T)  # by column, then by row
    values = vectors[rows, columns]
    starts = np.flatnonzero(np.diff(columns)) + 1
    for r, v in zip(np.split(rows, starts), np.split(values, starts)):
        gram[(r * n)[:, None] + r] += np.multiply.outer(v, v)
    return gram.reshape(n, n)


def triplets(matrix):
    """The nonzero entries of `matrix` as rows, columns and values, by column, then row."""
    cols, rows = np.nonzero(matrix.T)
    return rows, cols, matrix[rows, cols]


@st.composite
def block_sets(draw, n):
    """Row and column indexes over n documents, each set in a drawn order.

    Each document is drawn into the rows, the columns, both or neither, so
    the two sets overlap, are disjoint or are empty as the draws fall.
    """
    member = draw(st.lists(st.sampled_from(["row", "col", "both", "none"]), min_size=n, max_size=n))
    rows = [k for k, kind in enumerate(member) if kind in ("row", "both")]
    cols = [k for k, kind in enumerate(member) if kind in ("col", "both")]
    return tuple(np.array(draw(st.permutations(s)), dtype=np.intp) for s in (rows, cols))


@st.composite
def gram_inputs(draw):
    """A matrix with zeros, -0.0, negative values, a copied row and a zero row, and a block of it."""
    n, width = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    entries = st.sampled_from([0.0, -0.0]) | st.floats(-100.0, 100.0)
    matrix = draw(hnp.arrays(np.float64, (n, width), elements=entries, fill=st.nothing()))
    copied = matrix[draw(st.integers(0, n - 1))]
    matrix = np.vstack((matrix, copied, np.zeros(width)))[draw(st.permutations(range(n + 2)))]
    return (matrix, *draw(block_sets(n + 2)))


class TestOrderedGram:
    """The ordered scatter and fold against the per-column loop, on every cell of a block."""

    @given(gram_inputs(), st.sampled_from([None, 1, 20]))
    def test_scatter_and_fold_equal_the_per_column_loop_bit_for_bit(self, inputs, block):
        matrix, rows, cols = inputs
        expected = per_column_gram(matrix)[np.ix_(rows, cols)]
        with (mock.patch.object(irmodels, "_CELL_BLOCK", block or irmodels._CELL_BLOCK),
              mock.patch.object(irmodels, "_FOLD_BLOCK", block or irmodels._FOLD_BLOCK)):
            scatter = irmodels._scatter(len(matrix), *triplets(matrix), rows, cols)
            fold = irmodels._fold(matrix, rows, cols)
        for gram in (scatter, fold):
            assert gram.tobytes() == expected.tobytes()

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)))
    def test_gram_of_a_mask_counts_shared_columns(self, used):
        rows, cols, _ = triplets(used)
        every = np.arange(len(used))
        gram = irmodels._scatter(len(used), rows, cols, np.ones(len(rows)), every, every)
        mask = used.tolist()
        for i, j in itertools.product(range(len(mask)), repeat=2):
            assert gram[i, j] == sum(a and b for a, b in zip(mask[i], mask[j]))


class TestJsTable:
    """The batched JS table, pair for pair, at any block size and corpus shape."""

    @given(js_corpora())
    def test_equals_similarity_js_on_generated_documents(self, docs):
        scores = assert_js_table_exact(docs).scores
        with mock.patch.object(irmodels, "_JS_BLOCK", 1):
            assert np.array_equal(assert_js_table_exact(docs).scores, scores)

    @pytest.mark.parametrize("nonempty", [0, 1, 2])
    @pytest.mark.parametrize("empty", [0, 2])
    def test_few_nonempty_documents(self, nonempty, empty):
        docs = [doc(f"n{i}", ["x", "y"][: i + 1] + ["z"] * i) for i in range(nonempty)]
        docs += [doc(f"e{i}", []) for i in range(empty)]
        table = assert_js_table_exact(docs)
        assert table.scores.shape == (len(docs), len(docs))
        if nonempty < 2:
            assert not table.scores.any()

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_changes_no_score(self, monkeypatch, block):
        rng = random.Random(53)
        corpora = [documents_with_duplicates(rng) for _ in range(10)]
        # Document sizes from 1 to 40 terms over 60 give many distinct union sizes.
        corpora += [
            [doc(f"d{i}", [f"w{k}" for k in rng.sample(range(60), rng.randint(1, 40))])
             for i in range(25)]
            for _ in range(3)
        ]
        default = [build_similarity_table(docs, "js").scores for docs in corpora]
        monkeypatch.setattr(irmodels, "_JS_BLOCK", block)
        for docs, scores in zip(corpora, default):
            assert np.array_equal(assert_js_table_exact(docs).scores, scores)


# The n x n builder that the block builder replaced, kept as its oracle. It
# stores each pair with one document in `rows` and the other in `cols`, the
# `held` pairs, and 0 for every other pair and on the diagonal; the table
# then clipped the matrix and mirrored its strict upper triangle.


def square_scatter(n, rows, cols, values, held):
    """Each held upper cell's sum of products over the columns its two rows share, in column order.

    Triplet p pairs with each later triplet q of its column, at the upper
    cell (rows[p], rows[q]), and one `np.bincount` per block of cell rows
    adds each held cell's products from +0.0 in that order.
    """
    later = np.searchsorted(cols, cols, side="right") - np.arange(len(cols)) - 1
    gram = np.zeros((n, n), np.intp if values is None else np.float64)
    step = max(1, irmodels._CELL_BLOCK // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        mine = np.flatnonzero((rows >= start) & (rows < stop))
        take = later[mine]
        first = np.repeat(mine, take)
        second = np.repeat(mine + 1 - (np.cumsum(take) - take), take)
        second += np.arange(len(second))
        cells = (rows[first] - start) * n + rows[second]
        keep = held[start:stop].ravel()[cells]
        first, second, cells = first[keep], second[keep], cells[keep]
        weights = None if values is None else values[first] * values[second]
        gram[start:stop] = np.bincount(cells, weights, (stop - start) * n).reshape(-1, n)
    return gram


def square_fold(vectors, held):
    """Each held upper cell's dot product of two dense rows, column by column in order."""
    first, second = np.nonzero(np.triu(held, 1))
    dots = np.zeros(len(first))
    for start in range(0, len(first), irmodels._FOLD_BLOCK):
        cells = slice(start, start + irmodels._FOLD_BLOCK)
        a, b, block = first[cells], second[cells], dots[cells]
        for column in vectors.T:
            block += column[a] * column[b]
    gram = np.zeros((len(vectors), len(vectors)))
    gram[first, second] = dots
    return gram


def tf_idf_values(n, width, term_at, values):
    """The counts of n documents' triplets times ln(N/df), as the vsm and lsi builders scale them."""
    df = np.bincount(term_at[values > 0], minlength=width)
    return values * np.log(n / np.maximum(df, 1))[term_at]


def ordered_squares(n, doc_at, values):
    """Each document's squares of `values`, added from +0.0 in triplet order, in plain Python."""
    squares = [0.0] * n
    for d, value in zip(doc_at.tolist(), values.tolist()):
        squares[d] += value * value
    return squares


def square_cosines(gram, norms):
    """`gram` divided in place by the outer product of the norms; a zero norm scores 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gram /= np.outer(norms, norms)
    zero = norms == 0.0
    gram[zero, :] = 0.0
    gram[:, zero] = 0.0
    return gram


def square_js(n, width, rows, cols, values, held):
    """1 - base-2 JSD at each held upper cell of two nonempty rows, in pair blocks by union size."""
    used = values > 0
    rows, cols, values = rows[used], cols[used], values[used]
    scores = np.zeros((n, n))
    lengths = np.bincount(rows, minlength=n)
    nonempty = lengths > 0
    first, second = np.nonzero(np.triu(held & nonempty & nonempty[:, None], 1))
    if not len(first):
        return scores
    shared = square_scatter(n, rows, cols, None, held)[first, second]
    dense = irmodels._dense(n, width, rows, cols, values)
    padded = np.full((n, lengths.max()), width)
    padded[np.arange(lengths.max()) < lengths[:, None]] = cols[np.argsort(rows, kind="stable")]
    sizes = lengths[first] + lengths[second] - shared
    order = np.argsort(sizes, kind="stable")
    first, second, sizes = first[order], second[order], sizes[order]
    starts = np.flatnonzero(np.diff(sizes)) + 1
    for a_group, b_group, size in zip(
        np.split(first, starts), np.split(second, starts), sizes[np.r_[0, starts]].tolist()
    ):
        step = max(1, irmodels._JS_BLOCK // size)
        for k in range(0, len(a_group), step):
            a, b = a_group[k:k + step], b_group[k:k + step]
            merged = np.concatenate(
                (padded[a, :lengths[a].max()], padded[b, :lengths[b].max()]), axis=1
            )
            merged.sort(axis=1)
            keep = merged != width
            keep[:, 1:] &= merged[:, 1:] != merged[:, :-1]
            union = merged[keep].reshape(len(a), size)
            p = dense[a[:, None], union] + _JS_EPSILON
            p = p / p.sum(axis=1, keepdims=True)
            q = dense[b[:, None], union] + _JS_EPSILON
            q = q / q.sum(axis=1, keepdims=True)
            m = (p + q) / 2.0
            jsd = (0.5 * np.sum(p * np.log2(p / m), axis=1)
                   + 0.5 * np.sum(q * np.log2(q / m), axis=1))
            scores[a, b] = 1.0 - jsd
    return scores


def square_scores(documents, model, rows=slice(None), cols=slice(None)):
    """The n x n matrix the square builder's table stored for `rows` and `cols`."""
    n = len(documents)
    in_rows, in_cols = np.zeros((2, n), bool)
    in_rows[rows] = in_cols[cols] = True
    held = np.outer(in_rows, in_cols)
    held |= held.T
    np.fill_diagonal(held, False)
    width, doc_at, term_at, values = irmodels._triplets(documents)
    if not width:
        scores = np.zeros((n, n))
    elif model == "js":
        scores = square_js(n, width, doc_at, term_at, values, held)
    else:
        values = tf_idf_values(n, width, term_at, values)
        if model == "lsi":
            weights = irmodels._dense(n, width, doc_at, term_at, values)
            vectors = lsi_document_space(weights, default_lsi_rank(n))
            norms = np.array([np.linalg.norm(row) for row in vectors])
            scores = square_cosines(square_fold(vectors, held), norms)
        else:
            nonzero = values != 0.0
            doc_at, term_at, values = doc_at[nonzero], term_at[nonzero], values[nonzero]
            gram = square_scatter(n, doc_at, term_at, values, held)
            norms = np.array([math.sqrt(g) for g in ordered_squares(n, doc_at, values)])
            scores = square_cosines(gram, norms)
    np.clip(scores, 0.0, 1.0, out=scores)
    scores += scores.T
    return scores


class TestHeldPairs:
    """A table built for row and column sets is the full table on exactly the pairs between them."""

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_equals_the_full_table_on_held_pairs_only(self, rng, data):
        docs = documents_with_duplicates(rng)
        rows, cols = data.draw(block_sets(len(docs)))
        ids = [d.artifact_id for d in docs]
        between = {(ids[i], ids[j]) if ids[i] <= ids[j] else (ids[j], ids[i])
                   for i in rows.tolist() for j in cols.tolist() if i != j}
        distinct = rows[:, None] != cols
        for model in MODELS:
            full = build_similarity_table(docs, model)
            table = build_similarity_table(docs, model, rows=rows, cols=cols)
            assert table.row_ids == [ids[i] for i in rows.tolist()]
            assert table.col_ids == [ids[j] for j in cols.tolist()]
            cells = full.scores[np.ix_(rows, cols)]
            assert table.scores[distinct].tobytes() == cells[distinct].tobytes()
            assert table.scores[~distinct].tobytes() == bytes(8 * int((~distinct).sum()))
            assert table.pairs() == {pair: full.pairs()[pair] for pair in between}
            for a, b in itertools.product(ids, repeat=2):
                if (min(a, b), max(a, b)) in between:
                    assert table.score(a, b) == full.score(a, b)
                else:
                    with pytest.raises(ValidationError):
                        table.score(a, b)


class TestTableContract:
    """Each builder writes, byte for byte, what the square builder wrote at its held upper cells."""

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.data(), st.sampled_from(MODELS))
    def test_builders_write_only_the_held_upper_cells(self, rng, data, model):
        docs = random_documents(rng, rng.randint(1, 9), rng.randint(1, 12))
        indexes = st.lists(st.integers(0, len(docs) - 1), unique=True)
        for i in data.draw(indexes):  # Empty documents have a zero norm.
            docs[i] = doc(docs[i].artifact_id, [])
        rows, cols = data.draw(block_sets(len(docs)))
        distinct = rows[:, None] != cols
        full = build_similarity_table(docs, model)
        assert full.scores.tobytes() == square_scores(docs, model).tobytes()
        table = build_similarity_table(docs, model, rows=rows, cols=cols)
        square = square_scores(docs, model, rows, cols)[np.ix_(rows, cols)]
        assert table.scores[distinct].tobytes() == square[distinct].tobytes()
        assert table.scores[~distinct].tobytes() == bytes(8 * int((~distinct).sum()))


class TestSimilarityTable:
    def test_clamps_to_unit_interval(self):
        table = hand_table(["a", "b", "c"], np.array([
            [0.0, -0.25, 1.0000001],
            [-0.25, 0.0, -0.0],
            [1.0000001, -0.0, 0.0],
        ]))
        assert table.score("a", "b") == 0.0
        assert table.score("a", "c") == 1.0
        assert f"{table.score('b', 'c'):.6f}" == "0.000000"

    def test_clips_the_given_block_in_place(self):
        block = np.array([[0.0, -0.25, 1.0000001], [-0.25, 0.0, -0.0]])
        table = SimilarityTable(["a", "b"], ["a", "b", "c"], block)
        assert table.scores is block
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert table.scores.tobytes() == expected.tobytes()
        assert table.pairs() == {("a", "b"): 0.0, ("a", "c"): 1.0, ("b", "c"): 0.0}
        # Only the cell (a, c) holds the pair; score reads it either way round.
        assert table.score("c", "a") == table.score("a", "c") == 1.0

    def test_self_pair_and_unknown_ids_rejected(self):
        table = build_similarity_table([doc("a", ["x"]), doc("b", ["x", "y"])], "vsm")
        for a, b in (("a", "a"), ("a", "nope"), ("nope", "b")):
            with pytest.raises(ValidationError):
                table.score(a, b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            build_similarity_table([doc("a", ["x"]), doc("b", ["x", "y"])], "bm25")

    def test_bad_construction_rejected(self):
        for row_ids, col_ids, scores in (
            (["a", "a"], ["a", "b"], np.zeros((2, 2))),
            (["a"], ["b", "b"], np.zeros((1, 2))),
            (["a", "b"], ["a", "b"], np.zeros((2, 3))),
            (["a"], ["a", "b"], np.zeros((2, 1))),
            (["a", "b"], ["a", "b"], np.zeros((2, 2), int)),
        ):
            with pytest.raises(ValidationError):
                SimilarityTable(row_ids, col_ids, scores)

    def test_rows_read_the_scores_of_score(self):
        rng = random.Random(37)
        docs = random_documents(rng, 9, 12)
        ids = [d.artifact_id for d in docs]
        for model in ("vsm", "lsi", "js"):
            table = build_similarity_table(docs, model)
            for a in ids:
                others = [b for b in reversed(ids) if b != a]
                # Row k is the k-th document given.
                row = table.scores[ids.index(a), [ids.index(b) for b in others]].tolist()
                assert row == [table.score(a, b) for b in others]

    def test_symmetry_and_range(self):
        rng = random.Random(23)
        docs = random_documents(rng, 8, 10)
        for model in ("vsm", "lsi", "js"):
            table = build_similarity_table(docs, model)
            for (a, b), score in table.pairs().items():
                assert 0.0 <= score <= 1.0
                assert table.score(a, b) == table.score(b, a)

    def test_determinism(self):
        rng = random.Random(29)
        docs = random_documents(rng, 8, 10)
        for model in ("vsm", "lsi", "js"):
            t1 = build_similarity_table(docs, model, lsi_rank=3)
            t2 = build_similarity_table(docs, model, lsi_rank=3)
            assert t1.pairs() == t2.pairs()

    def test_empty_documents_score_zero(self):
        docs = [doc("a", ["x"]), doc("b", []), doc("c", ["x"])]
        for model in ("vsm", "lsi", "js"):
            table = build_similarity_table(docs, model)
            assert table.score("a", "b") == 0.0

    def test_documents_of_compound_terms_only_are_not_empty(self):
        plain = [doc("a", ["x_y"]), doc("b", ["x_y", "z_w"]), doc("c", ["z_w"])]
        compound = [doc(d.artifact_id, [], d.terms) for d in plain]
        for model in ("vsm", "lsi", "js"):
            table = build_similarity_table(compound, model)
            assert table.score("a", "b") > 0.0
            assert table.pairs() == build_similarity_table(plain, model).pairs()


class TestRanking:
    def test_sorted_by_score(self):
        table = build_similarity_table(
            [doc("s", ["a", "b"]), doc("t1", ["b", "c"]), doc("t2", ["a", "b"]),
             doc("pad", ["d"])],
            "vsm",
        )
        ranked = rank_candidates(table, rows(table, ["s"]), rows(table, ["t1", "t2"]), 1.0)
        assert [t for t, _ in ranked["s"]] == ["t2", "t1"]

    def test_tie_breaks_by_id(self):
        table = build_similarity_table([doc("s", ["a"]), doc("tb", ["b"]), doc("ta", ["c"])], "vsm")
        ranked = rank_candidates(table, rows(table, ["s"]), rows(table, ["tb", "ta"]), 1.0)
        assert [t for t, _ in ranked["s"]] == ["ta", "tb"]

    def test_csv_round_trip(self):
        text = format_ranked_csv(long_form({"s": [("t2", 0.9), ("t1", 0.5)]}))
        assert text.splitlines()[0] == "source_id,target_id,score"
        parsed = parse_ranked_csv(text)
        assert parsed["s"] == [("t2", 0.9), ("t1", 0.5)]

    @given(st.dictionaries(
        _ids,
        st.lists(
            st.tuples(_ids, st.floats(0.0, 1.0)), min_size=1, max_size=4,
            unique_by=lambda item: item[0],  # a ranking scores each pair once
        ),
        max_size=4,
    ))
    def test_csv_round_trip_any_ids(self, ranked):
        if refused_by_writer(long_form(ranked)):
            with pytest.raises(ValidationError):
                format_ranked_csv(long_form(ranked))
            return
        expected = {
            source: [(target, float(f"{score:.6f}")) for target, score in targets]
            for source, targets in ranked.items()
        }
        assert parse_ranked_csv(format_ranked_csv(long_form(ranked))) == expected

    @given(
        st.dictionaries(
            _writer_ids,
            st.lists(st.tuples(_writer_ids, st.floats()), max_size=4,
                     unique_by=lambda item: item[0]),
            max_size=4,
        ),
        st.randoms(use_true_random=False),
        st.integers(1, 4),
    )
    def test_writer_matches_dict_writer_byte_for_byte(self, ranked, rng, block):
        links = long_form(ranked)
        if refused_by_writer(links):
            with pytest.raises(ValidationError, match="as CSV"):
                format_ranked_csv(links)
            return
        assert format_ranked_csv(links) == oracle_format_ranked_csv(ranked)
        with mock.patch.object(irmodels, "_LINK_BLOCK", block):  # many %-format blocks
            assert format_ranked_csv(links) == oracle_format_ranked_csv(ranked)
        # The same links with the sources interleaved, each source's links still in order:
        # `long_form` groups them by source code, and link g moves to the g-th place of
        # a shuffled list of their source codes, in stable source order.
        picks = rng.sample(links.source_codes.tolist(), len(links.scores))
        order = np.empty(len(picks), np.intp)
        order[np.argsort(picks, kind="stable")] = np.arange(len(picks))
        interleaved = RankedLinks(links.sources, links.source_codes[order], links.targets,
                                  links.target_codes[order], links.scores[order])
        assert format_ranked_csv(interleaved) == oracle_format_ranked_csv(ranked)

    @pytest.mark.parametrize("ranked, refused", [
        ({"s\0": [("t", 0.5)], "s": [("t\0", 0.25)]}, "s\0"),
        ({"s": [("t", 0.5), ("t\r\0", 0.25)]}, "t\r\0"),  # a quoted row
    ])
    def test_an_id_the_writer_refuses_is_a_validation_error(self, ranked, refused):
        with mock.patch.object(irmodels.csv, "writer", NulRefusingWriter):
            with pytest.raises(ValidationError) as caught:
                format_ranked_csv(long_form(ranked))
        assert str(caught.value) == (
            f"cannot write id {refused!r} as CSV: need to escape, but no escapechar set")
        if not WRITER_REFUSES_NUL:
            assert "\0" in format_ranked_csv(long_form(ranked))

    @given(_ranking_texts)
    def test_split_fast_path_matches_csv_reader(self, text):
        with mock.patch.object(irmodels, "_plain_links", lambda text: None):
            through_csv = _parse_outcome(parse_ranked_csv, text)
        assert _parse_outcome(parse_ranked_csv, text) == through_csv
        assert through_csv == _parse_outcome(oracle_parse_ranked_csv, text)

    def test_split_fast_path_cases_occur(self):
        """100 draws of the parser property reach each case the long form must keep."""
        seen = Counter()

        @settings(max_examples=100, derandomize=True, database=None)
        @given(_ranking_texts)
        def draw(text):
            seen.update(_row_cases(text))
            seen["split without csv.reader"] += irmodels._plain_links(text) is not None

        draw()
        assert len(seen) == 4 and all(seen.values()), seen

    def test_csv_quotes_only_ids_that_need_it(self):
        text = format_ranked_csv(long_form({"a,b": [("t", 0.5)], "s": [("t", 0.25)]}))
        assert text == 'source_id,target_id,score\n"a,b",t,0.500000\ns,t,0.250000\n'

    def test_global_list_ordering(self):
        ranked = {"s2": [("t1", 0.5)], "s1": [("t1", 0.5), ("t2", 0.9)]}
        # Global order (s1, t2), (s1, t1), (s2, t1): the one relevant link comes third.
        report = evaluate_ranking(long_form(ranked), {("s2", "t1")})
        assert report.pr_curve[1].tolist() == [0.0, 0.0, 100.0 / 3]


def _long_form_outcome(parse, text):
    """The parsed ids, codes and score bits, or the error's message."""
    try:
        links = parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))
    return (links.sources, links.source_codes.tolist(), links.targets,
            links.target_codes.tolist(), links.scores.tobytes())


def _through_csv_reader(text):
    with mock.patch.object(irmodels, "_plain_links", lambda text: None):
        return _long_form_outcome(parse_ranked_csv, text)


# Plain rankings long enough that small parse blocks cut between many of their lines.
_plain_rankings = st.lists(
    st.tuples(_small_id, _small_id | st.sampled_from(["u", "\u2028"]) | st.integers(0, 50).map(str),
              st.sampled_from(["0.5", " 1 ", "-0.0", "0.123456"])).map(",".join),
    max_size=30,
).map(lambda body: "\n".join(["source_id,target_id,score", *body, ""]))


class TestParseBlocks:
    """`_plain_links` splits blocks of whole lines into running id codes, as one split would."""

    @given(_plain_rankings | _ranking_texts, st.integers(1, 12),
           st.sampled_from(["\n", "\r\n", "\r"]))
    def test_blocks_match_csv_reader(self, text, block, line_end):
        text = text.replace("\n", line_end)
        whole = irmodels._plain_links(text)
        with mock.patch.object(irmodels, "_PARSE_BLOCK", block):
            in_blocks = irmodels._plain_links(text)
            outcome = _long_form_outcome(parse_ranked_csv, text)
        # The block size neither sends text to csv.reader nor keeps it away.
        assert (in_blocks is None) == (whole is None)
        assert outcome == _through_csv_reader(text)

    @pytest.mark.parametrize("block", [1, 5, 1 << 15])
    def test_header_only_text(self, block):
        text = "source_id,target_id,score\n"
        with mock.patch.object(irmodels, "_PARSE_BLOCK", block):
            assert irmodels._plain_links(text) is not None
            assert _long_form_outcome(parse_ranked_csv, text) == ([], [], [], [], b"")

    def test_repeated_pair_across_blocks_names_the_later_line(self):
        text = "source_id,target_id,score\na,t,0.5\nb,t,0.5\nb,u,0.5\na,t,0.25\n"
        message = "line 5: pair ('a', 't') appears more than once"
        with mock.patch.object(irmodels, "_PARSE_BLOCK", 3):  # a block per line
            assert irmodels._plain_links(text) is not None
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_ranked_csv(text)

    @pytest.mark.parametrize("line, message", [
        ("c,t", "line 5: expected 3 comma-separated fields, got 2"),
        ("c,t,x", "line 5: bad score 'x'"),
        ("c,t,inf", "line 5: score 'inf' is not finite"),
    ])
    def test_bad_line_in_a_later_block_keeps_its_number(self, line, message):
        text = "\n".join(["source_id,target_id,score", "a,t,0.5", "b,t,0.5", "b,u,0.5", line, ""])
        with mock.patch.object(irmodels, "_PARSE_BLOCK", 3):
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_ranked_csv(text)

    def test_parse_peak_stays_a_few_times_the_text(self):
        # The gated comparison's size: two levels of 300 ids, every pair scored once.
        rng = random.Random(0)
        text = "source_id,target_id,score\n" + "".join(
            f"S{s:04d},T{t:04d},{rng.random():.6f}\n" for s in range(300) for t in range(300))
        tracemalloc.start()
        try:
            links = parse_ranked_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(links.scores) == 90_000
        assert peak < 5 * len(text), peak / len(text)
