"""tf-idf matrix, the VSM/LSI/JS similarity table, and ranking.

Oracles are deliberately independent of the implementation: plain-Python
dot/norm loops for cosine, an eigendecomposition of the Gram matrix for the
LSI document space, and a direct two-term summation for Jensen-Shannon.
`similarity_js` is the exact per-pair JS reference the table must equal.
"""

import dataclasses
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from tracelink import irmodels
from tracelink.corpus.types import Document
from tracelink.errors import ConfigError, ParseError, ValidationError
from tracelink.evaluate import evaluate_ranking
from tracelink.irmodels import (
    SimilarityTable,
    _JS_EPSILON,
    build_similarity_table,
    default_lsi_rank,
    format_ranked_csv,
    lsi_document_space,
    parse_ranked_csv,
    rank_candidates,
)


# Ids lean on the characters that CSV quoting and line splitting treat specially.
_ids = st.text(st.sampled_from(',"\r\n\u2028 x') | st.characters(), min_size=1, max_size=6)


# Text without '"', "\r" or NUL, which `parse_ranked_csv` splits without csv.reader.
_plain_id = st.text(st.sampled_from("ab \u2028\x0b\x1c\u00e9") | st.characters(
    exclude_characters='",\r\n\0'), max_size=4)
_score_text = st.sampled_from(["0.5", " 1 ", "-0.0", "1e999", "inf", "nan", "-inf", "1_0", "x", ""])
_plain_field = st.one_of(_plain_id, _score_text)


def _parse_outcome(text):
    try:
        return parse_ranked_csv(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


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
    """The tf-idf matrix of `docs`, from the count matrix every table is built from."""
    vocabulary = sorted(set().union(*(d.weighted_terms() for d in docs)))
    weights = irmodels._tf_idf(irmodels._count_matrix(docs))
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
                original, copy = table.rows(["d0", "copy"])
                cols = table.rows(others)
                assert table.scores[original, cols].tolist() == table.scores[copy, cols].tolist()


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


class TestJsTable:
    """The batched JS table, pair for pair, at any block size and corpus shape."""

    @given(js_corpora())
    def test_equals_similarity_js_on_generated_documents(self, docs):
        scores = assert_js_table_exact(docs).scores
        with mock.patch.object(irmodels, "_JS_BLOCK", 1):
            assert np.array_equal(assert_js_table_exact(docs).scores, scores)

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)))
    def test_gram_of_a_mask_counts_shared_columns(self, used):
        gram = irmodels._gram(used)
        rows = used.tolist()
        for i, j in id_pairs(range(len(rows))):
            shared = sum(a and b for a, b in zip(rows[i], rows[j]))
            assert gram[i, j] == gram[j, i] == shared

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


class TestSimilarityTable:
    def test_clamps_to_unit_interval(self):
        table = SimilarityTable(["a", "b", "c"], np.array([
            [0.0, -0.25, 1.0000001],
            [-0.25, 0.0, -0.0],
            [1.0000001, -0.0, 0.0],
        ]))
        assert table.score("a", "b") == 0.0
        assert table.score("a", "c") == 1.0
        assert f"{table.score('b', 'c'):.6f}" == "0.000000"

    def test_reads_only_the_upper_triangle(self):
        table = SimilarityTable(["a", "b"], np.array([[0.0, 0.25], [0.75, 1.0]]))
        assert table.score("a", "b") == table.score("b", "a") == 0.25
        assert table.pairs() == {("a", "b"): 0.25}

    def test_self_pair_and_unknown_ids_rejected(self):
        table = build_similarity_table([doc("a", ["x"]), doc("b", ["x", "y"])], "vsm")
        for a, b in (("a", "a"), ("a", "nope"), ("nope", "b")):
            with pytest.raises(ValidationError):
                table.score(a, b)
        with pytest.raises(ValidationError):
            table.rows(["a", "nope"])

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            build_similarity_table([doc("a", ["x"]), doc("b", ["x", "y"])], "bm25")

    def test_bad_construction_rejected(self):
        with pytest.raises(ValidationError):
            SimilarityTable(["a", "a"], np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            SimilarityTable(["a", "b"], np.zeros((2, 3)))

    def test_rows_read_the_scores_of_score(self):
        rng = random.Random(37)
        docs = random_documents(rng, 9, 12)
        ids = [d.artifact_id for d in docs]
        for model in ("vsm", "lsi", "js"):
            table = build_similarity_table(docs, model)
            for a in ids:
                others = [b for b in reversed(ids) if b != a]
                row = table.scores[table.rows([a])[0], table.rows(others)].tolist()
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
        ranked = rank_candidates(table, table.rows(["s"]), table.rows(["t1", "t2"]), 1.0)
        assert [t for t, _ in ranked["s"]] == ["t2", "t1"]

    def test_tie_breaks_by_id(self):
        table = build_similarity_table([doc("s", ["a"]), doc("tb", ["b"]), doc("ta", ["c"])], "vsm")
        ranked = rank_candidates(table, table.rows(["s"]), table.rows(["tb", "ta"]), 1.0)
        assert [t for t, _ in ranked["s"]] == ["ta", "tb"]

    def test_csv_round_trip(self):
        ranked = {"s": [("t2", 0.9), ("t1", 0.5)]}
        text = format_ranked_csv(ranked)
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
        expected = {
            source: [(target, float(f"{score:.6f}")) for target, score in targets]
            for source, targets in ranked.items()
        }
        assert parse_ranked_csv(format_ranked_csv(ranked)) == expected

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["", " ", "\t \u2028", "x", "a,b,c,d"]),
                st.lists(_plain_field, min_size=2, max_size=4).map(",".join),
                st.tuples(_plain_id, _plain_id, _score_text).map(",".join),
            ),
            max_size=8,
        ),
        st.sampled_from(["source_id,target_id,score", " source_id , target_id,score", "a,b"]),
    )
    def test_split_fast_path_matches_csv_reader(self, body, header):
        text = "\n".join([header, *body])
        with mock.patch.object(irmodels, "_split_rows",
                               lambda text: irmodels._csv_rows(text.split("\n"))):
            through_csv = _parse_outcome(text)
        assert _parse_outcome(text) == through_csv

    def test_csv_quotes_only_ids_that_need_it(self):
        text = format_ranked_csv({"a,b": [("t", 0.5)], "s": [("t", 0.25)]})
        assert text == 'source_id,target_id,score\n"a,b",t,0.500000\ns,t,0.250000\n'

    def test_global_list_ordering(self):
        ranked = {"s2": [("t1", 0.5)], "s1": [("t1", 0.5), ("t2", 0.9)]}
        # Global order (s1, t2), (s1, t1), (s2, t1): the one relevant link comes third.
        report = evaluate_ranking(ranked, {("s2", "t1")})
        assert [precision for _, precision in report.pr_curve] == [0.0, 0.0, 100.0 / 3]
