"""Retrieval metrics and statistical tests against brute-force oracles.

`global_ranked_links`, `precision_recall`, `average_precision` and
`mean_average_precision` are the list-of-pairs metrics that
`evaluate_ranking` replaced with one array pass over the ranking; they stay
here as its oracle, and `evaluate_ranking` must match them bit for bit.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelink.errors import ConfigError, EvaluationError
from tracelink.evaluate import (
    EvalReport,
    cliffs_delta,
    compare_runs,
    delta_category,
    evaluate_ranking,
    f_at_recall_levels,
    f_measure,
    wilcoxon_rank_sum,
)
from tracelink.irmodels import parse_ranked_csv
from tracelink.pipeline import parse_mode

from test_irmodels import long_form


def global_ranked_links(ranked):
    """Flatten per-source lists into one global list sorted by score then ids."""
    links = [(s, t, score) for s, targets in ranked.items() for t, score in targets]
    links.sort(key=lambda item: (-item[2], item[0], item[1]))
    return links


def precision_recall(ranked, oracle):
    """(recall%, precision%) at every cutoff k = 1..N of the ranked link list."""
    if not oracle:
        raise EvaluationError("precision/recall undefined for an empty oracle")
    curve = []
    hits = 0
    for k, link in enumerate(ranked, start=1):
        if link in oracle:
            hits += 1
        precision = 100.0 * hits / k
        recall = 100.0 * hits / len(oracle)
        curve.append((recall, precision))
    return curve


def average_precision(ranked, oracle):
    """Mean of precision at relevant ranks over |oracle|, as a percentage."""
    if not oracle:
        raise EvaluationError("average precision undefined for an empty oracle")
    hits = 0
    total = 0.0
    for k, link in enumerate(ranked, start=1):
        if link in oracle:
            hits += 1
            total += hits / k
    return 100.0 * total / len(oracle)


def mean_average_precision(per_query, oracle):
    """Mean per-query AP, skipping queries without relevant targets."""
    per_query_ap = {}
    for query, ranked in per_query.items():
        relevant = {pair for pair in oracle if pair[0] == query}
        if not relevant:
            continue
        per_query_ap[query] = average_precision(ranked, relevant)
    if not per_query_ap:
        raise EvaluationError("no query has any relevant target")
    return sum(per_query_ap.values()) / len(per_query_ap), per_query_ap


def columns(curve):
    """A list of (recall, precision) points as the report's (recall list, precision list)."""
    return [r for r, _ in curve], [p for _, p in curve]


def oracle_evaluate_ranking(candidates, oracle):
    """`evaluate_ranking` as the list-of-pairs metrics compute it."""
    if not oracle:
        raise EvaluationError("evaluation requires a nonempty oracle")
    global_links = [(s, t) for s, t, _ in global_ranked_links(candidates)]
    curve = tuple(np.array(values, np.float64)
                  for values in columns(precision_recall(global_links, oracle)))
    ap = average_precision(global_links, oracle)
    per_query = {s: [(s, t) for t, _ in targets] for s, targets in candidates.items()}
    map_value, per_query_ap = mean_average_precision(per_query, oracle)
    return EvalReport(
        pr_curve=curve,
        f_at_recall=f_at_recall_levels(curve),
        ap=ap,
        map=map_value,
        per_query_ap=per_query_ap,
    )


# Few ids and few distinct scores, so exact ties across sources are common.
_SOURCES = st.sampled_from(["s0", "s1", "s2", "S", "s10"])
_TARGETS = st.sampled_from(["t0", "t1", "t2", "t3", "T", "t10", "é", *"abcdefgh"])
_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0, 1e-300]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


def _outcome(function, *args):
    """repr of the report, its curve arrays as lists, or the error's type and message:
    equal only bit for bit."""
    try:
        report = function(*args)
    except EvaluationError as exc:
        return ("EvaluationError", str(exc))
    return repr(replace(report, pr_curve=tuple(values.tolist() for values in report.pr_curve)))


class TestEvaluateRanking:
    @given(
        st.dictionaries(
            _SOURCES,
            st.lists(st.tuples(_TARGETS, _SCORES), max_size=15, unique_by=lambda item: item[0]),
            max_size=5,
        ),
        st.sets(st.tuples(_SOURCES, _TARGETS), max_size=40),
    )
    def test_matches_list_oracle_bit_for_bit(self, candidates, oracle):
        assert _outcome(evaluate_ranking, long_form(candidates), oracle) == _outcome(
            oracle_evaluate_ranking, candidates, oracle
        )

    @given(
        st.dictionaries(
            _SOURCES,
            st.lists(st.tuples(_TARGETS, _SCORES), min_size=1, max_size=15,
                     unique_by=lambda item: item[0]),
            max_size=5,
        ),
        st.sets(st.tuples(_SOURCES, _TARGETS), max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_interleaved_long_form_matches_list_oracle_bit_for_bit(self, candidates, oracle, rng):
        # Each source's first row keeps the dict's source order; the other rows
        # interleave the sources at random, each source's own rows still in order.
        tails = {s: iter(links[1:]) for s, links in candidates.items()}
        picks = [s for s, links in candidates.items() for _ in links[1:]]
        rng.shuffle(picks)
        rows = [(s, *links[0]) for s, links in candidates.items()]
        rows += [(s, *next(tails[s])) for s in picks]
        text = "".join(f"{s},{t},{score!r}\n" for s, t, score in rows)
        links = parse_ranked_csv("source_id,target_id,score\n" + text)
        assert _outcome(evaluate_ranking, links, oracle) == _outcome(
            oracle_evaluate_ranking, candidates, oracle
        )

    def test_long_rankings_match_list_oracle_bit_for_bit(self):
        # Hundreds of relevant links, where a pairwise sum would add AP in another order.
        rng = random.Random(17)
        for _ in range(20):
            targets = [f"t{i}" for i in range(rng.randint(1, 60))]
            candidates = {
                f"s{i}": [(t, rng.choice([0.0, 0.5, rng.random()])) for t in targets]
                for i in range(rng.randint(1, 12))
            }
            oracle = {(s, t) for s in candidates for t in targets if rng.random() < 0.3}
            oracle.add(("s0", "unranked"))
            assert _outcome(evaluate_ranking, long_form(candidates), oracle) == _outcome(
                oracle_evaluate_ranking, candidates, oracle
            )


class TestPrecisionRecall:
    def test_hit_then_miss(self):
        curve = precision_recall([("s", "t1"), ("s", "t2")], {("s", "t1")})
        assert curve == [(100.0, 100.0), (100.0, 50.0)]

    def test_perfect_prefix(self):
        ranked = [("s", "t1"), ("s", "t2"), ("s", "t3")]
        curve = precision_recall(ranked, {("s", "t1"), ("s", "t2")})
        assert curve[0] == (50.0, 100.0)
        assert curve[1] == (100.0, 100.0)

    def test_no_hits(self):
        curve = precision_recall([("s", "t1")], {("s", "t9")})
        assert curve == [(0.0, 0.0)]

    def test_empty_oracle_rejected(self):
        with pytest.raises(EvaluationError):
            precision_recall([("s", "t1")], set())

    def test_recall_non_decreasing(self):
        rng = random.Random(3)
        for _ in range(20):
            universe = [("s", f"t{i}") for i in range(10)]
            rng.shuffle(universe)
            oracle = set(rng.sample(universe, 3))
            curve = precision_recall(universe, oracle)
            recalls = [r for r, _ in curve]
            assert recalls == sorted(recalls)


class TestFMeasure:
    def test_balanced(self):
        assert f_measure(50.0, 50.0) == pytest.approx(50.0)

    def test_zero_convention(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_curve_identity(self):
        curve = precision_recall(
            [("s", "t1"), ("s", "t2"), ("s", "t3")], {("s", "t1"), ("s", "t3")}
        )
        for recall, precision in curve:
            expected = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
            assert f_measure(precision, recall) == pytest.approx(expected)

    def test_sampling_levels(self):
        curve = [(50.0, 100.0), (100.0, 66.666667)]
        values = f_at_recall_levels(columns(curve))
        assert len(values) == 100
        assert values[0] == pytest.approx(f_measure(100.0, 50.0))     # level 1
        assert values[49] == pytest.approx(f_measure(100.0, 50.0))    # level 50
        assert values[50] == pytest.approx(f_measure(66.666667, 100.0))  # level 51
        assert values[99] == pytest.approx(f_measure(66.666667, 100.0))  # level 100


def scan_f_at_recall_levels(curve):
    """The linear rescan that `f_at_recall_levels` replaced, kept as its oracle."""
    values = []
    for level in range(1, 101):
        point = next(((r, p) for r, p in curve if r >= level), None)
        values.append(0.0 if point is None else f_measure(point[1], point[0]))
    return values


class TestFAtRecallLevels:
    @given(st.lists(st.booleans(), max_size=300), st.integers(min_value=0, max_value=50))
    def test_bisect_matches_linear_scan(self, hits, unreached):
        ranked = [("s", f"t{i}") for i in range(len(hits))]
        oracle = {link for link, hit in zip(ranked, hits) if hit}
        oracle |= {("s", f"missing{i}") for i in range(unreached)}
        if not oracle:
            oracle = {("s", "missing")}
        curve = precision_recall(ranked, oracle)
        assert f_at_recall_levels(columns(curve)) == scan_f_at_recall_levels(curve)

    def test_empty_curve_gives_zeros(self):
        assert f_at_recall_levels(([], [])) == [0.0] * 100


def oracle_average_precision(ranked, oracle):
    """Direct summation: precision(r) * isRelevant(r) over r, / |oracle|."""
    total = 0.0
    for r in range(1, len(ranked) + 1):
        if ranked[r - 1] in oracle:
            hits = sum(1 for link in ranked[:r] if link in oracle)
            total += (hits / r)
    return 100.0 * total / len(oracle)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        ranked = [("s", "t1"), ("s", "t2"), ("s", "t3"), ("s", "t4"), ("s", "t5")]
        oracle = {("s", "t1"), ("s", "t2"), ("s", "t3")}
        assert average_precision(ranked, oracle) == pytest.approx(100.0)

    def test_miss_then_hit(self):
        assert average_precision(
            [("s", "t2"), ("s", "t1")], {("s", "t1")}
        ) == pytest.approx(50.0)

    def test_random_fixtures_match_oracle(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 10)
            ranked = [("s", f"t{i}") for i in range(n)]
            rng.shuffle(ranked)
            oracle = set(rng.sample(ranked, rng.randint(1, n)))
            assert abs(
                average_precision(ranked, oracle) - oracle_average_precision(ranked, oracle)
            ) <= 1e-12


class TestMeanAveragePrecision:
    def test_mean_of_queries(self):
        per_query = {
            "q1": [("q1", "t1"), ("q1", "t2")],
            "q2": [("q2", "t2"), ("q2", "t1")],
        }
        oracle = {("q1", "t1"), ("q2", "t1")}
        value, per = mean_average_precision(per_query, oracle)
        assert per["q1"] == pytest.approx(100.0)
        assert per["q2"] == pytest.approx(50.0)
        assert value == pytest.approx(75.0)

    def test_singleton(self):
        value, _ = mean_average_precision({"q": [("q", "t1")]}, {("q", "t1")})
        assert value == pytest.approx(100.0)

    def test_queries_without_relevant_excluded(self):
        per_query = {
            "q1": [("q1", "t1")],
            "q2": [("q2", "t1")],
        }
        value, per = mean_average_precision(per_query, {("q1", "t1")})
        assert "q2" not in per
        assert value == pytest.approx(100.0)

    def test_no_relevant_anywhere_rejected(self):
        with pytest.raises(EvaluationError):
            mean_average_precision({"q": [("q", "t1")]}, {("x", "y")})

    def test_five_query_fixture_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            per_query = {}
            oracle = set()
            for q in range(5):
                targets = [(f"q{q}", f"t{i}") for i in range(6)]
                rng.shuffle(targets)
                per_query[f"q{q}"] = targets
                oracle |= set(rng.sample(targets, rng.randint(0, 3)))
            if not any(any(link in oracle for link in links) for links in per_query.values()):
                continue
            value, per = mean_average_precision(per_query, oracle)
            expected = []
            for q, links in per_query.items():
                relevant = {l for l in oracle if l[0] == q}
                if relevant:
                    expected.append(oracle_average_precision(links, relevant))
            assert value == pytest.approx(sum(expected) / len(expected), abs=1e-12)


def oracle_midranks(pooled):
    """1-based ranks of `pooled`, each tied run given the mean of its ranks."""
    n = len(pooled)
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def oracle_rank_sum_p(a, b):
    """Exhaustive enumeration over all assignments of pooled midranks."""
    pooled = [*a, *b]
    n = len(pooled)
    ranks = oracle_midranks(pooled)
    n1 = len(a)
    observed = sum(ranks[:n1])
    mean = n1 * (n + 1) / 2
    count = 0
    total = 0
    for combo in itertools.combinations(range(n), n1):
        total += 1
        w = sum(ranks[i] for i in combo)
        if abs(w - mean) >= abs(observed - mean) - 1e-12:
            count += 1
    return count / total


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=0.05)

    def test_fully_tied(self):
        assert wilcoxon_rank_sum([5.0, 5.0], [5.0, 5.0]) == 1.0

    def test_separated_large_samples(self):
        a = [float(x) for x in range(1, 31)]
        b = [float(x) for x in range(31, 61)]
        assert wilcoxon_rank_sum(a, b) < 0.001

    def test_exact_matches_enumeration_n3(self):
        a, b = [1.0, 5.0, 9.0], [2.0, 3.0, 4.0]
        assert wilcoxon_rank_sum(a, b) == pytest.approx(oracle_rank_sum_p(a, b), abs=1e-9)

    def test_exact_matches_enumeration_random(self):
        # Both sides divide the same subset count by C(n1 + n2, n1).
        rng = random.Random(11)
        for trial in range(200):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            if trial % 2:  # three or four tied values
                values = rng.sample([0.0, 0.5, 1.0, 2.5, 100.0], rng.randint(3, 4))
                a = [rng.choice(values) for _ in range(n1)]
                b = [rng.choice(values) for _ in range(n2)]
            else:
                a = [round(rng.uniform(0, 5), 1) for _ in range(n1)]
                b = [round(rng.uniform(0, 5), 1) for _ in range(n2)]
            assert wilcoxon_rank_sum(a, b) == oracle_rank_sum_p(a, b)

    @pytest.mark.parametrize("single", ["n1", "n2"])
    def test_exact_one_value_side_matches_enumeration(self, single):
        # A side of one value counts its size-1 subsets from a histogram of the ranks.
        rng = random.Random(13)
        for trial in range(100):
            draw = ((lambda: rng.choice([0.0, 0.5, 1.0, 2.5])) if trial % 2
                    else (lambda: round(rng.uniform(0, 5), 1)))
            one, many = [draw()], [draw() for _ in range(rng.randint(1, 40))]
            a, b = (one, many) if single == "n1" else (many, one)
            assert wilcoxon_rank_sum(a, b) == oracle_rank_sum_p(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(EvaluationError):
            wilcoxon_rank_sum([], [1.0])

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]) | st.floats(0, 100),
                    min_size=32, max_size=40), st.integers(12, 20))
    def test_normal_approximation_is_the_tie_corrected_formula(self, pooled, n1):
        # Past the exact limit: the p-value from plain-Python midranks and tie counts, bit for bit.
        a, b = pooled[:n1], pooled[n1:]
        assert math.comb(len(pooled), n1) > 500_000
        ranks = oracle_midranks(pooled)
        n, n2 = len(pooled), len(b)
        ties = Counter(pooled).values()
        if len(ties) == 1:
            expected = 1.0
        else:
            tie_term = sum(t**3 - t for t in ties)
            variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
            z = (sum(ranks[:n1]) - n1 * (n + 1) / 2.0) / math.sqrt(variance)
            expected = math.erfc(abs(z) / math.sqrt(2.0))
        assert wilcoxon_rank_sum(a, b) == expected


def oracle_cliffs_delta(a, b):
    greater = sum(1 for x in a for y in b if x > y)
    less = sum(1 for x in a for y in b if x < y)
    return abs(greater - less) / (len(a) * len(b))


class TestCliffsDelta:
    def test_fully_separated(self):
        delta = cliffs_delta([10.0, 11.0], [1.0, 2.0])
        assert delta == pytest.approx(1.0)
        assert delta_category(delta) == "large"

    def test_identical(self):
        delta = cliffs_delta([3.0, 3.0], [3.0, 3.0])
        assert delta == 0.0
        assert delta_category(delta) == "negligible"

    def test_mixed_4x4_matches_brute_force(self):
        a = [1.0, 4.0, 2.0, 7.0]
        b = [3.0, 2.0, 5.0, 1.0]
        assert cliffs_delta(a, b) == pytest.approx(oracle_cliffs_delta(a, b))

    def test_random_matches_brute_force(self):
        # Both sides divide the same dominance count by n1 * n2.
        rng = random.Random(13)
        for _ in range(50):
            a = [rng.uniform(0, 3) for _ in range(rng.randint(1, 12))]
            b = [rng.uniform(0, 3) for _ in range(rng.randint(1, 12))]
            assert cliffs_delta(a, b) == oracle_cliffs_delta(a, b)
        for _ in range(20):  # the shape `eval --compare` passes: 100 F values over a few values
            values = [0.0, 100.0, *(rng.uniform(0, 100) for _ in range(rng.randint(0, 3)))]
            a = [rng.choice(values) for _ in range(100)]
            b = [rng.choice(values) for _ in range(100)]
            assert cliffs_delta(a, b) == oracle_cliffs_delta(a, b)

    def test_category_cutpoints(self):
        assert delta_category(0.1499999) == "negligible"
        assert delta_category(0.15) == "small"
        assert delta_category(0.3299999) == "small"
        assert delta_category(0.33) == "medium"
        assert delta_category(0.4699999) == "medium"
        assert delta_category(0.47) == "large"
        assert delta_category(1.0) == "large"


class TestCompareRuns:
    def test_produces_p_and_delta(self):
        a = [float(x) for x in range(100)]
        b = [float(x) + 5 for x in range(100)]
        comparison = compare_runs(a, b)
        assert 0.0 <= comparison.p_value <= 1.0
        assert 0.0 <= comparison.delta <= 1.0
        assert comparison.category in ("negligible", "small", "medium", "large")


class TestParseMode:
    def test_modes(self):
        assert parse_mode("ir-only") == frozenset()
        assert parse_mode("b") == {"b"}
        assert parse_mode("b+o+i") == {"b", "o", "i"}
        assert parse_mode("o+i") == {"o", "i"}

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_mode("b+i")
        with pytest.raises(ConfigError):
            parse_mode("everything")
