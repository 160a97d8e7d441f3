"""Retrieval metrics and statistical comparison of ranked link lists.

It measures rankings and knows nothing of how they were made: its only
import from the package is the ranking's long form, `irmodels.RankedLinks`
(each link's source code, target code and score, in file order), the one
form the pipeline and the CSV reader give, and `evaluate_ranking` runs one
array core on it. Precision/recall/F and AP work on the global ranked link
list (all sources' links sorted together by descending score, then source
and target id); MAP averages per-query AP, each over its source's links in
the order given, over queries that have at least one relevant target, in
the ranking's source order. The report's curve is two float64 arrays,
recall and precision, one value per cutoff. The Wilcoxon rank-sum test is
exact for small samples, one masked sum over an int64 array that counts
subsets by size and doubled rank sum; past `_EXACT_LIMIT` subsets, as for
the 100 F values a side of `eval --compare`, it takes the tie-corrected
normal approximation. Cliff's delta counts dominances by binary search and uses
the absolute-value form with the 0.15/0.33/0.47 category cutpoints.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .irmodels import RankedLinks, sorted_rank

# Exact Wilcoxon enumeration is used while C(n1+n2, n1) stays below this.
_EXACT_LIMIT = 500_000


@dataclass
class EvalReport:
    """Precision-recall curve, sampled F values, AP and MAP for one run."""

    pr_curve: tuple[np.ndarray, np.ndarray]      # (recall%, precision%) float64 arrays, per cutoff
    f_at_recall: list[float]                     # F sampled at recall levels 1..100
    ap: float
    map: float
    per_query_ap: dict[str, float]

    def to_payload(self) -> dict:
        """Every field but `pr_curve`, rounded; the report writer adds the curve."""
        return {
            "ap": round(self.ap, 6),
            "map": round(self.map, 6),
            "per_query_ap": {q: round(v, 6) for q, v in sorted(self.per_query_ap.items())},
            "f_at_recall": [round(f, 6) for f in self.f_at_recall],
        }


@dataclass
class StatComparison:
    p_value: float
    delta: float
    category: str

    def to_payload(self) -> dict:
        return {
            "p_value": round(self.p_value, 9),
            "delta": round(self.delta, 6),
            "category": self.category,
        }


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; defined as 0 at P = R = 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_at_recall_levels(curve: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """F at integer recall levels 1..100, stepping on the (recall, precision) curve.

    For each level the curve point at the smallest cutoff reaching that
    recall supplies both precision and recall; unreachable levels, the
    highest ones, give 0. Recall never decreases along a ranking's curve, so
    those points are found by one binary search.
    """
    recall, precision = (np.asarray(values, np.float64) for values in curve)
    index = np.searchsorted(recall, np.arange(1, 101), side="left")
    index = index[index < len(recall)]
    values = list(map(f_measure, precision[index].tolist(), recall[index].tolist()))
    return values + [0.0] * (100 - len(values))


def _average_precision(relevant_ranks: list[int], n_relevant: int) -> float:
    """Mean of precision at the 1-based `relevant_ranks`, in rank order, over `n_relevant`, in %."""
    total = 0.0
    for hits, k in enumerate(relevant_ranks, start=1):
        total += hits / k
    return 100.0 * total / n_relevant


def _exact_rank_sum_p(rank2: list[int], n1: int, w2_obs: int) -> float:
    """Two-sided exact p over all n1-subsets of the doubled midranks.

    Counts subsets whose doubled rank sum deviates from the mean at least
    as much as observed. Integer arithmetic throughout (midranks doubled),
    so no floating-point tolerance is needed.
    """
    n = len(rank2)
    total2 = sum(rank2)
    # mean of W2 over subsets = n1 * total2 / n; compare scaled by n to stay integral
    dev_obs = abs(w2_obs * n - n1 * total2)
    # A subset and its complement deviate equally, so count the smaller size k.
    k = min(n1, n - n1)
    if k == 1:  # the subsets of one rank are the ranks themselves
        row = np.bincount(rank2)
    else:
        ranks = sorted(rank2)
        # counts[size, sum2] = number of subsets of that size and doubled-rank sum
        counts = np.zeros((k + 1, sum(ranks[n - k:]) + 1), np.int64)
        counts[0, 0] = 1
        for i, r in enumerate(ranks):
            # Subsets of fewer than k of the ranks so far sum to below `reach`.
            reach = sum(ranks[max(0, i - k + 1):i]) + 1
            counts[1:, r:r + reach] += counts[:-1, :reach]
        row = counts[k]
    deviation = np.abs(np.arange(len(row)) * n - k * total2)
    return int(row[deviation >= dev_obs].sum()) / math.comb(n, n1)


def wilcoxon_rank_sum(a: list[float], b: list[float]) -> float:
    """Two-sided rank-sum p-value with midrank ties.

    Exact enumeration when the subset count is small enough, otherwise the
    tie-corrected normal approximation (no continuity correction). Fully
    tied pooled samples give p = 1.
    """
    if not a or not b:
        raise EvaluationError("both samples must be nonempty")
    n1, n2 = len(a), len(b)
    n = n1 + n2
    # One grouping of the tied values gives the midranks and the tie counts.
    _, group, counts = np.unique([*a, *b], return_inverse=True, return_counts=True)
    if len(counts) == 1:
        return 1.0
    ends = np.cumsum(counts)
    # Group g holds the 1-based ranks ends[g] - counts[g] + 1 .. ends[g].
    ranks = ((2 * ends - counts + 1) / 2.0)[group.reshape(-1)].tolist()
    w = sum(ranks[:n1])

    if math.comb(n, n1) <= _EXACT_LIMIT:
        rank2 = [int(round(2 * r)) for r in ranks]
        return _exact_rank_sum_p(rank2, n1, int(round(2 * w)))

    mean = n1 * (n + 1) / 2.0
    tie_term = sum(t**3 - t for t in counts.tolist())
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return 1.0
    z = (w - mean) / math.sqrt(variance)
    return math.erfc(abs(z) / math.sqrt(2.0))


def cliffs_delta(a: list[float], b: list[float]) -> float:
    """Absolute Cliff's delta; `delta_category` names its size.

    Computed by sorting one sample and counting dominances with binary
    search, which matches the quadratic definition exactly.
    """
    if not a or not b:
        raise EvaluationError("both samples must be nonempty")
    sorted_b = np.sort(b)
    pairs = len(a) * len(b)
    greater = int(np.searchsorted(sorted_b, a, side="left").sum())          # pairs with x > y
    less = pairs - int(np.searchsorted(sorted_b, a, side="right").sum())    # pairs with x < y
    return abs(greater - less) / pairs


def delta_category(delta: float) -> str:
    size = bisect.bisect_right((0.15, 0.33, 0.47), delta)
    return ("negligible", "small", "medium", "large")[size]


def compare_runs(f_a: list[float], f_b: list[float]) -> StatComparison:
    """Wilcoxon p and Cliff's delta between two runs' F-at-recall samples."""
    p = wilcoxon_rank_sum(f_a, f_b)
    delta = cliffs_delta(f_a, f_b)
    return StatComparison(p, delta, delta_category(delta))


def evaluate_ranking(links: RankedLinks, oracle: set[tuple[str, str]]) -> EvalReport:
    """Full report for one run: global list metrics plus per-query MAP.

    The global list orders every link by (-score, source id, target id): one
    lexsort over the score and one key of id ranks gives that order, and the
    curve is the running hit count with the same float64 operations per
    cutoff as a Python loop. Per-query ranks come from the links grouped by
    source. AP sums in rank order in Python, as `np.sum` would sum pairwise
    and change the last bits; only relevant links reach Python.
    """
    if not oracle:
        raise EvaluationError("evaluation requires a nonempty oracle")
    relevant = links.in_pairs(oracle)

    order, starts = links.by_source
    hits = np.flatnonzero(relevant[order])
    hit_sources = links.source_codes[order[hits]]
    ranks: dict[int, list[int]] = {}
    for code, rank in zip(hit_sources.tolist(), (hits - starts[hit_sources] + 1).tolist()):
        ranks.setdefault(code, []).append(rank)
    wanted = Counter(source for source, _ in oracle)
    per_query_ap = {
        source: _average_precision(ranks.get(code, []), wanted[source])
        for code, source in enumerate(links.sources) if source in wanted
    }
    if not per_query_ap:
        raise EvaluationError("no query has any relevant target")

    id_key = (sorted_rank(links.sources)[links.source_codes] * len(links.targets)
              + sorted_rank(links.targets)[links.target_codes])
    order = np.lexsort((id_key, -links.scores))
    ranked_relevant = relevant[order]
    found = np.cumsum(ranked_relevant)
    precision = 100.0 * found / np.arange(1, len(found) + 1)
    recall = 100.0 * found / len(oracle)
    curve = (recall, precision)
    ap = _average_precision((np.flatnonzero(ranked_relevant) + 1).tolist(), len(oracle))
    return EvalReport(
        pr_curve=curve,
        f_at_recall=f_at_recall_levels(curve),
        ap=ap,
        map=sum(per_query_ap.values()) / len(per_query_ap),
        per_query_ap=per_query_ap,
    )
