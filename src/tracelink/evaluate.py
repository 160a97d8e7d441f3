"""Retrieval metrics and statistical comparison of ranked link lists.

A leaf module: it measures rankings and knows nothing of how they were
made. Precision/recall/F and AP work on the global ranked link list (all
sources' links sorted together by descending score, then source and target
id); MAP averages per-query AP, each over its source's list in the order
given, over queries that have at least one relevant target. The
Wilcoxon rank-sum test is exact (full enumeration via a subset-sum count)
for small samples and falls back to the tie-corrected normal approximation;
Cliff's delta uses the absolute-value form with the 0.15/0.33/0.47
category cutpoints.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import EvaluationError

# Exact Wilcoxon enumeration is used while C(n1+n2, n1) stays below this.
_EXACT_LIMIT = 500_000


@dataclass
class EvalReport:
    """Precision-recall curve, sampled F values, AP and MAP for one run."""

    pr_curve: list[tuple[float, float]]          # (recall%, precision%) per cutoff
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


def f_at_recall_levels(curve: list[tuple[float, float]]) -> list[float]:
    """F at integer recall levels 1..100, stepping on the pr curve.

    For each level the curve point at the smallest cutoff reaching that
    recall supplies both precision and recall; unreachable levels give 0.
    Recall never decreases along a ranking's curve, so that point is found
    by bisection.
    """
    recalls = [r for r, _ in curve]
    values: list[float] = []
    for level in range(1, 101):
        index = bisect.bisect_left(recalls, level)
        if index == len(curve):
            values.append(0.0)
        else:
            recall, precision = curve[index]
            values.append(f_measure(precision, recall))
    return values


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

    # counts[size][sum2] = number of subsets of that size and doubled-rank sum
    counts: list[dict[int, int]] = [dict() for _ in range(n1 + 1)]
    counts[0][0] = 1
    for r in rank2:
        for size in range(min(n1, len(counts) - 1), 0, -1):
            lower = counts[size - 1]
            if not lower:
                continue
            target = counts[size]
            for s, c in lower.items():
                target[s + r] = target.get(s + r, 0) + c
    total_subsets = math.comb(n, n1)
    extreme = sum(
        c for s, c in counts[n1].items() if abs(s * n - n1 * total2) >= dev_obs
    )
    return extreme / total_subsets


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


def cliffs_delta(a: list[float], b: list[float]) -> StatComparison:
    """Absolute Cliff's delta with the standard category cutpoints.

    Computed by sorting one sample and counting dominances with binary
    search, which matches the quadratic definition exactly.
    """
    if not a or not b:
        raise EvaluationError("both samples must be nonempty")
    sorted_b = sorted(b)
    n1, n2 = len(a), len(b)
    greater = 0
    less = 0
    for x in a:
        greater += bisect.bisect_left(sorted_b, x)          # b values < x
        less += n2 - bisect.bisect_right(sorted_b, x)       # b values > x
    delta = abs(greater - less) / (n1 * n2)
    return StatComparison(p_value=float("nan"), delta=delta, category=delta_category(delta))


def delta_category(delta: float) -> str:
    if delta < 0.15:
        return "negligible"
    if delta < 0.33:
        return "small"
    if delta < 0.47:
        return "medium"
    return "large"


def compare_runs(f_a: list[float], f_b: list[float]) -> StatComparison:
    """Wilcoxon p and Cliff's delta between two runs' F-at-recall samples."""
    p = wilcoxon_rank_sum(f_a, f_b)
    comparison = cliffs_delta(f_a, f_b)
    comparison.p_value = p
    return comparison


def evaluate_ranking(
    candidates: dict[str, list[tuple[str, float]]],
    oracle: set[tuple[str, str]],
) -> EvalReport:
    """Full report for one run: global list metrics plus per-query MAP.

    The global list orders every link by (-score, source id, target id).
    One stable lexsort over id ranks gives that order, and the curve is the
    running hit count with the same float64 operations per cutoff as a
    Python loop. AP sums in rank order in Python, as `np.sum` would sum
    pairwise and change the last bits.
    """
    if not oracle:
        raise EvaluationError("evaluation requires a nonempty oracle")
    wanted: dict[str, set[str]] = {}
    for source, target in oracle:
        wanted.setdefault(source, set()).add(target)

    source_rank = {source: i for i, source in enumerate(sorted(candidates))}
    source_col: list[int] = []
    target_ids: list[str] = []
    scores: list[float] = []
    relevant: list[bool] = []
    per_query_ap: dict[str, float] = {}
    for source, ranked in candidates.items():
        names = [target for target, _ in ranked]
        if source in wanted:
            found = list(map(wanted[source].__contains__, names))
            ranks = list(compress(range(1, len(names) + 1), found))
            per_query_ap[source] = _average_precision(ranks, len(wanted[source]))
        else:
            found = [False] * len(names)
        source_col += [source_rank[source]] * len(names)
        target_ids += names
        scores += [score for _, score in ranked]
        relevant += found
    if not per_query_ap:
        raise EvaluationError("no query has any relevant target")

    target_rank = {target: i for i, target in enumerate(sorted(set(target_ids)))}
    target_col = np.fromiter(map(target_rank.__getitem__, target_ids), np.int64, len(target_ids))
    order = np.lexsort((target_col, np.array(source_col, np.int64), -np.array(scores, np.float64)))
    ranked_relevant = np.array(relevant, bool)[order]
    hits = np.cumsum(ranked_relevant)
    precision = 100.0 * hits / np.arange(1, len(hits) + 1)
    recall = 100.0 * hits / len(oracle)
    curve = list(zip(recall.tolist(), precision.tolist()))
    ap = _average_precision((np.flatnonzero(ranked_relevant) + 1).tolist(), len(oracle))
    return EvalReport(
        pr_curve=curve,
        f_at_recall=f_at_recall_levels(curve),
        ap=ap,
        map=sum(per_query_ap.values()) / len(per_query_ap),
        per_query_ap=per_query_ap,
    )
