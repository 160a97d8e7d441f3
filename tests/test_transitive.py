"""Transitive path formation, per-hop thresholds, and score adjustment.

The path oracle re-enumerates every level-legal 2/3-hop node sequence and
filters each hop independently, so it shares no traversal code with the
implementation. `oracle_ranked` and `oracle_top_related` are the selection
rule as a Python sort over ids, the reference for the row-index selection
of `irmodels` and `enrich` and for every hop of `form_paths`. `select_rows`
is that rule on one row of a table, as the pipeline ran it per hop and per
enriched artifact before it cut prefixes of `irmodels.selection_lists`; it
is the reference for those prefixes, and `oracle_walk`, the recursive walk
over it, for `form_paths` over `hop_lists`. `oracle_paths_payload` is the
path_traces.json payload as dicts, whose `json.dumps` text
`paths_to_json_payload` must equal byte for byte. `paths_from`
walks from a source id over the level rows of `pipeline.level_rows`, as the
path stage does: each level's run of manifest positions, taken from the
level sizes alone, so its table must have its rows in manifest order, as
`full_table` builds them. `rows` resolves ids for tables in any order, such
as the sorted ones of `table_from_pairs`. `oracle_candidates` is the ranking
as dicts of (target, score) lists, adjusted per target and re-sorted with a
Python key: the reference, bit for bit, for the array ranking of
`path_stage`. `hand_table` builds every table from a hand-written matrix:
`oracle_scores` is the matrix the table must store, and the table is
handed it whole, with every id both a row and a column.
"""

import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelink.enrich import select_related_intermediates
from tracelink.irmodels import SimilarityTable, _order, kept, rank_candidates, selection_lists
from tracelink.pipeline import ABLATION_MODES, PipelineConfig, level_rows, path_stage
from tracelink.transitive import (
    LinkKind,
    TransitiveLink,
    TransitivePath,
    adjust_scores,
    form_paths,
    hop_lists,
    paths_to_json_payload,
)


class IdPools:
    """Minimal stand-in for Dataset: the three levels as id lists."""

    def __init__(self, sources, intermediates, targets):
        self.sources, self.intermediates, self.targets = sources, intermediates, targets

    def source_ids(self):
        return list(self.sources)

    def intermediate_ids(self):
        return list(self.intermediates)

    def target_ids(self):
        return list(self.targets)


def oracle_scores(matrix):
    """The matrix a table must store for `matrix`: its strict upper triangle,
    clipped into [0, 1], plus its transpose."""
    upper = np.triu(np.clip(matrix, 0.0, 1.0), 1)
    return upper + upper.T


def hand_table(ids, matrix):
    """A table over a hand-written matrix, of which only the strict upper cells count.

    Every id is both a row and a column, and the table is handed
    `oracle_scores`, which is symmetric and 0 on the diagonal.
    """
    return SimilarityTable(ids, ids, oracle_scores(matrix))


def table_from_pairs(scores, ids=None):
    """A vsm table over `ids` (default: every id in `scores`); unlisted pairs score 0."""
    if ids is None:
        ids = sorted({doc_id for pair in scores for doc_id in pair})
    matrix = np.array([
        [scores.get((a, b), scores.get((b, a), 0.0)) for b in ids] for a in ids
    ])
    return hand_table(ids, matrix)


def rows(table, ids):
    """The column of each of `ids` in `table`, in the order given.

    Every table here lists its row ids first among its column ids, so the
    column of an id that is a row is also its row.
    """
    return np.array([table.col_ids.index(doc_id) for doc_id in ids], dtype=np.intp)


def paths_from(source, pools, table, m, t, allow_inner=True):
    """`form_paths` from the id `source`, over `level_rows(pools)` in a manifest-ordered `table`."""
    lists = hop_lists(table, level_rows(pools), t)
    return form_paths(table.row_ids.index(source), lists, table.col_ids, m, t, allow_inner)


def select_rows(table, row, cols, m, t):
    """The first t of `cols` scoring at least m times the best against `row`, with those scores.

    The selection rule on one row, as the pipeline applied it per hop and
    per enriched artifact before it cut prefixes of `selection_lists`.
    """
    scores = table.scores[row, cols]
    best = scores.max(initial=0.0)
    keep = (scores >= m * best) & (best > 0.0)
    cols, scores = cols[keep], scores[keep]
    order = _order(table, cols, scores)[:t]
    return cols[order], scores[order].tolist()


def oracle_walk(source_row, levels, table, m, t, allow_inner=True):
    """`form_paths` as a recursive walk that selects every hop with `select_rows`."""
    paths = []

    def walk(nodes, kinds, scores, level):
        if level == len(levels) - 1:
            links = [TransitiveLink(*link) for link in zip(kinds, scores)]
            bonus = math.prod(scores, start=1.0)
            paths.append(TransitivePath([table.col_ids[node] for node in nodes], links, bonus))
            return
        here, hops = nodes[-1], len(scores)
        moves = [(LinkKind.OUTER, levels[level + 1], level + 1)]
        if allow_inner and hops == level:
            moves.append((LinkKind.INNER, levels[level][levels[level] != here], level))
        for kind, pool, next_level in moves:
            rows, found = select_rows(table, here, pool, 0.1 * hops + m, max(1, t - hops))
            for row, score in zip(rows.tolist(), found):
                walk([*nodes, row], [*kinds, kind], [*scores, score], next_level)

    walk([source_row], [], [], 0)
    return paths


def full_table(pools, scores):
    return table_from_pairs(
        scores, pools.source_ids() + pools.intermediate_ids() + pools.target_ids()
    )


def oracle_paths(source, pools, table, m, cap, allow_inner):
    """Exhaustive enumeration of legal thresholded 2/3-hop sequences."""

    def admissible(from_id, pool, hop_index, chosen):
        scored = sorted(
            ((other, table.score(from_id, other)) for other in pool),
            key=lambda item: (-item[1], item[0]),
        )
        if not scored or scored[0][1] <= 0.0:
            return False
        cutoff = (0.1 * hop_index + m) * scored[0][1]
        kept = [o for o, s in scored if s >= cutoff][: max(1, cap - hop_index)]
        return chosen in kept

    sources = pools.source_ids()
    inters = pools.intermediate_ids()
    targets = pools.target_ids()
    found = set()
    # S > I > T
    for i in inters:
        for t in targets:
            if admissible(source, inters, 0, i) and admissible(i, targets, 1, t):
                found.add((source, i, t))
    if allow_inner:
        # S > S' > I > T
        for s2 in sources:
            if s2 == source:
                continue
            for i in inters:
                for t in targets:
                    if (
                        admissible(source, [x for x in sources if x != source], 0, s2)
                        and admissible(s2, inters, 1, i)
                        and admissible(i, targets, 2, t)
                    ):
                        found.add((source, s2, i, t))
        # S > I > I' > T
        for i in inters:
            for i2 in inters:
                if i2 == i:
                    continue
                for t in targets:
                    if (
                        admissible(source, inters, 0, i)
                        and admissible(i, [x for x in inters if x not in (i, source)], 1, i2)
                        and admissible(i2, targets, 2, t)
                    ):
                        found.add((source, i, i2, t))
    return found


def oracle_ranked(table, a, pool):
    """`pool` with its scores against `a`, sorted by descending score, then by id."""
    scored = [(other, table.score(a, other)) for other in pool]
    return sorted(scored, key=lambda item: (-item[1], item[0]))


def oracle_top_related(table, a, pool, m, t):
    """The first t of `oracle_ranked` scoring at least m times the best.

    An all-zero row selects nothing.
    """
    scored = oracle_ranked(table, a, pool)
    if not scored or scored[0][1] <= 0.0:
        return []
    cutoff = m * scored[0][1]
    return [(other, s) for other, s in scored if s >= cutoff][:t]


def reference_paths(source, pools, table, m, t, allow_inner):
    """The three path shapes as hand-nested loops, in the order the traces are written.

    Each path is (nodes, link kinds, link scores, bonus), so comparing lists
    pins the enumeration order and every number written to path_traces.json.
    """

    def select(from_id, pool, hops):
        return oracle_top_related(table, from_id, pool, 0.1 * hops + m, max(1, t - hops))

    def path(nodes, kinds, scores):
        bonus = 1.0
        for score in scores:
            bonus *= score
        return (tuple(nodes), tuple(kinds), tuple(scores), bonus)

    sources = pools.source_ids()
    inters = pools.intermediate_ids()
    targets = pools.target_ids()
    found = []
    for i, s_i in select(source, inters, 0):
        for t_, i_t in select(i, targets, 1):
            found.append(path([source, i, t_], ["outer", "outer"], [s_i, i_t]))
        if allow_inner:
            peers = [x for x in inters if x not in (source, i)]
            for i2, i_i2 in select(i, peers, 1):
                for t_, i2_t in select(i2, targets, 2):
                    found.append(path(
                        [source, i, i2, t_], ["outer", "inner", "outer"], [s_i, i_i2, i2_t]
                    ))
    if allow_inner:
        for s2, s_s2 in select(source, [x for x in sources if x != source], 0):
            for i, s2_i in select(s2, inters, 1):
                for t_, i_t in select(i, targets, 2):
                    found.append(path(
                        [source, s2, i, t_], ["inner", "outer", "outer"], [s_s2, s2_i, i_t]
                    ))
    return found


def level_ids(rng, letter, n):
    """n ids of one level, in an order unlike sorted order: "s10" < "s9" < "sé", and "S9" first."""
    names = [f"{letter}{k}" for k in range(11)]
    names += [f"{letter.upper()}9", f"{letter}é", f"é{letter}"]
    return rng.sample(names, n)


def random_scenario(rng):
    pools = IdPools(
        level_ids(rng, "s", rng.randint(1, 8)),
        level_ids(rng, "i", rng.randint(0, 8)),
        level_ids(rng, "t", rng.randint(1, 8)),
    )
    ids = pools.source_ids() + pools.intermediate_ids() + pools.target_ids()
    scores = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            # Exact zeros exercise the degenerate-max rule; repeated values make exact ties.
            draw = rng.random()
            scores[(a, b)] = (0.0 if draw < 0.3 else rng.choice((0.25, 0.5)) if draw < 0.5
                              else round(rng.random(), 3))
    return pools, full_table(pools, scores)


def path_tuples(paths):
    """(nodes, link kinds, link scores, bonus) of each path, as `reference_paths` gives them."""
    return [
        (
            tuple(p.nodes),
            tuple(link.kind.value for link in p.links),
            tuple(link.score for link in p.links),
            p.bonus,
        )
        for p in paths
    ]


# Ids whose sorted order is unlike their drawn order: digits, case and non-ASCII.
_TIE_IDS = st.text(st.sampled_from("sS019_\u00e9\u03a9"), min_size=1, max_size=3)
# Few distinct values, so most rows hold exact ties.
_TIE_SCORES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def tie_scenarios(draw):
    """Three id pools over a table full of exact ties, some of its rows all zero."""
    ids = draw(st.lists(_TIE_IDS, min_size=2, max_size=14, unique=True))
    n = len(ids)
    first_inter = draw(st.integers(1, n - 1))
    first_target = draw(st.integers(first_inter, n - 1))
    pools = IdPools(ids[:first_inter], ids[first_inter:first_target], ids[first_target:])
    matrix = np.array(draw(st.lists(_TIE_SCORES, min_size=n * n, max_size=n * n))).reshape(n, n)
    zero = draw(st.lists(st.integers(0, n - 1), max_size=3))
    matrix[zero, :] = matrix[:, zero] = 0.0
    return pools, hand_table(ids, matrix)


def selected_ids(table, row, cols, m, t):
    """`select_rows` as (id, score) pairs."""
    rows, scores = select_rows(table, row, cols, m, t)
    return list(zip([table.col_ids[r] for r in rows.tolist()], scores))


def check_selection_lists(table, rows_, pool, m, t, inner=False):
    """`selection_lists` of `rows_` over `pool`, against `oracle_ranked` and `select_rows`.

    Each row's list is the first t of its pool in oracle order, it leads with
    the pool's best (or is empty), and the prefix `kept` cuts is what
    `select_rows` selects. With `inner` the pool is `rows_` and each row's
    pool leaves the row out; the row may then stand in its own list, with
    the table's own 0 at its cell with itself.
    """
    cols, scores = selection_lists(table, rows_, pool, t)
    assert len(cols) == len(scores) == len(rows_)
    for row, mine, found in zip(rows_.tolist(), cols, scores):
        others = pool[pool != row] if inner else pool
        ranked = sorted(((table.col_ids[col], float(table.scores[row, col]))
                         for col in others.tolist()), key=lambda item: (-item[1], item[0]))
        assert len(mine) == len(found) == min(t, len(pool))
        assert not inner or table.scores[row, row] == 0.0
        assert all(score == 0.0 for col, score in zip(mine, found) if inner and col == row)
        listed = [(table.col_ids[col], score) for col, score in zip(mine, found)
                  if not (inner and col == row)]
        assert listed == ranked[:len(listed)]
        assert (found[0] if found else 0.0) == max([score for _, score in ranked], default=0.0)
        k = kept(found, m, t)
        expected_cols, expected_scores = select_rows(table, row, others, m, t)
        assert (mine[:k], found[:k]) == (expected_cols.tolist(), expected_scores)


@pytest.mark.parametrize("scores, m, t, expected", [
    ([], 0.5, 3, 0),  # an empty list
    ([0.0, 0.0], 0.5, 3, 0),  # a list led by 0.0: a row whose best is 0
    ([0.8, 0.4, 0.4, 0.3], 0.5, 4, 3),  # two ties exactly at the cutoff 0.5 * 0.8
    ([0.7, 0.7, 0.6], 1.0, 3, 2),  # ties with the best at m = 1
    ([0.9, 0.9, 0.9, 0.5], 0.5, 2, 2),  # a cap below the list's length
    ([0.9, 0.3], 0.5, 1, 1),  # a cap of 1 keeps the best alone
])
def test_kept_reads_the_best_from_the_head_of_the_list(scores, m, t, expected):
    assert kept(scores, m, t) == expected


@given(tie_scenarios(), st.sampled_from([0.1, 0.5, 0.75, 1.0]), st.integers(1, 4), st.booleans())
def test_selection_matches_sorted_oracle_under_ties(scenario, m, t, allow_inner):
    pools, table = scenario
    sources, _, targets = level_rows(pools)
    target_ids = pools.target_ids()
    assert rank_candidates(table, sources, targets, 1.0) == {
        s: oracle_ranked(table, s, target_ids) for s in pools.source_ids()
    }
    for row, a in enumerate(table.row_ids):
        pool = [b for b in table.col_ids if b != a]
        cols = rows(table, pool)
        ranked = rank_candidates(table, np.array([row]), cols, 1.0)[a]
        assert ranked == oracle_ranked(table, a, pool)
        expected = oracle_top_related(table, a, pool, m, t)
        assert selected_ids(table, row, cols, m, t) == expected
    every_row, every_col = np.arange(len(table.row_ids)), np.arange(len(table.col_ids))
    related = select_related_intermediates(table, m, t)
    assert related == [select_rows(table, row, every_col, m, t)[0].tolist() for row in every_row]
    # Every level and every column as a pool of every row, an empty pool, and each
    # level as its own inner pool; t may exceed a pool, and tie_scenarios has all-zero rows.
    for pool in (*level_rows(pools), every_col, np.array([], np.intp)):
        check_selection_lists(table, every_row, pool, m, t)
    for level in level_rows(pools):
        check_selection_lists(table, level, level, m, t, inner=True)
    for source in pools.source_ids():
        got = path_tuples(paths_from(source, pools, table, m, t, allow_inner))
        assert got == reference_paths(source, pools, table, m, t, allow_inner)


class TestFormPaths:
    def test_no_intermediates_no_paths(self):
        pools = IdPools(["s1", "s2"], [], ["t1"])
        table = full_table(pools, {("s1", "s2"): 0.9, ("s1", "t1"): 0.9, ("s2", "t1"): 0.9})
        m, t = 0.5, 3
        assert paths_from("s1", pools, table, m, t, allow_inner=True) == []

    def test_one_inner_link_max(self):
        pools = IdPools(["s1", "s2"], ["i1", "i2"], ["t1"])
        table = full_table(pools, {
            ("s1", "s2"): 0.9, ("s2", "i1"): 0.9, ("i1", "i2"): 0.9,
            ("i2", "t1"): 0.9, ("i1", "t1"): 0.9, ("s1", "i1"): 0.9,
        })
        m, t = 0.5, 3
        for path in paths_from("s1", pools, table, m, t, allow_inner=True):
            inner_count = sum(1 for link in path.links if link.kind is LinkKind.INNER)
            assert inner_count <= 1
            assert len(path.links) in (2, 3)
            if len(path.links) == 3:
                assert inner_count == 1

    def test_structural_invariants_hold_for_all_outputs(self):
        # Validator over every emitted path: hop count, level sequence,
        # at most one inner link (never between targets), no node repeats,
        # endpoints at the right levels, bonus in [0, 1].
        rng = random.Random(131)
        m, t = 0.5, 3
        for _ in range(40):
            pools, table = random_scenario(rng)
            sources = set(pools.source_ids())
            inters = set(pools.intermediate_ids())
            targets = set(pools.target_ids())
            for source in pools.source_ids():
                for path in paths_from(source, pools, table, m, t, allow_inner=True):
                    assert len(path.links) in (2, 3)
                    assert len(set(path.nodes)) == len(path.nodes)
                    assert path.nodes[0] in sources
                    assert path.nodes[-1] in targets
                    inner_links = [l for l in path.links if l.kind is LinkKind.INNER]
                    assert len(inner_links) == (len(path.links) - 2)
                    for from_id, to_id, link in zip(path.nodes, path.nodes[1:], path.links):
                        levels = {
                            n: ("s" if n in sources else "i" if n in inters else "t")
                            for n in (from_id, to_id)
                        }
                        if link.kind is LinkKind.INNER:
                            assert levels[from_id] == levels[to_id]
                            assert levels[from_id] != "t"
                        else:
                            assert {levels[from_id], levels[to_id]} in (
                                {"s", "i"}, {"i", "t"},
                            )
                    assert 0.0 <= path.bonus <= 1.0

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(101)
        m = 0.5
        for _ in range(100):
            pools, table = random_scenario(rng)
            # The cap floor of max(1, t - hops) binds only when t <= 2.
            for source, t in itertools.product(pools.source_ids(), (3, 1, 2)):
                for allow_inner in (False, True):
                    got = {
                        tuple(p.nodes) for p in paths_from(source, pools, table, m, t, allow_inner)
                    }
                    expected = oracle_paths(source, pools, table, m, t, allow_inner)
                    assert got == expected

    def test_matches_reference_order(self):
        rng = random.Random(101)
        m = 0.5
        for _ in range(100):
            pools, table = random_scenario(rng)
            for source, t in itertools.product(pools.source_ids(), (3, 1, 2)):
                for allow_inner in (False, True):
                    got = path_tuples(paths_from(source, pools, table, m, t, allow_inner))
                    assert got == reference_paths(source, pools, table, m, t, allow_inner)

    def test_outer_only_subset_of_outer_inner(self):
        rng = random.Random(103)
        m, t = 0.5, 3
        for _ in range(50):
            pools, table = random_scenario(rng)
            for source in pools.source_ids():
                outer = {tuple(p.nodes) for p in paths_from(source, pools, table, m, t, False)}
                both = {tuple(p.nodes) for p in paths_from(source, pools, table, m, t, True)}
                assert outer <= both

    def test_threshold_monotonicity(self):
        rng = random.Random(107)
        for _ in range(30):
            pools, table = random_scenario(rng)
            loose = (0.4, 4)
            tight_m = (0.6, 4)
            tight_t = (0.4, 2)
            for source in pools.source_ids():
                base = {tuple(p.nodes) for p in paths_from(source, pools, table, *loose, True)}
                for tight in (tight_m, tight_t):
                    got = {tuple(p.nodes) for p in paths_from(source, pools, table, *tight, True)}
                    assert got <= base

    def test_enumeration_deterministic(self):
        rng = random.Random(109)
        pools, table = random_scenario(rng)
        m, t = 0.5, 3
        for source in pools.source_ids():
            first = [tuple(p.nodes) for p in paths_from(source, pools, table, m, t, True)]
            second = [tuple(p.nodes) for p in paths_from(source, pools, table, m, t, True)]
            assert first == second

    def test_bonus_is_product_of_link_scores(self):
        rng = random.Random(113)
        pools, table = random_scenario(rng)
        m, t = 0.5, 3
        for source in pools.source_ids():
            for path in paths_from(source, pools, table, m, t, True):
                product = 1.0
                for link in path.links:
                    product *= link.score
                assert path.bonus == pytest.approx(product)
                assert 0.0 <= path.bonus <= 1.0


def oracle_adjust_scores(candidates, paths):
    """Each score times (1 + bonus) per path to its target, in path order, sorted by (-score, id)."""
    adjusted = {}
    for source, targets in candidates.items():
        multipliers = {}
        for path in paths.get(source, []):
            target = path.nodes[-1]
            multipliers[target] = multipliers.get(target, 1.0) * (1.0 + path.bonus)
        rescored = [(t, score * multipliers.get(t, 1.0)) for t, score in targets]
        rescored.sort(key=lambda item: (-item[1], item[0]))
        adjusted[source] = rescored
    return adjusted


def oracle_candidates(pools, table, paths):
    """Every source's targets ranked by `oracle_ranked`, then adjusted by `paths`."""
    ranked = {s: oracle_ranked(table, s, pools.target_ids()) for s in pools.source_ids()}
    return oracle_adjust_scores(ranked, paths)


def run_path_stage(pools, table, mode, m=0.5, t=3):
    """The ranking and paths of `path_stage` under `mode`."""
    return path_stage(pools, PipelineConfig(mode=mode, m=m, t=t), table)


_SCENARIOS = tie_scenarios() | st.integers(0, 2**32 - 1).map(
    lambda seed: random_scenario(random.Random(seed))
)


@given(_SCENARIOS, st.sampled_from(ABLATION_MODES), st.sampled_from([0.1, 0.5, 0.75, 1.0]),
       st.integers(1, 4))
def test_path_stage_candidates_equal_dict_oracle(scenario, mode, m, t):
    pools, table = scenario
    candidates, paths = run_path_stage(pools, table, mode, m, t)
    assert candidates == oracle_candidates(pools, table, paths)
    # Mapping equality ignores order, and MAP sums per-query APs in source order.
    assert list(candidates) == pools.source_ids()


def test_dict_oracle_cases_occur():
    """The random scenarios reach each case the oracle property is meant to cover."""
    rng = random.Random(149)
    seen = Counter()
    for _ in range(100):
        pools, table = random_scenario(rng)
        candidates, paths = run_path_stage(pools, table, "o+i")
        assert candidates == oracle_candidates(pools, table, paths)
        targets = pools.target_ids()
        seen["ids out of sorted order"] += targets != sorted(targets)
        for source, found in paths.items():
            per_target = Counter(p.nodes[-1] for p in found)
            seen["no path"] += not found
            seen["two paths to one target"] += max(per_target.values(), default=0) >= 2
            seen["three paths to one target"] += max(per_target.values(), default=0) >= 3
            before = [score for _, score in oracle_ranked(table, source, targets)]
            seen["tie before adjustment"] += len(set(before)) < len(before)
    assert len(seen) == 5 and all(seen.values()), seen


def test_ties_made_by_adjustment_break_by_id():
    # "ta" rises from 0.25 to 0.25 * (1 + 1.0) and ties with "tb"; "t9" and
    # "t10" both rise from 0.125 by (1 + 0.5). Manifest order is unlike id order.
    pools = IdPools(["s"], ["i", "j"], ["tb", "ta", "t9", "t10"])
    table = full_table(pools, {
        ("s", "i"): 1.0, ("s", "j"): 1.0, ("i", "ta"): 1.0, ("j", "t9"): 0.5,
        ("j", "t10"): 0.5, ("s", "tb"): 0.5, ("s", "ta"): 0.25,
        ("s", "t9"): 0.125, ("s", "t10"): 0.125,
    })
    candidates, paths = run_path_stage(pools, table, "o")
    assert candidates == oracle_candidates(pools, table, paths) == {
        "s": [("ta", 0.5), ("tb", 0.5), ("t10", 0.1875), ("t9", 0.1875)]
    }


class TestAdjustScores:
    def test_single_path_formula(self):
        path = TransitivePath(nodes=["s", "i", "t"], links=[], bonus=0.42)
        multipliers = adjust_scores({"s": [path]}, ["s"], ["t"])
        assert 0.2 * multipliers[0, 0] == pytest.approx(0.284)

    def test_no_paths_no_change(self):
        table = table_from_pairs({("s", "t1"): 0.5, ("s", "t2"): 0.3})
        sources, targets = rows(table, ["s"]), rows(table, ["t1", "t2"])
        multipliers = adjust_scores({}, ["s"], ["t1", "t2"])
        assert multipliers.tolist() == [[1.0, 1.0]]
        assert rank_candidates(table, sources, targets, multipliers) == rank_candidates(
            table, sources, targets, 1.0
        )

    def test_multiplicative_composition(self):
        paths = [
            TransitivePath(nodes=["s", "i1", "t"], links=[], bonus=0.1),
            TransitivePath(nodes=["s", "i2", "t"], links=[], bonus=0.2),
        ]
        multipliers = adjust_scores({"s": paths}, ["s"], ["t"])
        assert 0.5 * multipliers[0, 0] == pytest.approx(0.5 * 1.1 * 1.2)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_paths_never_repeat_a_node_and_never_lower_a_score(self, seed, m, t, allow_inner):
        pools, table = random_scenario(random.Random(seed))
        sources, _, targets = level_rows(pools)
        paths = {s: paths_from(s, pools, table, m, t, allow_inner) for s in pools.source_ids()}
        for found in paths.values():
            for path in found:
                assert len(set(path.nodes)) == len(path.nodes)
        before = table.scores[np.ix_(sources, targets)]
        multipliers = adjust_scores(paths, pools.source_ids(), pools.target_ids())
        assert (before * multipliers >= before).all()

    def test_monotone_non_decrease_and_resort(self):
        rng = random.Random(127)
        for _ in range(30):
            pools, table = random_scenario(rng)
            adjusted, _ = run_path_stage(pools, table, "o+i")
            for s in pools.source_ids():
                before = dict(oracle_ranked(table, s, pools.target_ids()))
                for t, score in adjusted[s]:
                    assert score >= before[t] - 1e-15
                values = [score for _, score in adjusted[s]]
                assert values == sorted(values, reverse=True)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.5, 0.9, 0.95, 1.0]),
       st.integers(1, 4), st.booleans())
def test_walk_over_lists_matches_per_hop_selection(seed, m, t, allow_inner):
    """Every path, link score and bonus of `form_paths` equals the per-hop `select_rows` walk's."""
    pools, table = random_scenario(random.Random(seed))
    levels = level_rows(pools)
    lists = hop_lists(table, levels, t)
    for row in levels[0].tolist():
        got = form_paths(row, lists, table.col_ids, m, t, allow_inner)
        assert path_tuples(got) == path_tuples(oracle_walk(row, levels, table, m, t, allow_inner))


def oracle_paths_payload(paths):
    """The path_traces.json payload as a list of dicts, for `json.dumps`."""
    payload = []
    for source in sorted(paths):
        payload.append({
            "source": source,
            "paths": [
                {
                    "nodes": list(p.nodes),
                    "link_kinds": [link.kind.value for link in p.links],
                    "link_scores": [round(link.score, 6) for link in p.links],
                    "bonus": round(p.bonus, 6),
                }
                for p in paths[source]
            ],
        })
    return payload


# Ids that json escapes: quotes, backslashes, control, non-ASCII and non-BMP characters.
_JSON_IDS = st.text(st.sampled_from('s1"\\\x00\x1f\né \U0001f600') | st.characters(),
                    max_size=4)
# Scores that round to 0, to 1e-05 (written "1e-05"), to values of 1 or more, and any other.
_JSON_SCORES = st.sampled_from(
    [0.0, 4e-7, 6e-6, 1e-5, 1.04e-5, 0.5, 0.9999996, 1.0, 1.5, 12.3456789]
) | st.floats(0.0, 20.0)


@st.composite
def drawn_path(draw):
    links = draw(st.lists(st.tuples(st.sampled_from(LinkKind), _JSON_SCORES), max_size=3))
    nodes = draw(st.lists(_JSON_IDS, max_size=4))
    return TransitivePath(nodes, [TransitiveLink(*link) for link in links], draw(_JSON_SCORES))


_PATH_SETS = (
    st.dictionaries(_JSON_IDS, st.lists(drawn_path(), max_size=3), max_size=4)
    | st.tuples(_SCENARIOS, st.sampled_from(ABLATION_MODES)).map(
        lambda drawn: run_path_stage(*drawn[0], drawn[1])[1])
)


@given(_PATH_SETS)
def test_path_text_is_json_dumps_of_the_payload(paths):
    expected = json.dumps(oracle_paths_payload(paths), sort_keys=True, indent=2) + "\n"
    assert paths_to_json_payload(paths) == expected


def test_path_text_cases():
    assert paths_to_json_payload({}) == "[]\n"
    text = paths_to_json_payload({"sé": [], "s": [
        TransitivePath(["s", "i", "t"], [TransitiveLink(LinkKind.OUTER, 4e-7),
                                         TransitiveLink(LinkKind.OUTER, 1.0)], 1.04e-5)]})
    assert json.loads(text) == [
        {"paths": [{"bonus": 1e-05, "link_kinds": ["outer", "outer"],
                    "link_scores": [0.0, 1.0], "nodes": ["s", "i", "t"]}], "source": "s"},
        {"paths": [], "source": "sé"},
    ]
    assert '"bonus": 1e-05,' in text and '"source": "s\\u00e9"' in text
