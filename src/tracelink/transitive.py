"""Transitive link deduction and IR score adjustment.

A path is a walk from a source down the levels source > intermediate >
target. Each hop either steps down one level (an outer link) or, at most
once per path and never among targets, steps sideways to another artifact
of the same level (an inner link). That gives the shapes S>I>T, and with
inner links S>S'>I>T and S>I>I'>T. Nodes never repeat within a path. Each
hop applies the selection rule of enrichment, tightened by the hops already
taken: after h hops the next one keeps at most max(1, t - h) artifacts
scoring at least (0.1 * h + m) times the best, ties broken by ascending id.
As 0.1 * h + m >= m and max(1, t - h) <= t, each hop keeps a prefix of its
node's list for its move, which `hop_lists` orders once per table. The walk
carries row indexes (in the pipeline, manifest positions from `level_rows`)
and turns them into ids only to build a `TransitivePath`, whose k-th link
(kind, score) joins its k-th and next node. A path's bonus is the product
of its link similarities. `adjust_scores` turns the paths into one source x
target block of multipliers, (1 + bonus) per path; the caller ranks the IR
scores times that block once, with `irmodels.rank_candidates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

import numpy as np

from .irmodels import SimilarityTable, kept, selection_lists


class LinkKind(str, Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class TransitiveLink:
    kind: LinkKind
    score: float


@dataclass
class TransitivePath:
    """Ordered artifact chain from a source to a target with its bonus."""

    nodes: list[str]
    links: list[TransitiveLink]
    bonus: float


def hop_lists(table: SimilarityTable, levels: tuple[np.ndarray, ...], t: int) -> dict:
    """Per link kind, each source and intermediate row's (columns, scores, best) selection list.

    An outer move runs over the next level, an inner one over the row's own
    level without the row: four `selection_lists` blocks, S-I, S-S, I-T, I-I.
    """
    lists: dict[LinkKind, dict] = {LinkKind.OUTER: {}, LinkKind.INNER: {}}
    for here, below in zip(levels, levels[1:]):
        for kind, by_row in lists.items():
            inner = kind is LinkKind.INNER
            found = selection_lists(table, here, here if inner else below, t, inner)
            by_row.update(zip(here.tolist(), zip(*found)))
    return lists


def form_paths(
    source: int, lists: dict, ids: list[str], m: float, t: int, allow_inner: bool = True
) -> list[TransitivePath]:
    """Enumerate admissible 2/3-hop paths from the row `source`, deterministically.

    A depth-first walk over a table's `hop_lists` (built with the same t) that tries
    the outer links of a node before its inner ones; `ids` are the table's column ids.
    """
    paths: list[TransitivePath] = []

    def walk(nodes: list[int], kinds: list[LinkKind], scores: list[float], level: int) -> None:
        if level == 2:  # a target
            links = [TransitiveLink(*link) for link in zip(kinds, scores)]
            bonus = math.prod(scores, start=1.0)
            paths.append(TransitivePath([ids[node] for node in nodes], links, bonus))
            return
        hops = len(scores)
        moves = [(LinkKind.OUTER, level + 1)]
        # Each outer hop descends a level, so a path with more hops than
        # levels descended has already taken its one inner hop.
        if allow_inner and hops == level:
            moves.append((LinkKind.INNER, level))
        for kind, next_level in moves:
            cols, found, best = lists[kind][nodes[-1]]
            k = kept(found, best, 0.1 * hops + m, max(1, t - hops))
            for node, score in zip(cols[:k], found[:k]):
                walk([*nodes, node], [*kinds, kind], [*scores, score], next_level)

    walk([source], [], [], 0)
    return paths


def adjust_scores(
    paths: dict[str, list[TransitivePath]], sources: list[str], targets: list[str]
) -> np.ndarray:
    """The `sources` x `targets` score multipliers: (1 + bonus) per connecting path.

    Each entry starts at 1 and multiplies in the factor of each path from
    its source to its target, in path order; a pair with no path keeps 1.
    """
    column = {target: j for j, target in enumerate(targets)}
    multipliers = np.ones((len(sources), len(targets)))
    for i, source in enumerate(sources):
        for path in paths.get(source, ()):
            multipliers[i, column[path.nodes[-1]]] *= 1.0 + path.bonus
    return multipliers


# A path as `json.dumps(..., sort_keys=True, indent=2)` lays it out in path_traces.json.
_PATH_TEXT = ('      {\n        "bonus": %s,\n        "link_kinds": %s,\n'
              '        "link_scores": %s,\n        "nodes": %s\n      }')


def paths_to_json_payload(paths: dict[str, list[TransitivePath]]) -> str:
    """The text of path_traces.json: per source, every path with its per-link scores and bonus.

    It is `json.dumps(payload, sort_keys=True, indent=2) + "\n"` of the list
    of {"paths", "source"} objects in source order, with `json`'s own string
    escapes and each score as `round(score, 6)`. It returns text under its
    old name because `perfbench/tracer.py` times it by that name on
    `tracelink.cli`, until the program reports its own stages (ROADMAP item 4).
    """
    def items(texts: list[str]) -> str:  # a list of a path, as `json.dumps` indents it
        return "[\n          " + ",\n          ".join(texts) + "\n        ]" if texts else "[]"

    sources = []
    for source in sorted(paths):
        found = ",\n".join([_PATH_TEXT % (
            float.__repr__(round(p.bonus, 6)),
            items([encode_basestring_ascii(link.kind.value) for link in p.links]),
            items([float.__repr__(round(link.score, 6)) for link in p.links]),
            items(list(map(encode_basestring_ascii, p.nodes))),
        ) for p in paths[source]])
        sources.append('  {\n    "paths": %s,\n    "source": %s\n  }' % (
            "[\n" + found + "\n    ]" if found else "[]", encode_basestring_ascii(source)))
    return "[\n" + ",\n".join(sources) + "\n]\n" if sources else "[]\n"
