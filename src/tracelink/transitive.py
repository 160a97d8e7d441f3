"""Transitive link deduction and IR score adjustment.

A path is a walk from a source down the levels source > intermediate >
target. Each hop either steps down one level (an outer link) or, at most
once per path and never among targets, steps sideways to another artifact
of the same level (an inner link). That gives the shapes S>I>T, and with
inner links S>S'>I>T and S>I>I'>T. Nodes never repeat within a path. Each
hop is picked by `irmodels.select_rows`, the selection rule of enrichment,
tightened by the hops already taken: after h hops the next one keeps at
most max(1, t - h) artifacts scoring at least (0.1 * h + m) times the best,
ties broken by ascending id. The walk takes each level as its table rows
(in the pipeline, the level's manifest positions from `level_rows`) and
carries row indexes; it turns them into ids only to build a
`TransitivePath`, whose k-th link (kind, score) joins its k-th and next
node. A path's bonus is the product of its link similarities.
`adjust_scores` turns the paths into one source x target block of
multipliers, (1 + bonus) per path; the caller ranks the IR scores times
that block once, with `irmodels.rank_candidates`, into a `RankedLinks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .irmodels import SimilarityTable, select_rows


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


def form_paths(
    source_row: int,
    levels: tuple[np.ndarray, ...],
    table: SimilarityTable,
    m: float,
    t: int,
    allow_inner: bool = True,
) -> list[TransitivePath]:
    """Enumerate admissible 2/3-hop paths from `source_row`, deterministically.

    A depth-first walk over the source, intermediate and target rows of
    `levels` that tries the outer links of a node before its inner ones.
    """
    paths: list[TransitivePath] = []

    def walk(nodes: list[int], kinds: list[LinkKind], scores: list[float], level: int) -> None:
        if level == len(levels) - 1:
            links = [TransitiveLink(*link) for link in zip(kinds, scores)]
            bonus = math.prod(scores, start=1.0)
            paths.append(TransitivePath([table.col_ids[node] for node in nodes], links, bonus))
            return
        here, hops = nodes[-1], len(scores)
        moves = [(LinkKind.OUTER, levels[level + 1], level + 1)]
        # Each outer hop descends a level, so a path with more hops than
        # levels descended has already taken its one inner hop, and until
        # then `here` is the only node of the path on its level.
        if allow_inner and hops == level:
            moves.append((LinkKind.INNER, levels[level][levels[level] != here], level))
        for kind, pool, next_level in moves:
            rows, found = select_rows(table, here, pool, 0.1 * hops + m, max(1, t - hops))
            for row, score in zip(rows.tolist(), found):
                walk([*nodes, row], [*kinds, kind], [*scores, score], next_level)

    walk([source_row], [], [], 0)
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


def paths_to_json_payload(paths: dict[str, list[TransitivePath]]) -> list[dict]:
    """Audit export: per source, every path with its per-link scores and bonus."""
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
