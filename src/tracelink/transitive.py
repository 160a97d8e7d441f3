"""Transitive link deduction and IR score adjustment.

A path is a walk from a source down the levels source > intermediate >
target. Each hop either steps down one level (an outer link) or, at most
once per path and never among targets, steps sideways to another artifact
of the same level (an inner link). That gives the shapes S>I>T, and with
inner links S>S'>I>T and S>I>I'>T. Nodes never repeat within a path. Each
hop is picked by `irmodels.select_rows`, the selection rule of enrichment,
tightened by the hops already taken: after h hops the next one keeps at
most max(1, t - h) artifacts scoring at least (0.1 * h + m) times the best,
ties broken by ascending id. The walk resolves each level to its table rows
once per source and carries row indexes; it turns them into ids only to
build a `TransitivePath`. A path's bonus is the product of its link
similarities; a candidate's score is multiplied by (1 + bonus) per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .irmodels import SimilarityTable, select_rows


class LinkKind(str, Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class TransitiveLink:
    from_id: str
    to_id: str
    kind: LinkKind
    score: float


@dataclass
class TransitivePath:
    """Ordered artifact chain from a source to a target with its bonus."""

    nodes: list[str]
    links: list[TransitiveLink]
    bonus: float

    @property
    def target(self) -> str:
        return self.nodes[-1]

    def key(self) -> tuple[str, ...]:
        return tuple(self.nodes)


def form_paths(
    source: str,
    dataset,
    table: SimilarityTable,
    m: float,
    t: int,
    allow_inner: bool = True,
) -> list[TransitivePath]:
    """Enumerate admissible 2/3-hop paths from `source`, deterministically.

    A depth-first walk that tries the outer links of a node before its
    inner ones; `dataset` only needs the three id-list accessors.
    """
    accessors = (dataset.source_ids, dataset.intermediate_ids, dataset.target_ids)
    levels = [table.rows(get_ids()) for get_ids in accessors]
    paths: list[TransitivePath] = []

    def walk(nodes: list[int], kinds: list[LinkKind], scores: list[float], level: int) -> None:
        if level == len(levels) - 1:
            ids = [table.ids[node] for node in nodes]
            links = [TransitiveLink(*link) for link in zip(ids, ids[1:], kinds, scores)]
            bonus = math.prod(scores, start=1.0)
            paths.append(TransitivePath(nodes=ids, links=links, bonus=bonus))
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

    walk(table.rows([source]).tolist(), [], [], 0)
    return paths


def adjust_scores(
    candidates: dict[str, list[tuple[str, float]]],
    paths: dict[str, list[TransitivePath]],
) -> dict[str, list[tuple[str, float]]]:
    """Multiply each (source, target) score by (1 + bonus) per connecting path."""
    adjusted: dict[str, list[tuple[str, float]]] = {}
    for source, targets in candidates.items():
        multipliers: dict[str, float] = {}
        for path in paths.get(source, []):
            multipliers[path.target] = multipliers.get(path.target, 1.0) * (1.0 + path.bonus)
        rescored = [(t, score * multipliers.get(t, 1.0)) for t, score in targets]
        rescored.sort(key=lambda item: (-item[1], item[0]))
        adjusted[source] = rescored
    return adjusted


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
