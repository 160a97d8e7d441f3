"""Transitive link deduction and IR score adjustment.

A path is a walk from a source down the levels source > intermediate >
target. Each hop either steps down one level (an outer link) or, at most
once per path and never among targets, steps sideways to another artifact
of the same level (an inner link). That gives the shapes S>I>T, and with
inner links S>S'>I>T and S>I>I'>T. Nodes never repeat within a path. Each
hop consumed tightens the selection: the relative threshold rises by 0.1
per hop and the candidate cap drops by one (floored at 1). A path's bonus
is the product of its link similarities; a candidate's score is
multiplied by (1 + bonus) per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .irmodels import SimilarityTable, top_related


class LinkKind(str, Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class TransitiveLink:
    from_id: str
    to_id: str
    kind: LinkKind
    score: float


@dataclass(frozen=True)
class HopState:
    """Effective thresholds after `n` hops under base thresholds (m, t)."""

    n: int
    m: float
    t: int

    @property
    def m_eff(self) -> float:
        return 0.1 * self.n + self.m

    @property
    def t_eff(self) -> int:
        return max(1, self.t - self.n)

    def advance(self) -> "HopState":
        return HopState(n=self.n + 1, m=self.m, t=self.t)


@dataclass
class TransitivePath:
    """Ordered artifact chain from a source to a target with its bonus."""

    nodes: list[str]
    links: list[TransitiveLink]
    bonus: float

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def target(self) -> str:
        return self.nodes[-1]

    def key(self) -> tuple[str, ...]:
        return tuple(self.nodes)


def candidate_links(
    from_id: str,
    pool: list[str],
    table: SimilarityTable,
    state: HopState,
    kind: LinkKind,
) -> list[TransitiveLink]:
    """The `top_related` pool members under the hop thresholds, as links, best first."""
    return [
        TransitiveLink(from_id, other, kind, s)
        for other, s in top_related(table, from_id, pool, state.m_eff, state.t_eff)
    ]


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
    levels = [dataset.source_ids(), dataset.intermediate_ids(), dataset.target_ids()]
    paths: list[TransitivePath] = []

    def walk(nodes: list[str], links: list[TransitiveLink], level: int) -> None:
        if level == len(levels) - 1:
            paths.append(_make_path(nodes, links))
            return
        state = HopState(n=len(links), m=m, t=t)
        for link in candidate_links(nodes[-1], levels[level + 1], table, state, LinkKind.OUTER):
            walk([*nodes, link.to_id], [*links, link], level + 1)
        # Each outer hop descends a level, so a path with more hops than
        # levels descended has already taken its one inner hop.
        if allow_inner and len(links) == level:
            peers = [peer for peer in levels[level] if peer not in nodes]
            for link in candidate_links(nodes[-1], peers, table, state, LinkKind.INNER):
                walk([*nodes, link.to_id], [*links, link], level)

    walk([source], [], 0)
    return paths


def _make_path(nodes: list[str], links: list[TransitiveLink]) -> TransitivePath:
    bonus = 1.0
    for link in links:
        bonus *= link.score
    return TransitivePath(nodes=nodes, links=links, bonus=bonus)


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
