"""Transitive link deduction and IR score adjustment.

Paths run from a source to a target in two hops (outer, outer) or three
hops containing exactly one inner link: source-to-source first, or
intermediate-to-intermediate in the middle. Each hop consumed tightens the
selection: the relative threshold rises by 0.1 per hop and the candidate
cap drops by one (floored at 1). A path's bonus is the product of its link
similarities; a candidate's score is multiplied by (1 + bonus) per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .enrich import EnrichmentConfig
from .irmodels import SimilarityTable


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
    """Pool members passing the hop thresholds, best first.

    Keeps at most t_eff members whose similarity to `from_id` is at least
    m_eff times the pool maximum; an all-zero pool yields nothing.
    """
    scored = list(zip(pool, table.row_scores(from_id, pool)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    if not scored or scored[0][1] <= 0.0:
        return []
    cutoff = state.m_eff * scored[0][1]
    kept = [(other, s) for other, s in scored if s >= cutoff][: state.t_eff]
    return [TransitiveLink(from_id, other, kind, s) for other, s in kept]


def form_paths(
    source: str,
    dataset,
    table: SimilarityTable,
    cfg: EnrichmentConfig,
    allow_inner: bool = True,
) -> list[TransitivePath]:
    """Enumerate admissible 2/3-hop paths from `source`, deterministically.

    Shapes: S>I>T always; S>S'>I>T and S>I>I'>T when inner links are
    allowed. Nodes never repeat within a path; `dataset` only needs the
    three id-list accessors.
    """
    sources = dataset.source_ids()
    intermediates = dataset.intermediate_ids()
    targets = dataset.target_ids()
    start = HopState(n=0, m=cfg.m, t=cfg.t)
    paths: list[TransitivePath] = []

    def extend(prefix: list[TransitiveLink], nodes: list[str], link: TransitiveLink):
        return [*prefix, link], [*nodes, link.to_id]

    for outer1 in candidate_links(source, intermediates, table, start, LinkKind.OUTER):
        links1, nodes1 = extend([], [source], outer1)
        after1 = start.advance()
        # S > I > T
        for outer2 in candidate_links(outer1.to_id, targets, table, after1, LinkKind.OUTER):
            links2, nodes2 = extend(links1, nodes1, outer2)
            paths.append(_make_path(nodes2, links2))
        # S > I > I' > T
        if allow_inner:
            peer_pool = [i for i in intermediates if i not in nodes1]
            for inner in candidate_links(outer1.to_id, peer_pool, table, after1, LinkKind.INNER):
                links2, nodes2 = extend(links1, nodes1, inner)
                after2 = after1.advance()
                for outer2 in candidate_links(inner.to_id, targets, table, after2, LinkKind.OUTER):
                    links3, nodes3 = extend(links2, nodes2, outer2)
                    paths.append(_make_path(nodes3, links3))

    # S > S' > I > T
    if allow_inner:
        peer_pool = [s for s in sources if s != source]
        for inner in candidate_links(source, peer_pool, table, start, LinkKind.INNER):
            links1, nodes1 = extend([], [source], inner)
            after1 = start.advance()
            for outer1 in candidate_links(inner.to_id, intermediates, table, after1, LinkKind.OUTER):
                links2, nodes2 = extend(links1, nodes1, outer1)
                after2 = after1.advance()
                for outer2 in candidate_links(outer1.to_id, targets, table, after2, LinkKind.OUTER):
                    links3, nodes3 = extend(links2, nodes2, outer2)
                    paths.append(_make_path(nodes3, links3))

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
