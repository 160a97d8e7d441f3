"""Biterm extraction, importance counting and intermediate-centric filtering.

A biterm is a canonical unordered pair of stems extracted from one artifact.
NL artifacts yield pairs of grammatically related content words (heuristic:
a sliding window over noun/verb/adjective tokens, or an imported dependency
parse). Code artifacts yield all pairs of split identifier tokens, with
importance counts that weight class/method names over the weaker identifier
categories, plus comment pairs extracted like prose.
"""

from __future__ import annotations

from pathlib import Path

from .corpus.nltext import ADJ, NOUN, VERB, tag_token
from .corpus.preprocess import normalize_token
from .corpus.types import Artifact, Kind
from .errors import LoadError, ParseError, read_text

Pair = tuple[str, str]

_CONTENT_TAGS = frozenset({NOUN, VERB, ADJ})
_WINDOW = 3

# Occurrences in these identifier categories raise the count by 2 apiece.
_STRONG_PARTS = ("class_names", "method_names")
# Occurrences only in these contribute a single flat point, however many.
_WEAK_PARTS = (
    "invoked_method_names",
    "field_type_names",
    "field_names",
    "parameter_type_names",
    "parameter_names",
)

# Dependency labels accepted when importing an external parse: subjects,
# objects and modifiers. Coordination/punctuation labels are rejected.
ACCEPTED_DEPENDENCY_LABELS = frozenset("""
nsubj nsubjpass nsubj:pass csubj csubjpass csubj:pass obj dobj iobj pobj obl
amod advmod nmod appos acomp xcomp ccomp compound
""".split())


def canonical_pair(a: str, b: str) -> Pair | None:
    """Order a pair lexicographically; self-pairs collapse to None."""
    if a == b:
        return None
    return (a, b) if a < b else (b, a)


class BitermSet:
    """Canonical biterm pairs of one artifact with importance counts."""

    def __init__(self, artifact_id: str, biterms: dict[Pair, int] | None = None):
        self.artifact_id = artifact_id
        self.biterms: dict[Pair, int] = dict(biterms or {})

    def add(self, a: str, b: str, count: int = 1) -> None:
        pair = canonical_pair(a, b)
        if pair is not None and count > 0:
            self.biterms[pair] = self.biterms.get(pair, 0) + count

    def pairs(self) -> set[Pair]:
        return set(self.biterms)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.biterms

    def __len__(self) -> int:
        return len(self.biterms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitermSet)
            and self.artifact_id == other.artifact_id
            and self.biterms == other.biterms
        )


def _window_pairs(tokens: list[str], window: int) -> list[Pair]:
    """Canonical stem pairs of token positions at distance < `window`, in position order.

    A token that normalization drops (stopword/special) breaks its pairs but
    not the window geometry. A window of `len(tokens)` pairs every two kept
    tokens, as an identifier needs.
    """
    stems = [normalize_token(tok) for tok in tokens]
    pairs: list[Pair] = []
    n = len(stems)
    for i in range(n):
        if stems[i] is None:
            continue
        for j in range(i + 1, min(i + window, n)):
            if stems[j] is None:
                continue
            pair = canonical_pair(stems[i], stems[j])
            if pair is not None:
                pairs.append(pair)
    return pairs


def _sentence_pairs(tagged: list[tuple[str, str | None]]) -> list[Pair]:
    return _window_pairs([tok for tok, tag in tagged if tag in _CONTENT_TAGS], _WINDOW)


def extract_nl_biterms(artifact: Artifact) -> BitermSet:
    """Windowed content-word pairs per sentence, counted over the whole artifact."""
    result = BitermSet(artifact.id)
    for sentence in artifact.sentences:
        for pair in _sentence_pairs(sentence):
            result.add(*pair)
    return result


def import_parsed_pairs(artifact_id: str, pairs_file: str | Path) -> BitermSet:
    """Read externally parsed dependency pairs, replacing heuristic extraction.

    Each line is tab-separated `label<TAB>term1<TAB>term2`. Pairs are kept
    when the label is in the accept list and both terms are content words,
    then normalized and counted like heuristic biterms.
    """
    result = BitermSet(artifact_id)
    path = Path(pairs_file)
    text = read_text(path, "dependency-pair file")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected label<TAB>term1<TAB>term2, got {line!r}")
        label, term1, term2 = (f.strip() for f in fields)
        if not term1 or not term2:
            raise ParseError(f"{path}:{lineno}: empty term")
        if label.lower() not in ACCEPTED_DEPENDENCY_LABELS:
            continue
        if tag_token(term1) not in _CONTENT_TAGS or tag_token(term2) not in _CONTENT_TAGS:
            continue
        a, b = normalize_token(term1), normalize_token(term2)
        if a is None or b is None:
            continue
        result.add(a, b)
    return result


def extract_code_biterms(artifact: Artifact) -> BitermSet:
    """Identifier-token pairs weighted by code-part importance.

    Class/method name occurrences add two points each, comment occurrences
    one point each; pairs seen in the remaining categories (invoked methods,
    fields, parameters) add a single flat point no matter how often.
    """
    parts = artifact.code_parts
    assert parts is not None and artifact.kind is Kind.CODE
    strong: dict[Pair, int] = {}
    comment: dict[Pair, int] = {}
    weak: set[Pair] = set()

    for part_name in _STRONG_PARTS:
        for identifier_tokens in getattr(parts, part_name):
            for pair in _window_pairs(identifier_tokens, len(identifier_tokens)):
                strong[pair] = strong.get(pair, 0) + 1
    for tokens in parts.comments:
        tagged = [(tok, tag_token(tok)) for tok in tokens]
        for pair in _sentence_pairs(tagged):
            comment[pair] = comment.get(pair, 0) + 1
    for part_name in _WEAK_PARTS:
        for identifier_tokens in getattr(parts, part_name):
            weak.update(_window_pairs(identifier_tokens, len(identifier_tokens)))

    result = BitermSet(artifact.id)
    for pair in sorted(set(strong) | set(comment) | weak):
        count = 2 * strong.get(pair, 0) + comment.get(pair, 0) + (1 if pair in weak else 0)
        result.add(*pair, count=count)
    return result


def extract_biterms(artifact: Artifact, pairs_dir: str | Path | None = None) -> BitermSet:
    """Dispatch to the code extractor, an imported parse, or the NL heuristic."""
    if artifact.kind is Kind.CODE:
        return extract_code_biterms(artifact)
    if pairs_dir is not None:
        candidate = Path(pairs_dir) / f"{artifact.id}.tsv"
        try:
            found = candidate.exists()
        except OSError as exc:  # e.g. an id too long for a file name
            raise LoadError(f"cannot look for dependency-pair file {candidate}: {exc}") from exc
        if found:
            return import_parsed_pairs(artifact.id, candidate)
    return extract_nl_biterms(artifact)


def consensual_filter(
    source_sets: list[BitermSet],
    intermediate_sets: list[BitermSet],
    target_sets: list[BitermSet],
) -> tuple[list[BitermSet], list[BitermSet], list[BitermSet]]:
    """Keep source/target biterms seen in some intermediate, and vice versa.

    Counts are preserved; filtering only removes pairs.
    """
    intermediate_pairs: set[Pair] = set()
    for s in intermediate_sets:
        intermediate_pairs |= s.pairs()
    endpoint_pairs: set[Pair] = set()
    for s in (*source_sets, *target_sets):
        endpoint_pairs |= s.pairs()

    def keep(sets: list[BitermSet], allowed: set[Pair]) -> list[BitermSet]:
        return [
            BitermSet(s.artifact_id, {p: c for p, c in s.biterms.items() if p in allowed})
            for s in sets
        ]

    return (
        keep(source_sets, intermediate_pairs),
        keep(intermediate_sets, endpoint_pairs),
        keep(target_sets, intermediate_pairs),
    )
