"""Biterm extraction, importance counting and intermediate-centric filtering.

A biterm is a canonical unordered pair of stems extracted from one artifact.
One extractor reads every artifact's `CodeParts`. Prose (code comments, and
all the text of an NL artifact) yields pairs of grammatically related content
words: a sliding window over each sentence's noun/verb/adjective tokens. Split
identifiers yield all pairs of their tokens, with importance counts that weight
class/method names over the weaker identifier categories. Only an NL artifact
may take an imported dependency parse instead.

An artifact's biterms are a plain dict, `Biterms`, from each canonical pair
to its importance count. Every extractor returns one; the consensual filter
takes and returns lists of them, and the caller keeps track of which
artifact each belongs to.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from pathlib import Path

from .corpus.nltext import ADJ, NOUN, VERB, tag_token
from .corpus.preprocess import normalize_token
from .corpus.types import Artifact, Kind
from .errors import LoadError, ParseError, read_text

Pair = tuple[str, str]
Biterms = dict[Pair, int]

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


def _window_pairs(tokens: list[str], window: int) -> list[Pair]:
    """Canonical stem pairs of token positions at distance < `window`, grouped by distance.

    A token that normalization drops (stopword/special) breaks its pairs but
    not the window geometry. A window of `len(tokens)` pairs every two kept
    tokens, as an identifier needs. Each token is normalized once; fewer than
    two tokens make no pair and are not normalized.
    """
    if len(tokens) < 2:
        return []
    stems = list(map(normalize_token, tokens))
    return [
        (a, b) if a < b else (b, a)
        for distance in range(1, min(window, len(stems)))
        for a, b in zip(stems, stems[distance:])
        if a is not None and b is not None and a != b
    ]


def import_parsed_pairs(pairs_file: str | Path) -> Biterms:
    """Read externally parsed dependency pairs, replacing heuristic extraction.

    Each line is tab-separated `label<TAB>term1<TAB>term2`. Pairs are kept
    when the label is in the accept list and both terms are content words,
    then normalized and counted like heuristic biterms.
    """
    result: Biterms = {}
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
        for pair in _window_pairs([term1, term2], 2):
            result[pair] = result.get(pair, 0) + 1
    return result


def extract_biterms(artifact: Artifact, pairs_dir: str | Path | None = None) -> Biterms:
    """Biterms weighted by the part they occur in, or an NL artifact's imported parse.

    An NL artifact whose id has a `<id>.tsv` in `pairs_dir` takes the pairs
    of that file. Otherwise class/method name occurrences add two points
    each, comment (prose) occurrences one point each, and pairs seen in the
    remaining categories (invoked methods, fields, parameters) add a single
    flat point no matter how often.
    """
    if artifact.kind is Kind.NATURAL_LANGUAGE and pairs_dir is not None:
        candidate = Path(pairs_dir) / f"{artifact.id}.tsv"
        try:
            found = candidate.exists()
        except OSError as exc:  # e.g. an id too long for a file name
            raise LoadError(f"cannot look for dependency-pair file {candidate}: {exc}") from exc
        if found:
            return import_parsed_pairs(candidate)

    parts = artifact.parts
    strong = Counter(chain.from_iterable(
        _window_pairs(tokens, len(tokens)) for name in _STRONG_PARTS for tokens in getattr(parts, name)
    ))
    comment = Counter(chain.from_iterable(
        _window_pairs([tok for tok in tokens if tag_token(tok) in _CONTENT_TAGS], _WINDOW)
        for tokens in parts.comments
    ))
    weak = set(chain.from_iterable(
        _window_pairs(tokens, len(tokens)) for name in _WEAK_PARTS for tokens in getattr(parts, name)
    ))
    return {
        pair: 2 * strong.get(pair, 0) + comment.get(pair, 0) + (1 if pair in weak else 0)
        for pair in sorted(strong.keys() | comment.keys() | weak)
    }


def consensual_filter(
    source_sets: list[Biterms],
    intermediate_sets: list[Biterms],
    target_sets: list[Biterms],
) -> tuple[list[Biterms], list[Biterms], list[Biterms]]:
    """Keep source/target biterms seen in some intermediate, and vice versa.

    Counts are preserved; filtering only removes pairs. Each returned list
    is in the order of the list it filters.
    """
    intermediate_pairs: set[Pair] = set().union(*intermediate_sets)
    endpoint_pairs: set[Pair] = set().union(*source_sets, *target_sets)

    def keep(sets: list[Biterms], allowed: set[Pair]) -> list[Biterms]:
        return [{p: c for p, c in s.items() if p in allowed} for s in sets]

    return (
        keep(source_sets, intermediate_pairs),
        keep(intermediate_sets, endpoint_pairs),
        keep(target_sets, intermediate_pairs),
    )
