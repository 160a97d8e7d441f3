"""Token normalization: special-token removal, lowercasing, stopwords, stemming."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .stemmer import porter_stem
from .stopwords import is_stopword


def normalize_token(token: str) -> str | None:
    """Normalize one raw token to its stem, or None when it is dropped.

    A token is dropped when it is a special token (no letters or digits)
    or a stopword after lowercasing. The result depends only on the
    lowercased token, so it is cached on that: case variants of one word
    ("Route", "ROUTE") are stemmed once per process.
    """
    return _normalize_lowered(token.lower())


@lru_cache(maxsize=None)
def _normalize_lowered(lowered: str) -> str | None:
    if not any(c.isalnum() for c in lowered):
        return None
    if is_stopword(lowered):
        return None
    return porter_stem(lowered)


def preprocess(tokens: list[str]) -> Counter[str]:
    """Map raw word tokens to a multiset of lowercase non-stopword stems."""
    stems: Counter[str] = Counter()
    for token in tokens:
        stem = normalize_token(token)
        if stem is not None:
            stems[stem] += 1
    return stems
