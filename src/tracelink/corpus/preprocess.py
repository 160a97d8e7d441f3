"""Token normalization: special-token removal, lowercasing, stopwords, stemming."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .stemmer import porter_stem
from .stopwords import is_stopword


@lru_cache(maxsize=None)
def normalize_token(token: str) -> str | None:
    """Normalize one raw token to its stem, or None when it is dropped.

    A token is dropped when it is a special token (no letters or digits)
    or a stopword after lowercasing. Results are memoized on the raw token,
    so a token seen before is looked up without lowercasing it. Behind that
    memo the result is cached on the lowercased token: case variants of one
    word ("Route", "ROUTE") are stemmed once per process.
    """
    return _normalize_lowered(token.lower())


@lru_cache(maxsize=None)
def _normalize_lowered(lowered: str) -> str | None:
    # An all-alphanumeric word, the common case, needs no per-character test.
    if not (lowered.isalnum() or any(c.isalnum() for c in lowered)) or is_stopword(lowered):
        return None
    return porter_stem(lowered)


def preprocess(tokens: list[str]) -> Counter[str]:
    """Map raw word tokens to a multiset of lowercase non-stopword stems."""
    return Counter(stem for stem in map(normalize_token, tokens) if stem is not None)
