"""Identifier splitting for camelCase / snake_case / digit-boundary names, by one pattern."""

from __future__ import annotations

import re

# An acronym before a capitalized word, a word with at most one leading capital,
# a run of capitals, or a run of digits. Anything but ASCII letters and digits separates.
_WORD = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def split_identifier(identifier: str) -> list[str]:
    """Split a programming identifier into lowercase component tokens.

    Boundaries: underscores and other separators, lowercase-to-uppercase
    transitions, and letter/digit transitions. A run of capitals stays
    together until a lowercase letter follows, in which case the last
    capital starts the next token ("AFInfoBox" -> af, info, box).
    """
    return [word.lower() for word in _WORD.findall(identifier)]
