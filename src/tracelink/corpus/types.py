"""Core corpus types: artifacts, normalized documents, datasets.

An artifact holds only what the pipeline reads of it: its id, its kind and
its parsed text. Every artifact has the same shape, `CodeParts`: an NL
artifact is read as the prose part (the `comments`) of the structure a code
artifact has. Its level is the `Dataset` list that holds it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .codescan import CodeParts


class Kind(str, Enum):
    NATURAL_LANGUAGE = "nl"
    CODE = "code"


@dataclass
class Artifact:
    """One parsed document; only an imported dependency parse reads its kind."""

    id: str
    kind: Kind
    parts: CodeParts


@dataclass
class Document:
    """Preprocessed bag of stems for one artifact, plus enrichment terms.

    `added_biterm_terms` holds compound terms ("a_b") with integer weights;
    they participate in term frequency alongside the base stems. The two
    never share a key: a base stem is ASCII alphanumeric, and every compound
    term holds the "_" that joins its pair.
    """

    artifact_id: str
    terms: Counter[str] = field(default_factory=Counter)
    added_biterm_terms: Counter[str] = field(default_factory=Counter)

    def weighted_terms(self) -> Counter[str]:
        return Counter({**self.terms, **self.added_biterm_terms})


@dataclass
class Dataset:
    """All artifacts of one system plus the answer sets."""

    sources: list[Artifact]
    intermediates: list[Artifact]
    targets: list[Artifact]
    oracle_st: set[tuple[str, str]] = field(default_factory=set)
    oracle_si: set[tuple[str, str]] = field(default_factory=set)
    oracle_it: set[tuple[str, str]] = field(default_factory=set)

    def all_artifacts(self) -> list[Artifact]:
        return [*self.sources, *self.intermediates, *self.targets]

    def source_ids(self) -> list[str]:
        return [a.id for a in self.sources]

    def target_ids(self) -> list[str]:
        return [a.id for a in self.targets]
