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

from ..errors import ValidationError
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
    they participate in term frequency alongside the base stems.
    """

    artifact_id: str
    terms: Counter[str] = field(default_factory=Counter)
    added_biterm_terms: Counter[str] = field(default_factory=Counter)

    def weighted_terms(self) -> Counter[str]:
        merged = Counter(self.terms)
        merged.update(self.added_biterm_terms)
        return merged

    def copy(self) -> "Document":
        return Document(
            artifact_id=self.artifact_id,
            terms=Counter(self.terms),
            added_biterm_terms=Counter(self.added_biterm_terms),
        )


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

    def intermediate_ids(self) -> list[str]:
        return [a.id for a in self.intermediates]

    def target_ids(self) -> list[str]:
        return [a.id for a in self.targets]

    def validate(self) -> None:
        seen: set[str] = set()
        for artifact in self.all_artifacts():
            if artifact.id in seen:
                raise ValidationError(f"duplicate artifact id {artifact.id!r}")
            seen.add(artifact.id)
        for name, oracle, left, right in (
            ("oracle_st", self.oracle_st, self.source_ids(), self.target_ids()),
            ("oracle_si", self.oracle_si, self.source_ids(), self.intermediate_ids()),
            ("oracle_it", self.oracle_it, self.intermediate_ids(), self.target_ids()),
        ):
            left_set, right_set = set(left), set(right)
            for a, b in oracle:
                if a not in left_set or b not in right_set:
                    raise ValidationError(f"{name} references unknown pair ({a!r}, {b!r})")
