"""Build normalized documents from artifacts.

A document holds every token of an artifact's comments (all of an NL
artifact's prose) plus the split tokens of class names, method names, field
types/names and parameter types/names; invoked method names are left out of
the document (they still matter for biterm importance counts).
"""

from __future__ import annotations

from dataclasses import fields

from .codescan import CodeParts
from .preprocess import preprocess
from .types import Artifact, Document

_DOCUMENT_PARTS = [f.name for f in fields(CodeParts) if f.name != "invoked_method_names"]


def build_document(artifact: Artifact) -> Document:
    parts = artifact.parts
    tokens = [tok for name in _DOCUMENT_PARTS for group in getattr(parts, name) for tok in group]
    return Document(artifact_id=artifact.id, terms=preprocess(tokens))
