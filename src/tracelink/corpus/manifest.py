"""Dataset manifest reading and loading.

A manifest is a single JSON document:

    {
      "sources":       [{"id": "...", "path": "relative/file.txt", "kind": "nl"}, ...],
      "intermediates": [...],
      "targets":       [...],
      "oracle_st":     [["source_id", "target_id"], ...],
      "oracle_si":     [...],          // optional
      "oracle_it":     [...]           // optional
    }

Artifact bodies are plain-text files; paths are resolved relative to the
manifest location. `kind` is "nl" or "code"; Java and C code are scanned
alike, whatever the file suffix. Each level is a list of objects whose
`id`, `path` and `kind` are strings, with an `id` that UTF-8 can encode;
any other shape, a repeated id or an oracle pair naming an id outside its
two levels raises `ValidationError`. `read_manifest` runs these checks and
opens no artifact file, which is all `eval --ranked` needs; `load_dataset`
then parses each body, in manifest order, into the `Dataset` list of its
level, which is all that records an artifact's level, and keeps no text.
Both kinds parse into `CodeParts`: a code body through the code scanner,
an NL body as prose, into the `comments` part that holds code's comments.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from ..errors import LoadError, ValidationError, read_text
from .codescan import CodeParts, scan_code
from .nltext import tokenize_natural
from .types import Artifact, Dataset, Kind

_LEVELS = ("sources", "intermediates", "targets")
_ORACLES = {"oracle_st": ("sources", "targets"), "oracle_si": ("sources", "intermediates"),
            "oracle_it": ("intermediates", "targets")}
_KINDS = dict.fromkeys(("nl", "natural", "naturallanguage", "text"), Kind.NATURAL_LANGUAGE)
_KINDS["code"] = Kind.CODE


class Manifest(NamedTuple):
    """A checked manifest: each level's (id, path, kind) entries, in order, and the oracles."""

    sources: list[tuple[str, str, Kind]]
    intermediates: list[tuple[str, str, Kind]]
    targets: list[tuple[str, str, Kind]]
    oracle_st: set[tuple[str, str]]
    oracle_si: set[tuple[str, str]]
    oracle_it: set[tuple[str, str]]


def read_manifest(manifest_path: str | Path) -> Manifest:
    manifest_path = Path(manifest_path)
    try:
        spec = json.loads(read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise LoadError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise LoadError(f"manifest {manifest_path} is nested too deeply to read") from None
    if not isinstance(spec, dict):
        raise ValidationError(f"manifest {manifest_path} must be a JSON object")

    levels = {key: [_entry(item) for item in _list(spec, key)] for key in _LEVELS}
    seen: set[str] = set()
    for doc_id, _, _ in chain(*levels.values()):
        if doc_id in seen:
            raise ValidationError(f"duplicate artifact id {doc_id!r}")
        seen.add(doc_id)
    ids = {key: {doc_id for doc_id, _, _ in entries} for key, entries in levels.items()}
    return Manifest(**levels, **{key: _load_oracle(spec, key, ids[left], ids[right])
                                 for key, (left, right) in _ORACLES.items()})


def load_dataset(manifest_path: str | Path) -> Dataset:
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    levels = {key: [_load_artifact(*entry, base) for entry in getattr(manifest, key)]
              for key in _LEVELS}
    return Dataset(**{**manifest._asdict(), **levels})


def _list(spec: dict, key: str) -> list:
    items = spec.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(f"manifest {key!r} must be a list, got {items!r}")
    return items


def _entry(entry: dict) -> tuple[str, str, Kind]:
    if not isinstance(entry, dict):
        raise ValidationError(f"artifact entry must be an object, got {entry!r}")
    for required in ("id", "path", "kind"):
        if required not in entry:
            raise ValidationError(f"artifact entry missing {required!r}: {entry}")
        if not isinstance(entry[required], str):
            raise ValidationError(f"artifact {required!r} must be a string: {entry}")
    try:
        entry["id"].encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no output file can hold
        raise ValidationError(f"artifact 'id' must be valid UTF-8 text: {entry!r}") from None
    if entry["kind"].lower() not in _KINDS:
        raise ValidationError(f"unknown artifact kind {entry['kind']!r} for {entry['id']!r}")
    return entry["id"], entry["path"], _KINDS[entry["kind"].lower()]


def _load_artifact(doc_id: str, path: str, kind: Kind, base: Path) -> Artifact:
    text = read_text(base / path, "artifact file")
    parts = scan_code(text) if kind is Kind.CODE else CodeParts(comments=tokenize_natural(text))
    return Artifact(doc_id, kind, parts)


def _load_oracle(spec: dict, key: str, left: set[str], right: set[str]) -> set[tuple[str, str]]:
    pairs = set()
    for item in _list(spec, key):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"{key} entries must be [left, right] pairs, got {item!r}")
        if not all(isinstance(doc_id, str) for doc_id in item):
            raise ValidationError(f"{key} ids must be strings, got {item!r}")
        if item[0] not in left or item[1] not in right:
            raise ValidationError(f"{key} references unknown pair ({item[0]!r}, {item[1]!r})")
        pairs.add(tuple(item))
    return pairs
