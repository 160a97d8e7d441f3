"""Dataset manifest loading.

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
`id`, `path` and `kind` are strings; any other shape raises
`ValidationError`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import LoadError, ValidationError, read_text
from .codescan import scan_code
from .nltext import tokenize_natural
from .types import Artifact, Dataset, Kind, Level

_LEVEL_KEYS = (
    ("sources", Level.SOURCE),
    ("intermediates", Level.INTERMEDIATE),
    ("targets", Level.TARGET),
)


def load_dataset(manifest_path: str | Path) -> Dataset:
    manifest_path = Path(manifest_path)
    text = read_text(manifest_path, "manifest")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"manifest {manifest_path} must be a JSON object")

    base = manifest_path.parent
    levels = {
        level: [_load_artifact(entry, level, base) for entry in _list(spec, key)]
        for key, level in _LEVEL_KEYS
    }

    dataset = Dataset(
        sources=levels[Level.SOURCE],
        intermediates=levels[Level.INTERMEDIATE],
        targets=levels[Level.TARGET],
        oracle_st=_load_oracle(spec, "oracle_st"),
        oracle_si=_load_oracle(spec, "oracle_si"),
        oracle_it=_load_oracle(spec, "oracle_it"),
    )
    dataset.validate()
    return dataset


def _list(spec: dict, key: str) -> list:
    items = spec.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(f"manifest {key!r} must be a list, got {items!r}")
    return items


def _load_artifact(entry: dict, level: Level, base: Path) -> Artifact:
    if not isinstance(entry, dict):
        raise ValidationError(f"artifact entry must be an object, got {entry!r}")
    for required in ("id", "path", "kind"):
        if required not in entry:
            raise ValidationError(f"artifact entry missing {required!r}: {entry}")
        if not isinstance(entry[required], str):
            raise ValidationError(f"artifact {required!r} must be a string: {entry}")
    raw = read_text(base / entry["path"], "artifact file")

    kind_name = entry["kind"].lower()
    if kind_name in ("nl", "natural", "naturallanguage", "text"):
        return Artifact(
            id=entry["id"], level=level, kind=Kind.NATURAL_LANGUAGE,
            raw=raw, sentences=tokenize_natural(raw),
        )
    if kind_name == "code":
        return Artifact(
            id=entry["id"], level=level, kind=Kind.CODE, raw=raw, code_parts=scan_code(raw),
        )
    raise ValidationError(f"unknown artifact kind {entry['kind']!r} for {entry['id']!r}")


def _load_oracle(spec: dict, key: str) -> set[tuple[str, str]]:
    pairs = set()
    for item in _list(spec, key):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"{key} entries must be [left, right] pairs, got {item!r}")
        pairs.add((str(item[0]), str(item[1])))
    return pairs
