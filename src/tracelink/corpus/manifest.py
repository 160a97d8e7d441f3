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
`id`, `path` and `kind` are strings, with an `id` that UTF-8 can encode;
any other shape raises `ValidationError`. Each level loads into the
`Dataset` list of the same name, which is all that records an artifact's
level. A body is parsed as it is read, and its text is not kept. Both
kinds parse into `CodeParts`: a code body through the code scanner, an NL
body as prose, into the `comments` part that holds the comment sentences
of code.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import LoadError, ValidationError, read_text
from .codescan import CodeParts, scan_code
from .nltext import tokenize_natural
from .types import Artifact, Dataset, Kind


def load_dataset(manifest_path: str | Path) -> Dataset:
    manifest_path = Path(manifest_path)
    text = read_text(manifest_path, "manifest")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise LoadError(f"manifest {manifest_path} is nested too deeply to read") from None
    if not isinstance(spec, dict):
        raise ValidationError(f"manifest {manifest_path} must be a JSON object")

    base = manifest_path.parent
    dataset = Dataset(
        sources=[_load_artifact(entry, base) for entry in _list(spec, "sources")],
        intermediates=[_load_artifact(entry, base) for entry in _list(spec, "intermediates")],
        targets=[_load_artifact(entry, base) for entry in _list(spec, "targets")],
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


def _load_artifact(entry: dict, base: Path) -> Artifact:
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
    text = read_text(base / entry["path"], "artifact file")

    kind_name = entry["kind"].lower()
    if kind_name in ("nl", "natural", "naturallanguage", "text"):
        prose = CodeParts(comments=tokenize_natural(text))
        return Artifact(entry["id"], Kind.NATURAL_LANGUAGE, prose)
    if kind_name == "code":
        return Artifact(entry["id"], Kind.CODE, scan_code(text))
    raise ValidationError(f"unknown artifact kind {entry['kind']!r} for {entry['id']!r}")


def _load_oracle(spec: dict, key: str) -> set[tuple[str, str]]:
    pairs = set()
    for item in _list(spec, key):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"{key} entries must be [left, right] pairs, got {item!r}")
        if not all(isinstance(doc_id, str) for doc_id in item):
            raise ValidationError(f"{key} ids must be strings, got {item!r}")
        pairs.add(tuple(item))
    return pairs
