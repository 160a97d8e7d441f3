"""Exception hierarchy shared across the pipeline, and the one input-file reader.

Configuration and input-validation problems map to CLI exit code 2,
everything else (runtime/numeric failures) to exit code 1.
"""

from pathlib import Path


class TracelinkError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(TracelinkError):
    """An input file could not be read, or is not UTF-8 text."""


class ValidationError(TracelinkError):
    """Input data violates a structural constraint (duplicate ids, bad oracle refs, ...)."""


class ConfigError(TracelinkError):
    """A run configuration is invalid (unknown model, bad mode name, ...)."""


class ParseError(TracelinkError):
    """A structured input file is malformed; message carries the line number."""


class EvaluationError(TracelinkError):
    """Metric computation was asked for an undefined quantity (e.g. empty oracle)."""


class NumericError(TracelinkError):
    """A numeric routine failed to converge or produced an unusable result."""


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the input file `path`; `what` names it in the LoadError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise LoadError(f"cannot read {what} {path}: {exc}") from exc
