"""Command-line entry point.

Subcommands:
    trace   run the pipeline and write ranked candidate links + path traces
    eval    evaluate a run (or a ranked-links CSV) against the oracle
    ablate  run several ablation modes and write per-mode reports + a summary

Flag precedence: command line over JSON config file over built-in defaults.
Exit codes: 0 success, 1 runtime/numeric error, 2 configuration/validation
error. Outputs are byte-identical across repeat runs on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import fields
from pathlib import Path

import numpy as np

from .corpus.manifest import load_dataset, read_manifest
from .errors import (
    ConfigError,
    LoadError,
    ParseError,
    TracelinkError,
    ValidationError,
    read_text,
)
from .enrich import corpus_dump_payload
from .evaluate import EvalReport, compare_runs, evaluate_ranking
from .irmodels import MODELS, RankedLinks, format_ranked_csv, parse_ranked_csv
from .pipeline import ABLATION_MODES, PipelineConfig, run_ablation, run_pipeline
from .transitive import paths_to_json_payload

_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)} | {
    "out": "tracelink-out", "modes": ",".join(ABLATION_MODES),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelink",
        description="Recover ranked trace links between source and target artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", required=True, help="dataset manifest JSON")
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")
        p.add_argument("--model", choices=MODELS, default=None)
        p.add_argument("--m", type=float, default=None, help="relative similarity threshold")
        p.add_argument("--t", type=int, default=None, help="max related artifacts / link cap")
        p.add_argument("--lsi-rank", type=int, default=None, dest="lsi_rank")
        p.add_argument("--pairs-dir", default=None, dest="pairs_dir",
                       help="directory of <artifact_id>.tsv dependency-pair files")
        p.add_argument("--out", default=None, help="output directory")

    trace = sub.add_parser("trace", help="write ranked links CSV and path traces JSON")
    add_common(trace)
    trace.add_argument("--mode", choices=list(ABLATION_MODES), default=None)
    trace.add_argument("--dump-corpus", action="store_true", dest="dump_corpus",
                       help="also write the enriched documents as JSON")

    evaluate = sub.add_parser("eval", help="write evaluation report and PR curve")
    add_common(evaluate)
    evaluate.add_argument("--mode", choices=list(ABLATION_MODES), default=None)
    evaluate.add_argument("--ranked", default=None,
                          help="evaluate this ranked-links CSV instead of running the pipeline")
    evaluate.add_argument("--compare", default=None,
                          help="second ranked-links CSV; adds a statistical comparison")

    ablate = sub.add_parser("ablate", help="run ablation modes and write a summary table")
    add_common(ablate)
    ablate.add_argument("--modes", default=None,
                        help="comma-separated subset of: " + ", ".join(ABLATION_MODES)
                             + " (default: all)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_values = json.loads(read_text(args.config, "config file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"config file {args.config} is nested too deeply to read") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, optional in (("out", False), ("pairs_dir", True)):
        if not isinstance(merged[key], str) and not (optional and merged[key] is None):
            raise ConfigError(f"{key} must be a path string, got {merged[key]!r}")
    return merged


def _pipeline_config(merged: dict) -> PipelineConfig:
    values = {f.name: merged[f.name] for f in fields(PipelineConfig)}
    values["pairs_dir"] = Path(values["pairs_dir"]) if values["pairs_dir"] else None
    return PipelineConfig(**values)


def _output_dir(text: str) -> Path:
    """The `out` directory, once no existing file stands at it or at any of its ancestors.

    Checked before any input is read, so a bad `--out` costs no pipeline run.
    """
    try:
        if b"\0" in os.fsencode(text):
            raise ValueError("embedded null byte")
    except ValueError:  # also the UnicodeEncodeError of text the file system cannot encode
        raise ConfigError(f"out is not a usable path: {text!r}") from None
    out = Path(text)
    for path in (out, *out.parents):
        if os.path.exists(path) and not os.path.isdir(path):
            raise ConfigError(f"cannot write output file {out}: {path} is not a directory")
    return out


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text `chunks` make, in turn, to the file at `path`."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:  # e.g. --out names a file, or a path under one
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


# Curve points per formatted block of a report, which bounds the text held at
# once; a curve shorter than this is formatted in one block.
_POINT_BLOCK = 1 << 12
# One pr_curve point as `json.dumps(..., indent=2)` writes it in a report, and
# the text between two points.
_JSON_POINT = "[\n      %s,\n      %s\n    ]"
_POINT_SEPARATOR = ",\n    "
# Columns of a value's "%.6f" text in `_digits`: "ddd.dddddd", right-aligned;
# row k of `_LAST` shows the last k of them.
_DIGIT_COLUMNS = 10
_LAST = np.arange(_DIGIT_COLUMNS) >= _DIGIT_COLUMNS - np.arange(_DIGIT_COLUMNS + 1)[:, None]


def _curve_blocks(curve: tuple[np.ndarray, np.ndarray]) -> Iterator[np.ndarray]:
    """The curve's values, `_POINT_BLOCK` points a block: recall, precision, recall, ..."""
    recall, precision = (np.asarray(values, np.float64) for values in curve)
    for start in range(0, len(recall), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        yield np.stack((recall[block], precision[block]), axis=1).ravel()


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Each value's "%.6f" text as ASCII codes, right-aligned in a row of `_DIGIT_COLUMNS`,
    and each text's length; None unless every value is unsigned and its text below 1000.

    A value's millionths are `np.rint(v * 1e6)`: below 1000 the product is off the
    exact one by at most 6e-8, so it rounds as "%.6f" does wherever it lies more than
    1e-6 from a half. The few values nearer a half, exact ties such as 100 / 512
    among them, take their millionths from "%.6f" itself.
    """
    if np.signbit(values).any() or not (values < 1000.0).all():  # also NaN
        return None
    scaled = values * 1e6
    units = np.rint(scaled).astype(np.int64)
    for i in np.flatnonzero(np.abs(scaled - units) > 0.5 - 1e-6).tolist():
        units[i] = int(("%.6f" % values[i]).replace(".", ""))
    if (units >= 10 ** 9).any():  # e.g. 999.9999999 is "1000.000000"
        return None
    codes = np.empty((_DIGIT_COLUMNS, len(units)), np.uint8)  # transposed: a column a row
    rest = units
    for column in (9, 8, 7, 6, 5, 4, 2, 1, 0):
        tens = rest // 10  # numpy divides by a constant faster than np.divmod does
        codes[column] = rest - 10 * tens
        rest = tens
    codes += ord("0")
    codes[3] = ord(".")
    return codes.T, 8 + (units >= 10 ** 7) + (units >= 10 ** 8)


def _laid_out(template: str, codes: np.ndarray, shown: np.ndarray) -> str:
    """Points laid out by `template`, its two "%s" slots filled from consecutive rows of
    `codes` cut to their `shown` columns: a row of ASCII codes a point, one mask gather."""
    head, middle, _ = template.split("%s")
    row = (template % ("0" * _DIGIT_COLUMNS, "0" * _DIGIT_COLUMNS)).encode("ascii")
    text = np.tile(np.frombuffer(row, np.uint8), (len(codes) // 2, 1))
    keep = np.ones(text.shape, bool)
    for k, start in enumerate((len(head), len(head) + _DIGIT_COLUMNS + len(middle))):
        text[:, start:start + _DIGIT_COLUMNS] = codes[k::2]
        keep[:, start:start + _DIGIT_COLUMNS] = shown[k::2]
    return text[keep].tobytes().decode("ascii")


def _json_text(payload, pr_curve: tuple[np.ndarray, np.ndarray] | None = None) -> Iterator[str]:
    """`payload` as sorted, indented JSON in chunks, with `pr_curve`'s points under "pr_curve".

    `json.dumps` with `indent` runs its pure-Python encoder, and a curve has
    a point per link, so the curve is spliced in as text, a block of points
    at a time, each value written as `json` writes `round(value, 6)`. For
    values in {0} and [1e-4, 1000) that is the "%.6f" text with its trailing
    zeros cut but for the first fraction digit, so a block of such values is
    laid out from `_digits` (`np.rint` millionths, "%.6f" ones within 1e-6 of
    a half); any other block takes `float.__repr__` of each value in turn.
    """
    if pr_curve is not None:
        payload = {**payload, "pr_curve": []}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if pr_curve is None or not len(pr_curve[0]):
        yield text
        return
    # Only a top-level key starts a line with a two-space indent.
    head, _, tail = text.partition('\n  "pr_curve": []')
    yield head + '\n  "pr_curve": [\n    '
    for number, values in enumerate(_curve_blocks(pr_curve)):
        digits = _digits(values) if ((values == 0.0) | (values >= 1e-4)).all() else None
        if digits is not None:
            codes, lengths = digits
            zeros, run = np.zeros(len(values), np.intp), True  # trailing; the first digit stays
            for column in (9, 8, 7, 6, 5):
                run = run & (codes[:, column] == ord("0"))
                zeros += run
            shown = np.take(_LAST, lengths, axis=0) & ~np.take(_LAST, zeros, axis=0)
            block = _laid_out(_JSON_POINT + _POINT_SEPARATOR, codes, shown)[:-len(_POINT_SEPARATOR)]
        else:
            block = _POINT_SEPARATOR.join([_JSON_POINT] * (len(values) // 2)) % tuple(
                float.__repr__(round(v, 6)) for v in values.tolist())
        if number:
            yield _POINT_SEPARATOR
        yield block
    yield "\n  ]" + tail


def _pr_curve_csv(pr_curve: tuple[np.ndarray, np.ndarray]) -> Iterator[str]:
    """The curve as CSV, in chunks: a header, then each point's recall and precision as "%.6f",
    laid out from `_digits`, or formatted value by value in a block `_digits` refuses."""
    yield "recall,precision\n"
    for values in _curve_blocks(pr_curve):
        digits = _digits(values)
        if digits is not None:
            codes, lengths = digits
            yield _laid_out("%s,%s\n", codes, np.take(_LAST, lengths, axis=0))
        else:
            yield ("%.6f,%.6f\n" * (len(values) // 2)) % tuple(values.tolist())


def _write_report(report: EvalReport, path: Path, curve_path: Path) -> None:
    """Write `report` as JSON to `path` and its precision-recall curve as CSV to `curve_path`."""
    _write(path, _json_text(report.to_payload(), report.pr_curve))
    _write(curve_path, _pr_curve_csv(report.pr_curve))


def _cmd_trace(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    config = _pipeline_config(merged)
    out = _output_dir(merged["out"])
    dataset = load_dataset(args.manifest)
    result = run_pipeline(dataset, config)
    _write(out / "ranked_links.csv", [format_ranked_csv(result.candidates)])
    _write(out / "path_traces.json", [paths_to_json_payload(result.paths)])
    if args.dump_corpus:
        _write(out / "enriched_corpus.json", _json_text(corpus_dump_payload(result.documents)))
    print(f"wrote {out / 'ranked_links.csv'} and {out / 'path_traces.json'}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    out = _output_dir(merged["out"])
    # A saved ranking needs only the manifest's ids and oracle, not the artifact files.
    dataset = read_manifest(args.manifest) if args.ranked else load_dataset(args.manifest)
    if not dataset.oracle_st:
        raise ConfigError("manifest has no oracle_st; evaluation needs true links")

    links = (_read_ranked(args.ranked) if args.ranked
             else run_pipeline(dataset, _pipeline_config(merged)).candidates)
    report = evaluate_ranking(links, dataset.oracle_st)
    # Both rankings are read and evaluated before any output is written.
    other = None
    if args.compare:
        other = evaluate_ranking(_read_ranked(args.compare), dataset.oracle_st)

    _write_report(report, out / "eval_report.json", out / "pr_curve.csv")
    written = [out / "eval_report.json", out / "pr_curve.csv"]

    if other is not None:
        comparison = compare_runs(report.f_at_recall, other.f_at_recall)
        payload = {
            "comparison": comparison.to_payload(),
            "ap": round(report.ap, 6),
            "other_ap": round(other.ap, 6),
            "map": round(report.map, 6),
            "other_map": round(other.map, 6),
        }
        _write(out / "comparison.json", _json_text(payload))
        written.append(out / "comparison.json")
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def _read_ranked(path: str) -> RankedLinks:
    # Untranslated, so a quoted "\r" in an id, as `format_ranked_csv` writes it, stays "\r".
    return parse_ranked_csv(read_text(path, "ranked-links file", newline=""))


def _cmd_ablate(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    modes_text = merged["modes"]
    if not isinstance(modes_text, str):
        raise ConfigError(f"modes must be a comma-separated string, got {modes_text!r}")
    modes = [m.strip() for m in modes_text.split(",") if m.strip()]
    config = _pipeline_config(merged)
    out = _output_dir(merged["out"])
    dataset = load_dataset(args.manifest)
    if not dataset.oracle_st:
        raise ConfigError("manifest has no oracle_st; ablation needs true links")
    reports = run_ablation(dataset, config, modes)

    written = []
    summary = ["mode,ap,map"]
    for mode, report in reports.items():
        safe = mode.replace("+", "_")
        _write_report(report, out / f"report_{safe}.json", out / f"pr_curve_{safe}.csv")
        written.append(out / f"report_{safe}.json")
        summary.append(f"{mode},{report.ap:.6f},{report.map:.6f}")
    _write(out / "ablation_summary.csv", ["\n".join(summary) + "\n"])
    written.append(out / "ablation_summary.csv")
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"trace": _cmd_trace, "eval": _cmd_eval, "ablate": _cmd_ablate}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValidationError, LoadError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TracelinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
