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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .corpus.manifest import load_dataset, read_manifest
from .errors import (
    ConfigError,
    EvaluationError,
    LoadError,
    NumericError,
    ParseError,
    TracelinkError,
    ValidationError,
    read_text,
)
from .enrich import corpus_dump_payload
from .evaluate import compare_runs, evaluate_ranking
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


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:  # e.g. --out names a file, or a path under one
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


# One pr_curve point as `json.dumps(..., indent=2)` writes it in a report.
_JSON_POINT = "[\n      %s,\n      %s\n    ]"
_CURVE_HEADER = "recall,precision\n"


def _curve_values(curve: tuple[list[float], list[float]]) -> tuple[float, ...]:
    """The curve's values point by point: recall, precision, recall, precision, ..."""
    recall, precision = curve
    values = [0.0] * (2 * len(recall))
    values[0::2], values[1::2] = recall, precision
    return tuple(values)


def _json_text(payload, pr_curve: tuple[list[float], list[float]] | None = None,
               curve_csv: str = "") -> str:
    """`payload` as sorted, indented JSON; with `pr_curve`, its points go under "pr_curve".

    `json.dumps` with `indent` runs its pure-Python encoder, and a curve has
    a point per link, so the curve is spliced in as text, each value written
    as `json` writes `round(value, 6)`. For zeros and for 1e-4 <= |value| <
    1e9 that is the "%.6f" text without its trailing zeros, as it has at most
    15 significant digits, so the points are laid out from the rows of
    `curve_csv`, the curve's `_pr_curve_csv` text (made here if not given);
    if any value lies outside, each takes `float.__repr__` in turn.
    """
    if pr_curve is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    text = json.dumps({**payload, "pr_curve": []}, sort_keys=True, indent=2) + "\n"
    if not pr_curve[0]:
        return text
    size = np.abs(np.array(pr_curve, np.float64))
    if ((size == 0.0) | ((size >= 1e-4) & (size < 1e9))).all():
        # A "|" marks each value's end and a "#" each row's end. The passes strip
        # up to six trailing zeros, and an all-zero fraction gets its "0" back.
        rows = (curve_csv or _pr_curve_csv(pr_curve))[len(_CURVE_HEADER):]
        curve = rows.replace("\n", "|#").replace(",", "|,")
        for zeros in ("0000|", "00|", "0|"):
            curve = curve.replace(zeros, "|")
        curve = curve.replace(".|", ".0|").replace("|,", ",\n      ")
        curve = "[\n      " + curve[:-2].replace("|#", "\n    ],\n    [\n      ") + "\n    ]"
    else:
        curve = ",\n    ".join([_JSON_POINT] * len(pr_curve[0])) % tuple(
            float.__repr__(round(v, 6)) for v in _curve_values(pr_curve))
    # Only a top-level key starts a line with a two-space indent.
    return text.replace('\n  "pr_curve": []', '\n  "pr_curve": [\n    ' + curve + "\n  ]", 1)


def _pr_curve_csv(pr_curve: tuple[list[float], list[float]]) -> str:
    """The curve as CSV: a header, then each point's recall and precision as "%.6f"."""
    return _CURVE_HEADER + ("%.6f,%.6f\n" * len(pr_curve[0])) % _curve_values(pr_curve)


def _cmd_trace(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    config = _pipeline_config(merged)
    out = _output_dir(merged["out"])
    dataset = load_dataset(args.manifest)
    result = run_pipeline(dataset, config)
    _write(out / "ranked_links.csv", format_ranked_csv(result.candidates))
    _write(out / "path_traces.json", paths_to_json_payload(result.paths))
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

    curve = _pr_curve_csv(report.pr_curve)
    _write(out / "eval_report.json", _json_text(report.to_payload(), report.pr_curve, curve))
    _write(out / "pr_curve.csv", curve)
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
    return parse_ranked_csv(read_text(path, "ranked-links file"))


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
        curve = _pr_curve_csv(report.pr_curve)
        _write(out / f"report_{safe}.json", _json_text(report.to_payload(), report.pr_curve, curve))
        _write(out / f"pr_curve_{safe}.csv", curve)
        written.append(out / f"report_{safe}.json")
        summary.append(f"{mode},{report.ap:.6f},{report.map:.6f}")
    _write(out / "ablation_summary.csv", "\n".join(summary) + "\n")
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
    except (NumericError, EvaluationError, TracelinkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
