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

from .corpus.manifest import load_dataset
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
from .evaluate import EvalReport, compare_runs, evaluate_ranking
from .irmodels import MODELS, format_ranked_csv, parse_ranked_csv
from .pipeline import ABLATION_MODES, PipelineConfig, run_ablation, run_pipeline
from .transitive import paths_to_json_payload

_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)} | {"out": "tracelink-out"}


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
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS) - {"modes"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in ("out", "pairs_dir"):
        if merged[key] is not None and not isinstance(merged[key], str):
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


def _json_text(payload, pr_curve: list[tuple[float, float]] | None = None) -> str:
    """`payload` as sorted, indented JSON; with `pr_curve`, its pairs go under "pr_curve".

    `json.dumps` with `indent` runs its pure-Python encoder, and a curve has
    a point per link, so the curve is spliced in as text: each finite value
    written as `json` writes `round(value, 6)`. Recall takes at most
    |oracle| + 1 values, so its strings are cached.
    """
    if pr_curve is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    text = json.dumps({**payload, "pr_curve": []}, sort_keys=True, indent=2) + "\n"
    if not pr_curve:
        return text
    recall_text: dict[float, str] = {}
    points = []
    for r, p in pr_curve:
        recall = recall_text.get(r)
        if recall is None or not r:  # 0.0 == -0.0, so a zero is never taken from the cache
            recall = recall_text[r] = float.__repr__(round(r, 6))
        points.append(f"[\n      {recall},\n      {float.__repr__(round(p, 6))}\n    ]")
    curve = "[\n    " + ",\n    ".join(points) + "\n  ]"
    # Only a top-level key starts a line with a two-space indent.
    return text.replace('\n  "pr_curve": []', '\n  "pr_curve": ' + curve, 1)


def _pr_curve_csv(report: EvalReport) -> str:
    lines = ["recall,precision"]
    lines.extend(f"{r:.6f},{p:.6f}" for r, p in report.pr_curve)
    return "\n".join(lines) + "\n"


def _cmd_trace(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    config = _pipeline_config(merged)
    out = _output_dir(merged["out"])
    dataset = load_dataset(args.manifest)
    result = run_pipeline(dataset, config)
    _write(out / "ranked_links.csv", format_ranked_csv(result.candidates))
    _write(out / "path_traces.json", _json_text(paths_to_json_payload(result.paths)))
    if args.dump_corpus:
        _write(out / "enriched_corpus.json", _json_text(corpus_dump_payload(result.documents)))
    print(f"wrote {out / 'ranked_links.csv'} and {out / 'path_traces.json'}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    out = _output_dir(merged["out"])
    dataset = load_dataset(args.manifest)
    if not dataset.oracle_st:
        raise ConfigError("manifest has no oracle_st; evaluation needs true links")

    if args.ranked:
        candidates = _read_ranked(args.ranked)
    else:
        result = run_pipeline(dataset, _pipeline_config(merged))
        candidates = result.candidates
    report = evaluate_ranking(candidates, dataset.oracle_st)

    _write(out / "eval_report.json", _json_text(report.to_payload(), report.pr_curve))
    _write(out / "pr_curve.csv", _pr_curve_csv(report))
    written = [out / "eval_report.json", out / "pr_curve.csv"]

    if args.compare:
        other = evaluate_ranking(_read_ranked(args.compare), dataset.oracle_st)
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


def _read_ranked(path: str) -> dict[str, list[tuple[str, float]]]:
    return parse_ranked_csv(read_text(path, "ranked-links file"))


def _cmd_ablate(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    modes_text = args.modes if args.modes is not None else merged.get(
        "modes", ",".join(ABLATION_MODES)
    )
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
        _write(out / f"report_{safe}.json", _json_text(report.to_payload(), report.pr_curve))
        _write(out / f"pr_curve_{safe}.csv", _pr_curve_csv(report))
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
