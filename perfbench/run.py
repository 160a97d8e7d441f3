"""Benchmark for the tracelink batch ranker.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs from the
seed under `.perfbench_work/`, then runs the real `tracelink` CLI command in
a fresh child process, one at a time, until `--seconds` have been used.
Every child's outputs are checked; the last line printed is one JSON object
with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
traced children (`--trace 1`), each the median over the children.

The runner and its children are pinned to one CPU, and every time is scaled
by the speed of that CPU, measured just before and after each child (see
`calibrate`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gen import CorpusParams, RankingParams, write_corpus, write_rankings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 45
MIN_CHILDREN = 3
# No child starts after this many seconds, so that a run ends well within 180 s.
LAST_START_S = 100
# Times are scaled to a CPU on which `calibrate()` takes this long.
REFERENCE_CAL_S = 0.05


@dataclass(frozen=True)
class Workload:
    corpus: CorpusParams
    command: tuple[str, ...]        # tracelink subcommand and flags
    links_factor: int               # links produced or evaluated, per source x target
    rankings: RankingParams | None = None


# Sizes keep one command near 1.5-2.5 s on a 2-core machine, so that a run of
# 27 s takes a median over about ten fresh processes. Topics hold exactly
# `oracle_per_source` targets each, so AP measures topic separation and
# varies little between seeds.
WORKLOADS: dict[str, Workload] = {
    # Short artifacts, many of them: the quadratic pairwise table leads.
    "trace-vsm": Workload(
        corpus=CorpusParams(per_level=110, sentences=2, words=8, methods=4, topics=55,
                            roots=400, overlap=0.2, oracle_per_source=2),
        command=("trace", "--model", "vsm", "--mode", "b+o+i"),
        links_factor=1,
    ),
    # Fewer artifacts, since each JS pair rebuilds its own vocabulary.
    "trace-js": Workload(
        corpus=CorpusParams(per_level=40, sentences=2, words=10, methods=4, topics=20,
                            roots=400, overlap=0.05, oracle_per_source=2),
        command=("trace", "--model", "js", "--mode", "b+o+i"),
        links_factor=1,
    ),
    # Long artifacts over a small vocabulary: many stem calls, few distinct words.
    # Topics overlap enough that no mode ranks every true link first and the
    # six modes rank them differently, so each report pins its own mode.
    "ablate-lsi-long": Workload(
        corpus=CorpusParams(per_level=20, sentences=18, words=8, methods=12, topics=10,
                            roots=120, overlap=0.62, oracle_per_source=2),
        command=("ablate", "--model", "lsi"),
        links_factor=6,
    ),
    # One-sentence artifacts keep loading cheap; the two rankings are the work.
    "eval-compare": Workload(
        corpus=CorpusParams(per_level=300, sentences=1, words=4, methods=1, topics=150,
                            roots=400, overlap=0.3, oracle_per_source=2),
        command=("eval", "--ranked", "A.csv", "--compare", "B.csv"),
        links_factor=2,
        rankings=RankingParams(signal_a=0.95, signal_b=0.5),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "links_per_s": "links/s",
    "peak_rss_mb": "MB",
    "ap": "%",
    "map": "%",
    "ok_ratio": "ratio",
}


class CheckFailed(Exception):
    """An output of the program is not what the workload requires."""


# -- CPU speed -----------------------------------------------------------------
# The speed of a shared virtual CPU drifts by up to 2x within minutes, so
# wall times of one command spread too far to compare two versions. The
# drift is mostly per CPU: a fixed loop tracks it only when it runs on the
# same CPU as the command, not unpinned. So the runner pins itself and
# its children to one CPU, times the loop below just before and after each
# child, and scales the child's times by REFERENCE_CAL_S over the mean of the
# two loop times. The loop is stdlib string, dict and sort work, the kind of
# work the program does, and nothing in it depends on the program.

_CAL_RNG = random.Random(0)
_CAL_TEXT = " ".join(f"w{_CAL_RNG.randrange(10 ** 9)}" for _ in range(60000))


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU, where supported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds this CPU takes, right now, for a fixed mix of stdlib work."""
    started = time.perf_counter()
    words = _CAL_TEXT.split()
    counts: dict[str, int] = {}
    for word in words:
        counts[word[:4]] = counts.get(word[:4], 0) + 1
    sorted(words[:30000])
    return time.perf_counter() - started


# -- inputs --------------------------------------------------------------------

def prepare(workload: Workload, seed: int, work: Path) -> tuple[list[str], dict]:
    """Write the workload's inputs under `work`; return the CLI arguments and manifest."""
    spec = write_corpus(work / "corpus", seed, workload.corpus)
    if workload.rankings is not None:
        write_rankings(work / "corpus", seed, spec, workload.rankings)
    argv = [
        str(work / "corpus" / arg) if arg.endswith(".csv") else arg
        for arg in workload.command
    ]
    argv += ["--manifest", str(work / "corpus" / "manifest.json"), "--out", str(work / "out")]
    return argv, spec


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], work: Path, traced: bool) -> tuple[dict, dict | None]:
    """Run one command in a fresh interpreter; return its result and trace payload."""
    shutil.rmtree(work / "out", ignore_errors=True)
    result_path, trace_path = work / "result.json", work / "trace.json"
    result_path.unlink(missing_ok=True)
    trace_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(result_path),
               str(trace_path) if traced else "-", "--", *argv]
    proc = subprocess.run(command, cwd=work, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise CheckFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit"] != 0:
        raise CheckFailed(f"tracelink exited {result['exit']}: {proc.stderr.strip()[-400:]}")
    if not Path(result["tracelink_file"]).resolve().is_relative_to(SRC.resolve()):
        raise CheckFailed(f"imported tracelink from {result['tracelink_file']}, not {SRC}")
    trace = json.loads(trace_path.read_text(encoding="utf-8")) if traced else None
    return result, trace


# -- correctness ---------------------------------------------------------------

def digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def read_ranked(text: str) -> list[tuple[str, str, float]]:
    """Rows of a ranked-links CSV, in file order (independent of the program)."""
    lines = text.splitlines()
    if not lines or lines[0] != "source_id,target_id,score":
        raise CheckFailed("ranked links: bad header")
    rows = []
    for line in lines[1:]:
        source, target, score = line.split(",")
        rows.append((source, target, float(score)))
    return rows


def ap_map(rows: list[tuple[str, str, float]], oracle: set[tuple[str, str]]) -> tuple[float, float]:
    """AP of the global ranking and MAP over sources, in percent, as `eval --ranked` defines them."""
    ranked = sorted(rows, key=lambda row: (-row[2], row[0], row[1]))
    hits, total = 0, 0.0
    for k, (source, target, _) in enumerate(ranked, start=1):
        if (source, target) in oracle:
            hits += 1
            total += hits / k
    ap = 100.0 * total / len(oracle)

    per_source: dict[str, list[str]] = {}
    for source, target, _ in rows:
        per_source.setdefault(source, []).append(target)
    relevant: dict[str, int] = {}
    for source, _ in oracle:
        relevant[source] = relevant.get(source, 0) + 1
    aps = []
    for source, targets in per_source.items():
        if source not in relevant:
            continue
        hits, total = 0, 0.0
        for k, target in enumerate(targets, start=1):
            if (source, target) in oracle:
                hits += 1
                total += hits / k
        aps.append(100.0 * total / relevant[source])
    return ap, sum(aps) / len(aps)


def check_outputs(command: str, work: Path, spec: dict) -> tuple[float, float]:
    """Check the output files of one `command` run in depth; return its (ap, map)."""
    out = work / "out"
    oracle = {tuple(pair) for pair in spec["oracle_st"]}
    n_links = len(spec["sources"]) * len(spec["targets"])
    if command == "trace":
        text = (out / "ranked_links.csv").read_text(encoding="utf-8")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from tracelink.irmodels import parse_ranked_csv

        parsed = parse_ranked_csv(text)
        if sum(len(targets) for targets in parsed.values()) != n_links:
            raise CheckFailed("ranked_links.csv does not hold one row per source x target")
        json.loads((out / "path_traces.json").read_text(encoding="utf-8"))
        return ap_map(read_ranked(text), oracle)
    if command == "ablate":
        report = json.loads((out / "report_b_o_i.json").read_text(encoding="utf-8"))
        summary = (out / "ablation_summary.csv").read_text(encoding="utf-8").splitlines()
        if f"b+o+i,{report['ap']:.6f},{report['map']:.6f}" not in summary:
            raise CheckFailed("ablation summary disagrees with report_b_o_i.json")
        return report["ap"], report["map"]
    report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    expected = []
    for csv_name in ("A.csv", "B.csv"):
        rows = read_ranked((work / "corpus" / csv_name).read_text(encoding="utf-8"))
        expected.append(ap_map(rows, oracle))
    reported = [(report["ap"], report["map"]),
                (comparison["other_ap"], comparison["other_map"])]
    for (want_ap, want_map), (got_ap, got_map) in zip(expected, reported):
        if abs(round(want_ap, 6) - got_ap) > 1e-6 or abs(round(want_map, 6) - got_map) > 1e-6:
            raise CheckFailed(f"eval reports ap/map {got_ap}/{got_map}, "
                              f"expected {want_ap:.6f}/{want_map:.6f}")
    return report["ap"], report["map"]


def load_reference(name: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


class Checker:
    """Checks every child's outputs against the reference, or against the first child."""

    def __init__(self, name: str, command: str, seed: int, work: Path, spec: dict):
        self.command, self.work, self.spec = command, work, spec
        self.reference = load_reference(name, seed)
        self.expected = self.reference["files"] if self.reference else None
        self.scores: tuple[float, float] | None = None

    def check(self) -> None:
        found = digests(self.work / "out")
        if self.scores is None:
            self.scores = check_outputs(self.command, self.work, self.spec)
            if self.reference and list(self.scores) != [self.reference["ap"],
                                                        self.reference["map"]]:
                raise CheckFailed(f"ap/map {self.scores} differ from the reference "
                                  f"{self.reference['ap']}/{self.reference['map']}")
            if self.expected is None:
                self.expected = found
        if found != self.expected:
            changed = sorted(k for k in found.keys() | self.expected.keys()
                             if found.get(k) != self.expected.get(k))
            raise CheckFailed(f"output bytes differ from the reference: {changed}")


# -- measurement ---------------------------------------------------------------

def measure(name: str, workload: Workload, seed: int, seconds: float, traced: bool,
            work: Path) -> dict:
    argv, spec = prepare(workload, seed, work)
    checker = Checker(name, workload.command[0], seed, work, spec)
    n_links = workload.links_factor * len(spec["sources"]) * len(spec["targets"])

    # Compiles bytecode and warms the file cache; users do not pay this per run.
    subprocess.run([sys.executable, "-c", "import tracelink.cli"], cwd=work, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)

    plain: list[dict] = []
    layered: list[dict] = []
    attempted = failed = 0
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        enough = len(plain) >= MIN_CHILDREN and (not traced or len(layered) >= MIN_CHILDREN)
        projected = elapsed + (statistics.median(durations) if durations else 0.0)
        if projected > seconds and (enough or attempted >= 4 * MIN_CHILDREN):
            break
        if elapsed > LAST_START_S:
            break
        with_trace = traced and attempted % 2 == 1
        attempted += 1
        begun = time.perf_counter()
        try:
            cal_before = calibrate()
            result, trace = run_child(argv, work, with_trace)
            scale = 2 * REFERENCE_CAL_S / (cal_before + calibrate())
        except (CheckFailed, OSError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
            continue
        finally:
            durations.append(time.perf_counter() - begun)
        if with_trace:
            from tracer import layer_metrics

            layered.append({key: value * scale if key.endswith("_s") and value is not None
                            else value for key, value in layer_metrics(trace).items()})
        else:
            setup_s = result["import_s"] + result["load_s"]
            run_s = result["main_s"] - result["load_s"]
            plain.append({"setup_s": setup_s * scale, "run_s": run_s * scale,
                          "links_per_s": n_links / ((setup_s + run_s) * scale),
                          "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                          "wall_setup_s": setup_s, "wall_run_s": run_s, "speed": scale})
        # A run whose outputs are wrong still counts its time; it fails the check.
        try:
            checker.check()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}", file=sys.stderr)

    if checker.reference is None:
        print(f"no reference digests for {name} seed {seed}: checked that every run "
              "wrote the same bytes and that ap/map match an independent evaluation",
              file=sys.stderr)
    correct = failed == 0 and bool(plain)
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    if not plain:
        summary["metrics"] = {}
        return summary
    if not traced:
        ap, map_value = checker.scores or (None, None)
        metrics = {key: statistics.median(s[key] for s in plain)
                   for key in ("setup_s", "run_s", "links_per_s", "peak_rss_mb")}
        metrics.update(ap=ap, map=map_value, ok_ratio=(attempted - failed) / attempted)
        walls = {key: statistics.median(s[key] for s in plain)
                 for key in ("wall_setup_s", "wall_run_s", "speed")}
        print(f"unscaled medians: setup_s {walls['wall_setup_s']:.4f} s, "
              f"run_s {walls['wall_run_s']:.4f} s; scale {walls['speed']:.4f}", file=sys.stderr)
        summary["metrics"] = {key: {"value": metrics[key], "unit": END_TO_END_UNITS[key]}
                              for key in END_TO_END_UNITS}
        return summary
    summary["metrics"] = layer_summary(layered, statistics.median(s["run_s"] for s in plain))
    return summary


def layer_summary(layered: list[dict], untraced_run_s: float) -> dict:
    """Median of every per-layer metric over the traced children, with its unit."""
    from tracer import layer_unit

    values: dict[str, float | None] = {}
    for key in layered[0]:
        samples = [sample[key] for sample in layered]
        values[key] = None if None in samples else statistics.median(samples)
    values["trace.overhead_ratio"] = values["trace.run_s"] / untraced_run_s
    unmeasured = sorted(key for key, value in values.items() if value is None)
    if unmeasured:
        print("unmeasured (wrap target missing): " + ", ".join(unmeasured), file=sys.stderr)
    return {key: {"value": value, "unit": layer_unit(key)} for key, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tracelink" / "cli.py").is_file():
        print(f"error: no tracelink sources at {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    pin_to_one_cpu()
    try:
        summary = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for key, metric in summary["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
