"""Record reference outputs for every workload and seed.

Usage (from the root of a checkout whose outputs are the accepted behaviour):
    python3 perfbench/record.py --seeds 0-99 [--workload NAME ...]

For each (workload, seed) this runs the workload's command once, checks its
outputs as a benchmark run does, and stores the SHA-256 of every output
file with the run's AP and MAP in `perfbench/reference.json`. A benchmark
run on a recorded seed then requires exactly these bytes and values. With
`--workload`, only the named workloads are recorded again; the entries of
the others are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REFERENCE, ROOT, WORKLOADS, check_outputs, digests, prepare, run_child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="record only this workload (repeatable); default: all")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))

    reference: dict[str, dict] = {}
    if args.workload and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        entries = reference[name] = {}
        for seed in range(first, last + 1):
            work = ROOT / ".perfbench_work" / f"record-{name}-{seed}"
            work.mkdir(parents=True)
            try:
                argv, spec = prepare(workload, seed, work)
                run_child(argv, work, traced=False)
                ap, map_value = check_outputs(workload.command[0], work, spec)
                entries[str(seed)] = {"files": digests(work / "out"), "ap": ap, "map": map_value}
            finally:
                shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: seeds {first}-{last} recorded", file=sys.stderr)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
