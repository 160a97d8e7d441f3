#!/usr/bin/env python3
"""Run the full pipeline on the EBT corpus and print AP/MAP beside the
published reference numbers (VSM, all components on).

This is a documentation aid, not an asserted benchmark: extraction
fidelity differs between toolchains, so equality with the reference
values is not expected.

Usage:
    python scripts/run_ebt_reference.py [data/ebt/manifest.json]

Expected layout (see README, "EBT reference corpus"):
    data/ebt/manifest.json   manifest in this package's format
    data/ebt/...             artifact text files referenced by it

The manifest must declare requirements as sources, test-case descriptions
as intermediates, source code as targets, and the requirement-to-code
answer set as oracle_st. A missing manifest, or one the pipeline cannot
run on, exits with code 2 and one `error: <message>` line on stderr.
"""

import sys
from pathlib import Path

from tracelink.corpus.manifest import load_dataset
from tracelink.errors import TracelinkError
from tracelink.evaluate import evaluate_ranking
from tracelink.pipeline import PipelineConfig, run_pipeline

REFERENCE_AP = 23.04   # published EBT/VSM average precision for this approach
REFERENCE_MAP = 38.10  # published EBT/VSM mean average precision


def main() -> int:
    manifest = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("data/ebt/manifest.json")
    if not manifest.exists():
        print(f"error: EBT corpus not found at {manifest}; place the published preprocessed"
              " EBT data there in this package's manifest format (see README)", file=sys.stderr)
        return 2

    try:
        dataset = load_dataset(manifest)
        result = run_pipeline(dataset, PipelineConfig(model="vsm", mode="b+o+i"))
        report = evaluate_ranking(result.candidates, dataset.oracle_st)
    except TracelinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'':14}{'AP':>10}{'MAP':>10}")
    print(f"{'this run':14}{report.ap:>10.2f}{report.map:>10.2f}")
    print(f"{'reference':14}{REFERENCE_AP:>10.2f}{REFERENCE_MAP:>10.2f}")
    print("(reference values are reported, not asserted: extraction fidelity differs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
