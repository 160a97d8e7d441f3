"""`scripts/run_ebt_reference.py`, run as a script on the bundled and on bad manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracelink.corpus.manifest import load_dataset
from tracelink.evaluate import evaluate_ranking
from tracelink.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_ebt_reference.py"


def run_script(manifest):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), str(manifest)], env=env,
                          capture_output=True, text=True)


def test_prints_the_pipeline_scores_of_the_motivating_manifest(motivating_manifest):
    dataset = load_dataset(motivating_manifest)
    result = run_pipeline(dataset, PipelineConfig(model="vsm", mode="b+o+i"))
    report = evaluate_ranking(result.candidates, dataset.oracle_st)
    done = run_script(motivating_manifest)
    assert done.returncode == 0
    assert f"{'this run':14}{report.ap:>10.2f}{report.map:>10.2f}" in done.stdout.splitlines()
    assert (f"{report.ap:.2f}", f"{report.map:.2f}") == ("58.33", "100.00")


def test_a_missing_manifest_exits_2(tmp_path):
    done = run_script(tmp_path / "absent.json")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: EBT corpus not found at ") and done.stderr.count("\n") == 1


def without_oracle(path, motivating_manifest):
    spec = json.loads(motivating_manifest.read_text())
    del spec["oracle_st"]
    for level in ("sources", "intermediates", "targets"):
        for entry in spec[level]:
            entry["path"] = str(motivating_manifest.parent / entry["path"])
    path.write_text(json.dumps(spec))


@pytest.mark.parametrize("build", [
    lambda path, _: path.write_text('{"sources": 3}'),
    without_oracle,
], ids=["sources-not-a-list", "no-oracle-st"])
def test_a_malformed_manifest_exits_2_with_one_error_line(tmp_path, motivating_manifest, build):
    manifest = tmp_path / "manifest.json"
    build(manifest, motivating_manifest)
    done = run_script(manifest)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
