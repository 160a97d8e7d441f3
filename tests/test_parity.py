"""Byte-parity gate: `trace` and `ablate` outputs on the motivating dataset never change.

`data/parity_digests.json` holds the SHA-256 of `ranked_links.csv` and
`path_traces.json` for every IR model and ablation mode, recorded with the
pairwise (dict-of-pairs) similarity table that the matrix layer replaced,
and of every `ablate` output (six reports, six PR curves and the summary)
for every IR model, recorded while each mode still ran the whole pipeline.
A refactor or speed-up that moves one byte, for example by splitting an
exact score tie differently, fails here. Re-record only for an intended
change of output, never to absorb a numeric drift:

    PYTHONPATH=src python tests/test_parity.py > tests/data/parity_digests.json
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tracelink.cli import main
from tracelink.irmodels import MODELS
from tracelink.pipeline import ABLATION_MODES

DATA_DIR = Path(__file__).parent / "data"
DIGESTS = DATA_DIR / "parity_digests.json"
OUTPUTS = ("ranked_links.csv", "path_traces.json")


def trace_digests(manifest: Path, model: str, mode: str, out: Path) -> dict[str, str]:
    code = main(["trace", "--manifest", str(manifest), "--model", model,
                 "--mode", mode, "--out", str(out)])
    assert code == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def ablate_digests(manifest: Path, model: str, out: Path) -> dict[str, str]:
    code = main(["ablate", "--manifest", str(manifest), "--model", model, "--out", str(out)])
    assert code == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_trace_outputs_byte_identical(tmp_path, motivating_manifest, model, mode, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{model}/{mode}"]
    assert trace_digests(motivating_manifest, model, mode, tmp_path) == expected


@pytest.mark.parametrize("model", MODELS)
def test_ablate_outputs_byte_identical(tmp_path, motivating_manifest, model, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"ablate/{model}"]
    assert len(expected) == 2 * len(ABLATION_MODES) + 1
    assert ablate_digests(motivating_manifest, model, tmp_path) == expected


if __name__ == "__main__":
    manifest = DATA_DIR / "motivating" / "manifest.json"
    # `trace` reports each run on stdout; send that to stderr so stdout holds only the JSON.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = {
            f"{model}/{mode}": trace_digests(manifest, model, mode, Path(tmp) / f"{model}_{mode}")
            for model in MODELS for mode in ABLATION_MODES
        }
        digests |= {
            f"ablate/{model}": ablate_digests(manifest, model, Path(tmp) / f"ablate_{model}")
            for model in MODELS
        }
    print(json.dumps(digests, sort_keys=True, indent=2))
