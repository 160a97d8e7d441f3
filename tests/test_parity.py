"""Byte-parity gate: `trace` and `ablate` outputs on two bundled datasets never change.

`data/parity_digests.json` holds the SHA-256 of `ranked_links.csv` and
`path_traces.json` for every IR model and ablation mode, recorded with the
pairwise (dict-of-pairs) similarity table that the matrix layer replaced,
and of every `ablate` output (six reports, six PR curves and the summary)
for every IR model, recorded while each mode still ran the whole pipeline.
On the motivating dataset the six `ablate` reports are all equal under
`vsm` and `lsi`, so the `modes:` keys pin the same outputs on `data/modes`:
twelve artifacts written by `perfbench/gen.py` (`write_corpus` with seed 14
and `CorpusParams(4, 2, 6, 2, 2, 30, 0.5, 2)`), on which every mode gives
its own report under every model. The `eval/` keys pin the read side on the
motivating dataset: `eval --ranked X --compare Y` with X and Y written by
`trace` under `vsm` and `js`, and `eval --ranked` on the `vsm` ranking with
one extra row whose source id holds a comma, so it is quoted and read through
`csv.reader`. The `corpus/` keys (and `modes:corpus/` on `data/modes`) pin the
`enriched_corpus.json` that `trace --dump-corpus` writes for every model and
mode: the base terms and added biterm weights of every document, recorded
while an NL artifact still carried its own tagged sentences beside the code
parts of code. A refactor or speed-up that moves one byte, for example by
splitting an exact score tie differently, fails here. Re-record only for an intended
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
MODES_MANIFEST = DATA_DIR / "modes" / "manifest.json"
DATASETS = {"": DATA_DIR / "motivating" / "manifest.json", "modes:": MODES_MANIFEST}
OUTPUTS = ("ranked_links.csv", "path_traces.json")
CORPUS_OUTPUTS = ("enriched_corpus.json",)


def trace_digests(
    manifest: Path, model: str, mode: str, out: Path, *extra_args: str, outputs=OUTPUTS
) -> dict[str, str]:
    code = main(["trace", "--manifest", str(manifest), "--model", model,
                 "--mode", mode, "--out", str(out), *extra_args])
    assert code == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}


def corpus_digests(manifest: Path, model: str, mode: str, out: Path) -> dict[str, str]:
    return trace_digests(manifest, model, mode, out, "--dump-corpus", outputs=CORPUS_OUTPUTS)


def ablate_digests(manifest: Path, model: str, out: Path) -> dict[str, str]:
    code = main(["ablate", "--manifest", str(manifest), "--model", model, "--out", str(out)])
    assert code == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def eval_digests(manifest: Path, out: Path) -> dict[str, dict[str, str]]:
    """Digests of `eval --ranked` outputs on rankings that `trace` writes for `manifest`."""
    rankings = {}
    for model in ("vsm", "js"):
        trace_digests(manifest, model, "b+o+i", out / f"trace_{model}")
        rankings[model] = out / f"trace_{model}" / "ranked_links.csv"
    quoted = out / "quoted.csv"
    quoted.write_bytes(rankings["vsm"].read_bytes() + b'"RE-691, copy",AFInfoBox,0.500000\n')
    runs = {
        "eval/vsm-vs-js": ["--ranked", str(rankings["vsm"]), "--compare", str(rankings["js"])],
        "eval/quoted-id": ["--ranked", str(quoted)],
    }
    digests = {}
    for key, ranked_args in runs.items():
        target = out / key.replace("/", "_")
        assert main(["eval", "--manifest", str(manifest), *ranked_args,
                     "--out", str(target)]) == 0
        digests[key] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(target.iterdir())}
    return digests


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_modes_trace_outputs_byte_identical(tmp_path, model, mode, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"modes:{model}/{mode}"]
    assert trace_digests(MODES_MANIFEST, model, mode, tmp_path) == expected


@pytest.mark.parametrize("model", MODELS)
def test_modes_ablate_outputs_byte_identical(tmp_path, model, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"modes:ablate/{model}"]
    reports = {digest for name, digest in expected.items() if name.startswith("report_")}
    assert len(reports) == len(ABLATION_MODES)
    assert ablate_digests(MODES_MANIFEST, model, tmp_path) == expected


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


@pytest.mark.parametrize("prefix", DATASETS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_dumped_corpus_byte_identical(tmp_path, prefix, model, mode, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{prefix}corpus/{model}/{mode}"]
    assert corpus_digests(DATASETS[prefix], model, mode, tmp_path) == expected


def test_eval_outputs_byte_identical(tmp_path, motivating_manifest, capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = eval_digests(motivating_manifest, tmp_path)
    assert len(got["eval/vsm-vs-js"]) == 3
    assert got == {key: expected[key] for key in got}


if __name__ == "__main__":
    digests = {}
    # `trace` reports each run on stdout; send that to stderr so stdout holds only the JSON.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for n, (prefix, manifest) in enumerate(DATASETS.items()):
            digests |= {
                f"{prefix}{model}/{mode}": trace_digests(
                    manifest, model, mode, Path(tmp) / f"{n}_{model}_{mode}"
                )
                for model in MODELS for mode in ABLATION_MODES
            }
            digests |= {
                f"{prefix}ablate/{model}": ablate_digests(
                    manifest, model, Path(tmp) / f"{n}_ablate_{model}"
                )
                for model in MODELS
            }
            digests |= {
                f"{prefix}corpus/{model}/{mode}": corpus_digests(
                    manifest, model, mode, Path(tmp) / f"{n}_corpus_{model}_{mode}"
                )
                for model in MODELS for mode in ABLATION_MODES
            }
        digests |= eval_digests(DATASETS[""], Path(tmp) / "eval")
    print(json.dumps(digests, sort_keys=True, indent=2))
