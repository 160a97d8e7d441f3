"""The benchmark still fits every part of `src/` that it reads.

`perfbench/tracer.py` wraps pipeline and CLI functions where their callers
look them up, and its hooks read their arguments and results. A wrap target
that is gone, or whose shape a hook no longer fits, lands in
`Tracer.missing`, and the benchmark then reports each metric that depends on
it as unmeasured. This runs every command the benchmark traces, in this
process, with the tracer installed. It also reads each `ranked_links.csv`
as `perfbench/run.py::check_outputs` does, through the mapping view of
`parse_ranked_csv`, so a change to that view fails here and not only in the
benchmark.
"""

import importlib.util
from pathlib import Path

import tracelink.pipeline as pipeline
from tracelink.cli import main
from tracelink.corpus.manifest import load_dataset
from tracelink.irmodels import parse_ranked_csv

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_fits_every_wrapped_function(tmp_path, motivating_manifest):
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    unwrapped = pipeline.rank_candidates
    manifest = str(motivating_manifest)
    tracer_module.install(tracer)
    try:
        for model in ("vsm", "js"):
            code = main(["trace", "--manifest", manifest, "--model", model,
                         "--out", str(tmp_path / model)])
            assert code == 0
        assert main(["ablate", "--manifest", manifest, "--out", str(tmp_path / "ablate")]) == 0
        code = main(["eval", "--manifest", manifest,
                     "--ranked", str(tmp_path / "vsm" / "ranked_links.csv"),
                     "--compare", str(tmp_path / "js" / "ranked_links.csv"),
                     "--out", str(tmp_path / "eval")])
        assert code == 0
    finally:
        tracer.restore()
    assert pipeline.rank_candidates is unwrapped
    assert tracer.missing == []
    spans = {span[0] for span in tracer.spans}
    assert {"irmodels.table", "irmodels.rank", "transitive.form_paths", "transitive.adjust",
            "evaluate.ablation", "evaluate.eval", "evaluate.compare", "cli.parse",
            "cli.write"} <= spans
    # Each trace builds a pre-enrichment and a final table; the ablation builds
    # one final table without "b", then a pre-enrichment and a final one with it.
    dataset = load_dataset(motivating_manifest)
    s, i, t = len(dataset.sources), len(dataset.intermediates), len(dataset.targets)
    for model in ("vsm", "js"):
        parsed = parse_ranked_csv((tmp_path / model / "ranked_links.csv").read_text("utf-8"))
        assert sum(len(targets) for targets in parsed.values()) == s * t
    pre = (s + t) * i
    final = (s + i + t) * (s + i + t - 1) // 2 - t * (t - 1) // 2
    assert tracer.counts["pairs_stored"] == 3 * pre + 4 * final
