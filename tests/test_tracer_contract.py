"""The benchmark tracer still fits every function it wraps.

`perfbench/tracer.py` wraps pipeline and CLI functions where their callers
look them up, and its hooks read their arguments and results. A wrap target
that is gone, or whose shape a hook no longer fits, lands in
`Tracer.missing`, and the benchmark then reports each metric that depends on
it as unmeasured. This runs every command the benchmark traces, in this
process, with the tracer installed.
"""

import importlib.util
from pathlib import Path

import tracelink.pipeline as pipeline
from tracelink.cli import main

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
            "evaluate.ablation", "evaluate.compare", "cli.parse", "cli.write"} <= spans
