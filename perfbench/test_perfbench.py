"""Self-tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from gen import CorpusParams, ranked_csv, write_corpus, write_rankings  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = CorpusParams(per_level=6, sentences=2, words=5, methods=2, topics=3,
                    roots=30, overlap=0.2, oracle_per_source=2)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_same_seed_same_bytes(tmp_path):
    workload = run.WORKLOADS["eval-compare"]
    params = replace(workload.corpus, per_level=20, topics=10)
    for name in ("a", "b", "c"):
        seed = 8 if name == "c" else 7
        spec = write_corpus(tmp_path / name, seed, params)
        write_rankings(tmp_path / name, seed, spec, workload.rankings)
    first, again, other = (_files(tmp_path / name) for name in ("a", "b", "c"))
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in ("manifest.json", "A.csv", "T0000.java"))


def test_independent_ap_map_matches_tracelink(tmp_path):
    from tracelink.evaluate import evaluate_ranking
    from tracelink.irmodels import parse_ranked_csv

    spec = write_corpus(tmp_path, 3, replace(TINY, per_level=12, topics=6))
    text = ranked_csv(random.Random(3), spec, signal=0.3)
    oracle = {tuple(pair) for pair in spec["oracle_st"]}
    report = evaluate_ranking(parse_ranked_csv(text), oracle)
    assert run.ap_map(run.read_ranked(text), oracle) == (report.ap, report.map)


def test_tracer_restores_every_wrapped_attribute():
    import tracelink.cli
    import tracelink.evaluate
    import tracelink.irmodels
    import tracelink.pipeline

    owners = [tracelink.cli, tracelink.evaluate, tracelink.pipeline,
              sys.modules["tracelink.corpus.preprocess"], tracelink.irmodels.SimilarityTable]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    tracer.install(t)
    assert not t.missing
    assert any(dict(vars(o)) != b for o, b in zip(owners, before))
    t.restore()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is saved[key] for key in saved)


def test_missing_wrap_target_is_unmeasured_not_zero():
    t = tracer.Tracer()
    module = types.ModuleType("tracelink.pipeline")
    t.wrap(module, "form_paths", "transitive.form_paths")
    assert t.missing == ["tracelink.pipeline.form_paths"]
    root = t.begin("cli.main")
    t.end(root)
    metrics = tracer.layer_metrics(t.payload())
    assert metrics["transitive.form_paths_s"] is None
    assert metrics["transitive.paths_sit"] is None
    assert metrics["irmodels.table_s"] == 0.0


def test_hook_that_no_longer_fits_the_result_is_unmeasured():
    t = tracer.Tracer()
    module = types.ModuleType("tracelink.pipeline")
    module.build_similarity_table = lambda documents, model: object()
    t.wrap(module, "build_similarity_table", "irmodels.table", tracer._on_table)
    root = t.begin("cli.main")
    module.build_similarity_table([], "vsm")
    t.end(root)
    metrics = tracer.layer_metrics(t.payload())
    assert metrics["irmodels.pairs_stored"] is None


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1], ["pipeline.run", 1.0, 9.0, 0],
             ["irmodels.table", 2.0, 5.0, 1], ["irmodels.table", 5.0, 6.0, 1]]
    assert tracer.self_times(spans) == {"cli.main": 2.0, "pipeline.run": 4.0,
                                        "irmodels.table": 4.0}


def test_benchmark_json_lists_what_the_runner_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*tracer.REQUIRES, "trace.run_s", "trace.layers_s", "trace.unattributed_s",
                   "trace.tracer_s", "trace.overhead_ratio"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layer_names)
    assert all(m["unit"] == tracer.layer_unit(m["name"]) for m in bench["per_layer"])


def test_ablation_reference_tells_the_modes_apart():
    # The reports hold only PR curves and AP/MAP. If every mode ranked all true
    # links first, the byte check could not see a change to any stage.
    entries = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["ablate-lsi-long"]
    below_100 = sum(entry["ap"] < 100.0 for entry in entries.values())
    distinct = [len({digest for name, digest in entry["files"].items()
                     if name.startswith("report_")}) for entry in entries.values()]
    assert below_100 >= 0.8 * len(entries)
    assert sum(n >= 5 for n in distinct) >= 0.8 * len(entries)
    assert min(distinct) >= 2


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes_the_checks(name, tmp_path):
    workload = replace(run.WORKLOADS[name], corpus=TINY)
    traced = name == "trace-vsm"
    # A name without reference digests: the checks compare runs with each other.
    summary = run.measure(f"tiny-{name}", workload, 5, 0.0, traced, tmp_path)
    assert summary["correct"], summary
    assert summary["failed"] == 0
    assert summary["attempted"] >= run.MIN_CHILDREN
    metrics = summary["metrics"]
    if traced:
        assert metrics["trace.layers_s"]["value"] > 0
        assert metrics["irmodels.table_calls"]["value"] == 2
        assert metrics["evaluate.pipeline_runs"]["value"] == 1
    else:
        assert list(metrics) == list(run.END_TO_END_UNITS)
        assert all(metric["value"] > 0 for metric in metrics.values())


def test_peak_rss_leaves_out_the_runner(tmp_path):
    # ru_maxrss of a child starts at the runner's size; the benchmark reads the child's own peak.
    workload = replace(run.WORKLOADS["trace-js"], corpus=TINY)
    argv, _ = run.prepare(workload, 5, tmp_path)
    alone = run.run_child(argv, tmp_path, traced=False)[0]["maxrss_kb"]
    ballast = bytearray(200 * 2 ** 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    beside = run.run_child(argv, tmp_path, traced=False)[0]["maxrss_kb"]
    del ballast
    assert beside < alone + 50 * 1024


def test_changed_output_bytes_fail_the_check(tmp_path):
    workload = replace(run.WORKLOADS["trace-js"], corpus=TINY)
    argv, spec = run.prepare(workload, 5, tmp_path)
    run.run_child(argv, tmp_path, traced=False)
    checker = run.Checker("tiny-trace-js", "trace", 5, tmp_path, spec)
    checker.check()
    with open(tmp_path / "out" / "path_traces.json", "a", encoding="utf-8") as handle:
        handle.write("\n")
    with pytest.raises(run.CheckFailed, match="path_traces.json"):
        checker.check()
