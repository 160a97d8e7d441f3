"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerances and runtime budgets and prints a
PASS line on success (run with -s to see them). These are the exit criteria
for the package; everything here must stay green.
"""

import random
import time
from collections import Counter

import pytest

from tracelink.biterms import extract_biterms
from tracelink.cli import main as cli_main
from tracelink.corpus.codescan import CodeParts
from tracelink.corpus.manifest import load_dataset
from tracelink.corpus.types import Artifact, Document, Kind
from tracelink.evaluate import cliffs_delta, evaluate_ranking, wilcoxon_rank_sum
from tracelink.irmodels import build_similarity_table
from tracelink.pipeline import PipelineConfig, level_rows, run_pipeline
from tracelink.transitive import adjust_scores, form_paths, hop_lists

from test_irmodels import (
    brute_cosine, long_form, oracle_jsd_similarity, random_documents, tf_idf,
)
from test_transitive import IdPools, full_table, oracle_paths, random_scenario
from test_evaluate import oracle_average_precision, oracle_cliffs_delta, oracle_rank_sum_p
from test_pipeline import spy_filtered_biterms


def _report(label: str) -> None:
    print(f"PASS: {label}")


def test_motivating_example_golden(motivating_manifest, monkeypatch):
    started = time.perf_counter()
    dataset = load_dataset(motivating_manifest)
    filtered = spy_filtered_biterms(monkeypatch, dataset)
    config = PipelineConfig(model="vsm", mode="b+o+i", m=0.5, t=3)
    full = run_pipeline(dataset, config)
    ir_only = run_pipeline(dataset, PipelineConfig(model="vsm", mode="ir-only"))

    # (a) consensual filtering leaves exactly (assign, rout) for AFInfoBox
    assert set(filtered["AFInfoBox"]) == {("assign", "rout")}

    # (b) the two narrated paths are emitted
    keys = {tuple(p.nodes) for p in full.paths["RE-691"]}
    assert ("RE-691", "DD-694", "AFEmergencyComponent") in keys
    assert ("RE-691", "DD-694", "DD-647", "AFInfoBox") in keys

    # (c) AFInfoBox ranks strictly higher for RE-691 than under ir-only
    def rank_of(candidates, target):
        return [t for t, _ in candidates].index(target) + 1

    rank_full = rank_of(full.candidates["RE-691"], "AFInfoBox")
    rank_ir = rank_of(ir_only.candidates["RE-691"], "AFInfoBox")
    assert rank_full < rank_ir

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"motivating-example run took {elapsed:.3f}s"
    _report(f"motivating-example golden test (rank {rank_ir} -> {rank_full}, {elapsed:.3f}s)")


def test_biterm_extraction_conformance():
    class_only = Artifact(
        id="AFInfoBox", kind=Kind.CODE,
        parts=CodeParts(class_names=[["af", "info", "box"]]),
    )
    biterms = extract_biterms(class_only)
    assert biterms == {
        ("af", "info"): 2, ("af", "box"): 2, ("box", "info"): 2,
    }

    composite = Artifact(
        id="composite", kind=Kind.CODE,
        parts=CodeParts(
            class_names=[["assign", "route"]],
            comments=[["assign", "route"], ["assign", "route"]],
            parameter_type_names=[["assign", "route"]] * 3,
        ),
    )
    assert extract_biterms(composite)[("assign", "rout")] == 5
    _report("biterm extraction conformance (class-name pairs x2, composite count 5)")


def test_similarity_oracles():
    started = time.perf_counter()
    rng = random.Random(42)

    max_vsm_err = 0.0
    for _ in range(50):
        docs = random_documents(rng, rng.randint(2, 20), rng.randint(2, 50))
        matrix = tf_idf(docs)
        table = build_similarity_table(docs, "vsm")
        ids = matrix.doc_ids
        sample_pairs = [(a, b) for a, b in zip(ids, ids[1:])] + [(ids[0], ids[-1])]
        for a, b in sample_pairs:
            err = abs(table.score(a, b) - brute_cosine(matrix, a, b))
            max_vsm_err = max(max_vsm_err, err)
    assert max_vsm_err <= 1e-10

    max_lsi_err = 0.0
    for _ in range(10):
        docs = random_documents(rng, rng.randint(2, 10), rng.randint(2, 15))
        matrix = tf_idf(docs)
        k = min(len(matrix.vocabulary), len(matrix.doc_ids))
        lsi = build_similarity_table(docs, "lsi", lsi_rank=k)
        vsm = build_similarity_table(docs, "vsm")
        for (a, b), score in lsi.pairs().items():
            max_lsi_err = max(max_lsi_err, abs(score - vsm.score(a, b)))
    assert max_lsi_err <= 1e-8

    max_js_err = 0.0
    for _ in range(50):
        a = Counter(rng.choices("abcdefgh", k=rng.randint(1, 15)))
        b = Counter(rng.choices("efghijkl", k=rng.randint(1, 15)))
        table = build_similarity_table([Document("a", terms=a), Document("b", terms=b)], "js")
        max_js_err = max(max_js_err, abs(table.score("a", "b") - oracle_jsd_similarity(a, b)))
    assert max_js_err <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        "similarity oracles "
        f"(vsm {max_vsm_err:.1e}, lsi {max_lsi_err:.1e}, js {max_js_err:.1e}, {elapsed:.2f}s)"
    )


def test_transitive_path_oracle():
    started = time.perf_counter()
    rng = random.Random(4242)
    m, t = 0.5, 3
    checked = 0
    for _ in range(100):
        pools, table = random_scenario(rng)
        levels = level_rows(pools)
        lists = hop_lists(table, levels, t)
        for source, row in zip(pools.source_ids(), levels[0].tolist()):
            outer_only = form_paths(row, lists, table.col_ids, m, t, allow_inner=False)
            with_inner = form_paths(row, lists, table.col_ids, m, t, allow_inner=True)
            got_outer = {tuple(p.nodes) for p in outer_only}
            got_inner = {tuple(p.nodes) for p in with_inner}
            assert got_outer == oracle_paths(source, pools, table, m, t, False)
            assert got_inner == oracle_paths(source, pools, table, m, t, True)
            assert got_outer <= got_inner
            checked += 1

            multipliers = adjust_scores({source: with_inner}, [source], pools.target_ids())
            before = table.scores[row, levels[2]]
            assert (before * multipliers[0] >= before - 1e-15).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(f"transitive-path oracle (100 datasets, {checked} sources, {elapsed:.2f}s)")


def test_hop_state_arithmetic():
    # Under m = 0.5, t = 3 a hop from i (one hop in) keeps targets scoring at
    # least 0.6 x the best, at most 2; from i after s > s2 > i (two hops in),
    # at least 0.7 x the best, at most 1.
    pools = IdPools(["s", "s2"], ["i"], ["t1", "t2"])

    def paths_with(second_best):
        table = full_table(pools, {
            ("s", "i"): 1.0, ("s", "s2"): 1.0, ("s2", "i"): 1.0,
            ("i", "t1"): 1.0, ("i", "t2"): second_best,
        })
        levels = level_rows(pools)
        paths = form_paths(int(levels[0][0]), hop_lists(table, levels, 3), table.col_ids, 0.5, 3)
        return {tuple(p.nodes) for p in paths}

    assert ("s", "i", "t2") in paths_with(0.6)          # exactly 0.6 x best: kept
    assert ("s", "i", "t2") not in paths_with(0.59)
    assert paths_with(0.95) == {("s", "i", "t1"), ("s", "i", "t2"), ("s", "s2", "i", "t1")}
    _report("hop thresholds through form_paths ((0.6, 2) after one hop, (0.7, 1) after two)")


def test_metric_oracles():
    started = time.perf_counter()
    rng = random.Random(99)

    max_ap_err = 0.0
    for _ in range(100):
        n = rng.randint(1, 12)
        ranked = [("s", f"t{i}") for i in range(n)]
        rng.shuffle(ranked)
        oracle = set(rng.sample(ranked, rng.randint(1, n)))
        candidates = {"s": [(t, float(n - k)) for k, (_, t) in enumerate(ranked)]}
        ap = evaluate_ranking(long_form(candidates), oracle).ap
        err = abs(ap - oracle_average_precision(ranked, oracle))
        max_ap_err = max(max_ap_err, err)
    assert max_ap_err <= 1e-12

    max_map_err = 0.0
    for _ in range(100):
        per_query = {}
        oracle = set()
        for q in range(rng.randint(1, 5)):
            targets = [(f"q{q}", f"t{i}") for i in range(rng.randint(1, 6))]
            rng.shuffle(targets)
            per_query[f"q{q}"] = targets
            oracle |= set(rng.sample(targets, rng.randint(0, len(targets))))
        if not any(link in oracle for links in per_query.values() for link in links):
            continue
        candidates = {q: [(t, 1.0) for _, t in links] for q, links in per_query.items()}
        value = evaluate_ranking(long_form(candidates), oracle).map
        expected = []
        for q, links in per_query.items():
            relevant = {l for l in oracle if l[0] == q}
            if relevant:
                expected.append(oracle_average_precision(links, relevant))
        max_map_err = max(max_map_err, abs(value - sum(expected) / len(expected)))
    assert max_map_err <= 1e-12

    for _ in range(100):
        a = [rng.uniform(0, 2) for _ in range(rng.randint(1, 10))]
        b = [rng.uniform(0, 2) for _ in range(rng.randint(1, 10))]
        assert cliffs_delta(a, b) == pytest.approx(oracle_cliffs_delta(a, b), abs=0)

    max_w_err = 0.0
    for _ in range(100):
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        a = [round(rng.uniform(0, 4), 1) for _ in range(n1)]
        b = [round(rng.uniform(0, 4), 1) for _ in range(n2)]
        err = abs(wilcoxon_rank_sum(a, b) - oracle_rank_sum_p(a, b))
        max_w_err = max(max_w_err, err)
    assert max_w_err <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        "metric oracles "
        f"(ap {max_ap_err:.1e}, map {max_map_err:.1e}, wilcoxon {max_w_err:.1e}, {elapsed:.2f}s)"
    )


def test_determinism_ablate_byte_identical(tmp_path, motivating_manifest):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = cli_main([
            "ablate", "--manifest", str(motivating_manifest), "--out", str(out),
        ])
        assert code == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and len(files1) == 13  # 6 reports + 6 curves + summary
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report("determinism: repeated cmd_ablate outputs byte-identical")


def test_ebt_reference_stretch_documented():
    """Non-gating: the EBT reference script exists and self-describes.

    Running against the real corpus requires the externally published
    preprocessed data dropped into data/ebt (see README); here we only
    check the documented entry point is wired.
    """
    from pathlib import Path

    script = Path(__file__).parent.parent / "scripts" / "run_ebt_reference.py"
    assert script.exists()
    text = script.read_text()
    assert "23.04" in text and "38.10" in text
    _report("EBT stretch script present (non-gating, prints reference AP/MAP)")
