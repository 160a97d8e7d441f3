"""End-to-end pipeline behaviour across ablation modes and models."""

import copy
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tracelink.pipeline as pipeline
from tracelink.corpus.manifest import load_dataset
from tracelink.errors import ConfigError
from tracelink.evaluate import evaluate_ranking
from tracelink.irmodels import MODELS
from tracelink.pipeline import (
    ABLATION_MODES,
    PipelineConfig,
    build_documents,
    level_rows,
    parse_mode,
    path_stage,
    run_ablation,
    run_pipeline,
    table_stage,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def dataset(motivating_manifest):
    return load_dataset(motivating_manifest)


def spy_filtered_biterms(monkeypatch, dataset) -> dict:
    """Each artifact id's consensual biterms, filled by the runs' own `consensual_filter` calls."""
    filtered = {}
    original = pipeline.consensual_filter

    def spy(*levels):
        result = original(*levels)
        ids = [artifact.id for artifact in dataset.all_artifacts()]
        filtered.update(zip(ids, [biterms for level in result for biterms in level]))
        return result

    monkeypatch.setattr(pipeline, "consensual_filter", spy)
    return filtered


def listed(reports: dict) -> dict:
    """Each report with its curve arrays as lists, so that == compares every value."""
    return {mode: replace(report, pr_curve=tuple(values.tolist() for values in report.pr_curve))
            for mode, report in reports.items()}


class TestModes:
    def test_ir_only_has_no_enrichment_or_paths(self, dataset):
        result = run_pipeline(dataset, PipelineConfig(mode="ir-only"))
        assert result.paths == {}
        for doc in result.documents.values():
            assert not doc.added_biterm_terms

    def test_b_enriches_but_no_paths(self, dataset):
        result = run_pipeline(dataset, PipelineConfig(mode="b"))
        assert result.paths == {}
        assert any(doc.added_biterm_terms for doc in result.documents.values())

    def test_o_builds_outer_paths_only(self, dataset):
        result = run_pipeline(dataset, PipelineConfig(mode="o"))
        assert result.paths
        for paths in result.paths.values():
            for path in paths:
                assert len(path.links) == 2
                assert all(link.kind.value == "outer" for link in path.links)

    def test_o_i_allows_three_hop_paths(self, dataset):
        result = run_pipeline(dataset, PipelineConfig(mode="o+i"))
        lengths = {
            len(p.links) for paths in result.paths.values() for p in paths
        }
        assert 3 in lengths

    def test_b_o_i_is_default(self, dataset):
        config = PipelineConfig()
        assert config.mode == "b+o+i"
        result = run_pipeline(dataset, config)
        assert result.paths
        assert any(doc.added_biterm_terms for doc in result.documents.values())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode="b+i")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(model="bm25")


class TestModels:
    @pytest.mark.parametrize("model", ["vsm", "lsi", "js"])
    def test_all_models_produce_full_rankings(self, dataset, model):
        result = run_pipeline(dataset, PipelineConfig(model=model, mode="b+o+i"))
        for source in dataset.source_ids():
            ranked_targets = [t for t, _ in result.candidates[source]]
            assert sorted(ranked_targets) == sorted(dataset.target_ids())
            for _, score in result.candidates[source]:
                assert score >= 0.0

    def test_lsi_rank_override(self, dataset):
        result = run_pipeline(dataset, PipelineConfig(model="lsi", mode="ir-only", lsi_rank=2))
        assert result.candidates


class TestGoldenRanking:
    def test_bundled_fixture_positions(self, dataset):
        """Frozen rankings for RE-691 on the bundled dataset (VSM).

        Unenriched, neither target shares a stem with RE-691, so both score
        zero and the id tie-break puts AFEmergencyComponent first; with the
        full pipeline AFInfoBox overtakes it.
        """
        ir_only = run_pipeline(dataset, PipelineConfig(model="vsm", mode="ir-only"))
        full = run_pipeline(dataset, PipelineConfig(model="vsm", mode="b+o+i"))
        assert [t for t, _ in ir_only.candidates["RE-691"]] == [
            "AFEmergencyComponent", "AFInfoBox",
        ]
        assert [s for _, s in ir_only.candidates["RE-691"]] == [0.0, 0.0]
        assert [t for t, _ in full.candidates["RE-691"]] == [
            "AFInfoBox", "AFEmergencyComponent",
        ]


class TestDeterminism:
    @pytest.mark.parametrize("model", ["vsm", "lsi", "js"])
    def test_repeat_runs_identical(self, dataset, model):
        config = PipelineConfig(model=model, mode="b+o+i")
        first = run_pipeline(dataset, config)
        second = run_pipeline(dataset, config)
        assert first.candidates == second.candidates
        assert {s: [tuple(p.nodes) for p in ps] for s, ps in first.paths.items()} == \
               {s: [tuple(p.nodes) for p in ps] for s, ps in second.paths.items()}
        for doc_id, doc in first.documents.items():
            other = second.documents[doc_id]
            assert doc.terms == other.terms
            assert doc.added_biterm_terms == other.added_biterm_terms


class TestNoIntermediates:
    def test_mode_o_degrades_to_ir_only(self, tmp_path):
        (tmp_path / "s.txt").write_text("Assign the route for the flight.")
        (tmp_path / "t.java").write_text("class RouteAssigner { Route assignedRoute; }")
        (tmp_path / "u.java").write_text("class BatteryMonitor { int level; }")
        manifest = {
            "sources": [{"id": "s", "path": "s.txt", "kind": "nl"}],
            "intermediates": [],
            "targets": [
                {"id": "t", "path": "t.java", "kind": "code"},
                {"id": "u", "path": "u.java", "kind": "code"},
            ],
            "oracle_st": [["s", "t"]],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        dataset = load_dataset(tmp_path / "manifest.json")

        ir_only = run_pipeline(dataset, PipelineConfig(mode="ir-only"))
        outer = run_pipeline(dataset, PipelineConfig(mode="o"))
        assert outer.candidates == ir_only.candidates
        assert all(not paths for paths in outer.paths.values())

        reports = run_ablation(dataset, PipelineConfig(model="vsm"), ["ir-only", "o"])
        assert reports["o"].ap == reports["ir-only"].ap
        assert reports["o"].map == reports["ir-only"].map


class TestImportedPairs:
    def test_pairs_dir_replaces_heuristic(self, tmp_path, motivating_manifest, monkeypatch):
        pairs_dir = tmp_path / "pairs"
        pairs_dir.mkdir()
        # A parse that keeps only one biterm for DD-647.
        (pairs_dir / "DD-647.tsv").write_text("obj\tselect\tUAV\n")
        dataset = load_dataset(motivating_manifest)
        filtered = spy_filtered_biterms(monkeypatch, dataset)
        run_pipeline(dataset, PipelineConfig(mode="b", pairs_dir=pairs_dir))
        dd647 = filtered["DD-647"]
        assert set(dd647) <= {("select", "uav")}


class TestAblation:
    def test_reports_per_mode(self, dataset):
        reports = run_ablation(dataset, PipelineConfig(model="vsm"), ["ir-only", "b+o+i"])
        assert set(reports) == {"ir-only", "b+o+i"}
        assert reports["b+o+i"].ap >= reports["ir-only"].ap

    @pytest.mark.parametrize("model", ["vsm", "lsi", "js"])
    def test_shared_stages_match_separate_runs(self, dataset, monkeypatch, model):
        config = PipelineConfig(model=model)
        expected = {
            mode: evaluate_ranking(
                run_pipeline(dataset, replace(config, mode=mode)).candidates, dataset.oracle_st
            )
            for mode in ABLATION_MODES
        }
        calls = 0
        original = pipeline.build_similarity_table

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_similarity_table", counted)
        assert dataset.intermediates
        assert listed(run_ablation(dataset, config, list(ABLATION_MODES))) == listed(expected)
        # One table without "b"; a pre-enrichment and a final table with "b".
        assert calls == 3

    def test_stages_leave_their_inputs_unchanged(self, dataset):
        documents = build_documents(dataset)
        base = copy.deepcopy(documents)
        _, table = table_stage(dataset, PipelineConfig(), documents)
        assert documents == base
        scores = table.scores.tolist()
        for mode in ABLATION_MODES:
            candidates, _ = path_stage(dataset, PipelineConfig(mode=mode), table)
            assert candidates
        assert table.scores.tolist() == scores

    def test_empty_modes_rejected(self, dataset):
        with pytest.raises(ConfigError):
            run_ablation(dataset, PipelineConfig(model="vsm"), [])

    def test_invalid_mode_rejected(self, dataset):
        with pytest.raises(ConfigError):
            run_ablation(dataset, PipelineConfig(model="vsm"), ["b+i"])


def bundled_datasets(name):
    """The bundled dataset `name`, then the same manifest with no intermediates."""
    dataset = load_dataset(DATA_DIR / name / "manifest.json")
    return [dataset, replace(dataset, intermediates=[], oracle_si=set(), oracle_it=set())]


class TestRowsAreManifestPositions:
    """The premise of `level_rows`: every table's rows and columns follow the manifest."""

    @pytest.mark.parametrize("name", ["motivating", "modes"])
    @pytest.mark.parametrize("model", MODELS)
    def test_every_table_is_in_manifest_order(self, monkeypatch, name, model):
        tables = []
        original = pipeline.build_similarity_table

        def spy(*args, **kwargs):
            tables.append(original(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(pipeline, "build_similarity_table", spy)
        for dataset in bundled_datasets(name):
            manifest = [a.id for a in dataset.all_artifacts()]
            sources, intermediates = dataset.source_ids(), [a.id for a in dataset.intermediates]
            for mode in ABLATION_MODES:
                tables.clear()
                run_pipeline(dataset, PipelineConfig(model=model, mode=mode))
                # With "b" and intermediates, a pre-enrichment table comes first.
                pre = "b" in parse_mode(mode) and bool(dataset.intermediates)
                assert [(table.row_ids, table.col_ids) for table in tables] == [
                    (sources + dataset.target_ids(), intermediates)
                ] * pre + [(sources + intermediates, manifest)]

    @pytest.mark.parametrize("name", ["motivating", "modes"])
    def test_level_rows_split_the_manifest_by_level_sizes(self, name):
        for dataset in bundled_datasets(name):
            manifest = [a.id for a in dataset.all_artifacts()]
            levels = level_rows(dataset)
            assert np.concatenate(levels).tolist() == list(range(len(manifest)))
            assert [[manifest[row] for row in rows.tolist()] for rows in levels] == [
                dataset.source_ids(), [a.id for a in dataset.intermediates], dataset.target_ids()
            ]


class TestTablesHoldWhatThePipelineReads:
    """Each table is the block of cells its stage reads, and no stage reads a self cell."""

    @pytest.mark.parametrize("name", ["motivating", "modes"])
    @pytest.mark.parametrize("model", MODELS)
    def test_unheld_pairs_are_never_read(self, monkeypatch, name, model):
        original = pipeline.build_similarity_table
        tables = []

        def poisoned(*args, **kwargs):
            table = original(*args, **kwargs)
            tables.append(table)
            itself = np.array(table.row_ids, object)[:, None] == np.array(table.col_ids, object)
            table.scores[itself] = np.nan
            return table

        for dataset in bundled_datasets(name):
            s, i, t = len(dataset.sources), len(dataset.intermediates), len(dataset.targets)
            for mode in ABLATION_MODES:
                config = PipelineConfig(model=model, mode=mode)
                monkeypatch.setattr(pipeline, "build_similarity_table", original)
                expected = run_pipeline(dataset, config)
                monkeypatch.setattr(pipeline, "build_similarity_table", poisoned)
                tables.clear()
                result = run_pipeline(dataset, config)
                assert result.candidates == expected.candidates
                assert result.paths == expected.paths
                pre = "b" in parse_mode(mode) and bool(dataset.intermediates)
                # Before enrichment (S u T) x I; after it (S u I) x all.
                assert [table.scores.shape for table in tables] == [
                    (s + t, i)
                ] * pre + [(s + i, s + i + t)]
                final = tables[-1]
                assert final.row_ids == final.col_ids[:len(final.row_ids)]


@pytest.mark.parametrize("name", ["motivating", "modes"])
def test_base_and_compound_terms_never_share_a_key(name):
    """So `Document.weighted_terms` is the two maps side by side, as a `Counter.update` merge."""
    for dataset in bundled_datasets(name):
        for mode in ABLATION_MODES:
            for document in run_pipeline(dataset, PipelineConfig(mode=mode)).documents.values():
                assert not document.terms.keys() & document.added_biterm_terms.keys()
                merged = Counter(document.terms)
                merged.update(document.added_biterm_terms)
                assert list(document.weighted_terms().items()) == list(merged.items())
