"""CLI behaviour: outputs, exit codes, determinism."""

import csv
import json
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tracelink.cli import _json_text, _pr_curve_csv, main
from tracelink.evaluate import EvalReport
from tracelink.irmodels import MODELS
from tracelink.pipeline import ABLATION_MODES


def run_cli(*argv) -> int:
    return main(list(argv))


class TestTrace:
    def test_writes_ranked_links_and_paths(self, tmp_path, motivating_manifest, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest),
            "--model", "vsm", "--mode", "b+o+i", "--out", str(out),
        )
        assert code == 0
        csv_text = (out / "ranked_links.csv").read_text()
        assert csv_text.startswith("source_id,target_id,score\n")
        traces = json.loads((out / "path_traces.json").read_text())
        re691 = next(entry for entry in traces if entry["source"] == "RE-691")
        nodes = [tuple(p["nodes"]) for p in re691["paths"]]
        assert ("RE-691", "DD-694", "DD-647", "AFInfoBox") in nodes
        assert ("RE-691", "DD-694", "AFEmergencyComponent") in nodes

    def test_ir_only_has_empty_paths(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest),
            "--mode", "ir-only", "--out", str(out),
        )
        assert code == 0
        traces = json.loads((out / "path_traces.json").read_text())
        assert traces == []

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli("trace", "--manifest", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_dump_corpus_lists_enrichment(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest),
            "--mode", "b+o+i", "--dump-corpus", "--out", str(out),
        )
        assert code == 0
        dump = json.loads((out / "enriched_corpus.json").read_text())
        by_id = {entry["artifact_id"]: entry for entry in dump}
        assert "select_uav" in by_id["RE-691"]["added_biterm_terms"]
        assert by_id["AFInfoBox"]["added_biterm_terms"]["select_uav"] == 1

    def test_config_file_overridden_by_flags(self, tmp_path, motivating_manifest):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "js", "mode": "ir-only"}))
        out = tmp_path / "out"
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest),
            "--config", str(config), "--mode", "b+o+i", "--out", str(out),
        )
        assert code == 0
        # mode flag wins over config file: paths exist
        traces = json.loads((out / "path_traces.json").read_text())
        assert traces

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_lsi_rank_below_one_exits_2(self, tmp_path, motivating_manifest, capsys, rank):
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest), "--model", "lsi",
            "--lsi-rank", rank, "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: LSI rank must be an integer >= 1")
        assert not (tmp_path / "out").exists()

    def test_non_integer_lsi_rank_in_config_exits_2(self, tmp_path, motivating_manifest, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "lsi", "lsi_rank": "2"}))
        code = run_cli("trace", "--manifest", str(motivating_manifest), "--config", str(config))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: LSI rank")

    @pytest.mark.parametrize("values, message", [
        ({"m": "x"}, "threshold m"), ({"m": True}, "threshold m"), ({"m": 1.5}, "threshold m"),
        ({"t": 1.5}, "cap t"), ({"t": True}, "cap t"), ({"t": "3"}, "cap t"),
    ], ids=["m_text", "m_bool", "m_above_one", "t_float", "t_bool", "t_text"])
    def test_mistyped_threshold_in_config_exits_2(
        self, tmp_path, motivating_manifest, capsys, values, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest), "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["out", "pairs_dir"])
    def test_non_string_path_in_config_exits_2(
        self, tmp_path, motivating_manifest, capsys, monkeypatch, key
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 5}))
        code = run_cli("trace", "--manifest", str(motivating_manifest), "--config", str(config))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be a path string")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_file_not_an_object_exits_2(self, tmp_path, motivating_manifest, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([["m", 0.5]]))
        code = run_cli("trace", "--manifest", str(motivating_manifest), "--config", str(config))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config file")

    def test_bad_config_key_exits_2(self, tmp_path, motivating_manifest, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modell": "js"}))
        code = run_cli(
            "trace", "--manifest", str(motivating_manifest), "--config", str(config),
        )
        assert code == 2


class TestEval:
    def test_perfect_ranking_fixture(self, tmp_path, motivating_manifest):
        ranked = tmp_path / "ranked.csv"
        ranked.write_text(
            "source_id,target_id,score\n"
            "RE-691,AFInfoBox,0.900000\n"
            "RE-691,AFEmergencyComponent,0.800000\n"
            "RE-695,AFInfoBox,0.100000\n"
            "RE-695,AFEmergencyComponent,0.050000\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest),
            "--ranked", str(ranked), "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["ap"] == 100.0
        assert report["map"] == 100.0
        assert (out / "pr_curve.csv").read_text().startswith("recall,precision\n")

    def test_compare_adds_statistics(self, tmp_path, motivating_manifest):
        good = tmp_path / "good.csv"
        good.write_text(
            "source_id,target_id,score\n"
            "RE-691,AFInfoBox,0.900000\n"
            "RE-691,AFEmergencyComponent,0.800000\n"
        )
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "source_id,target_id,score\n"
            "RE-691,AFInfoBox,0.100000\n"
            "RE-691,AFEmergencyComponent,0.900000\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest),
            "--ranked", str(good), "--compare", str(bad), "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert 0.0 <= payload["comparison"]["p_value"] <= 1.0
        assert payload["comparison"]["category"] in (
            "negligible", "small", "medium", "large",
        )

    def test_malformed_csv_exits_2(self, tmp_path, motivating_manifest, capsys):
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("source_id,target_id,score\nRE-691,AFInfoBox\n")
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(ranked),
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_repeated_pair_exits_2(self, tmp_path, motivating_manifest, capsys):
        # Scored twice, one true link would count twice and push AP past 100.
        # The repeat need not follow its first row, and another source may share the target.
        ranked = tmp_path / "ranked.csv"
        ranked.write_text(
            "source_id,target_id,score\nRE-691,AFInfoBox,0.9\n"
            "RE-695,AFInfoBox,0.5\nRE-691,AFInfoBox,0.8\n"
        )
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(ranked),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "('RE-691', 'AFInfoBox')" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_score_exits_2(self, tmp_path, motivating_manifest, capsys, score):
        ranked = tmp_path / "ranked.csv"
        ranked.write_text(
            "source_id,target_id,score\nRE-691,AFInfoBox,0.9\n"
            f"RE-691,AFEmergencyComponent,{score}\n"
        )
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(ranked),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 3" in err

    def test_over_long_field_exits_2(self, tmp_path, motivating_manifest, capsys):
        long_id = "x" * (csv.field_size_limit() + 1)
        ranked = tmp_path / "ranked.csv"
        ranked.write_text(f"source_id,target_id,score\nRE-691,{long_id},0.5\n")
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(ranked),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    def test_in_process_run(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest),
            "--mode", "b+o+i", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert 0.0 <= report["ap"] <= 100.0


_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["pr_curve", "ap", "x"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


class TestReportWriter:
    @given(
        st.dictionaries(st.sampled_from(["ap", "map", "f_at_recall", "z"]) | st.text(max_size=3),
                        _json_values, max_size=4),
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 5e-05, 9.9999995e-05, 1e-06, 4e-07]) | _finite,
                           _finite | st.sampled_from([1e-05, 100.0, 33.3333335])), max_size=6),
    )
    @example({}, [])
    @example({"ap": 1.5}, [(0.0, 0.0)])
    @example({"per_query_ap": {"pr_curve": 1}}, [(5e-05, 1e-06), (9.99e-05, 100.0), (2e-05, 0.0)])
    def test_spliced_curve_matches_json_dumps(self, payload, curve):
        full = {**payload, "pr_curve": [[round(r, 6), round(p, 6)] for r, p in curve]}
        assert _json_text(payload, curve) == json.dumps(full, sort_keys=True, indent=2) + "\n"
        assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 50.0, 1e-07]) | _finite, _finite),
                    max_size=6))
    def test_curve_csv_formats_every_point(self, curve):
        report = EvalReport(pr_curve=curve, f_at_recall=[], ap=0.0, map=0.0, per_query_ap={})
        expected = "".join(f"{r:.6f},{p:.6f}\n" for r, p in curve)
        assert _pr_curve_csv(report) == "recall,precision\n" + expected


class TestAblate:
    def test_all_six_modes(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest), "--out", str(out),
        )
        assert code == 0
        reports = sorted(p.name for p in out.glob("report_*.json"))
        assert len(reports) == 6
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == "mode,ap,map"
        assert len(summary) == 7

    def test_subset_of_modes(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--modes", "o,o+i", "--out", str(out),
        )
        assert code == 0
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_repeated_mode_summarized_once(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--modes", "b,b,ir-only", "--out", str(out),
        )
        assert code == 0
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary] == ["mode", "b", "ir-only"]
        assert sorted(p.name for p in out.glob("report_*.json")) == [
            "report_b.json", "report_ir-only.json",
        ]

    def test_unknown_mode_exits_2(self, tmp_path, motivating_manifest):
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--modes", "b+i", "--out", str(tmp_path / "out"),
        )
        assert code == 2

    def test_thresholds_reach_the_pipeline(self, tmp_path, motivating_manifest):
        # An unreachable threshold suppresses every transitive path, so the
        # b+o+i report collapses onto the b report.
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--modes", "b,b+o+i", "--m", "1.0", "--t", "1", "--out", str(out),
        )
        assert code == 0
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        b_row = next(r for r in summary if r.startswith("b,"))
        full_row = next(r for r in summary if r.startswith("b+o+i,"))
        assert b_row.split(",")[1:] == full_row.split(",")[1:]

    @pytest.mark.parametrize("modes", [["b", "o"], 5, None])
    def test_non_string_modes_in_config_exits_2(
        self, tmp_path, motivating_manifest, capsys, modes
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modes": modes}))
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: modes must be a comma-separated string")
        assert not (tmp_path / "out").exists()

    def test_modes_flag_overrides_config_file(self, tmp_path, motivating_manifest):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modes": "ir-only,b,o"}))
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--manifest", str(motivating_manifest),
            "--config", str(config), "--modes", "o+i", "--out", str(out),
        )
        assert code == 0
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[1:] == [f"o+i,{summary[1].split(',', 1)[1]}"]
        assert len(summary) == 2

    def test_repeat_runs_byte_identical(self, tmp_path, motivating_manifest):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            assert run_cli(
                "ablate", "--manifest", str(motivating_manifest), "--out", str(out),
            ) == 0
        for path1 in sorted(out1.iterdir()):
            path2 = out2 / path1.name
            assert path1.read_bytes() == path2.read_bytes()


NOT_UTF8 = b"\xffselect the UAV\n"


def _copy_motivating(motivating_manifest, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(motivating_manifest.parent, data)
    return data / "manifest.json"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Artifact files a generated manifest can point at: text, code, empty and not UTF-8."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "nl.txt").write_text("The user selects the UAV route. The route is assigned.\n")
    (base / "code.java").write_text(
        "/** Assigns a route. */\nclass RouteBox { int speed; void assignRoute(Uav uav) {} }\n"
    )
    (base / "empty.txt").write_text("")
    (base / "bad.txt").write_bytes(NOT_UTF8)
    (base / "pairs").mkdir()
    (base / "pairs" / "s0.tsv").write_text("obj\tselect\tUAV\n")
    (base / "pairs" / "s1.tsv").write_text("not a pair line\n")
    return base


_PAIRS = "<pairs dir>"
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mostly(good, bad=_json):
    """Values of `good` nine times in ten, of `bad` otherwise.

    Mostly well-formed values let some runs get past validation and run the
    whole pipeline.
    """
    return st.integers(0, 9).flatmap(lambda roll: bad if roll == 9 else good)


def _level(ids):
    entry = st.fixed_dictionaries({
        "id": _mostly(st.sampled_from(ids)),
        "path": _mostly(
            st.sampled_from(["nl.txt", "code.java", "empty.txt"]),
            st.sampled_from(["bad.txt", "gone.txt"]) | _json,
        ),
        "kind": _mostly(st.sampled_from(["nl", "code"])),
    })
    return _mostly(st.lists(_mostly(entry), min_size=1, max_size=3, unique_by=_entry_id))


def _entry_id(entry):
    return repr(entry.get("id") if isinstance(entry, dict) else entry)


def _oracle(left, right):
    pair = st.tuples(st.sampled_from(left), st.sampled_from(right))
    return _mostly(st.lists(pair, min_size=1, max_size=4))


_S, _I, _T = ("s0", "s1", "s2"), ("i0", "i1", "i2"), ("t0", "t1", "t2")
_manifests = _mostly(st.fixed_dictionaries(
    {"sources": _level(_S), "targets": _level(_T), "oracle_st": _oracle(_S, _T)},
    optional={
        "intermediates": _level(_I),
        "oracle_si": _oracle(_S, _I),
        "oracle_it": _oracle(_I, _T),
        "unknown": _json,
    },
))
_configs = st.fixed_dictionaries(
    {},
    optional={
        "model": _mostly(st.sampled_from(MODELS)),
        "mode": _mostly(st.sampled_from(ABLATION_MODES)),
        "modes": _mostly(st.sampled_from(["b,o", "ir-only", "b+i", ""])),
        "m": _mostly(st.floats(0, 1)),
        "t": _mostly(st.integers(0, 4)),
        "lsi_rank": _mostly(st.integers(0, 4)),
        "pairs_dir": _mostly(st.sampled_from([_PAIRS, "no-such-dir"])),
    },
)


class TestExitCodes:
    @pytest.mark.parametrize(
        "target", ["manifest", "artifact", "config", "ranked", "compare", "pairs"]
    )
    def test_non_utf8_input_exits_2(self, tmp_path, motivating_manifest, capsys, target):
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(NOT_UTF8)
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("source_id,target_id,score\nRE-691,AFInfoBox,0.5\n")
        command = ["trace", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        if target == "manifest":
            command[2] = str(bad)
        elif target == "artifact":
            (manifest.parent / "DD-647.txt").write_bytes(NOT_UTF8)
        elif target == "config":
            command += ["--config", str(bad)]
        elif target == "pairs":
            pairs = tmp_path / "pairs"
            pairs.mkdir()
            (pairs / "DD-647.tsv").write_bytes(NOT_UTF8)
            command += ["--pairs-dir", str(pairs)]
        else:
            command[0] = "eval"
            command += ["--ranked", str(bad if target == "ranked" else ranked)]
            if target == "compare":
                command += ["--compare", str(bad)]
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_id_too_long_for_a_pairs_file_exits_2(self, tmp_path, capsys):
        long_id = "s" * 300
        (tmp_path / "a.txt").write_text("The user selects the route.\n")
        (tmp_path / "b.txt").write_text("The route is selected by the user.\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "sources": [{"id": long_id, "path": "a.txt", "kind": "nl"}],
            "targets": [{"id": "t", "path": "b.txt", "kind": "nl"}],
            "oracle_st": [[long_id, "t"]],
        }))
        (tmp_path / "pairs").mkdir()
        code = run_cli(
            "trace", "--manifest", str(tmp_path / "manifest.json"),
            "--pairs-dir", str(tmp_path / "pairs"), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot look for dependency-pair file")

    @pytest.mark.parametrize("command", ["trace", "eval", "ablate"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_a_file"])
    def test_out_naming_a_file_exits_2(
        self, tmp_path, motivating_manifest, capsys, monkeypatch, command, under
    ):
        def no_load(*_):
            pytest.fail("the dataset was loaded before --out was checked")

        monkeypatch.setattr("tracelink.cli.load_dataset", no_load)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "a" / "b" if under else taken
        assert run_cli(command, "--manifest", str(motivating_manifest), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output file {out}: {taken} is not a directory\n"
        )

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_manifest_and_config_gives_an_exit_code(self, fuzz_dir, data):
        (fuzz_dir / "manifest.json").write_text(json.dumps(data.draw(_manifests)))
        config = data.draw(_configs)
        if config.get("pairs_dir") == _PAIRS:
            config["pairs_dir"] = str(fuzz_dir / "pairs")
        (fuzz_dir / "config.json").write_text(json.dumps(config))
        common = [
            "--manifest", str(fuzz_dir / "manifest.json"),
            "--config", str(fuzz_dir / "config.json"), "--out", str(fuzz_dir / "out"),
        ]
        for command in ("trace", "eval", "ablate"):
            assert run_cli(command, *common) in (0, 1, 2)
