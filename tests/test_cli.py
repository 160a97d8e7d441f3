"""CLI behaviour: outputs, exit codes, determinism."""

import csv
import json
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tracelink.cli as cli
import tracelink.irmodels as irmodels
from tracelink.cli import _json_text, _pr_curve_csv, main
from tracelink.errors import ValidationError
from tracelink.evaluate import EvalReport
from tracelink.irmodels import MODELS, RankedLinks, format_ranked_csv
from tracelink.pipeline import ABLATION_MODES

from test_irmodels import NulRefusingWriter, refused_by_writer


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


# Ids that `format_ranked_csv` must quote, and any others a UTF-8 file can hold.
_ranked_ids = st.text(st.sampled_from(',"\r\n x') | st.characters(codec="utf-8"),
                      min_size=1, max_size=5)


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
        assert "error: line 4:" in err and "('RE-691', 'AFInfoBox')" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, exit_code", [
        ("RE-691,AFInfoBox,0.9\nRE-695,AFInfoBox,0.5\nRE-691,AFInfoBox,0.8\n", 2),
        ("RE-999,AFInfoBox,0.9\n", 1),  # no query has a relevant target
    ], ids=["repeated pair", "unevaluable"])
    def test_bad_compare_writes_nothing(
        self, tmp_path, motivating_manifest, capsys, rows, exit_code
    ):
        good = tmp_path / "good.csv"
        good.write_text("source_id,target_id,score\nRE-691,AFInfoBox,0.9\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("source_id,target_id,score\n" + rows)
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(good),
            "--compare", str(bad), "--out", str(tmp_path / "out"),
        )
        assert code == exit_code
        assert capsys.readouterr().err.startswith("error:")
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

    def test_ranked_does_not_load_the_dataset(self, tmp_path, motivating_manifest, monkeypatch):
        monkeypatch.setattr("tracelink.cli.load_dataset", lambda *_: pytest.fail("loaded"))
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("source_id,target_id,score\nRE-691,AFInfoBox,0.9\n")
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest), "--ranked", str(ranked),
            "--compare", str(ranked), "--out", str(tmp_path / "out"),
        )
        assert code == 0

    @pytest.mark.parametrize("damage", ["deleted", "not_utf8"])
    def test_ranked_output_needs_no_artifact_file(
        self, tmp_path, motivating_manifest, capsys, damage
    ):
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        good = tmp_path / "good.csv"
        good.write_text("source_id,target_id,score\nRE-691,AFInfoBox,0.9\nRE-695,AFInfoBox,0.4\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("source_id,target_id,score\nRE-695,AFInfoBox,0.9\nRE-691,AFInfoBox,0.4\n")

        def outputs(out):
            code = run_cli("eval", "--manifest", str(manifest), "--ranked", str(good),
                           "--compare", str(bad), "--out", str(out))
            assert code == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        intact = outputs(tmp_path / "intact")
        artifact = manifest.parent / "AFInfoBox.java"
        if damage == "deleted":
            artifact.unlink()
        else:
            artifact.write_bytes(NOT_UTF8)
        assert outputs(tmp_path / "damaged") == intact
        capsys.readouterr()
        # Every other command still reads each artifact file.
        for command in ("eval", "trace"):
            assert run_cli(command, "--manifest", str(manifest), "--out", str(tmp_path / "o")) == 2
            assert capsys.readouterr().err.startswith("error: cannot read artifact file")

    def test_in_process_run(self, tmp_path, motivating_manifest):
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--manifest", str(motivating_manifest),
            "--mode", "b+o+i", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert 0.0 <= report["ap"] <= 100.0

    def test_ranked_keeps_a_carriage_return_in_an_id(self, tmp_path, motivating_manifest):
        # `trace` quotes an id holding "\r"; read back as "\n", its true links went missing.
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        manifest.write_text(manifest.read_text().replace('"RE-691"', '"RE-691\\rx"'))
        ranked = tmp_path / "trace" / "ranked_links.csv"
        assert run_cli("trace", "--manifest", str(manifest), "--out", str(ranked.parent)) == 0
        assert b'"RE-691\rx"' in ranked.read_bytes()
        for out, extra in (("run", ()), ("read", ("--ranked", str(ranked)))):
            assert run_cli("eval", "--manifest", str(manifest), "--out",
                           str(tmp_path / out), *extra) == 0
        for name in ("eval_report.json", "pr_curve.csv"):
            read, run = (tmp_path / out / name for out in ("read", "run"))
            assert read.read_bytes() == run.read_bytes()

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "plain"])
    def test_other_line_ends_parse_to_the_same_links(self, tmp_path, monkeypatch, line_end,
                                                     quoted):
        text = ("source_id,target_id,score\nRE-691,AFInfoBox,0.9\n"
                '"RE-695",AFInfoBox,0.4\nRE-691,"AF,Box",0.1\n')
        if not quoted:
            text = text.replace('"', "").replace("AF,Box", "AF;Box")
        ranked = tmp_path / "ranked.csv"
        ranked.write_bytes(text.replace("\n", line_end).encode())
        read_rows = mock.Mock(wraps=irmodels._read_rows)
        monkeypatch.setattr(irmodels, "_read_rows", read_rows)
        links = cli._read_ranked(str(ranked))
        assert read_rows.called == quoted  # text without quotes keeps the split path
        box = "AF,Box" if quoted else "AF;Box"
        assert dict(links) == {"RE-691": [("AFInfoBox", 0.9), (box, 0.1)],
                               "RE-695": [("AFInfoBox", 0.4)]}

    @given(st.lists(st.tuples(_ranked_ids, _ranked_ids, st.floats(0.0, 1.0)), max_size=6,
                    unique_by=lambda link: link[:2]))
    def test_written_ranking_reads_back_through_a_file(self, tmp_path_factory, links):
        sources = list(dict.fromkeys(source for source, _, _ in links))
        targets = list(dict.fromkeys(target for _, target, _ in links))
        ranking = RankedLinks(
            sources, np.array([sources.index(link[0]) for link in links], np.int64),
            targets, np.array([targets.index(link[1]) for link in links], np.int64),
            np.array([score for _, _, score in links], np.float64))
        if refused_by_writer(ranking):
            with pytest.raises(ValidationError):
                format_ranked_csv(ranking)
            return
        path = tmp_path_factory.mktemp("ranked") / "ranked.csv"
        cli._write(path, [format_ranked_csv(ranking)])
        expected = {source: [(target, float("%.6f" % score))
                             for s, target, score in links if s == source] for source in sources}
        assert dict(cli._read_ranked(str(path))) == expected


_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["pr_curve", "ap", "x"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


# Values of a precision-recall curve's family: exact ties at six places, such as
# 100 / 512, come from the powers of two. Decimal halves such as 0.0978025 are
# floats next to a tie, where `np.rint(v * 1e6)` may round the wrong way. Each
# value comes with its two float neighbours.
_curve_values = (
    st.builds(lambda a, k: 100.0 * a / 2 ** k, st.integers(0, 2 ** 12), st.integers(0, 16))
    | st.builds(lambda a, b: 100.0 * a / b, st.integers(0, 10 ** 4), st.integers(1, 10 ** 4))
    | st.builds(lambda a, b: float("%d.%06d5" % (a, b)), st.integers(0, 999),
                st.integers(0, 10 ** 6 - 1))
).flatmap(lambda v: st.sampled_from([v, *(float(np.nextafter(v, to)) for to in (0.0, 2e3))]))


def columns(points):
    """(recall, precision) points as the report's (recall list, precision list)."""
    return [r for r, _ in points], [p for _, p in points]


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
    # The edges of the "%.6f" text: inside them, then one value past an edge each.
    @example({}, [(1e-4, -0.0), (100.0, 0.0), (999999999.9999999, 33.3333335)])
    @example({}, [(9.99995e-05, 50.0)])
    @example({}, [(5e-05, 50.0)])
    @example({}, [(50.0, 1e16)])
    @example({}, [(50.0, 123456789012.34567)])
    def test_spliced_curve_matches_json_dumps(self, payload, points):
        full = {**payload, "pr_curve": [[round(r, 6), round(p, 6)] for r, p in points]}
        expected = json.dumps(full, sort_keys=True, indent=2) + "\n"
        assert "".join(_json_text(payload, columns(points))) == expected
        for block in (1, 2):  # a block per point, or a point left over in the last block
            with mock.patch.object(cli, "_POINT_BLOCK", block):
                assert "".join(_json_text(payload, columns(points))) == expected
        assert "".join(_json_text(payload)) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 50.0, 1e-07]) | _finite, _finite),
                    max_size=6), st.integers(1, 3))
    def test_curve_csv_formats_every_point(self, points, block):
        expected = "recall,precision\n" + "".join(f"{r:.6f},{p:.6f}\n" for r, p in points)
        assert "".join(_pr_curve_csv(columns(points))) == expected
        with mock.patch.object(cli, "_POINT_BLOCK", block):
            assert "".join(_pr_curve_csv(columns(points))) == expected

    @given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=4),
           st.integers(0, 40), st.integers(1, 8))
    # One value that "%.6f" misprints, in one block of eleven: json writes 5e-05
    # and 1e+16, where "%.6f" gives 0.000050 and 10000000000000000.000000.
    @example([(5e-05, 50.0)], 12, 4)
    @example([(50.0, 1e16)], 7, 4)
    def test_report_files_match_json_dumps_across_point_blocks(self, tmp_path_factory, odd,
                                                               at, block):
        # A long in-range curve with a few arbitrary points spliced in at one place.
        points = [(100.0 * k / 41, 100.0 / (k + 1)) for k in range(41)]
        points[at:at] = odd
        report = EvalReport(pr_curve=tuple(np.array(values) for values in columns(points)),
                            f_at_recall=[0.5] * 100, ap=12.5, map=25.0, per_query_ap={"s": 25.0})
        full = {**report.to_payload(),
                "pr_curve": [[round(r, 6), round(p, 6)] for r, p in points]}
        out = tmp_path_factory.mktemp("report")
        with mock.patch.object(cli, "_POINT_BLOCK", block):
            cli._write_report(report, out / "report.json", out / "curve.csv")
        assert (out / "report.json").read_text("utf-8") == json.dumps(
            full, sort_keys=True, indent=2) + "\n"
        assert (out / "curve.csv").read_text("utf-8") == "recall,precision\n" + "".join(
            "%.6f,%.6f\n" % point for point in points)

    @given(st.lists(st.tuples(_curve_values, _curve_values), min_size=1, max_size=9))
    @example([(0.0, 5e-05), (7.5, 99.25), (100.0, 0.1953125)])  # 1-, 2- and 3-digit parts
    @example([(999.9999995, 14.2578125), (1000.0, 0.0)])
    @example([(-0.0, 50.0), (50.0, 5e-05)])
    @example([(float(np.nextafter(0.1953125, 1.0)), float(np.nextafter(14.2578125, 0.0)))])
    @example([(0.0978025, 61.4997485), (0.0843535, 55.6405615)])  # rint rounds these wrong
    def test_digit_path_writes_the_float_formats(self, points):
        payload = {"ap": 1.0}
        full = {**payload, "pr_curve": [[round(r, 6), round(p, 6)] for r, p in points]}
        report = json.dumps(full, sort_keys=True, indent=2) + "\n"
        curve = "recall,precision\n" + "".join("%.6f,%.6f\n" % point for point in points)
        for block in (1, 2, cli._POINT_BLOCK):
            with mock.patch.object(cli, "_POINT_BLOCK", block):
                assert "".join(_json_text(payload, columns(points))) == report
                assert "".join(_pr_curve_csv(columns(points))) == curve

    @given(st.lists(_curve_values, min_size=1, max_size=16))
    @example([999.9999995, 0.1953125, 5e-05, 10.0, 0.0978025, 0.0843535])
    @example([1000.0])
    def test_digits_are_the_six_place_texts(self, values):
        texts = ["%.6f" % v for v in values]
        digits = cli._digits(np.array(values))
        if max(map(len, texts)) > cli._DIGIT_COLUMNS:  # a text of 1000 or more
            assert digits is None
            return
        codes, lengths = digits
        assert [row[cli._DIGIT_COLUMNS - n:].tobytes().decode("ascii")
                for row, n in zip(codes, lengths.tolist())] == texts

    def test_a_curve_takes_the_digit_path(self):
        ranks = np.arange(1, 3001)
        hits = np.cumsum(ranks % 7 == 0)
        curve = (100.0 * hits / hits[-1], 100.0 * hits / ranks)
        assert curve[1][511] == 14.2578125  # an exact tie at six places
        real, blocks = cli._digits, []

        def digits(values):
            blocks.append(real(values))
            return blocks[-1]

        with mock.patch.object(cli, "_digits", digits):
            report = "".join(_json_text({}, curve))
            text = "".join(_pr_curve_csv(curve))
        assert len(blocks) == 2 and all(block is not None for block in blocks)
        points = list(zip(*(values.tolist() for values in curve)))
        assert json.loads(report) == {"pr_curve": [[round(r, 6), round(p, 6)] for r, p in points]}
        assert report == json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
        assert text == "recall,precision\n" + "".join("%.6f,%.6f\n" % point for point in points)


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


# The levels each manifest empties: each leaves the tables a block with no
# rows, no columns or neither.
EMPTY_LEVELS = {
    "no-sources": ("sources",),
    "no-targets": ("targets",),
    "sources-only": ("intermediates", "targets"),
    "every-level-empty": ("sources", "intermediates", "targets"),
}


class TestEmptyLevels:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("empty", EMPTY_LEVELS)
    def test_trace_exits_0_with_deterministic_outputs(
        self, tmp_path, motivating_manifest, empty, model
    ):
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        data = json.loads(manifest.read_text())
        for level in EMPTY_LEVELS[empty]:
            data[level] = []
        kept = {a["id"] for level in ("sources", "intermediates", "targets") for a in data[level]}
        for key in ("oracle_st", "oracle_si", "oracle_it"):
            data[key] = [pair for pair in data[key] if set(pair) <= kept]
        manifest.write_text(json.dumps(data))
        outputs = []
        for out in (tmp_path / "one", tmp_path / "two"):
            assert run_cli(
                "trace", "--manifest", str(manifest), "--model", model,
                "--dump-corpus", "--out", str(out),
            ) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(outputs[0]) == ["enriched_corpus.json", "path_traces.json", "ranked_links.csv"]
        assert outputs[0] == outputs[1]


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


_MALFORMED_MANIFESTS = {
    "entry_not_an_object": lambda spec: spec["targets"].append("AFInfoBox"),
    "missing_path": lambda spec: spec["intermediates"][1].pop("path"),
    "unknown_kind": lambda spec: spec["targets"][0].update(kind="binary"),
    "duplicate_id": lambda spec: spec["targets"].append(dict(spec["sources"][0])),
    "oracle_unknown_id": lambda spec: spec["oracle_it"].append(["DD-647", "Missing"]),
    "surrogate_id": lambda spec: spec["sources"][1].update(id="RE-\ud800"),
}


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

    def test_id_the_csv_writer_refuses_exits_2(self, tmp_path, motivating_manifest, capsys):
        """As on Python 3.10, whose csv.writer refuses NUL: one error line, no ranking."""
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        manifest.write_text(manifest.read_text().replace('"RE-691"', '"RE-\\u0000691"'))
        out = tmp_path / "out"
        with mock.patch.object(irmodels.csv, "writer", NulRefusingWriter):
            assert run_cli("trace", "--manifest", str(manifest), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: cannot write id 'RE-\\x00691' as CSV: need to escape, but no escapechar set\n")
        assert not (out / "ranked_links.csv").exists()

    @pytest.mark.parametrize("command", ["trace", "ablate"])
    @pytest.mark.parametrize("bad", ["missing", "file", "nul"])
    def test_pairs_dir_not_a_directory_exits_2(
        self, tmp_path, motivating_manifest, capsys, monkeypatch, command, bad
    ):
        monkeypatch.setattr("tracelink.cli.load_dataset", lambda *_: pytest.fail("loaded"))
        out = tmp_path / "out"
        command = [command, "--manifest", str(motivating_manifest), "--out", str(out)]
        if bad == "nul":  # no command line can hold a NUL, a config file can
            (tmp_path / "config.json").write_text(json.dumps({"pairs_dir": "a\u0000b"}))
            command += ["--config", str(tmp_path / "config.json")]
        else:
            pairs = tmp_path / "gone" if bad == "missing" else motivating_manifest
            command += ["--pairs-dir", str(pairs)]
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pairs_dir is not a directory: ") and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["trace", "eval", "ablate"])
    def test_null_out_in_config_exits_2(
        self, tmp_path, motivating_manifest, capsys, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": None}))
        code = run_cli(command, "--manifest", str(motivating_manifest), "--config", str(config))
        assert code == 2
        assert capsys.readouterr().err == "error: out must be a path string, got None\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["trace", "eval", "ablate"])
    @pytest.mark.parametrize("bad", ["id_surrogate", "out_nul", "out_surrogate"])
    def test_text_no_file_can_hold_exits_2(self, tmp_path, capsys, monkeypatch, command, bad):
        # Valid JSON strings that no UTF-8 output file or OS path can take.
        monkeypatch.chdir(tmp_path)
        source = "s\ud800" if bad == "id_surrogate" else "s"
        out = {"out_nul": "a\u0000b", "out_surrogate": "o\ud800"}.get(bad, "out")
        if bad != "id_surrogate":
            monkeypatch.setattr("tracelink.cli.load_dataset", lambda *_: pytest.fail("loaded"))
        (tmp_path / "a.txt").write_text("The user selects the route.\n")
        (tmp_path / "b.txt").write_text("The route is selected by the user.\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "sources": [{"id": source, "path": "a.txt", "kind": "nl"}],
            "targets": [{"id": "t", "path": "b.txt", "kind": "nl"}],
            "oracle_st": [[source, "t"]],
        }))
        (tmp_path / "config.json").write_text(json.dumps({"out": out}))
        code = run_cli(
            command, "--manifest", str(tmp_path / "manifest.json"),
            "--config", str(tmp_path / "config.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("malform", sorted(_MALFORMED_MANIFESTS))
    def test_malformed_manifest_same_error_under_every_command(
        self, tmp_path, motivating_manifest, capsys, malform
    ):
        # `eval --ranked` reads only the manifest; it rejects what the full load rejects.
        manifest = _copy_motivating(motivating_manifest, tmp_path)
        spec = json.loads(manifest.read_text())
        _MALFORMED_MANIFESTS[malform](spec)
        manifest.write_text(json.dumps(spec))
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("source_id,target_id,score\nRE-691,AFInfoBox,0.9\n")
        errors = []
        for command in (["eval", "--ranked", str(ranked)], ["trace"], ["eval"]):
            out = tmp_path / "out"
            assert run_cli(*command, "--manifest", str(manifest), "--out", str(out)) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
        assert errors == [errors[0]] * 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", ["manifest", "config file"])
    def test_deeply_nested_json_exits_2(self, tmp_path, motivating_manifest, capsys, target):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "out"
        if target == "manifest":
            command = ["trace", "--manifest", str(deep)]
        else:
            command = ["eval", "--manifest", str(motivating_manifest), "--config", str(deep)]
        assert run_cli(*command, "--out", str(out)) == 2
        # The one line of the typed error, so no traceback.
        assert capsys.readouterr().err == f"error: {target} {deep} is nested too deeply to read\n"
        assert not out.exists()

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
