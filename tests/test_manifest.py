"""Dataset manifest loading and validation."""

import json
import os
import subprocess
import sys

import pytest

import tracelink
from tracelink.cli import main as cli_main
from tracelink.corpus.codescan import CodeParts
from tracelink.corpus.manifest import load_dataset, read_manifest
from tracelink.corpus.types import Kind
from tracelink.errors import LoadError, ValidationError

SRC = os.path.dirname(os.path.dirname(tracelink.__file__))


def write_dataset(tmp_path, *, oracle_st=None, intermediates=True, duplicate=False):
    (tmp_path / "RE-1.txt").write_text("Users apply operations to the selected UAV.")
    (tmp_path / "RE-2.txt").write_text("Pilots halt the flight during an emergency.")
    (tmp_path / "DD-1.txt").write_text("The user can select a UAV and assign routes.")
    (tmp_path / "DD-2.txt").write_text("Emergency operations halt the fleet.")
    (tmp_path / "A.java").write_text("class AFInfoBox { Icon assignRouteIcon; }")
    (tmp_path / "B.java").write_text("class AFEmergencyComponent { Button haltButton; }")
    manifest = {
        "sources": [
            {"id": "RE-1", "path": "RE-1.txt", "kind": "nl"},
            {"id": "RE-2", "path": "RE-2.txt", "kind": "nl"},
        ],
        "intermediates": [
            {"id": "DD-1", "path": "DD-1.txt", "kind": "nl"},
            {"id": "DD-2", "path": "DD-2.txt", "kind": "nl"},
        ] if intermediates else [],
        "targets": [
            {"id": "A.java", "path": "A.java", "kind": "code"},
            {"id": "B.java", "path": "B.java", "kind": "code"},
        ],
        "oracle_st": oracle_st if oracle_st is not None else [["RE-1", "A.java"]],
    }
    if duplicate:
        manifest["sources"].append({"id": "RE-1", "path": "RE-1.txt", "kind": "nl"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_six_artifact_dataset(tmp_path):
    dataset = load_dataset(write_dataset(tmp_path))
    assert len(dataset.all_artifacts()) == 6
    assert dataset.source_ids() == ["RE-1", "RE-2"]
    assert [a.id for a in dataset.intermediates] == ["DD-1", "DD-2"]
    assert dataset.target_ids() == ["A.java", "B.java"]
    assert all(a.kind is Kind.CODE for a in dataset.targets)
    assert dataset.oracle_st == {("RE-1", "A.java")}


def test_nl_artifacts_hold_only_comments(tmp_path):
    dataset = load_dataset(write_dataset(tmp_path))
    for artifact in dataset.sources:
        assert artifact.parts == CodeParts(comments=artifact.parts.comments)
        assert artifact.parts.comments
    for artifact in dataset.targets:
        assert artifact.parts.class_names


def test_zero_intermediates_allowed(tmp_path):
    dataset = load_dataset(write_dataset(tmp_path, intermediates=False))
    assert dataset.intermediates == []


def test_oracle_with_unknown_id_rejected(tmp_path):
    path = write_dataset(tmp_path, oracle_st=[["RE-1", "Missing.java"]])
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_first_unknown_oracle_pair_named_under_any_hash_seed(tmp_path):
    # Six unknown pairs: the error names the first in list order, not in set order.
    path = write_dataset(tmp_path, oracle_st=[["RE-1", f"x{i}"] for i in range(6)])
    script = ("import sys; from tracelink.corpus.manifest import read_manifest\n"
              "try: read_manifest(sys.argv[1])\nexcept Exception as exc: print(exc)")
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": SRC}
        found = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                               capture_output=True, text=True, check=True).stdout
        assert found == "oracle_st references unknown pair ('RE-1', 'x0')\n"


def test_read_manifest_opens_no_artifact_file(tmp_path):
    path = write_dataset(tmp_path)
    for artifact in tmp_path.iterdir():
        if artifact != path:
            artifact.unlink()
    manifest = read_manifest(path)
    assert manifest.sources == [("RE-1", "RE-1.txt", Kind.NATURAL_LANGUAGE),
                                ("RE-2", "RE-2.txt", Kind.NATURAL_LANGUAGE)]
    assert [entry[2] for entry in manifest.targets] == [Kind.CODE, Kind.CODE]
    assert manifest.oracle_st == {("RE-1", "A.java")}
    assert manifest.oracle_si == manifest.oracle_it == set()


def test_manifest_errors_come_before_unreadable_files(tmp_path):
    path = write_dataset(tmp_path, duplicate=True)
    (tmp_path / "RE-1.txt").unlink()
    with pytest.raises(ValidationError, match="duplicate artifact id 'RE-1'"):
        load_dataset(path)


def test_duplicate_id_rejected(tmp_path):
    path = write_dataset(tmp_path, duplicate=True)
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_missing_manifest_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(LoadError) as excinfo:
        load_dataset(missing)
    assert "nope.json" in str(excinfo.value)


def test_missing_artifact_file_names_path(tmp_path):
    path = write_dataset(tmp_path)
    (tmp_path / "A.java").unlink()
    with pytest.raises(LoadError) as excinfo:
        load_dataset(path)
    assert "A.java" in str(excinfo.value)


def test_unknown_kind_rejected(tmp_path):
    path = write_dataset(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["sources"][0]["kind"] = "binary"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError):
        load_dataset(path)



def _integer_source_id(manifest):
    manifest["sources"][0]["id"] = 7
    del manifest["oracle_st"]
    return manifest


def _integer_oracle_id(manifest):
    # The source id "7" exists, so only the type of the oracle's 7 is wrong.
    manifest["sources"][0]["id"] = "7"
    manifest["oracle_st"] = [[7, "A.java"]]
    return manifest


@pytest.mark.parametrize("malform", [
    pytest.param(lambda manifest: [manifest], id="top_level_array"),
    pytest.param(lambda manifest: {**manifest, "sources": 5}, id="level_not_a_list"),
    pytest.param(lambda manifest: {**manifest, "targets": ["A.java"]}, id="entry_not_an_object"),
    pytest.param(lambda manifest: {**manifest, "oracle_st": 5}, id="oracle_not_a_list"),
    pytest.param(
        lambda manifest: {**manifest, "sources": [{"id": "RE-1", "path": 5, "kind": "nl"}]},
        id="path_not_a_string",
    ),
    pytest.param(_integer_source_id, id="integer_id_without_oracle"),
    pytest.param(_integer_oracle_id, id="oracle_id_not_a_string"),
])
def test_malformed_shape_rejected(tmp_path, capsys, malform):
    path = write_dataset(tmp_path)
    path.write_text(json.dumps(malform(json.loads(path.read_text()))))
    with pytest.raises(ValidationError):
        load_dataset(path)
    assert cli_main(["trace", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
