"""Whole-run invariance: a change of the input that must not move `trace`'s output.

Each property runs `tracelink.cli.main(["trace", ...])` on small generated
manifests, in mode b+o+i unless it says otherwise. The per-word caches
(normalization and tagging) are cleared before each run, so each run meets
the words in its own order.
The shuffle leaves `lsi` out: two identical artifacts can make its output
depend on manifest order (ROADMAP item 15). The rename keeps the manifest
order, so it covers `lsi` too. The copy property also leaves `lsi` out, for
the same reason, and runs the modes without "o": a path through a copy and
one through its original multiply their factors in different orders.
"""

import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tracelink.cli import main
from tracelink.corpus.nltext import tag_token
from tracelink.corpus.preprocess import _normalize_lowered, normalize_token

# Surface forms that share stems, words of each tag, stopwords and a number.
_WORDS = (
    "route", "routes", "routing", "routed", "select", "selects", "selection", "uav", "uavs",
    "display", "displayed", "battery", "batteries", "status", "alarm", "alarms", "flight",
    "pilot", "assign", "assignment", "map", "available", "quickly", "the", "of", "to", "647",
)
_words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)
_prose = st.lists(_words.map(" ".join), min_size=1, max_size=3).map(". ".join)
_names = st.lists(st.sampled_from(_WORDS[:-4]), min_size=1, max_size=2).map(
    lambda words: "".join(word.capitalize() for word in words))
_java = st.builds(
    "/** {} */\nclass {} {{\n  int my{};\n  void set{}({} value) {{ show{}(); }}\n}}\n".format,
    _prose, _names, _names, _names, _names, _names,
)
_OUTPUTS = ("ranked_links.csv", "path_traces.json")
_levels = st.fixed_dictionaries({
    "sources": st.lists(_prose, min_size=1, max_size=4),
    "intermediates": st.lists(_prose, max_size=3),
    "targets": st.lists(_java, min_size=1, max_size=4),
})


def _trace(manifest, out, model, mode):
    for cache in (normalize_token, _normalize_lowered, tag_token):
        cache.cache_clear()
    assert main(["trace", "--manifest", str(manifest), "--model", model,
                 "--mode", mode, "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in _OUTPUTS}


def _write_levels(base, texts):
    """Write each level's texts as artifacts `s0`, `i0`, `t0`, ...; return the manifest levels."""
    levels = {}
    for level, kind, suffix in (("sources", "nl", "txt"), ("intermediates", "nl", "txt"),
                                ("targets", "code", "java")):
        levels[level] = []
        for number, text in enumerate(texts[level]):
            artifact_id = f"{level[0]}{number}"
            (base / f"{artifact_id}.{suffix}").write_text(text)
            levels[level].append({"id": artifact_id, "path": f"{artifact_id}.{suffix}", "kind": kind})
    return levels


def _trace_manifests(base, model, manifests, mode="b+o+i"):
    """`_trace` of each named manifest, with the oracle pair (s0, t0) under its own names."""
    runs = []
    for name, (levels, oracle) in manifests.items():
        path = base / f"{name}.json"
        path.write_text(json.dumps({**levels, "oracle_st": [oracle]}))
        runs.append(_trace(path, base / name, model, mode))
    return runs


@pytest.mark.parametrize("model", ["vsm", "js"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=_levels, rng=st.randoms(use_true_random=False))
def test_shuffling_each_level_leaves_the_outputs(tmp_path_factory, model, texts, rng):
    base = tmp_path_factory.mktemp("shuffle")
    levels = _write_levels(base, texts)
    shuffled = {level: rng.sample(entries, len(entries)) for level, entries in levels.items()}
    runs = _trace_manifests(base, model, {"given": (levels, ["s0", "t0"]),
                                          "shuffled": (shuffled, ["s0", "t0"])})
    assert runs[0] == runs[1]


def _with_copy(texts, data):
    """`texts` with one of them repeated at a drawn place, and the positions of the original and the copy."""
    original = data.draw(st.integers(0, len(texts) - 1))
    at = data.draw(st.integers(0, len(texts)))
    return texts[:at] + [texts[original]] + texts[at:], original + (at <= original), at


@pytest.mark.parametrize("model", ["vsm", "js"])
@pytest.mark.parametrize("mode", ["ir-only", "b"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=_levels, data=st.data())
def test_a_copy_ranks_as_its_original(tmp_path_factory, model, mode, texts, data):
    base = tmp_path_factory.mktemp("copy")
    sources, source, source_copy = _with_copy(texts["sources"], data)
    targets, target, target_copy = _with_copy(texts["targets"], data)
    levels = _write_levels(base, {**texts, "sources": sources, "targets": targets})
    (run,) = _trace_manifests(base, model, {"copies": (levels, ["s0", "t0"])}, mode)
    _, *rows = csv.reader(io.StringIO(run["ranked_links.csv"].decode("utf-8")))
    ranked = {}
    for row_source, row_target, score in rows:
        ranked.setdefault(row_source, []).append((row_target, score))
    assert ranked[f"s{source_copy}"] == ranked[f"s{source}"]
    # Targets of equal score are listed in id order, so an exact tie shows in the order too.
    pair = sorted([f"t{target}", f"t{target_copy}"])
    for links in ranked.values():
        twins = [(target_id, score) for target_id, score in links if target_id in pair]
        assert [target_id for target_id, _ in twins] == pair
        assert twins[0][1] == twins[1][1]


def _parsed_outputs(outputs, rename):
    """The parsed ranking rows and path traces of `outputs`, with every id mapped by `rename`."""
    header, *rows = csv.reader(io.StringIO(outputs["ranked_links.csv"].decode("utf-8")))
    traces = json.loads(outputs["path_traces.json"])
    for trace in traces:
        trace["source"] = rename[trace["source"]]
        for path in trace["paths"]:
            path["nodes"] = [rename[node] for node in path["nodes"]]
    return header, [[rename[source], rename[target], score] for source, target, score in rows], traces


# Ids with punctuation, case, digits and a non-ASCII letter, so they sort unlike their lengths.
_NEW_IDS = st.lists(st.text("aZ09-_.,é ", min_size=1, max_size=5), min_size=11, max_size=11,
                    unique=True)


@pytest.mark.parametrize("model", ["vsm", "js", "lsi"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=_levels, new_ids=_NEW_IDS)
def test_an_order_keeping_rename_renames_the_outputs(tmp_path_factory, model, texts, new_ids):
    base = tmp_path_factory.mktemp("rename")
    levels = _write_levels(base, texts)
    ids = sorted(entry["id"] for entries in levels.values() for entry in entries)
    rename = dict(zip(ids, sorted(new_ids)))
    renamed = {level: [{**entry, "id": rename[entry["id"]]} for entry in entries]
               for level, entries in levels.items()}
    given_run, renamed_run = _trace_manifests(base, model, {
        "given": (levels, ["s0", "t0"]), "renamed": (renamed, [rename["s0"], rename["t0"]]),
    })
    identity = {new: new for new in rename.values()}
    assert _parsed_outputs(given_run, rename) == _parsed_outputs(renamed_run, identity)
