"""Whole-run invariance: a change of the input that must not move `trace`'s output.

Each property runs `tracelink.cli.main(["trace", ...])` in mode b+o+i on
small generated manifests. The per-word caches (normalization and tagging)
are cleared before each run, so each run meets the words in its own order.
`lsi` is left out: two identical artifacts can make its output depend on
manifest order (ROADMAP item 15).
"""

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


def _trace(manifest, out, model):
    for cache in (normalize_token, _normalize_lowered, tag_token):
        cache.cache_clear()
    assert main(["trace", "--manifest", str(manifest), "--model", model,
                 "--mode", "b+o+i", "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in _OUTPUTS}


@pytest.mark.parametrize("model", ["vsm", "js"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sources=st.lists(_prose, min_size=1, max_size=4),
    intermediates=st.lists(_prose, max_size=3),
    targets=st.lists(_java, min_size=1, max_size=4),
    rng=st.randoms(use_true_random=False),
)
def test_shuffling_each_level_leaves_the_outputs(
    tmp_path_factory, model, sources, intermediates, targets, rng
):
    base = tmp_path_factory.mktemp("shuffle")
    levels = {}
    for level, texts, kind, suffix in (("sources", sources, "nl", "txt"),
                                       ("intermediates", intermediates, "nl", "txt"),
                                       ("targets", targets, "code", "java")):
        levels[level] = []
        for number, text in enumerate(texts):
            artifact_id = f"{level[0]}{number}"
            (base / f"{artifact_id}.{suffix}").write_text(text)
            levels[level].append({"id": artifact_id, "path": f"{artifact_id}.{suffix}", "kind": kind})
    shuffled = {level: rng.sample(entries, len(entries)) for level, entries in levels.items()}
    runs = []
    for name, manifest in (("given", levels), ("shuffled", shuffled)):
        path = base / f"{name}.json"
        path.write_text(json.dumps({**manifest, "oracle_st": [["s0", "t0"]]}))
        runs.append(_trace(path, base / name, model))
    assert runs[0] == runs[1]
