"""Biterm extraction, importance counts, and the consensual filter."""

import json
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tracelink import biterms as biterms_module
from tracelink.biterms import (
    _CONTENT_TAGS,
    _STRONG_PARTS,
    _WEAK_PARTS,
    _WINDOW,
    _window_pairs,
    consensual_filter,
    extract_biterms,
    import_parsed_pairs,
)
from tracelink.corpus.codescan import CodeParts
from tracelink.corpus.documents import build_document
from tracelink.corpus.manifest import load_dataset
from tracelink.corpus.nltext import tag_token, tokenize_natural
from tracelink.corpus.preprocess import normalize_token
from tracelink.corpus.types import Artifact, Kind
from tracelink.errors import ParseError

DD647_SENTENCE = "The user can select a UAV and assign routes from the available list."


def nl_artifact(text, id="X"):
    return Artifact(id, Kind.NATURAL_LANGUAGE, CodeParts(comments=tokenize_natural(text)))


def code_artifact(parts, id="C"):
    return Artifact(id, Kind.CODE, parts)


class TestExtractNl:
    def test_dd647_sentence(self):
        biterms = set(extract_biterms(nl_artifact(DD647_SENTENCE)))
        assert ("select", "uav") in biterms
        assert ("assign", "rout") in biterms
        assert ("avail", "list") in biterms
        assert ("select", "user") in biterms
        # Coordination is never paired: "and" is closed-class.
        assert all("and" not in pair for pair in biterms)

    def test_stopword_only_sentence(self):
        assert extract_biterms(nl_artifact("The of and.")) == {}

    def test_occurrences_counted_per_artifact(self):
        biterms = extract_biterms(nl_artifact("select UAV. select UAV."))
        assert biterms[("select", "uav")] == 2

    def test_empty_artifact(self):
        assert len(extract_biterms(nl_artifact(""))) == 0

    def test_window_limits_distance(self):
        # five content words apart never pair under a window of three
        biterms = extract_biterms(nl_artifact("Routes pass sensor panel widget icon."))
        assert ("icon", "rout") not in biterms


class TestImportParsedPairs:
    def test_figure_dependencies(self, tmp_path):
        pairs = tmp_path / "DD-647.tsv"
        pairs.write_text(
            "nsubj\tselect\tuser\n"
            "obj\tselect\tUAV\n"
            "cc\tassign\tand\n"
            "obj\tassign\troutes\n"
            "amod\tavailable\tlist\n"
        )
        result = import_parsed_pairs(pairs)
        assert set(result) == {
            ("select", "user"), ("select", "uav"), ("assign", "rout"), ("avail", "list"),
        }

    def test_empty_file(self, tmp_path):
        pairs = tmp_path / "x.tsv"
        pairs.write_text("")
        assert import_parsed_pairs(pairs) == {}

    def test_malformed_line_reports_number(self, tmp_path):
        pairs = tmp_path / "x.tsv"
        pairs.write_text("nsubj\tselect\tuser\nobj\tselect\n")
        with pytest.raises(ParseError) as excinfo:
            import_parsed_pairs(pairs)
        assert ":2:" in str(excinfo.value)


class TestExtractCode:
    def test_class_name_pairs_count_two(self):
        parts = CodeParts(class_names=[["af", "info", "box"]])
        biterms = extract_biterms(code_artifact(parts))
        assert biterms == {
            ("af", "info"): 2, ("af", "box"): 2, ("box", "info"): 2,
        }

    def test_composite_importance_count(self):
        # once in the class name, twice in comments, three times in parameter
        # types: 1*2 + 2*1 + 1 = 5
        parts = CodeParts(
            class_names=[["assign", "route"]],
            comments=[["assign", "route"], ["assign", "route"]],
            parameter_type_names=[["assign", "route"]] * 3,
        )
        biterms = extract_biterms(code_artifact(parts))
        assert biterms[("assign", "rout")] == 5

    def test_weak_only_occurrences_count_one(self):
        parts = CodeParts(
            field_names=[["assign", "route", "icon"], ["assign", "new", "route"]],
            invoked_method_names=[["get", "assign", "route", "resource"]],
        )
        biterms = extract_biterms(code_artifact(parts))
        assert biterms[("assign", "rout")] == 1

    def test_stopword_tokens_drop_out(self):
        parts = CodeParts(method_names=[["get", "route"]])
        biterms = extract_biterms(code_artifact(parts))
        assert biterms == {}

    def test_imported_parse_is_for_nl_artifacts_only(self, tmp_path):
        (tmp_path / "C.tsv").write_text("obj\tselect\tUAV\n")
        parts = CodeParts(class_names=[["af", "info", "box"]], comments=[["assign", "routes"]])
        code = code_artifact(parts, id="C")
        assert extract_biterms(code, tmp_path) == extract_biterms(code)
        nl = Artifact("C", Kind.NATURAL_LANGUAGE, parts)
        assert extract_biterms(nl, tmp_path) == {("select", "uav"): 1}


class TestConsensualFilter:
    def test_motivating_example(self):
        afinfobox = {
            ("af", "info"): 2, ("af", "box"): 2, ("box", "info"): 2,
            ("assign", "rout"): 1, ("assign", "icon"): 1, ("icon", "rout"): 1,
        }
        dd647 = {("select", "uav"): 1, ("assign", "rout"): 1, ("avail", "list"): 1}
        dd694 = {("appli", "oper"): 1, ("select", "uav"): 1}
        source = {("select", "uav"): 1, ("appli", "oper"): 1}
        filtered_sources, filtered_inters, filtered_targets = consensual_filter(
            [source], [dd647, dd694], [afinfobox]
        )
        assert filtered_targets[0] == {("assign", "rout"): 1}
        assert set(filtered_sources[0]) == {("select", "uav"), ("appli", "oper")}
        # (avail, list) appears in no source or target: dropped from DD-647.
        assert set(filtered_inters[0]) == {("select", "uav"), ("assign", "rout")}

    def test_empty_intermediates_empty_endpoints(self):
        fs, fi, ft = consensual_filter([{("a", "b"): 3}], [], [{("c", "d"): 1}])
        assert fs == [{}]
        assert ft == [{}]
        assert fi == []

    def test_intermediate_only_pair_dropped(self):
        fs, fi, ft = consensual_filter([], [{("x", "y"): 5}], [])
        assert fi == [{}]


_WORDS = ("select", "uav", "UAV", "route", "routes", "Route")


def test_import_merges_both_orders_and_drops_self_pairs(tmp_path):
    """`a b` and `b a` count under one canonical key; words of one stem make no pair."""
    for a in _WORDS:
        for b in _WORDS:
            pairs = tmp_path / "x.tsv"
            pairs.write_text(f"obj\t{a}\t{b}\nobj\t{b}\t{a}\n")
            stems = sorted({normalize_token(a), normalize_token(b)})
            expected = {tuple(stems): 2} if len(stems) == 2 else {}
            assert import_parsed_pairs(pairs) == expected, (a, b)


# Prose with no `*` or `/`, so it cannot end a block comment or open another one.
_PROSE = st.lists(
    st.one_of(
        st.sampled_from(("The", "user", "can", "select", "a", "UAV", "and", "assign",
                         "routes.", "e.g.", "Available", "list!", "647", "?")),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="*/"),
                max_size=8),
    ),
    max_size=30,
).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(_PROSE)
def test_nl_text_reads_like_a_block_comment(text):
    """An NL artifact and a code artifact holding the same prose as its only comment agree."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "n.txt").write_text(text, encoding="utf-8")
        (base / "c.java").write_text(f"/*{text}*/", encoding="utf-8")
        (base / "manifest.json").write_text(json.dumps({
            "sources": [{"id": "n", "path": "n.txt", "kind": "nl"}],
            "targets": [{"id": "c", "path": "c.java", "kind": "code"}],
        }))
        dataset = load_dataset(base / "manifest.json")
    nl, code = dataset.sources[0], dataset.targets[0]
    assert build_document(nl).terms == build_document(code).terms
    assert extract_biterms(nl) == extract_biterms(code)


_pair = st.tuples(
    st.text(alphabet="abcd", min_size=1, max_size=2),
    st.text(alphabet="abcd", min_size=1, max_size=2),
).filter(lambda p: p[0] != p[1]).map(lambda p: tuple(sorted(p)))

_biterms = st.dictionaries(_pair, st.integers(min_value=1, max_value=5), max_size=6)


@given(st.lists(_biterms, max_size=3), st.lists(_biterms, max_size=3),
       st.lists(_biterms, max_size=3))
def test_filter_soundness_and_count_preservation(sources, inters, targets):
    fs, fi, ft = consensual_filter(sources, inters, targets)

    inter_pairs = set().union(*inters)
    endpoint_pairs = set().union(*sources, *targets)

    for original, filtered in zip((*sources, *targets), (*fs, *ft)):
        for pair, count in filtered.items():
            assert pair in inter_pairs
            assert original[pair] == count
    for original, filtered in zip(inters, fi):
        for pair, count in filtered.items():
            assert pair in endpoint_pairs
            assert original[pair] == count


@given(st.lists(_biterms, min_size=1, max_size=3),
       st.lists(_biterms, min_size=2, max_size=3))
def test_filter_monotone_in_intermediates(sources, inters):
    full, _, _ = consensual_filter(sources, inters, [])
    shrunk, _, _ = consensual_filter(sources, inters[:-1], [])
    for wide, narrow in zip(full, shrunk):
        assert set(narrow) <= set(wide)


def oracle_window_pairs(tokens, window):
    """The position-order window loop `_window_pairs` replaced."""
    stems = [normalize_token(tok) for tok in tokens]
    pairs = []
    n = len(stems)
    for i in range(n):
        if stems[i] is None:
            continue
        for j in range(i + 1, min(i + window, n)):
            if stems[j] is None or stems[j] == stems[i]:
                continue
            pairs.append(tuple(sorted((stems[i], stems[j]))))
    return pairs


def oracle_extract(parts):
    """Heuristic extraction with the oracle's pairs, counted pair by pair into dicts."""
    strong, comment, weak = {}, {}, set()
    for part_name in _STRONG_PARTS:
        for tokens in getattr(parts, part_name):
            for pair in oracle_window_pairs(tokens, len(tokens)):
                strong[pair] = strong.get(pair, 0) + 1
    for tokens in parts.comments:
        content_words = [tok for tok in tokens if tag_token(tok) in _CONTENT_TAGS]
        for pair in oracle_window_pairs(content_words, _WINDOW):
            comment[pair] = comment.get(pair, 0) + 1
    for part_name in _WEAK_PARTS:
        for tokens in getattr(parts, part_name):
            weak.update(oracle_window_pairs(tokens, len(tokens)))
    return {
        pair: 2 * strong.get(pair, 0) + comment.get(pair, 0) + (1 if pair in weak else 0)
        for pair in sorted(set(strong) | set(comment) | weak)
    }


# Stopwords, punctuation-only tokens, digits, case variants, words of one stem
# ("route", "routes", "Routed") and content words of each tag, plus any text.
_TOKEN = st.one_of(
    st.sampled_from((
        "the", "of", "and", "get", "a", "--", "...", "?", "(", "647", "2", "v2",
        "Route", "route", "ROUTE", "routes", "Routed", "select", "selected", "selecting",
        "UAV", "uav", "assign", "available", "list", "icon", "box", "info", "quickly",
    )),
    st.text(max_size=6),
)
_GROUPS = st.lists(st.lists(_TOKEN, max_size=8), max_size=4)  # empty groups too
_PARTS = st.fixed_dictionaries({f.name: _GROUPS for f in fields(CodeParts)}).map(
    lambda groups: CodeParts(**groups)
)


@settings(max_examples=150, deadline=None)
@given(_PARTS)
def test_extraction_matches_the_position_order_oracle(parts):
    """Same pairs, counts and key order as the per-pair loop, in windows of 3 and full length."""
    expected = oracle_extract(parts)
    assert list(extract_biterms(code_artifact(parts)).items()) == list(expected.items())


@given(st.lists(_TOKEN, max_size=12), st.integers(min_value=1, max_value=14))
def test_window_pairs_are_the_oracle_pairs(tokens, window):
    """Any window, up to past the token count, gives the oracle's pairs in some order."""
    for width in (window, _WINDOW, len(tokens)):
        assert Counter(_window_pairs(tokens, width)) == Counter(oracle_window_pairs(tokens, width))


@pytest.mark.parametrize("tokens", [[], ["Route"]], ids=["no_token", "one_token"])
def test_fewer_than_two_tokens_make_no_pair(monkeypatch, tokens):
    """No pair, and no token normalized, so no stem computed, in any window."""
    monkeypatch.setattr(biterms_module, "normalize_token", lambda token: pytest.fail(token))
    for window in (1, 2, _WINDOW, 10):
        assert _window_pairs(tokens, window) == []
