"""Biterm extraction, importance counts, and the consensual filter."""

import pytest
from hypothesis import given, strategies as st

from tracelink.biterms import (
    BitermSet,
    canonical_pair,
    consensual_filter,
    extract_code_biterms,
    extract_nl_biterms,
    import_parsed_pairs,
)
from tracelink.corpus.codescan import CodeParts
from tracelink.corpus.nltext import tokenize_natural
from tracelink.corpus.types import Artifact, Kind, Level
from tracelink.errors import ParseError

DD647_SENTENCE = "The user can select a UAV and assign routes from the available list."


def nl_artifact(text, id="X"):
    return Artifact(id=id, level=Level.INTERMEDIATE, kind=Kind.NATURAL_LANGUAGE,
                    raw=text, sentences=tokenize_natural(text))


def code_artifact(parts, id="C"):
    return Artifact(id=id, level=Level.TARGET, kind=Kind.CODE, raw="", code_parts=parts)


class TestCanonicalPair:
    def test_orders_lexicographically(self):
        assert canonical_pair("uav", "select") == ("select", "uav")
        assert canonical_pair("select", "uav") == ("select", "uav")

    def test_self_pair_dropped(self):
        assert canonical_pair("uav", "uav") is None


class TestExtractNl:
    def test_dd647_sentence(self):
        biterms = extract_nl_biterms(nl_artifact(DD647_SENTENCE)).pairs()
        assert ("select", "uav") in biterms
        assert ("assign", "rout") in biterms
        assert ("avail", "list") in biterms
        assert ("select", "user") in biterms
        # Coordination is never paired: "and" is closed-class.
        assert all("and" not in pair for pair in biterms)

    def test_stopword_only_sentence(self):
        assert extract_nl_biterms(nl_artifact("The of and.")).pairs() == set()

    def test_occurrences_counted_per_artifact(self):
        biterms = extract_nl_biterms(nl_artifact("select UAV. select UAV."))
        assert biterms.biterms[("select", "uav")] == 2

    def test_empty_artifact(self):
        assert len(extract_nl_biterms(nl_artifact(""))) == 0

    def test_window_limits_distance(self):
        # five content words apart never pair under a window of three
        biterms = extract_nl_biterms(
            nl_artifact("Routes pass sensor panel widget icon.")
        ).pairs()
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
        result = import_parsed_pairs("DD-647", pairs)
        assert result.pairs() == {
            ("select", "user"), ("select", "uav"), ("assign", "rout"), ("avail", "list"),
        }

    def test_empty_file(self, tmp_path):
        pairs = tmp_path / "x.tsv"
        pairs.write_text("")
        assert import_parsed_pairs("x", pairs).pairs() == set()

    def test_malformed_line_reports_number(self, tmp_path):
        pairs = tmp_path / "x.tsv"
        pairs.write_text("nsubj\tselect\tuser\nobj\tselect\n")
        with pytest.raises(ParseError) as excinfo:
            import_parsed_pairs("x", pairs)
        assert ":2:" in str(excinfo.value)


class TestExtractCode:
    def test_class_name_pairs_count_two(self):
        parts = CodeParts(class_names=[["af", "info", "box"]])
        biterms = extract_code_biterms(code_artifact(parts))
        assert biterms.biterms == {
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
        biterms = extract_code_biterms(code_artifact(parts))
        assert biterms.biterms[("assign", "rout")] == 5

    def test_weak_only_occurrences_count_one(self):
        parts = CodeParts(
            field_names=[["assign", "route", "icon"], ["assign", "new", "route"]],
            invoked_method_names=[["get", "assign", "route", "resource"]],
        )
        biterms = extract_code_biterms(code_artifact(parts))
        assert biterms.biterms[("assign", "rout")] == 1

    def test_stopword_tokens_drop_out(self):
        parts = CodeParts(method_names=[["get", "route"]])
        biterms = extract_code_biterms(code_artifact(parts))
        assert biterms.pairs() == set()


class TestConsensualFilter:
    def test_motivating_example(self):
        afinfobox = BitermSet("AFInfoBox", {
            ("af", "info"): 2, ("af", "box"): 2, ("box", "info"): 2,
            ("assign", "rout"): 1, ("assign", "icon"): 1, ("icon", "rout"): 1,
        })
        dd647 = BitermSet("DD-647", {
            ("select", "uav"): 1, ("assign", "rout"): 1, ("avail", "list"): 1,
        })
        dd694 = BitermSet("DD-694", {("appli", "oper"): 1, ("select", "uav"): 1})
        source = BitermSet("RE-691", {("select", "uav"): 1, ("appli", "oper"): 1})
        filtered_sources, filtered_inters, filtered_targets = consensual_filter(
            [source], [dd647, dd694], [afinfobox]
        )
        assert filtered_targets[0].pairs() == {("assign", "rout")}
        assert filtered_targets[0].biterms[("assign", "rout")] == 1
        assert filtered_sources[0].pairs() == {("select", "uav"), ("appli", "oper")}
        # (avail, list) appears in no source or target: dropped from DD-647.
        assert filtered_inters[0].pairs() == {("select", "uav"), ("assign", "rout")}

    def test_empty_intermediates_empty_endpoints(self):
        source = BitermSet("S", {("a", "b"): 3})
        target = BitermSet("T", {("c", "d"): 1})
        fs, fi, ft = consensual_filter([source], [], [target])
        assert fs[0].pairs() == set()
        assert ft[0].pairs() == set()
        assert fi == []

    def test_intermediate_only_pair_dropped(self):
        inter = BitermSet("I", {("x", "y"): 5})
        fs, fi, ft = consensual_filter([], [inter], [])
        assert fi[0].pairs() == set()


_stem = st.text(alphabet="abcd", min_size=1, max_size=2)


@given(_stem, _stem)
def test_add_merges_both_orders(a, b):
    forward = BitermSet("X")
    forward.add(a, b)
    forward.add(b, a)
    if a == b:
        assert len(forward) == 0
    else:
        pair = tuple(sorted((a, b)))
        assert forward.biterms == {pair: 2}
        assert pair[0] <= pair[1]


_pair = st.tuples(
    st.text(alphabet="abcd", min_size=1, max_size=2),
    st.text(alphabet="abcd", min_size=1, max_size=2),
).filter(lambda p: p[0] != p[1]).map(lambda p: tuple(sorted(p)))

_biterm_set = st.dictionaries(_pair, st.integers(min_value=1, max_value=5), max_size=6)


@given(st.lists(_biterm_set, max_size=3), st.lists(_biterm_set, max_size=3),
       st.lists(_biterm_set, max_size=3))
def test_filter_soundness_and_count_preservation(sources, inters, targets):
    source_sets = [BitermSet(f"s{i}", d) for i, d in enumerate(sources)]
    inter_sets = [BitermSet(f"i{i}", d) for i, d in enumerate(inters)]
    target_sets = [BitermSet(f"t{i}", d) for i, d in enumerate(targets)]
    fs, fi, ft = consensual_filter(source_sets, inter_sets, target_sets)

    inter_pairs = set().union(*(s.pairs() for s in inter_sets)) if inter_sets else set()
    endpoint_pairs = set().union(
        *(s.pairs() for s in (*source_sets, *target_sets))
    ) if (source_sets or target_sets) else set()

    for original, filtered in zip((*source_sets, *target_sets), (*fs, *ft)):
        for pair, count in filtered.biterms.items():
            assert pair in inter_pairs
            assert original.biterms[pair] == count
    for original, filtered in zip(inter_sets, fi):
        for pair, count in filtered.biterms.items():
            assert pair in endpoint_pairs
            assert original.biterms[pair] == count


@given(st.lists(_biterm_set, min_size=1, max_size=3),
       st.lists(_biterm_set, min_size=2, max_size=3))
def test_filter_monotone_in_intermediates(sources, inters):
    source_sets = [BitermSet(f"s{i}", d) for i, d in enumerate(sources)]
    inter_sets = [BitermSet(f"i{i}", d) for i, d in enumerate(inters)]
    full, _, _ = consensual_filter(source_sets, inter_sets, [])
    shrunk, _, _ = consensual_filter(source_sets, inter_sets[:-1], [])
    for wide, narrow in zip(full, shrunk):
        assert narrow.pairs() <= wide.pairs()
