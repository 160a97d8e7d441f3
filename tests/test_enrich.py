"""Related-intermediate selection and biterm enrichment."""

from collections import Counter

import pytest

from tracelink.corpus.types import Document
from tracelink.enrich import add_own_biterms, enrich_artifact, select_related_intermediates
from tracelink.errors import ConfigError
from tracelink.pipeline import PipelineConfig

from test_transitive import rows, table_from_pairs


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.m == 0.5
        assert cfg.t == 3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(m=0.0)
        with pytest.raises(ConfigError):
            PipelineConfig(t=0)


def select(table, artifact_id, intermediate_ids, m, t):
    """`select_related_intermediates` over ids: the artifact and its pool resolved to rows."""
    related = select_related_intermediates(
        table, table.row_ids.index(artifact_id), rows(table, intermediate_ids), m, t
    )
    return [table.col_ids[col] for col in related.tolist()]


class TestSelectRelated:
    def test_relative_cutoff(self):
        table = table_from_pairs({("a", "i1"): 0.8, ("a", "i2"): 0.45, ("a", "i3"): 0.39})
        # max 0.8 -> cutoff 0.4: the artifact at 0.39 falls out
        assert select(table, "a", ["i1", "i2", "i3"], 0.5, 3) == ["i1", "i2"]

    def test_cap_with_id_tie_break(self):
        table = table_from_pairs({("a", f"i{k}"): 0.8 for k in range(4)})
        selected = select(table, "a", ["i3", "i1", "i0", "i2"], 0.5, 3)
        assert selected == ["i0", "i1", "i2"]

    def test_all_zero_selects_nothing(self):
        table = table_from_pairs({("a", "i1"): 0.0, ("a", "i2"): 0.0})
        assert select(table, "a", ["i1", "i2"], 0.5, 3) == []

    def test_prefix_of_sorted_list(self):
        table = table_from_pairs({("a", "i1"): 0.9, ("a", "i2"): 0.6, ("a", "i3"): 0.5})
        assert select(table, "a", ["i1", "i2", "i3"], 0.5, 2) == ["i1", "i2"]


class TestEnrichArtifact:
    def test_foreign_biterms_added_once(self):
        document = Document("RE-691", terms=Counter({"appli": 1}))
        dd694 = {("appl", "oper"): 4, ("select", "uav"): 2}
        enriched = enrich_artifact(document, [dd694])
        assert enriched.added_biterm_terms["appl_oper"] == 1
        assert enriched.added_biterm_terms["select_uav"] == 1

    def test_duplicate_across_related_sets_still_once(self):
        document = Document("AFInfoBox", terms=Counter({"assign": 1}))
        related = [
            {("select", "uav"): 1, ("assign", "rout"): 1},
            {("select", "uav"): 3},
        ]
        enriched = enrich_artifact(document, related)
        assert enriched.added_biterm_terms["select_uav"] == 1
        assert enriched.added_biterm_terms["assign_rout"] == 1

    def test_no_related_is_noop(self):
        document = Document("X", terms=Counter({"a": 2}))
        enriched = enrich_artifact(document, [])
        assert enriched.terms == document.terms
        assert enriched.added_biterm_terms == Counter()

    def test_never_removes_terms(self):
        document = Document("X", terms=Counter({"a": 2, "b": 1}))
        enriched = enrich_artifact(document, [{("x", "y"): 1}])
        for term, count in document.terms.items():
            assert enriched.terms[term] >= count

    def test_own_biterms_weighted_by_count(self):
        document = Document("X", terms=Counter({"a": 1}))
        own = {("assign", "rout"): 3}
        with_own = add_own_biterms(document, own)
        assert with_own.added_biterm_terms["assign_rout"] == 3

    def test_own_plus_foreign_accumulate(self):
        document = Document("X", terms=Counter({"a": 1}))
        own = {("assign", "rout"): 3}
        foreign = {("assign", "rout"): 9}
        enriched = enrich_artifact(add_own_biterms(document, own), [foreign])
        assert enriched.added_biterm_terms["assign_rout"] == 4
