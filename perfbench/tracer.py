"""Outside-in tracer: wraps tracelink functions where their callers look them up.

Nothing under `src/` is edited. Each wrapped function records a span
(name, start, end, parent) while it runs; counters are updated by hooks
that run after the call, inside a `tracer.count` span so that their cost is
kept out of the layers. High-frequency functions (`porter_stem`,
`SimilarityTable.score`) are counted but not timed. Spans stay in memory
and are written out once, when the traced command ends.

A wrap target that no longer exists, or whose arguments or result no longer
fit its counting hook, is recorded in `missing`; every metric that depends
on it is then reported as unmeasured, never as zero.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.stem_inputs: set[str] = set()
        # id(table) -> (table, keys read); the table is held so its id stays unique.
        self.pairs_read: dict[int, tuple[object, set]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, make):
        original = vars(owner).get(attr, _ABSENT)
        if original is _ABSENT or not callable(original):
            self.missing.append(_label(owner, attr))
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, span: str, hook=None) -> None:
        """Time calls of `owner.attr` as `span`; `hook(tracer, args, kwargs, result)` counts."""
        def make(original):
            def traced(*args, **kwargs):
                index = self.begin(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if hook is not None:
                    count = self.begin("tracer.count")
                    try:
                        hook(self, args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        # The arguments or result changed shape: the counts are unmeasured.
                        self.missing.append(_label(owner, attr))
                    finally:
                        self.end(count)
                return result
            return traced

        self._patch(owner, attr, make)

    def count_calls(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` with `make(tracer, original)`, an untimed counter."""
        self._patch(owner, attr, lambda original: make(self, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def payload(self) -> dict:
        counts = dict(self.counts)
        counts["stem_distinct"] = len(self.stem_inputs)
        counts["pairs_read"] = sum(len(keys) for _, keys in self.pairs_read.values())
        return {
            "spans": self.spans,
            "counts": counts,
            "missing": sorted(set(self.missing)),
        }


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


# -- counting hooks ------------------------------------------------------------

def _count_stems(tracer: Tracer, original):
    inputs = tracer.stem_inputs
    counts = tracer.counts

    def porter_stem(word):
        counts["stem_calls"] += 1
        inputs.add(word)
        return original(word)
    return porter_stem


def _count_score_reads(tracer: Tracer, original):
    pairs_read = tracer.pairs_read

    def score(table, a, b):
        key = (a, b) if a <= b else (b, a)
        entry = pairs_read.get(id(table))
        if entry is None:
            entry = pairs_read[id(table)] = (table, set())
        entry[1].add(key)
        return original(table, a, b)
    return score


def _on_extract(tracer, args, kwargs, result):
    tracer.counts["raw_pairs"] += len(result)


def _on_filter(tracer, args, kwargs, result):
    tracer.counts["consensual_pairs"] += sum(len(s) for sets in result for s in sets)


def _on_enrich(tracer, args, kwargs, result):
    before = args[0].added_biterm_terms
    tracer.counts["compound_terms"] += sum(
        1 for term in result.added_biterm_terms if term not in before
    )


def _on_table(tracer, args, kwargs, result):
    documents = args[0]
    vocabulary: set[str] = set()
    nonzero = 0
    for doc in documents:
        terms = doc.weighted_terms()
        vocabulary.update(terms)
        nonzero += len(terms)
    tracer.counts["table_calls"] += 1
    tracer.counts["pairs_stored"] += len(result.pairs())
    tracer.counts["vocab"] = len(vocabulary)
    cells = len(documents) * len(vocabulary)
    tracer.counts["nonzero_ratio"] = nonzero / cells if cells else 0.0


def _on_paths(tracer, args, kwargs, result):
    if not result:
        tracer.counts["sources_without_path"] += 1
    for path in result:
        kinds = [link.kind.value for link in path.links]
        if len(kinds) == 2:
            tracer.counts["paths_sit"] += 1
        elif kinds[0] == "inner":
            tracer.counts["paths_ssit"] += 1
        else:
            tracer.counts["paths_siit"] += 1


def _on_pipeline(tracer, args, kwargs, result):
    tracer.counts["pipeline_runs"] += 1


def _on_write(tracer, args, kwargs, result):
    tracer.counts["bytes_written"] += args[0].stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported tracelink package."""
    import tracelink.cli as cli
    import tracelink.evaluate as evaluate
    import tracelink.irmodels as irmodels
    import tracelink.pipeline as pipeline

    # `tracelink.corpus.preprocess` is the re-exported function, not the module.
    preprocess = sys.modules["tracelink.corpus.preprocess"]

    tracer.wrap(cli, "load_dataset", "corpus.load")
    tracer.wrap(cli, "run_pipeline", "pipeline.run", _on_pipeline)
    tracer.wrap(pipeline, "run_pipeline", "pipeline.run", _on_pipeline)
    tracer.wrap(pipeline, "build_document", "corpus.build_document")
    tracer.wrap(pipeline, "extract_biterms", "biterms.extract", _on_extract)
    tracer.wrap(pipeline, "consensual_filter", "biterms.filter", _on_filter)
    tracer.wrap(pipeline, "select_related_intermediates", "enrich.select")
    tracer.wrap(pipeline, "add_own_biterms", "enrich.apply", _on_enrich)
    tracer.wrap(pipeline, "enrich_artifact", "enrich.apply", _on_enrich)
    tracer.wrap(pipeline, "build_similarity_table", "irmodels.table", _on_table)
    tracer.wrap(pipeline, "rank_candidates", "irmodels.rank")
    tracer.wrap(pipeline, "form_paths", "transitive.form_paths", _on_paths)
    tracer.wrap(pipeline, "adjust_scores", "transitive.adjust")
    tracer.wrap(cli, "run_ablation", "evaluate.ablation")
    tracer.wrap(cli, "evaluate_ranking", "evaluate.eval")
    tracer.wrap(evaluate, "evaluate_ranking", "evaluate.eval")
    tracer.wrap(cli, "compare_runs", "evaluate.compare")
    tracer.wrap(cli, "_read_ranked", "cli.parse")
    tracer.wrap(cli, "parse_ranked_csv", "cli.parse")
    for writer in ("format_ranked_csv", "paths_to_json_payload", "_json_text", "_pr_curve_csv"):
        tracer.wrap(cli, writer, "cli.write")
    tracer.wrap(cli, "_write", "cli.write", _on_write)
    tracer.count_calls(preprocess, "porter_stem", _count_stems)
    tracer.count_calls(irmodels.SimilarityTable, "score", _count_score_reads)


# Wrap targets each per-layer metric depends on, as `_patch` names them in `missing`.
_PIPELINE = ("tracelink.pipeline.run_pipeline", "tracelink.cli.run_pipeline")
REQUIRES: dict[str, tuple[str, ...]] = {
    "corpus.load_s": ("tracelink.cli.load_dataset",),
    "corpus.build_document_s": ("tracelink.pipeline.build_document",),
    "corpus.stem_calls": ("tracelink.corpus.preprocess.porter_stem",),
    "corpus.stem_distinct_ratio": ("tracelink.corpus.preprocess.porter_stem",),
    "biterms.extract_s": ("tracelink.pipeline.extract_biterms",),
    "biterms.filter_s": ("tracelink.pipeline.consensual_filter",),
    "biterms.raw_pairs": ("tracelink.pipeline.extract_biterms",),
    "biterms.consensual_pairs": ("tracelink.pipeline.consensual_filter",),
    "biterms.consensual_ratio": ("tracelink.pipeline.extract_biterms",
                                 "tracelink.pipeline.consensual_filter"),
    "enrich.select_s": ("tracelink.pipeline.select_related_intermediates",),
    "enrich.apply_s": ("tracelink.pipeline.add_own_biterms", "tracelink.pipeline.enrich_artifact"),
    "enrich.compound_terms": ("tracelink.pipeline.add_own_biterms",
                              "tracelink.pipeline.enrich_artifact"),
    "irmodels.table_s": ("tracelink.pipeline.build_similarity_table",),
    "irmodels.table_calls": ("tracelink.pipeline.build_similarity_table",),
    "irmodels.pairs_stored": ("tracelink.pipeline.build_similarity_table",),
    "irmodels.pairs_read_ratio": ("tracelink.pipeline.build_similarity_table",
                                  "SimilarityTable.score"),
    "irmodels.vocab": ("tracelink.pipeline.build_similarity_table",),
    "irmodels.nonzero_ratio": ("tracelink.pipeline.build_similarity_table",),
    "irmodels.rank_s": ("tracelink.pipeline.rank_candidates",),
    "transitive.form_paths_s": ("tracelink.pipeline.form_paths",),
    "transitive.adjust_s": ("tracelink.pipeline.adjust_scores",),
    "transitive.paths_sit": ("tracelink.pipeline.form_paths",),
    "transitive.paths_ssit": ("tracelink.pipeline.form_paths",),
    "transitive.paths_siit": ("tracelink.pipeline.form_paths",),
    "transitive.sources_without_path": ("tracelink.pipeline.form_paths",),
    "evaluate.eval_s": ("tracelink.cli.evaluate_ranking", "tracelink.evaluate.evaluate_ranking"),
    "evaluate.compare_s": ("tracelink.cli.compare_runs",),
    "evaluate.pipeline_runs": _PIPELINE,
    "cli.write_s": ("tracelink.cli._write",),
    "cli.parse_s": ("tracelink.cli._read_ranked", "tracelink.cli.parse_ranked_csv"),
    "cli.bytes_written": ("tracelink.cli._write",),
    "pipeline.self_s": _PIPELINE,
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def layer_metrics(payload: dict) -> dict[str, float | None]:
    """The per-layer metrics of one traced command; unmeasured ones are None."""
    spans, counts = payload["spans"], payload["counts"]
    own = self_times(spans)

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root = next(i for i, span in enumerate(spans) if span[0] == "cli.main")
    load = sum(end - start for name, start, end, _ in spans if name == "corpus.load")
    run_s = spans[root][2] - spans[root][1] - load
    layers_s = sum(seconds for name, seconds in own.items()
                   if name not in ("cli.main", "corpus.load", "tracer.count"))
    metrics: dict[str, float | None] = {
        "corpus.load_s": load,
        "corpus.build_document_s": s("corpus.build_document"),
        "corpus.stem_calls": c("stem_calls"),
        "corpus.stem_distinct_ratio": ratio(c("stem_distinct"), c("stem_calls")),
        "biterms.extract_s": s("biterms.extract"),
        "biterms.filter_s": s("biterms.filter"),
        "biterms.raw_pairs": c("raw_pairs"),
        "biterms.consensual_pairs": c("consensual_pairs"),
        "biterms.consensual_ratio": ratio(c("consensual_pairs"), c("raw_pairs")),
        "enrich.select_s": s("enrich.select"),
        "enrich.apply_s": s("enrich.apply"),
        "enrich.compound_terms": c("compound_terms"),
        "irmodels.table_s": s("irmodels.table"),
        "irmodels.table_calls": c("table_calls"),
        "irmodels.pairs_stored": c("pairs_stored"),
        "irmodels.pairs_read_ratio": ratio(c("pairs_read"), c("pairs_stored")),
        "irmodels.vocab": c("vocab"),
        "irmodels.nonzero_ratio": c("nonzero_ratio"),
        "irmodels.rank_s": s("irmodels.rank"),
        "transitive.form_paths_s": s("transitive.form_paths"),
        "transitive.adjust_s": s("transitive.adjust"),
        "transitive.paths_sit": c("paths_sit"),
        "transitive.paths_ssit": c("paths_ssit"),
        "transitive.paths_siit": c("paths_siit"),
        "transitive.sources_without_path": c("sources_without_path"),
        "evaluate.eval_s": s("evaluate.eval") + s("evaluate.ablation"),
        "evaluate.compare_s": s("evaluate.compare"),
        "evaluate.pipeline_runs": c("pipeline_runs"),
        "cli.write_s": s("cli.write"),
        "cli.parse_s": s("cli.parse"),
        "cli.bytes_written": c("bytes_written"),
        "pipeline.self_s": s("pipeline.run"),
        "trace.run_s": run_s,
        "trace.layers_s": layers_s,
        "trace.unattributed_s": s("cli.main"),
        "trace.tracer_s": s("tracer.count"),
    }
    missing = set(payload["missing"])
    for name, needs in REQUIRES.items():
        if any(label in missing for label in needs):
            metrics[name] = None
    return metrics
