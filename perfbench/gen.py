"""Seeded synthetic inputs for the tracelink benchmark (stdlib only).

A corpus has the same number of artifacts at each level: natural-language
sources and intermediates, and Java classes as targets. Every artifact
belongs to one topic and draws its content words from that topic's own
roots, except for a share `overlap` drawn from the whole vocabulary. Each source
is linked in `oracle_st` to targets of its own topic. For `eval --ranked`,
two ranked-links CSVs over the corpus's sources and targets are written as
well.

The same seed and parameters always give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Surface forms per root, chosen so the Porter stemmer has work to do.
SUFFIXES = ("", "s", "ing", "ed", "er", "ation", "ment", "ness", "ive", "ize")
# Verbs the program's tagger knows; they become content words of kind verb.
VERBS = ("display", "update", "validate", "record", "send", "store",
         "select", "monitor", "track", "load", "notify", "process")
# Function words the tokenizer sees and the stopword list drops.
FILLERS = ("the", "a", "of", "to", "shall", "and", "each", "from", "with", "when")
_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusParams:
    """Shape of one generated corpus."""

    per_level: int           # artifacts per level (sources, intermediates, targets)
    sentences: int           # sentences per NL artifact and comment lines per class
    words: int               # content words per sentence
    methods: int             # methods per Java class
    topics: int              # topics the artifacts are spread over
    roots: int               # word roots; the vocabulary is roots x len(SUFFIXES)
    overlap: float           # share of content words drawn from outside the topic
    oracle_per_source: int   # true source-target links per source


@dataclass(frozen=True)
class RankingParams:
    """Two full source x target rankings for `eval --ranked --compare`."""

    signal_a: float          # score lift of true links in ranking A
    signal_b: float          # score lift of true links in ranking B


def _roots(rng: random.Random, count: int) -> list[str]:
    roots: list[str] = []
    seen: set[str] = set()
    while len(roots) < count:
        syllables = rng.randint(2, 3)
        root = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if root not in seen:
            seen.add(root)
            roots.append(root)
    return roots


class _Words:
    """Draws topic-biased content words."""

    def __init__(self, rng: random.Random, params: CorpusParams):
        self.rng = rng
        self.params = params
        self.roots = _roots(rng, params.roots)
        # Topics own disjoint slices of the roots, so that every seed separates
        # them equally well and only `overlap` mixes them.
        size = max(1, params.roots // params.topics)
        self.topic_roots = [self.roots[k * size:(k + 1) * size] or self.roots
                            for k in range(params.topics)]

    def word(self, topic: int) -> str:
        rng = self.rng
        pool = self.roots if rng.random() < self.params.overlap else self.topic_roots[topic]
        return rng.choice(pool) + rng.choice(SUFFIXES)

    def sentence(self, topic: int) -> str:
        rng = self.rng
        tokens: list[str] = []
        for _ in range(self.params.words):
            if rng.random() < 0.4:
                tokens.append(rng.choice(FILLERS))
            tokens.append(rng.choice(VERBS) if rng.random() < 0.2 else self.word(topic))
        tokens[0] = tokens[0].capitalize()
        return " ".join(tokens) + "."

    def camel(self, topic: int, parts: int, upper: bool) -> str:
        words = [self.word(topic) for _ in range(parts)]
        if not upper:
            return words[0] + "".join(w.capitalize() for w in words[1:])
        return "".join(w.capitalize() for w in words)


def _nl_text(words: _Words, topic: int) -> str:
    return " ".join(words.sentence(topic) for _ in range(words.params.sentences)) + "\n"


def _java_text(words: _Words, topic: int) -> str:
    rng = words.rng
    lines = [f"/** {words.sentence(topic)} */",
             f"public class {words.camel(topic, 2, True)} {{"]
    for _ in range(max(1, words.params.methods // 2)):
        lines.append(f"    private {words.camel(topic, 1, True)} {words.camel(topic, 2, False)};")
    comments = [words.sentence(topic) for _ in range(words.params.sentences)]
    for i in range(words.params.methods):
        verb = rng.choice(VERBS)
        lines.append("")
        if comments:
            lines.append(f"    // {comments[i % len(comments)]}")
        lines.append(
            f"    public void {verb}{words.camel(topic, 2, True)}"
            f"({words.camel(topic, 1, True)} {words.camel(topic, 1, False)}) {{"
        )
        lines.append(
            f"        {words.camel(topic, 1, True)} {words.camel(topic, 1, False)} = "
            f"{rng.choice(VERBS)}{words.camel(topic, 1, True)}();"
        )
        lines.append(f"        {rng.choice(VERBS)}{words.camel(topic, 1, True)}(this);")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def write_corpus(directory: Path, seed: int, params: CorpusParams) -> dict:
    """Write artifacts and `manifest.json` under `directory`; return the manifest."""
    rng = random.Random(seed)
    words = _Words(rng, params)
    directory.mkdir(parents=True, exist_ok=True)
    n = params.per_level
    topics = {level: [i % params.topics for i in range(n)] for level in "SIT"}
    for level in "SIT":
        rng.shuffle(topics[level])

    spec: dict[str, list] = {"sources": [], "intermediates": [], "targets": []}
    for key, level in (("sources", "S"), ("intermediates", "I"), ("targets", "T")):
        for i in range(n):
            art_id = f"{level}{i:04d}"
            topic = topics[level][i]
            if level == "T":
                name, kind, text = f"{art_id}.java", "code", _java_text(words, topic)
            else:
                name, kind, text = f"{art_id}.txt", "nl", _nl_text(words, topic)
            _write(directory / name, text)
            spec[key].append({"id": art_id, "path": name, "kind": kind})

    by_topic: dict[int, list[str]] = {}
    for i in range(n):
        by_topic.setdefault(topics["T"][i], []).append(f"T{i:04d}")
    oracle = []
    for i in range(n):
        same = by_topic.get(topics["S"][i]) or [f"T{rng.randrange(n):04d}"]
        for target in sorted(rng.sample(same, min(params.oracle_per_source, len(same)))):
            oracle.append([f"S{i:04d}", target])
    spec["oracle_st"] = oracle
    _write(directory / "manifest.json", json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return spec


def ranked_csv(rng: random.Random, spec: dict, signal: float) -> str:
    """A full ranking in `format_ranked_csv` layout; true links score `signal` higher."""
    truth = {tuple(pair) for pair in spec["oracle_st"]}
    sources = sorted(a["id"] for a in spec["sources"])
    targets = [a["id"] for a in spec["targets"]]
    lines = ["source_id,target_id,score"]
    for source in sources:
        scored = []
        for target in targets:
            lift = signal if (source, target) in truth else 0.0
            scored.append((target, round((rng.random() + lift) / (1.0 + signal), 6)))
        scored.sort(key=lambda item: (-item[1], item[0]))
        lines.extend(f"{source},{target},{score:.6f}" for target, score in scored)
    return "\n".join(lines) + "\n"


def write_rankings(directory: Path, seed: int, spec: dict, params: RankingParams) -> None:
    """Write `A.csv` and `B.csv` next to the corpus written for the same seed."""
    rng = random.Random(f"rankings-{seed}")
    _write(directory / "A.csv", ranked_csv(rng, spec, params.signal_a))
    _write(directory / "B.csv", ranked_csv(rng, spec, params.signal_b))
