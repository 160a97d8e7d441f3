"""Porter stemmer conformance and basic behaviour.

The stemmer reads consonants and vowels from one form string per word. The
letter-by-letter helpers it replaced stay here as its oracle, and
`porter_stem` must match them on any word.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tracelink.corpus.manifest import load_dataset
from tracelink.corpus.stemmer import _STEP2, _STEP3, _STEP4, porter_stem

FIXTURE = Path(__file__).parent / "data" / "porter_pairs.txt"


def fixture_pairs() -> list[tuple[str, str]]:
    pairs = []
    for line in FIXTURE.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        word, stem = line.split("\t")
        pairs.append((word, stem))
    return pairs


def test_fixture_is_large_enough():
    assert len(fixture_pairs()) >= 100


@pytest.mark.parametrize("word,expected", fixture_pairs())
def test_conformance(word, expected):
    assert porter_stem(word) == expected


def test_short_words_unchanged():
    for word in ("a", "is", "be", "on", "it"):
        assert porter_stem(word) == word


def test_non_alpha_tokens_pass_through():
    assert porter_stem("647") == "647"
    assert porter_stem("v2") == "v2"
    assert porter_stem("route66") == "route66"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_stem_never_longer_than_word(word):
    assert len(porter_stem(word)) <= len(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_stem_is_deterministic(word):
    assert porter_stem(word) == porter_stem(word)


def _is_consonant(word, i):
    c = word[i]
    if c in "aeiou":
        return False
    if c == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem):
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem):
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word):
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word):
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _step1a(word):
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _contains_vowel(stem):
            return word
        word = stem
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _contains_vowel(stem):
            return word
        word = stem
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word):
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _replace_longest(word, rules, min_measure):
    suffix = max(filter(word.endswith, rules), key=len, default=None)
    if suffix is None:
        return word
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= min_measure or (suffix == "ion" and not stem.endswith(("s", "t"))):
        return word
    return stem + rules[suffix]


def _step5a(word):
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
        return stem
    return word


def _step5b(word):
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def oracle_stem(word):
    if len(word) <= 2 or not word.isalpha() or not word.isascii():
        return word
    word = _step1c(_step1b(_step1a(word)))
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)
    word = _replace_longest(word, _STEP4, 1)
    return _step5b(_step5a(word))


def test_oracle_passes_the_fixture():
    assert all(oracle_stem(word) == stem for word, stem in fixture_pairs())


def test_matches_the_oracle_on_the_motivating_vocabulary(motivating_manifest):
    dataset = load_dataset(motivating_manifest)
    words = {
        token.lower()
        for artifact in dataset.all_artifacts()
        for groups in vars(artifact.parts).values()
        for group in groups
        for token in group
    }
    assert len(words) > 60
    assert [w for w in sorted(words) if porter_stem(w) != oracle_stem(w)] == []


# Every suffix a rule strips or tests, so generated words reach each step's branches.
_SUFFIXES = sorted({
    "", "s", "ss", "sses", "ies", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll",
    *_STEP2, *_STEP3, *_STEP4,
})


@settings(max_examples=500)
@given(
    st.text(alphabet="aeiouyyyybcdlstwxz", max_size=8),
    st.sampled_from(_SUFFIXES),
    st.sampled_from(["", "s", "ed", "ing", "e"]),
)
def test_matches_letter_by_letter_oracle(stem, suffix, ending):
    word = stem + suffix + ending
    assert porter_stem(word) == oracle_stem(word)
