"""Sentence segmentation and coarse POS tagging.

`tag_token` checks its lexicon and suffix tables in order. The if-chain it
replaced stays here as its oracle, over the same word lists.
"""

import string

from hypothesis import given, strategies as st

from tracelink.corpus.nltext import (
    ADJ,
    NOUN,
    OTHER,
    VERB,
    _LEXICONS,
    _SUFFIXES,
    _strip_plural,
    split_sentences,
    tag_token,
    tokenize_natural,
)

DD647_SENTENCE = "The user can select a UAV and assign routes from the available list."


def test_dd647_sentence_tags():
    sentences = tokenize_natural(DD647_SENTENCE)
    assert len(sentences) == 1
    tags = {token: tag_token(token) for token in sentences[0]}
    assert tags["select"] == "verb"
    assert tags["UAV"] == "noun"
    assert tags["routes"] == "noun"
    assert tags["user"] == "noun"
    assert tags["assign"] == "verb"
    assert tags["available"] == "adj"
    assert tags["and"] == "other"
    assert tags["the"] == "other"
    assert tags["can"] == "other"


def test_single_capitals_split_sentences():
    assert len(tokenize_natural("A. B.")) == 2


def test_empty_text():
    assert tokenize_natural("") == []


def test_abbreviations_do_not_split():
    assert len(split_sentences("Artifacts, e.g. requirements, are traced.")) == 1


def test_question_and_exclamation_terminate():
    assert len(split_sentences("Is it traced? Yes! Good.")) == 3


def test_trailing_text_without_punctuation():
    assert split_sentences("no terminal punctuation") == ["no terminal punctuation"]


def test_digit_tokens_untagged():
    assert tag_token("647") is None


def test_unknown_word_defaults_to_noun():
    assert tag_token("flimbo") == "noun"


def test_acronym_is_noun():
    assert tag_token("UAV") == "noun"


def test_adverb_is_other():
    assert tag_token("quickly") == "other"


def test_suffix_rules():
    assert tag_token("refactorable") == "adj"
    assert tag_token("tokenization") == "noun"
    assert tag_token("modernize") == "verb"


@given(st.text(alphabet="abcXY .?!\n\t,;:'\"-()0123456789", max_size=200))
def test_tokenizer_never_crashes_and_tokens_are_alnum(text):
    for sentence in tokenize_natural(text):
        assert sentence
        for token in sentence:
            assert token.isalnum()
            assert tag_token(token) in ("noun", "verb", "adj", "other", None)


@given(st.text(alphabet="ab .?!", max_size=100))
def test_sentences_preserve_nonspace_content(text):
    joined = "".join("".join(s.split()) for s in split_sentences(text))
    assert joined == "".join(text.split())


def oracle_tag(token):
    if token.isdigit():
        return None
    lowered = token.lower()
    if lowered in _LEXICONS[OTHER]:
        return OTHER
    if lowered in _LEXICONS[VERB]:
        return VERB
    if lowered in _LEXICONS[ADJ]:
        return ADJ
    if lowered in _LEXICONS[NOUN]:
        return NOUN
    if lowered.endswith("ly"):
        return OTHER
    singular = _strip_plural(lowered)
    if singular is not None:
        if singular in _LEXICONS[VERB]:
            return VERB
        if singular in _LEXICONS[NOUN]:
            return NOUN
    if token.isupper() and len(token) >= 2:
        return NOUN
    for suffix in _SUFFIXES[ADJ]:
        if lowered.endswith(suffix) and len(lowered) > len(suffix) + 2:
            return ADJ
    for suffix in _SUFFIXES[NOUN]:
        if lowered.endswith(suffix) and len(lowered) > len(suffix) + 2:
            return NOUN
    for suffix in _SUFFIXES[VERB]:
        if lowered.endswith(suffix) and len(lowered) > len(suffix) + 2:
            return VERB
    return NOUN


_CASES = st.sampled_from([str.lower, str.upper, str.capitalize])
_ENDINGS = ["", "s", "es", "ies", "ly"]


@given(
    st.sampled_from(sorted(set().union(*_LEXICONS.values()))),
    st.booleans(),
    st.sampled_from(_ENDINGS),
    _CASES,
)
def test_lexicon_words_match_if_chain_oracle(word, drop_last, ending, case):
    token = case((word[:-1] if drop_last else word) + ending)
    assert tag_token(token) == oracle_tag(token)


@given(
    st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8),
    st.sampled_from(["", *_ENDINGS, *(s for suffixes in _SUFFIXES.values() for s in suffixes)]),
    _CASES,
)
def test_alphanumeric_tokens_match_if_chain_oracle(text, suffix, case):
    token = case(text + suffix)
    assert tag_token(token) == oracle_tag(token)
