"""Token normalization: stopwords, special tokens, stemming."""

from collections import Counter

from hypothesis import given, strategies as st

from tracelink.corpus import preprocess as preprocess_module
from tracelink.corpus.preprocess import _normalize_lowered, normalize_token, preprocess
from tracelink.corpus.stemmer import porter_stem
from tracelink.corpus.stopwords import is_stopword


def test_assigned_routes():
    assert preprocess(["Assigned", "Routes"]) == Counter({"assign": 1, "rout": 1})


def test_all_stopwords_vanish():
    assert preprocess(["the", "of", "and"]) == Counter()


def test_available_list_survives():
    assert preprocess(["available", "list"]) == Counter({"avail": 1, "list": 1})


def test_special_tokens_removed():
    assert preprocess(["--", "...", "(", "route"]) == Counter({"rout": 1})


def test_empty_input():
    assert preprocess([]) == Counter()


def test_multiplicity_preserved():
    assert preprocess(["route", "routes", "ROUTE"]) == Counter({"rout": 3})


def test_digits_kept():
    assert preprocess(["647"]) == Counter({"647": 1})


def test_single_letters_are_stopwords():
    assert normalize_token("x") is None
    assert normalize_token("af") == "af"


def test_case_insensitive_stopwords():
    assert normalize_token("The") is None
    assert normalize_token("AND") is None


def test_idempotent_on_corpus_stems():
    # Stability check over a realistic vocabulary: re-normalizing the stems
    # of these corpus words changes nothing.
    words = [
        "users", "apply", "standard", "flight", "operations", "selected",
        "uav", "list", "routes", "available", "assign", "emergency", "halt",
        "aircraft", "fleet", "alarm", "button", "icon", "information",
        "battery", "status", "component", "resource", "pilot",
    ]
    once = preprocess(words)
    again = preprocess(list(once.elements()))
    assert once == again


@given(st.text())
def test_cached_normalize_matches_uncached(token):
    assert normalize_token(token) == _normalize_lowered.__wrapped__(token.lower())
    assert normalize_token(token) == _normalize_lowered.__wrapped__(token.lower())  # a cache hit


def test_case_variants_stemmed_once(monkeypatch):
    stemmed = []
    stem = preprocess_module.porter_stem
    monkeypatch.setattr(preprocess_module, "porter_stem", lambda w: stemmed.append(w) or stem(w))
    normalize_token.cache_clear()
    _normalize_lowered.cache_clear()
    assert {normalize_token(t) for t in ("Route", "route", "ROUTE")} == {"rout"}
    assert stemmed == ["route"]


@given(st.lists(st.text(max_size=12)))
def test_preprocess_unchanged_by_cache(tokens):
    stems = (_normalize_lowered.__wrapped__(token.lower()) for token in tokens)
    assert preprocess(tokens) == Counter(stem for stem in stems if stem is not None)


def plain_normalize(token):
    """Lowercase; None when no character is alphanumeric or the word is a stopword; else stem."""
    lowered = token.lower()
    if not any(c.isalnum() for c in lowered) or is_stopword(lowered):
        return None
    return porter_stem(lowered)


# Punctuation-only, alphanumeric, mixed and non-ASCII tokens, and any text.
_UNICODE_TOKENS = st.one_of(
    st.text(st.sampled_from("-_.,;:!?()[]/\\'\" \t\u2028\u00a0\u3002"), max_size=4),
    st.text(st.sampled_from("aeiouyRouteSELECT0129\u00e9\u00df\u0130\u03a3\u0663\u00bd"),
            min_size=1, max_size=10),
    st.text(st.sampled_from("routes-ed_2\u00e9.\u2028"), max_size=8),
    st.text(),
)


@given(_UNICODE_TOKENS)
def test_normalize_token_is_its_plain_definition(token):
    assert normalize_token(token) == plain_normalize(token)
