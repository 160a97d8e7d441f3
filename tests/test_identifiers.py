"""Identifier splitting behaviour, including the acronym rule."""

import re

import pytest
from hypothesis import given, strategies as st

from tracelink.corpus.codescan import split_identifier


@pytest.mark.parametrize("identifier,expected", [
    ("AFInfoBox", ["af", "info", "box"]),
    ("assignRouteIcon", ["assign", "route", "icon"]),
    ("snake_case_id", ["snake", "case", "id"]),
    ("getAssignRouteResource", ["get", "assign", "route", "resource"]),
    ("AFEmergencyComponent", ["af", "emergency", "component"]),
    ("parseHTTPResponse", ["parse", "http", "response"]),
    ("XMLParser", ["xml", "parser"]),
    ("route66icon", ["route", "66", "icon"]),
    ("DD647", ["dd", "647"]),
    ("simple", ["simple"]),
    ("UAV", ["uav"]),
    ("__dunder__name__", ["dunder", "name"]),
    ("CONSTANT_VALUE", ["constant", "value"]),
])
def test_examples(identifier, expected):
    assert split_identifier(identifier) == expected


_IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,24}", fullmatch=True)


_ALNUM_RUN = re.compile(r"[A-Za-z0-9]+")
_ACRONYM_TAIL = re.compile(r"^([A-Z]+)([A-Z][a-z].*)$")


def reference_split(identifier):
    """Character-walk splitter: the exact reference for `split_identifier`."""
    tokens = []
    for run in _ALNUM_RUN.findall(identifier):
        parts = []
        current = run[0]
        for prev, ch in zip(run, run[1:]):
            if (prev.islower() and ch.isupper()) or (prev.isdigit() != ch.isdigit()):
                parts.append(current)
                current = ch
            else:
                current += ch
        parts.append(current)
        for part in parts:
            while m := _ACRONYM_TAIL.match(part):  # "AFInfo" -> "AF" + "Info"
                tokens.append(m.group(1).lower())
                part = m.group(2)
            tokens.append(part.lower())
    return tokens


@given(st.text(alphabet="aAbBzZ09_-.$ éÉßΣ", max_size=24))
def test_matches_reference_splitter(identifier):
    assert split_identifier(identifier) == reference_split(identifier)


@given(_IDENT)
def test_round_trip_preserves_alnum_content(identifier):
    tokens = split_identifier(identifier)
    rebuilt = "".join(tokens)
    original = re.sub(r"[^a-z0-9]", "", identifier.lower())
    assert rebuilt == original


@given(_IDENT)
def test_tokens_lowercase_nonempty(identifier):
    for token in split_identifier(identifier):
        assert token
        assert token == token.lower()
