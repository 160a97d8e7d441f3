"""Lightweight lexical scanner for Java and C sources.

Extracts the eight code-part categories needed downstream (class names,
method names, invoked method names, field/parameter types and names, and
comments) without building an AST. Java and C go through the same scan,
whose patterns cover the class/struct declarations and function signatures
of both. It is intentionally heuristic: good enough for single-file
class/struct sources, not a parser for arbitrary code (imports, nested
types and macro tricks are out of scope).

Comments, string/character literals and C preprocessor lines are read in
one left-to-right pass: whichever opener comes first wins, so a `//` inside
a string is text, and a `/*` or a quote inside a line comment is comment.
Each comment is tokenized in source order, and every comment and literal is
blanked before the declarations are matched. A preprocessor line (`#include`,
`#define` and its continued lines) becomes a `;`, so it ends a statement and
its text, a macro body included, is not scanned; a comment on it still is.
Type syntax then reads as the names in it (`Map<String, List<Integer>>`,
`Route[]`). A keyword before a callable's name makes it a call or a
statement, and no field has a keyword or `void` as its type.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .nltext import tokenize_natural

# Block comment, line comment, string literal, character literal, and a
# preprocessor directive: a `#` first on its line, after spaces or tabs, up to
# the line end or to a comment outside its literals, with its continued lines.
# The directive starts with the newline before it, so that every alternative
# starts with a literal character, which keeps the search fast.
_COMMENT_OR_LITERAL = re.compile(
    r"/\*(?P<block>(?s:.*?))\*/|//(?P<line>[^\n]*)" r'|"(?:\\.|[^"\\])*"' r"|'(?:\\.|[^'\\])*'"
    r"|\n[ \t]*#(?P<directive>(?:" r'[^\n\\/"' r"']|\\(?s:.)|/(?![/*])"
    r'|"(?:\\.|[^"\\\n])*"' r"|'(?:\\.|[^'\\\n])*')*)"
)
_STAR_MARGIN = re.compile(r"^\s*\*+", re.MULTILINE)
_ANNOTATION = re.compile(r"@\w+(?:\([^)]*\))?")
# An innermost type-argument list after a name, or an empty `[]`. A list before `(`
# stays, so `new ArrayList<String>()` calls no method `String`.
_TYPE_SYNTAX = re.compile(r"(?<=\w)\s*<[\w\s,.?]*>(?!\s*\()|\[\s*\]")
_TYPE_PUNCTUATION = str.maketrans("<>,[]", "     ")

_CLASS_DECL = re.compile(r"\b(?:class|interface|enum|struct|union)\s+(\w+)")
_CALLABLE = re.compile(r"\b(\w+)\s*\(([^()]*)\)\s*(?:throws\s+[\w\s,.]+)?(\{|;|)", re.DOTALL)

_KEYWORDS = frozenset("""
if else for while do switch case default try catch finally return throw
throws new sizeof assert synchronized break continue goto this super yield
""".split())

_MODIFIERS = frozenset("""
public private protected static final abstract native volatile transient
synchronized const unsigned signed short long register extern inline struct
strictfp
""".split())

_NOT_TYPES = _MODIFIERS | _KEYWORDS | {"void"}

# An acronym before a capitalized word, a word with at most one leading capital,
# a run of capitals, or a run of digits. Anything but ASCII letters and digits separates.
_WORD = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def split_identifier(identifier: str) -> list[str]:
    """Split a programming identifier into lowercase component tokens.

    Boundaries: underscores and other separators, lowercase-to-uppercase
    transitions, and letter/digit transitions. A run of capitals stays
    together until a lowercase letter follows, in which case the last
    capital starts the next token ("AFInfoBox" -> af, info, box).
    """
    return [word.lower() for word in _WORD.findall(identifier)]


@dataclass
class CodeParts:
    """Split identifiers and comment sentences of one artifact; NL prose fills `comments` only."""

    class_names: list[list[str]] = field(default_factory=list)
    method_names: list[list[str]] = field(default_factory=list)
    invoked_method_names: list[list[str]] = field(default_factory=list)
    field_type_names: list[list[str]] = field(default_factory=list)
    field_names: list[list[str]] = field(default_factory=list)
    parameter_type_names: list[list[str]] = field(default_factory=list)
    parameter_names: list[list[str]] = field(default_factory=list)
    comments: list[list[str]] = field(default_factory=list)


def scan_code(source: str) -> CodeParts:
    """Scan a Java or C source text into CodeParts."""
    parts = CodeParts()

    def blank(m: re.Match[str]) -> str:
        if m.lastgroup == "block":
            parts.comments.extend(tokenize_natural(_STAR_MARGIN.sub(" ", m["block"])))
        elif m.lastgroup == "line":
            parts.comments.extend(tokenize_natural(m["line"]))
        elif m.lastgroup == "directive":
            return ";"  # a directive ends a statement
        return " "

    # Annotations go after the literals, whose text may hold a `)`: `@Pattern(regexp = "(a|b)")`.
    # The newline in front puts a directive on the first line after a newline too.
    code = _plain_types(_ANNOTATION.sub(" ", _COMMENT_OR_LITERAL.sub(blank, "\n" + source)))

    for m in _CLASS_DECL.finditer(code):
        parts.class_names.append(split_identifier(m.group(1)))

    declaration_spans: list[tuple[int, int]] = []
    for m in _CALLABLE.finditer(code):
        name, params, tail = m.group(1), m.group(2), m.group(3)
        if name in _KEYWORDS:
            declaration_spans.append(m.span())
            continue
        preceding = _preceding_word(code, m.start())
        # A keyword before the name makes it a call (`return f();`) or a construction.
        if tail and preceding is not None and preceding not in _KEYWORDS:
            declaration_spans.append(m.span())
            parts.method_names.append(split_identifier(name))
            _scan_parameters(params, parts)
        elif preceding == "new":
            declaration_spans.append(m.span())
        else:
            parts.invoked_method_names.append(split_identifier(name))
            declaration_spans.append((m.start(), m.start() + len(name)))

    _scan_fields(code, declaration_spans, parts)
    return parts


def _plain_types(code: str) -> str:
    """`code` with the brackets and commas of its type syntax blanked, innermost lists first."""
    rewrites = 1
    while rewrites:
        code, rewrites = _TYPE_SYNTAX.subn(lambda m: m[0].translate(_TYPE_PUNCTUATION), code)
    return code


def _preceding_word(code: str, pos: int) -> str | None:
    """The word (`\\w+`) that ends `code[:pos]`, whitespace aside, scanning back from `pos`."""
    end = pos
    while end and code[end - 1].isspace():
        end -= 1
    start = end
    while start and (code[start - 1].isalnum() or code[start - 1] == "_"):
        start -= 1
    return code[start:end] or None


def _scan_parameters(params: str, parts: CodeParts) -> None:
    for raw in params.split(","):
        tokens = re.findall(r"\w+", raw)
        tokens = [t for t in tokens if t not in _MODIFIERS]
        if len(tokens) >= 2:
            *type_tokens, name = tokens
            type_ident = [t for ts in type_tokens for t in split_identifier(ts)]
            if type_ident:
                parts.parameter_type_names.append(type_ident)
            parts.parameter_names.append(split_identifier(name))


# Statement of shape `Type name;` or `Type name = ...;` with no parentheses
# before the declarator: treated as a field/variable declaration. The
# statement boundary is a lookbehind so one declaration's terminator can
# anchor the next.
_FIELD_DECL = re.compile(
    r"(?:^|(?<=[;{}]))\s*((?:\w+\s+)+)(\w+)\s*(?:=[^;]*)?;",
    re.DOTALL,
)


def _scan_fields(code: str, skip_spans: list[tuple[int, int]], parts: CodeParts) -> None:
    # The spans are sorted and disjoint, so their ends rise with their starts: a
    # declaration overlaps some span exactly when it overlaps the last one starting before it ends.
    starts = [start for start, _ in skip_spans]
    for m in _FIELD_DECL.finditer(code):
        last = bisect_left(starts, m.end(2)) - 1
        if last >= 0 and m.start(1) < skip_spans[last][1]:
            continue
        type_text, name = m.group(1), m.group(2)
        type_tokens = [t for t in re.findall(r"\w+", type_text) if t not in _NOT_TYPES]
        if not type_tokens:
            continue
        type_ident = [t for ts in type_tokens for t in split_identifier(ts)]
        parts.field_type_names.append(type_ident)
        parts.field_names.append(split_identifier(name))
