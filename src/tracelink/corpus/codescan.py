"""Lightweight lexical scanner for Java and C sources.

Extracts the eight code-part categories needed downstream (class names,
method names, invoked method names, field/parameter types and names, and
comments) without building an AST. Java and C go through the same scan,
whose patterns cover the class/struct declarations and function signatures
of both. It is intentionally heuristic: good enough for single-file
class/struct sources, not a parser for arbitrary code (imports, nested
types and macro tricks are out of scope).

Comments and string/character literals are read in one left-to-right pass:
whichever opener comes first wins, so a `//` inside a string is text, and a
`/*` or a quote inside a line comment is comment. Each comment is tokenized
in source order, and every comment and literal is blanked before the
declarations are matched.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .identifiers import split_identifier
from .nltext import tokenize_natural

# Block comment, line comment, string literal, character literal.
_COMMENT_OR_LITERAL = re.compile(
    r"/\*(?P<block>(?s:.*?))\*/|//(?P<line>[^\n]*)" r'|"(?:\\.|[^"\\])*"' r"|'(?:\\.|[^'\\])*'"
)
_STAR_MARGIN = re.compile(r"^\s*\*+", re.MULTILINE)
_ANNOTATION = re.compile(r"@\w+(?:\([^)]*\))?")

_CLASS_DECL = re.compile(r"\b(?:class|interface|enum|struct|union)\s+(\w+)")
_CALLABLE = re.compile(r"\b(\w+)\s*\(([^()]*)\)\s*(?:throws\s+[\w\s,.]+)?(\{|;|)", re.DOTALL)

_KEYWORDS = frozenset("""
if else for while do switch case default try catch finally return throw
throws new sizeof assert synchronized break continue goto this super
""".split())

_MODIFIERS = frozenset("""
public private protected static final abstract native volatile transient
synchronized const unsigned signed short long register extern inline struct
strictfp
""".split())

_NON_TYPES = frozenset({"return", "throw", "new", "else", "case", "do", "void"})

# A callable with a `{` or `;` tail declares a method unless one of these
# precedes its name, which makes it a call (`return f();`) or a construction.
_STATEMENT_WORDS = frozenset({"return", "throw", "new", "else", "case", "do", "yield", "assert"})


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
        return " "

    # Annotations go after the literals, whose text may hold a `)`: `@Pattern(regexp = "(a|b)")`.
    code = _ANNOTATION.sub(" ", _COMMENT_OR_LITERAL.sub(blank, source))

    for m in _CLASS_DECL.finditer(code):
        parts.class_names.append(split_identifier(m.group(1)))

    declaration_spans: list[tuple[int, int]] = []
    for m in _CALLABLE.finditer(code):
        name, params, tail = m.group(1), m.group(2), m.group(3)
        if name in _KEYWORDS:
            declaration_spans.append(m.span())
            continue
        preceding = _preceding_word(code, m.start())
        if tail and preceding is not None and preceding not in _STATEMENT_WORDS:
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
    r"(?:^|(?<=[;{}]))\s*((?:\w+(?:\s*<[^<>]*>)?(?:\s*\[\s*\])*\s+)+)(\w+)(?:\s*\[\s*\])*\s*(?:=[^;]*)?;",
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
        type_tokens = [t for t in re.findall(r"\w+", type_text) if t not in _MODIFIERS]
        type_tokens = [t for t in type_tokens if t not in _NON_TYPES]
        if not type_tokens:
            continue
        type_ident = [t for ts in type_tokens for t in split_identifier(ts)]
        parts.field_type_names.append(type_ident)
        parts.field_names.append(split_identifier(name))
