"""Lightweight lexical scanner for Java and C sources.

Extracts the eight code-part categories needed downstream (class names,
method names, invoked method names, field/parameter types and names, and
comments) without building an AST. Java and C go through the same scan,
whose patterns cover the class/struct declarations and function signatures
of both. It is intentionally heuristic: good enough for single-file
class/struct sources, not a parser for arbitrary code (imports, nested
types and macro tricks are out of scope).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .identifiers import split_identifier
from .nltext import split_sentences

_LINE_COMMENT = re.compile(r"//([^\n]*)")
_BLOCK_COMMENT = re.compile(r"/\*(.*?)\*/", re.DOTALL)
_STRING_LITERAL = re.compile(r'"(?:\\.|[^"\\])*"' + r"|'(?:\\.|[^'\\])*'")
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


@dataclass
class CodeParts:
    """Structured identifier and comment extraction from one code artifact."""

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
    code = _extract_comments(source, parts)
    code = _STRING_LITERAL.sub(" ", code)
    code = _ANNOTATION.sub(" ", code)

    for m in _CLASS_DECL.finditer(code):
        parts.class_names.append(split_identifier(m.group(1)))

    declaration_spans: list[tuple[int, int]] = []
    for m in _CALLABLE.finditer(code):
        name, params, tail = m.group(1), m.group(2), m.group(3)
        if name in _KEYWORDS:
            declaration_spans.append(m.span())
            continue
        preceding = _preceding_word(code, m.start())
        if tail == "{" and preceding not in (None, "new"):
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


def _extract_comments(source: str, parts: CodeParts) -> str:
    texts: list[tuple[int, str]] = []
    for m in _BLOCK_COMMENT.finditer(source):
        body = re.sub(r"^\s*\*+", " ", m.group(1), flags=re.MULTILINE)
        texts.append((m.start(), body))
    without_blocks = _BLOCK_COMMENT.sub(" ", source)
    for m in _LINE_COMMENT.finditer(without_blocks):
        texts.append((m.start(), m.group(1)))
    for _, body in sorted(texts):
        for sentence in split_sentences(body):
            tokens = re.findall(r"[A-Za-z0-9]+", sentence)
            if tokens:
                parts.comments.append(tokens)
    return _LINE_COMMENT.sub(" ", without_blocks)


def _preceding_word(code: str, pos: int) -> str | None:
    m = re.search(r"(\w+)\s*$", code[:pos])
    return m.group(1) if m else None


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
    for m in _FIELD_DECL.finditer(code):
        if any(start < m.end(2) and m.start(1) < end for start, end in skip_spans):
            continue
        type_text, name = m.group(1), m.group(2)
        type_tokens = [t for t in re.findall(r"\w+", type_text) if t not in _MODIFIERS]
        type_tokens = [t for t in type_tokens if t not in _NON_TYPES]
        if not type_tokens:
            continue
        type_ident = [t for ts in type_tokens for t in split_identifier(ts)]
        parts.field_type_names.append(type_ident)
        parts.field_names.append(split_identifier(name))
