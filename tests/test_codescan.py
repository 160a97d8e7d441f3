"""Lexical code scanning into the eight part categories."""

import re
from itertools import chain
from unittest import mock

from hypothesis import given, strategies as st

from tracelink.corpus import codescan
from tracelink.corpus.codescan import CodeParts, _preceding_word, _scan_fields, scan_code
from tracelink.corpus.nltext import tokenize_natural

JAVA_SAMPLE = """
/** Route details are shown in this info box. */
public class AFInfoBox {
    private Icon assignRouteIcon;

    public void refresh(Route newRoute) {
        Resource res = getAssignRouteResource();
        draw(res);
    }
}
"""


def test_class_name():
    parts = scan_code(JAVA_SAMPLE)
    assert parts.class_names == [["af", "info", "box"]]


def test_method_names():
    parts = scan_code(JAVA_SAMPLE)
    assert parts.method_names == [["refresh"]]


def test_invoked_method_names():
    parts = scan_code(JAVA_SAMPLE)
    assert ["get", "assign", "route", "resource"] in parts.invoked_method_names
    assert ["draw"] in parts.invoked_method_names


def test_fields_and_locals():
    parts = scan_code(JAVA_SAMPLE)
    assert ["assign", "route", "icon"] in parts.field_names
    assert ["icon"] in parts.field_type_names
    assert ["res"] in parts.field_names
    assert ["resource"] in parts.field_type_names


def test_parameters():
    parts = scan_code(JAVA_SAMPLE)
    assert parts.parameter_type_names == [["route"]]
    assert parts.parameter_names == [["new", "route"]]


def test_comments_tokenized():
    parts = scan_code(JAVA_SAMPLE)
    assert ["Route", "details", "are", "shown", "in", "this", "info", "box"] in parts.comments


def test_line_comments_and_keywords_skipped():
    source = """
    // updates the counter
    int counter = 0;
    void tick() {
        if (counter > 0) { counter = counter + 1; }
        while (true) { break; }
    }
    """
    parts = scan_code(source)
    assert ["updates", "the", "counter"] in parts.comments
    assert parts.method_names == [["tick"]]
    flat_invoked = parts.invoked_method_names
    assert ["if"] not in flat_invoked
    assert ["while"] not in flat_invoked


def test_constructor_invocation_not_counted():
    source = "class A { void go() { B b = new B(); run(); } }"
    parts = scan_code(source)
    assert ["b"] not in parts.invoked_method_names
    assert ["run"] in parts.invoked_method_names


def test_consecutive_field_declarations_all_found():
    source = """
    class Panel {
        private Button haltButton;
        private Alarm fleetAlarm;
        private Dialog warningDialog;
        private Timer beaconTimer;
    }
    """
    parts = scan_code(source)
    assert parts.field_names == [
        ["halt", "button"], ["fleet", "alarm"], ["warning", "dialog"], ["beacon", "timer"],
    ]
    assert parts.field_type_names == [["button"], ["alarm"], ["dialog"], ["timer"]]


MESSY_JAVA = """
@SuppressWarnings("all")
public final class Tricky<T extends Map<String, List<Integer>>> {
    private static final String BRACES = "{ not } code ; int x = 1; //";
    private Map<String, List<Integer>> lookupTable = new HashMap<>();
    /* multi
       line comment with code-ish text: int y = 2; */
    protected <K> K transform(final K input,
                              List<String> names) throws IllegalStateException {
        if (names.isEmpty()) { return input; }
        return helper(input);   // trailing note
    }
}
"""


def test_messy_java_does_not_crash():
    parts = scan_code(MESSY_JAVA)
    assert ["tricky"] in parts.class_names
    assert ["transform"] in parts.method_names
    assert ["helper"] in parts.invoked_method_names
    # string-literal braces and comment text never become identifiers
    identifier_fields = (
        parts.class_names, parts.method_names, parts.invoked_method_names,
        parts.field_type_names, parts.field_names,
        parts.parameter_type_names, parts.parameter_names,
    )
    flat = [t for group in identifier_fields for ts in group for t in ts]
    assert "not" not in flat


def test_c_struct_and_function():
    source = """
    /* halts the motor */
    struct MotorState { int speed; };
    static int halt_motor(struct MotorState state, int force) {
        log_event(force);
        return 0;
    }
    """
    parts = scan_code(source)
    assert ["motor", "state"] in parts.class_names
    assert ["halt", "motor"] in parts.method_names
    assert ["log", "event"] in parts.invoked_method_names
    assert ["speed"] in parts.field_names
    assert ["force"] in parts.parameter_names



def test_a_comment_opener_inside_a_string_is_text():
    source = """
    private String home = "http://example.com";
    private int width;
    void draw(int depth) { show("done"); }
    private String name = "x";
    """
    parts = scan_code(source)
    assert parts.comments == []
    assert parts.field_names == [["home"], ["width"], ["name"]]
    assert parts.method_names == [["draw"]]
    assert parts.parameter_names == [["depth"]]
    assert parts.invoked_method_names == [["show"]]


def test_a_block_opener_inside_a_line_comment_is_comment():
    parts = scan_code("// see /* note\nint width;\n/* real */")
    assert parts.comments == [["see", "note"], ["real"]]
    assert parts.field_names == [["width"]]


def test_block_and_line_comments_come_back_in_source_order():
    words = ["alpha", *(f"word{i}" for i in range(19))]
    parts = scan_code(f"/* {' '.join(words)} */\nint a;\n/* beta */\nint b;\n// gamma\n")
    assert parts.comments == [words, ["beta"], ["gamma"]]


def test_literal_text_declares_nothing():
    # The literal `"{ not } code ; int x = 1; //"` holds a declaration and a line-comment opener.
    parts = scan_code(MESSY_JAVA)
    assert ["x"] not in parts.field_names
    assert ["trailing", "note"] in parts.comments


def test_declarations_that_end_in_a_semicolon_are_methods():
    source = """
    public interface RouteStore { Route findRoute(String routeName); void clearAll(); }
    abstract class Shape { public abstract double area(int scale); }
    int log_event(int code, const char *text);
    void run() { return compute(x); }
    """
    parts = scan_code(source)
    assert parts.method_names == [["find", "route"], ["clear", "all"], ["area"], ["log", "event"], ["run"]]
    assert parts.parameter_names == [["route", "name"], ["scale"], ["code"], ["text"]]
    assert parts.invoked_method_names == [["compute"]]

# Unicode whitespace and digits that `\s`, `\w`, `str.isspace` and `str.isalnum` all see.
_SCAN_CHARS = st.sampled_from(" \t\n\x0b\x1c\x85\u00a0\u2003\u3000_aZ\u00e9\u0663\u00b2\u00bd(;")


@given(st.text(_SCAN_CHARS | st.characters(), max_size=30))
def test_preceding_word_matches_regex(code):
    for pos in range(len(code) + 1):
        m = re.search(r"(\w+)\s*$", code[:pos])
        assert _preceding_word(code, pos) == (m.group(1) if m else None)



def _scan_fields_any(code, skip_spans, parts):
    """The field scan that checks every declaration against every span: the oracle."""
    for m in codescan._FIELD_DECL.finditer(code):
        if any(start < m.end(2) and m.start(1) < end for start, end in skip_spans):
            continue
        type_text, name = m.group(1), m.group(2)
        type_tokens = [t for t in re.findall(r"\w+", type_text) if t not in codescan._MODIFIERS]
        type_tokens = [t for t in type_tokens if t not in codescan._NON_TYPES]
        if not type_tokens:
            continue
        type_ident = [t for ts in type_tokens for t in codescan.split_identifier(ts)]
        parts.field_type_names.append(type_ident)
        parts.field_names.append(codescan.split_identifier(name))


# Statements that hold field declarations, calls and bodies; joined without
# a space they also put a declaration right at the end of a call's span.
_STATEMENTS = st.sampled_from([
    "int x;", "Foo barBaz = f(y);", "static List<T> xs[];", "void m(int a){", "}",
    "return x;", "new Foo();", "if (x) {", "g(x) ;", "int", "x", "=", "\n",
])
_CODE = st.lists(_STATEMENTS, max_size=20).map("".join) | st.lists(
    _STATEMENTS, max_size=20).map(" ".join)


@given(_CODE, st.data())
def test_scan_fields_matches_any_overlap_scan(code, data):
    # Sorted, disjoint, nonempty spans, as scan_code collects them; neighbours may
    # touch. Ends often fall on the ends of a declaration's type and name.
    ends = [end for m in codescan._FIELD_DECL.finditer(code) for end in (m.start(1), m.end(2))]
    position = st.integers(0, len(code)) | st.sampled_from(ends or [0])
    cuts = sorted(data.draw(st.lists(position, max_size=16)))
    spans = [(start, end) for start, end in zip(cuts[::2], cuts[1::2]) if start < end]
    got, expected = CodeParts(), CodeParts()
    _scan_fields(code, spans, got)
    _scan_fields_any(code, spans, expected)
    assert got == expected


def test_a_span_that_only_touches_a_declaration_does_not_hide_it():
    code = "f(y){int x;"  # the declaration's type starts at 5 and its name ends at 10
    for spans, found in (([(0, 5), (10, 11)], [["x"]]), ([(0, 6)], []), ([(9, 10)], [])):
        parts = CodeParts()
        _scan_fields(code, spans, parts)
        assert parts.field_names == found


@given(_CODE)
def test_scan_code_matches_any_overlap_scan(code):
    got = scan_code(code)
    with mock.patch.object(codescan, "_scan_fields", _scan_fields_any):
        assert got == scan_code(code)


# Code with comments and identifiers that hold "_", digits and non-ASCII word characters.
_WORDY_CODE = st.lists(st.sampled_from([
    "class Été_x {", "/* ünï_code a_b */", "// snake_case x2y\n", "void m_é(int a_1, Ab_C b){",
    "Foo_Bar٣ f_g;", "g_h(x);", "}", "²½", "\n",
]) | st.text(_SCAN_CHARS | st.characters(), max_size=8), max_size=12).map(" ".join)


@given(_CODE | _WORDY_CODE)
def test_every_token_is_ascii_alphanumeric(text):
    # So no base stem holds the "_" of a compound term (see `Document`).
    groups = [*chain.from_iterable(vars(scan_code(text)).values()), *tokenize_natural(text)]
    assert all(token.isascii() and token.isalnum() for group in groups for token in group)


# String contents with comment openers, quotes, escaped quotes, terminators and brackets.
_LITERAL_TEXT = st.lists(st.sampled_from(["/", "*", "'", '\\"', ";", "{", "(", ")", "a", "x", " "])).map("".join)


@given(st.lists(_STATEMENTS, max_size=12), st.data())
def test_string_contents_never_change_the_scan(statements, data):
    at = data.draw(st.integers(0, len(statements)))
    text = data.draw(_LITERAL_TEXT)
    for sep in ("", " "):
        def code(literal):
            return sep.join([*statements[:at], f"s = {literal};", *statements[at:]])

        assert vars(scan_code(code(f'"{text}"'))) == vars(scan_code(code('""')))


# Comment words with the other kind's opener, quotes and code in them; a block word holds no `*`.
_LINE_WORDS = st.lists(st.sampled_from(["alpha", "beta", "/*", "*/", "//", '"', "'", "int", "x;"]), max_size=5)
_BLOCK_WORDS = st.lists(st.sampled_from(["gamma", "delta", "//", '"', "'", "int", "y;", "\n"]), max_size=5)


@given(st.lists(st.one_of(
    _LINE_WORDS.map(lambda words: ("line", " ".join(words))),
    _BLOCK_WORDS.map(lambda words: ("block", " ".join(words))),
    st.sampled_from(["int z;", "f(x);", "\n"]).map(lambda code: ("code", code)),
), max_size=10))
def test_comments_come_back_in_source_order(pieces):
    source = "".join(
        {"line": f"//{body}\n", "block": f"/*{body}*/", "code": body}[kind] for kind, body in pieces
    )
    expected = [sentence for kind, body in pieces if kind != "code" for sentence in tokenize_natural(body)]
    assert scan_code(source).comments == expected
