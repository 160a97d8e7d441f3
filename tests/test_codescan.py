"""Lexical code scanning into the eight part categories."""

import re

from hypothesis import given, strategies as st

from tracelink.corpus.codescan import _preceding_word, scan_code

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


def test_messy_java_does_not_crash():
    source = """
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
    parts = scan_code(source)
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


# Unicode whitespace and digits that `\s`, `\w`, `str.isspace` and `str.isalnum` all see.
_SCAN_CHARS = st.sampled_from(" \t\n\x0b\x1c\x85\u00a0\u2003\u3000_aZ\u00e9\u0663\u00b2\u00bd(;")


@given(st.text(_SCAN_CHARS | st.characters(), max_size=30))
def test_preceding_word_matches_regex(code):
    for pos in range(len(code) + 1):
        m = re.search(r"(\w+)\s*$", code[:pos])
        assert _preceding_word(code, pos) == (m.group(1) if m else None)
