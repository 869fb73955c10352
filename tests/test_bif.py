"""Tests for the BIF reader and writer."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircb import bif
from faircb.bif import ParsedNetwork, parse_bif, serialize_bif
from faircb.errors import NormalizationError, ParseError, UnsupportedConstruct
from faircb.io import instance_digest
from faircb.netgen import build_network_experiment, liver_network, network_states

from helpers import random_instance, reference_parse_bif

MINI = """\
network mini {
}
// three nodes: a root, a named-row child, a table child
variable A {
  type discrete [ 2 ] { yes, no };
}
variable B {
  type discrete [ 3 ] { lo, mid, hi };
}
variable C {
  type discrete [ 2 ] { t, f };
}
probability ( A ) {
  table 0.3, 0.7;
}
probability ( B | A ) {
  ( no ) 0.6, 0.1, 0.3; /* rows may appear in any order */
  ( yes ) 0.2, 0.5, 0.3;
}
probability ( C | B, A ) {
  table 0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.5, 0.25, 0.75;
}
"""


def test_parse_mini_network():
    net = parse_bif(MINI)
    assert net.name == "mini"
    assert net.model.nodes == ("A", "B", "C")
    assert net.states == {
        "A": ("yes", "no"),
        "B": ("lo", "mid", "hi"),
        "C": ("t", "f"),
    }
    assert net.model.parents == {"A": (), "B": ("A",), "C": ("B", "A")}
    np.testing.assert_array_equal(net.model.cpts["A"], [[0.3, 0.7]])
    # Named rows land at the index given by the parent-state labels, so the
    # shuffled order above must not matter.
    np.testing.assert_array_equal(
        net.model.cpts["B"], [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]
    )


def test_table_statement_is_row_major_child_fastest():
    net = parse_bif(MINI)
    # Rows run over the parent tuple (B, A) with the last parent fastest.
    expected = np.array(
        [
            [0.1, 0.9],  # (lo, yes)
            [0.2, 0.8],  # (lo, no)
            [0.3, 0.7],  # (mid, yes)
            [0.4, 0.6],  # (mid, no)
            [0.5, 0.5],  # (hi, yes)
            [0.25, 0.75],  # (hi, no)
        ]
    )
    np.testing.assert_array_equal(net.model.cpts["C"], expected)


def test_mini_round_trip_is_exact():
    first = parse_bif(MINI)
    second = parse_bif(serialize_bif(first))
    assert second.name == first.name
    assert second.states == first.states
    assert second.model.parents == first.model.parents
    for x in first.model.nodes:
        np.testing.assert_array_equal(second.model.cpts[x], first.model.cpts[x])


def test_liver_network_round_trip():
    model = liver_network()
    net = ParsedNetwork(name="liver", model=model, states=network_states())
    text = serialize_bif(net)
    back = parse_bif(text)
    assert len(back.model.nodes) == 70
    assert sum(len(ps) for ps in back.model.parents.values()) == 123
    assert back.model.nodes == model.nodes
    assert back.states == net.states
    for x in model.nodes:
        assert back.model.parents[x] == tuple(model.parents[x])
        np.testing.assert_allclose(back.model.cpts[x], model.cpts[x], rtol=1e-12, atol=0)


def test_liver_experiment_through_bif_is_pinned():
    # The liver-k10 benchmark instance, built from the serialized network.
    net = ParsedNetwork(name="liver", model=liver_network(), states=network_states())
    parsed = parse_bif(serialize_bif(net))
    instance = build_network_experiment(
        parsed.model, "fibrosis", "sex", "carcinoma", n_arms=10, seed=0, fairness_eps=0.2
    )
    assert instance_digest(instance) == "f2cc4be287ff2fc6"


def test_rows_inside_tolerance_are_renormalized_exactly():
    text = MINI.replace("table 0.3, 0.7;", "table 0.3000001, 0.7;")
    net = parse_bif(text)
    assert net.model.cpts["A"].sum() == 1.0


def test_property_statements_warn_and_are_skipped():
    text = MINI.replace(
        "network mini {\n}",
        'network mini {\n  property "made up" ;\n}',
    ).replace(
        "variable A {",
        'variable A {\n  property position (1, 2) ;',
    ).replace(
        "probability ( A ) {",
        'probability ( A ) {\n  property weight 3 ;',
    ).replace(
        "probability ( B | A ) {",
        'property "between blocks" ;\nprobability ( B | A ) {',
    )
    with pytest.warns(UserWarning, match="ignoring property") as record:
        net = parse_bif(text)
    assert [str(w.message).rsplit(" in ", 1)[1] for w in record] == [
        "network block", "variable A", "probability A", "top level",
    ]
    np.testing.assert_array_equal(net.model.cpts["A"], [[0.3, 0.7]])


def test_parse_errors_carry_line_and_column():
    cases = [
        ("table 0.3, oops;", r"line 14, col 14: expected a number"),
        # A comment over two lines, then one to the end of its line.
        ("table 0.3, /* two\n lines */ oops;", r"line 15, col 11: expected a number"),
        ("table 0.3, // first\n oops;", r"line 15, col 2: expected a number"),
    ]
    for table, message in cases:
        with pytest.raises(ParseError, match=message):
            parse_bif(MINI.replace("table 0.3, 0.7;", table))
    # A token after a one-line comment.
    with pytest.raises(ParseError, match=r"line 17, col 60: expected '\('"):
        parse_bif(MINI.replace("in any order */", "in any order */ oops", 1))


def _reference_tokens(text: str) -> list[tuple[str, int, int]] | str:
    """(text, line, column) of each token by a character loop, or the error message."""
    toks, i, line, col, n = [], 0, 1, 1, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                return f"line {line}, col {col}: unterminated comment"
            skipped = text[i : end + 2]
            line += skipped.count("\n")
            col = len(skipped) - skipped.rfind("\n") if "\n" in skipped else col + len(skipped)
            i = end + 2
        elif c == '"':
            end = text.find('"', i + 1)
            if end < 0 or "\n" in text[i + 1 : end]:
                return f"line {line}, col {col}: unterminated string"
            toks.append((text[i : end + 1], line, col))
            col += end + 1 - i
            i = end + 1
        elif c in "{}()[]|,;":
            toks.append((c, line, col))
            i, col = i + 1, col + 1
        elif c.isalnum() or c in "_.+-":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_.+-"):
                i += 1
            toks.append((text[start:i], line, col))
            col += i - start
        else:
            return f"line {line}, col {col}: unexpected character {c!r}"
    return toks


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(list(' \t\r\n/*"{}()[]|,;_.+-aZ09\u00e9\u0663\u00b2@\x0c#')), max_size=40))
@example('a "b c" // d')
@example("a /* b */")
def test_tokenizer_matches_a_character_loop(text):
    # Tokens (a string with its quotes), the line and column an error at
    # each token names, the end-of-input position, and every tokenizer error.
    try:
        toks = bif._tokenize(text)
    except ParseError as exc:
        assert str(exc) == _reference_tokens(text)
        return
    reference = _reference_tokens(text)
    cur = bif._Cursor(text)
    got = []
    for i, tok in enumerate(toks):
        cur.i = i
        got.append((tok, str(cur.error("x"))))
    assert got == [(t, f"line {line}, col {col}: x") for t, line, col in reference]
    cur.i = len(toks)
    at_end = "line 1, col 1: x" if not toks else got[-1][1]
    assert str(cur.error("x")) == f"{at_end} (at end of input)"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("variable B {", "variable A {", 1), "declared twice"),
        (lambda t: t.replace("[ 2 ] { yes, no }", "[ 3 ] { yes, no }", 1), "declares 3 states"),
        (lambda t: t.replace("type discrete [ 2 ] { yes, no };", "", 1), "no type declaration"),
        (lambda t: t.replace("probability ( A )", "probability ( Z )", 1), "undeclared variable"),
        (lambda t: t.replace("( B | A )", "( B | Z )", 1), "undeclared parent"),
        (lambda t: t + "probability ( A ) {\n  table 0.5, 0.5;\n}\n", "duplicate probability"),
        (lambda t: t.replace("( yes ) 0.2", "( yes, yes ) 0.2", 1), "names 2 parent states"),
        (lambda t: t.replace("( yes ) 0.2", "( maybe ) 0.2", 1), "not a state"),
        (lambda t: t.replace("( yes ) 0.2", "( no ) 0.2", 1), "given twice"),
        (lambda t: t.replace("0.2, 0.5, 0.3;", "0.2, 0.8;", 1), "has 2 entries, expected 3"),
        (lambda t: t.replace("( no ) 0.6, 0.1, 0.3; /* rows may appear in any order */", "", 1), "missing row 1"),
        (lambda t: t.replace(", 0.5, 0.25, 0.75", "", 1), "9 entries, expected 12"),
        (lambda t: t.replace("probability ( A ) {\n  table 0.3, 0.7;\n}\n", "", 1), "no probability block"),
        (lambda t: t.replace("network mini {", "network mini {\n  variable X", 1), "in network block"),
        (lambda t: t + "rubbish\n", "expected 'variable' or 'probability'"),
        (lambda t: t.replace("( B | A )", "( B | A, C )", 1) if False else t.replace("( B | A )", "( B | C )", 1).replace("( no ) 0.6, 0.1, 0.3; /* rows may appear in any order */\n  ( yes ) 0.2, 0.5, 0.3;", "( t ) 0.6, 0.1, 0.3;\n  ( f ) 0.2, 0.5, 0.3;", 1).replace("( C | B, A )", "( C | B )", 1).replace("table 0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.5, 0.25, 0.75;", "table 0.1, 0.9, 0.2, 0.8, 0.3, 0.7;", 1), "cycle"),
        (lambda t: t.rstrip()[:-1], "end of input"),
        (lambda t: t + "/* dangling", "unterminated comment"),
        (lambda t: t.replace("network mini", 'network "mini', 1), "unterminated string"),
        (lambda t: t.replace("network mini", "network mini @", 1), "unexpected character '@'"),
        (lambda t: t.replace("{ yes, no };", "{ yes, no }", 1), "line 6, col 1: expected ';', got '}'"),
        (lambda t: t.replace("variable A {", "variable A {\n  colour red;", 1), "unexpected 'colour' in variable block"),
    ],
)
def test_parse_error_cases(mangle, message):
    with pytest.raises(ParseError, match=message):
        parse_bif(mangle(MINI))


@pytest.mark.parametrize("count", ["nan", "1e400", "-inf", "2.5", '"2.5"'])
def test_a_state_count_must_be_a_whole_number(count):
    # Once cast to int: NaN failed without a position, 1e400 overflowed and
    # 2.5 was cut to the two listed states.
    text = MINI.replace("[ 2 ] { yes, no }", f"[ {count} ] {{ yes, no }}", 1)
    message = f"line 5, col 19: expected a whole number of states, got '{count}'"
    for parse in (parse_bif, reference_parse_bif):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text)
    assert parse_bif(MINI.replace("[ 2 ]", "[ 2.0 ]", 1)).states == parse_bif(MINI).states


@pytest.mark.parametrize(
    "old, new, at",
    [
        ("table 0.3, 0.7;", "table 0.5, 0.5;\n  table 0.9, 0.1;", "line 15, col 3: 'A'"),
        ("( yes ) 0.2, 0.5, 0.3;", "( yes ) 0.2, 0.5, 0.3;\n  table 0.6, 0.1, 0.3, 0.2, 0.5, 0.3;",
         "line 19, col 3: 'B'"),
    ],
)
def test_a_table_after_a_table_or_row_is_refused(old, new, at):
    # Both used to replace every earlier value silently.
    text = MINI.replace(old, new, 1)
    for parse in (parse_bif, reference_parse_bif):
        with pytest.raises(ParseError, match=re.escape(f"{at} table follows an earlier table or row")):
            parse(text)


def test_non_discrete_variable_is_unsupported():
    bad = MINI.replace("type discrete [ 2 ] { yes, no }", "type continuous [ 2 ] { yes, no }", 1)
    with pytest.raises(UnsupportedConstruct, match="only discrete"):
        parse_bif(bad)


def test_row_sum_outside_tolerance_is_rejected():
    bad = MINI.replace("table 0.3, 0.7;", "table 0.3, 0.6;")
    with pytest.raises(NormalizationError, match=r"A: row 0 sums to 0.9"):
        parse_bif(bad)


def test_negative_entry_is_rejected():
    bad = MINI.replace("table 0.3, 0.7;", "table 1.1, -0.1;")
    with pytest.raises(NormalizationError, match="negative probability"):
        parse_bif(bad)


def test_a_quoted_string_is_never_punctuation():
    # A quoted ';' inside a skipped statement no longer ends it early.
    text = MINI.replace("variable A {", 'variable A {\n  property ";" ;', 1)
    with pytest.warns(UserWarning, match="ignoring property statement in variable A"):
        net = parse_bif(text)
    assert net.states == parse_bif(MINI).states
    # Nor does a quoted comma separate, or a quoted brace close, a list.
    with pytest.raises(ParseError, match=r"line 5, col 29: expected '\}', got '\",\"'"):
        parse_bif(MINI.replace("{ yes, no }", '{ yes "," no }', 1))
    with pytest.raises(ParseError, match=r"expected 'variable' or 'probability', got '\"variable\"'"):
        parse_bif(MINI.replace("variable B", '"variable" B', 1))


def test_quoted_names_and_numbers_parse_as_bare_ones():
    keywords = {"network", "variable", "probability", "type", "discrete", "table"}
    quoted = re.sub(r"[\w.+-]+", lambda m: m[0] if m[0] in keywords else f'"{m[0]}"', MINI)
    assert quoted.count('"') > 80
    _assert_same_network(parse_bif(quoted), parse_bif(MINI))


def _assert_same_network(got: ParsedNetwork, want: ParsedNetwork) -> None:
    """Name, states, structure and every CPT bit."""
    assert (got.name, got.states, got.model.nodes) == (want.name, want.states, want.model.nodes)
    assert (got.model.cards, got.model.parents) == (want.model.cards, want.model.parents)
    for x in want.model.nodes:
        a, b = got.model.cpts[x], want.model.cpts[x]
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def _outcome(parse, text: str):
    """The network ``parse`` makes of ``text`` with the warnings it gives, or
    the class and message of what it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = parse(text)
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            return type(exc), str(exc)
    return net, [str(w.message) for w in caught]


LIVER = serialize_bif(ParsedNetwork(name="liver", model=liver_network(), states=network_states()))
# What a mangling puts in: comments, strings (of punctuation too), bad
# characters, punctuation, keywords, numbers and state labels.
INSERTS = [
    "/* c */", "// c\n", '"s"', '";"', '","', '")"', '"0.5"', '"yes"', "@", "\x0c", '"', "/*", "/",
    "(", ")", "{", "}", "[", "]", "|", ",", ";", "property", "table", "variable", "probability",
    "type", "discrete", "0.5", "1", "-0.1", "nan", "inf", "1e400", "yes", "no", "lo", "present", "absent",
]


def _spread(n: int):
    """An index below ``n``; bounded integers would crowd the first few."""
    return st.integers(0, 2**64 - 1).map(lambda r: r % n)


@st.composite
def _mangled(draw):
    text = draw(st.sampled_from([MINI, LIVER]))
    spans = [(m.start(1), m.end(1)) for m in bif._TOKEN.finditer(text) if m[1]]
    numbers = [k for k, (start, end) in enumerate(spans) if text[start].isdigit()]
    ops = st.sampled_from(["delete", "duplicate", "repeat", "replace", "neighbour", "insert"])
    edits = st.tuples(ops, _spread(len(spans) - 1).map(lambda k: k + 1))
    # A number moved within ROW_TOL keeps the text parsing and is
    # renormalized; one moved further, or below zero, fails normalization.
    nudges = st.tuples(st.just("nudge"), _spread(len(numbers)).map(numbers.__getitem__))
    picks = draw(st.lists(edits | nudges, min_size=1, max_size=3, unique_by=lambda pick: pick[1]))
    # Right to left, so the offsets of the tokens still to mangle hold.
    for op, k in sorted(picks, key=lambda pick: -pick[1]):
        start, end = spans[k]
        other = draw(st.sampled_from(INSERTS) | st.sampled_from(spans).map(lambda sp: text[sp[0] : sp[1]])
                     | st.floats(-0.1, 1.1).map(repr))
        if op == "nudge":
            other = repr(float(text[start:end]) + draw(st.floats(-3e-7, 3e-7) | st.floats(-1.0, 0.1)))
        elif op == "neighbour":  # say, a comma between two numbers turned into a number
            other = text[spans[k - 1][0] : spans[k - 1][1]]
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + " " + text[start:end] + text[end:]
        elif op == "repeat":  # the statement around this token twice, a row say
            begin = max(text.rfind(c, 0, start) for c in ";{}") + 1
            stop = text.find(";", start) + 1 or len(text)
            text = text[:stop] + " " + text[begin:stop] + text[stop:]
        elif op == "insert":
            text = text[:start] + other + " " + text[start:]
        else:
            text = text[:start] + other + text[end:]
    return text


@settings(max_examples=300, deadline=None)
@given(_mangled())
@example(MINI)
@example(LIVER)
def test_parser_matches_the_token_by_token_reference(text):
    # The slicing parser and the cursor reference return the same network
    # bit for bit and warn alike, or raise the same class with one message.
    got, want = _outcome(parse_bif, text), _outcome(reference_parse_bif, text)
    if isinstance(want[0], ParsedNetwork) and isinstance(got[0], ParsedNetwork):
        _assert_same_network(got[0], want[0])
        assert got[1] == want[1]
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_instances_round_trip(seed):
    model = random_instance(np.random.default_rng(seed)).model
    states = {x: tuple(f"{x.lower()}{v}" for v in range(model.cards[x])) for x in model.nodes}
    text = serialize_bif(ParsedNetwork(name="random", model=model, states=states))
    back = parse_bif(text)
    _assert_same_network(back, reference_parse_bif(text))
    assert back.states == states
    assert back.model.parents == model.parents
    for x in model.nodes:
        np.testing.assert_allclose(back.model.cpts[x], model.cpts[x], rtol=1e-12, atol=0)
