"""Reading and writing discrete Bayesian networks in the BIF interchange format.

Only the discrete subset is supported: ``network``, ``variable`` blocks with
``type discrete`` state lists, and ``probability`` blocks with either a
``table`` statement (row-major over the parent tuple, child states fastest)
or one parenthesized parent-state row per line.  ``property`` statements are
skipped with a warning.  Rows must sum to one within ``ROW_TOL`` and are
renormalized exactly on ingest.

The tokens come from one ``findall``; a token's line and column are worked
out only for an error.  A quoted string is only ever a name or a number.
Comma lists and parent-state rows are read by slicing up to their closing
token, and walked token by token only to name an error at its token.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ParseError, UnsupportedConstruct
from .model import CausalModel, decode_rows, radix_strides

__all__ = ["ParsedNetwork", "parse_bif", "serialize_bif", "ROW_TOL"]

ROW_TOL = 1e-6

# Blanks and comments, then a string (quotes kept), a punctuation mark, a word,
# else the text from a bad character on, else the end.  The group matches after
# any skip, so the skip never gives a character back.  ``\w`` is exactly
# ``str.isalnum()`` plus ``_``.
_TOKEN = re.compile(
    r'(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*("[^"\n]*"|[{}()\[\]|,;]|[\w.+-]+|.+|\Z)', re.DOTALL
)
_GOOD = re.compile(r'"[^"\n]*"|[{}()\[\]|,;]|[\w.+-]+')


@dataclass
class ParsedNetwork:
    """A network skeleton: structure, tables and state labels, no designations."""

    name: str
    model: CausalModel
    states: dict[str, tuple[str, ...]]


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``; a string token keeps its quotes."""
    toks = _TOKEN.findall(text)
    while toks and not toks[-1]:
        toks.pop()
    if toks and not _GOOD.fullmatch(toks[-1]):  # a bad character, and the rest of the text
        offset = len(text) - len(toks[-1])
        if text[offset] == '"':
            raise _error(text, offset, "unterminated string")
        if text.startswith("/*", offset):
            raise _error(text, offset, "unterminated comment")
        raise _error(text, offset, f"unexpected character {text[offset]!r}")
    return toks


def _error(text: str, offset: int, msg: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(f"line {line}, col {col}: {msg}")


def _name(tok: str) -> str:
    """A token read as a name or a number: a string's contents, else the token."""
    return tok[1:-1] if tok[0] == '"' else tok


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def error(self, msg: str) -> ParseError:
        at, n = self.i, len(self.toks)
        if at >= n:
            at, msg = n - 1, f"{msg} (at end of input)"
        offsets = [m.start(1) for m in _TOKEN.finditer(self.text)]
        return _error(self.text, offsets[at] if at >= 0 else 0, msg)

    def peek(self) -> str:
        if self.i >= len(self.toks):
            raise self.error("unexpected end of input")
        return self.toks[self.i]

    def next(self) -> str:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        got = self.peek()
        if got != text:
            raise self.error(f"expected {text!r}, got {got!r}")
        self.i += 1


def _skip_property(cur: _Cursor, where: str) -> None:
    """Warn, then consume through the statement's closing ';'."""
    warnings.warn(f"ignoring property statement in {where}", stacklevel=3)
    while cur.next() != ";":
        pass


def _parse_float(cur: _Cursor) -> float:
    tok = cur.peek()
    try:
        val = float(_name(tok))
    except ValueError:
        raise cur.error(f"expected a number, got {tok!r}") from None
    cur.i += 1
    return val


def _comma_list(cur: _Cursor, stop: str, number: bool = False) -> list:
    """Names (or numbers), any token each, between commas, then the token ``stop``:
    one slice when items and commas alternate up to the first ``stop``, else walked."""
    toks, i = cur.toks, cur.i
    try:
        j = toks.index(stop, i)
        if (j - i) % 2 and toks[i + 1 : j : 2].count(",") == (j - i) // 2:
            vals = list(map(float if number else _name, toks[i:j:2]))
            cur.i = j + 1
            return vals
    except ValueError:  # no ``stop`` ahead, or not a plain number
        pass
    read = _parse_float if number else lambda cur: _name(cur.next())
    vals = [read(cur)]
    while cur.peek() == ",":
        cur.i += 1
        vals.append(read(cur))
    cur.expect(stop)
    return vals


def _parse_variable(cur: _Cursor, states: dict[str, tuple[str, ...]]) -> None:
    name = _name(cur.next())
    if name in states:
        raise cur.error(f"variable {name!r} declared twice")
    cur.expect("{")
    found = None
    while cur.peek() != "}":
        head = cur.next()
        if head == "property":
            _skip_property(cur, f"variable {name}")
            continue
        if head != "type":
            raise cur.error(f"unexpected {head!r} in variable block")
        kind = cur.next()
        if kind != "discrete":
            raise UnsupportedConstruct(f"variable {name!r} has type {kind!r}; only discrete is supported")
        cur.expect("[")
        count = _parse_float(cur)
        if not count.is_integer():  # nor are NaN and +-inf
            cur.i -= 1
            raise cur.error(f"expected a whole number of states, got {cur.peek()!r}")
        cur.expect("]")
        cur.expect("{")
        vals = _comma_list(cur, "}")
        cur.expect(";")
        if len(vals) != count:
            raise cur.error(f"variable {name!r} declares {int(count)} states but lists {len(vals)}")
        found = tuple(vals)
    cur.expect("}")
    if found is None:
        raise cur.error(f"variable {name!r} has no type declaration")
    states[name] = found


def _normalize_rows(node: str, table: np.ndarray) -> np.ndarray:
    sums = table.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_TOL
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise NormalizationError(
            f"{node}: row {row} sums to {sums[row]:.8f}, outside 1 +/- {ROW_TOL}"
        )
    if np.any(table < 0.0):
        raise NormalizationError(f"{node}: negative probability entry")
    return table / sums[:, None]


def _parse_probability(
    cur: _Cursor,
    states: dict[str, tuple[str, ...]],
    parents: dict[str, tuple[str, ...]],
    cpts: dict[str, np.ndarray],
) -> None:
    cur.expect("(")
    child = _name(cur.next())
    ps: tuple[str, ...] = ()
    if cur.peek() == "|":
        cur.i += 1
        ps = tuple(_comma_list(cur, ")"))
    else:
        cur.expect(")")
    if child not in states:
        raise cur.error(f"probability block for undeclared variable {child!r}")
    if child in cpts:
        raise cur.error(f"duplicate probability block for {child!r}")
    for p in ps:
        if p not in states:
            raise cur.error(f"{child!r} lists undeclared parent {p!r}")

    card = len(states[child])
    cards = [len(states[p]) for p in ps]
    n_rows, strides = math.prod(cards), radix_strides(cards)
    # A plain row ``( k1 , .. , kp ) v1 , .. , vc ;`` is one slice: two list
    # compares check its punctuation, each label's first place gives its row.
    m, frame, tail = 2 * len(ps), ["(", *[","] * (len(ps) - 1), ")"], [","] * (card - 1) + [";"]
    place = [{s: k * st for k, s in reversed(list(enumerate(states[p])))} for p, st in zip(ps, strides)]
    # Each row's values once given; None, or all NaN, is a row not given yet.
    rows: list[list[float] | None] = [None] * n_rows
    toks = cur.toks
    cur.expect("{")
    while (head := cur.peek()) != "}":
        if head == "property":
            cur.i += 1
            _skip_property(cur, f"probability {child}")
            continue
        if head == "table":
            if any(row is not None for row in rows):
                raise cur.error(f"{child!r} table follows an earlier table or row")
            cur.i += 1
            vals = _comma_list(cur, ";", number=True)
            if len(vals) != n_rows * card:
                raise cur.error(
                    f"{child!r} table has {len(vals)} entries, expected {n_rows * card}"
                )
            rows = [vals[k : k + card] for k in range(0, len(vals), card)]
            continue
        stmt = toks[cur.i : cur.i + m + 2 * card + 1]
        if stmt[: m + 1 : 2] == frame and stmt[m + 2 :: 2] == tail:
            try:
                idx = sum(map(dict.__getitem__, place, stmt[1:m:2]))
                if rows[idx] is None:
                    rows[idx] = list(map(float, stmt[m + 1 :: 2]))
                    cur.i += len(stmt)
                    continue
            except (KeyError, ValueError):  # a quoted or unknown label, or not a plain number
                pass
        cur.expect("(")
        key = tuple(_comma_list(cur, ")"))
        if len(key) != len(ps):
            raise cur.error(f"{child!r} row names {len(key)} parent states, expected {len(ps)}")
        idx = 0
        for val, p, where in zip(key, ps, place):
            if val not in where:
                raise cur.error(f"{val!r} is not a state of parent {p!r}")
            idx += where[val]
        if rows[idx] is not None and not all(map(math.isnan, rows[idx])):
            raise cur.error(f"{child!r} row {key} given twice")
        vals = _comma_list(cur, ";", number=True)
        if len(vals) != card:
            raise cur.error(f"{child!r} row {key} has {len(vals)} entries, expected {card}")
        rows[idx] = vals
    cur.expect("}")

    table = np.array([[math.nan] * card if row is None else row for row in rows])
    missing = np.flatnonzero(np.isnan(table).any(axis=1))
    if missing.size:
        raise cur.error(f"{child!r} is missing row {missing[0]}")
    parents[child], cpts[child] = ps, _normalize_rows(child, table)


def parse_bif(text: str) -> ParsedNetwork:
    """Parse BIF text into a network skeleton.

    Raises ParseError (with line and column), NormalizationError for rows off
    by more than ``ROW_TOL``, and UnsupportedConstruct for non-discrete
    variables.
    """
    cur = _Cursor(text)
    cur.expect("network")
    name = _name(cur.next())
    cur.expect("{")
    while (head := cur.peek()) != "}":
        if head != "property":
            raise cur.error(f"unexpected {head!r} in network block")
        cur.i += 1
        _skip_property(cur, "network block")
    cur.expect("}")

    states: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, np.ndarray] = {}
    while cur.i < len(cur.toks):
        head = cur.next()
        if head == "variable":
            _parse_variable(cur, states)
        elif head == "probability":
            _parse_probability(cur, states, parents, cpts)
        elif head == "property":
            _skip_property(cur, "top level")
        else:
            cur.i -= 1
            raise cur.error(f"expected 'variable' or 'probability', got {head!r}")

    missing = [x for x in states if x not in cpts]
    if missing:
        raise ParseError(f"no probability block for variable {missing[0]!r}")

    model = CausalModel(
        nodes=tuple(states),
        cards={x: len(v) for x, v in states.items()},
        parents=parents,
        cpts=cpts,
        sensitive="",
        intervention="",
        target="",
        target_values=np.zeros(0),
    )
    try:
        model.topological_order()
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return ParsedNetwork(name=name, model=model, states=states)


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_bif(net: ParsedNetwork) -> str:
    """Emit BIF text that :func:`parse_bif` maps back to the same skeleton."""
    model = net.model
    out = [f"network {net.name} {{", "}"]
    for x in model.nodes:
        vals = ", ".join(net.states[x])
        out.append(f"variable {x} {{")
        out.append(f"  type discrete [ {model.cards[x]} ] {{ {vals} }};")
        out.append("}")
    for x in model.nodes:
        ps = model.parents[x]
        table = model.cpts[x]
        if not ps:
            out.append(f"probability ( {x} ) {{")
            out.append(f"  table {', '.join(_fmt(v) for v in table[0])};")
        else:
            out.append(f"probability ( {x} | {', '.join(ps)} ) {{")
            # Keyed by position, so a parent listed twice keeps both digits.
            keys = decode_rows(np.arange(table.shape[0]), range(len(ps)), model.parent_cards(x))
            for row in range(table.shape[0]):
                labels = [net.states[p][keys[i][row]] for i, p in enumerate(ps)]
                vals = ", ".join(_fmt(v) for v in table[row])
                out.append(f"  ( {', '.join(labels)} ) {vals};")
        out.append("}")
    return "\n".join(out) + "\n"
