"""Reading and writing discrete Bayesian networks in the BIF interchange format.

Only the discrete subset is supported: ``network``, ``variable`` blocks with
``type discrete`` state lists, and ``probability`` blocks with either a
``table`` statement (row-major over the parent tuple, child states fastest)
or one parenthesized parent-state row per line.  ``property`` statements are
skipped with a warning.  Rows must sum to one within ``ROW_TOL`` and are
renormalized exactly on ingest.
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

# One alternative per token kind, tried in order at each offset: blanks and
# comments, a string, one punctuation mark, a word, else one bad character.
# ``\w`` is exactly ``str.isalnum()`` plus ``_``.
_TOKEN = re.compile(
    r'(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)|"(?P<string>[^"\n]*)"'
    r"|(?P<word>[{}()\[\]|,;]|[\w.+-]+)|(?P<bad>.)",
    re.DOTALL,
)


@dataclass
class ParsedNetwork:
    """A network skeleton: structure, tables and state labels, no designations."""

    name: str
    model: CausalModel
    states: dict[str, tuple[str, ...]]


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and their offsets in ``text``; a string token is its contents."""
    toks: list[str] = []
    offsets: list[int] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad":
            c = m.group(kind)
            if c == '"':
                msg = "unterminated string"
            elif text.startswith("/*", m.start()):
                msg = "unterminated comment"
            else:
                msg = f"unexpected character {c!r}"
            raise _error(text, m.start(), msg)
        toks.append(m.group(kind))
        offsets.append(m.start())
    return toks, offsets


def _error(text: str, offset: int, msg: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(f"line {line}, col {col}: {msg}")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.offsets = _tokenize(text)
        self.i = 0

    def error(self, msg: str) -> ParseError:
        if self.i < len(self.toks):
            return _error(self.text, self.offsets[self.i], msg)
        return _error(self.text, self.offsets[-1] if self.toks else 0, f"{msg} (at end of input)")

    @property
    def done(self) -> bool:
        return self.i >= len(self.toks)

    def peek(self) -> str:
        if self.done:
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

    def skip_statement(self) -> None:
        """Consume through the closing ';' (for ignored constructs)."""
        while self.next() != ";":
            pass


def _skip_property(cur: _Cursor, where: str) -> None:
    warnings.warn(f"ignoring property statement in {where}", stacklevel=3)
    cur.skip_statement()


def _parse_float(cur: _Cursor) -> float:
    tok = cur.peek()
    try:
        val = float(tok)
    except ValueError:
        raise cur.error(f"expected a number, got {tok!r}") from None
    cur.i += 1
    return val


def _comma_list(cur: _Cursor, read=_Cursor.next) -> list:
    """One or more items, each taken by ``read``, separated by commas."""
    vals = [read(cur)]
    while cur.peek() == ",":
        cur.next()
        vals.append(read(cur))
    return vals


def _parse_variable(cur: _Cursor, states: dict[str, tuple[str, ...]]) -> None:
    name = cur.next()
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
        count = int(_parse_float(cur))
        cur.expect("]")
        cur.expect("{")
        vals = _comma_list(cur)
        cur.expect("}")
        cur.expect(";")
        if len(vals) != count:
            raise cur.error(f"variable {name!r} declares {count} states but lists {len(vals)}")
        found = tuple(vals)
    cur.expect("}")
    if found is None:
        raise cur.error(f"variable {name!r} has no type declaration")
    states[name] = found


def _row_tuple(cur: _Cursor) -> tuple[str, ...]:
    cur.expect("(")
    vals = _comma_list(cur)
    cur.expect(")")
    return tuple(vals)


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
    child = cur.next()
    ps: tuple[str, ...] = ()
    if cur.peek() == "|":
        cur.next()
        ps = tuple(_comma_list(cur))
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

    table = np.full((n_rows, card), np.nan)
    cur.expect("{")
    while cur.peek() != "}":
        if cur.peek() == "property":
            cur.next()
            _skip_property(cur, f"probability {child}")
            continue
        if cur.peek() == "table":
            cur.next()
            vals = _comma_list(cur, _parse_float)
            cur.expect(";")
            if len(vals) != n_rows * card:
                raise cur.error(
                    f"{child!r} table has {len(vals)} entries, expected {n_rows * card}"
                )
            table = np.asarray(vals).reshape(n_rows, card)
            continue
        key = _row_tuple(cur)
        if len(key) != len(ps):
            raise cur.error(f"{child!r} row names {len(key)} parent states, expected {len(ps)}")
        idx = 0
        for val, p, st in zip(key, ps, strides):
            if val not in states[p]:
                raise cur.error(f"{val!r} is not a state of parent {p!r}")
            idx += states[p].index(val) * st
        if not np.isnan(table[idx]).all():
            raise cur.error(f"{child!r} row {key} given twice")
        vals = _comma_list(cur, _parse_float)
        cur.expect(";")
        if len(vals) != card:
            raise cur.error(f"{child!r} row {key} has {len(vals)} entries, expected {card}")
        table[idx] = vals
    cur.expect("}")

    if np.isnan(table).any():
        missing = int(np.flatnonzero(np.isnan(table).any(axis=1))[0])
        raise cur.error(f"{child!r} is missing row {missing}")
    parents[child] = tuple(ps)
    cpts[child] = _normalize_rows(child, table)


def parse_bif(text: str) -> ParsedNetwork:
    """Parse BIF text into a network skeleton.

    Raises ParseError (with line and column), NormalizationError for rows off
    by more than ``ROW_TOL``, and UnsupportedConstruct for non-discrete
    variables.
    """
    cur = _Cursor(text)
    cur.expect("network")
    name = cur.next()
    cur.expect("{")
    while cur.peek() != "}":
        if cur.peek() == "property":
            cur.next()
            _skip_property(cur, "network block")
        else:
            raise cur.error(f"unexpected {cur.peek()!r} in network block")
    cur.expect("}")

    states: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, np.ndarray] = {}
    while not cur.done:
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
