"""Concrete syntax for formulas and interpretations.

Formula grammar, tightest first: atoms, then !, then &, then quantifiers,
whose scope extends as far right as possible.

    formula := 'ex1' ident '.' formula
             | 'ex2' ident '.' formula
             | conjunct
    conjunct := unary ('&' formula)?
    unary := '!' unary | '(' formula ')' | atom
    atom := ident '<' ident | ident 'sub' ident | ident 'in' ident

Identifiers starting with a lowercase letter are first order (positions),
all others second order (sets).  A formula that mentions any first order
variable or ex1 parses into the full syntax, where only 'x < y' and
'x in X' atoms are legal; otherwise it parses into the minimal syntax,
where 'X < Y' and 'X sub Y' are the atoms.  The two families of atoms do
not mix.  The parser picks the syntax from the tokens first, then builds
the tree with an explicit stack in place of the grammar's recursion, so
nesting depth is unlimited.

Interpretations are given line by line:

    X = 101 | 0     # set variable: prefix bits, then period bits
    x = 3           # position variable

Comments run from '#' to the end of the line in both formats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .logic import (
    And,
    Ex2,
    FoAnd,
    FoEx1,
    FoEx2,
    FoIn,
    FoLess,
    FoNot,
    FullFormula,
    Incl,
    Less,
    MinFormula,
    Not,
    UpInterpretation,
    _fold,
)
from .semigroup import UpWord


class ParseError(ValueError):
    """A formula or interpretation that does not parse.  The message starts
    with the 1-based line and column of the fault in the text; position is
    its offset there."""

    def __init__(self, message: str, text: str, position: int):
        line = text.count("\n", 0, position) + 1
        column = position - text.rfind("\n", 0, position)
        super().__init__(
            f"line {line}, column {column}: {message} (at offset {position})"
        )
        self.position = position


_SKIP_RE = re.compile(r"(?:\s|#[^\n]*)*")
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|[<&!().]")
_KEYWORDS = {"ex1", "ex2", "sub", "in"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, word, offset) per token, then an end token; whitespace and
    comments are skipped in place, so offsets index the original text."""
    tokens = []
    pos = _SKIP_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        word = m.group()
        kind = "ident" if m.group(1) and word not in _KEYWORDS else word
        tokens.append((kind, word, pos))
        pos = _SKIP_RE.match(text, m.end()).end()
    tokens.append(("end", "", len(text)))
    return tokens


def _is_first_order(name: str) -> bool:
    return name[0].islower()


@dataclass(frozen=True)
class ParsedFormula:
    """Parse result: the formula plus every identifier seen, bound or free,
    in order of first appearance."""

    formula: MinFormula | FullFormula
    first_order: tuple[str, ...]
    second_order: tuple[str, ...]

    @property
    def is_full(self) -> bool:
        return bool(self.first_order)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.first_order + self.second_order


def _min_atom(text: str, op: str, left: str, right: str, pos: int) -> MinFormula:
    if op == "<":
        return Less(left, right)
    if op == "sub":
        return Incl(left, right)
    raise ParseError("'in' atoms need a first order left side", text, pos)


def _full_atom(text: str, op: str, left: str, right: str, pos: int) -> FullFormula:
    lf, rf = _is_first_order(left), _is_first_order(right)
    if op == "<":
        if lf and rf:
            return FoLess(left, right)
        if not lf and not rf:
            raise ParseError(
                "second order ordering cannot mix with first order syntax", text, pos
            )
        raise ParseError("ordering needs two variables of the same sort", text, pos)
    if op == "sub":
        raise ParseError(
            "inclusion atoms belong to the purely second order syntax", text, pos
        )
    if not lf or rf:
        raise ParseError(
            "'in' needs a position on the left and a set on the right", text, pos
        )
    return FoIn(left, right)


# per syntax, the atom maker and the constructor of each pending marker
_MIN_SYNTAX = (_min_atom, {"!": Not, "&": And, "ex2": Ex2})
_FULL_SYNTAX = (_full_atom, {"!": FoNot, "&": FoAnd, "ex1": FoEx1, "ex2": FoEx2})


def parse_formula(text: str) -> ParsedFormula:
    """Parse into the full syntax when a first order identifier or ex1
    occurs anywhere in text, into the minimal syntax otherwise.

    The stack holds the pending markers: '!' and '(' as read, '&' with
    its left conjunct, each quantifier with its variable.  A complete unary
    takes the '!'s on top; unless '&' follows, it also ends every conjunct
    and quantifier scope back to the innermost '(', which must then close."""
    tokens = _tokenize(text)
    names = dict.fromkeys(word for kind, word, _ in tokens if kind == "ident")
    fo = tuple(name for name in names if _is_first_order(name))
    so = tuple(name for name in names if not _is_first_order(name))
    full = fo or any(kind == "ex1" for kind, _, _ in tokens)
    atom, make = _FULL_SYNTAX if full else _MIN_SYNTAX
    pending: list[tuple[str, object]] = []
    at_formula = True  # quantifiers may start here, not after '!'
    i = 0

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal i
        tok = tokens[i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", text, tok[2])
        i += 1
        return tok

    while True:
        kind, word, pos = tokens[i]
        i += 1
        if kind in ("ex1", "ex2") and at_formula:
            _, name, npos = take("ident")
            if (kind == "ex1") != _is_first_order(name):
                order = "first" if kind == "ex1" else "second"
                raise ParseError(
                    f"{kind} needs a {order} order variable, not {name}", text, npos
                )
            take(".")
            pending.append((kind, name))
            continue
        if kind in ("!", "("):
            pending.append((kind, None))
            at_formula = kind == "("
            continue
        if kind != "ident":
            raise ParseError(f"expected a formula, found {word!r}", text, pos)
        op, opword, oppos = tokens[i]
        if op not in ("<", "sub", "in"):
            raise ParseError(
                f"expected an atom operator after {word}, found {opword!r}", text, oppos
            )
        i += 1
        node = atom(text, op, word, take("ident")[1], oppos)
        while True:
            while pending and pending[-1][0] == "!":
                node = make[pending.pop()[0]](node)
            if tokens[i][0] == "&":
                i += 1
                pending.append(("&", node))
                at_formula = True
                break
            while pending and pending[-1][0] != "(":
                tag, arg = pending.pop()
                node = make[tag](arg, node)
            if not pending:
                take("end")
                return ParsedFormula(node, fo, so)
            take(")")
            pending.pop()


# -- printing ---------------------------------------------------------------------


def _render(node, names, args) -> str:
    # one node's text from its names and its subformulas' texts, which
    # appear in order, each whole, between fixed strings
    if isinstance(node, (Less, FoLess)):
        return f"{names[0]} < {names[1]}"
    if isinstance(node, Incl):
        return f"{names[0]} sub {names[1]}"
    if isinstance(node, FoIn):
        return f"{names[0]} in {names[1]}"
    if isinstance(node, (And, FoAnd)):
        # the left side of & must not swallow the &: parenthesize
        # quantifiers and conjunctions there
        if isinstance(node.left, (And, FoAnd, Ex2, FoEx1, FoEx2)):
            return f"({args[0]}) & {args[1]}"
        return f"{args[0]} & {args[1]}"
    if isinstance(node, (Not, FoNot)):
        if isinstance(node.sub, (Less, Incl, FoLess, FoIn, Not, FoNot)):
            return "!" + args[0]
        return f"!({args[0]})"
    quantifier = "ex1" if isinstance(node, FoEx1) else "ex2"
    return f"{quantifier} {names[0]}. {args[0]}"


def format_formula(phi: MinFormula | FullFormula) -> str:
    """Surface rendering; parses back to the same tree."""
    return _fold(phi, None, _render)


def format_heads(phi: MinFormula | FullFormula, width: int) -> dict[int, str]:
    """The first width characters of format_formula(node) for every node
    of phi, keyed by id(node).

    A node's text holds its subformulas' texts whole and in order, so its
    first width characters depend only on the first width characters of
    each of them.  One fold keeping that much per node costs O(width) a
    node, where rendering every subtree in full costs the square of the
    depth."""
    heads: dict[int, str] = {}

    def step(node, names, args) -> str:
        text = heads[id(node)] = _render(node, names, args)[:width]
        return text

    _fold(phi, None, step)
    return heads


# -- interpretations ----------------------------------------------------------------


_ASSIGN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*?)\s*")


def _parse_bits(part: str, text: str, position: int) -> tuple[int, ...]:
    bits = part.replace(" ", "").replace("\t", "")
    if not bits or any(ch not in "01" for ch in bits):
        at = position + len(part) - len(part.lstrip())
        raise ParseError(f"expected a nonempty bit string, found {part.strip()!r}", text, at)
    return tuple(int(ch) for ch in bits)


def parse_interpretation(text: str) -> UpInterpretation:
    sets: dict[str, UpWord] = {}
    nums: dict[str, int] = {}
    end = 0
    for raw in text.splitlines(keepends=True):
        start, end = end, end + len(raw)
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _ASSIGN_RE.fullmatch(line)
        if m is None:
            at = start + len(line) - len(line.lstrip())
            raise ParseError(f"expected 'name = value', found {line.strip()!r}", text, at)
        name, value = m.group(1), m.group(2)
        at = start + m.start(2)
        if name in sets or name in nums:
            raise ParseError(f"variable {name} assigned twice", text, start + m.start(1))
        if "|" in value:
            if _is_first_order(name):
                raise ParseError(f"position variable {name} cannot hold a set", text, at)
            bar = value.index("|")
            sets[name] = UpWord(
                _parse_bits(value[:bar], text, at),
                _parse_bits(value[bar + 1 :], text, at + bar + 1),
            )
            continue
        if not _is_first_order(name):
            raise ParseError(f"set variable {name} needs 'bits | bits'", text, at)
        try:
            nums[name] = int(value)
        except ValueError:
            raise ParseError(
                f"expected a number for {name}, found {value!r}", text, at
            ) from None
        if nums[name] < 0:
            raise ParseError(f"positions are nonnegative, got {value}", text, at)
    return UpInterpretation(sets=sets, nums=nums)


def normalize_up_bits(word: UpWord) -> UpWord:
    """Canonical shape for printing: the period is primitive and the prefix
    does not end with a tail the period could absorb."""
    period = list(word.period)
    for d in range(1, len(period)):
        if len(period) % d == 0 and period == period[:d] * (len(period) // d):
            period = period[:d]
            break
    prefix = list(word.prefix)
    while len(prefix) > 1 and prefix[-1] == period[-1]:
        prefix.pop()
        period = period[-1:] + period[:-1]
    return UpWord(tuple(prefix), tuple(period))


def format_interpretation(interp: UpInterpretation) -> str:
    lines = []
    for name in sorted(set(interp.sets) | set(interp.nums)):
        if name in interp.sets:
            w = normalize_up_bits(interp.sets[name])
            pre = "".join(str(b) for b in w.prefix)
            per = "".join(str(b) for b in w.period)
            lines.append(f"{name} = {pre} | {per}")
        else:
            lines.append(f"{name} = {interp.nums[name]}")
    return "\n".join(lines) + ("\n" if lines else "")
