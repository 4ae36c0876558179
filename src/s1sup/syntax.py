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
not mix.

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
)
from .semigroup import UpWord


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([<&!().])|(\S))")
_KEYWORDS = {"ex1", "ex2", "sub", "in"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = []
    pos = 0
    while pos < len(body):
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            break
        if m.group(3):
            raise ParseError(f"unexpected character {m.group(3)!r}", m.start(3))
        if m.group(1):
            word = m.group(1)
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, m.start(1)))
        else:
            tokens.append((m.group(2), m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(("end", "", len(body)))
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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.fo: list[str] = []
        self.so: list[str] = []
        self.saw_ex1 = False

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def record(self, name: str):
        pool = self.fo if _is_first_order(name) else self.so
        if name not in pool:
            pool.append(name)

    def formula(self):
        kind, word, pos = self.peek()
        if kind in ("ex1", "ex2"):
            self.take()
            _, name, npos = self.take("ident")
            if kind == "ex1" and not _is_first_order(name):
                raise ParseError(f"ex1 needs a first order variable, not {name}", npos)
            if kind == "ex2" and _is_first_order(name):
                raise ParseError(f"ex2 needs a second order variable, not {name}", npos)
            self.record(name)
            if kind == "ex1":
                self.saw_ex1 = True
            self.take(".")
            return (kind, name, self.formula())
        return self.conjunct()

    def conjunct(self):
        left = self.unary()
        if self.peek()[0] == "&":
            self.take()
            return ("and", left, self.formula())
        return left

    def unary(self):
        kind, word, pos = self.peek()
        if kind == "!":
            self.take()
            return ("not", self.unary())
        if kind == "(":
            self.take()
            inner = self.formula()
            self.take(")")
            return inner
        if kind == "ident":
            self.take()
            self.record(word)
            op, opword, oppos = self.take()
            if op not in ("<", "sub", "in"):
                raise ParseError(
                    f"expected an atom operator after {word}, found {opword!r}", oppos
                )
            _, right, rpos = self.take("ident")
            self.record(right)
            return ("atom", op, word, right, oppos)
        raise ParseError(f"expected a formula, found {word!r}", pos)


def _to_min(tree) -> MinFormula:
    tag = tree[0]
    if tag == "atom":
        _, op, left, right, pos = tree
        if op == "<":
            return Less(left, right)
        if op == "sub":
            return Incl(left, right)
        raise ParseError("'in' atoms need a first order left side", pos)
    if tag == "and":
        return And(_to_min(tree[1]), _to_min(tree[2]))
    if tag == "not":
        return Not(_to_min(tree[1]))
    if tag == "ex2":
        return Ex2(tree[1], _to_min(tree[2]))
    raise AssertionError(tag)


def _to_full(tree) -> FullFormula:
    tag = tree[0]
    if tag == "atom":
        _, op, left, right, pos = tree
        lf, rf = _is_first_order(left), _is_first_order(right)
        if op == "<":
            if lf and rf:
                return FoLess(left, right)
            if not lf and not rf:
                raise ParseError(
                    "second order ordering cannot mix with first order syntax", pos
                )
            raise ParseError("ordering needs two variables of the same sort", pos)
        if op == "sub":
            raise ParseError(
                "inclusion atoms belong to the purely second order syntax", pos
            )
        if not lf or rf:
            raise ParseError("'in' needs a position on the left and a set on the right", pos)
        return FoIn(left, right)
    if tag == "and":
        return FoAnd(_to_full(tree[1]), _to_full(tree[2]))
    if tag == "not":
        return FoNot(_to_full(tree[1]))
    if tag == "ex1":
        return FoEx1(tree[1], _to_full(tree[2]))
    if tag == "ex2":
        return FoEx2(tree[1], _to_full(tree[2]))
    raise AssertionError(tag)


def parse_formula(text: str) -> ParsedFormula:
    parser = _Parser(_tokenize(text))
    tree = parser.formula()
    parser.take("end")
    full = bool(parser.fo) or parser.saw_ex1
    if full:
        formula: MinFormula | FullFormula = _to_full(tree)
    else:
        formula = _to_min(tree)
    return ParsedFormula(formula, tuple(parser.fo), tuple(parser.so))


# -- printing ---------------------------------------------------------------------


def format_formula(phi: MinFormula | FullFormula) -> str:
    """Surface rendering; parses back to the same tree."""

    def wrap_and_left(node) -> str:
        # left side of & must not swallow the &: parenthesize quantifiers
        # and conjunctions
        if isinstance(node, (And, FoAnd, Ex2, FoEx1, FoEx2)):
            return "(" + render(node) + ")"
        return render(node)

    def wrap_unary(node) -> str:
        if isinstance(node, (Less, Incl, FoLess, FoIn, Not, FoNot)):
            return render(node)
        return "(" + render(node) + ")"

    def render(node) -> str:
        if isinstance(node, Less) or isinstance(node, FoLess):
            return f"{node.left} < {node.right}"
        if isinstance(node, Incl):
            return f"{node.left} sub {node.right}"
        if isinstance(node, FoIn):
            return f"{node.elem} in {node.container}"
        if isinstance(node, (And, FoAnd)):
            return f"{wrap_and_left(node.left)} & {render(node.right)}"
        if isinstance(node, (Not, FoNot)):
            return "!" + wrap_unary(node.sub)
        if isinstance(node, Ex2) or isinstance(node, FoEx2):
            return f"ex2 {node.var}. {render(node.sub)}"
        if isinstance(node, FoEx1):
            return f"ex1 {node.var}. {render(node.sub)}"
        raise TypeError(f"not a formula: {node!r}")

    return render(phi)


# -- interpretations ----------------------------------------------------------------


def _parse_bits(part: str, position: int) -> tuple[int, ...]:
    bits = part.replace(" ", "").replace("\t", "")
    if not bits or any(ch not in "01" for ch in bits):
        raise ParseError(f"expected a nonempty bit string, found {part.strip()!r}", position)
    return tuple(int(ch) for ch in bits)


def parse_interpretation(text: str) -> UpInterpretation:
    sets: dict[str, UpWord] = {}
    nums: dict[str, int] = {}
    offset = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)", line)
            if m is None:
                raise ParseError(f"expected 'name = value', found {line!r}", offset)
            name, value = m.group(1), m.group(2).strip()
            if name in sets or name in nums:
                raise ParseError(f"variable {name} assigned twice", offset)
            if "|" in value:
                if _is_first_order(name):
                    raise ParseError(
                        f"position variable {name} cannot hold a set", offset
                    )
                pre, _, per = value.partition("|")
                sets[name] = UpWord(
                    _parse_bits(pre, offset), _parse_bits(per, offset)
                )
            else:
                if not _is_first_order(name):
                    raise ParseError(f"set variable {name} needs 'bits | bits'", offset)
                try:
                    nums[name] = int(value)
                except ValueError:
                    raise ParseError(
                        f"expected a number for {name}, found {value!r}", offset
                    ) from None
                if nums[name] < 0:
                    raise ParseError(f"positions are nonnegative, got {value}", offset)
        offset += len(raw) + 1
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
