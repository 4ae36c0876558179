"""Finite semigroups and ultimately periodic words.

Elements of a semigroup are the indices 0 .. size-1, multiplication is an
explicit table.  Finite words are nonempty tuples of elements.  An
ultimately periodic word (prefix, period) stands for the infinite sequence
prefix . period . period . ...  Both components are nonempty; the empty
prefix is represented by pushing one period copy into the prefix slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class AssociativityViolation(ValueError):
    """A multiplication table is not associative."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"(a.b).c != a.(b.c) for a={a} b={b} c={c}")
        self.triple = (a, b, c)


@dataclass(frozen=True)
class FiniteSemigroup:
    """Associative multiplication table over indices 0 .. size-1."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]


def new_semigroup(size: int, table: Sequence[Sequence[int]]) -> FiniteSemigroup:
    """Validate a table and freeze it.

    Raises AssociativityViolation with the first offending triple, scanned
    in lexicographic order, so the error is reproducible.
    """
    if size < 1:
        raise ValueError("semigroup needs at least one element")
    rows = tuple(tuple(row) for row in table)
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"table must be {size}x{size}")
    for row in rows:
        for v in row:
            if not (0 <= v < size):
                raise ValueError(f"table entry {v} out of range 0..{size - 1}")
    for a in range(size):
        for b in range(size):
            ab = rows[a][b]
            row_a = rows[a]
            for c in range(size):
                if rows[ab][c] != row_a[rows[b][c]]:
                    raise AssociativityViolation(a, b, c)
    return FiniteSemigroup(size, rows)


def col(g: FiniteSemigroup, word: Sequence[int]) -> int:
    """Color (product) of a nonempty finite word, folded left to right."""
    it = iter(word)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("color of the empty word is undefined") from None
    table = g.table
    for a in it:
        acc = table[acc][a]
    return acc


def idempotent_power(g: FiniteSemigroup, a: int) -> int:
    """Least n >= 1 such that the n-fold product of a is idempotent.

    Always at most g.size: the powers a, 2a, .. trace a rho shape whose
    tail cycle contains exactly one idempotent, reached within size steps.
    """
    acc = a
    for n in range(1, g.size + 1):
        if g.table[acc][acc] == acc:
            return n
        acc = g.table[acc][a]
    raise AssertionError("no idempotent power within size, table is corrupt")


@dataclass(frozen=True)
class UpWord:
    """Ultimately periodic word prefix . period^omega, both parts nonempty."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.prefix or not self.period:
            raise ValueError("prefix and period must be nonempty")


def up_at(sigma: UpWord, n: int) -> int:
    """Letter at position n (0-based) of the expansion."""
    if n < 0:
        raise ValueError("negative position")
    if n < len(sigma.prefix):
        return sigma.prefix[n]
    return sigma.period[(n - len(sigma.prefix)) % len(sigma.period)]


def up_equiv(sigma: UpWord, tau: UpWord) -> bool:
    """Do two UP words expand to the same infinite sequence?

    Comparing positions up to max prefix length plus the lcm of the two
    period lengths is enough: past the prefixes both sequences are
    periodic with the lcm as a common period.
    """
    bound = max(len(sigma.prefix), len(tau.prefix)) + math.lcm(
        len(sigma.period), len(tau.period)
    )
    return all(up_at(sigma, n) == up_at(tau, n) for n in range(bound))


def drop_prefix(sigma: UpWord, i: int) -> UpWord:
    """The suffix of sigma starting at position i, as a UP word."""
    if i < 0:
        raise ValueError("negative position")
    if i < len(sigma.prefix):
        return UpWord(sigma.prefix[i:], sigma.period)
    k = (i - len(sigma.prefix)) % len(sigma.period)
    if k == 0:
        return UpWord(sigma.period, sigma.period)
    return UpWord(sigma.period[k:], sigma.period)


@dataclass(frozen=True)
class RamseyanFactorizationUp:
    """Split of a UP word into head . rep^omega with col(rep) idempotent."""

    head: tuple[int, ...]
    rep: tuple[int, ...]
    color: int


def ramseyan_factorization_up(g: FiniteSemigroup, sigma: UpWord) -> RamseyanFactorizationUp:
    """Factor sigma as head . rep^omega where col(rep) is idempotent.

    rep is the period repeated idempotent_power(col(period)) times, so the
    factorization always exists and is computed without search.
    """
    c = col(g, sigma.period)
    n = idempotent_power(g, c)
    rep = sigma.period * n
    e = col(g, rep)
    return RamseyanFactorizationUp(sigma.prefix, rep, e)


def merges_up(g: FiniteSemigroup, sigma: UpWord, i: int, j: int) -> bool:
    """Do positions i and j of sigma merge?

    Positions merge when some k > max(i, j) gives the segments [i, k) and
    [j, k) the same color.  Once the running color pair enters the periodic
    part it evolves through at most size^2 pair states per period scan, so
    checking k up to max(i, j) + |prefix| + |period| * size^2 + 1 decides
    the unbounded question.
    """
    if i < 0 or j < 0:
        raise ValueError("negative position")
    hi = max(i, j)
    table = g.table
    ci = up_at(sigma, i)
    for n in range(i + 1, hi + 1):
        ci = table[ci][up_at(sigma, n)]
    cj = up_at(sigma, j)
    for n in range(j + 1, hi + 1):
        cj = table[cj][up_at(sigma, n)]
    bound = hi + len(sigma.prefix) + len(sigma.period) * g.size * g.size + 1
    k = hi + 1
    while True:
        if ci == cj:
            return True
        if k >= bound:
            return False
        a = up_at(sigma, k)
        ci = table[ci][a]
        cj = table[cj][a]
        k += 1


def subsemigroup_closure(g: FiniteSemigroup, generators: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing the generators and closed under the table."""
    gens = sorted(set(generators))
    for a in gens:
        if not (0 <= a < g.size):
            raise ValueError(f"generator {a} out of range")
    seen = set(gens)
    work = list(gens)
    table = g.table
    while work:
        a = work.pop()
        for b in sorted(seen):
            for c in (table[a][b], table[b][a]):
                if c not in seen:
                    seen.add(c)
                    work.append(c)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Text formats.
#
# Semigroup files: first a line "semigroup N", then N table rows of N
# integers each.  Blank lines and "#" comments are ignored.
#
# UP words: "a b c | d e" with the bar separating prefix from period.  An
# optional leading "up" keyword and surrounding parentheses are accepted.


def format_semigroup(g: FiniteSemigroup) -> str:
    lines = [f"semigroup {g.size}"]
    lines.extend(" ".join(str(v) for v in row) for row in g.table)
    return "\n".join(lines) + "\n"


def parse_semigroup(text: str) -> FiniteSemigroup:
    """Read the format format_semigroup writes: a header 'semigroup N',
    then N table rows of N integers each.  Blank lines and '#' comments are
    ignored.  Every error names the 1-based line it is on; an associativity
    violation names the row of its left factor a."""
    size = None
    rows: list[list[int]] = []
    row_line: list[int] = []
    number = 0

    def fail(message: str) -> ValueError:
        return ValueError(f"line {number}: {message}")

    def integer(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise fail(f"expected an integer, found {tok!r}") from None

    for number, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if size is None:
            if len(toks) != 2 or toks[0] != "semigroup":
                raise fail("expected header 'semigroup N'")
            size = integer(toks[1])
            if size < 1:
                raise fail("semigroup needs at least one element")
            continue
        if len(rows) == size:
            raise fail(f"more than {size} table rows")
        if len(toks) != size:
            raise fail(f"expected {size} table entries, found {len(toks)}")
        row = [integer(tok) for tok in toks]
        for value in row:
            if not 0 <= value < size:
                raise fail(f"table entry {value} out of range 0..{size - 1}")
        rows.append(row)
        row_line.append(number)
    number += 1
    if size is None:
        raise fail("expected header 'semigroup N'")
    if len(rows) < size:
        raise fail(f"expected {size} table rows, got {len(rows)}")
    try:
        return new_semigroup(size, rows)
    except AssociativityViolation as err:
        err.args = (f"line {row_line[err.triple[0]]}: {err}",)
        raise


def format_up_word(sigma: UpWord) -> str:
    pre = " ".join(str(a) for a in sigma.prefix)
    per = " ".join(str(a) for a in sigma.period)
    return f"up {pre} | {per}"


def parse_up_word(text: str) -> UpWord:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if body.startswith("up "):
        body = body[3:]
    elif body == "up":
        body = ""
    if body.count("|") != 1:
        raise ValueError("UP word needs exactly one '|' between prefix and period")
    pre_s, per_s = body.split("|")

    def letters(part: str, where: str) -> tuple[int, ...]:
        out = []
        for tok in part.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"{where}: expected a letter (integer), found {tok!r}"
                ) from None
        return tuple(out)

    prefix = letters(pre_s, "prefix")
    period = letters(per_s, "period")
    if not prefix or not period:
        raise ValueError("prefix and period must both be nonempty")
    return UpWord(prefix, period)
