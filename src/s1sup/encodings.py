"""Position merging, encoded three ways.

Two positions i and j of an infinite word over a finite semigroup merge
when some later cut k gives the segments [i, k) and [j, k) the same color.
This module offers:

  * a full-syntax formula parameterized by the semigroup, whose models are
    exactly the words with designated merging positions,
  * small handwritten automata over the element alphabet for three related
    languages: infinitely many positions merge with position 0; after
    dropping some finite prefix, infinitely many positions merge with the
    start; only finitely many positions merge with position 0,
  * a checker that runs the formula route end to end and is meant to agree
    with the direct merges_up computation.

The formula follows a fixed naming scheme: positions x, y and cut z, inner
helpers u, v, w; the letter indicator sets are X0, X1, ... and the running
color tracks Y0, Y1, ...
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .buchi import BuchiNfa, membership_up
from .logic import (
    FoAnd,
    FoEx1,
    FoEx2,
    FoIn,
    FoLess,
    FoNot,
    FullFormula,
    UpInterpretation,
    encode_interp,
    interp_to_upword,
    reduce_full,
    translate,
)
from .semigroup import FiniteSemigroup, UpWord

MERGE_FIRST_ORDER = ("x", "y", "z", "u", "v", "w")


def merge_second_order(g: FiniteSemigroup) -> tuple[str, ...]:
    letters = tuple(f"X{a}" for a in range(g.size))
    sums = tuple(f"Y{a}" for a in range(g.size))
    return letters + sums


def _conj(parts: Sequence[FullFormula]) -> FullFormula:
    if not parts:
        return _true()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = FoAnd(p, out)
    return out


def _disj(parts: Sequence[FullFormula]) -> FullFormula:
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = FoNot(FoAnd(FoNot(p), FoNot(out)))
    return out


def _implies(a: FullFormula, b: FullFormula) -> FullFormula:
    return FoNot(FoAnd(a, FoNot(b)))


def _forall1(var: str, body: FullFormula) -> FullFormula:
    return FoNot(FoEx1(var, FoNot(body)))


def _true() -> FullFormula:
    # positions are irreflexive under <, so this negated atom always holds
    return FoNot(FoLess("x", "x"))


def _at_successor(pos: str, body_of) -> FullFormula:
    """body holds at the successor of pos: for every later v with nothing
    strictly between, body(v)."""
    between = FoEx1("w", FoAnd(FoLess(pos, "w"), FoLess("w", "v")))
    return _forall1(
        "v",
        _implies(FoLess(pos, "v"), _implies(FoNot(between), body_of("v"))),
    )


def _phi_sum(g: FiniteSemigroup, lo: str, hi: str, target: int) -> FullFormula:
    """The color of the segment [lo, hi), summed letter by letter, is
    target.  Tracks run in the Y sets: Y at a position holds the color of
    the segment ending just before it, so the successor of lo carries the
    letter at lo, each position strictly between folds its letter in, and
    hi reads off the result."""
    n = g.size
    unique = _forall1(
        "u",
        _conj(
            [
                _implies(
                    FoIn("u", f"Y{a}"),
                    _conj([FoNot(FoIn("u", f"Y{b}")) for b in range(n) if b != a]),
                )
                for a in range(n)
            ]
        ),
    )
    first = _conj(
        [
            _implies(
                FoIn(lo, f"X{a}"),
                _at_successor(lo, lambda s, a=a: FoIn(s, f"Y{a}")),
            )
            for a in range(n)
        ]
    )
    step = _forall1(
        "u",
        _implies(
            FoAnd(FoLess(lo, "u"), FoLess("u", hi)),
            _conj(
                [
                    _implies(
                        FoIn("u", f"Y{a}"),
                        _implies(
                            FoIn("u", f"X{b}"),
                            _at_successor(
                                "u",
                                lambda s, a=a, b=b: FoIn(s, f"Y{g.table[a][b]}"),
                            ),
                        ),
                    )
                    for a in range(n)
                    for b in range(n)
                ]
            ),
        ),
    )
    last = FoIn(hi, f"Y{target}")
    body = _conj([unique, first, step, last])
    for a in reversed(range(n)):
        body = FoEx2(f"Y{a}", body)
    return body


def phi_merge(g: FiniteSemigroup) -> FullFormula:
    """Positions x and y merge: some cut z above both gives the segments
    [x, z) and [y, z) a common color.  Free variables: x, y and the letter
    indicators X0 .. X{n-1}."""
    cases = _disj(
        [
            FoAnd(_phi_sum(g, "x", "z", c), _phi_sum(g, "y", "z", c))
            for c in range(g.size)
        ]
    )
    return FoEx1("z", _conj([FoLess("x", "z"), FoLess("y", "z"), cases]))


def interp_of_word(
    g: FiniteSemigroup, sigma: UpWord, i: int, j: int
) -> UpInterpretation:
    """Interpretation packing a semigroup word and two positions for
    phi_merge: X_a marks the positions carrying letter a."""
    for a in sigma.prefix + sigma.period:
        if not (0 <= a < g.size):
            raise ValueError(f"letter {a} outside the semigroup")
    if i < 0 or j < 0:
        raise ValueError("negative position")
    sets = {}
    for a in range(g.size):
        sets[f"X{a}"] = UpWord(
            tuple(1 if x == a else 0 for x in sigma.prefix),
            tuple(1 if x == a else 0 for x in sigma.period),
        )
    return UpInterpretation(sets=sets, nums={"x": i, "y": j})


@lru_cache(maxsize=4)
def _merge_machine(g: FiniteSemigroup):
    formula = phi_merge(g)
    reduced, variables = reduce_full(formula, MERGE_FIRST_ORDER, merge_second_order(g))
    return translate(reduced, variables), variables


def check_merge_encoding(g: FiniteSemigroup, sigma: UpWord, i: int, j: int) -> bool:
    """Decide merging of positions i and j through the formula route.

    Same composition as models_full_up over interp_of_word and phi_merge,
    with the compiled automaton cached per semigroup so grids of queries
    stay affordable."""
    aut, variables = _merge_machine(g)
    interp = encode_interp(interp_of_word(g, sigma, i, j))
    word = interp_to_upword(interp, variables)
    return membership_up(aut, word)


# -- dedicated automata over the element alphabet -------------------------
#
# The letters are the semigroup elements themselves.  A tracked color of
# top means "not started yet"; a letter folds into every tracked color.


def merge0_nfa(g: FiniteSemigroup) -> BuchiNfa:
    """Accepts words in which infinitely many positions merge with
    position 0.

    The first component carries the color of the consumed prefix; the
    second guesses a later position and carries the color of the segment
    from there.  Equal components confirm the guess; the accepting states
    reset and guess again.  States are pairs over {top} + elements,
    encoded (first * (1 + n)) + second with top = 0 and element a = 1 + a.
    """
    n = g.size
    size = (1 + n) * (1 + n)

    def enc(first: int, second: int) -> int:
        return first * (1 + n) + second

    transitions = []
    for a in range(n):
        transitions.append((enc(0, 0), a, enc(1 + a, 0)))
        for b in range(n):
            nb = g.table[b][a]
            # keep reading without a guess, or guess the current position
            transitions.append((enc(1 + b, 0), a, enc(1 + nb, 0)))
            transitions.append((enc(1 + b, 0), a, enc(1 + nb, 1 + a)))
            for c in range(n):
                if c == b:
                    continue
                nc = g.table[c][a]
                transitions.append((enc(1 + b, 1 + c), a, enc(1 + nb, 1 + nc)))
        for b in range(n):
            # confirmed guess: drop the second track and start over
            transitions.append((enc(1 + b, 1 + b), a, enc(1 + g.table[b][a], 0)))
    accepting = [enc(1 + b, 1 + b) for b in range(n)]
    return BuchiNfa(size, n, transitions, [enc(0, 0)], accepting)


def exists_prefix_merge_nfa(g: FiniteSemigroup) -> BuchiNfa:
    """Accepts words that, after dropping some finite prefix, have
    infinitely many positions merging with the start: a fresh initial
    state loops on every letter and nondeterministically hands over to the
    pair tracker."""
    base = merge0_nfa(g)
    n = g.size
    start = base.state_count
    transitions = [(p, a, q) for (p, a, q) in base.transitions]
    for a in range(n):
        transitions.append((start, a, start))
        for q in base.successors(0, a):
            transitions.append((start, a, q))
    return BuchiNfa(
        base.state_count + 1,
        n,
        transitions,
        [start],
        sorted(base.accepting),
    )


def never_merge_nfa(g: FiniteSemigroup) -> BuchiNfa:
    """Accepts words in which only finitely many positions merge with
    position 0: some cut exists past which no position merges with 0.

    The first component carries the color of the consumed prefix.  The
    second waits on top, then guesses the cut and from there carries the
    set of colors of every segment starting at or after it; the run gets
    stuck when the prefix color falls into that set.  All post-guess
    states are accepting, so a run must eventually guess and then survive
    forever.  States are encoded first * (1 + 2^n) + guard with top = 0
    and set s = 1 + bitmask(s)."""
    n = g.size
    width = 1 << n
    size = (1 + n) * (1 + width)

    def enc(first: int, guard: int) -> int:
        return first * (1 + width) + guard

    transitions = []
    for a in range(n):
        transitions.append((enc(0, 0), a, enc(1 + a, 0)))
        for b in range(n):
            nb = 1 + g.table[b][a]
            transitions.append((enc(1 + b, 0), a, enc(nb, 0)))
            transitions.append((enc(1 + b, 0), a, enc(nb, 1 + (1 << a))))
            for s in range(width):
                if s >> b & 1:
                    continue  # prefix color met a segment color: stuck
                ns = 1 << a
                m = s
                while m:
                    c = (m & -m).bit_length() - 1
                    m &= m - 1
                    ns |= 1 << g.table[c][a]
                transitions.append((enc(1 + b, 1 + s), a, enc(nb, 1 + ns)))
    accepting = [enc(1 + b, 1 + s) for b in range(n) for s in range(width)]
    return BuchiNfa(size, n, transitions, [enc(0, 0)], accepting)
