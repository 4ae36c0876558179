"""Complementation of Buchi automata through transition colors.

The color of a finite word records, per state, which states it can reach
and which it can reach while passing through an accepting state before the
final position.  Colors compose like relations, so the finitely many
realizable colors form a semigroup.  A kind is a pair of colors (V, W); the
kind automaton accepts the words that factor into a V block followed by
infinitely many W blocks.  A kind is compatible when the base automaton
accepts some word of that kind; the union of kind automata over the
incompatible kinds accepts exactly the ultimately periodic words the base
automaton rejects.

The color closure records its right-multiplication table as it goes.  That
table is the one source of tracker transitions: color_nfa and every kind
automaton read it over color indices, and the semigroup kind automata read
a semigroup's own multiplication table through the same builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .buchi import BuchiNfa, _strongly_connected, _union_many, letter_relation
from .semigroup import FiniteSemigroup

DEFAULT_MAX_COLORS = 20000


class DimensionMismatch(ValueError):
    """Colors over different state counts cannot be combined."""


class BudgetExceeded(RuntimeError):
    """The color closure grew past the configured cap."""

    def __init__(self, max_colors: int):
        super().__init__(f"more than {max_colors} realizable colors")
        self.max_colors = max_colors


@dataclass(frozen=True)
class Color:
    """Reachability profile of a nonempty word.

    reach[p] is the bitmask of states reachable from p over the word;
    reach_acc[p] the bitmask reachable while visiting an accepting state at
    some position other than the last.  reach_acc is pointwise contained in
    reach.
    """

    reach: tuple[int, ...]
    reach_acc: tuple[int, ...]


Kind = tuple[Color, Color]


def _compose(r: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    out = []
    for mask in r:
        acc = 0
        m = mask
        while m:
            q = (m & -m).bit_length() - 1
            acc |= s[q]
            m &= m - 1
        out.append(acc)
    return tuple(out)


def color_add(v: Color, w: Color) -> Color:
    """Concatenation of profiles; v is the left factor."""
    if len(v.reach) != len(w.reach):
        raise DimensionMismatch(
            f"colors over {len(v.reach)} and {len(w.reach)} states"
        )
    reach = _compose(v.reach, w.reach)
    reach_acc = tuple(
        a | b
        for a, b in zip(_compose(v.reach_acc, w.reach), _compose(v.reach, w.reach_acc))
    )
    return Color(reach, reach_acc)


def gamma_letter(A: BuchiNfa, a: int) -> Color:
    """Color of a single letter."""
    reach = letter_relation(A, a)
    reach_acc = tuple(
        row if p in A.accepting else 0 for p, row in enumerate(reach)
    )
    return Color(reach, reach_acc)


def gamma_word(A: BuchiNfa, w: Sequence[int]) -> Color:
    """Color of a nonempty word, the fold of its letter colors."""
    if not w:
        raise ValueError("gamma of the empty word is undefined")
    acc = gamma_letter(A, w[0])
    for a in w[1:]:
        acc = color_add(acc, gamma_letter(A, a))
    return acc


def _closure(A: BuchiNfa, max_colors: int):
    """All colors of nonempty words, in deterministic discovery order, with
    their right-multiplication table.

    Returns (colors, index, first, step): index maps a color to its position
    in colors, first[c] is the index of the color of letter class c, and
    step[i][c] the index of colors[i] extended on the right by class c.
    Seeds are the letter colors in class order; the worklist extends each
    discovered color on the right by every letter color.  Right extension
    alone reaches the whole subsemigroup, every word being a left fold of
    its letters.  The table is the one source of tracker transitions.
    """
    gammas = [gamma_letter(A, a) for a in A._class_first_letter]
    colors: list[Color] = []
    index: dict[Color, int] = {}

    def add(c: Color) -> int:
        i = index.get(c)
        if i is None:
            if len(colors) >= max_colors:
                raise BudgetExceeded(max_colors)
            i = index[c] = len(colors)
            colors.append(c)
        return i

    first = [add(g) for g in gammas]
    step = []
    i = 0
    while i < len(colors):
        x = colors[i]
        step.append([add(color_add(x, g)) for g in gammas])
        i += 1
    return colors, index, first, step


def realizable_colors(A: BuchiNfa, max_colors: int = DEFAULT_MAX_COLORS) -> list[Color]:
    """Colors realized by nonempty words, in deterministic order."""
    return _closure(A, max_colors)[0]


def _check_dimensions(A: BuchiNfa, *colors: Color) -> None:
    for c in colors:
        if len(c.reach) != A.state_count:
            raise DimensionMismatch(
                f"color over {len(c.reach)} states, automaton has {A.state_count}"
            )


def _targets(first, step, c: int) -> list[int]:
    """Elements a tracker moves to on letter class c: from its start, then
    from each element in order."""
    return [first[c]] + [row[c] for row in step]


def color_nfa(A: BuchiNfa, c: Color, max_colors: int = DEFAULT_MAX_COLORS) -> BuchiNfa:
    """Automaton accepting the finite-word tracking of color c, read as a
    Buchi automaton: state 0 is a start with no incoming transitions, state
    1 + i tracks the i-th realizable color, and the state of c accepts."""
    _check_dimensions(A, c)
    colors, index, first, step = _closure(A, max_colors)
    class_rows = [
        tuple((1 + t,) for t in _targets(first, step, cls)) for cls in range(len(first))
    ]
    accepting = [1 + index[c]] if c in index else []
    return BuchiNfa._make(
        1 + len(colors), A.alphabet_size, A._letter_class, class_rows, [0], accepting
    )


def _kind_block(
    first, step, letter_class, alphabet_size: int, v: int | None, w: int | None
) -> BuchiNfa:
    """Chain of two trackers over the elements of a right-multiplication
    table, for the kind (v, w) given by element indices.

    first[c] is the element of letter class c and step[i][c] the element i
    extended by class c; the table of the color closure and the table of a
    semigroup both fit.  States 0 .. n are the first tracker (start plus one
    state per element), 1 + n .. 1 + 2n the second, with q2 = 1 + n both the
    second start and the only accepting state.  Every transition entering
    the v state of the first tracker or the w state of the second gets a
    parallel copy into q2, which cuts the input into a v block followed by
    w blocks.  An index matching no element (None) leaves its tracker
    without a way out, so the block accepts nothing.
    """
    n = len(step)
    q2 = 1 + n
    class_rows = []
    for cls in range(len(first)):
        targets = _targets(first, step, cls)
        rows = [(1 + t, q2) if t == v else (1 + t,) for t in targets]
        rows += [(q2, q2 + 1 + t) if t == w else (q2 + 1 + t,) for t in targets]
        class_rows.append(tuple(rows))
    return BuchiNfa._make(2 + 2 * n, alphabet_size, letter_class, class_rows, [0], [q2])


def kind_nfa(A: BuchiNfa, kind: Kind, max_colors: int = DEFAULT_MAX_COLORS) -> BuchiNfa:
    """Automaton accepting the words that factor as one block of color
    kind[0] followed by infinitely many blocks of color kind[1]."""
    _check_dimensions(A, *kind)
    _, index, first, step = _closure(A, max_colors)
    v, w = kind
    return _kind_block(
        first, step, A._letter_class, A.alphabet_size, index.get(v), index.get(w)
    )


def compatible(A: BuchiNfa, kind: Kind) -> bool:
    """Does A accept some word of this kind?

    Equivalent to emptiness of the product of kind_nfa(A, kind) with A, but
    decided directly on the color relations: follow one v step from the
    initial states, saturate under w steps, and look for a w cycle that
    passes through an accepting state.
    """
    _check_dimensions(A, *kind)
    v, w = kind
    n = A.state_count
    start = 0
    for p in A.initial:
        start |= v.reach[p]
    seen = start
    work = start
    while work:
        img = 0
        m = work
        while m:
            q = (m & -m).bit_length() - 1
            img |= w.reach[q]
            m &= m - 1
        work = img & ~seen
        seen |= work
    if not seen:
        return False
    nodes = [q for q in range(n) if seen >> q & 1]
    node_set = set(nodes)

    def succ(p):
        return [q for q in range(n) if w.reach[p] >> q & 1 and q in node_set]

    comp, has_cycle = _strongly_connected(nodes, succ)
    for p in nodes:
        if not has_cycle[comp[p]]:
            continue
        m = w.reach_acc[p]
        while m:
            q = (m & -m).bit_length() - 1
            m &= m - 1
            if q in node_set and comp.get(q) == comp[p]:
                return True
    return False


@dataclass(frozen=True)
class ComplementStats:
    colors: int
    kinds: int
    incompatible: int


def complement(A: BuchiNfa, max_colors: int = DEFAULT_MAX_COLORS) -> BuchiNfa:
    """Automaton accepting exactly the ultimately periodic words A rejects.

    Union of the kind automata over all incompatible kinds, in closure
    order.  Sound and complete for ultimately periodic words; arbitrary
    words of an incompatible kind are rejected by A as well.
    """
    return complement_with_stats(A, max_colors)[0]


def complement_with_stats(
    A: BuchiNfa, max_colors: int = DEFAULT_MAX_COLORS
) -> tuple[BuchiNfa, ComplementStats]:
    colors, _, first, step = _closure(A, max_colors)
    blocks = []
    for vi, v in enumerate(colors):
        for wi, w in enumerate(colors):
            if not compatible(A, (v, w)):
                blocks.append(
                    _kind_block(first, step, A._letter_class, A.alphabet_size, vi, wi)
                )
    result = _union_many(blocks, A.alphabet_size)
    return result, ComplementStats(len(colors), len(colors) ** 2, len(blocks))


# -- semigroup variants ---------------------------------------------------------


def kind_nfa_semigroup(g: FiniteSemigroup, kind: tuple[int, int]) -> BuchiNfa:
    """Kind automaton over a semigroup alphabet: accepts words over the
    elements that factor as one block of color kind[0] followed by
    infinitely many blocks of color kind[1], colors taken by col."""
    c, d = kind
    if not (0 <= c < g.size and 0 <= d < g.size):
        raise ValueError("kind colors out of range")
    return _kind_block(range(g.size), g.table, range(g.size), g.size, c, d)


def rf_nfa(g: FiniteSemigroup) -> BuchiNfa:
    """Union of the semigroup kind automata over every color pair.  Every
    infinite word over the elements has a Ramseyan factorization, so this
    automaton accepts everything; it exists to witness that fact."""
    blocks = [
        kind_nfa_semigroup(g, (c, d)) for c in range(g.size) for d in range(g.size)
    ]
    return _union_many(blocks, g.size)
