"""Complementation of Buchi automata through transition colors.

The color of a finite word records, per state, which states it can reach
and which it can reach while passing through an accepting state before the
final position.  Colors compose like relations, so the finitely many
realizable colors form a semigroup.  A kind is a pair of colors (V, W); the
kind automaton accepts the words that factor into a V block followed by
infinitely many W blocks.  A kind is compatible when the base automaton
accepts some word of that kind; A accepts either every word of a kind or
none of them.

A kind is proper when W is idempotent (W.W = W) and V.W = V.  Every
ultimately periodic word x.y^omega has a proper kind: some power y^k has an
idempotent color W = [y^k], and V = [x.y^k] satisfies V.W = V.  So the
union of the kind automata over the incompatible proper kinds accepts
exactly the ultimately periodic words A rejects (the Ramsey argument of
Breuers, Loding and Olschewski, FoSSaCS 2012).

The color closure records its right-multiplication table as it goes, and
one shortest word per color.  Products V.W are read off the table by
folding W's word from V.  The table is the one source of tracker
transitions: color_nfa and every kind automaton read it over color
indices, and the semigroup kind automata read a semigroup's own
multiplication table through the same builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .buchi import BuchiNfa, _mask_image, _strongly_connected, _union_many, letter_relation
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


def color_add(v: Color, w: Color) -> Color:
    """Concatenation of profiles; v is the left factor."""
    if len(v.reach) != len(w.reach):
        raise DimensionMismatch(
            f"colors over {len(v.reach)} and {len(w.reach)} states"
        )
    reach = tuple(_mask_image(w.reach, r) for r in v.reach)
    reach_acc = tuple(
        _mask_image(w.reach, a) | _mask_image(w.reach_acc, r)
        for a, r in zip(v.reach_acc, v.reach)
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
    their right-multiplication table and one shortest word each.

    Returns (colors, index, first, step, words): index maps a color to its
    position in colors, first[c] is the index of the color of letter class
    c, step[i][c] the index of colors[i] extended on the right by class c,
    and words[i] a tuple of letter classes whose color is colors[i].  Seeds
    are the letter colors in class order; the worklist extends each
    discovered color on the right by every letter color.  Right extension
    alone reaches the whole subsemigroup, every word being a left fold of
    its letters.  The worklist is breadth first, so the word a color is
    discovered by, its parent's word plus one class, is a shortest one.
    """
    gammas = [gamma_letter(A, a) for a in A._class_first_letter]
    colors: list[Color] = []
    index: dict[Color, int] = {}
    words: list[tuple[int, ...]] = []

    def add(c: Color, word: tuple[int, ...]) -> int:
        i = index.get(c)
        if i is None:
            if len(colors) >= max_colors:
                raise BudgetExceeded(max_colors)
            i = index[c] = len(colors)
            colors.append(c)
            words.append(word)
        return i

    first = [add(g, (cls,)) for cls, g in enumerate(gammas)]
    step = []
    i = 0
    while i < len(colors):
        x, word = colors[i], words[i]
        step.append(
            [add(color_add(x, g), word + (cls,)) for cls, g in enumerate(gammas)]
        )
        i += 1
    return colors, index, first, step, words


def _fold(step, v: int, word: Sequence[int]) -> int:
    """Index of the element v multiplied on the right by the element of
    word, read one class at a time off the right-multiplication table."""
    for c in word:
        v = step[v][c]
    return v


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


def color_nfa(A: BuchiNfa, c: Color) -> BuchiNfa:
    """Automaton accepting the finite-word tracking of color c, read as a
    Buchi automaton: state 0 is a start with no incoming transitions, state
    1 + i tracks the i-th realizable color, and the state of c accepts."""
    _check_dimensions(A, c)
    colors, index, first, step, _ = _closure(A, DEFAULT_MAX_COLORS)
    class_rows = [
        tuple((1 + t,) for t in _targets(first, step, cls)) for cls in range(len(first))
    ]
    accepting = [1 + index[c]] if c in index else []
    return BuchiNfa._make(
        1 + len(colors), A.alphabet_size, A._letter_class, class_rows, [0], accepting
    )


def _kind_block(
    first, step, letter_class, alphabet_size: int, blocks: Sequence[tuple]
) -> BuchiNfa:
    """One V tracker shared by W blocks, over the elements of a
    right-multiplication table; accepts the words of the kinds (v, w) for
    each (w, vs) in blocks and each v in vs, all given by element indices.

    first[c] is the element of letter class c and step[i][c] the element i
    extended by class c; the table of the color closure and the table of a
    semigroup both fit.  With n elements, states 0 .. n are the V tracker
    (start plus one state per element).  Block b takes states q .. q + n,
    q = (1 + n)(1 + b): q is its start and only accepting state, and
    q + 1 + i tracks element i.  Every transition entering V tracker state v
    gets a parallel copy into the start of each block listing v, and every
    transition entering block state w a copy into the block's start, which
    cuts the input into a v block followed by w blocks.  An index matching
    no element (None) adds no copies, so a lone block on it accepts nothing.
    """
    n = len(step)
    starts = [(1 + n) * (1 + b) for b in range(len(blocks))]
    jumps: dict[int, tuple[int, ...]] = {}
    for q, (_, vs) in zip(starts, blocks):
        for v in vs:
            jumps[v] = jumps.get(v, ()) + (q,)
    class_rows = []
    for cls in range(len(first)):
        targets = _targets(first, step, cls)
        rows = [(1 + t, *jumps[t]) if t in jumps else (1 + t,) for t in targets]
        for q, (w, _) in zip(starts, blocks):
            rows += [(q, q + 1 + t) if t == w else (q + 1 + t,) for t in targets]
        class_rows.append(tuple(rows))
    return BuchiNfa._make(
        (1 + n) * (1 + len(blocks)), alphabet_size, letter_class, class_rows, [0], starts
    )


def kind_nfa(A: BuchiNfa, kind: Kind) -> BuchiNfa:
    """Automaton accepting the words that factor as one block of color
    kind[0] followed by infinitely many blocks of color kind[1]."""
    _check_dimensions(A, *kind)
    _, index, first, step, _ = _closure(A, DEFAULT_MAX_COLORS)
    v, w = kind
    return _kind_block(
        first, step, A._letter_class, A.alphabet_size, [(index.get(w), (index.get(v),))]
    )


def _initial_image(A: BuchiNfa, v: Color) -> int:
    """Bitmask of the states one v block leads to from the initial states."""
    start = 0
    for p in A.initial:
        start |= v.reach[p]
    return start


def _states(mask: int) -> list[int]:
    """The states of a bitmask, ascending, in one step per state."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def compatible(A: BuchiNfa, kind: Kind) -> bool:
    """Does A accept some word of this kind?

    Equivalent to emptiness of the product of kind_nfa(A, kind) with A, but
    decided directly on the color relations: follow one v step from the
    initial states, saturate under w steps, and look for a w cycle that
    passes through an accepting state.
    """
    _check_dimensions(A, *kind)
    v, w = kind
    return _compatible_from(A, _initial_image(A, v), w)


def _compatible_from(A: BuchiNfa, start: int, w: Color) -> bool:
    """compatible(A, (v, w)) for any v with _initial_image(A, v) == start:
    the verdict reads v only through that mask.  One _strongly_connected
    pass from start's states over w steps walks the states w blocks reach;
    A accepts a word of the kind iff a w step inside a cyclic component
    passes through an accepting state, and the pass stops at the first
    such step."""
    if not start:
        return False
    reach, reach_acc = w.reach, w.reach_acc
    for members, cyclic in _strongly_connected(
        _states(start), lambda p: _states(reach[p]), A.state_count
    ):
        if cyclic:
            inside = sum(1 << q for q in members)
            if any(reach_acc[p] & reach[p] & inside for p in members):
                return True
    return False


@dataclass(frozen=True)
class ComplementStats:
    """Counts of one complementation: realizable colors, all kinds (colors
    squared) and the incompatible ones among them, proper kinds, and the W
    blocks of the result (idempotent W with an incompatible proper kind)."""

    colors: int
    kinds: int
    incompatible: int
    proper: int
    blocks: int


def complement(A: BuchiNfa, max_colors: int = DEFAULT_MAX_COLORS) -> BuchiNfa:
    """Automaton accepting exactly the ultimately periodic words A rejects.

    The union of the kind automata over the incompatible proper kinds,
    sharing one V tracker (see complement_with_stats).  Every ultimately
    periodic word has a proper kind, which is incompatible exactly when A
    rejects the word, so the result is exact on these words; arbitrary
    words it accepts are rejected by A as well.
    """
    return complement_with_stats(A, max_colors)[0]


def complement_with_stats(
    A: BuchiNfa, max_colors: int = DEFAULT_MAX_COLORS
) -> tuple[BuchiNfa, ComplementStats]:
    """complement(A) with its ComplementStats.

    x.y^omega has the proper kind ([x.y^k], [y^k]) for any k with [y^k]
    idempotent, and A accepts a word of a kind iff the kind is compatible,
    so the incompatible proper kinds cover exactly the rejected ultimately
    periodic words.  W.W and V.W are folds of W's recorded word through the
    closure's table.  The result is one V tracker over the colors and one W
    block per idempotent W with an incompatible proper V, entered from
    tracker state V: (1 + colors) * (1 + blocks) states.  Compatibility is
    decided once per W and initial image of V, which is all it reads of V.
    """
    colors, _, first, step, words = _closure(A, max_colors)
    images: dict[int, list[int]] = {}
    for vi, v in enumerate(colors):
        images.setdefault(_initial_image(A, v), []).append(vi)
    incompatible = 0
    proper = 0
    blocks = []
    for wi, w in enumerate(colors):
        bad = set()
        for start, group in images.items():
            if not _compatible_from(A, start, w):
                incompatible += len(group)
                bad.update(group)
        if _fold(step, wi, words[wi]) != wi:
            continue
        vs = [vi for vi in range(len(colors)) if _fold(step, vi, words[wi]) == vi]
        proper += len(vs)
        jumps = [vi for vi in vs if vi in bad]
        if jumps:
            blocks.append((wi, jumps))
    result = _kind_block(first, step, A._letter_class, A.alphabet_size, blocks)
    stats = ComplementStats(
        len(colors), len(colors) ** 2, incompatible, proper, len(blocks)
    )
    return result, stats


# -- semigroup variants ---------------------------------------------------------


def kind_nfa_semigroup(g: FiniteSemigroup, kind: tuple[int, int]) -> BuchiNfa:
    """Kind automaton over a semigroup alphabet: accepts words over the
    elements that factor as one block of color kind[0] followed by
    infinitely many blocks of color kind[1], colors taken by col."""
    c, d = kind
    if not (0 <= c < g.size and 0 <= d < g.size):
        raise ValueError("kind colors out of range")
    return _kind_block(range(g.size), g.table, range(g.size), g.size, [(d, (c,))])


def rf_nfa(g: FiniteSemigroup) -> BuchiNfa:
    """Union of the semigroup kind automata over every color pair.  Every
    infinite word over the elements has a Ramseyan factorization, so this
    automaton accepts everything; it exists to witness that fact."""
    blocks = [
        kind_nfa_semigroup(g, (c, d)) for c in range(g.size) for d in range(g.size)
    ]
    return _union_many(blocks, g.size)
