"""Buchi automata over indexed alphabets.

States and letters are dense integer indices.  Acceptance is weak: a run is
accepting when it visits the accepting set infinitely often, any member of
it.  Transition tables are stored once per letter class, where two letters
belong to the same class when they act identically on every state.  Derived
alphabets (sets of logic variables) are exponentially large but have few
classes, so most operations iterate over classes instead of letters.
numpy is imported on first use, by the array routes (_ARRAY_CROSSOVER),
which run on two structures only: the successor table of a large
deterministic automaton and a large simulation relation.  Smaller
automata, and nondeterministic ones at every size, stay on Python rows.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .semigroup import UpWord

if TYPE_CHECKING:
    import numpy as np


class AlphabetMismatch(ValueError):
    """Automata or words disagree on the alphabet size."""


class BuchiNfa:
    """Immutable nondeterministic Buchi automaton.

    Construct from explicit transition triples (p, a, q).  Internally the
    triples are grouped by letter into per-state successor rows, and letters
    with identical rows share one class.  Classes are numbered by first
    occurrence, and every construction stores each row strictly
    increasing, which makes the representation canonical: two automata are
    equal exactly when they have the same states, alphabet, transition set,
    initial set and accepting set.  A deterministic automaton may keep its
    successor table (_successor_table) beside its rows; a nondeterministic
    one never holds a table, so a kept table is exact.
    """

    __slots__ = (
        "state_count",
        "alphabet_size",
        "initial",
        "accepting",
        "_letter_class",
        "_class_rows",
        "_class_first_letter",
        "_weak",
        "_det",
        "_sim_order",
        "_table",
    )

    def __init__(
        self,
        state_count: int,
        alphabet_size: int,
        transitions: Iterable[tuple[int, int, int]],
        initial: Iterable[int],
        accepting: Iterable[int],
    ):
        if state_count < 0 or alphabet_size < 0:
            raise ValueError("state_count and alphabet_size must be nonnegative")
        per_letter: defaultdict[int, list[int]] = defaultdict(list)
        for p, a, q in transitions:
            if not (0 <= p < state_count and 0 <= q < state_count):
                raise ValueError(f"transition ({p},{a},{q}) uses an unknown state")
            if not (0 <= a < alphabet_size):
                raise ValueError(f"transition ({p},{a},{q}) uses an unknown letter")
            per_letter[a].append(p * state_count + q)
        # a letter's key is its sorted set of codes p * state_count + q, and
        # rows are built once per distinct key, never per letter and state;
        # letters without transitions share the empty key
        class_id: dict[tuple[int, ...], int] = {}
        letter_class = [
            class_id.setdefault(tuple(sorted(set(per_letter.get(a, ())))), len(class_id))
            for a in range(alphabet_size)
        ]
        class_rows = []
        for codes in class_id:
            rows: list[list[int]] = [[] for _ in range(state_count)]
            for code in codes:
                rows[code // state_count].append(code % state_count)
            class_rows.append(tuple(map(tuple, rows)))
        ini = frozenset(initial)
        acc = frozenset(accepting)
        for s in ini | acc:
            if not (0 <= s < state_count):
                raise ValueError(f"state {s} out of range")
        self._init_from(state_count, alphabet_size, letter_class, class_rows, ini, acc)

    def _init_from(self, state_count, alphabet_size, letter_class, class_rows, ini, acc):
        # canonical form: rows deduplicated by content, classes renumbered
        # by the first letter that uses them
        self.state_count = state_count
        self.alphabet_size = alphabet_size
        self.initial = ini
        self.accepting = acc
        content_id: dict = {}
        new_rows: list = []
        new_first: list[int] = []
        # old classes in order of first use, then mapped to new ids; each
        # class row is hashed once
        old_to_new = dict.fromkeys(letter_class)
        for oc in old_to_new:
            rows = class_rows[oc]
            nid = content_id.setdefault(rows, len(new_rows))
            if nid == len(new_rows):
                new_rows.append(rows)
                new_first.append(letter_class.index(oc))
            old_to_new[oc] = nid
        if list(old_to_new) != list(old_to_new.values()):
            letter_class = map(old_to_new.__getitem__, letter_class)
        # tuple() hands back an input tuple itself
        self._letter_class = tuple(letter_class)
        self._class_rows = tuple(new_rows)
        self._class_first_letter = tuple(new_first)
        self._weak = None
        self._det = None
        self._sim_order = None
        self._table = None

    @classmethod
    def _make(cls, state_count, alphabet_size, letter_class, class_rows, initial, accepting):
        """Internal constructor from prebuilt per-class rows, revalidated lightly."""
        self = object.__new__(cls)
        self._init_from(
            state_count,
            alphabet_size,
            letter_class,
            class_rows,
            frozenset(initial),
            frozenset(accepting),
        )
        return self

    # -- inspection ---------------------------------------------------------

    def successors(self, p: int, a: int) -> tuple[int, ...]:
        if not (0 <= a < self.alphabet_size):
            raise ValueError(f"letter {a} out of range")
        _check_states(self, p)
        return self._class_rows[self._letter_class[a]][p]

    @property
    def transitions(self) -> frozenset[tuple[int, int, int]]:
        rows = self._class_rows
        return frozenset(
            (p, a, q)
            for a, c in enumerate(self._letter_class)
            for p, row in enumerate(rows[c])
            for q in row
        )

    def transition_count(self) -> int:
        per_class = [sum(len(r) for r in rows) for rows in self._class_rows]
        uses = [0] * len(self._class_rows)
        for c in self._letter_class:
            uses[c] += 1
        return sum(u * n for u, n in zip(uses, per_class))

    def __eq__(self, other):
        if not isinstance(other, BuchiNfa):
            return NotImplemented
        return (
            self.state_count == other.state_count
            and self.alphabet_size == other.alphabet_size
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self._letter_class == other._letter_class
            and self._class_rows == other._class_rows
        )

    def __repr__(self):
        return (
            f"BuchiNfa(states={self.state_count}, alphabet={self.alphabet_size}, "
            f"transitions={self.transition_count()}, initial={sorted(self.initial)}, "
            f"accepting={sorted(self.accepting)})"
        )


def empty_nfa(alphabet_size: int) -> BuchiNfa:
    """The automaton with no states; accepts nothing."""
    return BuchiNfa(0, alphabet_size, [], [], [])


# -- word relations ----------------------------------------------------------


def letter_relation(A: BuchiNfa, a: int) -> tuple[int, ...]:
    """Successor sets of one letter as per-state bitmasks."""
    if not (0 <= a < A.alphabet_size):
        raise ValueError(f"letter {a} out of range")
    return tuple(sum(1 << q for q in row) for row in A._class_rows[A._letter_class[a]])


def _check_states(A: BuchiNfa, *states: int) -> None:
    for s in states:
        if not (0 <= s < A.state_count):
            raise ValueError(f"state {s} out of range")


def _mask_image(rows: Sequence[int], frontier: int) -> int:
    out = 0
    m = frontier
    while m:
        s = (m & -m).bit_length() - 1
        out |= rows[s]
        m &= m - 1
    return out


def trans(A: BuchiNfa, p: int, w: Sequence[int], q: int) -> bool:
    """Is there a w-labeled path from p to q?  w must be nonempty."""
    if not w:
        raise ValueError("trans needs a nonempty word")
    _check_states(A, p, q)
    frontier = 1 << p
    for a in w:
        frontier = _mask_image(letter_relation(A, a), frontier)
        if not frontier:
            return False
    return bool(frontier >> q & 1)


def transa(A: BuchiNfa, p: int, w: Sequence[int], q: int) -> bool:
    """Like trans, but the path must visit an accepting state at some
    position other than the last one.  w must be nonempty."""
    if not w:
        raise ValueError("transa needs a nonempty word")
    _check_states(A, p, q)
    acc_mask = sum(1 << s for s in A.accepting)
    reach = 1 << p
    reach_acc = reach & acc_mask
    for a in w:
        rows = letter_relation(A, a)
        new_acc = _mask_image(rows, reach_acc | (reach & acc_mask))
        reach = _mask_image(rows, reach)
        reach_acc = new_acc & reach
        if not reach:
            return False
    return bool(reach_acc >> q & 1)


# -- emptiness and witness extraction -----------------------------------------


@dataclass(frozen=True)
class Match:
    """An accepting lasso: stem from an initial state to an anchor, then a
    loop from the anchor back to itself that starts at an accepting state.
    When the anchor is itself initial the stem repeats the loop, keeping
    both word components nonempty."""

    stem: tuple[int, ...]
    loop: tuple[int, ...]
    stem_path: tuple[int, ...]
    loop_path: tuple[int, ...]

    def word(self) -> UpWord:
        return UpWord(self.stem, self.loop)


def _adjacency(A: BuchiNfa) -> list[list[int]]:
    """Per state, its successors over all letter classes, ascending."""
    if not A._class_rows:
        return [[] for _ in range(A.state_count)]
    return [sorted(set().union(*rows)) for rows in zip(*A._class_rows)]


def _strongly_connected(
    roots: Iterable[int], succ: Callable, size: int
) -> Iterator[tuple[list[int], bool]]:
    """Iterative Tarjan (Tarjan, SIAM J. Comput. 1972) over the nodes of
    0..size-1 reachable from roots.  Yields (members, cyclic) per strongly
    connected component, each after every component it has an edge into;
    cyclic means the component holds a cycle (two or more members, or a
    self loop).

    index and low are lists over the dense nodes, and a node's index turns
    to done, a value above every index, once its component is yielded, so
    one lookup tells unvisited, on the stack and done apart.  Self loops
    are noted while the edges are scanned, so succ is called once per
    node.  Callers read the components as they come and stop once
    they know their answer: membership_up at the first anchor of
    _word_graph, is_weak at the first non-uniform component and
    complement._compatible_from at the first accepting step inside a
    cyclic one.  _trim decides liveness per component in the same pass,
    as every component a component reaches comes before it."""
    index = [0] * size
    low = [0] * size
    done = size + 1
    looped: set[int] = set()
    stack: list[int] = []
    counter = 0
    for root in roots:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        # per open node: the node, its edge iterator, its stack position
        work = [(root, iter(succ(root)), len(stack))]
        stack.append(root)
        while work:
            node, edges, height = work[-1]
            for child in edges:
                i = index[child]
                if not i:
                    counter += 1
                    index[child] = low[child] = counter
                    work.append((child, iter(succ(child)), len(stack)))
                    stack.append(child)
                    break
                if i < low[node]:
                    low[node] = i
                elif child == node:
                    looped.add(node)
            else:
                work.pop()
                lo = low[node]
                if work:
                    parent = work[-1][0]
                    if lo < low[parent]:
                        low[parent] = lo
                if lo == index[node]:
                    members = stack[height:]
                    del stack[height:]
                    for m in members:
                        index[m] = done
                    yield members, len(members) > 1 or node in looped


def _bfs(sources: Iterable[int], edges: Callable, stop: int | None = None):
    """Parent-pointer BFS: layers in ascending node order, each node's
    (label, target) edges in the order edges lists them, first visit wins.
    Returns (parent, dist, hit): parent[v] is v's (predecessor, label), or
    None for a source, and hit the first edge (predecessor, label) into
    stop, where the search ends, or None."""
    frontier = sorted(set(sources))
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(frontier)
    dist = dict.fromkeys(frontier, 0)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for p in frontier:
            for a, q in edges(p):
                if q == stop:
                    return parent, dist, (p, a)
                if q not in parent:
                    parent[q] = (p, a)
                    dist[q] = d
                    nxt.append(q)
        frontier = sorted(nxt)
    return parent, dist, None


def _path(parent, node: int) -> tuple[list[int], list[int]]:
    """Labels and nodes of the parent-tree path from a source to node."""
    word, path = [], [node]
    while parent[node] is not None:
        node, a = parent[node]
        word.append(a)
        path.append(node)
    return word[::-1], path[::-1]


def _lasso(sources: Iterable[int], edges: Callable, anchors: Iterable[int], n: int) -> Match:
    """The stem is the BFS path from sources to the anchor with the
    smallest (distance, node), the loop the shortest cycle through that
    anchor.  Anchors are reachable and on cycles; node v has state v % n."""
    parent, dist, _ = _bfs(sources, edges)
    anchor = min(anchors, key=lambda v: (dist[v], v))
    stem, stem_path = _path(parent, anchor)
    loop_parent, _, (p, a) = _bfs([anchor], edges, stop=anchor)
    loop, loop_path = _path(loop_parent, p)
    loop.append(a)
    loop_path.append(anchor)
    if not stem:
        stem, stem_path = loop, loop_path
    stem_states, loop_states = (tuple(v % n for v in path) for path in (stem_path, loop_path))
    return Match(tuple(stem), tuple(loop), stem_states, loop_states)


def find_match(A: BuchiNfa) -> Match | None:
    """Deterministic accepting lasso, or None when the language is empty.

    A full _strongly_connected pass from the initial states collects the
    accepting states of reachable cyclic components, as the witness reads
    them all.  Only then does _lasso run, over edges per letter class in
    class order, each labeled with the class's first letter."""
    if not A.initial:
        return None
    acc = A.accepting
    anchors = [
        f
        for members, cyclic in _strongly_connected(
            sorted(A.initial), _adjacency(A).__getitem__, A.state_count
        )
        if cyclic
        for f in members
        if f in acc
    ]
    if not anchors:
        return None
    first, class_rows = A._class_first_letter, A._class_rows

    def edges(p):
        return [(first[c], q) for c, rows in enumerate(class_rows) for q in rows[p]]

    return _lasso(A.initial, edges, anchors, A.state_count)


def is_satisfiable(A: BuchiNfa) -> bool:
    """Does the automaton accept any word at all?"""
    return find_match(A) is not None


# -- constructions -------------------------------------------------------------


def exact_up_nfa(sigma: UpWord, alphabet_size: int) -> BuchiNfa:
    """Automaton accepting exactly the words equal to sigma's expansion.

    A chain spells the prefix, a cycle spells the period; every cycle state
    is accepting, so the only run is the intended one.
    """
    nx, ny = len(sigma.prefix), len(sigma.period)
    for a in itertools.chain(sigma.prefix, sigma.period):
        if not (0 <= a < alphabet_size):
            raise AlphabetMismatch(f"letter {a} outside alphabet of size {alphabet_size}")
    transitions = []
    for i, a in enumerate(sigma.prefix):
        transitions.append((i, a, i + 1 if i + 1 < nx else nx))
    for j, a in enumerate(sigma.period):
        transitions.append((nx + j, a, nx + (j + 1) % ny))
    return BuchiNfa(
        nx + ny,
        alphabet_size,
        transitions,
        [0],
        range(nx, nx + ny),
    )


def _joint_classes(parts: Sequence[BuchiNfa]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Per letter, the class of its tuple of the parts' letter classes,
    numbered by first letter, and per class that tuple."""
    combo_id: dict[tuple[int, ...], int] = {}
    letter_class = [combo_id.setdefault(combo, len(combo_id))
                    for combo in zip(*(part._letter_class for part in parts))]
    return letter_class, list(combo_id)


def _union_many(parts: Sequence[BuchiNfa], alphabet_size: int) -> BuchiNfa:
    for part in parts:
        if part.alphabet_size != alphabet_size:
            raise AlphabetMismatch(
                f"alphabet {part.alphabet_size} differs from {alphabet_size}"
            )
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.state_count
    letter_class, combos = _joint_classes(parts)
    class_rows = []
    for combo in combos:
        rows: list[tuple[int, ...]] = []
        for part, off, pc in zip(parts, offsets, combo):
            if off == 0:
                rows.extend(part._class_rows[pc])
            else:
                rows.extend(tuple(q + off for q in row) for row in part._class_rows[pc])
        class_rows.append(tuple(rows))
    initial = [s + off for part, off in zip(parts, offsets) for s in part.initial]
    accepting = [s + off for part, off in zip(parts, offsets) for s in part.accepting]
    return BuchiNfa._make(total, alphabet_size, letter_class, class_rows, initial, accepting)


def union(A: BuchiNfa, B: BuchiNfa) -> BuchiNfa:
    """Disjoint union; B's states follow A's."""
    if A.alphabet_size != B.alphabet_size:
        raise AlphabetMismatch(
            f"alphabets differ: {A.alphabet_size} vs {B.alphabet_size}"
        )
    return _union_many([A, B], A.alphabet_size)


# From this many cells on, the array routes run, and below it the Python
# routes, which need no numpy: a run whose automata all stay below it never
# imports numpy.  A table of an automaton has states x classes cells, and
# _on_arrays states every switch: _refine and _read_off of a deterministic
# automaton (a nondeterministic one stays on Python rows at every size),
# its trim (_kept_on_table), complement_flip, the columns _from_table keeps
# as a table, and the deterministic product, potential pairs nA * nB x
# classes of letter pairs.  A relation (_relation, _order_on) has states x
# states cells.  The array routes pay a fixed cost in numpy calls, the
# Python routes per cell.  Each recorded call of one merge-compile and one
# cli-requests pass at seed 1, best of 5 on 2 shared cores, Python against
# arrays, medians in us per cell range: _refine of deterministic inputs
# 64-255 69 and 60, 256-511 112 and 52, 512-1023 228 and 97, and their
# _read_off 256-511 52 and 73, 512-1023 89 and 71 (the middle of three
# runs); the relation 256-511 509 and 895, 512-1023 570 and 732, 1024-4095
# 1,611 and 1,221; the trim 256-511 66 and 69, 512-1023 93 and 88; the
# product 256-511 160 and 238, 512-1023 473 and 324.  Below 64 cells
# (1,129 to 2,557 calls per route) the Python routes take 3-16 us, the
# array routes 9-143.  The sum over all recorded calls, measured when
# nondeterministic automata took arrays too, is 218.3 ms with the switch
# at 256, 215.4 at 512 and 768, 217.0 at 1,024, against 213.9 with the
# faster route per call.  No cli-requests call reaches 512 cells (at most
# 168, in a product).
_ARRAY_CROSSOVER = 512


def _on_arrays(states: int, classes: int) -> bool:
    """Do the array routes run on a table of states x classes cells?"""
    return states * classes >= _ARRAY_CROSSOVER


def _product(A: BuchiNfa, B: BuchiNfa, flagged: bool) -> BuchiNfa:
    """The part of A x B reachable from the initial pairs.

    A pair carries the code (flag * nA + p) * nB + q, and the states are
    numbered in ascending code order, so the result is the reachable part
    of the full product renumbered monotonically.  intersection and
    product_weak are its two callers.

    Without the flag, accepting states are accepting pairs.  With it, the
    flag arms when leaving an accepting B state and resets when leaving an
    accepting A state while armed, and accepting states are armed pairs
    over accepting A states.

    Two routes build the same automaton.  The pair loop expands one pair
    at a time, per class of letter pairs.  Without the flag, when both
    operands are deterministic and the pairs nA * nB times the classes of
    letter pairs reach the switch (_on_arrays), _deterministic_product
    builds it on arrays instead.  A product of two operands known
    deterministic is marked deterministic on either route.
    """
    if A.alphabet_size != B.alphabet_size:
        raise AlphabetMismatch(
            f"alphabets differ: {A.alphabet_size} vs {B.alphabet_size}"
        )
    nA, nB = A.state_count, B.state_count
    size = nA * nB
    letter_class, pairs = _joint_classes((A, B))
    if (
        not flagged
        and _on_arrays(size, len(pairs))
        and is_deterministic(A)
        and is_deterministic(B)
    ):
        return _deterministic_product(A, B, letter_class, pairs)
    combos = [(A._class_rows[ca], B._class_rows[cb]) for ca, cb in pairs]
    acc_a, acc_b = A.accepting, B.accepting
    start = [p * nB + q for p in sorted(A.initial) for q in sorted(B.initial)]
    succ: dict[int, list[tuple[int, ...]] | None] = dict.fromkeys(start)
    work = list(start)
    while work:
        code = work.pop()
        flag, pq = divmod(code, size)
        p, q = divmod(pq, nB)
        if flagged and (p in acc_a if flag else q in acc_b):
            flag = 1 - flag
        base = flag * nA
        out = [
            tuple([(base + p2) * nB + q2 for p2 in rows_a[p] for q2 in rows_b[q]])
            for rows_a, rows_b in combos
        ]
        succ[code] = out
        for row in out:
            for x in row:
                if x not in succ:
                    succ[x] = None
                    work.append(x)
    codes = sorted(succ)
    remap = {x: i for i, x in enumerate(codes)}
    get = remap.__getitem__
    class_rows = [
        tuple([tuple(map(get, succ[code][k])) for code in codes])
        for k in range(len(combos))
    ]
    if flagged:
        accepting = [i for i, x in enumerate(codes) if x >= size and x // nB - nA in acc_a]
    else:
        accepting = [i for i, x in enumerate(codes) if x // nB in acc_a and x % nB in acc_b]
    out = BuchiNfa._make(
        len(codes), A.alphabet_size, letter_class, class_rows, map(get, start), accepting
    )
    if A._det and B._det:
        out._det = True
    return out


def _deterministic_product(A: BuchiNfa, B: BuchiNfa, letter_class: Sequence[int],
                           pairs: Sequence[tuple[int, int]]) -> BuchiNfa:
    """_product(A, B, False) of deterministic A and B, on arrays.

    letter_class and pairs number the letter pairs as the pair loop does
    (_joint_classes); _make merges pairs whose columns are equal.  A BFS from
    the initial pair expands one whole layer at a time through the two
    successor tables (_successor_table), and the pairs seen are held
    in arrays that grow with the reachable pairs, never with nA * nB: in
    the order found, and sorted, which tells a layer's new pairs by binary
    search.  A layer's targets are deduplicated by sorting, not by
    np.unique, whose hashing is slower here.  The codes p * nB + q are
    then sorted, and each successor code is mapped to its state by binary
    search: the result's successor table (_from_table).
    """
    import numpy as np

    nA, nB = A.state_count, B.state_count
    ca, cb = [a for a, _ in pairs], [b for _, b in pairs]
    succ_a, succ_b = _successor_table(A)[:, ca], _successor_table(B)[:, cb]
    start = [p * nB + q for p in A.initial for q in B.initial]
    frontier = seen = known = np.array(start, dtype=np.int64)
    # per layer, the successor codes of its pairs, -1 for none
    layers = [np.empty((0, len(pairs)), dtype=np.int64)]
    while frontier.size:
        p, q = np.divmod(frontier, nB)
        ta, tb = succ_a[p], succ_b[q]
        targets = ta * nB + tb
        targets[(ta == nA) | (tb == nB)] = -1
        layers.append(targets)
        found = np.sort(targets[targets >= 0])
        found = found[np.diff(found, prepend=-1) != 0]
        at = np.searchsorted(known, found)
        fresh = known.take(at, mode="clip") != found
        frontier = found[fresh]
        known = np.insert(known, at[fresh], frontier)
        seen = np.concatenate((seen, frontier))
    order = np.argsort(seen)
    codes, targets = seen[order], np.concatenate(layers)[order]
    states = np.where(targets >= 0, np.searchsorted(codes, targets), codes.size)
    acc_a, acc_b = np.zeros(nA, dtype=bool), np.zeros(nB, dtype=bool)
    acc_a[list(A.accepting)] = True
    acc_b[list(B.accepting)] = True
    return _from_table(codes.size, states, A.alphabet_size, letter_class,
                       np.searchsorted(codes, start).tolist(),
                       np.flatnonzero(acc_a[codes // nB] & acc_b[codes % nB]).tolist())


def intersection(A: BuchiNfa, B: BuchiNfa) -> BuchiNfa:
    """Reachable product with a round-robin flag, for arbitrary operands.

    Built by _product: the flag arms when leaving an accepting B state and
    resets when leaving an accepting A state while armed, and accepting
    product states are armed states over accepting A states.  An accepting
    product state recurs exactly when both components visit their accepting
    sets infinitely often, so the language is the intersection.  Only the
    pairs reachable from the initial pairs are built, numbered in ascending
    order of the code (flag * nA + p) * nB + q.  Membership of one UP word
    needs no product: membership_up and match_for_up search the word's run
    graph directly.
    """
    return _product(A, B, True)


def ex_project(A: BuchiNfa, bit: int) -> BuchiNfa:
    """Existential projection of one letter bit: the automaton over the
    letters without bit, on which letter b acts as both of A's letters
    that agree with b off bit, so a transition (p, a, q) of A is read on
    a with bit dropped.  The result has half A's alphabet.

    Each letter merges the class rows of its pair of A's letters: its key
    is the bitmask of the pair's classes, and the rows of each distinct
    key are built once, so the work per letter is one key and one
    dictionary lookup."""
    size = A.alphabet_size
    if bit <= 0 or bit & (bit - 1) or bit >= size:
        raise ValueError(f"bit {bit} is no letter bit of an alphabet of size {size}")
    lc = A._letter_class
    # A's letters in runs of bit letters, alternately without and with bit
    key = [
        1 << lc[a] | 1 << lc[a + bit]
        for start in range(0, size, 2 * bit)
        for a in range(start, start + bit)
    ]
    group_id: dict[int, int] = {}
    letter_class = [group_id.setdefault(k, len(group_id)) for k in key]
    class_rows = []
    for k in group_id:
        parts = [rows for c, rows in enumerate(A._class_rows) if k >> c & 1]
        if len(parts) == 1:
            class_rows.append(parts[0])
        else:
            class_rows.append(tuple(tuple(sorted(set().union(*rows))) for rows in zip(*parts)))
    return BuchiNfa._make(
        A.state_count, size // 2, letter_class, class_rows, A.initial, A.accepting
    )


def _relabel(A: BuchiNfa, letters: Sequence[int]) -> BuchiNfa:
    """The automaton on which letter a acts as A's letter letters[a]: the
    one map between alphabets of the translation, which renames the
    variables of a shared subformula and lifts an automaton to a larger
    set of variables.

    Its states and their transitions are A's, so what A keeps about them
    (is_weak, is_deterministic, _simulation_order) is kept on the result;
    the simulation order stays the greatest one when every class of A is
    some letters[a].  A's class rows are distinct, so no row is hashed:
    the classes the letters use are renumbered by first letter, and A's
    successor table, whose columns are A's classes, is carried with its
    columns in that order.  A lift whose letters keep the order of the
    classes' first letters keeps A's class rows, numbering and table as
    they are, and its cost is one pass over the letters."""
    letter_class = list(map(A._letter_class.__getitem__, letters))
    # each used class's first letter, the later letters overwritten
    first = dict(zip(reversed(letter_class), range(len(letter_class) - 1, -1, -1)))
    order = sorted(first, key=first.__getitem__)
    rows, table = A._class_rows, A._table
    if order != list(range(len(rows))):
        rank = {c: i for i, c in enumerate(order)}
        letter_class = list(map(rank.__getitem__, letter_class))
        rows = tuple(map(rows.__getitem__, order))
        if table is not None:
            table = table[:, order]
    out = object.__new__(BuchiNfa)
    out.state_count, out.alphabet_size = A.state_count, len(letters)
    out.initial, out.accepting = A.initial, A.accepting
    out._letter_class, out._class_rows = tuple(letter_class), rows
    out._class_first_letter = tuple(sorted(first.values()))
    out._weak, out._det, out._sim_order, out._table = A._weak, A._det, A._sim_order, table
    return out


# -- membership of ultimately periodic words -----------------------------------

def _word_graph(A: BuchiNfa, sigma: UpWord):
    """(edges, anchors) of the graph of A's runs over x.y^omega = sigma.

    Node v = i * n + p is state p at position i of x.y; it steps by the
    i-th letter to position i + 1, and y's last position steps back to
    y's first.  The prefix is stepped as a set of states, then one
    _strongly_connected pass runs from the nodes it reaches; every cycle
    lies in y's positions.  edges(v) lists v's (letter, target) edges, and
    anchors is an iterator over the nodes with accepting states in cyclic
    components, all reachable from the initial states at position 0.  It
    runs the pass lazily, so a caller that stops at the first anchor
    stops the pass there.  A accepts sigma iff there is an anchor."""
    word = sigma.prefix + sigma.period
    for a in word:
        if not (0 <= a < A.alphabet_size):
            raise AlphabetMismatch(f"letter {a} outside alphabet of size {A.alphabet_size}")
    if not A.initial or not A.accepting:
        return None, iter(())
    current = set(A.initial)
    for a in sigma.prefix:
        rows = A._class_rows[A._letter_class[a]]
        current = {q for p in current for q in rows[p]}
        if not current:
            return None, iter(())
    n = A.state_count
    nx, last = len(sigma.prefix), len(word) - 1
    word_rows = [A._class_rows[A._letter_class[a]] for a in word]

    def succ(v):
        i, p = divmod(v, n)
        base = (i + 1 if i < last else nx) * n
        return [base + q for q in word_rows[i][p]]

    def edges(v):
        return [(word[v // n], q) for q in succ(v)]

    acc = A.accepting
    components = _strongly_connected(sorted(nx * n + p for p in current), succ, len(word) * n)
    return edges, (v for members, cyclic in components if cyclic for v in members if v % n in acc)


def membership_up(A: BuchiNfa, sigma: UpWord) -> bool:
    """Does A accept the expansion of sigma?  Decided by _word_graph, whose
    pass stops at the first anchor."""
    return next(_word_graph(A, sigma)[1], None) is not None


def match_for_up(A: BuchiNfa, sigma: UpWord) -> Match | None:
    """An accepting lasso of A over sigma's expansion, or None: _lasso on
    _word_graph from the initial states at position 0.  The stem reaches
    the nearest accepting node on a cycle, the loop is the shortest cycle
    through it, and the paths are the nodes' states."""
    edges, anchors = _word_graph(A, sigma)
    anchors = list(anchors)
    return _lasso(A.initial, edges, anchors, A.state_count) if anchors else None


# -- language preserving reductions (internal) ----------------------------------


def _trim(A: BuchiNfa) -> BuchiNfa:
    """Keep states that are reachable and can still reach an accepting
    cycle.  Preserves the language exactly.  Returns A itself when every
    state is kept.

    A deterministic A from the switch on (_on_arrays) is trimmed on its
    successor table (_kept_on_table); the size is checked first, as
    is_deterministic costs more on small automata than it saves.  Other
    automata take one _strongly_connected pass from the initial states,
    which finds the reachable states.  Each component comes after every
    component it reaches, so it is marked live as it comes when it is
    cyclic with an accepting member, or when it has an edge into a state
    already marked live.  The kept states are whole components of A, and
    they are the components of the result, so the pass also tells whether
    the result is weak, which is kept on it as is_weak would keep it.  On
    the table, the trim of a weak A is weak, and is_weak runs on others.
    The kept states are numbered in order, the rest map to -1, and
    _read_off builds the result from that map, as it builds _refine's
    quotients.  A's simulation order, if kept, is restricted to a
    nondeterministic result that lost only unreachable states: the rest
    are closed under successors, so it stays the greatest (_sim_reduce).
    """
    n = A.state_count
    if _on_arrays(n, len(A._class_rows)) and is_deterministic(A):
        keep = _kept_on_table(A).nonzero()[0].tolist()
        weak, reached = A._weak or None, None
    else:
        adj = _adjacency(A)
        live = [False] * n
        acc = A.accepting
        weak = True
        reached = 0
        for members, cyclic in _strongly_connected(sorted(A.initial), adj.__getitem__, n):
            reached += len(members)
            if cyclic and not acc.isdisjoint(members) or any(
                live[q] for s in members for q in adj[s]
            ):
                for s in members:
                    live[s] = True
                weak = weak and (acc.isdisjoint(members) or acc.issuperset(members))
        keep = [s for s in range(n) if live[s]]
    if len(keep) == n:
        # nothing to cut; the rebuilt automaton would equal A
        out = A
    else:
        number = [-1] * (n + 1)
        for i, s in enumerate(keep):
            number[s] = i
        out = _read_off(A, number, keep)
        if A._sim_order and len(keep) == reached and not is_deterministic(out):
            out._sim_order = _order_on(A._sim_order, keep, n)
    if weak is None:
        is_weak(out)
    else:
        out._weak = weak
    return out


def _kept_on_table(A: BuchiNfa) -> np.ndarray:
    """The states of a deterministic A that _trim keeps, as a mask: the
    reachable ones, by layered gathers of the successor table, that are
    live, by the fixpoint nu Z. mu Y. pre(Y) | (acc & pre(Z)) (Emerson and
    Lei, LICS 1986), the states with a path through accepting states
    infinitely often.  pre(S), the states with a successor in S, is one
    gather of the table through S's mask."""
    import numpy as np

    n = A.state_count
    succ = _successor_table(A)
    # masks over the states and the missing successor n, which counts as
    # reached, so it is never expanded, and is in no Z or Y
    reach = np.zeros(n + 1, dtype=bool)
    frontier = list(A.initial)
    reach[frontier] = True
    reach[n] = True
    while len(frontier):
        found = np.zeros(n + 1, dtype=bool)
        found[succ[frontier]] = True
        found &= ~reach
        reach |= found
        frontier = np.flatnonzero(found)
    acc = np.zeros(n, dtype=bool)
    acc[list(A.accepting)] = True
    z = np.ones(n + 1, dtype=bool)
    z[n] = False
    while True:
        y = np.zeros(n + 1, dtype=bool)
        y[:n] = acc & z[succ].any(axis=1)
        while True:
            grown = y[:n] | y[succ].any(axis=1)
            if (grown == y[:n]).all():
                break
            y[:n] = grown
        if (y == z).all():
            return y[:n] & reach[:n]
        z = y


def is_deterministic(A: BuchiNfa) -> bool:
    """At most one initial state and one successor per state and letter.
    The answer is kept on A, as is_weak keeps its own.  Results that are
    deterministic by construction are marked so: those built from a
    successor table (_from_table) and the pair loop's products of two
    operands known deterministic (_product)."""
    if A._det is None:
        A._det = len(A.initial) <= 1 and all(
            len(row) <= 1 for rows in A._class_rows for row in rows
        )
    return A._det


def is_weak(A: BuchiNfa) -> bool:
    """Every strongly connected component is uniformly accepting or not.

    On such automata a run is accepting exactly when it eventually stays
    inside accepting states, so the Buchi and co-Buchi readings coincide.
    The _strongly_connected pass over all states stops at the first
    component with accepting and non-accepting members.  The answer is
    kept on A, so the translation's negations and products, which all ask
    it of the same operands, pay for at most one SCC pass each.  _trim
    sets it on what it returns, and complement_flip, product_weak of
    operands known weak and _refine of a weak A mark their results weak.
    """
    if A._weak is None:
        n, acc = A.state_count, A.accepting
        A._weak = all(
            acc.isdisjoint(members) or acc.issuperset(members)
            for members, _ in _strongly_connected(range(n), _adjacency(A).__getitem__, n)
        )
    return A._weak


def complement_deterministic(A: BuchiNfa) -> BuchiNfa:
    """Complement of a deterministic automaton, two copies plus a sink.

    The unique run of a rejected word either dies or stops visiting
    accepting states.  Copy one follows the run without accepting, moves to
    the sink when the run dies, and may guess at any step that no accepting
    state comes later; copy two checks that guess by only ever stepping to
    non-accepting states (dying if the real run visits one).  Exact only
    for deterministic input.
    """
    if not is_deterministic(A):
        raise ValueError("complement_deterministic needs a deterministic automaton")
    n = A.state_count
    if not A.initial:
        return _universal(A.alphabet_size)
    acc = A.accepting
    # copy one: 0..n-1, copy two: n..2n-1, sink: 2n
    sink = 2 * n
    rows_by_class = []
    for rows in A._class_rows:
        out = [() for _ in range(sink + 1)]
        out[sink] = (sink,)
        for p in range(n):
            if not rows[p]:
                out[p] = (sink,)
                if p not in acc:
                    out[n + p] = (sink,)
                continue
            q = rows[p][0]
            out[p] = (q,) if q in acc else (q, n + q)
            if p not in acc and q not in acc:
                out[n + p] = (n + q,)
        rows_by_class.append(tuple(out))
    accepting = [n + p for p in range(n) if p not in acc] + [sink]
    return BuchiNfa._make(sink + 1, A.alphabet_size, list(A._letter_class),
                          rows_by_class, list(A.initial), accepting)


def complement_flip(A: BuchiNfa) -> BuchiNfa:
    """Complement of a deterministic weak automaton: A completed with one
    sink, accepting exactly A's non-accepting states and the sink.

    The unique run of a word either dies, and then loops in the sink, or
    ends in one SCC of A.  A weak run accepts exactly when that SCC is
    accepting, so flipping every state's acceptance flips the verdict
    (Loding, IPL 2001; Kupferman and Vardi, ACM TOCL 2001).  The result
    is deterministic and weak, and keeps A's states, numbers and letter
    classes, the sink being state n.  Exact only for deterministic weak
    input.  Its table is A's plus a sink row, A's value n for none being
    the sink.  It is marked weak: the sink only loops, so the components
    are A's, each uniform and flipped whole, and the sink's.
    """
    if not (is_deterministic(A) and is_weak(A)):
        raise ValueError("complement_flip needs a deterministic weak automaton")
    if not A.initial:
        return _universal(A.alphabet_size)
    n, classes = A.state_count, len(A._class_rows)
    if _on_arrays(n, classes):
        import numpy as np

        table = np.concatenate((_successor_table(A), np.full((1, classes), n)))
    else:
        table = [[row[0] if row else n for row in rows] + [n] for rows in A._class_rows]
    accepting = [p for p in range(n) if p not in A.accepting] + [n]
    out = _from_table(n + 1, table, A.alphabet_size, A._letter_class, A.initial, accepting)
    out._weak = True
    return out


class BreakpointBudget(RuntimeError):
    """Breakpoint complement grew past _BREAKPOINT_LIMIT states."""


_BREAKPOINT_LIMIT = 30000


def complement_weak(A: BuchiNfa) -> BuchiNfa:
    """Breakpoint complement (Miyano and Hayashi, TCS 1984), exact for
    weak automata, over simulation-maximal macrostates.

    Reading a weak automaton as co-Buchi, a word is rejected exactly when
    no run eventually stays inside accepting states.  States are pairs
    (reachable set, watched subset still inside accepting states since the
    last breakpoint); the watched set emptying is the breakpoint, and a run
    of breakpoints at infinitely many steps certifies rejection.  A word
    whose runs all die is rejected too, which the empty reachable set
    accepts vacuously.

    Each set keeps only its members that no other member strictly
    simulates, by A's direct simulation, and of each class of mutually
    similar members one state, the lowest numbered state of A in that
    class (van Glabbeek and Ploeger, CIAA 2008; Chen, Havlena and Lengal,
    APLAS 2019).  The reachable set and the watched set are each pruned
    against themselves.  Call two sets equivalent when every member of
    each is simulated by a member of the other.  Equivalent sets prune to
    the same set, and a set is equivalent to its pruned self.  Successors
    of equivalent sets on a letter are equivalent: if q simulates p, each
    successor p' of p is simulated by a successor q' of q, which is
    accepting when p' is.  So are their accepting members, for the same
    reason, and the accepting members of a pruned set are its accepting
    members pruned.  Hence, on every word, the reachable set here is the
    unpruned construction's reachable set, pruned.  The same holds for
    the watched set: it follows its members' accepting successors, and at
    a breakpoint it is reset to the accepting members of the reachable
    set.  An empty set prunes to the empty set and no other, so the
    watched set here empties exactly when the unpruned one does.  Pruning
    thus maps each unpruned state to one state here, respecting
    transitions and acceptance: both constructions accept the same words,
    and this one has at most as many states.

    The sets are masks, pruned by _maximal_members(A) and stepped by
    _mask_image over each class's successor masks.  Without a simulation
    order (A deterministic, when its sets have at most one member, or
    over _SIM_LIMIT states) they are built unpruned.  An order A
    inherited (_sim_reduce) is still A's greatest direct simulation.
    """
    if not is_weak(A):
        raise ValueError("complement_weak needs SCC-uniform acceptance")
    head, prune = _maximal_members(A)
    acc = reduce(or_, map(head.__getitem__, A.accepting), 0)
    succ = [[reduce(or_, map(head.__getitem__, row), 0) for row in rows] for rows in A._class_rows]
    initial = reduce(or_, map(head.__getitem__, A.initial), 0)
    start = (prune(initial), prune(initial & acc))
    index: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    targets: list[list[int]] = [[] for _ in succ]
    i = 0
    while i < len(order):
        s, o = order[i]
        for c, rows in enumerate(succ):
            ns = prune(_mask_image(rows, s))
            if o:
                no = prune(_mask_image(rows, o) & acc)
            else:
                no = ns & acc
            key = (ns, no)
            j = index.get(key)
            if j is None:
                if len(order) >= _BREAKPOINT_LIMIT:
                    raise BreakpointBudget(_BREAKPOINT_LIMIT)
                j = len(order)
                index[key] = j
                order.append(key)
            targets[c].append(j)
        i += 1
    accepting = [j for j, (_, o) in enumerate(order) if not o]
    return _from_table(len(order), targets, A.alphabet_size, A._letter_class, [0], accepting)


def product_weak(A: BuchiNfa, B: BuchiNfa) -> BuchiNfa:
    """Reachable plain product with accepting = accepting x accepting.

    Built by _product without the flag.  Exact for weak operands: a weak
    run is accepting exactly when it is eventually confined to accepting
    states, and confinement holds in the product iff it holds in both
    parts.  Unlike intersection it keeps weak automata weak, and marks
    the product of two operands known weak so: a component of pairs
    projects into one component of each operand, uniform in acceptance.
    """
    out = _product(A, B, False)
    if A._weak and B._weak:
        out._weak = True
    return out


def _universal(alphabet_size: int) -> BuchiNfa:
    """One accepting state looping on every letter, marked weak."""
    out = _from_table(1, [[0]], alphabet_size, [0] * alphabet_size, [0], [0])
    out._weak = True
    return out


_SIM_LIMIT = 3000


# From this many states on, _direct_simulation transposes in 8 x 8 blocks.
# The block route pays about 25 us per call in its numpy calls whatever n,
# where the byte route costs 4 us at 8 states.  Medians of 9 timings per
# transpose on 2 shared cores, bytes against blocks: 128 states 21 and
# 31 us, 208 states 42 and 44 us, 240 states 51 and 49 us, 1,000 states
# 0.88 and 0.34 ms, 1,938 states 4.5 and 1.3 ms.  No relation of a
# merge-compile or cli-requests pass reaches it (the largest have 195 and
# 7 states); Z3's compile builds 4 of its 18 relations on 715-838 states,
# and Z4's refined operand has about 3,400.  There, medians of 9: 838
# states 0.44 and 0.17 ms, 3,409 states 74 and 3.7-4.6 ms.  From it on,
# _sim_reduce also refines an input with no order before the relation.
# Best of 15 merge-compile passes (TRIV, LP, Z2), gate here, at
# 64 states and absent: 192, 201 and 191 ms; one Z3 compile
# 2.33, 2.28 and 2.81 s.
_BLOCK_TRANSPOSE_STATES = 224


def _byte_transposer(n: int) -> Callable[[np.ndarray, np.ndarray], None]:
    """transpose(out, rows) transposes the n x n bit matrix packed in
    rows: numpy.packbits bit order in rows of 64-bit words, any bits past
    column n ignored.  It writes the packed transpose into the first
    (n + 7) // 8 bytes of out's first n rows, bits past column n zero,
    and changes nothing else of out.  Unpacks to one byte per bit and
    packs the strided copy of the transposed bytes."""
    import numpy as np

    nbytes = (n + 7) // 8

    def transpose(out, rows):
        bits = np.unpackbits(rows.view(np.uint8), axis=1, count=n)
        out.view(np.uint8)[:n, :nbytes] = np.packbits(np.ascontiguousarray(bits.T), axis=1)

    return transpose


@cache
def _block_swaps():
    """Delta swaps (shift, mask) that transpose an 8 x 8 bit block held in
    one 64-bit word, row r in byte r and column c in bit c of its byte
    (Warren, Hacker's Delight, section 7-3); built on the first block
    transpose, as numpy loads only for the array routes."""
    import numpy as np

    return tuple(
        (np.uint64(shift), np.uint64(mask))
        for shift, mask in (
            (7, 0x00AA00AA00AA00AA),
            (14, 0x0000CCCC0000CCCC),
            (28, 0x00000000F0F0F0F0),
        )
    )


def _block_transposer(n: int) -> Callable[[np.ndarray, np.ndarray], None]:
    """The same transpose as _byte_transposer, in 8 x 8 bit blocks.

    Block (i, j) is the byte column j of rows 8i..8i+7.  Its 8 bytes are
    gathered into one 64-bit word, transposed there by three delta swaps,
    and scattered to byte column i of rows 8j..8j+7.  With the bytes taken
    in reverse row order, and numpy.packbits' most significant bit first,
    a word holds the block turned by half a turn in the swaps' layout;
    the swaps transpose it all the same, and the scatter takes the bytes
    back in reverse order.  A call copies the n * n / 8 bytes of the
    matrix four times (in, gather, scatter, out) and makes 18 passes over
    them as words; the buffers are allocated here once and every step
    works in place."""
    import numpy as np

    swaps = _block_swaps()
    nbytes = (n + 7) // 8
    # padded to whole blocks; the rows past n are zero before each gather
    pad = np.zeros((8 * nbytes, nbytes), dtype=np.uint8)
    word = np.empty((nbytes, nbytes), dtype="<u8")
    tmp = np.empty_like(word)
    word_bytes = word.view(np.uint8).reshape(nbytes, nbytes, 8)
    blocks = pad.reshape(nbytes, 8, nbytes)
    gather = blocks.transpose(2, 0, 1)[:, :, ::-1]
    scatter = word_bytes.transpose(0, 2, 1)[:, ::-1, :]

    def transpose(out, rows):
        pad[:n] = rows.view(np.uint8)[:n, :nbytes]
        pad[n:] = 0
        word_bytes[...] = gather
        for shift, mask in swaps:
            np.right_shift(word, shift, out=tmp)
            np.bitwise_xor(tmp, word, out=tmp)
            np.bitwise_and(tmp, mask, out=tmp)
            np.bitwise_xor(word, tmp, out=word)
            np.left_shift(tmp, shift, out=tmp)
            np.bitwise_xor(word, tmp, out=word)
        blocks[...] = scatter
        out.view(np.uint8)[:n, :nbytes] = pad[:n]

    return transpose


def _direct_simulation(A: BuchiNfa) -> np.ndarray:
    """Greatest direct simulation of A: sim[p, q] holds when q simulates p,
    that is, q is accepting wherever p is and every successor of p on a
    letter is simulated by some successor of q on the same letter.

    Relations are n x n boolean matrices packed into rows of 64-bit words,
    with an all-zero sentinel row n that stands for a missing successor.
    Each round visits the letter classes one at a time and gathers
    successor rows of class c,
        can_c[q, p'] = OR of sim^T[q', p'] over the successors q' of q,
        blocked[p, q] |= OR of not can_c^T[p', q] over the successors p'
                         of p on c,
    and removes blocked from sim, until a round removes nothing.  A round
    costs O(sum over classes of (edges_c + n) * n) bit operations: the
    gathers touch one packed row per edge or sentinel, and the transposes
    one bit per pair and class.

    From _BLOCK_TRANSPOSE_STATES states on, the transposes go in 8 x 8
    bit blocks held in 64-bit words (_block_transposer); below it they
    unpack to bytes (_byte_transposer), whose three numpy calls beat the
    block route's fixed cost (timings at the constant).  The buffers are
    reused, so beyond the packed relations a call holds one class's
    gathers and the transpose's own buffers, whatever the number of
    classes.
    """
    import numpy as np

    n = A.state_count
    nbytes = (n + 7) // 8
    words = (nbytes + 7) // 8
    if n >= _BLOCK_TRANSPOSE_STATES:
        transpose_into = _block_transposer(n)
    else:
        transpose_into = _byte_transposer(n)

    # successors of every state of a class as one flat index with segment
    # starts; a state without successors reads the sentinel row
    classes = []
    for rows in A._class_rows:
        widths = np.fromiter((len(r) or 1 for r in rows), dtype=np.int64, count=n)
        index = np.fromiter(
            itertools.chain.from_iterable(r or (n,) for r in rows), dtype=np.int64
        )
        classes.append((index, np.cumsum(widths) - widths))

    acc = np.zeros(n, dtype=bool)
    acc[list(A.accepting)] = True
    sim_rows = np.zeros((n, words), dtype=np.uint64)
    sim_t = np.zeros((n + 1, words), dtype=np.uint64)
    cannot = np.zeros((n + 1, words), dtype=np.uint64)
    blocked = np.zeros((n, words), dtype=np.uint64)
    # acceptance first: an accepting p is simulated only by accepting q
    sim_rows.view(np.uint8)[:, :nbytes] = np.packbits(~acc[:, None] | acc, axis=1)
    sim_t.view(np.uint8)[:n, :nbytes] = np.packbits(acc[:, None] | ~acc, axis=1)
    while True:
        blocked[:] = 0
        for index, starts in classes:
            can = np.bitwise_or.reduceat(sim_t[index], starts, axis=0)
            transpose_into(cannot, np.invert(can, out=can))
            blocked |= np.bitwise_or.reduceat(cannot[index], starts, axis=0)
        removed = sim_rows & blocked
        if not removed.any():
            return np.unpackbits(sim_rows.view(np.uint8), axis=1, count=n).view(bool)
        sim_rows ^= removed
        transpose_into(sim_t, sim_rows)


def _successor_table(A: BuchiNfa) -> np.ndarray:
    """The successor table of a deterministic A: its one successor per
    state and letter class, state_count for none, as an array (states,
    classes), built once and kept on A unless _from_table kept its own or
    _relabel carried A's source's; no caller writes to it.  Every caller
    asks it of an A known deterministic, so only deterministic automata
    hold a table, and the table is exact: it is A's transitions."""
    if A._table is None:
        import numpy as np

        n = A.state_count
        A._table = np.array(
            [[row[0] if row else n for row in rows] for rows in A._class_rows],
            dtype=np.int64,
        ).reshape(len(A._class_rows), n).T
    return A._table


def _from_table(n: int, table, alphabet_size: int, letter_class: Sequence[int],
                initial: Iterable[int], accepting: Iterable[int]) -> BuchiNfa:
    """The automaton of n states with successor table table, n for none,
    and at most one initial state: the one place that builds a
    deterministic automaton from a table.  table is an array (states,
    classes), or its columns as Python lists, one per class.  The class
    rows are read off once, and the result is marked deterministic.  It
    keeps an array as its _successor_table, and builds one from columns
    from the switch on (_on_arrays), with the column of each of its
    classes' first letters, so columns of classes _make merges and columns
    no letter uses drop out; an array is kept itself when they are none.
    Below the switch, columns give no table.
    """
    columns = table if isinstance(table, list) else table.T.tolist()
    single = [(s,) for s in range(n)] + [()]
    out = BuchiNfa._make(n, alphabet_size, letter_class,
                         [tuple(map(single.__getitem__, col)) for col in columns],
                         initial, accepting)
    out._det = True
    kept = [letter_class[a] for a in out._class_first_letter]
    if not isinstance(table, list):
        out._table = table if kept == list(range(table.shape[1])) else table[:, kept]
    elif _on_arrays(n, len(kept)):
        import numpy as np

        out._table = np.array([columns[c] for c in kept], dtype=np.int64).reshape(len(kept), n).T
    return out


def _read_off(A: BuchiNfa, number: list[int], first: list[int]) -> BuchiNfa:
    """The automaton whose state i is A's state first[i] renamed by number:
    the one rebuild of _trim and _refine.  number[p] is p's new state, -1
    when p is dropped, and number[n] is -1 for a missing successor.  For
    a deterministic A (is_deterministic, asked here, as _trim's Python
    route has not asked it), the renamed successors are the result's
    table (_from_table), so the result is marked deterministic on both of
    _trim's routes: from the switch on (_on_arrays), _successor_table(A)
    gathered through number, below it Python columns.  A nondeterministic
    A is rebuilt on Python rows at every size: a row of at most one
    successor is that successor renamed, and a row of two or more the
    sorted set of its kept successors' states.  So no nondeterministic
    automaton gets a table here.  The initial and accepting states are A's
    kept ones.
    """
    m, n = len(first), A.state_count
    initial = [number[s] for s in A.initial if number[s] >= 0]
    accepting = [number[s] for s in A.accepting if number[s] >= 0]
    if is_deterministic(A):
        if _on_arrays(n, len(A._class_rows)):
            import numpy as np

            table = np.array(number)[_successor_table(A)[first]]
            table[table < 0] = m
        else:
            none = (n,)
            to = [m if b < 0 else b for b in number]
            table = [[to[(rows[p] or none)[0]] for p in first] for rows in A._class_rows]
        return _from_table(m, table, A.alphabet_size, A._letter_class, initial, accepting)
    single = [(b,) for b in range(m)] + [()]
    rows = [
        tuple([single[number[row[0]]] if len(row) == 1
               else tuple(sorted({number[q] for q in row} - {-1})) if row else ()
               for row in map(rows.__getitem__, first)])
        for rows in A._class_rows
    ]
    return BuchiNfa._make(m, A.alphabet_size, A._letter_class, rows, initial, accepting)


def _refine(A: BuchiNfa) -> BuchiNfa:
    """Quotient of A by bisimilarity that respects acceptance: Moore's
    partition refinement, generalised to relations (Paige and Tarjan,
    SIAM J. Comput. 1987).  Blocks start as accepting and non-accepting
    states; each round numbers the distinct rows (block, then per class
    the set of successor blocks: -1 if empty, the block if one, else a
    set) by first occurrence in state order, until no block splits.  Only
    states with several successors on a class have such sets, so a
    deterministic A pays Moore's cost.  A deterministic A from the switch
    on (_on_arrays) runs its rounds on its successor table (_moore_on_table);
    every other A, a nondeterministic one at every size, on Python rows,
    tuples numbered by a dictionary, so no nondeterministic automaton gets
    a table here.  The quotient is read off each block's first member
    (_read_off); it is A itself when no two states merge.  The quotient of
    a weak A is marked weak: bisimilar states step into the same blocks,
    so a cycle of blocks lifts, from each member of its first block, to a
    path of A back into that block; chained, such paths close a cycle of A
    through all its blocks, which share their acceptance with that cycle's
    component.
    """
    n = A.state_count
    if _on_arrays(n, len(A._class_rows)) and is_deterministic(A):
        block = _moore_on_table(A)
    else:
        several = [] if is_deterministic(A) else [
            (c, p, row) for c, rows in enumerate(A._class_rows)
            for p, row in enumerate(rows) if len(row) > 1
        ]
        none = (n,)
        heads = [[(row or none)[0] for row in rows] for rows in A._class_rows]
        # block[n] is the block of a missing successor, -1 in every round
        block = [int(p in A.accepting) for p in range(n)] + [-1]
        count = len(set(block[:n]))
        while True:
            columns = [list(map(block.__getitem__, h)) for h in heads]
            for c, p, row in several:
                blocks = {block[q] for q in row}
                columns[c][p] = blocks.pop() if len(blocks) == 1 else frozenset(blocks)
            ids: dict = {}
            block = [ids.setdefault(key, len(ids)) for key in zip(block[:n], *columns)] + [-1]
            if len(ids) == count:
                break
            count = len(ids)
    # blocks are numbered by first member
    first: dict[int, int] = {}
    for p in range(n):
        first.setdefault(block[p], p)
    if len(first) == n:
        return A
    out = _read_off(A, block, list(first.values()))
    if A._weak:
        out._weak = True
    return out


def _moore_on_table(A: BuchiNfa) -> list[int]:
    """_refine's rounds on the successor table of a deterministic A
    (Moore's refinement), returning the final block of each state and -1
    for a missing successor.  A row is the bytes of its block and its
    successors' blocks, numbered by a dictionary."""
    import numpy as np

    n = A.state_count
    succ = _successor_table(A)
    # block[n] is the block of a missing successor, -1 in every round
    block = np.zeros(n + 1, dtype=np.int64)
    block[n] = -1
    block[list(A.accepting)] = 1
    count = len(set(block[:n].tolist()))
    table = np.empty((n, 1 + succ.shape[1]), dtype=np.int64)
    stride = table.shape[1] * table.itemsize
    while True:
        table[:, 0] = block[:n]
        table[:, 1:] = block[succ]
        rows, ids = table.tobytes(), {}
        block[:n] = [ids.setdefault(rows[i:i + stride], len(ids))
                     for i in range(0, len(rows), stride)]
        if len(ids) == count:
            return block.tolist()
        count = len(ids)


def _simulation_order(A: BuchiNfa) -> tuple[list[int], list[int]] | None:
    """A's direct simulation as (first, strictly) (_relation), or None for
    deterministic automata and for automata over _SIM_LIMIT states.
    first[p] is the lowest numbered state mutually similar to p, and
    strictly[p] the bitmask of the states that strictly simulate p: q
    simulates p exactly when bit q of strictly[p] is set or first[q] ==
    first[p].  _sim_reduce and complement_weak prune by this one order.

    Deterministic automata need no relation: _sim_reduce refines them
    (_refine), and their breakpoint sets have at most one member.  The
    relation is n x n, hence the limit.  The merge compiles build it on up
    to 195 states on Z2 and 838 on Z3, whose compile builds 18, 4 of them
    on 224 states or more.  A bound on the packed relation's bytes, part
    of one budget for every construction, is to replace this limit.

    The order is kept on A, or inherited (_sim_reduce), so the result of
    _reduce's one pass carries its order to complement_weak (see _reduce).
    """
    if is_deterministic(A) or A.state_count > _SIM_LIMIT:
        return None
    if A._sim_order is None:
        A._sim_order = _relation(A)
    return A._sim_order


def _relation(A: BuchiNfa) -> tuple[list[int], list[int]]:
    """A's greatest direct simulation as (first, strictly), the one place
    that builds it (see _simulation_order).  From the switch on, counted
    in states x states cells (_on_arrays), _direct_simulation builds it
    on arrays.  Below it, sim[p] is the mask of the states that simulate
    p, from the accepting states for an accepting p and all states
    otherwise.  A round takes each class c in turn and removes from sim[p]
    every state with no c successor in sim[p'], for each c successor p'
    of p, until a round removes nothing; the states with a c successor in
    a mask are the union of the c predecessors of its members."""
    n = A.state_count
    if _on_arrays(n, n):
        sim = _direct_simulation(A)
        # argmax finds the first mutually similar state of each row
        return (sim & sim.T).argmax(axis=1).tolist(), _masks(sim & ~sim.T)
    acc = A.accepting
    sim = [sum(1 << q for q in acc) if p in acc else (1 << n) - 1 for p in range(n)]
    classes = []
    for rows in A._class_rows:
        pred = [0] * n
        for q, row in enumerate(rows):
            for s in row:
                pred[s] |= 1 << q
        moves = [(p, row) for p, row in enumerate(rows) if row]
        classes.append((moves, pred, [s for s in range(n) if pred[s]]))
    removed = True
    while removed:
        removed = False
        for moves, pred, targets in classes:
            pre = {s: _mask_image(pred, sim[s]) for s in targets}
            for p, row in moves:
                m = sim[p]
                for s in row:
                    m &= pre[s]
                if m != sim[p]:
                    sim[p] = m
                    removed = True
    first, strictly = [], []
    for p, m in enumerate(sim):
        mutual, rest = 0, m
        while rest:
            low = rest & -rest
            if sim[low.bit_length() - 1] >> p & 1:
                mutual |= low
            rest ^= low
        first.append((mutual & -mutual).bit_length() - 1)
        strictly.append(m ^ mutual)
    return first, strictly


def _masks(bits: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as bitmasks, column j in bit j."""
    import numpy as np

    nbytes = (bits.shape[1] + 7) // 8
    buf = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(bits.shape[0])]


def _order_on(order: tuple[list[int], list[int]], keep: Sequence[int], n: int):
    """A simulation order (first, strictly) of n states restricted to the
    states keep, renumbered in order: a class's lowest kept member is its
    first, and bit j of the i-th mask is bit keep[j] of strictly[keep[i]].
    From the switch on, in states x states cells (_on_arrays), the masks
    are gathered as bit arrays; below it, bit by bit."""
    first, strictly = order
    lowest: dict[int, int] = {}
    first_on = [lowest.setdefault(first[p], i) for i, p in enumerate(keep)]
    if _on_arrays(n, n):
        import numpy as np

        nbytes = (n + 7) // 8
        rows = b"".join(strictly[p].to_bytes(nbytes, "little") for p in keep)
        bits = np.unpackbits(np.frombuffer(rows, dtype=np.uint8).reshape(len(keep), nbytes),
                             axis=1, count=n, bitorder="little")
        return first_on, _masks(bits[:, keep])
    bit = {p: 1 << j for j, p in enumerate(keep)}
    masks = []
    for p in keep:
        out, rest = 0, strictly[p]
        while rest:
            low = rest & -rest
            out |= bit.get(low.bit_length() - 1, 0)
            rest ^= low
        masks.append(out)
    return first_on, masks


def _maximal_members(A: BuchiNfa) -> tuple[list[int], Callable[[int], int]]:
    """(head, prune), the one statement of the simulation prune, over
    bitmasks of A's states.  head[p] is the bit of first[p] from
    _simulation_order(A); a set of states maps to a representative mask
    by OR-ing its heads, not summing them, as mutually similar states
    share one.  prune(mask) keeps the bits of a representative mask that
    no other bit in it strictly simulates, so masks that simulate each
    other bit by bit prune to the same mask.  Without an order, head[p]
    is p's own bit and prune the identity.
    """
    order = _simulation_order(A)
    if order is None:
        return [1 << p for p in range(A.state_count)], lambda mask: mask
    first, strictly = order

    def prune(mask):
        out = rest = mask
        while rest:
            low = rest & -rest
            if strictly[low.bit_length() - 1] & mask:
                out ^= low
            rest ^= low
        return out

    return [1 << b for b in first], prune


def _sim_reduce(A: BuchiNfa) -> BuchiNfa:
    """Quotient and prune by direct simulation.

    Merging mutually similar states, dropping transitions into states
    dominated by a sibling, and dropping dominated initial states all
    preserve the language: any accepting run maps stepwise to one through
    the dominating states, and direct simulation keeps acceptance at every
    step.  Bisimilar states of equal acceptance simulate each other, so
    this is the translation's only quotient.

    With a simulation order (_simulation_order), blocks are its classes,
    numbered by first member; each block's successors on a class, and the
    initial states, are pruned by _maximal_members, and a block reads only
    its first member's successors.  That is enough: if q simulates p, each
    successor of p is simulated by one of q, so the successors of all
    members and of the first member alone have the same maximal blocks.
    A deterministic A, and a nondeterministic one of _BLOCK_TRANSPOSE_STATES
    states or more with no order kept on it, is first replaced by its
    quotient by bisimilarity (_refine), without the n x n relation (2.9 ms
    on Z2's 1,296-state deterministic input with the table its product
    hands over, 4.2 ms building the table, where _direct_simulation takes
    0.10 s, on 2 shared cores).  That quotient goes on to the relation
    route when it has an order, else it is the result; bisimilar states
    are mutually similar, so the relation route ends as it would on A.
    When nothing merges or is pruned, A itself is returned.

    A nondeterministic quotient R inherits its order, so that complement_weak
    of _reduce's result needs no second relation: block j simulates block
    i exactly when A's first member f_j of j simulates f_i, so R's first is
    the identity and its strictly is A's on the first members.  This is
    R's greatest direct simulation, as b and f_b simulate each other in
    the disjoint union of A and R: they agree on acceptance, a successor
    of f_b lies in a block dominated by a successor of b, and a successor
    of b is mutually similar to a successor of f_b.  So f_j simulating f_i
    gives j simulating i, and j simulating i gives f_j simulating f_i,
    through j and i, in A.  Each block b is live when f_b is, so when A is
    trimmed, the trim of R cuts only unreachable blocks and keeps R's
    order restricted to the rest, still the greatest (see _trim).
    """
    if A.state_count <= 1:
        return A
    if is_deterministic(A) or A._sim_order is None and A.state_count >= _BLOCK_TRANSPOSE_STATES:
        A = _refine(A)
    order = _simulation_order(A)
    if order is None:
        return A
    n, first = A.state_count, order[0]
    head, prune = _maximal_members(A)
    # blocks are numbered by first member, which is the order of their bits
    number = {b: i for i, b in enumerate(dict.fromkeys(first))}

    @cache
    def blocks(states):
        out = []
        rest = prune(reduce(or_, map(head.__getitem__, states), 0))
        while rest:
            low = rest & -rest
            out.append(number[low.bit_length() - 1])
            rest ^= low
        return tuple(out)

    new_rows = [tuple(blocks(rows[b]) for b in number) for rows in A._class_rows]
    initial = blocks(A.initial)
    if len(number) == n and tuple(new_rows) == A._class_rows and len(initial) == len(A.initial):
        # nothing merged or pruned: the rebuilt automaton would equal A
        return A
    out = BuchiNfa._make(
        len(number),
        A.alphabet_size,
        list(A._letter_class),
        new_rows,
        initial,
        [number[first[s]] for s in A.accepting],
    )
    if not is_deterministic(out):
        out._sim_order = _order_on(order, list(number), n)
    return out


def _reduce(A: BuchiNfa) -> BuchiNfa:
    """Trim, reduce (_sim_reduce), and trim a relation route quotient
    again, to drop the unreachable blocks its pruning leaves.  One pass is
    final: _sim_reduce returns its result itself.  A bisimulation quotient
    (_refine) of a trimmed automaton is trimmed and is its own quotient.
    A relation route quotient inherits its greatest simulation and its
    blocks are live (_sim_reduce), so its trim keeps that order, under
    which nothing merges or is pruned; if it is deterministic, no two of
    its states are mutually similar, so _refine leaves it as it is.
    complement_weak of the result prunes by the order it keeps.
    """
    out = _trim(A)
    reduced = _sim_reduce(out)
    return reduced if reduced is out or is_deterministic(out) else _trim(reduced)


# -- text formats ---------------------------------------------------------------


def _sorted_triples(A: BuchiNfa) -> Iterator[tuple[int, int, int]]:
    """The transitions (p, a, q) in sorted order, read straight from the
    class rows, which every construction stores strictly increasing."""
    for p in range(A.state_count):
        for a, c in enumerate(A._letter_class):
            for q in A._class_rows[c][p]:
                yield p, a, q


def format_nfa(A: BuchiNfa) -> str:
    lines = [
        f"nfa {A.state_count} {A.alphabet_size}",
        "initial " + " ".join(str(s) for s in sorted(A.initial)),
        "accepting " + " ".join(str(s) for s in sorted(A.accepting)),
    ]
    for p, a, q in _sorted_triples(A):
        lines.append(f"trans {p} {a} {q}")
    return "\n".join(line.rstrip() for line in lines) + "\n"


def parse_nfa(text: str) -> BuchiNfa:
    """Read the format format_nfa writes: a header 'nfa <states>
    <alphabet>', at most one 'initial' and one 'accepting' line, and
    'trans <p> <a> <q>' lines.  Blank lines and '#' comments are ignored.
    Every error names the 1-based line it is on."""
    header = None
    first_line: dict[str, int] = {}
    fields: dict[str, list[int]] = {}
    transitions = []
    number = 0

    def fail(message: str) -> ValueError:
        return ValueError(f"line {number}: {message}")

    def ints(toks, limits):
        """Integers of toks, each checked against its (name, bound) limit;
        a bound of None leaves the value unchecked."""
        out = []
        for tok, (what, bound) in zip(toks, limits):
            try:
                value = int(tok)
            except ValueError:
                raise fail(f"expected an integer, found {tok!r}") from None
            if bound is not None and not 0 <= value < bound:
                raise fail(f"{what} {value} out of range 0..{bound - 1}")
            out.append(value)
        return out

    for number, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if header is None:
            if len(toks) != 3 or toks[0] != "nfa":
                raise fail("expected header line 'nfa <states> <alphabet>'")
            header = ints(toks[1:], [("count", None)] * 2)
            if min(header) < 0:
                raise fail("state and letter counts must be nonnegative")
            state, letter = ("state", header[0]), ("letter", header[1])
        elif toks[0] in ("initial", "accepting"):
            seen = first_line.setdefault(toks[0], number)
            if seen != number:
                raise fail(f"second {toks[0]!r} line, the first is line {seen}")
            fields[toks[0]] = ints(toks[1:], [state] * (len(toks) - 1))
        elif toks[0] == "trans":
            if len(toks) != 4:
                raise fail("expected 'trans <p> <a> <q>'")
            transitions.append(tuple(ints(toks[1:], [state, letter, state])))
        else:
            raise fail(f"unrecognized line {toks[0]!r}")
    if header is None:
        number += 1
        raise fail("expected header line 'nfa <states> <alphabet>'")
    return BuchiNfa(
        header[0],
        header[1],
        transitions,
        fields.get("initial", []),
        fields.get("accepting", []),
    )


def format_dot(A: BuchiNfa) -> str:
    out = ["digraph nfa {", "  rankdir=LR;"]
    for s in sorted(A.initial):
        out.append(f'  start{s} [shape=point, label=""];')
        out.append(f"  start{s} -> s{s};")
    for s in range(A.state_count):
        shape = "doublecircle" if s in A.accepting else "circle"
        out.append(f'  s{s} [shape={shape}, label="{s}"];')
    by_edge: dict[tuple[int, int], list[int]] = {}
    for p, a, q in _sorted_triples(A):
        by_edge.setdefault((p, q), []).append(a)
    for (p, q), letters in sorted(by_edge.items()):
        label = ",".join(str(a) for a in letters)
        out.append(f'  s{p} -> s{q} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"
