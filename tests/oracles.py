"""Brute force reference implementations used to cross check the library.

Everything here trades efficiency for obviousness: explicit graph walks,
exhaustive enumeration with small analytic cutoffs, and generators for
random instances.  Nothing imports the algorithms under test beyond plain
data access (transition lists, table lookups), except all_kinds_complement,
which unions the kind automata of the library (its color closure, kind
block builder and disjoint union) over every incompatible kind as a
reference for the complement built over proper kinds only.
"""

from __future__ import annotations

import itertools
import random

from s1sup.buchi import BuchiNfa
from s1sup.semigroup import (
    FiniteSemigroup,
    UpWord,
    drop_prefix,
    merges_up,
    new_semigroup,
    up_at,
)


# ---------------------------------------------------------------- automata


def _run_graph_edges(A: BuchiNfa, sigma: UpWord):
    """Successors of a node (position phase, state) of the run graph of A
    on sigma, read off A.successors.

    Phases 0..len(prefix)-1 spell the prefix, the rest loop through the
    period.
    """
    pre, per = len(sigma.prefix), len(sigma.period)
    phases = pre + per

    def letter(ph):
        return sigma.prefix[ph] if ph < pre else sigma.period[ph - pre]

    def next_phase(ph):
        nxt = ph + 1
        if nxt >= phases:
            nxt = pre
        return nxt

    def edges(node):
        ph, s = node
        np = next_phase(ph)
        return [(np, t) for t in A.successors(s, letter(ph))]

    return edges


def naive_membership_up(A: BuchiNfa, sigma: UpWord) -> bool:
    """Accepts iff some infinite run on sigma hits accepting states forever.

    Searches the finite run graph for a reachable cycle through a node
    whose state is accepting.  Only the nodes reachable from the initial
    nodes are visited, and their successors are kept for the cycle checks,
    which stay among them.
    """
    successors = _run_graph_edges(A, sigma)
    start = [(0, s) for s in A.initial]
    seen = set(start)
    stack = list(start)
    edges = {}
    while stack:
        node = stack.pop()
        edges[node] = successors(node)
        for nxt in edges[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    for node in seen:
        if node[1] not in A.accepting:
            continue
        # cycle check: node reachable from its own successors
        sub = list(edges[node])
        vis = set(sub)
        while sub:
            cur = sub.pop()
            if cur == node:
                return True
            for nxt in edges[cur]:
                if nxt not in vis:
                    vis.add(nxt)
                    sub.append(nxt)
    return False


def all_kinds_complement(A: BuchiNfa) -> BuchiNfa:
    """Disjoint union of kind_nfa(A, (v, w)) over every incompatible kind of
    realizable colors, in closure order.  The closure is computed once, and
    each kind automaton is built from it as kind_nfa builds it, with a V
    tracker of its own; the union is buchi._union_many of those blocks."""
    from s1sup.buchi import _union_many, empty_nfa
    from s1sup.complement import DEFAULT_MAX_COLORS, _closure, _kind_block, compatible

    colors, index, first, step, _ = _closure(A, DEFAULT_MAX_COLORS)
    blocks = [
        _kind_block(first, step, A._letter_class, A.alphabet_size, [(index[w], (index[v],))])
        for v in colors
        for w in colors
        if not compatible(A, (v, w))
    ]
    return _union_many(blocks, A.alphabet_size) if blocks else empty_nfa(A.alphabet_size)


def breakpoint_complement(A: BuchiNfa) -> BuchiNfa:
    """Miyano-Hayashi breakpoint complement of a weak automaton, with every
    member of every set kept.

    States are pairs (reachable set, watched set), explored breadth first
    from (initial, initial & accepting) letter by letter over the
    transition list.  The watched set follows its members' successors that
    stay accepting; once it is empty, the next step watches the accepting
    members of the reachable set again.  Pairs with an empty watched set
    accept.  buchi.complement_weak builds the same construction over
    simulation-maximal members only; this is its reference.
    """
    succ: dict[tuple[int, int], set[int]] = {}
    for p, a, q in A.transitions:
        succ.setdefault((p, a), set()).add(q)
    acc = A.accepting

    def post(states, a):
        return frozenset(q for p in states for q in succ.get((p, a), ()))

    start = (frozenset(A.initial), frozenset(A.initial & acc))
    index = {start: 0}
    order = [start]
    transitions = []
    i = 0
    while i < len(order):
        reach, watched = order[i]
        for a in range(A.alphabet_size):
            nreach = post(reach, a)
            nwatched = post(watched, a) & acc if watched else nreach & acc
            key = (nreach, nwatched)
            if key not in index:
                index[key] = len(order)
                order.append(key)
            transitions.append((i, a, index[key]))
        i += 1
    accepting = [j for j, (_, watched) in enumerate(order) if not watched]
    return BuchiNfa(len(order), A.alphabet_size, transitions, [0], accepting)


def naive_nonempty(A: BuchiNfa) -> bool:
    """Lasso search on the raw transition graph: a reachable accepting
    state that lies on a cycle."""
    succ = {}
    for p, _, q in A.transitions:
        succ.setdefault(p, set()).add(q)
    seen = set(A.initial)
    stack = list(A.initial)
    while stack:
        p = stack.pop()
        for q in succ.get(p, ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    for f in A.accepting & seen:
        vis = set(succ.get(f, ()))
        stack = list(vis)
        while stack:
            p = stack.pop()
            if p == f:
                return True
            for q in succ.get(p, ()):
                if q not in vis:
                    vis.add(q)
                    stack.append(q)
    return False


def naive_lasso_exists(A: BuchiNfa, limit: int = 4) -> bool:
    """Enumerate stem and loop state paths up to the given length.

    Complete for automata with up to limit-1 states: a shortest witness
    uses a simple stem and a loop made of two simple legs through an
    accepting state.
    """
    trans_by = {}
    for p, a, q in A.transitions:
        trans_by.setdefault(p, []).append(q)

    def paths(start, length):
        frontier = [[start]]
        for _ in range(length):
            nxt = []
            for path in frontier:
                for q in trans_by.get(path[-1], ()):
                    nxt.append(path + [q])
            yield from nxt
            frontier = nxt

    for init in A.initial:
        anchors = {init}
        for path in paths(init, limit):
            anchors.add(path[-1])
        for q in anchors:
            for loop in paths(q, limit):
                if loop[-1] == q and any(s in A.accepting for s in loop[:-1]):
                    return True
    return False


def naive_direct_simulation(A: BuchiNfa) -> set[tuple[int, int]]:
    """Greatest direct simulation as the set of pairs (p, q), q simulating
    p, straight from the definition.

    Start from every pair that respects acceptance (q is accepting when p
    is) and drop a pair while some transition (p, a, p2) has no transition
    (q, a, q2) with (p2, q2) still in the set.  Letters are read one by
    one from the transition list, never through letter classes.
    """
    succ: dict[tuple[int, int], set[int]] = {}
    for p, a, q in A.transitions:
        succ.setdefault((p, a), set()).add(q)
    n = A.state_count
    rel = {
        (p, q)
        for p in range(n)
        for q in range(n)
        if p not in A.accepting or q in A.accepting
    }
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            for a in range(A.alphabet_size):
                theirs = succ.get((q, a), set())
                if any(
                    all((p2, q2) not in rel for q2 in theirs)
                    for p2 in succ.get((p, a), ())
                ):
                    rel.discard((p, q))
                    changed = True
                    break
    return rel


def naive_sim_quotient(A: BuchiNfa) -> BuchiNfa:
    """A quotiented by mutual direct simulation and pruned, straight from
    naive_direct_simulation.

    Blocks are the classes of mutually similar states, numbered by their
    lowest member.  Among a set of states, a block is maximal when no
    other block among them strictly simulates it.  Each block's
    successors on a letter are the maximal blocks among the successors
    of all its members, and the initial blocks are the maximal blocks
    among the initial states.  buchi._sim_reduce's relation route reads
    one member's successors per block; this is its reference.
    """
    rel = naive_direct_simulation(A)
    n = A.state_count
    lowest = [min(q for q in range(n) if (p, q) in rel and (q, p) in rel) for p in range(n)]
    number = {b: i for i, b in enumerate(sorted(set(lowest)))}

    def maximal(states):
        reps = {lowest[q] for q in states}
        return {
            number[b]
            for b in reps
            if not any((b, c) in rel and (c, b) not in rel for c in reps)
        }

    succ: dict[tuple[int, int], set[int]] = {}
    for p, a, q in A.transitions:
        succ.setdefault((number[lowest[p]], a), set()).add(q)
    transitions = [(i, a, j) for (i, a), states in succ.items() for j in maximal(states)]
    return BuchiNfa(
        len(number),
        A.alphabet_size,
        transitions,
        maximal(A.initial),
        {number[lowest[s]] for s in A.accepting},
    )


def naive_bisim_quotient(A: BuchiNfa) -> BuchiNfa:
    """A quotiented by its greatest forward bisimulation that respects
    acceptance, straight from the definition.

    Start from every pair of states with equal acceptance and drop a pair
    (p, q) while some transition of either state on a letter has no
    transition of the other on the same letter into a pair still in the
    set.  Letters are read one by one from the transition list.  Blocks
    are numbered by their lowest member, and each block's row holds the
    blocks of that member's successors.  buchi._refine's reference.
    """
    succ: dict[tuple[int, int], set[int]] = {}
    for p, a, q in A.transitions:
        succ.setdefault((p, a), set()).add(q)
    n = A.state_count
    rel = {
        (p, q)
        for p in range(n)
        for q in range(n)
        if (p in A.accepting) == (q in A.accepting)
    }

    def matched(p, q, a):
        theirs = succ.get((q, a), set())
        return all(any((p2, q2) in rel for q2 in theirs) for p2 in succ.get((p, a), ()))

    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if (p, q) in rel and not all(
                matched(p, q, a) and matched(q, p, a) for a in range(A.alphabet_size)
            ):
                rel.discard((p, q))
                rel.discard((q, p))
                changed = True
    lowest = [min(q for q in range(n) if (p, q) in rel) for p in range(n)]
    number = {b: i for i, b in enumerate(sorted(set(lowest)))}
    return BuchiNfa(
        len(number),
        A.alphabet_size,
        {
            (number[p], a, number[lowest[q]])
            for (p, a), states in succ.items()
            if lowest[p] == p
            for q in states
        },
        {number[lowest[s]] for s in A.initial},
        {number[lowest[s]] for s in A.accepting},
    )


# ------------------------------------------------------- kind factorization


def factorization_exists(color_of, v, w, sigma: UpWord, max_factor: int) -> bool:
    """Does sigma split as one block of color v then blocks of color w?

    color_of maps a nonempty letter list to its color.  Cuts are enumerated
    directly.  In the periodic zone a cut is determined by its phase, so
    revisiting a phase on the w-side closes the factorization into a loop
    that repeats forever; failures are memoized by phase.  Complete for
    factorizations whose blocks are at most max_factor letters long.
    """
    pre, per = len(sigma.prefix), len(sigma.period)

    def letters(pos, count):
        return [up_at(sigma, pos + t) for t in range(count)]

    def phase(pos):
        return pos if pos < pre else pre + (pos - pre) % per

    dead = set()

    def walk(pos, seen_phases):
        ph = phase(pos)
        if pos >= pre and ph in seen_phases:
            return True
        if ph in dead:
            return False
        seen = seen_phases | {ph} if pos >= pre else seen_phases
        for length in range(1, max_factor + 1):
            if color_of(letters(pos, length)) == w and walk(pos + length, seen):
                return True
        dead.add(ph)
        return False

    for first in range(1, max_factor + 1):
        if color_of(letters(0, first)) == v:
            dead.clear()
            if walk(first, frozenset()):
                return True
    return False


# ------------------------------------------------------------------ merging


def merges_zero_often(g: FiniteSemigroup, sigma: UpWord) -> bool:
    """Do infinitely many positions merge with position 0?

    Whether j merges with 0 is, past the prefix, eventually periodic in j
    with period dividing |period| * size^2 (pigeonhole on the tracked color
    pair), and a merging j pumps upward by period times the idempotent
    power of the period's color, so a hit anywhere at or past the prefix
    means infinitely many hits and any hit can be walked down into the
    first window.  Scanning that window is therefore exact.
    """
    pre, per = len(sigma.prefix), len(sigma.period)
    window = range(pre, pre + per * g.size * g.size + 1)
    return any(merges_up(g, sigma, 0, j) for j in window)


def never_merges_zero(g: FiniteSemigroup, sigma: UpWord) -> bool:
    """From some point on, nothing merges with position 0."""
    return not merges_zero_often(g, sigma)


def some_suffix_merges_often(g: FiniteSemigroup, sigma: UpWord) -> bool:
    """Does some suffix see infinitely many merges with its start?

    Suffixes repeat with the period once past the prefix, so only the
    first prefix+period of them need checking.
    """
    pre, per = len(sigma.prefix), len(sigma.period)
    return any(
        merges_zero_often(g, drop_prefix(sigma, i)) for i in range(pre + per)
    )


def naive_merge_scan(g: FiniteSemigroup, sigma: UpWord, i: int, j: int) -> bool:
    """Unbounded-in-spirit scan for a common endpoint with equal colors,
    truncated where the tracked color pair must start repeating."""
    pre, per = len(sigma.prefix), len(sigma.period)
    horizon = max(i, j) + 1 + pre + per * g.size * g.size + 1
    ci = cj = None
    for k in range(max(i, j) + 1, horizon + 1):
        # colors of sigma[i,k) and sigma[j,k), grown one letter at a time
        if ci is None:
            ci = _col_range(g, sigma, i, k)
            cj = _col_range(g, sigma, j, k)
        else:
            a = up_at(sigma, k - 1)
            ci = g.table[ci][a]
            cj = g.table[cj][a]
        if ci == cj:
            return True
    return False


def _col_range(g: FiniteSemigroup, sigma: UpWord, lo: int, hi: int) -> int:
    acc = up_at(sigma, lo)
    for t in range(lo + 1, hi):
        acc = g.table[acc][up_at(sigma, t)]
    return acc


def scc_index(n: int, edges: dict[int, list[int]]) -> list[int]:
    """Kosaraju strongly connected components, as a state -> component map."""
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(edges.get(s, ())))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    rev: dict[int, list[int]] = {}
    for p, qs in edges.items():
        for q in qs:
            rev.setdefault(q, []).append(p)
    comp = [-1] * n
    count = 0
    for v in reversed(order):
        if comp[v] != -1:
            continue
        comp[v] = count
        stack = [v]
        while stack:
            x = stack.pop()
            for w in rev.get(x, ()):
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def naive_kept(A: BuchiNfa) -> list[int]:
    """The states reachable from an initial state that reach an accepting
    state of a cyclic component (scc_index), in sorted order."""
    n = A.state_count
    transitions = A.transitions
    edges = {p: sorted({q for p2, _, q in transitions if p2 == p}) for p in range(n)}
    comp = scc_index(n, edges)
    cyclic = {comp[p] for p in range(n) if p in edges[p]}
    cyclic |= {c for c in comp if comp.count(c) > 1}
    targets = {s for s in A.accepting if comp[s] in cyclic}
    rev: dict[int, list[int]] = {p: [] for p in range(n)}
    for p, qs in edges.items():
        for q in qs:
            rev[q].append(p)

    def closure(start, graph):
        seen = set(start)
        stack = list(start)
        while stack:
            for q in graph[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    return sorted(closure(A.initial, edges) & closure(targets, rev))


def naive_trim(A: BuchiNfa) -> BuchiNfa:
    """The states of naive_kept, renumbered in sorted order, with the
    transitions, initial and accepting states among them."""
    keep = naive_kept(A)
    new = {s: i for i, s in enumerate(keep)}
    return BuchiNfa(
        len(keep),
        A.alphabet_size,
        [(new[p], a, new[q]) for p, a, q in A.transitions if p in new and q in new],
        [new[s] for s in A.initial if s in new],
        [new[s] for s in A.accepting if s in new],
    )


# --------------------------------------------------------------- generators


def random_buchi(
    rng: random.Random,
    max_states: int = 3,
    alphabet: int = 2,
    density: float = 0.35,
) -> BuchiNfa:
    n = rng.randint(1, max_states)
    transitions = [
        (p, a, q)
        for p in range(n)
        for a in range(alphabet)
        for q in range(n)
        if rng.random() < density
    ]
    initial = [s for s in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    accepting = [s for s in range(n) if rng.random() < 0.5]
    return BuchiNfa(n, alphabet, transitions, initial, accepting)


def random_det_buchi(
    rng: random.Random, max_states: int = 4, alphabet: int = 2
) -> BuchiNfa:
    """At most one successor per state and letter, one initial state."""
    n = rng.randint(1, max_states)
    transitions = []
    for p in range(n):
        for a in range(alphabet):
            if rng.random() < 0.8:
                transitions.append((p, a, rng.randrange(n)))
    accepting = [s for s in range(n) if rng.random() < 0.5]
    return BuchiNfa(n, alphabet, transitions, [rng.randrange(n)], accepting)


def random_weak_buchi(
    rng: random.Random, max_states: int = 4, alphabet: int = 2
) -> BuchiNfa:
    """Random automaton with acceptance constant on each strongly connected
    component."""
    A = random_buchi(rng, max_states, alphabet, density=0.4)
    edges: dict[int, list[int]] = {}
    for p, _, q in A.transitions:
        edges.setdefault(p, []).append(q)
    comp = scc_index(A.state_count, edges)
    flag = [rng.random() < 0.5 for _ in range(max(comp) + 1 if comp else 0)]
    accepting = [s for s in range(A.state_count) if flag[comp[s]]]
    return BuchiNfa(
        A.state_count, A.alphabet_size, A.transitions, A.initial, accepting
    )


def random_up_word(
    rng: random.Random, alphabet: int, max_pre: int = 3, max_per: int = 3
) -> UpWord:
    pre = tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, max_pre)))
    per = tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, max_per)))
    return UpWord(pre, per)


def random_min_formula(rng, variables, depth, quantifiers=0):
    """Random minimal formula; quantifiers bounds the Ex2 nodes used."""
    from s1sup.logic import And, Ex2, Incl, Less, Not

    def build(d, q):
        if d <= 0:
            ctor = rng.choice((Less, Incl))
            return ctor(rng.choice(variables), rng.choice(variables)), q
        roll = rng.random()
        if roll < 0.25 and q > 0:
            sub, q = build(d - 1, q - 1)
            return Ex2(rng.choice(variables), sub), q
        if roll < 0.55:
            sub, q = build(d - 1, q)
            return Not(sub), q
        if roll < 0.8:
            left, q = build(d - 1, q)
            right, q = build(d - 1, q)
            return And(left, right), q
        ctor = rng.choice((Less, Incl))
        return ctor(rng.choice(variables), rng.choice(variables)), q

    phi, _ = build(depth, quantifiers)
    return phi


def random_full_formula(rng, fo_vars, so_vars, depth, quantifiers=0):
    from s1sup.logic import FoAnd, FoEx1, FoEx2, FoIn, FoLess, FoNot

    def atom():
        if rng.random() < 0.5:
            return FoLess(rng.choice(fo_vars), rng.choice(fo_vars))
        return FoIn(rng.choice(fo_vars), rng.choice(so_vars))

    def build(d, q):
        if d <= 0:
            return atom(), q
        roll = rng.random()
        if roll < 0.3 and q > 0:
            var_first = rng.random() < 0.5
            sub, q = build(d - 1, q - 1)
            if var_first:
                return FoEx1(rng.choice(fo_vars), sub), q
            return FoEx2(rng.choice(so_vars), sub), q
        if roll < 0.6:
            sub, q = build(d - 1, q)
            return FoNot(sub), q
        if roll < 0.85:
            left, q = build(d - 1, q)
            right, q = build(d - 1, q)
            return FoAnd(left, right), q
        return atom(), q

    phi, _ = build(depth, quantifiers)
    return phi


def naive_models_full(interp, phi) -> bool:
    """Quantifier-free full-syntax truth straight from the number and set
    assignments, no automata or reductions involved."""
    from s1sup.logic import FoAnd, FoIn, FoLess, FoNot

    if isinstance(phi, FoLess):
        return interp.nums[phi.left] < interp.nums[phi.right]
    if isinstance(phi, FoIn):
        return bool(up_at(interp.sets[phi.container], interp.nums[phi.elem]))
    if isinstance(phi, FoAnd):
        return naive_models_full(interp, phi.left) and naive_models_full(
            interp, phi.right
        )
    if isinstance(phi, FoNot):
        return not naive_models_full(interp, phi.sub)
    raise ValueError("quantifier free formulas only")


def random_bit_word(rng, max_pre=3, max_per=3):
    return random_up_word(rng, 2, max_pre, max_per)


def random_min_interp(rng, variables, max_pre=3, max_per=3):
    from s1sup.logic import UpInterpretation

    return UpInterpretation(
        sets={v: random_bit_word(rng, max_pre, max_per) for v in variables}
    )


def random_full_interp(rng, fo_vars, so_vars, max_pre=3, max_per=3, max_num=4):
    from s1sup.logic import UpInterpretation

    return UpInterpretation(
        sets={v: random_bit_word(rng, max_pre, max_per) for v in so_vars},
        nums={v: rng.randrange(max_num + 1) for v in fo_vars},
    )


def _transformation_table(rng: random.Random, points: int, want: int):
    """Compose random self-maps of a small point set until closed."""
    want = min(want, points**points)
    maps = set()
    while len(maps) < want:
        maps.add(tuple(rng.randrange(points) for _ in range(points)))
        frontier = True
        while frontier and len(maps) <= 16:
            frontier = False
            for f, h in itertools.product(tuple(maps), repeat=2):
                fh = tuple(h[f[i]] for i in range(points))
                if fh not in maps:
                    maps.add(fh)
                    frontier = True
        if len(maps) > 16:
            maps = set()
    elems = sorted(maps)
    index = {f: i for i, f in enumerate(elems)}
    table = [
        [index[tuple(h[f[i]] for i in range(points))] for h in elems]
        for f in elems
    ]
    return table


def _monogenic_table(index: int, period: int):
    """Powers of one generator with the given index and period."""
    size = index + period - 1

    def reduce_exp(e):
        if e <= size:
            return e
        return (e - index) % period + index

    return [
        [reduce_exp(m + n) - 1 for n in range(1, size + 1)]
        for m in range(1, size + 1)
    ]


def random_semigroup(rng: random.Random, max_size: int = 4) -> FiniteSemigroup:
    """A small semigroup from an always-associative recipe, relabeled."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, max_size)
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
    elif kind == 1:
        n = rng.randint(1, max_size)
        table = [[a for _ in range(n)] for a in range(n)]
    elif kind == 2:
        index = rng.randint(1, max_size)
        period = rng.randint(1, max_size - index + 1)
        table = _monogenic_table(index, period)
    else:
        table = _transformation_table(rng, rng.randint(1, 3), rng.randint(1, 3))
        while len(table) > max_size:
            table = _transformation_table(rng, 2, rng.randint(1, 2))
    n = len(table)
    relabel = list(range(n))
    rng.shuffle(relabel)
    shuffled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            shuffled[relabel[a]][relabel[b]] = relabel[table[a][b]]
    return new_semigroup(n, shuffled)
