import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    breakpoint_complement,
    naive_bisim_quotient,
    naive_direct_simulation,
    naive_kept,
    naive_lasso_exists,
    naive_membership_up,
    naive_sim_quotient,
    naive_trim,
    random_buchi,
    random_det_buchi,
    random_up_word,
    random_weak_buchi,
    scc_index,
)
from s1sup import buchi, logic
from s1sup.buchi import (
    AlphabetMismatch,
    BuchiNfa,
    Match,
    complement_deterministic,
    complement_flip,
    complement_weak,
    empty_nfa,
    ex_project,
    exact_up_nfa,
    find_match,
    format_dot,
    format_nfa,
    intersection,
    is_deterministic,
    is_satisfiable,
    is_weak,
    match_for_up,
    membership_up,
    parse_nfa,
    product_weak,
    trans,
    transa,
    union,
)
from s1sup.complement import complement
from s1sup.encodings import MERGE_FIRST_ORDER, merge_second_order, phi_merge
from s1sup.semigroup import UpWord, new_semigroup, up_equiv


def loop_one(accepting=True):
    return BuchiNfa(1, 1, [(0, 0, 0)], [0], [0] if accepting else [])


def inf_ones():
    """Binary words with infinitely many 1s; state 1 means "just read 1"."""
    return BuchiNfa(
        2, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], [0], [1]
    )


def inf_zeros():
    return BuchiNfa(
        2, 2, [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)], [0], [1]
    )


def universal(alphabet):
    return BuchiNfa(1, alphabet, [(0, a, 0) for a in range(alphabet)], [0], [0])


def validate_match(A, m):
    """Recheck a match against the path predicates and the path fields."""
    assert m.stem_path[0] in A.initial
    assert trans(A, m.stem_path[0], m.stem, m.stem_path[-1])
    assert transa(A, m.loop_path[0], m.loop, m.loop_path[-1])
    assert m.stem_path[-1] == m.loop_path[0] == m.loop_path[-1]
    for path, word in ((m.stem_path, m.stem), (m.loop_path, m.loop)):
        assert len(path) == len(word) + 1
        for k, a in enumerate(word):
            assert path[k + 1] in A.successors(path[k], a)
    assert any(s in A.accepting for s in m.loop_path[:-1])


# -- path predicates ---------------------------------------------------------


def test_trans_transa_self_loop():
    A = loop_one()
    assert trans(A, 0, [0], 0)
    assert transa(A, 0, [0], 0)


def test_transa_needs_accepting_on_path():
    A = loop_one(accepting=False)
    assert trans(A, 0, [0], 0)
    assert not transa(A, 0, [0], 0)


def test_transa_two_state_chain():
    # p=0 -> f=1 -> p=0, only f accepting; f is visited before the last
    # position of the two-letter path
    A = BuchiNfa(2, 1, [(0, 0, 1), (1, 0, 0)], [0], [1])
    assert transa(A, 0, [0, 0], 0)
    assert not transa(A, 0, [0], 1)


def test_successors_rejects_states_out_of_range():
    A = inf_ones()
    for p in (-1, 2):
        with pytest.raises(ValueError, match=f"state {p} out of range"):
            A.successors(p, 0)


def test_trans_rejects_states_out_of_range():
    A = inf_ones()
    for p, q in ((-1, 0), (0, 2), (5, 1)):
        with pytest.raises(ValueError, match="out of range"):
            trans(A, p, [1], q)


def test_transa_rejects_states_out_of_range():
    A = inf_ones()
    for p, q in ((0, 5), (-1, 1), (2, 0)):
        with pytest.raises(ValueError, match="out of range"):
            transa(A, p, [1], q)


def test_trans_composes_letter_relations():
    rng = random.Random(411)
    for _ in range(100):
        A = random_buchi(rng, 4, 2)
        w = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        reach = {(p, p) for p in range(A.state_count)}
        for a in w:
            reach = {(p, r) for p, q in reach for r in A.successors(q, a)}
        for p in range(A.state_count):
            for q in range(A.state_count):
                assert trans(A, p, w, q) == ((p, q) in reach)


# -- match solving -----------------------------------------------------------


def test_find_match_no_accepting():
    assert find_match(loop_one(accepting=False)) is None


def test_find_match_self_loop():
    m = find_match(loop_one())
    assert m is not None
    validate_match(loop_one(), m)


def test_find_match_inf_ones_loop_contains_one():
    m = find_match(inf_ones())
    assert m is not None
    validate_match(inf_ones(), m)
    assert 1 in m.loop


def test_find_match_agrees_with_naive_exhaustive_two_states():
    # every transition subset over 2 states and 2 letters, initial fixed,
    # all accepting patterns
    cells = [(p, a, q) for p in range(2) for a in range(2) for q in range(2)]
    for bits in range(1 << len(cells)):
        transitions = [t for i, t in enumerate(cells) if bits >> i & 1]
        for acc_bits in range(4):
            accepting = [s for s in range(2) if acc_bits >> s & 1]
            A = BuchiNfa(2, 2, transitions, [0], accepting)
            m = find_match(A)
            assert (m is not None) == naive_lasso_exists(A, limit=3)
            if m is not None:
                validate_match(A, m)


def test_find_match_agrees_with_naive_random_three_states():
    rng = random.Random(412)
    for _ in range(400):
        A = random_buchi(rng, 3, 2)
        m = find_match(A)
        assert (m is not None) == naive_lasso_exists(A, limit=4)
        if m is not None:
            validate_match(A, m)


def test_match_word_satisfies_automaton():
    rng = random.Random(413)
    hits = 0
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        m = find_match(A)
        assert (m is not None) == is_satisfiable(A)
        if m is not None:
            hits += 1
            assert membership_up(A, m.word())
    assert hits > 50


def test_find_match_deterministic_output():
    rng = random.Random(414)
    for _ in range(50):
        A = random_buchi(rng, 4, 2)
        assert find_match(A) == find_match(A)


# -- exact automaton of one UP word ------------------------------------------


def test_exact_up_accepts_itself_rejects_flip():
    A = exact_up_nfa(UpWord((0,), (1,)), 2)
    assert membership_up(A, UpWord((0,), (1,)))
    assert not membership_up(A, UpWord((1,), (1,)))


def test_exact_up_accepts_equivalent_forms():
    A = exact_up_nfa(UpWord((0,), (1, 0)), 2)
    assert membership_up(A, UpWord((0, 1), (0, 1)))
    assert not membership_up(A, UpWord((0,), (0, 1)))


def test_exact_up_shape():
    sigma = UpWord((0, 1), (1, 0, 1))
    A = exact_up_nfa(sigma, 2)
    assert A.state_count == len(sigma.prefix) + len(sigma.period)
    assert is_deterministic(A)


def test_exact_up_membership_is_up_equiv():
    rng = random.Random(415)
    for _ in range(400):
        sigma = random_up_word(rng, 2)
        tau = random_up_word(rng, 2)
        got = membership_up(exact_up_nfa(sigma, 2), tau)
        assert got == up_equiv(sigma, tau)


# -- boolean operations ------------------------------------------------------


def test_union_state_count_and_neutral_element():
    A = inf_ones()
    E = empty_nfa(2)
    U = union(A, E)
    assert U.state_count == A.state_count + E.state_count
    rng = random.Random(416)
    for _ in range(50):
        sigma = random_up_word(rng, 2)
        assert membership_up(U, sigma) == membership_up(A, sigma)


def test_union_membership_is_or():
    rng = random.Random(417)
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        B = random_buchi(rng, 4, 2)
        sigma = random_up_word(rng, 2)
        assert membership_up(union(A, B), sigma) == (
            membership_up(A, sigma) or membership_up(B, sigma)
        )


def test_intersection_membership_is_and():
    rng = random.Random(418)
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        B = random_buchi(rng, 4, 2)
        sigma = random_up_word(rng, 2)
        assert membership_up(intersection(A, B), sigma) == (
            membership_up(A, sigma) and membership_up(B, sigma)
        )


def test_intersection_inf_ones_inf_zeros():
    C = intersection(inf_ones(), inf_zeros())
    assert membership_up(C, UpWord((0, 1), (0, 1)))
    assert not membership_up(C, UpWord((1,), (1,)))


def test_intersection_with_universal_is_identity():
    rng = random.Random(419)
    A = inf_ones()
    C = intersection(A, universal(2))
    for _ in range(60):
        sigma = random_up_word(rng, 2)
        assert membership_up(C, sigma) == membership_up(A, sigma)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        union(inf_ones(), universal(3))
    with pytest.raises(AlphabetMismatch):
        intersection(universal(3), inf_ones())
    with pytest.raises(AlphabetMismatch):
        membership_up(inf_ones(), UpWord((2,), (2,)))


# -- UP membership -----------------------------------------------------------


def test_membership_examples():
    assert membership_up(exact_up_nfa(UpWord((0,), (1,)), 2), UpWord((0,), (1,)))
    assert not membership_up(loop_one(accepting=False), UpWord((0,), (0,)))
    assert membership_up(inf_ones(), UpWord((0,), (1, 0)))
    assert not membership_up(inf_ones(), UpWord((1,), (0,)))


def test_membership_matches_definition_and_naive():
    # pinned definition: satisfiability of the product with the exact
    # automaton; also cross-checked against the run-graph oracle
    rng = random.Random(420)
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        sigma = random_up_word(rng, 2)
        got = membership_up(A, sigma)
        assert got == is_satisfiable(intersection(A, exact_up_nfa(sigma, 2)))
        assert got == naive_membership_up(A, sigma)


@st.composite
def automaton_and_word(draw):
    """Up to 8 states over 3 letters, a letter sometimes sharing an
    earlier letter's class, states without successors, and now and then
    no initial or no accepting state; prefix and period of length 1-4."""
    n = draw(st.integers(1, 8))
    rows = []
    for a in range(3):
        if a and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, a - 1))])
        else:
            successors = st.frozensets(st.integers(0, n - 1), max_size=3)
            rows.append(draw(st.lists(successors, min_size=n, max_size=n)))
    initial = draw(st.frozensets(st.integers(0, n - 1), max_size=2))
    accepting = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    transitions = [(p, a, q) for a, row in enumerate(rows) for p in range(n) for q in row[p]]
    letters = st.lists(st.integers(0, 2), min_size=1, max_size=4)
    word = UpWord(tuple(draw(letters)), tuple(draw(letters)))
    return BuchiNfa(n, 3, transitions, initial, accepting), word


@settings(max_examples=300, deadline=None)
@given(automaton_and_word())
def test_membership_property(case):
    A, sigma = case
    got = membership_up(A, sigma)
    assert got == naive_membership_up(A, sigma)
    m = match_for_up(A, sigma)
    assert got == (m is not None)
    if m is not None:
        validate_match(A, m)
        assert up_equiv(m.word(), sigma)


# -- match extraction for members --------------------------------------------


def test_match_for_up_round_trips_exact():
    sigma = UpWord((0,), (1,))
    m = match_for_up(exact_up_nfa(sigma, 2), sigma)
    assert m is not None
    assert up_equiv(m.word(), sigma)


def test_match_for_up_non_member():
    assert match_for_up(inf_ones(), UpWord((1,), (0,))) is None


def test_match_for_up_inf_ones():
    m = match_for_up(inf_ones(), UpWord((0,), (0, 1)))
    assert m is not None
    assert 1 in m.loop
    assert up_equiv(m.word(), UpWord((0,), (0, 1)))
    validate_match(inf_ones(), m)


def test_match_for_up_takes_the_nearest_accepting_node():
    # the stem stops at the first accepting node on a cycle of the run
    # graph, and the loop is the shortest cycle through it
    m = match_for_up(inf_ones(), UpWord((0,), (1,)))
    assert m == Match((0, 1), (1,), (0, 0, 1), (1, 1))
    m = match_for_up(inf_ones(), UpWord((1, 1), (1, 0, 1)))
    assert (m.stem, m.loop) == ((1, 1), (1, 0, 1))
    validate_match(inf_ones(), m)


def test_match_for_up_equivalence_random():
    # a lasso of the run graph visits each of its nodes (word position,
    # state) once: the loop stays in the period's positions
    rng = random.Random(422)
    hits = 0
    for _ in range(200):
        A = random_buchi(rng, 3, 2)
        sigma = random_up_word(rng, 2)
        m = match_for_up(A, sigma)
        assert (m is not None) == membership_up(A, sigma)
        if m is not None:
            hits += 1
            validate_match(A, m)
            assert up_equiv(m.word(), sigma)
            n = A.state_count
            assert len(m.loop) <= len(sigma.period) * n
            assert len(m.stem) < (len(sigma.prefix) + len(sigma.period)) * n
    assert hits > 20


# -- existential projection ---------------------------------------------------


def test_ex_project_identity_changes_nothing():
    # inf_ones read over two bits, bit 1 ignored: dropping bit 1 gives
    # inf_ones back
    A = BuchiNfa(2, 4, [(p, a | b, q) for p, a, q in inf_ones().transitions for b in (0, 2)], [0], [1])
    P = ex_project(A, 2)
    assert P == inf_ones()
    rng = random.Random(423)
    for _ in range(60):
        sigma = random_up_word(rng, 2)
        assert membership_up(P, sigma) == membership_up(inf_ones(), sigma)


def test_ex_project_total_relation_erases_letters():
    P = ex_project(inf_ones(), 1)
    # some run may now read any letters, so the all-zero word is accepted
    assert P.alphabet_size == 1
    assert membership_up(P, UpWord((0,), (0,)))


def test_ex_project_membership_preserved():
    rng = random.Random(424)
    for _ in range(200):
        A = random_buchi(rng, 3, 4)
        sigma = random_up_word(rng, 4)
        bit = rng.choice((1, 2))
        P = ex_project(A, bit)

        def drop(a):
            return a >> 1 & ~(bit - 1) | a & (bit - 1)

        # the definition: every transition read on its letter without bit
        assert P == BuchiNfa(
            A.state_count,
            2,
            [(p, drop(a), q) for p, a, q in A.transitions],
            A.initial,
            A.accepting,
        )
        if membership_up(A, sigma):
            assert membership_up(P, UpWord(tuple(map(drop, sigma.prefix)), tuple(map(drop, sigma.period))))
    with pytest.raises(ValueError):
        ex_project(inf_ones(), 2)


# -- structural classes and their complements ---------------------------------


def test_is_deterministic():
    assert is_deterministic(inf_ones())
    assert not is_deterministic(
        BuchiNfa(2, 1, [(0, 0, 0), (0, 0, 1)], [0], [1])
    )
    assert not is_deterministic(
        BuchiNfa(2, 1, [(0, 0, 1)], [0, 1], [1])
    )


def test_is_weak():
    assert is_weak(universal(2))
    assert is_weak(loop_one(accepting=False))
    # inf_ones has both states in one component, one accepting
    assert not is_weak(inf_ones())


def test_complement_deterministic_exactly_one():
    rng = random.Random(425)
    for _ in range(400):
        A = random_det_buchi(rng, 4, 2)
        C = complement_deterministic(A)
        sigma = random_up_word(rng, 2)
        assert naive_membership_up(A, sigma) != naive_membership_up(C, sigma)


def test_complement_deterministic_output_is_weak():
    rng = random.Random(426)
    for _ in range(100):
        A = random_det_buchi(rng, 4, 2)
        C = complement_deterministic(A)
        assert is_weak(C)
        assert C.state_count <= 2 * A.state_count + 1


def test_complement_deterministic_rejects_nondeterministic():
    with pytest.raises(ValueError):
        complement_deterministic(BuchiNfa(2, 1, [(0, 0, 0), (0, 0, 1)], [0], []))


def test_complement_weak_exactly_one():
    rng = random.Random(427)
    for _ in range(400):
        A = random_weak_buchi(rng, 4, 2)
        C = complement_weak(A)
        sigma = random_up_word(rng, 2)
        assert naive_membership_up(A, sigma) != naive_membership_up(C, sigma)


def test_complement_weak_rejects_non_weak():
    with pytest.raises(ValueError):
        complement_weak(inf_ones())


def test_complement_weak_budget(monkeypatch):
    A = random_weak_buchi(random.Random(428), 4, 2)
    monkeypatch.setattr(buchi, "_BREAKPOINT_LIMIT", 1)
    with pytest.raises(buchi.BreakpointBudget):
        complement_weak(A)


def with_copies(A, originals):
    """A with one new state per entry of originals, copying that state:
    the same successors, acceptance and initial status, and entered
    wherever it is.  Each copy and its original simulate each other, and
    acceptance stays constant on every SCC."""
    transitions, initial, accepting = set(A.transitions), set(A.initial), set(A.accepting)
    for copy, p in enumerate(originals, start=A.state_count):
        for x, a, y in list(transitions):
            for x2 in {x, copy} if x == p else {x}:
                for y2 in {y, copy} if y == p else {y}:
                    transitions.add((x2, a, y2))
        initial |= {copy} if p in initial else set()
        accepting |= {copy} if p in accepting else set()
    n = A.state_count + len(originals)
    return BuchiNfa(n, A.alphabet_size, transitions, initial, accepting)


def up_words(alphabet, max_pre, max_per):
    """Every UP word with a prefix of length 0..max_pre and a period of
    length 1..max_per, an empty prefix spelled as one more period."""
    def parts(lo, hi):
        return [
            w for k in range(lo, hi + 1) for w in itertools.product(range(alphabet), repeat=k)
        ]

    return [UpWord(pre or per, per) for pre in parts(0, max_pre) for per in parts(1, max_per)]


@st.composite
def weak_with_copies_and_words(draw):
    """A weak automaton of up to 4 states over 2 letters, with up to two
    of its states copied (so mutually similar states occur, as they do
    in automata that were never quotiented), and three UP words."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(state, st.integers(0, 1), state), max_size=10))
    initial = draw(st.frozensets(state, min_size=1, max_size=2))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges: dict[int, list[int]] = {}
    for p, _, q in transitions:
        edges.setdefault(p, []).append(q)
    comp = scc_index(n, edges)
    A = BuchiNfa(n, 2, transitions, initial, [s for s in range(n) if flags[comp[s]]])
    A = with_copies(A, draw(st.lists(state, max_size=2)))
    letters = st.lists(st.integers(0, 1), min_size=1, max_size=3)
    words = []
    for _ in range(3):
        pre, per = draw(letters.map(tuple) | st.just(())), tuple(draw(letters))
        words.append(UpWord(pre or per, per))
    return A, words


@settings(max_examples=200, deadline=None)
@given(weak_with_copies_and_words())
def test_weak_complements_agree_with_naive_membership_property(case):
    # the pruned breakpoint, the unpruned one, the flip where it applies
    # and the Ramsey complement each accept exactly the words A rejects
    A, words = case
    assert is_weak(A)
    complements = [complement_weak(A), breakpoint_complement(A), complement(A)]
    assert complements[0].state_count <= complements[1].state_count
    if is_deterministic(A):
        complements.append(complement_flip(A))
    for sigma in words:
        outside = not naive_membership_up(A, sigma)
        assert [naive_membership_up(C, sigma) for C in complements] == [outside] * len(complements)


def test_pruned_breakpoint_agrees_with_unpruned_on_every_short_word():
    # 457 seeded weak automata of 2-7 states over 2 letters, on every word
    # with a prefix of length 0-3 and a period of length 1-3
    rng = random.Random(457)
    words = up_words(2, 3, 3)
    assert len(words) == 15 * 14
    pruned = 0
    for _ in range(457):
        A = random_weak_buchi(rng, 7, 2)
        while A.state_count < 2:
            A = random_weak_buchi(rng, 7, 2)
        C, U = complement_weak(A), breakpoint_complement(A)
        assert C.state_count <= U.state_count
        pruned += C.state_count < U.state_count
        for sigma in words:
            outside = not membership_up(A, sigma)
            assert membership_up(C, sigma) == membership_up(U, sigma) == outside, (
                format_nfa(A), sigma
            )
    assert pruned >= 100


def test_maximal_members_drop_strictly_simulated_and_keep_the_lowest_of_equals():
    # 1 and 2 are accepting a-loops, equal under simulation, and stand for
    # 1; 0 dies on b where 3 loops, so 3 strictly simulates 0 (both
    # non-accepting)
    A = BuchiNfa(
        4, 2, [(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 1), (3, 1, 3), (0, 0, 2)], [0], [1, 2]
    )
    assert not is_deterministic(A)
    head, prune = buchi._maximal_members(A)
    assert head == [0b1, 0b10, 0b10, 0b1000]

    def pruned(states):
        # a set of bits: mutually similar states share one head
        mask = prune(sum({head[q] for q in states}))
        return {q for q in range(A.state_count) if mask >> q & 1}

    assert pruned({1, 2}) == pruned({2}) == pruned({1}) == {1}
    assert pruned({0, 3}) == {3} and pruned({0, 2, 3}) == {1, 3} and pruned({0}) == {0}
    assert pruned(set()) == set()


def test_complement_weak_on_rows_with_mutually_similar_states():
    # not reduced: 1 and 3 are mutually similar accepting a-loops, both
    # successors of 0 on a, so 0's successor mask is their one head bit,
    # bit 1; 2, reached on b, is a rejecting a-loop that 1 strictly
    # simulates
    A = BuchiNfa(
        4, 2, [(0, 0, 1), (0, 0, 3), (1, 0, 1), (3, 0, 3), (0, 1, 2), (2, 0, 2)], [0], [1, 3]
    )
    assert is_weak(A) and not is_deterministic(A)
    head, _ = buchi._maximal_members(A)
    assert head[1] == head[3] == 0b10
    C, U = complement_weak(A), breakpoint_complement(A)
    assert C.state_count <= U.state_count
    for sigma in up_words(2, 3, 3):
        outside = not membership_up(A, sigma)
        assert membership_up(C, sigma) == membership_up(U, sigma) == outside, sigma


def test_complement_weak_leaves_deterministic_and_large_operands_unpruned(monkeypatch):
    def unreachable(A):
        raise AssertionError("_relation reached")

    monkeypatch.setattr(buchi, "_relation", unreachable)
    rng = random.Random(439)
    for _ in range(30):
        A = random_det_weak_buchi(rng)
        assert complement_weak(A) == breakpoint_complement(A)
    # nondeterministic, over the limit: a chain whose first state also
    # steps to the third, all of it accepting
    n = buchi._SIM_LIMIT + 1
    A = BuchiNfa(n, 1, [(p, 0, p + 1) for p in range(n - 1)] + [(0, 0, 2)], [0], range(n))
    assert complement_weak(A) == breakpoint_complement(A)


def det_weak_buchi(n, rows, initial, flags):
    """The deterministic automaton with successor rows[a][p] (None for
    none), accepting the states of each SCC c with flags[c]."""
    transitions = [
        (p, a, q) for a, row in enumerate(rows) for p, q in enumerate(row) if q is not None
    ]
    edges: dict[int, list[int]] = {}
    for p, _, q in transitions:
        edges.setdefault(p, []).append(q)
    comp = scc_index(n, edges)
    accepting = [s for s in range(n) if flags[comp[s] % len(flags)]]
    return BuchiNfa(n, len(rows), transitions, initial, accepting)


def random_det_weak_buchi(rng, max_states=4, alphabet=3):
    """Partial rows, letters sharing an earlier letter's row, and now and
    then no initial or no accepting state."""
    n = rng.randint(1, max_states)
    rows: list[list[int | None]] = []
    for a in range(alphabet):
        if a and rng.random() < 0.4:
            rows.append(rows[rng.randrange(a)])
        else:
            rows.append([rng.randrange(n) if rng.random() < 0.75 else None for _ in range(n)])
    initial = [] if rng.random() < 0.1 else [rng.randrange(n)]
    flags = [False] if rng.random() < 0.15 else [rng.random() < 0.5 for _ in range(n)]
    return det_weak_buchi(n, rows, initial, flags)


def short_up_words(alphabet):
    """Every UP word with a prefix and a period of length 1 or 2."""
    parts = [p for k in (1, 2) for p in itertools.product(range(alphabet), repeat=k)]
    return [UpWord(pre, per) for pre in parts for per in parts]


def test_deterministic_weak_complements_agree_with_naive_membership():
    rng = random.Random(438)
    words = short_up_words(3)
    seen = {"partial": 0, "no initial": 0, "no accepting": 0, "shared class": 0}
    for _ in range(60):
        A = random_det_weak_buchi(rng)
        assert is_deterministic(A) and is_weak(A)
        seen["partial"] += any(not row for rows in A._class_rows for row in rows)
        seen["no initial"] += not A.initial
        seen["no accepting"] += bool(A.initial) and not A.accepting
        seen["shared class"] += len(A._class_rows) < A.alphabet_size
        F = complement_flip(A)
        assert is_deterministic(F) and is_weak(F)
        if A.initial:
            assert F.state_count == A.state_count + 1
        complements = (F, complement_deterministic(A), complement_weak(A))
        for sigma in words:
            inside = naive_membership_up(A, sigma)
            assert [naive_membership_up(C, sigma) for C in complements] == [not inside] * 3
    assert min(seen.values()) >= 3, seen


def test_complement_flip_rejects_other_automata():
    with pytest.raises(ValueError):
        complement_flip(BuchiNfa(2, 1, [(0, 0, 0), (0, 0, 1)], [0], []))
    with pytest.raises(ValueError):
        complement_flip(inf_ones())


@st.composite
def det_weak_and_word(draw):
    n = draw(st.integers(1, 4))
    alphabet = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.none() | st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=alphabet,
            max_size=alphabet,
        )
    )
    initial = draw(st.lists(st.integers(0, n - 1), max_size=1))
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=n))
    letters = st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3)
    word = UpWord(tuple(draw(letters)), tuple(draw(letters)))
    return det_weak_buchi(n, rows, initial, flags), word


@settings(max_examples=200, deadline=None)
@given(det_weak_and_word())
def test_complement_flip_property(case):
    A, sigma = case
    F = complement_flip(A)
    assert is_deterministic(F) and is_weak(F)
    assert naive_membership_up(A, sigma) != naive_membership_up(F, sigma)


def test_product_weak_is_intersection():
    rng = random.Random(429)
    for _ in range(300):
        A = random_weak_buchi(rng, 4, 2)
        B = random_weak_buchi(rng, 4, 2)
        P = product_weak(A, B)
        assert is_weak(P)
        sigma = random_up_word(rng, 2)
        assert naive_membership_up(P, sigma) == (
            naive_membership_up(A, sigma) and naive_membership_up(B, sigma)
        )


def reachable(A):
    seen = set(A.initial)
    work = list(seen)
    while work:
        p = work.pop()
        for a in range(A.alphabet_size):
            for q in A.successors(p, a):
                if q not in seen:
                    seen.add(q)
                    work.append(q)
    return seen


def test_products_hold_only_reachable_states():
    rng = random.Random(430)
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        B = random_buchi(rng, 4, 2)
        for P in (intersection(A, B), product_weak(A, B)):
            assert reachable(P) == set(range(P.state_count))


@pytest.mark.parametrize("build", [intersection, product_weak])
def test_product_with_an_operand_without_initial_state_is_empty(build):
    no_start = BuchiNfa(2, 2, [(0, 0, 1), (1, 1, 0)], [], [0, 1])
    assert build(no_start, inf_ones()) == empty_nfa(2)
    assert build(inf_ones(), no_start) == empty_nfa(2)


def random_det_operand(rng, alphabet):
    """A deterministic automaton of 0 to 12 states, with missing
    successors, one in six of the others without an initial state."""
    if rng.random() < 0.1:
        return BuchiNfa(0, alphabet, [], [], [])
    A = random_det_buchi(rng, 12, alphabet)
    if rng.random() < 1 / 6:
        return BuchiNfa(A.state_count, alphabet, A.transitions, [], A.accepting)
    return A


def _product_cells(A, B):
    """Potential pairs times classes of letter pairs: the cells that
    _on_arrays counts for a product of A and B."""
    return A.state_count * B.state_count * len(set(zip(A._letter_class, B._letter_class)))


def test_array_product_equals_pair_loop(monkeypatch):
    # product_weak of two deterministic operands takes the array route from
    # _ARRAY_CROSSOVER cells (potential pairs times classes of letter
    # pairs) on; with the constant at 0 every such product takes it, and
    # above every size here none does
    rng = random.Random(433)
    arrays, built = buchi._deterministic_product, []

    def recorded(A, B, *classes):
        built.append((A, B))
        return arrays(A, B, *classes)

    def route(pairs, build, A, B):
        monkeypatch.setattr(buchi, "_ARRAY_CROSSOVER", pairs)
        built.clear()
        return build(A, B), built[:]

    monkeypatch.setattr(buchi, "_deterministic_product", recorded)
    crossover, above = buchi._ARRAY_CROSSOVER, 13 * 13 * 64
    sizes = []
    for alphabet in (1, 2, 4, 64):
        for _ in range(60):
            A, B = random_det_operand(rng, alphabet), random_det_operand(rng, alphabet)
            sizes.append(_product_cells(A, B))
            _, chosen = route(crossover, product_weak, A, B)
            assert chosen == ([(A, B)] if sizes[-1] >= crossover else [])
            loop, chosen = route(above, product_weak, A, B)
            assert chosen == []
            P, chosen = route(0, product_weak, A, B)
            assert chosen == [(A, B)] and P == loop and P._det is True
            assert len(P.initial) <= 1 and all(len(r) <= 1 for rows in P._class_rows for r in rows)
            # the flagged product always takes the pair loop
            assert route(0, intersection, A, B)[1] == []
    assert 0 in sizes and min(s for s in sizes if s) < crossover <= max(sizes) < above


def test_array_products_keep_their_table():
    # a deterministic product of _ARRAY_CROSSOVER cells or more keeps the
    # successor table it was built on, also when _make merges letter pairs
    # whose columns are equal.  Most B here have no transition on letters
    # 2 and 3, which A's classes tell apart, so those pairs' columns are
    # both all missing and merge
    rng = random.Random(450)
    products = merged = 0
    while products < 120:
        A, B = random_det_buchi(rng, 12, 4), random_det_buchi(rng, 12, 4)
        if rng.random() < 0.75:
            B = BuchiNfa(B.state_count, 4, [t for t in B.transitions if t[1] < 2],
                         B.initial, B.accepting)
        if _product_cells(A, B) < buchi._ARRAY_CROSSOVER:
            continue
        products += 1
        P = product_weak(A, B)
        assert P._table is not None, (format_nfa(A), format_nfa(B))
        _assert_stored_facts(P)
        merged += len(P._class_rows) < len(set(zip(A._letter_class, B._letter_class)))
    assert merged >= products // 2, merged


def scc_uniform(A):
    """Acceptance is constant on each Kosaraju component (scc_index)."""
    edges: dict[int, list[int]] = {}
    for p, _, q in A.transitions:
        edges.setdefault(p, []).append(q)
    comp = scc_index(A.state_count, edges)
    return all(
        (p in A.accepting) == (q in A.accepting)
        for p in range(A.state_count)
        for q in range(A.state_count)
        if comp[p] == comp[q]
    )


def test_is_weak_is_scc_uniform_acceptance():
    # _trim sets the answer on what it returns, from its own pass
    rng = random.Random(431)
    seen = set()
    for k in range(400):
        make = random_weak_buchi if k % 2 else random_buchi
        A = make(rng, 5, 2)
        uniform = scc_uniform(A)
        assert is_weak(A) == uniform
        T = buchi._trim(A)
        assert T._weak == scc_uniform(T)
        seen.add((uniform, T._weak))
    assert {u for u, _ in seen} == {t for _, t in seen} == {True, False}


def test_is_weak_runs_one_scc_pass_per_automaton(monkeypatch):
    calls = []
    scc = buchi._strongly_connected
    monkeypatch.setattr(
        buchi, "_strongly_connected", lambda *args: calls.append(args) or scc(*args)
    )
    for A in (inf_ones(), loop_one(accepting=False)):
        first = is_weak(A)
        assert len(calls) == 1
        assert is_weak(A) == first
        assert len(calls) == 1
        calls.clear()


def test_strongly_connected_agrees_with_kosaraju():
    # seeded graphs with self loops, unreachable nodes, repeated roots and
    # no roots; components are checked against scc_index over the whole
    # graph, restricted to the nodes the roots reach
    rng = random.Random(1515)
    shapes = set()
    for _ in range(600):
        n = rng.randint(0, 12)
        density = rng.choice((0.05, 0.15, 0.35))
        edges = {p: [q for q in range(n) if rng.random() < density] for p in range(n)}
        roots = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
        got = list(buchi._strongly_connected(roots, edges.__getitem__, n))
        reach, todo = set(roots), list(roots)
        while todo:
            for q in edges[todo.pop()]:
                if q not in reach:
                    reach.add(q)
                    todo.append(q)
        members = [m for group, _ in got for m in group]
        assert sorted(members) == sorted(reach)
        comp = scc_index(n, edges)
        position = {}
        for k, (group, cyclic) in enumerate(got):
            assert {comp[m] for m in group} == {comp[group[0]]}
            assert len(group) == comp.count(comp[group[0]])
            assert cyclic == (len(group) > 1 or group[0] in edges[group[0]])
            position.update(dict.fromkeys(group, k))
        for p in reach:
            assert all(position[q] <= position[p] for q in edges[p])
        shapes.add((bool(roots), len(reach) < n, any(c for _, c in got)))
    assert shapes >= {(False, True, False), (True, True, True), (True, False, True)}


def test_strongly_connected_calls_succ_once_per_reached_node():
    calls = []
    succ = {0: [0, 1], 1: [2], 2: [1, 2], 3: [0]}
    got = list(buchi._strongly_connected([0, 0, 2], lambda v: calls.append(v) or succ[v], 4))
    assert sorted(calls) == [0, 1, 2]
    assert [(sorted(group), cyclic) for group, cyclic in got] == [([1, 2], True), ([0], True)]


# -- language-preserving reductions -------------------------------------------


def test_reductions_preserve_language():
    rng = random.Random(430)
    for _ in range(250):
        A = random_buchi(rng, 4, 2)
        for reduce_fn in (buchi._trim, buchi._sim_reduce, buchi._reduce):
            R = reduce_fn(A)
            assert R.state_count <= A.state_count
            sigma = random_up_word(rng, 2)
            assert naive_membership_up(R, sigma) == naive_membership_up(
                A, sigma
            ), reduce_fn.__name__
    rng = random.Random(432)
    for _ in range(150):
        A = random_buchi(rng, 10, 2, density=0.2)
        for reduce_fn in (buchi._trim, buchi._sim_reduce, buchi._reduce):
            R = reduce_fn(A)
            assert R.state_count <= A.state_count
            sigma = random_up_word(rng, 2)
            assert naive_membership_up(R, sigma) == naive_membership_up(
                A, sigma
            ), reduce_fn.__name__


def _random_simulation_case(rng):
    """Up to 8 states and 1-3 letters; sometimes a letter copies another
    letter's transitions (a shared class), and the density ranges from
    sparse (states without successors) to dense (nondeterministic rows)."""
    alphabet = rng.randint(1, 3)
    A = random_buchi(rng, 8, alphabet, density=rng.choice((0.1, 0.25, 0.45)))
    if alphabet > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(alphabet), 2)
        kept = [(p, a, q) for p, a, q in A.transitions if a != dst]
        copied = [(p, dst, q) for p, a, q in A.transitions if a == src]
        A = BuchiNfa(A.state_count, alphabet, kept + copied, A.initial, A.accepting)
    return A


def _simulation_pairs(A):
    sim = buchi._direct_simulation(A)
    assert sim.shape == (A.state_count, A.state_count)
    return {(int(p), int(q)) for p, q in zip(*sim.nonzero())}


def test_direct_simulation_matches_naive_oracle():
    rng = random.Random(433)
    shared = stuck = nondeterministic = 0
    for _ in range(400):
        A = _random_simulation_case(rng)
        assert _simulation_pairs(A) == naive_direct_simulation(A), format_nfa(A)
        rows = [row for cls in A._class_rows for row in cls]
        shared += len(A._class_rows) < A.alphabet_size
        stuck += any(not row for row in rows)
        nondeterministic += any(len(row) > 1 for row in rows)
    assert min(shared, stuck, nondeterministic) >= 20
    # no letters at all, and letters without transitions
    for alphabet in (0, 2):
        A = BuchiNfa(3, alphabet, [], [0, 1], [1])
        assert _simulation_pairs(A) == naive_direct_simulation(A)


def test_direct_simulation_matches_naive_oracle_past_one_word():
    # over 64 states a packed row spans several words; copies of a few
    # small automata, plus some stray transitions, keep many pairs similar
    rng = random.Random(434)
    for size in (65, 100, 130, buchi._BLOCK_TRANSPOSE_STATES + 30):
        parts = [random_buchi(rng, 5, 2, density=0.3) for _ in range(3)]
        trips, acc, n = [], [], 0
        while n < size:
            B = rng.choice(parts)
            trips += [(p + n, a, q + n) for p, a, q in B.transitions]
            acc += [s + n for s in B.accepting]
            n += B.state_count
        trips += [(rng.randrange(n), rng.randrange(2), rng.randrange(n)) for _ in range(5)]
        A = BuchiNfa(n, 2, trips, [0], acc)
        expected = naive_direct_simulation(A)
        assert len(expected) > 10 * n
        assert _simulation_pairs(A) == expected


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000])
@pytest.mark.parametrize("route", [buchi._byte_transposer, buchi._block_transposer])
def test_transpose_of_packed_bits(route, n):
    # rows as _direct_simulation keeps them: packed bits in 64-bit words,
    # with ones past column n (as in a negated row); out has a sentinel
    # row n, which must stay as it is, as must the bytes past each row
    rng = np.random.default_rng(n)
    nbytes = (n + 7) // 8
    words = (nbytes + 7) // 8
    transpose = route(n)
    out = np.full((n + 1, words), 0x5A5A5A5A5A5A5A5A, dtype=np.uint64)
    for _ in range(2):  # the second call reuses the first call's buffers
        rows = np.full((n, words), np.uint64(2**64 - 1))
        rows.view(np.uint8)[:, :nbytes] = np.packbits(rng.random((n, n)) < 0.5, axis=1)
        if n % 8:
            rows.view(np.uint8)[:, nbytes - 1] |= (1 << 8 - n % 8) - 1
        expected = np.unpackbits(rows.view(np.uint8), axis=1, count=n).T
        transpose(out, rows)
        # padding bits past column n included: they must read zero
        assert (out.view(np.uint8)[:n, :nbytes] == np.packbits(expected, axis=1)).all()
        assert (out[n] == 0x5A5A5A5A5A5A5A5A).all()
        assert (out.view(np.uint8)[:, nbytes:] == 0x5A).all()


def test_sim_reduce_leaves_automata_over_the_limit_unchanged():
    # nondeterministic and over the limit, so it has no simulation order
    # and _refine takes it: a chain whose first state also steps to the
    # third, where no two states are bisimilar
    n = buchi._SIM_LIMIT + 1
    A = BuchiNfa(n, 1, [(p, 0, p + 1) for p in range(n - 1)] + [(0, 0, 2)], [0], [n - 1])
    assert not is_deterministic(A)
    assert buchi._sim_reduce(A) is A


def test_sim_reduce_reduces_deterministic_automata_over_the_limit():
    # deterministic input has no simulation order, so it is quotiented by
    # bisimilarity (_refine) at any size
    n = buchi._SIM_LIMIT + 1
    cycle = BuchiNfa(n, 1, [(p, 0, (p + 1) % n) for p in range(n)], [0], range(n))
    assert buchi._sim_reduce(cycle) == loop_one()


def test_reduce_refines_nondeterministic_automata_over_the_limit():
    # two copies of one strongly connected nondeterministic part, each
    # transition leading into both copies of its target: every state is
    # reachable and live, and bisimilar to its twin, so the quotient halves
    # A and fits the limit, where the relation then applies
    rng = random.Random(442)
    k = buchi._SIM_LIMIT // 2 + 1
    part = [(p, 0, (p + 1) % k) for p in range(k)]
    part += [(p, 0, rng.randrange(k)) for p in rng.sample(range(k), k // 4)]
    part += [(p, 1, rng.randrange(k)) for p in range(k) if rng.random() < 0.6]
    accepting = rng.sample(range(k), 60)
    A = BuchiNfa(
        2 * k,
        2,
        [(j * k + p, a, c * k + q) for p, a, q in part for j in (0, 1) for c in (0, 1)],
        [0],
        [j * k + p for j in (0, 1) for p in accepting],
    )
    assert not is_deterministic(A) and buchi._trim(A) is A
    R = buchi._reduce(A)
    assert R.state_count <= k and R._sim_order is not None and not is_deterministic(R)
    assert buchi._sim_reduce(R) is R
    verdicts = [
        (membership_up(A, sigma), membership_up(R, sigma))
        for sigma in (random_up_word(rng, 2) for _ in range(100))
    ]
    assert all(a == r for a, r in verdicts)
    assert 5 <= sum(a for a, _ in verdicts) <= 95


def test_sim_reduce_merges_mutually_similar_states():
    # 1 and 2 are accepting a-loops, so each simulates the other
    A = BuchiNfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 2)], [0], [1, 2])
    assert buchi._sim_reduce(A) == BuchiNfa(2, 1, [(0, 0, 1), (1, 0, 1)], [0], [1])


def test_sim_reduce_drops_transitions_into_dominated_siblings():
    # 2 simulates 1 (accepting, and it loops on a too) but not conversely,
    # so 0 keeps only its a-transition into 2
    A = BuchiNfa(
        3, 2, [(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 2), (2, 1, 2)], [0], [2]
    )
    assert buchi._sim_reduce(A) == BuchiNfa(
        3, 2, [(0, 0, 2), (1, 0, 1), (2, 0, 2), (2, 1, 2)], [0], [2]
    )


def test_sim_reduce_drops_dominated_initial_states():
    A = BuchiNfa(2, 2, [(0, 0, 0), (1, 0, 1), (1, 1, 1)], [0, 1], [1])
    assert buchi._sim_reduce(A) == BuchiNfa(2, 2, [(0, 0, 0), (1, 0, 1), (1, 1, 1)], [1], [1])


def test_sim_reduce_unreachable_accepting_cycle():
    # all states accepting; 1 -> 2 dies, the 0-loop is unreachable from the
    # initial state, so the language must stay empty after reducing
    A = BuchiNfa(3, 1, [(0, 0, 0), (1, 0, 2)], [1], [0, 1, 2])
    assert not is_satisfiable(A)
    for reduce_fn in (buchi._sim_reduce, buchi._reduce):
        assert not is_satisfiable(reduce_fn(A))


def test_sim_reduce_returns_its_input_and_leaves_the_relation_on_it(monkeypatch):
    # when nothing merges or is pruned the result is A itself; on the
    # relation route the order left on A is A's direct simulation: q
    # simulates p iff q strictly does or both have the same first state,
    # and that state is the least of the class
    rng = random.Random(440)
    kept = rebuilt = 0
    for _ in range(300):
        A = _random_simulation_case(rng)
        R = buchi._sim_reduce(A)
        assert (R is A) == (R == A)
        if A.state_count > 1 and not is_deterministic(A):
            first, strictly = A._sim_order
            assert buchi._simulation_order(A) is A._sim_order
            states = range(A.state_count)
            strict = {(p, q) for p in states for q in states if strictly[p] >> q & 1}
            same = {(p, q) for p in states for q in states if first[q] == first[p]}
            expected = naive_direct_simulation(A)
            assert strict | same == expected and not strict & same, format_nfa(A)
            assert all(
                first[p] == min(q for q in states if {(p, q), (q, p)} <= expected)
                for p in states
            ), format_nfa(A)
            kept += R is A
            rebuilt += R is not A
        else:
            assert A._sim_order is None
    assert min(kept, rebuilt) >= 20
    # _reduce's results are fixpoints, so each is its own reduction
    for _ in range(100):
        C = buchi._reduce(_random_simulation_case(rng))
        assert buchi._sim_reduce(C) is C

    # no order, and no relation built, for deterministic automata and
    # for nondeterministic ones over the limit
    def unreachable(A):
        raise AssertionError("_relation reached")

    monkeypatch.setattr(buchi, "_relation", unreachable)
    for _ in range(30):
        assert buchi._simulation_order(random_det_weak_buchi(rng)) is None
    n = buchi._SIM_LIMIT + 1
    A = BuchiNfa(n, 1, [(p, 0, p + 1) for p in range(n - 1)] + [(0, 0, 2)], [0], [n - 1])
    assert not is_deterministic(A) and buchi._simulation_order(A) is None


def test_trim_returns_its_input_when_it_cuts_nothing():
    rng = random.Random(436)
    kept = cut = 0
    for _ in range(200):
        A = random_buchi(rng, 6, 2, density=0.3)
        T = buchi._trim(A)
        assert buchi._trim(T) is T
        if T.state_count == A.state_count:
            assert T is A
            kept += 1
        else:
            assert T != A
            cut += 1
    assert min(kept, cut) >= 20


def test_trim_matches_naive_trim():
    # from 0: 1 is accepting on no cycle and leads to 2's rejecting self
    # loop, 3 has an accepting self loop and a dead end 6 behind it, and
    # the accepting cycle 4 <-> 5 is unreachable
    A = BuchiNfa(
        7,
        2,
        [(0, 0, 1), (1, 1, 2), (2, 0, 2), (0, 1, 3), (3, 0, 3), (3, 1, 6),
         (4, 0, 5), (5, 0, 4), (4, 1, 3)],
        [0],
        [1, 3, 4, 5, 6],
    )
    T = BuchiNfa(2, 2, [(0, 1, 1), (1, 0, 1)], [0], [1])
    assert buchi._trim(A) == naive_trim(A) == T
    # a dead end and an unreachable accepting cycle only; no initial state
    for A in (
        BuchiNfa(3, 1, [(0, 0, 0), (1, 0, 2)], [1], [0, 1, 2]),
        BuchiNfa(2, 1, [(0, 0, 0)], [], [0]),
    ):
        assert buchi._trim(A) == naive_trim(A) == empty_nfa(1)
    rng = random.Random(440)
    seen = {"kept": 0, "cut": 0, "emptied": 0}
    for _ in range(300):
        A = random_buchi(rng, 8, 2, density=0.15)
        T = buchi._trim(A)
        assert T == naive_trim(A)
        seen["kept" if T is A else "cut" if T.state_count else "emptied"] += 1
    assert min(seen.values()) >= 30, seen
    # the read-off: rows of two or more successors that lose their first
    # one, deterministic inputs that lose states and shared letter classes
    seen = dict.fromkeys(("first_cut", "cut_to_one", "det_cut", "shared_cut"), 0)
    for i in range(600):
        if i % 2:
            A = _random_deterministic(rng, rng.randint(2, 12), rng.randint(1, 3), rng.random() < 0.5)
        else:
            A = random_buchi(rng, 12, 2, density=0.1)
            if rng.random() < 0.5:
                # letter 2 copies letter 0
                trips = A.transitions | {(p, 2, q) for p, a, q in A.transitions if a == 0}
                A = BuchiNfa(A.state_count, 3, trips, A.initial, A.accepting)
        det = is_deterministic(A)
        T = buchi._trim(A)
        assert T == naive_trim(A), format_nfa(A)
        assert T._weak is is_weak(BuchiNfa(T.state_count, T.alphabet_size, T.transitions,
                                           T.initial, T.accepting))
        assert T._det is (det if T is A else det or None)
        if T is A:
            continue
        kept = set(naive_kept(A))
        left = [
            sum(q in kept for q in row)
            for rows in A._class_rows
            for p, row in enumerate(rows)
            if p in kept and len(row) > 1 and row[0] not in kept
        ]
        seen["first_cut"] += any(left)
        seen["cut_to_one"] += 1 in left
        seen["det_cut"] += det
        seen["shared_cut"] += len(A._class_rows) < A.alphabet_size
    assert min(seen.values()) >= 30, seen


def test_trim_and_quotient_keep_determinism():
    # a deterministic input marks its trim and its quotient deterministic
    A = BuchiNfa(4, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 1), (3, 0, 3)], [0], [1, 2])
    assert is_deterministic(A)
    for R in (buchi._trim(A), buchi._refine(A)):
        assert R.state_count < A.state_count and R._det is True
    # a nondeterministic input never marks them nondeterministic, because
    # cutting or merging states can leave one successor per letter
    A = BuchiNfa(4, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 3)], [0], [1])
    B = BuchiNfa(3, 1, [(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 2)], [0], [1, 2])
    assert not is_deterministic(A) and not is_deterministic(B)
    for R in (buchi._trim(A), buchi._refine(B)):
        assert R.state_count == 2 and R._det is None and is_deterministic(R)


def _random_deterministic(rng, size, alphabet, complete):
    """A deterministic automaton of about size states, made of copies of
    one small automaton whose transitions lead into random copies, so that
    many states are bisimilar; a few redirected transitions split some of
    them.  Partial unless complete; sometimes without an initial state,
    and sometimes a letter copies another (a shared class)."""
    k = rng.randint(1, 6)
    base = {
        (p, a): rng.randrange(k)
        for p in range(k)
        for a in range(alphabet)
        if complete or rng.random() < 0.7
    }
    copies = -(-size // k)
    n = k * copies
    succ = {
        (j * k + p, a): rng.randrange(copies) * k + q
        for j in range(copies)
        for (p, a), q in base.items()
    }
    for key in rng.sample(sorted(succ), min(len(succ), rng.randint(0, 3))):
        succ[key] = rng.randrange(n)
    if alphabet > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(alphabet), 2)
        succ = {(p, a): q for (p, a), q in succ.items() if a != dst}
        succ.update({(p, dst): q for (p, a), q in list(succ.items()) if a == src})
    accepting_base = [p for p in range(k) if rng.random() < 0.5]
    accepting = [j * k + p for j in range(copies) for p in accepting_base]
    initial = [rng.randrange(n)] if rng.random() < 0.85 else []
    trips = [(p, a, q) for (p, a), q in succ.items()]
    return BuchiNfa(n, alphabet, trips, initial, accepting)


def _quotient_by_mutual_simulation(A):
    """A's quotient by mutual direct simulation, from the naive oracle,
    with blocks numbered by first member and nothing pruned."""
    rel = naive_direct_simulation(A)
    n = A.state_count
    block = [min(q for q in range(n) if (p, q) in rel and (q, p) in rel) for p in range(n)]
    number = {b: i for i, b in enumerate(dict.fromkeys(block))}
    of = [number[b] for b in block]
    return BuchiNfa(
        len(number),
        A.alphabet_size,
        {(of[p], a, of[q]) for p, a, q in A.transitions},
        {of[s] for s in A.initial},
        {of[s] for s in A.accepting},
    )


def test_sim_reduce_relation_route_matches_naive_quotient():
    # nondeterministic automata of 2-9 states over 1-3 letters; the
    # relation route reads one member's row per block, the oracle the
    # rows of all members, which differ in some automata
    rng = random.Random(441)
    cases = differing = 0
    while cases < 1000:
        A = random_buchi(rng, 9, rng.randint(1, 3))
        if A.state_count < 2 or is_deterministic(A):
            continue
        cases += 1
        assert buchi._sim_reduce(A) == naive_sim_quotient(A), format_nfa(A)
        first = buchi._simulation_order(A)[0]
        differing += any(
            A.successors(p, a) != A.successors(first[p], a)
            for p in range(A.state_count)
            for a in range(A.alphabet_size)
        )
    assert differing >= 300


def test_sim_reduce_of_deterministic_automata_matches_naive_quotient(monkeypatch):
    # the refinement route alone: no relation may be built
    def unreachable(A):
        raise AssertionError("deterministic input took the relation route")

    monkeypatch.setattr(buchi, "_relation", unreachable)
    rng = random.Random(437)
    merged = partial = no_initial = shared = large = 0
    cases = [(rng.randint(2, 12), rng.randint(1, 3)) for _ in range(300)]
    cases += [(size, rng.randint(1, 3)) for size in (65, 100, 130) for _ in range(2)]
    for size, alphabet in cases:
        A = _random_deterministic(rng, size, alphabet, complete=rng.random() < 0.5)
        assert is_deterministic(A)
        R = buchi._sim_reduce(A)
        if A.state_count > 1:
            assert R == _quotient_by_mutual_simulation(A), format_nfa(A)
        # a quotient that merges nothing is A itself
        assert (R is A) == (R.state_count == A.state_count)
        assert is_deterministic(R)
        merged += R.state_count < A.state_count
        partial += any(not row for rows in A._class_rows for row in rows)
        no_initial += not A.initial
        shared += len(A._class_rows) < A.alphabet_size
        large += A.state_count > 64 and R.state_count < A.state_count
    assert min(merged, partial, no_initial, shared) >= 20
    assert large >= 4


def _random_copies(rng):
    """Copies of one random automaton of 1-4 states over 1-3 letters.
    Each transition leads into a random nonempty set of copies of its
    target, so copies of a state are bisimilar and many states have
    several successors in one block, until a few added transitions split
    some; sometimes a letter copies another's transitions (a shared
    class)."""
    alphabet = rng.randint(1, 3)
    part = random_buchi(rng, 4, alphabet, density=rng.choice((0.2, 0.4)))
    k, copies = part.state_count, rng.randint(1, 3)
    n = k * copies
    trips = [
        (j * k + p, a, c * k + q)
        for p, a, q in part.transitions
        for j in range(copies)
        for c in rng.sample(range(copies), rng.randint(1, copies))
    ]
    trips += [
        (rng.randrange(n), rng.randrange(alphabet), rng.randrange(n))
        for _ in range(rng.randint(0, 2))
    ]
    if alphabet > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(alphabet), 2)
        trips = [t for t in trips if t[1] != dst] + [(p, dst, q) for p, a, q in trips if a == src]
    initial = [j * k + p for j in range(copies) for p in part.initial if rng.random() < 0.5]
    accepting = [j * k + p for j in range(copies) for p in part.accepting]
    return BuchiNfa(n, alphabet, trips, initial, accepting)


def test_refine_matches_naive_bisim_quotient():
    # one partition refinement for deterministic and nondeterministic input
    rng = random.Random(443)
    seen = dict.fromkeys(
        ("merged", "det_merged", "several_blocks", "partial", "shared", "no_initial"), 0
    )
    for i in range(500):
        if i % 2:
            A = _random_deterministic(rng, rng.randint(2, 12), rng.randint(1, 3), rng.random() < 0.5)
        else:
            A = _random_copies(rng)
        R = buchi._refine(A)
        assert R == naive_bisim_quotient(A), format_nfa(A)
        assert (R is A) == (R.state_count == A.state_count)
        merged = R.state_count < A.state_count
        seen["merged" if i % 2 == 0 else "det_merged"] += merged
        seen["several_blocks"] += any(len(row) > 1 for rows in R._class_rows for row in rows)
        seen["partial"] += merged and any(not row for rows in A._class_rows for row in rows)
        seen["shared"] += merged and len(A._class_rows) < A.alphabet_size
        seen["no_initial"] += not A.initial
    assert min(seen.values()) >= 50, seen


def test_relation_on_the_refined_quotient_matches_the_relation_on_its_input():
    # bisimilar states are mutually similar, so refining first changes
    # nothing that the relation route then gives
    rng = random.Random(444)
    cases = refined = 0
    while cases < 300:
        A = _random_copies(rng) if cases % 2 else _random_simulation_case(rng)
        if A.state_count < 2 or is_deterministic(A):
            continue
        cases += 1
        Q = buchi._refine(A)
        refined += Q is not A
        assert buchi._sim_reduce(Q) == buchi._sim_reduce(A), format_nfa(A)
    assert refined >= 50


def _large_copies(rng):
    """A nondeterministic automaton of 224-400 states: copies of a random
    automaton of 3-6 states over 2 letters, each transition leading into
    one to three random copies of its target, so copies of a state are
    bisimilar, until a few stray transitions split some; initial states in
    every copy.  One in five is a random automaton of 240-300 states,
    where few states are bisimilar."""
    if rng.random() < 0.2:
        n = rng.randint(240, 300)
        trips = [(p, a, rng.randrange(n)) for p in range(n) for a in range(2)
                 for _ in range(rng.choice((1, 2)))]
        return BuchiNfa(n, 2, trips, rng.sample(range(n), 3), rng.sample(range(n), n // 3))
    k = rng.randint(3, 6)
    part = random_buchi(rng, k, 2, density=0.35)
    k = part.state_count
    copies = rng.randint(-(-224 // k), 400 // k)
    n = k * copies
    trips = [
        (j * k + p, a, c * k + q)
        for p, a, q in part.transitions
        for j in range(copies)
        for c in rng.sample(range(copies), rng.randint(1, 3))
    ]
    trips += [(rng.randrange(n), rng.randrange(2), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
    initial = [j * k + p for j in range(copies) for p in part.initial]
    return BuchiNfa(n, 2, trips, initial, [j * k + p for j in range(copies) for p in part.accepting])


def test_large_inputs_refine_before_the_relation(monkeypatch):
    # from _BLOCK_TRANSPOSE_STATES states on, an input with no order is
    # refined first, in the same call, and the relation is built only on
    # one that _refine leaves unchanged; _reduce gives what the relation
    # alone gives
    rng = random.Random(449)
    cases = []
    while len(cases) < 60:
        A = buchi._trim(_large_copies(rng))
        if A.state_count >= buchi._BLOCK_TRANSPOSE_STATES and not is_deterministic(A):
            cases.append(A)
    gated = [buchi._reduce(_fresh(A)) for A in cases]
    with monkeypatch.context() as m:
        m.setattr(buchi, "_BLOCK_TRANSPOSE_STATES", 10**9)
        forced = [buchi._reduce(_fresh(A)) for A in cases]
    assert gated == forced

    relation, inputs = buchi._relation, []
    merged = 0
    for A in cases:
        R = buchi._refine(A)
        if R is not A:
            merged += 1
            with monkeypatch.context() as m:
                m.setattr(buchi, "_relation", lambda X: inputs.append(X) or relation(X))
                reduced = buchi._sim_reduce(A)
            assert reduced == buchi._sim_reduce(_fresh(R))
    assert inputs and all(buchi._refine(X) is X for X in inputs)
    assert merged >= 30


def test_quotients_inherit_the_greatest_simulation(monkeypatch):
    # a relation route quotient inherits its order from its input, and its
    # trim keeps it when it cuts only unreachable states; every order so
    # kept is the one a fresh copy computes, and _reduce's result is its
    # own reduction.  Trims of quotients of untrimmed inputs cut dead
    # states, after which the order is not carried
    reduce_, sim_reduce, relation = buchi._reduce, buchi._sim_reduce, buchi._relation
    reduced, quotients, related = [], [], []

    def recorded_reduce(A):
        reduced.append(reduce_(A))
        return reduced[-1]

    def recorded_sim_reduce(A):
        R = sim_reduce(A)
        if R is not A and A._sim_order is not None:
            quotients.append(R)
        return R

    monkeypatch.setattr(buchi, "_reduce", recorded_reduce)
    monkeypatch.setattr(buchi, "_sim_reduce", recorded_sim_reduce)
    monkeypatch.setattr(buchi, "_relation", lambda A: related.append(A) or relation(A))
    for g in (new_semigroup(1, [[0]]), new_semigroup(2, [[0, 0], [1, 1]]),
              new_semigroup(2, [[0, 1], [1, 0]])):
        logic.translate(*logic.reduce_full(phi_merge(g), MERGE_FIRST_ORDER, merge_second_order(g)))
    rng = random.Random(448)
    trims = []
    for i in range(1500):
        A = _random_copies(rng) if i % 2 else _random_simulation_case(rng)
        R = buchi._sim_reduce(A)
        # A keeps the order computed on it, R the inherited one
        trims += [buchi._trim(A), buchi._trim(R)]
        buchi._reduce(A)
    monkeypatch.undo()
    computed = set(map(id, related))
    inherited = sum(C._sim_order is not None and id(C) not in computed for C in reduced)
    for C in reduced:
        assert buchi._sim_reduce(C) is C
    for R in reduced + quotients + trims:
        _assert_stored_facts(R)
    assert len(quotients) >= 300 and inherited >= 100, (len(quotients), inherited)


def test_relation_quotient_can_leave_a_block_unreachable_without_a_prune(monkeypatch):
    # _sim_reduce reads each block's successors off its first member alone.
    # Here states 2, 4 and 6 are mutually similar, and state 1, strictly
    # simulated by 0, 3 and 5, is a successor of 4 only, so the block of 1
    # is unreachable in the quotient of this trimmed automaton although no
    # set of blocks was pruned: _reduce trims every relation route quotient
    # again, not only those with a prune
    A = parse_nfa("nfa 7 1\ninitial 4\naccepting 0\n" + "".join(
        f"trans {p} 0 {q}\n" for p, q in ((0, 6), (1, 4), (1, 6), (2, 3), (2, 5), (3, 0),
                                         (3, 2), (3, 4), (3, 6), (4, 1), (4, 3), (4, 5),
                                         (5, 0), (5, 4), (6, 3), (6, 5))))
    pruned, members = [], buchi._maximal_members

    def recorded(X):
        head, prune = members(X)
        return head, lambda mask: pruned.append(prune(mask) != mask) or prune(mask)

    monkeypatch.setattr(buchi, "_maximal_members", recorded)
    assert buchi._trim(A) is A
    R = buchi._sim_reduce(A)
    assert pruned and not any(pruned)
    assert buchi._simulation_order(A)[0] == [0, 1, 2, 3, 2, 3, 2]
    T = buchi._trim(R)
    assert T == naive_trim(R) and T.state_count == R.state_count - 1 == 3
    assert buchi._reduce(_fresh(A)) == T


def _fresh(A):
    """A copy of A built from its transitions, with nothing stored on it."""
    return BuchiNfa(A.state_count, A.alphabet_size, A.transitions, A.initial, A.accepting)


def _assert_stored_facts(R):
    """What R keeps about itself is what a fresh copy computes: its
    weakness, its determinism, its successor table and its simulation
    order.  Only a deterministic automaton keeps a table.  Each class row
    is stored strictly increasing."""
    F = _fresh(R)
    assert F == R
    assert all(list(row) == sorted(set(row)) for rows in R._class_rows for row in rows)
    for stored, computed in ((R._weak, is_weak), (R._det, is_deterministic)):
        assert stored is None or stored is computed(F), format_nfa(R)
    if R._table is not None:
        assert is_deterministic(F), format_nfa(R)
        assert R._table.shape == (R.state_count, len(R._class_rows))
        assert (R._table == buchi._successor_table(F)).all(), format_nfa(R)
    if R._sim_order is not None:
        assert R._sim_order == buchi._simulation_order(F), format_nfa(R)


def _fully_live(rng, size, alphabet):
    """A complete deterministic automaton whose letter 0 runs through all
    states in one cycle, so every state is reachable and, with at least
    one accepting state, live; the other letters go anywhere."""
    order = rng.sample(range(size), size)
    step = {p: q for p, q in zip(order, order[1:] + order[:1])}
    trips = [(p, 0, step[p]) for p in range(size)]
    trips += [(p, a, rng.randrange(size)) for p in range(size) for a in range(1, alphabet)]
    accepting = rng.sample(range(size), rng.randint(1, size))
    return BuchiNfa(size, alphabet, trips, [rng.randrange(size)], accepting)


def _twinned(rng, D):
    """D's states twice over: each transition of D leads into both copies
    of its target, so each state is bisimilar to its twin, until a few
    added transitions split some pairs."""
    n = D.state_count
    trips = [
        (j * n + p, a, c * n + q) for p, a, q in D.transitions for j in (0, 1) for c in (0, 1)
    ]
    trips += [
        (rng.randrange(2 * n), rng.randrange(D.alphabet_size), rng.randrange(2 * n))
        for _ in range(rng.randint(0, 3))
    ]
    initial = [j * n + s for s in D.initial for j in rng.sample((0, 1), rng.randint(1, 2))]
    accepting = [j * n + s for s in D.accepting for j in (0, 1)]
    return BuchiNfa(2 * n, D.alphabet_size, trips, initial, accepting)


def _large_case(rng, i):
    """Automata at or over the array crossover, by turns: deterministic
    copies of a small automaton (_random_deterministic, 64-300 states)
    with its accepting copies or with random accepting states, complete
    and fully live deterministic ones (64-300 states), and nondeterministic
    twins (64-240 states)."""
    kind = i % 4
    if kind == 2:
        return _fully_live(rng, rng.randint(64, 300), rng.randint(1, 3))
    if kind == 3:
        return _twinned(rng, _random_deterministic(rng, rng.randint(32, 120), rng.randint(1, 3),
                                                   rng.random() < 0.5))
    A = _random_deterministic(rng, rng.randint(64, 300), rng.randint(1, 3), rng.random() < 0.5)
    if kind == 1:
        n = A.state_count
        A = BuchiNfa(n, A.alphabet_size, A.transitions, A.initial,
                     rng.sample(range(n), rng.randint(0, n)))
    return A


def test_array_trim_and_refine_match_naive_oracles(monkeypatch):
    # from _ARRAY_CROSSOVER cells on, a deterministic automaton is trimmed
    # and refined on its successor table, and a nondeterministic one, the
    # _twinned cases, on Python rows, so its results hold no table; both
    # routes must give the oracles' automata, and every result must store
    # true facts about itself.  The switch is lowered to 64 cells, so that
    # every case of 64 states or more is past it
    monkeypatch.setattr(buchi, "_ARRAY_CROSSOVER", 64)
    rng = random.Random(445)
    seen = dict.fromkeys(
        ("cut", "kept", "emptied", "not_weak", "table_kept", "merged", "not_merged",
         "nondet"), 0
    )
    for i in range(140):
        A = _large_case(rng, i)
        assert buchi._on_arrays(A.state_count, len(A._class_rows))
        seen["not_weak"] += not is_weak(_fresh(A))
        T = buchi._trim(A)
        assert T == naive_trim(A), format_nfa(A)
        assert T._weak is not None
        _assert_stored_facts(T)
        seen["kept" if T is A else "cut" if T.state_count else "emptied"] += 1
        seen["table_kept"] += T is not A and T._table is not None
        results = [A, T]
        if i % 5 == 0:
            R = buchi._refine(A)
            assert R == naive_bisim_quotient(A), format_nfa(A)
            assert (R is A) == (R.state_count == A.state_count)
            _assert_stored_facts(R)
            seen["merged" if R is not A else "not_merged"] += 1
            results.append(R)
        if not is_deterministic(A):
            assert all(X._table is None for X in results), format_nfa(A)
            seen["nondet"] += 1
    assert min(seen[k] for k in ("cut", "kept", "emptied", "not_weak", "table_kept")) >= 30, seen
    assert min(seen["merged"], seen["not_merged"]) >= 5 and seen["nondet"] >= 30, seen


def test_products_and_complements_store_true_facts(monkeypatch):
    # complement_flip and complement_weak build deterministic automata, and
    # products of two operands known deterministic are deterministic on
    # either route; complement_flip and product_weak of weak operands are
    # weak.  Each is marked so, and each mark is true.  The switch is
    # lowered to 64 cells, so that both routes run on these small operands
    monkeypatch.setattr(buchi, "_ARRAY_CROSSOVER", 64)
    rng = random.Random(446)
    arrays = tables = 0
    for _ in range(150):
        A = random_det_weak_buchi(rng, max_states=12)
        B = random_det_weak_buchi(rng, max_states=12)
        assert is_deterministic(A) and is_weak(A) and is_deterministic(B) and is_weak(B)
        F = complement_flip(A)
        assert F._det is True and F._weak is True
        C = complement_weak(A)
        assert C._det is True
        P = product_weak(A, B)
        assert P._det is True and P._weak is True
        I = intersection(A, B)
        assert I._det is True
        for R in (F, C, P, I):
            _assert_stored_facts(R)
        arrays += _product_cells(A, B) >= buchi._ARRAY_CROSSOVER
        tables += P._table is not None
    # products on arrays, which keep their table
    assert arrays >= 30 and tables >= 15
    for _ in range(150):
        A = random_weak_buchi(rng, 5, 2)
        B = random_weak_buchi(rng, 5, 2)
        assert is_weak(A) and is_weak(B)
        P = product_weak(A, B)
        assert P._weak is True
        C = complement_weak(A)
        for R in (P, C):
            _assert_stored_facts(R)
    # operands not known weak or deterministic mark nothing false
    not_weak = 0
    for _ in range(150):
        A, B = random_buchi(rng, 5, 2), random_buchi(rng, 5, 2)
        for R in (product_weak(A, B), intersection(A, B)):
            _assert_stored_facts(R)
            not_weak += not is_weak(_fresh(R))
    assert not_weak >= 30


def _assert_table_from_the_switch_on(R):
    """R, built from a successor table, keeps one exactly from the switch
    on (_on_arrays); below it, the table _successor_table builds on demand
    equals a fresh copy's."""
    on_arrays = buchi._on_arrays(R.state_count, len(R._class_rows))
    assert (R._table is not None) == on_arrays, format_nfa(R)
    if not on_arrays:
        table = buchi._successor_table(R)
        assert R._table is table and (table == buchi._successor_table(_fresh(R))).all()
    _assert_stored_facts(R)


def test_flips_and_breakpoint_complements_carry_their_tables(monkeypatch):
    # both are built from a successor table over A's letter classes and
    # keep it from the switch on, here at 0 cells, where every result is on
    # arrays, and at the shipped switch, which these small results are
    # below: complement_flip's classes stay distinct, as the sink completes
    # only empty rows; complement_weak's table drops the columns of classes
    # merged when two of A's classes give equal target columns
    for crossover in (0, buchi._ARRAY_CROSSOVER):
        monkeypatch.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
        rng = random.Random(447)
        merged = {"det": 0, "nondet": 0}
        for i in range(400):
            if i % 2:
                A = random_weak_buchi(rng, 5, 2)
            else:
                A = random_det_weak_buchi(rng, max_states=12)
                _assert_table_from_the_switch_on(complement_flip(A))
            C = complement_weak(A)
            _assert_table_from_the_switch_on(C)
            merged["nondet" if i % 2 else "det"] += len(C._class_rows) < len(A._class_rows)
        assert merged["det"] >= 20 and merged["nondet"] >= 80, merged


def test_table_handover_guard_on_edge_cases(monkeypatch):
    no_letters = [empty_nfa(0), BuchiNfa(1, 0, [], [0], [0]), BuchiNfa(70, 0, [], [0], [0])]
    cycle = BuchiNfa(70, 1, [(p, 0, (p + 1) % 70) for p in range(70)], [], range(70))
    # letter 1 differs from letter 0 only on the unreachable state 1, so
    # the breakpoint complement's two target columns are equal
    unused = BuchiNfa(2, 2, [(0, 0, 0), (1, 0, 1), (0, 1, 0)], [0], [0])
    results = [complement_flip(A) for A in no_letters + [cycle]]
    results += [complement_weak(A) for A in no_letters + [cycle, unused]]
    results += [build(A, B) for build in (product_weak, intersection)
                for A in no_letters[1:] + [cycle] for B in (no_letters[1], cycle)
                if A.alphabet_size == B.alphabet_size]
    results += [buchi._trim(cycle), buchi._refine(cycle), buchi._universal(0)]
    for R in results:
        _assert_stored_facts(R)
    # without states or letters the refinement merges only the 70-state
    # automaton's 69 non-accepting states, and is A itself otherwise
    for A in no_letters + [empty_nfa(2)]:
        R = buchi._refine(A)
        assert R == naive_bisim_quotient(A) and (R is A) == (A.state_count < 70)
        _assert_stored_facts(R)
    # below the switch no table is kept, and one built on demand has the
    # shape a table kept from the switch on has
    for crossover in (buchi._ARRAY_CROSSOVER, 0):
        with monkeypatch.context() as m:
            m.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
            merged, flipped = complement_weak(unused), complement_flip(no_letters[1])
            kept = (merged._table, flipped._table)
        assert (kept == (None, None)) == (crossover > 0)
        assert len(merged._class_rows) == 1 and buchi._successor_table(merged).shape == (1, 1)
        assert buchi._successor_table(flipped).shape == (2, 0)
        _assert_stored_facts(merged)
        _assert_stored_facts(flipped)
    # a column no letter uses has no class, so the table kept drops it
    table = np.array([[0, 1], [1, 0]], dtype=np.int64)
    R = buchi._from_table(2, table, 1, [0], [0], [1])
    assert R == BuchiNfa(2, 1, [(0, 0, 0), (1, 0, 1)], [0], [1]) and R._table.shape == (2, 1)
    _assert_stored_facts(R)
    R = buchi._from_table(2, table, 2, [0, 1], [0], [1])
    assert R._table is table
    _assert_stored_facts(R)
    # a relabel whose letters change the classes' first-letter order
    # carries the table with its columns reordered
    L = buchi._relabel(R, [1, 0, 1])
    assert L._class_first_letter == (0, 1) and L._table is not None
    assert L == buchi._relabel(_fresh(R), [1, 0, 1])
    _assert_stored_facts(L)
    # columns as Python lists give a table from the switch on only
    for crossover in (4, 5):
        with monkeypatch.context() as m:
            m.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
            R = buchi._from_table(2, [[0, 1], [1, 0]], 2, [0, 1], [0], [1])
        assert (R._table is None) == (crossover > 4)
        _assert_stored_facts(R)


def test_direct_simulation_memory_does_not_grow_with_letter_classes():
    # 1000 states over 32 letter classes: a transpose of every class at
    # once would hold two byte arrays of 32 * n * n bytes, 64 MB in all
    rng = random.Random(435)
    n, letters = 1000, 32
    trips = [(p, a, rng.randrange(n)) for p in range(n) for a in range(letters) for _ in range(2)]
    A = BuchiNfa(n, letters, trips, [0], rng.sample(range(n), n // 2))
    assert len(A._class_rows) == letters
    tracemalloc.start()
    try:
        buchi._direct_simulation(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- Python routes against array routes ------------------------------------------


def _route_case(rng, cells, det=False):
    """An automaton of up to cells states x letters, 0 states included:
    1-4 letters, sometimes one a copy of another (a shared class); each
    state gets 0, 1 or 2 successors per letter, so some states have none
    and some rows are nondeterministic, or, with det, at most one and
    one initial state."""
    alphabet = rng.randint(1, 4)
    n = rng.choice((0, rng.randint(1, 8), rng.randint(0, cells // alphabet)))
    counts = (0, 1, 1) if det else (0, 1, 1, 2)
    trips = [(p, a, rng.randrange(n)) for p in range(n) for a in range(alphabet)
             for _ in range(rng.choice(counts))]
    if alphabet > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(alphabet), 2)
        trips = [t for t in trips if t[1] != dst] + [(p, dst, q) for p, a, q in trips if a == src]
    if not n:
        initial = []
    elif det:
        initial = [rng.randrange(n)]
    else:
        initial = rng.sample(range(n), rng.randint(1, min(n, 3)))
    return BuchiNfa(n, alphabet, trips, initial, rng.sample(range(n), rng.randint(0, n)))


def _weakened(rng, A):
    """A with acceptance made constant on each strongly connected component."""
    edges: dict[int, list[int]] = {}
    for p, _, q in A.transitions:
        edges.setdefault(p, []).append(q)
    comp = scc_index(A.state_count, edges)
    flag = [rng.random() < 0.5 for _ in range(max(comp, default=-1) + 1)]
    accepting = [s for s in range(A.state_count) if flag[comp[s]]]
    return BuchiNfa(A.state_count, A.alphabet_size, A.transitions, A.initial, accepting)


def _marked(A):
    """A with its determinism computed and kept on it."""
    is_deterministic(A)
    return A


def _on_both_routes(monkeypatch, build, A):
    """build on a fresh copy of A with the switch at 0, where every route
    takes arrays, and past every size here, where every route is Python.
    The results are equal, with the same marks, and each stores true
    facts about itself."""
    results = []
    for crossover in (0, 10**9):
        with monkeypatch.context() as m:
            m.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
            results.append(build(_fresh(A)))
    arrays, python = results
    assert arrays == python, format_nfa(A)
    if isinstance(arrays, BuchiNfa):
        marks = [(R._det, R._weak, R._sim_order) for R in results]
        assert marks[0] == marks[1], format_nfa(A)
        for R in results:
            _assert_stored_facts(R)
    return python


def test_python_routes_match_array_routes(monkeypatch):
    # below the switch every route runs on Python rows and masks, from it on
    # on arrays; on the same seeded inputs, from 0 states to twice the
    # switch in cells, each pair of routes gives the same result.  _refine
    # and _read_off take arrays for deterministic inputs only, so on the
    # nondet cases their two runs compare the Python route with itself
    rng = random.Random(3201)
    limit = 2 * buchi._ARRAY_CROSSOVER
    seen = dict.fromkeys(
        ("shared", "no_successor", "nondet", "merged", "cut", "cut_det", "empty", "past_switch"), 0)
    for i in range(240):
        A = _route_case(rng, limit, det=i % 3 == 0)
        n = A.state_count
        seen["shared"] += len(A._class_rows) < A.alphabet_size
        seen["no_successor"] += any(not any(rows[p] for rows in A._class_rows) for p in range(n))
        seen["nondet"] += not is_deterministic(_fresh(A))
        seen["empty"] += n == 0
        seen["past_switch"] += buchi._on_arrays(n, len(A._class_rows))
        R = _on_both_routes(monkeypatch, buchi._refine, A)
        seen["merged"] += R.state_count < n
        # with the input's determinism known, as the table route knows it,
        # so that the read-off of a deterministic input is built from a
        # table on both routes
        T = _on_both_routes(monkeypatch, lambda X: buchi._trim(_marked(X)), A)
        seen["cut"] += T.state_count < n
        if T.state_count < n and is_deterministic(_fresh(A)):
            # unmarked, a cut deterministic input comes back marked all the
            # same on both routes, as _read_off asks its determinism
            seen["cut_det"] += 1
            for crossover in (0, 10**9):
                with monkeypatch.context() as m:
                    m.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
                    assert buchi._trim(_fresh(A))._det is True, format_nfa(A)
        if n * n <= limit:
            _on_both_routes(monkeypatch, lambda X: buchi._reduce(_marked(X)), A)
        if i % 3 == 0:
            W = _weakened(rng, A)
            if is_deterministic(W):
                _on_both_routes(monkeypatch, complement_flip, W)
                _on_both_routes(monkeypatch, complement_weak, W)
    assert min(seen.values()) >= 10, seen
    for alphabet in range(4):
        _on_both_routes(monkeypatch, lambda X: buchi._universal(X.alphabet_size),
                        empty_nfa(alphabet))


def test_python_relation_matches_array_relation(monkeypatch):
    # the relation and its restriction have states x states cells: from 0
    # states to twice the switch, the mask fixpoint gives the order the
    # packed bit matrices give, and so do the two restrictions
    rng = random.Random(3202)
    side = math.isqrt(2 * buchi._ARRAY_CROSSOVER)
    orders = restricted = past = 0
    for _ in range(300):
        A = _route_case(rng, 4 * side)
        if is_deterministic(A) or A.state_count > side:
            continue
        order = _on_both_routes(monkeypatch, buchi._simulation_order, A)
        orders += 1
        n = A.state_count
        past += buchi._on_arrays(n, n)
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        _on_both_routes(monkeypatch, lambda X: buchi._order_on(order, keep, n), A)
        restricted += len(keep) < n
        # complement_weak prunes by that order
        W = _weakened(rng, A)
        if W.state_count <= 8:
            _on_both_routes(monkeypatch, complement_weak, W)
    assert orders >= 100 and restricted >= 60 and past >= 10, (orders, restricted, past)


# -- text formats --------------------------------------------------------------


def test_format_parse_round_trip():
    rng = random.Random(431)
    for _ in range(100):
        A = random_buchi(rng, 4, 3)
        B = parse_nfa(format_nfa(A))
        assert A == B


def test_format_nfa_header():
    text = format_nfa(inf_ones())
    lines = text.splitlines()
    assert lines[0] == "nfa 2 2"
    assert any(line.startswith("initial") for line in lines)
    assert any(line.startswith("accepting") for line in lines)
    assert sum(line.startswith("trans ") for line in lines) == 4


def test_parse_nfa_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_nfa("buchi 2 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("nfa 2 1\ninitial 0\ninitial 1\n", "line 3: second 'initial' line, the first is line 2"),
        ("nfa 2 1\naccepting 0\n# note\naccepting 1\n", "line 4: second 'accepting' line"),
    ],
)
def test_parse_nfa_rejects_second_initial_or_accepting(text, message):
    with pytest.raises(ValueError, match="^" + message):
        parse_nfa(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("# only a comment\n\n", 3),
        ("buchi 2 2\n", 1),
        ("nfa x 2\n", 1),
        ("nfa -1 2\n", 1),
        ("nfa 2 2\n\ntrans 0 x 1\n", 3),
        ("nfa 2 2\ntrans 0 1\n", 2),
        ("nfa 2 2\ntrans 0 2 1\n", 2),
        ("nfa 2 2\ntrans 0 1 2\n", 2),
        ("nfa 2 2\ninitial 0 5\n", 2),
        ("nfa 2 2\ninitial 0\naccepting one\n", 3),
        ("nfa 2 2\nfinal 1\n", 2),
    ],
)
def test_parse_nfa_errors_name_the_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_nfa(text)


def test_letters_with_equal_rows_share_a_class():
    A = BuchiNfa(3, 5, [(0, 1, 1), (0, 3, 1), (2, 4, 0), (2, 4, 0)], [0], [])
    assert A._letter_class == (0, 1, 0, 1, 2)
    assert A._class_rows == (((), (), ()), ((1,), (), ()), ((), (), (0,)))


def test_header_alone_costs_little_memory():
    # rows are built per letter class, never per letter and state
    tracemalloc.start()
    try:
        A = parse_nfa("nfa 2000 1000\ninitial 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (A.state_count, A.alphabet_size, len(A._class_rows)) == (2000, 1000, 1)
    assert peak < 20 * 2**20


def test_dot_output_mentions_accepting_shape():
    dot = format_dot(inf_ones())
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
