import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_kinds_complement,
    factorization_exists,
    naive_membership_up,
    random_buchi,
    random_up_word,
    scc_index,
)
from s1sup.buchi import (
    BuchiNfa,
    find_match,
    format_dot,
    format_nfa,
    intersection,
    is_satisfiable,
    is_weak,
    match_for_up,
    membership_up,
    trans,
)
from s1sup.complement import (
    BudgetExceeded,
    Color,
    ComplementStats,
    DimensionMismatch,
    color_add,
    color_nfa,
    compatible,
    complement,
    complement_with_stats,
    gamma_letter,
    gamma_word,
    kind_nfa,
    kind_nfa_semigroup,
    realizable_colors,
    rf_nfa,
)
from s1sup.semigroup import UpWord, col, new_semigroup

LP = new_semigroup(2, [[0, 0], [1, 1]])


def loop_one(accepting=True):
    return BuchiNfa(1, 1, [(0, 0, 0)], [0], [0] if accepting else [])


def inf_ones():
    return BuchiNfa(
        2, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], [0], [1]
    )


def universal(alphabet=2):
    return BuchiNfa(1, alphabet, [(0, a, 0) for a in range(alphabet)], [0], [0])


def random_color(rng, n):
    reach = tuple(rng.randrange(1 << n) for _ in range(n))
    reach_acc = tuple(r & rng.randrange(1 << n) for r in reach)
    return Color(reach, reach_acc)


# -- colors -------------------------------------------------------------------


def test_gamma_letter_accepting_loop():
    c = gamma_letter(loop_one(), 0)
    assert c == Color((1,), (1,))


def test_gamma_letter_nonaccepting_source():
    c = gamma_letter(loop_one(accepting=False), 0)
    assert c == Color((1,), (0,))


def test_gamma_word_folds_letters():
    A = inf_ones()
    for w in ([0, 0], [1, 1], [0, 1]):
        assert gamma_word(A, w) == color_add(
            gamma_letter(A, w[0]), gamma_letter(A, w[1])
        )


def test_gamma_word_rejects_empty():
    with pytest.raises(ValueError):
        gamma_word(inf_ones(), [])


def test_gamma_homomorphism_random():
    rng = random.Random(440)
    for _ in range(300):
        A = random_buchi(rng, 4, 2)
        u = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        v = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        assert gamma_word(A, u + v) == color_add(gamma_word(A, u), gamma_word(A, v))


def test_color_add_empty_absorbs():
    empty = Color((0, 0), (0, 0))
    other = Color((3, 1), (1, 0))
    assert color_add(empty, other) == empty
    assert color_add(other, empty) == Color((0, 0), (0, 0))


def test_color_add_identity_reach():
    ident = Color((1, 2), (0, 0))
    assert color_add(ident, ident).reach == (1, 2)


def test_color_add_associative_random():
    rng = random.Random(441)
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b, c = (random_color(rng, n) for _ in range(3))
        assert color_add(color_add(a, b), c) == color_add(a, color_add(b, c))


def test_color_add_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        color_add(Color((0,), (0,)), Color((0, 0), (0, 0)))


# -- realizable color closure ---------------------------------------------------


def test_realizable_colors_idempotent_loop():
    assert len(realizable_colors(loop_one())) == 1


def test_realizable_colors_no_transitions():
    A = BuchiNfa(1, 1, [], [0], [0])
    cs = realizable_colors(A)
    assert cs == [Color((0,), (0,))]


def test_realizable_colors_small_automata_bounded():
    rng = random.Random(442)
    worst = 0
    for _ in range(200):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        worst = max(worst, len(cs))
        assert len(set(cs)) == len(cs)
    assert worst <= 512


def test_realizable_colors_budget():
    A = inf_ones()
    with pytest.raises(BudgetExceeded):
        realizable_colors(A, max_colors=1)


# -- color tracking automaton ----------------------------------------------------


def test_color_nfa_tracks_col():
    rng = random.Random(443)
    for _ in range(40):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        c = rng.choice(cs)
        C = color_nfa(A, c)
        (acc,) = C.accepting
        for _ in range(8):
            w = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
            assert trans(C, 0, w, acc) == (gamma_word(A, w) == c)


def test_color_nfa_start_has_no_incoming():
    A = inf_ones()
    C = color_nfa(A, realizable_colors(A)[0])
    assert all(q != 0 for _, _, q in C.transitions)


# -- kind automata over a semigroup -----------------------------------------------


def test_kind_semigroup_accepts_block_factorization():
    rng = random.Random(444)
    for _ in range(100):
        g = new_semigroup(3, [[(a + b) % 3 for b in range(3)] for a in range(3)])
        w = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
        v = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
        K = kind_nfa_semigroup(g, (col(g, w), col(g, v)))
        assert membership_up(K, UpWord(tuple(w), tuple(v)))


def test_kind_semigroup_rejects_unreachable_color():
    # constant 0s only ever produce color 0 under left projection
    K = kind_nfa_semigroup(LP, (0, 1))
    assert not membership_up(K, UpWord((0,), (0,)))


def test_kind_semigroup_matches_factorization_oracle():
    rng = random.Random(445)
    for _ in range(60):
        g = LP if rng.random() < 0.5 else new_semigroup(
            2, [[(a + b) % 2 for b in range(2)] for a in range(2)]
        )
        c, d = rng.randrange(g.size), rng.randrange(g.size)
        K = kind_nfa_semigroup(g, (c, d))
        sigma = random_up_word(rng, g.size)
        want = factorization_exists(lambda ws: col(g, ws), c, d, sigma, 4)
        assert membership_up(K, sigma) == want


def test_kind_semigroup_shape():
    K = kind_nfa_semigroup(LP, (0, 0))
    assert K.state_count == 2 + 2 * LP.size
    with pytest.raises(ValueError):
        kind_nfa_semigroup(LP, (0, 5))


# -- Ramseyan factorization automaton ----------------------------------------------


def test_rf_nfa_accepts_everything():
    rng = random.Random(446)
    for size in (1, 2, 3):
        table = [[(a + b) % size for b in range(size)] for a in range(size)]
        for g in (new_semigroup(size, table), LP if size == 2 else None):
            if g is None:
                continue
            R = rf_nfa(g)
            assert R.state_count == g.size**2 * (2 + 2 * g.size)
            for _ in range(60):
                assert membership_up(R, random_up_word(rng, g.size))


def test_rf_nfa_idempotent_constant():
    R = rf_nfa(LP)
    for e in range(2):
        assert membership_up(R, UpWord((e,), (e,)))


# -- kind automata over an NFA ------------------------------------------------------


def test_kind_nfa_accepts_own_kind():
    rng = random.Random(447)
    for _ in range(150):
        A = random_buchi(rng, 3, 2)
        sigma = random_up_word(rng, 2)
        x, y = list(sigma.prefix), list(sigma.period)
        K = kind_nfa(A, (gamma_word(A, x), gamma_word(A, y)))
        assert membership_up(K, sigma)
        K2 = kind_nfa(A, (gamma_word(A, x), gamma_word(A, y + y)))
        assert membership_up(K2, sigma)


def test_kind_nfa_matches_factorization_oracle():
    rng = random.Random(448)
    agree_reject = 0
    for _ in range(80):
        A = random_buchi(rng, 2, 2)
        cs = realizable_colors(A)
        v, w = rng.choice(cs), rng.choice(cs)
        K = kind_nfa(A, (v, w))
        sigma = random_up_word(rng, 2)
        want = factorization_exists(lambda ws: gamma_word(A, ws), v, w, sigma, 4)
        assert membership_up(K, sigma) == want
        if not want:
            agree_reject += 1
    assert agree_reject > 10


def test_kind_nfa_unrealizable_color_accepts_nothing():
    rng = random.Random(450)
    checked = 0
    for _ in range(60):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        z = random_color(rng, A.state_count)
        if z in cs:
            continue
        checked += 1
        for kind in ((z, rng.choice(cs)), (rng.choice(cs), z)):
            assert find_match(kind_nfa(A, kind)) is None
    assert checked > 20


def test_colors_over_the_wrong_state_count_are_rejected():
    A = inf_ones()
    one_state = Color((1,), (0,))
    two_state = gamma_letter(A, 0)
    for kind in ((one_state, one_state), (one_state, two_state), (two_state, one_state)):
        with pytest.raises(DimensionMismatch):
            kind_nfa(A, kind)
        with pytest.raises(DimensionMismatch):
            compatible(A, kind)
    with pytest.raises(DimensionMismatch):
        color_nfa(A, one_state)


def test_kind_soundness_on_up_probes():
    rng = random.Random(449)
    for _ in range(150):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        v, w = rng.choice(cs), rng.choice(cs)
        if not compatible(A, (v, w)):
            continue
        sigma = random_up_word(rng, 2)
        if membership_up(kind_nfa(A, (v, w)), sigma):
            assert membership_up(A, sigma)


# -- compatibility -------------------------------------------------------------------


def test_compatible_universal_and_empty():
    U = universal()
    for v in realizable_colors(U):
        for w in realizable_colors(U):
            assert compatible(U, (v, w))
    E = BuchiNfa(2, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], [0], [])
    for v in realizable_colors(E):
        for w in realizable_colors(E):
            assert not compatible(E, (v, w))


def test_compatible_inf_ones_zero_kind():
    A = inf_ones()
    z = gamma_word(A, [0])
    assert not compatible(A, (z, z))


def compatible_cases():
    """(A, kind) pairs: 250 automata of up to 3 states, then 100 of 4-5
    states, whose masks span more bits, every fifth without an initial
    state, so that the start of the search is empty."""
    rng = random.Random(450)
    for _ in range(250):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        yield A, (rng.choice(cs), rng.choice(cs))
    rng = random.Random(451)
    for k in range(100):
        A = random_buchi(rng, 5, 2)
        while A.state_count < 4:
            A = random_buchi(rng, 5, 2)
        if k % 5 == 0:
            A = BuchiNfa(A.state_count, 2, A.transitions, [], A.accepting)
        cs = realizable_colors(A)
        yield A, (rng.choice(cs), rng.choice(cs))


def test_compatible_equals_product_emptiness():
    # the fast relational check must agree with the defining construction
    verdicts = []
    for A, kind in compatible_cases():
        via_product = is_satisfiable(intersection(kind_nfa(A, kind), A))
        assert compatible(A, kind) == via_product
        verdicts.append(via_product)
    assert 0 < sum(verdicts) < len(verdicts)


# -- complement ------------------------------------------------------------------------


def test_complement_of_empty_accepting():
    E = BuchiNfa(1, 2, [(0, 0, 0), (0, 1, 0)], [0], [])
    C = complement(E)
    rng = random.Random(451)
    for _ in range(50):
        assert membership_up(C, random_up_word(rng, 2))


def test_complement_of_universal():
    C = complement(universal())
    rng = random.Random(452)
    for _ in range(50):
        assert not membership_up(C, random_up_word(rng, 2))


def test_complement_inf_ones():
    C = complement(inf_ones())
    assert membership_up(C, UpWord((1,), (0,)))
    assert not membership_up(C, UpWord((0,), (1,)))


def test_complement_exactly_one_random():
    rng = random.Random(453)
    for _ in range(60):
        A = random_buchi(rng, 3, 2)
        C = complement(A)
        for _ in range(5):
            sigma = random_up_word(rng, 2)
            assert membership_up(A, sigma) != membership_up(C, sigma)
            assert naive_membership_up(A, sigma) != naive_membership_up(C, sigma)


def test_complement_stats():
    A = inf_ones()
    C, stats = complement_with_stats(A)
    assert isinstance(stats, ComplementStats)
    assert stats.kinds == stats.colors**2
    assert 0 < stats.incompatible <= stats.kinds
    assert 0 < stats.blocks <= stats.proper <= stats.kinds
    # the shared V tracker and every W block have 1 + colors states each
    assert C.state_count == (1 + stats.colors) * (1 + stats.blocks)


def test_complement_budget_propagates():
    with pytest.raises(BudgetExceeded):
        complement(inf_ones(), max_colors=1)


@functools.cache
def complement_law_sample() -> tuple[BuchiNfa, ...]:
    """The 200 automata of test_01_complement_law, drawn from its seed in its
    order (50 words after each)."""
    rng = random.Random(101)
    out = []
    for _ in range(200):
        out.append(random_buchi(rng, max_states=3, alphabet=2))
        for _ in range(50):
            random_up_word(rng, 2, max_pre=3, max_per=3)
    return tuple(out)


def test_early_exit_verdicts_equal_full_pass_verdicts():
    # membership_up, is_weak and compatible stop their SCC pass once they
    # know the answer; each is checked against a verdict read off a full
    # pass: match_for_up's anchors, and Kosaraju components (scc_index)
    rng = random.Random(1516)
    seen = set()

    def full_is_weak(X):
        edges = {p: set() for p in range(X.state_count)}
        for rows in X._class_rows:
            for p, row in enumerate(rows):
                edges[p].update(row)
        comp = scc_index(X.state_count, edges)
        return all(
            (p in X.accepting) == (q in X.accepting)
            for p in edges
            for q in edges[p]
            if comp[p] == comp[q]
        )

    def bits(mask):
        return [q for q, c in enumerate(reversed(bin(mask))) if c == "1"]

    def full_compatible(X, v, w):
        start = 0
        for p in X.initial:
            start |= v.reach[p]
        edges = {p: bits(mask) for p, mask in enumerate(w.reach)}
        comp = scc_index(X.state_count, edges)
        reach = set(bits(start))
        todo = list(reach)
        while todo:
            for q in edges[todo.pop()]:
                if q not in reach:
                    reach.add(q)
                    todo.append(q)
        return any(
            w.reach_acc[p] >> q & 1 and comp[p] == comp[q] for p in reach for q in edges[p]
        )

    for A in complement_law_sample():
        C = complement(A)
        for X in (A, C, intersection(A, C)):
            assert is_weak(X) == full_is_weak(X)
            for _ in range(3):
                sigma = random_up_word(rng, 2)
                verdict = membership_up(X, sigma)
                assert verdict == (match_for_up(X, sigma) is not None)
                v, w = (gamma_word(X, random_up_word(rng, 2).period) for _ in range(2))
                fits = compatible(X, (v, w))
                assert fits == full_compatible(X, v, w)
                seen.add(("member", verdict))
                seen.add(("compatible", fits))
            seen.add(("weak", is_weak(X)))
    assert len(seen) == 6


def test_text_formats_equal_their_rendering_of_sorted_transitions():
    # the formats read the class rows; the reference renders the cached
    # transition set, as both formats once did
    def nfa_reference(A):
        lines = [
            f"nfa {A.state_count} {A.alphabet_size}",
            "initial " + " ".join(map(str, sorted(A.initial))),
            "accepting " + " ".join(map(str, sorted(A.accepting))),
        ] + [f"trans {p} {a} {q}" for p, a, q in sorted(A.transitions)]
        return "\n".join(line.rstrip() for line in lines) + "\n"

    def dot_edges_reference(A):
        by_edge = {}
        for p, a, q in sorted(A.transitions):
            by_edge.setdefault((p, q), []).append(str(a))
        return [
            f'  s{p} -> s{q} [label="{",".join(letters)}"];'
            for (p, q), letters in sorted(by_edge.items())
        ]

    for A in complement_law_sample():
        for B in (A, complement(A)):
            assert format_nfa(B) == nfa_reference(B)
            lines = format_dot(B).splitlines()
            edges = [line for line in lines if re.match(r"  s\d+ -> ", line)]
            assert edges == dot_edges_reference(B)


def test_complement_stats_count_proper_kinds_by_color_add():
    rng = random.Random(454)
    for _ in range(60):
        A = random_buchi(rng, 3, 2)
        cs = realizable_colors(A)
        idempotent = [w for w in cs if color_add(w, w) == w]
        proper = [(v, w) for w in idempotent for v in cs if color_add(v, w) == v]
        blocks = {w for v, w in proper if not compatible(A, (v, w))}
        _, stats = complement_with_stats(A)
        assert (stats.proper, stats.blocks) == (len(proper), len(blocks))
        incompatible = sum(not compatible(A, (v, w)) for v in cs for w in cs)
        assert (stats.colors, stats.kinds, stats.incompatible) == (
            len(cs),
            len(cs) ** 2,
            incompatible,
        )


def test_complement_agrees_with_all_kinds_oracle():
    rng = random.Random(455)
    for A in complement_law_sample():
        C, O = complement(A), all_kinds_complement(A)
        assert (find_match(C) is None) == (find_match(O) is None)
        for _ in range(10):
            sigma = random_up_word(rng, 2)
            assert membership_up(C, sigma) == membership_up(O, sigma)


def test_complement_size_of_heaviest_sample_automaton():
    # all 4489 kinds of this automaton are incompatible, so a block per
    # incompatible kind would take 610,504 states
    C, stats = complement_with_stats(complement_law_sample()[189])
    assert stats.colors == 67
    assert C.state_count <= 5000


@st.composite
def small_buchi(draw):
    n = draw(st.integers(1, 3))
    alphabet = draw(st.integers(1, 2))
    states = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(states, st.integers(0, alphabet - 1), states)))
    initial = draw(st.lists(states, min_size=1))
    accepting = draw(st.lists(states))
    return BuchiNfa(n, alphabet, transitions, initial, accepting)


@st.composite
def automaton_and_word(draw):
    A = draw(small_buchi())
    letters = st.lists(st.integers(0, A.alphabet_size - 1), min_size=1, max_size=4)
    return A, UpWord(tuple(draw(letters)), tuple(draw(letters)))


@settings(max_examples=300, deadline=None)
@given(automaton_and_word())
def test_complement_exactly_one_accepts_property(case):
    A, sigma = case
    assert naive_membership_up(A, sigma) != membership_up(complement(A), sigma)
