"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with -rP (the default here) to see the ACCEPTANCE lines for passing
tests as well.
"""

import hashlib
import itertools
import random
import time

from s1sup.buchi import (
    BuchiNfa,
    exact_up_nfa,
    find_match,
    format_nfa,
    intersection,
    membership_up,
    trans,
    transa,
    union,
)
from s1sup.complement import Color, color_add, complement, gamma_word, rf_nfa
from s1sup.encodings import (
    _merge_machine,
    check_merge_encoding,
    exists_prefix_merge_nfa,
    merge0_nfa,
    never_merge_nfa,
)
from s1sup.logic import (
    encode_interp,
    interp_to_upword,
    models_full_up,
    models_up,
    models_up_direct,
    reduce_full,
    sat_full,
    sat_min,
    translate,
)
from s1sup.semigroup import (
    UpWord,
    col,
    idempotent_power,
    merges_up,
    new_semigroup,
    up_equiv,
)

from oracles import (
    merges_zero_often,
    naive_lasso_exists,
    random_buchi,
    random_full_formula,
    random_full_interp,
    random_min_formula,
    random_min_interp,
    random_semigroup,
    random_up_word,
    some_suffix_merges_often,
)

XY = ("X", "Y")
TRIV = new_semigroup(1, [[0]])
LP = new_semigroup(2, [[0, 0], [1, 1]])
Z2 = new_semigroup(2, [[0, 1], [1, 0]])
Z3 = new_semigroup(3, [[(a + b) % 3 for b in range(3)] for a in range(3)])
# sha256 of format_nfa of Z3's merge compile (test 09)
Z3_MERGE_SHA256 = "f8a8a01beb51ac12be18fb9538b27308dc5d3c8402584a73e3876b09dcc6bb04"


def report(n, label, ok, details):
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} - {details}")


def test_01_complement_law():
    rng = random.Random(101)
    automata = 200
    words_each = 50
    violations = 0
    start = time.perf_counter()
    for _ in range(automata):
        A = random_buchi(rng, max_states=3, alphabet=2)
        C = complement(A)
        for _ in range(words_each):
            sigma = random_up_word(rng, A.alphabet_size, max_pre=3, max_per=3)
            if membership_up(A, sigma) == membership_up(C, sigma):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed <= 300
    report(
        1,
        "complement-law",
        ok,
        f"{automata} automata x {words_each} words, "
        f"{violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed <= 300


def test_02_color_homomorphism_and_associativity():
    rng = random.Random(102)
    pairs = triples = 1000
    bad = 0
    for _ in range(pairs):
        A = random_buchi(rng, max_states=4, alphabet=2)
        u = [rng.randrange(A.alphabet_size) for _ in range(rng.randint(1, 5))]
        v = [rng.randrange(A.alphabet_size) for _ in range(rng.randint(1, 5))]
        if gamma_word(A, u + v) != color_add(gamma_word(A, u), gamma_word(A, v)):
            bad += 1

    def rand_color(n):
        reach = tuple(rng.randrange(1 << n) for _ in range(n))
        return Color(reach, tuple(r & rng.randrange(1 << n) for r in reach))

    for _ in range(triples):
        n = rng.randint(1, 4)
        a, b, c = rand_color(n), rand_color(n), rand_color(n)
        if color_add(color_add(a, b), c) != color_add(a, color_add(b, c)):
            bad += 1
    report(
        2,
        "color-algebra",
        bad == 0,
        f"{pairs} word pairs + {triples} color triples, {bad} mismatches",
    )
    assert bad == 0


def test_03_match_solver_vs_enumeration():
    # all 2-state 2-letter automata: every transition subset and every
    # initial/accepting pattern
    cells = [(p, a, q) for p in range(2) for a in range(2) for q in range(2)]
    cases = bad = invalid = 0
    for mask in range(1 << len(cells)):
        ts = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        for initial in ([], [0], [1], [0, 1]):
            for accepting in ([], [0], [1], [0, 1]):
                A = BuchiNfa(2, 2, ts, initial, accepting)
                m = find_match(A)
                cases += 1
                if (m is not None) != naive_lasso_exists(A, limit=3):
                    bad += 1
                if m is not None and not _match_valid(A, m):
                    invalid += 1
    # sampled agreement above two states
    rng = random.Random(103)
    sampled = 300
    for _ in range(sampled):
        A = random_buchi(rng, max_states=3, alphabet=2)
        m = find_match(A)
        cases += 1
        if (m is not None) != naive_lasso_exists(A, limit=4):
            bad += 1
        if m is not None and not _match_valid(A, m):
            invalid += 1
    ok = bad == 0 and invalid == 0
    report(
        3,
        "match-solver",
        ok,
        f"{cases} automata ({cases - sampled} exhaustive), "
        f"{bad} disagreements, {invalid} invalid matches",
    )
    assert ok


def _match_valid(A: BuchiNfa, m) -> bool:
    if m.stem_path[0] not in A.initial:
        return False
    anchor = m.stem_path[-1]
    if m.loop_path[0] != anchor or m.loop_path[-1] != anchor:
        return False
    if not trans(A, m.stem_path[0], m.stem, anchor):
        return False
    if not trans(A, anchor, m.loop, anchor):
        return False
    if not transa(A, anchor, m.loop, anchor):
        return False
    return any(q in A.accepting for q in m.loop_path[:-1])


def test_04_boolean_operation_laws():
    rng = random.Random(104)
    trials = 500
    bad = 0
    for _ in range(trials):
        A = random_buchi(rng, max_states=3, alphabet=2)
        B = random_buchi(rng, max_states=3, alphabet=2)
        sigma = random_up_word(rng, 2)
        in_a, in_b = membership_up(A, sigma), membership_up(B, sigma)
        if membership_up(union(A, B), sigma) != (in_a or in_b):
            bad += 1
        if membership_up(intersection(A, B), sigma) != (in_a and in_b):
            bad += 1
    report(4, "boolean-laws", bad == 0, f"{trials} triples, {bad} violations")
    assert bad == 0


def test_05_exact_word_automaton():
    rng = random.Random(105)
    trials = 500
    bad = 0
    for t in range(trials):
        sigma = random_up_word(rng, 2)
        if t % 3 == 0:
            # pumped or rotated variant, guaranteed equivalent
            reps = rng.randint(1, 3)
            tau = UpWord(sigma.prefix + sigma.period, sigma.period * reps)
        else:
            tau = random_up_word(rng, 2)
        E = exact_up_nfa(sigma, 2)
        if membership_up(E, tau) != up_equiv(sigma, tau):
            bad += 1
    report(5, "exact-word", bad == 0, f"{trials} pairs, {bad} mismatches")
    assert bad == 0


def test_06_translation_matches_direct_evaluation():
    rng = random.Random(106)
    quantifier_free = 500
    bad = 0
    for _ in range(quantifier_free):
        phi = random_min_formula(rng, XY, rng.randint(0, 4), quantifiers=0)
        interp = random_min_interp(rng, XY)
        direct = models_up_direct(interp, phi)
        # model checking compiles only atoms, so the whole formula's
        # translation is compared on its own
        if models_up(interp, phi, XY) != direct:
            bad += 1
        if membership_up(translate(phi, XY), interp_to_upword(interp, XY)) != direct:
            bad += 1

    quantified = 100
    probes = 200
    sat_count = unsat_count = 0
    for _ in range(quantified):
        phi = random_min_formula(rng, XY, rng.randint(1, 4), quantifiers=2)
        found = sat_min(phi, XY)
        if found is not None:
            sat_count += 1
            if not models_up(found, phi, XY):
                bad += 1
        else:
            unsat_count += 1
            A = translate(phi, XY)
            for _ in range(probes):
                if membership_up(A, random_up_word(rng, 1 << len(XY))):
                    bad += 1
                    break
    ok = bad == 0
    report(
        6,
        "translation",
        ok,
        f"{quantifier_free} quantifier-free (checked and translated) + {quantified} quantified "
        f"({sat_count} sat, {unsat_count} unsat x {probes} probes), {bad} failures",
    )
    assert ok


def test_07_first_order_reduction():
    rng = random.Random(107)
    fo, so = ("x", "y"), ("X",)
    instances = 300
    bad = 0
    for _ in range(instances):
        phi = random_full_formula(rng, fo, so, rng.randint(1, 3), quantifiers=2)
        interp = random_full_interp(rng, fo, so)
        lhs = models_full_up(interp, phi, fo, so)
        reduced, variables = reduce_full(phi, fo, so)
        rhs = models_up(encode_interp(interp), reduced, variables)
        if lhs != rhs:
            bad += 1

    witnesses = 60
    found_count = 0
    decode_errors = 0
    for _ in range(witnesses):
        phi = random_full_formula(rng, fo, so, rng.randint(1, 3), quantifiers=2)
        try:
            found = sat_full(phi, fo, so)
        except Exception:
            decode_errors += 1
            continue
        if found is not None:
            found_count += 1
            if not models_full_up(found, phi, fo, so):
                bad += 1
    ok = bad == 0 and decode_errors == 0
    report(
        7,
        "first-order-reduction",
        ok,
        f"{instances} reduction identities + {witnesses} sat calls "
        f"({found_count} witnesses, {decode_errors} decode errors), {bad} failures",
    )
    assert ok


def test_08_factorization_automaton_total():
    rng = random.Random(108)
    groups = [TRIV, LP, Z2, Z3]
    while len(groups) < 8:
        g = random_semigroup(rng, max_size=3)
        if g.size <= 3:
            groups.append(g)
    words_each = 500
    rejected = 0
    for g in groups:
        rf = rf_nfa(g)
        for _ in range(words_each):
            if not membership_up(rf, random_up_word(rng, g.size)):
                rejected += 1
    report(
        8,
        "factorization-total",
        rejected == 0,
        f"{len(groups)} semigroups (sizes 1-3) x {words_each} words, "
        f"{rejected} rejected",
    )
    assert rejected == 0


def test_09_merging_corpus():
    rng = random.Random(109)
    bad = 0

    # dedicated automata against the brute force scans, exhaustively on
    # short words
    grid_words = 0
    for g in (TRIV, LP, Z2):
        parts = [
            p
            for n in (1, 2)
            for p in itertools.product(range(g.size), repeat=n)
        ]
        m0, nm, ep = merge0_nfa(g), never_merge_nfa(g), exists_prefix_merge_nfa(g)
        for pre, per in itertools.product(parts, parts):
            sigma = UpWord(pre, per)
            grid_words += 1
            often = merges_zero_often(g, sigma)
            if membership_up(m0, sigma) != often:
                bad += 1
            if membership_up(nm, sigma) != (not often):
                bad += 1
            if membership_up(ep, sigma) != some_suffix_merges_often(g, sigma):
                bad += 1

    total_accepts = 500
    rejected = 0
    for _ in range(total_accepts):
        g = rng.choice((TRIV, LP, Z2, Z3))
        if not membership_up(exists_prefix_merge_nfa(g), random_up_word(rng, g.size)):
            rejected += 1

    # formula route against the definitional check; Z3's compile is the
    # slowest and the largest, 13 states, and its format_nfa is pinned
    z3 = _merge_machine(Z3)[0]
    z3_states = z3.state_count
    z3_pinned = hashlib.sha256(format_nfa(z3).encode()).hexdigest() == Z3_MERGE_SHA256
    formula_checks = 0
    for g in (TRIV, LP, Z2, Z3):
        parts = [
            p
            for n in (1, 2)
            for p in itertools.product(range(g.size), repeat=n)
        ]
        for pre, per in itertools.product(parts, parts):
            sigma = UpWord(pre, per)
            for i in range(4):
                for j in range(4):
                    formula_checks += 1
                    if check_merge_encoding(g, sigma, i, j) != merges_up(
                        g, sigma, i, j
                    ):
                        bad += 1
    ok = bad == 0 and rejected == 0 and z3_states == 13 and z3_pinned
    report(
        9,
        "merging-corpus",
        ok,
        f"{grid_words} grid words x 3 automata, {total_accepts} totality probes "
        f"({rejected} rejected), {formula_checks} formula checks (Z3 compiled to "
        f"{z3_states} states, digest {'pinned' if z3_pinned else 'changed'}), {bad} mismatches",
    )
    assert ok


def test_10_idempotent_power_bound():
    rng = random.Random(110)
    tables = 300
    checked = bad = 0
    for _ in range(tables):
        g = random_semigroup(rng, max_size=4)
        for a in range(g.size):
            k = idempotent_power(g, a)
            checked += 1
            if not (1 <= k <= g.size):
                bad += 1
            if col(g, [a] * (2 * k)) != col(g, [a] * k):
                bad += 1
    report(
        10,
        "idempotent-bound",
        bad == 0,
        f"{tables} semigroups, {checked} elements, {bad} violations",
    )
    assert bad == 0
