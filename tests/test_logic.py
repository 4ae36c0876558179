import dataclasses
import hashlib
import itertools
import random
import sys

import pytest

from oracles import (
    naive_membership_up,
    naive_models_full,
    random_bit_word,
    random_full_formula,
    random_full_interp,
    random_min_formula,
    random_min_interp,
    random_up_word,
)
from s1sup.logic import (
    And,
    Ex2,
    FoAnd,
    FoEx1,
    FoEx2,
    FoIn,
    FoLess,
    FoNot,
    Incl,
    Less,
    NonSingletonWitness,
    Not,
    UnassignedVariable,
    UnknownVariable,
    UpInterpretation,
    atom_incl_nfa,
    atom_less_nfa,
    decode_number,
    encode_interp,
    ex2_witness,
    free_full,
    free_min,
    interp_to_upword,
    models_full_up,
    models_up,
    models_up_direct,
    number_word,
    reduce_full,
    sat_full,
    sat_min,
    sing,
    translate,
    upword_to_interp,
)
from s1sup import buchi, logic
from s1sup.buchi import BuchiNfa, format_nfa, membership_up
from s1sup.complement import complement
from s1sup.encodings import MERGE_FIRST_ORDER, _merge_machine, merge_second_order, phi_merge
from s1sup.semigroup import UpWord, new_semigroup, up_at, up_equiv
from s1sup.syntax import parse_formula

XY = ("X", "Y")


def bits(pre, per):
    return UpWord(tuple(int(b) for b in pre), tuple(int(b) for b in per))


# -- interpretation packing ----------------------------------------------------


def test_pack_all_false():
    word = interp_to_upword(UpInterpretation(), XY)
    assert word == UpWord((0,), (0,))


def test_pack_singleton_at_zero():
    interp = UpInterpretation(sets={"X": bits("1", "0")})
    assert interp_to_upword(interp, ("X",)) == UpWord((1,), (0,))


def test_pack_alignment():
    interp = UpInterpretation(
        sets={"X": bits("1", "0"), "Y": bits("0", "01")}
    )
    word = interp_to_upword(interp, XY)
    assert len(word.prefix) == 1
    assert len(word.period) == 2


def test_pack_unpack_round_trip():
    rng = random.Random(460)
    for _ in range(200):
        interp = random_min_interp(rng, XY)
        word = interp_to_upword(interp, XY)
        back = upword_to_interp(word, XY)
        for v in XY:
            assert up_equiv(back.sets[v], interp.sets[v])


def test_pack_rejects_undeclared_and_numbers():
    with pytest.raises(UnknownVariable):
        interp_to_upword(UpInterpretation(sets={"Z": bits("1", "0")}), XY)
    with pytest.raises(ValueError):
        interp_to_upword(UpInterpretation(nums={"x": 1}), XY)


# -- atom automata ---------------------------------------------------------------


def check(phi, interp):
    return models_up(interp, phi, XY)


def test_incl_atom():
    A = atom_incl_nfa(XY, "X", "Y")
    inside = interp_to_upword(
        UpInterpretation(sets={"X": bits("0", "1"), "Y": bits("1", "1")}), XY
    )
    outside = interp_to_upword(
        UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("0", "0")}), XY
    )
    assert membership_up(A, inside)
    assert not membership_up(A, outside)


def test_less_atom():
    good = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("01", "0")})
    assert check(Less("X", "Y"), good)
    same_spot = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("1", "0")})
    assert not check(Less("X", "Y"), same_spot)


def test_atom_unknown_variable():
    with pytest.raises(UnknownVariable):
        atom_less_nfa(XY, "X", "Z")
    with pytest.raises(UnknownVariable):
        atom_incl_nfa(XY, "Q", "Y")


def _atom_from_transitions(variables, left, right, less):
    # the construction from transition triples over every letter, as a
    # reference for the atoms built from letter classes
    k = len(variables)
    bl, br = 1 << variables.index(left), 1 << variables.index(right)
    if not less:
        loops = [(0, a, 0) for a in range(1 << k) if not (a & bl and not a & br)]
        return BuchiNfa(1, 1 << k, loops, [0], [0])
    trips = []
    for a in range(1 << k):
        # the first left position moves 0 -> 1, and the first right
        # position after it moves 1 -> 2
        trips += [(0, a, 1 if a & bl else 0), (1, a, 2 if a & br else 1), (2, a, 2)]
    return BuchiNfa(3, 1 << k, trips, [0], [2])


def _less_guessing_nfa(variables, left, right):
    # the guessing automaton for the ordering atom: it guesses a left
    # position and a later right position; a language reference for the
    # deterministic atom
    k = len(variables)
    bl, br = 1 << variables.index(left), 1 << variables.index(right)
    trips = []
    for a in range(1 << k):
        trips += [(0, a, 0), (1, a, 1), (2, a, 2)]
        if a & bl:
            trips.append((0, a, 1))
        if a & br:
            trips.append((1, a, 2))
    return BuchiNfa(3, 1 << k, trips, [0], [2])


def test_atoms_from_letter_classes_equal_transition_construction():
    for k in range(1, 12):
        names = tuple(f"V{i}" for i in range(k))
        for left in names:
            for right in names:
                assert atom_incl_nfa(names, left, right) == _atom_from_transitions(
                    names, left, right, less=False
                ), (k, left, right)
                assert atom_less_nfa(names, left, right) == _atom_from_transitions(
                    names, left, right, less=True
                ), (k, left, right)


def _less_holds(sigma, bl, br):
    # some left position has a strictly later right position; past the
    # prefix one period repeats, so two periods decide it
    n = len(sigma.prefix) + 2 * len(sigma.period)
    letters = [up_at(sigma, i) for i in range(n)]
    return any(
        a & bl and any(b & br for b in letters[i + 1 :]) for i, a in enumerate(letters)
    )


def _words(alphabet):
    # every word with a prefix and a period of length 1 or 2
    parts = [w for n in (1, 2) for w in itertools.product(range(alphabet), repeat=n)]
    return [UpWord(u, v) for u in parts for v in parts]


def test_less_atom_is_deterministic_weak_and_accepts_the_guessing_language():
    rng = random.Random(1400)
    for k in (1, 2, 3):
        names = tuple(f"V{i}" for i in range(k))
        words = _words(1 << k)
        if k == 3:
            words = rng.sample(words, 600)
        for left in names:
            for right in names:
                A = atom_less_nfa(names, left, right)
                assert buchi.is_deterministic(A) and buchi.is_weak(A)
                G = _less_guessing_nfa(names, left, right)
                bl, br = 1 << names.index(left), 1 << names.index(right)
                for sigma in words:
                    want = _less_holds(sigma, bl, br)
                    assert naive_membership_up(G, sigma) == want, (left, right, sigma)
                    assert naive_membership_up(A, sigma) == want, (left, right, sigma)
                    assert membership_up(A, sigma) == want, (left, right, sigma)


def test_products_with_the_less_atom_take_moore_refinement(monkeypatch):
    # the atom is deterministic, so conjunctions and negations over it stay
    # deterministic and buchi._reduce never builds the simulation relation
    calls = []
    relation = buchi._relation
    monkeypatch.setattr(buchi, "_relation", lambda A: calls.append(A) or relation(A))
    XYZ = ("X", "Y", "Z")
    phi = Not(And(Less("X", "Y"), Not(And(Less("Y", "Z"), Incl("X", "Z")))))
    A = translate(phi, XYZ)
    assert calls == []
    assert buchi.is_deterministic(A)


def test_weak_complements_of_the_lp_compile_reuse_the_relation(monkeypatch):
    # every operand of complement_weak comes out of buchi._reduce, whose last
    # _sim_reduce left the relation on it, so none is built inside
    relation, weak = buchi._relation, buchi.complement_weak
    operands, inside, built_inside = [], [], []

    def complement_weak(A):
        operands.append(A)
        inside.append(A)
        try:
            return weak(A)
        finally:
            inside.pop()

    def recorded_relation(A):
        if inside:
            built_inside.append(A)
        return relation(A)

    monkeypatch.setattr(buchi, "complement_weak", complement_weak)
    monkeypatch.setattr(buchi, "_relation", recorded_relation)
    lp = new_semigroup(2, [[0, 0], [1, 1]])
    translate(*reduce_full(phi_merge(lp), MERGE_FIRST_ORDER, merge_second_order(lp)))
    # nondeterministic operands within the limit: each one was pruned; a
    # negation that renames an earlier one is not compiled again
    assert len(operands) == 3 and built_inside == []
    assert all(
        not buchi.is_deterministic(A) and A.state_count <= buchi._SIM_LIMIT for A in operands
    )


# -- translation ------------------------------------------------------------------


def _renamed(phi, pi):
    """phi with every name n, bound or free, replaced by pi[n]."""
    def step(node, names, args):
        return type(node)(*map(pi.get, names), *args)

    return logic._fold(phi, "minimal", step)


# two nodes of one type whose subformulas have equal shapes, wired to the
# node's variables in different orders, so the nodes' shapes differ
WIRINGS = tuple(
    And(And(atom("X", "Y"), atom("Y", "X")), Not(And(atom("X", "Y"), atom("X", "Z"))))
    for atom in (Less, Incl)
)

# quantified formulas whose automata stay nondeterministic after reduction
NONDETERMINISTIC = (
    Ex2("X", And(Less("X", "X"), Not(Less("X", "Y")))),
    Ex2("Z", And(And(Incl("Z", "X"), Less("Z", "Y")), Not(Less("Z", "X")))),
)


def test_renamed_copies_share_one_compile_and_keep_their_language(monkeypatch):
    # a subformula that renames an earlier one is not compiled again: it
    # takes the earlier automaton relabelled, which keeps its simulation
    # order, so complementing it builds no relation
    rng = random.Random(487)
    names = ("X", "Y", "Z", "W")
    relabel, relation, weak = buchi._relabel, buchi._relation, buchi.complement_weak
    relabelled, related, complemented, compiles = [], [], [], []

    def recorded_relabel(A, letters):
        relabelled.append(relabel(A, letters))
        return relabelled[-1]

    def recorded_relation(A):
        related.append(A)
        return relation(A)

    def recorded_weak(A):
        complemented.append(A)
        return weak(A)

    def counted(*args, _fn=logic._conjoin):
        compiles.append(args)
        return _fn(*args)

    monkeypatch.setattr(buchi, "_relabel", recorded_relabel)
    monkeypatch.setattr(buchi, "_relation", recorded_relation)
    monkeypatch.setattr(buchi, "complement_weak", recorded_weak)
    monkeypatch.setattr(logic, "_conjoin", counted)

    def accepts(A, interp):
        return membership_up(A, interp_to_upword(interp, names))

    # quantifier free: against the definitions, and one more product than
    # phi alone needs, the top one
    for phi in [*WIRINGS, *(random_min_formula(rng, names, 3) for _ in range(60))]:
        pi = dict(zip(names, rng.sample(names, len(names))))
        psi = And(phi, _renamed(phi, pi))
        translate(phi, names)
        alone = len(compiles)
        A = translate(psi, names)
        assert len(compiles) == 2 * alone + 1
        compiles.clear()
        for _ in range(10):
            interp = random_min_interp(rng, names)
            assert accepts(A, interp) == models_up_direct(interp, psi)

    # quantified: the renamed copy means phi read under the renamed
    # interpretation, phi compiled on its own; every third phi renames one
    # whose automaton stays nondeterministic, so that its negation takes
    # complement_weak
    for i in range(60):
        if i % 3:
            phi = Ex2(rng.choice(names), random_min_formula(rng, names, 3, quantifiers=1))
        else:
            phi = _renamed(rng.choice(NONDETERMINISTIC), dict(zip(names, rng.sample(names, 4))))
        pi = dict(zip(names, rng.sample(names, len(names))))
        A, P = translate(And(phi, Not(_renamed(phi, pi))), names), translate(phi, names)
        for _ in range(10):
            interp = random_min_interp(rng, names)
            moved = UpInterpretation(sets={v: interp.sets[pi[v]] for v in names})
            assert accepts(A, interp) == (accepts(P, interp) and not accepts(P, moved))
    relabelled_complemented = [A for A in complemented if any(A is R for R in relabelled)]
    relabelled_related = [A for A in related if any(A is R for R in relabelled)]
    assert len(relabelled_complemented) >= 10 and relabelled_related == []


def test_translate_tautology():
    rng = random.Random(461)
    A = translate(Incl("X", "X"), XY)
    for _ in range(40):
        interp = random_min_interp(rng, XY)
        assert membership_up(A, interp_to_upword(interp, XY))


def test_translate_contradiction():
    rng = random.Random(462)
    A = translate(Not(Incl("X", "X")), XY)
    for _ in range(40):
        interp = random_min_interp(rng, XY)
        assert not membership_up(A, interp_to_upword(interp, XY))


def test_translate_exists_larger_iff_nonempty():
    rng = random.Random(463)
    phi = Ex2("Y", Less("X", "Y"))
    for _ in range(80):
        x = random_bit_word(rng)
        interp = UpInterpretation(sets={"X": x, "Y": random_bit_word(rng)})
        nonempty = any(x.prefix) or any(x.period)
        assert check(phi, interp) == nonempty


def test_models_up_conjunction_of_tautologies():
    rng = random.Random(464)
    phi = And(Incl("X", "X"), Incl("Y", "Y"))
    for _ in range(30):
        assert check(phi, random_min_interp(rng, XY))


def test_models_up_less_example():
    interp = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("0", "1")})
    assert check(Less("X", "Y"), interp)


def test_models_up_unassigned():
    with pytest.raises(UnassignedVariable):
        models_up(UpInterpretation(), Less("X", "Y"), XY)


def test_negation_classical():
    rng = random.Random(465)
    for _ in range(60):
        phi = random_min_formula(rng, XY, depth=2)
        interp = random_min_interp(rng, XY)
        assert check(Not(phi), interp) == (not check(phi, interp))
        assert check(Not(Not(phi)), interp) == check(phi, interp)


def test_automata_vs_direct_evaluator():
    rng = random.Random(466)
    names = ("X", "Y", "Z")
    for _ in range(300):
        phi = random_min_formula(rng, names, depth=rng.randint(0, 4))
        interp = random_min_interp(rng, names)
        assert models_up(interp, phi, names) == models_up_direct(interp, phi)


def test_translate_answers_on_deep_formulas():
    # far deeper than the interpreter's recursion limit; built by loops
    rng = random.Random(467)
    words = [interp_to_upword(random_min_interp(rng, XY), XY) for _ in range(60)]

    def verdicts(phi):
        A = translate(phi, XY)
        return [membership_up(A, w) for w in words]

    atom = Less("X", "Y")
    chain = atom
    for _ in range(3000):
        chain = Not(chain)
    assert verdicts(chain) == verdicts(atom)
    parts = [Incl("X", "Y"), Less("X", "Y"), Not(Less("Y", "X"))]
    conj = parts[0]
    for i in range(1, 1200):
        conj = And(parts[i % 3], conj)
    assert verdicts(conj) == verdicts(And(parts[0], And(parts[1], parts[2])))


def test_formula_walks_fold_each_shared_node_once():
    # 40 levels of And(f, f) share one node object per level: 41 objects,
    # but 2**40 paths to the atom, so every walk must fold objects, not paths
    # results are bound to names before each assert: on a failure pytest
    # prints the operands of the asserted calls, and printing such a
    # formula spells out every path
    phi, full = Incl("X", "Y"), FoIn("x", "X")
    for _ in range(40):
        phi, full = And(phi, phi), FoAnd(full, full)
    free = free_min(phi)
    assert free == {"X", "Y"}
    found = sat_min(phi, XY)
    holds = found is not None and models_up(found, phi, XY)
    assert holds
    bad = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("0", "0")})
    verdicts = (models_up(bad, phi, XY), models_up_direct(bad, phi), models_up_direct(found, phi))
    assert verdicts == (False, False, True)
    stats = []
    translate(phi, XY, stats=stats)
    last_is_phi = stats[-1][0] is phi
    counts = [count for _, count in stats]
    assert last_is_phi and counts == [1] * 41
    reduced, variables = reduce_full(full, ("x",), ("X",))
    free = free_min(reduced)
    assert free == {"x", "X"} and variables[:2] == ("x", "X")
    found = sat_full(full, ("x",), ("X",))
    holds = found is not None and up_at(found.sets["X"], found.nums["x"])
    assert holds


# the formula nodes rebuilt with the methods dataclasses generate
_GENERATED = {
    cls: dataclasses.make_dataclass(
        cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )
    for cls in (Less, Incl, And, Not, Ex2, FoLess, FoIn, FoAnd, FoNot, FoEx1, FoEx2)
}


def _generated(phi):
    # recursive, as the generated methods are: shallow formulas only
    values = [getattr(phi, f.name) for f in dataclasses.fields(phi)]
    return _GENERATED[type(phi)](
        *(_generated(v) if type(v) in _GENERATED else v for v in values)
    )


def test_formula_nodes_compare_hash_and_print_as_generated_methods_do():
    # equal trees built separately, and unequal ones, of both syntaxes
    def draws(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(150):
            out.append(random_min_formula(rng, ("X", "Y"), rng.randint(0, 5), quantifiers=2))
            out.append(random_full_formula(rng, ("x", "y"), ("X",), rng.randint(0, 4), 2))
        return out

    first, again = draws(1700), draws(1700)
    mirrors = [_generated(phi) for phi in first]
    for phi, twin, mirror in zip(first, again, mirrors):
        assert phi is not twin and phi == twin and not phi != twin
        assert hash(phi) == hash(twin) == hash(mirror)
        assert repr(phi) == repr(twin) == repr(mirror)
    for (phi, m), (psi, n) in itertools.combinations(list(zip(first, mirrors))[:80], 2):
        assert (phi == psi) == (m == n) and (phi != psi) == (m != n)
    # across classes with equal fields, at the top or below, and against
    # other types
    assert Less("X", "Y") != Incl("X", "Y") and Not(Less("X", "Y")) != FoNot(FoLess("X", "Y"))
    assert And(Less("X", "Y"), Incl("X", "Y")) != And(Incl("X", "Y"), Incl("X", "Y"))
    assert Less("X", "Y") != ("X", "Y") and Less("X", "Y") != "Less"


def _not_chain(atom, depth):
    chain = atom
    for _ in range(depth):
        chain = Not(chain)
    return chain


def test_deep_formulas_compare_hash_and_print_without_recursion():
    # 3000 levels, far past the recursion limit, built twice
    chain, twin = _not_chain(Less("X", "Y"), 3000), _not_chain(Less("X", "Y"), 3000)
    other = _not_chain(Less("Y", "X"), 3000)
    assert chain == twin and chain != other and not chain == other
    assert hash(chain) == hash(twin) == hash((chain.sub,))
    assert {chain: 1}[twin] == 1 and other not in {chain}
    assert repr(chain) == "Not(sub=" * 3000 + "Less(left='X', right='Y')" + ")" * 3000


def test_shared_formulas_compare_and_hash_once_per_node(monkeypatch):
    # 40 levels of And(f, f), built twice: 2**40 paths but 41 node objects
    # each, so == reads the parts of each node of a pair once, and hash of
    # each node once.  A walk over paths stops at the first read past that.
    # Results are bound to names before each assert, as printing such a
    # formula spells out every path.
    def dag(atom):
        phi = atom
        for _ in range(40):
            phi = And(phi, phi)
        return phi

    phi, twin, other = dag(Incl("X", "Y")), dag(Incl("X", "Y")), dag(Incl("Y", "X"))
    parts = logic._parts
    reads = [0, 0]

    def counted(node, sort=None):
        reads[0] += 1
        if reads[0] > reads[1]:
            raise AssertionError(f"more than {reads[1]} nodes read")
        return parts(node, sort)

    monkeypatch.setattr(logic, "_parts", counted)
    for left, right, want in ((phi, twin, True), (phi, other, False)):
        reads[:] = [0, 2 * 41]
        equal = left == right
        assert equal == want
    hashes = []
    for formula in (phi, twin):
        reads[:] = [0, 41]
        hashes.append(hash(formula))
    reads[:] = [0, 2 * 40]
    same = hashes[0] == hashes[1] == hash((phi.left, phi.right))
    assert same


def test_direct_evaluator_rejects_quantifiers():
    with pytest.raises(ValueError):
        models_up_direct(
            random_min_interp(random.Random(0), XY), Ex2("Y", Less("X", "Y"))
        )


# a node of the other syntax, at the top or deep inside
FULL_NODES = (FoLess("x", "y"), And(Less("X", "Y"), Not(FoIn("x", "X"))))
MIN_NODES = (Incl("X", "Y"), FoAnd(FoIn("x", "X"), FoNot(Less("X", "Y"))))
XYXY = ("x", "y", "X", "Y")


@pytest.mark.parametrize(
    "entry, nodes",
    [
        (lambda phi: translate(phi, XYXY), FULL_NODES),
        (free_min, FULL_NODES),
        (lambda phi: models_up_direct(UpInterpretation(), phi), FULL_NODES),
        (lambda phi: reduce_full(phi, ("x",), ("X", "Y")), MIN_NODES),
        (free_full, MIN_NODES),
    ],
    ids=["translate", "free_min", "models_up_direct", "reduce_full", "free_full"],
)
def test_entry_points_reject_the_other_syntax(entry, nodes):
    for phi in nodes:
        with pytest.raises(TypeError):
            entry(phi)


# -- satisfiability and witnesses ---------------------------------------------------


def test_sat_min_tautology_and_contradiction():
    assert sat_min(Incl("X", "X"), XY) is not None
    phi = Incl("X", "Y")
    assert sat_min(And(phi, Not(phi)), XY) is None


def test_sat_min_witness_restricted_to_free_vars():
    got = sat_min(Ex2("Y", Less("X", "Y")), XY)
    assert got is not None
    assert set(got.sets) == {"X"}
    assert any(got.sets["X"].prefix) or any(got.sets["X"].period)


def test_sat_min_witnesses_satisfy():
    rng = random.Random(467)
    sat_count = 0
    for _ in range(80):
        phi = random_min_formula(rng, XY, depth=2, quantifiers=1)
        got = sat_min(phi, XY)
        if got is not None:
            sat_count += 1
            full = UpInterpretation(
                sets={v: got.sets.get(v, UpWord((0,), (0,))) for v in XY}
            )
            assert models_up(full, phi, XY)
    assert sat_count > 10


def test_ex2_witness_agrees_off_quantified_variable():
    rng = random.Random(468)
    phi = Ex2("Y", Less("X", "Y"))
    found = 0
    for _ in range(60):
        interp = random_min_interp(rng, XY)
        witness = ex2_witness(phi, interp, XY)
        holds = check(phi, interp)
        assert (witness is not None) == holds
        if witness is not None:
            found += 1
            filled = UpInterpretation(
                sets={v: witness.sets.get(v, UpWord((0,), (0,))) for v in XY}
            )
            assert models_up(filled, phi.sub, XY)
            assert up_equiv(filled.sets["X"], interp.sets["X"])
    assert found > 5


# -- singleton constraint -------------------------------------------------------------


def test_sing_shape():
    phi = sing("X", "Y")
    assert phi == And(Not(Less("X", "X")), Ex2("Y", Less("X", "Y")))


@pytest.mark.parametrize(
    "word,expected",
    [
        (("1", "0"), True),
        (("0", "0"), False),
        (("11", "0"), False),
        (("01", "0"), True),
        (("0", "1"), False),
    ],
)
def test_sing_semantics(word, expected):
    interp = UpInterpretation(sets={"X": bits(*word), "Y": bits("0", "0")})
    assert check(sing("X", "Y"), interp) == expected


# -- full syntax ------------------------------------------------------------------------


FO = ("x", "y")
SO = ("X",)


def test_number_word_round_trip():
    for i in range(6):
        w = number_word(i)
        assert decode_number("x", w) == i
        assert up_at(w, i) == 1
        assert len(w.prefix) == i + 1


def test_decode_number_rejects_non_singletons():
    with pytest.raises(NonSingletonWitness):
        decode_number("x", UpWord((0,), (0,)))
    with pytest.raises(NonSingletonWitness):
        decode_number("x", UpWord((1, 1), (0,)))
    with pytest.raises(NonSingletonWitness):
        decode_number("x", UpWord((1,), (0, 1)))


def test_encode_interp_replaces_numbers():
    enc = encode_interp(UpInterpretation(nums={"x": 2}))
    assert enc.nums == {}
    assert enc.sets["x"] == UpWord((0, 0, 1), (0,))


def test_models_full_less():
    interp = UpInterpretation(nums={"x": 0, "y": 1})
    assert models_full_up(interp, FoLess("x", "y"), FO, ())
    assert not models_full_up(interp, FoLess("y", "x"), FO, ())


def test_models_full_unassigned():
    with pytest.raises(UnassignedVariable):
        models_full_up(UpInterpretation(), FoLess("x", "y"), FO, ())


def test_skipped_operands_still_have_their_names_checked():
    # each left operand fails, so check never compiles the right one; an
    # undeclared name there, bound Z or z, is an error all the same
    interp = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("0", "0")})
    assert not models_up(interp, And(Incl("X", "Y"), Incl("X", "X")), XY)
    with pytest.raises(UnknownVariable):
        models_up(interp, And(Incl("X", "Y"), Ex2("Z", Incl("Z", "X"))), XY)
    full = UpInterpretation(nums={"x": 1, "y": 0})
    assert not models_full_up(full, FoAnd(FoLess("x", "y"), FoLess("y", "x")), FO, ())
    with pytest.raises(UnknownVariable):
        models_full_up(full, FoAnd(FoLess("x", "y"), FoEx1("z", FoLess("z", "x"))), FO, ())


def test_undeclared_assigned_names_are_refused_before_compiling(monkeypatch):
    # each command checks the assigned names once, before its first leaf is
    # compiled, with the message the packing gave; ex2_witness checks its
    # interpretation as models_up does, so an unassigned free variable of
    # the body, an undeclared bound variable and a position value are
    # refused by both alike, before compiling too
    def compile_fails(*args):
        raise AssertionError("compiled before the assigned names were checked")

    monkeypatch.setattr(logic, "_compile", compile_fails)
    interp = UpInterpretation(sets={"X": bits("1", "0"), "Y": bits("0", "1"), "Z": bits("1", "1")})
    with pytest.raises(UnknownVariable, match="^variable Z not declared$"):
        models_up(interp, Incl("X", "Y"), XY)
    with pytest.raises(UnknownVariable, match="^variable Z not declared$"):
        ex2_witness(Ex2("X", Incl("X", "Y")), interp, XY)
    full = UpInterpretation(nums={"x": 1, "y": 0, "z": 2})
    with pytest.raises(UnknownVariable, match="^variable z not declared$"):
        models_full_up(full, FoLess("x", "y"), FO, ())
    sets = {"X": bits("1", "0"), "Y": bits("0", "1")}
    refused = [
        (Ex2("Z", And(Incl("X", "Z"), Incl("Z", "Y"))), UpInterpretation(sets={"X": bits("1", "0")}),
         ("X", "Y", "Z"), UnassignedVariable, "unassigned variables: Y"),
        (Ex2("Q", Incl("X", "Y")), UpInterpretation(sets=sets), XY, UnknownVariable, "variable Q not declared"),
        (Ex2("X", Incl("X", "Y")), UpInterpretation(sets=sets, nums={"Y": 2}), XY,
         ValueError, "minimal formulas take set assignments only"),
    ]
    for phi, interp, variables, error, message in refused:
        with pytest.raises(error, match=f"^{message}$"):
            models_up(interp, phi, variables)
        with pytest.raises(error, match=f"^{message}$"):
            ex2_witness(phi, interp, variables)


def _skipped_ands(phi, variables, word) -> int:
    # the Ands on models_up's walk of phi's Boolean skeleton whose left
    # operand fails on word, by the whole-formula route, so that their
    # right operand is skipped
    count, stack = 0, [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack.append(node.left)
            if membership_up(translate(node.left, variables), word):
                stack.append(node.right)
            else:
                count += 1
    return count


def _has_shared_node(phi) -> bool:
    objects = []
    paths = logic._fold(phi, None, lambda node, _, args: objects.append(node) or 1 + sum(args))
    return paths > len(objects)


def test_models_up_equals_the_whole_formula_route():
    # check evaluates the Boolean skeleton and compiles atoms and outermost
    # quantifiers only; its verdict must be membership in translate's
    # automaton of the whole formula.  Minimal formulas with up to two
    # quantifiers, some put under a negated quantifier at the top or
    # sharing a node object between two parents, and full formulas
    # through reduce_full
    rng = random.Random(3501)
    names = ("X", "Y", "Z")
    cases = []
    for _ in range(120):
        a, b = (random_min_formula(rng, names, rng.randint(0, 3), rng.randint(0, 2)) for _ in "ab")
        phi = rng.choice([a, And(a, b), Not(Ex2(rng.choice(names), a)), And(Not(a), Not(And(b, a)))])
        cases.append((phi, names, [random_min_interp(rng, names) for _ in range(3)]))
    for _ in range(40):
        phi = random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2)
        reduced, variables = reduce_full(phi, FO, SO)
        interps = [encode_interp(random_full_interp(rng, FO, SO)) for _ in range(3)]
        cases.append((reduced, variables, interps))
    skipped = negated_quantifiers = shared = 0
    for phi, variables, interps in cases:
        A = translate(phi, variables)
        negated_quantifiers += isinstance(phi, Not) and isinstance(phi.sub, Ex2)
        shared += _has_shared_node(phi)
        for interp in interps:
            word = interp_to_upword(interp, variables)
            assert models_up(interp, phi, variables) == membership_up(A, word), phi
            skipped += _skipped_ands(phi, variables, word)
    assert skipped >= 100 and negated_quantifiers >= 20 and shared >= 20, (skipped, negated_quantifiers, shared)


def test_models_full_quantifier_free_matches_naive():
    rng = random.Random(469)
    for _ in range(150):
        phi = random_full_formula(rng, FO, SO, depth=rng.randint(0, 3))
        interp = random_full_interp(rng, FO, SO)
        assert models_full_up(interp, phi, FO, SO) == naive_models_full(interp, phi)


def test_reduction_route_equals_models_full():
    rng = random.Random(470)
    for _ in range(100):
        phi = random_full_formula(rng, FO, SO, depth=2, quantifiers=1)
        interp = random_full_interp(rng, FO, SO)
        reduced, variables = reduce_full(phi, FO, SO)
        via_min = models_up(encode_interp(interp), reduced, variables)
        assert models_full_up(interp, phi, FO, SO) == via_min


def test_reduce_full_guards_free_positions():
    reduced, variables = reduce_full(FoLess("x", "y"), FO, ())
    assert variables == ("x", "y", "_s")
    # both free position variables get a singleton guard on top
    assert isinstance(reduced, And)
    assert reduced.left == sing("x", "_s")
    assert isinstance(reduced.right, And)
    assert reduced.right.left == sing("y", "_s")
    assert reduced.right.right == Less("x", "y")


def test_reduce_full_no_top_guard_when_closed():
    reduced, _ = reduce_full(FoEx1("x", FoIn("x", "X")), FO, SO)
    assert isinstance(reduced, Ex2)


def test_reduce_full_sat_consistency():
    assert sat_full(FoLess("x", "y"), FO, ()) is not None
    reduced, variables = reduce_full(FoLess("x", "y"), FO, ())
    assert sat_min(reduced, variables) is not None


def test_sat_full_irreflexive():
    assert sat_full(FoLess("x", "x"), ("x",), ()) is None


def test_sat_full_witness_decodes_and_satisfies():
    phi = FoEx1("x", FoEx1("y", FoLess("x", "y")))
    got = sat_full(phi, FO, ())
    assert got is not None
    assert got.nums == {} and got.sets == {}

    phi2 = FoLess("x", "y")
    got2 = sat_full(phi2, FO, ())
    assert got2 is not None
    assert got2.nums["x"] < got2.nums["y"]
    assert models_full_up(got2, phi2, FO, ())


def test_sat_full_exists_member():
    phi = FoEx1("x", FoIn("x", "X"))
    got = sat_full(phi, ("x",), SO)
    assert got is not None
    assert any(got.sets["X"].prefix) or any(got.sets["X"].period)
    assert models_full_up(got, phi, ("x",), SO)


def test_sat_full_witnesses_random():
    rng = random.Random(471)
    sat_count = 0
    for _ in range(60):
        phi = random_full_formula(rng, FO, SO, depth=2, quantifiers=1)
        got = sat_full(phi, FO, SO)
        if got is not None:
            sat_count += 1
            free_fo, free_so = free_full(phi)
            filled = UpInterpretation(
                sets={v: got.sets.get(v, UpWord((0,), (0,))) for v in free_so},
                nums={v: got.nums.get(v, 0) for v in free_fo},
            )
            assert models_full_up(filled, phi, FO, SO)
    assert sat_count > 10


# -- reduction strength ----------------------------------------------------------

# state counts of every node, in postorder, of the translated merge formula
# of the trivial semigroup and of the first 20 formulas drawn as the
# benchmark's cli-requests draws them (seed 107); a weaker reduction of the
# intermediates changes them
TRIV_NODE_STATES = (
    "3 2 3 3 3 3 2 3 3 3 3 2 3 3 3 3 3 3 2 3 3 3 1 3 2 3 3 4 3 7 7 5 1 3 2 "
    "3 3 3 3 3 2 3 3 3 3 3 8 4 4 3 1 2 5 6 5 5 6 5 4 4 3 3 3 4 3 2 3 3 3 3 "
    "3 8 1 1 3 2 3 3 3 3 3 2 3 3 3 3 3 8 4 4 3 1 2 5 6 5 5 6 5 4 4 3 3 3 4 "
    "3 3 4 3 11 12 11 5 5 4 1 4 8 10 7 3 2 3 3 3 1 3 2 3 3 4 3 7 7 5 1 3 2 "
    "3 3 3 3 3 2 3 3 3 3 3 8 4 4 3 1 2 5 6 5 5 6 5 4 4 3 3 3 4 3 2 3 3 3 3 "
    "3 8 1 1 3 2 3 3 3 3 3 2 3 3 3 3 3 8 4 4 3 1 2 5 6 5 5 6 5 4 4 3 3 3 4 "
    "3 3 4 3 11 12 11 5 5 4 1 4 8 28 16 23 6 5 6 6 6 6 "
)
CLI_NODE_STATES = (
    "3 2 3 3 3 3 2 3 3 3 1 1 1 3 5",
    "3 2 3 3 3 3 2 3 3 3 1 3 3 3 3 2 3 3 3 3 7 3 3 7 0",
    "3 2 3 3 3 3 2 3 3 3 1 2 5 4 3",
    "3 2 3 3 3 3 3 2 3 3 3 3 4 4 5 0",
    "3 2 3 3 3 3 2 3 3 3 1 2 1 1 2 5 4 3",
    "3 2 3 3 3 1 3 3 1 2",
    "3 2 3 3 3 3 2 3 3 3 3 3 5 0 0",
    "3 2 3 3 3 1 3",
    "3 2 3 3 3 3 2 3 3 3 3 7 3 0 0",
    "3 2 3 3 3 1 1 3",
    "3 2 3 3 3 3 2 3 3 3 3 3 3 2 3",
    "3 2 3 3 3 3 2 3 3 3 3 3 4",
    "3 2 3 3 3 1 3",
    "3 2 3 3 3 3 2 3 3 3 3 3 3 4",
    "3 2 3 3 3 3 0",
    "3 2 3 3 3 1 2 3",
    "3 2 3 3 3 1 1 1 1 3 2 3 3 3 3 2 3 3 3 3",
    "3 2 3 3 3 3 2 3 3 3 3 2 3 4",
    "3 2 3 3 3 3 2 3 3 3 1 1 3 2 2 3 3 3",
    "3 2 3 3 3 3 2 3 3 3 1 2 5 4 1 3",
)


def _node_states(phi, variables):
    stats = []
    translate(phi, variables, stats=stats)
    return " ".join(str(count) for _, count in stats)


def test_translation_node_state_counts_are_pinned():
    triv = new_semigroup(1, [[0]])
    merge, variables = reduce_full(
        phi_merge(triv), MERGE_FIRST_ORDER, merge_second_order(triv)
    )
    assert _node_states(merge, variables) == "".join(TRIV_NODE_STATES).strip()
    rng = random.Random(107)
    for expected in CLI_NODE_STATES:
        phi = random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2)
        assert _node_states(*reduce_full(phi, FO, SO)) == expected, phi


# sha256 of format_nfa of the merge compiles of TRIV, LP and Z2; any change
# to a construction or reduction that alters a compiled automaton shows
# here.  Z3's is pinned in test 09 of test_acceptance.py, which compiles it.
MERGE_COMPILE_SHA256 = {
    (1, ((0,),)): "45243125bbb84f100643dd82601b00bcf03d4ca15398ae79b15200788002bcf4",
    (2, ((0, 0), (1, 1))): "e4c936bd014d54b433df0760717e559864ccf5402f6c78c95e98fce3951d18a8",
    (2, ((0, 1), (1, 0))): "5f0026cf022d4bb2a868468bf1ab6a5bb0a0bdd1bc0cc5836d2ece4450daf9fa",
}


def test_merge_compiles_are_pinned():
    for (size, table), digest in MERGE_COMPILE_SHA256.items():
        aut = _merge_machine(new_semigroup(size, table))[0]
        assert hashlib.sha256(format_nfa(aut).encode()).hexdigest() == digest, table


# relations (buchi._relation calls) the merge compiles of TRIV, LP
# and Z2 build; a relation that only confirmed _reduce's result on a
# quotient would show here, as a weaker reduction shows in TRIV_NODE_STATES
MERGE_COMPILE_RELATIONS = {
    (1, ((0,),)): 9,
    (2, ((0, 0), (1, 1))): 12,
    (2, ((0, 1), (1, 0))): 12,
}


def test_merge_compiles_are_the_same_on_either_route(monkeypatch):
    # with the switch at 0 every route that has arrays takes them, and past
    # every size here none does; both compile TRIV, LP and Z2 to the pinned
    # automata, building the same number of relations
    relation, related = buchi._relation, []
    monkeypatch.setattr(buchi, "_relation", lambda A: related.append(A) or relation(A))
    for crossover in (0, 10**9):
        monkeypatch.setattr(buchi, "_ARRAY_CROSSOVER", crossover)
        for (size, table), digest in MERGE_COMPILE_SHA256.items():
            related.clear()
            g = new_semigroup(size, table)
            aut = translate(*reduce_full(phi_merge(g), MERGE_FIRST_ORDER, merge_second_order(g)))
            case = (crossover, table)
            assert hashlib.sha256(format_nfa(aut).encode()).hexdigest() == digest, case
            assert len(related) == MERGE_COMPILE_RELATIONS[size, table], case


def test_merge_compiles_build_no_relation_on_a_relation_route_quotient(monkeypatch):
    # a quotient of _sim_reduce's relation route inherits its order, and so
    # does its trim in _reduce, so no relation is built on either
    sim_reduce, trim, relation = buchi._sim_reduce, buchi._trim, buchi._relation
    quotients, inputs = {}, []

    def recorded_sim_reduce(A):
        R = sim_reduce(A)
        if R is not A and A._sim_order is not None:
            quotients[id(R)] = R
        return R

    def recorded_trim(A):
        T = trim(A)
        if id(A) in quotients:
            quotients[id(T)] = T
        return T

    monkeypatch.setattr(buchi, "_sim_reduce", recorded_sim_reduce)
    monkeypatch.setattr(buchi, "_trim", recorded_trim)
    monkeypatch.setattr(buchi, "_relation", lambda A: inputs.append(A) or relation(A))
    for (size, table), count in MERGE_COMPILE_RELATIONS.items():
        inputs.clear()
        g = new_semigroup(size, table)
        translate(*reduce_full(phi_merge(g), MERGE_FIRST_ORDER, merge_second_order(g)))
        assert len(inputs) == count, table
        assert not any(id(A) in quotients for A in inputs), table
    assert len(quotients) >= 20


def test_merge_compiles_reduce_in_one_pass(monkeypatch):
    # each _reduce runs _sim_reduce once, and no _refine runs on an
    # automaton a _refine returned: a quotient by bisimilarity is its own
    reduce_, sim_reduce, refine, relation = (
        buchi._reduce, buchi._sim_reduce, buchi._refine, buchi._relation)
    counts = dict.fromkeys(("reduce", "sim_reduce", "relation"), 0)
    refined, confirmed = {}, []

    def counted(key, fn):
        def run(A):
            counts[key] += 1
            return fn(A)
        return run

    def recorded_refine(A):
        if id(A) in refined:
            confirmed.append(A)
        R = refine(A)
        refined[id(R)] = R
        return R

    monkeypatch.setattr(buchi, "_reduce", counted("reduce", reduce_))
    monkeypatch.setattr(buchi, "_sim_reduce", counted("sim_reduce", sim_reduce))
    monkeypatch.setattr(buchi, "_refine", recorded_refine)
    monkeypatch.setattr(buchi, "_relation", counted("relation", relation))
    for (size, table), relations in MERGE_COMPILE_RELATIONS.items():
        counts.update(dict.fromkeys(counts, 0))
        g = new_semigroup(size, table)
        translate(*reduce_full(phi_merge(g), MERGE_FIRST_ORDER, merge_second_order(g)))
        assert counts["sim_reduce"] == counts["reduce"] > 0, table
        assert counts["relation"] == relations, table
    assert confirmed == [] and len(refined) >= 100


def test_vacuous_quantifier_adds_no_reduction(monkeypatch):
    # Ex2 over a variable its body does not read returns the body's
    # automaton, reduced already, without reducing it again; one over a
    # variable it reads reduces its projection once
    reduce_, calls = buchi._reduce, []
    monkeypatch.setattr(buchi, "_reduce", lambda A: calls.append(A) or reduce_(A))
    names = ("X", "Y", "Z", "W")

    def reductions(phi):
        calls.clear()
        A = translate(phi, names)
        return A, len(calls)

    rng = random.Random(3101)
    phis = [Incl("X", "Y"), Less("Y", "X"), *NONDETERMINISTIC,
            *(random_min_formula(rng, names, 3, quantifiers=1) for _ in range(80))]
    vacuous = 0
    for phi in phis:
        A, count = reductions(phi)
        for var in names:
            B, more = reductions(Ex2(var, phi))
            if var in free_min(phi):
                assert more == count + 1, (phi, var)
            else:
                vacuous += 1
                assert B == A and more == count, (phi, var)
    assert vacuous >= 80


def test_breakpoint_budget_falls_through_to_the_general_complement(monkeypatch):
    # with the breakpoint budget at one state, each negation of a weak
    # nondeterministic operand takes the general complement instead; the
    # language is the default route's on every word whose prefix and
    # period have one or two letters
    names = ("X", "Y", "Z")
    letters = [(a,) for a in range(8)] + [(a, b) for a in range(8) for b in range(8)]
    words = [UpWord(pre, per) for pre in letters for per in letters]
    assert len(words) == 5184
    defaults = [translate(Not(phi), names) for phi in NONDETERMINISTIC]
    general, fallbacks = logic.complement, []
    monkeypatch.setattr(logic, "complement", lambda A, **kw: fallbacks.append(A) or general(A, **kw))
    monkeypatch.setattr(buchi, "_BREAKPOINT_LIMIT", 1)
    for phi, default in zip(NONDETERMINISTIC, defaults):
        fallbacks.clear()
        A = translate(Not(phi), names)
        assert len(fallbacks) == 1 and buchi.is_weak(fallbacks[0]), phi
        assert A.state_count > default.state_count, phi
        for word in words:
            assert membership_up(A, word) == membership_up(default, word), (phi, word)


# sha256 of format_nfa of translate over the 150 formulas the benchmark's
# cli-requests draws (seed 107), reduced to the minimal syntax: the lifted
# automata over every declared variable
CLI_FORMULAS_SHA256 = "98ed7940bcac34213d71ff6ae9f92059e6b69e905090901599a2ecc46ef183e5"


def test_cli_formula_compiles_are_pinned():
    rng = random.Random(107)
    digest = hashlib.sha256()
    for _ in range(150):
        phi = random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2)
        digest.update(format_nfa(translate(*reduce_full(phi, FO, SO))).encode())
    assert digest.hexdigest() == CLI_FORMULAS_SHA256


def _negated_operands(formulas):
    # the distinct automata logic._negate complements while translating
    # each (formula, variables) pair
    negate, seen = logic._negate, {}

    def recorded(A, max_colors):
        seen.setdefault(format_nfa(A), A)
        return negate(A, max_colors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic, "_negate", recorded)
        for phi, variables in formulas:
            translate(phi, variables)
    return list(seen.values())


def test_every_negated_operand_is_complemented_alike_by_every_route():
    # each operand _negate sees in the TRIV, LP and Z2 merge compiles and in
    # the CLI formulas of test_cli_formula_compiles_are_pinned, complemented
    # by every route that applies to it, rejects exactly the operand's words
    # on seeded UP words; the Ramsey closure of LP's and Z2's 7-state
    # nondeterministic operands takes 0.6-1.0 s each, so it gets operands
    # of at most 6 states
    rng = random.Random(107)
    cli = [reduce_full(random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2), FO, SO)
           for _ in range(150)]
    merges = [[reduce_full(phi_merge(g), MERGE_FIRST_ORDER, merge_second_order(g))]
              for g in (new_semigroup(size, table) for size, table in MERGE_COMPILE_SHA256)]
    words = random.Random(3701)
    runs = dict.fromkeys(["flip", "deterministic", "weak", "ramsey", "nondeterministic ramsey"], 0)
    for formulas in [cli, *merges]:
        operands = _negated_operands(formulas)
        assert operands
        for A in operands:
            deterministic, weak = buchi.is_deterministic(A), buchi.is_weak(A)
            routes = {
                "flip": buchi.complement_flip if deterministic and weak else None,
                "deterministic": buchi.complement_deterministic if deterministic else None,
                "weak": buchi.complement_weak if weak else None,
                "ramsey": complement if A.state_count <= 6 else None,
            }
            for route, complement_by in routes.items():
                if complement_by is None:
                    continue
                C = complement_by(A)
                for _ in range(30):
                    sigma = random_up_word(words, A.alphabet_size)
                    assert membership_up(C, sigma) != membership_up(A, sigma), (route, A)
                runs[route] += 1
                if route == "ramsey" and not deterministic:
                    runs["nondeterministic ramsey"] += 1
    assert all(runs.values()), runs


def _quantified(phi):
    return logic._fold(phi, None, lambda node, _, args: isinstance(node, (Ex2, FoEx1, FoEx2)) or any(args))


def test_every_reduction_in_translate_reads_its_nodes_support(monkeypatch):
    # each _reduce input is over the free variables of the node being
    # compiled (the local node of logic._compile), however many variables
    # are declared
    reduce, sizes = buchi._reduce, []

    def recorded(A):
        frame = sys._getframe(1)
        while frame.f_code is not logic._compile.__code__:
            frame = frame.f_back
        sizes.append((A.alphabet_size, 2 ** len(free_min(frame.f_locals["node"]))))
        return reduce(A)

    monkeypatch.setattr(buchi, "_reduce", recorded)
    triv = new_semigroup(1, [[0]])
    merge, variables = reduce_full(phi_merge(triv), MERGE_FIRST_ORDER, merge_second_order(triv))
    translate(merge, variables)
    rng = random.Random(2502)
    names = ("X", "Y", "Z", "W", "V", "U")
    for _ in range(40):
        phi = random_min_formula(rng, names[:4], 3, quantifiers=2)
        translate(phi, rng.sample(names, 6))
    assert all(got == want for got, want in sizes)
    assert len(sizes) > 100 and min(sizes)[0] < 2 ** 4


def test_support_route_agrees_under_shuffled_declarations_with_unused_names():
    # quantified formulas declared in shuffled order with unused names, so
    # that supports sit at other bits of a larger alphabet: check agrees
    # with membership in the lifted translate result, with the plain
    # declaration and, without quantifiers, with the definitions; sat
    # witnesses satisfy the formula
    rng = random.Random(2501)
    fo_all, so_all = ("x", "y", "u", "v"), ("X", "Y", "Z")
    quantified = witnesses = 0
    for _ in range(40):
        phi = random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2)
        fo, so = tuple(rng.sample(fo_all, 4)), tuple(rng.sample(so_all, 3))
        reduced, variables = reduce_full(phi, fo, so)
        lifted = translate(reduced, variables)
        assert lifted.alphabet_size == 2 ** len(variables) == 2 ** 8
        exact = not _quantified(phi)
        quantified += not exact
        for _ in range(5):
            interp = random_full_interp(rng, FO, SO)
            verdict = models_full_up(interp, phi, fo, so)
            word = interp_to_upword(encode_interp(interp), variables)
            assert verdict == membership_up(lifted, word) == models_full_up(interp, phi, FO, SO), phi
            if exact:
                assert verdict == naive_models_full(interp, phi), phi
        found = sat_full(phi, fo, so)
        assert (found is None) == (sat_full(phi, FO, SO) is None), phi
        if found is not None:
            witnesses += 1
            assert models_full_up(found, phi, fo, so) and models_full_up(found, phi, FO, SO), phi
            if exact:
                assert naive_models_full(found, phi), phi
    names = ("X", "Y", "Z", "W", "V")
    for _ in range(40):
        phi = random_min_formula(rng, names[:3], 3, quantifiers=2)
        variables = tuple(rng.sample(names, 5))
        lifted = translate(phi, variables)
        exact = not _quantified(phi)
        quantified += not exact
        for _ in range(5):
            interp = random_min_interp(rng, names[:3])
            verdict = models_up(interp, phi, variables)
            assert verdict == membership_up(lifted, interp_to_upword(interp, variables)), phi
            assert verdict == models_up(interp, phi, names[:3]), phi
            if exact:
                assert verdict == models_up_direct(interp, phi), phi
        found = sat_min(phi, variables)
        if found is not None:
            witnesses += 1
            assert set(found.sets) == free_min(phi)
            assert models_up(found, phi, variables), phi
    assert quantified >= 30 and witnesses >= 30


def test_deterministic_reductions_in_compiles_match_relation_route(monkeypatch):
    # every deterministic input _sim_reduce meets while compiling TRIV and
    # the pinned formulas, reduced again with is_deterministic forced off
    sim_reduce = buchi._sim_reduce
    inputs = []

    def recorded(A):
        if buchi.is_deterministic(A):
            inputs.append(A)
        return sim_reduce(A)

    monkeypatch.setattr(buchi, "_sim_reduce", recorded)
    triv = new_semigroup(1, [[0]])
    translate(*reduce_full(phi_merge(triv), MERGE_FIRST_ORDER, merge_second_order(triv)))
    rng = random.Random(107)
    for _ in CLI_NODE_STATES:
        phi = random_full_formula(rng, FO, SO, rng.randint(1, 3), quantifiers=2)
        translate(*reduce_full(phi, FO, SO))
    monkeypatch.undo()
    refined = [buchi._sim_reduce(A) for A in inputs]
    monkeypatch.setattr(buchi, "is_deterministic", lambda A: False)
    assert refined == [buchi._sim_reduce(A) for A in inputs]
    assert sum(R.state_count < A.state_count for A, R in zip(inputs, refined)) >= 20


def _renamed_form(phi):
    """phi in preorder, each name replaced by its rank in order of first
    use: equal for two formulas exactly when a one-to-one renaming of
    variables turns one into the other."""
    rank: dict[str, int] = {}
    form = []
    todo = [phi]
    while todo:
        node = todo.pop()
        if isinstance(node, (Less, Incl)):
            names = (node.left, node.right)
        elif isinstance(node, Ex2):
            names = (node.var,)
        else:
            names = ()
        form.append((type(node), *(rank.setdefault(n, len(rank)) for n in names)))
        if isinstance(node, And):
            todo += [node.right, node.left]
        elif isinstance(node, (Not, Ex2)):
            todo.append(node.sub)
    return tuple(form)


def test_translate_compiles_each_distinct_subformula_once(monkeypatch):
    # once up to renaming: a subformula that renames an earlier one takes
    # the earlier automaton with its letters relabelled
    triv = new_semigroup(1, [[0]])
    merge, variables = reduce_full(
        phi_merge(triv), MERGE_FIRST_ORDER, merge_second_order(triv)
    )
    distinct = set()
    shapes = set()
    todo = [merge]
    while todo:
        node = todo.pop()
        if isinstance(node, (And, Not, Ex2)):
            distinct.add(node)
            shapes.add(_renamed_form(node))
            todo += [node.left, node.right] if isinstance(node, And) else [node.sub]
    calls = []
    for module, name in ((logic, "_conjoin"), (logic, "_negate"), (buchi, "ex_project")):
        def counted(*args, _fn=getattr(module, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    stats = []
    translate(merge, variables, stats=stats)
    compiled, distinct_shapes, distinct_nodes = len(calls), len(shapes), len(distinct)
    assert compiled == distinct_shapes < distinct_nodes
    assert len(stats) == len(TRIV_NODE_STATES.split()) == 230
    assert " ".join(str(count) for _, count in stats) == TRIV_NODE_STATES.strip()


# -- fallback complement routes ----------------------------------------------------

# Every negated operand of the merge and cli-requests compiles is weak, and
# the deterministic ones are complemented by flipping.  "Infinitely often"
# formulas still reach the other routes: negating I(X) needs the two-copy
# complement_deterministic, a conjunction of two of them the two-copy
# intersection, and "no infinite subset Z of X" the general complement.
FALLBACK_FO, FALLBACK_SO = ("x", "y", "z"), ("X", "Y", "Z")


def _infinitely_often(V):
    return f"!(ex1 x. !(ex1 y. x < y & y in {V}))"


def _no_infinite_subset(V):
    return f"!(ex2 Z. ({_infinitely_often('Z')}) & !(ex1 z. z in Z & !(z in {V})))"


def _infinite(word):
    return any(word.period)


FALLBACK_SHAPES = (
    (f"!({_infinitely_often('X')})", lambda X, Y: not X),
    (f"!(({_infinitely_often('X')}) & {_infinitely_often('Y')})", lambda X, Y: not (X and Y)),
    (_no_infinite_subset("X"), lambda X, Y: not X),
)


def _fallback_family(rng, count):
    """The three shapes, then count seeded boolean combinations of
    infinitely-often leaves and set atoms, all in the minimal syntax.  Each
    formula comes with its skeleton: the quantifier free formula, for a
    given interpretation, in which every quantified leaf is replaced by
    the constant X sub X or !(X sub X) that the definition gives it."""
    true = Incl("X", "X")

    def leaf(text, truth):
        phi = reduce_full(parse_formula(text).formula, FALLBACK_FO, FALLBACK_SO)[0]
        return phi, lambda i: true if truth(i) else Not(true)

    atoms = (Incl("X", "Y"), Less("X", "Y"), Less("Y", "X"))
    leaves = [(atom, lambda i, atom=atom: atom) for atom in atoms]
    for V in ("X", "Y"):
        leaves.append(leaf(_infinitely_often(V), lambda i, V=V: _infinite(i.sets[V])))
        leaves.append(leaf(_no_infinite_subset(V), lambda i, V=V: not _infinite(i.sets[V])))
    family = [
        leaf(text, lambda i, truth=truth: truth(_infinite(i.sets["X"]), _infinite(i.sets["Y"])))
        for text, truth in FALLBACK_SHAPES
    ]

    def draw(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(leaves)
        if roll < 0.6:
            phi, skeleton = draw(depth - 1)
            return Not(phi), lambda i: Not(skeleton(i))
        (left, ls), (right, rs) = draw(depth - 1), draw(depth - 1)
        return And(left, right), lambda i: And(ls(i), rs(i))

    family += [draw(2) for _ in range(count)]
    return family


def test_fallback_complement_routes_stay_exact(monkeypatch):
    calls = {}
    for module, name in (
        (buchi, "complement_deterministic"),
        (buchi, "intersection"),
        (logic, "complement"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(474)
    variables = FALLBACK_FO + FALLBACK_SO + ("_s",)
    empty = UpWord((0,), (0,))
    for phi, skeleton in _fallback_family(rng, 12):
        A = translate(phi, variables)
        for _ in range(40):
            interp = random_min_interp(rng, XY)
            word = interp_to_upword(interp, variables)
            assert membership_up(A, word) == models_up_direct(interp, skeleton(interp))
        found = sat_min(phi, variables)
        if found is not None:
            filled = UpInterpretation(sets={v: found.sets.get(v, empty) for v in XY})
            assert models_up_direct(filled, skeleton(filled))
    assert calls.keys() == {"complement_deterministic", "intersection", "complement"}
    # the three shapes through the full syntax: each witness satisfies the
    # shape by the definition
    for text, truth in FALLBACK_SHAPES:
        found = sat_full(parse_formula(text).formula, FALLBACK_FO, FALLBACK_SO)
        X, Y = (_infinite(found.sets.get(v, empty)) for v in XY)
        assert truth(X, Y)

