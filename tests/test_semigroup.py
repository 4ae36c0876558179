import itertools
import random

import pytest

from oracles import naive_merge_scan, random_semigroup, random_up_word
from s1sup.semigroup import (
    AssociativityViolation,
    UpWord,
    col,
    drop_prefix,
    format_semigroup,
    format_up_word,
    idempotent_power,
    merges_up,
    new_semigroup,
    parse_semigroup,
    parse_up_word,
    ramseyan_factorization_up,
    subsemigroup_closure,
    up_at,
    up_equiv,
)

LP = new_semigroup(2, [[0, 0], [1, 1]])  # a+b = a


def zmod(n):
    return new_semigroup(n, [[(a + b) % n for b in range(n)] for a in range(n)])


# -- construction ------------------------------------------------------------


def test_new_semigroup_left_projection():
    assert LP.size == 2
    assert LP.table[0][1] == 0
    assert LP.table[1][0] == 1


def test_new_semigroup_trivial():
    g = new_semigroup(1, [[0]])
    assert g.table[0][0] == 0


def test_new_semigroup_rejects_nonassociative():
    # (0+0)+1 = 1+1 = 0 but 0+(0+1) = 0+0 = 1
    with pytest.raises(AssociativityViolation):
        new_semigroup(2, [[1, 0], [1, 0]])


def test_new_semigroup_rejects_out_of_range():
    with pytest.raises(ValueError):
        new_semigroup(2, [[0, 2], [1, 0]])


# -- coloring ----------------------------------------------------------------


def test_col_left_projection_keeps_first():
    assert col(LP, [0, 1, 1]) == 0
    assert col(LP, [1, 0, 0]) == 1


def test_col_singleton():
    for g in (LP, zmod(3)):
        for a in range(g.size):
            assert col(g, [a]) == a


def test_col_mod3():
    assert col(zmod(3), [1, 2, 2]) == 2


def test_col_concat_homomorphism():
    rng = random.Random(401)
    for _ in range(300):
        g = random_semigroup(rng, 5)
        u = [rng.randrange(g.size) for _ in range(rng.randint(1, 4))]
        v = [rng.randrange(g.size) for _ in range(rng.randint(1, 4))]
        assert col(g, u + v) == g.table[col(g, u)][col(g, v)]


# -- idempotent powers -------------------------------------------------------


def test_idempotent_power_examples():
    assert idempotent_power(LP, 0) == 1
    assert idempotent_power(zmod(3), 1) == 3
    assert idempotent_power(zmod(4), 2) == 2


def test_idempotent_power_bounded_by_size():
    rng = random.Random(402)
    for _ in range(200):
        g = random_semigroup(rng, 4)
        for a in range(g.size):
            n = idempotent_power(g, a)
            assert 1 <= n <= g.size
            e = col(g, [a] * n)
            assert g.table[e][e] == e


# -- Ramseyan factorization --------------------------------------------------


def test_rf_left_projection():
    f = ramseyan_factorization_up(LP, UpWord((0,), (1,)))
    assert f.head == (0,)
    assert f.rep == (1,)
    assert f.color == 1


def test_rf_mod3():
    f = ramseyan_factorization_up(zmod(3), UpWord((0,), (1,)))
    assert f.rep == (1, 1, 1)
    assert f.color == 0


def test_rf_idempotent_letter():
    g = zmod(4)
    f = ramseyan_factorization_up(g, UpWord((0,), (0,)))
    assert f.rep == (0,)
    assert f.color == 0


def test_rf_properties():
    rng = random.Random(403)
    for _ in range(200):
        g = random_semigroup(rng, 4)
        sigma = random_up_word(rng, g.size)
        f = ramseyan_factorization_up(g, sigma)
        assert g.table[f.color][f.color] == f.color
        assert f.color == col(g, f.rep)
        rebuilt = UpWord(f.head, f.rep)
        assert up_equiv(rebuilt, sigma)
        for n in range(len(f.head) + 3 * len(f.rep)):
            assert up_at(rebuilt, n) == up_at(sigma, n)


# -- UP word basics ----------------------------------------------------------


def test_up_word_rejects_empty_parts():
    with pytest.raises(ValueError):
        UpWord((), (0,))
    with pytest.raises(ValueError):
        UpWord((0,), ())


def test_up_at_expansion():
    sigma = UpWord((0,), (1,))
    assert up_at(sigma, 0) == 0
    for n in range(1, 8):
        assert up_at(sigma, n) == 1


def test_up_equiv_examples():
    assert up_equiv(UpWord((0,), (1, 0)), UpWord((0, 1), (0, 1)))
    assert up_equiv(UpWord((0, 1), (2,)), UpWord((0, 1), (2, 2)))
    assert not up_equiv(UpWord((0,), (1,)), UpWord((1,), (1,)))


def test_drop_prefix_examples():
    assert drop_prefix(UpWord((0,), (1,)), 0) == UpWord((0,), (1,))
    assert drop_prefix(UpWord((0,), (1,)), 1) == UpWord((1,), (1,))
    assert drop_prefix(UpWord((0, 1), (2, 3)), 3) == UpWord((3,), (2, 3))


def test_drop_prefix_pointwise():
    rng = random.Random(404)
    for _ in range(200):
        sigma = random_up_word(rng, 3, max_pre=3, max_per=3)
        i = rng.randrange(8)
        tau = drop_prefix(sigma, i)
        for n in range(10):
            assert up_at(tau, n) == up_at(sigma, n + i)


# -- merging -----------------------------------------------------------------


def test_merges_constant_idempotent():
    g = new_semigroup(1, [[0]])
    assert merges_up(g, UpWord((0,), (0,)), 0, 1)


def test_merges_left_projection_never():
    assert not merges_up(LP, UpWord((0,), (1,)), 0, 1)


def test_merges_reflexive():
    rng = random.Random(405)
    for _ in range(100):
        g = random_semigroup(rng, 3)
        sigma = random_up_word(rng, g.size)
        i = rng.randrange(5)
        assert merges_up(g, sigma, i, i)


def test_merges_agrees_with_naive_scan():
    rng = random.Random(406)
    for _ in range(150):
        g = random_semigroup(rng, 3)
        sigma = random_up_word(rng, g.size, max_pre=3, max_per=3)
        for i, j in itertools.product(range(7), repeat=2):
            assert merges_up(g, sigma, i, j) == naive_merge_scan(g, sigma, i, j)


def test_merges_symmetric_and_transitive_sampled():
    rng = random.Random(407)
    for _ in range(300):
        g = random_semigroup(rng, 3)
        sigma = random_up_word(rng, g.size)
        i, j, k = (rng.randrange(6) for _ in range(3))
        assert merges_up(g, sigma, i, j) == merges_up(g, sigma, j, i)
        if merges_up(g, sigma, i, j) and merges_up(g, sigma, j, k):
            assert merges_up(g, sigma, i, k)


def test_merging_shift():
    rng = random.Random(408)
    for _ in range(300):
        g = random_semigroup(rng, 3)
        sigma = random_up_word(rng, g.size)
        i = rng.randrange(5)
        j = i + rng.randrange(5)
        assert merges_up(g, sigma, i, j) == merges_up(
            g, drop_prefix(sigma, i), 0, j - i
        )


# -- closure -----------------------------------------------------------------


def test_closure_all_generators():
    g = zmod(4)
    assert subsemigroup_closure(g, range(4)) == frozenset(range(4))


def test_closure_examples():
    g = zmod(4)
    assert subsemigroup_closure(g, [2]) == frozenset({0, 2})
    assert subsemigroup_closure(g, [1]) == frozenset({0, 1, 2, 3})


# -- text formats ------------------------------------------------------------


def test_semigroup_format_round_trip():
    rng = random.Random(409)
    for _ in range(50):
        g = random_semigroup(rng, 4)
        back = parse_semigroup(format_semigroup(g))
        assert back.size == g.size
        assert back.table == g.table


def test_parse_semigroup_wants_header():
    with pytest.raises(ValueError):
        parse_semigroup("2\n0 0\n1 1\n")


def test_parse_semigroup_ignores_comments():
    g = parse_semigroup("# left projection\nsemigroup 2\n0 0\n1 1\n")
    assert g.table == LP.table


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected header"),
        ("# only a comment\n\n", "line 3: expected header"),
        ("group 2\n0 0\n1 1\n", "line 1: expected header"),
        ("semigroup two\n", "line 1: expected an integer, found 'two'"),
        ("semigroup 0\n", "line 1: semigroup needs at least one element"),
        ("semigroup 2\n0 x\n1 1\n", "line 2: expected an integer, found 'x'"),
        ("semigroup 2\n0 0 0\n1 1\n", "line 2: expected 2 table entries, found 3"),
        ("semigroup 2\n0 0\n\n1 2\n", "line 4: table entry 2 out of range 0..1"),
        ("semigroup 2\n0 0\n1 1\n0 0\n", "line 4: more than 2 table rows"),
        ("semigroup 2\n0 0\n", "line 3: expected 2 table rows, got 1"),
    ],
)
def test_parse_semigroup_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match="^" + message):
        parse_semigroup(text)


def test_parse_semigroup_associativity_error_names_the_row():
    # (0.0).0 = 1.0 = 1 but 0.(0.0) = 0.1 = 0, so the left factor is row 0
    with pytest.raises(AssociativityViolation, match="^line 3: ") as err:
        parse_semigroup("semigroup 2\n# rows\n1 0\n1 0\n")
    assert err.value.triple == (0, 0, 0)


def test_up_word_format_round_trip():
    rng = random.Random(410)
    for _ in range(50):
        sigma = random_up_word(rng, 4)
        assert parse_up_word(format_up_word(sigma)) == sigma


def test_up_word_text_forms():
    assert format_up_word(UpWord((0, 1), (2,))) == "up 0 1 | 2"
    assert parse_up_word("up 0 1 | 2") == UpWord((0, 1), (2,))
    assert parse_up_word("0 1 | 2") == UpWord((0, 1), (2,))
    assert parse_up_word("(0 1 | 2)") == UpWord((0, 1), (2,))
    with pytest.raises(ValueError):
        parse_up_word("0 1 2")
    with pytest.raises(ValueError):
        parse_up_word("| 2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 x | 1", "prefix: expected a letter (integer), found 'x'"),
        ("up 0 | 1 y2", "period: expected a letter (integer), found 'y2'"),
        ("(0 | 1.5)", "period: expected a letter (integer), found '1.5'"),
    ],
)
def test_parse_up_word_names_the_bad_token(text, message):
    with pytest.raises(ValueError) as err:
        parse_up_word(text)
    assert str(err.value) == message
