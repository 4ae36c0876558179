"""End to end checks of the command line interface and the concrete syntax."""

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1sup.buchi import parse_nfa, membership_up
from s1sup.encodings import phi_merge
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
    Not,
    UpInterpretation,
    reduce_full,
    translate,
)
from s1sup.semigroup import UpWord, new_semigroup, parse_up_word, up_equiv
from s1sup.syntax import (
    ParseError,
    format_formula,
    format_interpretation,
    normalize_up_bits,
    parse_formula,
    parse_interpretation,
)
from s1sup import cli
from s1sup.cli import main

from oracles import random_full_formula, random_min_formula, random_up_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- formula surface syntax ---------------------------------------------------------


class TestFormulaSyntax:
    def test_min_atoms(self):
        p = parse_formula("X < Y")
        assert p.formula == Less("X", "Y")
        assert not p.is_full
        assert p.variables == ("X", "Y")
        assert parse_formula("X sub Y").formula == Incl("X", "Y")

    def test_full_atoms(self):
        p = parse_formula("x < y")
        assert p.formula == FoLess("x", "y")
        assert p.is_full
        assert p.first_order == ("x", "y")
        assert p.second_order == ()

    def test_precedence_not_binds_tighter_than_and(self):
        p = parse_formula("!X < Y & X sub Y")
        assert p.formula == And(Not(Less("X", "Y")), Incl("X", "Y"))

    def test_quantifier_scope_extends_right(self):
        p = parse_formula("ex2 Z. X sub Z & Z sub Y")
        assert p.formula == Ex2("Z", And(Incl("X", "Z"), Incl("Z", "Y")))

    def test_and_is_right_associative(self):
        p = parse_formula("X < Y & Y < Z & Z < X")
        assert p.formula == And(
            Less("X", "Y"), And(Less("Y", "Z"), Less("Z", "X"))
        )

    def test_parens_override(self):
        p = parse_formula("(ex2 Z. X sub Z) & X sub Y")
        assert p.formula == And(Ex2("Z", Incl("X", "Z")), Incl("X", "Y"))

    def test_ex1_forces_full_syntax(self):
        p = parse_formula("ex1 x. ex1 y. x < y")
        assert p.is_full
        assert isinstance(p.formula, FoEx1)

    def test_case_of_first_letter_decides_sort(self):
        assert parse_formula("abc < de_f").is_full
        assert not parse_formula("Abc sub De_f").is_full
        assert parse_formula("_X sub Y").second_order == ("_X", "Y")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "X sub",
            "X < Y &",
            "X ! Y",
            "ex2 X X sub X",
            "(X sub Y",
            "X sub Y)",
            "X sub Y @",
            "X sub Y & x in X",  # atom families do not mix
            "x sub y",
            "X in Y",
            "x < Y",
            "ex1 X. x < x",
            "ex2 x. X sub X",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_error_carries_offset(self):
        with pytest.raises(ParseError, match=r"\(at offset 2\)"):
            parse_formula("X in Y")
        try:
            parse_formula("X in Y")
        except ParseError as err:
            assert err.position == 2

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("# a comment line\nX in Y", 2, 3),
            ("ex2 Z.\n  (X sub Z) &\n  Z ! Y\n", 3, 5),
            ("X sub Y # @ is no token here\n& Y @ X", 2, 5),
            ("# one\n# two\nX < y & Y sub Z", 3, 3),
            ("X sub Y &  # dangling\n", 2, 1),
        ],
    )
    def test_error_names_line_and_column(self, text, line, column):
        lines = text.split("\n")
        offset = sum(len(s) + 1 for s in lines[: line - 1]) + column - 1
        with pytest.raises(ParseError, match=rf"^line {line}, column {column}: ") as err:
            parse_formula(text)
        assert err.value.position == offset
        assert str(err.value).endswith(f" (at offset {offset})")

    def test_comments_stripped(self):
        p = parse_formula("X sub Y  # anything goes here\n")
        assert p.formula == Incl("X", "Y")

    def test_format_examples(self):
        assert format_formula(Incl("X", "Y")) == "X sub Y"
        assert (
            format_formula(And(Not(Less("X", "Y")), Incl("X", "Y")))
            == "!X < Y & X sub Y"
        )
        assert (
            format_formula(Ex2("Z", And(Incl("X", "Z"), Incl("Z", "Y"))))
            == "ex2 Z. X sub Z & Z sub Y"
        )

    def test_format_parenthesizes_left_conjunct(self):
        phi = And(And(Less("X", "Y"), Less("Y", "Z")), Less("Z", "X"))
        text = format_formula(phi)
        assert parse_formula(text).formula == phi

    def test_round_trip_random_min(self):
        rng = random.Random(411)
        for _ in range(300):
            phi = random_min_formula(rng, ("X", "Y", "Z"), rng.randint(0, 4), 2)
            assert parse_formula(format_formula(phi)).formula == phi

    def test_deep_formulas_round_trip_as_text(self):
        # far deeper than the interpreter's recursion limit; built by loops
        # and compared as text, as dataclass equality recurses
        phi = Less("X", "Y")
        psi = FoIn("x", "X")
        for i in range(3000):
            phi = (
                Not(phi), And(Incl("X", "Y"), phi), And(phi, Less("Y", "X")), Ex2("Z", phi)
            )[i % 4]
            psi = (
                FoEx1("y", psi), FoAnd(psi, FoLess("x", "y")), FoNot(psi), FoEx2("Y", psi)
            )[i % 4]
        for chi in (phi, psi):
            text = format_formula(chi)
            assert format_formula(parse_formula(text).formula) == text
        chain = Less("X", "Y")
        for _ in range(3000):
            chain = Not(chain)
        assert format_formula(chain) == "!" * 3000 + "X < Y"

    def test_round_trip_random_full(self):
        rng = random.Random(412)
        for _ in range(300):
            phi = random_full_formula(
                rng, ("x", "y"), ("X", "Y"), rng.randint(1, 4), 2
            )
            parsed = parse_formula(format_formula(phi))
            assert parsed.formula == phi


SET_NAMES = st.sampled_from(("X", "Y", "Set_2", "_h"))
POSITION_NAMES = st.sampled_from(("x", "y", "p_1"))
MIN_FORMULAS = st.recursive(
    st.builds(Less, SET_NAMES, SET_NAMES) | st.builds(Incl, SET_NAMES, SET_NAMES),
    lambda sub: st.builds(And, sub, sub)
    | st.builds(Not, sub)
    | st.builds(Ex2, SET_NAMES, sub),
    max_leaves=12,
)
FULL_FORMULAS = st.recursive(
    st.builds(FoLess, POSITION_NAMES, POSITION_NAMES)
    | st.builds(FoIn, POSITION_NAMES, SET_NAMES),
    lambda sub: st.builds(FoAnd, sub, sub)
    | st.builds(FoNot, sub)
    | st.builds(FoEx1, POSITION_NAMES, sub)
    | st.builds(FoEx2, SET_NAMES, sub),
    max_leaves=12,
)
BITS = st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple)
INTERPRETATIONS = st.builds(
    UpInterpretation,
    sets=st.dictionaries(SET_NAMES, st.builds(UpWord, BITS, BITS), max_size=4),
    nums=st.dictionaries(POSITION_NAMES, st.integers(0, 40), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(MIN_FORMULAS, FULL_FORMULAS))
def test_formula_round_trip_property(phi):
    text = format_formula(phi)
    parsed = parse_formula(text)
    assert parsed.formula == phi
    assert parsed.is_full == isinstance(phi, (FoLess, FoIn, FoAnd, FoNot, FoEx1, FoEx2))
    assert format_formula(parsed.formula) == text


@settings(max_examples=300, deadline=None)
@given(INTERPRETATIONS)
def test_interpretation_round_trip_property(interp):
    text = format_interpretation(interp)
    back = parse_interpretation(text)
    assert back.nums == interp.nums
    assert back.sets.keys() == interp.sets.keys()
    assert all(up_equiv(back.sets[name], w) for name, w in interp.sets.items())
    assert format_interpretation(back) == text


# -- interpretation surface syntax --------------------------------------------------


class TestInterpretationSyntax:
    def test_parse_basic(self):
        interp = parse_interpretation("X = 101 | 0\nx = 3\n")
        assert interp.sets == {"X": UpWord((1, 0, 1), (0,))}
        assert interp.nums == {"x": 3}

    def test_bits_may_contain_spaces(self):
        interp = parse_interpretation("X = 1 0 1 | 0 1\n")
        assert interp.sets["X"] == UpWord((1, 0, 1), (0, 1))

    def test_comments_and_blank_lines(self):
        interp = parse_interpretation("# header\n\nX = 1|0  # trailing\n")
        assert interp.sets == {"X": UpWord((1,), (0,))}

    @pytest.mark.parametrize(
        "text",
        [
            "x = 3\nx = 4\n",  # assigned twice
            "x = 1|0\n",  # position holding a set
            "X = 3\n",  # set without a period
            "X = 2|0\n",  # non bit
            "X = |0\n",  # empty prefix
            "x = -1\n",
            "x = abc\n",
            "just words\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_interpretation(text)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("# header\nX = 1 | 0\nY = 1 0 2 | 0\n", 3, 5),
            ("x = 3\n\n  x = 4  # again\n", 3, 3),
            ("X = 1|0\r\nx = -1\r\n", 2, 5),
            ("X = 1 |  |0\n", 1, 10),
            ("# header\n\n   just words\n", 3, 4),
            ("x = 3\nX = 0 |\tx1", 2, 9),
        ],
    )
    def test_error_names_line_and_column(self, text, line, column):
        lines = text.split("\n")
        offset = sum(len(s) + 1 for s in lines[: line - 1]) + column - 1
        with pytest.raises(ParseError, match=rf"^line {line}, column {column}: ") as err:
            parse_interpretation(text)
        assert err.value.position == offset
        assert str(err.value).endswith(f" (at offset {offset})")

    def test_format_round_trip(self):
        rng = random.Random(413)
        for _ in range(200):
            sets = {
                name: random_up_word(rng, 2)
                for name in ("X", "Y")
                if rng.random() < 0.8
            }
            nums = {"x": rng.randrange(5)} if rng.random() < 0.5 else {}
            text = format_interpretation(
                parse_interpretation(
                    "".join(
                        f"{n} = {''.join(map(str, w.prefix))}|{''.join(map(str, w.period))}\n"
                        for n, w in sets.items()
                    )
                    + "".join(f"{n} = {v}\n" for n, v in nums.items())
                )
            )
            back = parse_interpretation(text)
            assert back.nums == nums
            assert set(back.sets) == set(sets)
            for name in sets:
                assert up_equiv(back.sets[name], sets[name])

    def test_normalize_examples(self):
        assert normalize_up_bits(UpWord((0, 1, 1), (1,))) == UpWord((0,), (1,))
        assert normalize_up_bits(UpWord((0,), (0, 1, 0, 1))) == UpWord((0,), (0, 1))
        assert normalize_up_bits(UpWord((1,), (1,))) == UpWord((1,), (1,))

    def test_normalize_preserves_word(self):
        rng = random.Random(414)
        for _ in range(300):
            w = random_up_word(rng, 2, max_pre=4, max_per=4)
            assert up_equiv(normalize_up_bits(w), w)


# -- sat ----------------------------------------------------------------------------


class TestSat:
    def test_closed_full_formula(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "ex1 x. ex1 y. x < y\n")
        assert run_cli(capsys, "sat", f) == (0, "SAT\n", "")

    def test_unsat_exit_one(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "!(X sub X)\n")
        assert run_cli(capsys, "sat", f) == (1, "UNSAT\n", "")

    def test_witness_covers_free_variables(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        code, out, err = run_cli(capsys, "sat", f)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "SAT"
        witness = parse_interpretation("\n".join(lines[1:]))
        assert set(witness.sets) == {"X", "Y"}

    def test_witness_rechecks_as_member(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "ex2 Z. (X sub Z) & (Z sub Y)\n")
        code, out, _ = run_cli(capsys, "sat", f)
        assert code == 0
        i = write(tmp_path, "w.interp", out.split("\n", 1)[1])
        assert run_cli(capsys, "check", f, i) == (0, "MEMBER\n", "")

    def test_first_order_witness(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "x < y\n")
        code, out, _ = run_cli(capsys, "sat", f)
        assert code == 0
        witness = parse_interpretation(out.split("\n", 1)[1])
        assert witness.nums["x"] < witness.nums["y"]

    def test_budget_flag_accepted(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        code, out, _ = run_cli(capsys, "sat", f, "--max-colors", "50000")
        assert code == 0 and out.startswith("SAT\n")

    def test_color_budget_exits_two(self, capsys, tmp_path):
        # "X has no infinite subset" reaches the general complement, whose
        # color closure outgrows two colors
        often = "!(ex1 x. !(ex1 y. x < y & y in Z))"
        text = f"!(ex2 Z. ({often}) & !(ex1 z. z in Z & !(z in X)))\n"
        f = write(tmp_path, "f.s1s", text)
        assert run_cli(capsys, "sat", f, "--max-colors", "2") == (
            2,
            "",
            "error: more than 2 realizable colors\n",
        )
        assert run_cli(capsys, "sat", f)[0] == 0

    # the formula above under a quantifier that check compiles, behind a
    # left operand x < y that check decides first
    BEHIND_BUDGET = (
        "x < y & (ex2 W. !(ex2 Z. (!(ex1 x. !(ex1 y. x < y & y in Z)))"
        " & !(ex1 z. z in Z & !(z in X))))\n"
    )

    def test_check_skips_an_over_budget_operand(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", self.BEHIND_BUDGET)
        i = write(tmp_path, "i.interp", "X = 0 | 0\nx = 1\ny = 0\n")
        assert run_cli(capsys, "check", f, i, "--max-colors", "2") == (1, "NONMEMBER\n", "")

    def test_check_of_an_over_budget_operand_exits_two(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", self.BEHIND_BUDGET)
        i = write(tmp_path, "i.interp", "X = 0 | 0\nx = 0\ny = 1\n")
        assert run_cli(capsys, "check", f, i, "--max-colors", "2") == (
            2,
            "",
            "error: more than 2 realizable colors\n",
        )
        assert run_cli(capsys, "check", f, i) == (0, "MEMBER\n", "")


# far deeper than the interpreter's recursion limit
DEPTH_INPUTS = {
    "not-chain": "!" * 3000 + "X < Y",
    "and-chain": " & ".join(["X sub Y", "X < Y", "!Y < X"] * 400),
    "parentheses": "(" * 3000 + "X sub Y" + ")" * 3000,
    "first-order-not-chain": "!" * 3000 + "x < y",
}


@pytest.mark.parametrize("text", DEPTH_INPUTS.values(), ids=DEPTH_INPUTS)
def test_deep_formulas_answer(capsys, tmp_path, text):
    f = write(tmp_path, "f.s1s", text + "\n")
    code, out, err = run_cli(capsys, "sat", f)
    assert (code, err) == (0, "") and out.startswith("SAT\n")
    i = write(tmp_path, "w.interp", out.split("\n", 1)[1])
    assert run_cli(capsys, "check", f, i) == (0, "MEMBER\n", "")


def test_nested_quantifiers_over_31_variables(capsys, tmp_path):
    # every node of the nested family reads at most two variables, so sat
    # and check never build the 2^31 letters of the declared alphabet
    text = "X0 sub X0"
    for i in range(30):
        text = f"ex2 Z{i}. ({text}) & Z{i} sub X0"
    assert len(parse_formula(text).variables) == 31
    f = write(tmp_path, "f.s1s", text + "\n")
    code, out, err = run_cli(capsys, "sat", f)
    assert (code, err) == (0, "") and out.startswith("SAT\n")
    i = write(tmp_path, "w.interp", out.split("\n", 1)[1])
    assert run_cli(capsys, "check", f, i) == (0, "MEMBER\n", "")


# -- check --------------------------------------------------------------------------


class TestCheck:
    def test_member(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        i = write(tmp_path, "i.interp", "X = 1 | 0\nY = 1 | 0\n")
        assert run_cli(capsys, "check", f, i) == (0, "MEMBER\n", "")

    def test_nonmember(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        i = write(tmp_path, "i.interp", "X = 1 | 0\nY = 0 | 0\n")
        assert run_cli(capsys, "check", f, i) == (1, "NONMEMBER\n", "")

    def test_full_formula_with_positions(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "x < y\n")
        good = write(tmp_path, "g.interp", "x = 0\ny = 1\n")
        bad = write(tmp_path, "b.interp", "x = 1\ny = 1\n")
        assert run_cli(capsys, "check", f, good)[0] == 0
        assert run_cli(capsys, "check", f, bad)[0] == 1

    def test_unassigned_variable_is_an_error(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        i = write(tmp_path, "i.interp", "X = 1 | 0\n")
        code, out, err = run_cli(capsys, "check", f, i)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Y" in err

    def test_undeclared_variable_is_an_error(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        i = write(tmp_path, "i.interp", "X = 1|0\nY = 1|0\nZ = 1|0\n")
        code, _, err = run_cli(capsys, "check", f, i)
        assert code == 2 and err.startswith("error:")


# -- compile ------------------------------------------------------------------------


class TestCompile:
    def test_writes_parseable_automaton(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        out_file = tmp_path / "a.nfa"
        code, out, err = run_cli(capsys, "compile", f, str(out_file))
        assert (code, err) == (0, "")
        assert out == "states 1 alphabet 4\n"
        aut = parse_nfa(out_file.read_text())
        assert aut.state_count == 1 and aut.alphabet_size == 4

    def test_compiled_language_via_member(self, capsys, tmp_path):
        # alphabet letters pack X into bit 0 and Y into bit 1
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        assert run_cli(capsys, "member", a, "3 | 0")[0] == 0
        assert run_cli(capsys, "member", a, "1 1 | 0 0")[0] == 1

    def test_unsat_formula_compiles_to_empty(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "!(X sub X)\n")
        a = str(tmp_path / "a.nfa")
        code, out, _ = run_cli(capsys, "compile", f, a)
        assert code == 0 and out == "states 0 alphabet 2\n"
        assert run_cli(capsys, "empty", a) == (1, "UNSAT\n", "")

    def test_stats_prints_one_line_per_node(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "!(X < Y) & (X sub Y)\n")
        a = str(tmp_path / "a.nfa")
        code, out, _ = run_cli(capsys, "compile", f, a, "--stats")
        assert code == 0
        assert out.splitlines() == [
            "states 2 alphabet 4",
            "     3  X < Y",
            "     2  !X < Y",
            "     1  X sub Y",
            "     2  !X < Y & X sub Y",
        ]

    def test_stats_lines_match_whole_formula_rendering(self, capsys, tmp_path):
        # the TRIV merge formula, the formulas whose node counts
        # test_logic pins, and a chain deep enough that every line is cut
        rng = random.Random(107)
        texts = [format_formula(phi_merge(new_semigroup(1, [[0]])))]
        for _ in range(20):
            depth = rng.randint(1, 3)
            texts.append(format_formula(random_full_formula(rng, ("x", "y"), ("X",), depth, 2)))
        texts.append("!" * 300 + "X < Y")
        cut = 0
        for k, text in enumerate(texts):
            parsed = parse_formula(text)
            if parsed.is_full:
                parts = parsed.formula, parsed.first_order, parsed.second_order
                reduced, variables = reduce_full(*parts)
            else:
                reduced, variables = parsed.formula, parsed.variables
            collected = []
            translate(reduced, variables, stats=collected)
            expected = []
            for node, count in collected:
                shown = format_formula(node)
                if len(shown) > 72:
                    shown = shown[:69] + "..."
                    cut += 1
                expected.append(f"{count:>6}  {shown}")
            f = write(tmp_path, f"f{k}.s1s", text + "\n")
            code, out, _ = run_cli(capsys, "compile", f, str(tmp_path / "a.nfa"), "--stats")
            assert code == 0
            assert out.splitlines()[1:] == expected
        assert cut > 200

    def test_dot_output(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        dot = tmp_path / "a.dot"
        code, _, _ = run_cli(capsys, "compile", f, a, "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_full_formula_compiles_over_helper_alphabet(self, capsys, tmp_path):
        # tracks for x, X and the singleton helper give a 2^3 letter alphabet
        f = write(tmp_path, "f.s1s", "ex1 x. x in X\n")
        a = str(tmp_path / "a.nfa")
        code, out, _ = run_cli(capsys, "compile", f, a)
        assert code == 0
        assert out == "states 3 alphabet 8\n"


# -- complement ---------------------------------------------------------------------


class TestComplement:
    def test_stats_for_inclusion_automaton(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        c = tmp_path / "c.nfa"
        code, out, err = run_cli(capsys, "complement", a, str(c), "--stats")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "states 9 alphabet 4",
            "colors 2",
            "kinds 4",
            "incompatible 3",
            "proper 3",
            "blocks 2",
        ]
        parse_nfa(c.read_text())

    def test_color_budget_exits_two_without_output(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        c = tmp_path / "c.nfa"
        assert run_cli(capsys, "complement", a, str(c), "--max-colors", "1") == (
            2,
            "",
            "error: more than 1 realizable colors\n",
        )
        assert not c.exists()

    def test_without_stats_only_size_line(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        code, out, _ = run_cli(capsys, "complement", a, str(tmp_path / "c.nfa"))
        assert code == 0 and out == "states 9 alphabet 4\n"

    def test_exactly_one_side_accepts(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        c = str(tmp_path / "c.nfa")
        run_cli(capsys, "compile", f, a)
        run_cli(capsys, "complement", a, c)
        rng = random.Random(415)
        for _ in range(40):
            sigma = random_up_word(rng, 4)
            text = " ".join(map(str, sigma.prefix)) + " | " + " ".join(
                map(str, sigma.period)
            )
            in_a = run_cli(capsys, "member", a, text)[0]
            in_c = run_cli(capsys, "member", c, text)[0]
            assert {in_a, in_c} == {0, 1}


# -- product and union --------------------------------------------------------------


class TestProductUnion:
    def make_two(self, capsys, tmp_path):
        fa = write(tmp_path, "fa.s1s", "X sub Y\n")
        fb = write(tmp_path, "fb.s1s", "Y sub X\n")
        a, b = str(tmp_path / "a.nfa"), str(tmp_path / "b.nfa")
        run_cli(capsys, "compile", fa, a)
        run_cli(capsys, "compile", fb, b)
        return a, b

    def test_product(self, capsys, tmp_path):
        a, b = self.make_two(capsys, tmp_path)
        out_file = tmp_path / "p.nfa"
        code, out, _ = run_cli(capsys, "product", a, b, str(out_file))
        assert code == 0 and out.startswith("states ")
        prod = parse_nfa(out_file.read_text())
        A, B = parse_nfa((tmp_path / "a.nfa").read_text()), parse_nfa(
            (tmp_path / "b.nfa").read_text()
        )
        rng = random.Random(416)
        for _ in range(60):
            sigma = random_up_word(rng, 4)
            assert membership_up(prod, sigma) == (
                membership_up(A, sigma) and membership_up(B, sigma)
            )

    def test_union(self, capsys, tmp_path):
        a, b = self.make_two(capsys, tmp_path)
        out_file = tmp_path / "u.nfa"
        code, out, _ = run_cli(capsys, "union", a, b, str(out_file))
        assert code == 0 and out.startswith("states ")
        uni = parse_nfa(out_file.read_text())
        A, B = parse_nfa((tmp_path / "a.nfa").read_text()), parse_nfa(
            (tmp_path / "b.nfa").read_text()
        )
        rng = random.Random(417)
        for _ in range(60):
            sigma = random_up_word(rng, 4)
            assert membership_up(uni, sigma) == (
                membership_up(A, sigma) or membership_up(B, sigma)
            )


# -- empty and member ---------------------------------------------------------------


class TestEmptyMember:
    def test_empty_sat_prints_checkable_witness(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        code, out, _ = run_cli(capsys, "empty", a)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SAT"
        word = parse_up_word(lines[1])
        assert membership_up(parse_nfa((tmp_path / "a.nfa").read_text()), word)

    def test_member_witness_is_the_same_word(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        code, out, _ = run_cli(capsys, "member", a, "(0 3|2 0)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "MEMBER"
        assert up_equiv(parse_up_word(lines[1]), parse_up_word("(0 3|2 0)"))

    def test_member_witness_stem_stops_at_the_first_accepting_cycle(self, capsys, tmp_path):
        # the words with infinitely many 1s; state 1 has just read a 1
        a = write(
            tmp_path,
            "inf_ones.nfa",
            "nfa 2 2\ninitial 0\naccepting 1\n"
            "trans 0 0 0\ntrans 0 1 1\ntrans 1 0 0\ntrans 1 1 1\n",
        )
        assert run_cli(capsys, "member", a, "0 | 1") == (0, "MEMBER\nup 0 1 | 1\n", "")

    def test_member_rejects(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        assert run_cli(capsys, "member", a, "1 | 0") == (1, "NONMEMBER\n", "")


# -- corpus -------------------------------------------------------------------------


class TestCorpus:
    def test_emits_all_five_files(self, capsys, tmp_path):
        sg = write(tmp_path, "lp.sg", "semigroup 2\n0 0\n1 1\n")
        outdir = tmp_path / "corpus"
        code, out, err = run_cli(capsys, "corpus", sg, str(outdir))
        assert (code, err) == (0, "")
        names = [
            "merge0.nfa",
            "exists_prefix_merge.nfa",
            "never_merge.nfa",
            "rf.nfa",
            "merge.s1s",
        ]
        assert out.splitlines() == [f"wrote {outdir / n}" for n in names]
        for n in names:
            assert (outdir / n).exists()
        for n in names[:4]:
            parse_nfa((outdir / n).read_text())

    def test_formula_round_trips_to_phi_merge(self, capsys, tmp_path):
        sg = write(tmp_path, "lp.sg", "semigroup 2\n0 0\n1 1\n")
        outdir = tmp_path / "corpus"
        run_cli(capsys, "corpus", sg, str(outdir))
        parsed = parse_formula((outdir / "merge.s1s").read_text())
        g = new_semigroup(2, [[0, 0], [1, 1]])
        assert parsed.formula == phi_merge(g)
        assert parsed.first_order == ("z", "x", "y", "u", "v", "w")

    def test_creates_output_directory(self, capsys, tmp_path):
        sg = write(tmp_path, "t.sg", "semigroup 1\n0\n")
        nested = tmp_path / "deep" / "er"
        code, _, _ = run_cli(capsys, "corpus", sg, str(nested))
        assert code == 0 and (nested / "rf.nfa").exists()


# -- error handling -----------------------------------------------------------------


class TestErrors:
    def test_malformed_formula(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub\n")
        code, out, err = run_cli(capsys, "sat", f)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "(at offset" in err
        assert err.count("error:") == 1

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sat", str(tmp_path / "nope.s1s"))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_malformed_automaton(self, capsys, tmp_path):
        a = write(tmp_path, "a.nfa", "not an automaton\n")
        code, _, err = run_cli(capsys, "empty", a)
        assert code == 2 and err.startswith("error:")

    def test_second_initial_line(self, capsys, tmp_path):
        a = write(
            tmp_path, "a.nfa", "nfa 2 1\ninitial 0\ninitial 1\naccepting 0\ntrans 0 0 0\n"
        )
        code, out, err = run_cli(capsys, "empty", a)
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: second 'initial' line")

    def test_malformed_word(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        a = str(tmp_path / "a.nfa")
        run_cli(capsys, "compile", f, a)
        code, _, err = run_cli(capsys, "member", a, "no bar here")
        assert code == 2 and err.startswith("error:")

    def test_word_letter_not_an_integer(self, capsys, tmp_path):
        a = write(tmp_path, "a.nfa", "nfa 1 2\ninitial 0\naccepting 0\ntrans 0 0 0\n")
        code, out, err = run_cli(capsys, "member", a, "0 x | 1")
        assert code == 2 and out == ""
        assert err.startswith("error: prefix: expected a letter (integer), found 'x'")

    def test_bad_semigroup_table(self, capsys, tmp_path):
        sg = write(tmp_path, "bad.sg", "semigroup 2\n1 0\n1 0\n")
        code, _, err = run_cli(capsys, "corpus", sg, str(tmp_path / "out"))
        assert code == 2 and err.startswith("error:")

    def test_negative_max_colors(self, capsys, tmp_path):
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        with pytest.raises(SystemExit) as stop:
            main(["sat", f, "--max-colors", "-3"])
        captured = capsys.readouterr()
        assert stop.value.code == 2 and captured.out == ""
        assert "argument --max-colors: must be nonnegative, got -3" in captured.err

    def test_out_of_memory_exits_2_not_unsat(self, capsys, tmp_path, monkeypatch):
        # exit 1 means UNSAT, so running out of memory must not reach it
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "sat_min", exhausted)
        f = write(tmp_path, "f.s1s", "X sub Y\n")
        code, out, err = run_cli(capsys, "sat", f)
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"

    def test_semigroup_entry_not_an_integer(self, capsys, tmp_path):
        sg = write(tmp_path, "bad.sg", "semigroup 2\n0 x\n1 1\n")
        code, out, err = run_cli(capsys, "corpus", sg, str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: expected an integer, found 'x'")


def test_calls_share_one_parser(capsys, tmp_path, monkeypatch):
    # built on first use and reused; a flag given to one call does not
    # carry over to the next, nor does a failed call spoil the parser
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    f = write(tmp_path, "f.s1s", "X sub Y\n")
    a = str(tmp_path / "a.nfa")
    code, with_stats, _ = run_cli(capsys, "compile", f, a, "--stats")
    assert code == 0
    assert run_cli(capsys, "sat", str(tmp_path / "nope.s1s"))[0] == 2
    code, plain, _ = run_cli(capsys, "compile", f, a)
    assert code == 0
    assert len(plain.splitlines()) < len(with_stats.splitlines())
    assert len(parsers) == 3 and all(p is parsers[0] for p in parsers)


def test_console_script_installed(tmp_path):
    f = tmp_path / "f.s1s"
    f.write_text("X sub Y\n")
    # the package's src directory first, as pytest's pythonpath setting
    # does not reach a subprocess
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "s1sup.cli", "sat", str(f)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("SAT\n")


def _run_python(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports the package from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_small_commands_never_load_numpy(tmp_path):
    # every automaton here stays below buchi._ARRAY_CROSSOVER, so no array
    # route runs and numpy is never imported; a bare "numpy" entry in
    # sys.modules does not tell (a lazy loader puts one there), its core does
    (tmp_path / "a.nfa").write_text(
        "nfa 2 2\ninitial 0\naccepting 1\ntrans 0 0 0\ntrans 0 1 1\ntrans 1 1 1\n")
    (tmp_path / "f.s1s").write_text("ex2 Z. (X sub Z) & Z sub Y\n")
    (tmp_path / "i.txt").write_text("X = 0|1\nY = 1|1\n")
    script = f"""
import contextlib, io, os, sys
from s1sup import cli
os.chdir({str(tmp_path)!r})
runs = [["member", "a.nfa", "0 | 1"], ["empty", "a.nfa"], ["complement", "a.nfa", "c.nfa"],
        ["product", "a.nfa", "c.nfa", "p.nfa"], ["empty", "p.nfa"], ["sat", "f.s1s"],
        ["check", "f.s1s", "i.txt"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, "numpy._core" in sys.modules)
"""
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 1, 0, 0] False\n"


def test_merge_compile_loads_numpy():
    # TRIV's merge formula reaches the switch, so the array routes run
    script = """
import sys
from s1sup import encodings, logic
from s1sup.semigroup import new_semigroup
g = new_semigroup(1, [[0]])
A = logic.translate(*logic.reduce_full(encodings.phi_merge(g), encodings.MERGE_FIRST_ORDER,
                                       encodings.merge_second_order(g)))
print(A.state_count, "numpy._core" in sys.modules)
"""
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "True"
