"""Command line front end.

Decision commands (sat, check, empty, member) print a status word first
and exit 0 on the positive verdict, 1 on the negative one.  Witnesses
follow the status: satisfying interpretations in interpretation syntax,
words and matches as "prefix | period".  File transformation commands
(compile, complement, product, union, corpus) write their result and
print short info lines.  Any error exits 2 with a message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .buchi import (
    find_match,
    format_dot,
    format_nfa,
    intersection,
    match_for_up,
    parse_nfa,
    union,
)
from .complement import DEFAULT_MAX_COLORS, complement_with_stats, rf_nfa
from .encodings import (
    exists_prefix_merge_nfa,
    merge0_nfa,
    never_merge_nfa,
    phi_merge,
)
from .logic import models_full_up, models_up, reduce_full, sat_full, sat_min, translate
from .semigroup import format_up_word, parse_semigroup, parse_up_word
from .syntax import (
    format_formula,
    format_heads,
    format_interpretation,
    parse_formula,
    parse_interpretation,
)

_EXIT = {"SAT": 0, "MEMBER": 0, None: 0, "UNSAT": 1, "NONMEMBER": 1, "ERROR": 2}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one command.

    status is SAT, UNSAT, MEMBER or NONMEMBER for decision commands and
    None for pure file transformations; witness is printable text present
    exactly for SAT and MEMBER; stats are extra info lines."""

    status: str | None
    witness: str | None = None
    stats: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _stat_line(text: str, count: int) -> str:
    # text holds at least 73 characters of the formula, or all of it
    if len(text) > 72:
        text = text[:69] + "..."
    return f"{count:>6}  {text}"


def cmd_sat(formula_file: str, max_colors: int = DEFAULT_MAX_COLORS) -> Verdict:
    parsed = parse_formula(_read(formula_file))
    if parsed.is_full:
        found = sat_full(
            parsed.formula,
            parsed.first_order,
            parsed.second_order,
            max_colors=max_colors,
        )
    else:
        found = sat_min(parsed.formula, parsed.variables, max_colors=max_colors)
    if found is None:
        return Verdict("UNSAT")
    return Verdict("SAT", witness=format_interpretation(found))


def cmd_check(
    formula_file: str, interp_file: str, max_colors: int = DEFAULT_MAX_COLORS
) -> Verdict:
    parsed = parse_formula(_read(formula_file))
    interp = parse_interpretation(_read(interp_file))
    if parsed.is_full:
        ok = models_full_up(
            interp,
            parsed.formula,
            parsed.first_order,
            parsed.second_order,
            max_colors=max_colors,
        )
    else:
        ok = models_up(interp, parsed.formula, parsed.variables, max_colors=max_colors)
    return Verdict("MEMBER" if ok else "NONMEMBER")


def cmd_compile(
    formula_file: str,
    out_file: str,
    dot_file: str | None = None,
    max_colors: int = DEFAULT_MAX_COLORS,
    stats: bool = False,
) -> Verdict:
    parsed = parse_formula(_read(formula_file))
    if parsed.is_full:
        reduced, variables = reduce_full(
            parsed.formula, parsed.first_order, parsed.second_order
        )
    else:
        reduced, variables = parsed.formula, parsed.variables
    collected: list | None = [] if stats else None
    aut = translate(reduced, variables, max_colors=max_colors, stats=collected)
    _write(out_file, format_nfa(aut))
    if dot_file:
        _write(dot_file, format_dot(aut))
    lines = [f"states {aut.state_count} alphabet {aut.alphabet_size}"]
    if collected:
        heads = format_heads(reduced, 73)
        lines.extend(_stat_line(heads[id(node)], count) for node, count in collected)
    return Verdict(None, stats=tuple(lines))


def cmd_complement(
    aut_file: str,
    out_file: str,
    max_colors: int = DEFAULT_MAX_COLORS,
    stats: bool = False,
) -> Verdict:
    aut = parse_nfa(_read(aut_file))
    comp, info = complement_with_stats(aut, max_colors=max_colors)
    _write(out_file, format_nfa(comp))
    lines = [f"states {comp.state_count} alphabet {comp.alphabet_size}"]
    if stats:
        lines.append(f"colors {info.colors}")
        lines.append(f"kinds {info.kinds}")
        lines.append(f"incompatible {info.incompatible}")
        lines.append(f"proper {info.proper}")
        lines.append(f"blocks {info.blocks}")
    return Verdict(None, stats=tuple(lines))


def cmd_product(a_file: str, b_file: str, out_file: str) -> Verdict:
    out = intersection(parse_nfa(_read(a_file)), parse_nfa(_read(b_file)))
    _write(out_file, format_nfa(out))
    return Verdict(None, stats=(f"states {out.state_count} alphabet {out.alphabet_size}",))


def cmd_union(a_file: str, b_file: str, out_file: str) -> Verdict:
    out = union(parse_nfa(_read(a_file)), parse_nfa(_read(b_file)))
    _write(out_file, format_nfa(out))
    return Verdict(None, stats=(f"states {out.state_count} alphabet {out.alphabet_size}",))


def cmd_empty(aut_file: str) -> Verdict:
    m = find_match(parse_nfa(_read(aut_file)))
    if m is None:
        return Verdict("UNSAT")
    return Verdict("SAT", witness=format_up_word(m.word()))


def cmd_member(aut_file: str, word_text: str) -> Verdict:
    aut = parse_nfa(_read(aut_file))
    m = match_for_up(aut, parse_up_word(word_text))
    if m is None:
        return Verdict("NONMEMBER")
    return Verdict("MEMBER", witness=format_up_word(m.word()))


def cmd_corpus(semigroup_file: str, out_dir: str) -> Verdict:
    g = parse_semigroup(_read(semigroup_file))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [
        ("merge0.nfa", format_nfa(merge0_nfa(g))),
        ("exists_prefix_merge.nfa", format_nfa(exists_prefix_merge_nfa(g))),
        ("never_merge.nfa", format_nfa(never_merge_nfa(g))),
        ("rf.nfa", format_nfa(rf_nfa(g))),
        ("merge.s1s", format_formula(phi_merge(g)) + "\n"),
    ]
    for name, text in files:
        _write(str(out / name), text)
    return Verdict(None, stats=tuple(f"wrote {out / name}" for name, _ in files))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use:
    building it costs about 2 ms, as much as a small request, and parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="s1sup",
        description="Decide S1S over ultimately periodic words via Buchi automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def budget(sp):
        sp.add_argument(
            "--max-colors",
            type=int,
            default=DEFAULT_MAX_COLORS,
            metavar="N",
            help="abort complementation when the color closure exceeds N",
        )

    sp = sub.add_parser("sat", help="decide satisfiability of a formula")
    sp.add_argument("formula", help="formula file")
    budget(sp)
    sp.set_defaults(run=lambda a: cmd_sat(a.formula, max_colors=a.max_colors))

    sp = sub.add_parser("check", help="check an interpretation against a formula")
    sp.add_argument("formula", help="formula file")
    sp.add_argument("interp", help="interpretation file")
    budget(sp)
    sp.set_defaults(
        run=lambda a: cmd_check(a.formula, a.interp, max_colors=a.max_colors)
    )

    sp = sub.add_parser("compile", help="compile a formula to an automaton file")
    sp.add_argument("formula", help="formula file")
    sp.add_argument("out", help="output automaton file")
    sp.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")
    sp.add_argument(
        "--stats", action="store_true", help="print one state count per formula node"
    )
    budget(sp)
    sp.set_defaults(
        run=lambda a: cmd_compile(
            a.formula, a.out, dot_file=a.dot, max_colors=a.max_colors, stats=a.stats
        )
    )

    sp = sub.add_parser("complement", help="complement an automaton file")
    sp.add_argument("aut", help="input automaton file")
    sp.add_argument("out", help="output automaton file")
    sp.add_argument(
        "--stats", action="store_true", help="print color, kind and block counts"
    )
    budget(sp)
    sp.set_defaults(
        run=lambda a: cmd_complement(
            a.aut, a.out, max_colors=a.max_colors, stats=a.stats
        )
    )

    sp = sub.add_parser("product", help="intersect two automaton files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("out")
    sp.set_defaults(run=lambda a: cmd_product(a.a, a.b, a.out))

    sp = sub.add_parser("union", help="union of two automaton files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("out")
    sp.set_defaults(run=lambda a: cmd_union(a.a, a.b, a.out))

    sp = sub.add_parser("empty", help="test emptiness, printing a match if any")
    sp.add_argument("aut", help="automaton file")
    sp.set_defaults(run=lambda a: cmd_empty(a.aut))

    sp = sub.add_parser("member", help="test an automaton against a UP word")
    sp.add_argument("aut", help="automaton file")
    sp.add_argument("word", help="UP word, e.g. '0 1 | 1 0'")
    sp.set_defaults(run=lambda a: cmd_member(a.aut, a.word))

    sp = sub.add_parser(
        "corpus", help="emit the merging automata and formula for a semigroup"
    )
    sp.add_argument("semigroup", help="semigroup table file")
    sp.add_argument("outdir", help="output directory")
    sp.set_defaults(run=lambda a: cmd_corpus(a.semigroup, a.outdir))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        verdict = args.run(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if verdict.status is not None:
        print(verdict.status)
    if verdict.witness:
        sys.stdout.write(
            verdict.witness
            if verdict.witness.endswith("\n")
            else verdict.witness + "\n"
        )
    for line in verdict.stats:
        print(line)
    return verdict.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
