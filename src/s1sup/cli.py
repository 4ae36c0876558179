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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .buchi import (
    BuchiNfa,
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

_EXIT = {"SAT": 0, "MEMBER": 0, None: 0, "UNSAT": 1, "NONMEMBER": 1}


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


def _save(path: str, aut: BuchiNfa) -> str:
    """Write aut to path; its size line."""
    _write(path, format_nfa(aut))
    return f"states {aut.state_count} alphabet {aut.alphabet_size}"


def cmd_sat(args: argparse.Namespace) -> Verdict:
    parsed = parse_formula(_read(args.formula))
    if parsed.is_full:
        found = sat_full(
            parsed.formula,
            parsed.first_order,
            parsed.second_order,
            max_colors=args.max_colors,
        )
    else:
        found = sat_min(parsed.formula, parsed.variables, max_colors=args.max_colors)
    if found is None:
        return Verdict("UNSAT")
    return Verdict("SAT", witness=format_interpretation(found))


def cmd_check(args: argparse.Namespace) -> Verdict:
    parsed = parse_formula(_read(args.formula))
    interp = parse_interpretation(_read(args.interp))
    if parsed.is_full:
        ok = models_full_up(
            interp,
            parsed.formula,
            parsed.first_order,
            parsed.second_order,
            max_colors=args.max_colors,
        )
    else:
        ok = models_up(interp, parsed.formula, parsed.variables, max_colors=args.max_colors)
    return Verdict("MEMBER" if ok else "NONMEMBER")


def cmd_compile(args: argparse.Namespace) -> Verdict:
    parsed = parse_formula(_read(args.formula))
    if parsed.is_full:
        reduced, variables = reduce_full(
            parsed.formula, parsed.first_order, parsed.second_order
        )
    else:
        reduced, variables = parsed.formula, parsed.variables
    collected: list | None = [] if args.stats else None
    aut = translate(reduced, variables, max_colors=args.max_colors, stats=collected)
    lines = [_save(args.out, aut)]
    if args.dot:
        _write(args.dot, format_dot(aut))
    if collected:
        heads = format_heads(reduced, 73)
        lines.extend(_stat_line(heads[id(node)], count) for node, count in collected)
    return Verdict(None, stats=tuple(lines))


def cmd_complement(args: argparse.Namespace) -> Verdict:
    comp, info = complement_with_stats(
        parse_nfa(_read(args.aut)), max_colors=args.max_colors
    )
    lines = [_save(args.out, comp)]
    if args.stats:
        lines.extend(f"{name} {count}" for name, count in asdict(info).items())
    return Verdict(None, stats=tuple(lines))


def cmd_product_or_union(args: argparse.Namespace) -> Verdict:
    combine = intersection if args.command == "product" else union
    out = combine(parse_nfa(_read(args.a)), parse_nfa(_read(args.b)))
    return Verdict(None, stats=(_save(args.out, out),))


def cmd_empty(args: argparse.Namespace) -> Verdict:
    m = find_match(parse_nfa(_read(args.aut)))
    if m is None:
        return Verdict("UNSAT")
    return Verdict("SAT", witness=format_up_word(m.word()))


def cmd_member(args: argparse.Namespace) -> Verdict:
    m = match_for_up(parse_nfa(_read(args.aut)), parse_up_word(args.word))
    if m is None:
        return Verdict("NONMEMBER")
    return Verdict("MEMBER", witness=format_up_word(m.word()))


def cmd_corpus(args: argparse.Namespace) -> Verdict:
    g = parse_semigroup(_read(args.semigroup))
    out = Path(args.outdir)
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


def _max_colors(text: str) -> int:
    """The --max-colors value, a nonnegative integer; argparse reports the
    error with the option's name."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


# per command: name, handler, help and its arguments as (name, help), in
# the order --help lists them; options take their settings from _OPTIONS
_FORMULA = ("formula", "formula file")
_OUT = ("out", "output automaton file")
_AUT = ("aut", "automaton file")
_BUDGET = ("--max-colors", "abort complementation when the color closure exceeds N")
_FILES = [("a", None), ("b", None), ("out", None)]
_COMMANDS = (
    ("sat", cmd_sat, "decide satisfiability of a formula", [_FORMULA, _BUDGET]),
    (
        "check",
        cmd_check,
        "check an interpretation against a formula",
        [_FORMULA, ("interp", "interpretation file"), _BUDGET],
    ),
    (
        "compile",
        cmd_compile,
        "compile a formula to an automaton file",
        [
            _FORMULA,
            _OUT,
            ("--dot", "also write a DOT rendering"),
            ("--stats", "print one state count per formula node"),
            _BUDGET,
        ],
    ),
    (
        "complement",
        cmd_complement,
        "complement an automaton file",
        [
            ("aut", "input automaton file"),
            _OUT,
            ("--stats", "print color, kind and block counts"),
            _BUDGET,
        ],
    ),
    ("product", cmd_product_or_union, "intersect two automaton files", _FILES),
    ("union", cmd_product_or_union, "union of two automaton files", _FILES),
    ("empty", cmd_empty, "test emptiness, printing a match if any", [_AUT]),
    (
        "member",
        cmd_member,
        "test an automaton against a UP word",
        [_AUT, ("word", "UP word, e.g. '0 1 | 1 0'")],
    ),
    (
        "corpus",
        cmd_corpus,
        "emit the merging automata and formula for a semigroup",
        [("semigroup", "semigroup table file"), ("outdir", "output directory")],
    ),
)
_OPTIONS = {
    "--dot": {"metavar": "FILE"},
    "--stats": {"action": "store_true"},
    "--max-colors": {"type": _max_colors, "default": DEFAULT_MAX_COLORS, "metavar": "N"},
}


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
    for name, run, text, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=text)
        for arg, arg_help in arguments:
            sp.add_argument(arg, help=arg_help, **_OPTIONS.get(arg, {}))
        sp.set_defaults(run=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        verdict = args.run(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        # its own text is usually empty
        print("error: out of memory", file=sys.stderr)
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
