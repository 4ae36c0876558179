"""The benchmark workloads.

Each workload builds its inputs from the seed in `prepare`, runs one timed
pass as a closed loop of tasks in `run_pass`, and checks every verdict
against an independent oracle in `check`, outside the timed region.  Calls
into s1sup go through module attributes (`buchi.membership_up`, not a
name imported into this file), so an installed tracer sees them.

The automata of `complement-law` and `cli-requests` are a fixed corpus,
the test-01 sample of tests/test_acceptance.py (seed 101), and so are the
`cli-requests` formulas (seed 107).  Run time is concentrated in a few
inputs (two of the 200 automata take 80% of `complement-law`), so drawing
them per seed would move the totals far more than any bound allows.  The
seed draws everything else: the probe words, the interpretations, the
merge grid and the request order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import random
import sys
import time
import traceback
from pathlib import Path

import oracles

# by module, not `from s1sup import ...`: the package re-exports the
# function `complement` under the name of its module
buchi, cli, complement, encodings, logic, semigroup, syntax = (
    importlib.import_module(f"s1sup.{name}")
    for name in ("buchi", "cli", "complement", "encodings", "logic", "semigroup", "syntax")
)

CORPUS_SEED = 101

# small automaton used for warm-up: it accepts 0*1^omega
WARM_AUTOMATON = "nfa 2 2\ninitial 0\naccepting 1\ntrans 0 0 0\ntrans 0 1 1\ntrans 1 1 1\n"


class Failed:
    """A task that raised; counted as a failure, never dropped."""

    def __init__(self, error: str):
        self.error = error

    def __repr__(self) -> str:
        return f"Failed({self.error.strip().splitlines()[-1]!r})"


class Clock:
    """Times each task of a pass; a task that raises becomes a Failed record."""

    def __init__(self, tracer):
        self.latencies: list[float] = []
        self.tracer = tracer

    def timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.task = len(self.latencies)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # counted as a failed task, the run goes on
            result = Failed(traceback.format_exc())
        self.latencies.append(time.perf_counter() - start)
        if isinstance(result, Failed):
            print(result.error, file=sys.stderr)
        return result


def corpus_automata(count: int) -> list:
    """The first `count` automata of the test-01 sample, drawn in the same
    order as test_01_complement_law (which draws 50 words after each)."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(count):
        out.append(oracles.random_buchi(rng, max_states=3, alphabet=2))
        for _ in range(50):
            oracles.random_up_word(rng, 2, max_pre=3, max_per=3)
    return out


# -- complement-law --------------------------------------------------------------


def _law_task(A, words) -> tuple:
    C, info = complement.complement_with_stats(A)
    verdicts = "".join(
        f"{int(buchi.membership_up(A, w))}{int(buchi.membership_up(C, w))}"
        for w in words
    )
    return (C.state_count, info.colors, info.kinds, info.incompatible, verdicts)


class ComplementLaw:
    """complement_with_stats(A) for each corpus automaton, then 50 seeded UP
    words tested for membership in both A and its complement C."""

    name = "complement-law"
    AUTOMATA = 200
    WORDS = 50
    inputs = {"automata": AUTOMATA, "max_states": 3, "alphabet": 2, "words_each": WORDS}
    labels = None

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.tasks = [
            (A, [oracles.random_up_word(rng, 2, 3, 3) for _ in range(self.WORDS)])
            for A in corpus_automata(self.AUTOMATA)
        ]
        _law_task(buchi.parse_nfa(WARM_AUTOMATON), self.tasks[0][1])

    def run_pass(self, clock) -> list:
        return [clock.timed(_law_task, A, words) for A, words in self.tasks]

    def check(self, records) -> dict[int, str]:
        failures = {}
        for i, ((A, words), rec) in enumerate(zip(self.tasks, records)):
            if isinstance(rec, Failed):
                failures[i] = repr(rec)
                continue
            # A by direct run-graph search, C must say the opposite
            want = "".join(
                "10" if oracles.naive_membership_up(A, w) else "01" for w in words
            )
            if rec[4] != want:
                failures[i] = f"automaton {i}: verdicts {rec[4]} want {want}"
        return failures

    def describe(self, rec) -> str:
        return repr(rec)

    def out_states(self, records) -> int:
        return sum(r[0] for r in records if not isinstance(r, Failed))


# -- merge-compile ---------------------------------------------------------------

SEMIGROUPS = (
    ("TRIV", semigroup.new_semigroup(1, [[0]])),
    ("LP", semigroup.new_semigroup(2, [[0, 0], [1, 1]])),
    ("Z2", semigroup.new_semigroup(2, [[0, 1], [1, 0]])),
)


def _compile_merge(g) -> tuple:
    phi = encodings.phi_merge(g)
    reduced, variables = logic.reduce_full(
        phi, encodings.MERGE_FIRST_ORDER, encodings.merge_second_order(g)
    )
    return logic.translate(reduced, variables), variables


class MergeCompile:
    """translate(reduce_full(phi_merge(g))) for TRIV, LP and Z2, in that
    order; each automaton is then checked on a seeded grid of (word, i, j)
    against semigroup.merges_up.  Z3 is left out: its compile did not
    finish within 420 s."""

    name = "merge-compile"
    PROBES = 100
    inputs = {"semigroups": [name for name, _ in SEMIGROUPS], "grid_probes_each": PROBES}
    labels = tuple(f"compile_{name.lower()}_s" for name, _ in SEMIGROUPS)

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.grid = [
            [
                (oracles.random_up_word(rng, g.size, 3, 3), rng.randrange(5), rng.randrange(5))
                for _ in range(self.PROBES)
            ]
            for _, g in SEMIGROUPS
        ]
        _compile_merge(SEMIGROUPS[0][1])

    def run_pass(self, clock) -> list:
        return [clock.timed(_compile_merge, g) for _, g in SEMIGROUPS]

    def check(self, records) -> dict[int, str]:
        failures = {}
        for i, ((name, g), rec, grid) in enumerate(zip(SEMIGROUPS, records, self.grid)):
            if isinstance(rec, Failed):
                failures[i] = repr(rec)
                continue
            aut, variables = rec
            bad = 0
            for sigma, x, y in grid:
                interp = logic.encode_interp(encodings.interp_of_word(g, sigma, x, y))
                word = logic.interp_to_upword(interp, variables)
                if buchi.membership_up(aut, word) != semigroup.merges_up(g, sigma, x, y):
                    bad += 1
            if bad:
                failures[i] = f"{name}: {bad} of {len(grid)} grid probes disagree with merges_up"
        return failures

    def describe(self, rec) -> str:
        return repr(rec) if isinstance(rec, Failed) else buchi.format_nfa(rec[0])

    def out_states(self, records) -> int:
        return sum(r[0].state_count for r in records if not isinstance(r, Failed))


# -- cli-requests ----------------------------------------------------------------

FO, SO = ("x", "y"), ("X",)
# every binary UP word with prefix and period of length 1 or 2
_SHORT = [t for n in (1, 2) for t in itertools.product((0, 1), repeat=n)]
SHORT_WORDS = [semigroup.UpWord(pre, per) for pre in _SHORT for per in _SHORT]
AUT_STEPS = ("complement", "product", "empty P", "member A", "member C", "empty C")


def _request(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            rc = stop.code
    return rc, out.getvalue()


def _names(phi) -> set[str]:
    """Every variable the formula mentions, free or bound."""
    if isinstance(phi, logic.FoLess):
        return {phi.left, phi.right}
    if isinstance(phi, logic.FoIn):
        return {phi.elem, phi.container}
    if isinstance(phi, logic.FoAnd):
        return _names(phi.left) | _names(phi.right)
    if isinstance(phi, (logic.FoEx1, logic.FoEx2)):
        return {phi.var} | _names(phi.sub)
    return _names(phi.sub)


def _quantifier_free(phi) -> bool:
    if isinstance(phi, (logic.FoEx1, logic.FoEx2)):
        return False
    if isinstance(phi, logic.FoAnd):
        return _quantifier_free(phi.left) and _quantifier_free(phi.right)
    if isinstance(phi, logic.FoNot):
        return _quantifier_free(phi.sub)
    return True


def _witness(out: str) -> str:
    return out.split("\n", 1)[1]


class CliRequests:
    """One client calling s1sup.cli.main in-process on a seeded mix of
    request groups.  Per corpus automaton A: complement A C, product A C P,
    empty P, member A w, member C w, empty C.  Per corpus full-syntax
    formula F: sat F, check F on the SAT witness, check F I.  The seed draws
    w, I and the order of the groups."""

    name = "cli-requests"
    # the first 46 automata of the test-01 sample.  The 47th has a
    # 533k-state complement whose product has 3.2M states and needs about
    # 2.8 GB and 60 s; complement-law measures that complement.
    AUTOMATA = 46
    # formulas drawn as in test 07 from a fixed seed: which formulas land in
    # the slowest 5% of requests otherwise moves task_p95_ms by about 10%.
    # 150 keeps a pass short enough for three passes in a 30 s run.
    FORMULAS = 150
    FORMULA_SEED = 107
    inputs = {"automata": AUTOMATA, "formulas": FORMULAS, "formula_seed": FORMULA_SEED}
    labels = None

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        groups = []
        for k, A in enumerate(corpus_automata(self.AUTOMATA)):
            path = workdir / f"a{k}.nfa"
            path.write_text(buchi.format_nfa(A), encoding="utf-8")
            word = oracles.random_up_word(rng, 2, 3, 3)
            groups.append(("aut", k, A, word))
        formula_rng = random.Random(self.FORMULA_SEED)
        for j in range(self.FORMULAS):
            depth = formula_rng.randint(1, 3)
            phi = oracles.random_full_formula(formula_rng, FO, SO, depth, quantifiers=2)
            # the CLI rejects assignments to variables the formula does not
            # mention, so keep only those
            full = oracles.random_full_interp(rng, FO, SO)
            used = _names(phi)
            interp = logic.UpInterpretation(
                sets={v: w for v, w in full.sets.items() if v in used},
                nums={v: n for v, n in full.nums.items() if v in used},
            )
            (workdir / f"f{j}.s1s").write_text(syntax.format_formula(phi) + "\n", encoding="utf-8")
            (workdir / f"i{j}.txt").write_text(
                syntax.format_interpretation(interp), encoding="utf-8"
            )
            groups.append(("formula", j, phi, interp))
        rng.shuffle(groups)
        self.groups = groups
        self.workdir = workdir
        warm = workdir / "warm"
        warm.mkdir(exist_ok=True)
        (warm / "a0.nfa").write_text(WARM_AUTOMATON, encoding="utf-8")
        (warm / "f0.s1s").write_text("x < y\n", encoding="utf-8")
        (warm / "i0.txt").write_text("x = 1\ny = 2\n", encoding="utf-8")
        self._run_groups(warm, [("aut", 0, None, semigroup.UpWord((0,), (1,))), ("formula", 0, None, None)], None)

    def run_pass(self, clock) -> list:
        return self._run_groups(self.workdir, self.groups, clock)

    def _run_groups(self, d: Path, groups, clock) -> list:
        send = clock.timed if clock is not None else (lambda fn, *a: fn(*a))
        records = []
        for kind, k, _, word in groups:
            if kind == "aut":
                a, c, p = (str(d / f"{x}{k}.nfa") for x in "acp")
                w = semigroup.format_up_word(word)
                argvs = (
                    ["complement", a, c],
                    ["product", a, c, p],
                    ["empty", p],
                    ["member", a, w],
                    ["member", c, w],
                    ["empty", c],
                )
                for step, argv in zip(AUT_STEPS, argvs):
                    records.append((kind, k, step, send(_request, argv)))
                continue
            f, i, wit = (str(d / name) for name in (f"f{k}.s1s", f"i{k}.txt", f"w{k}.txt"))
            sat = send(_request, ["sat", f])
            records.append((kind, k, "sat", sat))
            if not isinstance(sat, Failed) and sat[0] == 0:
                Path(wit).write_text(_witness(sat[1]), encoding="utf-8")
                records.append((kind, k, "check W", send(_request, ["check", f, wit])))
            records.append((kind, k, "check I", send(_request, ["check", f, i])))
        return records

    def check(self, records) -> dict[int, str]:
        given = {(kind, k): (obj, extra) for kind, k, obj, extra in self.groups}
        failures = {}
        earlier: dict[tuple, tuple] = {}
        for index, (kind, k, step, rec) in enumerate(records):
            problem = None
            if isinstance(rec, Failed):
                problem = repr(rec)
            elif rec[0] not in (0, 1):
                problem = f"exit {rec[0]}"
            else:
                try:
                    problem = self._oracle(
                        kind, step, rec, given[(kind, k)], earlier.get((kind, k))
                    )
                except (ValueError, KeyError, IndexError) as err:
                    problem = f"unreadable output {rec[1]!r}: {err}"
            if step in ("sat", "member A") and not isinstance(rec, Failed):
                earlier[(kind, k)] = rec
            if problem:
                failures[index] = f"{kind} {k} {step}: {problem}"
        return failures

    @staticmethod
    def _oracle(kind, step, rec, inp, earlier) -> str | None:
        rc, out = rec
        if kind == "aut":
            A, word = inp
            if step in ("complement", "product"):
                return None if rc == 0 and out.startswith("states ") else "no output automaton"
            if step == "empty P":
                return None if rc == 1 else "A x C is nonempty"
            member = rc == 0
            witness = semigroup.parse_up_word(_witness(out)) if member else None
            if step == "member A":
                if member != oracles.naive_membership_up(A, word):
                    return "verdict differs from the run-graph oracle"
                if member and not oracles.naive_membership_up(A, witness):
                    return "A rejects its own witness"
                return None
            if step == "member C":
                if earlier is None or member == (earlier[0] == 0):
                    return "A and C agree on w"
                if member and oracles.naive_membership_up(A, witness):
                    return "A accepts the witness of C"
                return None
            # empty C: a witness must be rejected by A; no witness means A
            # accepts every word, so it must accept all short ones
            if member and oracles.naive_membership_up(A, witness):
                return "A accepts the witness of nonempty C"
            if not member and not all(oracles.naive_membership_up(A, u) for u in SHORT_WORDS):
                return "C empty but A rejects a short word"
            return None
        phi, interp = inp
        if step == "check W":
            return None if rc == 0 else "SAT witness does not check"
        if step == "sat":
            if rc == 0 and _quantifier_free(phi):
                found = syntax.parse_interpretation(_witness(out))
                if not oracles.naive_models_full(found, phi):
                    return "SAT witness violates the formula"
            return None
        # check I
        if _quantifier_free(phi) and (rc == 0) != oracles.naive_models_full(interp, phi):
            return "verdict differs from naive_models_full"
        if earlier is not None and earlier[0] == 1 and rc == 0:
            return "UNSAT formula has a model"
        return None

    def describe(self, rec) -> str:
        kind, k, step, result = rec
        return repr((kind, k, step, result))

    def out_states(self, records) -> int:
        total = 0
        for _, _, step, rec in records:
            if step in ("complement", "product") and not isinstance(rec, Failed):
                if rec[0] == 0 and rec[1].startswith("states "):
                    total += int(rec[1].split()[1])
        return total


WORKLOADS = {w.name: w for w in (ComplementLaw, MergeCompile, CliRequests)}
