"""Monadic second order logic of one successor, over ultimately periodic
interpretations.

Two abstract syntaxes live here.  The minimal one has set variables only:
ordering and inclusion atoms, conjunction, negation and set quantification.
The full one adds first order (position) variables, with ordering and
membership atoms and both quantifier sorts; reduce_full rewrites it into
the minimal syntax by encoding positions as singleton sets.

Formulas are compiled to Buchi automata over the alphabet of variable
bitmasks; one letter fixes the membership bit of every variable at one
position.  Satisfiability and witness extraction go through that
compilation; model checking compiles only the atoms and the outermost
quantifiers, and evaluates the Boolean skeleton above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Sequence

from . import buchi
from .buchi import BuchiNfa
from .complement import DEFAULT_MAX_COLORS, complement
from .semigroup import UpWord, up_at


class UnknownVariable(ValueError):
    """A formula or interpretation mentions a variable outside the declared list."""


class UnassignedVariable(ValueError):
    """An interpretation misses values for free variables."""

    def __init__(self, names: Sequence[str]):
        super().__init__("unassigned variables: " + ", ".join(names))
        self.names = tuple(names)


class NonSingletonWitness(RuntimeError):
    """A decoded first order value was not a singleton set; indicates a bug
    in the reduction or the solver."""

    def __init__(self, var: str, word: UpWord):
        super().__init__(f"witness for {var} is not a singleton: {word}")
        self.var = var
        self.word = word


# -- abstract syntax -------------------------------------------------------------


class _Hashed:
    """Stands in a tuple for a node whose hash is already known, so that
    hashing the tuple gives what it would give with the node itself."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


class _Node:
    """Base of the formula nodes of both syntaxes: ==, hash and repr give
    the results of the methods dataclasses would generate, without
    recursion.

    Each walks the formula with an explicit stack, reading nodes through
    _parts, whose names come before the subformulas as the fields do.  ==
    and hash visit each node object, or pair of node objects, once, so a
    formula whose subformulas are shared by several parents costs time
    linear in its distinct node objects, not in its paths.  A hash is the
    hash of the tuple of the node's field values, as the generated one
    is, each subformula standing in by its own hash.  repr spells out
    every path, so its text grows with the paths; it builds that text
    once, piece by piece.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.__class__ is not b.__class__:
                return False
            (names, subs), (other_names, other_subs) = _parts(a), _parts(b)
            if names != other_names:
                return False
            stack += zip(subs, other_subs)
        return True

    def __hash__(self):
        return _fold(self, None, lambda _, names, hashes: hash((*names, *map(_Hashed, hashes))))

    def __repr__(self):
        # the stack holds nodes still to spell and text already spelled
        pieces: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                pieces.append(item)
                continue
            names, subs = _parts(item)
            values = [*map(repr, names), *subs]
            parts: list = [f"{type(item).__qualname__}("]
            for i, (field, value) in enumerate(zip(item.__dataclass_fields__, values)):
                parts += [f"{', ' if i else ''}{field}=", value]
            parts.append(")")
            stack += reversed(parts)
        return "".join(pieces)


@dataclass(frozen=True, eq=False, repr=False)
class Less(_Node):
    left: str
    right: str


@dataclass(frozen=True, eq=False, repr=False)
class Incl(_Node):
    left: str
    right: str


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "MinFormula"
    right: "MinFormula"


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    sub: "MinFormula"


@dataclass(frozen=True, eq=False, repr=False)
class Ex2(_Node):
    var: str
    sub: "MinFormula"


MinFormula = Less | Incl | And | Not | Ex2


@dataclass(frozen=True, eq=False, repr=False)
class FoLess(_Node):
    left: str
    right: str


@dataclass(frozen=True, eq=False, repr=False)
class FoIn(_Node):
    elem: str
    container: str


@dataclass(frozen=True, eq=False, repr=False)
class FoAnd(_Node):
    left: "FullFormula"
    right: "FullFormula"


@dataclass(frozen=True, eq=False, repr=False)
class FoNot(_Node):
    sub: "FullFormula"


@dataclass(frozen=True, eq=False, repr=False)
class FoEx1(_Node):
    var: str
    sub: "FullFormula"


@dataclass(frozen=True, eq=False, repr=False)
class FoEx2(_Node):
    var: str
    sub: "FullFormula"


FullFormula = FoLess | FoIn | FoAnd | FoNot | FoEx1 | FoEx2


_SORTS = {
    "minimal": (Less, Incl, And, Not, Ex2),
    "full": (FoLess, FoIn, FoAnd, FoNot, FoEx1, FoEx2),
}


def _parts(node, sort: str | None = None) -> tuple[tuple[str, ...], tuple]:
    """The variable names and the subformulas of one node of either syntax.
    A node outside sort ("minimal" or "full"), when given, is a TypeError."""
    if sort is not None and not isinstance(node, _SORTS[sort]):
        raise TypeError(f"not a {sort} formula node: {type(node).__name__}")
    if isinstance(node, (Less, Incl, FoLess)):
        return (node.left, node.right), ()
    if isinstance(node, FoIn):
        return (node.elem, node.container), ()
    if isinstance(node, (And, FoAnd)):
        return (), (node.left, node.right)
    if isinstance(node, (Not, FoNot)):
        return (), (node.sub,)
    if isinstance(node, (Ex2, FoEx1, FoEx2)):
        return (node.var,), (node.sub,)
    raise TypeError(f"not a formula: {node!r}")


def _fold(phi, sort: str | None, combine):
    """combine(node, names, values of its subformulas) once per node
    object of phi, subformulas first, left to right.  Values are kept by
    id (every node stays alive inside phi), so a node object shared by
    several parents is folded once however many paths reach it, and an
    explicit stack keeps depth from costing recursion.  Nodes are checked
    against sort as in _parts."""
    values: dict[int, object] = {}
    # (node, None) enters a node, (node, its parts) combines it once the
    # subformulas pushed above it are folded; a node entered and not yet
    # combined is an ancestor of every node entered meanwhile, never a
    # subformula of one, so its placeholder value is never read
    stack: list = [(phi, None)]
    while stack:
        node, parts = stack.pop()
        if parts is not None:
            names, subs = parts
            values[id(node)] = combine(node, names, [values[id(sub)] for sub in subs])
        elif id(node) not in values:
            parts = _parts(node, sort)
            values[id(node)] = None
            stack.append((node, parts))
            stack += [(sub, None) for sub in reversed(parts[1])]
    return values[id(phi)]


def _free_names(node, names, args) -> frozenset[str]:
    # free_min's fold step
    if isinstance(node, Ex2):
        return args[0] - {node.var}
    return frozenset(names).union(*args)


def free_min(phi: MinFormula) -> frozenset[str]:
    return _fold(phi, "minimal", _free_names)


def free_full(phi: FullFormula) -> tuple[frozenset[str], frozenset[str]]:
    """Free variables, split into (first order, second order)."""

    def step(node, names, args):
        if isinstance(node, FoLess):
            return frozenset(names), frozenset()
        if isinstance(node, FoIn):
            return frozenset(names[:1]), frozenset(names[1:])
        fo, so = (frozenset().union(*sides) for sides in zip(*args))
        if isinstance(node, FoEx1):
            return fo - {node.var}, so
        if isinstance(node, FoEx2):
            return fo, so - {node.var}
        return fo, so

    return _fold(phi, "full", step)


# -- interpretations --------------------------------------------------------------


@dataclass
class UpInterpretation:
    """Variable assignment: sets map to ultimately periodic bit words,
    positions to natural numbers.  Treated as immutable by convention."""

    sets: dict[str, UpWord] = field(default_factory=dict)
    nums: dict[str, int] = field(default_factory=dict)


def number_word(i: int) -> UpWord:
    """The singleton set {i} as a bit word."""
    if i < 0:
        raise ValueError("positions are nonnegative")
    return UpWord((0,) * i + (1,), (0,))


def encode_interp(interp: UpInterpretation) -> UpInterpretation:
    """Replace every position value by its singleton set."""
    sets = dict(interp.sets)
    for name, i in interp.nums.items():
        sets[name] = number_word(i)
    return UpInterpretation(sets=sets, nums={})


@dataclass(frozen=True)
class SetAlphabet:
    """Alphabet of variable bitmasks: bit i of a letter is the membership
    of the i-th variable at the current position."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")

    @property
    def size(self) -> int:
        return 1 << len(self.variables)

    def bit(self, name: str) -> int:
        try:
            return 1 << self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name} not declared") from None


def interp_to_upword(interp: UpInterpretation, variables: Sequence[str]) -> UpWord:
    """Align all assigned set words to a common shape and pack the bits.

    The common prefix is the longest prefix, the common period the lcm of
    the period lengths.  Unassigned variables read as empty sets.
    """
    if interp.nums:
        raise ValueError("encode position variables before packing")
    alpha = SetAlphabet(tuple(variables))
    for name in interp.sets:
        if name not in variables:
            raise UnknownVariable(f"variable {name} not declared")
    words = {name: interp.sets.get(name) for name in variables}
    pre = 1
    per = 1
    for w in words.values():
        if w is not None:
            pre = max(pre, len(w.prefix))
            per = math.lcm(per, len(w.period))

    def letter(n: int) -> int:
        mask = 0
        for i, name in enumerate(variables):
            w = words[name]
            if w is not None and up_at(w, n):
                mask |= 1 << i
        return mask

    prefix = tuple(letter(n) for n in range(pre))
    period = tuple(letter(n) for n in range(pre, pre + per))
    return UpWord(prefix, period)


def upword_to_interp(sigma: UpWord, variables: Sequence[str]) -> UpInterpretation:
    """Unpack a letter word into one bit word per variable."""
    sets = {}
    for i, name in enumerate(variables):
        sets[name] = UpWord(
            tuple(a >> i & 1 for a in sigma.prefix),
            tuple(a >> i & 1 for a in sigma.period),
        )
    return UpInterpretation(sets=sets)


# -- atoms and translation ---------------------------------------------------------


def atom_incl_nfa(variables: Sequence[str], left: str, right: str) -> BuchiNfa:
    """One looping state that refuses letters putting left outside right.

    Built from its two letter classes, never from transitions per letter:
    class 1 holds the refused letters and has no transitions."""
    alpha = SetAlphabet(tuple(variables))
    bl, br = alpha.bit(left), alpha.bit(right)
    letter_class = [int(a & bl != 0 and not a & br) for a in range(alpha.size)]
    return BuchiNfa._make(1, alpha.size, letter_class, [((0,),), ((),)], [0], [0])


def atom_less_nfa(variables: Sequence[str], left: str, right: str) -> BuchiNfa:
    """Three states, deterministic and weak: read up to the first left
    position, then up to the first strictly later right position, then
    loop.  Some left position has a later right one exactly when the first
    left position does, so no guess is needed.  Products with the atom
    keep a deterministic operand deterministic, and buchi._reduce reduces
    them by partition refinement instead of the n x n simulation relation.

    Built from its four letter classes, one per value of the left and right
    bits: the left bit moves 0 -> 1, the right bit moves 1 -> 2, and a
    letter with both bits moves 0 -> 1 only, as a right position must come
    strictly later."""
    alpha = SetAlphabet(tuple(variables))
    bl, br = alpha.bit(left), alpha.bit(right)
    letter_class = [(a & bl != 0) | (a & br != 0) << 1 for a in range(alpha.size)]
    class_rows = [
        ((0,), (1,), (2,)),
        ((1,), (1,), (2,)),
        ((0,), (2,), (2,)),
        ((1,), (2,), (2,)),
    ]
    return BuchiNfa._make(3, alpha.size, letter_class, class_rows, [0], [2])


@cache
def _support_atom(kind: type, left: int, right: int) -> BuchiNfa:
    """The atom of kind, Incl or Less, over its own support, left and right
    being its variables' letter bits there: one bit or two.  Automata are
    never changed, so every compile shares these six."""
    atom = atom_incl_nfa if kind is Incl else atom_less_nfa
    names = ("V", "W")[: max(left, right)]
    return atom(names, names[left >> 1], names[right >> 1])


def _negate(A: BuchiNfa, max_colors: int) -> BuchiNfa:
    """Complement dispatch for the translation pipeline.

    Deterministic and weak operands admit small exact complements; nested
    quantifiers blow the profile-semigroup budget without them.  A
    deterministic weak operand is complemented by flipping its accepting
    set (buchi.complement_flip), which keeps it deterministic; other
    deterministic operands take the two-copy complement_deterministic,
    and other weak ones the breakpoint complement_weak.  The general
    construction stays the fallback, so every route recognizes the same
    language.
    """
    weak = buchi.is_weak(A)
    if buchi.is_deterministic(A):
        if weak:
            return buchi._reduce(buchi.complement_flip(A))
        return buchi._reduce(buchi.complement_deterministic(A))
    if weak:
        try:
            return buchi._reduce(buchi.complement_weak(A))
        except buchi.BreakpointBudget:
            pass
    return buchi._reduce(complement(A, max_colors=max_colors))


def _read(A: BuchiNfa, bits: Sequence[int]) -> BuchiNfa:
    """A read over len(bits) letter bits: bit j of a letter acts as A's
    letter bit bits[j], or is ignored where bits[j] is 0.  buchi._relabel,
    with the letters built by doubling, one bit at a time."""
    letters = [0]
    for b in bits:
        letters += [a | b for a in letters] if b else letters
    return buchi._relabel(A, letters)


def _lift(A: BuchiNfa, support: int, target: int) -> BuchiNfa:
    """A over the variables of the mask support, read over those of the
    mask target, which holds support: a letter acts as its bits on
    support.  The bits of both stay in the order of the declared
    variables, so the classes keep the order of their first letters, and
    buchi._relabel keeps A's rows, numbering and table.  A itself when
    the masks are equal."""
    if support == target:
        return A
    bits = [1 << j for j in range(target.bit_length()) if target >> j & 1]
    return _read(A, [1 << (support & b - 1).bit_count() if support & b else 0 for b in bits])


def _conjoin(left: tuple[BuchiNfa, int], right: tuple[BuchiNfa, int]) -> BuchiNfa:
    """The conjunction of two (automaton, support) operands, both lifted
    to the union of their supports."""
    (A, sa), (B, sb) = left, right
    A, B = _lift(A, sa, sa | sb), _lift(B, sb, sa | sb)
    # the plain product is exact for weak operands and keeps them weak,
    # which later negations rely on; otherwise use the two-copy product
    if buchi.is_weak(A) and buchi.is_weak(B):
        return buchi._reduce(buchi.product_weak(A, B))
    return buchi._reduce(buchi.intersection(A, B))


def translate(
    phi: MinFormula,
    variables: Sequence[str],
    max_colors: int = DEFAULT_MAX_COLORS,
    stats: list | None = None,
) -> BuchiNfa:
    """Compile a minimal formula to a Buchi automaton over the variable
    alphabet.  The automaton accepts exactly the packed interpretations
    satisfying the formula, on ultimately periodic words.

    The work is _compile's, over the formula's support, the bits of its
    free variables; the result is that automaton lifted to every declared
    variable, which keeps its states, transitions and class numbering.
    sat_min, models_up and ex2_witness read automata over supports and
    never build this lift.  When stats is a list, one (node, state count)
    entry is appended per node object in postorder, a node shared by
    several parents listed once, the count being that of the node's shape.
    """
    A, names = _compile(phi, variables, max_colors, stats)
    bit = SetAlphabet(tuple(variables)).bit
    return _lift(A, sum(map(bit, names)), (1 << len(variables)) - 1)


def _compile(
    phi: MinFormula,
    variables: Sequence[str],
    max_colors: int,
    stats: list | None = None,
) -> tuple[BuchiNfa, tuple[str, ...]]:
    """translate's automaton over the formula's support, and the support:
    its free variables, in the order of variables.  Letter bit j is the
    j-th of them.

    Every node is compiled over its own support, a mask of the declared
    variables, so the node's alphabet has 2^|support| letters however many
    variables are declared.  Atoms are built over their one or two
    variables.  Ex2 drops its variable's bit (buchi.ex_project) and
    reduces the result; a body that does not read the variable is reduced
    already (or an atom), and Ex2 returns it as it is.  And lifts
    both operands to the union of their supports (_conjoin): the bits of
    every support are in the order of variables, so a lift keeps the
    operand's class rows, class numbering and successor table, and the
    lift of each result is the automaton a compile over every variable
    builds.  Both atoms are deterministic and weak, and so are products
    and flip complements of deterministic weak automata, so every
    subformula without a quantifier compiles to a deterministic
    automaton.  Negations go through _negate, which complements
    deterministic weak intermediates by flipping their acceptance, so
    those stay deterministic.  Intermediate results are trimmed and
    reduced (buchi._reduce), which never changes the language but keeps
    negations affordable: nondeterministic ones by direct simulation,
    deterministic ones, most of them, by partition refinement.

    Each subformula is compiled once up to renaming (MONA's DAG with
    renaming: Elgaard, Klarlund and Moller, CAV 1998).  One _fold gives
    each node object its variables, the distinct names it mentions, bound
    or free, in order of first use (its own names, then its subformulas'
    in order), and its shape: its type, the positions of its names among
    its variables, and per subformula the shape and the positions of the
    subformula's variables among the node's.  Shapes are interned to
    numbers in postorder, so a key never nests and the fold stays linear
    in the distinct node objects; nodes are never hashed, as a hash walks
    the whole subtree on every call.  Two nodes have one shape exactly
    when a one-to-one renaming of variables turns one into the other, and
    their free variables are at the same positions.  So a node with the
    shape of an earlier one takes that node's automaton read over its own
    support (_read), each free variable's bit taking the bit of the
    earlier node's variable in the same position: the states and the
    transitions are the same.  Shapes are compiled in number order, from
    their first node, and each shape's automaton is held only until its
    last use among the subformulas of those first nodes.
    """
    alpha = SetAlphabet(tuple(variables))
    # the number of each shape, per number its first node, that node's
    # variables and its subformulas' (shape, variables), and per node
    # object in fold order its shape
    shapes: dict[tuple, int] = {}
    first: list[tuple[MinFormula, tuple[str, ...], list]] = []
    numbered: list[tuple[MinFormula, int]] = []

    def number(node, names, kids) -> tuple[int, tuple[str, ...]]:
        own = tuple(dict.fromkeys([*names, *(n for _, kid_names in kids for n in kid_names)]))
        at = {name: i for i, name in enumerate(own)}.__getitem__
        key = (
            type(node),
            tuple(map(at, names)),
            tuple((k, tuple(map(at, kid_names))) for k, kid_names in kids),
        )
        i = shapes.setdefault(key, len(first))
        if i == len(first):
            first.append((node, own, kids))
        numbered.append((node, i))
        return i, own

    top = _fold(phi, "minimal", number)
    # every name is checked here, as the atoms a relabelled node stands
    # for are never built
    bit = {name: alpha.bit(name) for name in top[1]}

    def over(i: int, names: tuple[str, ...]) -> tuple[BuchiNfa, int]:
        # shape i's automaton read over the support of a node of shape i
        # whose variables are names, and that support: each of the node's
        # variables whose counterpart in the first node is free there
        # takes the counterpart's letter bit
        A, base, support = done[i], first[i][1], supports[i]
        if names == base:
            return A, support
        moves = {
            bit[name]: 1 << (support & bit[was] - 1).bit_count()
            for name, was in zip(names, base)
            if support & bit[was]
        }
        return _read(A, [moves[b] for b in sorted(moves)]), sum(moves)

    # a shape is numbered after its subformulas' shapes, so compiling in
    # number order finds every operand compiled
    uses = [0] * len(first)
    for _, _, kids in first:
        for k, _ in kids:
            uses[k] += 1
    done: dict[int, BuchiNfa] = {}
    # per shape, the support of its first node
    supports: list[int] = []
    counts = []
    for i, (node, _, kids) in enumerate(first):
        args = [over(k, kid_names) for k, kid_names in kids]
        for k, _ in kids:
            uses[k] -= 1
            if not uses[k]:
                del done[k]
        if isinstance(node, (Incl, Less)):
            support = bit[node.left] | bit[node.right]
            left, right = (1 << (support & bit[name] - 1).bit_count() for name in (node.left, node.right))
            out = _support_atom(type(node), left, right)
        elif isinstance(node, And):
            out, support = _conjoin(*args), args[0][1] | args[1][1]
        elif isinstance(node, Not):
            out, support = _negate(args[0][0], max_colors), args[0][1]
        else:
            out, support = args[0]
            b = bit[node.var]
            if support & b:
                out = buchi._reduce(buchi.ex_project(out, 1 << (support & b - 1).bit_count()))
                support ^= b
        done[i] = out
        supports.append(support)
        counts.append(out.state_count)
    if stats is not None:
        stats.extend((node, counts[i]) for node, i in numbered)
    A, support = over(*top)
    return A, tuple(name for name in variables if bit.get(name, 0) & support)


def _check_interp(interp: UpInterpretation, phi: MinFormula, variables: Sequence[str]) -> None:
    """What models_up and ex2_witness refuse, before compiling: a name of
    phi, bound or free, or an assigned one that is not declared, a free
    variable without a value, and a position value."""
    alpha = SetAlphabet(tuple(variables))

    def free(node, names, args):
        for name in names:
            alpha.bit(name)
        return _free_names(node, names, args)

    missing = sorted(_fold(phi, "minimal", free) - set(interp.sets))
    if missing:
        raise UnassignedVariable(missing)
    if interp.nums:
        raise ValueError("minimal formulas take set assignments only")
    for name in interp.sets:
        alpha.bit(name)


def _leaf(node: MinFormula, interp: UpInterpretation, variables: Sequence[str], max_colors: int):
    """An atom or Ex2(X, body) on interp, as models_up and ex2_witness
    compile it: the node's or the body's automaton over its support
    (_compile), the support, X's bit there (0 for an atom or a body that
    does not read X), the projection dropping that bit, unreduced as
    reducing never changes the language, and interp packed for the
    projection.  The caller has checked interp (_check_interp), so every
    name packed has a set value."""
    quantified = isinstance(node, Ex2)
    A, names = _compile(node.sub if quantified else node, variables, max_colors)
    bit = 1 << names.index(node.var) if quantified and node.var in names else 0
    proj = buchi.ex_project(A, bit) if bit else A
    kept = [name for name in names if not quantified or name != node.var]
    sets = {name: interp.sets[name] for name in kept}
    return A, names, bit, proj, interp_to_upword(UpInterpretation(sets), kept)


def models_up(
    interp: UpInterpretation,
    phi: MinFormula,
    variables: Sequence[str],
    max_colors: int = DEFAULT_MAX_COLORS,
) -> bool:
    """Does the interpretation satisfy the formula?  Satisfaction on UP
    words obeys excluded middle (Not(f) holds exactly when f fails, And(f,
    g) when both hold), so only atoms and outermost Ex2 nodes are compiled
    (_leaf), and And skips its right operand when its left one fails.
    Verdicts are kept by node id, so a shared node is decided once.  The
    interpretation is checked first, skipped operands included, before
    anything is compiled (_check_interp)."""
    _check_interp(interp, phi, variables)
    verdicts: dict[int, bool] = {}
    # a path from phi down to the node being decided
    stack = [phi]
    while stack:
        node = stack[-1]
        if isinstance(node, Not):
            sub = verdicts.get(id(node.sub))
            if sub is None:
                stack.append(node.sub)
                continue
            verdict = not sub
        elif isinstance(node, And):
            left, right = verdicts.get(id(node.left)), verdicts.get(id(node.right))
            if left is None or left and right is None:
                stack.append(node.left if left is None else node.right)
                continue
            verdict = left and right
        else:
            *_, proj, word = _leaf(node, interp, variables, max_colors)
            verdict = buchi.membership_up(proj, word)
        verdicts[id(node)] = verdict
        stack.pop()
    return verdicts[id(phi)]


def models_up_direct(interp: UpInterpretation, phi: MinFormula) -> bool:
    """Quantifier free model check straight from the definitions, used to
    cross check the automaton route.  Atom truth is decided on an initial
    segment long enough to cover one full joint period twice."""
    missing = sorted(free_min(phi) - set(interp.sets))
    if missing:
        raise UnassignedVariable(missing)
    if _fold(phi, None, lambda node, _, args: isinstance(node, Ex2) or any(args)):
        raise ValueError("direct evaluation handles quantifier free formulas only")

    def value(node, names, args) -> bool:
        if isinstance(node, And):
            return args[0] and args[1]
        if isinstance(node, Not):
            return not args[0]
        x, y = (interp.sets[name] for name in names)
        bound = max(len(x.prefix), len(y.prefix)) + 2 * math.lcm(
            len(x.period), len(y.period)
        )
        if isinstance(node, Incl):
            return all(not (up_at(x, n) and not up_at(y, n)) for n in range(bound))
        return any(
            up_at(x, m) and any(up_at(y, n) for n in range(m + 1, bound))
            for m in range(bound)
        )

    return _fold(phi, "minimal", value)


def sat_min(
    phi: MinFormula,
    variables: Sequence[str],
    max_colors: int = DEFAULT_MAX_COLORS,
) -> UpInterpretation | None:
    """A satisfying interpretation for the free variables, or None: the
    match of the automaton over the formula's support (_compile),
    unpacked into those variables."""
    A, names = _compile(phi, variables, max_colors)
    m = buchi.find_match(A)
    return None if m is None else upword_to_interp(m.word(), names)


def ex2_witness(
    phi: Ex2,
    interp: UpInterpretation,
    variables: Sequence[str],
) -> UpInterpretation | None:
    """For interp satisfying Ex2(X, body), an interpretation that satisfies
    the body and differs from interp only on X.  None when interp does not
    satisfy the quantified formula.

    The body is compiled over its support and projected by dropping X's
    bit, when the body reads X (_leaf).  The match over the
    projection is relabeled step by step back to letters the body
    automaton allows, X's bit 0 tried first; the projection only ever
    touched X's bit, so the relabeled word agrees with interp everywhere
    else.  The interpretation is checked first, as models_up checks it
    (_check_interp), so the two refuse the same inputs.
    """
    if not isinstance(phi, Ex2):
        raise TypeError("ex2_witness needs a quantified formula")
    _check_interp(interp, phi, variables)
    body_aut, names, bit, proj, packed = _leaf(phi, interp, variables, DEFAULT_MAX_COLORS)
    m = buchi.match_for_up(proj, packed)
    if m is None:
        return None

    def relabel(word, path):
        out = []
        for i, b in enumerate(word):
            p, q = path[i], path[i + 1]
            # b with a 0 inserted at X's bit
            a0 = (b & -bit) << 1 | b & bit - 1
            for a in (a0, a0 | bit):
                if q in body_aut.successors(p, a):
                    out.append(a)
                    break
            else:
                raise AssertionError("projected step has no source letter")
        return tuple(out)

    witness_word = UpWord(relabel(m.stem, m.stem_path), relabel(m.loop, m.loop_path))
    return upword_to_interp(witness_word, names)


# -- full syntax reduction ----------------------------------------------------------


def sing(x: str, helper: str) -> MinFormula:
    """x is a singleton: no two members, at least one member."""
    return And(Not(Less(x, x)), Ex2(helper, Less(x, helper)))


def _fresh_helper(taken: Iterable[str]) -> str:
    taken = set(taken)
    name = "_s"
    while name in taken:
        name += "_"
    return name


# the minimal node each full node but FoEx1 becomes, from the same fields
_MINIMAL_OF = {FoLess: Less, FoIn: Incl, FoAnd: And, FoNot: Not, FoEx2: Ex2}


def reduce_full(
    phi: FullFormula, first_order: Sequence[str], second_order: Sequence[str]
) -> tuple[MinFormula, tuple[str, ...]]:
    """Encode a full formula into the minimal syntax.

    Position variables become set variables constrained to singletons:
    each first order quantifier guards its body and every free first order
    variable is guarded at the top.  Returns the formula and the variable
    list, the declared variables plus one helper."""
    helper = _fresh_helper(list(first_order) + list(second_order))

    def step(node, names, args) -> MinFormula:
        if isinstance(node, FoEx1):
            return Ex2(node.var, And(sing(node.var, helper), args[0]))
        return _MINIMAL_OF[type(node)](*names, *args)

    out = _fold(phi, "full", step)
    free_fo, _ = free_full(phi)
    for x in reversed([x for x in first_order if x in free_fo]):
        out = And(sing(x, helper), out)
    return out, tuple(first_order) + tuple(second_order) + (helper,)


def models_full_up(
    interp: UpInterpretation,
    phi: FullFormula,
    first_order: Sequence[str],
    second_order: Sequence[str],
    max_colors: int = DEFAULT_MAX_COLORS,
) -> bool:
    """Model checking for the full syntax, via the reduction."""
    free_fo, free_so = free_full(phi)
    missing = sorted(free_fo - set(interp.nums)) + sorted(free_so - set(interp.sets))
    if missing:
        raise UnassignedVariable(missing)
    reduced, variables = reduce_full(phi, first_order, second_order)
    return models_up(encode_interp(interp), reduced, variables, max_colors=max_colors)


def decode_number(var: str, word: UpWord) -> int:
    """Position of the single member of a singleton set word."""
    if any(word.period):
        raise NonSingletonWitness(var, word)
    ones = [n for n, b in enumerate(word.prefix) if b]
    if len(ones) != 1:
        raise NonSingletonWitness(var, word)
    return ones[0]


def sat_full(
    phi: FullFormula,
    first_order: Sequence[str],
    second_order: Sequence[str],
    max_colors: int = DEFAULT_MAX_COLORS,
) -> UpInterpretation | None:
    """A satisfying interpretation of the free variables, positions decoded
    back from their singleton encodings, or None."""
    reduced, variables = reduce_full(phi, first_order, second_order)
    found = sat_min(reduced, variables, max_colors=max_colors)
    if found is None:
        return None
    # the names found are phi's free variables, the helper being bound
    nums = {}
    sets = {}
    for name, word in found.sets.items():
        if name in first_order:
            nums[name] = decode_number(name, word)
        else:
            sets[name] = word
    return UpInterpretation(sets=sets, nums=nums)
