"""Term DSL for building maps, plus gate netlists.

Terms are S-expressions over generator names and the operation set:

    (oplus T T ...)        parallel juxtaposition (folds left)
    (comp K T T)           feed the first K outputs of the right term
                           into the first K inputs of the left term
    (bullet T T ...)       greedy composition (folds left)
    (tau T) (zeta T)       input swap / rotation
    (btau T) (bzeta T)     output swap / rotation
    (delta T) (nabla T)    identify first two inputs / dummy first input
    (sel (I ...) T)        keep output components I, in order
    (ins ((POS A) ...) T)  fix input POS to letter A
    (pi CYCLES)            wire permutation
    (tg N CYCLES O)        controlled gate on N wires, control letter O
    (id N)                 identity on N wires
    NAME                   bound generator

Permutation literals are cycle groups ``(p a b ...)``; juxtaposed groups
multiply left to right, and a singleton ``(p n)`` pins the degree of a
``pi`` literal.  A file may open with ``(alphabet K)`` and ``(let NAME T)``
forms before the final result term; ``#`` starts a comment.

A Netlist is an ordered list of gate stages on numbered wires; stages
apply first to last, so the induced map is the bullet-chain of the stages
taken last to first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from typing import Mapping, Sequence

from . import gates, ops
from .core import Alphabet, Map, MapFormatError, Perm, ShapeError, \
    identity_map

PermSpec = tuple[tuple[int, ...], ...]


class CircuitParseError(ValueError):
    """Syntax error in .circ text, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Term:
    """Base class for term nodes."""
    __slots__ = ()


@dataclass(frozen=True)
class Ref(Term):
    name: str


@dataclass(frozen=True)
class IdLit(Term):
    n: int


@dataclass(frozen=True)
class TgLit(Term):
    n: int
    perm: PermSpec
    o: int


@dataclass(frozen=True)
class PiLit(Term):
    perm: PermSpec


class _Composite(Term):
    """Base class for nodes with children.  Their repr is built by _run
    instead of recursing, and == and hash compare it, so they work on
    terms of any depth; leaf nodes keep the generated dataclass methods."""
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        return "".join(_run(_repr(self, [])))


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Oplus(_Composite):
    left: Term
    right: Term


@_node
class Comp(_Composite):
    k: int
    left: Term
    right: Term


@_node
class Bullet(_Composite):
    left: Term
    right: Term


@_node
class Unary(_Composite):
    """A one-child operator node; _UNARY describes each kind."""
    child: Term


class Tau(Unary):
    """(tau T): swap the first two inputs."""


class Zeta(Unary):
    """(zeta T): rotate the inputs."""


class BarTau(Unary):
    """(btau T): swap the first two outputs."""


class BarZeta(Unary):
    """(bzeta T): rotate the outputs."""


class Delta(Unary):
    """(delta T): identify the first two inputs."""


class Nabla(Unary):
    """(nabla T): add a dummy first input."""


@_node
class Sel(_Composite):
    indices: tuple[int, ...]
    child: Term


@_node
class Ins(_Composite):
    items: tuple[tuple[int, int], ...]
    child: Term


# Each unary node's operator name, the path step that shape errors name
# below it, and its map operation's name in ops, looked up per call so that
# wrappers rebound in ops (the benchmark's tracer) see the call.
_UNARY: dict[type, tuple[str, str, str]] = {
    Tau: ("tau", ".in-perm", "tau"),
    Zeta: ("zeta", ".in-perm", "zeta"),
    BarTau: ("btau", ".out-perm", "bar_tau"),
    BarZeta: ("bzeta", ".out-perm", "bar_zeta"),
    Delta: ("delta", ".delta", "delta"),
    Nabla: ("nabla", ".nabla", "nabla"),
}
_UNARY_BY_NAME = {name: cls for cls, (name, _, _) in _UNARY.items()}


@dataclass(frozen=True)
class Program:
    alphabet: int | None
    lets: tuple[tuple[str, Term], ...]
    result: Term


# -- permutation literal helpers -------------------------------------------

def pi_spec(perm: Perm) -> PermSpec:
    """Cycle spec for a wire permutation, padded with a singleton so the
    degree survives printing."""
    cycles = perm.cycles()
    top = max((max(c) for c in cycles), default=0)
    if top < perm.degree:
        cycles = cycles + ((perm.degree,),)
    return cycles


def letter_spec(perm: Perm) -> PermSpec:
    """Cycle spec for a letter permutation inside a tg literal; the degree
    comes from the alphabet at evaluation time."""
    cycles = perm.cycles()
    if not cycles:
        cycles = ((1,),)
    return cycles


# -- term walks ---------------------------------------------------------------

def _run(walk, finished=None):
    """The value of a term walk, with a list for its stack, so terms nest
    as deep as memory allows.  A walk is a generator over one node: it
    yields each child's walk, is sent back that child's value, and returns
    its own value.  `finished`, if given, is called with each node's value
    as its walk returns."""
    stack, value = [], None
    while True:
        try:
            child = walk.send(value)
        except StopIteration as done:
            if finished is not None:
                finished(done.value)
            if not stack:
                return done.value
            walk, value = stack.pop(), done.value
        else:
            stack.append(walk)
            walk, value = child, None


def _repr(t: _Composite, out: list[str]):
    """Walk (see _run) that appends the dataclass-style repr of t to out
    and returns out."""
    out.append(type(t).__qualname__ + "(")
    for i, name in enumerate(t.__dataclass_fields__):
        value = getattr(t, name)
        out.append(f"{', ' if i else ''}{name}=")
        if isinstance(value, _Composite):
            yield _repr(value, out)
        else:
            out.append(repr(value))
    out.append(")")
    return out


# -- parsing ----------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")


# One match per newline, comment, parenthesis or atom; other whitespace is
# skipped between matches.
_TOKEN_RE = re.compile(r"(?P<nl>\n)|#[^\n]*|(?P<open>\()|(?P<close>\))"
                       r"|(?P<atom>[^\s()#]+)")


def _read_sexps(text: str):
    """The top-level forms of text as ("atom", text, line, col) and
    ("list", items, line, col) nodes, positions 1-based."""
    forms: list = []
    open_lists: list[tuple[list, int, int]] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "nl":
            line += 1
            line_start = match.end()
            continue
        if kind is None:
            continue
        col = match.start() - line_start + 1
        if kind == "open":
            open_lists.append(([], line, col))
            continue
        if kind == "atom":
            node = ("atom", match.group(), line, col)
        elif open_lists:
            node = ("list", *open_lists.pop())
        else:
            raise CircuitParseError("unmatched ')'", line, col)
        (open_lists[-1][0] if open_lists else forms).append(node)
    if open_lists:
        _, line, col = open_lists[-1]
        raise CircuitParseError("unclosed '('", line, col)
    return forms


def _err(node, message: str) -> CircuitParseError:
    return CircuitParseError(message, node[2], node[3])


def _as_int(node, what: str) -> int:
    if node[0] != "atom":
        raise _err(node, f"expected {what} (an integer)")
    try:
        return int(node[1])
    except ValueError:
        raise _err(node, f"expected {what} (an integer), got {node[1]!r}") from None


def _head(node) -> str | None:
    """The operator of a list node: its first item, when that is an atom."""
    if node[0] == "list" and node[1] and node[1][0][0] == "atom":
        return node[1][0][1]
    return None


def _cycles_from(nodes) -> PermSpec:
    cycles = []
    for node in nodes:
        if _head(node) != "p":
            raise _err(node, "expected a cycle group (p a b ...)")
        cycle = tuple(_as_int(item, "a point") for item in node[1][1:])
        if not cycle:
            raise _err(node, "empty cycle group")
        cycles.append(cycle)
    return tuple(cycles)


def _term_from_sexp(node):
    """Walk (see _run) of a read s-expression to the term it spells."""
    if node[0] == "atom":
        text = node[1]
        if _NAME_RE.match(text):
            return Ref(text)
        raise _err(node, f"expected a term, got {text!r}")
    head = _head(node)
    if head is None:
        raise _err(node, "expected an operator")
    args = node[1][1:]
    if head == "id":
        if len(args) != 1:
            raise _err(node, "id takes one argument")
        return IdLit(_as_int(args[0], "a width"))
    if head == "pi":
        if not args:
            raise _err(node, "pi needs at least one cycle group")
        return PiLit(_cycles_from(args))
    if head == "tg":
        if len(args) < 3:
            raise _err(node, "tg takes a width, cycle groups, and a control letter")
        n = _as_int(args[0], "a width")
        o = _as_int(args[-1], "a control letter")
        return TgLit(n, _cycles_from(args[1:-1]), o)
    if head in ("oplus", "bullet"):
        if len(args) < 2:
            raise _err(node, f"{head} takes at least two arguments")
        children = []
        for a in args:
            children.append((yield _term_from_sexp(a)))
        return reduce(Oplus if head == "oplus" else Bullet, children)
    if head == "comp":
        if len(args) != 3:
            raise _err(node, "comp takes k and two terms")
        return Comp(_as_int(args[0], "k"), (yield _term_from_sexp(args[1])),
                    (yield _term_from_sexp(args[2])))
    if head in _UNARY_BY_NAME:
        if len(args) != 1:
            raise _err(node, f"{head} takes one argument")
        return _UNARY_BY_NAME[head]((yield _term_from_sexp(args[0])))
    if head == "sel":
        if len(args) != 2 or args[0][0] != "list":
            raise _err(node, "sel takes an index list and a term")
        indices = tuple(_as_int(i, "an index") for i in args[0][1])
        return Sel(indices, (yield _term_from_sexp(args[1])))
    if head == "ins":
        if len(args) != 2 or args[0][0] != "list":
            raise _err(node, "ins takes a ((pos letter) ...) list and a term")
        items_out = []
        for pair in args[0][1]:
            if pair[0] != "list" or len(pair[1]) != 2:
                raise _err(pair, "expected a (pos letter) pair")
            items_out.append((_as_int(pair[1][0], "a position"),
                              _as_int(pair[1][1], "a letter")))
        return Ins(tuple(items_out), (yield _term_from_sexp(args[1])))
    raise _err(node, f"unknown operator {head!r}")


def parse(text: str) -> Term:
    """Parse a single term."""
    forms = _read_sexps(text)
    if len(forms) != 1:
        raise CircuitParseError("expected exactly one term", 1, 1)
    return _run(_term_from_sexp(forms[0]))


def parse_program(text: str) -> Program:
    """Parse a .circ file: optional (alphabet K), (let NAME T) forms, and
    one result term."""
    forms = _read_sexps(text)
    alphabet = None
    lets: list[tuple[str, Term]] = []
    result = None
    for node in forms:
        head = _head(node)
        if head == "alphabet":
            if alphabet is not None:
                raise _err(node, "duplicate alphabet declaration")
            if len(node[1]) != 2:
                raise _err(node, "alphabet takes one integer")
            alphabet = _as_int(node[1][1], "an alphabet size")
            continue
        if head == "let":
            if len(node[1]) != 3 or node[1][1][0] != "atom":
                raise _err(node, "let takes a name and a term")
            name = node[1][1][1]
            if not _NAME_RE.match(name):
                raise _err(node[1][1], f"bad binding name {name!r}")
            lets.append((name, _run(_term_from_sexp(node[1][2]))))
            continue
        if result is not None:
            raise _err(node, "multiple result terms")
        result = _run(_term_from_sexp(node))
    if result is None:
        raise CircuitParseError("no result term", 1, 1)
    return Program(alphabet, tuple(lets), result)


# -- printing ---------------------------------------------------------------

def _spec_text(spec: PermSpec) -> str:
    return " ".join("(p " + " ".join(map(str, cycle)) + ")" for cycle in spec)


def print_term(t: Term) -> str:
    """Render a term; parse(print_term(t)) reproduces t."""
    return "".join(_run(_print(t, [])))


def _print(t: Term, out: list[str]):
    """Walk (see _run) that appends the text of t to out and returns out."""
    children = ()
    if isinstance(t, Ref):
        text = t.name
    elif isinstance(t, IdLit):
        text = f"(id {t.n})"
    elif isinstance(t, TgLit):
        text = f"(tg {t.n} {_spec_text(t.perm)} {t.o})"
    elif isinstance(t, PiLit):
        text = f"(pi {_spec_text(t.perm)})"
    elif isinstance(t, (Oplus, Comp, Bullet)):
        text = (f"(comp {t.k}" if isinstance(t, Comp)
                else "(oplus" if isinstance(t, Oplus) else "(bullet")
        children = (t.left, t.right)
    elif isinstance(t, Unary):
        text, children = f"({_UNARY[type(t)][0]}", (t.child,)
    elif isinstance(t, Sel):
        text = f"(sel ({' '.join(map(str, t.indices))})"
        children = (t.child,)
    elif isinstance(t, Ins):
        pairs = " ".join(f"({p} {a})" for p, a in t.items)
        text, children = f"(ins ({pairs})", (t.child,)
    else:
        raise TypeError(f"not a term: {t!r}")
    out.append(text)
    if children:
        for child in children:
            out.append(" ")
            yield _print(child, out)
        out.append(")")
    return out


# -- shape checking ---------------------------------------------------------

def shape_of(t: Term, shapes: Mapping[str, tuple[int, int]] | None = None
             ) -> tuple[int, int]:
    """(arity, coarity) of a term, computed without building tables.
    Shape failures name the offending node by its path from the root."""
    return _run(_shape(t, shapes or {}, None))


def _widest_arity(t: Term, shapes: Mapping[str, tuple[int, int]]
                  ) -> tuple[tuple[int, int], int]:
    """shape_of(t, shapes), and the largest arity of t's nodes: a node of
    arity n evaluates to a table of k^n rows."""
    arities = []
    shape = _run(_shape(t, shapes, None), lambda s: arities.append(s[0]))
    return shape, max(arities)


def _fail(path, message: str, **kw) -> ShapeError:
    """A shape error at path: None at the root, else (the parent's path,
    a step), which shares the parent's path instead of copying it."""
    steps = []
    while path:
        path, step = path
        steps.append(step)
    return ShapeError(f"at {''.join(steps[::-1]) or 'root'}: {message}", **kw)


@lru_cache(maxsize=1024)
def _spec_perm(spec: PermSpec) -> Perm:
    """The permutation a literal's cycles spell, of degree their largest
    point: a pi literal's wire permutation.  Perm.from_cycles rejects
    points below 1 and points repeated within a cycle.  Cached, since a
    netlist's term repeats a few literals many times."""
    perm = Perm.from_cycles(spec)
    if not perm.degree:
        raise ShapeError("permutation literal mentions no points")
    return perm


def _shape(t: Term, shapes, path):
    """Walk (see _run) to the (arity, coarity) of t."""
    if isinstance(t, Ref):
        if t.name not in shapes:
            raise _fail(path, f"unbound name {t.name!r}")
        return shapes[t.name]
    if isinstance(t, IdLit):
        if t.n < 0:
            raise _fail(path, "id width must be non-negative", actual=t.n)
        return (t.n, t.n)
    if isinstance(t, TgLit) and t.n < 1:
        raise _fail(path, "tg width must be positive", actual=t.n)
    if isinstance(t, (TgLit, PiLit)):
        try:
            d = _spec_perm(t.perm).degree
        except ShapeError as exc:
            raise _fail(path, str(exc)) from None
        # A tg literal's letter degree is the alphabet's, checked by _eval.
        return (t.n, t.n) if isinstance(t, TgLit) else (d, d)
    if isinstance(t, Oplus):
        ln, lm = yield _shape(t.left, shapes, (path, ".oplus[0]"))
        rn, rm = yield _shape(t.right, shapes, (path, ".oplus[1]"))
        return (ln + rn, lm + rm)
    if isinstance(t, (Comp, Bullet)):
        tag = "comp" if isinstance(t, Comp) else "bullet"
        ln, lm = yield _shape(t.left, shapes, (path, f".{tag}[0]"))
        rn, rm = yield _shape(t.right, shapes, (path, f".{tag}[1]"))
        k = t.k if isinstance(t, Comp) else min(ln, rm)
        if not 0 <= k <= min(ln, rm):
            raise _fail(path, "composition out of range",
                        expected=f"0 <= k <= min({ln}, {rm})", actual=k)
        return (ln + rn - k, lm + rm - k)
    if isinstance(t, Unary):
        n, m = yield _shape(t.child, shapes, (path, _UNARY[type(t)][1]))
        if isinstance(t, Delta):
            return (n - 1, m) if n >= 2 else (n, m)
        if isinstance(t, Nabla):
            return (n + 1, m)
        return (n, m)
    if isinstance(t, Sel):
        n, m = yield _shape(t.child, shapes, (path, ".sel"))
        if len(set(t.indices)) != len(t.indices):
            raise _fail(path, "sel indices must be distinct", actual=t.indices)
        for i in t.indices:
            if not 1 <= i <= m:
                raise _fail(path, "sel index out of range",
                            expected=f"1..{m}", actual=i)
        return (n, len(t.indices))
    if isinstance(t, Ins):
        n, m = yield _shape(t.child, shapes, (path, ".ins"))
        positions = [p for p, _ in t.items]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise _fail(path, "ins positions must be strictly increasing",
                        actual=tuple(positions))
        for p in positions:
            if not 1 <= p <= n:
                raise _fail(path, "ins position out of range",
                            expected=f"1..{n}", actual=p)
        return (n - len(t.items), m)
    raise TypeError(f"not a term: {t!r}")


# -- evaluation ---------------------------------------------------------------

def evaluate_term(t: Term, bindings: Mapping[str, Map] | None = None,
                  alphabet: Alphabet | None = None) -> Map:
    """The map a term denotes.  The alphabet comes from the bindings when
    any exist; literal-only terms need it passed explicitly."""
    bindings = bindings or {}
    for name, bound in bindings.items():
        if alphabet is None:
            alphabet = bound.alphabet
        elif bound.alphabet != alphabet:
            raise ShapeError(f"binding {name!r} uses a different alphabet",
                             expected=alphabet.size, actual=bound.alphabet.size)
    shape_of(t, {name: (m.arity, m.coarity) for name, m in bindings.items()})
    # One table per distinct literal: a netlist's term repeats a few
    # literals many times.
    return _run(_eval(t, bindings, cache(partial(_literal, alphabet))))


def _need_alphabet(alphabet: Alphabet | None) -> Alphabet:
    if alphabet is None:
        raise ShapeError("alphabet required to evaluate literals")
    return alphabet


def _literal(alphabet: Alphabet | None, t: IdLit | TgLit | PiLit) -> Map:
    alphabet = _need_alphabet(alphabet)
    if isinstance(t, IdLit):
        return identity_map(alphabet, t.n)
    if isinstance(t, TgLit):
        return gates.tg(t.n, Perm.from_cycles(t.perm, degree=alphabet.size),
                        t.o)
    return ops.pi(alphabet, _spec_perm(t.perm))


def _eval(t: Term, bindings, literal):
    """Walk (see _run) to the map t denotes; literal gives the map of a
    literal node."""
    if isinstance(t, Ref):
        return bindings[t.name]
    if isinstance(t, (IdLit, TgLit, PiLit)):
        return literal(t)
    if isinstance(t, Oplus):
        return ops.oplus((yield _eval(t.left, bindings, literal)),
                         (yield _eval(t.right, bindings, literal)))
    if isinstance(t, Comp):
        return ops.compose_k((yield _eval(t.left, bindings, literal)),
                             (yield _eval(t.right, bindings, literal)), t.k)
    if isinstance(t, Bullet):
        return ops.bullet((yield _eval(t.left, bindings, literal)),
                          (yield _eval(t.right, bindings, literal)))
    if isinstance(t, Unary):
        operation = getattr(ops, _UNARY[type(t)][2])
        return operation((yield _eval(t.child, bindings, literal)))
    if isinstance(t, Sel):
        return ops.select(t.indices, (yield _eval(t.child, bindings, literal)))
    if isinstance(t, Ins):
        positions = tuple(p for p, _ in t.items)
        constants = tuple(a for _, a in t.items)
        return ops.insert(positions, constants,
                          (yield _eval(t.child, bindings, literal)))
    raise TypeError(f"not a term: {t!r}")


def evaluate_program(prog: Program, bindings: Mapping[str, Map] | None = None,
                     alphabet: Alphabet | None = None) -> Map:
    if prog.alphabet is not None:
        declared = Alphabet(prog.alphabet)
        if alphabet is not None and alphabet != declared:
            raise ShapeError("alphabet declaration conflicts with caller",
                             expected=alphabet.size, actual=prog.alphabet)
        alphabet = declared
    env = dict(bindings or {})
    for name, term in prog.lets:
        env[name] = evaluate_term(term, env, alphabet)
    return evaluate_term(prog.result, env, alphabet)


# -- netlists -----------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One gate application: kind "tg" (controlled gate, the last listed
    wire is the target), "pi" (wire permutation of the listed wires), or
    "u" (unary letter permutation)."""

    kind: str
    perm: Perm
    o: int | None
    wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if self.kind not in ("tg", "pi", "u"):
            raise ShapeError("unknown stage kind", actual=self.kind)
        if len(set(self.wires)) != len(self.wires):
            raise ShapeError("stage wires must be distinct", actual=self.wires)
        if self.kind == "u" and len(self.wires) != 1:
            raise ShapeError("unary stage takes exactly one wire",
                             actual=self.wires)
        if self.kind == "tg" and (len(self.wires) < 1 or self.o is None):
            raise ShapeError("tg stage needs wires and a control letter")
        if self.kind != "tg" and self.o is not None:
            raise ShapeError(f"{self.kind} stage takes no control letter",
                             actual=self.o)
        if self.kind == "pi" and self.perm.degree != len(self.wires):
            raise ShapeError("pi stage degree must match its wire count",
                             expected=len(self.wires), actual=self.perm.degree)


@dataclass(frozen=True)
class Netlist:
    wires: int
    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.wires < 0:
            raise ShapeError("wire count must be non-negative",
                             actual=self.wires)
        for stage in self.stages:
            _check_wires(stage.wires, self.wires)


def _check_wires(stage_wires: Sequence[int], wires: int) -> None:
    for w in stage_wires:
        if not 1 <= w <= wires:
            raise ShapeError("stage wire out of range",
                             expected=f"1..{wires}", actual=w)


def _apply_stage(stage: Stage, sources, state: list[int]) -> None:
    if stage.kind == "pi":
        moved = [state[i] for i in sources]
        for w, v in zip(stage.wires, moved):
            state[w - 1] = v
        return
    if stage.kind == "u" or len(stage.wires) == 1:
        w = stage.wires[0]
        state[w - 1] = stage.perm(state[w - 1])
        return
    *controls, target = stage.wires
    if all(state[c - 1] == stage.o for c in controls):
        state[target - 1] = stage.perm(state[target - 1])


def simulate(nl: Netlist, alphabet: Alphabet) -> Map:
    """Apply the stages first to last on every input tuple."""
    for stage in nl.stages:
        if stage.kind in ("tg", "u") and stage.perm.degree != alphabet.size:
            raise ShapeError("gate letter permutation has the wrong degree",
                             expected=alphabet.size, actual=stage.perm.degree)
        if stage.kind == "tg":
            alphabet.check_letter(stage.o)
    # For a pi stage, the state index each of its wires reads: stage wire
    # j takes the letter of stage wire perm^-1(j).
    compiled = [(stage, [stage.wires[i - 1] - 1
                         for i in stage.perm.inverse().images]
                 if stage.kind == "pi" else None) for stage in nl.stages]
    k = alphabet.size
    codes = []
    for x in alphabet.tuples(nl.wires):
        state = list(x)
        for stage, sources in compiled:
            _apply_stage(stage, sources, state)
        code = 0
        for letter in state:
            code = code * k + letter - 1
        codes.append(code)
    return Map._unchecked(alphabet, nl.wires, nl.wires, tuple(codes))


def _routing(stage_wires: tuple[int, ...], width: int) -> Perm:
    """The wire permutation moving stage wire j to position j, remaining
    wires packed behind in ascending order."""
    images = [0] * width
    for j, w in enumerate(stage_wires, start=1):
        images[w - 1] = j
    rest = sorted(set(range(1, width + 1)) - set(stage_wires))
    for j, w in enumerate(rest, start=len(stage_wires) + 1):
        images[w - 1] = j
    return Perm(tuple(images))


def stage_term(stage: Stage, width: int) -> Term:
    """The stage as a term: the gate, identity-padded to full width,
    conjugated by routing wire permutations."""
    r = len(stage.wires)
    if stage.kind == "pi":
        gate: Term = PiLit(pi_spec(stage.perm))
    elif stage.kind == "u":
        gate = TgLit(1, letter_spec(stage.perm), 1)
    else:
        gate = TgLit(r, letter_spec(stage.perm), stage.o)
    padded = gate if r == width else Oplus(gate, IdLit(width - r))
    route = _routing(stage.wires, width)
    if route.is_identity():
        return padded
    return Bullet(Bullet(PiLit(pi_spec(route.inverse())), padded),
                  PiLit(pi_spec(route)))


def _fold_applied(factors: Sequence[Term]) -> Term:
    """Bullet of factors given in application order, the later half on
    the left, because bullet applies its right argument first.  Bullet is
    associative, so the tree is balanced: printed lift-odd terms keep
    their text, and the depth grows with the logarithm of the factor
    count."""
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    return Bullet(_fold_applied(factors[half:]), _fold_applied(factors[:half]))


def netlist_to_term(nl: Netlist) -> Term:
    """A term denoting the same map as the netlist: the bullet-chain of
    the stage terms, or the identity when there are none."""
    if not nl.stages:
        return IdLit(nl.wires)
    return _fold_applied([stage_term(stage, nl.wires) for stage in nl.stages])


def format_netlist(nl: Netlist, alphabet: Alphabet | None = None) -> str:
    lines = []
    if alphabet is not None:
        lines.append(f"alphabet {alphabet.size}")
    lines.append(f"wires {nl.wires}")
    for stage in nl.stages:
        wires = " ".join(map(str, stage.wires))
        if stage.kind == "tg":
            lines.append(f"tg {len(stage.wires)} {stage.perm.token()} "
                         f"{stage.o} @ {wires}")
        else:
            lines.append(f"{stage.kind} {stage.perm.token()} @ {wires}")
    return "\n".join(lines) + "\n"


def _int_token(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise MapFormatError(f"{what} must be an integer, got {token!r}",
                             line) from None


_STAGE_FORMS = {"tg": "tg <n> <perm> <o>", "pi": "pi <perm>", "u": "u <perm>"}


@lru_cache(maxsize=1024)
def _token_perm(token: str, degree: int) -> Perm:
    """Perm.from_token, cached, since a netlist repeats a few tokens on
    many lines.  Errors are not cached, so a bad token is reported on each
    line that has it."""
    return Perm.from_token(token, degree)


def _parse_stage(parts: list[str], wires: int, alphabet: Alphabet | None,
                 line: int) -> Stage:
    if "@" not in parts[1:]:
        raise MapFormatError("stage line needs a kind and '@ wires'", line)
    at = parts.index("@", 1)
    head, wire_toks = parts[:at], parts[at + 1:]
    kind = head[0]
    if kind not in _STAGE_FORMS:
        raise MapFormatError(f"unknown stage kind {kind!r}", line)
    if len(head) != len(_STAGE_FORMS[kind].split()):
        raise MapFormatError(f"{kind} stage is {_STAGE_FORMS[kind]!r}", line)
    stage_wires = tuple(_int_token(w, "a wire", line) for w in wire_toks)
    _check_wires(stage_wires, wires)
    if kind == "pi":
        perm = _token_perm(head[1], len(stage_wires))
        return Stage("pi", perm, None, stage_wires)
    if alphabet is None:
        raise MapFormatError(f"{kind} stage needs an alphabet header", line)
    o = None
    if kind == "tg":
        if _int_token(head[1], "a tg width", line) != len(stage_wires):
            raise MapFormatError("tg width disagrees with wire list", line)
        o = _int_token(head[3], "a control letter", line)
        alphabet.check_letter(o)
    perm = _token_perm(head[2 if kind == "tg" else 1], alphabet.size)
    return Stage(kind, perm, o, stage_wires)


def parse_netlist(text: str) -> tuple[Netlist, Alphabet | None]:
    """Parse netlist text.  Returns the netlist and the alphabet named in
    the header, or None without one.  Malformed text raises
    MapFormatError with its line number."""
    alphabet = None
    wires = None
    stages = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] in ("alphabet", "wires") and len(parts) != 2:
                raise MapFormatError(f"{parts[0]} takes one integer", lineno)
            if parts[0] == "alphabet":
                declared = Alphabet(_int_token(parts[1], "alphabet", lineno))
                if alphabet not in (None, declared):
                    raise MapFormatError("alphabet header conflicts with an "
                                         "earlier one", lineno)
                alphabet = declared
            elif parts[0] == "wires":
                if wires is not None:
                    raise MapFormatError("duplicate wires header", lineno)
                wires = _int_token(parts[1], "wires", lineno)
                if wires < 0:
                    raise MapFormatError("wire count must be non-negative",
                                         lineno)
            elif wires is None:
                raise MapFormatError("stage before wires header", lineno)
            else:
                stages.append(_parse_stage(parts, wires, alphabet, lineno))
        except ShapeError as exc:
            raise MapFormatError(str(exc), lineno) from None
    if wires is None:
        raise MapFormatError("missing wires header")
    return Netlist(wires, tuple(stages)), alphabet
