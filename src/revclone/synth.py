"""Constructive builders for reversible maps.

Ancilla embedding of an arbitrary map into a bijection, factorization of a
bijection into elementary then atomic tuple swaps, realization of an
atomic swap by controlled gates, the odd-alphabet lift of wide controlled
gates down to one- and two-wire gates, the strong-temporary-storage lift
down to three-wire gates, and the end-to-end synthesis pipeline.

Every construction is verified by simulation in the test suite: netlists
and terms must reproduce their target tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gates, ops
from .core import Alphabet, Map, NotBijectiveError, Perm, ShapeError, \
    decode, encode, is_bijective
from .circuit import Bullet, IdLit, Netlist, Oplus, PiLit, Stage, Term, \
    TgLit, letter_spec, netlist_to_term, perm_from_spec, pi_spec, \
    simulate, spec_degree
from .group import from_map


# -- ancilla embedding --------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """A bijection on A^r whose reduct (constants o on the trailing
    inputs, leading outputs kept) is the embedded map."""

    r: int
    map: Map
    o: int
    theta1: tuple[int, ...]
    theta2: tuple[int, ...]

    def reduct_map(self) -> Map:
        m = len(self.theta1)
        positions = tuple(range(m + 1, self.r + 1))
        return ops.reduct(self.map, positions, self.theta2, self.o)


def _ceil_log(base: int, value: int) -> int:
    e = 0
    power = 1
    while power < value:
        power *= base
        e += 1
    return e


def embed(g: Map, o: int = 1) -> Embedding:
    """Complete g to a bijection on A^r.

    r = max(m, n + ceil(log_k of the largest preimage class)); rows of the
    form (x, o, ..., o) map to (g(x), tag) with tags enumerating each
    preimage class lexicographically, and the remaining rows are paired
    with the remaining outputs in lexicographic order, which makes the
    completion canonical.
    """
    alphabet = g.alphabet
    alphabet.check_letter(o)
    k = alphabet.size
    m, n = g.arity, g.coarity
    buckets: dict[int, list[int]] = {}
    for x, code in enumerate(g.codes):
        buckets.setdefault(code, []).append(x)
    largest = max(len(b) for b in buckets.values())
    r = max(m, n + _ceil_log(k, largest))
    # Input (x, o, ..., o) has index x * spread + tail; output (a, tag)
    # has code a * tags + tag.
    spread = alphabet.count(r - m)
    tail = encode((o,) * (r - m), alphabet, r - m)
    tags = alphabet.count(r - n)
    codes: list[int | None] = [None] * alphabet.count(r)
    for a in sorted(buckets):
        for tag, x in enumerate(buckets[a]):
            codes[x * spread + tail] = a * tags + tag
    used = set(codes)
    free_outputs = (c for c in range(len(codes)) if c not in used)
    codes = [c if c is not None else next(free_outputs) for c in codes]
    f = Map._unchecked(alphabet, r, r, tuple(codes))
    return Embedding(r, f, o, tuple(range(1, m + 1)), tuple(range(1, n + 1)))


# -- elementary / atomic factorization ---------------------------------------

def _transpositions(images: tuple[int, ...]) -> list[tuple[int, int]]:
    """Index pairs whose transpositions, applied in list order, multiply
    to the permutation with these images: each cycle is walked from its
    smallest point."""
    out: list[tuple[int, int]] = []
    seen = [False] * len(images)
    for start, image in enumerate(images):
        if seen[start] or image == start:
            continue
        point = image
        while point != start:
            seen[point] = True
            out.append((start, point))
            point = images[point]
    return out


def _atomic_steps(x: tuple[int, ...], y: tuple[int, ...]
                  ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Tuple pairs whose atomic swaps, applied in list order, multiply to
    the swap of x and y: the palindrome over the one-coordinate-at-a-time
    interpolation from x to y, 2d - 1 steps for Hamming distance d."""
    chain = [x]
    current = list(x)
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            current[i] = b
            chain.append(tuple(current))
    steps = list(zip(chain, chain[1:]))
    return steps + steps[-2::-1]


def _swap_stages(x: tuple[int, ...], y: tuple[int, ...], o: int,
                 k: int) -> list[Stage]:
    """The stages of atomic_to_gates for the swap of the tuples x and y,
    which differ in one coordinate."""
    n = len(x)
    diff = next(i for i in range(n) if x[i] != y[i]) + 1
    if n == 1:
        return [Stage("u", Perm.from_cycles([(x[0], y[0])], degree=k),
                      None, (1,))]
    routing: list[Stage] = []
    xr, yr = list(x), list(y)
    if diff != n:
        routing.append(Stage("pi", Perm.from_cycles([(1, 2)], degree=2),
                             None, (diff, n)))
        xr[diff - 1], xr[n - 1] = xr[n - 1], xr[diff - 1]
        yr[diff - 1], yr[n - 1] = yr[n - 1], yr[diff - 1]
    layer = [Stage("u", Perm.from_cycles([(o, xr[j])], degree=k), None, (j + 1,))
             for j in range(n - 1) if xr[j] != o]
    core = Stage("tg", Perm.from_cycles([(xr[n - 1], yr[n - 1])], degree=k),
                 o, tuple(range(1, n + 1)))
    return routing + layer + [core] + layer + routing


def decompose_elementary(f: Map) -> list[Map]:
    """Elementary tuple swaps whose product, applied in list order,
    equals f.  The identity gives the empty list."""
    return [gates._transposition(f.alphabet, f.arity, i, j)
            for i, j in _transpositions(from_map(f).images)]


def elementary_to_atomic(e: Map) -> list[Map]:
    """Atomic swaps whose product, applied in list order, equals the
    elementary swap e.  The factor list is the palindrome over the
    one-coordinate-at-a-time interpolation between the swapped tuples, so
    its length is 2d - 1 for Hamming distance d."""
    pair = gates.elementary_pair(e)
    if pair is None:
        raise ShapeError("not an elementary permutation")
    return [gates.elementary(e.alphabet, u, v) for u, v in _atomic_steps(*pair)]


def atomic_to_gates(a: Map, o: int) -> Netlist:
    """Realize an atomic swap by a controlled gate conjugated by unary
    gates (and a wire swap when the moved coordinate is not the last).

    Stage order is application order: routing, the unary layer mapping the
    control letters to o, the controlled gate, then the same layers again.
    """
    pair = gates.elementary_pair(a)
    if pair is None or sum(u != v for u, v in zip(*pair)) != 1:
        raise ShapeError("not an atomic permutation")
    a.alphabet.check_letter(o)
    return Netlist(a.arity, tuple(_swap_stages(*pair, o, a.alphabet.size)))


# -- factoring letter permutations over the swap and the cycle ----------------

_FACTOR_CACHE: dict[int, dict[tuple[int, ...], tuple[Perm, ...]]] = {}
_FACTOR_LIMIT = 9


def factor_over_standard(alpha: Perm) -> tuple[Perm, ...]:
    """A word over {(1 2), (1 ... k)} whose left-to-right product is
    alpha; shortest by breadth-first search, ties broken swap-first."""
    k = alpha.degree
    if k < 2:
        if alpha.is_identity():
            return ()
        raise ShapeError("cannot factor over a one-letter alphabet")
    if k > _FACTOR_LIMIT:
        raise ShapeError("letter permutation factoring is table-driven",
                         expected=f"alphabet size <= {_FACTOR_LIMIT}", actual=k)
    table = _FACTOR_CACHE.get(k)
    if table is None:
        swap = Perm.from_cycles([(1, 2)], degree=k)
        cycle = Perm.from_cycles([tuple(range(1, k + 1))], degree=k)
        gens = (swap, cycle)
        ident = Perm.identity(k)
        table = {ident.images: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                word = table[p.images]
                for gen in gens:
                    child = p * gen
                    if child.images not in table:
                        table[child.images] = word + (gen,)
                        nxt.append(child)
            frontier = nxt
        _FACTOR_CACHE[k] = table
    return table[alpha.images]


# -- odd-alphabet lift ---------------------------------------------------------

def lift_odd(n_target: int, alpha: Perm) -> Term:
    """A term over one- and two-wire gates and wire permutations that
    evaluates to the n_target-wire controlled gate for alpha with control
    letter 1.  Odd alphabets only: on even alphabets the padded lower
    gates act as even permutations of the tuples, so wide gates with odd
    sign are unreachable and no such term exists.
    """
    k = alpha.degree
    if k < 3 or k % 2 == 0:
        raise ShapeError("the lift needs an odd alphabet of size >= 3",
                         actual=k)
    if n_target < 1:
        raise ShapeError("gate width must be positive", actual=n_target)
    return _lift_tg(n_target, alpha)


def _fold_applied(factors: list[Term]) -> Term:
    """Bullet-chain of factors given in application order (first applied
    first)."""
    term = factors[0]
    for nxt in factors[1:]:
        term = Bullet(nxt, term)
    return term


def _pad_after(gate: Term, pad: int) -> Term:
    return Oplus(gate, IdLit(pad)) if pad else gate


def _pad_before(pad: int, gate: Term) -> Term:
    return Oplus(IdLit(pad), gate) if pad else gate


def _lift_tg(n: int, delta: Perm) -> Term:
    if n <= 2:
        if delta.is_identity():
            return IdLit(n)
        return TgLit(n, letter_spec(delta), 1)
    word = factor_over_standard(delta)
    if not word:
        return IdLit(n)
    factors = [_lift_generator(n, gen) for gen in word]
    return _fold_applied(factors)


def _lift_generator(n: int, gamma: Perm) -> Term:
    """The width-n gate for gamma in {(1 2), (1 ... k)} as a term over
    width n-1 gates (recursively lifted) and two-wire gates."""
    k = gamma.degree
    nn = n - 1
    swap = Perm.from_cycles([(1, 2)], degree=k)
    cycle = Perm.from_cycles([tuple(range(1, k + 1))], degree=k)
    wire_swap = PiLit(pi_spec(Perm.from_cycles([(nn, nn + 1)], degree=nn + 1)))
    tg2 = lambda perm: TgLit(2, letter_spec(perm), 1)
    if gamma == swap:
        sigma1 = _fold_applied([
            _pad_after(_lift_tg(nn, cycle), 1),
            _pad_before(nn - 1, tg2(swap)),
            wire_swap,
            _pad_after(_lift_tg(nn, swap), 1),
            wire_swap,
            _pad_after(_lift_tg(nn, cycle.inverse()), 1),
        ])
        sigmas = []
        for m in range(2, k):
            flip = _pad_after(_lift_tg(nn, Perm.from_cycles([(1, m)], degree=k)), 1)
            sigmas.append(_fold_applied([flip, _pad_before(nn - 1, tg2(swap)),
                                         flip]))
        sigma2 = _fold_applied(sigmas)
        return Bullet(sigma2, sigma1)
    if gamma == cycle:
        beta = cycle ** ((k + 1) // 2)
        points = [1]
        while len(points) < k:
            points.append(beta(points[-1]))
        half = (k - 1) // 2
        pairing = Perm.from_cycles(
            [(points[i], points[k - 1 - i]) for i in range(half)], degree=k)
        flip = _pad_after(_lift_tg(nn, pairing), 1)
        return _fold_applied([
            _pad_before(nn - 1, tg2(beta)),
            wire_swap,
            flip,
            wire_swap,
            _pad_before(nn - 1, tg2(beta.inverse())),
            wire_swap,
            flip,
            wire_swap,
        ])
    raise ShapeError("generator lift only covers the swap and the cycle",
                     actual=gamma.cycles())


# -- strong temporary storage lift ---------------------------------------------

@dataclass(frozen=True)
class TempStorageLift:
    """A wide controlled gate realized with strong temporary storage by
    three-wire gates: ``reduct`` (the target gate) is the reduct of
    ``realiser`` under ``constants`` on the trailing ancilla wires."""

    term: Term
    constants: tuple[int, ...]
    reduct: Map
    netlist: Netlist
    realiser: Map


def lift_temp_storage(n_target: int, alpha: Perm, o: int,
                      p: int | None = None) -> TempStorageLift:
    """Realize the n_target-wire controlled gate using gates on at most
    three wires, one ancilla wire per recursion level, initialized to a
    letter p distinct from the control letter o.

    Data wires come first, ancillas after, so the temporary-storage
    normal form (constants on trailing inputs) applies directly.
    """
    k = alpha.degree
    alphabet = Alphabet(k)
    alphabet.check_letter(o)
    if n_target < 4:
        raise ShapeError("widths below four are primitive here",
                         expected=">= 4", actual=n_target)
    if p is None:
        p = next(letter for letter in alphabet.letters() if letter != o)
    alphabet.check_letter(p)
    if p == o:
        raise ShapeError("the ancilla letter must differ from the control letter",
                         actual=p)
    levels = n_target - 3
    width = n_target + levels
    beta = Perm.from_cycles([(o, p)], degree=k)
    stages: list[Stage] = []

    def ancilla(level: int) -> int:
        return n_target + (n_target - level) + 1

    def expand(level: int, perm: Perm, wires: tuple[int, ...]) -> None:
        if level <= 3:
            stages.append(Stage("tg", perm, o, wires))
            return
        a = ancilla(level)
        inner = wires[:level - 2] + (a,)
        expand(level - 1, beta, inner)
        stages.append(Stage("tg", perm, o, (a, wires[level - 2], wires[level - 1])))
        expand(level - 1, beta, inner)

    expand(n_target, alpha, tuple(range(1, n_target + 1)))
    netlist = Netlist(width, tuple(stages))
    realiser = simulate(netlist, alphabet)
    constants = (p,) * levels
    positions = tuple(range(n_target + 1, width + 1))
    reduct = ops.reduct(realiser, positions, tuple(range(1, n_target + 1)), p)
    return TempStorageLift(netlist_to_term(netlist), constants, reduct,
                           netlist, realiser)


# -- end-to-end synthesis --------------------------------------------------------

def _term_stages(term: Term, k: int, wires: tuple[int, ...]
                 ) -> tuple[list[Stage], int]:
    """Flatten a stage-shaped term (bullets and juxtapositions of gate and
    wire-permutation literals) into netlist stages whose term wire i is
    wires[i - 1]; also return the number of wires the term spans."""
    if isinstance(term, IdLit):
        return [], term.n
    if isinstance(term, TgLit):
        perm = perm_from_spec(term.perm, k)
        if term.n == 1:
            return [Stage("u", perm, None, wires[:1])], 1
        return [Stage("tg", perm, term.o, wires[:term.n])], term.n
    if isinstance(term, PiLit):
        d = spec_degree(term.perm)
        swap = Perm.from_cycles([(1, 2)], degree=2)
        stages = []
        for cycle in perm_from_spec(term.perm, d).cycles():
            for b in cycle[1:]:
                stages.append(Stage("pi", swap, None,
                                    (wires[cycle[0] - 1], wires[b - 1])))
        return stages, d
    if isinstance(term, Oplus):
        left, ln = _term_stages(term.left, k, wires)
        right, rn = _term_stages(term.right, k, wires[ln:])
        return left + right, ln + rn
    if isinstance(term, Bullet):
        right, rn = _term_stages(term.right, k, wires)
        left, ln = _term_stages(term.left, k, wires)
        if ln != rn:
            raise ShapeError("only balanced chains flatten to stages",
                             expected=rn, actual=ln)
        return right + left, ln
    raise ShapeError(f"term node {type(term).__name__} is not stage-shaped")


def synthesize(f: Map, gate_policy: str = "tg-n", o: int = 1) -> Netlist:
    """Factor a balanced bijection into a gate netlist.

    Policy "tg-n" uses controlled gates up to the full width.  Policy
    "odd-small" (odd alphabets only, control letter 1) further expands
    every gate on three or more wires through the odd-alphabet lift and
    rewrites the remaining letter permutations over the unary swap/cycle
    and their two-wire gates, so every stage is one of the four standard
    generators or a wire permutation.
    """
    if f.arity != f.coarity or not is_bijective(f):
        raise NotBijectiveError("synthesis needs a balanced bijection")
    alphabet = f.alphabet
    alphabet.check_letter(o)
    if gate_policy not in ("tg-n", "odd-small"):
        raise ShapeError("unknown gate policy", actual=gate_policy)
    if gate_policy == "odd-small":
        if alphabet.size % 2 == 0:
            raise ShapeError(
                "odd-small is impossible on even alphabets: identity-padded "
                "gates on fewer wires are even permutations of the tuples, "
                "so gates of odd sign cannot be reached")
        if o != 1:
            raise ShapeError("odd-small fixes the control letter to 1",
                             actual=o)
    n = f.arity
    k = alphabet.size
    stages: list[Stage] = []
    for i, j in _transpositions(f.codes):
        x, y = decode(i, alphabet, n), decode(j, alphabet, n)
        for u, v in _atomic_steps(x, y):
            stages.extend(_swap_stages(u, v, o, k))
    if gate_policy == "tg-n":
        return Netlist(n, tuple(stages))
    narrow: list[Stage] = []
    for stage in stages:
        if stage.kind == "tg" and len(stage.wires) > 2:
            term = lift_odd(len(stage.wires), stage.perm)
            narrow.extend(_term_stages(term, k, stage.wires)[0])
        else:
            narrow.append(stage)
    out: list[Stage] = []
    for stage in narrow:
        if stage.kind == "pi":
            out.append(stage)
        else:
            out.extend(Stage(stage.kind, gen, stage.o, stage.wires)
                       for gen in factor_over_standard(stage.perm))
    return Netlist(n, tuple(out))
