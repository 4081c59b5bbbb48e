"""Constructive builders for reversible maps.

Ancilla embedding of an arbitrary map into a bijection, factorization of a
bijection into elementary then atomic tuple swaps, realization of an
atomic swap by controlled gates, two odd-alphabet lifts of wide controlled
gates down to one- and two-wire gates (the paper's ladder as a term, and
a polynomial-size commutator lift as netlist stages), the
strong-temporary-storage lift down to three-wire gates, and the
end-to-end synthesis pipeline.

Every construction is verified by simulation in the test suite: netlists
and terms must reproduce their target tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import gates, ops
from .core import Alphabet, Map, NotBijectiveError, Perm, ShapeError, \
    _transpositions, decode, encode, is_bijective
from .circuit import Bullet, IdLit, Netlist, Oplus, PiLit, Stage, Term, \
    TgLit, _fold_applied, letter_spec, pi_spec, simulate
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


def _letter_swaps(k: int) -> dict[tuple[int, int], Perm]:
    """Each transposition of k letters, keyed by its pair in either order."""
    return {(a, b): Perm.from_cycles([(a, b)], degree=k)
            for a in range(1, k + 1) for b in range(1, k + 1) if a != b}


def _swap_stages(x: tuple[int, ...], y: tuple[int, ...], o: int,
                 swaps: dict[tuple[int, int], Perm]) -> list[Stage]:
    """The stages of atomic_to_gates for the swap of the tuples x and y,
    which differ in one coordinate; swaps is _letter_swaps(k)."""
    n = len(x)
    diff = next(i for i in range(n) if x[i] != y[i])
    if n == 1:
        return [Stage("u", swaps[x[0], y[0]], None, (1,))]
    routing: list[Stage] = []
    controls = list(x[:n - 1])
    if diff < n - 1:
        # The wire swap moves the last letter to the moved coordinate.
        routing.append(Stage("pi", Perm((2, 1)), None, (diff + 1, n)))
        controls[diff] = x[n - 1]
    layer = [Stage("u", swaps[o, c], None, (j + 1,))
             for j, c in enumerate(controls) if c != o]
    core = Stage("tg", swaps[x[diff], y[diff]], o, tuple(range(1, n + 1)))
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
    return Netlist(a.arity, tuple(_swap_stages(
        *pair, o, _letter_swaps(a.alphabet.size))))


# -- factoring letter permutations over the swap and the cycle ----------------

_FACTOR_CACHE: dict[int, dict[tuple[int, ...], Perm | None]] = {}
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
        # Breadth-first on raw images; each permutation keeps only the last
        # letter of its word (None: the identity), to rebuild words backwards.
        gens = (gates.swap_perm(k), gates.cycle_perm(k))
        identity = Perm.identity(k).images
        table = {identity: None}
        frontier = [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for gen in gens:
                    images = gen.images
                    child = tuple([images[i - 1] for i in p])
                    if child not in table:
                        table[child] = gen
                        nxt.append(child)
            frontier = nxt
        _FACTOR_CACHE[k] = table
    word = []
    images = alpha.images
    while (gen := table[images]) is not None:
        word.append(gen)
        # The word's prefix p has images[q] == gen(p[q]) for every q.
        images = tuple([gen.images.index(c) + 1 for c in images])
    return tuple(reversed(word))


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
    swap, cycle = gates.swap_perm(k), gates.cycle_perm(k)
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


# -- commutator lift -----------------------------------------------------------

_COMMUTATOR_CACHE: dict[tuple[int, ...], tuple[Perm, Perm]] = {}


def _by_word_length(k: int) -> Iterator[tuple[int, ...]]:
    """The images of every permutation of k letters, in the breadth-first
    order of factor_over_standard: shortest words first."""
    factor_over_standard(Perm.identity(k))
    return iter(_FACTOR_CACHE[k])


def _full_cycles(p: Perm) -> list[tuple[int, ...]]:
    """The cycles of p with its fixed points as 1-cycles, longest first."""
    cycles = list(p.cycles())
    moved = {q for c in cycles for q in c}
    cycles += [(q,) for q in range(1, p.degree + 1) if q not in moved]
    return sorted(cycles, key=len, reverse=True)


def _relabelling(x: Perm, d: Perm, sign: int) -> Perm | None:
    """A permutation phi of the given sign with d(phi(q)) = phi(x(q)) for
    every point q; None when there is no such phi."""
    cx, cd = _full_cycles(x), _full_cycles(d)
    if [len(c) for c in cx] != [len(c) for c in cd]:
        return None

    def align() -> Perm:
        images = [0] * x.degree
        for a, b in zip(cx, cd):
            for q, r in zip(a, b):
                images[q - 1] = r
        return Perm(tuple(images))

    phi = align()
    if phi.sign() == sign:
        return phi
    # Composing phi with an odd permutation that commutes with x flips
    # its sign: rotate along an even cycle of x, or exchange two cycles of
    # the same odd length (adjacent, since cx is sorted by length).
    for i, c in enumerate(cx):
        if len(c) % 2 == 0:
            cd[i] = cd[i][1:] + cd[i][:1]
            return align()
    for i in range(len(cx) - 1):
        if len(cx[i]) == len(cx[i + 1]):
            cd[i], cd[i + 1] = cd[i + 1], cd[i]
            return align()
    return None


def _commutator(alpha: Perm) -> tuple[Perm, Perm]:
    """beta and gamma with beta * gamma * beta^-1 * gamma^-1 == alpha, for
    an even alpha on an odd number k of letters.

    For k >= 5 both are even (every element of A_k is a commutator of two
    of its elements: Ore, 1951); for k = 3 they are transpositions.  beta
    is the first permutation of that sign, shortest words first, for which
    beta^-1 * alpha is conjugate to beta^-1 by a permutation gamma of the
    same sign.
    """
    pair = _COMMUTATOR_CACHE.get(alpha.images)
    if pair is None:
        k = alpha.degree
        sign = -1 if k == 3 else 1
        for images in _by_word_length(k):
            beta = Perm(images)
            if beta.sign() != sign:
                continue
            x = beta.inverse()
            phi = _relabelling(x, x * alpha, sign)
            if phi is not None:
                pair = _COMMUTATOR_CACHE[alpha.images] = beta, phi.inverse()
                break
    return pair


def _lift_stages(wires: tuple[int, ...], alpha: Perm) -> list[Stage]:
    """Stages that apply alpha to the last wire when every other wire
    carries the letter 1, each one of the four standard generators (the
    swap and the cycle, unary or with one control) on at most two wires.
    Odd alphabets only.

    The gate C_P(alpha) with controls P is built recursively:
    - |P| <= 1: the gate itself, factored over the swap and the cycle.
    - alpha even: C_A(beta), C_B(gamma), C_A(beta^-1), C_B(gamma^-1) for
      the halves A, B of P and a commutator beta * gamma * beta^-1 *
      gamma^-1 == alpha: the commutator identity for controlled gates
      (Barenco et al., Phys. Rev. A 52 (1995) 3457).
    - alpha the swap, P = Q + (c): C_Q(swap) on the target, then k - 1
      times C_Q(cycle) on c and C_c(swap) on the target, then C_Q(cycle)
      on c.  When Q carries 1s, c steps through all k letters and back,
      so the swap controlled by c fires once unless c starts at 1;
      otherwise it fires k - 1 times (an even number) or never.
    - alpha another transposition (a b): phi^-1 * swap * phi for the
      phi with the shortest word that sends {1, 2} to {a, b}, with phi^-1
      and phi as unary gates on the target around C_P(swap).
    - alpha otherwise odd: C_P(swap), then the even C_P(swap * alpha).
    The stage count grows polynomially with the width, where lift_odd's
    grows exponentially.
    """
    k = alpha.degree
    if k < 3 or k % 2 == 0:
        raise ShapeError("the lift needs an odd alphabet of size >= 3",
                         actual=k)
    swap, cycle = gates.swap_perm(k), gates.cycle_perm(k)
    out: list[Stage] = []

    def gate(controls: tuple[int, ...], target: int, perm: Perm) -> None:
        if perm.is_identity():
            return
        if len(controls) <= 1:
            kind, o = ("tg", 1) if controls else ("u", None)
            out.extend(Stage(kind, gen, o, controls + (target,))
                       for gen in factor_over_standard(perm))
            return
        if perm.sign() == 1:
            half = len(controls) // 2
            a, b = controls[:half], controls[half:]
            beta, gamma = _commutator(perm)
            gate(a, target, beta)
            gate(b, target, gamma)
            gate(a, target, beta.inverse())
            gate(b, target, gamma.inverse())
            return
        cycles = perm.cycles()
        if perm != swap and len(cycles) == 1 and len(cycles[0]) == 2:
            ends = set(cycles[0])
            phi = Perm(next(images for images in _by_word_length(k)
                            if {images[0], images[1]} == ends))
            gate((), target, phi.inverse())
            gate(controls, target, swap)
            gate((), target, phi)
            return
        q, c = controls[:-1], controls[-1]
        gate(q, target, swap)
        for _ in range(k - 1):
            gate(q, c, cycle)
            gate((c,), target, swap)
        gate(q, c, cycle)
        gate(controls, target, swap * perm)

    gate(wires[:-1], wires[-1], alpha)
    return out


# -- strong temporary storage lift ---------------------------------------------

@dataclass(frozen=True)
class TempStorageLift:
    """A wide controlled gate realized with strong temporary storage by
    three-wire gates: ``reduct`` (the target gate) is the reduct of
    ``realiser``, the map that ``netlist`` simulates to, under
    ``constants`` on the trailing ancilla wires."""

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
        if k < 2:
            raise ShapeError("the ancilla letter must differ from the "
                             "control letter", expected="alphabet size >= 2",
                             actual=k)
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
    return TempStorageLift(constants, reduct, netlist, realiser)


# -- end-to-end synthesis --------------------------------------------------------

def _add_stage(stages: list[Stage], stage: Stage) -> None:
    """Append stage, or drop it together with the nearest earlier stage
    that shares a wire with it when the two cancel: the same kind, wires
    and control letter with inverse permutations.  Only stages on disjoint
    wires, which commute with both, lie between the two."""
    wires = stage.wires
    touched = set(wires)
    undo = stage.perm.images
    for i in range(len(stages) - 1, -1, -1):
        prev = stages[i]
        if not touched.isdisjoint(prev.wires):
            # undo sends every image of prev.perm back to its point.
            if (prev.wires == wires and prev.kind == stage.kind
                    and prev.o == stage.o
                    and all(undo[q - 1] == p
                            for p, q in enumerate(prev.perm.images, 1))):
                del stages[i]
                return
            break
    stages.append(stage)


def synthesize(f: Map, gate_policy: str = "tg-n", o: int = 1) -> Netlist:
    """Factor a balanced bijection into a gate netlist.

    Policy "tg-n" uses controlled gates up to the full width.  Policy
    "odd-small" (odd alphabets only, control letter 1) further expands
    every gate on three or more wires through the commutator lift, whose
    size is polynomial in the width (lift_odd, the paper's ladder, grows
    exponentially), and rewrites the remaining letter permutations over
    the unary swap/cycle and their two-wire gates, so every stage is one
    of the four standard generators or a wire permutation.  A stage that
    would cancel the nearest earlier stage on a shared wire is dropped
    together with it.
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
    swaps = _letter_swaps(alphabet.size)
    stages: list[Stage] = []
    for i, j in _transpositions(f.codes):
        x, y = decode(i, alphabet, n), decode(j, alphabet, n)
        for u, v in _atomic_steps(x, y):
            for stage in _swap_stages(u, v, o, swaps):
                _add_stage(stages, stage)
    if gate_policy == "tg-n":
        return Netlist(n, tuple(stages))
    # Every wide gate is on all n wires, so its lift depends on its
    # letter permutation alone.
    lifts: dict[Perm, list[Stage]] = {}
    out: list[Stage] = []
    for stage in stages:
        if stage.kind == "pi":
            narrow = [stage]
        elif len(stage.wires) > 2:
            narrow = lifts.get(stage.perm)
            if narrow is None:
                narrow = lifts[stage.perm] = _lift_stages(stage.wires,
                                                          stage.perm)
        else:
            narrow = [Stage(stage.kind, gen, stage.o, stage.wires)
                      for gen in factor_over_standard(stage.perm)]
        for s in narrow:
            _add_stage(out, s)
    return Netlist(n, tuple(out))
