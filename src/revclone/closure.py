"""Closure computations.

Bounded breadth-first saturation under the composition operations (with or
without variable identification / dummy variables), the arity-n slice of a
bijective closure as a permutation group, closure under constant insertion
(K), component selection (S), and bijection restriction (R), the
realisation search with its verdict ladder, and the exact temporary-storage
predicate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, permutations
from typing import Iterable, Mapping, Sequence

from . import ops
from .core import Alphabet, Map, NotBijectiveError, ShapeError, decode, \
    encode, identity_map, is_bijective
from .gates import cycle_perm, swap_perm
from .group import TupleGroup, from_map


@dataclass(frozen=True)
class GeneratorSet:
    """Named maps over one alphabet."""

    alphabet: Alphabet
    named: tuple[tuple[str, Map], ...]

    def __post_init__(self):
        for name, m in self.named:
            if m.alphabet != self.alphabet:
                raise ShapeError(f"generator {name!r} uses a different alphabet",
                                 expected=self.alphabet.size,
                                 actual=m.alphabet.size)

    @classmethod
    def of(cls, generators, alphabet: Alphabet | None = None) -> "GeneratorSet":
        """Accepts a mapping name -> Map, an iterable of (name, Map) pairs,
        or an iterable of Maps (auto-named)."""
        if isinstance(generators, GeneratorSet):
            return generators
        if isinstance(generators, Mapping):
            named = tuple((str(k), v) for k, v in generators.items())
        else:
            named = []
            for i, item in enumerate(generators):
                if isinstance(item, tuple):
                    named.append((str(item[0]), item[1]))
                else:
                    named.append((f"f{i}", item))
            named = tuple(named)
        if alphabet is None:
            if not named:
                raise ShapeError("empty generator set needs an explicit alphabet")
            alphabet = named[0][1].alphabet
        return cls(alphabet, named)

    @property
    def maps(self) -> tuple[Map, ...]:
        return tuple(m for _, m in self.named)


@dataclass(frozen=True)
class SearchCaps:
    """Bounds for saturation searches."""

    max_arity: int
    max_coarity: int
    max_size: int = 200_000
    max_depth: int | None = None

    def __post_init__(self):
        if self.max_arity < 1 or self.max_coarity < 1 or self.max_size < 1:
            raise ShapeError("caps must be positive",
                             actual=(self.max_arity, self.max_coarity,
                                     self.max_size))
        if self.max_depth is not None and self.max_depth < 1:
            raise ShapeError("max_depth must be positive", actual=self.max_depth)

    def admits(self, arity: int, coarity: int) -> bool:
        return arity <= self.max_arity and coarity <= self.max_coarity


@dataclass(frozen=True)
class SaturationStats:
    """The work one saturation did.

    Every seed and every application is one candidate.  A candidate whose
    shape exceeds the caps is a shape rejection and its table is never
    built; every other application builds a table (``built_unary``,
    ``built_oplus`` or ``built_compose``), and each seed within the caps
    and each built table is then a duplicate, a budget rejection or kept.
    ``stop`` is "closed", or the budget that ended the search: "size" or
    "depth".  ``depth`` is that of the deepest kept map: seeds have depth
    0 and an application is one deeper than its deepest operand.
    ``pairs_skipped`` counts the pairs whose shapes fit no table, so that
    combining them built nothing.
    """

    dequeued: int
    pairs: int
    built_unary: int
    built_oplus: int
    built_compose: int
    duplicates: int
    shape_rejected: int
    budget_rejected: int
    kept: int
    stop: str
    depth: int
    pairs_skipped: int

    @property
    def built(self) -> int:
        return self.built_unary + self.built_oplus + self.built_compose

    @property
    def admit_ratio(self) -> float:
        """Maps kept (seeds included) per table built."""
        return self.kept / self.built if self.built else 0.0


@dataclass(frozen=True)
class SaturationResult:
    """Maps reached by bounded saturation, in deterministic insertion
    order.

    ``capped`` records that some application was rejected for exceeding
    the shape caps (so the infinite closure is under-approximated beyond
    them); ``overflowed`` records that the element or depth budget ran out,
    in which case even in-cap shapes may be missing.  ``stats`` counts the
    work done; it takes no part in comparisons.
    """

    maps: tuple[Map, ...]
    capped: bool
    overflowed: bool
    stats: SaturationStats | None = field(default=None, compare=False)

    def map_set(self) -> frozenset[Map]:
        return frozenset(self.maps)


def slice_group(generators, n: int, alphabet: Alphabet | None = None
                ) -> TupleGroup:
    """The arity-n slice of the closure of bijective generators, as a
    permutation group on encoded tuples.

    Generators of arity m < n are padded with identity wires; wire
    permutations come in through the swap and full-cycle generators of the
    position permutations (the generated group is the same as with every
    wire permutation listed).
    """
    gen_set = GeneratorSet.of(generators, alphabet)
    alphabet = gen_set.alphabet
    if n < 1:
        raise ShapeError("slice arity must be positive", actual=n)
    padded: list[tuple[str, Map]] = []
    for name, m in gen_set.named:
        if not is_bijective(m):
            raise NotBijectiveError(f"generator {name!r} is not bijective")
        if m.arity > n:
            raise ShapeError(f"generator {name!r} exceeds the slice arity",
                             expected=f"<= {n}", actual=m.arity)
        pad = n - m.arity
        if pad:
            padded.append((f"{name}+i{pad}",
                           ops.oplus(m, identity_map(alphabet, pad))))
        else:
            padded.append((name, m))
    if n >= 2:
        padded.append(("pi(1,2)", ops.pi(alphabet, swap_perm(n))))
        if n >= 3:
            padded.append((f"pi(1..{n})", ops.pi(alphabet, cycle_perm(n))))
    named_perms = [(name, from_map(m)) for name, m in padded]
    return TupleGroup.build(named_perms, degree=alphabet.count(n))


def saturate(generators, caps: SearchCaps, with_delta_nabla: bool = False,
             alphabet: Alphabet | None = None) -> SaturationResult:
    """Breadth-first closure under {i_1, oplus, tau, zeta, compose_k},
    plus {delta, nabla} when requested, within the shape caps.

    Deterministic: elements are kept in first-reached order.  Each
    unordered pair of elements (an element with itself included) is
    combined once, by the first of the two to be dequeued after both were
    reached; a dequeued element meets its partners in first-reached order,
    with a fixed operation order per pair.  A candidate whose shape
    exceeds the caps sets ``capped`` without its table being built.
    Pairs are combined on raw output codes, every candidate is
    deduplicated in the set of codes kept for its shape, and a Map is made
    only for an element kept.  What a pair builds depends on the
    partners' shapes alone, so it is planned once per dequeued element
    and partner shape.  A composite is an index gather of the inner
    map's codes out of the outer map's codes, or out of a table lifted
    from them once per dequeued element, unless the dequeued element is
    the inner map and keeps some of its outputs; that one is built row by
    row.
    The result's ``stats`` count the work done and why the search stopped.
    """
    gen_set = GeneratorSet.of(generators, alphabet)
    alphabet = gen_set.alphabet
    seeds = [identity_map(alphabet, 1)]
    seeds.extend(gen_set.maps)
    oplus_codes, compose_codes = ops._oplus_codes, ops._compose_codes
    gatherer, lift_codes = ops._gatherer, ops._lift_codes
    max_arity, max_coarity = caps.max_arity, caps.max_coarity
    max_size, max_depth = caps.max_size, caps.max_depth
    # power[e] == k^e for every exponent a composite within the caps uses.
    power = [alphabet.count(e) for e in range(max(max_arity, max_coarity) + 1)]

    # elems is also the breadth-first queue: elems[i] is dequeued once
    # every earlier element has been.  shapes[i] and depths[i] are its
    # (arity, coarity) and depth, and gathers[e][i] is its ops._gatherer
    # for pad k^e, made on first use; a composite pads by k^e < k^max_arity.
    elems: list[Map] = []
    shapes: list[tuple[int, int]] = []
    depths: list[int] = []
    gathers: list[list] = [[] for _ in range(max_arity)]
    seen: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    # pairs_upto[i]: len(elems) when elems[i] was paired, so elems[i] has
    # been combined with exactly the elements before that index.
    pairs_upto: list[int] = []
    capped = False
    overflowed = False
    stop = "closed"
    dequeued = pairs = pairs_skipped = 0
    built_unary = built_oplus = built_compose = 0
    duplicates = shape_rejected = budget_rejected = 0

    def slot(arity: int, coarity: int) -> tuple:
        """The shape (arity, coarity) and seen[shape], the codes kept of it."""
        shape = (arity, coarity)
        return shape, seen.setdefault(shape, set())

    def admit(shape: tuple[int, int], bucket: set, codes: tuple[int, ...],
              d: int) -> None:
        """Keep a candidate that fits the caps, unless its shape's bucket
        holds it (the pair loop tests a composite's) or a budget ran out."""
        nonlocal overflowed, stop, duplicates, budget_rejected
        if codes in bucket:
            duplicates += 1
        elif len(elems) >= max_size or (max_depth is not None
                                        and d > max_depth):
            if not overflowed:
                stop = "size" if len(elems) >= max_size else "depth"
            overflowed = True
            budget_rejected += 1
        else:
            bucket.add(codes)
            shapes.append(shape)
            depths.append(d)
            elems.append(Map._unchecked(alphabet, *shape, codes))

    def lifted(e: int, t: int) -> tuple[int, ...]:
        """x's table for composites with pad k^e and tail k^t."""
        if t == 0:
            return xcodes
        table = lifts.get((e, t))
        if table is None:
            table = lifts[e, t] = lift_codes(xcodes, power[e], power[t])
        return table

    def plan(ya: int, yc: int, self_pair: bool) -> tuple:
        """What pairing x with a partner of shape (ya, yc) builds: the
        oplus slot and the partner's oplus scale, the number of oplus
        tables, the shape rejections, the composites x after y as (shape,
        bucket, gather column, pad, x's table) and y after x as (shape,
        bucket, pad, tail, gather or None), and the tables built."""
        arity, coarity = xa + ya, xc + yc
        # Either composite along k wires has shape (arity - k, coarity -
        # k), which exceeds the caps for k < k_lo; such a k exists only
        # when the oplus shape exceeds them too.
        k_lo = max(1, arity - max_arity, coarity - max_coarity)
        forward = tuple(
            (*slot(arity - k, coarity - k), gathers[xa - k], power[xa - k],
             lifted(xa - k, yc - k))
            for k in range(k_lo, min(xa, yc) + 1))
        # y after x consumes all of x's outputs only for k == xc; then it
        # is x's gather applied to y's codes.  The self-pair skips the
        # reversed builds: they would repeat the forward ones, which are
        # seen or set the same flag.
        reverse = () if self_pair else tuple(
            (*slot(arity - k, coarity - k), power[ya - k], power[xc - k],
             gatherer(xcodes, power[ya - k]) if k == xc else None)
            for k in range(k_lo, min(ya, xc) + 1))
        if arity <= max_arity and coarity <= max_coarity:
            n_oplus, rejected = (1 if self_pair else 2), 0
        else:
            n_oplus = 0
            rejected = 1 + min(k_lo - 1, xa, yc)
            if not self_pair:
                rejected += 1 + min(k_lo - 1, ya, xc)
        return (slot(arity, coarity), power[yc], n_oplus, rejected, forward,
                reverse, n_oplus + len(forward) + len(reverse))

    for seed in seeds:
        if caps.admits(seed.arity, seed.coarity):
            admit(*slot(seed.arity, seed.coarity), seed.codes, 0)
        else:
            capped = True
            shape_rejected += 1

    i = 0
    while i < len(elems) and not overflowed:
        x = elems[i]
        xa, xc = shapes[i]
        xcodes = x.codes
        d = depths[i] + 1
        dequeued += 1
        # tau, zeta and delta keep x's shape or drop an input, so their
        # results fit the caps; nabla adds an input, so its shape is
        # checked before it is built.
        unary = [ops.tau(x), ops.zeta(x)]
        if with_delta_nabla:
            unary.append(ops.delta(x))
            if xa < max_arity:
                unary.append(ops.nabla(x))
            else:
                capped = True
                shape_rejected += 1
        built_unary += len(unary)
        for m in unary:
            admit(*slot(m.arity, m.coarity), m.codes, d)
        n = len(elems)
        for column in gathers:
            column.extend([None] * (n - len(column)))
        pairs_upto.append(n)
        # Earlier elements j with i < pairs_upto[j] were already combined
        # with x; pairs_upto is nondecreasing, so they form [j0, i).
        j0 = bisect_right(pairs_upto, i, 0, i)
        if overflowed and j0 == 0 < i:
            # A unary result overflowed, so the search ends after x's
            # first pair, (x, elems[0]), which was combined before.
            break
        # Plans and lifted tables depend on x: they last for its pairs.
        plans: dict[tuple[int, int], tuple] = {}
        lifts: dict[tuple[int, int], tuple[int, ...]] = {}
        for j in chain(range(j0), range(i, n)):
            if j == i:
                p = plan(xa, xc, True)
            else:
                p = plans.get(shapes[j])
                if p is None:
                    p = plans[shapes[j]] = plan(*shapes[j], False)
            oplus, scale, n_oplus, rejected, forward, reverse, tables = p
            pairs += 1
            if not tables:
                pairs_skipped += 1
            ycodes = elems[j].codes
            dy = depths[j] + 1
            if dy < d:
                dy = d
            if n_oplus:
                admit(*oplus, oplus_codes(xcodes, ycodes, scale), dy)
                if n_oplus == 2:
                    admit(*oplus, oplus_codes(ycodes, xcodes, power[xc]), dy)
            else:
                capped = True
                shape_rejected += rejected
            for shape, bucket, column, pad, table in forward:
                g = column[j]
                if g is None:
                    g = column[j] = gatherer(ycodes, pad)
                codes = g(table)
                if codes in bucket:
                    duplicates += 1
                else:
                    admit(shape, bucket, codes, dy)
            for shape, bucket, pad, tail, g in reverse:
                codes = compose_codes(ycodes, pad, xcodes, tail) \
                    if g is None else g(ycodes)
                if codes in bucket:
                    duplicates += 1
                else:
                    admit(shape, bucket, codes, dy)
            built_oplus += n_oplus
            built_compose += tables - n_oplus
            if overflowed:
                break
        i += 1
    stats = SaturationStats(
        dequeued=dequeued, pairs=pairs, built_unary=built_unary,
        built_oplus=built_oplus, built_compose=built_compose,
        duplicates=duplicates, shape_rejected=shape_rejected,
        budget_rejected=budget_rejected, kept=len(elems), stop=stop,
        depth=max(depths), pairs_skipped=pairs_skipped)
    return SaturationResult(tuple(elems), capped, overflowed, stats)


def op_K(maps: Iterable[Map]) -> tuple[Map, ...]:
    """Closure under constant insertion, including no insertion:
    every way of fixing a subset of inputs to letters."""
    return tuple(dict.fromkeys(
        ops.insert(positions, constants, f)
        for f in maps
        for positions in _increasing_subsets(f.arity)
        for constants in f.alphabet.tuples(len(positions))))


def op_S(maps: Iterable[Map]) -> tuple[Map, ...]:
    """Closure under component selection, including the full selection:
    every repetition-free ordered choice of output components, shortest
    first, and the empty choice only when there are no components."""
    return tuple(dict.fromkeys(
        ops.select(theta, f) for f in maps
        for length in range(min(f.coarity, 1), f.coarity + 1)
        for theta in permutations(range(1, f.coarity + 1), length)))


def op_R(maps: Iterable[Map]) -> tuple[Map, ...]:
    """Restriction to the bijections."""
    return tuple(dict.fromkeys(f for f in maps if is_bijective(f)))


def _increasing_subsets(n: int) -> list[tuple[int, ...]]:
    subsets: list[tuple[int, ...]] = [()]
    for p in range(1, n + 1):
        subsets.extend(s + (p,) for s in list(subsets))
    return subsets


@dataclass(frozen=True)
class RealisationResult:
    """Outcome of a realisation search.

    verdict: "isomorphic", "no-garbage", "no-constants", "general", or
    "not-found".  For the positive verdicts, ``realiser`` is the closure
    element f, ``constants`` the inserted tail letters, and ``theta`` the
    kept output components (always the leading ones).  ``capped`` records
    that the underlying saturation was bounded, so "not-found" means
    not-found-within-caps.
    """

    verdict: str
    realiser: Map | None = None
    constants: tuple[int, ...] | None = None
    theta: tuple[int, ...] | None = None
    capped: bool = False


def check_realisation(g: Map, generators, caps: SearchCaps,
                      alphabet: Alphabet | None = None) -> RealisationResult:
    """Search the bounded closure of the generators for a realiser of g.

    The search normal form fixes constants on the trailing inputs and
    keeps the leading output components; wire permutations inside the
    closure make this no loss of generality.  The strongest verdict with a
    witness wins, and its witness is the first one in saturation order,
    constants taken lexicographically.
    """
    gen_set = GeneratorSet.of(generators, alphabet)
    alphabet = gen_set.alphabet
    if g.alphabet != alphabet:
        raise ShapeError("target uses a different alphabet",
                         expected=alphabet.size, actual=g.alphabet.size)
    m, n = g.arity, g.coarity
    theta = tuple(range(1, n + 1))

    # Isomorphic: g itself lies in the closure.  For a balanced bijective
    # target over bijective generators the arity slice answers this
    # exactly and cheaply, before any bounded search runs.
    iso = None
    if (g.arity == g.coarity and g.arity >= 1 and is_bijective(g)
            and all(is_bijective(f) for f in gen_set.maps)
            and all(f.arity <= g.arity for f in gen_set.maps)):
        iso = slice_group(gen_set, g.arity).contains(from_map(g))
        if iso:
            return RealisationResult("isomorphic", g, (), theta, False)
    sat = saturate(gen_set, caps)
    bounded = sat.capped or sat.overflowed
    # One pass keeps the first witness of each verdict stronger than the
    # best so far (rank 0 is the strongest); reaching g itself ends it,
    # unless the slice has already ruled g out.
    verdicts = ("no-garbage", "no-constants", "general")
    best, witness = len(verdicts), None
    for f in sat.maps:
        if f.arity < m or f.coarity < n:
            continue
        rank = 0 if f.coarity == n else 1 if f.arity == m else 2
        if iso is None and rank == 0 and f.codes == g.codes:
            return RealisationResult("isomorphic", g, (), theta, bounded)
        if rank >= best:
            continue
        # Input x + constants of f has index x * spread + c, c the
        # constants' code; g's outputs are the high output digits.
        spread = alphabet.count(f.arity - m)
        drop = alphabet.count(f.coarity - n)
        for c in range(spread):
            if tuple([v // drop for v in f.codes[c::spread]]) == g.codes:
                best, witness = rank, (f, decode(c, alphabet, f.arity - m))
                break
    if witness is None:
        return RealisationResult("not-found", capped=bounded)
    return RealisationResult(verdicts[best], *witness, theta, bounded)


def trailing_map(f: Map, data: Sequence[int], keep: int) -> Map:
    """The trailing block of f: fix the leading inputs to ``data`` and
    discard the first ``keep`` outputs.  This is the map whose bijectivity
    the strong temporary-storage condition quantifies over."""
    data = tuple(data)
    if len(data) > f.arity:
        raise ShapeError("too many data letters", expected=f.arity,
                         actual=len(data))
    if not 0 <= keep <= f.coarity:
        raise ShapeError("kept output count out of range",
                         expected=f"0..{f.coarity}", actual=keep)
    fixed = ops.insert(tuple(range(1, len(data) + 1)), data, f)
    return ops.select(tuple(range(keep + 1, f.coarity + 1)), fixed)


def check_temp_storage(f: Map, a: Sequence[int], g: Map) -> str:
    """Exact temporary-storage check for a given realiser and constants.

    Returns "none", "weak", or "strong".  Weak means f computes g on the
    leading inputs/outputs when the trailing inputs carry the constants a,
    and those constants come back out unchanged.  Strong additionally
    requires that for every fixed data input the trailing block is a
    bijection of the ancilla tuples.
    """
    a = tuple(a)
    if f.alphabet != g.alphabet:
        raise ShapeError("alphabet mismatch", expected=g.alphabet.size,
                         actual=f.alphabet.size)
    l, kk = f.arity, f.coarity
    m, n = g.arity, g.coarity
    if len(a) != l - m:
        raise ShapeError("constant tuple has the wrong length",
                         expected=l - m, actual=len(a))
    if n + l - m != kk:
        raise ShapeError("shape mismatch: coarity(f) must equal "
                         "coarity(g) + len(a)", expected=n + l - m, actual=kk)
    # Input x + a has index x * spread + constant; the ancilla outputs are
    # the low digits of the output code.
    spread = f.alphabet.count(l - m)
    constant = encode(a, f.alphabet, l - m)
    fcodes = f.codes
    for x, gc in enumerate(g.codes):
        if divmod(fcodes[x * spread + constant], spread) != (gc, constant):
            return "none"
    for x in range(0, len(fcodes), spread):
        if len({c % spread for c in fcodes[x:x + spread]}) != spread:
            return "weak"
    return "strong"


@dataclass(frozen=True)
class TempStorageSearch:
    """Best temporary-storage realisation found within caps: verdict is
    "strong", "weak", or "not-found"; capped marks a bounded search."""

    verdict: str
    realiser: Map | None = None
    constants: tuple[int, ...] | None = None
    capped: bool = False


def search_temp_storage(g: Map, generators, caps: SearchCaps,
                        alphabet: Alphabet | None = None) -> TempStorageSearch:
    """Scan the bounded closure of the generators for an (f, constants)
    pair giving g temporary storage; strong witnesses win over weak ones.
    Caps are mandatory: the closure operators themselves are infinite, so
    "not-found" always means not-found-within-caps.
    """
    gen_set = GeneratorSet.of(generators, alphabet)
    alphabet = gen_set.alphabet
    m, n = g.arity, g.coarity
    sat = saturate(gen_set, caps)
    bounded = sat.capped or sat.overflowed
    best: TempStorageSearch | None = None
    for f in sat.maps:
        if f.arity < m or f.coarity != n + f.arity - m:
            continue
        for constants in alphabet.tuples(f.arity - m):
            verdict = check_temp_storage(f, constants, g)
            if verdict == "strong":
                return TempStorageSearch("strong", f, constants, bounded)
            if verdict == "weak" and best is None:
                best = TempStorageSearch("weak", f, constants, bounded)
    return best or TempStorageSearch("not-found", capped=bounded)


def function_set(generators, caps: SearchCaps,
                 alphabet: Alphabet | None = None) -> tuple[Map, ...]:
    """First components of the bounded closure: the functions (coarity-1
    maps) s((1), f) for f in the saturation, deduplicated in saturation
    order."""
    sat = saturate(generators, caps, alphabet=alphabet)
    out: list[Map] = []
    # A function's codes determine it: their count fixes the arity.
    seen: set[tuple[int, ...]] = set()
    for f in sat.maps:
        if f.coarity < 1:
            continue
        # The first component's code is the leading digit of f's code.
        drop = f.alphabet.count(f.coarity - 1)
        first = f.codes if drop == 1 else tuple([c // drop for c in f.codes])
        if first not in seen:
            seen.add(first)
            out.append(Map._unchecked(f.alphabet, f.arity, 1, first))
    return tuple(out)
