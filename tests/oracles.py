"""Independent oracles for the test suite.

These deliberately avoid the code paths they are used to check:
brute-force group enumeration by breadth-first products, sequential
application of map lists, plain random-table generation, saturation
that combines every dequeued map with every kept map, first components
made with the public select and deduplicated as Maps, and pointwise
definitions of the composition operations on letter tuples.
"""

import random
from collections import deque

from revclone import ops
from revclone.closure import GeneratorSet, SaturationResult, saturate
from revclone.core import Alphabet, Map, Perm, evaluate, identity_map


def bfs_group_elements(gens, degree: int) -> set[tuple[int, ...]]:
    """Every element of the generated permutation group, as image tuples,
    found by breadth-first closure under right multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gen_images = [g.images for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_images:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def apply_in_order(maps, x):
    """Feed x through the balanced maps first to last."""
    for m in maps:
        x = evaluate(m, x)
    return x


def random_table_map(rng: random.Random, alphabet: Alphabet, arity: int,
                     coarity: int) -> Map:
    rows = [tuple(rng.randint(1, alphabet.size) for _ in range(coarity))
            for _ in range(alphabet.count(arity))]
    return Map(alphabet, arity, coarity, rows)


def random_bijection(rng: random.Random, alphabet: Alphabet, n: int) -> Map:
    rows = list(alphabet.tuples(n))
    rng.shuffle(rows)
    return Map(alphabet, n, n, rows)


def residue_map(alphabet: Alphabet, arity: int, coarity: int, fn) -> Map:
    """Build a map from a residue-arithmetic function: letters 1..k stand
    for residues 0..k-1."""
    k = alphabet.size

    def wrapped(x):
        residues = fn(tuple(v - 1 for v in x))
        return tuple(r % k + 1 for r in residues)

    return Map.from_function(alphabet, arity, coarity, wrapped)


def all_pairs_saturate(generators, caps, with_delta_nabla=False,
                       alphabet=None, depths=None) -> SaturationResult:
    """Bounded saturation that pairs each dequeued map with every map kept
    so far (so most pairs are combined twice, once in each role) and
    builds every composite before the caps reject its shape.  A list
    passed as ``depths`` receives the depth of each kept map."""
    gen_set = GeneratorSet.of(generators, alphabet)
    seeds = [identity_map(gen_set.alphabet, 1), *gen_set.maps]
    elems, seen, depth, queue = [], set(), {}, deque()
    capped = overflowed = False

    def admit(m, d):
        nonlocal capped, overflowed
        if not caps.admits(m.arity, m.coarity):
            capped = True
        elif m in seen:
            pass
        elif len(elems) >= caps.max_size or (
                caps.max_depth is not None and d > caps.max_depth):
            overflowed = True
        else:
            seen.add(m)
            depth[m] = d
            elems.append(m)
            queue.append(m)

    for seed in seeds:
        admit(seed, 0)
    while queue and not overflowed:
        x = queue.popleft()
        d = depth[x] + 1
        admit(ops.tau(x), d)
        admit(ops.zeta(x), d)
        if with_delta_nabla:
            admit(ops.delta(x), d)
            admit(ops.nabla(x), d)
        for y in list(elems):
            dy = max(d, depth[y] + 1)
            if caps.admits(x.arity + y.arity, x.coarity + y.coarity):
                admit(ops.oplus(x, y), dy)
                admit(ops.oplus(y, x), dy)
            else:
                capped = True
            for k in range(1, min(x.arity, y.coarity) + 1):
                admit(ops.compose_k(x, y, k), dy)
            for k in range(1, min(y.arity, x.coarity) + 1):
                admit(ops.compose_k(y, x, k), dy)
            if overflowed:
                break
    if depths is not None:
        depths.extend(depth[m] for m in elems)
    return SaturationResult(tuple(elems), capped, overflowed)


def select_function_set(generators, caps, alphabet=None) -> tuple[Map, ...]:
    """First components of the bounded closure, made with the public
    select and deduplicated as Maps, in saturation order."""
    out, seen = [], set()
    for f in saturate(generators, caps, alphabet=alphabet).maps:
        if f.coarity < 1:
            continue
        g = ops.select((1,), f)
        if g not in seen:
            seen.add(g)
            out.append(g)
    return tuple(out)


# -- pointwise definitions of the operations in revclone.ops ---------------
# Each builds its result row by row from evaluations of the operands on
# letter tuples, the way the paper defines the operation.

def _pointwise(f: Map, arity: int, coarity: int, fn) -> Map:
    return Map.from_function(f.alphabet, arity, coarity, fn)


def oplus_def(f: Map, g: Map) -> Map:
    return _pointwise(f, f.arity + g.arity, f.coarity + g.coarity,
                      lambda x: evaluate(f, x[:f.arity])
                      + evaluate(g, x[f.arity:]))


def compose_k_def(f: Map, g: Map, k: int) -> Map:
    def fn(x):
        y = evaluate(g, x[:g.arity])
        return evaluate(f, y[:k] + x[g.arity:]) + y[k:]

    return _pointwise(f, f.arity + g.arity - k, f.coarity + g.coarity - k,
                      fn)


def bullet_def(f: Map, g: Map) -> Map:
    return compose_k_def(f, g, min(f.arity, g.coarity))


def _rearrange_inputs(f: Map, rearranged) -> Map:
    if f.arity < 2:
        return f
    return _pointwise(f, f.arity, f.coarity,
                      lambda x: evaluate(f, rearranged(x)))


def _rearrange_outputs(f: Map, rearranged) -> Map:
    if f.coarity < 2:
        return f
    return _pointwise(f, f.arity, f.coarity,
                      lambda x: rearranged(evaluate(f, x)))


def tau_def(f: Map) -> Map:
    return _rearrange_inputs(f, lambda x: (x[1], x[0]) + x[2:])


def zeta_def(f: Map) -> Map:
    return _rearrange_inputs(f, lambda x: x[1:] + x[:1])


def bar_tau_def(f: Map) -> Map:
    return _rearrange_outputs(f, lambda y: (y[1], y[0]) + y[2:])


def bar_zeta_def(f: Map) -> Map:
    return _rearrange_outputs(f, lambda y: y[1:] + y[:1])


def delta_def(f: Map) -> Map:
    if f.arity < 2:
        return f
    return _pointwise(f, f.arity - 1, f.coarity,
                      lambda x: evaluate(f, x[:1] + x))


def nabla_def(f: Map) -> Map:
    return _pointwise(f, f.arity + 1, f.coarity,
                      lambda x: evaluate(f, x[1:]))


def pi_def(alphabet: Alphabet, alpha: Perm) -> Map:
    """The letter on wire i moves to wire alpha(i)."""
    def fn(x):
        y = [0] * len(x)
        for i, letter in enumerate(x, start=1):
            y[alpha(i) - 1] = letter
        return tuple(y)

    n = alpha.degree
    return Map.from_function(alphabet, n, n, fn)


def select_def(theta, f: Map) -> Map:
    """Also the definition of select_multi."""
    return _pointwise(f, f.arity, len(theta),
                      lambda x: tuple(evaluate(f, x)[t - 1] for t in theta))


def insert_def(positions, constants, f: Map) -> Map:
    fixed = dict(zip(positions, constants))

    def fn(x):
        free = iter(x)
        return evaluate(f, tuple(fixed[p] if p in fixed else next(free)
                                 for p in range(1, f.arity + 1)))

    return _pointwise(f, f.arity - len(positions), f.coarity, fn)


# -- realisation and temporary storage from their definitions --------------

def realisation_witnesses(g: Map, maps) -> dict:
    """The first witness (f, constants) of each realisation verdict, with
    f in the order of maps (a saturation) and constants lexicographic: f
    realises g when fixing its trailing inputs to the constants, with the
    public insert, and keeping its leading outputs, with the public
    select, gives g.  "isomorphic" is g itself, with no constants."""
    m, n = g.arity, g.coarity
    found = {}
    for f in maps:
        if f.arity < m or f.coarity < n:
            continue
        if f == g:
            found.setdefault("isomorphic", (f, ()))
        for constants in f.alphabet.tuples(f.arity - m):
            fixed = ops.insert(range(m + 1, f.arity + 1), constants, f)
            if ops.select(range(1, n + 1), fixed) == g:
                for verdict, fits in (("no-garbage", f.coarity == n),
                                      ("no-constants", f.arity == m),
                                      ("general", True)):
                    if fits:
                        found.setdefault(verdict, (f, constants))
                break
    return found


def temp_storage_witness(g: Map, maps) -> tuple:
    """(verdict, f, constants): the first strong pair in the order of maps
    (a saturation), else the first weak one, else ("not-found", None,
    None).  Weak: with the trailing inputs set to the constants, f
    computes g on its leading outputs and returns the constants on the
    rest.  Strong: also, for every data input, the trailing outputs
    permute the ancilla tuples."""
    m, n = g.arity, g.coarity
    weak = None
    for f in maps:
        ancillas = f.arity - m
        if ancillas < 0 or f.coarity != n + ancillas:
            continue
        tails = list(f.alphabet.tuples(ancillas))
        for a in tails:
            if any(evaluate(f, x + a) != evaluate(g, x) + a
                   for x in f.alphabet.tuples(m)):
                continue
            if all(len({evaluate(f, x + y)[n:] for y in tails}) == len(tails)
                   for x in f.alphabet.tuples(m)):
                return "strong", f, a
            weak = weak or ("weak", f, a)
    return weak or ("not-found", None, None)
