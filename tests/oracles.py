"""Independent oracles for the test suite.

These deliberately avoid the code paths they are used to check:
brute-force group enumeration by breadth-first products, sequential
application of map lists, plain random-table generation, and saturation
that combines every dequeued map with every kept map.
"""

import random
from collections import deque

from revclone import ops
from revclone.closure import GeneratorSet, SaturationResult
from revclone.core import Alphabet, Map, evaluate, identity_map


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
                       alphabet=None) -> SaturationResult:
    """Bounded saturation that pairs each dequeued map with every map kept
    so far (so most pairs are combined twice, once in each role) and
    builds every composite before the caps reject its shape."""
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
    return SaturationResult(tuple(elems), capped, overflowed)
