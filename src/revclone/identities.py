"""Randomized checks of the exchange laws between selection, constant
insertion, and the composition operations.

Each law is checked on freshly drawn random maps and indices; a fixed seed
makes every run byte-identical.  The laws are equations between map
tables, so every check is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import ops
from .core import Alphabet, Map, Perm, ShapeError


def random_map(rng: random.Random, alphabet: Alphabet, arity: int,
               coarity: int) -> Map:
    k = alphabet.size
    rows = [tuple(rng.randint(1, k) for _ in range(coarity))
            for _ in range(alphabet.count(arity))]
    return Map(alphabet, arity, coarity, rows)


def _rand_perm(rng: random.Random, degree: int) -> Perm:
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Perm(tuple(images))


def _rand_selection(rng: random.Random, bound: int, length: int
                    ) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, bound + 1), length))


def _check_sel_oplus(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    g = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    total = f.coarity + g.coarity
    r = rng.randint(1, total)
    sel = _rand_selection(rng, total, r)
    left_positions = [j for j, v in enumerate(sel, start=1) if v <= f.coarity]
    right_positions = [j for j, v in enumerate(sel, start=1) if v > f.coarity]
    sel_f = tuple(sel[j - 1] for j in left_positions)
    sel_g = tuple(sel[j - 1] - f.coarity for j in right_positions)
    beta = Perm(tuple(left_positions + right_positions))
    lhs = ops.select(sel, ops.oplus(f, g))
    rhs = ops.bullet(ops.pi(alphabet, beta),
                     ops.oplus(ops.select(sel_f, f), ops.select(sel_g, g)))
    return lhs == rhs


def _check_sel_pi(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    alpha = _rand_perm(rng, f.coarity)
    sel = _rand_selection(rng, f.coarity, rng.randint(1, f.coarity))
    inv = alpha.inverse()
    lhs = ops.select(sel, ops.bullet(ops.pi(alphabet, alpha), f))
    rhs = ops.select(tuple(inv(i) for i in sel), f)
    return lhs == rhs


def _check_pi_sel(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    r = rng.randint(1, f.coarity)
    sel = _rand_selection(rng, f.coarity, r)
    alpha = _rand_perm(rng, r)
    inv = alpha.inverse()
    lhs = ops.bullet(ops.pi(alphabet, alpha), ops.select(sel, f))
    rhs = ops.select(tuple(sel[inv(i) - 1] for i in range(1, r + 1)), f)
    return lhs == rhs


def _check_sel_comp(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 3), rng.randint(1, 3))
    g = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    k = rng.randint(1, min(f.arity, g.coarity))
    total = f.coarity + g.coarity - k
    sel = tuple(sorted(_rand_selection(rng, total, rng.randint(1, total))))
    sel_f = tuple(v for v in sel if v <= f.coarity)
    sel_g = tuple(range(1, k + 1)) + tuple(v - f.coarity + k for v in sel
                                           if v > f.coarity)
    lhs = ops.select(sel, ops.compose_k(f, g, k))
    rhs = ops.compose_k(ops.select(sel_f, f), ops.select(sel_g, g), k)
    return lhs == rhs


def _check_ins_pi(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 3), rng.randint(1, 3))
    alpha = _rand_perm(rng, f.coarity)
    i = rng.randint(1, f.arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.insert((i,), (a,), ops.bullet(ops.pi(alphabet, alpha), f))
    rhs = ops.bullet(ops.pi(alphabet, alpha), ops.insert((i,), (a,), f))
    return lhs == rhs


def _check_ins_oplus(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 2))
    g = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 2))
    i = rng.randint(1, f.arity + g.arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.insert((i,), (a,), ops.oplus(f, g))
    if i <= f.arity:
        rhs = ops.oplus(ops.insert((i,), (a,), f), g)
    else:
        rhs = ops.oplus(f, ops.insert((i - f.arity,), (a,), g))
    return lhs == rhs


def _check_ins_comp(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 3), rng.randint(1, 3))
    g = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    k = rng.randint(1, min(f.arity, g.coarity))
    composite_arity = g.arity + f.arity - k
    i = rng.randint(1, composite_arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.insert((i,), (a,), ops.compose_k(f, g, k))
    if i <= g.arity:
        rhs = ops.compose_k(f, ops.insert((i,), (a,), g), k)
    else:
        rhs = ops.compose_k(ops.insert((i - g.arity + k,), (a,), f), g, k)
    return lhs == rhs


def _check_sel_ins(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 3), rng.randint(1, 3))
    sel = _rand_selection(rng, f.coarity, rng.randint(1, f.coarity))
    i = rng.randint(1, f.arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.select(sel, ops.insert((i,), (a,), f))
    rhs = ops.insert((i,), (a,), ops.select(sel, f))
    return lhs == rhs


def _check_sel_delta(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(2, 3), rng.randint(1, 3))
    sel = _rand_selection(rng, f.coarity, rng.randint(1, f.coarity))
    return ops.select(sel, ops.delta(f)) == ops.delta(ops.select(sel, f))


def _check_sel_nabla(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 3))
    sel = _rand_selection(rng, f.coarity, rng.randint(1, f.coarity))
    return ops.select(sel, ops.nabla(f)) == ops.nabla(ops.select(sel, f))


def _check_ins_delta(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(2, 3), rng.randint(1, 2))
    i = rng.randint(1, f.arity - 1)
    a = rng.randint(1, alphabet.size)
    lhs = ops.insert((i,), (a,), ops.delta(f))
    if i == 1:
        rhs = ops.insert((1,), (a,), ops.insert((1,), (a,), f))
    else:
        rhs = ops.delta(ops.insert((i + 1,), (a,), f))
    return lhs == rhs


def _check_ins_nabla(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 2))
    i = rng.randint(1, f.arity + 1)
    a = rng.randint(1, alphabet.size)
    lhs = ops.insert((i,), (a,), ops.nabla(f))
    if i == 1:
        rhs = f
    else:
        rhs = ops.nabla(ops.insert((i - 1,), (a,), f))
    return lhs == rhs


def _check_delta_ins(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, 3, rng.randint(1, 2))
    i = rng.randint(1, f.arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.delta(ops.insert((i,), (a,), f))
    n = f.arity
    if i == 1:
        rot = ops.pi(alphabet, Perm.from_cycles([(1, 2, 3)], degree=n))
        rhs = ops.insert((2,), (a,), ops.delta(ops.bullet(f, rot)))
    elif i == 2:
        rot = ops.pi(alphabet, Perm.from_cycles([(2, 3)], degree=n))
        rhs = ops.insert((2,), (a,), ops.delta(ops.bullet(f, rot)))
    else:
        rhs = ops.insert((i - 1,), (a,), ops.delta(f))
    return lhs == rhs


def _check_nabla_ins(rng, alphabet) -> bool:
    f = random_map(rng, alphabet, rng.randint(1, 2), rng.randint(1, 2))
    i = rng.randint(1, f.arity)
    a = rng.randint(1, alphabet.size)
    lhs = ops.nabla(ops.insert((i,), (a,), f))
    rhs = ops.insert((i + 1,), (a,), ops.nabla(f))
    return lhs == rhs


IDENTITIES: tuple[tuple[str, Callable], ...] = (
    ("sel-oplus", _check_sel_oplus),
    ("sel-pi", _check_sel_pi),
    ("pi-sel", _check_pi_sel),
    ("sel-comp", _check_sel_comp),
    ("ins-pi", _check_ins_pi),
    ("ins-oplus", _check_ins_oplus),
    ("ins-comp", _check_ins_comp),
    ("sel-ins", _check_sel_ins),
    ("sel-delta", _check_sel_delta),
    ("sel-nabla", _check_sel_nabla),
    ("ins-delta", _check_ins_delta),
    ("ins-nabla", _check_ins_nabla),
    ("delta-ins", _check_delta_ins),
    ("nabla-ins", _check_nabla_ins),
)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    trials: int
    failures: int


def run_identity_suite(k: int, trials: int, seed: int
                       ) -> list[IdentityReport]:
    """Run every identity check on `trials` seeded random instances."""
    if trials < 0:
        raise ShapeError("trial count must be non-negative", actual=trials)
    alphabet = Alphabet(k)
    reports = []
    for name, check in IDENTITIES:
        rng = random.Random(f"{seed}:{name}")
        failures = sum(0 if check(rng, alphabet) else 1
                       for _ in range(trials))
        reports.append(IdentityReport(name, trials, failures))
    return reports
