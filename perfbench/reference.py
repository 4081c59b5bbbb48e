"""Reference arithmetic for the benchmark's answer checks.

Nothing here imports revclone: tables are plain tuples of letter tuples,
permutations are lists of encoded tuple indices, and the closed-form group
orders come from the structure of each generator family.  The checks in
``workloads.py`` compare the library's answers against these.

Conventions match the library's documented ones: letters are 1..k, tuples
encode big-endian, and a permutation ``p`` of encoded indices sends index
``i`` to ``p[i]``; words apply left to right.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def encode(t, k: int) -> int:
    index = 0
    for letter in t:
        index = index * k + letter - 1
    return index


def tuples(k: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(1, k + 1), repeat=n))


# -- tables -------------------------------------------------------------------

def gate_table(k: int, n: int, alpha: tuple[int, ...], o: int) -> tuple:
    """The controlled gate: apply the letter permutation ``alpha`` (images
    of 1..k) to the last wire when every other wire carries ``o``."""
    rows = []
    for x in tuples(k, n):
        if all(c == o for c in x[:-1]):
            rows.append(x[:-1] + (alpha[x[-1] - 1],))
        else:
            rows.append(x)
    return tuple(rows)


def conjugate_table(rows, arity: int, sigma: tuple[int, ...]) -> tuple:
    """Relabel letters by ``sigma`` on every wire: x -> sigma(f(sigma^-1 x)).
    Relabelling is a bijection of A^n that commutes with wire
    permutations, so every group order and parity is unchanged."""
    k = len(sigma)
    inv = [0] * k
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    out = []
    for x in tuples(k, arity):
        pre = tuple(inv[v - 1] for v in x)
        out.append(tuple(sigma[v - 1] for v in rows[encode(pre, k)]))
    return tuple(out)


def table_perm(rows, k: int) -> list[int]:
    return [encode(r, k) for r in rows]


def perm_table(p, k: int, n: int) -> tuple:
    ts = tuples(k, n)
    return tuple(ts[j] for j in p)


def is_bijective(rows, k: int) -> bool:
    """Balanced and injective, hence onto A^n."""
    n = len(rows[0])
    return (len(rows) == k ** n and all(len(r) == n for r in rows)
            and len(set(rows)) == len(rows))


# -- permutations on encoded indices ---------------------------------------------

def then(a, b) -> list[int]:
    """Apply a, then b."""
    return [b[i] for i in a]


def transposition(d: int, i: int, j: int) -> list[int]:
    p = list(range(d))
    p[i], p[j] = j, i
    return p


def pad_perm(p_small, k: int, m: int, n: int) -> list[int]:
    """An arity-m bijection on the first m of n wires, identity on the rest."""
    q = k ** (n - m)
    return [p_small[i // q] * q + i % q for i in range(k ** n)]


def wire_perm(k: int, n: int, alpha: tuple[int, ...]) -> list[int]:
    """The letter on wire i moves to wire alpha(i) (1-based images)."""
    out = []
    for x in tuples(k, n):
        y = [0] * n
        for i in range(n):
            y[alpha[i] - 1] = x[i]
        out.append(encode(y, k))
    return out


def slice_wire_perms(k: int, n: int) -> list[list[int]]:
    """The wire permutations the slice adds after the padded generators:
    the swap of wires 1, 2 and the full cycle 1 -> 2 -> ... -> n."""
    out = []
    if n >= 2:
        out.append(wire_perm(k, n, (2, 1) + tuple(range(3, n + 1))))
    if n >= 3:
        out.append(wire_perm(k, n, tuple(i % n + 1 for i in range(1, n + 1))))
    return out


def word_product(word, perms) -> list[int]:
    """Multiply out a signed 1-based generator word, left to right, by
    pairwise gathers in fixed-size chunks."""
    d = len(perms[0])
    g = np.asarray(perms, dtype=np.int32)
    ginv = np.empty_like(g)
    rows = np.arange(d, dtype=np.int32)
    for i in range(len(perms)):
        ginv[i, g[i]] = rows
    table = np.concatenate([g, ginv])
    w = np.fromiter(word, dtype=np.int64, count=len(word))
    if len(w) and (np.any(w == 0) or np.any(np.abs(w) > len(perms))):
        raise ValueError("word index out of range")
    idx = np.where(w > 0, w - 1, len(perms) - w - 1)
    acc = rows.copy()
    chunk = 1 << 15
    for start in range(0, len(idx), chunk):
        block = table[idx[start:start + chunk]]
        while len(block) > 1:
            if len(block) % 2:
                block = np.concatenate([block, rows[None, :]])
            block = np.take_along_axis(block[1::2], block[0::2], axis=1)
        acc = block[0][acc]
    return acc.tolist()


def letter_word_lengths(k: int) -> dict[tuple[int, ...], int]:
    """Shortest word length of every letter permutation over the swap
    (1 2) and the cycle (1 ... k), products taken left to right."""
    swap = (2, 1) + tuple(range(3, k + 1))
    cycle = tuple(range(2, k + 1)) + (1,)
    identity = tuple(range(1, k + 1))
    dist = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in (swap, cycle):
                child = tuple(g[v - 1] for v in p)
                if child not in dist:
                    dist[child] = dist[p] + 1
                    nxt.append(child)
        frontier = nxt
    return dist


# -- closed-form slice orders -------------------------------------------------------

def agl_order(n: int) -> int:
    """|AGL(n, 2)|: the affine maps of F_2^n."""
    order = 2 ** n
    for i in range(n):
        order *= 2 ** n - 2 ** i
    return order


def slice_order(family: str, k: int, n: int) -> int:
    """Order of the arity-n slice for a generator family, from its
    structure:

    - std4 (the standard generators at arity 2): every bijection for odd
      k or n == 2; for k == 2 and n >= 3 the generators are affine over
      F_2, so the affine group.
    - tg-family-ltN at arity N: unary gates only for N == 2 (letter
      permutations per wire and wire permutations: S_k wr S_N); for odd k
      the one- and two-wire gates give every bijection; for k == 2, N == 3
      the gates are affine, and for N >= 4 the padded gates are even and
      give the alternating group.
    - tgN-swap: transpositions joining the all-ones tuple to its N
      neighbours generate the symmetric group on those N + 1 tuples, and
      the wire permutations act faithfully on the rest (trivially for
      k == 2, N == 2).
    - tgN-cycle: k-cycles through the all-ones tuple, one per wire, give
      the alternating (odd k) or symmetric (even k) group on the
      1 + N(k - 1) tuples with at most one letter other than 1, times the
      wire permutations on the rest.
    - tg1-swap, tg1-cycle, tg1-swapcycle: the unary group on each wire,
      wreathed with the wire permutations.
    """
    d = k ** n
    fact = math.factorial
    if family == "std4":
        if k % 2 or n == 2:
            return fact(d)
        if k == 2:
            return agl_order(n)
    elif family.startswith("tg-family-lt"):
        bound = int(family[len("tg-family-lt"):].split("-")[0])
        if bound != n:
            raise ValueError("families are used at their own arity")
        if n == 2:
            return fact(k) ** 2 * 2
        if k % 2:
            return fact(d)
        if k == 2:
            return agl_order(3) if n == 3 else fact(d) // 2
    elif family == f"tg{n}-swap":
        if k == 2 and n == 2:
            return 6
        return fact(n + 1) * fact(n)
    elif family == f"tg{n}-cycle" and n >= 2:
        u = 1 + n * (k - 1)
        return fact(u) // (2 if k % 2 else 1) * fact(n)
    elif family in ("tg1-swap", "tg1-cycle", "tg1-swapcycle") and n >= 2:
        unary = {"tg1-swap": 2, "tg1-cycle": k,
                 "tg1-swapcycle": fact(k)}[family]
        return unary ** n * fact(n)
    raise ValueError(f"no closed form for {family} at k={k}, n={n}")


# -- bounded saturation invariants ------------------------------------------------

def tau(rows, k, arity):
    if arity < 2:
        return rows
    out = []
    for x in tuples(k, arity):
        out.append(rows[encode((x[1], x[0]) + x[2:], k)])
    return tuple(out)


def zeta(rows, k, arity):
    if arity < 2:
        return rows
    return tuple(rows[encode(x[1:] + (x[0],), k)] for x in tuples(k, arity))


def delta(rows, k, arity):
    if arity < 2:
        return rows
    return tuple(rows[encode((x[0],) + x, k)] for x in tuples(k, arity - 1))


def nabla(rows, k):
    return tuple(rows) * k


def oplus(f_rows, g_rows):
    return tuple(a + b for a in f_rows for b in g_rows)


def compose(f_rows, f_arity, g_rows, g_arity, j, k):
    """Feed the first j outputs of g into the first j inputs of f; the
    composite reads g's inputs then f's remaining ones."""
    pad = f_arity - j
    out = []
    for x in tuples(k, g_arity + pad):
        gy = g_rows[encode(x[:g_arity], k)]
        fy = f_rows[encode(gy[:j] + x[g_arity:], k)]
        out.append(fy + gy[j:])
    return tuple(out)
