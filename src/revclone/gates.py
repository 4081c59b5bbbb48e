"""Constructors for the named maps: generalized controlled gates,
elementary and atomic tuple transpositions, fan-out, and the standard
four-element generating family."""

from __future__ import annotations

from .core import Alphabet, Map, Perm, ShapeError, decode, encode


def tg(n: int, alpha: Perm, o: int) -> Map:
    """The controlled gate on n wires: apply the letter permutation alpha
    to the last wire exactly when every other wire carries the control
    letter o.  For n == 1 this is alpha as a unary map (o is irrelevant).
    """
    k = alpha.degree
    alphabet = Alphabet(k)
    if n < 1:
        raise ShapeError("gate needs at least one wire", expected=">= 1",
                         actual=n)
    alphabet.check_letter(o)
    codes = list(range(alphabet.count(n)))
    # The rows whose first n - 1 letters are all o are base .. base + k - 1.
    base = encode((o,) * (n - 1), alphabet, n - 1) * k
    for a, image in enumerate(alpha.images):
        codes[base + a] = base + image - 1
    return Map._unchecked(alphabet, n, n, tuple(codes))


def _transposition(alphabet: Alphabet, n: int, i: int, j: int) -> Map:
    """The map on A^n swapping the tuples encoded i and j."""
    codes = list(range(alphabet.count(n)))
    codes[i], codes[j] = j, i
    return Map._unchecked(alphabet, n, n, tuple(codes))


def elementary(alphabet: Alphabet, x: tuple[int, ...],
               y: tuple[int, ...]) -> Map:
    """The transposition of the two distinct tuples x and y; every other
    tuple is fixed."""
    x = tuple(x)
    y = tuple(y)
    if len(x) != len(y):
        raise ShapeError("tuples must have equal length",
                         expected=len(x), actual=len(y))
    if x == y:
        raise ShapeError("elementary swap needs two distinct tuples",
                         actual=x)
    n = len(x)
    return _transposition(alphabet, n, encode(x, alphabet, n),
                          encode(y, alphabet, n))


def elementary_pair(f: Map) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The swapped pair (x, y) if f is an elementary permutation,
    else None."""
    if f.arity != f.coarity:
        return None
    codes = f.codes
    moved = [i for i, c in enumerate(codes) if i != c]
    if len(moved) != 2:
        return None
    i, j = moved
    if codes[i] != j or codes[j] != i:
        return None
    return (decode(i, f.alphabet, f.arity), decode(j, f.alphabet, f.arity))


def is_atomic(f: Map) -> bool:
    """Elementary and the two swapped tuples differ in exactly one entry."""
    pair = elementary_pair(f)
    if pair is None:
        return False
    x, y = pair
    return sum(a != b for a, b in zip(x, y)) == 1


def fanout(alphabet: Alphabet, n: int) -> Map:
    """The fan-out phi_n: one input copied to n outputs."""
    if n < 1:
        raise ShapeError("fan-out needs at least one output",
                         expected=">= 1", actual=n)
    return Map._unchecked(alphabet, 1, n, tuple(
        encode((a,) * n, alphabet, n) for a in alphabet.letters()))


def standard_generators(k: int, n: int) -> list[tuple[str, Map]]:
    """The four generators: the unary swap and cycle of the letters, and
    the two arity-n gates they induce with control letter 1.

    Four named entries always; for k == 2 the swap and the cycle coincide
    as maps.
    """
    if k < 2:
        raise ShapeError("need at least two letters", expected=">= 2", actual=k)
    swap = Perm.from_cycles([(1, 2)], degree=k)
    cycle = Perm.from_cycles([tuple(range(1, k + 1))], degree=k)
    return [
        ("swap", tg(1, swap, 1)),
        ("cycle", tg(1, cycle, 1)),
        (f"tg{n}-swap", tg(n, swap, 1)),
        (f"tg{n}-cycle", tg(n, cycle, 1)),
    ]
