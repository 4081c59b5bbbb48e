"""Alphabets, permutations, and dense truth tables for maps A^n -> A^m.

Letters are 1-based: the alphabet of size k is {1, ..., k}.  A Map stores
one integer per input tuple: the big-endian encoding of its output tuple,
indexed by the encoding of the input tuple.  Structural questions
(bijectivity, balance, inversion) are direct scans of these codes, and the
operations rearrange them by integer arithmetic; the tuple view
``Map.table`` is decoded on demand.  Maps are immutable values.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


class ShapeError(ValueError):
    """An operand has the wrong shape (arity, co-arity, length or range)."""

    def __init__(self, message: str, expected=None, actual=None):
        given = [f"{label} {value}" for label, value
                 in (("expected", expected), ("got", actual))
                 if value is not None]
        if given:
            message = f"{message}: {', '.join(given)}"
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class NotBijectiveError(ValueError):
    """A bijection was required but the map is not one."""


class MapFormatError(ValueError):
    """Malformed .map or netlist text; carries the offending 1-based line
    number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Alphabet:
    """The letter set {1, ..., size}."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise ShapeError("alphabet size must be a positive integer",
                             expected=">= 1", actual=self.size)

    def letters(self) -> range:
        return range(1, self.size + 1)

    def tuples(self, n: int) -> Iterator[tuple[int, ...]]:
        """All letter tuples of length n, in encoding (lexicographic) order."""
        return itertools.product(self.letters(), repeat=n)

    def count(self, n: int) -> int:
        return self.size ** n

    def check_letter(self, letter: int) -> None:
        if not isinstance(letter, int) or not 1 <= letter <= self.size:
            raise ShapeError("letter out of range",
                             expected=f"1..{self.size}", actual=letter)


@dataclass(frozen=True)
class Perm:
    """A permutation of {1, ..., degree}, stored as the tuple of images.

    Products are taken left to right: ``(a * b)(p) == b(a(p))``, so with
    a = (1 2 3) and b = (1 2) the product a * b fixes 1 and swaps 2, 3,
    while the functional composite a(b(1)) is 3.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ShapeError("not a permutation of 1..n", actual=self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]],
                    degree: int | None = None) -> "Perm":
        """Build the left-to-right product of the given cycles.

        The degree defaults to the largest point mentioned; singleton
        cycles are legal and merely pin the degree.
        """
        cycles = [tuple(c) for c in cycles]
        top = max((max(c) for c in cycles if c), default=0)
        if degree is None:
            degree = top
        if degree < top or degree < 0:
            raise ShapeError("cycle point exceeds degree",
                             expected=f"<= {degree}", actual=top)
        perm = cls.identity(degree)
        for cycle in cycles:
            for point in cycle:
                if not 1 <= point <= degree:
                    raise ShapeError("cycle point out of range",
                                     expected=f"1..{degree}", actual=point)
            if len(set(cycle)) != len(cycle):
                raise ShapeError("repeated point in cycle", actual=cycle)
            if len(cycle) > 1:
                images = list(range(1, degree + 1))
                for a, b in zip(cycle, cycle[1:]):
                    images[a - 1] = b
                images[cycle[-1] - 1] = cycle[0]
                perm = perm * cls(tuple(images))
        return perm

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if other.degree != self.degree:
            raise ShapeError("permutation degree mismatch",
                             expected=self.degree, actual=other.degree)
        return Perm(tuple(other.images[i - 1] for i in self.images))

    def __pow__(self, exponent: int) -> "Perm":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Perm.identity(self.degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "Perm":
        images = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Perm(tuple(images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle notation: fixed points omitted, each cycle starts at its
        least point, cycles ordered by that point."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            point = self(start)
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self(point)
            out.append(tuple(cycle))
        return tuple(out)

    def token(self) -> str:
        """The cycles as netlists and CLI labels write them: "(1,2)(3,4)",
        or "()" for the identity.  Read back by :meth:`from_token`."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    @classmethod
    def from_token(cls, token: str, degree: int) -> "Perm":
        """The permutation of {1, ..., degree} that a :meth:`token` names;
        a malformed token or a point beyond the degree raises ShapeError."""
        if token == "()":
            return cls.identity(degree)
        if not re.fullmatch(r"(\(\d+(,\d+)*\))+", token):
            raise ShapeError(f"bad permutation token {token!r}; "
                             "write cycles like (1,2)(3,4)")
        return cls.from_cycles(
            [tuple(int(x) for x in group.split(","))
             for group in re.findall(r"\(([\d,]+)\)", token)], degree)

    def sign(self) -> int:
        flips = sum(len(c) - 1 for c in self.cycles())
        return -1 if flips % 2 else 1


def encode(t: tuple[int, ...], alphabet: Alphabet, n: int) -> int:
    """Big-endian mixed-radix index of a letter tuple: t[0] is most
    significant.  Inverse of :func:`decode`."""
    if len(t) != n:
        raise ShapeError("tuple length mismatch", expected=n, actual=len(t))
    k = alphabet.size
    index = 0
    for letter in t:
        if not 1 <= letter <= k:
            raise ShapeError("letter out of range",
                             expected=f"1..{k}", actual=letter)
        index = index * k + (letter - 1)
    return index


def decode(index: int, alphabet: Alphabet, n: int) -> tuple[int, ...]:
    """The letter tuple whose :func:`encode` value is ``index``."""
    k = alphabet.size
    if not 0 <= index < k ** n:
        raise ShapeError("index out of range",
                         expected=f"0..{k ** n - 1}", actual=index)
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        index, digit = divmod(index, k)
        out[pos] = digit + 1
    return tuple(out)


class Map:
    """A total function A^arity -> A^coarity as a dense table of encoded
    outputs.

    ``codes[i]`` is the :func:`encode` value of the output tuple for the
    input tuple with encoding i; for a balanced bijection these are the
    images of its TuplePerm.  ``table`` decodes them to output tuples.  The
    constructor takes output tuples and validates them by encoding them.
    Instances are immutable and hashable.
    """

    __slots__ = ("alphabet", "arity", "coarity", "codes")

    def __init__(self, alphabet: Alphabet, arity: int, coarity: int,
                 table: Iterable[tuple[int, ...]]):
        if arity < 0 or coarity < 0:
            raise ShapeError("arity and coarity must be non-negative",
                             actual=(arity, coarity))
        rows = tuple(table)
        if len(rows) != alphabet.count(arity):
            raise ShapeError("table length must be k^arity",
                             expected=alphabet.count(arity), actual=len(rows))
        self.alphabet = alphabet
        self.arity = arity
        self.coarity = coarity
        self.codes = tuple([encode(row, alphabet, coarity) for row in rows])

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, arity: int, coarity: int,
                   codes: tuple[int, ...]) -> "Map":
        """A map from codes already known to fit its shape."""
        m = object.__new__(cls)
        m.alphabet = alphabet
        m.arity = arity
        m.coarity = coarity
        m.codes = codes
        return m

    @classmethod
    def from_function(cls, alphabet: Alphabet, arity: int, coarity: int,
                      fn: Callable[[tuple[int, ...]], tuple[int, ...]]) -> "Map":
        table = [tuple(fn(x)) for x in alphabet.tuples(arity)]
        return cls(alphabet, arity, coarity, table)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The output tuple of every row, decoded from the codes."""
        k, m = self.alphabet.size, self.coarity
        if k ** m > len(self.codes):  # listing all k^m tuples costs more
            return tuple([decode(c, self.alphabet, m) for c in self.codes])
        rows = tuple(self.alphabet.tuples(m))
        return tuple([rows[c] for c in self.codes])

    def __call__(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return evaluate(self, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.arity == other.arity
                and self.coarity == other.coarity and self.codes == other.codes)

    def __hash__(self) -> int:
        return hash((self.alphabet.size, self.arity, self.coarity,
                     self.codes))

    def __repr__(self) -> str:
        return (f"Map(k={self.alphabet.size}, arity={self.arity}, "
                f"coarity={self.coarity})")


def identity_map(alphabet: Alphabet, n: int) -> Map:
    """The identity on A^n (i_n)."""
    if n < 0:
        raise ShapeError("arity must be non-negative", actual=n)
    return Map._unchecked(alphabet, n, n, tuple(range(alphabet.count(n))))


def evaluate(f: Map, x: tuple[int, ...]) -> tuple[int, ...]:
    """Apply f to the letter tuple x."""
    code = f.codes[encode(tuple(x), f.alphabet, f.arity)]
    return decode(code, f.alphabet, f.coarity)


def is_balanced(f: Map) -> bool:
    """Arity equals co-arity."""
    return f.arity == f.coarity


def is_bijective(f: Map) -> bool:
    """True iff the table is injective and covers all of A^coarity.

    Over a finite alphabet this forces arity == coarity, so every
    bijective map is balanced; the check is structural, not short-circuited
    on shapes.
    """
    return len(set(f.codes)) == len(f.codes) == f.alphabet.count(f.coarity)


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation of 0..len(images)-1 given by its
    images."""
    inverse = [0] * len(images)
    for i, j in enumerate(images):
        inverse[j] = i
    return tuple(inverse)


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


def inverse(f: Map) -> Map:
    """The inverse of a bijective (hence balanced) map."""
    if not is_bijective(f):
        raise NotBijectiveError(
            f"cannot invert a non-bijective map of shape "
            f"({f.arity},{f.coarity})")
    return Map._unchecked(f.alphabet, f.arity, f.arity, _invert(f.codes))


def parse_map(text: str) -> Map:
    """Parse the .map text format.

    Header lines ``alphabet <k>``, ``arity <n>``, ``coarity <m>`` come
    first (in any order among themselves), then exactly k^n rows
    ``x1 .. xn -> y1 .. ym`` in any order, each input covered exactly once.
    ``#`` starts a comment.
    """
    headers: dict[str, int] = {}
    rows: dict[int, int] = {}  # input code -> output code
    alphabet = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            if len(headers) < 3:
                raise MapFormatError("table row before complete header", lineno)
            left, _, right = line.partition("->")
            try:
                xs = tuple(int(tok) for tok in left.split())
                ys = tuple(int(tok) for tok in right.split())
            except ValueError:
                raise MapFormatError("non-integer letter", lineno) from None
            if len(xs) != headers["arity"]:
                raise MapFormatError(
                    f"expected {headers['arity']} input letters, got {len(xs)}",
                    lineno)
            if len(ys) != headers["coarity"]:
                raise MapFormatError(
                    f"expected {headers['coarity']} output letters, got {len(ys)}",
                    lineno)
            k = alphabet.size
            for letter in xs + ys:
                if not 1 <= letter <= k:
                    raise MapFormatError(f"letter {letter} outside 1..{k}", lineno)
            index = encode(xs, alphabet, headers["arity"])
            if index in rows:
                raise MapFormatError(f"duplicate row for input {xs}", lineno)
            rows[index] = encode(ys, alphabet, headers["coarity"])
        else:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("alphabet", "arity", "coarity"):
                raise MapFormatError(f"unrecognized line {line!r}", lineno)
            key = parts[0]
            if key in headers:
                raise MapFormatError(f"duplicate header {key!r}", lineno)
            try:
                value = int(parts[1])
            except ValueError:
                raise MapFormatError(f"non-integer {key}", lineno) from None
            if key == "alphabet" and value < 1:
                raise MapFormatError("alphabet size must be positive", lineno)
            if key in ("arity", "coarity") and value < 0:
                raise MapFormatError(f"{key} must be non-negative", lineno)
            headers[key] = value
            if len(headers) == 3:
                alphabet = Alphabet(headers["alphabet"])
    if len(headers) < 3:
        raise MapFormatError("missing header line(s): need alphabet, arity, coarity")
    expected = alphabet.count(headers["arity"])
    if len(rows) != expected:
        missing = next(i for i in range(expected) if i not in rows)
        raise MapFormatError(
            f"table covers {len(rows)} of {expected} inputs; first missing "
            f"input is {decode(missing, alphabet, headers['arity'])}")
    return Map._unchecked(alphabet, headers["arity"], headers["coarity"],
                          tuple([rows[i] for i in range(expected)]))


def format_map(f: Map) -> str:
    """Render a map in .map text format, rows in canonical encoding order."""
    lines = [f"alphabet {f.alphabet.size}",
             f"arity {f.arity}",
             f"coarity {f.coarity}"]
    for x, row in zip(f.alphabet.tuples(f.arity), f.table):
        lines.append(f"{' '.join(map(str, x))} -> {' '.join(map(str, row))}")
    return "\n".join(lines) + "\n"
