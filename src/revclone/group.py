"""Permutation groups on encoded tuple indices.

A balanced bijective map acts on the k^n encoded input tuples; this module
answers order, membership, witness-word, and parity questions about what a
set of such maps generates.  The stabilizer chain is built by a
deterministic (non-randomized) Schreier-Sims with first-moved-point base
selection, so identical generator sequences always produce identical
chains and witness words.

Witness words are tracked symbolically during construction (cheap,
structure-shared) and expanded only on demand; they are valid but not
minimized, and for deep chains the expansion can be long.
"""

from __future__ import annotations

from typing import Iterable

from .core import Map, NotBijectiveError, ShapeError, _invert, is_bijective

# Symbolic words over the original generators:
#   ()                empty word
#   ("g", i)          generator i (0-based)
#   ("inv", w)        inverse of word w
#   ("cat", a, b)     word a then word b
_EMPTY_WORD = ()


def _cat(a, b):
    if a == _EMPTY_WORD:
        return b
    if b == _EMPTY_WORD:
        return a
    return ("cat", a, b)


def _inv(w):
    if w == _EMPTY_WORD:
        return w
    return ("inv", w)


def _expand_word(word) -> tuple[int, ...]:
    """Flatten a symbolic word to signed 1-based generator indices,
    left-to-right application order; negative means inverse."""
    out: list[int] = []
    stack = [(word, False)]
    while stack:
        node, inverted = stack.pop()
        if node == _EMPTY_WORD:
            continue
        tag = node[0]
        if tag == "g":
            out.append(-(node[1] + 1) if inverted else node[1] + 1)
        elif tag == "inv":
            stack.append((node[1], not inverted))
        elif tag == "cat":
            a, b = node[1], node[2]
            if inverted:
                stack.append((a, True))
                stack.append((b, True))
            else:
                stack.append((b, False))
                stack.append((a, False))
        else:  # pragma: no cover - internal invariant
            raise AssertionError(f"bad word node {node!r}")
    return tuple(out)


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of image tuples, left to right: a first, then b."""
    return tuple([b[i] for i in a])


class TuplePerm:
    """A permutation of the points 0..degree-1.

    Products are left to right: ``(p * q).act(x) == q.act(p.act(x))``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ShapeError("not a permutation of 0..d-1", actual=images)
        self.images = images
        self._hash = None

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "TuplePerm":
        p = object.__new__(cls)
        p.images = images
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "TuplePerm":
        return cls._unchecked(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def act(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "TuplePerm") -> "TuplePerm":
        if other.degree != self.degree:
            raise ShapeError("degree mismatch", expected=self.degree,
                             actual=other.degree)
        return TuplePerm._unchecked(_mul(self.images, other.images))

    def inverse(self) -> "TuplePerm":
        return TuplePerm._unchecked(_invert(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TuplePerm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self) -> str:
        return f"TuplePerm(degree={self.degree})"


def from_map(f: Map) -> TuplePerm:
    """The action of a balanced bijective map on encoded input tuples.

    Composition order matches bullet: from_map(bullet(f, g)) equals
    from_map(g) * from_map(f) (g applied first).
    """
    if f.arity != f.coarity or not is_bijective(f):
        raise NotBijectiveError(
            f"map of shape ({f.arity},{f.coarity}) is not a balanced bijection")
    return TuplePerm._unchecked(f.codes)


def sign(p: TuplePerm) -> int:
    """Parity of the permutation: +1 for even, -1 for odd."""
    seen = [False] * p.degree
    flips = 0
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = p.images[point]
            length += 1
        flips += length - 1
    return -1 if flips % 2 else 1


class _Level:
    __slots__ = ("point", "own_gens", "transversal", "orbit", "processed")

    def __init__(self, point: int, ident: tuple[int, ...]):
        self.point = point
        # own_gens: list of (uid, images, word) discovered at this depth
        self.own_gens: list[tuple[int, tuple[int, ...], object]] = []
        # transversal: point -> (images, inverse, word); base maps to id
        self.transversal = {point: (ident, ident, _EMPTY_WORD)}
        self.orbit = [point]
        self.processed: set[tuple[int, int]] = set()


def _sift(levels: list[_Level], p: tuple[int, ...], word, start: int):
    """Sift the image tuple p, spelled by `word`, through levels[start:].

    Returns (residue, word, depth): depth is the first level whose orbit
    lacks the residue's image of its base point, or len(levels); the word
    gains the inverse of each transversal word used, so it spells the
    residue."""
    for depth in range(start, len(levels)):
        level = levels[depth]
        entry = level.transversal.get(p[level.point])
        if entry is None:
            return p, word, depth
        p = _mul(p, entry[1])
        word = _cat(word, _inv(entry[2]))
    return p, word, len(levels)


class TupleGroup:
    """A permutation group with a stabilizer chain.

    Build with :meth:`build`; instances are immutable afterwards and safe
    for concurrent queries.
    """

    def __init__(self, degree: int,
                 named_generators: list[tuple[str, TuplePerm]],
                 levels: list[_Level]):
        self.degree = degree
        self.named_generators = tuple(named_generators)
        self._levels = levels
        self._ident = tuple(range(degree))

    @classmethod
    def build(cls, generators, degree: int | None = None) -> "TupleGroup":
        """Build the stabilizer chain for the given generators.

        ``generators`` is an iterable of TuplePerm or (name, TuplePerm)
        pairs; unnamed generators are named g0, g1, ...  ``degree`` is only
        needed for an empty generator list.
        """
        named: list[tuple[str, TuplePerm]] = []
        for i, gen in enumerate(generators):
            if isinstance(gen, tuple):
                name, perm = gen
            else:
                name, perm = f"g{i}", gen
            named.append((str(name), perm))
        if named:
            degrees = {p.degree for _, p in named}
            if len(degrees) != 1:
                raise ShapeError("generators must share one degree",
                                 actual=sorted(degrees))
            inferred = degrees.pop()
            if degree is not None and degree != inferred:
                raise ShapeError("degree mismatch", expected=degree,
                                 actual=inferred)
            degree = inferred
        elif degree is None:
            raise ShapeError("degree required for an empty generator list")
        builder = _ChainBuilder(degree)
        for index, (_, perm) in enumerate(named):
            builder.add_generator(perm.images, ("g", index))
        return cls(degree, named, builder.levels)

    def order(self) -> int:
        total = 1
        for level in self._levels:
            total *= len(level.orbit)
        return total

    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def contains(self, p: TuplePerm) -> bool:
        if p.degree != self.degree:
            raise ShapeError("degree mismatch", expected=self.degree,
                             actual=p.degree)
        residue, _, _ = _sift(self._levels, p.images, _EMPTY_WORD, 0)
        return residue == self._ident

    def witness(self, p: TuplePerm) -> tuple[int, ...] | None:
        """A word over the generators multiplying (left-to-right
        application) to p, as signed 1-based generator indices; None if p
        is not in the group.  A generator witnesses itself; other words
        come from the chain transversals and are valid but not minimized.
        """
        if p.degree != self.degree:
            raise ShapeError("degree mismatch", expected=self.degree,
                             actual=p.degree)
        if p.images == self._ident:
            return ()
        for index, (_, gen) in enumerate(self.named_generators):
            if gen == p:
                return (index + 1,)
        # The sifted word spells p^-1 times the residue.
        residue, word, _ = _sift(self._levels, p.images, _EMPTY_WORD, 0)
        if residue != self._ident:
            return None
        return _expand_word(_inv(word))

    def evaluate_word(self, word: Iterable[int]) -> TuplePerm:
        """Multiply out a signed generator word (left-to-right)."""
        result = self._ident
        for index in word:
            if index == 0 or abs(index) > len(self.named_generators):
                raise ShapeError("word index out of range", actual=index)
            images = self.named_generators[abs(index) - 1][1].images
            if index < 0:
                images = _invert(images)
            result = _mul(result, images)
        return TuplePerm._unchecked(result)

    def witness_names(self, word: Iterable[int]) -> tuple[str, ...]:
        out = []
        for index in word:
            name = self.named_generators[abs(index) - 1][0]
            out.append(name if index > 0 else name + "^-1")
        return tuple(out)

    def random_element(self, rng) -> TuplePerm:
        """A uniformly random element (one random transversal entry per
        level, deepest applied first)."""
        result = self._ident
        for level in reversed(self._levels):
            point = level.orbit[rng.randrange(len(level.orbit))]
            result = _mul(result, level.transversal[point][0])
        return TuplePerm._unchecked(result)


class _ChainBuilder:
    """Deterministic incremental Schreier-Sims on raw image tuples: strong
    generators, transversals, Schreier generators and residues are plain
    tuples; TuplePerm objects appear only at the TupleGroup boundary."""

    def __init__(self, degree: int):
        self.ident = tuple(range(degree))
        self.levels: list[_Level] = []
        self._uid = 0

    # -- generator views -------------------------------------------------

    def _effective_gens(self, index: int):
        """Strong generators fixing the first `index` base points: every
        own generator discovered at depth >= index, in discovery order."""
        out = []
        for level in self.levels[index:]:
            out.extend(level.own_gens)
        out.sort(key=lambda item: item[0])
        return out

    # -- orbit maintenance -----------------------------------------------

    def _extend_orbit(self, index: int) -> None:
        level = self.levels[index]
        gens = self._effective_gens(index)
        # The orbit grows while it is scanned, so new points are scanned too.
        for point in level.orbit:
            t, _, t_word = level.transversal[point]
            for _, gen, gen_word in gens:
                image = gen[point]
                if image not in level.transversal:
                    perm = _mul(t, gen)
                    level.transversal[image] = (perm, _invert(perm),
                                                _cat(t_word, gen_word))
                    level.orbit.append(image)

    # -- construction ------------------------------------------------------

    def add_generator(self, perm: tuple[int, ...], word) -> None:
        residue, rword, depth = _sift(self.levels, perm, word, 0)
        if residue != self.ident:
            self._install(residue, rword, depth, -1)

    def _install(self, perm: tuple[int, ...], word, depth: int,
                 index: int) -> None:
        """Record a strong generator that fixes the first `depth` base
        points, then restore completeness at levels depth, depth - 1, ...
        down to, but not including, level `index`."""
        if depth == len(self.levels):
            base = next(i for i, j in enumerate(perm) if i != j)
            self.levels.append(_Level(base, self.ident))
        self.levels[depth].own_gens.append((self._uid, perm, word))
        self._uid += 1
        for d in range(depth, index, -1):
            self._complete(d)

    def _complete(self, index: int) -> None:
        """Process Schreier generators at `index` until every (orbit
        point, strong generator) pair sifts to the identity through the
        deeper chain.  Assumes deeper levels are complete on entry."""
        level = self.levels[index]
        while True:
            self._extend_orbit(index)
            gens = self._effective_gens(index)
            dirty = False
            for point in list(level.orbit):
                t, _, t_word = level.transversal[point]
                for uid, gen, gen_word in gens:
                    key = (point, uid)
                    if key in level.processed:
                        continue
                    level.processed.add(key)
                    _, u2_inv, u2_word = level.transversal[gen[point]]
                    schreier = _mul(_mul(t, gen), u2_inv)
                    if schreier == self.ident:
                        continue
                    s_word = _cat(_cat(t_word, gen_word), _inv(u2_word))
                    residue, rword, depth = _sift(self.levels, schreier,
                                                  s_word, index + 1)
                    if residue == self.ident:
                        continue
                    self._install(residue, rword, depth, index)
                    dirty = True
            if not dirty:
                return
