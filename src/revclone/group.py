"""Permutation groups on encoded tuple indices.

A balanced bijective map acts on the k^n encoded input tuples; this module
answers order, membership, witness-word, and parity questions about what a
set of such maps generates.  The stabilizer chain is built by a
deterministic (non-randomized) Schreier-Sims with first-moved-point base
selection, so identical generator sequences always produce identical
chains and witness words.

Witness words are symbolic and structure-shared.  A sift records the
transversal words it passes, and a word is spelled from them only for a
residue the chain keeps and for the answer of `witness`; the many sifts
that reach the identity spell nothing.  Words are expanded only on
demand; they are valid but not minimized, and for deep chains the
expansion can be long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Map, NotBijectiveError, ShapeError, _invert, \
    _transpositions, is_bijective

# Symbolic words over the original generators:
#   ()                empty word
#   ("g", i)          generator i (0-based)
#   ("inv", w)        inverse of word w
#   ("cat", a, b)     word a then word b
_EMPTY_WORD = ()

# Longest witness word expanded, in generators; deep chains can spell
# members with words of millions of generators.
MAX_WITNESS_LEN = 1_000_000


class WitnessOverflow(RuntimeError):
    """A witness word would exceed MAX_WITNESS_LEN generators."""


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
    left-to-right application order; negative means inverse.  Raises
    WitnessOverflow past MAX_WITNESS_LEN generators."""
    out: list[int] = []
    stack = [(word, False)]
    while stack:
        node, inverted = stack.pop()
        if node == _EMPTY_WORD:
            continue
        tag = node[0]
        if tag == "g":
            if len(out) == MAX_WITNESS_LEN:
                raise WitnessOverflow(
                    f"witness word exceeds {MAX_WITNESS_LEN} generators")
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

    Products are left to right: ``(p * q).images[x]`` is
    ``q.images[p.images[x]]``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ShapeError("not a permutation of 0..d-1", actual=images)
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "TuplePerm":
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "TuplePerm":
        return cls._unchecked(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

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
        return hash(self.images)

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
    return -1 if len(_transpositions(p.images)) % 2 else 1


# -- the stabilizer chain ------------------------------------------------------
#
# A chain is a list of _Level, one per base point.  A strong generator
# found at depth d fixes the first d base points and is a generator of
# levels 0..d, so it is appended to the `gens` of each, in discovery order.
# Orbits and generator lists only grow, so the pairs a level has scanned
# and sifted form a rectangle, `done`: its first done[0] orbit points
# against its first done[1] generators.

class _Level:
    __slots__ = ("point", "transversal", "orbit", "gens", "done", "trivial")

    def __init__(self, point: int, ident: tuple[int, ...]):
        self.point = point
        # transversal: point -> (images, inverse, word); base maps to id
        self.transversal = {point: (ident, ident, _EMPTY_WORD)}
        self.orbit = [point]
        # (images, word) of each strong generator found here or deeper
        self.gens: list[tuple[tuple[int, ...], tuple]] = []
        # (orbit points, generators) whose pairs are scanned and sifted
        self.done = (0, 0)
        # Schreier generators that were the identity before sifting
        self.trivial = 0


def _sift(levels: list[_Level], p: tuple[int, ...], start: int):
    """Sift the image tuple p through levels[start:].

    Returns (residue, depth, used): depth is the first level whose orbit
    lacks the residue's image of its base point, or len(levels); used
    lists the transversal words whose inverses were applied, in order, for
    _spell to spell the residue from p's word."""
    used = []
    for depth, level in enumerate(levels[start:], start):
        entry = level.transversal.get(p[level.point])
        if entry is None:
            return p, depth, used
        inverse = entry[1]
        p = tuple([inverse[i] for i in p])
        used.append(entry[2])
    return p, len(levels), used


def _spell(word, used):
    """The word of a sift's residue: `word`, which spells the sifted
    permutation, followed by the inverse of each transversal word used."""
    for w in used:
        word = _cat(word, _inv(w))
    return word


def _install(levels: list[_Level], perm: tuple[int, ...], word, depth: int,
             stop: int) -> None:
    """Record a strong generator that fixes the first `depth` base points,
    then restore completeness at levels depth, depth - 1, ... down to, but
    not including, level `stop`."""
    if depth == len(levels):
        base = next(i for i, j in enumerate(perm) if i != j)
        levels.append(_Level(base, tuple(range(len(perm)))))
    gen = (perm, word)
    for level in levels[:depth + 1]:
        level.gens.append(gen)
    for d in range(depth, stop, -1):
        _complete(levels, d)


def _complete(levels: list[_Level], index: int) -> None:
    """Extend the orbit at `index` and process its Schreier generators
    until every (orbit point, generator) pair sifts to the identity
    through the deeper chain.  Assumes deeper levels are complete on
    entry."""
    level = levels[index]
    transversal, orbit = level.transversal, level.orbit
    ident = transversal[level.point][0]
    while True:
        # Generators installed during the pass wait for the next one.
        count = len(level.gens)
        points, seen = level.done
        # The orbit grows while it is scanned, so new points are scanned too.
        for i, point in enumerate(orbit):
            t, _, t_word = transversal[point]
            for gen, gen_word in level.gens[seen if i < points else 0:count]:
                image = gen[point]
                if image not in transversal:
                    perm = _mul(t, gen)
                    transversal[image] = (perm, _invert(perm),
                                          _cat(t_word, gen_word))
                    orbit.append(image)
        for i, point in enumerate(orbit):
            t, _, t_word = transversal[point]
            for gen, gen_word in level.gens[seen if i < points else 0:count]:
                _, u2_inv, u2_word = transversal[gen[point]]
                # The Schreier generator t * gen * u2^-1, in one pass.
                schreier = tuple([u2_inv[gen[j]] for j in t])
                if schreier == ident:
                    level.trivial += 1
                    continue
                residue, depth, used = _sift(levels, schreier, index + 1)
                if residue == ident:
                    continue
                s_word = _cat(_cat(t_word, gen_word), _inv(u2_word))
                _install(levels, residue, _spell(s_word, used), depth, index)
        level.done = (len(orbit), count)
        if len(level.gens) == count:
            return


@dataclass(frozen=True)
class ChainStats:
    """The work one stabilizer-chain build did.

    ``orbit_lengths`` are the basic orbits, one per level, whose product
    is the group order; ``strong_generators`` counts the strong
    generating set.  ``schreier_sifted`` counts every Schreier generator
    formed, and ``schreier_trivial`` those of them that were the identity
    before sifting, so they skipped the sift.  ``residues_installed``
    counts the non-identity sift residues made strong generators, from the
    input generators and from Schreier generators alike; each becomes
    exactly one strong generator, so it equals ``strong_generators``.
    """

    levels: int
    orbit_lengths: tuple[int, ...]
    strong_generators: int
    schreier_sifted: int
    schreier_trivial: int
    residues_installed: int


class TupleGroup:
    """A permutation group with a stabilizer chain.

    Build with :meth:`build`; instances are immutable afterwards and safe
    for concurrent queries.  ``stats`` counts the work the build did.
    """

    def __init__(self, degree: int,
                 named_generators: list[tuple[str, TuplePerm]],
                 levels: list[_Level], stats: ChainStats):
        self.degree = degree
        self.named_generators = tuple(named_generators)
        self._levels = levels
        self._ident = tuple(range(degree))
        self.stats = stats

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
        ident = tuple(range(degree))
        levels: list[_Level] = []
        for index, (_, perm) in enumerate(named):
            residue, depth, used = _sift(levels, perm.images, 0)
            if residue != ident:
                _install(levels, residue, _spell(("g", index), used),
                         depth, -1)
        # Every installed residue is a strong generator of level 0.
        strong = len(levels[0].gens) if levels else 0
        stats = ChainStats(
            levels=len(levels),
            orbit_lengths=tuple(len(level.orbit) for level in levels),
            strong_generators=strong,
            schreier_sifted=sum(level.done[0] * level.done[1]
                                for level in levels),
            schreier_trivial=sum(level.trivial for level in levels),
            residues_installed=strong)
        return cls(degree, named, levels, stats)

    def order(self) -> int:
        total = 1
        for level in self._levels:
            total *= len(level.orbit)
        return total

    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def _sifted(self, p: TuplePerm):
        """Whether p is a member, and the transversal words its sift used,
        which _spell turns into the word of p^-1 times the residue."""
        if p.degree != self.degree:
            raise ShapeError("degree mismatch", expected=self.degree,
                             actual=p.degree)
        residue, _, used = _sift(self._levels, p.images, 0)
        return residue == self._ident, used

    def contains(self, p: TuplePerm) -> bool:
        return self._sifted(p)[0]

    def witness(self, p: TuplePerm) -> tuple[int, ...] | None:
        """A word over the generators multiplying (left-to-right
        application) to p, as signed 1-based generator indices; None if p
        is not in the group.  A generator witnesses itself; other words
        come from the chain transversals and are valid but not minimized;
        one longer than MAX_WITNESS_LEN raises WitnessOverflow.
        """
        member, used = self._sifted(p)
        if not member:
            return None
        if p.images == self._ident:
            return ()
        for index, (_, gen) in enumerate(self.named_generators):
            if gen == p:
                return (index + 1,)
        return _expand_word(_inv(_spell(_EMPTY_WORD, used)))

    def _generator(self, index: int) -> tuple[str, TuplePerm]:
        """The named generator a signed 1-based word index refers to."""
        if index == 0 or abs(index) > len(self.named_generators):
            raise ShapeError("word index out of range", actual=index)
        return self.named_generators[abs(index) - 1]

    def evaluate_word(self, word: Iterable[int]) -> TuplePerm:
        """Multiply out a signed generator word (left-to-right)."""
        result = self._ident
        for index in word:
            images = self._generator(index)[1].images
            if index < 0:
                images = _invert(images)
            result = _mul(result, images)
        return TuplePerm._unchecked(result)

    def witness_names(self, word: Iterable[int]) -> tuple[str, ...]:
        out = []
        for index in word:
            name = self._generator(index)[0]
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
