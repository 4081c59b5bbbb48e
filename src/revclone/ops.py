"""The composition algebra on maps.

Parallel juxtaposition (oplus), partial composition (compose_k and its
greedy form bullet), input/output rearrangement (tau, zeta, bar_tau,
bar_zeta), variable identification and dummy introduction (delta, nabla),
wire permutations (pi), component selection (select), and constant
insertion (insert) with the combined reduct.

All operations are total over validated inputs and compute the result's
output codes by integer arithmetic on the operands' codes: juxtaposition
and composition combine codes through the code kernels _oplus_codes and
_compose_codes, input rearrangements gather rows through one index helper
and output rearrangements relabel codes through another.  A full
composition is one C-level gather of f's codes at g's codes (_gatherer);
saturation reuses those gathers, and the tables _lift_codes spreads for
partial compositions, across the many pairs that share an operand.
There is no lazy or symbolic composition.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from .core import Alphabet, Map, Perm, ShapeError

# The largest index list, in entries, that _linear_indices memoises.
_MEMO_LIMIT = 4096
_INDEX_CACHE: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}


def _require_same_alphabet(f: Map, g: Map) -> None:
    if f.alphabet != g.alphabet:
        raise ShapeError("alphabet mismatch",
                         expected=f.alphabet.size, actual=g.alphabet.size)


def _place_values(size: int, n: int) -> list[int]:
    """The weight of each position of an n-letter tuple in its encoding."""
    return [size ** (n - 1 - p) for p in range(n)]


def _linear_indices(size: int, weights) -> tuple[int, ...]:
    """sum_q (x_q - 1) * weights[q] for every letter tuple x of length
    len(weights), in encoding order.  Lists of at most _MEMO_LIMIT entries
    are memoised, since the same few shapes recur across calls."""
    key = (size, tuple(weights))
    indices = _INDEX_CACHE.get(key)
    if indices is None:
        indices = [0]
        for w in weights:
            steps = [d * w for d in range(size)]
            indices = [i + s for i in indices for s in steps]
        indices = tuple(indices)
        if len(indices) <= _MEMO_LIMIT:
            _INDEX_CACHE[key] = indices
    return indices


def _pull_inputs(f: Map, weights, offset: int = 0) -> Map:
    """Rearrange f's inputs: the result reads len(weights) inputs, and
    input q contributes weights[q] per letter step to the encoding of the
    input f sees (offset encodes any constant inputs)."""
    # Every source index is at least offset, so gather from the tail.
    codes = f.codes[offset:] if offset else f.codes
    sources = _linear_indices(f.alphabet.size, weights)
    return Map._unchecked(f.alphabet, len(weights), f.coarity,
                          tuple([codes[i] for i in sources]))


def _pick_outputs(f: Map, theta: tuple[int, ...]) -> Map:
    """Output component j of the result is f's component theta[j]
    (1-based); repetitions and omissions are allowed."""
    size = f.alphabet.size
    weights = [0] * f.coarity
    for w, t in zip(_place_values(size, len(theta)), theta):
        weights[t - 1] += w
    relabel = _linear_indices(size, weights)
    return Map._unchecked(f.alphabet, f.arity, len(theta),
                          tuple([relabel[c] for c in f.codes]))


def _oplus_codes(fcodes, gcodes, scale: int) -> tuple[int, ...]:
    """The codes of f oplus g, where scale is k^coarity(g)."""
    return tuple([fc * scale + gc for fc in fcodes for gc in gcodes])


def _gatherer(gcodes, pad: int):
    """The gather that composes any f of the right shape with g: applied
    to f's codes, or to _lift_codes(f's codes, pad, tail) when g leaves
    outputs unconsumed, it returns the codes of compose_k(f, g, k), where
    pad is k^(arity f - k) and tail is k^(coarity g - k).  The table must
    be a tuple."""
    indices = gcodes if pad == 1 else \
        [gc * pad + r for gc in gcodes for r in range(pad)]
    if len(indices) == 1:
        # itemgetter of one index returns the item, not a 1-tuple
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def _lift_codes(fcodes, pad: int, tail: int) -> tuple[int, ...]:
    """f's codes spread over g's unconsumed outputs: entry gc * pad + r is
    the code of the composite row that reads g's output code gc and f's
    remaining input r (see _gatherer)."""
    return tuple([fc * tail + rest
                  for head in range(0, len(fcodes), pad)
                  for rest in range(tail)
                  for fc in fcodes[head:head + pad]])


def _compose_codes(fcodes, pad: int, gcodes, tail: int) -> tuple[int, ...]:
    """The codes of compose_k(f, g, k), where pad is k^(arity f - k) and
    tail is k^(coarity g - k)."""
    if pad == tail == 1:
        return _gatherer(gcodes, 1)(fcodes)
    # g's output code splits into the f input prefix (head) and the
    # unconsumed outputs (rest); each of the pad rows of f under that
    # prefix gives one row.  A single row (pad == 1) needs no slice.  A
    # one-shot gather would first have to build _lift_codes' table.
    if pad == 1:
        return tuple([fcodes[gc // tail] * tail + gc % tail for gc in gcodes])
    return tuple([fc * tail + rest
                  for head, rest in [divmod(gc, tail) for gc in gcodes]
                  for fc in fcodes[head * pad:(head + 1) * pad]])


def oplus(f: Map, g: Map) -> Map:
    """Place f and g next to one another: f reads the first arity(f)
    inputs, g the rest; outputs are concatenated f-first."""
    _require_same_alphabet(f, g)
    return Map._unchecked(f.alphabet, f.arity + g.arity,
                          f.coarity + g.coarity,
                          _oplus_codes(f.codes, g.codes,
                                       f.alphabet.count(g.coarity)))


def compose_k(f: Map, g: Map, k: int) -> Map:
    """Feed the first k outputs of g into the first k inputs of f.

    The composite reads g's inputs first, then f's remaining inputs; its
    outputs are f's outputs followed by g's unconsumed outputs.  This is a
    partial operation: k must not exceed arity(f) or coarity(g).  k == 0 is
    the degenerate case that consumes nothing (it arises from bullet on
    arity-0 or coarity-0 operands).
    """
    _require_same_alphabet(f, g)
    if not 0 <= k <= min(f.arity, g.coarity):
        raise ShapeError(
            "compose_k out of range",
            expected=f"0 <= k <= min(arity f = {f.arity}, coarity g = {g.coarity})",
            actual=k)
    alphabet = f.alphabet
    return Map._unchecked(alphabet, f.arity + g.arity - k,
                          f.coarity + g.coarity - k,
                          _compose_codes(f.codes, alphabet.count(f.arity - k),
                                         g.codes,
                                         alphabet.count(g.coarity - k)))


def bullet(f: Map, g: Map) -> Map:
    """Greedy composition: compose_k with k = min(arity f, coarity g)."""
    return compose_k(f, g, min(f.arity, g.coarity))


def tau(f: Map) -> Map:
    """Swap the first two inputs; identity when arity < 2."""
    if f.arity < 2:
        return f
    weights = _place_values(f.alphabet.size, f.arity)
    weights[0], weights[1] = weights[1], weights[0]
    return _pull_inputs(f, weights)


def zeta(f: Map) -> Map:
    """Rotate the inputs: the first input moves to the last slot of f;
    identity when arity < 2."""
    if f.arity < 2:
        return f
    weights = _place_values(f.alphabet.size, f.arity)
    return _pull_inputs(f, weights[-1:] + weights[:-1])


def bar_tau(f: Map) -> Map:
    """Swap the first two outputs; identity when coarity < 2."""
    if f.coarity < 2:
        return f
    return _pick_outputs(f, (2, 1) + tuple(range(3, f.coarity + 1)))


def bar_zeta(f: Map) -> Map:
    """Rotate the outputs: the first output moves to the end; identity
    when coarity < 2."""
    if f.coarity < 2:
        return f
    return _pick_outputs(f, tuple(range(2, f.coarity + 1)) + (1,))


def delta(f: Map) -> Map:
    """Identify the first two inputs; identity when arity < 2."""
    if f.arity < 2:
        return f
    weights = _place_values(f.alphabet.size, f.arity)
    return _pull_inputs(f, [weights[0] + weights[1]] + weights[2:])


def nabla(f: Map) -> Map:
    """Introduce a dummy first input."""
    return Map._unchecked(f.alphabet, f.arity + 1, f.coarity,
                          f.codes * f.alphabet.size)


def pi(alphabet: Alphabet, alpha: Perm) -> Map:
    """The wire permutation pi_alpha: output position j carries input
    alpha^{-1}(j), so the letter on wire i moves to wire alpha(i)."""
    n = alpha.degree
    place = _place_values(alphabet.size, n)
    return Map._unchecked(alphabet, n, n, _linear_indices(
        alphabet.size, [place[alpha(q) - 1] for q in range(1, n + 1)]))


def _check_selection(theta: Sequence[int], coarity: int,
                     distinct: bool) -> tuple[int, ...]:
    theta = tuple(theta)
    for t in theta:
        if not 1 <= t <= coarity:
            raise ShapeError("selection index out of range",
                             expected=f"1..{coarity}", actual=t)
    if distinct and len(set(theta)) != len(theta):
        raise ShapeError("selection indices must be distinct", actual=theta)
    return theta


def select(theta: Sequence[int], f: Map) -> Map:
    """Keep the output components named by theta, in theta's order.
    Indices must be distinct."""
    return _pick_outputs(f, _check_selection(theta, f.coarity, distinct=True))


def select_multi(theta: Sequence[int], f: Map) -> Map:
    """Like select but repetitions are permitted, so components can be
    duplicated: select_multi((1, 1), i_1) is the fan-out."""
    return _pick_outputs(f, _check_selection(theta, f.coarity, distinct=False))


def insert(positions: Iterable[int], constants: Sequence[int], f: Map) -> Map:
    """Fix the inputs at the given positions to the given constants.

    Positions must be strictly increasing; constants[j] lands at
    positions[j] and the remaining inputs keep their relative order.
    """
    positions = tuple(positions)
    constants = tuple(constants)
    if len(positions) != len(constants):
        raise ShapeError("positions and constants must pair up",
                         expected=len(positions), actual=len(constants))
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ShapeError("positions must be strictly increasing",
                         actual=positions)
    for p in positions:
        if not 1 <= p <= f.arity:
            raise ShapeError("insert position out of range",
                             expected=f"1..{f.arity}", actual=p)
    for a in constants:
        f.alphabet.check_letter(a)
    place = _place_values(f.alphabet.size, f.arity)
    fixed = dict(zip(positions, constants))
    offset = sum((fixed[p] - 1) * place[p - 1] for p in positions)
    return _pull_inputs(f, [w for p, w in enumerate(place, start=1)
                            if p not in fixed], offset)


def reduct(f: Map, theta_prime: Iterable[int], theta: Sequence[int],
           o: int) -> Map:
    """Insert the constant o at every position in theta_prime, then select
    the output components theta."""
    theta_prime = tuple(theta_prime)
    return select(theta, insert(theta_prime, (o,) * len(theta_prime), f))
