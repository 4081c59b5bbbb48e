"""The three benchmark workloads as deterministic request streams.

Each workload is a closed loop of one client: ``plan.round(r)`` returns
the r-th round of requests, generated from the seed alone, and every
round has the same mix of request shapes so that whole rounds are
comparable across seeds.  A request calls only revclone's public
functions (through the package re-exports, looked up at call time) and
carries a check against a reference computed here without the code under
test (see ``reference.py``).

- ``slice``: CLI-shaped ``closure-order`` / ``member`` / ``member
  --witness`` requests, each building its slice group from scratch.
  Every generator set is a built-in family relabelled by a seeded letter
  permutation plus one seeded extra member, so no set repeats in a run.
  Degrees run from 8 to 36 so small and large slices share one run.
- ``saturate``: bounded-closure jobs (``saturate`` with and without
  delta/nabla, ``function_set``, ``check_realisation``) on k = 2, 3 with
  arity caps <= 3.  Many operations on tables of at most 27 rows.
- ``synth``: synthesis of seeded bijections under ``tg-n`` and
  ``odd-small``, netlist text round trips and simulation, ``lift_odd``
  terms printed, parsed and evaluated, ``lift_temp_storage`` checked for
  strong temporary storage, and ``embed`` reducts.  Few operations on
  large tables (up to 3^9 rows).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], Any]
    degree: int = 0
    gen_key: Any = None
    stat: Callable[[Any], int] | None = None


def _rng(seed: int, r: int, slot: int) -> random.Random:
    return random.Random(f"{seed}/{r}/{slot}")


def _letter_perm(rng: random.Random, k: int) -> tuple[int, ...]:
    images = list(range(1, k + 1))
    rng.shuffle(images)
    return tuple(images)


def _swap(k):
    return (2, 1) + tuple(range(3, k + 1))


def _cycle(k):
    return tuple(range(2, k + 1)) + (1,)


def family_tables(family: str, k: int) -> list[tuple[str, int, tuple]]:
    """(name, arity, table) for a built-in generator family, in the order
    the command line expands it."""
    if family == "std4":
        return [("swap", 1, ref.gate_table(k, 1, _swap(k), 1)),
                ("cycle", 1, ref.gate_table(k, 1, _cycle(k), 1)),
                ("tg2-swap", 2, ref.gate_table(k, 2, _swap(k), 1)),
                ("tg2-cycle", 2, ref.gate_table(k, 2, _cycle(k), 1))]
    if family == "tg1-swapcycle":
        return family_tables("tg1-swap", k) + family_tables("tg1-cycle", k)
    if family.startswith("tg-family-lt"):
        bound, _, allo = family[len("tg-family-lt"):].partition("-")
        out = []
        for i in range(1, int(bound)):
            for alpha in itertools.permutations(range(1, k + 1)):
                if alpha == tuple(range(1, k + 1)):
                    continue
                for o in (range(1, k + 1) if allo else (1,)):
                    out.append((f"tg{i}-{alpha}-o{o}", i,
                                ref.gate_table(k, i, alpha, o)))
        return out
    width, _, which = family[2:].partition("-")
    alpha = _swap(k) if which == "swap" else _cycle(k)
    return [(family, int(width), ref.gate_table(k, int(width), alpha, 1))]


def _digest_word(word):
    return None if word is None else (len(word), hash(word))


# -- slice ----------------------------------------------------------------------

# (family, k, n, request kind, structure a non-member breaks).  "parity":
# the slice lies in the alternating group; "hamming": every element is a
# Hamming isometry; "star": every element keeps the set of tuples with at
# most one letter other than the (relabelled) control letter.  Member
# requests only go to slices with such a structure, half members and half
# not; full symmetric slices get order and witness requests.  Witness
# requests stay on slices whose words stay below about 10^4 generators:
# on the large slices the expanded word for a random member is
# heavy-tailed (degree 25: up to 1.7 * 10^5; degree 27: from tens to about
# 10^8 generators, up to minutes), which no fixed-length run holds
# steadily.
SLICE_SLOTS = [
    ("std4", 2, 3, "member", "parity"),
    ("tg-family-lt3-allo", 2, 3, "order", None),
    ("tg3-swap", 2, 3, "witness", None),
    ("tg1-swap", 2, 3, "member", "hamming"),
    ("std4", 3, 2, "witness", None),
    ("tg2-cycle", 3, 2, "member", "star"),
    ("tg1-cycle", 3, 2, "order", None),
    ("tg-family-lt4", 2, 4, "member", "parity"),
    ("std4", 4, 2, "witness", None),
    ("tg-family-lt2-allo", 4, 2, "witness", None),
    ("tg4-swap", 2, 4, "member", "star"),
    ("std4", 2, 4, "witness", None),
    ("std4", 5, 2, "order", None),
    ("tg-family-lt2", 5, 2, "member", "hamming"),
    ("tg2-cycle", 5, 2, "witness", None),
    ("std4", 3, 3, "order", None),
    ("tg-family-lt3", 3, 3, "order", None),
    ("tg3-swap", 3, 3, "member", "star"),
    ("tg1-swapcycle", 3, 3, "member", "hamming"),
    ("std4", 2, 5, "member", "parity"),
    ("tg5-swap", 2, 5, "order", None),
    ("tg-family-lt2", 6, 2, "order", None),
    ("tg1-swapcycle", 6, 2, "witness", None),
    ("tg2-swap", 6, 2, "member", "star"),
    ("tg2-cycle", 6, 2, "order", None),
]

EXTRA_WORD = 6
EXTRA_DRAWS = 20
TARGET_WORD = 20


def _breaking_swap(rng, rule, k, n, a):
    """A transposition of tuples that no element of the slice can be
    composed with and stay inside it."""
    d = k ** n
    if rule == "parity":
        i, j = rng.sample(range(d), 2)
        return ref.transposition(d, i, j)
    if rule == "hamming":
        x = [rng.randint(1, k) for _ in range(n)]
        y = list(x)
        pos = rng.randrange(n)
        y[pos] = rng.choice([v for v in range(1, k + 1) if v != x[pos]])
        return ref.transposition(d, ref.encode(x, k), ref.encode(y, k))
    far = [x for x in ref.tuples(k, n) if sum(v != a for v in x) >= 2]
    z = rng.choice(far)
    return ref.transposition(d, ref.encode((a,) * n, k), ref.encode(z, k))


class SlicePlan:
    def __init__(self, rc, seed: int):
        self.rc = rc
        self.seed = seed
        self._family_cache: dict = {}
        self._orders: dict = {}
        self._seen: set = set()

    def _family(self, family, k):
        key = (family, k)
        if key not in self._family_cache:
            self._family_cache[key] = family_tables(family, k)
        return self._family_cache[key]

    def round(self, r: int) -> list[Request]:
        return [self._request(r, i, *slot)
                for i, slot in enumerate(SLICE_SLOTS)]

    def _relabelling(self, i, k, r):
        """The r-th letter relabelling for slot i: a seeded order of all of
        S_k, so that every run sees the relabellings (which change the
        build cost by about 20%) in nearly equal shares."""
        if i not in self._orders:
            order = list(itertools.permutations(range(1, k + 1)))
            random.Random(f"{self.seed}/sigma/{i}").shuffle(order)
            self._orders[i] = order
        order = self._orders[i]
        return order[r % len(order)]

    def _request(self, r, i, family, k, n, kind, rule):
        rc = self.rc
        rng = _rng(self.seed, r, i)
        sigma = self._relabelling(i, k, r)
        alphabet = rc.Alphabet(k)
        gens = [(name, m, ref.conjugate_table(table, m, sigma))
                for name, m, table in self._family(family, k)]
        perms = [ref.pad_perm(ref.table_perm(t, k), k, m, n)
                 for _, m, t in gens]
        wires = ref.slice_wire_perms(k, n)
        # The extra member makes the set new within the run; tiny slices
        # have few members, so a repeat is redrawn a bounded number of
        # times (the shape report records any that remain).
        for _ in range(EXTRA_DRAWS):
            extra = list(range(k ** n))
            for _ in range(EXTRA_WORD):
                extra = ref.then(extra, rng.choice(perms + wires))
            x_table = ref.perm_table(extra, k, n)
            gen_key = frozenset([(m, t) for _, m, t in gens] + [(n, x_table)])
            if gen_key not in self._seen:
                break
        self._seen.add(gen_key)
        gens.append(("x", n, x_table))
        perms.append(extra)
        named_perms = perms + wires
        maps = [(name, rc.Map(alphabet, m, m, table))
                for name, m, table in gens]

        def build():
            return rc.slice_group(maps, n, alphabet)

        if kind == "order":
            expected = ref.slice_order(family, k, n)
            return Request("order", lambda: build().order(),
                           lambda out: out == expected, lambda out: out,
                           k ** n, gen_key)

        target = list(range(k ** n))
        for _ in range(TARGET_WORD):
            target = ref.then(target, rng.choice(named_perms))
        member = rule is None or (r + i) % 2 == 0
        if not member:
            target = ref.then(target, _breaking_swap(rng, rule, k, n,
                                                     sigma[0]))
        target_map = rc.Map(alphabet, n, n, ref.perm_table(target, k, n))

        if kind == "member":
            return Request(
                "member-in" if member else "member-out",
                lambda: build().contains(rc.from_map(target_map)),
                lambda out: out is member, lambda out: out, k ** n, gen_key)

        def check_witness(word):
            return (word is not None
                    and ref.word_product(word, named_perms) == target)

        return Request(
            "witness", lambda: build().witness(rc.from_map(target_map)),
            check_witness, _digest_word, k ** n, gen_key,
            stat=lambda word: len(word))


# -- saturate ---------------------------------------------------------------------

# (job, k, generator families, (max arity, max coarity, size budget),
# with delta/nabla).  Budgets keep each job under about a second, and the
# odd job count puts the median latency on one job rather than in a gap.
# Generators keep their family order, since the order decides which maps
# an over-budget saturation reaches and so its cost; relabelling the
# letters and raising the budget by up to 2.5% make each job new within
# a run without changing its cost much.
SATURATE_JOBS = [
    ("saturate", 2, ("tg1-swap", "tg2-swap"), (3, 3, 1200), False),
    ("saturate", 3, ("tg1-swap", "tg1-cycle"), (2, 2, 200), False),
    ("saturate", 3, ("tg1-swap",), (2, 3, 400), True),
    ("saturate", 2, ("tg1-swap",), (2, 2, 2000), True),
    ("saturate", 3, ("tg1-cycle", "tg2-swap"), (3, 3, 800), False),
    ("saturate", 3, ("std4",), (2, 2, 400), False),
    ("saturate", 3, ("tg2-swap", "tg1-cycle"), (3, 3, 600), False),
    ("function_set", 2, ("tg1-swap", "tg2-swap"), (3, 3, 1200), False),
    ("function_set", 3, ("tg1-cycle", "tg2-swap"), (3, 3, 800), False),
    ("realise-isomorphic", 3, ("std4",), (2, 2, 200), False),
    ("realise-nonaffine", 2, ("tg1-swap", "tg2-swap"), (3, 3, 400), False),
    ("realise-fanout", 2, ("tg1-swap", "tg2-swap"), (2, 2, 200), False),
    ("realise-cycle", 3, ("tg1-swap",), (2, 2, 200), False),
]

SPOT_PAIRS = 6


def _shape(m):
    return (m.arity, m.coarity, m.table)


def _check_saturation(sat, seeds, caps, dn, k, rng_seed) -> bool:
    max_arity, max_coarity, budget = caps
    maps = [_shape(m) for m in sat.maps]
    if len(maps) > budget or len(set(maps)) != len(maps):
        return False
    if len(maps) < budget and sat.overflowed:
        return False
    if any(a > max_arity or c > max_coarity for a, c, _ in maps):
        return False
    expected_head = []
    for s in seeds:
        if s not in expected_head:
            expected_head.append(s)
    if maps[:len(expected_head)] != expected_head:
        return False
    if not dn and not all(a == c and ref.is_bijective(t, k)
                          for a, c, t in maps):
        return False
    if sat.overflowed:
        return True
    # A complete saturation is closed: spot-check seeded pairs.
    present = set(maps)
    rng = random.Random(rng_seed)

    def inside(a, c, t):
        return a > max_arity or c > max_coarity or (a, c, t) in present

    for _ in range(SPOT_PAIRS):
        xa, xc, xt = rng.choice(maps)
        ya, yc, yt = rng.choice(maps)
        results = [(xa, xc, ref.tau(xt, k, xa)),
                   (xa, xc, ref.zeta(xt, k, xa))]
        if dn:
            results.append((xa - 1 if xa >= 2 else xa, xc,
                            ref.delta(xt, k, xa)))
            results.append((xa + 1, xc, ref.nabla(xt, k)))
        if xa + ya <= max_arity and xc + yc <= max_coarity:
            results.append((xa + ya, xc + yc, ref.oplus(xt, yt)))
            results.append((xa + ya, xc + yc, ref.oplus(yt, xt)))
        for j in range(1, min(xa, yc) + 1):
            results.append((xa + ya - j, xc + yc - j,
                            ref.compose(xt, xa, yt, ya, j, k)))
        for j in range(1, min(ya, xc) + 1):
            results.append((xa + ya - j, xc + yc - j,
                            ref.compose(yt, ya, xt, xa, j, k)))
        if not all(inside(*m) for m in results):
            return False
    return True


def _check_function_set(funcs, k, max_arity) -> bool:
    shapes = [_shape(f) for f in funcs]
    if len(set(shapes)) != len(shapes) or not shapes:
        return False
    if shapes[0] != (1, 1, tuple((v,) for v in range(1, k + 1))):
        return False
    for arity, coarity, table in shapes:
        if coarity != 1 or arity > max_arity:
            return False
        counts = [0] * k
        for (v,) in table:
            counts[v - 1] += 1
        if len(set(counts)) != 1:
            return False
    return True


def _check_realisation(res, verdict, target, k) -> bool:
    if res.verdict != verdict:
        return False
    if verdict == "not-found":
        return res.realiser is None
    f = res.realiser
    m, n = target.arity, target.coarity
    if verdict == "isomorphic":
        return _shape(f) == _shape(target)
    if f.coarity != n and verdict == "no-garbage":
        return False
    for x, row in zip(ref.tuples(k, m), target.table):
        y = f.table[ref.encode(x + tuple(res.constants), k)]
        if y[:n] != row:
            return False
    return True


def _affine_2to1(table) -> bool:
    """Whether a two-input binary function (letters 1, 2) is affine
    over F_2."""
    v = [row[0] - 1 for row in table]
    return v[0] ^ v[1] ^ v[2] ^ v[3] == 0


class SaturatePlan:
    def __init__(self, rc, seed: int):
        self.rc = rc
        self.seed = seed
        self._seen: set = set()

    def round(self, r: int) -> list[Request]:
        return [self._request(r, i, *job)
                for i, job in enumerate(SATURATE_JOBS)]

    def _request(self, r, i, job, k, families, base_caps, dn):
        rc = self.rc
        rng = _rng(self.seed, r, i)
        alphabet = rc.Alphabet(k)
        tables = []
        for family in families:
            tables.extend(family_tables(family, k))
        for _ in range(EXTRA_DRAWS):
            sigma = _letter_perm(rng, k)
            budget = base_caps[2] + rng.randrange(base_caps[2] // 40 + 1)
            caps = base_caps[:2] + (budget,)
            gens = [(name, m, ref.conjugate_table(t, m, sigma))
                    for name, m, t in tables]
            gen_key = (job, caps, tuple((m, t) for _, m, t in gens))
            if gen_key not in self._seen:
                break
        self._seen.add(gen_key)
        maps = [(name, rc.Map(alphabet, m, m, t)) for name, m, t in gens]
        search = rc.SearchCaps(*caps)
        seeds = [(1, 1, tuple((v,) for v in range(1, k + 1)))]
        seeds += [(m, m, t) for _, m, t in gens
                  if m <= caps[0] and m <= caps[1]]
        check_seed = rng.random()

        if job == "saturate":
            return Request(
                job, lambda: rc.saturate(maps, search, dn, alphabet),
                lambda sat: _check_saturation(sat, seeds, caps, dn, k,
                                              check_seed),
                lambda sat: (sat.capped, sat.overflowed,
                             hash(tuple(map(_shape, sat.maps)))),
                gen_key=gen_key)
        if job == "function_set":
            return Request(
                job, lambda: rc.function_set(maps, search, alphabet),
                lambda fs: _check_function_set(fs, k, caps[0]),
                lambda fs: hash(tuple(map(_shape, fs))), gen_key=gen_key)

        if job == "realise-isomorphic":
            # Every bijection of A^2 lies in the standard generators'
            # slice for odd k.
            rows = ref.tuples(k, 2)
            rng.shuffle(rows)
            target, verdict = rc.Map(alphabet, 2, 2, rows), "isomorphic"
        elif job == "realise-nonaffine":
            # The generators are affine over F_2, so is everything they
            # realise; a non-affine function has no realiser at all.
            choices = [t for t in itertools.product(((1,), (2,)), repeat=4)
                       if not _affine_2to1(t)]
            target = rc.Map(alphabet, 2, 1, rng.choice(choices))
            verdict = "not-found"
        elif job == "realise-fanout":
            # A controlled swap fed a constant copies its control wire.
            target = rc.Map(alphabet, 1, 2, ((1, 1), (2, 2)))
            verdict = "no-garbage"
        else:
            # Only a letter transposition and wire moves: no output is
            # ever a 3-cycle of an input.
            target = rc.Map(alphabet, 1, 1, ref.conjugate_table(
                ref.gate_table(k, 1, _cycle(k), 1), 1, sigma))
            verdict = "not-found"
        return Request(
            "check_realisation",
            lambda: rc.check_realisation(target, maps, search, alphabet),
            lambda res: _check_realisation(res, verdict, target, k),
            lambda res: (res.verdict, res.constants,
                         None if res.realiser is None
                         else _shape(res.realiser)), gen_key=gen_key)


# -- synth -------------------------------------------------------------------------

# (k, n, policy, target).  The target is a uniform bijection (None) or a
# product of transpositions of tuples at one Hamming distance, given as
# (count, distance): synthesis cost follows the distance, so fixing it
# keeps rounds alike across seeds.
SYNTH_TARGETS = [
    (2, 5, "tg-n", None),
    (2, 6, "tg-n", (8, 3)),
    (3, 3, "tg-n", None),
    (3, 3, "odd-small", (6, 2)),
    (3, 4, "tg-n", (8, 2)),
    (3, 4, "odd-small", (3, 2)),
    (5, 2, "tg-n", None),
    (5, 2, "odd-small", None),
    (5, 3, "tg-n", (6, 2)),
    (5, 3, "odd-small", (2, 2)),
]
# (k, gate width, word length of the letter permutation over the swap and
# the cycle): the lifted term grows with that length.
LIFT_ODD = [(3, 3, 2), (3, 4, 2), (5, 3, 4), (5, 4, 4)]
# (3, 5) twice: its steady cost sits at the round's median latency.
LIFT_TS = [(2, 5), (2, 6), (3, 5), (3, 5), (3, 6)]
# (k, inputs, outputs, largest preimage class or None for uniform rows).
EMBED = [(2, 4, 3, None), (3, 3, 2, None), (3, 6, 2, 81), (2, 8, 3, 32)]


def _embed_width(k, m, n, largest):
    e, power = 0, 1
    while power < largest:
        power *= k
        e += 1
    return max(m, n + e)


class SynthPlan:
    def __init__(self, rc, seed: int):
        self.rc = rc
        self.seed = seed

    def round(self, r: int) -> list[Request]:
        out = []
        slot = itertools.count()
        for spec in SYNTH_TARGETS:
            out.append(self._synth(_rng(self.seed, r, next(slot)), *spec))
        for spec in LIFT_ODD:
            out.append(self._lift_odd(_rng(self.seed, r, next(slot)), *spec))
        for spec in LIFT_TS:
            out.append(self._lift_ts(_rng(self.seed, r, next(slot)), *spec))
        for spec in EMBED:
            out.append(self._embed(_rng(self.seed, r, next(slot)), *spec))
        return out

    def _synth(self, rng, k, n, policy, sparse):
        rc = self.rc
        alphabet = rc.Alphabet(k)
        d = k ** n
        perm = list(range(d))
        if sparse is None:
            rng.shuffle(perm)
        else:
            count, distance = sparse
            for _ in range(count):
                x = [rng.randint(1, k) for _ in range(n)]
                y = list(x)
                for pos in rng.sample(range(n), distance):
                    y[pos] = rng.choice([v for v in range(1, k + 1)
                                         if v != x[pos]])
                perm = ref.then(perm, ref.transposition(
                    d, ref.encode(x, k), ref.encode(y, k)))
        table = ref.perm_table(perm, k, n)
        target = rc.Map(alphabet, n, n, table)

        def call():
            netlist = rc.synthesize(target, policy)
            text = rc.format_netlist(netlist, alphabet)
            parsed, _ = rc.parse_netlist(text)
            return netlist, parsed, rc.simulate(parsed, alphabet)

        def check(out):
            netlist, parsed, simulated = out
            if simulated.table != table or parsed != netlist:
                return False
            if policy == "odd-small":
                return all(s.kind == "pi" or len(s.wires) <= 2
                           for s in netlist.stages)
            return True

        return Request(f"synthesize-{policy}", call, check,
                       lambda out: (len(out[0].stages), hash(out[2].table)),
                       stat=lambda out: len(out[0].stages))

    def _lift_odd(self, rng, k, n, length):
        rc = self.rc
        alphabet = rc.Alphabet(k)
        images = rng.choice(sorted(
            p for p, d in ref.letter_word_lengths(k).items() if d == length))
        alpha = rc.Perm(images)
        expected = ref.gate_table(k, n, images, 1)

        def call():
            text = rc.print_term(rc.lift_odd(n, alpha))
            lifted = rc.evaluate_term(rc.parse(text), alphabet=alphabet)
            return lifted, rc.tg(n, alpha, 1)

        return Request("lift_odd", call,
                       lambda out: (out[0].table == expected
                                    and out[1].table == expected),
                       lambda out: hash(out[0].table))

    def _lift_ts(self, rng, k, n):
        rc = self.rc
        images = _letter_perm(rng, k)
        while images == tuple(range(1, k + 1)):
            images = _letter_perm(rng, k)
        o, p = rng.sample(range(1, k + 1), 2)
        expected = ref.gate_table(k, n, images, o)

        def call():
            lift = rc.lift_temp_storage(n, rc.Perm(images), o, p)
            verdict = rc.check_temp_storage(lift.realiser, lift.constants,
                                            lift.reduct)
            return lift, verdict

        return Request(
            "lift_temp_storage", call,
            lambda out: (out[1] == "strong"
                         and out[0].reduct.table == expected
                         and out[0].constants == (p,) * (n - 3)),
            lambda out: (out[1], hash(out[0].realiser.table)))

    def _embed(self, rng, k, m, n, largest):
        rc = self.rc
        alphabet = rc.Alphabet(k)
        outputs = ref.tuples(k, n)
        if largest is None:
            rows = tuple(rng.choice(outputs) for _ in range(k ** m))
        else:
            pool = [y for y in outputs
                    for _ in range(largest)][:k ** m]
            rng.shuffle(pool)
            rows = tuple(pool)
        counts = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        width = _embed_width(k, m, n, max(counts.values()))
        target = rc.Map(alphabet, m, n, rows)

        def call():
            emb = rc.embed(target)
            return emb, emb.reduct_map()

        def check(out):
            emb, reduct = out
            return (emb.r == width and max(m, n) <= width <= m + n
                    and reduct.table == rows
                    and ref.is_bijective(emb.map.table, k))

        return Request("embed", call, check,
                       lambda out: (out[0].r, hash(out[0].map.table)))


PLANS = {"slice": SlicePlan, "saturate": SaturatePlan, "synth": SynthPlan}
