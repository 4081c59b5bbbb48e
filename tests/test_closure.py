import gc
import itertools
import random
import tracemalloc

import pytest

from revclone import ops
from revclone.closure import (GeneratorSet, SearchCaps, check_realisation,
                              check_temp_storage, function_set, op_K, op_R,
                              op_S, saturate, search_temp_storage,
                              slice_group, trailing_map)
from revclone.core import (Alphabet, Map, NotBijectiveError, Perm,
                           ShapeError, identity_map, is_bijective)
from revclone.gates import fanout, standard_generators, tg
from revclone.group import from_map
from revclone.ops import nabla, oplus, pi, select

from oracles import all_pairs_saturate, bfs_group_elements, \
    random_bijection, random_table_map, realisation_witnesses, residue_map, \
    select_function_set, temp_storage_witness

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)

SWAP2 = Perm.from_cycles([(1, 2)], degree=2)
SWAP3 = Perm.from_cycles([(1, 2)], degree=3)
CYCLE3 = Perm.from_cycles([(1, 2, 3)])
CAPS3 = SearchCaps(max_arity=3, max_coarity=3, max_size=5000)


def test_slice_group_order_eight():
    assert slice_group([("g", tg(1, SWAP2, 1))], 2).order() == 8


def test_slice_group_std4_is_everything():
    import math
    assert slice_group(standard_generators(3, 2), 2).order() == math.factorial(9)


def test_slice_group_unary_case():
    cycle3 = Perm.from_cycles([(1, 2, 3)])
    group = slice_group([("c", tg(1, cycle3, 1))], 1)
    assert group.order() == 3


def test_slice_group_input_validation():
    with pytest.raises(NotBijectiveError):
        slice_group([("fan", fanout(A2, 2))], 2)
    with pytest.raises(ShapeError):
        slice_group([("wide", identity_map(A2, 3))], 2)


def test_saturate_empty_generators_gives_wire_permutations():
    caps = SearchCaps(max_arity=3, max_coarity=3, max_size=1000)
    sat = saturate([], caps, alphabet=A3)
    expected = set()
    for n in (1, 2, 3):
        for images in itertools.permutations(range(1, n + 1)):
            expected.add(pi(A3, Perm(images)))
    assert sat.map_set() == expected
    assert not sat.overflowed


def test_saturate_bijective_generators_stay_bijective():
    sat = saturate([("g", tg(2, SWAP2, 1))], CAPS3)
    assert all(is_bijective(m) for m in sat.maps)


def test_saturate_is_deterministic():
    a = saturate([("g", tg(2, SWAP2, 1))], CAPS3)
    b = saturate([("g", tg(2, SWAP2, 1))], CAPS3)
    assert a.maps == b.maps


def test_saturate_overflow_reports_partial():
    tiny = SearchCaps(max_arity=3, max_coarity=3, max_size=5)
    sat = saturate([("g", tg(2, SWAP2, 1))], tiny)
    assert sat.overflowed
    assert len(sat.maps) == 5


SATURATION_CASES = {
    "k2-tg1": ([("u", tg(1, SWAP2, 1))], SearchCaps(3, 3, 100000), False),
    "k2-tg2": ([("g", tg(2, SWAP2, 1))], CAPS3, False),
    "k2-std-wide-coarity": (standard_generators(2, 2),
                            SearchCaps(2, 3, 100000), False),
    "k3-tg1": ([("u", tg(1, SWAP3, 1))], SearchCaps(2, 2, 100000), False),
    "k3-cycles": ([("u", tg(1, CYCLE3, 1)), ("g", tg(2, CYCLE3, 1))],
                  SearchCaps(2, 2, 600), False),
    "k2-delta-nabla": ([("fan", fanout(A2, 2)),
                        ("proj", nabla(identity_map(A2, 1))),
                        ("swap", tg(1, SWAP2, 1))],
                       SearchCaps(2, 2, 100000), True),
    "k3-delta-nabla": ([("u", tg(1, SWAP3, 1))], SearchCaps(2, 3, 400),
                       True),
    # maps with equal codes but different co-arities: oplus(one, i_1) and
    # the projection both have codes (0, 1, 0, 1)
    "k2-constant-proj": ([("one", Map(A2, 1, 1, [(1,), (1,)])),
                          ("proj", nabla(identity_map(A2, 1)))],
                         SearchCaps(2, 2, 100000), False),
    # a one-row, arity-0 generator: composites read its single code
    "k2-constant-arity0": ([("c", Map(A2, 0, 1, [(2,)])),
                            ("g", tg(2, SWAP2, 1))],
                           SearchCaps(2, 3, 100000), False),
    # composites with unconsumed inputs (pad > 1) and outputs (tail > 1)
    # in both directions
    "k3-tg2-wide": ([("g", tg(2, CYCLE3, 1))], SearchCaps(3, 3, 1500),
                    False),
    "k2-size-overflow": ([("g", tg(2, SWAP2, 1))], SearchCaps(3, 3, 100),
                         False),
    # a co-arity-0 generator: its composites and oplus with others keep
    # zero-width sides, and function_set skips it
    "k2-erase": ([("erase", Map(A2, 1, 0, [(), ()])),
                  ("u", tg(1, SWAP2, 1))], SearchCaps(2, 2, 100000), False),
    # overflows on tau of the second map dequeued, before its pairs
    "k2-unary-overflow": ([("g", tg(2, SWAP2, 1))], SearchCaps(3, 3, 5),
                          False),
    **{f"k3-depth-{d}": (standard_generators(3, 2),
                         SearchCaps(3, 3, 100000, max_depth=d), False)
       for d in (1, 2, 3)},
}


def record_builds(monkeypatch) -> list[tuple]:
    """Record every composite table saturate builds, as (id of f's codes,
    pad, id of g's codes, tail, kernel), where compose_k(f, g, k) has pad
    k^(arity f - k) and tail k^(coarity g - k).  Saturate gathers g's
    codes (ops._gatherer) out of f's codes or out of a table lifted from
    them (ops._lift_codes), or calls ops._compose_codes."""
    built = []
    lifted = {}  # id of a lifted table -> (id of f's codes, pad, tail)
    keep = []  # lifted tables stay alive, so their ids stay unique
    gatherer, lift_codes = ops._gatherer, ops._lift_codes
    compose_codes = ops._compose_codes

    def recording_gatherer(gcodes, pad):
        gather = gatherer(gcodes, pad)

        def recording_gather(table):
            fid, lift_pad, tail = lifted.get(id(table), (id(table), pad, 1))
            assert lift_pad == pad
            built.append((fid, pad, id(gcodes), tail, "gather"))
            return gather(table)

        return recording_gather

    def recording_lift_codes(fcodes, pad, tail):
        table = lift_codes(fcodes, pad, tail)
        keep.append(table)
        lifted[id(table)] = (id(fcodes), pad, tail)
        return table

    def recording_compose_codes(fcodes, pad, gcodes, tail):
        built.append((id(fcodes), pad, id(gcodes), tail, "comprehension"))
        return compose_codes(fcodes, pad, gcodes, tail)

    monkeypatch.setattr(ops, "_gatherer", recording_gatherer)
    monkeypatch.setattr(ops, "_lift_codes", recording_lift_codes)
    monkeypatch.setattr(ops, "_compose_codes", recording_compose_codes)
    return built


def composites_built(sat, built) -> list[tuple[Map, Map, int, str]]:
    """The recorded builds as (f, g, k, kernel).  Saturate passes the
    codes of kept maps, so each build names its operands."""
    by_codes = {id(m.codes): m for m in sat.maps}
    assert len(by_codes) == len(sat.maps)
    size = sat.maps[0].alphabet.size
    out = []
    for fid, pad, gid, tail, kernel in built:
        f, g = by_codes[fid], by_codes[gid]
        k = next(k for k in range(f.arity + 1) if size ** (f.arity - k) == pad)
        assert tail == size ** (g.coarity - k)
        out.append((f, g, k, kernel))
    return out


@pytest.mark.parametrize("name", sorted(SATURATION_CASES))
def test_saturate_matches_all_pairs_oracle(name, monkeypatch):
    gens, caps, dn = SATURATION_CASES[name]
    expected = all_pairs_saturate(gens, caps, with_delta_nabla=dn)
    built = record_builds(monkeypatch)
    got = saturate(gens, caps, with_delta_nabla=dn)
    assert got.maps == expected.maps
    assert (got.capped, got.overflowed) == (expected.capped,
                                            expected.overflowed)
    # each pair of maps is combined once, and composites of out-of-cap
    # shape are flagged, never built
    composites = composites_built(got, built)
    pairs = []
    for f, g, k, _ in composites:
        assert caps.admits(f.arity + g.arity - k, f.coarity + g.coarity - k)
        pairs.append((id(f), id(g), k))
    assert pairs and len(set(pairs)) == len(pairs)
    assert len(pairs) == got.stats.built_compose


def test_saturate_oracle_cases_cover_every_composite_kernel(monkeypatch):
    # (kernel, pad > 1, tail > 1, g has one row) over every case
    seen = set()
    for gens, caps, dn in SATURATION_CASES.values():
        with monkeypatch.context() as patch:
            built = record_builds(patch)
            sat = saturate(gens, caps, with_delta_nabla=dn)
        seen.update((kernel, f.arity > k, g.coarity > k, g.arity == 0)
                    for f, g, k, kernel in composites_built(sat, built))
    for pad, tail in itertools.product((False, True), repeat=2):
        assert ("gather", pad, tail, False) in seen
    assert ("gather", False, False, True) in seen
    # the comprehension builds y after x when y leaves outputs of x
    # unconsumed
    assert {("comprehension", False, True, False),
            ("comprehension", True, True, False)} <= seen
    assert all(tail for kernel, _, tail, _ in seen
               if kernel == "comprehension")


def test_saturate_retains_nothing_across_calls():
    # a finished call leaves nothing behind: no memo of plans, gathers or
    # lifted tables outlives it (the module-level index memo is warmed by
    # the first call, whose maps have the same shapes)
    caps = SearchCaps(3, 3, 1500)
    saturate([("g", tg(2, CYCLE3, 1))], caps)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        saturate([("g", tg(2, CYCLE3, 2))], caps)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("name", sorted(SATURATION_CASES))
def test_saturate_stats_account_for_every_candidate(name):
    gens, caps, dn = SATURATION_CASES[name]
    depths = []
    expected = all_pairs_saturate(gens, caps, with_delta_nabla=dn,
                                  depths=depths)
    stats = saturate(gens, caps, with_delta_nabla=dn).stats
    kept = len(expected.maps)
    assert stats.depth == max(depths)
    assert stats.kept == kept
    assert (stats.shape_rejected > 0) == expected.capped
    assert (stats.budget_rejected > 0) == expected.overflowed
    if not expected.overflowed:
        stop = "closed"
    elif kept == caps.max_size:
        stop = "size"
    else:
        stop = "depth"
    assert stats.stop == stop
    if stop == "depth":
        assert stats.depth == caps.max_depth
    assert 0 <= stats.pairs_skipped <= stats.pairs
    # every seed fits these caps; each seed and each built table is kept,
    # a duplicate or a budget rejection
    gen_set = GeneratorSet.of(gens)
    seeds = [identity_map(gen_set.alphabet, 1), *gen_set.maps]
    assert all(caps.admits(m.arity, m.coarity) for m in seeds)
    assert stats.built == (stats.built_unary + stats.built_oplus
                           + stats.built_compose)
    assert len(seeds) + stats.built == (stats.kept + stats.duplicates
                                        + stats.budget_rejected)
    assert stats.admit_ratio == stats.kept / stats.built
    assert 0 < stats.dequeued <= kept
    unary_per_map = (3, 4) if dn else (2, 2)
    assert (unary_per_map[0] * stats.dequeued <= stats.built_unary
            <= unary_per_map[1] * stats.dequeued)
    if stop == "closed":
        # each unordered pair, self-pairs included, is combined once, so
        # every ordered pair of kept maps meets in oplus and compose_k
        assert stats.dequeued == kept
        assert stats.pairs == kept * (kept + 1) // 2
        fits = [caps.admits(f.arity + g.arity - k, f.coarity + g.coarity - k)
                for f in expected.maps for g in expected.maps
                for k in range(min(f.arity, g.coarity) + 1)]
        oplus_fits = sum(caps.admits(f.arity + g.arity, f.coarity + g.coarity)
                         for f in expected.maps for g in expected.maps)
        nabla_fits = sum(f.arity < caps.max_arity for f in expected.maps)
        assert stats.built_oplus == oplus_fits
        assert stats.built_compose == sum(fits) - oplus_fits
        assert stats.built_unary == (2 * kept + (kept + nabla_fits if dn
                                                 else 0))
        assert stats.shape_rejected == (len(fits) - sum(fits)
                                        + (kept - nabla_fits if dn else 0))

        # a pair is skipped when neither order fits any composite or oplus
        def builds(f, g):
            return any(caps.admits(f.arity + g.arity - k,
                                   f.coarity + g.coarity - k)
                       for k in range(min(f.arity, g.coarity) + 1))

        maps = expected.maps
        assert stats.pairs_skipped == sum(
            not builds(f, g) and not builds(g, f)
            for a, f in enumerate(maps) for g in maps[a:])


def test_saturate_oracle_cases_cover_every_stop():
    def flags(name):
        gens, caps, dn = SATURATION_CASES[name]
        sat = all_pairs_saturate(gens, caps, with_delta_nabla=dn)
        return sat.capped, sat.overflowed

    assert flags("k2-tg1") == (True, False)
    assert flags("k2-size-overflow") == (True, True)
    assert flags("k2-unary-overflow") == (False, True)
    assert flags("k3-depth-1") == (False, True)
    assert flags("k3-depth-3") == (True, True)


def test_saturate_skips_seeds_beyond_the_caps():
    gens = [("u", tg(1, SWAP2, 1)), ("wide", tg(3, SWAP2, 1))]
    caps = SearchCaps(2, 2, 100000)
    expected = all_pairs_saturate(gens, caps)
    got = saturate(gens, caps)
    assert got.maps == expected.maps
    assert (got.capped, got.overflowed) == (expected.capped,
                                            expected.overflowed)
    assert got.capped and not got.overflowed
    narrow = saturate(gens[:1], caps)
    assert got.maps == narrow.maps
    assert got.stats.shape_rejected == narrow.stats.shape_rejected + 1


def test_multiclone_flag_is_moot_once_fanout_and_projection_present():
    # with the fan-out and the second projection among the generators,
    # closing under delta/nabla adds nothing
    caps = SearchCaps(max_arity=2, max_coarity=2, max_size=100000)
    gens = [("fan", fanout(A2, 2)), ("proj", nabla(identity_map(A2, 1))),
            ("swap", tg(1, SWAP2, 1))]
    plain = saturate(gens, caps)
    closed = saturate(gens, caps, with_delta_nabla=True)
    assert plain.map_set() == closed.map_set()


def test_slice_matches_saturation_exhaustively():
    for gens, n in (
        ([("g", tg(1, SWAP2, 1))], 1),
        ([("g", tg(1, SWAP2, 1))], 2),
        ([("g", tg(1, SWAP2, 1))], 3),
        ([("g", tg(2, SWAP2, 1))], 2),
        ([("g", tg(1, Perm.from_cycles([(1, 2)], degree=3), 1))], 2),
    ):
        alphabet = gens[0][1].alphabet
        caps = SearchCaps(max_arity=n, max_coarity=n, max_size=100000)
        sat = saturate(gens, caps)
        sat_perms = {from_map(m).images for m in sat.maps
                     if m.arity == n == m.coarity and is_bijective(m)}
        group = slice_group(gens, n)
        elements = bfs_group_elements([p for _, p in group.named_generators],
                                      group.degree)
        assert sat_perms == elements
        assert group.order() == len(elements)


def test_op_R_keeps_bijections():
    maps = [identity_map(A2, 2), fanout(A2, 2), tg(2, SWAP2, 1)]
    assert op_R(maps) == (identity_map(A2, 2), tg(2, SWAP2, 1))


def test_op_K_and_op_S_idempotent():
    rng = random.Random(0)
    for _ in range(10):
        maps = [random_table_map(rng, A2, rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(2)]
        ks = op_K(maps)
        assert set(op_K(ks)) == set(ks)
        ss = op_S(maps)
        assert set(op_S(ss)) == set(ss)


def test_op_S_op_K_commute():
    rng = random.Random(1)
    for _ in range(10):
        maps = [random_table_map(rng, A2, rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(2)]
        assert set(op_S(op_K(maps))) == set(op_K(op_S(maps)))


def test_realisation_of_a_generator_is_isomorphic():
    g = tg(2, SWAP2, 1)
    result = check_realisation(g, [("g", g)], CAPS3)
    assert result.verdict == "isomorphic"
    assert result.realiser == g
    assert result.constants == ()


def test_realisation_parity_blocked_target_is_not_isomorphic():
    family = [(f"tg{i}", tg(i, SWAP2, 1)) for i in (1, 2)]
    caps = SearchCaps(max_arity=3, max_coarity=3, max_size=400)
    result = check_realisation(tg(3, SWAP2, 1), family, caps)
    assert result.verdict != "isomorphic"
    if result.verdict == "not-found":
        assert result.capped


def test_general_realisation_from_full_width_generators():
    # generators of all balanced bijections on two wires realize every
    # (1, 1)-map with one constant and one discarded output
    gens = [("a", tg(2, SWAP2, 1)), ("b", tg(2, SWAP2, 2))]
    caps = SearchCaps(max_arity=2, max_coarity=2, max_size=1000)
    for rows in itertools.product(A2.letters(), repeat=2):
        g = Map(A2, 1, 1, [(rows[0],), (rows[1],)])
        result = check_realisation(g, gens, caps)
        assert result.verdict != "not-found"
        if result.verdict != "isomorphic":
            f = result.realiser
            for x in A2.tuples(1):
                assert f(x + result.constants)[:1] == g(x)


def test_realisation_strongest_verdict_order():
    # the identity is reachable outright, so the verdict must be the
    # strongest one even though weaker witnesses exist too
    result = check_realisation(identity_map(A2, 1),
                               [("g", tg(1, SWAP2, 1))], CAPS3)
    assert result.verdict == "isomorphic"


def test_realisation_takes_the_first_witness_of_the_strongest_verdict():
    gens = [tg(2, SWAP2, 1), fanout(A2, 2)]
    caps = SearchCaps(3, 3, 600)
    maps = all_pairs_saturate(gens, caps).maps
    for g, verdict in [
            # no-garbage at closure element 9, g itself at element 25
            (fanout(A2, 3), "isomorphic"),
            # general at element 92, no-garbage at 133
            (Map(A2, 1, 2, [(2, 1), (1, 2)]), "no-garbage"),
            # general at element 8, no-constants at 40
            (Map(A2, 1, 1, [(2,), (2,)]), "no-constants")]:
        found = realisation_witnesses(g, maps)
        assert len(found) >= 2
        assert verdict == next(v for v in ("isomorphic", "no-garbage",
                                           "no-constants", "general")
                               if v in found)
        result = check_realisation(g, gens, caps)
        assert (result.verdict, result.realiser, result.constants) == (
            verdict, *found[verdict])
        assert result.theta == tuple(range(1, g.coarity + 1))
        assert result.capped


def z5_temp_storage_example():
    f = residue_map(A5, 2, 2, lambda r: (2 * r[0] + r[1], r[0] * r[1]))
    g = residue_map(A5, 1, 1, lambda r: (2 * r[0],))
    return f, g


def test_temp_storage_weak_but_not_strong():
    f, g = z5_temp_storage_example()
    assert check_temp_storage(f, (1,), g) == "weak"
    # the failing block: fixing the data input to residue 0 collapses the
    # ancilla to a constant
    block = trailing_map(f, (1,), 1)
    assert not is_bijective(block)
    assert set(block.table) == {(1,)}


def test_temp_storage_strong_for_padded_identity():
    rng = random.Random(2)
    for _ in range(10):
        g = random_bijection(rng, A3, 2)
        f = oplus(g, identity_map(A3, rng.randint(1, 2)))
        a = tuple(rng.randint(1, 3) for _ in range(f.arity - g.arity))
        assert check_temp_storage(f, a, g) == "strong"


def test_temp_storage_categories_on_a_controlled_gate():
    from revclone.ops import bar_tau, tau

    # target on the first wire, control on the trailing ancilla wire
    h = bar_tau(tau(tg(2, SWAP2, 1)))
    assert check_temp_storage(h, (2,), identity_map(A2, 1)) == "strong"
    assert check_temp_storage(h, (1,), tg(1, SWAP2, 1)) == "strong"
    # control on the data wire rewrites the ancilla, so the constants are
    # not returned
    assert check_temp_storage(tg(2, SWAP2, 1), (2,),
                              identity_map(A2, 1)) == "none"


def test_temp_storage_shape_errors():
    f, g = z5_temp_storage_example()
    with pytest.raises(ShapeError):
        check_temp_storage(f, (1, 1), g)
    with pytest.raises(ShapeError):
        check_temp_storage(select((1,), f), (1,), g)


def test_bijective_weak_storage_forces_balanced_targets():
    # over bijective generators any weak-storage pair has balanced shapes
    rng = random.Random(3)
    for _ in range(30):
        f = random_bijection(rng, A2, rng.randint(2, 3))
        m = rng.randint(1, f.arity - 1)
        a = tuple(rng.randint(1, 2) for _ in range(f.arity - m))
        g_rows = [f(x + a)[:m] for x in A2.tuples(m)]
        g = Map(A2, m, m, g_rows)
        if check_temp_storage(f, a, g) in ("weak", "strong"):
            assert g.arity == g.coarity
            assert is_bijective(g)


def test_closure_inclusion_ladder():
    # C(F) witnesses climb the ladder: isomorphic members admit strong
    # temporary storage with no ancillas, and weak storage witnesses are
    # realisation witnesses
    gens = [("g", tg(2, SWAP2, 1))]
    sat = saturate(gens, SearchCaps(max_arity=2, max_coarity=2, max_size=500))
    for f in sat.maps:
        if f.arity == f.coarity and f.arity >= 1:
            assert check_temp_storage(f, (), f) == "strong"
    f, g = z5_temp_storage_example()
    assert check_temp_storage(f, (1,), g) in ("weak", "strong")
    # weak witness satisfies the realisation equation
    for x in A5.tuples(1):
        assert f(x + (1,))[:1] == g(x)


def test_search_temp_storage_finds_the_reduct_witness():
    # the wide gate stores the narrower gate with one ancilla at the
    # control letter: search must find a strong witness
    wide = tg(3, SWAP2, 1)
    from revclone.ops import bar_zeta, zeta

    # rotate the control wire to the tail so the normal form applies
    f = bar_zeta(bar_zeta(zeta(zeta(wide))))
    narrow = tg(2, SWAP2, 1)
    caps = SearchCaps(max_arity=3, max_coarity=3, max_size=600)
    found = search_temp_storage(narrow, [("f", f)], caps)
    assert found.verdict == "strong"
    assert check_temp_storage(found.realiser, found.constants,
                              narrow) == "strong"


def test_search_temp_storage_not_found_is_capped():
    caps = SearchCaps(max_arity=2, max_coarity=2, max_size=50)
    swap3 = Perm.from_cycles([(1, 2)], degree=3)
    found = search_temp_storage(tg(2, Perm.from_cycles([(1, 2, 3)]), 1),
                                [("u", tg(1, swap3, 1))], caps)
    assert found.verdict == "not-found"
    assert found.capped


def test_search_temp_storage_settles_for_weak():
    gens = [("f", Map(A2, 2, 2, [(2, 1), (2, 1), (1, 2), (2, 1)]))]
    g = Map(A2, 1, 1, [(1,), (1,)])
    caps = SearchCaps(2, 2, 30)
    verdict, f, constants = temp_storage_witness(
        g, all_pairs_saturate(gens, caps).maps)
    assert verdict == "weak"
    found = search_temp_storage(g, gens, caps)
    assert (found.verdict, found.realiser, found.constants) == (
        verdict, f, constants)
    assert found.capped


@pytest.mark.parametrize("name", sorted(SATURATION_CASES))
def test_function_set_matches_select_oracle(name):
    gens, caps, _ = SATURATION_CASES[name]
    assert function_set(gens, caps) == select_function_set(gens, caps)


def test_function_set_balance():
    jobs = [
        ([("u", tg(1, SWAP2, 1))], CAPS3),
        ([("g", tg(2, SWAP2, 1)), ("u", tg(1, SWAP2, 1))],
         SearchCaps(max_arity=2, max_coarity=2, max_size=2000)),
    ]
    for gens, caps in jobs:
        functions = function_set(gens, caps)
        assert functions
        for fn in functions:
            counts = {}
            for row in fn.table:
                counts[row] = counts.get(row, 0) + 1
            assert set(counts.values()) == {fn.alphabet.count(fn.arity - 1)}


def test_function_set_of_linear_bijections_is_nonzero_forms():
    # invertible linear maps over the five-element field: the coarity-1
    # members of the closure are exactly the nonzero linear forms, checked
    # at arities one and two
    def lift(r):
        return r % 5 + 1

    scalars = [residue_map(A5, 1, 1, lambda r, a=a: (a * r[0],))
               for a in (2,)]  # 2 generates the unit group
    matrices = [
        residue_map(A5, 2, 2, lambda r: (r[0] + r[1], r[1])),
        residue_map(A5, 2, 2, lambda r: (r[1], r[0])),
        residue_map(A5, 2, 2, lambda r: (2 * r[0], r[1])),
    ]
    gens = [(f"s{i}", m) for i, m in enumerate(scalars)]
    gens += [(f"m{i}", m) for i, m in enumerate(matrices)]
    caps = SearchCaps(max_arity=2, max_coarity=2, max_size=3000)
    functions = function_set(gens, caps)
    got = {f for f in functions if f.arity <= 2}
    want = set()
    for a in range(5):
        for b in range(5):
            if (a, b) == (0, 0):
                continue
            want.add(residue_map(A5, 2, 1,
                                 lambda r, a=a, b=b: (a * r[0] + b * r[1],)))
            if b == 0:
                want.add(residue_map(A5, 1, 1, lambda r, a=a: (a * r[0],)))
    assert got == want


def test_projections_in_function_sets():
    caps = SearchCaps(max_arity=2, max_coarity=2, max_size=500)
    functions = set(function_set([], caps, alphabet=A2))
    first = select((1,), identity_map(A2, 2))
    second = select((1,), pi(A2, SWAP2))
    assert first in functions and second in functions


def test_generator_set_validation():
    with pytest.raises(ShapeError):
        GeneratorSet(A2, (("bad", identity_map(A3, 1)),))
    gs = GeneratorSet.of({"a": identity_map(A2, 1)})
    assert gs.alphabet == A2
