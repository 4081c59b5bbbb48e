"""Outputs pinned by digest: saturation, realisation and temporary-storage
verdicts, synthesis, embedding and CLI reports under fixed seeds.

The digests were recorded when a Map still stored its table as output
tuples; the encoded-code representation must reproduce every one of them
byte for byte.  The exceptions are the synthesized netlists and the
``synth`` CLI reports, recorded again when synthesis began to drop
cancelling stage pairs and to lift odd-small gates by commutators.
"""

import dataclasses
import hashlib
import random

import pytest

from revclone.circuit import format_netlist, print_term
from revclone.cli import main
from revclone.closure import (SearchCaps, check_realisation,
                              check_temp_storage, function_set, op_S,
                              saturate)
from revclone.core import Alphabet, Map, Perm, format_map, identity_map
from revclone.gates import fanout, standard_generators, tg
from revclone.identities import random_map
from revclone.ops import bar_tau, oplus, select, tau
from revclone.synth import embed, lift_odd, lift_temp_storage, synthesize

from oracles import random_bijection, random_table_map, residue_map

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)
SWAP2 = Perm.from_cycles([(1, 2)], degree=2)
SWAP3 = Perm.from_cycles([(1, 2)], degree=3)
CYCLE3 = Perm.from_cycles([(1, 2, 3)])


def _digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _map_record(m):
    return (m.alphabet.size, m.arity, m.coarity, m.table)


def _std4(k):
    return [m for _, m in standard_generators(k, 2)]


# name -> (generators, caps, with_delta_nabla, alphabet)
SATURATE_CASES = {
    "tg2-swap": ([tg(2, SWAP2, 1)], SearchCaps(3, 3, 5000), False, None),
    "tg2-swap-dn": ([tg(2, SWAP2, 1)], SearchCaps(2, 2, 5000), True, None),
    "fanout-dn": ([tg(1, SWAP2, 1), fanout(A2, 2)], SearchCaps(2, 3, 2000),
                  True, None),
    "unary-overflow": ([tg(2, SWAP2, 1)], SearchCaps(3, 3, 5), False, None),
    "depth-2": (_std4(2), SearchCaps(3, 3, 5000, max_depth=2), False, None),
    "std4-k3-size": (_std4(3), SearchCaps(2, 2, 300), False, None),
    "cycle-k3-dn": ([tg(1, CYCLE3, 1)], SearchCaps(2, 2, 400), True, None),
    "empty-k3": ([], SearchCaps(2, 2, 1000), True, A3),
    # caps past a byte, 3^(3 + 4 - 1) = 729 > 256, so saturate keeps int
    # tuple codes; every other case packs them as bytes
    "std4-k3-wide": (_std4(3), SearchCaps(3, 4, 400), True, None),
}

PINNED_SATURATE = {
    "tg2-swap":
        "13ceca2d1fc394929f9bd2b3d83b37a91581a86f335657997f30a0973260c643",
    "tg2-swap-dn":
        "3baffab6af405a5a8ca148c4d4db16a735a06f2b1ebbb3e5a04fdd12d9be8ce9",
    "fanout-dn":
        "5cf2c9896bf6c5d5dc45f91a1a3d4cf7885f7d46db21e407f3d5096e4ad98a49",
    "unary-overflow":
        "fb22793b2e7685665d1c28de1a2f6821ff26db8eb5152e0b88ccb542692f27f0",
    "depth-2":
        "e8b7a9a094315f0f9049c8cf4ca828f88dc9064dd2530f3c1b6ebc9335edd53f",
    "std4-k3-size":
        "3f9d220019bb0ff8c6185830b3d5b738affdaca802e0fd9494deca499420e48d",
    "cycle-k3-dn":
        "427978d986d4caa6475d2ffbd45ee6a4105ed5c01af5ce3e76d821fb08ac2baf",
    "empty-k3":
        "736388cf11fecbe1c173435d371fcf7c025c3247aff7f6fc702c9c65f0068357",
    "std4-k3-wide":
        "058f09f5e9900d4cb6447840f07b348172d9ebc3da5b9c3c5965a78f1a940244",
}


@pytest.mark.parametrize("name", sorted(SATURATE_CASES))
def test_saturate_is_pinned(name):
    gens, caps, with_dn, alphabet = SATURATE_CASES[name]
    sat = saturate(gens, caps, with_delta_nabla=with_dn, alphabet=alphabet)
    record = ([_map_record(m) for m in sat.maps], sat.capped, sat.overflowed)
    assert _digest(record) == PINNED_SATURATE[name]


# Every SaturationStats field, in declaration order.
PINNED_SATURATE_STATS = {
    "tg2-swap":
        "ba62f745ad5c009c5f894bce75528509c1feda78bb69dada412fd7a9185452e9",
    "tg2-swap-dn":
        "520585cde3cb02655deaa1f8f9f140c96b70791a433dd8ab4fd4c857dd6fa716",
    "fanout-dn":
        "f493d9b2c51a62c6d86761f08a10cacc042dddb3247ffed779feab69437e81d1",
    "unary-overflow":
        "80a10462e88a3d39859a6a2087cc62307203a4bfa4d58900365866aeab556621",
    "depth-2":
        "539103d5a5d58c14961f59e01f9e8b0be4710f7e5481b1b5badda4a72f232693",
    "std4-k3-size":
        "2111a480367fbc099416bbf7397bde65bdcc1225ea9508535219d187e034c583",
    "cycle-k3-dn":
        "f8392bde6edd05a7925f6ae11fe20e823c90224c912806751aeb5af77c95738a",
    "empty-k3":
        "298716799fe43eb4d11bd94073e060836b5a11b7a8e97085d423f8e49b03cd9d",
    "std4-k3-wide":
        "66cb0856486e19b13e035ae4c4b2d5e60c9af6f870285af403ce86bca20010bd",
}


@pytest.mark.parametrize("name", sorted(SATURATE_CASES))
def test_saturate_stats_are_pinned(name):
    gens, caps, with_dn, alphabet = SATURATE_CASES[name]
    sat = saturate(gens, caps, with_delta_nabla=with_dn, alphabet=alphabet)
    assert _digest(dataclasses.astuple(sat.stats)) == \
        PINNED_SATURATE_STATS[name]


def test_function_set_is_pinned():
    record = []
    for gens, caps in (([tg(2, SWAP2, 1), fanout(A2, 2)], SearchCaps(3, 3, 600)),
                       (_std4(3), SearchCaps(2, 2, 200))):
        record.append([_map_record(m) for m in function_set(gens, caps)])
    assert _digest(record) == (
        "50ff39193785b789ba6e6d781fa3af0abf739e0501769858ef89aed938cbd431")


def test_selection_closure_order_is_pinned():
    # One map of each co-arity 0-4: op_S lists the selections of each map
    # shortest first, in lexicographic order within a length.
    rng = random.Random(12)
    maps = [random_table_map(rng, A3 if m < 2 else A2, 2, m) for m in range(5)]
    assert _digest([_map_record(f) for f in op_S(maps)]) == (
        "bdc7a56723eb5a8ef6aaf44a08bb593f565b22d006e905eef42c94e559606c92")


def _realisation_record(result):
    realiser = (None if result.realiser is None
                else _map_record(result.realiser))
    return (result.verdict, realiser, result.constants, result.theta,
            result.capped)


def test_realisation_verdicts_are_pinned():
    rng = random.Random(7)
    caps = SearchCaps(2, 2, 1000)
    gens = [("a", tg(2, SWAP2, 1)), ("b", tg(2, SWAP2, 2))]
    record = []
    for _ in range(6):
        g = random_table_map(rng, A2, 1, 1)
        record.append(_realisation_record(check_realisation(g, gens, caps)))
    record.append(_realisation_record(check_realisation(
        tg(3, SWAP2, 1), [(f"tg{i}", tg(i, SWAP2, 1)) for i in (1, 2)],
        SearchCaps(3, 3, 400))))
    mixed = [tg(2, SWAP2, 1), fanout(A2, 2)]
    for g in (select((1,), tg(2, SWAP2, 1)), select((2,), tg(2, SWAP2, 1)),
              fanout(A2, 3), Map(A2, 2, 1, [(1,), (1,), (1,), (2,)]),
              Map(A2, 2, 2, [(1, 1), (1, 2), (2, 2), (2, 1)]),
              random_table_map(rng, A2, 2, 1)):
        record.append(_realisation_record(check_realisation(
            g, mixed, SearchCaps(3, 3, 600))))
    record.append(_realisation_record(check_realisation(
        random_bijection(rng, A3, 2), standard_generators(3, 2),
        SearchCaps(2, 2, 50))))
    assert _digest(record) == (
        "c8255452173ce94bfbf78babf8655e03594c8521fb0dacdbd5698b14824cd31b")


def test_temp_storage_verdicts_are_pinned():
    rng = random.Random(11)
    record = []
    f = residue_map(A5, 2, 2, lambda r: (2 * r[0] + r[1], r[0] * r[1]))
    g = residue_map(A5, 1, 1, lambda r: (2 * r[0],))
    record.extend(check_temp_storage(f, (a,), g) for a in A5.letters())
    h = bar_tau(tau(tg(2, SWAP2, 1)))
    for a in A2.letters():
        record.append(check_temp_storage(h, (a,), identity_map(A2, 1)))
        record.append(check_temp_storage(h, (a,), tg(1, SWAP2, 1)))
    for _ in range(20):
        f = random_bijection(rng, A2, rng.randint(2, 3))
        m = rng.randint(1, f.arity - 1)
        a = tuple(rng.randint(1, 2) for _ in range(f.arity - m))
        g = random_table_map(rng, A2, m, m)
        record.append(check_temp_storage(f, a, g))
        g = Map(A2, m, m, [f(x + a)[:m] for x in A2.tuples(m)])
        record.append(check_temp_storage(f, a, g))
        g2 = oplus(random_bijection(rng, A3, 1), identity_map(A3, 0))
        f2 = oplus(g2, identity_map(A3, 1))
        record.append(check_temp_storage(f2, (rng.randint(1, 3),), g2))
    lift = lift_temp_storage(4, SWAP2, 1)
    record.append(check_temp_storage(lift.realiser, lift.constants,
                                     lift.reduct))
    assert _digest(record) == (
        "3ef946880dfbd4faddb5dca043192bd75df378a1e925ca47b5978f53687af268")


def _synthesis_draws():
    """The bijections synthesized by test_synthesized_netlists_are_pinned,
    then the generator that goes on to draw the embedded maps."""
    rng = random.Random(5)
    targets = [random_bijection(rng, Alphabet(k), n)
               for k, n in ((2, 3), (3, 2), (2, 1))]
    return targets, random_bijection(rng, A3, 2), rng


def test_synthesized_netlists_are_pinned():
    targets, odd_small, _ = _synthesis_draws()
    record = []
    for f in targets:
        record.append(format_netlist(synthesize(f), f.alphabet))
        record.append(format_netlist(synthesize(f, o=2), f.alphabet))
    record.append(format_netlist(synthesize(odd_small,
                                            gate_policy="odd-small"), A3))
    assert _digest(record) == (
        "a1415996269630ef2dbe9f2e5f85792266dfd31f0d37080002d2baf54c8d9119")


def test_synthesis_embedding_and_lifts_are_pinned():
    # Embeddings and temporary-storage lifts; the synthesized netlists
    # drawn before them are pinned by test_synthesized_netlists_are_pinned.
    _, _, rng = _synthesis_draws()
    record = []
    for arity, coarity in ((2, 1), (1, 2), (2, 2), (3, 1), (0, 2), (2, 0)):
        g = random_table_map(rng, A3, arity, coarity)
        for o in (1, 3):
            emb = embed(g, o)
            record.append((emb.r, emb.o, emb.theta1, emb.theta2,
                           _map_record(emb.map)))
    for n, perm, o, p in ((4, SWAP2, 1, None), (5, CYCLE3, 2, 3),
                          (4, SWAP3, 3, None)):
        lift = lift_temp_storage(n, perm, o, p)
        record.append((lift.constants, format_netlist(lift.netlist),
                       _map_record(lift.reduct), _map_record(lift.realiser)))
    assert _digest(record) == (
        "e25de1ecb67cb9d1ac7e6bac9423614b4db348ae15d14d2ca65b7086d1220c6c")


def test_synthesis_through_the_lift_is_pinned():
    # Three wires send every odd-small gate through the commutator lift;
    # four wires give tg-n wire swaps, unary layers and four-wire gates.
    rng = random.Random(17)
    f = random_bijection(rng, A3, 3)
    record = [format_netlist(synthesize(f, gate_policy="odd-small"), A3)]
    f = random_bijection(rng, A3, 4)
    record.extend(format_netlist(synthesize(f, o=o), A3) for o in (1, 3))
    assert _digest(record) == (
        "1fbfeba8454dc93ea287dca35e3845d50d47585b9ebecaba533b6ccedcc7cb0d")


def test_odd_small_netlists_on_wider_alphabets_are_pinned():
    # From k = 5 on, commutators of even letter permutations are even
    # permutations, and transpositions other than the swap are relabelled.
    rng = random.Random(19)
    record = []
    for k, n in ((5, 2), (5, 3), (7, 2)):
        f = random_bijection(rng, Alphabet(k), n)
        record.append(format_netlist(synthesize(f, gate_policy="odd-small"),
                                     f.alphabet))
    assert _digest(record) == (
        "a54cf4e87f79de49bad43d0ca96ee6f48a632e01726ebd41d5daf168d9585df4")


def test_lift_odd_terms_on_wider_alphabets_are_pinned():
    # A transposition other than the swap, an even permutation and an odd
    # permutation that is no transposition.
    record = []
    for k in (5, 7):
        for cycles in ([(2, 4)], [(1, 3, 5)], [(1, 2, 3, 4)]):
            alpha = Perm.from_cycles(cycles, degree=k)
            record.extend(print_term(lift_odd(n, alpha)) for n in (3, 4))
    assert _digest(record) == (
        "8e4c2f7ed679b7d2531dd9ee6c35d3a6e18c89f43159234b70e9047f1c5aaf7e")


def test_identities_random_map_draws_are_pinned():
    rng = random.Random(3)
    record = [_map_record(random_map(rng, Alphabet(k), arity, coarity))
              for k in (2, 3) for arity in range(3) for coarity in range(3)]
    assert _digest(record) == (
        "ab170ff647e426590df8ae71725f1d1f572b7daf4f451fe52ab9e8facfa49f9c")


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _cli_files(tmp_path):
    """The map and circuit files the pinned CLI reports read, by name."""
    rng = random.Random(13)
    maps = tmp_path / "maps"
    maps.mkdir()
    (maps / "g.map").write_text(format_map(random_bijection(rng, A3, 2)))
    (maps / "h.map").write_text(format_map(random_table_map(rng, A3, 2, 1)))
    circ = tmp_path / "t.circ"
    circ.write_text("(alphabet 3)\n(let s (oplus g (tg 1 (p 1 2) 1)))\n"
                    "(bullet (sel (2 1) (comp 1 s (tau g))) (ins ((3 2)) "
                    "(oplus h (nabla (btau (zeta g))))))\n")
    fn = tmp_path / "fn.map"
    fn.write_text(format_map(random_table_map(rng, A3, 2, 1)))
    bij = tmp_path / "bij.map"
    bij.write_text(format_map(random_bijection(rng, A3, 2)))
    bij2 = tmp_path / "bij2.map"
    bij2.write_text(format_map(random_bijection(rng, A2, 3)))
    return {"maps": str(maps), "circ": str(circ), "fn": str(fn),
            "bij": str(bij), "bij2": str(bij2)}


def test_cli_reports_are_pinned(tmp_path, capsys):
    files = _cli_files(tmp_path)
    invocations = [
        ("eval", files["circ"], "--maps", files["maps"]),
        ("eval", files["circ"], "--maps", files["maps"], "--json"),
        ("embed", files["fn"]),
        ("embed", files["fn"], "--json"),
        ("lift-ts", "--alphabet", "2", "--n", "5", "--perm", "(1,2)",
         "--o", "1"),
        ("lift-ts", "--alphabet", "3", "--n", "4", "--perm", "(1,2,3)",
         "--o", "2", "--json"),
        ("identities", "--alphabet", "3", "--trials", "20", "--seed", "4"),
        ("identities", "--alphabet", "2", "--trials", "20", "--seed", "9",
         "--json"),
        ("scan-conjectures", "--alphabet", "2", "--n", "3"),
        ("scan-conjectures", "--alphabet", "3", "--n", "2", "--json"),
    ]
    record = [_cli(capsys, *argv) for argv in invocations]
    assert _digest(record) == (
        "d65b160a7217984be3fcc860c16ad40862778b8b2a796e7f1b9f3b65cc8167e3")


def test_cli_lift_odd_reports_are_pinned(capsys):
    # The commutator lift as a term, balanced bullets.
    invocations = [
        ("lift-odd", "--alphabet", "3", "--n", "3", "--cycle"),
        ("lift-odd", "--alphabet", "5", "--n", "3", "--swap", "--json"),
    ]
    record = [_cli(capsys, *argv) for argv in invocations]
    assert _digest(record) == (
        "26f51bc994ba1f9dab83ae6f941d316ea86098740b3837c87f4454865fee3275")


def test_cli_synth_reports_are_pinned(tmp_path, capsys):
    files = _cli_files(tmp_path)
    invocations = [
        ("synth", files["bij"]),
        ("synth", files["bij"], "--policy", "odd-small"),
        ("synth", files["bij2"], "--o", "2", "--json"),
    ]
    record = [_cli(capsys, *argv) for argv in invocations]
    assert _digest(record) == (
        "6521f4f4245f1b90dc5a18f21d4bd54dad3ee9e68c3f0736932c331d23b3db8f")
