import functools
import gc
import hashlib
import itertools
import math
import operator
import random
import tracemalloc

import pytest

from revclone.cli import builtin_generators
from revclone.core import (Alphabet, NotBijectiveError, Perm, ShapeError,
                           identity_map)
from revclone.gates import elementary, standard_generators, tg
from revclone import group as group_module
from revclone.group import (TupleGroup, TuplePerm, WitnessOverflow, from_map,
                            sign)
from revclone.ops import bullet, oplus, pi
from revclone.closure import slice_group
from revclone.gates import fanout

from oracles import bfs_group_elements, random_bijection

A2 = Alphabet(2)
A3 = Alphabet(3)

SWAP2 = Perm.from_cycles([(1, 2)], degree=2)


def random_tuple_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return TuplePerm(tuple(images))


def test_tuple_perm_inverse():
    p = random_tuple_perm(random.Random(8), 7)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p.inverse().inverse() == p


def test_from_map_identity():
    assert from_map(identity_map(A3, 2)).is_identity()


def test_from_map_wire_swap_by_hand():
    # tuples (1,2) and (2,1) encode to 1 and 2; the wire swap exchanges them
    p = from_map(pi(A2, SWAP2))
    assert p.images == (0, 2, 1, 3)


def test_from_map_rejects_non_bijections():
    with pytest.raises(NotBijectiveError):
        from_map(fanout(A2, 2))


def test_from_map_composition_order():
    rng = random.Random(0)
    for _ in range(20):
        f = random_bijection(rng, A2, 2)
        g = random_bijection(rng, A2, 2)
        assert from_map(bullet(f, g)) == from_map(g) * from_map(f)


def test_build_full_symmetric_on_nine_points():
    gens = [(name, oplus(m, identity_map(A3, 2 - m.arity))
             if m.arity < 2 else m)
            for name, m in standard_generators(3, 2)]
    gens = [(name, from_map(m)) for name, m in gens]
    gens.append(("pi", from_map(pi(A3, SWAP2))))
    group = TupleGroup.build(gens)
    assert group.order() == math.factorial(9)


def test_build_order_eight_example():
    group = slice_group([("tg1-swap", tg(1, SWAP2, 1))], 2)
    assert group.order() == 8


def test_empty_generator_list():
    group = TupleGroup.build([], degree=5)
    assert group.order() == 1
    assert group.contains(TuplePerm.identity(5))
    assert not group.contains(TuplePerm((1, 0, 2, 3, 4)))


def test_contains_identity_and_generators():
    rng = random.Random(1)
    gens = [random_tuple_perm(rng, 6) for _ in range(2)]
    group = TupleGroup.build(gens)
    assert group.contains(TuplePerm.identity(6))
    assert group.witness(TuplePerm.identity(6)) == ()
    for i, g in enumerate(gens):
        word = group.witness(g)
        assert word == (i + 1,)
        assert group.evaluate_word(word) == g


def test_parity_obstruction_membership():
    family = [(f"tg{i}", tg(i, SWAP2, 1)) for i in (1, 2)]
    group = slice_group(family, 3)
    target = from_map(tg(3, SWAP2, 1))
    assert sign(target) == -1
    assert not group.contains(target)
    assert group.witness(target) is None


def test_sign_basics():
    assert sign(TuplePerm.identity(4)) == 1
    assert sign(from_map(elementary(A2, (1, 1), (2, 2)))) == -1


def test_padded_gates_are_even_for_even_alphabets():
    # exhaustive over k = 2, n <= 4, every arity below n, both letters
    for n in range(2, 5):
        for i in range(1, n):
            for o in (1, 2):
                padded = oplus(tg(i, SWAP2, o), identity_map(A2, n - i))
                assert sign(from_map(padded)) == 1


def test_even_alphabet_slice_elements_all_even():
    family = [(f"tg{i}", tg(i, SWAP2, 1)) for i in (1, 2)]
    group = slice_group(family, 3)
    rng = random.Random(12)
    for _ in range(100):
        assert sign(group.random_element(rng)) == 1


def test_order_of_full_balanced_bijections_degree_four():
    gens = [("a", tg(2, SWAP2, 1)), ("b", tg(2, SWAP2, 2))]
    assert slice_group(gens, 2).order() == 24


def test_known_small_group_orders():
    # alternating group on five points from a 5-cycle and a 3-cycle
    c5 = TuplePerm((1, 2, 3, 4, 0))
    c3 = TuplePerm((1, 2, 0, 3, 4))
    assert TupleGroup.build([c5, c3]).order() == 60
    # dihedral group of the square
    rot = TuplePerm((1, 2, 3, 0))
    flip = TuplePerm((0, 3, 2, 1))
    assert TupleGroup.build([rot, flip]).order() == 8


def test_order_against_bfs_enumeration():
    rng = random.Random(2)
    for trial in range(20):
        if trial < 14:
            degree = rng.randint(4, 7)
            gens = [random_tuple_perm(rng, degree)
                    for _ in range(rng.randint(1, 2))]
        else:
            # larger degrees with a single generator keep the brute-force
            # enumeration cheap while still exercising degree <= 9
            degree = rng.randint(8, 9)
            gens = [random_tuple_perm(rng, degree)]
        group = TupleGroup.build(gens)
        elements = bfs_group_elements(gens, degree)
        assert group.order() == len(elements)
        # membership agrees on a sample
        sample = rng.sample(sorted(elements), min(10, len(elements)))
        for images in sample:
            assert group.contains(TuplePerm(images))


def test_contained_elements_do_not_grow_the_group():
    rng = random.Random(3)
    gens = [random_tuple_perm(rng, 6) for _ in range(2)]
    group = TupleGroup.build(gens)
    extra = group.random_element(random.Random(4))
    grown = TupleGroup.build(gens + [extra])
    assert grown.order() == group.order()


def test_sign_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        p = random_tuple_perm(rng, 8)
        q = random_tuple_perm(rng, 8)
        assert sign(p * q) == sign(p) * sign(q)


def test_deterministic_chains_and_witnesses():
    rng = random.Random(6)
    gens = [random_tuple_perm(rng, 7) for _ in range(3)]
    g1 = TupleGroup.build(gens)
    g2 = TupleGroup.build(gens)
    assert g1.base() == g2.base()
    assert g1.order() == g2.order()
    probe = g1.random_element(random.Random(7))
    assert g1.witness(probe) == g2.witness(probe)


def test_witness_words_multiply_to_the_element():
    rng = random.Random(8)
    gens = [("x", random_tuple_perm(rng, 6)), ("y", random_tuple_perm(rng, 6))]
    group = TupleGroup.build(gens)
    sampler = random.Random(9)
    for _ in range(20):
        p = group.random_element(sampler)
        word = group.witness(p)
        assert word is not None
        assert group.evaluate_word(word) == p
        names = group.witness_names(word)
        assert all(n.rstrip("^-1") in ("x", "y") for n in names)


def test_witness_length_cap(monkeypatch):
    rng = random.Random(8)
    gens = [random_tuple_perm(rng, 6), random_tuple_perm(rng, 6)]
    group = TupleGroup.build(gens)
    p = gens[0] * gens[1] * gens[0]
    word = group.witness(p)
    assert len(word) > 1
    monkeypatch.setattr(group_module, "MAX_WITNESS_LEN", len(word))
    assert group.witness(p) == word
    monkeypatch.setattr(group_module, "MAX_WITNESS_LEN", len(word) - 1)
    with pytest.raises(WitnessOverflow):
        group.witness(p)
    # Generators and the identity are answered without expansion.
    assert group.witness(gens[1]) == (2,)
    assert group.witness(TuplePerm.identity(6)) == ()


def test_random_element_is_in_group():
    rng = random.Random(10)
    gens = [random_tuple_perm(rng, 6)]
    group = TupleGroup.build(gens)
    sampler = random.Random(11)
    for _ in range(20):
        assert group.contains(group.random_element(sampler))


def test_chain_stats_count_the_build():
    rng = random.Random(12)
    groups = [TupleGroup.build([], degree=4),
              TupleGroup.build([TuplePerm.identity(5)]),
              slice_group(builtin_generators("std4", A2), 3, A2)]
    groups += [TupleGroup.build([random_tuple_perm(rng, 9)
                                 for _ in range(rng.randint(1, 3))])
               for _ in range(10)]
    for group in groups:
        stats = group.stats
        assert stats.levels == len(stats.orbit_lengths) == len(group.base())
        assert math.prod(stats.orbit_lengths) == group.order()
        # every install adds exactly one strong generator
        assert stats.strong_generators == stats.residues_installed
        assert stats.schreier_trivial <= stats.schreier_sifted
    group = slice_group(builtin_generators("std4", A3), 2, A3)
    assert group.stats == group_module.ChainStats(
        levels=8, orbit_lengths=(9, 8, 7, 6, 5, 4, 3, 2),
        strong_generators=16, schreier_sifted=453, schreier_trivial=88,
        residues_installed=16)
    # Each level sifts the pairs of its orbit and its generators once.
    s27 = tuple(range(27, 1, -1))
    for name, strong, sifted, trivial in [("std4", 55, 12_985, 798),
                                          ("tg-family-lt3", 61, 14_489, 727)]:
        group = slice_group(builtin_generators(name, A3), 3, A3)
        assert group.stats == group_module.ChainStats(
            levels=26, orbit_lengths=s27, strong_generators=strong,
            schreier_sifted=sifted, schreier_trivial=trivial,
            residues_installed=strong)


def test_built_chain_retains_little_memory():
    # A level keeps its transversal, its generators and two counts; the
    # 12,985 sifted pairs of this build leave nothing behind.
    named = slice_group(builtin_generators("std4", A3), 3, A3).named_generators
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = TupleGroup.build(named)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert group.order() == math.factorial(27)
    assert retained < 500_000


def test_build_spells_words_only_for_kept_residues(monkeypatch):
    # Almost every Schreier generator sifts to the identity; spelling its
    # word level by level made 240,944 _cat calls on this slice, where the
    # 351 transversal words and the 55 kept residues' words take 627.
    calls = 0
    cat = group_module._cat

    def counting_cat(a, b):
        nonlocal calls
        calls += 1
        return cat(a, b)

    monkeypatch.setattr(group_module, "_cat", counting_cat)
    group = slice_group(builtin_generators("std4", A3), 3, A3)
    assert group.order() == math.factorial(27)
    assert calls < 5_000


def test_degree_mismatch_errors():
    group = TupleGroup.build([TuplePerm((1, 0, 2))])
    with pytest.raises(ShapeError):
        group.contains(TuplePerm((1, 0)))
    with pytest.raises(ShapeError):
        group.witness(TuplePerm((1, 0)))
    with pytest.raises(ShapeError):
        TupleGroup.build([TuplePerm((1, 0)), TuplePerm((1, 0, 2))])


def test_word_indices_are_checked_alike():
    group = TupleGroup.build([("a", TuplePerm((1, 0, 2))),
                              ("b", TuplePerm((0, 2, 1)))])
    assert group.witness_names((1, -2)) == ("a", "b^-1")
    for word in [(0,), (3,), (-3,), (1, 0)]:
        with pytest.raises(ShapeError, match="word index out of range"):
            group.evaluate_word(word)
        with pytest.raises(ShapeError, match="word index out of range"):
            group.witness_names(word)


def _products_up_to_four(count):
    return [seq for length in range(1, 5)
            for seq in itertools.product(range(count), repeat=length)]


# (generator set, k, n) -> (products to witness, as generator indices in
# application order; sha256 of the chain record).  None witnesses every
# product of up to four generators.  In the degree-27 and degree-36
# slices many such products have witness words of 10^5 to 10^6
# generators, so those witness a fixed list of products with short words.
PINNED_CHAINS = {
    ("std4", 2, 3): (
        None,
        "a816d173dd09aac2d3a9ac3138cbbfb39617975c3460c331e1e30bd72e2cb03a"),
    ("std4", 3, 2): (
        None,
        "7f40561762207a277e2a83a03948287e42eda58d8ebab90fdd29b1d901bbed3c"),
    ("std4", 2, 4): (
        None,
        "cb9a02e2a01f4194d962b173d8e3af5940ef8c3ed18ba3e5f0d32d2705984e15"),
    ("std4", 6, 2): (
        [(4, 1), (2, 4), (3, 4), (0, 1), (3, 3, 0), (3, 3, 3), (0, 1, 3),
         (2, 3, 0), (2, 1, 3, 3), (4, 1, 0, 1), (2, 3, 0, 1), (0, 1, 1, 1)],
        "a67fa0f4d0988b43fe4eab0191244fa1024792b6da1aa7cf577fe8433b5b172e"),
    ("std4", 3, 3): (
        [(4, 3), (1, 4), (0, 4), (3, 4), (3, 0, 4), (3, 1, 4), (0, 2, 4),
         (1, 4, 3), (3, 2, 2, 4), (3, 4, 1, 2), (0, 2, 4, 2), (2, 1, 0, 4)],
        "c0989b099d473b128e3cd5bfb9b3dcac5c3e319ab58dfae5a817ab98b2c5f5bf"),
    ("tg3-swap", 2, 3): (
        None,
        "67703d92b845351115100088cf63ef54babc7bc24acdf5b4292e7c0030d51e39"),
    ("tg2-cycle", 5, 2): (
        None,
        "8725fc39c5eebb3c6944ff0372fba756657d42d7082a2ae78e10ffd29da64953"),
    ("tg-family-lt3-allo", 2, 3): (
        None,
        "a3a7d584c98bf7827b62517b55e67b75120c3dc8648b312caae2b0a3bf3b70f6"),
}


@pytest.mark.parametrize("name,k,n", sorted(PINNED_CHAINS))
def test_chain_behaviour_is_pinned(name, k, n):
    """Orders, bases, memberships, witness words and random elements of
    the deterministic chain stay exactly as recorded."""
    products, digest = PINNED_CHAINS[name, k, n]
    alphabet = Alphabet(k)
    group = slice_group(builtin_generators(name, alphabet), n, alphabet)
    gens = [perm for _, perm in group.named_generators]
    if products is None:
        products = _products_up_to_four(len(gens))
    record = [group.order(), group.base()]
    for seq in products:
        p = functools.reduce(operator.mul, (gens[i] for i in seq))
        record.append((seq, group.contains(p), group.witness(p)))
    rng = random.Random(f"{name}/{k}/{n}")
    record.extend(group.contains(random_tuple_perm(rng, group.degree))
                  for _ in range(20))
    if group.degree <= 16:
        record.extend(group.random_element(random.Random(seed)).images
                      for seed in range(5))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest
