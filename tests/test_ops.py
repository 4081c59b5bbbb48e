import random

import pytest

from revclone import ops
from revclone.core import (Alphabet, Map, Perm, ShapeError, evaluate,
                           identity_map, inverse, is_bijective)
from revclone.gates import fanout, tg
from revclone.ops import (bar_tau, bar_zeta, bullet, compose_k, delta,
                          insert, nabla, oplus, pi, reduct, select,
                          select_multi, tau, zeta)

import oracles
from oracles import random_bijection, random_table_map, residue_map

A2 = Alphabet(2)
A3 = Alphabet(3)
A7 = Alphabet(7)

SWAP2 = Perm.from_cycles([(1, 2)], degree=2)


def z7_sum_diff():
    return residue_map(A7, 2, 2, lambda r: (r[0] + r[1], r[0] - r[1]))


def test_oplus_identities_concatenate():
    assert oplus(identity_map(A3, 1), identity_map(A3, 1)) == identity_map(A3, 2)


def test_oplus_shapes_add():
    rng = random.Random(0)
    f = random_table_map(rng, A2, 2, 1)
    g = random_table_map(rng, A2, 1, 3)
    h = oplus(f, g)
    assert (h.arity, h.coarity) == (3, 4)


def test_oplus_componentwise():
    rng = random.Random(1)
    for _ in range(50):
        f = random_table_map(rng, A3, rng.randint(0, 2), rng.randint(0, 2))
        g = random_table_map(rng, A3, rng.randint(0, 2), rng.randint(0, 2))
        h = oplus(f, g)
        x = tuple(rng.randint(1, 3) for _ in range(f.arity))
        y = tuple(rng.randint(1, 3) for _ in range(g.arity))
        assert evaluate(h, x + y) == evaluate(f, x) + evaluate(g, y)


def test_oplus_alphabet_mismatch():
    with pytest.raises(ShapeError):
        oplus(identity_map(A2, 1), identity_map(A3, 1))


def test_compose_full_is_plain_composition():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 2)
        f = random_table_map(rng, A3, n, rng.randint(1, 2))
        g = random_table_map(rng, A3, rng.randint(1, 2), n)
        h = compose_k(f, g, n)
        for x in A3.tuples(g.arity):
            assert evaluate(h, x) == evaluate(f, evaluate(g, x))


def test_compose_with_identity_is_f():
    rng = random.Random(3)
    for _ in range(10):
        f = random_table_map(rng, A2, rng.randint(1, 3), rng.randint(1, 3))
        assert compose_k(f, identity_map(A2, f.arity), f.arity) == f


def test_compose_shape_errors():
    f = identity_map(A2, 1)
    g = identity_map(A2, 1)
    with pytest.raises(ShapeError):
        compose_k(f, g, 2)


def _eq1_rhs(f: Map, g: Map, k: int) -> Map:
    """The juxtaposition/wire-permutation rewrite of compose_k, with the
    routing permutation built from its two-row description."""
    n, t = f.arity, g.coarity
    m = g.arity
    deg = t + n - k
    images = list(range(1, deg + 1))
    for j in range(k + 1, t + 1):
        images[j - 1] = j + n - k
    for j in range(t + 1, deg + 1):
        images[j - 1] = j - t + k
    alpha = Perm(tuple(images))
    left = oplus(f, identity_map(f.alphabet, m - k)) if m - k else f
    right = oplus(g, identity_map(f.alphabet, n - k)) if n - k else g
    return bullet(left, bullet(pi(f.alphabet, alpha), right))


def test_compose_equals_juxtaposition_rewrite():
    # valid shape domain of the rewrite: k <= arity(g) <= coarity(g)
    rng = random.Random(4)
    done = 0
    while done < 100:
        kk = rng.choice([2, 3])
        alphabet = Alphabet(kk)
        n, s = rng.randint(1, 3), rng.randint(1, 3)
        m, t = rng.randint(1, 3), rng.randint(1, 3)
        if not m <= t:
            continue
        k = rng.randint(1, min(n, m))
        f = random_table_map(rng, alphabet, n, s)
        g = random_table_map(rng, alphabet, m, t)
        assert _eq1_rhs(f, g, k) == compose_k(f, g, k)
        done += 1


def test_bullet_identity_absorption():
    rng = random.Random(5)
    for _ in range(10):
        f = random_table_map(rng, A3, rng.randint(1, 3), rng.randint(1, 3))
        assert bullet(identity_map(A3, f.coarity), f) == f


def test_bullet_inverse_antihomomorphism():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_bijection(rng, A3, n)
        g = random_bijection(rng, A3, n)
        assert inverse(bullet(f, g)) == bullet(inverse(g), inverse(f))


def test_bullet_pads_short_coarity():
    rng = random.Random(7)
    for _ in range(20):
        f = random_table_map(rng, A2, rng.randint(2, 3), rng.randint(1, 2))
        s = rng.randint(1, f.arity - 1)
        g = random_table_map(rng, A2, rng.randint(1, 2), f.arity - s)
        assert bullet(f, g) == bullet(f, oplus(g, identity_map(A2, s)))


def test_tau_zeta_orders():
    rng = random.Random(8)
    for _ in range(20):
        f = random_table_map(rng, A3, rng.randint(1, 3), rng.randint(1, 2))
        assert tau(tau(f)) == f
        g = f
        for _ in range(max(f.arity, 1)):
            g = zeta(g)
        assert g == f


def test_tau_zeta_unary_identity():
    f = random_table_map(random.Random(9), A3, 1, 2)
    assert tau(f) == f
    assert zeta(f) == f


def test_tau_zeta_are_input_wire_permutations():
    rng = random.Random(10)
    for _ in range(20):
        f = random_table_map(rng, A3, rng.randint(2, 3), rng.randint(1, 2))
        n = f.arity
        assert tau(f) == compose_k(f, pi(A3, Perm.from_cycles([(1, 2)], degree=n)), n)
        rot = Perm.from_cycles([tuple(range(n, 0, -1))], degree=n)
        assert zeta(f) == compose_k(f, pi(A3, rot), n)


def test_bar_tau_via_output_swap():
    rng = random.Random(11)
    for _ in range(20):
        f = random_table_map(rng, A3, rng.randint(1, 2), rng.randint(2, 3))
        m = f.coarity
        swapped_identity = tau(identity_map(A3, m))
        assert bar_tau(f) == compose_k(swapped_identity, f, m)
        rotated_identity = zeta(identity_map(A3, m))
        assert bar_zeta(f) == compose_k(rotated_identity, f, m)


def test_bar_ops_unary_output():
    f = random_table_map(random.Random(12), A3, 2, 1)
    assert bar_tau(f) == f
    assert bar_zeta(f) == f


def test_delta_of_i2_is_fanout():
    assert delta(identity_map(A2, 2)) == fanout(A2, 2)
    assert delta(identity_map(A3, 2)) == fanout(A3, 2)


def test_delta_unary_identity():
    f = random_table_map(random.Random(13), A3, 1, 2)
    assert delta(f) == f


def test_delta_nabla_cancel():
    rng = random.Random(14)
    for k in (2, 3):
        alphabet = Alphabet(k)
        for arity in range(1, 4):
            f = random_table_map(rng, alphabet, arity, 2)
            assert delta(nabla(f)) == f


def test_nabla_shapes_and_recovery():
    second = nabla(identity_map(A2, 1))
    assert (second.arity, second.coarity) == (2, 1)
    assert second.table == ((1,), (2,), (1,), (2,))
    f = random_table_map(random.Random(15), A3, 2, 2)
    # the dummy input is erased by fixing it to any letter
    for a in A3.letters():
        assert insert((1,), (a,), nabla(f)) == f
    # a dummy input is a pass-through wire with its output dropped
    assert select(tuple(range(2, f.coarity + 2)),
                  oplus(identity_map(A3, 1), f)) == nabla(f)


def test_pi_basics():
    assert pi(A3, Perm.identity(2)) == identity_map(A3, 2)
    swap = pi(A2, Perm.from_cycles([(1, 2)], degree=2))
    assert evaluate(swap, (1, 2)) == (2, 1)


def test_pi_composition_convention():
    # (1 2 3)(1 2) = (2 3) multiplied left to right
    a = Perm.from_cycles([(1, 2, 3)])
    b = Perm.from_cycles([(1, 2)], degree=3)
    assert bullet(pi(A2, b), pi(A2, a)) == pi(A2, a * b)
    assert pi(A2, a * b) == pi(A2, Perm.from_cycles([(2, 3)], degree=3))


def test_select_identity_and_errors():
    f = random_table_map(random.Random(16), A3, 2, 3)
    assert select((1, 2, 3), f) == f
    with pytest.raises(ShapeError):
        select((1, 1), f)
    with pytest.raises(ShapeError):
        select((4,), f)


def test_select_z7_difference_component():
    f = z7_sum_diff()
    diff = residue_map(A7, 2, 1, lambda r: (r[0] - r[1],))
    assert select((2,), f) == diff


def test_select_multi_fanout_and_projection():
    assert select_multi((1, 1), identity_map(A2, 1)) == fanout(A2, 2)
    assert select_multi((2,), identity_map(A2, 2)) == nabla(identity_map(A2, 1))
    f = random_table_map(random.Random(17), A3, 2, 3)
    assert select_multi((3, 1), f) == select((3, 1), f)


def test_insert_variants():
    f = z7_sum_diff()
    assert insert((), (), f) == f
    # fixing y to residue 5 and keeping the sum gives z + 5
    z_plus_5 = residue_map(A7, 1, 1, lambda r: (r[0] + 5,))
    assert select((1,), insert((2,), (6,), f)) == z_plus_5
    point = insert((1, 2), (3, 4), f)
    assert point.arity == 0
    assert point.table == (evaluate(f, (3, 4)),)
    with pytest.raises(ShapeError):
        insert((2, 1), (1, 1), f)
    with pytest.raises(ShapeError):
        insert((3,), (1,), f)
    with pytest.raises(ShapeError):
        insert((1,), (1, 2), f)


def test_reduct_z7_worked_example():
    f = z7_sum_diff()
    z_plus_5 = residue_map(A7, 1, 1, lambda r: (r[0] + 5,))
    assert reduct(f, (2,), (1,), 6) == z_plus_5


def test_reduct_identity_choices():
    f = random_table_map(random.Random(18), A3, 2, 2)
    assert reduct(f, (), (1, 2), 1) == f


def test_reduct_peels_a_control_wire():
    for k in (2, 3):
        cycle = Perm.from_cycles([tuple(range(1, k + 1))], degree=k)
        for n in (1, 2):
            wide = tg(n + 1, cycle, 1)
            assert reduct(wide, (1,), tuple(range(2, n + 2)), 1) == tg(n, cycle, 1)


def test_bijections_closed_under_read_once_ops():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 2)
        f = random_bijection(rng, A3, n)
        g = random_bijection(rng, A3, rng.randint(1, 2))
        assert is_bijective(oplus(f, g))
        assert is_bijective(bullet(f, g))
        for k in range(1, min(f.arity, g.coarity) + 1):
            assert is_bijective(compose_k(f, g, k))
        for op in (tau, zeta, bar_tau, bar_zeta):
            assert is_bijective(op(f))
    # delta and nabla break bijectivity in general
    assert not is_bijective(delta(identity_map(A2, 2)))
    assert not is_bijective(nabla(identity_map(A2, 1)))


def _random_perm(rng, degree):
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Perm(tuple(images))


def test_ops_match_pointwise_definitions():
    """Every operation equals its pointwise definition on seeded random
    operands: alphabet sizes 2..4, arities and co-arities 0..3 (each
    combination occurs), compose_k for every width from 0 up."""
    rng = random.Random(20)
    shapes = set()
    for trial in range(240):
        alphabet = Alphabet(2 + trial % 3)
        k = alphabet.size
        f = random_table_map(rng, alphabet, rng.randint(0, 3),
                             rng.randint(0, 3))
        g = random_table_map(rng, alphabet, rng.randint(0, 3),
                             rng.randint(0, 3))
        shapes.update((k, m.arity, m.coarity) for m in (f, g))
        assert Map(alphabet, f.arity, f.coarity, f.table).table == f.table
        assert oplus(f, g) == oracles.oplus_def(f, g)
        for width in range(min(f.arity, g.coarity) + 1):
            assert compose_k(f, g, width) == oracles.compose_k_def(f, g, width)
        assert bullet(f, g) == oracles.bullet_def(f, g)
        for op, op_def in ((tau, oracles.tau_def), (zeta, oracles.zeta_def),
                           (bar_tau, oracles.bar_tau_def),
                           (bar_zeta, oracles.bar_zeta_def),
                           (delta, oracles.delta_def),
                           (nabla, oracles.nabla_def)):
            assert op(f) == op_def(f), op.__name__
        n = rng.randint(0, 3)
        alpha = _random_perm(rng, n)
        assert pi(alphabet, alpha) == oracles.pi_def(alphabet, alpha)
        theta = tuple(rng.sample(range(1, f.coarity + 1),
                                 rng.randint(0, f.coarity)))
        assert select(theta, f) == oracles.select_def(theta, f)
        if f.coarity:
            theta = tuple(rng.choice(range(1, f.coarity + 1))
                          for _ in range(rng.randint(0, 4)))
            assert select_multi(theta, f) == oracles.select_def(theta, f)
        positions = tuple(sorted(rng.sample(range(1, f.arity + 1),
                                            rng.randint(0, f.arity))))
        constants = tuple(rng.randint(1, k) for _ in positions)
        assert (insert(positions, constants, f)
                == oracles.insert_def(positions, constants, f))
    assert shapes == {(k, arity, coarity) for k in (2, 3, 4)
                      for arity in range(4) for coarity in range(4)}



def test_composite_gathers_match_the_compose_kernel():
    """The gathers saturation builds composites with: g's gather applied
    to f's codes, or to f's codes lifted for g's unconsumed outputs,
    gives the composite's codes for every width, one-row operands
    included."""
    rng = random.Random(21)
    cases = set()
    for trial in range(240):
        alphabet = Alphabet(2 + trial % 3)
        f = random_table_map(rng, alphabet, rng.randint(0, 3),
                             rng.randint(0, 3))
        g = random_table_map(rng, alphabet, rng.randint(0, 3),
                             rng.randint(0, 3))
        for width in range(min(f.arity, g.coarity) + 1):
            pad = alphabet.count(f.arity - width)
            tail = alphabet.count(g.coarity - width)
            table = f.codes if tail == 1 else \
                ops._lift_codes(f.codes, pad, tail)
            got = ops._gatherer(g.codes, pad)(table)
            assert type(got) is tuple
            assert got == oracles.compose_k_def(f, g, width).codes
            cases.add((pad > 1, tail > 1, g.arity == 0))
    assert cases == {(p, t, one) for p in (False, True)
                     for t in (False, True) for one in (False, True)}
