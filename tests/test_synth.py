import itertools
import random

import pytest

from revclone.circuit import (Bullet, IdLit, Netlist, Oplus, TgLit,
                              evaluate_term, netlist_to_term, parse,
                              print_term, shape_of, simulate)
from revclone.closure import check_temp_storage
from revclone.core import (Alphabet, Map, NotBijectiveError, Perm,
                           ShapeError, evaluate, identity_map, is_bijective)
from revclone import gates
from revclone.gates import elementary, is_atomic, tg
from revclone.synth import (_commutator, _lift_stages, atomic_to_gates,
                            decompose_elementary, elementary_to_atomic,
                            embed, factor_over_standard, lift_odd,
                            lift_temp_storage, synthesize)

from oracles import apply_in_order, random_bijection, random_table_map

A2 = Alphabet(2)
A3 = Alphabet(3)

SWAP2 = Perm.from_cycles([(1, 2)], degree=2)
SWAP3 = Perm.from_cycles([(1, 2)], degree=3)
CYCLE3 = Perm.from_cycles([(1, 2, 3)])


# -- embed ----------------------------------------------------------------

def test_embed_constant_map_needs_full_padding():
    const = Map.from_function(A2, 1, 1, lambda x: (1,))
    e = embed(const)
    assert e.r == 2
    assert e.reduct_map() == const


def test_embed_bijection_needs_no_padding():
    rng = random.Random(0)
    for n in (1, 2, 3):
        g = random_bijection(rng, A2, n)
        e = embed(g)
        assert e.r == n
        assert e.map == g
        assert e.reduct_map() == g


def test_embed_preimage_profile_three_one():
    andlike = Map.from_function(A2, 2, 1,
                                lambda x: (2,) if x == (2, 2) else (1,))
    e = embed(andlike)
    assert e.r == 3  # 1 + ceil(log2 3)
    assert e.reduct_map() == andlike
    assert is_bijective(e.map)


def test_embed_random_sweep_bounds():
    rng = random.Random(1)
    for _ in range(100):
        k = rng.choice([2, 3])
        alphabet = Alphabet(k)
        m, n = rng.randint(0, 3), rng.randint(1, 3)
        g = random_table_map(rng, alphabet, m, n)
        e = embed(g)
        assert e.reduct_map() == g
        assert max(m, n) <= e.r <= m + n
        assert is_bijective(e.map)
        assert e.theta1 == tuple(range(1, m + 1))
        assert e.theta2 == tuple(range(1, n + 1))


def test_embed_is_deterministic():
    g = Map.from_function(A3, 2, 1, lambda x: (min(x),))
    assert embed(g).map == embed(g).map


# -- elementary / atomic factorization --------------------------------------

def test_decompose_identity_is_empty():
    assert decompose_elementary(identity_map(A2, 2)) == []


def test_decompose_single_swap_is_itself():
    e = elementary(A2, (1, 1), (2, 2))
    assert decompose_elementary(e) == [e]


def test_decompose_recomposes():
    rng = random.Random(2)
    for _ in range(100):
        f = random_bijection(rng, A3, 2)
        factors = decompose_elementary(f)
        for x in A3.tuples(2):
            assert apply_in_order(factors, x) == evaluate(f, x)


def test_decompose_rejects_non_bijections():
    with pytest.raises(NotBijectiveError):
        decompose_elementary(Map(A2, 1, 1, [(1,), (1,)]))


def test_atomic_chain_single_step():
    e = elementary(A2, (1, 1), (1, 2))
    assert elementary_to_atomic(e) == [e]


def test_atomic_chain_worked_two_bit_example():
    e = elementary(A2, (1, 1), (2, 2))
    f1 = elementary(A2, (1, 1), (2, 1))
    f2 = elementary(A2, (2, 1), (2, 2))
    chain = elementary_to_atomic(e)
    assert chain == [f1, f2, f1]
    for x in A2.tuples(2):
        assert apply_in_order(chain, x) == evaluate(e, x)


def test_atomic_chain_palindrome_length():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.choice([2, 3])
        alphabet = Alphabet(k)
        n = rng.randint(1, 3)
        tuples = list(alphabet.tuples(n))
        x, y = rng.sample(tuples, 2)
        e = elementary(alphabet, x, y)
        chain = elementary_to_atomic(e)
        distance = sum(a != b for a, b in zip(x, y))
        assert len(chain) == 2 * distance - 1
        assert all(is_atomic(a) for a in chain)
        for t in alphabet.tuples(n):
            assert apply_in_order(chain, t) == evaluate(e, t)


def test_atomic_chain_rejects_non_elementary():
    with pytest.raises(ShapeError):
        elementary_to_atomic(identity_map(A2, 2))


# -- atomic to gates ----------------------------------------------------------

def test_atomic_gate_with_controls_already_at_o():
    a = elementary(A2, (1, 1, 1), (1, 1, 2))
    nl = atomic_to_gates(a, 1)
    assert len(nl.stages) == 1
    assert nl.stages[0].kind == "tg"
    assert simulate(nl, A2) == a


def test_atomic_gate_worked_ternary_example():
    a = elementary(A3, (2, 1), (2, 3))
    nl = atomic_to_gates(a, 1)
    kinds = [s.kind for s in nl.stages]
    assert kinds == ["u", "tg", "u"]
    assert nl.stages[0].wires == (1,)
    assert nl.stages[0].perm == Perm.from_cycles([(1, 2)], degree=3)
    assert simulate(nl, A3) == a


def test_atomic_gate_routes_other_positions():
    a = elementary(A3, (1, 2, 2), (1, 3, 2))  # differs at position 2
    nl = atomic_to_gates(a, 1)
    assert nl.stages[0].kind == "pi" and nl.stages[-1].kind == "pi"
    assert simulate(nl, A3) == a


def test_atomic_gate_unary_case():
    a = elementary(A3, (2,), (3,))
    nl = atomic_to_gates(a, 1)
    assert simulate(nl, A3) == a


def test_atomic_gate_random_sweep():
    rng = random.Random(4)
    for _ in range(50):
        k = rng.choice([2, 3])
        alphabet = Alphabet(k)
        n = rng.randint(1, 3)
        x = tuple(rng.randint(1, k) for _ in range(n))
        pos = rng.randrange(n)
        other = rng.choice([v for v in alphabet.letters() if v != x[pos]])
        y = x[:pos] + (other,) + x[pos + 1:]
        a = elementary(alphabet, x, y)
        o = rng.randint(1, k)
        assert simulate(atomic_to_gates(a, o), alphabet) == a


def test_atomic_gate_rejects_non_atomic():
    with pytest.raises(ShapeError):
        atomic_to_gates(elementary(A2, (1, 1), (2, 2)), 1)


# -- factoring over the standard letter permutations ---------------------------

def test_factor_over_standard():
    rng = random.Random(5)
    for k in (2, 3, 5):
        for _ in range(20):
            images = list(range(1, k + 1))
            rng.shuffle(images)
            alpha = Perm(tuple(images))
            word = factor_over_standard(alpha)
            prod = Perm.identity(k)
            for gen in word:
                prod = prod * gen
            assert prod == alpha


# -- odd-alphabet lift -----------------------------------------------------------

def test_lift_odd_three_wire_gates():
    assert evaluate_term(lift_odd(3, SWAP3), alphabet=A3) == tg(3, SWAP3, 1)
    assert evaluate_term(lift_odd(3, CYCLE3), alphabet=A3) == tg(3, CYCLE3, 1)


def test_lift_odd_general_letter_permutation():
    alpha = Perm.from_cycles([(1, 3)], degree=3)
    assert evaluate_term(lift_odd(3, alpha), alphabet=A3) == tg(3, alpha, 1)


def test_lift_odd_base_cases_are_literals():
    assert evaluate_term(lift_odd(2, CYCLE3), alphabet=A3) == tg(2, CYCLE3, 1)
    assert evaluate_term(lift_odd(1, SWAP3), alphabet=A3) == tg(1, SWAP3, 1)
    assert lift_odd(2, CYCLE3) == TgLit(2, ((1, 2, 3),), 1)
    assert lift_odd(2, Perm.identity(3)) == IdLit(2)
    assert lift_odd(4, Perm.identity(3)) == IdLit(4)
    # No letter word is needed, so alphabets past the factoring table work.
    swap11 = Perm.from_cycles([(1, 2)], degree=11)
    assert lift_odd(2, swap11) == TgLit(2, ((1, 2),), 1)


def _tg_literals(term):
    if isinstance(term, TgLit):
        return [term]
    if isinstance(term, (Bullet, Oplus)):
        return _tg_literals(term.left) + _tg_literals(term.right)
    return []


def test_lift_odd_stage_widths_are_small():
    # Every gate is the swap or the cycle, unary or with one control.
    for k in (3, 5, 7):
        swap, cycle = gates.swap_perm(k), gates.cycle_perm(k)
        images = list(range(1, k + 1))
        random.Random(40 + k).shuffle(images)
        for n in (3, 4, 5):
            for alpha in (swap, cycle, Perm(tuple(images))):
                term = lift_odd(n, alpha)
                assert shape_of(term) == (n, n)
                literals = _tg_literals(term)
                assert literals
                for literal in literals:
                    assert literal.n <= 2 and literal.o == 1
                    assert (Perm.from_cycles(literal.perm, degree=k)
                            in (swap, cycle))


def test_lift_odd_term_size_is_polynomial():
    # The paper's ladder construction prints about 2.6e8 characters for
    # this gate.
    assert len(print_term(lift_odd(7, gates.swap_perm(5)))) < 10**6


def test_lift_odd_rejects_even_alphabets():
    with pytest.raises(ShapeError):
        lift_odd(3, SWAP2)


def test_lift_odd_four_wires():
    term = lift_odd(4, SWAP3)
    assert evaluate_term(term, alphabet=A3) == tg(4, SWAP3, 1)


def test_lift_odd_five_letters():
    # the swap takes the lift's swap rung, with four rounds at five
    # letters, and the even 5-cycle its commutator branch
    A5 = Alphabet(5)
    swap5 = Perm.from_cycles([(1, 2)], degree=5)
    cycle5 = Perm.from_cycles([(1, 2, 3, 4, 5)])
    assert evaluate_term(lift_odd(3, swap5), alphabet=A5) == tg(3, swap5, 1)
    assert evaluate_term(lift_odd(3, cycle5), alphabet=A5) == tg(3, cycle5, 1)


# -- commutator lift -----------------------------------------------------------

def _standard(k):
    return (Perm.from_cycles([(1, 2)], degree=k),
            Perm.from_cycles([tuple(range(1, k + 1))], degree=k))


def _check_lift(n, alpha):
    k = alpha.degree
    stages = _lift_stages(tuple(range(1, n + 1)), alpha)
    assert simulate(Netlist(n, stages), Alphabet(k)) == tg(n, alpha, 1)
    for stage in stages:
        assert stage.kind in ("u", "tg")
        assert len(stage.wires) <= 2
        assert stage.perm in _standard(k)
        if stage.kind == "tg":
            assert stage.o == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_commutator_lift_every_ternary_gate(n):
    for images in itertools.permutations((1, 2, 3)):
        _check_lift(n, Perm(images))


@pytest.mark.parametrize("k", [5, 7])
def test_commutator_lift_sampled_gates(k):
    rng = random.Random(24 + k)
    for n in (3, 4):
        for _ in range(4):
            images = list(range(1, k + 1))
            rng.shuffle(images)
            _check_lift(n, Perm(tuple(images)))
    # Both signs and the cycle, whose lifts take other branches.
    _check_lift(3, _standard(k)[0])
    _check_lift(3, _standard(k)[1])


@pytest.mark.parametrize("k, count", [(3, 2), (5, 59), (7, 2519)])
def test_commutator_of_every_even_letter_permutation(k, count):
    # Transpositions at k = 3, even permutations from k = 5 (Ore, 1951).
    sign = -1 if k == 3 else 1
    seen = 0
    for images in itertools.permutations(range(1, k + 1)):
        alpha = Perm(images)
        if alpha.sign() != 1 or alpha.is_identity():
            continue
        seen += 1
        beta, gamma = _commutator(alpha)
        assert beta * gamma * beta.inverse() * gamma.inverse() == alpha
        assert beta.sign() == gamma.sign() == sign
    assert seen == count


def test_commutator_lift_is_polynomial():
    # The paper's ladder construction needs 30,966 stages for this gate.
    swap5 = Perm.from_cycles([(1, 2)], degree=5)
    nl = synthesize(tg(5, swap5, 1), "odd-small")
    assert len(nl.stages) < 3000
    assert all(len(s.wires) <= 2 for s in nl.stages)


def test_commutator_lift_rejects_even_alphabets():
    with pytest.raises(ShapeError):
        _lift_stages((1, 2, 3), SWAP2)


# -- strong temporary storage lift --------------------------------------------

def test_lift_temp_storage_binary_four_wires():
    lift = lift_temp_storage(4, SWAP2, 1, 2)
    assert lift.reduct == tg(4, SWAP2, 1)
    assert lift.constants == (2,)
    assert check_temp_storage(lift.realiser, lift.constants,
                              lift.reduct) == "strong"
    assert (evaluate_term(netlist_to_term(lift.netlist), alphabet=A2)
            == lift.realiser)


def test_lift_temp_storage_keeps_non_target_wires():
    lift = lift_temp_storage(4, SWAP2, 1)
    for x, row in zip(A2.tuples(5), lift.realiser.table):
        assert row[:3] == x[:3]
        assert row[4:] == x[4:]


def test_lift_temp_storage_two_levels():
    lift = lift_temp_storage(5, SWAP3, 1)
    assert len(lift.constants) == 2
    assert lift.reduct == tg(5, SWAP3, 1)
    assert check_temp_storage(lift.realiser, lift.constants,
                              lift.reduct) == "strong"
    assert all(len(s.wires) <= 3 for s in lift.netlist.stages)


def test_lift_temp_storage_other_letters():
    alpha = Perm.from_cycles([(2, 3)], degree=3)
    lift = lift_temp_storage(4, alpha, 2)
    assert lift.constants == (1,)
    assert lift.reduct == tg(4, alpha, 2)
    assert check_temp_storage(lift.realiser, lift.constants,
                              lift.reduct) == "strong"


def test_lift_temp_storage_errors():
    with pytest.raises(ShapeError):
        lift_temp_storage(3, SWAP2, 1)
    with pytest.raises(ShapeError):
        lift_temp_storage(4, SWAP2, 1, 1)
    with pytest.raises(ShapeError, match="alphabet size >= 2"):
        lift_temp_storage(4, Perm.identity(1), 1)


# -- synthesis -----------------------------------------------------------------

def test_synthesize_identity_is_empty():
    nl = synthesize(identity_map(A3, 2))
    assert nl.stages == ()
    assert simulate(nl, A3) == identity_map(A3, 2)


def test_synthesize_random_ternary_pairs():
    rng = random.Random(6)
    for _ in range(50):
        f = random_bijection(rng, A3, 2)
        nl = synthesize(f, "tg-n")
        assert simulate(nl, A3) == f


def test_long_netlist_term_prints_parses_and_evaluates():
    # A left-deep bullet chain of this many stages overflows the
    # recursion of print_term, shape_of and evaluate_term.
    f = random_bijection(random.Random(1), A3, 4)
    nl = synthesize(f)
    assert len(nl.stages) > 1000
    term = parse(print_term(netlist_to_term(nl)))
    assert shape_of(term) == (4, 4)
    assert evaluate_term(term, alphabet=A3) == f


def test_synthesize_odd_small_uses_standard_generators_only():
    rng = random.Random(7)
    swap = SWAP3
    cycle = CYCLE3
    for _ in range(10):
        f = random_bijection(rng, A3, 2)
        nl = synthesize(f, "odd-small")
        assert simulate(nl, A3) == f
        for stage in nl.stages:
            if stage.kind == "pi":
                continue
            assert len(stage.wires) <= 2
            assert stage.perm in (swap, cycle)
            if stage.kind == "tg":
                assert stage.o == 1


def test_synthesize_odd_small_three_wires():
    rng = random.Random(8)
    f = random_bijection(rng, A3, 3)
    nl = synthesize(f, "odd-small")
    assert simulate(nl, A3) == f
    assert all(len(s.wires) <= 2 for s in nl.stages)


def test_synthesize_policy_errors():
    with pytest.raises(ShapeError):
        synthesize(identity_map(A2, 2), "odd-small")
    with pytest.raises(ShapeError):
        synthesize(identity_map(A3, 2), "no-such-policy")
    with pytest.raises(NotBijectiveError):
        synthesize(Map(A2, 1, 1, [(1,), (1,)]))


def test_synthesize_other_control_letter():
    rng = random.Random(9)
    f = random_bijection(rng, A2, 3)
    nl = synthesize(f, "tg-n", o=2)
    assert simulate(nl, A2) == f


def test_synthesize_unary_maps():
    rng = random.Random(10)
    for k in (2, 3):
        f = random_bijection(rng, Alphabet(k), 1)
        nl = synthesize(f, "tg-n")
        assert simulate(nl, Alphabet(k)) == f


def test_embed_coarity_zero():
    erase = Map(A2, 2, 0, [()] * 4)
    e = embed(erase)
    assert e.r == 2
    assert is_bijective(e.map)
    assert e.reduct_map() == erase


def test_synthesize_builds_no_swap_maps(monkeypatch):
    # Synthesis works on tuple pairs: no k^n-row Map per transposition or
    # atomic swap, and no rescan of one.
    def refuse(*args):
        raise AssertionError("synthesize built or scanned a swap Map")

    for name in ("_transposition", "elementary", "elementary_pair",
                 "is_atomic"):
        monkeypatch.setattr(gates, name, refuse)
    rng = random.Random(23)
    for k, n, policy, o in ((3, 3, "odd-small", 1), (5, 2, "odd-small", 1),
                            (2, 4, "tg-n", 1), (3, 3, "tg-n", 2)):
        alphabet = Alphabet(k)
        f = random_bijection(rng, alphabet, n)
        nl = synthesize(f, gate_policy=policy, o=o)
        assert simulate(nl, alphabet) == f


def _cancels(earlier, later):
    return (earlier.kind == later.kind and earlier.wires == later.wires
            and earlier.o == later.o
            and (earlier.perm * later.perm).is_identity())


def test_synthesize_keeps_no_cancelling_stage_pair():
    # Each stage is checked against the nearest earlier stage that shares
    # a wire with it; the stages in between commute with both.
    rng = random.Random(31)
    for k, n in ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)):
        alphabet = Alphabet(k)
        policies = ("tg-n", "odd-small") if k % 2 else ("tg-n",)
        for policy in policies:
            for _ in range(3):
                f = random_bijection(rng, alphabet, n)
                nl = synthesize(f, policy)
                assert simulate(nl, alphabet) == f
                stages = nl.stages
                for i, stage in enumerate(stages):
                    for j in range(i - 1, -1, -1):
                        if set(stages[j].wires) & set(stage.wires):
                            assert not _cancels(stages[j], stage)
                            break
