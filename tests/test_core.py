import random

import pytest

from revclone.core import (Alphabet, Map, MapFormatError, NotBijectiveError,
                           Perm, ShapeError, decode, encode, evaluate,
                           format_map, identity_map, inverse, is_balanced,
                           is_bijective, parse_map)
from revclone.gates import fanout, tg
from revclone.ops import oplus

from oracles import random_bijection, residue_map

A2 = Alphabet(2)
A3 = Alphabet(3)
A7 = Alphabet(7)


def test_encode_extremes():
    assert encode((1, 1), A2, 2) == 0
    assert encode((2, 2), A2, 2) == 3


def test_encode_radix_by_hand():
    # 1*9 + 0*3 + 2, worked digit by digit
    assert encode((2, 1, 3), A3, 3) == 11


def test_encode_decode_roundtrip_exhaustive():
    for k in range(1, 5):
        alphabet = Alphabet(k)
        for n in range(0, 7):
            if alphabet.count(n) > 5000:
                continue
            for index, t in enumerate(alphabet.tuples(n)):
                assert encode(t, alphabet, n) == index
                assert decode(index, alphabet, n) == t


def test_shape_error_names_only_the_given_parts():
    assert str(ShapeError("bad")) == "bad"
    assert str(ShapeError("bad", actual=0)) == "bad: got 0"
    assert str(ShapeError("bad", expected=">= 1")) == "bad: expected >= 1"
    assert str(ShapeError("bad", expected=2, actual=3)) == (
        "bad: expected 2, got 3")


def test_encode_errors():
    with pytest.raises(ShapeError):
        encode((1, 2, 1), A2, 2)
    with pytest.raises(ShapeError):
        encode((0, 1), A2, 2)
    with pytest.raises(ShapeError):
        encode((3, 1), A2, 2)


def test_evaluate_identity():
    i2 = identity_map(A3, 2)
    for x in A3.tuples(2):
        assert evaluate(i2, x) == x


def test_identity_map_rejects_negative_arity():
    with pytest.raises(ShapeError):
        identity_map(A2, -1)


def test_evaluate_z7_sum_difference():
    f = residue_map(A7, 2, 2, lambda r: (r[0] + r[1], r[0] - r[1]))
    # residues (2, 3) -> (5, 6); letters are residue + 1
    assert evaluate(f, (3, 4)) == (6, 7)
    assert is_bijective(f)


def test_evaluate_controlled_swap_rows():
    g = tg(2, Perm.from_cycles([(1, 2)], degree=2), 1)
    assert evaluate(g, (1, 1)) == (1, 2)
    assert evaluate(g, (1, 2)) == (1, 1)
    assert evaluate(g, (2, 1)) == (2, 1)
    assert evaluate(g, (2, 2)) == (2, 2)


def test_evaluate_length_mismatch():
    with pytest.raises(ShapeError):
        evaluate(identity_map(A2, 2), (1, 1, 1))


def test_bijective_and_balanced():
    assert is_bijective(identity_map(A2, 3))
    assert not is_bijective(fanout(A2, 2))
    assert not is_balanced(fanout(A2, 2))
    assert is_balanced(identity_map(A2, 2))


def test_bijective_implies_balanced_on_corpus():
    rng = random.Random(1)
    corpus = [identity_map(A2, 2), fanout(A3, 3),
              tg(2, Perm.from_cycles([(1, 2)], degree=3), 1)]
    for _ in range(30):
        k = rng.choice([2, 3])
        alphabet = Alphabet(k)
        arity = rng.randint(0, 3)
        coarity = rng.randint(0, 3)
        rows = [tuple(rng.randint(1, k) for _ in range(coarity))
                for _ in range(alphabet.count(arity))]
        corpus.append(Map(alphabet, arity, coarity, rows))
    for f in corpus:
        if is_bijective(f):
            assert is_balanced(f)


def test_inverse_identity():
    assert inverse(identity_map(A3, 2)) == identity_map(A3, 2)


def test_inverse_of_controlled_gate_inverts_its_permutation():
    for k in (2, 3):
        cycle = Perm.from_cycles([tuple(range(1, k + 1))], degree=k)
        for n in (2, 3):
            assert inverse(tg(n, cycle, 1)) == tg(n, cycle.inverse(), 1)


def test_inverse_distributes_over_oplus():
    rng = random.Random(2)
    for _ in range(20):
        f = random_bijection(rng, A3, rng.randint(1, 2))
        g = random_bijection(rng, A3, rng.randint(1, 2))
        assert inverse(oplus(f, g)) == oplus(inverse(f), inverse(g))


def test_inverse_is_involutive():
    rng = random.Random(3)
    for _ in range(20):
        f = random_bijection(rng, Alphabet(rng.choice([2, 3])),
                             rng.randint(1, 3))
        assert inverse(inverse(f)) == f


def test_inverse_rejects_non_bijections():
    with pytest.raises(NotBijectiveError):
        inverse(fanout(A2, 2))


def test_map_validation():
    with pytest.raises(ShapeError):
        Map(A2, 2, 1, [(1,), (2,)])  # wrong row count
    with pytest.raises(ShapeError):
        Map(A2, 1, 2, [(1, 1), (1,)])  # ragged row
    with pytest.raises(ShapeError):
        Map(A2, 1, 1, [(1,), (3,)])  # letter out of range


def test_arity_zero_map():
    point = Map(A2, 0, 2, [(2, 1)])
    assert evaluate(point, ()) == (2, 1)


def test_perm_product_convention():
    a = Perm.from_cycles([(1, 2, 3)])
    b = Perm.from_cycles([(1, 2)], degree=3)
    assert (a * b)(1) == 1
    assert a(b(1)) == 3
    assert (a * b).cycles() == ((2, 3),)


def test_perm_helpers():
    c = Perm.from_cycles([(1, 2, 3, 4, 5)])
    assert (c ** 5).is_identity()
    assert (c ** -1) == c.inverse()
    assert c.sign() == 1
    assert Perm.from_cycles([(1, 2)], degree=2).sign() == -1
    with pytest.raises(ShapeError):
        Perm((1, 1))


def test_map_text_roundtrip():
    f = tg(2, Perm.from_cycles([(1, 2, 3)]), 2)
    assert parse_map(format_map(f)) == f


def test_map_text_roundtrip_degenerate_shapes():
    point = Map(A2, 0, 2, [(2, 1)])
    assert parse_map(format_map(point)) == point
    erase = Map(A2, 1, 0, [(), ()])
    assert parse_map(format_map(erase)) == erase


def test_map_text_any_row_order_and_comments():
    text = """# a gate
alphabet 2
arity 1
coarity 1
2 -> 1   # swapped
1 -> 2
"""
    f = parse_map(text)
    assert evaluate(f, (1,)) == (2,)


def test_map_text_errors():
    with pytest.raises(MapFormatError):
        parse_map("alphabet 2\narity 1\ncoarity 1\n1 -> 2\n1 -> 1\n2 -> 1\n")
    with pytest.raises(MapFormatError):
        parse_map("alphabet 2\narity 1\ncoarity 1\n1 -> 2\n")
    with pytest.raises(MapFormatError):
        parse_map("alphabet 2\narity 1\ncoarity 1\n1 -> 3\n2 -> 1\n")
    with pytest.raises(MapFormatError):
        parse_map("arity 1\n1 -> 1\n")


_HEADER = "alphabet 2\narity 1\ncoarity 1\n"


@pytest.mark.parametrize("text, line, message", [
    ("alphabet 2\n1 -> 1\n", 2, "table row before complete header"),
    (_HEADER + "1 -> x\n", 4, "non-integer letter"),
    (_HEADER + "1 1 -> 1\n", 4, "expected 1 input letters, got 2"),
    (_HEADER + "1 -> 1 1\n", 4, "expected 1 output letters, got 2"),
    (_HEADER + "1 -> 3\n", 4, "letter 3 outside 1..2"),
    (_HEADER + "0 -> 1\n", 4, "letter 0 outside 1..2"),
    (_HEADER + "1 -> 1\n1 -> 2\n", 5, "duplicate row for input (1,)"),
    ("alphabet 2\nfoo 1\n", 2, "unrecognized line 'foo 1'"),
    ("alphabet 2 3\n", 1, "unrecognized line 'alphabet 2 3'"),
    ("alphabet 2\n# c\nalphabet 2\n", 3, "duplicate header 'alphabet'"),
    ("alphabet two\n", 1, "non-integer alphabet"),
    ("arity x\n", 1, "non-integer arity"),
    ("alphabet 0\n", 1, "alphabet size must be positive"),
    ("alphabet 2\narity -1\n", 2, "arity must be non-negative"),
    ("alphabet 2\ncoarity -2\n", 2, "coarity must be non-negative"),
    ("alphabet 2\narity 1\n", None,
     "missing header line(s): need alphabet, arity, coarity"),
    ("", None, "missing header line(s): need alphabet, arity, coarity"),
    (_HEADER + "2 -> 1\n", None,
     "table covers 1 of 2 inputs; first missing input is (1,)"),
])
def test_map_reader_rejections(text, line, message):
    with pytest.raises(MapFormatError) as err:
        parse_map(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


def test_map_reader_builds_the_constructors_map():
    rng = random.Random(5)
    for arity, coarity in [(0, 2), (1, 0), (2, 3), (3, 1)]:
        rows = [tuple(rng.randint(1, 3) for _ in range(coarity))
                for _ in range(A3.count(arity))]
        f = Map(A3, arity, coarity, rows)
        lines = format_map(f).splitlines()
        body = lines[3:]
        rng.shuffle(body)
        back = parse_map("\n".join(lines[:3] + body) + "\n")
        assert back == f and back.codes == f.codes
        assert type(back.codes) is tuple
