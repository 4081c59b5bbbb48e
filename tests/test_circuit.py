import random

import pytest

from revclone import circuit, gates, ops
from revclone.circuit import (Bullet, CircuitParseError, Comp, Delta, IdLit,
                              Ins, Nabla, Netlist, Oplus,
                              PiLit, Ref, Sel, Stage, Tau, TgLit,
                              Zeta, evaluate_program, evaluate_term,
                              format_netlist, netlist_to_term, parse,
                              parse_netlist, parse_program, print_term,
                              shape_of, simulate)
from revclone.core import (Alphabet, MapFormatError, Perm, ShapeError,
                           evaluate, identity_map, is_bijective)
from revclone.gates import tg
from revclone.ops import bullet, oplus
from revclone.synth import lift_odd


A2 = Alphabet(2)
A3 = Alphabet(3)


def test_parse_identity_pair():
    t = parse("(oplus (id 1) (id 1))")
    assert t == Oplus(IdLit(1), IdLit(1))
    assert evaluate_term(t, alphabet=A2) == identity_map(A2, 2)


def test_parse_comp_and_shapes():
    t = parse("(comp 2 F G)")
    assert t == Comp(2, Ref("F"), Ref("G"))
    assert shape_of(t, {"F": (2, 1), "G": (1, 2)}) == (1, 1)


def test_parse_gate_chain_shape_checks():
    t = parse("(bullet (oplus (tg 2 (p 1 2) 1) (id 1)) (pi (p 2 3)))")
    assert shape_of(t) == (3, 3)
    m = evaluate_term(t, alphabet=A3)
    assert is_bijective(m)
    direct = bullet(oplus(tg(2, Perm.from_cycles([(1, 2)], degree=3), 1),
                          identity_map(A3, 1)),
                    evaluate_term(parse("(pi (p 2 3))"), alphabet=A3))
    assert m == direct


def test_parse_juxtaposed_cycles_multiply_left_to_right():
    t = parse("(pi (p 1 2 3) (p 1 2))")
    m = evaluate_term(t, alphabet=A2)
    want = evaluate_term(parse("(pi (p 2 3))"), alphabet=A2)
    assert m == want


def test_parse_errors_carry_positions():
    with pytest.raises(CircuitParseError) as err:
        parse("(oplus (id 1)")
    assert err.value.line == 1
    with pytest.raises(CircuitParseError):
        parse("(frobnicate (id 1))")
    with pytest.raises(CircuitParseError):
        parse("(tg 2 1)")
    with pytest.raises(CircuitParseError):
        parse("(id 1) (id 2)")
    # Columns count characters from the line start, so a CR, a tab or a
    # vertical tab is one column; only LF starts a line.  A comment runs
    # from '#' to the end of the line, even inside an atom or a list.
    for reader, text, line, col, message in [
            (parse_program, "(alphabet 2)\r\n(let F (id 1))\r\n  (bogus F)\r\n",
             3, 3, "unknown operator 'bogus'"),
            (parse, "(oplus\t(id 1)\t\t(id x))",
             1, 20, "expected a width (an integer), got 'x'"),
            (parse, "\t(comp\t1 (id 1)\r\n\t (id 1) (id 1))",
             1, 2, "comp takes k and two terms"),
            (parse, "(id\x0b\x0bq)",
             1, 6, "expected a width (an integer), got 'q'"),
            (parse, "(id x#y)\n)",
             1, 5, "expected a width (an integer), got 'x'"),
            (parse, "(oplus (id 1)#c)\n (idx 2))",
             2, 2, "unknown operator 'idx'"),
            (parse, "(id 2#3)", 1, 1, "unclosed '('"),
            (parse, "(oplus (id 1)\n  (tau (id 2)", 2, 3, "unclosed '('"),
            (parse, "(id 1))", 1, 7, "unmatched ')'"),
            (parse, ")", 1, 1, "unmatched ')'"),
            (parse, "", 1, 1, "expected exactly one term"),
            (parse_program, "", 1, 1, "no result term"),
            (parse_program, "# only a comment\r\n", 1, 1, "no result term")]:
        with pytest.raises(CircuitParseError) as err:
            reader(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"{line}:{col}: {message}"
    glued = "(oplus (id 1)#(id 2)\n (id 2)#x)\n)"
    assert parse(glued) == Oplus(IdLit(1), IdLit(2))


@pytest.mark.parametrize("reader, text, line, col, message", [
    (parse, "(oplus (id 1)\n  (id (1)))", 2, 7,
     "expected a width (an integer)"),
    (parse, "(pi (q 1 2))", 1, 5, "expected a cycle group (p a b ...)"),
    (parse, "(pi (p 1 2)\n    1)", 2, 5, "expected a cycle group (p a b ...)"),
    (parse, "(oplus (id 1)\n  (pi (p)))", 2, 7, "empty cycle group"),
    (parse, "(oplus 1x (id 1))", 1, 8, "expected a term, got '1x'"),
    (parse, "((id 1))", 1, 1, "expected an operator"),
    (parse, "(tau\n ())", 2, 2, "expected an operator"),
    (parse, "(id 1 2)", 1, 1, "id takes one argument"),
    (parse, "(pi)", 1, 1, "pi needs at least one cycle group"),
    (parse, "(bullet (id 1))", 1, 1, "bullet takes at least two arguments"),
    (parse, "(oplus (id 1)\n\t(tau (id 1) (id 1)))", 2, 2,
     "tau takes one argument"),
    (parse, "(sel 1 (id 1))", 1, 1, "sel takes an index list and a term"),
    (parse, "(ins 1 (id 1))", 1, 1,
     "ins takes a ((pos letter) ...) list and a term"),
    (parse, "(ins ((1 2 3)) (id 1))", 1, 7, "expected a (pos letter) pair"),
    (parse, "(ins (1) (id 1))", 1, 7, "expected a (pos letter) pair"),
    (parse_program, "(alphabet 2)\n(alphabet 3)\n(id 1)", 2, 1,
     "duplicate alphabet declaration"),
    (parse_program, "(alphabet 2 3)\n(id 1)", 1, 1,
     "alphabet takes one integer"),
    (parse_program, "(let (F) (id 1))\nF", 1, 1, "let takes a name and a term"),
    (parse_program, "(id 1)\n  (let F)\nF", 2, 3,
     "let takes a name and a term"),
    (parse_program, "(id 1)\n  (id 2)", 2, 3, "multiple result terms"),
])
def test_circ_reader_rejections(reader, text, line, col, message):
    with pytest.raises(CircuitParseError) as err:
        reader(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text, message", [
    ("(id -1)", "at root: id width must be non-negative: got -1"),
    ("(oplus (id 1) (tg 0 (p 1 2) 1))",
     "at .oplus[1]: tg width must be positive: got 0"),
    ("(sel (1 1) (id 2))", "at root: sel indices must be distinct: got (1, 1)"),
    ("(oplus (id 1) (sel (3) (id 2)))",
     "at .oplus[1]: sel index out of range: expected 1..2, got 3"),
    ("(ins ((2 1) (1 1)) (id 2))",
     "at root: ins positions must be strictly increasing: got (2, 1)"),
    ("(tau (ins ((3 1)) (id 2)))",
     "at .in-perm: ins position out of range: expected 1..2, got 3"),
    ("(pi (p 0 1))", "at root: cycle point out of range: expected 1..1, got 0"),
    ("(pi (p 1 1))", "at root: repeated point in cycle: got (1, 1)"),
    ("(tg 2 (p 1 1) 1)", "at root: repeated point in cycle: got (1, 1)"),
    ("(bullet (id 2) (tg 2 (p 2 1) (p -1 2) 1))",
     "at .bullet[1]: cycle point out of range: expected 1..2, got -1"),
])
def test_shape_rejections_name_the_node(text, message):
    with pytest.raises(ShapeError) as err:
        shape_of(parse(text))
    assert str(err.value) == message


def test_literal_points_may_repeat_across_cycles():
    assert shape_of(parse("(pi (p 1 2) (p 2 3))")) == (3, 3)
    assert shape_of(parse("(tg 2 (p 1 2) (p 2 3) 1)")) == (2, 2)


def test_shape_errors_name_the_node():
    t = parse("(oplus (id 1) (comp 3 (id 1) (id 1)))")
    with pytest.raises(ShapeError) as err:
        shape_of(t)
    assert "comp" in str(err.value)
    with pytest.raises(ShapeError) as err:
        shape_of(parse("(bullet F (id 2))"))
    assert "unbound" in str(err.value)


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return IdLit(rng.randint(1, 3))
        if choice == 1:
            return TgLit(rng.randint(1, 3), ((1, 2),), 1)
        return PiLit(((1, 2), (3,)))
    choice = rng.randrange(6)
    child = _random_term(rng, depth - 1)
    if choice == 0:
        return Oplus(child, _random_term(rng, depth - 1))
    if choice == 1:
        return Bullet(child, _random_term(rng, depth - 1))
    if choice == 2:
        return Tau(child)
    if choice == 3:
        return Zeta(child)
    if choice == 4:
        return Delta(child)
    return Nabla(child)


def test_print_parse_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        t = _random_term(rng, 3)
        assert parse(print_term(t)) == t


def test_roundtrip_covers_sel_ins_refs():
    t = Sel((2, 1), Ins(((1, 2), (3, 1)), Ref("gate_A")))
    assert parse(print_term(t)) == t


def test_roundtrip_covers_comp():
    t = Comp(1, Ref("F"), Oplus(IdLit(1), Ref("G")))
    assert print_term(t) == "(comp 1 F (oplus (id 1) G))"
    assert parse(print_term(t)) == t


# Twenty times Python's default recursion limit.
DEEP = 20_000


def test_deep_terms_compare_hash_and_print():
    # Composite nodes build their repr on an explicit stack; == and hash
    # compare it.
    depth = 100_000

    def nested(zeta_at=None):
        t = IdLit(2)
        for i in range(depth):
            t = Zeta(t) if i == zeta_at else Tau(t)
        return t

    t, copy = nested(), nested()
    assert copy is not t and copy == t and hash(copy) == hash(t)
    assert nested(zeta_at=depth // 2) != t
    assert repr(t) == "Tau(child=" * depth + "IdLit(n=2)" + ")" * depth


def test_deep_term_round_trips_as_text():
    text = "(tau " * DEEP + "(id 2)" + ")" * DEEP
    assert print_term(parse(text)) == text


def test_deep_term_shapes_and_evaluates():
    t = parse("(zeta " * DEEP + "(tg 2 (p 1 2) 1)" + ")" * DEEP)
    assert shape_of(t) == (2, 2)
    # zeta on two wires is the input swap; an even number of them cancel
    assert evaluate_term(t, alphabet=A2) == tg(2, Perm.from_cycles([(1, 2)]), 1)


def test_deep_left_bullet_chain_built_in_code():
    swap = tg(1, Perm.from_cycles([(1, 2)]), 1)
    t = IdLit(1)
    for _ in range(DEEP):
        t = Bullet(t, Ref("swap"))
    assert print_term(t) == "(bullet " * DEEP + "(id 1)" + " swap)" * DEEP
    assert shape_of(t, {"swap": (1, 1)}) == (1, 1)
    assert evaluate_term(t, {"swap": swap}) == identity_map(A2, 1)


def test_deep_shape_error_names_the_full_path():
    t = parse("(tau " * DEEP + "(sel (3) (id 2))" + ")" * DEEP)
    with pytest.raises(ShapeError) as err:
        shape_of(t)
    assert str(err.value) == ("at " + ".in-perm" * DEEP
                              + ": sel index out of range: expected 1..2, got 3")


def test_deep_parse_error_keeps_its_position():
    with pytest.raises(CircuitParseError) as err:
        parse("(tau " * DEEP + "(id 2 3)" + ")" * DEEP)
    assert str(err.value) == f"1:{5 * DEEP + 1}: id takes one argument"


def test_shape_agrees_with_evaluation():
    rng = random.Random(1)
    checked = 0
    while checked < 80:
        t = _random_term(rng, 3)
        try:
            shape = shape_of(t)
        except ShapeError:
            continue
        m = evaluate_term(t, alphabet=A2)
        assert (m.arity, m.coarity) == shape
        checked += 1


def test_evaluate_sigma_chain_reproduces_wide_gate():
    # the two-level ladder built from two-wire gates: swap on the third
    # wire controlled by the first two, alphabet of three letters
    text = """
    (let c21 (oplus (tg 2 (p 1 2) 1) (id 1)))
    (let inner (oplus (id 1) (tg 2 (p 1 2) 1)))
    (let cyc (oplus (tg 2 (p 1 2 3) 1) (id 1)))
    (let icyc (oplus (tg 2 (p 1 3 2) 1) (id 1)))
    (let sigma1 (bullet icyc (pi (p 2 3)) c21 (pi (p 2 3)) inner cyc))
    (let sigma2 (bullet c21 inner c21))
    (bullet sigma2 sigma1)
    """
    prog = parse_program(text)
    m = evaluate_program(prog, alphabet=A3)
    assert m == tg(3, Perm.from_cycles([(1, 2)], degree=3), 1)


def test_evaluation_builds_each_distinct_literal_once(monkeypatch):
    swap5 = gates.swap_perm(5)
    term = lift_odd(4, swap5)
    expected = tg(4, swap5, 1)
    literals, stack = [], [term]
    while stack:
        node = stack.pop()
        if isinstance(node, (IdLit, TgLit, PiLit)):
            literals.append(node)
        else:
            stack.extend(getattr(node, side) for side in ("left", "right")
                         if hasattr(node, side))
    built = []
    for module, name in ((circuit, "identity_map"), (gates, "tg"),
                         (ops, "pi")):
        def counted(*args, _build=getattr(module, name)):
            built.append(args)
            return _build(*args)
        monkeypatch.setattr(module, name, counted)
    assert evaluate_term(term, alphabet=Alphabet(5)) == expected
    # 506 leaves, 11 of them distinct.
    assert len(built) == len(set(literals)) < len(literals)


def test_program_alphabet_header_and_lets():
    prog = parse_program("(alphabet 2)\n(let a (tg 1 (p 1 2) 1))\n(bullet a a)")
    assert prog.alphabet == 2
    assert evaluate_program(prog) == identity_map(A2, 1)


def test_program_binding_errors():
    with pytest.raises(ShapeError):
        evaluate_term(parse("(oplus F (id 1))"), {})
    with pytest.raises(CircuitParseError):
        parse_program("(let 1bad (id 1))\n(id 1)")
    with pytest.raises(ShapeError):
        evaluate_term(parse("(id 2)"))  # no alphabet anywhere


def test_empty_netlist_is_identity():
    nl = Netlist(3, ())
    assert simulate(nl, A2) == identity_map(A2, 3)
    assert evaluate_term(netlist_to_term(nl), alphabet=A2) == identity_map(A2, 3)


def test_identity_letter_stages_round_trip():
    ident = Perm.identity(3)
    nl = Netlist(2, (Stage("u", ident, None, (2,)),
                     Stage("tg", ident, 1, (2, 1))))
    text = format_netlist(nl, A3)
    assert text == "alphabet 3\nwires 2\nu () @ 2\ntg 2 () 1 @ 2 1\n"
    assert parse_netlist(text) == (nl, A3)
    assert evaluate_term(netlist_to_term(nl), alphabet=A3) == identity_map(A3, 2)


def test_single_full_width_stage():
    perm = Perm.from_cycles([(1, 2)], degree=2)
    nl = Netlist(3, (Stage("tg", perm, 1, (1, 2, 3)),))
    assert simulate(nl, A2) == tg(3, perm, 1)
    assert evaluate_term(netlist_to_term(nl), alphabet=A2) == tg(3, perm, 1)


def test_stage_semantics_against_term_composition():
    # stages on scattered wires, exhaustive over k = 2, w = 3 and k = 3, w = 3
    perm2 = Perm.from_cycles([(1, 2)], degree=2)
    stages = (Stage("tg", perm2, 1, (3, 1)),
              Stage("pi", perm2, None, (2, 3)),
              Stage("u", perm2, None, (2,)))
    nl = Netlist(3, stages)
    assert evaluate_term(netlist_to_term(nl), alphabet=A2) == simulate(nl, A2)

    perm3 = Perm.from_cycles([(1, 3, 2)], degree=3)
    stages3 = (Stage("tg", perm3, 2, (2, 3)),
               Stage("u", perm3, None, (1,)),
               Stage("pi", Perm.from_cycles([(1, 2)], degree=2), None, (3, 1)))
    nl3 = Netlist(3, stages3)
    assert evaluate_term(netlist_to_term(nl3), alphabet=A3) == simulate(nl3, A3)


def test_netlist_order_is_application_order():
    # applying "swap wires" then "swap letters on wire 1" differs from the
    # reverse order on the input (1, 2)
    perm = Perm.from_cycles([(1, 2)], degree=2)
    a = Stage("pi", perm, None, (1, 2))
    b = Stage("u", perm, None, (1,))
    first = simulate(Netlist(2, (a, b)), A2)
    second = simulate(Netlist(2, (b, a)), A2)
    assert evaluate(first, (1, 2)) == (1, 1)
    assert evaluate(second, (1, 2)) == (2, 2)


def test_netlist_text_roundtrip():
    perm2 = Perm.from_cycles([(1, 2)], degree=2)
    nl = Netlist(4, (Stage("tg", perm2, 1, (1, 2, 4)),
                     Stage("pi", perm2, None, (2, 3)),
                     Stage("u", perm2, None, (4,))))
    text = format_netlist(nl, A2)
    back, alphabet = parse_netlist(text)
    assert back == nl
    assert alphabet == A2
    assert simulate(back, alphabet) == simulate(nl, A2)


def test_netlist_text_errors():
    with pytest.raises(MapFormatError):
        parse_netlist("tg 2 (1,2) 1 @ 1 2\n")
    with pytest.raises(MapFormatError):
        parse_netlist("wires 2\ntg 2 (1,2) 1 @ 1 2\n")  # no alphabet
    with pytest.raises(MapFormatError):
        parse_netlist("alphabet 2\nwires 2\ntg 1 (1,2) 1 @ 1 2\n")
    with pytest.raises(MapFormatError, match=r"line 3: .*like \(1,2\)"):
        parse_netlist("alphabet 2\nwires 2\nu 1,2 @ 1\n")
    header = "alphabet 2\nwires 2\n"
    for text, line in [
            ("wires\n", 1),
            ("alphabet\n", 1),
            ("wires x\n", 1),
            ("alphabet two\nwires 2\n", 1),
            ("alphabet 0\nwires 2\n", 1),
            ("wires -1\n", 1),
            (header + "@ 1\n", 3),
            (header + "tg x (1,2) 1 @ 1 2\n", 3),
            (header + "tg 2 (1,2) y @ 1 2\n", 3),
            (header + "tg 2 (1,2) 1 @ 1 x\n", 3),
            (header + "tg 2 (1,2) 3 @ 1 2\n", 3),
            (header + "u (1,2) @ 3\n", 3),
            (header + "u (1,2) @ 1 2\n", 3),
            (header + "pi (1,2) @ 1 1\n", 3)]:
        with pytest.raises(MapFormatError, match=rf"^line {line}: ") as err:
            parse_netlist(text)
        assert err.value.line == line
    with pytest.raises(ShapeError):
        Netlist(2, (Stage("u", Perm.from_cycles([(1, 2)]), None, (3,)),))


@pytest.mark.parametrize("text, line, message", [
    ("alphabet 2\nwires 2\nx (1,2) @ 1\n", 3, "unknown stage kind 'x'"),
    ("alphabet 2\nwires 2\nu (1,2) 1 @ 1\n", 3, "u stage is 'u <perm>'"),
    ("alphabet 2\nwires 2\ntg 2 (1,2) @ 1 2\n", 3,
     "tg stage is 'tg <n> <perm> <o>'"),
    ("alphabet 2\nwires 2\n\nwires 2\n", 4, "duplicate wires header"),
    ("alphabet 2\nwires 2\nu (1,3) @ 1\n", 3,
     "cycle point exceeds degree: expected <= 2, got 3"),
    ("alphabet 2\nwires 2\nu (1,1) @ 1\n", 3,
     "repeated point in cycle: got (1, 1)"),
    ("alphabet 2\n", None, "missing wires header"),
    ("# nothing\n", None, "missing wires header"),
])
def test_netlist_reader_rejections(text, line, message):
    with pytest.raises(MapFormatError) as err:
        parse_netlist(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


def test_stage_wire_range_has_one_rule():
    # The reader and the constructor share the check and its message; the
    # reader adds the line.
    swap = Perm.from_cycles([(1, 2)])
    with pytest.raises(ShapeError) as built:
        Netlist(2, (Stage("u", swap, None, (3,)),))
    with pytest.raises(MapFormatError) as read:
        parse_netlist("alphabet 2\nwires 2\nu (1,2) @ 3\n")
    assert str(read.value) == f"line 3: {built.value}"
    assert str(built.value) == "stage wire out of range: expected 1..2, got 3"


def test_a_second_alphabet_header_must_agree():
    nl, alphabet = parse_netlist("alphabet 3\nwires 1\nalphabet 3\n")
    assert (nl, alphabet) == (Netlist(1, ()), A3)
    with pytest.raises(MapFormatError,
                       match="^line 3: alphabet header conflicts") as err:
        parse_netlist("alphabet 3\nwires 1\nalphabet 2\n")
    assert err.value.line == 3


def test_netlist_constructor_rejections():
    swap = Perm.from_cycles([(1, 2)])
    for build, message in [
            (lambda: Stage("x", swap, None, (1,)), "unknown stage kind: got x"),
            (lambda: Stage("tg", swap, None, (1,)),
             "tg stage needs wires and a control letter"),
            (lambda: Stage("tg", swap, 1, ()),
             "tg stage needs wires and a control letter"),
            (lambda: Stage("pi", Perm.identity(3), None, (1, 2)),
             "pi stage degree must match its wire count: expected 2, got 3"),
            (lambda: Netlist(-1, ()), "wire count must be non-negative: got -1"),
            (lambda: Netlist(2, (Stage("u", swap, None, (3,)),)),
             "stage wire out of range: expected 1..2, got 3"),
            (lambda: simulate(Netlist(1, (Stage("u", Perm.identity(3), None,
                                                (1,)),)), A2),
             "gate letter permutation has the wrong degree: "
             "expected 2, got 3")]:
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == message


def test_control_letter_outside_alphabet_is_rejected():
    swap = Perm.from_cycles([(1, 2)], degree=3)
    nl = Netlist(2, (Stage("tg", swap, 7, (1, 2)),))
    with pytest.raises(ShapeError):
        simulate(nl, A3)
    with pytest.raises(ShapeError):
        evaluate_term(netlist_to_term(nl), alphabet=A3)


def test_only_tg_stages_take_a_control_letter():
    swap = Perm.from_cycles([(1, 2)], degree=2)
    with pytest.raises(ShapeError, match="u stage takes no control letter"):
        Stage("u", swap, 5, (1,))
    with pytest.raises(ShapeError, match="pi stage takes no control letter"):
        Stage("pi", swap, 1, (1, 2))
    nl = Netlist(1, (Stage("u", swap, None, (1,)),))
    assert parse_netlist(format_netlist(nl, A2))[0] == nl


def test_parse_netlist_reads_each_token_at_its_degree():
    text = ("alphabet 3\nwires 3\npi (1,2) @ 1 2\npi (1,2) @ 1 2 3\n"
            "u (1,2) @ 1\ntg 2 (1,2) 1 @ 1 2\nu (1,2) @ 3\n")
    nl, _ = parse_netlist(text)
    assert [s.perm.degree for s in nl.stages] == [2, 3, 3, 3, 3]
    assert nl.stages[2].perm == nl.stages[4].perm
    # "(1,3)" parses for the letters but not for a two-wire swap, and each
    # bad occurrence is reported on its own line.
    text = "alphabet 3\nwires 2\nu (1,3) @ 1\npi (1,3) @ 1 2\n"
    with pytest.raises(MapFormatError, match=r"^line 4: "):
        parse_netlist(text)
    with pytest.raises(MapFormatError, match=r"^line 4: "):
        parse_netlist(text + "pi (1,3) @ 1 2\n")


def test_random_netlists_match_their_terms():
    rng = random.Random(2)
    for _ in range(60):
        k = rng.choice([2, 3])
        alphabet = Alphabet(k)
        width = rng.randint(2, 4)
        letter_perm = Perm.from_cycles([tuple(rng.sample(range(1, k + 1), 2))],
                                       degree=k)
        stages = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["tg", "pi", "u"])
            if kind == "u":
                stages.append(Stage("u", letter_perm, None,
                                    (rng.randint(1, width),)))
            elif kind == "pi":
                wires = tuple(rng.sample(range(1, width + 1), 2))
                stages.append(Stage("pi", Perm.from_cycles([(1, 2)], degree=2),
                                    None, wires))
            else:
                wires = tuple(rng.sample(range(1, width + 1),
                                         rng.randint(1, width)))
                stages.append(Stage("tg", letter_perm, rng.randint(1, k),
                                    wires))
        nl = Netlist(width, tuple(stages))
        assert evaluate_term(netlist_to_term(nl),
                             alphabet=alphabet) == simulate(nl, alphabet)
