import io
import json

import pytest

from revclone import circuit
from revclone.cli import main
from revclone.core import (Alphabet, Map, Perm, format_map, identity_map,
                           parse_map)
from revclone.circuit import parse_netlist, simulate
from revclone.gates import tg

A2 = Alphabet(2)
A3 = Alphabet(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_map(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(format_map(mapping))
    return str(path)


def test_closure_order_prints_eight(capsys):
    code, out, _ = run(capsys, "closure-order", "--alphabet", "2",
                       "--arity", "2", "--gen", "tg1-swap")
    assert code == 0
    assert out.strip() == "8"


def test_closure_order_json(capsys):
    code, out, _ = run(capsys, "closure-order", "--alphabet", "2",
                       "--arity", "2", "--gen", "tg1-swap", "--json")
    assert code == 0
    assert json.loads(out) == {"degree": 4, "order": "8"}


def test_member_excluded_by_parity(tmp_path, capsys):
    target = write_map(tmp_path, "tg3-swap.map",
                       tg(3, Perm.from_cycles([(1, 2)], degree=2), 1))
    code, out, _ = run(capsys, "member", target, "--alphabet", "2",
                       "--gen", "tg-family-lt3")
    assert code == 1
    assert "member: false" in out


def test_member_with_witness(tmp_path, capsys):
    target = write_map(tmp_path, "t.map",
                       tg(2, Perm.from_cycles([(1, 2)], degree=2), 1))
    code, out, _ = run(capsys, "member", target, "--alphabet", "2",
                       "--gen", "tg2-swap", "--witness")
    assert code == 0
    assert "member: true" in out
    assert "witness:" in out


def test_member_witness_length_cap(tmp_path, capsys, monkeypatch):
    from revclone import group
    from revclone.ops import oplus

    swap = tg(1, Perm.from_cycles([(1, 2)], degree=2), 1)
    target = write_map(tmp_path, "t.map", oplus(swap, swap))
    argv = ("member", target, "--alphabet", "2", "--gen", "tg1-swap",
            "--witness")
    monkeypatch.setattr(group, "MAX_WITNESS_LEN", 4)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "witness: " in out
    monkeypatch.setattr(group, "MAX_WITNESS_LEN", 3)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "overflow: witness word exceeds 3 generators" in err


def test_check_flags_and_exit_codes(tmp_path, capsys):
    from revclone.gates import fanout

    biject = write_map(tmp_path, "a.map", tg(1, Perm.from_cycles([(1, 2)]), 1))
    code, out, _ = run(capsys, "check", biject, "--bijective")
    assert code == 0 and "true" in out
    fan = write_map(tmp_path, "fan.map", fanout(A2, 2))
    code, out, _ = run(capsys, "check", fan, "--bijective")
    assert code == 1 and "false" in out
    code, out, _ = run(capsys, "check", fan)
    assert code == 0
    assert "arity: 1" in out and "coarity: 2" in out


def test_eval_with_bindings(tmp_path, capsys):
    write_map(tmp_path, "G.map", tg(2, Perm.from_cycles([(1, 2)]), 1))
    circ = tmp_path / "double.circ"
    circ.write_text("(bullet G G)\n")
    code, out, _ = run(capsys, "eval", str(circ), "--maps", str(tmp_path))
    assert code == 0
    result = parse_map(out)
    from revclone.core import identity_map
    assert result == identity_map(A2, 2)


def test_eval_rejects_alphabet_zero(tmp_path, capsys):
    circ = tmp_path / "t.circ"
    for text in ("(alphabet 2)\n(id 1)\n", "(id 1)\n"):
        circ.write_text(text)
        code, out, err = run(capsys, "eval", str(circ), "--alphabet", "0")
        assert code == 2
        assert out == ""
        assert "alphabet size must be a positive integer" in err


def test_eval_of_a_deeply_nested_term_prints_its_map(tmp_path, capsys):
    # 1,200 nested taus, deeper than Python's default recursion limit;
    # an even number of input swaps is the identity
    circ = tmp_path / "deep.circ"
    circ.write_text("(alphabet 2)\n" + "(tau " * 1200 + "(id 2)"
                    + ")" * 1200 + "\n")
    code, out, err = run(capsys, "eval", str(circ))
    assert (code, err) == (0, "")
    assert out == format_map(identity_map(A2, 2))


def test_eval_names_the_node_of_a_malformed_literal(tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_text("(alphabet 2)\n(oplus (id 1) (pi (p 0 1)))\n")
    code, out, err = run(capsys, "eval", str(circ))
    assert (code, out) == (2, "")
    assert err == ("error: at .oplus[1]: cycle point out of range: "
                   "expected 1..1, got 0\n")


@pytest.mark.parametrize("text,flags,degree", [
    # 3^13 = 1,594,323 rows for the id node alone
    ("(alphabet 3)\n(tau (id 13))\n", [], "1594323 = 3^13"),
    ("(alphabet 2)\n(let W (id 18))\n(id 1)\n", [], "262144 = 2^18"),
    ("(delta (id 13))\n", ["--alphabet", "3"], "1594323 = 3^13"),
    ("(oplus G (id 12))\n", ["--maps", "{maps}"], "1594323 = 3^13"),
], ids=["result", "let", "alphabet-flag", "alphabet-of-bindings"])
def test_eval_refuses_a_node_above_the_degree_cap(tmp_path, capsys,
                                                   monkeypatch, text, flags,
                                                   degree):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(circuit, "_literal", no_table)
    write_map(tmp_path, "G.map", tg(1, Perm.from_cycles([(1, 2)], degree=3),
                                    1))
    circ = tmp_path / "wide.circ"
    circ.write_text(text)
    argv = [flag.format(maps=tmp_path) for flag in flags]
    code, out, err = run(capsys, "eval", str(circ), *argv)
    assert (code, out) == (3, "")
    assert err == f"overflow: degree {degree} exceeds the cap 200000\n"


def test_eval_of_an_eleven_wire_term_under_the_cap(tmp_path, capsys):
    # 3^11 = 177,147 rows; one more wire would be over the cap
    circ = tmp_path / "wide.circ"
    circ.write_text("(alphabet 3)\n(tau (id 11))\n")
    code, out, err = run(capsys, "eval", str(circ))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:3] == ["alphabet 3", "arity 11", "coarity 11"]
    assert len(lines) == 3 + 3 ** 11


def test_lift_odd_eval_pipe_is_byte_exact(tmp_path, capsys):
    code, out, _ = run(capsys, "lift-odd", "--alphabet", "3", "--n", "3",
                       "--swap")
    assert code == 0
    circ = tmp_path / "lift.circ"
    circ.write_text(out)
    code, evaluated, _ = run(capsys, "eval", str(circ))
    assert code == 0
    expected = format_map(tg(3, Perm.from_cycles([(1, 2)], degree=3), 1))
    assert evaluated == expected


def test_synth_output_simulates_back(tmp_path, capsys):
    import random

    from oracles import random_bijection

    f = random_bijection(random.Random(3), A3, 2)
    path = write_map(tmp_path, "f.map", f)
    code, out, _ = run(capsys, "synth", path, "--policy", "odd-small")
    assert code == 0
    netlist, alphabet = parse_netlist(out)
    assert simulate(netlist, alphabet) == f


def test_synth_odd_small_rejected_on_even_alphabets(tmp_path, capsys):
    f = tg(2, Perm.from_cycles([(1, 2)], degree=2), 1)
    path = write_map(tmp_path, "f.map", f)
    code, _, err = run(capsys, "synth", path, "--policy", "odd-small")
    assert code == 2
    assert "even" in err


def test_embed_output_is_a_map_file(tmp_path, capsys):
    from revclone.core import Map

    g = Map.from_function(A2, 2, 1, lambda x: (2,) if x == (2, 2) else (1,))
    path = write_map(tmp_path, "g.map", g)
    code, out, _ = run(capsys, "embed", path)
    assert code == 0
    assert out.startswith("# embedding: r 3 o 1")
    f = parse_map(out)
    assert f.arity == f.coarity == 3


def test_lift_ts_reports_strong(capsys):
    code, out, _ = run(capsys, "lift-ts", "--alphabet", "2", "--n", "4",
                       "--perm", "(1,2)", "--o", "1")
    assert code == 0
    assert "temporary storage: strong" in out
    assert "wires: 5" in out


def test_identities_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, "identities", "--alphabet", "3",
                         "--trials", "40", "--seed", "9")
    code2, out2, _ = run(capsys, "identities", "--alphabet", "3",
                         "--trials", "40", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "total failures: 0" in out1


def test_identities_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "identities", "--alphabet", "2",
                         "--trials", "-3")
    assert code == 2
    assert out == ""
    assert "trial count must be non-negative" in err


def test_scan_conjectures_observational_wording(capsys):
    code, out, _ = run(capsys, "scan-conjectures", "--alphabet", "2",
                       "--n", "3")
    assert code == 0
    assert "at this size" in out
    assert "order" in out


def test_scan_conjectures_at_degree_one(capsys):
    # One letter, two wires: one tuple, and |A_1| = |S_1| = 1.
    code, out, _ = run(capsys, "scan-conjectures", "--alphabet", "1",
                       "--n", "2", "--json")
    assert code == 0
    below = json.loads(out)["below_family"]
    assert below == {"order": "1", "alternating": "1",
                     "matches_alternating": True}


def test_scan_degree_guard(capsys):
    code, _, err = run(capsys, "scan-conjectures", "--alphabet", "5",
                       "--n", "9")
    assert code == 3
    assert "exceeds" in err


def test_lift_ts_degree_guard(capsys):
    # The lift simulates its 2n - 3 = 19 wires: 3^19 tuples.
    code, out, err = run(capsys, "lift-ts", "--alphabet", "3", "--n", "11",
                         "--perm", "(1,2)", "--o", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("overflow: degree 1162261467 = 3^19 exceeds")


def test_usage_and_data_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    bad = tmp_path / "bad.map"
    bad.write_text("alphabet 2\narity 1\ncoarity 1\n1 -> 3\n2 -> 1\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line" in err
    code, _, err = run(capsys, "closure-order", "--alphabet", "2",
                       "--arity", "2", "--gen", "no-such-gen")
    assert code == 2
    code, _, err = run(capsys, "lift-ts", "--alphabet", "2", "--n", "4",
                       "--perm", "id", "--o", "1")
    assert code == 2
    assert "write cycles like (1,2)(3,4)" in err


def test_shape_errors_report_only_what_they_know(capsys):
    code, _, err = run(capsys, "lift-odd", "--alphabet", "3", "--n", "0",
                       "--swap")
    assert code == 2
    assert "gate width must be positive: got 0" in err
    assert "None" not in err


def test_lift_ts_on_a_one_letter_alphabet_is_a_usage_error(capsys):
    code, out, err = run(capsys, "lift-ts", "--alphabet", "1", "--n", "4",
                         "--perm", "()", "--o", "1")
    assert code == 2
    assert out == ""
    assert "alphabet size >= 2" in err


def test_gen_accepts_map_files(tmp_path, capsys):
    swap = write_map(tmp_path, "swap.map",
                     tg(1, Perm.from_cycles([(1, 2)]), 1))
    code, out, _ = run(capsys, "closure-order", "--alphabet", "2",
                       "--arity", "2", "--gen", swap)
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "closure-order", "--alphabet", "2",
                       "--arity", "2", "--gen", swap, "--json")
    assert json.loads(out) == {"order": "8", "degree": 4}
    ternary = write_map(tmp_path, "t.map", tg(1, Perm.from_cycles([(1, 2)],
                                                                   degree=3), 1))
    code, out, err = run(capsys, "closure-order", "--alphabet", "2",
                         "--arity", "2", "--gen", ternary)
    assert (code, out) == (2, "")
    assert err == f"error: {ternary}: alphabet mismatch: expected 2, got 3\n"


def test_dash_reads_standard_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        format_map(tg(2, Perm.from_cycles([(1, 2)]), 1))))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert out == ("arity: 2\ncoarity: 2\nbalanced: true\n"
                   "bijective: true\n")


def test_check_balanced_flag(tmp_path, capsys):
    from revclone.gates import fanout

    gate = write_map(tmp_path, "g.map", tg(1, Perm.from_cycles([(1, 2)]), 1))
    assert run(capsys, "check", gate, "--balanced") == (
        0, "balanced: true\n", "")
    fan = write_map(tmp_path, "fan.map", fanout(A2, 2))
    assert run(capsys, "check", fan, "--balanced") == (
        1, "balanced: false\n", "")
    code, out, _ = run(capsys, "check", fan, "--balanced", "--json")
    assert code == 1
    assert json.loads(out) == {"arity": 1, "coarity": 2, "balanced": False,
                               "bijective": False}


def test_member_rejects_unusable_targets(tmp_path, capsys):
    from revclone.gates import fanout

    ternary = write_map(tmp_path, "t.map", tg(1, Perm.from_cycles([(1, 2)],
                                                                   degree=3), 1))
    assert run(capsys, "member", ternary, "--alphabet", "2",
               "--gen", "tg1-swap") == (
        2, "", "error: target alphabet mismatch: expected 2, got 3\n")
    for target in (fanout(A2, 2), Map(A2, 1, 1, [(1,), (1,)])):
        path = write_map(tmp_path, "bad.map", target)
        assert run(capsys, "member", path, "--alphabet", "2",
                   "--gen", "tg1-swap") == (
            2, "", "error: membership target must be a balanced bijection\n")
