"""Command-line surface.

Subcommands: eval, check, closure-order, member, embed, synth, lift-odd,
lift-ts, identities, scan-conjectures.  Exit codes: 0 success or verdict
true, 1 verdict false, 2 usage or data error, 3 size-cap overflow with a
partial report.  Every subcommand takes --json for a machine-readable
mirror of its report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from pathlib import Path

# The layers above core are reached through their module objects, so that
# a subcommand runs only the layers it uses: check runs core alone, and the
# closure subcommands never run circuit, synth or identities.
from . import circuit, closure, gates, group, identities, synth
from .core import (Alphabet, Map, NotBijectiveError, Perm, ShapeError,
                   format_map, is_balanced, is_bijective, parse_map)


def __getattr__(name):
    """``slice_group``, which perfbench/selftest.py reads here as an alias
    of ``closure.slice_group``, served without running closure at import."""
    if name == "slice_group":
        return closure.slice_group
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3

MAX_SLICE_DEGREE = 200_000


class DegreeOverflow(RuntimeError):
    """The requested tuple degree exceeds the design envelope."""


def _check_degree(k: int, n: int) -> int:
    degree = k ** n
    if degree > MAX_SLICE_DEGREE:
        raise DegreeOverflow(
            f"degree {degree} = {k}^{n} exceeds the cap {MAX_SLICE_DEGREE}")
    return degree


def builtin_generators(name: str, alphabet: Alphabet) -> list[tuple[str, Map]]:
    """Expand a built-in generator-set name.

    tgN-swap / tgN-cycle: the arity-N gate for the letter swap (1 2) or
    the full letter cycle, control letter 1.  tg-family-ltN: every gate
    TG(i, alpha, 1) with i < N and alpha a non-identity letter
    permutation; with suffix -allo, every control letter too.  std4: the
    four standard generators at arity 2.
    """
    k = alphabet.size
    m = re.fullmatch(r"tg(\d+)-(swap|cycle)", name)
    if m:
        arity = int(m.group(1))
        perm = gates.swap_perm(k) if m.group(2) == "swap" \
            else gates.cycle_perm(k)
        return [(name, gates.tg(arity, perm, 1))]
    m = re.fullmatch(r"tg-family-lt(\d+)(-allo)?", name)
    if m:
        bound = int(m.group(1))
        all_o = bool(m.group(2))
        out = []
        for i in range(1, bound):
            for images in itertools.permutations(alphabet.letters()):
                alpha = Perm(images)
                if alpha.is_identity():
                    continue
                letters = alphabet.letters() if all_o else (1,)
                for o in letters:
                    label = f"tg{i}-{alpha.token()}"
                    if all_o:
                        label += f"-o{o}"
                    out.append((label, gates.tg(i, alpha, o)))
        return out
    if name == "std4":
        return gates.standard_generators(k, 2)
    raise ShapeError(f"unknown generator name {name!r}")


def _resolve_generators(names: list[str], alphabet: Alphabet
                        ) -> list[tuple[str, Map]]:
    out: list[tuple[str, Map]] = []
    for name in names:
        path = Path(name)
        if name.endswith(".map") or path.exists():
            loaded = parse_map(path.read_text())
            if loaded.alphabet != alphabet:
                raise ShapeError(f"{name}: alphabet mismatch",
                                 expected=alphabet.size,
                                 actual=loaded.alphabet.size)
            out.append((path.stem, loaded))
        else:
            out.extend(builtin_generators(name, alphabet))
    return out


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _map_report(f: Map) -> dict:
    return {"alphabet": f.alphabet.size, "arity": f.arity,
            "coarity": f.coarity, "table": [list(row) for row in f.table]}


# -- subcommands -----------------------------------------------------------

def _cmd_eval(args) -> int:
    text = _read_text(args.circ)
    prog = circuit.parse_program(text)
    bindings: dict[str, Map] = {}
    if args.maps:
        for path in sorted(Path(args.maps).glob("*.map")):
            bindings[path.stem] = parse_map(path.read_text())
    alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
    _check_rows(prog, bindings, alphabet)
    result = circuit.evaluate_program(prog, bindings, alphabet)
    _emit(args, {"map": _map_report(result)},
          [format_map(result).rstrip("\n")])
    return EXIT_OK


def _check_rows(prog: circuit.Program, bindings: dict[str, Map],
                alphabet: Alphabet | None) -> None:
    """Refuse, before any table is built, a program with a node of k^n
    rows above the degree cap, in its lets or its result.  A shape error
    ends the check: evaluation reports it, after the lets before it."""
    if prog.alphabet is not None:
        k = prog.alphabet
    elif alphabet is not None:
        k = alphabet.size
    elif bindings:
        k = next(iter(bindings.values())).alphabet.size
    else:
        return  # no alphabet: evaluation builds no table
    shapes = {name: (m.arity, m.coarity) for name, m in bindings.items()}
    for name, term in (*prog.lets, (None, prog.result)):
        try:
            shapes[name], arity = circuit._widest_arity(term, shapes)
        except ShapeError:
            return
        _check_degree(k, arity)


def _cmd_check(args) -> int:
    f = parse_map(_read_text(args.map))
    balanced = is_balanced(f)
    bijective = is_bijective(f)
    report = {"arity": f.arity, "coarity": f.coarity,
              "balanced": balanced, "bijective": bijective}
    if args.bijective:
        _emit(args, report, [f"bijective: {str(bijective).lower()}"])
        return EXIT_OK if bijective else EXIT_FALSE
    if args.balanced:
        _emit(args, report, [f"balanced: {str(balanced).lower()}"])
        return EXIT_OK if balanced else EXIT_FALSE
    _emit(args, report, [f"arity: {f.arity}", f"coarity: {f.coarity}",
                         f"balanced: {str(balanced).lower()}",
                         f"bijective: {str(bijective).lower()}"])
    return EXIT_OK


def _cmd_closure_order(args) -> int:
    alphabet = Alphabet(args.alphabet)
    _check_degree(alphabet.size, args.arity)
    gens = _resolve_generators(args.gen, alphabet)
    slice_ = closure.slice_group(gens, args.arity, alphabet)
    order = slice_.order()
    _emit(args, {"order": str(order), "degree": slice_.degree}, [str(order)])
    return EXIT_OK


def _cmd_member(args) -> int:
    alphabet = Alphabet(args.alphabet)
    target = parse_map(_read_text(args.target))
    if target.alphabet != alphabet:
        raise ShapeError("target alphabet mismatch", expected=alphabet.size,
                         actual=target.alphabet.size)
    if target.arity != target.coarity or not is_bijective(target):
        raise NotBijectiveError("membership target must be a balanced bijection")
    _check_degree(alphabet.size, target.arity)
    gens = _resolve_generators(args.gen, alphabet)
    slice_ = closure.slice_group(gens, target.arity, alphabet)
    perm = group.from_map(target)
    word = None
    if args.witness:
        word = slice_.witness(perm)
        contained = word is not None
    else:
        contained = slice_.contains(perm)
    report = {"member": contained}
    lines = [f"member: {str(contained).lower()}"]
    if word is not None:
        names = slice_.witness_names(word)
        report["witness"] = list(names)
        lines.append("witness: " + (" ".join(names) if names else "(empty)"))
    _emit(args, report, lines)
    return EXIT_OK if contained else EXIT_FALSE


def _cmd_embed(args) -> int:
    g = parse_map(_read_text(args.map))
    emb = synth.embed(g)
    report = {"r": emb.r, "o": emb.o, "theta1": list(emb.theta1),
              "theta2": list(emb.theta2), "map": _map_report(emb.map)}
    _emit(args, report, [f"# embedding: r {emb.r} o {emb.o} "
                         f"theta1 {' '.join(map(str, emb.theta1))} "
                         f"theta2 {' '.join(map(str, emb.theta2))}",
                         format_map(emb.map).rstrip("\n")])
    return EXIT_OK


def _cmd_synth(args) -> int:
    f = parse_map(_read_text(args.map))
    netlist = synth.synthesize(f, gate_policy=args.policy, o=args.o)
    text = circuit.format_netlist(netlist, f.alphabet)
    _emit(args, {"wires": netlist.wires, "stages": len(netlist.stages),
                 "netlist": text}, [text.rstrip("\n")])
    return EXIT_OK


def _cmd_lift_odd(args) -> int:
    alphabet = Alphabet(args.alphabet)
    perm = gates.swap_perm(alphabet.size) if args.swap \
        else gates.cycle_perm(alphabet.size)
    term = synth.lift_odd(args.n, perm)
    text = f"(alphabet {alphabet.size})\n{circuit.print_term(term)}\n"
    _emit(args, {"circ": text}, [text.rstrip("\n")])
    return EXIT_OK


def _cmd_lift_ts(args) -> int:
    alphabet = Alphabet(args.alphabet)
    perm = Perm.from_token(args.perm, alphabet.size)
    _check_degree(alphabet.size, 2 * args.n - 3)
    lift = synth.lift_temp_storage(args.n, perm, args.o, args.p)
    verdict = closure.check_temp_storage(lift.realiser, lift.constants,
                                         lift.reduct)
    netlist_text = circuit.format_netlist(lift.netlist, alphabet)
    report = {"wires": lift.netlist.wires,
              "ancillas": len(lift.constants),
              "constants": list(lift.constants),
              "verdict": verdict,
              "netlist": netlist_text}
    lines = [f"wires: {lift.netlist.wires}",
             f"ancilla constants: {' '.join(map(str, lift.constants))}",
             f"temporary storage: {verdict}",
             netlist_text.rstrip("\n")]
    _emit(args, report, lines)
    return EXIT_OK if verdict == "strong" else EXIT_FALSE


def _cmd_identities(args) -> int:
    reports = identities.run_identity_suite(args.alphabet, args.trials,
                                            args.seed)
    total_failures = sum(r.failures for r in reports)
    lines = [f"{r.name}: trials={r.trials} failures={r.failures}"
             for r in reports]
    lines.append(f"total failures: {total_failures}")
    _emit(args, {"identities": [{"name": r.name, "trials": r.trials,
                                 "failures": r.failures} for r in reports],
                 "total_failures": total_failures}, lines)
    return EXIT_OK if total_failures == 0 else EXIT_FALSE


def _cmd_scan_conjectures(args) -> int:
    k = args.alphabet
    n = args.n
    alphabet = Alphabet(k)
    degree = _check_degree(k, n)
    full = math.factorial(degree)
    lines = []
    report: dict = {"degree": degree}

    cycle = gates.cycle_perm(k)
    cycle_gens = [("cycle", gates.tg(1, cycle, 1)),
                  (f"tg{n}-cycle", gates.tg(n, cycle, 1))]
    order1 = closure.slice_group(cycle_gens, n, alphabet).order()
    full_match = order1 == full
    lines.append(f"cycle-only generators at arity {n}: order {order1} "
                 f"of {full} ({'equals' if full_match else 'strictly less than'} "
                 f"the full symmetric order at this size)")
    report["cycle_only"] = {"order": str(order1), "full": str(full),
                            "matches_full": full_match}

    family = builtin_generators(f"tg-family-lt{n}-allo", alphabet)
    order2 = closure.slice_group(family, n, alphabet).order()
    alt = max(full // 2, 1)  # |A_1| = 1
    alt_match = order2 == alt
    lines.append(f"all gates below arity {n}, every control letter: order "
                 f"{order2}; alternating-group order is {alt} "
                 f"({'matches' if alt_match else 'differs'} at this size)")
    report["below_family"] = {"order": str(order2), "alternating": str(alt),
                              "matches_alternating": alt_match}
    _emit(args, report, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revclone",
        description="Finite multi-valued and reversible mappings: evaluate "
                    "circuits, check properties, compute closure orders, "
                    "test membership, embed, synthesize, and scan.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        p.set_defaults(func=fn)
        return p

    p = add("eval", _cmd_eval, "evaluate a .circ file to a .map table")
    p.add_argument("circ", help=".circ file, or - for stdin")
    p.add_argument("--maps", help="directory of NAME.map generator bindings")
    p.add_argument("--alphabet", type=int, help="alphabet size override")

    p = add("check", _cmd_check, "report or test map properties")
    p.add_argument("map", help=".map file, or - for stdin")
    flags = p.add_mutually_exclusive_group()
    flags.add_argument("--bijective", action="store_true")
    flags.add_argument("--balanced", action="store_true")

    p = add("closure-order", _cmd_closure_order,
            "order of the arity-n slice of the generated closure")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--gen", nargs="+", required=True,
                   help="built-in generator names or .map files")

    p = add("member", _cmd_member,
            "is the target in the closure slice at its arity?")
    p.add_argument("target", help="target .map file")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--gen", nargs="+", required=True)
    p.add_argument("--witness", action="store_true",
                   help="also print a generator word")

    p = add("embed", _cmd_embed, "complete a map to a bijection")
    p.add_argument("map", help=".map file, or - for stdin")

    p = add("synth", _cmd_synth, "synthesize a gate netlist")
    p.add_argument("map", help=".map file, or - for stdin")
    p.add_argument("--policy", choices=("tg-n", "odd-small"), default="tg-n")
    p.add_argument("--o", type=int, default=1, help="control letter")

    p = add("lift-odd", _cmd_lift_odd,
            "odd-alphabet lift of a wide gate to one- and two-wire gates")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--swap", action="store_true")
    which.add_argument("--cycle", action="store_true")

    p = add("lift-ts", _cmd_lift_ts,
            "strong-temporary-storage lift to three-wire gates")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--perm", required=True, help="letter cycles, e.g. (1,2)")
    p.add_argument("--o", type=int, required=True, help="control letter")
    p.add_argument("--p", type=int, help="ancilla letter (default: smallest != o)")

    p = add("identities", _cmd_identities,
            "run the exchange-law suite on seeded random maps")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("scan-conjectures", _cmd_scan_conjectures,
            "report closure orders against symmetric/alternating sizes")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Last, since reading group.WitnessOverflow runs the group layer.
    except (DegreeOverflow, group.WitnessOverflow) as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
