"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one round of each workload untraced and traced, checks the reported
metric names against BENCHMARK.json, checks that deliberately corrupted
answers are counted as failures, that traced and untraced passes return
identical answers, and that the closed-form slice orders agree with an
independent group library when one is installed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SEED = 7


def quiet_run(workload, trace):
    """One round: any positive time budget is reached after the first."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, SEED, 1e-9, trace)


class TinyRuns(unittest.TestCase):
    def test_untraced_metrics_and_answers(self):
        for workload in workloads.PLANS:
            with self.subTest(workload=workload):
                summary = quiet_run(workload, False)
                self.assertEqual(set(summary["metrics"]), END_TO_END)
                self.assertEqual(summary["failed"], 0)
                self.assertTrue(summary["correct"])
                for name, metric in summary["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_metrics_and_layers(self):
        dominant = {
            "slice": ["group.build.calls", "group.tupleperm_mul.calls",
                      "group.witness.calls", "closure.slice_group.self_s",
                      "group.build.self_s.d8-16", "group.build.self_s.d17-27",
                      "group.build.self_s.d28-36"],
            "saturate": ["closure.saturate.calls", "ops.compose_k.calls",
                         "ops.oplus.calls", "ops.other.calls",
                         "closure.saturate.admit_ratio",
                         "core.map_new.calls", "core.map_hash_eq.calls"],
            "synth": ["circuit.simulate.calls", "circuit.simulate.tuple_stages",
                      "gates.elementary.calls", "gates.tg.self_s",
                      "synth.lift_odd.self_s", "synth.embed.self_s",
                      "closure.check_temp_storage.self_s", "core.encode.calls"],
        }
        for workload, names in dominant.items():
            with self.subTest(workload=workload):
                summary = quiet_run(workload, True)
                metrics = {k: v["value"] for k, v in summary["metrics"].items()}
                self.assertEqual(set(metrics), PER_LAYER)
                self.assertEqual(summary["failed"], 0)
                for name in names:
                    self.assertGreater(metrics[name], 0, name)
                accounted = metrics["bench.self_s"] + sum(
                    metrics[f"{layer}.self_s"] for layer in run.LAYERS)
                self.assertAlmostEqual(accounted, metrics["trace.wall_s"],
                                       delta=1e-6 * metrics["trace.wall_s"])


def one_round(workload):
    with contextlib.redirect_stdout(io.StringIO()):
        rc, plan, first, _ = run.setup(workload, SEED)
    return rc, first


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class CorruptedAnswers(unittest.TestCase):
    def failures(self, requests):
        with contextlib.redirect_stderr(io.StringIO()):
            return sum(not r.ok for r in run.execute(requests))

    def test_flipped_table_row(self):
        rc, requests = one_round("synth")

        def flip(simulate):
            def wrong(netlist, alphabet):
                good = simulate(netlist, alphabet)
                table = list(good.table)
                table[0], table[-1] = table[-1], table[0]
                return rc.Map(good.alphabet, good.arity, good.coarity, table)
            return wrong

        with patched(rc, "simulate", flip):
            failed = self.failures(requests)
        self.assertEqual(failed, sum(r.kind.startswith("synthesize")
                                     for r in requests))

    def test_wrong_membership_verdict(self):
        rc, requests = one_round("slice")

        class Flipped:
            def __init__(self, group):
                self.group = group

            def contains(self, perm):
                return not self.group.contains(perm)

            def __getattr__(self, name):
                return getattr(self.group, name)

        with patched(rc, "slice_group",
                     lambda f: lambda *a, **kw: Flipped(f(*a, **kw))):
            failed = self.failures(requests)
        self.assertEqual(failed, sum(r.kind.startswith("member")
                                     for r in requests))

    def test_wrong_realisation_verdict(self):
        rc, requests = one_round("saturate")

        def lie(check):
            def wrong(*args, **kwargs):
                res = check(*args, **kwargs)
                verdict = "general" if res.verdict == "not-found" else "not-found"
                return type(res)(verdict, res.realiser, res.constants,
                                 res.theta, res.capped)
            return wrong

        with patched(rc, "check_realisation", lie):
            failed = self.failures(requests)
        self.assertEqual(failed, sum(r.kind == "check_realisation"
                                     for r in requests))

    def test_one_wrong_order(self):
        rc, requests = one_round("slice")
        order = next(r for r in requests if r.kind == "order")
        real = order.call()
        self.assertTrue(order.check(real))
        self.assertFalse(order.check(real + 1))


class TracedAnswers(unittest.TestCase):
    def test_traced_and_untraced_answers_identical(self):
        for workload in workloads.PLANS:
            with self.subTest(workload=workload):
                rc, requests = one_round(workload)
                base = run.execute(requests)
                traced, counted, spans, counts = run.replay(rc, requests)
                self.assertEqual([r.digest for r in base],
                                 [r.digest for r in traced])
                self.assertEqual([r.digest for r in base],
                                 [r.digest for r in counted])
                self.assertTrue(all(r.ok for r in base + traced + counted))

    def test_every_binding_wrapped_and_restored(self):
        rc, _ = one_round("slice")
        cli = importlib.import_module("revclone.cli")
        aliases = [(rc, "slice_group"), (rc.closure, "from_map"),
                   (rc.synth, "simulate"), (cli, "slice_group"),
                   (rc.synth, "from_map"), (rc, "embed")]
        before = [getattr(owner, attr) for owner, attr in aliases]
        build = vars(rc.TupleGroup)["build"]
        tracer = run.Tracer("spans")
        tracer.install(rc)
        try:
            for owner, attr in aliases:
                self.assertTrue(hasattr(getattr(owner, attr), "__wrapped__"),
                                f"{owner.__name__}.{attr}")
            self.assertIs(rc.closure.TupleGroup, rc.TupleGroup)
            self.assertIsNot(vars(rc.TupleGroup)["build"], build)
        finally:
            tracer.uninstall()
        self.assertEqual([getattr(o, a) for o, a in aliases], before)
        self.assertIs(vars(rc.TupleGroup)["build"], build)


class ClosedForms(unittest.TestCase):
    def test_slice_orders_match_an_independent_library(self):
        try:
            from sympy.combinatorics import Permutation, PermutationGroup
        except ImportError:
            self.skipTest("sympy not installed")
        seen = set()
        for family, k, n, _, _ in workloads.SLICE_SLOTS:
            if (family, k, n) in seen:
                continue
            seen.add((family, k, n))
            with self.subTest(family=family, k=k, n=n):
                perms = [ref.pad_perm(ref.table_perm(t, k), k, m, n)
                         for _, m, t in workloads.family_tables(family, k)]
                perms += ref.slice_wire_perms(k, n)
                group = PermutationGroup([Permutation(p) for p in perms])
                self.assertEqual(group.order(), ref.slice_order(family, k, n))


if __name__ == "__main__":
    unittest.main()
