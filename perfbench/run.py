"""revclone benchmark.

    python3 perfbench/run.py --workload {slice,saturate,synth} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; revclone is imported from
``src/``.  One client runs a closed loop of whole request rounds (see
``workloads.py``) until the time spent inside requests reaches
``--seconds``; every answer is checked against a reference that does not
use the code under test, outside the timed window.

The CPU speed of a shared machine drifts (on a 2-vCPU cloud VM, a fixed
Python loop ran up to 1.7 times faster or slower from one minute to the
next).  After every request the benchmark therefore times a short fixed
pure-Python kernel that does not touch revclone, and reports every
end-to-end time at the reference speed at which that kernel takes
``CAL_REF_S``: a request's time is scaled by ``CAL_REF_S`` over the median
kernel time of its round.  The report lines also give the unscaled
figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
shorter untraced pass, then replays the same requests once with a span on
every public revclone call and once counting the hottest value-type
methods, checks that all three passes return identical answers, reports
the per-layer metrics and saves the spans of the traced pass to
``perfbench/out/spans-<workload>.npz`` (replaced by the next traced run).

Human-readable report lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 9
# Kernel time defining the reference speed: about its median on the
# machine the bounds were set on.
CAL_REF_S = 0.004
_CAL_PERMS = [tuple((7 * j + 3 * i) % 64 for j in range(64)) for i in range(8)]
TAIL_BEYOND = 10
# Share of --seconds given to the untraced pass of a traced run; the
# traced and counting replays of the same requests take the rest.
TRACE_SHARE = 0.4
ROW_BUCKETS = (3, 9, 27, 81, 729, 6561, 59049)


def import_revclone():
    """Import revclone afresh from the checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "revclone", "__init__.py")):
        raise FileNotFoundError(f"no revclone package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "revclone" or m.startswith("revclone.")]:
        del sys.modules[name]
    return importlib.import_module("revclone")


def calibrate() -> float:
    """Seconds taken by a fixed kernel of tuple building, hashing and dict
    updates (the kind of work revclone does), with the garbage collector
    off so that the heap the program leaves behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen, acc = set(), _CAL_PERMS[0]
        for _ in range(48):
            for q in _CAL_PERMS:
                acc = tuple(q[j] for j in acc)
                seen.add(acc)
            table = {}
            for j in range(200):
                table[(j, acc[j % 64])] = j * j
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def setup(workload: str, seed: int):
    """Import plus generation of the first round, repeated; the last
    repetition's objects are the ones used.  Returns the median time at
    the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        rc = import_revclone()
        plan = workloads.PLANS[workload](rc, seed)
        first = plan.round(0)
        spent = time.perf_counter() - start
        times.append(spent * 2 * CAL_REF_S / (before + calibrate()))
    return rc, plan, first, statistics.median(times)


class Result:
    __slots__ = ("latency", "ok", "digest", "stat")

    def __init__(self, latency, ok, digest, stat):
        self.latency = latency
        self.ok = ok
        self.digest = digest
        self.stat = stat


def execute(requests, tracer=None, kernel_times=None) -> list[Result]:
    """Send each request after the previous one returns; check answers
    outside the timed window.  With ``kernel_times``, time the reference
    kernel after each request."""
    out = []
    for index, req in enumerate(requests):
        if kernel_times is not None and index:
            kernel_times.append(calibrate())
        if tracer is not None:
            tracer.request = index
        start = time.perf_counter()
        try:
            answer = req.call()
        except Exception:
            latency = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            out.append(Result(latency, False, None, None))
            continue
        latency = time.perf_counter() - start
        try:
            ok = bool(req.check(answer))
            digest = req.digest(answer)
            stat = req.stat(answer) if req.stat is not None else None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, digest, stat = False, None, None
        if not ok:
            print(f"check failed: request {index} ({req.kind})",
                  file=sys.stderr)
        out.append(Result(latency, ok, digest, stat))
    return out


class Round:
    """A round's latencies at the reference speed, from the kernel timed
    between its requests and at both ends."""
    __slots__ = ("scale", "latencies", "throughput")

    def __init__(self, done, kernel_times):
        self.scale = CAL_REF_S / statistics.median(kernel_times)
        self.latencies = [res.latency * self.scale for res in done]
        self.throughput = len(done) / sum(self.latencies)


def measure(plan, first, seconds: float):
    """Whole rounds until the (unscaled) time inside requests reaches
    ``seconds``.  Returns the requests, their results and the rounds."""
    requests, results, rounds = [], [], []
    busy, r = 0.0, 0
    kernel_times = [calibrate()]
    while busy < seconds:
        batch = first if r == 0 else plan.round(r)
        done = execute(batch, kernel_times=kernel_times)
        kernel_times.append(calibrate())
        requests.extend(batch)
        results.extend(done)
        rounds.append(Round(done, kernel_times))
        kernel_times = kernel_times[-1:]
        busy += sum(res.latency for res in done)
        r += 1
    return requests, results, rounds


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample, and its percentile rank."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100 * index / max(len(ordered) - 1, 1)


def mean_stat(requests, results, kinds) -> float:
    values = [res.stat for req, res in zip(requests, results)
              if res.stat is not None and req.kind.startswith(kinds)]
    return statistics.fmean(values) if values else 0.0


def shape_report(requests) -> list[str]:
    n = len(requests)
    kinds = Counter(req.kind for req in requests)
    lines = ["shape: request shares " + ", ".join(
        f"{kind} {count / n:.3f}" for kind, count in sorted(kinds.items()))]
    degrees = Counter(req.degree for req in requests if req.degree)
    if degrees:
        lines.append("shape: degree histogram " + ", ".join(
            f"d{d} {c}" for d, c in sorted(degrees.items())))
    keyed = [req.gen_key for req in requests if req.gen_key is not None]
    if keyed:
        repeats = len(keyed) - len(set(keyed))
        lines.append(f"shape: generator-set repeat share "
                     f"{repeats / len(keyed):.3f} of {len(keyed)} requests")
    return lines


def row_histogram(row_sizes: dict) -> str:
    buckets = Counter()
    for rows, count in row_sizes.items():
        label = next((f"<={b}" for b in ROW_BUCKETS if rows <= b),
                     f">{ROW_BUCKETS[-1]}")
        buckets[label] += count
    order = [f"<={b}" for b in ROW_BUCKETS] + [f">{ROW_BUCKETS[-1]}"]
    return ", ".join(f"{b} {buckets[b]}" for b in order if buckets[b])


def end_to_end(workload, requests, results, setup_s, rounds):
    """Every round has the same mix, so the median over rounds of the
    round's throughput is a robust estimate that ignores rounds a passing
    disturbance of the machine slowed beyond what the scaling caught."""
    n = len(results)
    latencies = [res.latency for res in results]
    busy = sum(latencies)
    failed = sum(not res.ok for res in results)
    scaled = [x for r in rounds for x in r.latencies]
    tail_s, tail_p = tail(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (statistics.median(r.throughput for r in rounds),
                           "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    lines = shape_report(requests)
    lines.append(f"loop: {len(rounds)} rounds, {n} requests, {busy:.3f} s "
                 f"in requests, one client, closed loop")
    lines.append(f"unscaled: {n / busy:.4f} requests/s, median latency "
                 f"{statistics.median(latencies) * 1e3:.4f} ms, eleventh "
                 f"largest latency {tail(latencies)[0] * 1e3:.4f} ms; "
                 f"speed scale per round median "
                 f"{statistics.median(r.scale for r in rounds):.4f} "
                 f"(min {min(r.scale for r in rounds):.4f}, "
                 f"max {max(r.scale for r in rounds):.4f})")
    lines.append("the metrics below are at the reference speed; "
                 "requests_per_s is the median round")
    lines.append(f"latency_tail_ms is p{tail_p:.2f} over {n} samples "
                 f"({min(TAIL_BEYOND, n - 1)} beyond)")
    lines.append(f"failed_ratio {failed / n:.6f} ratio")
    if workload == "slice":
        lines.append(f"witness_len {mean_stat(requests, results, 'witness'):.1f} "
                     "generators")
    if workload == "synth":
        lines.append(f"netlist_stages "
                     f"{mean_stat(requests, results, 'synthesize'):.1f} stages")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return metrics, lines, n, failed


def _sum(table: dict, names) -> float:
    return sum(table.get(name, 0) for name in names)


def per_layer(requests, base, rounds, traced, spans: Tracer,
              counts: Tracer):
    """Layer times are unscaled; the overhead ratio compares the traced
    and untraced passes at the reference speed."""
    wall = sum(res.latency for res in traced)
    base_wall = sum(x for r in rounds for x in r.latencies)
    ops_names = [n for n in spans.calls if n.startswith("ops.")]
    other_ops = [n for n in ops_names if n not in ("ops.compose_k", "ops.oplus")]
    s, c = spans.self_s, spans.calls
    metrics = {
        "group.build.calls": (c.get("group.TupleGroup.build", 0), "count"),
        "group.build.self_s": (s.get("group.TupleGroup.build", 0.0), "s"),
        "group.tupleperm_mul.calls": (counts.calls["group.tupleperm_mul"],
                                      "count"),
        "group.witness.calls": (c.get("group.TupleGroup.witness", 0), "count"),
        "group.witness.self_s": (s.get("group.TupleGroup.witness", 0.0), "s"),
        "group.contains.self_s": (s.get("group.TupleGroup.contains", 0.0), "s"),
        "group.from_map.self_s": (s.get("group.from_map", 0.0), "s"),
        "closure.slice_group.self_s": (s.get("closure.slice_group", 0.0), "s"),
        "closure.saturate.calls": (c.get("closure.saturate", 0), "count"),
        "closure.saturate.self_s": (s.get("closure.saturate", 0.0), "s"),
        "closure.saturate.admit_ratio": (
            spans.saturate_kept / spans.saturate_ops
            if spans.saturate_ops else 0.0, "ratio"),
        "closure.check_realisation.self_s": (
            s.get("closure.check_realisation", 0.0), "s"),
        "closure.function_set.self_s": (s.get("closure.function_set", 0.0), "s"),
        "closure.check_temp_storage.self_s": (
            s.get("closure.check_temp_storage", 0.0), "s"),
        "circuit.simulate.calls": (c.get("circuit.simulate", 0), "count"),
        "circuit.simulate.self_s": (s.get("circuit.simulate", 0.0), "s"),
        "circuit.simulate.tuple_stages": (spans.tuple_stages, "count"),
        "circuit.parse.self_s": (_sum(s, ("circuit.parse", "circuit.parse_program",
                                          "circuit.parse_netlist")), "s"),
        "circuit.format.self_s": (_sum(s, ("circuit.format_netlist",
                                           "circuit.print_term",
                                           "circuit.perm_token")), "s"),
        "circuit.evaluate.self_s": (_sum(s, ("circuit.evaluate_term",
                                             "circuit.evaluate_program")), "s"),
        "synth.synthesize.self_s": (s.get("synth.synthesize", 0.0), "s"),
        "synth.lift_odd.self_s": (s.get("synth.lift_odd", 0.0), "s"),
        "synth.lift_temp_storage.self_s": (
            s.get("synth.lift_temp_storage", 0.0), "s"),
        "synth.embed.self_s": (s.get("synth.embed", 0.0), "s"),
        "gates.elementary.calls": (c.get("gates.elementary", 0), "count"),
        "gates.elementary.self_s": (s.get("gates.elementary", 0.0), "s"),
        "gates.tg.self_s": (s.get("gates.tg", 0.0), "s"),
        "core.map_new.calls": (counts.calls["core.map_new"], "count"),
        "core.map_hash_eq.calls": (counts.calls["core.map_hash_eq"], "count"),
        "core.encode.calls": (counts.calls["core.encode"], "count"),
        "bench.self_s": (wall - spans.top_level_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall * spans.scale / base_wall, "ratio"),
        "witness_len": (mean_stat(requests, base, "witness"), "generators"),
        "netlist_stages": (mean_stat(requests, base, "synthesize"), "stages"),
    }
    for bucket in ("d8-16", "d17-27", "d28-36"):
        metrics[f"group.build.self_s.{bucket}"] = (
            spans.build_self.get(bucket, 0.0), "s")
    for name, label in (("ops.compose_k", "compose_k"), ("ops.oplus", "oplus")):
        metrics[f"ops.{label}.calls"] = (c.get(name, 0), "count")
        metrics[f"ops.{label}.self_s"] = (s.get(name, 0.0), "s")
        metrics[f"ops.{label}.rows"] = (spans.rows.get(name, 0), "count")
    metrics["ops.other.calls"] = (_sum(c, other_ops), "count")
    metrics["ops.other.self_s"] = (_sum(s, other_ops), "s")
    metrics["ops.other.rows"] = (_sum(spans.rows, other_ops), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v for n, v in s.items() if n.split(".", 1)[0] == layer), "s")
    accounted = metrics["bench.self_s"][0] + sum(
        metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    lines = [f"shape: ops table rows histogram {row_histogram(spans.row_sizes)}",
             f"trace: {len(spans.span_start)} spans; bench.self_s plus layer "
             f"self times {accounted:.6f} s of traced wall {wall:.6f} s"]
    return metrics, lines


def replay(rc, requests):
    """Run the requests again with spans, then again counting the hot
    methods; every binding is restored afterwards.  The reference kernel
    is timed between the traced requests too, so that the tracing
    overhead can be taken at the reference speed."""
    spans = Tracer("spans")
    kernel_times = [calibrate()]
    spans.install(rc)
    try:
        traced = execute(requests, spans, kernel_times)
    finally:
        spans.uninstall()
    kernel_times.append(calibrate())
    spans.scale = CAL_REF_S / statistics.median(kernel_times)
    counts = Tracer("counts")
    counts.install(rc)
    try:
        counted = execute(requests)
    finally:
        counts.uninstall()
    return traced, counted, spans, counts


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rc, plan, first, setup_s = setup(workload, seed)
    if not trace:
        requests, results, rounds = measure(plan, first, seconds)
        metrics, lines, attempted, failed = end_to_end(
            workload, requests, results, setup_s, rounds)
    else:
        requests, base, rounds = measure(plan, first, seconds * TRACE_SHARE)
        traced, counted, spans, counts = replay(rc, requests)
        mismatched = sum(not (a.digest == b.digest == c.digest)
                         for a, b, c in zip(base, traced, counted))
        attempted = 3 * len(requests)
        failed = (sum(not r.ok for r in base + traced + counted)
                  + mismatched)
        metrics, lines = per_layer(requests, base, rounds, traced, spans,
                                   counts)
        lines = shape_report(requests) + lines
        lines.append(f"trace: {len(rounds)} rounds, {len(requests)} requests per "
                     f"pass, {mismatched} answers differ between passes")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans.write(os.path.join(out_dir, f"spans-{workload}.npz"))
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
