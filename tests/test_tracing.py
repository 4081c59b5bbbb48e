"""The benchmark's tracer (perfbench/tracing.py) still installs on
revclone.

The tracer wraps revclone from outside and looks up by name the value-type
methods it counts (Map.__init__, Map.__hash__, Map.__eq__,
TuplePerm.__mul__, core.encode) and every public function it spans.  A
rename or removal of one of them fails here instead of only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import revclone
from revclone.closure import SearchCaps, saturate
from revclone.core import Map, Perm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["counts", "spans"])
def test_tracer_installs_runs_and_uninstalls(mode):
    tracing = _load_tracing()
    originals = {attr: vars(Map)[attr]
                 for attr in ("__init__", "__hash__", "__eq__")}
    gate = revclone.tg(2, Perm.from_cycles([(1, 2)], degree=2), 1)
    tracer = tracing.Tracer(mode)
    tracer.install(revclone)
    try:
        sat = revclone.saturate([gate], SearchCaps(2, 2, 200))
        # saturate combines raw codes, so the public ops and Map hashing
        # are exercised by direct calls
        composite = revclone.compose_k(gate, gate, 1)
        assert composite in {gate, composite}
    finally:
        tracer.uninstall()
    assert sat.maps
    assert sat.stats.kept == len(sat.maps)
    if mode == "counts":
        assert set(tracer.calls) == {metric for *_, metric in tracing.COUNTED}
        assert tracer.calls["core.map_hash_eq"] > 0
    else:
        assert tracer.calls["closure.saturate"] == 1
        assert tracer.calls["ops.compose_k"] == 1
        assert tracer.rows["ops.compose_k"] > 0
        assert tracer.saturate_kept == len(sat.maps)
    assert revclone.saturate is saturate
    assert revclone.closure.saturate is saturate
    assert {attr: vars(Map)[attr] for attr in originals} == originals
