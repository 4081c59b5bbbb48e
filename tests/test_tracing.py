"""The benchmark's tracer (perfbench/tracing.py) still installs on
revclone.

The tracer wraps revclone from outside and looks up by name the value-type
methods it counts (Map.__init__, Map.__hash__, Map.__eq__,
TuplePerm.__mul__, core.encode) and every public function it spans.  A
rename or removal of one of them fails here instead of only in a traced
benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from test_loading import run_fresh

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


# A session that has run only the closure layers, then installs and
# uninstalls both tracers.
SATURATE_SESSION = """
import importlib.util, inspect, json, sys, types
import revclone

spec = importlib.util.spec_from_file_location("perfbench_tracing", %r)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

gate = revclone.tg(2, revclone.Perm.from_cycles([(1, 2)], degree=2), 1)
revclone.saturate([gate], revclone.SearchCaps(2, 2, 200))
unrun = sorted(name for name, module in sys.modules.items()
               if name.startswith("revclone.")
               and type(module) is not types.ModuleType)
before = dict(vars(revclone))
for mode in ("spans", "counts"):
    tracer = tracing.Tracer(mode)
    tracer.install(revclone)
    revclone.compose_k(gate, gate, 1)   # first read through the package
    tracer.uninstall()


def is_wrapper(value):
    value = getattr(value, "__func__", value)
    return getattr(value, "__module__", None) == tracing.__name__


left = []
for name, module in sorted(sys.modules.items()):
    if name.partition(".")[0] != "revclone":
        continue
    for attr, value in vars(module).items():
        if is_wrapper(value):
            left.append(f"{name}.{attr}")
        elif inspect.isclass(value):
            left += [f"{name}.{attr}.{method}"
                     for method, raw in vars(value).items() if is_wrapper(raw)]
exported = [getattr(revclone, name) for name in revclone.__all__]
print(json.dumps({
    "unrun": unrun,
    "left": left,
    "changed": [name for name, value in before.items()
                if vars(revclone)[name] is not value],
    "foreign": [value.__name__ for value in exported
                if not isinstance(value, types.ModuleType)
                and getattr(sys.modules.get(value.__module__),
                            value.__name__, None) is not value]}))
"""


def test_tracer_round_trip_after_a_saturate_only_session():
    """The tracer indexes sys.modules for every layer at install, so each
    submodule must be registered there before it has run; afterwards no
    revclone module, class or package name may keep a tracer wrapper."""
    result = json.loads(run_fresh(SATURATE_SESSION % str(TRACING)))
    assert result["unrun"] == ["revclone.circuit", "revclone.identities",
                               "revclone.synth"]
    assert result == {"unrun": result["unrun"], "left": [], "changed": [],
                      "foreign": []}
