"""``import revclone`` runs no submodule; each runs on its first use.

A closure call must not run the circuit, synthesis and identity layers,
and the lazy package must offer the same names, bound to the same
objects, as a package that ran every submodule at import.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import revclone

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = {"core", "ops", "gates", "group", "closure", "circuit", "synth",
              "identities"}

# What ``from revclone import *`` bound when every submodule ran at import.
STAR_NAMES = SUBMODULES | set("""
    Alphabet atomic_to_gates bar_tau bar_zeta bullet check_realisation
    check_temp_storage compose_k decode decompose_elementary delta
    elementary elementary_to_atomic embed Embedding encode evaluate
    evaluate_program evaluate_term factor_over_standard fanout format_map
    format_netlist from_map function_set GeneratorSet identity_map
    IdentityReport insert inverse is_atomic is_balanced is_bijective
    lift_odd lift_temp_storage Map MapFormatError nabla Netlist
    netlist_to_term NotBijectiveError op_K op_R op_S oplus parse parse_map
    parse_netlist parse_program Perm pi print_term Program
    RealisationResult reduct run_identity_suite saturate
    search_temp_storage SearchCaps select select_multi shape_of ShapeError
    sign simulate slice_group Stage standard_generators synthesize tau
    TempStorageLift TempStorageSearch Term tg trailing_map TupleGroup
    TuplePerm WitnessOverflow zeta""".split())


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that imports revclone from this
    checkout; return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_closure_call_leaves_the_synthesis_layers_unrun():
    ran = json.loads(run_fresh("""
import json, sys, types
import revclone
revclone.saturate
# type() reads the class without running a module; a module not yet run
# is an instance of a ModuleType subclass.
print(json.dumps({name: type(sys.modules["revclone." + name])
                  is types.ModuleType for name in %r}))
""" % sorted(SUBMODULES)))
    assert ran["closure"] and ran["core"]
    assert not ran["circuit"] and not ran["synth"] and not ran["identities"]


def test_every_exported_name_is_its_defining_modules_object():
    assert set(revclone.__all__) == STAR_NAMES
    for name in revclone.__all__:
        value = getattr(revclone, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"revclone.{name}"]
            continue
        assert value.__module__.startswith("revclone.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name not in vars(revclone)   # read on every access


def test_star_import_binds_the_same_names():
    scope = {}
    exec("from revclone import *", scope)
    del scope["__builtins__"]
    assert set(scope) == STAR_NAMES
    assert all(isinstance(scope[name], types.ModuleType)
               for name in SUBMODULES)


def test_dir_lists_the_exported_names():
    assert sorted(dir(revclone)) == sorted(revclone.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        revclone.no_such_name
    assert not hasattr(revclone, "cycle_perm")   # public in gates only
