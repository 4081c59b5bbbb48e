"""Finite multi-valued and reversible mappings: a library and CLI for the
composition algebra on maps A^n -> A^m, generalized controlled gates,
closure and permutation-group computations, and gate-level synthesis.

Each submodule runs on its first use, not at ``import revclone``: a
closure call never runs the circuit and synthesis layers.  The package
keeps no copy of a public name: ``__getattr__`` reads it from its
submodule on every access."""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Alphabet", "Map", "MapFormatError", "NotBijectiveError", "Perm",
             "ShapeError", "decode", "encode", "evaluate", "format_map",
             "identity_map", "inverse", "is_balanced", "is_bijective",
             "parse_map"),
    "ops": ("bar_tau", "bar_zeta", "bullet", "compose_k", "delta", "insert",
            "nabla", "oplus", "pi", "reduct", "select", "select_multi", "tau",
            "zeta"),
    "gates": ("elementary", "fanout", "is_atomic", "standard_generators",
              "tg"),
    "group": ("TupleGroup", "TuplePerm", "WitnessOverflow", "from_map",
              "sign"),
    "closure": ("GeneratorSet", "RealisationResult", "SearchCaps",
                "TempStorageSearch", "check_realisation",
                "check_temp_storage", "function_set", "op_K", "op_R", "op_S",
                "saturate", "search_temp_storage", "slice_group",
                "trailing_map"),
    "circuit": ("Netlist", "Program", "Stage", "Term", "evaluate_program",
                "evaluate_term", "format_netlist", "netlist_to_term", "parse",
                "parse_netlist", "parse_program", "print_term", "shape_of",
                "simulate"),
    "synth": ("Embedding", "TempStorageLift", "atomic_to_gates",
              "decompose_elementary", "elementary_to_atomic", "embed",
              "factor_over_standard", "lift_odd", "lift_temp_storage",
              "synthesize"),
    "identities": ("IdentityReport", "run_identity_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_OWNER]


# Registered in sys.modules but not yet run: the first attribute access
# runs the module.
for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    """A public name, read from its submodule (which runs on first use)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return list(__all__)
