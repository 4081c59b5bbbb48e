"""Finite multi-valued and reversible mappings: a library and CLI for the
composition algebra on maps A^n -> A^m, generalized controlled gates,
closure and permutation-group computations, and gate-level synthesis."""

from .core import (Alphabet, Map, MapFormatError, NotBijectiveError, Perm,
                   ShapeError, decode, encode, evaluate, format_map,
                   identity_map, inverse, is_balanced, is_bijective,
                   parse_map)
from .ops import (bar_tau, bar_zeta, bullet, compose_k, delta, insert, nabla,
                  oplus, pi, reduct, select, select_multi, tau, zeta)
from .gates import elementary, fanout, is_atomic, standard_generators, tg
from .group import TupleGroup, TuplePerm, WitnessOverflow, from_map, sign
from .closure import (GeneratorSet, RealisationResult, SearchCaps,
                      TempStorageSearch, check_realisation,
                      check_temp_storage, function_set, op_K, op_R, op_S,
                      saturate, search_temp_storage, slice_group,
                      trailing_map)
from .circuit import (Netlist, Program, Stage, Term, evaluate_program,
                      evaluate_term, format_netlist, netlist_to_term, parse,
                      parse_netlist, parse_program, print_term, shape_of,
                      simulate)
from .synth import (Embedding, TempStorageLift, atomic_to_gates,
                    decompose_elementary, elementary_to_atomic, embed,
                    factor_over_standard, lift_odd, lift_temp_storage,
                    synthesize)
from .identities import IdentityReport, run_identity_suite

__version__ = "0.1.0"
