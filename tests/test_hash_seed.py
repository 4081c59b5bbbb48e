"""Results must not depend on Python's string hash seed.

Saturation keeps per-shape code sets and the CLI names generators by
string, so an iteration over a hashed container that leaked into an
output would show up as a difference between two interpreters started
with different PYTHONHASHSEED values.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, dataclasses, hashlib, io
from revclone.cli import main
from revclone.closure import SearchCaps, check_realisation, function_set, \\
    saturate
from revclone.core import Alphabet, Map, Perm
from revclone.gates import fanout, standard_generators, tg

A2 = Alphabet(2)
SWAP2 = Perm.from_cycles([(1, 2)], degree=2)
std4 = [m for _, m in standard_generators(3, 2)]
mixed = [tg(1, SWAP2, 1), fanout(A2, 2)]
record = []
for gens, caps, with_dn in ((mixed, SearchCaps(2, 3, 2000), True),
                            (std4, SearchCaps(2, 2, 300), False)):
    sat = saturate(gens, caps, with_delta_nabla=with_dn)
    record.append(([(m.arity, m.coarity, m.codes) for m in sat.maps],
                   sat.capped, sat.overflowed, dataclasses.astuple(sat.stats)))
record.append([(m.arity, m.codes)
               for m in function_set(mixed, SearchCaps(3, 3, 600))])
for target in (fanout(A2, 3), Map(A2, 2, 1, [(1,), (1,), (1,), (2,)])):
    result = check_realisation(target, mixed, SearchCaps(3, 3, 600))
    record.append((result.verdict, result.constants, result.capped,
                   result.realiser and result.realiser.codes))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["closure-order", "--alphabet", "3", "--arity", "2",
                 "--gen", "std4", "tg1-swap", "--json"])
record.append((code, out.getvalue()))
print(hashlib.sha256(repr(record).encode()).hexdigest())
"""


def _digest_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_results_do_not_depend_on_the_hash_seed():
    digests = {_digest_under(seed) for seed in ("0", "1")}
    assert len(digests) == 1
