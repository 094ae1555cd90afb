"""The solver's answer does not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the 6x12/2400-UE city instance, seed 1, k=18, as tools/ladder.py builds it
SOLVE = """
import hashlib
import iabplan as ip
topo = ip.generate_grid(6, 12, 200.0, 2400, 1)
links = ip.build_link_table(ip.synthetic_gains(topo))
anchors = ip.select_anchors(topo, 18, "greedy-coverage", links=links, seed=1)
prob = ip.assemble(links, ip.make_scenario(ip.Variant.IAB_ST, links, anchors, seed=1), anchors)
sol, cert = ip.solve(prob)
print(hashlib.sha256(sol.x.tobytes()).hexdigest(), repr(cert.kkt.comp_gap_rel))
"""


def solve_with_threads(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", SOLVE], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_city_solve_is_the_same_at_one_and_two_threads():
    # OpenBLAS reads its thread count once, when it loads, so each count
    # needs a fresh process.  Threaded kernels (dpotrf, ddot) sum in another
    # order and change x's last bits; on a 1-CPU host OpenBLAS runs one
    # thread either way, and this test cannot fail there.
    assert solve_with_threads(1) == solve_with_threads(2)
