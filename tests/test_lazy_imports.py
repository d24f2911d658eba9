"""scipy.sparse loads only in the studies that build a sparse matrix or run ARPACK.

A fresh interpreter imports spectralab and its CLI, then runs tiny
sublevel, thinness, inequalities, kernel-power and heat-diagnostics studies
(both heat modes) through cli.main: none of them may load scipy.sparse.  A
tiny spectrum run in the same interpreter then must load it, so the check
cannot pass because the module name is wrong or the probe never looks.
Before the studies, operator_norm runs on a Kronecker-form, a cutoff and a
block-form kernel, its three paths, and must not load it either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import spectralab, spectralab.cli

out = sys.argv[1]
HEAT = ("heat-diagnostics", "--potential", "x1^2*x2^2", "--M", "1", "--L", "2", "--h", "0.25")
runs = {
    "sublevel": ("sublevel", "--potential", "x1^2+x2^2", "--M", "4", "--R", "3",
                 "--budget", "1000"),
    "thinness": ("thinness", "--potential", "x1^2", "--nu", "2", "--M", "1", "--r", "2",
                 "--radii", "10,20,40", "--budget", "1000"),
    "inequalities": ("inequalities", "--trials", "5", "--dim", "3"),
    "kernel-power": ("kernel-power", "--potential", "x1^2*x2^2", "--M", "1", "--R", "1",
                     "--L", "2", "--h", "0.25"),
    "heat-diagnostics": HEAT,
    "heat-diagnostics expm-of-laplacian": (*HEAT, "--mode", "expm-of-laplacian"),
    "spectrum": ("spectrum", "--potential", "x1^2+x2^2", "--nu", "2", "--L", "2,3",
                 "--h", "0.5", "--k", "2"),
}
seen = {"import": "scipy.sparse" in sys.modules}
grid = spectralab.Grid(2, 2.0, 0.25)
cross = spectralab.parse_potential("x1^2*x2^2", 2)
cutoff, _ = spectralab.truncated_convolution(grid, 1.0, 1.0)
block = spectralab.d_kernel(grid, cross, 1.0, 1.0)
norms = [spectralab.operator_norm(K)
         for K in (spectralab.compose_C(grid, cross), cutoff, block)]
paths = cutoff._cutoff is not None and block._factor is None
seen["operator_norm"] = (paths and min(norms) > 0.0, "scipy.sparse" in sys.modules)
for i, (name, args) in enumerate(runs.items()):
    code = spectralab.cli.main([*args, "--output-dir", f"{out}/{i}"])
    seen[name] = (code, "scipy.sparse" in sys.modules)
print(json.dumps(seen))
"""


def test_only_the_spectrum_study_loads_scipy_sparse(tmp_path):
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False,
                    "operator_norm": [True, False],
                    "sublevel": [0, False],
                    "thinness": [0, False],
                    "inequalities": [0, False],
                    "kernel-power": [0, False],
                    "heat-diagnostics": [0, False],
                    "heat-diagnostics expm-of-laplacian": [0, False],
                    "spectrum": [0, True]}
