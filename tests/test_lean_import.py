"""Importing the package loads only the scipy modules the library runs.

Nothing in the library calls ``scipy.integrate``, which brings
``scipy.optimize`` and ``scipy.special`` along and costs about 0.4 s per
process; ``fastpath.solve_ivp`` loads it only when read. The library's own
``exponential`` module computes both matrix exponentials, so neither
``scipy.linalg`` nor ``scipy.sparse.linalg`` is loaded either, by the import
or by a propagation on either kernel; they would cost about 0.15 s and map
scipy's own OpenBLAS beside numpy's. The check reads ``sys.modules`` in a
fresh interpreter rather than timing the import, so it does not depend on
the machine's load."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Loaded by no call of the library.
UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg",
          "scipy.sparse.linalg")

FRESH_IMPORT = """
import sys
sys.path.insert(0, {src!r})
import dephchain, dephchain.cli
loaded = [name for name in {unused!r} if name in sys.modules]
assert not loaded, f"importing dephchain loaded {{loaded}}"
import scipy.integrate
assert dephchain.fastpath.solve_ivp is scipy.integrate.solve_ivp
try:
    dephchain.fastpath.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("fastpath.no_such_name did not raise AttributeError")
"""

# One evolve on each kernel (N = 3 on dense expm, interacting N = 7 on
# expm_multiply), then every default experiment.
FRESH_RUNS = """
import sys
sys.path.insert(0, {src!r})
import dephchain
from dephchain import config, experiments, lindblad
for spec, bits, dense in ((dephchain.LatticeSpec(n_sites=3), "010", True),
                          (dephchain.LatticeSpec(n_sites=7, interaction=0.3), "1010101", False)):
    basis = dephchain.ManyBodyBasis(spec.n_sites, bits.count("1"))
    liouvillian = dephchain.dephasing_liouvillian(spec, basis)
    assert lindblad._dense_route([liouvillian]) == dense
    dephchain.evolve(dephchain.pure_state(dephchain.fock_state(basis, bits)), liouvillian,
                     [0.0, 1.0])
loaded = [name for name in {unused!r} if name in sys.modules]
assert not loaded, f"evolve loaded {{loaded}}"
for kind in config.EXPERIMENT_KINDS:
    experiments.run(config.default_config(kind))
loaded = [name for name in {unused!r} if name in sys.modules]
assert not loaded, f"the default experiments loaded {{loaded}}"
"""


def run_fresh(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script.format(src=str(ROOT / "src"), unused=UNUSED)],
        capture_output=True, text=True, timeout=120)


def test_import_loads_no_integrate_optimize_or_special():
    done = run_fresh(FRESH_IMPORT)
    assert done.returncode == 0, done.stderr


def test_evolve_and_the_default_experiments_load_no_scipy_linalg():
    done = run_fresh(FRESH_RUNS)
    assert done.returncode == 0, done.stderr
