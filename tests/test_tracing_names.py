"""The benchmark's tracer wraps dephchain's names in place, among them the
kernels ``lindblad.expm``, ``lindblad.splinalg`` and ``fastpath.solve_ivp``.
The first two are the library's own exponentials (``dephchain.exponential``,
bound in ``lindblad`` under the names the tracer reads), which ``evolve``
calls; ``fastpath.solve_ivp`` is scipy's, resolved lazily, on the tracer's
first read, by the module's ``__getattr__``. Losing any of the three names
breaks ``dephbench/run.py --trace 1`` without failing any other test, so a
traced run is made here, in a subprocess that keeps the wrapping out of this
one. ``correlation-map`` solves for its steady state without propagating, so
two small ``evolve`` calls are traced as well: N = 3, whose symmetry blocks
are propagated by dense ``expm``, and N = 7, Np = 4 with interaction 0.3,
whose blocks are too large for that and go to ``expm_multiply``.
``steady_state`` does not call ``steady_state_null_space``, the name the
tracer books as steady work, so that is called directly once as well."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.dont_write_bytecode = True   # leave no bytecode beside the benchmark
sys.path[:0] = [{src!r}, {bench!r}]
import dephchain
from dephchain.config import config_from_dict, config_to_dict, default_config
from dephchain.experiments import run
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
payload = config_to_dict(default_config("correlation-map"))
payload["lattice"]["n_sites"] = 5
run(config_from_dict(payload))
for spec, bits in ((dephchain.LatticeSpec(n_sites=3), "010"),
                   (dephchain.LatticeSpec(n_sites=7, interaction=0.3), "1010101")):
    basis = dephchain.ManyBodyBasis(spec.n_sites, bits.count("1"))
    dephchain.evolve(dephchain.pure_state(dephchain.fock_state(basis, bits)),
                     dephchain.dephasing_liouvillian(spec, basis), [0.0, 1.0])
dephchain.steady_state_null_space(dephchain.dephasing_liouvillian(
    dephchain.LatticeSpec(n_sites=3), dephchain.ManyBodyBasis(3, 1)))
metrics, _ = tracing.layer_metrics(tracer.spans, tracer.counters)
print(json.dumps({{name: value for name, (value, _unit) in metrics.items()}}))
"""


@pytest.fixture(scope="module")
def traced_metrics():
    script = TRACED_RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "dephbench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracer_installs_and_traces_correlation_map(traced_metrics):
    assert traced_metrics["fastpath.calls"] >= 1
    assert traced_metrics["lindblad.steady_calls"] >= 1
    assert traced_metrics["lindblad.expm_multiply_calls"] >= 1


def test_tracer_counts_dense_block_exponentials(traced_metrics):
    assert traced_metrics["lindblad.dense_expm_calls"] >= 1
