"""The benchmark's tracer wraps dephchain's names in place, among them the
scipy kernels ``lindblad.expm``, ``lindblad.splinalg`` and
``fastpath.solve_ivp``. Removing one of those imports breaks
``dephbench/run.py --trace 1`` without failing any other test, so a traced
run is made here, in a subprocess that keeps the wrapping out of this one.
``correlation-map`` solves for its steady state without propagating, so a
small ``evolve`` is traced as well."""

import json
import subprocess
import sys
from pathlib import Path

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
basis = dephchain.ManyBodyBasis(3, 1)
dephchain.evolve(dephchain.DensityMatrix.from_pure(dephchain.fock_state(basis, "010")),
                 dephchain.dephasing_liouvillian(dephchain.LatticeSpec(n_sites=3), basis),
                 [0.0, 1.0])
metrics, _ = tracing.layer_metrics(tracer.spans, tracer.counters)
print(json.dumps({{name: value for name, (value, _unit) in metrics.items()}}))
"""


def test_tracer_installs_and_traces_correlation_map():
    script = TRACED_RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "dephbench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    assert metrics["fastpath.calls"] >= 1
    assert metrics["lindblad.steady_calls"] >= 1
    assert metrics["lindblad.expm_multiply_calls"] >= 1
