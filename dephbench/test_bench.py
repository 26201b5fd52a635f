"""Tests of the benchmark itself.

    python3 -m pytest -q dephbench/test_bench.py

Runs each workload once at seed 0 (about a minute in all), shows that its
check passes on the program's outputs and fails once one output is
corrupted, and tests the payloads, the tracer and the refusal to run
without ``src/``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dephchain.config import config_from_dict, config_to_dict, default_config  # noqa: E402
from dephchain.experiments import run  # noqa: E402


def _merge(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict):
            _merge(base.setdefault(key, {}), value)
        else:
            base[key] = value
    return base


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_is_the_default_config(workload):
    kind, overrides = workloads.DEFAULT_KIND[workload]
    expected = _merge(config_to_dict(default_config(kind)), overrides)
    assert config_from_dict(workloads.payload(workload, 0)) == config_from_dict(expected)


def test_seed_draws_only_the_interaction_values():
    for workload in workloads.WORKLOADS:
        if workload != "interaction-scan":
            assert workloads.payload(workload, 7) == workloads.payload(workload, 0)
    values = workloads.payload("interaction-scan", 7)["scan"]["values"]
    assert values == workloads.payload("interaction-scan", 7)["scan"]["values"]
    assert values != workloads.payload("interaction-scan", 8)["scan"]["values"]
    assert len(values) == 8 and all(0.0 <= v <= 0.5 for v in values)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    for workload in workloads.WORKLOADS:
        run(config_from_dict(workloads.payload(workload, 0)), out_dir=root / workload)
    return root


def _corrupt(path: Path, column: str, row: int, delta: float) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    k = header.index(column)
    rows[row][k] = repr(float(rows[row][k]) + delta)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])


CORRUPTIONS = {
    "quench": ("fock_quench.csv", "corr_im", 700, 1e-7),
    "interaction-scan": ("robustness_int.csv", "concurrence_1N", 3, 1e-6),
    "steady-survey": ("concurrence.csv", "concurrence", 20, 1e-5),
    "pair-map": ("correlation_map.csv", "re", 41 * 5 + 7, 1e-6),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_passes_and_catches_one_corrupted_output(workload, outputs, tmp_path):
    payload = workloads.payload(workload, 0)
    assert checks.CHECKS[workload](payload, outputs / workload) == []
    corrupted = tmp_path / workload
    shutil.copytree(outputs / workload, corrupted)
    _corrupt(corrupted / CORRUPTIONS[workload][0], *CORRUPTIONS[workload][1:])
    assert checks.CHECKS[workload](payload, corrupted)


def test_check_rejects_failed_invariants(outputs, tmp_path):
    corrupted = tmp_path / "pair-map"
    shutil.copytree(outputs / "pair-map", corrupted)
    summary = json.loads((corrupted / "summary.json").read_text())
    summary["invariants_ok"] = False
    (corrupted / "summary.json").write_text(json.dumps(summary))
    assert checks.check_pair_map(workloads.payload("pair-map", 0), corrupted)


def test_taylor_propagate_matches_a_rotation():
    generator = np.array([[0.0, -1.0], [1.0, 0.0]])
    times = [0.0, 1.0, 10.0]
    states = checks.taylor_propagate(lambda v: generator @ v, [1.0, 0.0], times, norm=1.0)
    for t, state in zip(times, states):
        assert state == pytest.approx([np.cos(t), np.sin(t)], abs=1e-13)


def test_traced_worker_accounts_for_run_time(tmp_path):
    payload = workloads.payload("quench", 0)
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"]["bitstring"] = "10101"
    payload["time_grid"] = {"start": 0.0, "stop": 10.0, "num": 101}
    payload["quench"].update(time=5.0, window=2.0, transient=1.0)
    (tmp_path / "config.json").write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--payload", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "outputs"), "--spans", str(tmp_path / "spans.json")],
        env={"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    spans = json.loads((tmp_path / "spans.json").read_text())
    metrics, self_total = tracing.layer_metrics(spans["spans"], spans["counters"])
    assert self_total == pytest.approx(record["run_s"], rel=1e-2)
    value = {name: v for name, (v, _unit) in metrics.items()}
    # bare trajectory, the state at the quench, and the post-quench window
    assert value["lindblad.evolve_calls"] == 3
    assert value["lindblad.propagated_t"] == pytest.approx(10.0 + 5.0 + 2.0)
    assert value["lindblad.build_calls"] == 4        # two dephasing_liouvillian + two builds
    assert value["lindblad.dense_expm_calls"] > 0
    assert value["lindblad.expm_multiply_calls"] == 0
    assert value["experiments.emit_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "outputs").iterdir())
    assert value["fock.calls"] > 0 and value["lindblad.observe_calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "dephbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "dephbench/run.py", "--workload", "pair-map", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_printed_metrics_are_the_declared_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = tracing.layer_metrics([], dict.fromkeys(tracing.COUNTERS, 0))
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in bench["per_layer"]}
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
