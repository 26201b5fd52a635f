import json

import numpy as np
import pytest

from dephchain.cli import main
from dephchain.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from dephchain import experiments
from dephchain.experiments import run
from dephchain.fock import ManyBodyBasis, bilinear_operator, fock_state
from dephchain.lindblad import dephasing_liouvillian, evolve
from dephchain.model import LatticeSpec
from dephchain.oracle import analytic_steady_state


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_default_configs_are_valid_and_round_trip(kind):
    config = default_config(kind)
    payload = config_to_dict(config)
    rebuilt = config_from_dict(payload)
    assert config_to_dict(rebuilt) == payload


def test_file_round_trip(tmp_path):
    config = default_config("fock-quench")
    path = tmp_path / "cfg.json"
    save_config(config, path)
    again = load_config(path)
    assert config_to_dict(again) == config_to_dict(config)


def test_unknown_fields_rejected():
    payload = config_to_dict(default_config("steady"))
    payload["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(payload)


def test_unknown_kind_rejected():
    payload = config_to_dict(default_config("steady"))
    payload["kind"] = "explode"
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict(payload)


def test_lattice_validation_surfaces_field():
    payload = config_to_dict(default_config("steady"))
    payload["lattice"]["n_sites"] = 4
    with pytest.raises(ConfigError, match="lattice"):
        config_from_dict(payload)


def test_time_grid_must_increase():
    payload = config_to_dict(default_config("evolve"))
    payload["time_grid"] = {"points": [0.0, 2.0, 1.0]}
    with pytest.raises(ConfigError, match="time_grid"):
        config_from_dict(payload)


def test_missing_required_blocks():
    payload = config_to_dict(default_config("fock-quench"))
    del payload["quench"]
    with pytest.raises(ConfigError, match="quench"):
        config_from_dict(payload)
    payload = config_to_dict(default_config("robustness-aa"))
    del payload["scan"]
    with pytest.raises(ConfigError, match="scan"):
        config_from_dict(payload)


def test_initial_state_validation():
    with pytest.raises(ConfigError, match="initial_state"):
        config_from_dict({
            "kind": "steady",
            "lattice": {"n_sites": 3},
            "initial_state": {"type": "fock"},
        })


def test_overrides():
    payload = config_to_dict(default_config("steady"))
    out = apply_overrides(payload, ["lattice.n_sites=5",
                                    "initial_state.bitstring=00100",
                                    "convergence_tol=1e-8"])
    config = config_from_dict(out)
    assert config.lattice.n_sites == 5
    assert config.initial_state.bitstring == "00100"
    assert config.convergence_tol == 1e-8
    # original untouched
    assert payload["lattice"]["n_sites"] == 3


def test_override_requires_equals():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["oops"])


# ----------------------------------------------------------------------
# runner outputs
# ----------------------------------------------------------------------

def test_run_writes_outputs_and_summary(tmp_path):
    config = default_config("steady")
    result = run(config, out_dir=tmp_path)
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "density_matrix.json").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["invariants_ok"] is True
    assert summary["rho_22"] == pytest.approx(0.5, abs=1e-7)
    payload = json.loads((tmp_path / "density_matrix.json").read_text())
    assert payload["dim"] == 3
    assert len(payload["data"]) == 9
    assert result.kind == "steady"


def test_evolve_with_t_zero_grid(tmp_path):
    config = default_config("evolve")
    payload = config_to_dict(config)
    payload["lattice"]["n_sites"] = 3
    payload["time_grid"] = {"points": [0.0]}
    payload["observables"] = ["occ:2", "corr:1,3"]
    payload["initial_state"] = {"type": "fock", "bitstring": "010"}
    result = run(config_from_dict(payload), out_dir=tmp_path)
    header, rows = result.tables["timeseries"]
    assert rows[0][header.index("occ:2_re")] == pytest.approx(1.0)
    assert rows[0][header.index("corr:1,3_re")] == pytest.approx(0.0)


# One small config per experiment kind, as overrides of its default.
SMALL_OVERRIDES = {
    "evolve": ["lattice.n_sites=5", 'time_grid={"start": 0, "stop": 5, "num": 11}',
               'observables=["corr:1,5"]'],
    "steady": [],
    "correlation-map": ["lattice.n_sites=5"],
    "concurrence-scan": ["scan.sizes=[3, 5]", "scan.fillings=[1, 2]", "scan.dynamical=true"],
    "fock-quench": ["lattice.n_sites=5", 'initial_state.bitstring="10101"',
                    'time_grid={"start": 0, "stop": 10, "num": 101}',
                    "quench.time=4.0", "quench.window=2.0"],
    "robustness-aa": ["lattice.n_sites=5", "scan.n_values=3", "scan.times=[1.0, 2.0]"],
    "robustness-int": ["lattice.n_sites=5", 'initial_state.bitstring="10101"',
                       "scan.n_values=3", "scan.times=[2.0]"],
}


def _small(kind, *overrides):
    payload = config_to_dict(default_config(kind))
    return config_from_dict(apply_overrides(payload, [*SMALL_OVERRIDES[kind], *overrides]))


def test_run_is_deterministic(tmp_path):
    assert set(SMALL_OVERRIDES) == set(EXPERIMENT_KINDS)
    for kind in EXPERIMENT_KINDS:
        config = _small(kind)
        first = run(config, out_dir=tmp_path / kind / "a")
        run(config, out_dir=tmp_path / kind / "b")
        names = sorted(p.name for p in (tmp_path / kind / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / kind / "b").iterdir())
        assert "summary.json" in names and first.invariants_ok, kind
        for name in names:
            assert (tmp_path / kind / "a" / name).read_bytes() == \
                (tmp_path / kind / "b" / name).read_bytes(), f"{kind}: {name}"


def test_evolve_uses_the_lattice_trap():
    config = _small("evolve", "lattice.trap_amplitude=2.0")
    trapped = run(config).tables["timeseries"][1]
    bare = run(_small("evolve")).tables["timeseries"][1]
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    liouvillian = dephasing_liouvillian(LatticeSpec(n_sites=5, trap_amplitude=2.0), basis)
    expected = evolve(rho0, liouvillian,
                      config.time_grid.values()).expectations(bilinear_operator(basis, 1, 5))
    assert np.allclose([row[1] for row in trapped], expected.real, rtol=0, atol=1e-12)
    assert abs(bare[-1][1] - trapped[-1][1]) > 0.1


def test_concurrence_scan_uses_the_lattice():
    # The even-sector state is stationary only for the bare chain; the
    # quasi-periodic potential of the config must reach the generator.
    result = run(_small("concurrence-scan", "lattice.aa_amplitude=0.3", "scan.dynamical=false"))
    assert result.summary["checks"]["max_sector_residual"] == pytest.approx(0.15, abs=0.01)
    assert result.invariants_ok is False


def test_correlation_map_reads_convergence_tol(tmp_path):
    # |10000> has undamped weight whose residual is 0.25.
    args = ["correlation-map", "--out", str(tmp_path), "--override", "lattice.n_sites=5",
            "--override", 'initial_state={"type": "fock", "bitstring": "10000"}']
    assert main(args) == 3
    assert main(args + ["--override", "convergence_tol=1.0"]) == 0


def _small_quench(time_grid, quench_time):
    payload = config_to_dict(default_config("fock-quench"))
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"] = {"type": "fock", "bitstring": "10101"}
    payload["time_grid"] = time_grid
    payload["quench"].update({"time": quench_time, "window": 2.0})
    return config_from_dict(payload)


@pytest.mark.parametrize("quench_time, on_grid", [(4.0, True), (4.03, False)],
                         ids=["on-grid", "between-samples"])
def test_fock_quench_state_matches_fresh_propagation(monkeypatch, quench_time, on_grid):
    config = _small_quench({"start": 0.0, "stop": 10.0, "num": 101}, quench_time)
    assert (quench_time in config.time_grid.values()) == on_grid
    starts = []

    def recording(rho0, *args, **kwargs):
        starts.append(rho0)
        return evolve(rho0, *args, **kwargs)

    monkeypatch.setattr(experiments, "evolve", recording)
    run(config)
    # bare trajectory, [carry to t_quench,] post-quench window
    assert len(starts) == (2 if on_grid else 3)
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    fresh = evolve(rho0,
                   dephasing_liouvillian(config.lattice, basis), [quench_time]).states[-1]
    assert np.abs(starts[-1] - fresh).max() < 1e-12


@pytest.mark.parametrize("key, value", [("min_eigenvalue", -5e-8), ("max_herm_dev", 5e-10)])
def test_fock_quench_verdict_reads_the_post_quench_trajectory(monkeypatch, key, value):
    # Each value lies past its limit but short of the abort level, and only
    # the post-quench trajectory (the second of two on-grid calls) carries it.
    config = _small_quench({"start": 0.0, "stop": 10.0, "num": 101}, 4.0)
    calls = []

    def breaking(*args, **kwargs):
        trajectory = evolve(*args, **kwargs)
        calls.append(trajectory)
        if len(calls) == 2:
            trajectory.diagnostics[key] = value
        return trajectory

    monkeypatch.setattr(experiments, "evolve", breaking)
    result = run(config)
    assert len(calls) == 2
    assert result.summary["checks"][key] == value
    assert result.invariants_ok is False


def test_fock_quench_points_grid_uses_window_step():
    # A points grid has no spacing: the post-quench window takes window / 400.
    config = _small_quench({"points": [0.0, 0.5, 1.3, 2.0, 3.7, 5.0, 8.0]}, 4.2)
    result = run(config)
    header, rows = result.tables["fock_quench"]
    post_t = np.array([r[0] for r in rows if r[-1] == 1]) - 4.2
    assert post_t.shape == (401,)
    assert np.abs(post_t - np.linspace(0.0, 2.0, 401)).max() < 1e-12
    assert [r[0] for r in rows if r[-1] == 0] == [0.0, 0.5, 1.3, 2.0, 3.7]
    assert result.invariants_ok


@pytest.mark.parametrize("kind, initial_state", [
    ("robustness-aa", {"type": "ground"}),
    ("robustness-int", {"type": "fock", "bitstring": "10101"}),
])
def test_robustness_runs_report_invariants(kind, initial_state):
    payload = config_to_dict(default_config(kind))
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"] = initial_state
    payload["scan"].update({"n_values": 3, "times": [10.0]})
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["max_trace_dev"] < 1e-9
    assert checks["max_herm_dev"] < 1e-9
    assert checks["min_eigenvalue"] > -1e-8
    assert result.invariants_ok is True


def test_concurrence_scan_small(tmp_path):
    payload = config_to_dict(default_config("concurrence-scan"))
    payload["scan"] = {"sizes": [3, 5], "fillings": [1, 2]}
    result = run(config_from_dict(payload), out_dir=tmp_path)
    header, rows = result.tables["concurrence"]
    values = {(r[0], r[1], r[2]): r[3] for r in rows}
    assert values[(3, 1, 1)] == pytest.approx(0.5, abs=1e-8)
    assert values[(3, 2, 1)] == pytest.approx(1.0, abs=1e-8)
    assert values[(5, 2, 2)] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert result.summary["checks"]["monotone_in_filling"] is True


@pytest.mark.parametrize("kind, keys", [
    ("steady", ("max_trace_dev", "max_herm_dev", "min_eigenvalue")),
    ("correlation-map", ("trace_drift", "min_occupation", "max_occupation")),
    ("concurrence-scan", ("max_trace_dev", "max_herm_dev", "min_eigenvalue")),
])
def test_steady_runners_report_invariants(kind, keys):
    payload = config_to_dict(default_config(kind))
    if kind == "concurrence-scan":
        payload["scan"] = {"sizes": [3, 5], "fillings": [1, 2], "dynamical": True}
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert set(keys) <= set(checks)
    assert "elapsed_time" not in result.summary
    assert result.invariants_ok is True


@pytest.mark.parametrize("kind", ["correlation-map", "concurrence-scan"])
def test_steady_runners_flag_a_broken_invariant(monkeypatch, kind):
    # The verdict reads the occupation bound (correlation-map) and the
    # per-sector trace (concurrence-scan from the closed-form states; a
    # rescaled steady state still has a vanishing residual).
    payload = config_to_dict(default_config(kind))
    if kind == "correlation-map":
        real = experiments.fastpath.steady_correlation
        monkeypatch.setattr(experiments.fastpath, "steady_correlation",
                            lambda *args, **kwargs: 1.5 * real(*args, **kwargs))
    else:
        real = experiments.oracle.even_sector_steady_state

        def skewed(n_sites, n_particles):
            return (1.0 + 1e-6) * real(n_sites, n_particles)

        monkeypatch.setattr(experiments.oracle, "even_sector_steady_state", skewed)
        payload["scan"] = {"sizes": [3], "fillings": [1]}
    assert run(config_from_dict(payload)).invariants_ok is False


def test_correlation_map_matches_analytic(tmp_path):
    payload = config_to_dict(default_config("correlation-map"))
    payload["lattice"]["n_sites"] = 5
    result = run(config_from_dict(payload), out_dir=tmp_path)
    assert result.summary["checks"]["max_dev_from_analytic"] < 1e-7
    header, rows = result.tables["correlation_map"]
    assert len(rows) == 25


def test_unknown_observable_raises():
    payload = config_to_dict(default_config("evolve"))
    payload["observables"] = ["bananas"]
    with pytest.raises(ValueError, match="bananas"):
        run(config_from_dict(payload))


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def test_cli_dump_config(capsys):
    code = main(["steady", "--dump-config"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["kind"] == "steady"


def test_cli_steady_run(tmp_path, capsys):
    code = main(["steady", "--out", str(tmp_path)])
    assert code == 0
    assert "steady: ok" in capsys.readouterr().out
    assert (tmp_path / "summary.json").exists()


def test_cli_override_and_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    save_config(default_config("steady"), cfg)
    code = main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--override", "lattice.dephasing_gamma=2.0"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["lattice"]["dephasing_gamma"] == 2.0


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_config(default_config("steady"), cfg)
    code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "kind" in capsys.readouterr().err


def test_cli_bad_config_value(tmp_path, capsys):
    code = main(["steady", "--out", str(tmp_path),
                 "--override", "lattice.n_sites=4"])
    assert code == 2
    assert "lattice" in capsys.readouterr().err


def test_cli_nonconvergence_exit_code(tmp_path, capsys):
    # A particle on site 1 of five sites puts weight on the two dark odd
    # modes, whose coherence oscillates at omega = 2 at any gamma.
    code = main([
        "steady", "--out", str(tmp_path),
        "--override", "lattice.n_sites=5",
        "--override", 'initial_state.bitstring="10000"',
        "--override", "lattice.dephasing_gamma=100.0",
    ])
    assert code == 3
    assert "steady state not reached" in capsys.readouterr().err


def test_cli_slow_relaxation_reaches_exact_limit(tmp_path):
    # At N = 3 the one dark mode has no partner to oscillate against, so
    # |100> relaxes, even though at gamma = 100 (Zeno regime) it takes a time
    # of order 1000: the exact limit is returned, not a timeout. Half the
    # particle sits in the dark mode (1, 0, -1)/sqrt(2), half relaxes to the
    # even-sector X state.
    code = main([
        "steady", "--out", str(tmp_path),
        "--override", 'initial_state.bitstring="100"',
        "--override", "lattice.dephasing_gamma=100.0",
    ])
    assert code == 0
    dark = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    expected = 0.5 * np.outer(dark, dark) + 0.5 * analytic_steady_state(3)
    data = json.loads((tmp_path / "density_matrix.json").read_text())["data"]
    rho = np.array([complex(re, im) for re, im in data]).reshape(3, 3)
    assert np.abs(rho - expected).max() < 1e-12


def test_cli_quench_time_before_grid_is_config_error(tmp_path, capsys):
    # No bare sample precedes a quench at t = 2 on a grid that starts at 5.
    code = main([
        "fock-quench", "--out", str(tmp_path),
        "--override", "lattice.n_sites=5",
        "--override", 'initial_state.bitstring="10101"',
        "--override", 'time_grid={"start": 5.0, "stop": 10.0, "num": 11}',
        "--override", "quench.time=2.0",
    ])
    assert code == 2
    assert "quench.time" in capsys.readouterr().err


def test_cli_fock_quench_on_a_grid_with_no_spacing(tmp_path):
    # stop = start leaves no grid spacing: the window takes window / 400.
    code = main([
        "fock-quench", "--out", str(tmp_path),
        "--override", "time_grid.stop=0",
        "--override", "quench.time=0",
    ])
    assert code == 0
    rows = (tmp_path / "fock_quench.csv").read_text().splitlines()[1:]
    post_t = np.array([float(r.split(",")[0]) for r in rows if r.endswith(",1")])
    assert np.abs(post_t - np.linspace(0.0, 20.0, 401)).max() < 1e-12


def test_cli_concurrence_scan_size_without_a_pair_is_config_error(tmp_path, capsys):
    code = main(["concurrence-scan", "--out", str(tmp_path),
                 "--override", "scan.sizes=[1,3]"])
    assert code == 2
    assert "scan.sizes" in capsys.readouterr().err


def test_cli_correlation_map_nonconvergence_exit_code(tmp_path, capsys):
    # A particle on site 1 straddles the parity sectors: the coherences
    # between undamped odd modes never settle.
    code = main([
        "correlation-map", "--out", str(tmp_path),
        "--override", "lattice.n_sites=5",
        "--override", 'initial_state={"type": "fock", "bitstring": "10000"}',
    ])
    assert code == 3
    assert "steady state not reached" in capsys.readouterr().err


# ----------------------------------------------------------------------
# conservation verdict
# ----------------------------------------------------------------------

@pytest.mark.parametrize("override, broken", [
    ("lattice.aa_amplitude=0.5", ["charge_drift", "parity_even_drift"]),
    ("lattice.interaction=0.5", ["charge_drift"]),
], ids=["aa", "interaction"])
def test_evolve_does_not_enforce_charges_the_model_breaks(tmp_path, override, broken):
    # The drifts stay in the summary, but only the charges that commute with
    # the jump and the Hamiltonian count toward the verdict.
    code = main(["evolve", "--out", str(tmp_path), "--override", override,
                 "--override", "lattice.n_sites=7", "--override", 'observables=["corr:1,7"]',
                 "--override", 'initial_state={"type":"fock","bitstring":"1010101"}'])
    assert code == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["not_enforced"] == broken
    assert all(checks[key] > 1e-3 for key in broken)
    assert checks["number_drift"] < 1e-8


def test_fock_quench_does_not_enforce_charges_the_model_breaks():
    payload = config_to_dict(_small_quench({"start": 0.0, "stop": 10.0, "num": 101}, 4.0))
    payload["lattice"]["aa_amplitude"] = 0.3
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["not_enforced"] == ["charge_drift", "parity_even_drift"]
    assert checks["charge_drift"] > 1e-3
    assert result.invariants_ok is True


def test_bare_chain_charge_drift_fails_the_verdict(monkeypatch):
    # The last sample is swapped for a state with the same particle number
    # and reflection weight but the central site filled: only the charge
    # drifts, and the bare chain conserves it, so the verdict fails.
    payload = config_to_dict(default_config("evolve"))
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"] = {"type": "fock", "bitstring": "11000"}
    payload["time_grid"] = {"start": 0.0, "stop": 5.0, "num": 11}
    payload["observables"] = ["charge"]

    def drifting(rho0, *args, **kwargs):
        trajectory = evolve(rho0, *args, **kwargs)
        moved = fock_state(ManyBodyBasis(5, 2), "10100")
        trajectory.states[-1] = np.outer(moved, moved.conj())
        return trajectory

    monkeypatch.setattr(experiments, "evolve", drifting)
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["not_enforced"] == []
    assert checks["charge_drift"] == pytest.approx(1.0)
    assert checks["number_drift"] < 1e-8 and checks["parity_even_drift"] < 1e-8
    assert result.invariants_ok is False
