import dataclasses
import itertools
import json

import numpy as np
import pytest

from dephchain.cli import main
from dephchain.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    InitialState,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
)
from dephchain import cli, experiments, lindblad
from dephchain.experiments import run
from dephchain.fock import ManyBodyBasis, bilinear_operator, expectation, fock_state
from dephchain.lindblad import dephasing_liouvillian, evolve, evolve_scan
from dephchain.model import LatticeSpec, bare_mode_parity
from dephchain.oracle import long_time_correlation
from oracles import correlation_matrix


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_default_configs_are_valid_and_round_trip(kind):
    config = default_config(kind)
    payload = config_to_dict(config)
    rebuilt = config_from_dict(payload)
    assert config_to_dict(rebuilt) == payload


def test_steady_default_carries_no_observables():
    # The steady runner reads no observables, so its defaults name none.
    assert default_config("steady").observables == ()


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
    run(default_config("steady"), out_dir=tmp_path)
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "density_matrix.json").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["invariants_ok"] is True
    assert summary["rho_22"] == pytest.approx(0.5, abs=1e-7)
    payload = json.loads((tmp_path / "density_matrix.json").read_text())
    assert payload["dim"] == 3
    assert len(payload["data"]) == 9


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
        assert first.summary["config"] == config_to_dict(config) and "checks" in first.summary
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
    expected = expectation(evolve(rho0, liouvillian, config.time_grid.values()).states,
                           bilinear_operator(basis, 1, 5))
    assert np.allclose([row[1] for row in trapped], expected.real, rtol=0, atol=1e-12)
    assert abs(bare[-1][1] - trapped[-1][1]) > 0.1


def test_slater_input_is_the_determinant_of_its_modes():
    # Its two-point matrix is Phi Phi^T, the C0 that correlation-map reads.
    config = _small("evolve", 'initial_state={"type": "slater", "modes": [1, 3]}')
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    modes = bare_mode_parity(5).modes[:, [0, 2]]
    assert basis.n_particles == 2 and np.trace(rho0 @ rho0).real == pytest.approx(1.0)
    assert np.abs(correlation_matrix(rho0, basis) - modes @ modes.T).max() < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_fock_input_is_the_determinant_of_its_sites(n):
    # A Fock string is the Slater determinant of its site columns; the
    # all-zero string is the empty determinant, the vacuum.
    spec = LatticeSpec(n_sites=n)
    for bits in itertools.product("01", repeat=n):
        bitstring = "".join(bits)
        basis, rho0 = experiments.build_initial_state(spec, InitialState("fock", bitstring))
        assert np.array_equal(rho0, lindblad.pure_state(fock_state(basis, bitstring))), bitstring


def test_purity_observable_is_tr_rho_squared():
    config = _small("evolve", 'observables=["purity"]')
    header, rows = run(config).tables["timeseries"]
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    states = evolve(rho0, dephasing_liouvillian(config.lattice, basis),
                    config.time_grid.values()).states
    assert header == ["t", "purity_re", "purity_im"]
    assert np.allclose([row[1] for row in rows], np.einsum("tij,tji->t", states, states).real,
                       rtol=0, atol=1e-12)
    assert rows[0][1] == pytest.approx(1.0) and rows[-1][1] < 0.99
    assert all(row[2] == 0 for row in rows)


def test_fock_quench_auto_takes_the_first_post_transient_maximum():
    config = _small("fock-quench", 'quench.time="auto"', "quench.transient=2.0")
    result = run(config)
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    times = config.time_grid.values()
    corr = np.abs(expectation(evolve(rho0, dephasing_liouvillian(config.lattice, basis),
                                     times).states, bilinear_operator(basis, 1, 5)))
    peaks = [k for k in range(1, len(times) - 1)
             if times[k] >= 2.0 and corr[k] >= max(corr[k - 1], corr[k + 1])]
    assert peaks and result.summary["quench_time"] == times[peaks[0]]
    assert result.summary["checks"]["pre_quench_local_max"] == pytest.approx(corr[peaks[0]])


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
    # The quasiperiodic potential breaks the charge and the reflection, the
    # interaction only the charge; the particle number always holds.
    broken = {"robustness-aa": ["charge_drift", "parity_even_drift"],
              "robustness-int": ["charge_drift"]}[kind]
    payload = config_to_dict(default_config(kind))
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"] = initial_state
    payload["scan"].update({"n_values": 3, "times": [10.0]})
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["max_trace_dev"] < 1e-9
    assert checks["max_herm_dev"] < 1e-9
    assert checks["min_eigenvalue"] > -1e-8
    assert checks["not_enforced"] == broken
    for key in ("charge_drift", "number_drift", "parity_even_drift"):
        assert key in broken or checks[key] < 1e-8, key
    assert result.invariants_ok is True


def _read_as(trajectory, readouts, rho, samples):
    """Make the ``samples`` of ``trajectory`` read as the state ``rho``: the
    runners read their drifts from the readout series, not from states."""
    for name, operator in readouts.items():
        trajectory.series[name][samples] = expectation(rho, operator)


def test_robustness_int_parity_drift_fails_the_verdict(monkeypatch):
    # Every sample is swapped for a Fock state of the same particle number
    # whose even-reflection weight is 1/2 where rho0's is a whole number.
    # The interaction conserves that weight, so the verdict fails; a drift
    # measured from the first sample instead of rho0 would read 0.
    payload = config_to_dict(default_config("robustness-int"))
    payload["lattice"]["n_sites"] = 5
    payload["initial_state"] = {"type": "fock", "bitstring": "10101"}
    payload["scan"].update({"n_values": 3, "times": [10.0]})

    def drifting(rho0, liouvillians, times, readouts, keep=None):
        trajectories = evolve_scan(rho0, liouvillians, times, readouts, keep)
        moved = lindblad.pure_state(fock_state(ManyBodyBasis(5, 3), "11100"))
        for trajectory in trajectories:
            trajectory.states[:] = moved
            _read_as(trajectory, readouts, moved, slice(None))
        return trajectories

    monkeypatch.setattr(experiments, "evolve_scan", drifting)
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["not_enforced"] == ["charge_drift"]
    assert checks["parity_even_drift"] == pytest.approx(0.5)
    assert checks["number_drift"] < 1e-8
    assert result.invariants_ok is False


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


def test_concurrence_scan_flags_a_drop_in_filling(monkeypatch):
    # I/d commutes with H and the jump, so it is stationary, and it holds no
    # pair concurrence: put at filling 2, only the monotone check fails.
    real = experiments.oracle.even_sector_steady_state

    def mixed_at_two(n_sites, n_particles):
        rho = real(n_sites, n_particles)
        return np.eye(len(rho)) / len(rho) if n_particles == 2 else rho

    monkeypatch.setattr(experiments.oracle, "even_sector_steady_state", mixed_at_two)
    payload = config_to_dict(default_config("concurrence-scan"))
    payload["scan"] = {"sizes": [5], "fillings": [1, 2]}
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["monotone_in_filling"] is False and result.invariants_ok is False
    assert all(lower < checks[key] < upper for key, (lower, upper) in experiments.LIMITS.items()
               if key in checks and key != "monotone_in_filling")


def test_correlation_map_matches_analytic(tmp_path):
    payload = config_to_dict(default_config("correlation-map"))
    payload["lattice"]["n_sites"] = 5
    result = run(config_from_dict(payload), out_dir=tmp_path)
    assert result.summary["checks"]["max_dev_from_analytic"] < 1e-7
    header, rows = result.tables["correlation_map"]
    assert len(rows) == 25


@pytest.mark.parametrize("overrides, reflection", [
    ([], True),
    (["lattice.trap_amplitude=1.0"], True),
    (["lattice.aa_amplitude=0.4"], False),
    (["lattice.trap_amplitude=1.0", "lattice.trap_center=3"], False),
], ids=["bare", "centred-trap", "quasi-periodic", "off-centre-trap"])
def test_correlation_map_compares_with_the_closed_form_only_under_reflection(
        tmp_path, overrides, reflection):
    # The closed form holds only where site reflection does.
    code = main(["correlation-map", "--out", str(tmp_path),
                 *[arg for item in overrides for arg in ("--override", item)]])
    assert code == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert ("max_dev_from_analytic" in checks) is reflection
    if reflection:
        assert checks["max_dev_from_analytic"] < 1e-12


def test_correlation_map_runs_past_63_sites(tmp_path):
    # A 65-site chain's Fock masks need 65 bits; they stay Python ints.
    payload = config_to_dict(default_config("correlation-map"))
    payload["lattice"]["n_sites"] = 65
    result = run(config_from_dict(payload), out_dir=tmp_path)
    assert result.invariants_ok
    assert result.summary["checks"]["max_dev_from_analytic"] < 1e-12


@pytest.mark.parametrize("n_sites, initial_state", [
    (9, {"type": "slater", "modes": [2]}),
    (9, {"type": "slater", "modes": [1, 2]}),
    (9, {"type": "slater", "modes": [2, 4]}),
    (9, {"type": "slater", "modes": [1, 3, 4]}),
    (3, {"type": "fock", "bitstring": "100"}),
    (3, {"type": "fock", "bitstring": "101"}),
], ids=["slater-2", "slater-1-2", "slater-2-4", "slater-1-3-4", "fock-100", "fock-101"])
def test_correlation_map_settles_on_the_closed_form_with_odd_mode_weight(n_sites, initial_state):
    # The odd-mode part of C0 never decays; the reference keeps it.
    payload = config_to_dict(default_config("correlation-map"))
    payload["lattice"]["n_sites"] = n_sites
    payload["initial_state"] = initial_state
    result = run(config_from_dict(payload))
    assert result.summary["checks"]["max_dev_from_analytic"] < 1e-12


def test_unknown_observable_raises():
    payload = config_to_dict(default_config("evolve"))
    payload["observables"] = ["bananas"]
    with pytest.raises(ValueError, match="bananas"):
        run(config_from_dict(payload))


def test_bad_observable_raises_before_propagating(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("evolve called before the observables were parsed")

    monkeypatch.setattr(experiments, "evolve", unreachable)
    payload = config_to_dict(default_config("evolve"))
    payload["observables"] = ["corr:1,99"]
    with pytest.raises(ValueError, match="99"):
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
    cfg.write_text(json.dumps(config_to_dict(default_config("steady"))))
    code = main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--override", "lattice.dephasing_gamma=2.0"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["lattice"]["dephasing_gamma"] == 2.0


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config_to_dict(default_config("steady"))))
    code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[], "x"])
def test_cli_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code = main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "config error: config: expected a JSON object\n"


def test_cli_bad_config_value(tmp_path, capsys):
    # Each bad value is a config error (exit 2) that names its field, not a
    # traceback from the run it would have reached.
    for kind, override, field in [
        ("steady", "lattice.n_sites=4", "lattice"),
        ("evolve", "time_grid.num=2.5", "integer num"),
        ("evolve", "time_grid.points=[0.0,NaN]", "time_grid.points"),
        ("evolve", "time_grid.points=[0.0,Infinity]", "time_grid.points"),
        ("evolve", "time_grid.start=NaN", "time_grid.start"),
        ("evolve", "time_grid.stop=Infinity", "time_grid.stop"),
        ("evolve", 'time_grid.stop="x"', "time_grid.stop"),
        ("robustness-aa", "scan.n_values=2.5", "scan.n_values"),
        ("steady", 'convergence_tol="x"', "convergence_tol"),
        ("steady", "convergence_tol=-1", "convergence_tol"),
        ("robustness-aa", "scan.times=[5.0,-1.0]", "scan.times"),
        ("robustness-aa", "scan.times=[1.0,NaN]", "scan.times"),
        ("robustness-aa", "scan.times=[100.0,10.0]", "scan.times"),
        ("robustness-int", "scan.times=[-1.0]", "scan.times"),
        ("robustness-int", "scan.times=[Infinity]", "scan.times"),
        ("robustness-int", "scan.times=[5.0,-1.0]", "scan.times"),
        ("robustness-int", "scan.times=[10.0,5.0]", "scan.times"),
        ("robustness-int", "scan.times=[5.0,10.0]", "scan.times"),
        ("concurrence-scan", "scan.fillings=[1.5]", "scan.fillings"),
        ("concurrence-scan", "scan.fillings=[]", "scan.fillings"),
        ("concurrence-scan", "scan.fillings=[0]", "scan.fillings"),
        ("concurrence-scan", "scan.sizes=[]", "scan.sizes"),
        ("concurrence-scan", "scan.sizes=[4]", "scan.sizes"),
        ("concurrence-scan", "scan.sizes=[3.0]", "scan.sizes"),
        ("concurrence-scan", "scan.sizes=5", "scan.sizes"),
        ("concurrence-scan", "scan.sizes=[3] scan.fillings=[3]", "scan.fillings"),
        # Bools and non-finite numbers are refused in every numeric field.
        ("evolve", "lattice.n_sites=true", "n_sites"),
        ("steady", "lattice.trap_center=true", "trap_center"),
        ("steady", "lattice.trap_center=2.0", "trap_center"),
        ("steady", "lattice.dephasing_gamma=NaN", "dephasing_gamma"),
        ("steady", "lattice.dephasing_gamma=Infinity", "dephasing_gamma"),
        ("correlation-map", "lattice.dephasing_gamma=NaN", "dephasing_gamma"),
        ("correlation-map", "lattice.dephasing_gamma=Infinity", "dephasing_gamma"),
        ("concurrence-scan", "lattice.dephasing_gamma=NaN", "dephasing_gamma"),
        ("concurrence-scan", "lattice.dephasing_gamma=Infinity", "dephasing_gamma"),
        ("evolve", "lattice.tunneling=NaN", "tunneling"),
        ("evolve", "lattice.aa_amplitude=NaN", "aa_amplitude"),
        ("evolve", "lattice.aa_frequency=Infinity", "aa_frequency"),
        ("evolve", "lattice.trap_amplitude=true", "trap_amplitude"),
        ("robustness-int", "lattice.interaction=NaN", "interaction"),
        ("evolve", "time_grid.stop=true", "time_grid.stop"),
        ("fock-quench", "quench.window=NaN", "quench.window"),
        ("fock-quench", "quench.time=NaN", "quench.time"),
        ("fock-quench", "quench.time=true", "quench.time"),
        ("fock-quench", "quench.trap_amplitude=Infinity", "quench.trap_amplitude"),
        ("fock-quench", "quench.transient=NaN", "quench.transient"),
        ("robustness-aa", "scan.n_values=0", "scan.n_values"),
        ("robustness-aa", "scan.n_values=true", "scan.n_values"),
        ("robustness-aa", "scan.max_value=NaN", "scan.max_value"),
        ("robustness-int", "scan.values=[0.1,NaN]", "scan.values"),
        ("robustness-int", "scan.values=[]", "scan.values"),
        ("concurrence-scan", "scan.dynamical=1", "scan.dynamical"),
        # A malformed observable, or one naming a site off the chain.
        ("evolve", 'observables=["corr:1"]', "'corr:1'"),
        ("evolve", 'observables=["occ:x"]', "'occ:x'"),
        ("evolve", 'observables=["corr:1,99"]', "'corr:1,99'"),
        ("evolve", 'observables=["occ:0"]', "'occ:0'"),
        # A Fock string off the lattice, a trap centre off a scanned chain, and
        # a correlation map with no particle.
        ("evolve", 'initial_state.type="fock" initial_state.bitstring="101"',
         "initial_state.bitstring"),
        ("correlation-map", 'initial_state.type="fock" initial_state.bitstring="101"',
         "initial_state.bitstring"),
        ("concurrence-scan", "lattice.trap_center=9 lattice.trap_amplitude=1.0",
         "lattice.trap_center"),
        ("correlation-map", 'initial_state.type="fock" initial_state.bitstring="000000000"',
         "initial_state.bitstring"),
        # An energy scale at which eigh's rounding cannot meet BLOCK_JUMP_TOL,
        # named by the field that sets it (they ended in a RuntimeError).
        ("evolve", "lattice.tunneling=1e6", "lattice.tunneling"),
        ("steady", "lattice.trap_amplitude=1e6", "lattice.trap_amplitude"),
        ("correlation-map", "lattice.aa_amplitude=1e6", "lattice.aa_amplitude"),
        ("fock-quench", "quench.trap_amplitude=1e5", "quench.trap_amplitude"),
        ("robustness-int", "scan.max_value=1e6", "scan.max_value"),
        ("robustness-aa", "scan.values=[0.0,1e6]", "scan.values"),
        ("concurrence-scan", "scan.dynamical=true lattice.tunneling=1e6", "lattice.tunneling"),
        # correlation-map diagonalizes the one-particle H, so its bound counts one particle.
        ("correlation-map", 'lattice.tunneling=2.9e4 initial_state.type="slater" '
         "initial_state.modes=[1,3,5]", "lattice.tunneling"),
        # A field's own check runs whatever the kind, also where the kind never reads it.
        ("evolve", "scan.sizes=[4]", "scan.sizes"),
        ("evolve", "scan.fillings=[0]", "scan.fillings"),
        ("steady", "initial_state.modes=[0]", "initial_state.modes"),
        ("correlation-map", "scan.times=[5.0,-1.0]", "scan.times"),
        ("robustness-aa", "scan.times=null", "scan.times"),
        ("fock-quench", "initial_state.modes=[1,1]", "initial_state.modes"),
        ("evolve", 'initial_state.bitstring="012"', "initial_state.bitstring"),
        ("correlation-map", 'initial_state.type="slater" initial_state.modes=[[1]]',
         "initial_state.modes"),
        # A dephasing rate at which the steady state cannot meet its residual tolerance.
        ("steady", "lattice.dephasing_gamma=1e8", "lattice.dephasing_gamma"),
        ("correlation-map", "lattice.dephasing_gamma=1e7", "lattice.dephasing_gamma"),
        ("concurrence-scan", "scan.dynamical=true lattice.dephasing_gamma=3e6",
         "lattice.dephasing_gamma"),
    ]:
        # Space-separated overrides go in together.
        code = main([kind, "--out", str(tmp_path),
                     *[arg for item in override.split() for arg in ("--override", item)]])
        assert code == 2, override
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err, override


@pytest.mark.parametrize("n_sites, n_particles, field", [
    (7, 4, "trap_amplitude"), (11, 2, "aa_amplitude"), (9, 1, "tunneling"), (9, 4, "interaction")])
def test_energy_scale_just_inside_the_limit_builds_symmetry_blocks(n_sites, n_particles, field):
    # The sectors where eigh's rounding came closest to BLOCK_JUMP_TOL for
    # each field: at an energy bound just under ENERGY_SCALE_LIMIT every
    # check of the symmetry blocks still passes.
    spec = LatticeSpec(n_sites=n_sites)
    others = sum(spec.energy_terms(n_particles).values()) - spec.energy_terms(n_particles)[field]
    per_unit = dataclasses.replace(spec, **{field: 1.0}).energy_terms(n_particles)[field]
    spec = dataclasses.replace(spec, **{field: (0.99 * lindblad.ENERGY_SCALE_LIMIT - others)
                                        / per_unit})
    assert sum(spec.energy_terms(n_particles).values()) < lindblad.ENERGY_SCALE_LIMIT
    lindblad._symmetry_blocks(dephasing_liouvillian(spec, ManyBodyBasis(n_sites, n_particles)))


def test_correlation_map_energy_bound_counts_the_one_particle_hamiltonian(tmp_path):
    # Three particles would bound ||H|| by 6e4, beyond the limit, but the
    # two-point equation diagonalizes only the one-particle H, bounded by 2e4.
    code = main(["correlation-map", "--out", str(tmp_path),
                 "--override", "lattice.tunneling=1e4",
                 "--override", 'initial_state.type="slater"',
                 "--override", "initial_state.modes=[1,3,5]"])
    assert code == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["max_dev_from_analytic"] < 1e-12


@pytest.mark.parametrize("kind, overrides", [
    ("steady", []),
    ("correlation-map", []),
    ("concurrence-scan", ["scan.dynamical=true", "scan.sizes=[3,5]", "scan.fillings=[1,2]"]),
], ids=["steady", "correlation-map", "concurrence-scan-dynamical"])
def test_dephasing_rate_limit_sits_inside_the_steady_residual_guard(tmp_path, capsys, kind,
                                                                    overrides):
    # Just under the limit the steady states meet STEADY_RESIDUAL_TOL (the
    # scan holds N = 5 at one particle, the sector of the largest measured
    # residual per unit gamma); just over it the config is refused.
    for factor, expected in ((0.99, 0), (1.01, 2)):
        gamma = factor * float(lindblad.DEPHASING_RATE_LIMIT)
        code = main([kind, "--out", str(tmp_path / str(factor)),
                     *[arg for item in [*overrides, f"lattice.dephasing_gamma={gamma!r}"]
                       for arg in ("--override", item)]])
        assert code == expected, factor
    assert capsys.readouterr().err.startswith("config error: lattice.dephasing_gamma")


@pytest.mark.parametrize("kind, overrides", [
    ("evolve", []), ("concurrence-scan", []), ("fock-quench", []), ("robustness-aa", [])])
def test_dephasing_rate_limit_spares_kinds_without_a_steady_state(kind, overrides):
    code = main([kind, "--dump-config", "--override", "lattice.dephasing_gamma=1e8"])
    assert code == 0


@pytest.mark.parametrize("kind, override", [
    ("robustness-aa", "scan.n_values=4611686018427387904"),
    ("fock-quench", "time_grid.num=4611686018427387904"),
], ids=["scan", "time-grid"])
def test_validation_builds_no_grid(kind, override, capsys):
    # Both grids are too long to build; validation reads only their ends.
    assert main([kind, "--dump-config", "--override", override]) == 0


def test_energy_scale_limit_spares_runs_that_diagonalize_nothing(tmp_path):
    # The closed-form concurrence scan never diagonalizes a many-body H.
    payload = config_to_dict(default_config("concurrence-scan"))
    payload["lattice"]["trap_amplitude"] = 1e6
    payload["scan"].update(sizes=[3, 5], fillings=[1, 2])
    assert run(config_from_dict(payload)).invariants_ok


def test_cli_interacting_correlation_map_is_a_config_error(tmp_path, capsys):
    # The two-point equation closes only for a quadratic model.
    code = main(["correlation-map", "--out", str(tmp_path),
                 "--override", "lattice.interaction=0.3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: lattice.interaction")
    assert not (tmp_path / "summary.json").exists()


def test_cli_invariant_violation_exits_1(tmp_path, capsys, monkeypatch):
    # A negative trace limit fails the first sample, which aborts the run.
    monkeypatch.setitem(lindblad.LIMITS, "max_trace_dev", (-np.inf, -1.0))
    code = main(["evolve", "--out", str(tmp_path),
                 *[arg for item in SMALL_OVERRIDES["evolve"] for arg in ("--override", item)]])
    assert code == 1
    assert capsys.readouterr().err.startswith("invariant violation: trace deviation")


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
    # even-sector X state: the closed form's C, read as rho = C^T.
    code = main([
        "steady", "--out", str(tmp_path),
        "--override", 'initial_state.bitstring="100"',
        "--override", "lattice.dephasing_gamma=100.0",
    ])
    assert code == 0
    expected = long_time_correlation(np.diag([1.0, 0.0, 0.0])).T
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


@pytest.mark.parametrize("kind", ["robustness-aa", "robustness-int"])
def test_cli_robustness_chain_without_a_pair_is_config_error(tmp_path, capsys, kind):
    # One site has no end-to-end pair to reduce to.
    code = main([kind, "--out", str(tmp_path), "--override", "lattice.n_sites=1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: lattice.n_sites")


@pytest.mark.parametrize("modes", ["[0]", "[10]", "[1,1]"], ids=["zero", "past-n", "repeated"])
def test_cli_correlation_map_bad_slater_modes_are_config_errors(tmp_path, capsys, modes):
    # Mode 0 would wrap round to mode 9, mode 10 does not exist at N = 9, and
    # a repeated mode breaks the Pauli principle.
    code = main(["correlation-map", "--out", str(tmp_path),
                 "--override", "initial_state.type=slater",
                 "--override", f"initial_state.modes={modes}"])
    assert code == 2
    assert "initial_state.modes" in capsys.readouterr().err


def test_cli_fock_quench_auto_without_a_maximum_is_an_error(tmp_path, capsys):
    # No sample after the transient has a neighbour on both sides.
    code = main([
        "fock-quench", "--out", str(tmp_path),
        "--override", "lattice.n_sites=5",
        "--override", 'initial_state.bitstring="10101"',
        "--override", 'time_grid={"start": 0.0, "stop": 10.0, "num": 101}',
        "--override", "quench.time=auto",
        "--override", "quench.transient=9.99",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: quench.time")
    assert "no post-transient correlation maximum" in err


def test_cli_a_value_error_from_a_run_is_not_a_config_error(tmp_path, monkeypatch):
    # Exit 2 is a config error only; any other ValueError is a fault of the
    # program and keeps its traceback.
    def faulty(config, out_dir=None):
        raise ValueError("a fault")

    monkeypatch.setattr(cli, "run", faulty)
    with pytest.raises(ValueError, match="a fault"):
        main(["steady", "--out", str(tmp_path)])


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

    def drifting(rho0, liouvillian, times, readouts, keep=None):
        trajectory = evolve(rho0, liouvillian, times, readouts, keep)
        moved = lindblad.pure_state(fock_state(ManyBodyBasis(5, 2), "10100"))
        _read_as(trajectory, readouts, moved, -1)
        return trajectory

    monkeypatch.setattr(experiments, "evolve", drifting)
    result = run(config_from_dict(payload))
    checks = result.summary["checks"]
    assert checks["not_enforced"] == []
    assert checks["charge_drift"] == pytest.approx(1.0)
    assert checks["number_drift"] < 1e-8 and checks["parity_even_drift"] < 1e-8
    assert result.invariants_ok is False
