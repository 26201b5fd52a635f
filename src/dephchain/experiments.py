"""Experiment pipelines behind the CLI: one function per experiment kind.

Each pipeline runs the physics, performs the invariant checks, and returns a
:class:`RunResult` whose payload :func:`emit_plot_data` turns into plot-ready
CSV files plus a JSON summary. No plotting happens here; files carry the data
for one figure panel each.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from . import entangle, fastpath, fock, lindblad, oracle
from .config import ConfigError, ExperimentConfig, InitialState, config_to_dict, parse_observable
from .lindblad import (
    Liouvillian,
    Trajectory,
    dephasing_liouvillian,
    evolve,
    evolve_scan,
    steady_state,
)
from .model import LatticeSpec, bare_mode_parity

CHARGE_DRIFT_TOL = 1e-8
# An operator whose commutator with the jump and with every Hamiltonian of a
# run has no entry above this counts as conserved by that run. The commutator
# of an exact symmetry is rounding, about 1e-15 for the operators built here.
COMMUTATOR_TOL = 1e-12

# The verdict: a check named here passes when its value lies strictly between
# its bounds, and ``invariants_ok`` is whether all of a run's checks pass.
# Checks not named here, and those a run lists under "not_enforced", are
# reported only.
LIMITS = {
    **lindblad.LIMITS, **fastpath.LIMITS,
    "charge_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "number_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "parity_even_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "max_sector_residual": (-math.inf, 1e-8),
    "monotone_in_filling": (0.5, math.inf),         # a bool: True passes
    "trace_drift": (-math.inf, 1e-8),
}


@dataclass
class RunResult:
    """Everything a run produced: tabular payloads keyed by output file stem
    and a summary dictionary whose ``checks`` give the invariant verdict."""

    summary: dict
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    json_payloads: dict[str, dict] = field(default_factory=dict)

    @property
    def invariants_ok(self) -> bool:
        """Whether every enforced check lies inside its ``LIMITS``."""
        checks = self.summary["checks"]
        skipped = set(checks.get("not_enforced", ()))
        return all(lower < checks[key] < upper for key, (lower, upper) in LIMITS.items()
                   if key in checks and key not in skipped)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_plot_data(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Write one CSV per table, any JSON payloads, and the run summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for stem, (header, rows) in result.tables.items():
        path = out / f"{stem}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        written.append(path)
    for stem, payload in result.json_payloads.items():
        path = out / f"{stem}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    summary = dict(result.summary)
    summary["invariants_ok"] = result.invariants_ok
    summary["outputs"] = [p.name for p in written]
    path = out / "summary.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(path)
    return written


def _result(config: ExperimentConfig, checks: dict, tables=None, json_payloads=None,
            **extra) -> RunResult:
    """A run's result: its summary holds the config, the checks and any
    ``extra`` values the run reports beside them."""
    summary = {"config": config_to_dict(config), "checks": checks, **extra}
    return RunResult(summary, tables or {}, json_payloads or {})


def _density_payload(rho: np.ndarray) -> dict:
    flat = [[float(z.real), float(z.imag)] for z in rho.flatten()]
    return {"dim": int(rho.shape[0]), "layout": "row-major complex pairs", "data": flat}


def _orbitals(spec: LatticeSpec, descriptor: InitialState) -> np.ndarray:
    """The occupied orbitals of a state descriptor, one column each: the
    sites of a Fock string, the chosen bare modes of a Slater state, or
    mode 1 for the ground state, as eigh sorts the mode energies ascending."""
    if descriptor.type == "fock":
        bits = descriptor.bitstring
        return np.eye(len(bits))[:, [site for site, bit in enumerate(bits) if bit == "1"]]
    modes = [1] if descriptor.type == "ground" else descriptor.modes
    return bare_mode_parity(spec.n_sites, spec.tunneling).modes[:, [m - 1 for m in modes]]


def build_initial_state(spec: LatticeSpec, descriptor: InitialState
                        ) -> tuple[fock.ManyBodyBasis, np.ndarray]:
    """Resolve a state descriptor into (sector basis, density matrix): the
    Slater determinant of its :func:`_orbitals`; a Fock string's is its basis state."""
    basis = fock.ManyBodyBasis(spec.n_sites, descriptor.n_particles())
    orbitals = _orbitals(spec, descriptor)
    psi = fock.slater_state(basis, range(1, orbitals.shape[1] + 1), orbitals=orbitals)
    return basis, lindblad.pure_state(psi)


def _parse_observables(names, basis: fock.ManyBodyBasis):
    """One readout of :func:`lindblad.evolve_scan` per observable name, an
    operator or ``"purity"``, built as :func:`config.parse_observable` gives it."""
    parsed = {name: parse_observable(name, basis.n_sites) for name in names}
    return {name: build(basis, *sites) for name, (build, sites) in parsed.items()}


def _drift_operators(basis: fock.ManyBodyBasis) -> dict[str, sparse.csr_matrix]:
    """The charge, the particle number and the even-reflection projector,
    keyed by the name of their drift check; every propagating run reads them
    as readouts for :func:`_conservation_checks`."""
    return {
        "charge_drift": fock.charge_operator(basis),
        "number_drift": fock.total_number_operator(basis),
        "parity_even_drift": 0.5 * (sparse.identity(basis.size, format="csr")
                                    + fock.reflection_operator(basis)),
    }


def _conservation_checks(rho0: np.ndarray, trajectories: list[Trajectory], operators: dict,
                         liouvillians: list[Liouvillian]) -> dict:
    """Drift from ``rho0`` of each of the :func:`_drift_operators` over the
    samples of ``trajectories``, read from their series of the same names,
    with their worst per-sample diagnostics.

    A drift is enforced only when its operator commutes with the jump and
    with every Hamiltonian of ``liouvillians``; the others are named under
    "not_enforced" and reported all the same.
    """
    checks: dict = {"not_enforced": []}
    for key, operator in operators.items():
        values = np.concatenate([t.series[key] for t in trajectories])
        checks[key] = float(np.abs(values - fock.expectation(rho0, operator)).max())
        if any(_commutator_norm(operator, liou) > COMMUTATOR_TOL for liou in liouvillians):
            checks["not_enforced"].append(key)
    checks.update(lindblad.worst_deviations([t.diagnostics for t in trajectories]))
    return checks


def _commutator_norm(op: sparse.csr_matrix, liouvillian: Liouvillian) -> float:
    """Largest entry of [op, H] and of [op, n_c]; the latter are, up to sign,
    the entries of ``op`` between a dephased and an undephased state."""
    h, dephased, entries = liouvillian.hamiltonian, liouvillian.dephased, op.tocoo()
    across = entries.data[dephased[entries.row] != dephased[entries.col]]
    return max(abs(op @ h - h @ op).max(), np.abs(across).max(initial=0.0))


def _timeseries_table(times, series) -> tuple[list[str], list[list]]:
    header = ["t"]
    for name in series:
        header += [f"{name}_re", f"{name}_im"]
    rows = []
    for k, t in enumerate(times):
        row = [t]
        for values in series.values():
            row += [values[k].real, values[k].imag]
        rows.append(row)
    return header, rows


def run_evolve(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    basis, rho0 = build_initial_state(spec, config.initial_state)
    operators = _parse_observables(config.observables, basis)
    liouvillian = dephasing_liouvillian(spec, basis)
    times = config.time_grid.values()
    drifts = _drift_operators(basis)
    trajectory = evolve(rho0, liouvillian, times, {**operators, **drifts}, keep=[])
    series = {name: trajectory.series[name] for name in operators}
    checks = _conservation_checks(rho0, [trajectory], drifts, [liouvillian])
    return _result(config, checks, {"timeseries": _timeseries_table(times, series)},
                   final_time=float(times[-1]))


def run_steady(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    basis, rho0 = build_initial_state(spec, config.initial_state)
    liouvillian = dephasing_liouvillian(spec, basis)
    steady = steady_state(rho0, liouvillian, convergence_tol=config.convergence_tol)
    rho = steady.state
    x_state, off = entangle.is_x_state(rho, tol=1e-7)
    checks = {"residual": steady.residual, "max_off_x_pattern": off, **steady.diagnostics}
    diagonal = {f"rho_{i+1}{i+1}": float(rho[i, i].real) for i in range(basis.size)} \
        if basis.n_particles == 1 else {}
    return _result(config, checks, json_payloads={"density_matrix": _density_payload(rho)},
                   is_x_state=bool(x_state), **diagonal)


def run_correlation_map(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    n = spec.n_sites
    n_particles = config.initial_state.n_particles()
    orbitals = _orbitals(spec, config.initial_state)
    c0 = (orbitals @ orbitals.T).astype(complex)
    c_steady = fastpath.steady_correlation(spec, c0, tol=config.convergence_tol)
    checks = {"trace_drift": float(abs(np.trace(c_steady).real - n_particles))}
    if spec.reflection_symmetric:       # where the closed form holds
        reference = oracle.long_time_correlation(c0)
        checks["max_dev_from_analytic"] = float(np.abs(c_steady - reference).max())
    checks.update(fastpath.occupation_range(c_steady))
    header = ["i", "j", "re", "im"]
    rows = [[i + 1, j + 1, c_steady[i, j].real, c_steady[i, j].imag]
            for i in range(n) for j in range(n)]
    return _result(config, checks, {"correlation_map": (header, rows)})


def run_concurrence_scan(config: ExperimentConfig) -> RunResult:
    scan = config.scan
    rows, deviations = [], []
    checks: dict = {"max_sector_residual": 0.0}
    conjecture_dev = 0.0
    monotone = True
    for n in scan.sizes:
        previous = None
        for filling in scan.fillings:
            if filling > (n + 1) // 2:
                continue
            spec = dataclasses.replace(config.lattice, n_sites=n)
            basis = fock.ManyBodyBasis(n, filling)
            liouvillian = dephasing_liouvillian(spec, basis)
            if scan.dynamical:
                rho0 = lindblad.pure_state(fock.even_mode_slater(basis))
                steady = steady_state(rho0, liouvillian,
                                      convergence_tol=config.convergence_tol)
                rho, residual, diagnostics = steady.state, steady.residual, steady.diagnostics
            else:
                rho = oracle.even_sector_steady_state(n, filling)
                residual = liouvillian.residual(rho)
                diagnostics = lindblad.invariant_deviations(rho)
            checks["max_sector_residual"] = max(checks["max_sector_residual"], residual)
            deviations.append(diagnostics)
            values = []
            for i in range(1, (n - 1) // 2 + 1):
                rdm = entangle.reduce_to_pair(rho, basis, i, n + 1 - i)
                value = entangle.concurrence(rdm)
                rows.append([n, filling, i, value])
                values.append(value)
            mean = float(np.mean(values))
            conjecture_dev = max(conjecture_dev, abs(mean - 2.0 * filling / (n + 1)))
            if previous is not None and mean < previous - 1e-12:
                monotone = False
            previous = mean
    checks["max_dev_from_2N_over_Np1"] = conjecture_dev
    checks["monotone_in_filling"] = monotone
    checks.update(lindblad.worst_deviations(deviations))
    header = ["n_sites", "n_particles", "site", "concurrence"]
    return _result(config, checks, {"concurrence": (header, rows)})


def _local_maxima(times: np.ndarray, values: np.ndarray, after: float = 0.0):
    peaks = []
    for k in range(1, len(values) - 1):
        if times[k] < after:
            continue
        if values[k] >= values[k - 1] and values[k] >= values[k + 1]:
            peaks.append((float(times[k]), float(values[k])))
    return peaks


def run_fock_quench(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    quench = config.quench
    basis, rho0 = build_initial_state(spec, config.initial_state)
    n = spec.n_sites
    end_to_end = fock.bilinear_operator(basis, 1, n)
    liouvillian = dephasing_liouvillian(spec, basis)

    drifts = _drift_operators(basis)
    readouts = {"corr": end_to_end, "residual": "residual", **drifts}

    grid = config.time_grid
    times = grid.values()
    if quench.time == "auto":
        # The peak that sets t_quench is not known before the run; it lies
        # at or after the transient.
        keep = np.flatnonzero(times >= quench.transient)
    else:
        keep = [int(np.searchsorted(times, float(quench.time), side="right")) - 1]
    bare = evolve(rho0, liouvillian, times, readouts, keep)
    corr, residuals = bare.series["corr"], bare.series["residual"]
    abs_corr = np.abs(corr)

    peaks = _local_maxima(times, abs_corr, after=quench.transient)
    if quench.time == "auto":
        if not peaks:
            raise ConfigError("quench.time: 'auto' finds no post-transient correlation maximum "
                              f"after quench.transient {quench.transient:g} on the time grid")
        t_quench = peaks[0][0]
    else:
        t_quench = float(quench.time)
    pre_peaks = [p for p in peaks if p[0] <= t_quench + 1e-9]
    pre_local_max = pre_peaks[-1][1] if pre_peaks else float(abs_corr[times <= t_quench].max())

    # rho(t_quench) is the last bare sample at or before t_quench, carried the
    # rest of the way when t_quench falls between samples.
    k = int(np.searchsorted(times, t_quench, side="right")) - 1
    rho_at_quench, t_base = bare.states[np.searchsorted(bare.kept, k)], float(times[k])
    trajectories = [bare]
    if t_quench > t_base:
        trajectories.append(evolve(rho_at_quench, liouvillian, [t_quench - t_base], drifts))
        rho_at_quench = trajectories[-1].states[-1]
    trap_spec = dataclasses.replace(spec, trap_amplitude=quench.trap_amplitude)
    trapped = dephasing_liouvillian(trap_spec, basis)
    uniform = grid.points is None and grid.num > 1 and grid.stop > grid.start
    step = (grid.stop - grid.start) / (grid.num - 1) if uniform else quench.window / 400
    post_times = np.arange(0.0, quench.window + step / 2, step)
    post = evolve(rho_at_quench, trapped, post_times, readouts, keep=[])
    trajectories.append(post)
    post_corr, post_residuals = post.series["corr"], post.series["residual"]

    header = ["t", "corr_re", "corr_im", "corr_abs", "residual", "post_quench"]
    rows = [[t, corr[k].real, corr[k].imag, abs_corr[k], residuals[k], 0]
            for k, t in enumerate(times) if t <= t_quench]
    rows += [[t_quench + t, post_corr[k].real, post_corr[k].imag, abs(post_corr[k]),
              post_residuals[k], 1]
             for k, t in enumerate(post_times)]

    window_mask = times >= min(quench.transient, times[-1])
    post_mean = float(np.abs(post_corr).mean())
    retention = post_mean / pre_local_max if pre_local_max > 0 else 0.0
    checks = {
        "min_residual_after_transient": float(residuals[window_mask].min()),
        "pre_quench_local_max": pre_local_max,
        "post_window_mean": post_mean,
        "retention_ratio": float(retention),
        **_conservation_checks(rho0, trajectories, drifts, [liouvillian, trapped]),
    }
    return _result(config, checks, {"fock_quench": (header, rows)}, quench_time=t_quench)


def _parameter_scan(config: ExperimentConfig, parameter: str, times):
    """Propagate the initial state to ``times`` under one Liouvillian per
    scan value of the lattice field ``parameter``, all in one ``evolve_scan``
    call that reads the pair (1, N) as its :func:`entangle.pair_readouts`
    and keeps no state. Returns the grid, one (T, 4, 4) stack of pair states
    per grid value and the conservation checks over all of them."""
    base = config.lattice
    basis, rho0 = build_initial_state(base, config.initial_state)
    grid = config.scan.grid()
    liouvillians = [dephasing_liouvillian(dataclasses.replace(base, **{parameter: float(value)}),
                                          basis) for value in grid]
    drifts = _drift_operators(basis)
    pair = entangle.pair_readouts(basis, 1, base.n_sites)
    trajectories = evolve_scan(rho0, liouvillians, times, {**pair, **drifts}, keep=[])
    return (grid, [entangle.pair_matrix(t.series) for t in trajectories],
            _conservation_checks(rho0, trajectories, drifts, liouvillians))


def run_robustness_aa(config: ExperimentConfig) -> RunResult:
    sample_times = np.asarray(config.scan.times, dtype=float)
    grid, pairs, conservation = _parameter_scan(config, "aa_amplitude", sample_times)
    rows = [[float(amplitude), float(t), entangle.concurrence(rdm)]
            for amplitude, stack in zip(grid, pairs) for t, rdm in zip(sample_times, stack)]
    unperturbed = {t: c for a, t, c in rows if a == 0.0}
    checks = {"value_at_zero_amplitude": unperturbed, "n_grid_points": len(grid), **conservation}
    header = ["aa_amplitude", "t", "concurrence_1N"]
    return _result(config, checks, {"robustness_aa": (header, rows)})


def run_robustness_int(config: ExperimentConfig) -> RunResult:
    t_sample = float(config.scan.times[0])
    grid, pairs, conservation = _parameter_scan(config, "interaction", [t_sample])
    rows = [[float(strength), entangle.concurrence(rdm), rdm[1, 2].real, rdm[1, 2].imag]
            for strength, (rdm,) in zip(grid, pairs)]
    strengths = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    design = np.vstack([strengths, np.ones_like(strengths)]).T
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    predicted = design @ coef
    total = float(((values - values.mean()) ** 2).sum())
    r_squared = 1.0 - float(((values - predicted) ** 2).sum()) / total if total > 0 else 1.0
    checks = {
        "linear_fit_slope": float(coef[0]),
        "linear_fit_intercept": float(coef[1]),
        "linear_fit_r_squared": r_squared,
        "sample_time": t_sample,
        **conservation,
    }
    header = ["interaction", "concurrence_1N", "corr_re", "corr_im"]
    return _result(config, checks, {"robustness_int": (header, rows)})


_RUNNERS = {
    "evolve": run_evolve,
    "steady": run_steady,
    "correlation-map": run_correlation_map,
    "concurrence-scan": run_concurrence_scan,
    "fock-quench": run_fock_quench,
    "robustness-aa": run_robustness_aa,
    "robustness-int": run_robustness_int,
}


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    """Execute one experiment; write outputs when ``out_dir`` is given.

    Non-convergence from the steady-state solver propagates verbatim as
    :class:`dephchain.lindblad.SteadyStateNotConverged`, and a quench time
    "auto" with no correlation maximum to pick raises :class:`ConfigError`.
    """
    result = _RUNNERS[config.kind](config)
    if out_dir is not None:
        emit_plot_data(result, out_dir)
    return result
