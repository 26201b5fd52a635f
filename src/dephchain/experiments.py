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
from .config import ExperimentConfig, InitialState, config_to_dict
from .lindblad import (
    Liouvillian,
    SteadyStateNotConverged,
    Trajectory,
    dephasing_liouvillian,
    evolve,
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
    "max_trace_dev": (-math.inf, lindblad.TRACE_TOL),
    "max_herm_dev": (-math.inf, lindblad.HERMITICITY_TOL),
    "min_eigenvalue": (-lindblad.POSITIVITY_TOL, math.inf),
    "charge_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "number_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "parity_even_drift": (-math.inf, CHARGE_DRIFT_TOL),
    "max_sector_residual": (-math.inf, 1e-8),
    "monotone_in_filling": (0.5, math.inf),         # a bool: True passes
    "trace_drift": (-math.inf, 1e-8),
    "min_occupation": (-fastpath.EIGENVALUE_SLACK, math.inf),
    "max_occupation": (-math.inf, 1.0 + fastpath.EIGENVALUE_SLACK),
}


@dataclass
class RunResult:
    """Everything a run produced: tabular payloads keyed by output file stem
    and a summary dictionary whose ``checks`` give the invariant verdict."""

    kind: str
    summary: dict
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    json_payloads: dict[str, dict] = field(default_factory=dict)

    @property
    def invariants_ok(self) -> bool:
        return _checks_pass(self.summary["checks"])


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
        json.dump(summary, handle, indent=2, sort_keys=True, default=_json_default)
        handle.write("\n")
    written.append(path)
    return written


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _density_payload(rho: np.ndarray) -> dict:
    flat = [[float(z.real), float(z.imag)] for z in rho.flatten()]
    return {"dim": int(rho.shape[0]), "layout": "row-major complex pairs", "data": flat}


def build_initial_state(spec: LatticeSpec, descriptor: InitialState
                        ) -> tuple[fock.ManyBodyBasis, np.ndarray]:
    """Resolve a state descriptor into (sector basis, density matrix)."""
    basis = fock.ManyBodyBasis(spec.n_sites, descriptor.n_particles())
    if descriptor.type == "fock":
        psi = fock.fock_state(basis, descriptor.bitstring)
    elif descriptor.type == "slater":
        psi = fock.slater_state(basis, descriptor.modes)
    else:
        parity = bare_mode_parity(spec.n_sites, spec.tunneling)
        ground_mode = int(np.argmin(parity.energies)) + 1
        psi = fock.slater_state(basis, [ground_mode], orbitals=parity.modes)
    return basis, lindblad.pure_state(psi)


def _parse_observables(names, basis: fock.ManyBodyBasis, spec: LatticeSpec):
    operators = {}
    for name in names:
        if name.startswith("corr:"):
            i, j = (int(p) for p in name[5:].split(","))
            operators[name] = fock.bilinear_operator(basis, i, j)
        elif name.startswith("occ:"):
            operators[name] = fock.number_operator(basis, int(name[4:]))
        elif name == "charge":
            operators[name] = fock.charge_operator(basis)
        elif name == "number":
            operators[name] = fock.total_number_operator(basis)
        elif name == "purity":
            operators[name] = None
        else:
            raise ValueError(f"unknown observable {name!r}")
    return operators


def _series(trajectory: Trajectory, operators) -> dict[str, np.ndarray]:
    series = {}
    for name, op in operators.items():
        if name == "purity":
            states = trajectory.states
            series[name] = np.einsum("tij,tji->t", states, states).real.astype(complex)
        else:
            series[name] = trajectory.expectations(op)
    return series


def _conservation_checks(trajectories: list[Trajectory], basis: fock.ManyBodyBasis,
                         liouvillians: list[Liouvillian]) -> dict:
    """Drift of the charge, the particle number and the even-reflection
    weight over the samples of ``trajectories``, with their worst per-sample
    diagnostics.

    A drift is enforced only when its operator commutes with the jump and
    with every Hamiltonian of ``liouvillians``; the others are named under
    "not_enforced" and reported all the same.
    """
    operators = {
        "charge_drift": fock.charge_operator(basis),
        "number_drift": fock.total_number_operator(basis),
        "parity_even_drift": 0.5 * (sparse.identity(basis.size, format="csr")
                                    + fock.reflection_operator(basis)),
    }
    generators = [op for liou in liouvillians for op in (liou.hamiltonian, liou.jump)]
    checks: dict = {"not_enforced": []}
    for key, operator in operators.items():
        values = np.concatenate([t.expectations(operator) for t in trajectories])
        checks[key] = float(np.abs(values - values[0]).max())
        if any(abs(operator @ g - g @ operator).max() > COMMUTATOR_TOL for g in generators):
            checks["not_enforced"].append(key)
    checks.update(_worst_diagnostics([t.diagnostics for t in trajectories]))
    return checks


def _checks_pass(checks: dict) -> bool:
    """Whether every enforced check lies inside its ``LIMITS``."""
    skipped = set(checks.get("not_enforced", ()))
    return all(lower < checks[key] < upper for key, (lower, upper) in LIMITS.items()
               if key in checks and key not in skipped)


def _worst_diagnostics(diagnostics: list[dict]) -> dict:
    """Worst per-sample trace, hermiticity and positivity over several
    trajectories' diagnostics."""
    return {
        "max_trace_dev": max(d["max_trace_dev"] for d in diagnostics),
        "max_herm_dev": max(d["max_herm_dev"] for d in diagnostics),
        "min_eigenvalue": min(d["min_eigenvalue"] for d in diagnostics),
    }


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
    liouvillian = dephasing_liouvillian(spec, basis)
    times = config.time_grid.values()
    trajectory = evolve(rho0, liouvillian, times)
    operators = _parse_observables(config.observables, basis, spec)
    series = _series(trajectory, operators)
    checks = _conservation_checks([trajectory], basis, [liouvillian])
    result = RunResult(
        kind="evolve",
        summary={
            "config": config_to_dict(config),
            "checks": checks,
            "final_time": float(times[-1]),
        },
    )
    result.tables["timeseries"] = _timeseries_table(times, series)
    return result


def run_steady(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    basis, rho0 = build_initial_state(spec, config.initial_state)
    liouvillian = dephasing_liouvillian(spec, basis)
    steady = steady_state(rho0, liouvillian, convergence_tol=config.convergence_tol)
    rho = steady.state
    x_state, off = entangle.is_x_state(rho, tol=1e-7)
    checks = {
        "residual": steady.residual,
        "max_off_x_pattern": off,
        **lindblad.invariant_deviations(rho),
    }
    diagonal = {f"rho_{i+1}{i+1}": float(rho[i, i].real) for i in range(basis.size)} \
        if basis.n_particles == 1 else {}
    result = RunResult(
        kind="steady",
        summary={
            "config": config_to_dict(config),
            "checks": checks,
            "is_x_state": bool(x_state),
            **diagonal,
        },
    )
    result.json_payloads["density_matrix"] = _density_payload(rho)
    return result


def run_correlation_map(config: ExperimentConfig) -> RunResult:
    spec = config.lattice
    if spec.interaction != 0.0:
        raise ValueError("correlation-map requires a quadratic model (interaction = 0)")
    n = spec.n_sites
    parity = bare_mode_parity(n, spec.tunneling)
    descriptor = config.initial_state
    n_particles = descriptor.n_particles()
    if descriptor.type == "fock":
        occupations = np.array([float(b) for b in descriptor.bitstring])
        c0 = np.diag(occupations).astype(complex)
    else:
        modes = [int(np.argmin(parity.energies)) + 1] if descriptor.type == "ground" \
            else list(descriptor.modes)
        chosen = parity.modes[:, [m - 1 for m in modes]]
        c0 = (chosen @ chosen.T).astype(complex)
    c_steady = fastpath.steady_correlation(spec, c0, tol=config.convergence_tol)
    reference = n_particles * oracle.analytic_steady_state(n)
    occupations = np.linalg.eigvalsh(0.5 * (c_steady + c_steady.conj().T))
    checks = {
        "trace_drift": float(abs(np.trace(c_steady).real - n_particles)),
        "max_dev_from_analytic": float(np.abs(c_steady - reference).max()),
        "min_occupation": float(occupations.min()),
        "max_occupation": float(occupations.max()),
    }
    header = ["i", "j", "re", "im"]
    rows = [[i + 1, j + 1, c_steady[i, j].real, c_steady[i, j].imag]
            for i in range(n) for j in range(n)]
    result = RunResult(
        kind="correlation-map",
        summary={
            "config": config_to_dict(config),
            "checks": checks,
        },
    )
    result.tables["correlation_map"] = (header, rows)
    return result


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
            if scan.dynamical:
                rho0 = lindblad.pure_state(fock.even_mode_slater(basis))
                liouvillian = dephasing_liouvillian(spec, basis)
                steady = steady_state(rho0, liouvillian,
                                      convergence_tol=config.convergence_tol)
                rho = steady.state
                residual = steady.residual
            else:
                rho = oracle.even_sector_steady_state(n, filling)
                liouvillian = dephasing_liouvillian(spec, basis)
                residual = liouvillian.residual(rho)
            checks["max_sector_residual"] = max(checks["max_sector_residual"], residual)
            deviations.append(lindblad.invariant_deviations(rho))
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
    checks.update(_worst_diagnostics(deviations))
    result = RunResult(
        kind="concurrence-scan",
        summary={"config": config_to_dict(config), "checks": checks},
    )
    result.tables["concurrence"] = (["n_sites", "n_particles", "site", "concurrence"], rows)
    return result


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

    grid = config.time_grid
    times = grid.values()
    bare = evolve(rho0, liouvillian, times)
    corr = bare.expectations(end_to_end)
    abs_corr = np.abs(corr)
    residuals = np.array([liouvillian.residual(r) for r in bare.states])

    if quench.time == "auto":
        peaks = _local_maxima(times, abs_corr, after=quench.transient)
        if not peaks:
            raise RuntimeError("no post-transient correlation maximum found for 'auto'")
        t_quench = peaks[0][0]
    else:
        t_quench = float(quench.time)
    pre_peaks = _local_maxima(times, abs_corr, after=quench.transient)
    pre_peaks = [p for p in pre_peaks if p[0] <= t_quench + 1e-9]
    pre_local_max = pre_peaks[-1][1] if pre_peaks else float(abs_corr[times <= t_quench].max())

    # rho(t_quench) is the last bare sample at or before t_quench, carried the
    # rest of the way when t_quench falls between samples.
    k = int(np.searchsorted(times, t_quench, side="right")) - 1
    rho_at_quench, t_base = (rho0, 0.0) if k < 0 else (bare.states[k], float(times[k]))
    trajectories = [bare]
    if t_quench > t_base:
        trajectories.append(evolve(rho_at_quench, liouvillian, [t_quench - t_base]))
        rho_at_quench = trajectories[-1].states[-1]
    trap_spec = dataclasses.replace(spec, trap_amplitude=quench.trap_amplitude)
    trapped = dephasing_liouvillian(trap_spec, basis)
    uniform = grid.points is None and grid.num > 1 and grid.stop > grid.start
    step = (grid.stop - grid.start) / (grid.num - 1) if uniform else quench.window / 400
    post_times = np.arange(0.0, quench.window + step / 2, step)
    post = evolve(rho_at_quench, trapped, post_times)
    trajectories.append(post)
    post_corr = post.expectations(end_to_end)

    header = ["t", "corr_re", "corr_im", "corr_abs", "residual", "post_quench"]
    rows = [[t, corr[k].real, corr[k].imag, abs_corr[k], residuals[k], 0]
            for k, t in enumerate(times) if t <= t_quench]
    rows += [[t_quench + t, post_corr[k].real, post_corr[k].imag, abs(post_corr[k]),
              trapped.residual(post.states[k]), 1]
             for k, t in enumerate(post_times)]

    window_mask = times >= min(quench.transient, times[-1])
    post_mean = float(np.abs(post_corr).mean())
    retention = post_mean / pre_local_max if pre_local_max > 0 else 0.0
    checks = {
        "min_residual_after_transient": float(residuals[window_mask].min()),
        "pre_quench_local_max": pre_local_max,
        "post_window_mean": post_mean,
        "retention_ratio": float(retention),
        **_conservation_checks(trajectories, basis, [liouvillian, trapped]),
    }
    result = RunResult(
        kind="fock-quench",
        summary={
            "config": config_to_dict(config),
            "checks": checks,
            "quench_time": t_quench,
        },
    )
    result.tables["fock_quench"] = (header, rows)
    return result


def run_robustness_aa(config: ExperimentConfig) -> RunResult:
    scan = config.scan
    base = config.lattice
    n = base.n_sites
    basis, rho0 = build_initial_state(base, config.initial_state)
    sample_times = np.asarray(scan.times, dtype=float)
    rows, diagnostics = [], []
    for amplitude in scan.grid():
        spec = dataclasses.replace(base, aa_amplitude=float(amplitude))
        liouvillian = dephasing_liouvillian(spec, basis)
        trajectory = evolve(rho0, liouvillian, sample_times)
        diagnostics.append(trajectory.diagnostics)
        for t, rho in zip(sample_times, trajectory.states):
            rdm = entangle.reduce_to_pair(rho, basis, 1, n)
            rows.append([float(amplitude), float(t), entangle.concurrence(rdm)])
    unperturbed = {t: c for a, t, c in rows if a == 0.0}
    checks = {
        "value_at_zero_amplitude": unperturbed,
        "n_grid_points": len(scan.grid()),
        **_worst_diagnostics(diagnostics),
    }
    result = RunResult(
        kind="robustness-aa",
        summary={"config": config_to_dict(config), "checks": checks},
    )
    result.tables["robustness_aa"] = (["aa_amplitude", "t", "concurrence_1N"], rows)
    return result


def run_robustness_int(config: ExperimentConfig) -> RunResult:
    scan = config.scan
    base = config.lattice
    n = base.n_sites
    basis, rho0 = build_initial_state(base, config.initial_state)
    t_sample = float(scan.times[0])
    end_to_end = fock.bilinear_operator(basis, 1, n)
    rows, diagnostics = [], []
    for strength in scan.grid():
        spec = dataclasses.replace(base, interaction=float(strength))
        liouvillian = dephasing_liouvillian(spec, basis)
        trajectory = evolve(rho0, liouvillian, [t_sample])
        diagnostics.append(trajectory.diagnostics)
        rho = trajectory.states[-1]
        rdm = entangle.reduce_to_pair(rho, basis, 1, n)
        corr = trajectory.expectations(end_to_end)[-1]
        rows.append([float(strength), entangle.concurrence(rdm), corr.real, corr.imag])
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
        **_worst_diagnostics(diagnostics),
    }
    result = RunResult(
        kind="robustness-int",
        summary={"config": config_to_dict(config), "checks": checks},
    )
    result.tables["robustness_int"] = (
        ["interaction", "concurrence_1N", "corr_re", "corr_im"], rows
    )
    return result


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
    :class:`dephchain.lindblad.SteadyStateNotConverged`.
    """
    result = _RUNNERS[config.kind](config)
    if out_dir is not None:
        emit_plot_data(result, out_dir)
    return result
