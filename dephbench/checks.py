"""Output checks against references computed without ``dephchain``.

Every reference here is built from the workload payload and numpy alone:

* ``quench``: the closed two-point equation dC/dt = i[h, C] - (gamma/2) D o C
  on the N x N correlation matrix, propagated by the Taylor exponential below.
* ``interaction-scan``: a Jordan-Wigner chain on the full 2^N space,
  restricted to the initial particle number, propagated the same way.
* ``steady-survey``: the closed form C = 2 Np / (N + 1) for every pair.
* ``pair-map``: the X-shaped steady correlation matrix.

Each check takes the payload and the run's output directory and returns a
list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

QUENCH_CORR_TOL = 1e-8
CHARGE_DRIFT_TOL = 1e-8
MIN_RESIDUAL_AFTER_TRANSIENT = 1e-4
MIN_RETENTION = 0.8
INTERACTION_CORR_TOL = 1e-8
INTERACTION_CONCURRENCE_TOL = 1e-7
SURVEY_TOL = 1e-6
PAIR_MAP_TOL = 1e-7


def taylor_propagate(apply, x0: np.ndarray, times, norm: float) -> list[np.ndarray]:
    """exp(t A) x0 at each non-decreasing time, for a linear map ``apply``.

    Steps from sample to sample with steps of at most 1 / ``norm`` (an
    upper bound on the norm of A) and sums the Taylor series of each step
    until its terms stop changing the result.
    """
    out, x, t_prev = [], np.array(x0, dtype=complex), 0.0
    for t in times:
        span = float(t) - t_prev
        steps = max(1, math.ceil(span * norm)) if span > 0 else 0
        for _ in range(steps):
            term, total = x, x.copy()
            for k in range(1, 64):
                term = apply(term) * (span / steps / k)
                total = total + term
                if np.abs(term).max() <= 1e-18 * max(1.0, np.abs(total).max()):
                    break
            else:
                raise RuntimeError("Taylor series did not converge")
            x = total
        out.append(x)
        t_prev = float(t)
    return out


def _rows(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def _summary_problems(out_dir: Path) -> tuple[dict, list[str]]:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    problems = [] if summary.get("invariants_ok") is True \
        else ["summary.json: invariants_ok is not true"]
    return summary, problems


def _chain_hamiltonian(lattice: dict, trap: float = 0.0) -> np.ndarray:
    n = lattice["n_sites"]
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -lattice["tunneling"]
    centre = (n + 1) // 2
    h[np.diag_indices(n)] += trap * (np.arange(1, n + 1) - centre) ** 2
    return h


def _two_point_generator(h: np.ndarray, gamma: float) -> np.ndarray:
    """Matrix of dC/dt = i (h C - C h) - (gamma/2) D o C on row-major vec(C)."""
    n = h.shape[0]
    centre = (n - 1) // 2
    is_c = (np.arange(n) == centre).astype(float)
    mask = (is_c[:, None] - is_c[None, :]) ** 2
    eye = np.eye(n)
    return 1j * (np.kron(h, eye) - np.kron(eye, h.T)) - 0.5 * gamma * np.diag(mask.ravel())


def _local_maxima(times, values, after):
    return [values[k] for k in range(1, len(values) - 1)
            if times[k] >= after and values[k] >= values[k - 1] and values[k] >= values[k + 1]]


def check_quench(payload: dict, out_dir: Path) -> list[str]:
    lattice, quench, grid = payload["lattice"], payload["quench"], payload["time_grid"]
    n, gamma = lattice["n_sites"], lattice["dephasing_gamma"]
    t_quench = float(quench["time"])
    summary, problems = _summary_problems(out_dir)
    header, rows = _rows(out_dir / "fock_quench.csv")
    col = {name: k for k, name in enumerate(header)}
    bare = [r for r in rows if r[col["post_quench"]] == 0]
    post = [r for r in rows if r[col["post_quench"]] == 1]
    times = np.linspace(grid["start"], grid["stop"], grid["num"])
    bare_t = np.array([r[col["t"]] for r in bare])
    if len(bare) + len(post) != len(rows) or not bare or not post:
        return problems + ["fock_quench.csv: rows are not split into bare and post-quench"]
    if not np.array_equal(bare_t, times[:len(bare_t)]) or bare_t[-1] > t_quench \
            or (len(bare_t) < len(times) and times[len(bare_t)] <= t_quench):
        problems.append("fock_quench.csv: bare rows are not the time grid up to the quench")
    post_t = np.array([r[col["t"]] for r in post]) - t_quench
    if abs(post_t[0]) > 1e-12 or np.any(np.diff(post_t) <= 0) \
            or post_t[-1] < quench["window"] - 1e-9:
        problems.append("fock_quench.csv: post-quench rows do not cover the window")

    c0 = np.diag([float(b) for b in payload["initial_state"]["bitstring"]]).astype(complex)
    g_bare = _two_point_generator(_chain_hamiltonian(lattice), gamma)
    g_trap = _two_point_generator(_chain_hamiltonian(lattice, quench["trap_amplitude"]), gamma)
    ref_bare = taylor_propagate(lambda v: g_bare @ v, c0.ravel(),
                                list(bare_t) + [t_quench], np.linalg.norm(g_bare, 2))
    ref_post = taylor_propagate(lambda v: g_trap @ v, ref_bare.pop(), post_t,
                                np.linalg.norm(g_trap, 2))
    entry = n - 1                      # C[0, n-1] = <f!_1 f_n> in row-major order
    reference = np.array([v[entry] for v in ref_bare + ref_post])
    corr = np.array([r[col["corr_re"]] + 1j * r[col["corr_im"]] for r in bare + post])
    deviation = float(np.abs(corr - reference).max())
    if deviation > QUENCH_CORR_TOL:
        problems.append(f"corr deviates from the two-point reference by {deviation:.3e} "
                        f"(limit {QUENCH_CORR_TOL:g})")

    drift = summary.get("checks", {}).get("charge_drift", math.inf)
    if not drift < CHARGE_DRIFT_TOL:
        problems.append(f"charge drift {drift} not below {CHARGE_DRIFT_TOL:g}")
    after = bare_t >= quench["transient"]
    residual = min(r[col["residual"]] for r, keep in zip(bare, after) if keep)
    if not residual > MIN_RESIDUAL_AFTER_TRANSIENT:
        problems.append(f"minimum residual after the transient {residual:.3e} "
                        f"not above {MIN_RESIDUAL_AFTER_TRANSIENT:g}")
    peaks = _local_maxima(bare_t, np.abs(corr[:len(bare)]), quench["transient"])
    retention = float(np.abs(corr[len(bare):]).mean()) / peaks[-1] if peaks else 0.0
    if not retention >= MIN_RETENTION:
        problems.append(f"retention {retention:.4f} below {MIN_RETENTION}")
    return problems


def _jordan_wigner(n: int) -> list[np.ndarray]:
    """Annihilators f_1..f_n on the 2^n space, site 1 the leading factor."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])     # |1> -> |0>
    z = np.diag([1.0, -1.0])
    ops = []
    for j in range(n):
        factors = [z] * j + [lower] + [np.eye(2)] * (n - j - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    return ops


def check_interaction_scan(payload: dict, out_dir: Path) -> list[str]:
    lattice, scan = payload["lattice"], payload["scan"]
    n, gamma, hop = lattice["n_sites"], lattice["dephasing_gamma"], lattice["tunneling"]
    bits = payload["initial_state"]["bitstring"]
    t_sample = float(scan["times"][0])
    strengths = np.asarray(scan["values"], dtype=float) if "values" in scan \
        else np.linspace(0.0, scan["max_value"], scan["n_values"])
    _, problems = _summary_problems(out_dir)
    header, rows = _rows(out_dir / "robustness_int.csv")
    col = {name: k for k, name in enumerate(header)}
    if not np.array_equal([r[col["interaction"]] for r in rows], strengths):
        return problems + ["robustness_int.csv: interaction column is not the scan grid"]

    f = _jordan_wigner(n)
    occ = [op.T @ op for op in f]
    sector = np.flatnonzero(np.isclose(sum(np.diag(o) for o in occ), bits.count("1")))

    def restrict(op):
        return op[np.ix_(sector, sector)]

    hopping = -hop * sum(f[i].T @ f[i + 1] + f[i + 1].T @ f[i] for i in range(n - 1))
    bonds = sum(occ[i] @ occ[i + 1] for i in range(n - 1))
    # The jump n_c is diagonal here, so its dissipator acts entrywise.
    centre = np.diag(restrict(occ[(n - 1) // 2]))
    damping = gamma * (np.outer(centre, centre) - 0.5 * (centre[:, None] + centre[None, :]))
    corr_op, n1, nn = restrict(f[0].T @ f[n - 1]), restrict(occ[0]), restrict(occ[n - 1])
    both = restrict(occ[0] @ occ[n - 1])
    rho0 = np.zeros((len(sector), len(sector)), dtype=complex)
    start = int(np.flatnonzero(sector == int(bits, 2))[0])
    rho0[start, start] = 1.0

    worst_corr = worst_conc = 0.0
    for row, strength in zip(rows, strengths):
        h = restrict(hopping + strength * bonds)

        def generator(rho, h=h):
            return -1j * (h @ rho - rho @ h) + damping * rho

        norm = 2.0 * np.linalg.norm(h, 2) + float(np.abs(damping).max())
        rho = taylor_propagate(generator, rho0, [t_sample], norm)[-1]
        corr = np.trace(rho @ corr_op)
        p1, pn, p11 = (float(np.trace(rho @ op).real) for op in (n1, nn, both))
        p00 = 1.0 - p1 - pn + p11
        concurrence = 2.0 * max(0.0, abs(corr) - math.sqrt(max(0.0, p00 * p11)))
        worst_corr = max(worst_corr, abs(row[col["corr_re"]] + 1j * row[col["corr_im"]] - corr))
        worst_conc = max(worst_conc, abs(row[col["concurrence_1N"]] - concurrence))
    if worst_corr > INTERACTION_CORR_TOL:
        problems.append(f"corr deviates from the Jordan-Wigner reference by {worst_corr:.3e} "
                        f"(limit {INTERACTION_CORR_TOL:g})")
    if worst_conc > INTERACTION_CONCURRENCE_TOL:
        problems.append(f"concurrence deviates from the X-state formula by {worst_conc:.3e} "
                        f"(limit {INTERACTION_CONCURRENCE_TOL:g})")
    return problems


def check_steady_survey(payload: dict, out_dir: Path) -> list[str]:
    scan = payload["scan"]
    _, problems = _summary_problems(out_dir)
    header, rows = _rows(out_dir / "concurrence.csv")
    expected = [(n, p, i) for n in scan["sizes"] for p in scan["fillings"]
                if p <= (n + 1) // 2 for i in range(1, (n - 1) // 2 + 1)]
    keys = [tuple(int(v) for v in r[:3]) for r in rows]
    if keys != expected:
        return problems + ["concurrence.csv: rows are not every (N, Np, site) of the survey"]
    value = {key: r[3] for key, r in zip(keys, rows)}
    worst = max(abs(v - 2.0 * p / (n + 1)) for (n, p, _), v in value.items())
    if worst > SURVEY_TOL:
        problems.append(f"concurrence deviates from 2Np/(N+1) by {worst:.3e} "
                        f"(limit {SURVEY_TOL:g})")
    if any(value[(n, p, i)] <= value[(n, q, i)]
           for (n, p, i) in value for q in range(1, p) if (n, q, i) in value):
        problems.append("concurrence does not increase with filling")
    return problems


def check_pair_map(payload: dict, out_dir: Path) -> list[str]:
    n = payload["lattice"]["n_sites"]
    _, problems = _summary_problems(out_dir)
    header, rows = _rows(out_dir / "correlation_map.csv")
    col = {name: k for k, name in enumerate(header)}
    if [(int(r[col["i"]]), int(r[col["j"]])) for r in rows] != \
            [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]:
        return problems + ["correlation_map.csv: rows are not every (i, j)"]
    c = np.array([r[col["re"]] + 1j * r[col["im"]] for r in rows]).reshape(n, n)
    x_form = (np.eye(n) + np.eye(n)[::-1]) / (n + 1)
    worst = float(np.abs(c - x_form).max())
    if worst > PAIR_MAP_TOL:
        problems.append(f"C deviates from the X form by {worst:.3e} (limit {PAIR_MAP_TOL:g})")
    return problems


CHECKS = {
    "quench": check_quench,
    "interaction-scan": check_interaction_scan,
    "steady-survey": check_steady_survey,
    "pair-map": check_pair_map,
}
