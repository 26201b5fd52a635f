"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Criteria 1, 2 and 12 also enforce their runtime budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dephchain.config import config_from_dict, config_to_dict, default_config
from dephchain.entangle import concurrence, reduce_to_pair
from dephchain.experiments import run_fock_quench, run_robustness_aa, run_robustness_int
from dephchain.fastpath import correlation_evolve
from dephchain.fock import (
    ManyBodyBasis,
    charge_operator,
    even_mode_slater,
    expectation,
    fock_state,
    reflection_operator,
    slater_state,
    total_number_operator,
)
from dephchain.lindblad import (
    dephasing_liouvillian,
    evolve,
    pure_state,
    steady_state,
)
from dephchain.model import LatticeSpec, bare_mode_parity
from dephchain.oracle import analytic_steady_state, even_sector_steady_state, long_time_correlation
from oracles import (
    analytic_n3_density_matrix,
    analytic_pair_rdm,
    correlation_matrix,
    n5_steady_residual,
    partial_transpose_eigenvalues,
    ppt_eigenvalue_formula,
)


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[ACCEPTANCE {number:02d}] FAIL {label}")
        raise
    print(f"\n[ACCEPTANCE {number:02d}] PASS {label} "
          f"({time.perf_counter() - started:.1f}s)")


def n3_setup(gamma=1.0):
    spec = LatticeSpec(n_sites=3, dephasing_gamma=gamma)
    basis = ManyBodyBasis(3, 1)
    return spec, basis, dephasing_liouvillian(spec, basis)


def test_criterion_01_n3_steady_state_under_one_second():
    with criterion(1, "N=3 |010> steady state matches Appendix values, < 1 s"):
        started = time.perf_counter()
        _, basis, liou = n3_setup()
        rho0 = pure_state(fock_state(basis, "010"))
        steady = steady_state(rho0, liou, convergence_tol=1e-9)
        expected = np.array([[0.25, 0, 0.25], [0, 0.5, 0], [0.25, 0, 0.25]])
        deviation = np.abs(steady.state - expected).max()
        elapsed = time.perf_counter() - started
        assert deviation < 1e-7, f"steady-state deviation {deviation:.3e}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"


def test_criterion_02_full_trajectory_match_all_regimes():
    with criterion(2, "trajectories match closed forms for gamma in "
                      "{0.5,1,2,4,20}, t in [0,40], < 10 s"):
        started = time.perf_counter()
        times = np.linspace(0.0, 40.0, 201)
        worst = 0.0
        for gamma in (0.5, 1.0, 2.0, 4.0, 20.0):
            _, basis, liou = n3_setup(gamma)
            rho0 = pure_state(fock_state(basis, "010"))
            traj = evolve(rho0, liou, times)
            for t, rho in zip(times, traj.states):
                dev = np.abs(rho - analytic_n3_density_matrix(t, gamma)).max()
                worst = max(worst, dev)
        elapsed = time.perf_counter() - started
        assert worst < 1e-7, f"max trajectory error {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s"


def test_criterion_03_n5_steady_state_appendix_values():
    with criterion(3, "N=5 even-sector steady state matches the 1/6, 1/3 "
                      "pattern and its equations"):
        spec = LatticeSpec(n_sites=5)
        basis = ManyBodyBasis(5, 1)
        liou = dephasing_liouvillian(spec, basis)
        rho0 = pure_state(fock_state(basis, "00100"))
        steady = steady_state(rho0, liou, convergence_tol=1e-10)
        rho = steady.state
        expected = analytic_steady_state(5)
        assert np.abs(rho - expected).max() < 1e-7
        assert n5_steady_residual(rho) < 1e-10
        assert n5_steady_residual(expected) < 1e-12


def test_criterion_04_kernel_membership_and_uniqueness():
    with criterion(4, "analytic X-state is the unique even-sector attractor "
                      "for N in {3,5,7,9}"):
        for n in (3, 5, 7, 9):
            spec = LatticeSpec(n_sites=n)
            basis = ManyBodyBasis(n, 1)
            liou = dephasing_liouvillian(spec, basis)
            target = analytic_steady_state(n)
            residual = float(np.abs(liou.matrix @ np.ravel(target, order="F")).max())
            assert residual < 1e-10, f"N={n} kernel residual {residual:.3e}"

            center = "0" * ((n - 1) // 2) + "1" + "0" * ((n - 1) // 2)
            initial_states = [
                even_mode_slater(basis, which=(0,)),
                even_mode_slater(basis, which=(1,)),
                fock_state(basis, center),
            ]
            for psi in initial_states:
                steady = steady_state(
                    pure_state(psi), liou, convergence_tol=1e-10
                )
                deviation = np.abs(steady.state - target).max()
                assert deviation < 1e-6, f"N={n} deviation {deviation:.3e}"


def test_criterion_05_ppt_spectrum_closed_form():
    with criterion(5, "PPT spectrum of the steady pair matches Appendix "
                      "closed form; entangled at every N"):
        for n in (3, 5, 7, 9):
            basis = ManyBodyBasis(n, 1)
            rdm = reduce_to_pair(analytic_steady_state(n), basis, 1, n)
            numeric = partial_transpose_eigenvalues(rdm)
            formula = ppt_eigenvalue_formula(n)
            assert np.abs(numeric - formula).max() < 1e-10
            assert formula[0] < 0.0
        n = 201
        smallest = partial_transpose_eigenvalues(analytic_pair_rdm(n))[0]
        assert abs(smallest + 1.0 / n**2) < 0.05 / n**2


def test_criterion_06_multiparticle_scaling_law():
    with criterion(6, "N-particle steady correlations are N x single-particle "
                      "for (5,2), (7,2), (7,3)"):
        for n, filling in ((5, 2), (7, 2), (7, 3)):
            spec = LatticeSpec(n_sites=n)
            basis = ManyBodyBasis(n, filling)
            liou = dephasing_liouvillian(spec, basis)
            rho0 = pure_state(even_mode_slater(basis))
            steady = steady_state(rho0, liou, convergence_tol=1e-10)
            exact = correlation_matrix(steady.state, basis)
            closed = long_time_correlation(correlation_matrix(rho0, basis))
            deviation = np.abs(exact - closed).max()
            assert deviation < 1e-7, f"(N={n}, Np={filling}): {deviation:.3e}"
            # Even modes only: the closed form is the scaling law itself.
            assert np.abs(closed - filling * analytic_steady_state(n)).max() < 1e-15


def test_criterion_07_closed_shell_dark_states():
    with criterion(7, "closed shells are pure dark steady states with "
                      "unit pair concurrence for N in {3,5,7}"):
        for n in (3, 5, 7):
            filling = (n + 1) // 2
            spec = LatticeSpec(n_sites=n)
            basis = ManyBodyBasis(n, filling)
            liou = dephasing_liouvillian(spec, basis)
            psi = even_mode_slater(basis)    # all even modes filled
            rho = pure_state(psi)
            assert np.trace(rho @ rho).real > 1.0 - 1e-8
            assert liou.residual(rho) < 1e-10
            for i in range(1, (n - 1) // 2 + 1):
                rdm = reduce_to_pair(rho, basis, i, n + 1 - i)
                value = concurrence(rdm)
                assert abs(value - 1.0) < 1e-6, f"N={n} pair {i}: C={value}"


def test_criterion_08_odd_sector_dark_states():
    with criterion(8, "odd-mode Slater states are exactly stationary over "
                      "t in [0,100]"):
        for n, filling in ((3, 1), (5, 1), (5, 2), (7, 2)):
            spec = LatticeSpec(n_sites=n)
            basis = ManyBodyBasis(n, filling)
            liou = dephasing_liouvillian(spec, basis)
            rho0 = pure_state(slater_state(basis, bare_mode_parity(n).odd[:filling]))
            traj = evolve(rho0, liou, np.linspace(0.0, 100.0, 21))
            deviation = max(np.abs(rho - rho0).max() for rho in traj.states)
            assert deviation < 1e-9, f"(N={n}, Np={filling}): {deviation:.3e}"


def test_criterion_09_conserved_charges_along_trajectories():
    with criterion(9, "charge, parity populations, and particle number stay "
                      "constant to 1e-8 on every suite trajectory"):
        cases = [
            (LatticeSpec(n_sites=3), 1, "fock", "010", 40.0),
            (LatticeSpec(n_sites=3, dephasing_gamma=2.0), 1, "fock", "010", 40.0),
            (LatticeSpec(n_sites=5), 2, "even", None, 50.0),
            (LatticeSpec(n_sites=5), 2, "odd", None, 50.0),
            (LatticeSpec(n_sites=7), 4, "fock", "1010101", 40.0),
        ]
        for spec, filling, kind, bits, horizon in cases:
            basis = ManyBodyBasis(spec.n_sites, filling)
            if kind == "fock":
                psi = fock_state(basis, bits)
            elif kind == "even":
                psi = even_mode_slater(basis)
            else:
                psi = slater_state(basis, bare_mode_parity(spec.n_sites).odd[:filling])
            liou = dephasing_liouvillian(spec, basis)
            traj = evolve(pure_state(psi), liou,
                          np.linspace(0.0, horizon, 21))
            charge = expectation(traj.states, charge_operator(basis)).real
            number = expectation(traj.states, total_number_operator(basis)).real
            parity = 0.5 * (np.trace(traj.states, axis1=1, axis2=2).real
                            + expectation(traj.states, reflection_operator(basis)).real)
            for name, series in (("charge", charge), ("number", number),
                                 ("parity", parity)):
                drift = np.abs(series - series[0]).max()
                assert drift < 1e-8, f"{name} drift {drift:.3e} ({spec}, {kind})"
            assert np.abs(number - filling).max() < 1e-8


def test_criterion_10_fastpath_equals_liouvillian():
    with criterion(10, "two-point fastpath matches the full Liouvillian to "
                       "1e-8 on random even-sector inputs"):
        rng = np.random.default_rng(2024)
        times = np.linspace(0.0, 10.0, 20)
        for n in (3, 5, 7):
            spec = LatticeSpec(n_sites=n)
            basis = ManyBodyBasis(n, 1)
            parity = bare_mode_parity(n)
            liou = dephasing_liouvillian(spec, basis)
            for _ in range(5):
                weights = rng.normal(size=len(parity.even)) \
                    + 1j * rng.normal(size=len(parity.even))
                weights /= np.linalg.norm(weights)
                psi = sum(w * parity.modes[:, k - 1].astype(complex)
                          for w, k in zip(weights, parity.even))
                c0 = np.outer(psi.conj(), psi)
                fast = correlation_evolve(spec, c0, times)
                traj = evolve(pure_state(psi), liou, times)
                full = [correlation_matrix(rho, basis) for rho in traj.states]
                worst = max(np.abs(a - b).max() for a, b in zip(fast, full))
                assert worst < 1e-8, f"N={n}: max deviation {worst:.3e}"


def test_criterion_11_concurrence_survey():
    with criterion(11, "steady-pair concurrence equals 2*Np/(N+1) for all "
                       "N <= 9, Np <= 3 even-sector cases, monotone in Np"):
        for n in (3, 5, 7, 9):
            spec = LatticeSpec(n_sites=n)
            means = []
            fillings = [k for k in (1, 2, 3) if k <= (n + 1) // 2]
            for filling in fillings:
                state = even_sector_steady_state(n, filling)
                basis = ManyBodyBasis(n, filling)
                liou = dephasing_liouvillian(spec, basis)
                residual = liou.residual(state)
                assert residual < 1e-10, f"(N={n}, Np={filling}) residual {residual:.3e}"
                values = []
                for i in range(1, (n - 1) // 2 + 1):
                    rdm = reduce_to_pair(state, basis, i, n + 1 - i)
                    values.append(concurrence(rdm))
                conjecture = 2.0 * filling / (n + 1)
                for i, value in enumerate(values, start=1):
                    assert abs(value - conjecture) < 1e-6, (
                        f"(N={n}, Np={filling}, pair {i}): Wootters value "
                        f"{value!r} vs closed form {conjecture!r}"
                    )
                means.append(float(np.mean(values)))
            assert all(b > a for a, b in zip(means, means[1:])), (
                f"N={n}: concurrence not strictly increasing in filling: {means}"
            )


def test_criterion_12_fock_quench_reproduction():
    with criterion(12, "N=7 CDW quench: no steady state, near-periodic "
                       "end-to-end correlation, >= 80% retention, < 5 min"):
        started = time.perf_counter()
        result = run_fock_quench(default_config("fock-quench"))
        checks = result.summary["checks"]
        assert checks["min_residual_after_transient"] > 1e-4
        assert checks["retention_ratio"] >= 0.8, checks
        # near-periodicity: consistent spacing of correlation maxima
        header, rows = result.tables["fock_quench"]
        t_col = header.index("t")
        a_col = header.index("corr_abs")
        flag = header.index("post_quench")
        pre = [(r[t_col], r[a_col]) for r in rows if r[flag] == 0 and r[t_col] >= 20.0]
        values = np.array([v for _, v in pre])
        stamps = np.array([t for t, _ in pre])
        peaks = [stamps[k] for k in range(1, len(values) - 1)
                 if values[k] >= values[k - 1] and values[k] >= values[k + 1]
                 and values[k] > 0.1]
        gaps = np.diff(peaks)
        assert len(peaks) >= 3, "too few correlation maxima"
        assert gaps.std() / gaps.mean() < 0.1, f"period spread {gaps}"
        assert checks["charge_drift"] < 1e-8
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"


def test_criterion_13_robustness_perturbations():
    with criterion(13, "perturbations: AA scan is consistent and finite at "
                       "small amplitude; interaction response is linear"):
        # quasi-periodic potential, N=9 single particle at t=100
        payload = config_to_dict(default_config("robustness-aa"))
        payload["scan"] = {"values": [0.0, 0.05, 0.1], "times": [100.0]}
        aa = run_robustness_aa(config_from_dict(payload))
        _, rows = aa.tables["robustness_aa"]
        by_amplitude = {round(r[0], 6): r[2] for r in rows}

        spec = LatticeSpec(n_sites=9)
        basis = ManyBodyBasis(9, 1)
        liou = dephasing_liouvillian(spec, basis)
        psi = even_mode_slater(basis)     # bare ground state
        rho = evolve(pure_state(psi), liou, [100.0]).states[-1]
        unperturbed = concurrence(reduce_to_pair(rho, basis, 1, 9))
        assert abs(by_amplitude[0.0] - unperturbed) < 1e-7
        assert by_amplitude[0.05] > 0.05, by_amplitude

        # nearest-neighbor interaction in the perturbative window
        payload = config_to_dict(default_config("robustness-int"))
        payload["scan"] = {"values": list(np.linspace(0.0, 0.15, 8).round(6)),
                           "times": [31.1]}
        inter = run_robustness_int(config_from_dict(payload))
        r_squared = inter.summary["checks"]["linear_fit_r_squared"]
        assert r_squared > 0.95, f"R^2 = {r_squared:.4f}"
