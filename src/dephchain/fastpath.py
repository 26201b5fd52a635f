"""Closed two-point dynamics for the quadratic (non-interacting) problem.

For a quadratic Hamiltonian and occupation-number jump operators the equation
of motion of the two-point matrix C_jk = <f!_j f_k> closes exactly:

    dC/dt = i (h C - C h) - (gamma / 2) * D o C,
    D_jk = (delta_jc - delta_kc)^2,

so only entries with exactly one index on the central site are damped. The
sign of the coherent part is fixed by matching the full Liouvillian on N = 3
(see tests); the damping mask never touches the central occupation itself.
The multi-fermion steady-state scaling law lives here as well.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .model import LatticeSpec, build_single_particle_hamiltonian

EIGENVALUE_SLACK = 1e-9


class ScalingDomainError(ValueError):
    """The multiparticle scaling law was applied outside its validity domain
    (an occupation eigenvalue left [0, 1])."""


def validate_correlation_matrix(c: np.ndarray, herm_tol: float = 1e-10) -> None:
    c = np.asarray(c)
    if np.abs(c - c.conj().T).max() > herm_tol:
        raise ValueError("correlation matrix is not Hermitian")
    eig = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    if eig.min() < -EIGENVALUE_SLACK or eig.max() > 1.0 + EIGENVALUE_SLACK:
        raise ValueError(f"occupation eigenvalues outside [0, 1]: [{eig.min()}, {eig.max()}]")


def evolve_with_hamiltonian(c0: np.ndarray, h: np.ndarray, gamma: float, center: int,
                            times, rtol: float = 1e-10, atol: float = 1e-13) -> list[np.ndarray]:
    """Integrate the closed two-point equation for an explicit one-body ``h``.

    ``center`` is the 1-based dephased site. Returns C(t) at each requested
    time (non-decreasing, starting from 0 relative to ``c0``).
    """
    c0 = np.asarray(c0, dtype=complex)
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if c0.shape != (n, n):
        raise ValueError(f"correlation shape {c0.shape} does not match h {h.shape}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing and non-negative")

    sites = np.arange(1, n + 1)
    damping = 0.5 * gamma * ((sites[:, None] == center).astype(float)
                             - (sites[None, :] == center)) ** 2

    def rhs(_t, y):
        c = y.reshape(n, n)
        dc = 1j * (h @ c - c @ h) - damping * c
        return dc.ravel()

    if times[-1] == 0.0:
        return [c0.copy() for _ in times]
    # solve_ivp wants strictly increasing t_eval; repeated times share a sample.
    unique, index = np.unique(times, return_inverse=True)
    solution = solve_ivp(rhs, (0.0, float(times[-1])), c0.ravel(), method="DOP853",
                         t_eval=unique, rtol=rtol, atol=atol)
    if not solution.success:
        raise RuntimeError(f"correlation integrator aborted: {solution.message}")
    return [c0.copy() if t == 0.0 else solution.y[:, k].reshape(n, n)
            for k, t in zip(index, times)]


def correlation_evolve(spec: LatticeSpec, c0: np.ndarray, times,
                       include_trap: bool = False, rtol: float = 1e-10,
                       atol: float = 1e-13) -> list[np.ndarray]:
    """Two-point trajectory for a lattice spec; refuses interacting problems,
    where the two-point equation no longer closes."""
    if spec.interaction != 0.0:
        raise ValueError(
            "two-point fastpath is exact only for quadratic Hamiltonians; "
            f"interaction={spec.interaction} requires the full Liouvillian"
        )
    validate_correlation_matrix(c0)
    h = build_single_particle_hamiltonian(spec, include_trap=include_trap)
    return evolve_with_hamiltonian(c0, h, spec.dephasing_gamma, spec.central_site,
                                   times, rtol=rtol, atol=atol)


def steady_correlation(spec: LatticeSpec, c0: np.ndarray, tol: float = 1e-10,
                       t_max: float = 1e4, include_trap: bool = False) -> tuple[np.ndarray, float]:
    """Integrate the two-point equation until dC/dt is below ``tol``.

    Returns (C_infinity, elapsed time). Raises RuntimeError if t_max is hit.
    """
    h = build_single_particle_hamiltonian(spec, include_trap=include_trap)
    gamma, center = spec.dephasing_gamma, spec.central_site
    n = spec.n_sites
    sites = np.arange(1, n + 1)
    damping = 0.5 * gamma * ((sites[:, None] == center).astype(float)
                             - (sites[None, :] == center)) ** 2

    def derivative_norm(c):
        return float(np.abs(1j * (h @ c - c @ h) - damping * c).max())

    if spec.interaction != 0.0:
        raise ValueError("steady two-point fastpath requires a quadratic Hamiltonian")
    c = np.asarray(c0, dtype=complex)
    elapsed, window = 0.0, 2.0 / gamma if gamma > 0 else t_max / 64
    while derivative_norm(c) >= tol:
        if elapsed >= t_max:
            raise RuntimeError(
                f"two-point steady state not reached by t={t_max:g} "
                f"(|dC/dt| = {derivative_norm(c):.3e})"
            )
        window = min(window, t_max - elapsed)
        c = evolve_with_hamiltonian(c, h, gamma, center, [window])[-1]
        elapsed += window
        window *= 1.5
    return c, elapsed


def multiparticle_scaling(c_sp_steady: np.ndarray, n_particles: int) -> np.ndarray:
    """Steady-state scaling <f!_i f_j>_N = N <f!_i f_j>_sp.

    Valid for initial Slater states built from even-parity modes only, which
    limits the filling to (N + 1) / 2. The occupation bound is checked on the
    result; a violation means the law was applied outside that class.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be a positive integer")
    scaled = n_particles * np.asarray(c_sp_steady, dtype=complex)
    eig = np.linalg.eigvalsh(0.5 * (scaled + scaled.conj().T))
    if eig.max() > 1.0 + EIGENVALUE_SLACK:
        raise ScalingDomainError(
            f"scaled occupation eigenvalue {eig.max():.6f} exceeds 1; the "
            "scaling law only covers even-mode Slater inputs with filling "
            "up to (N+1)/2"
        )
    return scaled
