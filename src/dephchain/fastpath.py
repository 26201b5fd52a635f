"""The two-point matrix of the quadratic (non-interacting) problem.

For a quadratic Hamiltonian and the central-site occupation as jump operator
the two-point matrix C_jk = <f!_j f_k> obeys

    dC/dt = i (h C - C h) - (gamma / 2) * D o C,
    D_jk = (delta_jc - delta_kc)^2,

which is the one-particle sector of :mod:`dephchain.lindblad` read as
C = rho^T: the sector's generator, built from the one-body ``h`` and the
projector e_c e_c^T, acting on rho = C^T / Tr C. Evolution and steady
states therefore go through ``lindblad.evolve`` and ``lindblad.steady_state``
(the exact projection onto the kernel), with their invariant checks, and are
scaled back by Tr C. The multi-fermion steady-state scaling law lives
here as well.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  (dephbench/tracing.py wraps it by name)

from .lindblad import Liouvillian, build_liouvillian, evolve, steady_state
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


def _one_particle_problem(c0, h: np.ndarray, gamma: float,
                          center: int) -> tuple[Liouvillian, np.ndarray, float]:
    """The one-particle sector seen through C = rho^T: its generator (``h``
    with the projector on the 1-based ``center`` site as jump operator),
    rho0 = C0^T / Tr C0, and Tr C0."""
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != h.shape:
        raise ValueError(f"correlation shape {c0.shape} does not match h {h.shape}")
    filling = float(np.trace(c0).real)
    if filling <= 0:
        raise ValueError(f"correlation matrix needs a positive trace, got {filling:g}")
    jump = np.zeros(h.shape)
    jump[center - 1, center - 1] = 1.0
    return build_liouvillian(h, gamma, jump), c0.T / filling, filling


def evolve_with_hamiltonian(c0: np.ndarray, h: np.ndarray, gamma: float, center: int,
                            times) -> np.ndarray:
    """Two-point trajectory for an explicit real symmetric one-body ``h``.

    ``center`` is the 1-based dephased site. Returns C(t) at each requested
    time (non-decreasing, starting from 0 relative to ``c0``) as one
    (T, n, n) array.
    """
    liouvillian, rho0, filling = _one_particle_problem(c0, np.asarray(h, dtype=float),
                                                       gamma, center)
    trajectory = evolve(rho0, liouvillian, times)
    return filling * trajectory.states.transpose(0, 2, 1)


def _refuse_interaction(spec: LatticeSpec) -> None:
    if spec.interaction != 0.0:
        raise ValueError(
            "two-point fastpath is exact only for quadratic Hamiltonians; "
            f"interaction={spec.interaction} requires the full Liouvillian"
        )


def correlation_evolve(spec: LatticeSpec, c0: np.ndarray, times) -> np.ndarray:
    """Two-point trajectory for a lattice spec; refuses interacting problems,
    where the two-point equation no longer closes."""
    _refuse_interaction(spec)
    validate_correlation_matrix(c0)
    h = build_single_particle_hamiltonian(spec)
    return evolve_with_hamiltonian(c0, h, spec.dephasing_gamma, spec.central_site, times)


def steady_correlation(spec: LatticeSpec, c0: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The t -> infinity limit of the two-point matrix, exactly.

    Raises :class:`dephchain.lindblad.SteadyStateNotConverged` when ``c0``
    has weight on undamped oscillations large enough that max |dC/dt| never
    falls below ``tol``.
    """
    _refuse_interaction(spec)
    h = build_single_particle_hamiltonian(spec)
    liouvillian, rho0, filling = _one_particle_problem(c0, h, spec.dephasing_gamma,
                                                       spec.central_site)
    steady = steady_state(rho0, liouvillian, convergence_tol=tol / filling)
    return filling * steady.state.T


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
