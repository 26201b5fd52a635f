"""The two-point matrix of the quadratic (non-interacting) problem.

For a quadratic Hamiltonian and the central-site occupation as jump operator
the two-point matrix C_jk = <f!_j f_k> obeys

    dC/dt = i (h C - C h) - (gamma / 2) * M o C,
    M_jk = (delta_jc - delta_kc)^2,

which is the one-particle sector of :mod:`dephchain.lindblad` read as
C = rho^T: the spec's generator (``lindblad.dephasing_liouvillian``, with its
symmetry sectors) acting on rho = C^T / Tr C. Evolution and steady states
therefore go through ``lindblad.evolve`` and ``lindblad.steady_state`` (the
exact projection onto the kernel), with their invariant checks, and are
scaled back by Tr C.
"""

from __future__ import annotations

import numpy as np

from .fock import ManyBodyBasis
from .lindblad import HERMITICITY_TOL, Liouvillian, dephasing_liouvillian, evolve, steady_state
from .model import LatticeSpec

EIGENVALUE_SLACK = 1e-9
# Each value of :func:`occupation_range` passes when strictly between its bounds.
LIMITS = {"min_occupation": (-EIGENVALUE_SLACK, np.inf),
          "max_occupation": (-np.inf, 1.0 + EIGENVALUE_SLACK)}


def __getattr__(name: str):
    """``fastpath.solve_ivp`` is scipy's own, imported on first access, so
    that importing the package does not load ``scipy.integrate`` (and with
    it ``scipy.optimize`` and ``scipy.special``). Nothing here calls it; only
    ``dephbench/tracing.py`` reads it by name. This goes away together with
    that wrap, in the benchmark catch-up of ROADMAP item 1."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def occupation_range(c: np.ndarray) -> dict[str, float]:
    """The smallest and largest occupation eigenvalue of a two-point matrix:
    the ends of the spectrum of its Hermitian part, keyed as in ``LIMITS``."""
    eig = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    return {"min_occupation": float(eig[0]), "max_occupation": float(eig[-1])}


def validate_correlation_matrix(c: np.ndarray) -> None:
    c = np.asarray(c)
    if not np.abs(c - c.conj().T).max() < HERMITICITY_TOL:
        raise ValueError("correlation matrix is not Hermitian")
    occupation = occupation_range(c)
    if not all(lower < occupation[key] < upper for key, (lower, upper) in LIMITS.items()):
        raise ValueError(f"occupation eigenvalues outside [0, 1]: {list(occupation.values())}")


def _one_particle_state(c0, liouvillian: Liouvillian) -> tuple[np.ndarray, float]:
    """The one-particle sector's state seen through C = rho^T:
    rho0 = C0^T / Tr C0, and Tr C0. Refuses a C0 that is not Hermitian or
    has an occupation eigenvalue outside [0, 1]."""
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (liouvillian.dim,) * 2:
        raise ValueError(f"correlation shape {c0.shape} does not match {liouvillian.dim} sites")
    validate_correlation_matrix(c0)
    filling = float(np.trace(c0).real)
    if filling <= 0:
        raise ValueError(f"correlation matrix needs a positive trace, got {filling:g}")
    return c0.T / filling, filling


def _one_particle_liouvillian(spec: LatticeSpec) -> Liouvillian:
    """The spec's one-particle generator, with its symmetry sectors; refuses
    an interacting spec."""
    if spec.interaction != 0.0:
        raise ValueError(
            "two-point fastpath is exact only for quadratic Hamiltonians; "
            f"interaction={spec.interaction} requires the full Liouvillian"
        )
    return dephasing_liouvillian(spec, ManyBodyBasis(spec.n_sites, 1))


def correlation_evolve(spec: LatticeSpec, c0: np.ndarray, times) -> np.ndarray:
    """Two-point trajectory for a lattice spec; refuses interacting problems,
    where the two-point equation no longer closes. Returns C(t) at each
    requested time (non-decreasing, starting from 0 relative to ``c0``) as
    one (T, n, n) array."""
    liouvillian = _one_particle_liouvillian(spec)
    rho0, filling = _one_particle_state(c0, liouvillian)
    return filling * evolve(rho0, liouvillian, times).states.transpose(0, 2, 1)


def steady_correlation(spec: LatticeSpec, c0: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The t -> infinity limit of the two-point matrix, exactly.

    Raises :class:`dephchain.lindblad.SteadyStateNotConverged` when ``c0``
    has weight on undamped oscillations large enough that max |dC/dt| never
    falls below ``tol``.
    """
    liouvillian = _one_particle_liouvillian(spec)
    rho0, filling = _one_particle_state(c0, liouvillian)
    steady = steady_state(rho0, liouvillian, convergence_tol=tol / filling)
    return filling * steady.state.T

