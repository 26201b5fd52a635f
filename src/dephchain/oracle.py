"""Closed-form steady states and trajectories used as executable ground truth.

Everything here is an independent analytic expression: the general X-form
single-particle steady state, the full N = 3 time-dependent solution, the
N = 5 steady-state equations, the partial-transpose spectrum of the symmetric
pair, and the even-sector multi-fermion steady state. The simulator modules
are tested against these, never the other way around.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .fock import ManyBodyBasis, slater_state
from .lindblad import DensityMatrix
from .model import bare_mode_parity

_REAL_TOL = 1e-12


def analytic_steady_state(n_sites: int) -> np.ndarray:
    """X-form single-particle steady state for even-sector initial states.

    Entries 1/(N+1) on the diagonal and anti-diagonal, 2/(N+1) at the center;
    equivalently the maximally mixed state over the reflection-even
    single-particle subspace.
    """
    n = n_sites
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 1, got {n}")
    rho = np.zeros((n, n))
    for i in range(n):
        rho[i, i] += 1.0 / (n + 1)
        rho[i, n - 1 - i] += 1.0 / (n + 1)
    return rho


class N3Elements(NamedTuple):
    """Independent matrix elements of the N = 3 trajectory from |010>.

    The full matrix has rho11 = rho13 = rho31 = rho33, rho12 = rho32 and
    rho21 = rho23 = conj(rho12).
    """

    rho11: float
    rho22: float
    rho12: complex
    rho13: float


def _damped_envelope(t: float, gamma: float) -> tuple[complex, complex]:
    """exp(-t gamma / 4) * (f, g) with the hyperbolic forms evaluated in
    complex arithmetic; sqrt(gamma^2 - 128) is imaginary below gamma =
    sqrt(128), giving trigonometric behavior, with the removable singularity
    handled explicitly."""
    root = np.sqrt(complex(gamma * gamma - 128.0))
    arg = t * root / 4.0
    if abs(root) < 1e-9:
        sinh_over_root = t / 4.0 + 0.0j
    else:
        sinh_over_root = np.sinh(arg) / root
    f = np.cosh(arg) + gamma * sinh_over_root
    g = 4.0j * sinh_over_root
    envelope = math.exp(-t * gamma / 4.0)
    return envelope * f, envelope * g


def analytic_n3_elements(t: float, gamma: float) -> N3Elements:
    """Time-dependent matrix elements of the N = 3, |010> dephasing problem."""
    if t < 0 or gamma < 0:
        raise ValueError("t and gamma must be non-negative")
    ef, eg = _damped_envelope(t, gamma)
    if abs(ef.imag) > _REAL_TOL * max(1.0, abs(ef)):
        raise FloatingPointError(f"envelope acquired imaginary part {ef.imag:.3e}")
    rho11 = 0.25 * (1.0 - ef.real)
    rho22 = 0.5 * (1.0 + ef.real)
    return N3Elements(rho11=rho11, rho22=rho22, rho12=eg, rho13=rho11)


def analytic_n3_density_matrix(t: float, gamma: float) -> np.ndarray:
    """Full 3x3 density matrix of the N = 3 trajectory."""
    el = analytic_n3_elements(t, gamma)
    return np.array(
        [
            [el.rho11, el.rho12, el.rho13],
            [np.conj(el.rho12), el.rho22, np.conj(el.rho12)],
            [el.rho13, el.rho12, el.rho11],
        ]
    )


def n5_steady_residual(rho: np.ndarray, gamma: float = 1.0) -> float:
    """Maximum residual of the four N = 5 steady-state equations.

    The equations assume the reflection-symmetric entry pattern of an
    even-sector state (rho_jk = rho_j'k' with primed indices reflected);
    the last one is the trace constraint.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got {rho.shape}")
    r11, r22, r33 = rho[0, 0], rho[1, 1], rho[2, 2]
    r12, r13, r23 = rho[0, 1], rho[0, 2], rho[1, 2]
    equations = (
        1j * (2.0 * r22 - r33 - r13) - gamma * r23 / 2.0,
        1j * (2.0 * r12 - r13) - gamma * r13 / 2.0,
        r11 + r13 - r22,
        2.0 * (r11 + r22) + r33 - 1.0,
    )
    return float(max(abs(value) for value in equations))


def ppt_eigenvalue_formula(n_sites: int) -> np.ndarray:
    """Closed-form partial-transpose spectrum of the steady symmetric pair.

    ``{1/(N+1), 1/(N+1), (N-1 +- sqrt(N^2 - 2N + 5)) / (2(N+1))}`` in
    ascending order; the smallest is negative for every N, approaching
    -1/N^2 at large N, so the pair is always entangled.
    """
    n = n_sites
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n}")
    root = math.sqrt(n * n - 2.0 * n + 5.0)
    values = np.array(
        [
            1.0 / (n + 1),
            1.0 / (n + 1),
            (n - 1.0 + root) / (2.0 * (n + 1)),
            (n - 1.0 - root) / (2.0 * (n + 1)),
        ]
    )
    return np.sort(values)


def analytic_pair_rdm(n_sites: int) -> np.ndarray:
    """Two-site reduced state of the single-particle steady state for a
    symmetric pair (i, N+1-i), i != c: diagonal
    ((N-1)/(N+1), 1/(N+1), 1/(N+1), 0) plus a 1/(N+1) coherence between
    |01> and |10>. Valid for any N >= 3 without building the lattice."""
    n = n_sites
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n}")
    rdm = np.zeros((4, 4))
    rdm[0, 0] = (n - 1.0) / (n + 1.0)
    rdm[1, 1] = rdm[2, 2] = 1.0 / (n + 1.0)
    rdm[1, 2] = rdm[2, 1] = 1.0 / (n + 1.0)
    return rdm


def even_sector_steady_state(n_sites: int, n_particles: int) -> DensityMatrix:
    """Unique steady state of the fully even charge sector (nu_odd = 0).

    The uniform mixture of all Slater determinants of ``n_particles``
    even-parity modes. Reduces to :func:`analytic_steady_state` for one
    particle; its stationarity under the central dephasing is a test target,
    not an assumption.
    """
    n_even = (n_sites + 1) // 2
    if not 1 <= n_particles <= n_even:
        raise ValueError(
            f"even-sector filling must lie in 1..{n_even}, got {n_particles}"
        )
    parity = bare_mode_parity(n_sites)
    basis = ManyBodyBasis(n_sites, n_particles)
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    combos = list(itertools.combinations(parity.even, n_particles))
    for combo in combos:
        amp = slater_state(basis, combo, orbitals=parity.modes)
        rho += np.outer(amp, amp.conj())
    rho /= len(combos)
    return DensityMatrix(rho)
