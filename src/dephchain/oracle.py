"""Closed-form steady states used as executable ground truth.

Each is an independent analytic expression: the X-form single-particle
steady state, the long-time two-point matrix of any input that settles, and
the even-sector multi-fermion steady state. The simulator modules are tested
against these, never the other way around; the closed forms that only the
tests compare against (the N = 3 trajectory, the N = 5 steady-state
equations, the steady pair's reduced state and its partial-transpose
spectrum) live in the test suite's ``oracles`` module.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fock import ManyBodyBasis, slater_state
from .model import bare_mode_parity, reflection_permutation


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


def long_time_correlation(c0) -> np.ndarray:
    """The t -> infinity two-point matrix C = (Tr Pi C0) X_N + P C0 P.

    Pi and P = 1 - Pi project onto the reflection-even and reflection-odd
    one-particle states, and X_N = Pi / n_e is :func:`analytic_steady_state`.
    On a quadratic chain with reflection symmetry, dephased at its centre,
    the odd states vanish at the centre: their block P C P never sees the
    jump, the even-odd coherences decay, and the n_e = (N + 1)/2 even states
    relax to their uniform mixture with the conserved weight m = Tr Pi C0.
    For a Slater input of the chain's own modes this is
    sum_{k in S} phi_k phi_k^T + (m / n_e) Pi, S the occupied odd modes.
    Holds for every ``c0`` that settles, whose P C0 P is then stationary; not
    on a chain with broken reflection. Refuses a ``c0`` that is not square,
    and an even N as :func:`analytic_steady_state` does.
    """
    c0 = np.asarray(c0)
    if c0.ndim != 2 or c0.shape[0] != c0.shape[1]:
        raise ValueError(f"a two-point matrix is square, got shape {c0.shape}")
    n = len(c0)
    even = 0.5 * (np.eye(n) + reflection_permutation(n))
    odd = np.eye(n) - even
    return np.trace(even @ c0).real * analytic_steady_state(n) + odd @ c0 @ odd


def even_sector_steady_state(n_sites: int, n_particles: int) -> np.ndarray:
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
    return rho / len(combos)
