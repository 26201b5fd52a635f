"""Closed-form steady states used as executable ground truth.

Each is an independent analytic expression: the X-form single-particle
steady state, the partial-transpose spectrum of its symmetric pair, and the
even-sector multi-fermion steady state. The simulator modules are tested
against these, never the other way around; the closed forms that only the
tests compare against (the N = 3 trajectory, the N = 5 steady-state
equations, the steady pair's reduced state) live in the test suite's
``oracles`` module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fock import ManyBodyBasis, slater_state
from .model import bare_mode_parity


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
