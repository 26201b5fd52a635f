"""Lattice definition and single-particle Hamiltonian of the dephased chain.

The physical setup is an open-boundary tight-binding chain of spinless
fermions with an odd number of sites. Only the central site is coupled to a
dephasing bath; optional perturbations are a quasi-periodic on-site potential,
a harmonic trap, and a nearest-neighbor density interaction (the interaction
is many-body and handled in :mod:`dephchain.fock`).

Site indices are 1-based throughout the public API, matching the usual
bra-ket notation for occupation strings such as ``|010>``; matrix row/column
``r`` corresponds to site ``r + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Irrational spatial frequency of the quasi-periodic potential.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest entry of [h, R] for which h counts as reflection symmetric.
REFLECTION_TOL = 1e-9


class ReflectionSymmetryBroken(ValueError):
    """Parity classification requested for a Hamiltonian that does not
    commute with the site-reversal permutation."""


@dataclass(frozen=True)
class LatticeSpec:
    """Physical parameters of the centrally dephased chain.

    Parameters
    ----------
    n_sites : int
        Lattice size N. Must be odd and >= 1 so the central site
        c = (N + 1) / 2 is well defined.
    tunneling : float
        Nearest-neighbor hopping J > 0. Energies are measured in units of J.
    dephasing_gamma : float
        Dephasing rate gamma >= 0 of the central site.
    aa_amplitude : float
        Amplitude V_AA >= 0 of the quasi-periodic on-site potential
        ``V_AA * cos(2 pi omega i / N)`` with i = 1..N.
    aa_frequency : float
        Spatial frequency omega of the quasi-periodic potential. Defaults to
        the golden mean (sqrt(5) - 1) / 2.
    trap_amplitude : float
        Harmonic confinement strength V >= 0 of ``V * (i - i_c)**2``.
    trap_center : int or None
        Trap center site i_c; defaults to the central site.
    interaction : float
        Nearest-neighbor density-density coupling V_int >= 0. Not part of the
        single-particle Hamiltonian.
    """

    n_sites: int
    tunneling: float = 1.0
    dephasing_gamma: float = 1.0
    aa_amplitude: float = 0.0
    aa_frequency: float = GOLDEN_MEAN
    trap_amplitude: float = 0.0
    trap_center: int | None = None
    interaction: float = 0.0

    def __post_init__(self) -> None:
        n = self.n_sites
        if not isinstance(n, int) or n < 1 or n % 2 == 0:
            raise ValueError(f"n_sites must be an odd integer >= 1, got {n!r}")
        if self.tunneling <= 0:
            raise ValueError(f"tunneling must be positive, got {self.tunneling}")
        if self.dephasing_gamma < 0:
            raise ValueError(f"dephasing_gamma must be non-negative, got {self.dephasing_gamma}")
        for name in ("aa_amplitude", "trap_amplitude", "interaction"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.trap_center is not None and not 1 <= self.trap_center <= n:
            raise ValueError(f"trap_center must lie in 1..{n}, got {self.trap_center}")

    @property
    def central_site(self) -> int:
        return (self.n_sites + 1) // 2

    @property
    def effective_trap_center(self) -> int:
        return self.central_site if self.trap_center is None else self.trap_center


def build_single_particle_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Build the real symmetric N x N single-particle Hamiltonian matrix.

    Off-diagonal entries are ``-J`` on nearest-neighbor bonds; the diagonal
    carries the quasi-periodic potential and the harmonic trap
    ``V * (i - i_c)**2``. The nearest-neighbor interaction
    is excluded here (it is not a one-body term).
    """
    n = spec.n_sites
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -spec.tunneling
    if spec.aa_amplitude:
        sites = np.arange(1, n + 1)
        h[np.diag_indices(n)] += spec.aa_amplitude * np.cos(
            2.0 * np.pi * spec.aa_frequency * sites / n
        )
    if spec.trap_amplitude:
        sites = np.arange(1, n + 1)
        h[np.diag_indices(n)] += spec.trap_amplitude * (sites - spec.effective_trap_center) ** 2
    return h


def reflection_permutation(n_sites: int) -> np.ndarray:
    """Site-reversal permutation matrix, mapping site i to N + 1 - i."""
    return np.eye(n_sites)[::-1].copy()


@dataclass(frozen=True)
class ModeParity:
    """Eigenmodes of a reflection-symmetric single-particle Hamiltonian,
    split by parity under site reversal.

    ``energies`` are ascending; column k - 1 of ``modes`` is the k-th
    eigenvector (mode numbers are 1-based). ``even`` / ``odd`` list the mode
    numbers with reflection eigenvalue +1 / -1.
    """

    energies: np.ndarray
    modes: np.ndarray
    even: tuple[int, ...]
    odd: tuple[int, ...]


def _fix_mode_phases(modes: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: the largest-magnitude component of each
    mode is made positive (ties broken by lowest site index)."""
    fixed = modes.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        pivot = np.argmax(np.abs(col) - 1e-12 * np.arange(len(col)))
        if col[pivot] < 0:
            fixed[:, k] = -col
    return fixed


def classify_mode_parity(h: np.ndarray) -> ModeParity:
    """Diagonalize ``h`` and classify each eigenmode as reflection-even or
    reflection-odd.

    Degenerate eigenvalues are resolved by projecting the degenerate block
    onto the two reflection eigenspaces before classification, which makes
    the returned modes deterministic. Raises
    :class:`ReflectionSymmetryBroken` when ``[h, R]`` exceeds ``REFLECTION_TOL``.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    reflection = reflection_permutation(n)
    if np.abs(h @ reflection - reflection @ h).max() > REFLECTION_TOL:
        raise ReflectionSymmetryBroken(
            "Hamiltonian does not commute with site reversal; parity "
            "classification unavailable (is a symmetry-breaking potential on?)"
        )

    energies, vecs = np.linalg.eigh(h)

    # Group (near-)degenerate levels, then split each group by parity.
    groups: list[list[int]] = [[0]]
    for k in range(1, n):
        if energies[k] - energies[groups[-1][0]] < 1e-9:
            groups[-1].append(k)
        else:
            groups.append([k])

    columns = np.zeros_like(vecs)
    parity_sign = np.zeros(n, dtype=int)
    for group in groups:
        block = vecs[:, group]
        filled = 0
        for sign in (+1, -1):
            projected = 0.5 * (block + sign * (reflection @ block))
            q, r = np.linalg.qr(projected)
            keep = np.abs(np.diag(r)) > 1e-8
            kept = q[:, keep]
            for col in kept.T:
                columns[:, group[filled]] = col
                parity_sign[group[filled]] = sign
                filled += 1
        if filled != len(group):
            raise ReflectionSymmetryBroken(
                "degenerate block could not be resolved into parity sectors"
            )

    columns = _fix_mode_phases(columns)
    even = tuple(k + 1 for k in range(n) if parity_sign[k] == +1)
    odd = tuple(k + 1 for k in range(n) if parity_sign[k] == -1)
    if len(even) != (n + 1) // 2 or len(odd) != (n - 1) // 2:
        raise ReflectionSymmetryBroken(
            f"unexpected parity counts: {len(even)} even, {len(odd)} odd for N={n}"
        )
    return ModeParity(energies=energies, modes=columns, even=even, odd=odd)


@lru_cache(maxsize=None)
def bare_mode_parity(n_sites: int, tunneling: float = 1.0) -> ModeParity:
    """Parity-classified eigenmodes of the bare open chain (no perturbations)."""
    spec = LatticeSpec(n_sites=n_sites, tunneling=tunneling, dephasing_gamma=0.0)
    return classify_mode_parity(build_single_particle_hamiltonian(spec))
