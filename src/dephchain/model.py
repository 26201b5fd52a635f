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
import numbers
from dataclasses import dataclass

import numpy as np

# Irrational spatial frequency of the quasi-periodic potential.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest entry of [h, R] for which h counts as reflection symmetric.
REFLECTION_TOL = 1e-9


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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

    Every float parameter must be a finite number and every integer an
    ``int``; bools are refused.
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
        if type(n) is not int or n < 1 or n % 2 == 0:
            raise ValueError(f"n_sites must be an odd integer >= 1, got {n!r}")
        for name in ("tunneling", "dephasing_gamma", "aa_amplitude", "aa_frequency",
                     "trap_amplitude", "interaction"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.tunneling <= 0:
            raise ValueError(f"tunneling must be positive, got {self.tunneling}")
        if self.dephasing_gamma < 0:
            raise ValueError(f"dephasing_gamma must be non-negative, got {self.dephasing_gamma}")
        for name in ("aa_amplitude", "trap_amplitude", "interaction"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        center = self.trap_center
        if center is not None and (type(center) is not int or not 1 <= center <= n):
            raise ValueError(f"trap_center must be an integer in 1..{n}, got {center!r}")

    @property
    def central_site(self) -> int:
        return (self.n_sites + 1) // 2

    @property
    def effective_trap_center(self) -> int:
        return self.central_site if self.trap_center is None else self.trap_center

    @property
    def reflection_symmetric(self) -> bool:
        """Whether site reversal i -> N + 1 - i leaves the Hamiltonian
        unchanged: no quasi-periodic potential, and the trap absent or centred."""
        return not self.aa_amplitude and (
            not self.trap_amplitude or self.effective_trap_center == self.central_site)

    def energy_terms(self, n_particles: int) -> dict[str, float]:
        """An upper bound on the norm of the many-body Hamiltonian of
        ``n_particles`` fermions, one term per field: each particle's hopping
        (at most 2 J), quasi-periodic potential (V_AA) and trap (V times the
        largest squared distance from the trap centre), and the interaction
        of at most ``n_particles - 1`` occupied bonds."""
        reach = max(self.effective_trap_center - 1, self.n_sites - self.effective_trap_center)
        return {"tunneling": 2.0 * self.tunneling * n_particles,
                "aa_amplitude": self.aa_amplitude * n_particles,
                "trap_amplitude": self.trap_amplitude * reach ** 2 * n_particles,
                "interaction": self.interaction * max(n_particles - 1, 0)}


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
    pivot = np.argmax(np.abs(modes) - 1e-12 * np.arange(len(modes))[:, None], axis=0)
    return np.where(modes[pivot, np.arange(modes.shape[1])] < 0, -modes, modes)


def classify_mode_parity(h: np.ndarray) -> ModeParity:
    """Diagonalize ``h`` by one ``eigh`` on each reflection eigenspace, the
    even one spanned by (e_i + e_{N+1-i})/sqrt 2 and e_c, the odd one by
    (e_i - e_{N+1-i})/sqrt 2, so every mode is an eigenvector of ``h`` with
    sharp parity, also where an even and an odd level lie close together.
    Modes are numbered by ascending energy, an even mode first on an exact
    tie. Raises :class:`ReflectionSymmetryBroken` when ``[h, R]`` exceeds
    ``REFLECTION_TOL``."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    reflection = reflection_permutation(n)
    if np.abs(h @ reflection - reflection @ h).max() > REFLECTION_TOL:
        raise ReflectionSymmetryBroken(
            "Hamiltonian does not commute with site reversal; parity "
            "classification unavailable (is a symmetry-breaking potential on?)"
        )
    half = n // 2
    left = np.arange(half)
    even, odd = np.zeros((n, half + 1)), np.zeros((n, half))
    even[left, left] = even[n - 1 - left, left] = odd[left, left] = math.sqrt(0.5)
    odd[n - 1 - left, left] = -math.sqrt(0.5)
    even[half, half] = 1.0
    parts = [np.linalg.eigh(b.T @ h @ b) for b in (even, odd)]
    energies = np.concatenate([e for e, _ in parts])
    order = np.argsort(energies, kind="stable")
    modes = np.concatenate([b @ u for b, (_, u) in zip((even, odd), parts)], axis=1)[:, order]
    is_even = order <= half
    return ModeParity(energies=energies[order], modes=_fix_mode_phases(modes),
                      even=tuple(int(k) + 1 for k in np.flatnonzero(is_even)),
                      odd=tuple(int(k) + 1 for k in np.flatnonzero(~is_even)))


def bare_mode_parity(n_sites: int, tunneling: float = 1.0) -> ModeParity:
    """Parity-classified eigenmodes of the bare open chain (no perturbations)."""
    spec = LatticeSpec(n_sites=n_sites, tunneling=tunneling, dephasing_gamma=0.0)
    return classify_mode_parity(build_single_particle_hamiltonian(spec))
