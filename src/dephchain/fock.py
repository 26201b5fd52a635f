"""Many-body Fock-space machinery for spinless fermions on the chain.

Basis states are occupation bitstrings with site 1 leftmost; the state
``|s1 s2 ... sN>`` is the canonical product ``f!_{i1} f!_{i2} ... |0>`` of
creation operators sorted by ascending site index. Every fermionic sign in
this module derives from that single ordering convention.

Operators are returned as ``scipy.sparse`` CSR matrices at every sector
dimension; states and density matrices are dense ``numpy`` arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .model import (
    LatticeSpec,
    ModeParity,
    bare_mode_parity,
    build_single_particle_hamiltonian,
)


class ManyBodyBasis:
    """Ordered Fock basis of ``n_particles`` fermions on ``n_sites`` sites.

    States are stored as integer bitmasks with site i on bit ``n_sites - i``
    (site 1 is the most significant bit, so the mask's binary digits read
    like the printed bitstring). The ordering is ascending lexicographic in
    the tuple of occupied sites, e.g. for (3, 1): ``100, 010, 001`` -- in the
    one-particle sector, basis index and site index coincide.
    """

    def __init__(self, n_sites: int, n_particles: int):
        if not 0 <= n_particles <= n_sites:
            raise ValueError(
                f"n_particles must lie in 0..{n_sites}, got {n_particles}"
            )
        self.n_sites = n_sites
        self.n_particles = n_particles
        self.states: tuple[int, ...] = tuple(
            sum(1 << (n_sites - s) for s in combo)
            for combo in itertools.combinations(range(1, n_sites + 1), n_particles)
        )
        self.index: dict[int, int] = {m: q for q, m in enumerate(self.states)}

    @property
    def size(self) -> int:
        return len(self.states)

    def mask_of(self, bitstring: str) -> int:
        if len(bitstring) != self.n_sites or set(bitstring) - {"0", "1"}:
            raise ValueError(f"bad occupation string {bitstring!r} for N={self.n_sites}")
        return int(bitstring, 2)

    def bitstring(self, mask: int) -> str:
        return format(mask, f"0{self.n_sites}b")

    def index_of(self, state: int | str) -> int:
        mask = self.mask_of(state) if isinstance(state, str) else state
        return self.index[mask]

    def occupied_sites(self, mask: int) -> tuple[int, ...]:
        n = self.n_sites
        return tuple(i for i in range(1, n + 1) if (mask >> (n - i)) & 1)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ManyBodyBasis(n_sites={self.n_sites}, n_particles={self.n_particles})"


def _occ(mask: int, n: int, site: int) -> int:
    return (mask >> (n - site)) & 1


def _parity_below(mask: int, n: int, site: int) -> int:
    """Number of occupied sites strictly left of ``site``."""
    return (mask >> (n - site + 1)).bit_count()


def bilinear_operator(basis: ManyBodyBasis, i: int, j: int):
    """Matrix of the hopping bilinear ``f!_i f_j`` in the sector basis.

    The sign of each element is the fermionic string factor accumulated by
    anticommuting ``f_j`` and then ``f!_i`` through the canonically ordered
    creation-operator product.
    """
    return _bilinear_sum(basis, [(i, j, 1.0)])


def _bilinear_sum(basis: ManyBodyBasis, terms) -> sparse.csr_matrix:
    """``sum_k c_k f!_{i_k} f_{j_k}`` over ``terms`` of (i, j, c), assembled
    as one CSR matrix. Distinct off-diagonal terms never share an element."""
    n = basis.n_sites
    rows, cols, vals = [], [], []
    for i, j, coefficient in terms:
        for site in (i, j):
            if not 1 <= site <= n:
                raise ValueError(f"site index {site} outside 1..{n}")
        bit_i, bit_j = 1 << (n - i), 1 << (n - j)
        for q, mask in enumerate(basis.states):
            if not mask & bit_j:
                continue
            sign = -1 if _parity_below(mask, n, j) & 1 else 1
            interim = mask & ~bit_j
            if interim & bit_i:
                continue
            if _parity_below(interim, n, i) & 1:
                sign = -sign
            rows.append(basis.index[interim | bit_i])
            cols.append(q)
            vals.append(sign * coefficient)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(basis.size, basis.size))


def number_operator(basis: ManyBodyBasis, i: int):
    """Diagonal occupation operator of site ``i``."""
    return bilinear_operator(basis, i, i)


def total_number_operator(basis: ManyBodyBasis):
    diag = np.array([float(bin(m).count("1")) for m in basis.states])
    return sparse.diags(diag, format="csr")


def build_many_body_hamiltonian(spec: LatticeSpec, basis: ManyBodyBasis):
    """Sector Hamiltonian ``sum_ij h_ij f!_i f_j + V_int sum_i n_i n_{i+1}``.

    The one-body matrix ``h`` comes from
    :func:`dephchain.model.build_single_particle_hamiltonian`.
    """
    if basis.n_sites != spec.n_sites:
        raise ValueError(
            f"basis has {basis.n_sites} sites but spec has {spec.n_sites}"
        )
    n = spec.n_sites
    h = build_single_particle_hamiltonian(spec)
    hopping = [(i + 1, j + 1, h[i, j]) for i, j in zip(*np.nonzero(h)) if i != j]
    # Diagonal terms overlap, so they are summed here, site by site in
    # ascending order, and not left to the CSR assembly.
    diagonal = [sum(h[s - 1, s - 1] for s in basis.occupied_sites(m))
                + spec.interaction * sum(_occ(m, n, i) * _occ(m, n, i + 1) for i in range(1, n))
                for m in basis.states]
    return _bilinear_sum(basis, hopping) + sparse.diags(diagonal, format="csr")


def _reorder_parity(sequence) -> int:
    """Permutation parity (+1/-1) of sorting ``sequence`` ascending,
    computed by explicit inversion counting."""
    items = list(sequence)
    swaps = 0
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                swaps += 1
    return -1 if swaps & 1 else 1


def reflection_operator(basis: ManyBodyBasis):
    """Many-body site-reversal operator R with R^2 = identity.

    Each basis state maps to the state with reflected occupations times the
    parity of reordering the reflected creation-operator product back to
    canonical ascending order.
    """
    n = basis.n_sites
    rows, cols, vals = [], [], []
    for q, mask in enumerate(basis.states):
        reflected = [n + 1 - s for s in basis.occupied_sites(mask)]
        sign = _reorder_parity(reflected)
        target = sum(1 << (n - s) for s in reflected)
        rows.append(basis.index[target])
        cols.append(q)
        vals.append(float(sign))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(basis.size, basis.size))


def charge_operator(basis: ManyBodyBasis):
    """The reflection-built conserved charge ``-1/2 + sum_i f!_i f_{N+1-i}``.

    Hermitian; commutes with the bare-chain Hamiltonian and with the central
    occupation, so its half-integer eigenvalues label dynamically decoupled
    sectors. Eigenvalues are ``-1/2 + nu_even - nu_odd`` in terms of the
    occupations of even- and odd-parity modes.
    """
    n = basis.n_sites
    reversal = [(i, n + 1 - i, 1.0) for i in range(1, n + 1)]
    return _bilinear_sum(basis, reversal) - 0.5 * sparse.identity(basis.size, format="csr")


@dataclass(frozen=True)
class ChargeSector:
    """One eigensector of the conserved charge: occupation split
    (nu_even, nu_odd), eigenvalue -1/2 + nu_even - nu_odd, and degeneracy
    C((N+1)/2, nu_even) * C((N-1)/2, nu_odd)."""

    eigenvalue: float
    nu_even: int
    nu_odd: int
    degeneracy: int


def enumerate_charge_sectors(n_sites: int, n_particles: int | None = None) -> list[ChargeSector]:
    """All charge sectors of an N-site lattice.

    With ``n_particles`` given, only the splits with
    ``nu_even + nu_odd = n_particles`` are returned; otherwise every
    (nu_even, nu_odd) pair, across all particle numbers. Sectors are sorted
    by descending eigenvalue (positively charged first).
    """
    n_even = (n_sites + 1) // 2
    n_odd = (n_sites - 1) // 2
    sectors = []
    for nu_e in range(n_even + 1):
        for nu_o in range(n_odd + 1):
            if n_particles is not None and nu_e + nu_o != n_particles:
                continue
            sectors.append(
                ChargeSector(
                    eigenvalue=-0.5 + nu_e - nu_o,
                    nu_even=nu_e,
                    nu_odd=nu_o,
                    degeneracy=math.comb(n_even, nu_e) * math.comb(n_odd, nu_o),
                )
            )
    sectors.sort(key=lambda s: (-s.eigenvalue, s.nu_even))
    return sectors


def slater_state(basis: ManyBodyBasis, mode_indices, orbitals: np.ndarray | None = None) -> np.ndarray:
    """Normalized Slater determinant of distinct single-particle modes.

    ``mode_indices`` are 1-based indices into the columns of ``orbitals``
    (ascending-energy eigenmodes of the bare chain when omitted). The global
    phase is fixed by making the first nonzero amplitude positive.
    """
    modes = list(mode_indices)
    if len(set(modes)) != len(modes):
        raise ValueError(f"repeated mode index in {modes}")
    if len(modes) != basis.n_particles:
        raise ValueError(
            f"{len(modes)} modes given for a {basis.n_particles}-particle basis"
        )
    if orbitals is None:
        orbitals = bare_mode_parity(basis.n_sites).modes
    cols = [k - 1 for k in modes]
    if min(cols, default=0) < 0 or max(cols, default=0) >= orbitals.shape[1]:
        raise ValueError(f"mode indices {modes} outside 1..{orbitals.shape[1]}")
    chosen = orbitals[:, cols]
    amplitudes = np.empty(basis.size, dtype=complex)
    for q, mask in enumerate(basis.states):
        rows = [s - 1 for s in basis.occupied_sites(mask)]
        amplitudes[q] = np.linalg.det(chosen[rows, :]) if rows else 1.0
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-12:
        raise ValueError("Slater determinant vanished; modes not independent?")
    amplitudes /= norm
    for a in amplitudes:
        if abs(a) > 1e-12:
            amplitudes *= np.conj(a) / abs(a)
            break
    return amplitudes


def fock_state(basis: ManyBodyBasis, bitstring: str | int) -> np.ndarray:
    """Unit vector on a single occupation configuration."""
    mask = basis.mask_of(bitstring) if isinstance(bitstring, str) else bitstring
    if bin(mask).count("1") != basis.n_particles:
        raise ValueError(
            f"occupation {basis.bitstring(mask)} has the wrong particle count "
            f"for an {basis.n_particles}-particle basis"
        )
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.index[mask]] = 1.0
    return vec


def correlation_matrix(rho: np.ndarray, basis: ManyBodyBasis) -> np.ndarray:
    """Two-point matrix C_jk = Tr[rho f!_j f_k] of a sector density matrix."""
    n = basis.n_sites
    out = np.empty((n, n), dtype=complex)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            out[j - 1, k - 1] = (bilinear_operator(basis, j, k) @ rho).diagonal().sum()
    return out


def charge_sector_weights(rho: np.ndarray, basis: ManyBodyBasis,
                          tol: float = 1e-9) -> dict[float, float]:
    """Weights Tr[rho P_lambda] of a density matrix on the charge eigensectors.

    Membership is decided by projecting onto numerically obtained eigenspaces
    of the charge operator (eigenvalues rounded to the nearest half-integer),
    so it works for arbitrary input states. Weights below ``tol`` are dropped.
    """
    evals, evecs = np.linalg.eigh(charge_operator(basis).toarray())
    weights: dict[float, float] = {}
    for lam in sorted(set(np.round(evals * 2) / 2)):
        cols = evecs[:, np.abs(evals - lam) < 0.25]
        w = float(np.real(np.trace(cols.conj().T @ rho @ cols)))
        if w > tol:
            weights[float(lam)] = w
    return weights


def parity_sector_weights(rho: np.ndarray, basis: ManyBodyBasis) -> tuple[float, float]:
    """(even, odd) reflection-sector populations of a density matrix."""
    reflected = float(np.real((reflection_operator(basis) @ rho).diagonal().sum()))
    trace = float(np.real(np.trace(rho)))
    return 0.5 * (trace + reflected), 0.5 * (trace - reflected)


def even_mode_slater(basis: ManyBodyBasis, which: tuple[int, ...] | None = None,
                     parity: ModeParity | None = None) -> np.ndarray:
    """Slater state occupying even-parity modes only (dephasing-coupled
    sector); ``which`` selects positions in the even-mode list, defaulting to
    the lowest ones."""
    if parity is None:
        parity = bare_mode_parity(basis.n_sites)
    pool = parity.even
    if which is None:
        which = tuple(range(basis.n_particles))
    modes = [pool[w] for w in which]
    return slater_state(basis, modes, orbitals=parity.modes)


def odd_mode_slater(basis: ManyBodyBasis, which: tuple[int, ...] | None = None,
                    parity: ModeParity | None = None) -> np.ndarray:
    """Slater state occupying odd-parity modes only (a dark state of the
    central dephasing)."""
    if parity is None:
        parity = bare_mode_parity(basis.n_sites)
    pool = parity.odd
    if which is None:
        which = tuple(range(basis.n_particles))
    modes = [pool[w] for w in which]
    return slater_state(basis, modes, orbitals=parity.modes)
