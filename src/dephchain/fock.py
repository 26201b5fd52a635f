"""Many-body Fock-space machinery for spinless fermions on the chain.

Basis states are occupation bitstrings with site 1 leftmost; the state
``|s1 s2 ... sN>`` is the canonical product ``f!_{i1} f!_{i2} ... |0>`` of
creation operators sorted by ascending site index. Every fermionic sign in
the package derives from that single ordering convention, and only this
module knows it: other modules read sector states through the operators
built here and :func:`expectation`.

Operators are returned as ``scipy.sparse`` CSR matrices at every sector
dimension; states and density matrices are dense ``numpy`` arrays.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator

import numpy as np
import scipy.sparse as sparse

from .model import (
    LatticeSpec,
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

    @property
    def occupations(self) -> np.ndarray:
        """(size, n_sites) array of 0/1: entry [q, s - 1] is the occupation
        of site s in basis state q."""
        shifts = np.arange(self.n_sites - 1, -1, -1)
        # Masks of 64 or more sites stay Python ints, which never overflow.
        masks = np.array(self.states, dtype=int if self.n_sites < 64 else object)
        return ((masks[:, None] >> shifts) & 1).astype(int)

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
    as one CSR matrix. Distinct off-diagonal terms never share an element.
    A bool or non-integer site raises ``ValueError``."""
    n = basis.n_sites
    rows, cols, vals = [], [], []
    for i, j, coefficient in terms:
        if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in (i, j)):
            raise ValueError(f"sites must be integers, got ({i!r}, {j!r})")
        i, j = int(i), int(j)
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
    return sparse.diags(basis.occupations.sum(axis=1).astype(float), format="csr")


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
    hopping = [(int(i) + 1, int(j) + 1, h[i, j]) for i, j in zip(*np.nonzero(h)) if i != j]
    # Diagonal terms overlap, so they are summed here, site by site in
    # ascending order, and not left to the CSR assembly.
    diagonal = [sum(h[s - 1, s - 1] for s in basis.occupied_sites(m))
                + spec.interaction * sum(_occ(m, n, i) * _occ(m, n, i + 1) for i in range(1, n))
                for m in basis.states]
    return _bilinear_sum(basis, hopping) + sparse.diags(diagonal, format="csr")


def reflection_operator(basis: ManyBodyBasis):
    """Many-body site-reversal operator R with R^2 = identity.

    Each basis state maps to the state with reflected occupations. Reordering
    the reversed product of k sorted creation operators back to ascending
    order takes k(k-1)/2 transpositions, so every entry carries the one sign
    (-1)^(k(k-1)/2) of the sector.
    """
    mirror, sign = _mirror(basis)
    return sparse.csr_matrix((np.full(basis.size, sign), (mirror, range(basis.size))),
                             shape=(basis.size, basis.size))


def _mirror(basis: ManyBodyBasis) -> tuple[np.ndarray, float]:
    """The index of each basis state's mirror image, and the sector sign of R."""
    k = basis.n_particles
    sign = -1.0 if (k * (k - 1) // 2) & 1 else 1.0
    # Reversing a mask's bitstring reverses its sites, at any chain length.
    mirrored = [int(basis.bitstring(m)[::-1], 2) for m in basis.states]
    return np.array([basis.index[m] for m in mirrored], dtype=int), sign


def reflection_orbits(basis: ManyBodyBasis) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
    """Orthonormal bases of the +1 and -1 eigenspaces of R, exact and sparse.

    R maps e_s to sign * e_m, with m the mirror image of s. A state that is
    its own mirror image is an eigenvector, e_s, of eigenvalue ``sign``;
    every other orbit {s, m} gives (e_s + R e_s) / sqrt 2 to the +1 space and
    (e_s - R e_s) / sqrt 2 to the -1 space. Columns follow the lower state of
    each orbit; a space may have no column. A diagonal operator that
    commutes with R, such as the central occupation, is equal on s and m,
    so it stays diagonal in these bases.
    """
    mirror, sign = _mirror(basis)
    lower = np.flatnonzero(np.arange(basis.size) <= mirror)
    spaces = []
    for eigenvalue in (1.0, -1.0):
        s = lower[(mirror[lower] != lower) | (sign == eigenvalue)]
        pair = mirror[s] != s
        # Column by column: row s, then row m below it for a two-state orbit.
        indptr = np.concatenate([[0], np.cumsum(1 + pair)])
        first, second = indptr[:-1], indptr[:-1][pair] + 1
        indices, data = np.empty(indptr[-1], dtype=int), np.empty(indptr[-1])
        indices[first], indices[second] = s, mirror[s[pair]]
        data[first] = np.where(pair, math.sqrt(0.5), 1.0)
        data[second] = eigenvalue * sign * math.sqrt(0.5)
        spaces.append(sparse.csc_matrix((data, indices, indptr), shape=(basis.size, len(s))))
    return spaces[0], spaces[1]


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


def slater_determinants(basis: ManyBodyBasis, orbitals: np.ndarray) -> np.ndarray:
    """Unnormalized Slater amplitudes of an (..., N, Np) stack of orbital
    columns, in creation order: the (..., d) determinants of their rows at
    the occupied sites of each basis state, ascending as this module orders."""
    rows = np.nonzero(basis.occupations)[1].reshape(basis.size, basis.n_particles)
    return np.linalg.det(np.asarray(orbitals)[..., rows, :])


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
    if not all(0 <= c < orbitals.shape[1] for c in cols):
        raise ValueError(f"mode indices {modes} outside 1..{orbitals.shape[1]}")
    amplitudes = slater_determinants(basis, orbitals[:, cols]).astype(complex)
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
    """Unit vector on a single occupation configuration; a bool mask raises ``ValueError``."""
    if isinstance(bitstring, bool):
        raise ValueError(f"occupation mask {bitstring!r} is a bool, not an integer")
    mask = basis.mask_of(bitstring) if isinstance(bitstring, str) else operator.index(bitstring)
    if mask not in basis.index:
        raise ValueError(f"occupation mask {mask} ({basis.bitstring(mask)}) is not a state of "
                         f"the {basis.n_sites}-site, {basis.n_particles}-particle basis")
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.index[mask]] = 1.0
    return vec


def expectation(rho: np.ndarray, operator):
    """Tr[O rho] of one d x d state, or one value per state of a (T, d, d)
    stack, summed over the nonzero entries of the (sparse or dense) O only.
    Each state's products are laid out in one C-ordered row and reduced by
    numpy's pairwise sum, never by BLAS, so a state's value does not depend
    on the stack it is read in or on the BLAS thread count. A COO matrix is
    read as it is, which spares a caller that reads one operator many times
    scipy's conversion. An operator that is not d x d raises ``ValueError``."""
    rho = np.asarray(rho)
    op = operator if isinstance(operator, sparse.coo_matrix) else sparse.coo_matrix(operator)
    if op.shape != rho.shape[-2:]:
        raise ValueError(f"operator shape {op.shape} does not match state shape {rho.shape[-2:]}")
    return np.multiply(rho[..., op.col, op.row], op.data, order="C").sum(axis=-1)


def even_mode_slater(basis: ManyBodyBasis, which: tuple[int, ...] | None = None) -> np.ndarray:
    """Slater state occupying even-parity bare modes only (dephasing-coupled
    sector); ``which`` selects positions in the even-mode list, defaulting to
    the lowest ones."""
    parity = bare_mode_parity(basis.n_sites)
    if which is None:
        which = tuple(range(basis.n_particles))
    return slater_state(basis, [parity.even[w] for w in which], orbitals=parity.modes)
