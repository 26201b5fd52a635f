"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's bit-twiddling and
sign-bookkeeping paths: fermionic operators act on explicit ordered
creation-operator sequences, and reduced states come from full Jordan-Wigner
spin matrices on the 2^N-dimensional space. Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


# ----------------------------------------------------------------------
# Ordered-sequence fermion algebra
# ----------------------------------------------------------------------

def normal_order(sequence) -> tuple[tuple[int, ...], int]:
    """Sort a creation-operator sequence ascending by bubble swaps, tracking
    the sign; repeated sites annihilate the state (sign 0)."""
    ops = list(sequence)
    sign = 1
    changed = True
    while changed:
        changed = False
        for a in range(len(ops) - 1):
            if ops[a] == ops[a + 1]:
                return tuple(), 0
            if ops[a] > ops[a + 1]:
                ops[a], ops[a + 1] = ops[a + 1], ops[a]
                sign = -sign
                changed = True
    return tuple(ops), sign


def apply_creation(state: dict, site: int) -> dict:
    """f!_site acting on {ordered-tuple: amplitude} superpositions."""
    out: dict = {}
    for seq, amp in state.items():
        ordered, sign = normal_order((site,) + seq)
        if sign:
            out[ordered] = out.get(ordered, 0.0) + sign * amp
    return out


def apply_annihilation(state: dict, site: int) -> dict:
    """f_site: anticommute through the ordered product until the matching
    creation operator is hit; zero if the site is empty."""
    out: dict = {}
    for seq, amp in state.items():
        if site not in seq:
            continue
        position = seq.index(site)
        sign = -1 if position % 2 else 1
        reduced = seq[:position] + seq[position + 1:]
        out[reduced] = out.get(reduced, 0.0) + sign * amp
    return out


def bruteforce_basis(n_sites: int, n_particles: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n_sites + 1), n_particles))


def bruteforce_bilinear(n_sites: int, n_particles: int, i: int, j: int) -> np.ndarray:
    """Matrix of f!_i f_j via explicit anticommutation."""
    basis = bruteforce_basis(n_sites, n_particles)
    index = {seq: q for q, seq in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)))
    for q, seq in enumerate(basis):
        state = apply_creation(apply_annihilation({seq: 1.0}, j), i)
        for target, amp in state.items():
            out[index[target], q] += amp
    return out


def bruteforce_reflection(n_sites: int, n_particles: int) -> np.ndarray:
    """Site-reversal matrix from reordering reflected creation products."""
    basis = bruteforce_basis(n_sites, n_particles)
    index = {seq: q for q, seq in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)))
    for q, seq in enumerate(basis):
        reflected = tuple(n_sites + 1 - s for s in seq)
        ordered, sign = normal_order(reflected)
        out[index[ordered], q] = sign
    return out


def chain_spectrum(n_sites: int, tunneling: float = 1.0) -> np.ndarray:
    """Closed-form open-chain spectrum -2J cos(k pi / (N + 1)), ascending."""
    k = np.arange(1, n_sites + 1)
    return np.sort(-2.0 * tunneling * np.cos(k * np.pi / (n_sites + 1)))


# ----------------------------------------------------------------------
# Jordan-Wigner spin picture on the full 2^N space
# ----------------------------------------------------------------------

def jw_annihilation(n_sites: int, site: int) -> np.ndarray:
    """f_site as a 2^N x 2^N matrix: Z-string on sites left of ``site``.
    Site 1 is the most significant tensor factor, so a spin basis index reads
    as the occupation bitstring."""
    factors = []
    for s in range(1, n_sites + 1):
        if s < site:
            factors.append(PAULI_Z)
        elif s == site:
            factors.append(SIGMA_MINUS)
        else:
            factors.append(np.eye(2))
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


def embed_sector_state(vector: np.ndarray, basis) -> np.ndarray:
    """Lift a sector state into the 2^N spin space (canonical fermionic basis
    states map to spin basis states with coefficient +1)."""
    full = np.zeros(2 ** basis.n_sites, dtype=complex)
    for q, mask in enumerate(basis.states):
        full[mask] = vector[q]
    return full


def embed_sector_density(rho: np.ndarray, basis) -> np.ndarray:
    full = np.zeros((2 ** basis.n_sites,) * 2, dtype=complex)
    for q, mask in enumerate(basis.states):
        for q2, mask2 in enumerate(basis.states):
            full[mask, mask2] = rho[q, q2]
    return full


def jw_pair_rdm(rho: np.ndarray, basis, i: int, j: int) -> np.ndarray:
    """Two-mode reduced density matrix via explicit spin-operator traces.

    Each element <m|rho_pair|n> is the expectation of the fermionic image of
    the pair-space transition operator |n><m|. The images are assembled from
    full Jordan-Wigner matrices for f_i and f_j (strings included); the
    pair-space basis |ab> = (f!_i)^a (f!_j)^b |0> fixes every sign, notably
    |11><10| = -n_i f!_j.
    """
    n = basis.n_sites
    f_i = jw_annihilation(n, i)
    f_j = jw_annihilation(n, j)
    fd_i, fd_j = f_i.conj().T, f_j.conj().T
    n_i, n_j = fd_i @ f_i, fd_j @ f_j
    eye = np.eye(2 ** n)
    e_i, e_j = eye - n_i, eye - n_j   # emptiness projectors

    # ket_bra[(ket, bra)] = |ket><bra| lifted to the full space
    ket_bra = {
        ((0, 0), (0, 0)): e_i @ e_j,
        ((0, 1), (0, 1)): e_i @ n_j,
        ((1, 0), (1, 0)): n_i @ e_j,
        ((1, 1), (1, 1)): n_i @ n_j,
        ((0, 1), (0, 0)): fd_j @ e_i,
        ((0, 0), (0, 1)): f_j @ e_i,
        ((1, 0), (0, 0)): fd_i @ e_j,
        ((0, 0), (1, 0)): f_i @ e_j,
        ((1, 1), (0, 1)): fd_i @ n_j,
        ((0, 1), (1, 1)): f_i @ n_j,
        ((1, 1), (1, 0)): -(n_i @ fd_j),
        ((1, 0), (1, 1)): -(n_i @ f_j),
        ((1, 1), (0, 0)): fd_i @ fd_j,
        ((0, 0), (1, 1)): f_j @ f_i,
        ((1, 0), (0, 1)): fd_i @ f_j,
        ((0, 1), (1, 0)): fd_j @ f_i,
    }
    rho_full = embed_sector_density(rho, basis)
    out = np.zeros((4, 4), dtype=complex)
    for (ket, bra), operator in ket_bra.items():
        # <bra|rho_pair|ket> = Tr[rho |ket><bra|]
        out[2 * bra[0] + bra[1], 2 * ket[0] + ket[1]] = np.trace(rho_full @ operator)
    return out


def xstate_concurrence(p00: float, p11: float, coherence: complex) -> float:
    """Closed form for the number-conserving X pair: 2 max(0, |z| - sqrt(p00 p11))."""
    return max(0.0, 2.0 * (abs(coherence) - math.sqrt(max(p00, 0.0) * max(p11, 0.0))))


# ----------------------------------------------------------------------
# Kernel of a superoperator by brute force
# ----------------------------------------------------------------------

def dense_kernel(superoperator: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis of a dense superoperator: the right singular
    vectors of its full SVD whose singular value is below ``tol``."""
    _u, svals, vh = np.linalg.svd(superoperator)
    return vh[svals < tol].conj().T
