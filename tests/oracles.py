"""Independent oracles used by the test suite.

The brute-force oracles deliberately avoid the package's bit-twiddling and
sign-bookkeeping paths: fermionic operators act on explicit ordered
creation-operator sequences, and reduced states come from full Jordan-Wigner
spin matrices on the 2^N-dimensional space. Slow and simple on purpose.

Wootters' general two-qubit concurrence, from an eigendecomposition and an
SVD, is the reference for the package's closed form on number-conserving
pairs. The closed forms below them are the references that no run computes:
the full N = 3 trajectory, the N = 5 steady-state equations, the steady
pair's reduced state, its partial-transpose spectrum in closed form and from
any reduced state, and the two-point matrix of a sector state read through
the package's bilinears.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from dephchain.entangle import PSD_TOL
from dephchain.fock import ManyBodyBasis, bilinear_operator, expectation

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


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rdm: np.ndarray) -> float:
    """Wootters concurrence of any two-qubit density matrix.

    The square roots l1 >= ... >= l4 of the eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` are combined as
    ``max(0, l1 - l2 - l3 - l4)``. They are taken as the singular values of
    Wootters' ``tau = W^T (sy x sy) W`` with ``rho = W W^dagger``,
    ``W = V sqrt(p)`` from the eigendecomposition of rho; the eigenvalues of
    the non-normal product lose half their digits on rank-deficient states.
    For the X-form steady pair this reduces to ``2 max(0, |z| - sqrt(p00 p11))``.
    """
    rdm = np.asarray(rdm)
    if rdm.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rdm.shape}")
    weights, vectors = np.linalg.eigh(0.5 * (rdm + rdm.conj().T))
    if weights[0] < -PSD_TOL:
        raise ValueError(f"input is not positive semidefinite (min eig {weights[0]:.3e})")
    w = vectors * np.sqrt(np.clip(weights, 0.0, None))
    roots = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


# ----------------------------------------------------------------------
# Kernel of a superoperator by brute force
# ----------------------------------------------------------------------

def dense_kernel(superoperator: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis of a dense superoperator: the right singular
    vectors of its full SVD whose singular value is below ``tol``."""
    _u, svals, vh = np.linalg.svd(superoperator)
    return vh[svals < tol].conj().T


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------

_REAL_TOL = 1e-12


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


def partial_transpose_eigenvalues(rdm: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose over the second site.

    A negative eigenvalue certifies entanglement; for two qubits the PPT
    criterion is also sufficient, so a non-negative spectrum means separable.
    """
    rdm = np.asarray(rdm)
    if rdm.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rdm.shape}")
    blocks = rdm.reshape(2, 2, 2, 2)
    transposed = blocks.transpose(0, 3, 2, 1).reshape(4, 4)
    return np.sort(np.linalg.eigvalsh(transposed))


def correlation_matrix(rho: np.ndarray, basis: ManyBodyBasis) -> np.ndarray:
    """Two-point matrix C_jk = Tr[rho f!_j f_k] of a sector density matrix."""
    n = basis.n_sites
    out = np.empty((n, n), dtype=complex)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            out[j - 1, k - 1] = expectation(rho, bilinear_operator(basis, j, k))
    return out
