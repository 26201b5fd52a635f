"""Two-site reduced density matrices and bipartite entanglement measures.

The reduced state of a pair of fermionic modes is computed with full
Jordan-Wigner bookkeeping: the pair is moved to the end of the canonical mode
ordering, accumulating permutation signs, and the rest is traced out. The
coherence element of the result is exactly the two-point function
<f!_i f_j>, string included. Concurrence is always evaluated on the exact
reduced matrix, never through Wick factorization, because the steady states
here need not be Gaussian.
"""

from __future__ import annotations

import numpy as np

from .fock import ManyBodyBasis

# 4x4 basis ordering of a pair (i, j), i < j: |00>, |01>, |10>, |11> with the
# occupation of i first.
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def reduce_to_pair(rho, basis: ManyBodyBasis, i: int, j: int) -> np.ndarray:
    """Reduced density matrix of sites (i, j), i < j, from a sector state.

    All other sites are traced out in the canonical mode ordering; fermionic
    strings are resolved by reordering each configuration so the pair sits
    adjacent at the end, with the permutation parity absorbed into the
    amplitude.
    """
    n = basis.n_sites
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    rho = np.asarray(rho)
    if rho.shape != (basis.size, basis.size):
        raise ValueError(f"state shape {rho.shape} does not match basis size {basis.size}")

    bit_i, bit_j = 1 << (n - i), 1 << (n - j)
    below_j = bit_j - 1          # bits of sites strictly right of j
    below_i = bit_i - 1
    grouped: dict[int, list[tuple[int, int, int]]] = {}
    for q, mask in enumerate(basis.states):
        env = mask & ~(bit_i | bit_j)
        occ_i = 1 if mask & bit_i else 0
        occ_j = 1 if mask & bit_j else 0
        # parity of moving f!_j to the end, then f!_i next to it
        swaps = occ_j * (env & below_j).bit_count() + occ_i * (env & below_i).bit_count()
        sign = -1 if swaps & 1 else 1
        grouped.setdefault(env, []).append((2 * occ_i + occ_j, q, sign))

    out = np.zeros((4, 4), dtype=complex)
    for entries in grouped.values():
        for ab, q, sign in entries:
            for ab2, q2, sign2 in entries:
                out[ab, ab2] += sign * sign2 * rho[q, q2]
    return out


def concurrence(rdm: np.ndarray, psd_tol: float = 1e-7) -> float:
    """Wootters concurrence of a two-qubit density matrix.

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
    if weights[0] < -psd_tol:
        raise ValueError(f"input is not positive semidefinite (min eig {weights[0]:.3e})")
    w = vectors * np.sqrt(np.clip(weights, 0.0, None))
    roots = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


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


def negativity(rdm: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    eig = partial_transpose_eigenvalues(rdm)
    return float(-eig[eig < 0].sum())


def is_x_state(rho, tol: float = 1e-7) -> tuple[bool, float]:
    """Whether all entries off the diagonal and anti-diagonal stay below
    ``tol``; also returns the largest off-pattern magnitude."""
    rho = np.asarray(rho)
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise ValueError("expected a square matrix")
    pattern = np.eye(n, dtype=bool) | np.eye(n, dtype=bool)[::-1]
    off = float(np.abs(rho[~pattern]).max(initial=0.0))
    return off < tol, off
