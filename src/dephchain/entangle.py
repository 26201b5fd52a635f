"""Two-site reduced density matrices and bipartite entanglement measures.

The states here are number-conserving, so the reduced state of a pair of
fermionic modes (i, j) holds only the four pair populations and the
coherence <f!_i f_j>. The populations are read off the diagonal and the
coherence is one :func:`dephchain.fock.expectation` of the hopping bilinear,
string included, so every fermionic sign comes from :mod:`dephchain.fock`.
Concurrence is always evaluated on the exact reduced matrix, never through
Wick factorization, because the steady states here need not be Gaussian.
"""

from __future__ import annotations

import numpy as np

from .fock import ManyBodyBasis, bilinear_operator, expectation

# A 4x4 matrix whose smallest eigenvalue lies below minus this is not a state.
PSD_TOL = 1e-7

# 4x4 basis ordering of a pair (i, j), i < j: |00>, |01>, |10>, |11> with the
# occupation of i first.
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def reduce_to_pair(rho, basis: ManyBodyBasis, i: int, j: int) -> np.ndarray:
    """Reduced density matrix of sites (i, j), i < j, from a sector state.

    Exact for any d x d matrix on the sector basis: a fixed particle number
    leaves only the populations of |00>, |01>, |10>, |11>, summed from the
    diagonal of ``rho``, and the |01> <-> |10> coherences <f!_i f_j> and
    <f!_j f_i>.
    """
    n = basis.n_sites
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    rho = np.asarray(rho)
    if rho.shape != (basis.size, basis.size):
        raise ValueError(f"state shape {rho.shape} does not match basis size {basis.size}")

    occ_i, occ_j = basis.occupations[:, [i - 1, j - 1]].T
    populations = rho.diagonal()
    hop = bilinear_operator(basis, i, j)
    out = np.zeros((4, 4), dtype=complex)
    for ab, weight in enumerate(((1 - occ_i) * (1 - occ_j), (1 - occ_i) * occ_j,
                                 occ_i * (1 - occ_j), occ_i * occ_j)):
        out[ab, ab] = populations @ weight
    out[1, 2] = expectation(rho, hop)
    out[2, 1] = expectation(rho, hop.T)
    return out


def concurrence(rdm: np.ndarray) -> float:
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
    if weights[0] < -PSD_TOL:
        raise ValueError(f"input is not positive semidefinite (min eig {weights[0]:.3e})")
    w = vectors * np.sqrt(np.clip(weights, 0.0, None))
    roots = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


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
