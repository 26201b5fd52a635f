"""Two-site reduced density matrices and their concurrence.

The states here are number-conserving, so a pair of fermionic modes (i, j)
holds only four populations and the coherence z = <f!_i f_j>, a bilinear
whose string signs come from :mod:`dephchain.fock`. :func:`pair_readouts`
alone defines the five operators that read them, on a whole state
(:func:`reduce_to_pair`) or as series of :func:`dephchain.lindblad.evolve_scan`.
Such a pair is an X-state, whose concurrence has a closed form (Wootters,
PRL 80, 2245 (1998)); the steady states need not be Gaussian, so no Wick
factorization is used.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sparse

from .fock import ManyBodyBasis, bilinear_operator, expectation

# A 4x4 matrix with an eigenvalue below minus this, or an entry above it off
# the number-conserving pattern, is refused.
PSD_TOL = 1e-7

# 4x4 basis of a pair (i, j), i < j: |00>, |01>, |10>, |11>, the occupation of i
# first. Number conservation leaves the diagonal and the |01> <-> |10> entries.
_POPULATIONS = ("p00", "p01", "p10", "p11")
_PATTERN = np.eye(4, dtype=bool)
_PATTERN[1, 2] = _PATTERN[2, 1] = True


def pair_readouts(basis: ManyBodyBasis, i: int, j: int) -> dict:
    """The five readouts of sites (i, j), 1 <= i < j <= N, as COO operators:
    the populations ``"p00"``, ``"p01"``, ``"p10"``, ``"p11"``, diagonal, and
    ``"z"``, the bilinear f!_i f_j. A bool or non-integer site raises ``ValueError``."""
    n = basis.n_sites
    if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in (i, j)):
        raise ValueError(f"sites must be integers, got ({i!r}, {j!r})")
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    label = basis.occupations[:, [i - 1, j - 1]] @ [2, 1]   # each basis state's pair state
    readouts = {}
    for k, name in enumerate(_POPULATIONS):
        q = np.flatnonzero(label == k)
        readouts[name] = sparse.coo_matrix((np.ones(q.size), (q, q)), shape=(basis.size,) * 2)
    readouts["z"] = bilinear_operator(basis, i, j).tocoo()
    return readouts


def pair_matrix(values) -> np.ndarray:
    """The Hermitian 4 x 4, or a (..., 4, 4) stack, from the values of the
    :func:`pair_readouts`: populations on the diagonal, z at [1, 2]."""
    z = np.asarray(values["z"])
    out = np.zeros(z.shape + (4, 4), dtype=complex)
    for k, name in enumerate(_POPULATIONS):
        out[..., k, k] = values[name]
    out[..., 1, 2], out[..., 2, 1] = z, np.conj(z)
    return out


def reduce_to_pair(rho, basis: ManyBodyBasis, i: int, j: int) -> np.ndarray:
    """Reduced density matrix of sites (i, j), i < j, of a d x d sector state:
    :func:`fock.expectation` of each of the :func:`pair_readouts` on ``rho``."""
    readouts = pair_readouts(basis, i, j)
    rho = np.asarray(rho)
    if rho.shape != (basis.size, basis.size):
        raise ValueError(f"state shape {rho.shape} does not match basis size {basis.size}")
    return pair_matrix({name: expectation(rho, op) for name, op in readouts.items()})


def concurrence(rdm: np.ndarray) -> float:
    """Concurrence ``2 max(0, |z| - sqrt(p00 p11))`` of a number-conserving pair,
    z the coherence of the Hermitian part of ``rdm``. ``ValueError`` refuses a
    matrix that is not 4 x 4, has a non-finite entry or one above ``PSD_TOL``
    off the pattern, or has an eigenvalue below ``-PSD_TOL``."""
    rdm = np.asarray(rdm)
    if rdm.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rdm.shape}")
    if not np.isfinite(rdm).all():
        raise ValueError("input has a non-finite entry")
    off = np.abs(rdm[~_PATTERN]).max()
    if off > PSD_TOL:
        raise ValueError(f"input is not number-conserving (entry {off:.3e} off its pattern)")
    p00, p01, p10, p11 = rdm.diagonal().real
    z = abs(0.5 * (rdm[1, 2] + np.conj(rdm[2, 1])))
    smallest = min(p00, p11, 0.5 * (p01 + p10) - math.hypot(0.5 * (p01 - p10), z))
    if smallest < -PSD_TOL:
        raise ValueError(f"input is not positive semidefinite (min eig {smallest:.3e})")
    return float(max(0.0, 2.0 * (z - math.sqrt(max(p00, 0.0) * max(p11, 0.0)))))


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
