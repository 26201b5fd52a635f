"""The generators of the block pairs of a density matrix.

A pair rho_ab = P_a rho P_b of two blocks that H and the jump both leave
invariant evolves alone (Buča & Prosen, NJP 14, 073007 (2012)), under
``-i (I x H_a - H_b^T x I) - (gamma / 2) diag(vec M_ab)`` on its
column-stacked entries (:func:`superoperator`). Since rho_ba = rho_ab^H, a
Hermitian state needs only the pairs a <= b, each stepped in its real
coordinates (:func:`real_coordinates`) under one real generator
(:func:`real_generator`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

# The weights of a pair's real coordinates, by level: sqrt(1/2)^level.
ROOT_HALF_POWERS = np.array([1.0, math.sqrt(0.5), 0.5])


def superoperator(h_a, h_b, dephased_a: np.ndarray, dephased_b: np.ndarray,
                  gamma: float) -> sparse.csr_matrix:
    """The generator of rho_ab = P_a rho P_b on its column-stacked entries,
    ``-i (I x H_a - H_b^T x I) - (gamma / 2) diag(vec M_ab)``, from the
    sparse blocks H_a and H_b of H and the jump's 0/1 diagonals on them;
    M_ab = 1 where exactly one of the two states is dephased. Its entries
    are :func:`entries`. With a = b the whole space, it is
    ``Liouvillian.matrix``."""
    m, n = h_a.shape[0], h_b.shape[0]
    return sparse.csr_matrix(entries(h_a, h_b, dephased_a, dephased_b, gamma),
                             shape=(m * n, m * n))


def entries(h_a, h_b, dephased_a: np.ndarray, dephased_b: np.ndarray,
            gamma: float) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The nonzero entries of :func:`superoperator`, as ``(data, (rows,
    cols))``, each once.

    They are written by index arithmetic. Entry (i, k) of H_a sits at
    (i + m j, k + m j) for every column j of the pair, and entry (r, c) of H_b
    at (i + m c, i + m r) for every row i (m = dim H_a). The two meet only on
    the diagonal, H_a[i, i] - H_b[j, j]. Each value is computed as sparse
    kron and subtraction compute it, -1j (a - b) minus the damping, with
    absent entries as complex zeros and zero results dropped."""
    m, n = h_a.shape[0], h_b.shape[0]
    a, b = sparse.coo_array(h_a), sparse.coo_array(h_b)
    a_data, b_data = (1 + 0j) * a.data, b.data * (1 + 0j)     # kron's products with I
    on_a, on_b = a.row == a.col, b.row == b.col
    a_off, b_off = ~on_a & (a_data != 0), ~on_b & (b_data != 0)
    diagonal_a, diagonal_b = np.zeros(m, dtype=complex), np.zeros(n, dtype=complex)
    diagonal_a[a.row[on_a]] = a_data[on_a]
    diagonal_b[b.row[on_b]] = b_data[on_b]
    difference = (diagonal_a - diagonal_b[:, None]).ravel()      # entry i + m j
    diagonal = np.where(difference != 0, -1j * difference, 0j)
    if gamma:
        diagonal -= 0.5 * gamma * (dephased_a != dephased_b[:, None]).ravel()
    kept = np.flatnonzero(diagonal)
    block, site = m * np.arange(n)[:, None], np.arange(m)[:, None]
    rows = np.concatenate([(block + a.row[a_off]).ravel(), (m * b.col[b_off] + site).ravel(), kept])
    cols = np.concatenate([(block + a.col[a_off]).ravel(), (m * b.row[b_off] + site).ravel(), kept])
    data = np.concatenate([np.tile(-1j * a_data[a_off], n),
                           np.tile(-1j * (0j - b_data[b_off]), m), diagonal[kept]])
    return data, (rows, cols)


class RealCoordinates(NamedTuple):
    """The real parameters of a block pair's column-stacked complex entries
    e, as their float slots 2 e (real part) and 2 e + 1 (imaginary part)
    read them: each listed ``slot`` holds ``sign`` sqrt(1/2)^``level`` times
    the parameter ``param``, and a slot not listed is zero."""

    slot: np.ndarray
    param: np.ndarray
    sign: np.ndarray
    level: np.ndarray

    @property
    def weight(self) -> np.ndarray:
        """The factor of each listed slot, ``sign`` sqrt(1/2)^``level``."""
        return self.sign * ROOT_HALF_POWERS[self.level]


def real_coordinates(m: int, n: int, hermitian: bool) -> RealCoordinates:
    """The real coordinates of an m x n block pair rho_ab. Off the diagonal
    (a < b) they are the 2 m n real and imaginary parts themselves, in the
    order of the float view. A diagonal pair rho_aa (``hermitian``, m = n) is
    Hermitian, and its n^2 parameters are laid out as a real n x n matrix,
    column-stacked: rho_ii on the diagonal, and sqrt 2 Re rho_ij above it and
    sqrt 2 Im rho_ij below it, at (j, i), for i < j. That basis of the
    Hermitian matrices is orthonormal, so it keeps the Frobenius norm."""
    slot = np.arange(2 * m * n)
    if not hermitian:
        return RealCoordinates(slot, slot, np.ones(len(slot)), np.zeros(len(slot), dtype=int))
    j, i = np.divmod(slot // 2, n)
    part, off = slot % 2, i != j
    listed = (part == 0) | off      # the imaginary parts of the diagonal are zero
    low, high = np.minimum(i, j), np.maximum(i, j)
    param = np.where(part == 0, low + n * high, high + n * low)
    sign = np.where((part == 1) & (i > j), -1.0, 1.0)
    return RealCoordinates(slot[listed], param[listed], sign[listed], off[listed].astype(int))


def real_generator(h_a, h_b, dephased_a: np.ndarray, dephased_b: np.ndarray,
                   gamma: float, coordinates: RealCoordinates) -> sparse.csr_matrix:
    """The real generator of a block pair's real coordinates
    (:func:`real_coordinates`), from the complex generator G = P + i Q of
    :func:`superoperator` with the same arguments: on the float view
    (x_e, y_e) of the entries, each entry of G is the real block
    [[P, -Q], [Q, P]], and in the coordinates the generator is
    T^T [[P, -Q], [Q, P]] T, T the isometry from the parameters to the float
    slots. G maps a diagonal pair's Hermitian matrices to Hermitian ones, so
    that is its exact restriction there.

    The entries are written by index arithmetic: each entry of G gives its
    real ones, each moved to the parameters of its two slots and scaled by
    their weights, whose product is exact where both are sqrt(1/2). Entries
    that meet are summed in the order they were written, and zero sums are
    dropped."""
    data, (rows, cols) = entries(h_a, h_b, dephased_a, dephased_b, gamma)
    re, im = data.real != 0, data.imag != 0
    rows = np.concatenate([2 * rows[re], 2 * rows[im], 2 * rows[im] + 1, 2 * rows[re] + 1])
    cols = np.concatenate([2 * cols[re], 2 * cols[im] + 1, 2 * cols[im], 2 * cols[re] + 1])
    data = np.concatenate([data.real[re], -data.imag[im], data.imag[im], data.real[re]])
    param = np.full(2 * h_a.shape[0] * h_b.shape[0], -1)
    sign, level = np.zeros(len(param)), np.zeros(len(param), dtype=int)
    param[coordinates.slot] = coordinates.param
    sign[coordinates.slot], level[coordinates.slot] = coordinates.sign, coordinates.level
    used = (param[rows] >= 0) & (param[cols] >= 0)
    rows, cols, data = rows[used], cols[used], data[used]
    data *= sign[rows] * sign[cols] * ROOT_HALF_POWERS[level[rows] + level[cols]]
    size = int(coordinates.param.max()) + 1
    key = param[rows] * size + param[cols]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    data = np.add.reduceat(data[order], first)
    nonzero = data != 0
    row, col = np.divmod(key[first][nonzero], size)
    return sparse.csr_matrix((data[nonzero], col, np.searchsorted(row, np.arange(size + 1))),
                             shape=(size, size))
