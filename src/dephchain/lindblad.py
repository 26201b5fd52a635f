"""Liouvillian construction, master-equation evolution, and steady states.

The one jump operator, the central-site occupation n_c, is a 0/1 diagonal
in the Fock basis, so its dissipator is an entrywise mask:

    d rho / dt = -i [H, rho] - (gamma / 2) M o rho,    M_ab = (n_a - n_b)^2.

Density matrices are vectorized by column stacking, under which ``A rho B``
maps to ``kron(B.T, A) vec(rho)``; that convention is fixed here and used everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.linalg import expm
from scipy.sparse import csgraph

from .fock import ManyBodyBasis, build_many_body_hamiltonian, number_operator
from .model import LatticeSpec

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
ABORT_FACTOR = 10.0

# A time grid that differs from ``np.linspace`` over its own ends by at most
# this many ulps of its last time is propagated in one interval call.
UNIFORM_GRID_ULPS = 4

# Eigenvalues of H closer than this (in the units of H) are one degenerate
# level, and gaps E_a - E_b closer than this are one gap. It lies well above
# eigh's rounding of a degeneracy (about 1e-14 here) and well below the
# 1e-10 residual a kernel element must meet.
DEGENERACY_TOL = 1e-11
# Singular values of the dark-subspace constraint below this count as zero.
NULL_TOL = 1e-10
# A gap whose constraint Gram matrix has all eigenvalues above this (all
# singular values above 1e-4) has no dark combination and is not solved.
_GRAM_SCREEN = 1e-8
# Row blocks of the dark-subspace constraint are about this many bytes.
_CHUNK_BYTES = 1 << 22
# Chunks of samples rotated back from the block basis, or whose residual is
# taken, at once are about this many bytes.
_SAMPLE_CHUNK_BYTES = 1 << 20

# Two sets of eigenvectors of H between which the compressed jump V^H n_c V
# has a Frobenius norm above this lie in one symmetry block. The norm, not
# the largest entry, bounds every entry after the rotation inside a block.
BLOCK_COUPLING_TOL = 1e-12
# A block whose compressed jump has an eigenvalue farther than this from both
# 0 and 1 is not invariant under the jump, and the block route is refused.
BLOCK_JUMP_TOL = 1e-10
# The largest pair generator, (block size)^2, propagated by dense exponentials.
# Measured on N = 7, Np = 4: dense won at pair size 196 (the trapped
# fock-quench, 0.42 s against 0.62 s for its 401 samples and 0.22 s against
# 0.32 s for one step to t = 31.1) and lost at 361 (the interacting
# reflection sectors, 0.86 s against 0.10 s for that one step).
DENSE_PAIR_LIMIT = 196


class InvariantViolation(RuntimeError):
    """A density-matrix invariant (trace, hermiticity, positivity) failed
    beyond the abort threshold."""


class SteadyStateNotConverged(RuntimeError):
    """The state has weight on purely imaginary eigenvalues +-i omega of L,
    so it never settles: the residual of that undamped part, carried as
    ``residual``, reaches the tolerance. Also carries the gap ``omega`` and
    the ``weight`` (Frobenius norm) of its largest piece. Expected for initial
    states straddling symmetry sectors, whose coherences oscillate forever."""

    def __init__(self, message: str, residual: float, omega: float, weight: float):
        super().__init__(message)
        self.residual = residual
        self.omega = omega
        self.weight = weight


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int | None = None) -> np.ndarray:
    if dim is None:
        dim = math.isqrt(len(vec))
    return np.asarray(vec).reshape((dim, dim), order="F")


def pure_state(psi: np.ndarray) -> np.ndarray:
    """The density matrix |psi><psi| of a state vector, normalized."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def invariant_deviations(rho: np.ndarray) -> dict[str, float]:
    """Trace, hermiticity, and positivity deviations of a density matrix,
    named as in a trajectory's diagnostics (the worst of its samples)."""
    herm = np.abs(rho - rho.conj().T).max()
    trace = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return {"max_trace_dev": float(trace), "max_herm_dev": float(herm),
            "min_eigenvalue": min_eig}


def _check_deviations(deviations: dict[str, float], factor: float, where: str = "") -> None:
    """Raise :class:`InvariantViolation` when a deviation exceeds ``factor``
    times its tolerance; ``where`` ends the message."""
    if deviations["max_trace_dev"] > factor * TRACE_TOL:
        raise InvariantViolation(f"trace deviation {deviations['max_trace_dev']:.3e}{where}")
    if deviations["max_herm_dev"] > factor * HERMITICITY_TOL:
        raise InvariantViolation(f"hermiticity deviation {deviations['max_herm_dev']:.3e}{where}")
    if deviations["min_eigenvalue"] < -factor * POSITIVITY_TOL:
        raise InvariantViolation(f"negative eigenvalue {deviations['min_eigenvalue']:.3e}{where}")


def validate_density(rho: np.ndarray) -> None:
    """Raise :class:`InvariantViolation` when the trace, hermiticity or
    positivity deviation of ``rho`` exceeds its tolerance."""
    _check_deviations(invariant_deviations(rho), 1.0)


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


@dataclass
class Liouvillian:
    """The generator ``-i [H, rho] - (gamma / 2) M o rho`` of a sparse d x d
    Hamiltonian H, where ``dephased`` is the boolean diagonal of the jump
    operator and M_ab = 1 where exactly one of the states a, b is dephased."""

    hamiltonian: sparse.csr_matrix
    dephased: np.ndarray
    gamma: float

    @property
    def dim(self) -> int:
        """Density-matrix dimension d; the superoperator is d^2 x d^2."""
        return self.hamiltonian.shape[0]

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The superoperator on column-vectorized density matrices,
        ``-i (I x H - H^T x I) - (gamma / 2) diag(vec M)``."""
        h = self.hamiltonian
        identity = sparse.identity(self.dim, format="csr", dtype=complex)
        gen = -1j * (sparse.kron(identity, h) - sparse.kron(h.T, identity))
        if self.gamma:
            mask = self.dephased[:, None] != self.dephased[None, :]
            gen = gen - sparse.diags(0.5 * self.gamma * mask.ravel(order="F"))
        return gen.tocsr()

    def residual(self, rho: np.ndarray) -> float | np.ndarray:
        """Infinity norm of L(rho) = -i [H, rho] - (gamma / 2) M o rho; zero
        exactly on steady states. ``rho`` is one d x d matrix, which gives a
        float, or a (T, d, d) stack, which gives one norm per state."""
        rho = np.asarray(rho)
        h = self.hamiltonian.toarray()
        damping = 0.5 * self.gamma * (self.dephased[:, None] != self.dephased[None, :])
        stack = rho.reshape(-1, self.dim, self.dim)
        rows = max(1, _SAMPLE_CHUNK_BYTES // (16 * self.dim * self.dim))
        norms = np.empty(len(stack))
        for k in range(0, len(stack), rows):
            chunk = stack[k:k + rows]
            image = h @ chunk
            image -= chunk @ h
            image *= -1j
            image -= damping * chunk
            norms[k:k + rows] = np.abs(image).max(axis=(1, 2))
        return float(norms[0]) if rho.ndim == 2 else norms

    def trace_defect(self) -> float:
        """Norm of the identity acting from the left; zero when the generator
        is trace preserving."""
        left = vectorize(np.eye(self.dim)).conj() @ self.matrix
        return float(np.abs(left).max())

    @functools.cached_property
    def _spectrum(self):
        """H's eigenbasis for the steady-state projection and the symmetry
        blocks: level energy of each eigenvector, the eigenvectors, their
        level index, and the eigenvector rows of the dephased states (none
        when gamma = 0) and of the rest."""
        h = self.hamiltonian.toarray()
        energies, vectors = np.linalg.eigh(h if np.any(h.imag) else h.real)
        level = np.cumsum(np.diff(energies, prepend=energies[:1]) > DEGENERACY_TOL)
        energies = (np.bincount(level, weights=energies) / np.bincount(level))[level]
        on = self.dephased & (self.gamma > 0)
        return energies, vectors, level, vectors[on], vectors[~on]


def build_liouvillian(hamiltonian, gamma: float, jump_operator) -> Liouvillian:
    """The dephasing generator of a Hamiltonian and one jump operator,
    checked: gamma >= 0, both operators of one square shape, the Hamiltonian
    Hermitian, and the jump a 0/1 diagonal (a projector onto basis states)."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    h = sparse.csr_matrix(hamiltonian, dtype=complex)
    jump = sparse.csr_matrix(jump_operator, dtype=complex)
    if h.shape != jump.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator shapes {h.shape} and {jump.shape} do not match")
    if abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("hamiltonian is not Hermitian")
    occupation = jump.diagonal()
    if abs(jump - sparse.diags(occupation)).max() > 0 or not np.isin(occupation, (0, 1)).all():
        raise ValueError("the generator needs a diagonal 0/1 jump operator")
    return Liouvillian(h, occupation == 1, float(gamma))


def dephasing_liouvillian(spec: LatticeSpec, basis: ManyBodyBasis) -> Liouvillian:
    """Generator of the central-site dephasing problem for one sector."""
    h = build_many_body_hamiltonian(spec, basis)
    n_c = number_operator(basis, spec.central_site)
    return build_liouvillian(h, spec.dephasing_gamma, n_c)


@dataclass
class Trajectory:
    """Density-matrix samples: ``states[k]`` is rho(``times[k]``), and
    ``states`` is one (T, d, d) array."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _check_sample(rho: np.ndarray, t: float, diagnostics: dict) -> None:
    dev = invariant_deviations(rho)
    for key, value in dev.items():
        worst = min if key == "min_eigenvalue" else max
        diagnostics[key] = worst(diagnostics[key], value) if key in diagnostics else value
    _check_deviations(dev, ABORT_FACTOR, f" at t={t:g}")


def _is_uniform(times: np.ndarray) -> bool:
    """Whether ``times`` is ``np.linspace`` over its own ends, to a few ulps."""
    if len(times) < 2 or times[-1] == times[0]:
        return False
    grid = np.linspace(times[0], times[-1], len(times))
    return bool(np.abs(times - grid).max() <= UNIFORM_GRID_ULPS * np.spacing(times[-1]))


def _expm_samples(generator, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(L t) vec at each of the non-decreasing ``times``, one row each, by
    scipy's ``expm_multiply``: one interval call for a uniform grid, otherwise
    one call per distinct step.

    scipy estimates 1-norms with numpy's global random generator, and at long
    steps that estimate picks the Taylor steps. The generator is seeded for
    the call and its state restored after it, so the samples are the same on
    every run and the caller's random stream is left as it was.
    """
    random_state = np.random.get_state()
    np.random.seed(0)
    try:
        if times[0] > 0:
            # The interval call sizes its Taylor steps by the interval length,
            # not by ``start``, so the path up to the first sample is taken apart.
            vec = splinalg.expm_multiply(generator * times[0], vec)
        if _is_uniform(times):
            return splinalg.expm_multiply(generator, vec, start=0.0,
                                          stop=times[-1] - times[0], num=len(times),
                                          endpoint=True)
        samples, t_prev = [], times[0]
        for t in times:
            if t > t_prev:
                vec = splinalg.expm_multiply(generator * (t - t_prev), vec)
                t_prev = t
            samples.append(vec)
        return np.array(samples)
    finally:
        np.random.set_state(random_state)


class SymmetryBlocks(NamedTuple):
    """The blocks of :func:`_symmetry_blocks`: the unitary ``basis`` W, whose
    columns are the block basis, block after block; the block ``sizes``; the
    jump's 0/1 diagonal in W, ``dephased``; the indices of H's eigenvectors
    V in each block, block after block, ``members``; and each block's
    ``rotations``, so that block a of W is V[:, members_a] @ rotations[a]."""

    basis: np.ndarray
    sizes: np.ndarray
    dephased: np.ndarray
    members: np.ndarray
    rotations: list


def _symmetry_blocks(liouvillian: Liouvillian) -> SymmetryBlocks | None:
    """The finest blocks that H and the jump both leave invariant, or None
    when a block fails the check below.

    The blocks start as H's degenerate levels and are joined, until none
    changes, wherever the compressed jump V^H n_c V between two of them has
    a Frobenius norm above ``BLOCK_COUPLING_TOL``; a near-degeneracy can
    only merge blocks. Inside each block the basis is rotated to the
    eigenvectors of the compressed jump, which must be 0 or 1 to
    ``BLOCK_JUMP_TOL`` (Buča & Prosen, NJP 14, 073007 (2012)).
    """
    _energies, vectors, level, on, _off = liouvillian._spectrum
    jump = on.conj().T @ on
    label = level
    while True:
        member = (np.arange(label.max() + 1)[:, None] == label).astype(float)
        coupled = member @ np.abs(jump) ** 2 @ member.T > BLOCK_COUPLING_TOL ** 2
        np.fill_diagonal(coupled, False)
        if not coupled.any():
            break
        label = csgraph.connected_components(coupled, directed=False)[1][label]
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    starts = np.cumsum(sizes) - sizes
    basis = np.empty_like(vectors)
    dephased = np.empty(liouvillian.dim, dtype=bool)
    rotations = [None] * len(sizes)
    # Blocks of one size are rotated together: one stacked eigh, one stacked matmul.
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        columns = starts[which, None] + np.arange(size)
        block = members[columns]
        occupation, rotation = np.linalg.eigh(jump[block[:, :, None], block[:, None, :]])
        if np.minimum(np.abs(occupation), np.abs(occupation - 1.0)).max() > BLOCK_JUMP_TOL:
            return None
        rotated = np.ascontiguousarray(vectors[:, block].transpose(1, 0, 2)) @ rotation
        basis[:, columns] = rotated.transpose(1, 0, 2)
        dephased[columns] = occupation > 0.5
        for j, r in zip(which, rotation):
            rotations[j] = r
    return SymmetryBlocks(basis, sizes, dephased, members, rotations)


def _pair_generators(liouvillian: Liouvillian, blocks: SymmetryBlocks):
    """The generator of every pair of blocks, in the block basis W.

    There the generator is ``Liouvillian.matrix`` of the block-diagonal H
    with the 0/1 jump, and it is block diagonal in the pairs of blocks.
    Returns ``order``, the row-major indices of the block-basis entries (a, b)
    sorted by pair size, pair and column-stacked position inside the pair;
    one (n, m, m) stack of the generators of the n pairs of each size m; and
    the CSR ``indices`` and ``indptr`` under which the stacks, raveled one
    after another, are the block-diagonal generator in that order.
    """
    dim = liouvillian.dim
    basis, sizes, dephased = blocks.basis, blocks.sizes, blocks.dephased
    block = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    same = block[:, None] == block[None, :]
    h_blocks = np.where(same, basis.conj().T @ (liouvillian.hamiltonian @ basis), 0.0)
    generator = Liouvillian(sparse.csr_matrix(h_blocks), dephased, liouvillian.gamma).matrix

    a, b = np.divmod(np.arange(dim * dim), dim)
    pair_size = sizes[block[a]] * sizes[block[b]]
    order = np.lexsort((local[a] + sizes[block[a]] * local[b],
                        block[a] * len(sizes) + block[b], pair_size))
    pair_size = pair_size[order]
    # Row r of the reordered generator holds the pair_size[r] columns of its
    # pair, from first[r] on.
    row = np.arange(dim * dim)
    first = row - (row - np.searchsorted(pair_size, pair_size)) % pair_size
    index = np.int32 if pair_size.sum() < 2 ** 31 else np.int64
    indptr = np.concatenate([[0], np.cumsum(pair_size)]).astype(index)
    indices = np.repeat((first - indptr[:-1]).astype(index), pair_size)
    indices += np.arange(indptr[-1], dtype=index)
    position = np.empty(dim * dim, dtype=int)
    position[a[order] + dim * b[order]] = row
    entries = generator.tocoo()
    entries.eliminate_zeros()    # kron stores zeros across pairs; nothing else lies there
    r, c = position[entries.row], position[entries.col]
    data = np.zeros(indptr[-1], dtype=complex)
    data[indptr[r] + c - first[r]] = entries.data
    starts = np.flatnonzero(np.diff(pair_size, prepend=0))
    bounds = indptr[np.append(starts, dim * dim)]
    stacks = [data[lo:hi].reshape(-1, m, m)
              for lo, hi, m in zip(bounds, bounds[1:], pair_size[starts])]
    return order, stacks, indices, indptr


def _block_samples(rho0: np.ndarray, liouvillian: Liouvillian, times: np.ndarray,
                   blocks: SymmetryBlocks) -> np.ndarray:
    """rho(t) at each of the non-decreasing ``times`` as one (T, d, d) array,
    each block pair rho_ab = P_a rho P_b propagated alone.

    Pairs of one size are stacked and exponentiated by one dense ``expm``
    call (:func:`_pair_generators`), and all pairs are stepped together by
    one block-diagonal propagator: one per uniform grid, plus one to reach a
    later first sample; otherwise one per distinct step. Samples are
    gathered in the block basis a chunk at a time and rotated back with W
    straight into the output.
    """
    dim = liouvillian.dim
    basis = blocks.basis
    order, stacks, indices, indptr = _pair_generators(liouvillian, blocks)

    def propagator(dt: float) -> sparse.csr_matrix:
        data = np.empty(indptr[-1], dtype=complex)
        start = 0
        for stack in stacks:
            data[start:start + stack.size] = expm(stack * dt).ravel()
            start += stack.size
        return sparse.csr_matrix((data, indices, indptr), shape=(dim * dim,) * 2)

    states = np.empty((len(times), dim, dim), dtype=complex)
    chunk = min(len(times), max(1, _SAMPLE_CHUNK_BYTES // (16 * dim * dim)))
    gathered = np.empty((chunk, dim, dim), dtype=complex)
    vec = (basis.conj().T @ rho0 @ basis).ravel()[order]
    uniform = _is_uniform(times)
    if uniform:
        step = propagator((times[-1] - times[0]) / (len(times) - 1))
    t_prev = 0.0
    for k, t in enumerate(times):
        if t > t_prev:
            vec = (step if uniform and k > 0 else propagator(t - t_prev)) @ vec
            t_prev = t
        gathered.reshape(chunk, dim * dim)[k % chunk, order] = vec
        if k % chunk == chunk - 1 or k == len(times) - 1:
            done = k % chunk + 1
            np.matmul(basis @ gathered[:done], basis.conj().T, out=states[k + 1 - done:k + 1])
    return states


def evolve(rho0: np.ndarray, liouvillian: Liouvillian, times) -> Trajectory:
    """Propagate ``rho0`` under the Liouvillian and sample at ``times``.

    Applies the exact exponential by one of two routes, chosen from the
    generator's symmetry blocks (:func:`_symmetry_blocks`):

    - when the largest pair of blocks has a generator of at most
      ``DENSE_PAIR_LIMIT`` entries a side, each pair rho_ab evolves alone
      under dense exponentials (:func:`_block_samples`);
    - otherwise scipy's ``expm_multiply`` (Al-Mohy & Higham 2011) acts on
      the whole d^2 x d^2 superoperator, with a fixed seed for its norm
      estimate (:func:`_expm_samples`).

    Either way a grid that is ``np.linspace`` over its own ends (to a few
    ulps) is stepped by one propagator, any other grid by one per distinct
    step, and a first sample later than 0 is reached by one more. The
    samples are one (T, d, d) array. Every sample is checked for trace,
    hermiticity and positivity, and the run aborts when a deviation exceeds
    ten times its tolerance.

    Parameters
    ----------
    rho0 : array
        Initial density matrix; time starts at 0 relative to it.
    times : array-like
        Non-decreasing sample times, first entry >= 0. A requested t = 0
        returns ``rho0`` exactly.
    """
    rho0 = np.asarray(rho0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("no sample times given")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing and non-negative")

    dim = liouvillian.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {dim}")

    blocks = _symmetry_blocks(liouvillian)
    if blocks is not None and blocks.sizes.max() ** 2 <= DENSE_PAIR_LIMIT:
        states = _block_samples(rho0, liouvillian, times, blocks)
    else:
        samples = _expm_samples(liouvillian.matrix, vectorize(rho0), times)
        states = samples.reshape(len(times), dim, dim).transpose(0, 2, 1)
    states[times == 0.0] = rho0
    trajectory = Trajectory(times=times, states=states)
    for t, rho in zip(times, states):
        _check_sample(rho, t, trajectory.diagnostics)
    return trajectory


@dataclass
class SteadyStateResult:
    state: np.ndarray
    residual: float


def _dark_span(on: np.ndarray, off: np.ndarray, left: np.ndarray, right: np.ndarray,
               tol: float) -> np.ndarray:
    """Orthonormal coefficient vectors z, one per column, such that
    X = sum_k z_k v_{left_k} v_{right_k}^H commutes with the jump.

    ``on`` and ``off`` are the rows of the eigenvectors v where the jump is 1
    and 0. X commutes with the jump when P1 X P0 = 0 = P0 X P1; those blocks
    are the rows of a constraint matrix. It is never held whole: row blocks
    of about ``_CHUNK_BYTES`` are stacked under the triangular factor so far
    and factored again by QR, and the null space is read from the singular
    values of the final triangle (an SVD of the constraint itself, not of its
    Gram matrix, whose conditioning is squared).
    """
    k = len(left)
    if len(on) == 0 or len(off) == 0:
        return np.eye(k)
    rows = max(1, _CHUNK_BYTES // (2 * on.itemsize * len(off) * k))
    off_left, off_right = off[:, left], off[:, right].conj()
    triangle = np.zeros((0, k), dtype=on.dtype)
    for start in range(0, len(on), rows):
        on_left = on[start:start + rows, left]
        on_right = on[start:start + rows, right].conj()
        triangle = np.linalg.qr(np.concatenate([
            triangle,
            (on_left[:, None, :] * off_right[None, :, :]).reshape(-1, k),   # P1 X P0
            (off_left[:, None, :] * on_right[None, :, :]).reshape(-1, k),   # P0 X P1
        ]), mode="r")
    _, svals, vh = np.linalg.svd(triangle)
    svals = np.concatenate([svals, np.zeros(k - len(svals))])
    return vh[svals < tol].conj().T


def steady_state_null_space(liouvillian: Liouvillian) -> np.ndarray:
    """Orthonormal basis of the kernel of the superoperator, as columns of
    vectorized matrices.

    The jump is Hermitian, so ker L is the commutant {H, n_c}': the matrices
    block-diagonal in H's eigenspaces, X = sum_g V_g Y_g V_g^H, that also
    commute with the jump (Buča & Prosen, NJP 14, 073007 (2012)). Each
    symmetry block of :func:`_symmetry_blocks` holds whole levels of H, so
    no such X has entries between two blocks, and ker L is solved one block
    at a time. Inside a block the jump is the 0/1 diagonal ``dephased`` of
    the block basis W, so :func:`_dark_span` runs on the W-coordinates of the
    block's eigenvectors (the conjugate transpose of its rotation), split into
    dephased and undephased rows, with the level pairs inside the block as
    unknowns. When the blocks are refused, the one block is the whole sector,
    with the eigenvectors' rows in the Fock basis. Singular values below
    ``NULL_TOL`` count as zero. Every returned column satisfies
    ``||L v||_inf < 1e-10``, checked on all candidates by one
    :meth:`Liouvillian.residual` call.
    """
    _energies, vectors, level, on, off = liouvillian._spectrum
    dim = liouvillian.dim
    blocks = _symmetry_blocks(liouvillian)
    if blocks is None:
        pieces = [(np.arange(dim), on, off)]
    else:
        bounds = np.cumsum(blocks.sizes)[:-1]
        pieces = [(members, rotation.conj().T[dephased], rotation.conj().T[~dephased])
                  for members, rotation, dephased in zip(np.split(blocks.members, bounds),
                                                         blocks.rotations,
                                                         np.split(blocks.dephased, bounds))]
    spans = []
    for members, block_on, block_off in pieces:
        block_level = level[members]
        left, right = np.nonzero(block_level[:, None] == block_level[None, :])
        z = _dark_span(block_on, block_off, left, right, NULL_TOL)
        spans.append((members, left, right, z))
    # Candidate k is stored transposed, so that candidates[k].ravel() is its
    # column-stacked vector and the kernel is a view of the stack.
    candidates = np.empty((sum(z.shape[1] for *_, z in spans), dim, dim), dtype=vectors.dtype)
    start = 0
    for members, left, right, z in spans:
        v = vectors[:, members]
        y = np.zeros((z.shape[1], len(members), len(members)), dtype=z.dtype)
        y[:, left, right] = z.T
        np.matmul(v.conj() @ y.transpose(0, 2, 1), v.T, out=candidates[start:start + len(y)])
        start += len(y)
    residual = np.max(liouvillian.residual(candidates.transpose(0, 2, 1)), initial=0.0)
    if residual > 1e-10:
        raise RuntimeError(f"kernel candidate has residual {residual:.3e}")
    return candidates.reshape(len(candidates), dim * dim).T


def _peripheral_part(rho: np.ndarray, liouvillian: Liouvillian,
                     tol: float) -> tuple[np.ndarray, float, float]:
    """The part of ``rho`` that never decays: its projection on the
    eigenvectors of L with eigenvalue i omega, omega != 0.

    Those lie in ker D and in one eigenspace of [H, .], the gap
    omega = E_a - E_b, and are HS-orthogonal to the decaying part, so ``rho``
    is projected gap by gap. Only gaps where ``rho`` has weight are visited:
    a gap whose weight w has |omega| w below a thousandth of ``tol`` cannot
    move the residual. Gaps whose constraint Gram matrix is well conditioned
    (smallest eigenvalue above ``_GRAM_SCREEN``) have no dark combination and
    are skipped; the rest are solved by :func:`_dark_span`. Returns the part,
    the largest weight (Frobenius norm) of one gap, and that gap.
    """
    energies, vectors, level, on, off = liouvillian._spectrum
    in_eigenbasis = vectors.conj().T @ rho @ vectors
    left, right = np.nonzero(level[:, None] != level[None, :])
    gaps = energies[left] - energies[right]
    order = np.argsort(gaps, kind="stable")
    left, right, gaps = left[order], right[order], gaps[order]
    gap_index = np.cumsum(np.diff(gaps, prepend=gaps[:1]) > DEGENERACY_TOL)
    bounds = np.flatnonzero(np.diff(gap_index, prepend=-1, append=-1))
    weights = np.sqrt(np.bincount(gap_index, weights=np.abs(in_eigenbasis[left, right]) ** 2))
    gram_on = on.conj().T @ on
    gram_off = np.eye(len(vectors)) - gram_on
    part = np.zeros_like(in_eigenbasis)
    found = []      # (|omega|, weight) of each gap with undamped weight
    for g in np.flatnonzero(np.abs(gaps[bounds[:-1]]) * weights >= 1e-3 * tol):
        pairs = slice(bounds[g], bounds[g + 1])
        a, b = left[pairs], right[pairs]
        gram = gram_on[np.ix_(a, a)] * gram_off[np.ix_(b, b)].T \
            + gram_off[np.ix_(a, a)] * gram_on[np.ix_(b, b)].T
        if np.linalg.eigvalsh(gram)[0] > _GRAM_SCREEN:
            continue
        z = _dark_span(on, off, a, b, NULL_TOL)
        coefficients = z.conj().T @ in_eigenbasis[a, b]
        part[a, b] = z @ coefficients
        found.append((abs(float(gaps[bounds[g]])), float(np.linalg.norm(coefficients))))
    # Gaps related by symmetry carry equal weights; of the heaviest, the
    # slowest is named, so rounding cannot change the choice.
    weight = max((w for _, w in found), default=0.0)
    omega = min((o for o, w in found if w >= weight * (1.0 - 1e-9)), default=0.0)
    return vectors @ part @ vectors.conj().T, weight, omega


def steady_state(rho0: np.ndarray, liouvillian: Liouvillian,
                 convergence_tol: float = 1e-9) -> SteadyStateResult:
    """The exact t -> infinity limit of ``rho0`` under the given generator.

    "Steady" means that limit and nothing looser: it is the HS-orthogonal
    projection of ``rho0`` onto ker L (ker L = ker L^dagger for a Hermitian
    jump; Albert & Jiang, PRA 89, 022118 (2014)), built from
    :func:`steady_state_null_space`. Where levels are split by very little,
    relaxation toward that limit can take very long; the limit is returned
    all the same. Energies closer than ``DEGENERACY_TOL`` count as one level.
    A symmetry broken only slightly (dark states brightened, or levels split,
    by about 1e-11 to 1e-8) leaves the kernel ill-conditioned in double
    precision; the result then fails :func:`validate_density`.

    The limit exists only when ``rho0`` has no weight on the purely imaginary
    eigenvalues i omega != 0 of L. When that part's residual
    ``||L X_per||_inf`` reaches ``convergence_tol`` (it never decays, so the
    residual of rho(t) never falls below it), raises
    :class:`SteadyStateNotConverged` naming omega and the weight. The result
    is validated as a density matrix and carries its residual.
    """
    rho0 = np.asarray(rho0)
    dim = liouvillian.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {dim}")
    peripheral, weight, omega = _peripheral_part(rho0, liouvillian, convergence_tol)
    residual = liouvillian.residual(peripheral)
    if residual >= convergence_tol:
        raise SteadyStateNotConverged(
            f"weight {weight:.6g} on the undamped eigenvalues +-i{omega:.6g} of L gives "
            f"residual {residual:.3e}, never below tol {convergence_tol:g}; the initial "
            "state straddles symmetry sectors with undamped coherences",
            residual=residual, omega=omega, weight=weight,
        )
    kernel = steady_state_null_space(liouvillian)
    rho = unvectorize(kernel @ (kernel.conj().T @ vectorize(rho0)), dim)
    validate_density(rho)
    return SteadyStateResult(state=rho, residual=liouvillian.residual(rho))
