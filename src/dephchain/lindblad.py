"""Liouvillian construction, master-equation evolution, and steady states.

The one jump operator, the central-site occupation n_c, is a 0/1 diagonal
in the Fock basis, so its dissipator is an entrywise mask:

    d rho / dt = -i [H, rho] - (gamma / 2) M o rho,    M_ab = (n_a - n_b)^2.

Density matrices are vectorized by column stacking, under which ``A rho B``
maps to ``kron(B.T, A) vec(rho)``; that convention is fixed here and used everywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

# The kernels are bound under these two names, which ``dephbench/tracing.py``
# wraps in place to time them; their own module keeps them out of this
# module's public names.
from . import exponential as splinalg
from .exponential import expm
from .fock import (ManyBodyBasis, build_many_body_hamiltonian, expectation, number_operator,
                   reflection_orbits, slater_determinants)
from .model import LatticeSpec, build_single_particle_hamiltonian, classify_mode_parity

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
ABORT_FACTOR = 10.0

# The density-matrix verdict: a deviation passes when it lies strictly between
# its bounds times a factor, 1 to validate a state and ``ABORT_FACTOR`` to abort a run.
LIMITS = {"max_trace_dev": (-math.inf, TRACE_TOL), "max_herm_dev": (-math.inf, HERMITICITY_TOL),
          "min_eigenvalue": (-POSITIVITY_TOL, math.inf)}

# A time grid that differs from ``np.linspace`` over its own ends by at most
# this many ulps of its last time takes its one spacing as every step after
# the first (:func:`_steps`).
UNIFORM_GRID_ULPS = 4

# Eigenvalues of H closer than this (in the units of H) are one degenerate
# level, and gaps E_a - E_b closer than this are one gap. It lies well above
# eigh's rounding of a degeneracy (about 1e-14 here) and well below the
# 1e-10 residual a kernel element must meet.
DEGENERACY_TOL = 1e-11
# Singular values of the dark-subspace constraint below this count as zero.
NULL_TOL = 1e-10
# A group whose constraint Gram matrix has all eigenvalues above this (all
# singular values above 1e-4) has no dark combination and is not solved.
_GRAM_SCREEN = 1e-8
# Pieces of work are about this many bytes: the row blocks of the dark-subspace
# constraint (:func:`_dark_span`) and the chunks of samples checked and read at
# once (:func:`_chunk_rows`).
_CHUNK_BYTES = 1 << 20

# Sectors are symmetry blocks to this: H's eigen-residual on each, the compressed
# jump between two, its eigenvalues' distance from 0 or 1 on one, and the block
# basis's distance from unitary; beyond it the spectrum or _symmetry_blocks raises.
BLOCK_JUMP_TOL = 1e-10
# The largest bound on ||H|| (:meth:`LatticeSpec.energy_terms`) at which eigh's
# rounding still meets BLOCK_JUMP_TOL: that rounding, H's eigen-residual on a
# sector, reached 5.3 eps times the bound on the sectors of N <= 11, so the
# bound may reach BLOCK_JUMP_TOL / (8 eps), about 5.6e4.
ENERGY_SCALE_LIMIT = BLOCK_JUMP_TOL / (8 * np.finfo(float).eps)
# A steady state, and each kernel element it is built from, meets this
# residual ||L rho||_inf, or steady_state raises.
STEADY_RESIDUAL_TOL = 1e-10
# The largest dephasing rate at which that residual's rounding, which grows
# like gamma, still meets STEADY_RESIDUAL_TOL: it reached 0.26 eps gamma on
# the steady states of the CI cases and of the sectors of N <= 11, and 0.48
# eps gamma on random chains of N <= 9 with a trap, a quasi-periodic
# potential or interaction, so gamma may reach STEADY_RESIDUAL_TOL / eps,
# about 4.5e5.
DEPHASING_RATE_LIMIT = STEADY_RESIDUAL_TOL / np.finfo(float).eps
# The largest pair generator, (block size)^2, propagated by dense exponentials.
# Measured on N = 7, Np = 4: dense won at 196 (trapped fock-quench sectors of 10
# and 4 states taken as one block: 0.42 s against 0.62 s for 401 samples, 0.22 s
# against 0.32 s for one step to t = 31.1) and lost at 361 (the interacting
# reflection sectors: 0.86 s against 0.10 s for that step). The default runs'
# odd-pattern sectors give pairs of at most 36.
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


def pure_state(psi: np.ndarray) -> np.ndarray:
    """The density matrix |psi><psi| of a state vector, normalized."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def invariant_deviations(rho: np.ndarray) -> dict[str, float]:
    """Trace, hermiticity, and positivity deviations of a density matrix,
    keyed as ``LIMITS``, as are a trajectory's diagnostics, the worst over
    its samples. All three are read from the whole d x d matrix."""
    values = (abs(np.trace(rho) - 1.0), np.abs(rho - rho.conj().T).max(),
              np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return dict(zip(LIMITS, map(float, values)))


def _check_deviations(deviations: dict, factor: float, times: np.ndarray | None = None) -> None:
    """Raise :class:`InvariantViolation` when a deviation does not lie
    strictly between ``factor`` times its ``LIMITS``. Each deviation is one
    float, or one value per sample at ``times``: then the first failing
    sample, in order, is reported and the message ends with its time."""
    values = np.array([deviations[key] for key in LIMITS]).reshape(3, -1)
    bounds = factor * np.array(list(LIMITS.values()))
    failed = ~((bounds[:, :1] < values) & (values < bounds[:, 1:]))
    if failed.any():
        sample = int(np.argmax(failed.any(axis=0)))
        check = int(np.argmax(failed[:, sample]))
        name = ("trace deviation", "hermiticity deviation", "negative eigenvalue")[check]
        where = "" if times is None else f" at t={times[sample]:g}"
        raise InvariantViolation(f"{name} {values[check, sample]:.3e}{where}")


def worst_deviations(deviations) -> dict[str, float]:
    """The worst of several deviations of each key of ``LIMITS``, floats or
    one value per sample: the largest against an upper bound, else the smallest."""
    worst = {key: np.max if upper < math.inf else np.min for key, (_, upper) in LIMITS.items()}
    return {key: float(op(np.hstack([d[key] for d in deviations]))) for key, op in worst.items()}


def validate_density(rho: np.ndarray) -> dict[str, float]:
    """The deviations of :func:`invariant_deviations`; raises
    :class:`InvariantViolation` when one lies outside its ``LIMITS``."""
    deviations = invariant_deviations(rho)
    _check_deviations(deviations, 1.0)
    return deviations


@dataclass
class Liouvillian:
    """The generator ``-i [H, rho] - (gamma / 2) M o rho`` of a sparse d x d
    Hamiltonian H, where ``dephased`` is the boolean diagonal of the jump
    operator and M_ab = 1 where exactly one of the states a, b is dephased.
    ``sectors`` are orthonormal (d, k) column blocks that together span the
    space and that H and the jump both leave invariant; none means one.
    ``orbits`` are such blocks too, sparse and coarser: the reflection
    eigenspaces of :func:`fock.reflection_orbits`, in which the jump stays a
    0/1 diagonal; none means one identity block."""

    hamiltonian: sparse.csr_matrix
    dephased: np.ndarray
    gamma: float
    sectors: tuple = ()
    orbits: tuple = ()

    @property
    def dim(self) -> int:
        """Density-matrix dimension d; the superoperator is d^2 x d^2."""
        return self.hamiltonian.shape[0]

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The superoperator on column-vectorized density matrices,
        ``-i (I x H - H^T x I) - (gamma / 2) diag(vec M)``
        (:func:`_pair_superoperator` of H with itself)."""
        return _pair_superoperator(self.hamiltonian, self.hamiltonian, self.dephased,
                                   self.dephased, self.gamma)

    def residual(self, rho: np.ndarray) -> float | np.ndarray:
        """Infinity norm of L(rho) = -i [H, rho] - (gamma / 2) M o rho; zero
        exactly on steady states. ``rho`` is one d x d matrix, which gives a
        float, or a (T, d, d) stack, which gives one norm per state, taken
        ``_chunk_rows`` states at a time as the ``"residual"`` readout of
        :func:`evolve_scan` takes them."""
        rho = np.asarray(rho)
        stack = rho.reshape(-1, self.dim, self.dim)
        rows = _chunk_rows(self.dim)
        read = _residual_reader(self, min(rows, len(stack)))
        norms = np.empty(len(stack))
        for k in range(0, len(stack), rows):
            norms[k:k + rows] = read(stack[k:k + rows])
        return float(norms[0]) if rho.ndim == 2 else norms

    @functools.cached_property
    def _spectrum(self):
        """H's eigenbasis, one ``eigh`` per sector: each eigenvector's level
        energy (the mean over its level, across sectors), the eigenvectors,
        sector after sector, and the sector of each. Raises ``RuntimeError``
        when H's eigen-residual on a sector exceeds ``BLOCK_JUMP_TOL``."""
        h = self.hamiltonian if np.any(self.hamiltonian.data.imag) else self.hamiltonian.real
        sectors = self.sectors or (np.eye(self.dim),)
        parts = [np.linalg.eigh(q.conj().T @ (h @ q)) for q in sectors]
        energies = np.concatenate([e for e, _ in parts])
        vectors = np.concatenate([q @ u for q, (_, u) in zip(sectors, parts)], axis=1)
        if np.abs(h @ vectors - vectors * energies).max(initial=0.0) > BLOCK_JUMP_TOL:
            raise RuntimeError("H does not leave a symmetry sector invariant")
        ascending = np.sort(energies)
        lowest = ascending[np.diff(ascending, prepend=-np.inf) > DEGENERACY_TOL]   # of each level
        level = np.searchsorted(lowest, energies, side="right") - 1
        energies = (np.bincount(level, weights=energies) / np.bincount(level))[level]
        return energies, vectors, np.repeat(np.arange(len(sectors)), [q.shape[1] for q in sectors])


def _chunk_rows(dim: int) -> int:
    """The number of complex d x d samples in a chunk of about ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def _residual_reader(liouvillian: Liouvillian, rows: int):
    """The function that gives ||L(rho)||_inf of each state of a (k, d, d)
    stack, k at most ``rows``: the one arithmetic of
    :meth:`Liouvillian.residual` and of the ``"residual"`` readout, with H
    made dense once and the scratch taken once, as in :func:`_pair_samples`."""
    dim = liouvillian.dim
    h = liouvillian.hamiltonian.toarray()
    damping = 0.5 * liouvillian.gamma * (liouvillian.dephased[:, None] != liouvillian.dephased)
    image, term = np.empty((2, rows, dim, dim), dtype=complex)
    magnitude = np.empty(image.shape)

    def read(stack: np.ndarray) -> np.ndarray:
        rows = len(stack)
        np.matmul(h, stack, out=image[:rows])
        image[:rows] -= np.matmul(stack, h, out=term[:rows])
        image[:rows] *= -1j
        image[:rows] -= np.multiply(damping, stack, out=term[:rows])
        return np.abs(image[:rows], out=magnitude[:rows]).max(axis=(1, 2))

    return read


def _purity(stack: np.ndarray) -> np.ndarray:
    """Tr rho^2 of each state of a (k, d, d) stack, the real part of
    sum_ij rho_ij rho_ji: each state's products are one C-ordered row,
    reduced by numpy's pairwise sum, so the value does not depend on the stack."""
    products = np.multiply(stack, stack.transpose(0, 2, 1), order="C")
    return products.reshape(len(stack), -1).sum(axis=-1).real


def _reader(readout, liouvillian: Liouvillian, rows: int):
    """The function of a site-basis (k, d, d) chunk, k at most ``rows``,
    that gives one value per sample of a readout of :func:`evolve_scan`:
    ``"residual"`` (:func:`_residual_reader`), ``"purity"`` (:func:`_purity`)
    or an operator O, whose Tr(O rho) is :func:`fock.expectation`."""
    if isinstance(readout, str):
        if readout == "residual":
            return _residual_reader(liouvillian, rows)
        if readout == "purity":
            return _purity
        raise ValueError(f"unknown readout {readout!r}; give 'residual', 'purity' or an operator")
    op = sparse.coo_matrix(readout)
    if op.shape != (liouvillian.dim, liouvillian.dim):
        raise ValueError(f"readout operator shape {op.shape} does not match dimension "
                         f"{liouvillian.dim}")
    return functools.partial(expectation, operator=op)


def _pair_superoperator(h_a, h_b, dephased_a: np.ndarray, dephased_b: np.ndarray,
                        gamma: float) -> sparse.csr_matrix:
    """The generator of rho_ab = P_a rho P_b on its column-stacked entries,
    ``-i (I x H_a - H_b^T x I) - (gamma / 2) diag(vec M_ab)``, from the
    sparse blocks H_a and H_b of H and the jump's 0/1 diagonals on them;
    M_ab = 1 where exactly one of the two states is dephased. Every pair that
    :func:`_pair_samples` propagates gets its generator here; with a = b the
    whole space, it is ``Liouvillian.matrix``.

    The entries are written by index arithmetic. Entry (i, k) of H_a sits at
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
    return sparse.csr_matrix((data, (rows, cols)), shape=(m * n, m * n))


def build_liouvillian(hamiltonian, gamma: float, jump_operator) -> Liouvillian:
    """The dephasing generator of a Hamiltonian and one jump operator,
    checked: gamma finite and >= 0, both operators of one square shape, the
    Hamiltonian finite and Hermitian, and the jump a 0/1 diagonal (a
    projector onto basis states)."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    h = sparse.csr_matrix(hamiltonian, dtype=complex)
    jump = sparse.csr_matrix(jump_operator, dtype=complex)
    if h.shape != jump.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator shapes {h.shape} and {jump.shape} do not match")
    if not np.isfinite(h.data).all():
        raise ValueError("hamiltonian has a non-finite entry")
    if abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("hamiltonian is not Hermitian")
    occupation = jump.diagonal()
    if abs(jump - sparse.diags(occupation)).max() > 0 or not np.isin(occupation, (0, 1)).all():
        raise ValueError("the generator needs a diagonal 0/1 jump operator")
    return Liouvillian(h, occupation == 1, float(gamma))


def _symmetry_sectors(spec: LatticeSpec, basis: ManyBodyBasis, orbits: tuple) -> tuple:
    """The subspaces that H and n_c both leave invariant, decided exactly
    from the spec (Buča & Prosen, NJP 14, 073007 (2012)): none when a
    quasi-periodic potential or an off-centre trap breaks site reflection
    (no ``orbits``); with interaction, the reflection ``orbits`` themselves;
    else one per occupation pattern of the odd modes, which vanish at the
    central site, spanned by the Slater determinants of that pattern and
    every choice of even modes."""
    if not orbits:
        return ()
    if spec.interaction:
        return tuple(q.toarray() for q in orbits)
    parity = classify_mode_parity(build_single_particle_hamiltonian(spec))
    k, sectors = basis.n_particles, []
    for size in range(max(0, k - len(parity.even)), k + 1):
        fills = list(itertools.combinations(parity.even, k - size))
        for pattern in itertools.combinations(parity.odd, size):
            modes = np.array([pattern + fill for fill in fills], dtype=int) - 1
            sectors.append(slater_determinants(basis, parity.modes[:, modes].transpose(1, 0, 2)).T)
    return tuple(sectors)


def dephasing_liouvillian(spec: LatticeSpec, basis: ManyBodyBasis) -> Liouvillian:
    """Generator of the central-site dephasing problem for one sector, with
    the symmetry sectors of :func:`_symmetry_sectors` and, when site
    reflection holds (:attr:`LatticeSpec.reflection_symmetric`), the
    nonempty reflection orbits."""
    liouvillian = build_liouvillian(build_many_body_hamiltonian(spec, basis), spec.dephasing_gamma,
                                    number_operator(basis, spec.central_site))
    orbits = tuple(q for q in reflection_orbits(basis) if q.shape[1]) \
        if spec.reflection_symmetric else ()
    return replace(liouvillian, sectors=_symmetry_sectors(spec, basis, orbits), orbits=orbits)


@dataclass
class Trajectory:
    """The samples rho(t) at ``times``, as :func:`evolve_scan` reads them:
    ``series[name]`` holds one value per time for each readout, and
    ``states[j]`` is the whole state rho(``times[kept[j]]``), one (K, d, d)
    array for the K sample indices ``kept`` (every index unless fewer were
    asked for). ``diagnostics`` holds the worst of all the samples'
    deviations (:func:`worst_deviations`)."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    kept: np.ndarray | None = None


def _steps(times: np.ndarray) -> np.ndarray:
    """The step that reaches each of the non-decreasing ``times`` from the
    sample before, the first from 0. On a grid that is ``np.linspace`` over
    its own ends, to ``UNIFORM_GRID_ULPS``, every later step is the one
    spacing (t[-1] - t[0]) / (T - 1); on any other, each is a difference."""
    steps = np.diff(times, prepend=0.0)
    if len(times) > 1 and times[-1] > times[0]:
        grid = np.linspace(times[0], times[-1], len(times))
        if np.abs(times - grid).max() <= UNIFORM_GRID_ULPS * np.spacing(times[-1]):
            steps[1:] = (times[-1] - times[0]) / (len(times) - 1)
    return steps


class SymmetryBlocks(NamedTuple):
    """A block decomposition: the unitary ``basis``, whose columns are the
    block basis, block after block (dense W of :func:`_symmetry_blocks` or
    the sparse real Q of :func:`_orbit_blocks`); the block ``sizes``; the
    jump's 0/1 diagonal in that basis, ``dephased``; and, for symmetry
    blocks, the compressed ``jump`` J = V^H n_c V on H's eigenvectors V."""

    basis: np.ndarray | sparse.csr_matrix
    sizes: np.ndarray
    dephased: np.ndarray
    jump: np.ndarray | None = None


def _symmetry_blocks(liouvillian: Liouvillian) -> SymmetryBlocks:
    """The Liouvillian's symmetry sectors (one block when it has none), each
    rotated from H's eigenvectors to the eigenvectors of the compressed jump
    J = V^H n_c V on it (Buča & Prosen, NJP 14, 073007 (2012)). Raises
    ``RuntimeError`` when J couples two sectors by an entry above
    ``BLOCK_JUMP_TOL``, or has an eigenvalue on one that is farther than that
    from both 0 and 1: the jump does not leave the sectors invariant. Also
    raises when an entry of B^H B - I, for the returned basis B, exceeds
    ``BLOCK_JUMP_TOL``: :func:`_pair_samples` reads the spectrum of each
    sample in the block basis, which equals spec(rho) only for a unitary B."""
    _energies, vectors, label = liouvillian._spectrum
    on = vectors[liouvillian.dephased] if liouvillian.gamma > 0 else vectors[:0]
    jump = on.conj().T @ on
    if np.abs(jump[label[:, None] != label]).max(initial=0.0) > BLOCK_JUMP_TOL:
        raise RuntimeError("the compressed jump couples two symmetry sectors")
    sizes = np.bincount(label)
    basis = np.empty_like(vectors)
    dephased = np.empty(liouvillian.dim, dtype=bool)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        cols = slice(start, start + size)
        occupation, rotation = np.linalg.eigh(jump[cols, cols])
        if np.minimum(np.abs(occupation), np.abs(occupation - 1.0)).max() > BLOCK_JUMP_TOL:
            raise RuntimeError("a symmetry block's compressed jump is not 0/1")
        basis[:, cols] = vectors[:, cols] @ rotation
        dephased[cols] = occupation > 0.5
    if np.abs(basis.conj().T @ basis - np.eye(liouvillian.dim)).max() > BLOCK_JUMP_TOL:
        raise RuntimeError("the symmetry block basis is not unitary")
    return SymmetryBlocks(basis, sizes, dephased, jump)


def _occupied_pairs(in_blocks: np.ndarray, sizes: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Which pairs (a, b) of blocks ``rho0`` occupies, one boolean per pair:
    those with ||P_a rho0 P_b||_F > eps ||rho0||_F, read from ``in_blocks``,
    rho0 in the block basis. Every pair generator contracts the Frobenius
    norm, so a pair left out moves no sample by more than the rounding of
    the basis change itself; a pair that starts at zero stays zero. A zero
    rho0 keeps every pair, so its samples still reach the invariant checks."""
    starts = np.cumsum(sizes) - sizes
    weights = np.add.reduceat(np.add.reduceat(np.abs(in_blocks) ** 2, starts, axis=0),
                              starts, axis=1)
    floor = (np.finfo(float).eps * np.linalg.norm(rho0)) ** 2
    return weights > floor if floor else np.full(weights.shape, True)


def _orbit_blocks(liouvillian: Liouvillian) -> SymmetryBlocks:
    """The reflection orbits (``Liouvillian.orbits``) as blocks, or one
    sparse identity block when reflection is broken. A state and its mirror
    image have the same central occupation, so the jump stays a 0/1
    diagonal on the orbit basis."""
    orbits = liouvillian.orbits or (sparse.identity(liouvillian.dim, format="csr"),)
    basis = sparse.hstack(orbits, format="csr")
    return SymmetryBlocks(basis, np.array([q.shape[1] for q in orbits]),
                          abs(basis).T @ liouvillian.dephased > 0)


class _Pairs(NamedTuple):
    """The block pairs that ``rho0`` occupies at one scan point: the block
    ``basis`` B and its ``adjoint``, rho0 in that basis (``in_blocks``), one
    generator per pair, the row-major indices of the pairs' entries (``order``,
    column-stacked inside each pair), and the block-basis dimensions the pairs
    touch (``keep``)."""

    basis: np.ndarray | sparse.csr_matrix
    adjoint: np.ndarray | sparse.csr_matrix
    in_blocks: np.ndarray
    generators: list
    order: np.ndarray
    keep: np.ndarray


def _point_pairs(rho0: np.ndarray, liouvillian: Liouvillian, blocks: SymmetryBlocks) -> _Pairs:
    """The pairs of ``blocks`` that ``rho0`` occupies (:func:`_occupied_pairs`),
    each with its generator (:func:`_pair_superoperator` of the blocks H_a and
    H_b of B^H H B)."""
    dim, gamma = liouvillian.dim, liouvillian.gamma
    basis, sizes, dephased = blocks.basis, blocks.sizes, blocks.dephased
    adjoint = basis.conj().T
    in_blocks = adjoint @ rho0 @ basis
    h = adjoint @ (liouvillian.hamiltonian @ basis)
    span = [slice(start, start + size) for start, size in zip(np.cumsum(sizes) - sizes, sizes)]
    pairs = np.argwhere(_occupied_pairs(in_blocks, sizes, rho0))
    generators = [_pair_superoperator(h[span[a], span[a]], h[span[b], span[b]],
                                      dephased[span[a]], dephased[span[b]], gamma)
                  for a, b in pairs]
    index = np.arange(dim)
    order = np.concatenate([(index[span[a]] * dim + index[span[b], None]).ravel()
                            for a, b in pairs])
    keep = np.flatnonzero(np.repeat(np.isin(np.arange(len(sizes)), pairs), sizes))
    return _Pairs(basis, adjoint, in_blocks, generators, order, keep)


def _dense_samples(generators: list, vec: np.ndarray, steps: np.ndarray):
    """Yield exp(L t_k) applied to the sample before, for each step t_k of
    ``steps`` (the first to ``vec``), for the block-diagonal L of
    ``generators``: the generators of one size are stacked, exponentiated by
    one dense ``expm`` call whenever a positive step differs from the last
    positive one, and step their entries of the vector by one stacked
    product; a step of 0 repeats the sample. Only the last propagator is held."""
    shapes = np.array([g.shape[0] for g in generators])
    starts = np.cumsum(shapes) - shapes
    stacks = [(starts[which, None] + np.arange(size),
               np.array([generators[k].toarray() for k in which]))
              for size, which in ((m, np.flatnonzero(shapes == m)) for m in np.unique(shapes))]
    held, propagators = None, []
    for step in steps:
        if step > 0:
            if step != held:
                propagators = None      # freed before the next one is built
                propagators = [(entries, expm(stack * step)) for entries, stack in stacks]
                held = step
            stepped = np.empty(len(vec), dtype=complex)
            for entries, p in propagators:
                stepped[entries] = np.matmul(p, vec[entries][:, :, None])[:, :, 0]
            vec = stepped
        yield vec


def _checked(chunk: np.ndarray, work: np.ndarray, initial: np.ndarray, rho0: np.ndarray,
             pairs: _Pairs) -> np.ndarray:
    """The trace, hermiticity and positivity deviations, one row each, of a
    chunk of block-basis samples, rotated back in place with ``work`` as
    scratch; the samples at ``initial`` are ``rho0``. The smallest eigenvalue,
    on ``pairs.keep``, is at most 0 when that leaves out dimensions."""
    basis, adjoint, keep = pairs.basis, pairs.adjoint, pairs.keep
    chunk[initial] = pairs.in_blocks
    # Only the occupied blocks: the default fock-quench keeps 12 and 18 of 35 dimensions.
    hermitian = chunk[:, keep[:, None], keep]
    hermitian += hermitian.conj().transpose(0, 2, 1)
    hermitian *= 0.5
    smallest = np.linalg.eigvalsh(hermitian)[:, 0]
    if len(keep) < chunk.shape[1]:
        np.minimum(smallest, 0.0, out=smallest)
    if sparse.issparse(basis):
        # 226 us a sample against 987 us for a dense batched rotation at d = 165 (2 cores).
        for rho in chunk:
            rho[...] = basis @ rho @ adjoint
    else:
        np.matmul(basis, chunk, out=work)
        np.matmul(work, adjoint, out=chunk)
    chunk[initial] = rho0
    np.conjugate(chunk.transpose(0, 2, 1), out=work)
    work -= chunk
    return np.array([np.abs(np.trace(chunk, axis1=1, axis2=2) - 1.0),
                     np.abs(work).max(axis=(1, 2)), smallest])


def _pair_samples(rho0: np.ndarray, points: list, times: np.ndarray, dense: bool,
                  readers: list[dict], keep: np.ndarray
                  ) -> list[tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]]:
    """rho(t) at each of the non-decreasing ``times`` under each scan point of
    ``points``, (Liouvillian, :class:`SymmetryBlocks`) pairs of one
    dimension, as it is read: for each point the samples at the sorted
    indices ``keep`` as one (K, d, d) array, one series per name of its dict
    in ``readers`` (:func:`_reader`), and each sample's invariant
    deviations, one array per key of :func:`invariant_deviations`. Each block
    pair rho_ab = P_a rho P_b that ``rho0`` occupies (:func:`_point_pairs`)
    is propagated alone under its generator. A t = 0 sample is ``rho0`` itself.

    The pairs of all points are stepped together by one kernel call, on the
    steps of :func:`_steps`: :func:`_dense_samples` when ``dense``, which
    stacks equal-size pairs across points, else ``expm_multiply`` on the
    block-diagonal concatenation of their generators. Either kernel yields
    its samples one by one, and they are pulled a chunk of ``_chunk_rows``
    (about ``_CHUNK_BYTES``) at a time, so no (T, n) array is made.

    Each point's entries of a chunk are scattered at once into a zeroed
    chunk in the block basis, only the occupied pairs' entries, where
    :func:`_checked` reads each sample's smallest eigenvalue on the blocks
    that the occupied pairs touch (``rho0``'s own at t = 0). The chunk is
    then rotated back with B, trace and hermiticity are read in the site
    basis, and so is each readout, while the chunk is in cache; only the
    samples at ``keep`` are copied out. No (T, d, d) array is made unless
    every sample is kept.
    """
    dim = rho0.shape[0]
    occupied = [_point_pairs(rho0, liouvillian, blocks) for liouvillian, blocks in points]
    edges = np.cumsum([0] + [len(pairs.order) for pairs in occupied])
    generators = [g for pairs in occupied for g in pairs.generators]
    vec = np.concatenate([pairs.in_blocks.ravel()[pairs.order] for pairs in occupied])
    steps = _steps(times)
    stream = (_dense_samples(generators, vec, steps) if dense else
              splinalg.expm_multiply(sparse.block_diag(generators, format="csr"), vec, steps))
    states = [np.empty((len(keep), dim, dim), dtype=complex) for _ in occupied]
    series = [{name: [] for name in read} for read in readers]
    deviations = np.empty((len(occupied), 3, len(times)))
    rows = _chunk_rows(dim)
    # One chunk and its scratch, reused for every point and chunk: memory of
    # this size freed and taken again each chunk goes back to the system
    # and is faulted in again.
    buffer, scratch = np.empty((2, min(rows, len(times)), dim, dim), dtype=complex)
    for start in range(0, len(times), rows):
        stop = min(start + rows, len(times))
        chunk = np.array(list(itertools.islice(stream, stop - start)))
        initial = times[start:stop] == 0.0
        first, last = np.searchsorted(keep, (start, stop))
        samples, work = buffer[:stop - start], scratch[:stop - start]
        for k, pairs in enumerate(occupied):
            samples.fill(0)
            samples.reshape(stop - start, -1)[:, pairs.order] = chunk[:, edges[k]:edges[k + 1]]
            deviations[k][:, start:stop] = _checked(samples, work, initial, rho0, pairs)
            for name, read in readers[k].items():
                series[k][name].append(read(samples))
            states[k][first:last] = samples[keep[first:last] - start]
    return [(out, {name: np.concatenate(parts) for name, parts in read.items()},
             dict(zip(LIMITS, values))) for out, read, values in zip(states, series, deviations)]


def _dense_route(liouvillians) -> bool:
    """Whether :func:`evolve_scan` steps ``liouvillians`` by dense ``expm``:
    whether the largest pair of the sectors they declare
    (``Liouvillian.sectors``, the whole space when there are none) has a
    generator of at most ``DENSE_PAIR_LIMIT`` entries a side."""
    largest = max(max((q.shape[1] for q in liou.sectors), default=liou.dim)
                  for liou in liouvillians)
    return largest ** 2 <= DENSE_PAIR_LIMIT


def evolve_scan(rho0: np.ndarray, liouvillians, times, readouts=None,
                keep=None) -> list[Trajectory]:
    """Propagate one ``rho0`` under each of ``liouvillians``, all of one
    dimension, and sample at the same ``times``: one :class:`Trajectory` per
    Liouvillian, in order, each as :func:`evolve` would give it, with one
    series per readout and the whole states only at the indices ``keep``.

    Applies the exact exponential to the block pairs rho_ab = P_a rho P_b
    that ``rho0`` occupies (:func:`_occupied_pairs`); each evolves alone
    (Buča & Prosen, NJP 14, 073007 (2012)), so a pair that starts at zero
    stays zero. Every pair gets its generator from :func:`_pair_superoperator`
    and all are stepped by one kernel call of :func:`_pair_samples`, chosen
    once for the call by :func:`_dense_route` from the sizes of the sectors
    the Liouvillians declare, before any block is built: when the largest
    pair of sectors of any of them has a generator of at most
    ``DENSE_PAIR_LIMIT`` entries a side, stacked dense ``expm`` (Padé scaling
    and squaring, Higham 2005) of the pairs of their symmetry blocks
    (:func:`_symmetry_blocks`; sectors that H or the jump does not leave
    invariant, or a block basis that is not unitary, raise ``RuntimeError``);
    otherwise the truncated Taylor series of ``expm_multiply`` (Al-Mohy &
    Higham 2011), with exact norms, on the pairs of the reflection orbits
    (:func:`_orbit_blocks`), one identity block when reflection is broken;
    H is then never diagonalized. Both kernels are :mod:`exponential`'s. A
    point's samples thus move at rounding level with the other points of its call.

    Either way the samples are yielded one by one, each reached from the one
    before by a step of :func:`_steps`, the first from 0: on a grid that is
    ``np.linspace`` over its own ends (to a few ulps) all later steps are one
    spacing, on any other they are the differences. The dense kernel builds a
    propagator whenever the step changes, the sparse one a Taylor series per
    step. Every sample is checked for trace and hermiticity in the site basis,
    and for positivity in the block basis, on the rows and columns of the
    blocks its occupied pairs touch: the block basis is unitary, so that
    spectrum, with zeros for the blocks left out, is spec(rho). The worst
    values are each trajectory's ``diagnostics``. The scan aborts at the first
    Liouvillian, in order, with a sample outside ``ABORT_FACTOR`` times its
    ``LIMITS``, naming the first such sample in time order.

    The samples are read in chunks of about 1 MB in the site basis, as they
    are checked (:func:`_pair_samples`), so a run that keeps few states never
    holds a (T, d, d) array. Each readout gives, bit for bit, what its
    function gives on the same samples kept whole: Tr(O rho) as
    :func:`fock.expectation` gives it, ``"purity"`` as Tr rho^2, and
    ``"residual"`` as :meth:`Liouvillian.residual` of the trajectory's
    Liouvillian. The first two are reduced by numpy's pairwise sum, not by
    BLAS, so they do not depend on the BLAS thread count either.

    Parameters
    ----------
    rho0 : array
        Initial density matrix, with finite entries; time starts at 0
        relative to it.
    liouvillians : sequence of Liouvillian
        At least one, all of ``rho0``'s dimension.
    times : array-like
        Finite, non-decreasing sample times, first entry >= 0. A requested
        t = 0 returns ``rho0`` exactly.
    readouts : mapping, optional
        Name to readout: a sparse or dense d x d operator O, read as
        Tr(O rho), ``"purity"`` or ``"residual"``. Each trajectory's
        ``series[name]`` holds its T values.
    keep : sequence of int, optional
        The sample indices whose whole states each trajectory keeps, sorted
        and without repeats as ``Trajectory.kept``; every index by default.
        A float or bool index raises ``ValueError``.
    """
    rho0 = np.asarray(rho0)
    liouvillians = list(liouvillians)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not liouvillians:
        raise ValueError("no Liouvillians given")
    if times.size == 0:
        raise ValueError("no sample times given")
    if not np.isfinite(times).all():
        raise ValueError(f"sample times must be finite, got {times[~np.isfinite(times)][0]}")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing and non-negative")

    dims = sorted({liouvillian.dim for liouvillian in liouvillians})
    if len(dims) > 1:
        raise ValueError(f"the Liouvillians have different dimensions {dims}")
    dim = dims[0]
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {dim}")
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 has a non-finite entry")
    rows = min(_chunk_rows(dim), len(times))
    readers = [{name: _reader(readout, liouvillian, rows)
                for name, readout in (readouts or {}).items()} for liouvillian in liouvillians]
    keep = np.arange(len(times)) if keep is None else np.asarray(keep)
    if keep.size and keep.dtype.kind not in "iu":
        raise ValueError(f"kept sample indices must be integers, got {keep}")
    keep = np.unique(keep.astype(int))
    if keep.size and not 0 <= keep[0] <= keep[-1] < len(times):
        raise ValueError(f"kept sample indices must lie in 0..{len(times) - 1}, got {keep}")

    dense = _dense_route(liouvillians)
    blocks = [(_symmetry_blocks if dense else _orbit_blocks)(liou) for liou in liouvillians]
    trajectories = []
    for states, series, deviations in _pair_samples(rho0, list(zip(liouvillians, blocks)), times,
                                                    dense, readers, keep):
        _check_deviations(deviations, ABORT_FACTOR, times)
        trajectories.append(Trajectory(times, states, worst_deviations([deviations]), series, keep))
    return trajectories


def evolve(rho0: np.ndarray, liouvillian: Liouvillian, times, readouts=None,
           keep=None) -> Trajectory:
    """Propagate ``rho0`` under the Liouvillian and sample at ``times``, with
    every sample checked: the one-point scan
    ``evolve_scan(rho0, [liouvillian], times, readouts, keep)[0]``, whose
    docstring gives the method, the checks, the readouts and the parameters."""
    return evolve_scan(rho0, [liouvillian], times, readouts, keep)[0]


@dataclass
class SteadyStateResult:
    """A steady ``state``, its ``residual`` and its :func:`validate_density` ``diagnostics``."""

    state: np.ndarray
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _dark_span(left_on: np.ndarray, left_off: np.ndarray, right_on: np.ndarray,
               right_off: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal coefficient vectors z, one per column, such that
    X = sum_k z_k u_k w_k^H commutes with the jump, where u_k is column k of
    ``left_on`` over ``left_off`` (the rows where the jump is 1 and 0) and
    w_k likewise of ``right_on`` over ``right_off``.

    X commutes with the jump when P1 X P0 = 0 = P0 X P1; those blocks are the
    rows of a constraint matrix. Row blocks of about ``_CHUNK_BYTES`` (1 MB,
    as a chunk of samples) are stacked under the triangular factor so far and
    factored again by QR, and the null space is read from the singular values
    of the final triangle (not from the Gram matrix, whose conditioning is squared).
    """
    k = left_on.shape[1]
    rows = max(1, _CHUNK_BYTES // (left_on.itemsize * k * max(1, len(left_off) + len(right_off))))
    triangle = np.zeros((0, k), dtype=left_on.dtype)
    for start in range(0, max(len(left_on), len(right_on)), rows):
        triangle = np.linalg.qr(np.concatenate([
            triangle,
            (left_on[start:start + rows, None, :] * right_off[None, :, :].conj()).reshape(-1, k),
            (right_on[start:start + rows, None, :].conj() * left_off[None, :, :]).reshape(-1, k),
        ]), mode="r")
    _, svals, vh = np.linalg.svd(triangle)
    svals = np.concatenate([svals, np.zeros(k - len(svals))])
    return vh[svals < tol].conj().T


def _dark_spans(liouvillian: Liouvillian, in_eigenbasis: np.ndarray | None = None,
                tol: float = 0.0):
    """The X = sum_k z_k v_{a_k} v_{b_k}^H over H's eigenvectors with
    L X = i omega X, one group of pairs at a time: yields omega, the pairs
    ``a`` and ``b``, and the orthonormal z, one column per X (maybe none),
    for each group that may hold such an X.

    Such an X is dark (in ker D) and lies in one eigenspace of [H, .], a
    cluster of gaps E_a - E_b within ``DEGENERACY_TOL``; gap 0 (pairs inside
    a level) gives ker L = {H, n_c}' (Buča & Prosen, NJP 14, 073007 (2012)).
    The projectors of :func:`_symmetry_blocks` commute with H and the jump,
    so P_alpha X P_beta is dark again: a group is one cluster and one pair of
    blocks. Groups whose constraint has a Gram matrix with all eigenvalues
    above ``_GRAM_SCREEN`` hold no X; each other group is solved by one
    :func:`_dark_span` on their rows in the block basis. Gaps are
    clustered before pairs are grouped, so no cluster is split. Gap 0 is
    solved, and with a state ``in_eigenbasis`` each cluster on which its
    Frobenius norm w has |omega| w >= tol / 1000 (less cannot move a
    residual of ``tol``).
    """
    energies, vectors, label = liouvillian._spectrum
    blocks = _symmetry_blocks(liouvillian)
    dim, count = liouvillian.dim, len(blocks.sizes)
    # H's eigenvectors in the block basis: each block's dephased and undephased
    # rows; the eigenvectors of a block are its columns of V.
    edges = np.cumsum(blocks.sizes)[:-1]
    coordinates = [(c[d], c[~d]) for c, d in zip(np.split(blocks.basis.conj().T @ vectors, edges),
                                                  np.split(blocks.dephased, edges))]
    jump = blocks.jump      # J = V^H n_c V
    gaps = np.subtract.outer(energies, energies).ravel()
    order = np.argsort(gaps, kind="stable")
    cluster = np.cumsum(np.diff(gaps[order], prepend=gaps[order[0]]) > DEGENERACY_TOL)
    omega = gaps[order][np.flatnonzero(np.diff(cluster, prepend=-1))]   # smallest of each
    solved = omega == 0
    if in_eigenbasis is not None:
        weights = np.bincount(cluster, weights=np.abs(in_eigenbasis.ravel()[order]) ** 2)
        solved |= np.abs(omega) * np.sqrt(weights) >= 1e-3 * tol
    left, right = np.divmod(order, dim)
    key = (cluster * count + label[left]) * count + label[right]
    group = np.flatnonzero(solved[cluster])
    group = group[np.argsort(key[group], kind="stable")]
    left, right, cluster, key = left[group], right[group], cluster[group], key[group]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    # A group has no dark combination when all eigenvalues of _dark_span's Gram
    # matrix exceed _GRAM_SCREEN: J_aa o conj(1 - J_bb) + (1 - J_aa) o conj(J_bb),
    # 1 the identity on the group's pairs; p_a (1 - p_b) + (1 - p_a) p_b for one
    # pair. One stacked eigvalsh per group size. The screen cuts the interacting
    # N = 11, Np = 4 steady state from 2.3 s to 0.25 s (2 cores, 1 BLAS thread).
    sizes = np.diff(bounds)
    dark = np.zeros(len(sizes), dtype=bool)
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        members = bounds[which, None] + np.arange(size)
        a, b = left[members], right[members]
        j_a, j_b = jump[a[:, :, None], a[:, None, :]], jump[b[:, :, None], b[:, None, :]]
        gram = (j_a * ((b[:, :, None] == b[:, None, :]) - j_b).conj()
                + ((a[:, :, None] == a[:, None, :]) - j_a) * j_b.conj())
        dark[which] = np.linalg.eigvalsh(gram)[:, 0] <= _GRAM_SCREEN
    for lo, hi in zip(bounds[:-1][dark], bounds[1:][dark]):
        a, b = left[lo:hi], right[lo:hi]
        (left_on, left_off), (right_on, right_off) = (coordinates[label[a[0]]],
                                                      coordinates[label[b[0]]])
        z = _dark_span(left_on[:, a], left_off[:, a], right_on[:, b], right_off[:, b], NULL_TOL)
        yield float(omega[cluster[lo]]), a, b, z


def steady_state_null_space(liouvillian: Liouvillian) -> np.ndarray:
    """Orthonormal basis of the kernel of the superoperator, as columns of
    vectorized matrices: the gap-0 groups of :func:`_dark_spans`, one per
    pair of symmetry blocks (two blocks that share a level have intertwiners).

    The jump is Hermitian, so ker L is the commutant {H, n_c}': the matrices
    block-diagonal in H's eigenspaces that also commute with the jump (Buča &
    Prosen, NJP 14, 073007 (2012)). Singular values below ``NULL_TOL`` count
    as zero. Every returned column satisfies ``||L v||_inf < 1e-10``,
    checked on all candidates by one :meth:`Liouvillian.residual` call.
    """
    vectors = liouvillian._spectrum[1]
    candidates = []
    for _omega, a, b, z in _dark_spans(liouvillian):
        rows, cols = np.unique(a), np.unique(b)     # of blocks alpha and beta
        y = np.zeros((z.shape[1], len(rows), len(cols)), dtype=z.dtype)
        y[:, np.searchsorted(rows, a), np.searchsorted(cols, b)] = z.T
        candidates.append(vectors[:, rows] @ y @ vectors[:, cols].conj().T)
    candidates = np.concatenate(candidates)
    residual = np.max(liouvillian.residual(candidates), initial=0.0)
    if not residual <= STEADY_RESIDUAL_TOL:
        raise RuntimeError(f"kernel candidate has residual {residual:.3e}")
    # Column-stacked vectors: vec(X) is the row-major ravel of X^T.
    return candidates.transpose(0, 2, 1).reshape(len(candidates), -1).T


def _dark_parts(rho: np.ndarray, liouvillian: Liouvillian,
                tol: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The parts of ``rho`` that never decay, projected group by group of
    :func:`_dark_spans` (HS-orthogonal to the decaying part): on ker L, on
    the eigenvalues i omega != 0 of L, the latter's largest weight
    (Frobenius norm) on one gap, and that gap."""
    _energies, vectors, _level = liouvillian._spectrum
    in_eigenbasis = vectors.conj().T @ rho @ vectors
    kernel_part, undamped = np.zeros_like(in_eigenbasis), np.zeros_like(in_eigenbasis)
    found = {}      # squared undamped weight of each gap omega != 0
    for omega, a, b, z in _dark_spans(liouvillian, in_eigenbasis, tol):
        coefficients = z.conj().T @ in_eigenbasis[a, b]
        (undamped if omega else kernel_part)[a, b] = z @ coefficients
        if omega:
            found[omega] = found.get(omega, 0.0) + float(np.vdot(coefficients, coefficients).real)
    # Gaps related by symmetry carry equal weights; of the heaviest, the
    # slowest is named, so rounding cannot change the choice.
    heaviest = max(found.values(), default=0.0)
    omega = min((abs(o) for o, w in found.items() if w >= heaviest * (1.0 - 2e-9)), default=0.0)
    return (vectors @ kernel_part @ vectors.conj().T, vectors @ undamped @ vectors.conj().T,
            math.sqrt(heaviest), omega)


def steady_state(rho0: np.ndarray, liouvillian: Liouvillian,
                 convergence_tol: float = 1e-9) -> SteadyStateResult:
    """The exact t -> infinity limit of ``rho0`` under the given generator.

    "Steady" means that limit and nothing looser: it is the HS-orthogonal
    projection of ``rho0`` onto ker L (ker L = ker L^dagger for a Hermitian
    jump; Albert & Jiang, PRA 89, 022118 (2014)), from the per-block solve
    that also finds the undamped part (:func:`_dark_parts`); a limit with
    ``||L rho||_inf > 1e-10`` raises ``RuntimeError``. Where levels are split
    by very little, relaxation toward that limit can take very long; the
    limit is returned all the same. Energies closer than ``DEGENERACY_TOL``
    count as one level. A symmetry broken only slightly (dark states
    brightened, or levels split, by about 1e-11 to 1e-8) leaves the kernel
    ill-conditioned in double precision; the result then fails
    :func:`validate_density`.

    The limit exists only when ``rho0`` has no weight on the purely imaginary
    eigenvalues i omega != 0 of L. When that part's residual
    ``||L X_per||_inf`` reaches ``convergence_tol`` (it never decays, so the
    residual of rho(t) never falls below it), raises
    :class:`SteadyStateNotConverged` naming omega and the weight. The result
    is validated by :func:`validate_density` and carries its residual and
    deviations. A ``rho0`` with a non-finite entry, or a ``convergence_tol``
    that is not a positive finite number, raises ``ValueError``.
    """
    if not 0 < convergence_tol < math.inf:
        raise ValueError(f"convergence_tol must be a positive finite number, got {convergence_tol}")
    rho0 = np.asarray(rho0)
    dim = liouvillian.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {dim}")
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 has a non-finite entry")
    rho, undamped, weight, omega = _dark_parts(rho0, liouvillian, convergence_tol)
    residual = liouvillian.residual(undamped)
    if not residual < convergence_tol:
        raise SteadyStateNotConverged(
            f"weight {weight:.6g} on the undamped eigenvalues +-i{omega:.6g} of L gives "
            f"residual {residual:.3e}, never below tol {convergence_tol:g}; the initial "
            "state straddles symmetry sectors with undamped coherences",
            residual=residual, omega=omega, weight=weight,
        )
    residual = liouvillian.residual(rho)
    if not residual <= STEADY_RESIDUAL_TOL:
        raise RuntimeError(f"steady state has residual {residual:.3e}")
    return SteadyStateResult(state=rho, residual=residual, diagnostics=validate_density(rho))
