"""Liouvillian construction, master-equation evolution, and steady states.

The generator implemented here is the Hermitian-jump form

    d rho / dt = -i [H, rho] + gamma (L rho L - 1/2 {L^2, rho})

with a single jump operator, the central-site occupation. Density matrices
are vectorized by column stacking, under which ``A rho B`` maps to
``kron(B.T, A) vec(rho)``; that convention is fixed here and used everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.linalg import expm  # noqa: F401  (dephbench/tracing.py wraps it by name)

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
    """The generator ``-i [H, rho] + gamma (L rho L - 1/2 {L^2, rho})`` of a
    Hamiltonian H and one Hermitian jump operator L, both sparse d x d."""

    hamiltonian: sparse.csr_matrix
    jump: sparse.csr_matrix
    gamma: float

    @property
    def dim(self) -> int:
        """Density-matrix dimension d; the superoperator is d^2 x d^2."""
        return self.hamiltonian.shape[0]

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The superoperator on column-vectorized density matrices,
        ``-i (I x H - H^T x I) + gamma (L^T x L - 1/2 (I x L^2 + (L^2)^T x I))``."""
        h, jump = self.hamiltonian, self.jump
        identity = sparse.identity(self.dim, format="csr", dtype=complex)
        gen = -1j * (sparse.kron(identity, h) - sparse.kron(h.T, identity))
        if self.gamma:
            jump2 = (jump @ jump).tocsr()
            gen = gen + self.gamma * (
                sparse.kron(jump.T, jump)
                - 0.5 * (sparse.kron(identity, jump2) + sparse.kron(jump2.T, identity))
            )
        return gen.tocsr()

    def residual(self, rho: np.ndarray) -> float:
        """Infinity norm of L vec(rho); zero exactly on steady states."""
        return float(np.abs(self.matrix @ vectorize(rho)).max())

    def trace_defect(self) -> float:
        """Norm of the identity acting from the left; zero when the generator
        is trace preserving."""
        left = vectorize(np.eye(self.dim)).conj() @ self.matrix
        return float(np.abs(left).max())

    @functools.cached_property
    def _spectrum(self):
        """H's eigenbasis for the steady-state projection: level energy of
        each eigenvector, the eigenvectors, their level index, and the
        eigenvector rows where the jump is 1 (none when gamma = 0) and 0."""
        occupation = self.jump.diagonal()
        if abs(self.jump - sparse.diags(occupation)).max() > 0 \
                or not np.all((occupation == 0) | (occupation == 1)):
            raise ValueError("the steady-state projection needs a diagonal 0/1 jump operator")
        h = self.hamiltonian.toarray()
        energies, vectors = np.linalg.eigh(h if np.any(h.imag) else h.real)
        level = np.cumsum(np.diff(energies, prepend=energies[:1]) > DEGENERACY_TOL)
        energies = (np.bincount(level, weights=energies) / np.bincount(level))[level]
        on = (occupation == 1) & (self.gamma > 0)
        return energies, vectors, level, vectors[on], vectors[~on]


def _to_sparse(op) -> sparse.csr_matrix:
    if sparse.issparse(op):
        return op.tocsr().astype(complex)
    return sparse.csr_matrix(np.asarray(op, dtype=complex))


def build_liouvillian(hamiltonian, gamma: float, jump_operator) -> Liouvillian:
    """The generator of one Hermitian jump operator, checked: gamma >= 0 and
    both operators Hermitian and of one square shape."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    h = _to_sparse(hamiltonian)
    jump = _to_sparse(jump_operator)
    if h.shape != jump.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator shapes {h.shape} and {jump.shape} do not match")
    for name, op in (("hamiltonian", h), ("jump operator", jump)):
        if abs(op - op.conj().T).max() > 1e-10:
            raise ValueError(f"{name} is not Hermitian")
    return Liouvillian(h, jump, float(gamma))


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

    def expectations(self, operator) -> np.ndarray:
        """Tr[O rho(t)] at every sample, summed over the nonzero entries of
        the (sparse or dense) operator O only."""
        op = sparse.coo_matrix(operator)
        return self.states[:, op.col, op.row] @ op.data


def _check_sample(rho: np.ndarray, t: float, diagnostics: dict) -> None:
    dev = invariant_deviations(rho)
    for key, value in dev.items():
        worst = min if key == "min_eigenvalue" else max
        diagnostics[key] = worst(diagnostics.get(key, 0.0), value)
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


def evolve(rho0: np.ndarray, liouvillian: Liouvillian, times) -> Trajectory:
    """Propagate ``rho0`` under the Liouvillian and sample at ``times``.

    Applies the exact exponential with scipy's ``expm_multiply`` (Al-Mohy &
    Higham 2011) and never forms a dense matrix: a grid that is
    ``np.linspace`` over its own ends (to a few ulps) is evaluated in one
    interval call, any other grid one step per distinct time; the first
    sample is reached by a separate call when it is later than 0. The
    samples are one (T, d, d) view of the (T, d^2) column-stacked vectors.
    Every sample is checked for trace, hermiticity and positivity, and the
    run aborts when a deviation exceeds ten times its tolerance.

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

    samples = _expm_samples(liouvillian.matrix, vectorize(rho0), times)
    states = samples.reshape(len(times), dim, dim).transpose(0, 2, 1)
    states[times == 0.0] = rho0
    trajectory = Trajectory(times=times, states=states)
    for t, rho in zip(times, states):
        _check_sample(rho, t, trajectory.diagnostics)
    return trajectory


def conserved_charge_trace(trajectory: Trajectory, operator) -> np.ndarray:
    """Time series Tr[rho(t) O] for a Hermitian operator; returned real."""
    values = trajectory.expectations(operator)
    if np.abs(values.imag).max() > 1e-8:
        raise ValueError("operator expectation has a large imaginary part; not Hermitian?")
    return values.real


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
    commute with the jump (Buča & Prosen, NJP 14, 073007 (2012)). The
    Y_g are the null space of that constraint; singular values below
    ``NULL_TOL`` count as zero. Every returned column satisfies ``||L v||_inf < 1e-10``.
    """
    _energies, vectors, level, on, off = liouvillian._spectrum
    dim = liouvillian.dim
    left, right = np.nonzero(level[:, None] == level[None, :])
    coefficients = _dark_span(on, off, left, right, NULL_TOL)
    kernel = np.empty((dim * dim, coefficients.shape[1]), dtype=vectors.dtype)
    block = np.zeros((dim, dim), dtype=vectors.dtype)
    for k, column in enumerate(coefficients.T):
        block[left, right] = column
        kernel[:, k] = vectorize(vectors @ block @ vectors.conj().T)
    for col in kernel.T:
        residual = float(np.abs(liouvillian.matrix @ col).max())
        if residual > 1e-10:
            raise RuntimeError(f"kernel candidate has residual {residual:.3e}")
    return kernel


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
