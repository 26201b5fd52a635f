"""Liouvillian construction, master-equation evolution, and steady states.

The generator implemented here is the Hermitian-jump form

    d rho / dt = -i [H, rho] + gamma (L rho L - 1/2 {L^2, rho})

with a single jump operator, the central-site occupation. Density matrices
are vectorized by column stacking, under which ``A rho B`` maps to
``kron(B.T, A) vec(rho)``; that convention is fixed here and used everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.integrate import DOP853
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


class InvariantViolation(RuntimeError):
    """A density-matrix invariant (trace, hermiticity, positivity) failed
    beyond the abort threshold."""


class SteadyStateNotConverged(RuntimeError):
    """Residual stayed above tolerance up to t_max. Carries the last residual;
    expected for initial states straddling symmetry sectors, whose coherences
    oscillate forever."""

    def __init__(self, message: str, residual: float, elapsed: float):
        super().__init__(message)
        self.residual = residual
        self.elapsed = elapsed


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int | None = None) -> np.ndarray:
    if dim is None:
        dim = math.isqrt(len(vec))
    return np.asarray(vec).reshape((dim, dim), order="F")


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a sector basis.

    ``basis`` is optional metadata; all numerics operate on ``matrix``.
    """

    matrix: np.ndarray
    basis: ManyBodyBasis | None = None

    @classmethod
    def from_pure(cls, state: np.ndarray, basis: ManyBodyBasis | None = None) -> "DensityMatrix":
        state = np.asarray(state, dtype=complex)
        state = state / np.linalg.norm(state)
        return cls(np.outer(state, state.conj()), basis)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def expectation(self, operator) -> complex:
        if sparse.issparse(operator):
            return complex((operator @ self.matrix).diagonal().sum())
        return complex(np.trace(np.asarray(operator) @ self.matrix))

    def validate(self, trace_tol: float = TRACE_TOL, herm_tol: float = HERMITICITY_TOL,
                 psd_tol: float = POSITIVITY_TOL) -> None:
        deviations = invariant_deviations(self.matrix)
        if deviations["trace"] > trace_tol:
            raise InvariantViolation(f"|Tr rho - 1| = {deviations['trace']:.3e}")
        if deviations["hermiticity"] > herm_tol:
            raise InvariantViolation(f"||rho - rho!|| = {deviations['hermiticity']:.3e}")
        if deviations["min_eigenvalue"] < -psd_tol:
            raise InvariantViolation(
                f"min eigenvalue {deviations['min_eigenvalue']:.3e} below -{psd_tol}"
            )


def invariant_deviations(rho: np.ndarray) -> dict[str, float]:
    """Trace, hermiticity, and positivity deviations of a density matrix."""
    herm = np.abs(rho - rho.conj().T).max()
    trace = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return {"trace": float(trace), "hermiticity": float(herm), "min_eigenvalue": min_eig}


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


@dataclass
class Liouvillian:
    """Sparse superoperator acting on column-vectorized density matrices."""

    matrix: sparse.csr_matrix
    dim: int                       # density-matrix dimension d; superoperator is d^2 x d^2
    gamma: float

    @property
    def superdim(self) -> int:
        return self.dim * self.dim

    def residual(self, state) -> float:
        """Infinity norm of L vec(rho); zero exactly on steady states."""
        return float(np.abs(self.matrix @ vectorize(_as_matrix(state))).max())

    def trace_defect(self) -> float:
        """Norm of the identity acting from the left; zero when the generator
        is trace preserving."""
        left = vectorize(np.eye(self.dim)).conj() @ self.matrix
        return float(np.abs(left).max())


def _to_sparse(op) -> sparse.csr_matrix:
    if sparse.issparse(op):
        return op.tocsr().astype(complex)
    return sparse.csr_matrix(np.asarray(op, dtype=complex))


def build_liouvillian(hamiltonian, gamma: float, jump_operator) -> Liouvillian:
    """Assemble the vectorized generator for one Hermitian jump operator.

    ``-i (I x H - H^T x I) + gamma (L^T x L - 1/2 (I x L^2 + (L^2)^T x I))``
    under column stacking. Both operators must be Hermitian.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    h = _to_sparse(hamiltonian)
    jump = _to_sparse(jump_operator)
    if h.shape != jump.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator shapes {h.shape} and {jump.shape} do not match")
    for name, op in (("hamiltonian", h), ("jump operator", jump)):
        if abs(op - op.conj().T).max() > 1e-10:
            raise ValueError(f"{name} is not Hermitian")
    dim = h.shape[0]
    identity = sparse.identity(dim, format="csr", dtype=complex)
    gen = -1j * (sparse.kron(identity, h) - sparse.kron(h.T, identity))
    if gamma:
        jump2 = (jump @ jump).tocsr()
        gen = gen + gamma * (
            sparse.kron(jump.T, jump)
            - 0.5 * (sparse.kron(identity, jump2) + sparse.kron(jump2.T, identity))
        )
    return Liouvillian(matrix=gen.tocsr(), dim=dim, gamma=float(gamma))


def dephasing_liouvillian(spec: LatticeSpec, basis: ManyBodyBasis,
                          include_trap: bool = False) -> Liouvillian:
    """Generator of the central-site dephasing problem for one sector."""
    h = build_many_body_hamiltonian(spec, basis, include_trap=include_trap)
    n_c = number_operator(basis, spec.central_site)
    return build_liouvillian(h, spec.dephasing_gamma, n_c)


@dataclass
class Trajectory:
    """Density-matrix samples rho(t) at the requested times."""

    times: np.ndarray
    states: list[np.ndarray]
    basis: ManyBodyBasis | None = None
    method: str = ""
    diagnostics: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.states[-1]

    def expectations(self, operator) -> np.ndarray:
        dense = operator.toarray() if sparse.issparse(operator) else np.asarray(operator)
        return np.array([np.trace(dense @ rho) for rho in self.states])


def _check_sample(rho: np.ndarray, t: float, diagnostics: dict) -> None:
    dev = invariant_deviations(rho)
    diagnostics["max_trace_dev"] = max(diagnostics.get("max_trace_dev", 0.0), dev["trace"])
    diagnostics["max_herm_dev"] = max(diagnostics.get("max_herm_dev", 0.0), dev["hermiticity"])
    diagnostics["min_eigenvalue"] = min(
        diagnostics.get("min_eigenvalue", 0.0), dev["min_eigenvalue"]
    )
    if dev["trace"] > ABORT_FACTOR * TRACE_TOL:
        raise InvariantViolation(f"trace deviation {dev['trace']:.3e} at t={t:g}")
    if dev["hermiticity"] > ABORT_FACTOR * HERMITICITY_TOL:
        raise InvariantViolation(f"hermiticity deviation {dev['hermiticity']:.3e} at t={t:g}")
    if dev["min_eigenvalue"] < -ABORT_FACTOR * POSITIVITY_TOL:
        raise InvariantViolation(
            f"negative eigenvalue {dev['min_eigenvalue']:.3e} at t={t:g}"
        )


def _is_uniform(times: np.ndarray) -> bool:
    """Whether ``times`` is ``np.linspace`` over its own ends, to a few ulps."""
    if len(times) < 2 or times[-1] == times[0]:
        return False
    grid = np.linspace(times[0], times[-1], len(times))
    return bool(np.abs(times - grid).max() <= UNIFORM_GRID_ULPS * np.spacing(times[-1]))


def _expm_samples(generator, vec: np.ndarray, times: np.ndarray):
    """exp(L t) vec at each of the non-decreasing ``times``, by scipy's
    ``expm_multiply``: one interval call for a uniform grid, otherwise one
    call per distinct step."""
    if times[0] > 0:
        # The interval call sizes its Taylor steps by the interval length, not
        # by ``start``, so the path up to the first sample is taken apart.
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
    return samples


def evolve(rho0, liouvillian: Liouvillian, times, method: str = "adaptive",
           rtol: float = 1e-9, atol: float = 1e-12, check: bool = True) -> Trajectory:
    """Propagate ``rho0`` under the Liouvillian and sample at ``times``.

    Parameters
    ----------
    rho0 : array or DensityMatrix
        Initial density matrix; time starts at 0 relative to it.
    times : array-like
        Non-decreasing sample times, first entry >= 0. A requested t = 0
        returns ``rho0`` exactly.
    method : {"adaptive", "expm"}
        "adaptive" is an explicit Runge-Kutta integrator (DOP853) with the
        given tolerances, stepped exactly onto each sample time: every
        sample is the state at an accepted step, never a dense-output
        interpolation. "expm" applies the exact exponential with scipy's
        ``expm_multiply`` (Al-Mohy & Higham 2011) and never forms a dense
        matrix: a grid that is ``np.linspace`` over its own ends (to a few
        ulps) is evaluated in one interval call, any other grid one step per
        distinct time; the first sample is reached by a separate call when
        it is later than 0. Both paths are exact; the test only picks the
        faster.
    check : bool
        Validate trace/hermiticity/positivity at every sample and abort when
        any deviation exceeds ten times its tolerance.
    """
    basis = rho0.basis if isinstance(rho0, DensityMatrix) else None
    rho0 = _as_matrix(rho0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("no sample times given")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing and non-negative")

    dim = liouvillian.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {dim}")

    states: list[np.ndarray] = []
    if method == "expm":
        samples = _expm_samples(liouvillian.matrix, vectorize(rho0), times)
        states = [rho0.copy() if t == 0.0 else unvectorize(vec, dim)
                  for t, vec in zip(times, samples)]
    elif method == "adaptive":
        generator = liouvillian.matrix

        def rhs(_t, y):
            return generator @ y

        # The stepper's bound is each sample time in turn, so every sample is
        # the end of an accepted step. DOP853's dense-output interpolant is
        # never evaluated: at stiff rates it amplifies the anti-Hermitian part
        # of rho far beyond what the accepted steps carry.
        vec = vectorize(rho0)
        t_prev, step = 0.0, None
        for t in times:
            if t > t_prev:
                solver = DOP853(rhs, t_prev, vec, float(t), rtol=rtol, atol=atol,
                                first_step=None if step is None else min(step, t - t_prev))
                while solver.status == "running":
                    message = solver.step()
                    if solver.status == "failed":
                        raise RuntimeError(f"integrator aborted: {message}")
                vec, t_prev, step = solver.y, float(t), solver.step_size
            states.append(rho0.copy() if t == 0.0 else unvectorize(vec, dim))
    else:
        raise ValueError(f"unknown method {method!r}")

    trajectory = Trajectory(times=times, states=states, basis=basis, method=method)
    if check:
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
    state: DensityMatrix
    elapsed: float
    residual: float
    windows: int


def steady_state_by_integration(rho0, liouvillian: Liouvillian,
                                convergence_tol: float = 1e-9,
                                t_max: float | None = None,
                                initial_window: float | None = None,
                                growth: float = 1.5) -> SteadyStateResult:
    """Integrate until the Liouvillian residual drops below tolerance.

    Propagates in geometrically growing windows of the exact exponential and
    stops once ``||L vec(rho)||_inf < convergence_tol``. Raises
    :class:`SteadyStateNotConverged` (carrying the residual) when ``t_max``
    is reached first, as happens for mixed-sector initial states.
    """
    rho0 = _as_matrix(rho0)
    if t_max is None:
        if liouvillian.gamma <= 0:
            raise ValueError("t_max required when gamma = 0 (no relaxation)")
        t_max = 1e4 / liouvillian.gamma
    if initial_window is None:
        initial_window = 2.0 / liouvillian.gamma if liouvillian.gamma > 0 else t_max / 64

    vec = vectorize(rho0)
    elapsed = 0.0
    window = float(initial_window)
    windows = 0
    residual = float(np.abs(liouvillian.matrix @ vec).max())
    while residual >= convergence_tol:
        if elapsed >= t_max:
            raise SteadyStateNotConverged(
                f"residual {residual:.3e} after t={elapsed:g} (tol {convergence_tol:g}); "
                "the initial state may straddle symmetry sectors with "
                "undamped coherences",
                residual=residual,
                elapsed=elapsed,
            )
        window = min(window, t_max - elapsed)
        vec = splinalg.expm_multiply(liouvillian.matrix * window, vec)
        elapsed += window
        window *= growth
        windows += 1
        residual = float(np.abs(liouvillian.matrix @ vec).max())
    rho = unvectorize(vec, liouvillian.dim)
    state = DensityMatrix(rho)
    state.validate()
    return SteadyStateResult(
        state=state, elapsed=elapsed, residual=residual, windows=windows
    )


DENSE_NULLSPACE_LIMIT = 2500


def steady_state_null_space(liouvillian: Liouvillian, tol: float = 1e-10,
                            max_kernel_dim: int = 24,
                            dense_limit: int = DENSE_NULLSPACE_LIMIT) -> np.ndarray:
    """Orthonormal basis of the kernel of the superoperator.

    Dense SVD up to ``dense_limit``; shift-inverted Arnoldi around zero above
    it (requesting up to ``max_kernel_dim`` candidates). Every returned
    column satisfies ``||L v|| < 1e-10``.
    """
    matrix = liouvillian.matrix
    n = liouvillian.superdim
    if n <= dense_limit:
        dense = matrix.toarray()
        _u, svals, vh = np.linalg.svd(dense)
        cut = max(tol, svals[0] * n * np.finfo(float).eps)
        kernel = vh[svals < cut].conj().T
    else:
        k = min(max_kernel_dim, n - 2)
        try:
            evals, evecs = splinalg.eigs(matrix.tocsc(), k=k, sigma=0.0, which="LM")
        except Exception as exc:  # ARPACK / LU failures
            raise RuntimeError(f"iterative kernel solver breakdown: {exc}") from exc
        null = evecs[:, np.abs(evals) < tol]
        if null.shape[1] == k:
            raise RuntimeError(
                f"kernel dimension may exceed max_kernel_dim={max_kernel_dim}; "
                "increase it"
            )
        kernel, _ = np.linalg.qr(null) if null.size else (null, None)
    for col in kernel.T:
        residual = float(np.abs(matrix @ col).max())
        if residual > 1e-10:
            raise RuntimeError(f"kernel candidate has residual {residual:.3e}")
    return kernel


def normalize_kernel_element(vector: np.ndarray, psd_tol: float = POSITIVITY_TOL):
    """Interpret one kernel vector physically.

    Returns ``("density", rho)`` when the Hermitian part carries trace and is
    positive semidefinite after normalization, else ``("coherence", m)`` with
    ``m`` the Frobenius-normalized matrix (a traceless stationary coherence).
    """
    matrix = unvectorize(vector)
    hermitian = 0.5 * (matrix + matrix.conj().T)
    trace = np.trace(hermitian)
    if abs(trace) > 1e-10:
        rho = hermitian / trace.real
        if np.linalg.eigvalsh(rho).min() > -psd_tol:
            return "density", rho
    return "coherence", matrix / np.linalg.norm(matrix)
