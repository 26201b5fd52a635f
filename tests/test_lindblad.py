import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.linalg import expm

import dephchain.lindblad as lindblad
from dephchain import experiments, exponential, pairgen
from dephchain.config import default_config
from dephchain.fock import (
    ManyBodyBasis,
    bilinear_operator,
    build_many_body_hamiltonian,
    charge_operator,
    even_mode_slater,
    expectation,
    fock_state,
    number_operator,
    reflection_operator,
    slater_state,
    total_number_operator,
)
from dephchain.lindblad import (
    HERMITICITY_TOL,
    InvariantViolation,
    SteadyStateNotConverged,
    build_liouvillian,
    dephasing_liouvillian,
    evolve,
    evolve_scan,
    pure_state,
    steady_state,
    steady_state_null_space,
    validate_density,
)
from dephchain.model import (
    LatticeSpec,
    bare_mode_parity,
    build_single_particle_hamiltonian,
    classify_mode_parity,
)
from dephchain.oracle import analytic_steady_state, long_time_correlation
from oracles import analytic_n3_density_matrix, dense_kernel


def n3_problem(gamma=1.0):
    spec = LatticeSpec(n_sites=3, dephasing_gamma=gamma)
    basis = ManyBodyBasis(3, 1)
    return spec, basis, dephasing_liouvillian(spec, basis)


def interacting_problem():
    """N = 7, Np = 4 with interaction 0.3 and the Fock input 1010101: its
    reflection sectors (16 and 19 states) make pairs beyond
    DENSE_PAIR_LIMIT, so evolve takes the expm_multiply route."""
    spec = LatticeSpec(n_sites=7, interaction=0.3)
    basis = ManyBodyBasis(7, 4)
    liou = dephasing_liouvillian(spec, basis)
    assert not lindblad._dense_route([liou])
    return liou, pure_state(fock_state(basis, "1010101"))


def full_route(rho0, liou, times):
    """The samples of the expm_multiply route on the whole superoperator."""
    times = np.asarray(times, dtype=float)
    samples = np.array(list(lindblad.splinalg.expm_multiply(
        liou.matrix, np.ravel(rho0, order="F"), lindblad._steps(times))))
    states = samples.reshape(len(times), liou.dim, liou.dim).transpose(0, 2, 1)
    states[times == 0.0] = rho0
    return states


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call."""
    seen = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_gamma_zero_reduces_to_commutator():
    spec, basis, liou = n3_problem(gamma=0.0)
    h = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    eye = np.eye(3)
    expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    assert np.abs(liou.matrix.toarray() - expected).max() < 1e-14


def _kron_pair_superoperator(h_a, h_b, dephased_a, dephased_b, gamma):
    """The pair generator by scipy's sparse kron, diags and subtraction."""
    gen = -1j * (sparse.kron(sparse.identity(h_b.shape[0], format="csr", dtype=complex), h_a)
                 - sparse.kron(h_b.T, sparse.identity(h_a.shape[0], format="csr", dtype=complex)))
    if gamma:
        mask = dephased_a[:, None] != dephased_b[None, :]
        gen = gen - sparse.diags(0.5 * gamma * mask.ravel(order="F"))
    return gen


@pytest.mark.parametrize("gamma", [0.0, 1.7])
@pytest.mark.parametrize("density", [1.0, 0.3], ids=["dense", "sparse"])
def test_pair_superoperator_equals_the_kron_formula(gamma, density):
    # The index arithmetic writes every entry as kron and subtraction do, so
    # the generators agree bit for bit, on blocks of unequal size and on a
    # pair of one block with itself.
    rng = np.random.default_rng(5)
    blocks = []
    for size in (3, 5, 4):
        h = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h = np.where(rng.random((size, size)) < density, h, 0.0)
        blocks.append((h if density == 1.0 else sparse.csr_matrix(h), rng.random(size) < 0.5))
    for (h_a, on_a), (h_b, on_b) in itertools.product(blocks, repeat=2):
        built = pairgen.superoperator(h_a, h_b, on_a, on_b, gamma)
        expected = _kron_pair_superoperator(h_a, h_b, on_a, on_b, gamma).toarray()
        assert built.shape == expected.shape
        assert np.array_equal(built.toarray(), expected)
        assert built.toarray().view(np.int64).tobytes() == expected.view(np.int64).tobytes()


def _isometry(coordinates, entries):
    """T, the dense map from a pair's real coordinates to the float view of
    its ``entries`` column-stacked complex entries."""
    t = np.zeros((2 * entries, coordinates.param.max() + 1))
    t[coordinates.slot, coordinates.param] = coordinates.weight
    return t


@pytest.mark.parametrize("gamma", [0.0, 1.7])
def test_real_pair_generator_is_the_complex_one_in_real_coordinates(gamma):
    # On complex Hermitian blocks: a pair a < b steps the float view of its
    # entries as the complex generator steps the entries; a diagonal pair's
    # coordinates are an orthonormal basis of its Hermitian matrices, and
    # its real generator is the complex one restricted to them.
    rng = np.random.default_rng(6)
    blocks = []
    for size in (3, 4):
        h = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        blocks.append((h + h.conj().T, rng.random(size) < 0.5))
    (h_a, on_a), (h_b, on_b) = blocks
    coordinates = pairgen.real_coordinates(3, 4, False)
    real = pairgen.real_generator(h_a, h_b, on_a, on_b, gamma, coordinates)
    complex_ = pairgen.superoperator(h_a, h_b, on_a, on_b, gamma)
    z = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert real.dtype == np.float64 and real.shape == (24, 24)
    assert np.abs(real @ z.view(float) - (complex_ @ z).view(float)).max() < 1e-14
    for h, on in blocks:
        n = len(h)
        coordinates = pairgen.real_coordinates(n, n, True)
        t = _isometry(coordinates, n * n)
        assert np.abs(t.T @ t - np.eye(n * n)).max() < 1e-15
        real = pairgen.real_generator(h, h, on, on, gamma, coordinates).toarray()
        restricted = t.T @ pairgen.real_generator(
            h, h, on, on, gamma, pairgen.real_coordinates(n, n, False)).toarray() @ t
        assert real.shape == (n * n, n * n)
        assert np.abs(real - restricted).max() < 1e-14
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = x + x.conj().T
        vec = np.ravel(x, order="F")
        assert np.abs(t @ (t.T @ vec.view(float)) - vec.view(float)).max() < 1e-14


def test_trace_preservation_left_null_vector():
    for gamma in (0.0, 0.5, 2.0):
        _, _, liou = n3_problem(gamma)
        assert np.abs(np.ravel(np.eye(liou.dim), order="F") @ liou.matrix).max() < 1e-10


def test_maximally_mixed_is_stationary():
    _, _, liou = n3_problem(1.0)
    assert liou.residual(np.eye(3) / 3) < 1e-14


@pytest.mark.parametrize("spec, filling", [
    (LatticeSpec(n_sites=5, dephasing_gamma=0.0), 2),
    (LatticeSpec(n_sites=5, trap_amplitude=1.3, interaction=0.7, dephasing_gamma=20.0), 2),
])
def test_residual_operator_form_matches_superoperator(spec, filling):
    # The operator form -i[H, rho] - (gamma/2) M o rho on one matrix and on a
    # stack gives the infinity norm of the superoperator's L vec(rho).
    liou = dephasing_liouvillian(spec, ManyBodyBasis(spec.n_sites, filling))
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, liou.dim, liou.dim)) + 1j * rng.normal(size=(3, liou.dim, liou.dim))
    expected = [np.abs(liou.matrix @ np.ravel(rho, order="F")).max() for rho in stack]
    norms = liou.residual(stack)
    assert norms.shape == (3,)
    assert np.abs(norms - expected).max() < 1e-13 * max(expected)
    assert isinstance(liou.residual(stack[1]), float)
    assert liou.residual(stack[1]) == pytest.approx(norms[1], rel=1e-14)


def test_build_rejects_bad_inputs():
    h = np.eye(2)
    with pytest.raises(ValueError):
        build_liouvillian(h, -1.0, h)
    with pytest.raises(ValueError):
        build_liouvillian(h, 1.0, np.eye(3))
    with pytest.raises(ValueError):
        build_liouvillian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, h)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            build_liouvillian(h, gamma, h)
    with pytest.raises(ValueError, match="non-finite"):
        build_liouvillian(np.array([[0.0, np.nan], [np.nan, 0.0]]), 1.0, h)


def test_vectorization_round_trip():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(np.ravel(m, order="F").reshape((4, 4), order="F"), m)
    # column stacking: vec(A rho B) = kron(B.T, A) vec(rho)
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    lhs = np.ravel(a @ m @ b, order="F")
    rhs = np.kron(b.T, a) @ np.ravel(m, order="F")
    assert np.abs(lhs - rhs).max() < 1e-12


# ----------------------------------------------------------------------
# evolution
# ----------------------------------------------------------------------

def test_t_zero_returns_initial_state_exactly():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    traj = evolve(rho0, liou, [0.0])
    assert np.array_equal(traj.states[0], rho0)


def test_n3_evolution_matches_appendix_closed_form():
    _, basis, liou = n3_problem(gamma=1.0)
    rho0 = pure_state(fock_state(basis, "010"))
    times = np.linspace(0.0, 10.0, 41)
    traj = evolve(rho0, liou, times)
    worst = max(
        np.abs(rho - analytic_n3_density_matrix(t, 1.0)).max()
        for t, rho in zip(times, traj.states)
    )
    assert worst < 1e-8


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 40.0, 201),
    np.array([0.0, 40.0]),
    np.array([0.0, 0.3, 7.1, 7.1, 7.2, 40.0]),
], ids=["criterion-grid", "coarse", "repeated-time"])
def test_n3_hermiticity_and_closed_form_up_to_stiff_gamma(times):
    # Up to the stiff gamma = 20 the samples must stay Hermitian to the
    # tolerance itself, not merely to the abort level.
    for gamma in (0.5, 1.0, 2.0, 4.0, 20.0):
        _, basis, liou = n3_problem(gamma)
        rho0 = pure_state(fock_state(basis, "010"))
        traj = evolve(rho0, liou, times)
        assert traj.diagnostics["max_herm_dev"] < HERMITICITY_TOL, f"gamma={gamma}"
        worst = max(
            np.abs(rho - analytic_n3_density_matrix(t, gamma)).max()
            for t, rho in zip(times, traj.states)
        )
        assert worst < 1e-8, f"gamma={gamma}: closed-form error {worst:.3e}"


def _jittered_arange():
    times = np.arange(0.0, 60.0, 0.05)
    times[1:] += np.random.default_rng(7).uniform(-1e-12, 1e-12, len(times) - 1)
    return times


EXPM_GRIDS = {
    "linspace": np.linspace(0.0, 20.0, 81),
    "arange": np.arange(0.0, 60.0, 0.05),
    "jittered-arange": _jittered_arange(),
    "repeated-times": np.array([0.0, 0.3, 0.3, 7.1, 7.1, 7.2, 40.0, 40.0]),
    "late-start": np.linspace(5.0, 25.0, 41),
    "late-short-interval": np.array([50.0, 50.1, 50.2]),
    "single-time": np.array([31.1]),
}


@pytest.mark.parametrize("n_sites, bits", [(3, "010"), (5, "10010")])
@pytest.mark.parametrize("grid", list(EXPM_GRIDS), ids=list(EXPM_GRIDS))
def test_expm_matches_dense_exponential(n_sites, bits, grid):
    times = EXPM_GRIDS[grid]
    spec = LatticeSpec(n_sites=n_sites, dephasing_gamma=1.5)
    basis = ManyBodyBasis(n_sites, bits.count("1"))
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, bits))
    traj = evolve(rho0, liou, times)
    generator, vec0 = liou.matrix.toarray(), np.ravel(rho0, order="F")
    # every sample of a short grid; 30 spread over a long one, the last included
    checked = np.unique(np.linspace(0, len(times) - 1, 30).round().astype(int))
    worst = max(
        np.abs(np.ravel(traj.states[k], order="F") - expm(generator * times[k]) @ vec0).max()
        for k in checked
    )
    assert worst < 1e-12


@pytest.mark.parametrize("grid", list(EXPM_GRIDS), ids=list(EXPM_GRIDS))
def test_steps_reach_each_sample_from_the_one_before(grid):
    # A grid that is np.linspace over its own ends takes its first time and
    # then one spacing; any other grid takes its exact differences.
    times = EXPM_GRIDS[grid]
    steps = lindblad._steps(times)
    assert steps.shape == times.shape and steps[0] == times[0]
    if grid in ("linspace", "arange", "late-start", "late-short-interval"):
        assert np.all(steps[1:] == (times[-1] - times[0]) / (len(times) - 1))
        assert np.abs(np.cumsum(steps) - times).max() <= 1e-12 * times[-1]
    else:
        assert np.array_equal(steps, np.diff(times, prepend=0.0))


# Each grid with the number of times its positive step changes, counting the
# first positive step: the dense propagators per pair size.
GRID_CALLS = [
    (np.linspace(0.0, 6.0, 121), 1),
    (np.linspace(1.0, 3.0, 41), 2),
    (np.array([0.0, 0.3, 0.3, 1.1]), 2),
    (np.array([0.5, 1.0, 2.5, 3.0]), 3),
]


@pytest.mark.parametrize("times, calls", GRID_CALLS)
def test_expm_calls_per_grid(monkeypatch, times, calls):
    # Full route: one expm_multiply call on the grid's steps, whatever the
    # grid, whose positive step changes ``calls`` times; the Taylor degree
    # and step count are chosen once per change.
    liou, rho0 = interacting_problem()
    seen = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    dense = counting(monkeypatch, lindblad, "expm")
    choices = counting(monkeypatch, exponential, "_taylor_steps")
    evolve(rho0, liou, times)
    assert len(seen) == 1
    steps = seen[0][2]
    assert np.array_equal(steps, lindblad._steps(times))
    assert np.count_nonzero(np.diff(steps[steps > 0], prepend=0.0)) == calls
    assert dense == []
    assert len(choices) == calls


@pytest.mark.parametrize("times, calls", [(np.linspace(0.0, 60.0, 1201), 1)] + GRID_CALLS[1:])
def test_dense_exponentials_per_grid(monkeypatch, times, calls):
    # Block route: one propagator each time the positive step changes, each
    # one dense expm call per size of real pair generator, and no
    # expm_multiply. The input is a pure state with a weight on every basis
    # state, so it occupies every pair a <= b of blocks.
    _, basis, liou = n3_problem()
    sizes = lindblad._symmetry_blocks(liou)[1]
    pair_sizes = len({sizes[a] * sizes[b] * (1 + (a != b))
                      for a, b in itertools.combinations_with_replacement(range(len(sizes)), 2)})
    seen = counting(monkeypatch, lindblad, "expm")
    krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    evolve(pure_state([0.6, 0.48j, 0.64]), liou, times)
    # the blocks {E = +-sqrt 2} and {E = 0}: rho_00 and rho_01 have 4 real
    # coordinates each, rho_11 has 1
    assert pair_sizes == 2
    assert len(seen) == calls * pair_sizes
    assert krylov == []


def test_both_kernels_step_only_when_a_sample_is_pulled(monkeypatch):
    # Each kernel yields its samples one by one: pulling the first of five
    # unequal positive steps takes one Taylor step on the sparse kernel and
    # one dense expm per pair size on the dense one, and the rest come later.
    _, _, liou = n3_problem()
    rho0 = pure_state([0.6, 0.48j, 0.64])
    pairs = lindblad._point_pairs(rho0, liou, lindblad._symmetry_blocks(liou))
    vec = pairs.vec
    steps = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    taylor = counting(monkeypatch, lindblad.splinalg, "_step")
    dense = counting(monkeypatch, lindblad, "expm")
    sparse_stream = lindblad.splinalg.expm_multiply(
        sparse.block_diag(pairs.generators, format="csr"), vec, steps)
    dense_stream = lindblad._dense_samples(pairs.generators, vec, steps)
    first = next(sparse_stream), next(dense_stream)
    assert (len(taylor), len(dense)) == (1, 2)     # pairs of two real sizes
    assert np.abs(first[0] - first[1]).max() < 1e-13
    assert len(list(sparse_stream)) == len(list(dense_stream)) == 4
    assert (len(taylor), len(dense)) == (5, 10)


def test_dark_state_is_stationary():
    spec = LatticeSpec(n_sites=5, dephasing_gamma=2.0)
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(slater_state(basis, bare_mode_parity(5).odd[:2]))
    times = np.linspace(0.0, 50.0, 11)
    traj = evolve(rho0, liou, times)
    worst = max(np.abs(rho - rho0).max() for rho in traj.states)
    assert worst < 1e-9


def test_expectations_match_dense_trace():
    # Tr[O rho] read off O's nonzero entries equals the dense trace for CSR
    # and dense O, including a non-symmetric O on a non-Hermitian matrix, on
    # one state and on a (T, d, d) stack.
    basis = ManyBodyBasis(5, 2)
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    for op in (charge_operator(basis), bilinear_operator(basis, 1, 4),
               rng.normal(size=(10, 10))):
        expected = np.trace((op.toarray() if sparse.issparse(op) else op) @ rho)
        assert abs(expectation(rho, op) - expected) < 1e-12
        values = expectation(np.array([rho, 2.0 * rho]), op)
        assert values.shape == (2,)
        assert np.abs(values - [expected, 2.0 * expected]).max() < 1e-12


def _long_step_problem():
    # robustness-aa's longest steps, where a kernel that estimated 1-norms
    # from numpy's global random generator would pick its Taylor steps by it.
    # Its one block is small, so the full route is forced by a zero pair limit.
    spec = LatticeSpec(n_sites=9, aa_amplitude=3.0 / 14.0)
    basis = ManyBodyBasis(9, 1)
    parity = bare_mode_parity(9)
    ground = int(np.argmin(parity.energies)) + 1
    rho0 = pure_state(slater_state(basis, [ground], orbitals=parity.modes))
    return rho0, dephasing_liouvillian(spec, basis), [100.0, 1000.0]


def test_evolve_does_not_depend_on_the_global_random_state(monkeypatch):
    rho0, liou, times = _long_step_problem()
    for limit in (0, lindblad.DENSE_PAIR_LIMIT):      # the full route, then the block route
        monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
        runs = []
        for seed in range(6):
            np.random.seed(seed)
            runs.append(evolve(rho0, liou, times).states)
        for states in runs[1:]:
            assert np.array_equal(states, runs[0])


def test_evolve_leaves_the_global_random_stream_alone(monkeypatch):
    rho0, liou, times = _long_step_problem()
    for limit in (0, lindblad.DENSE_PAIR_LIMIT):      # the full route, then the block route
        monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
        np.random.seed(7)
        expected = np.random.random(4)
        np.random.seed(7)
        evolve(rho0, liou, times)
        assert np.array_equal(np.random.random(4), expected)


def test_orbit_route_writes_one_array_of_samples():
    liou, rho0 = interacting_problem()
    times = np.linspace(0.0, 2.0, 5)
    traj = evolve(rho0, liou, times)
    assert traj.states.shape == (5, 35, 35)
    assert traj.states.flags.owndata and traj.states.flags.c_contiguous
    for t, rho in zip(times, traj.states):
        assert np.abs(rho - evolve(rho0, liou, [t]).states[0]).max() < 1e-13


def test_identity_block_writes_one_array_of_samples(monkeypatch):
    # Without reflection the orbits are one sparse identity block; its
    # samples are scattered and rotated like any other pair's, into one
    # owned array.
    rho0, liou, _ = _long_step_problem()
    assert liou.orbits == ()
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", 0)
    times = np.linspace(0.0, 2.0, 5)
    traj = evolve(rho0, liou, times)
    assert traj.states.shape == (5, 9, 9)
    assert traj.states.flags.owndata and traj.states.flags.c_contiguous
    for t, rho in zip(times, traj.states):
        assert np.abs(rho - evolve(rho0, liou, [t]).states[0]).max() < 1e-13


def test_block_route_writes_one_array_of_samples():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    times = np.linspace(0.0, 2.0, 5)
    traj = evolve(rho0, liou, times)
    assert traj.states.shape == (5, 3, 3)
    assert traj.states.flags.owndata and traj.states.flags.c_contiguous
    for t, rho in zip(times, traj.states):
        assert np.abs(rho - evolve(rho0, liou, [t]).states[0]).max() < 1e-13


def test_trajectory_invariants_recorded():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    traj = evolve(rho0, liou, np.linspace(0, 20, 41))
    assert traj.diagnostics["max_trace_dev"] < 1e-9
    assert traj.diagnostics["max_herm_dev"] < 1e-10
    assert traj.diagnostics["min_eigenvalue"] > -1e-8


def test_positive_minimum_eigenvalue_is_reported():
    # The maximally mixed state is stationary, so every sample's smallest
    # eigenvalue is 1/5; the running minimum starts from the first sample,
    # not from 0.
    basis = ManyBodyBasis(5, 1)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5, aa_amplitude=0.4), basis)
    traj = evolve(np.eye(basis.size) / basis.size, liou, [1.0, 2.0])
    assert abs(traj.diagnostics["min_eigenvalue"] - 0.2) < 1e-12


def test_invariant_violation_aborts(monkeypatch):
    # a generator that leaks trace: every generator built from operators
    # preserves it, so each orbit pair's superoperator is replaced by pure decay
    liou, rho0 = interacting_problem()
    monkeypatch.setattr(pairgen, "entries", lambda h_a, h_b, *_: (
        np.full(h_a.shape[0] * h_b.shape[0], -0.5 + 0j),
        (np.arange(h_a.shape[0] * h_b.shape[0]),) * 2))
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(rho0, liou, [0.0, 5.0])


def test_invariant_violation_aborts_on_the_block_route(monkeypatch):
    # a block exponential that leaks trace: half of each true propagator
    _, basis, liou = n3_problem()
    monkeypatch.setattr(lindblad, "expm", lambda a: 0.5 * expm(a))
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(pure_state(fock_state(basis, "010")), liou, [0.0, 5.0])


def test_nan_sample_aborts(monkeypatch):
    # A propagator that yields NaN fails the trace check instead of passing
    # every comparison.
    _, basis, liou = n3_problem()
    monkeypatch.setattr(lindblad, "expm", lambda a: np.full(a.shape, np.nan))
    with pytest.raises(InvariantViolation, match="trace deviation nan at t=5"):
        evolve(pure_state(fock_state(basis, "010")), liou, [0.0, 5.0])


@pytest.mark.parametrize("key, name", [("max_trace_dev", "trace deviation"),
                                       ("max_herm_dev", "hermiticity deviation"),
                                       ("min_eigenvalue", "negative eigenvalue")])
def test_nan_deviation_is_a_violation(key, name):
    deviations = {"max_trace_dev": 0.0, "max_herm_dev": 0.0, "min_eigenvalue": 0.0, key: np.nan}
    with pytest.raises(InvariantViolation, match=f"{name} nan"):
        lindblad._check_deviations(deviations, 1.0)


@pytest.mark.parametrize("key, name", [("max_trace_dev", "trace deviation"),
                                       ("max_herm_dev", "hermiticity deviation"),
                                       ("min_eigenvalue", "negative eigenvalue")])
def test_deviation_on_its_limit_fails_every_verdict(monkeypatch, key, name):
    # One rule, lower < value < upper, for validation, for the abort at
    # ABORT_FACTOR times the limits, and for a run's summary.
    lower, upper = lindblad.LIMITS[key]
    deviations = {"max_trace_dev": 0.0, "max_herm_dev": 0.0, "min_eigenvalue": 0.0,
                  key: upper if upper < np.inf else lower}
    for factor in (1.0, lindblad.ABORT_FACTOR):
        with pytest.raises(InvariantViolation, match=name):
            lindblad._check_deviations({k: factor * v for k, v in deviations.items()}, factor)
    monkeypatch.setattr(lindblad, "invariant_deviations", lambda rho: deviations)
    with pytest.raises(InvariantViolation, match=name):
        validate_density(np.eye(2) / 2)
    assert experiments.RunResult({"checks": deviations}).invariants_ok is False


def test_non_finite_initial_state_is_refused():
    _, basis, liou = n3_problem()
    for bad in (np.nan, np.inf):
        rho0 = pure_state(fock_state(basis, "010"))
        rho0[0, 1] = bad
        with pytest.raises(ValueError, match="rho0 has a non-finite entry"):
            evolve(rho0, liou, [0.0, 1.0])
        with pytest.raises(ValueError, match="rho0 has a non-finite entry"):
            steady_state(rho0, liou)


def test_steady_state_refuses_a_tolerance_that_is_not_positive_and_finite():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    for tol in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="convergence_tol must be a positive finite number"):
            steady_state(rho0, liou, convergence_tol=tol)


def test_initial_state_of_the_wrong_shape_is_refused():
    _, _, liou = n3_problem()
    for bad in (np.eye(2) / 2, np.ones(3) / 3):
        with pytest.raises(ValueError, match="does not match dimension 3"):
            evolve_scan(bad, [liou], [0.0, 1.0])
        with pytest.raises(ValueError, match="does not match dimension 3"):
            steady_state(bad, liou)


def test_scan_refuses_an_empty_time_list():
    _, basis, liou = n3_problem()
    with pytest.raises(ValueError, match="no sample times"):
        evolve_scan(pure_state(fock_state(basis, "010")), [liou], [])


def test_nan_residual_fails_every_steady_state_guard(monkeypatch):
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    monkeypatch.setattr(lindblad.Liouvillian, "residual", lambda self, rho: np.nan)
    with pytest.raises(RuntimeError, match="kernel candidate has residual nan"):
        steady_state_null_space(liou)
    with pytest.raises(SteadyStateNotConverged):
        steady_state(rho0, liou)
    # The undamped part passes; the limit's NaN residual does not.
    residuals = iter([0.0, np.nan])
    monkeypatch.setattr(lindblad.Liouvillian, "residual", lambda self, rho: next(residuals))
    with pytest.raises(RuntimeError, match="steady state has residual nan"):
        steady_state(rho0, liou)


CROSS_MODELS = [
    {},
    {"trap_amplitude": 0.7},
    {"trap_amplitude": 2.0},
    {"trap_amplitude": 1.0, "trap_center": 1},
    {"aa_amplitude": 0.4},
    {"interaction": 0.3},
]
CROSS_GAMMAS = [0.0, 0.1, 1.0, 20.0]
CROSS_GRIDS = [
    np.linspace(0.0, 8.0, 17),
    np.linspace(0.0, 8.0, 9) + np.random.default_rng(5).uniform(0.0, 1e-3, 9),
    np.array([0.0, 0.4, 0.4, 2.5, 2.5, 9.0]),
    np.linspace(3.0, 9.0, 13),
]


def _cross_input(basis, kind, rng):
    n, k = basis.n_sites, basis.n_particles
    if kind == 0:
        return pure_state(fock_state(basis, "".join(rng.permutation(["1"] * k + ["0"] * (n - k)))))
    if kind == 1:
        modes = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        return pure_state(slater_state(basis, modes, orbitals=bare_mode_parity(n).modes))
    a = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
    return a @ a.conj().T / np.trace(a @ a.conj().T)


def _assert_blocks_exact(liou):
    """In the block basis, H and (for gamma > 0) the jump have no entry
    above 1e-12 between blocks, and the jump is the returned 0/1 diagonal."""
    blocks = lindblad._symmetry_blocks(liou)
    basis, sizes, dephased = blocks.basis, blocks.sizes, blocks.dephased
    label = np.repeat(np.arange(len(sizes)), sizes)
    between = label[:, None] != label[None, :]
    h = basis.conj().T @ liou.hamiltonian.toarray() @ basis
    assert np.abs(h[between]).max(initial=0.0) <= 1e-12
    if liou.gamma > 0:
        jump = basis.conj().T @ np.diag(liou.dephased.astype(float)) @ basis
        assert np.abs(jump[between]).max(initial=0.0) <= 1e-12
        assert np.abs(jump - np.diag(dephased.astype(float))).max() < 1e-10


def _routes_agree(spec, filling, kind, times, rng) -> bool:
    """Whether evolve takes the block route on ``spec`` at ``filling``; if so
    its samples from a drawn input of ``kind`` match the full route to 1e-12."""
    basis = ManyBodyBasis(spec.n_sites, filling)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = _cross_input(basis, kind, rng)
    _assert_blocks_exact(liou)
    if not lindblad._dense_route([liou]):
        return False        # the orbit route, tested on its own
    gap = np.abs(evolve(rho0, liou, times).states - full_route(rho0, liou, times)).max()
    assert gap < 1e-12, f"{spec}, filling {filling}: {gap:.3e}"
    return True


def test_block_route_matches_full_route():
    # Every sector of N = 3, 5, 7; each case draws its rate, model, input and
    # grid in turn, so each value of each meets every sector size.
    rng = np.random.default_rng(2024)
    block_runs = 0
    case = 0
    for n_sites in (3, 5, 7):
        for filling in range(1, n_sites + 1):
            for _ in range(2):
                spec = LatticeSpec(n_sites=n_sites, dephasing_gamma=CROSS_GAMMAS[case % 4],
                                   **CROSS_MODELS[case % 6])
                block_runs += _routes_agree(spec, filling, case % 3,
                                            CROSS_GRIDS[(case // 3) % 4], rng)
                case += 1
    assert block_runs >= 26
    # N = 9 with a mixed input: bare at two particles, whose blocks share
    # levels, and a centred trap at three.
    assert _routes_agree(LatticeSpec(n_sites=9, dephasing_gamma=1.0), 2, 2, CROSS_GRIDS[2], rng)
    assert _routes_agree(LatticeSpec(n_sites=9, dephasing_gamma=1.0, trap_amplitude=2.0), 3, 2,
                         CROSS_GRIDS[0], rng)


def _decomposition(kind):
    """A problem, an input and the decomposition of ``kind``: the Slater
    blocks of a centred trap, the reflection orbits of the interacting chain
    for an input straddling both, or the one identity block of a broken
    reflection; each with a grid of its own."""
    rng = np.random.default_rng(17)
    if kind == "slater":
        basis = ManyBodyBasis(7, 3)
        liou = dephasing_liouvillian(LatticeSpec(n_sites=7, trap_amplitude=2.0), basis)
        return liou, _cross_input(basis, 2, rng), lindblad._symmetry_blocks(liou), CROSS_GRIDS[2]
    if kind == "orbits":
        liou, _ = interacting_problem()
        rho0 = pure_state(fock_state(ManyBodyBasis(7, 4), "1101010"))
        return liou, rho0, lindblad._orbit_blocks(liou), CROSS_GRIDS[0]
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5, aa_amplitude=0.4, dephasing_gamma=20.0),
                                 basis)
    return liou, _cross_input(basis, 2, rng), lindblad._orbit_blocks(liou), CROSS_GRIDS[3]


def _random_complex_problem():
    """A complex Hermitian H on 8 states with a random 0/1 jump, checked by
    build_liouvillian: one block, whose real coordinates read Im H."""
    rng = np.random.default_rng(9)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    liou = build_liouvillian(h + h.conj().T, 0.8, np.diag((rng.random(8) < 0.5).astype(float)))
    return liou, [pure_state(rng.normal(size=8) + 1j * rng.normal(size=8)),
                  _cross_input(ManyBodyBasis(8, 1), 2, rng)]


@pytest.mark.parametrize("spec, fock", [
    pytest.param(LatticeSpec(n_sites=5), "11000", id="n5"),
    pytest.param(LatticeSpec(n_sites=7, trap_amplitude=1.5), "1100000", id="n7-trap"),
    pytest.param(LatticeSpec(n_sites=7, aa_amplitude=0.4), "1100000", id="n7-aa"),
    pytest.param(LatticeSpec(n_sites=7, interaction=0.3), "1100000", id="n7-interacting"),
    pytest.param(None, None, id="complex-h"),
])
def test_evolve_matches_scipy_expm_of_the_whole_superoperator(monkeypatch, spec, fock):
    # Both kernels, each forced by DENSE_PAIR_LIMIT, against a reference that
    # shares no code with them: scipy.linalg.expm of the dense
    # Liouvillian.matrix over one step, applied once and three times, at two
    # particles (d <= 21). The Fock string is not its own mirror image, so it
    # occupies pairs a < b wherever there is more than one block, as the
    # random mixed state does.
    if spec is None:
        liou, inputs = _random_complex_problem()
    else:
        basis = ManyBodyBasis(spec.n_sites, 2)
        liou = dephasing_liouvillian(spec, basis)
        inputs = [pure_state(fock_state(basis, fock)),
                  _cross_input(basis, 2, np.random.default_rng(3))]
    times = [0.0, 0.7, 2.1, 2.1]
    step = expm(0.7 * liou.matrix.toarray())
    for rho0 in inputs:
        vec = np.ravel(rho0, order="F")
        reached = [vec, step @ vec, step @ (step @ (step @ vec))]
        expected = np.array([reached[k].reshape(liou.dim, liou.dim, order="F")
                             for k in (0, 1, 2, 2)])
        for limit in (10 ** 6, 0):
            monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
            blocks = (lindblad._symmetry_blocks if limit else lindblad._orbit_blocks)(liou)
            occupied = lindblad._occupied_pairs(blocks.basis.conj().T @ rho0 @ blocks.basis,
                                                blocks.sizes, rho0)
            assert np.triu(occupied, 1).any() == (len(blocks.sizes) > 1)
            gap = np.abs(evolve(rho0, liou, times).states - expected).max()
            assert gap < 1e-12, f"limit {limit}: {gap:.3e}"


@pytest.mark.parametrize("kind, sizes", [
    ("slater", [4, 6, 6, 6, 4, 4, 4, 1]),
    ("orbits", [19, 16]),
    ("identity", [10]),
])
def test_every_decomposition_matches_full_route_on_both_kernels(monkeypatch, kind, sizes):
    # Each decomposition goes through one propagation function; the call
    # names its kernel, so both kernels run on every decomposition.
    liou, rho0, blocks, times = _decomposition(kind)
    assert list(blocks.sizes) == sizes
    expected = full_route(rho0, liou, times)
    for kernel in ("expm", "expm_multiply"):
        dense = counting(monkeypatch, lindblad, "expm")
        krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
        samples = lindblad._pair_samples(rho0, [(liou, blocks)], times, kernel == "expm", [{}],
                                         np.arange(len(times)))
        gap = np.abs(samples[0][0] - expected).max()
        assert gap < 1e-12, f"{kind} on {kernel}: {gap:.3e}"
        assert (len(dense) > 0, len(krylov) > 0) == (kernel == "expm", kernel == "expm_multiply")
        monkeypatch.undo()


def test_interacting_mirror_symmetric_input_builds_one_orbit_pair(monkeypatch):
    # robustness-int's input 1010101 lies in the +1 orbits alone: one pair
    # generator, on the 19^2 real coordinates of a Hermitian 19 x 19 block,
    # with the nonzeros of its orbit Hamiltonian. 32 of them, below 1e-16, come
    # from diagonal entries of that Hamiltonian that are equal but for rounding.
    liou, rho0 = interacting_problem()
    built = counting(monkeypatch, pairgen, "entries")
    propagated = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    evolve(rho0, liou, [0.0, 1.0])
    assert len(built) == 1 and len(propagated) == 1
    generator = propagated[0][0]
    assert generator.shape == (361, 361)
    assert generator.dtype == np.float64
    assert generator.nnz == 2592


def _interacting_inputs():
    """N = 7, Np = 4, interaction 0.3: inputs named by the reflection pairs
    a <= b they occupy. 1010101 is its own mirror image, so it lies in the +1
    orbits alone; 1101010 straddles both; so does a random mixed state. The
    last is 1010101 with weight 1e-17 moved to a -1 state: its (-, -) block
    has norm 1e-17 < eps and is dropped."""
    liou, symmetric = interacting_problem()
    basis = ManyBodyBasis(7, 4)
    minus = liou.orbits[1][:, 0].toarray().ravel()
    return liou, [
        ("mirror-symmetric", symmetric, 1),
        ("straddling", pure_state(fock_state(basis, "1101010")), 3),
        ("random-mixed", _cross_input(basis, 2, np.random.default_rng(11)), 3),
        ("tiny-block", (1.0 - 1e-17) * symmetric + 1e-17 * np.outer(minus, minus), 1),
    ]


@pytest.mark.parametrize("times", [CROSS_GRIDS[0], CROSS_GRIDS[2]], ids=["uniform", "repeated"])
def test_orbit_route_matches_full_route(monkeypatch, times):
    # The orbit route propagates only the occupied reflection pairs a <= b,
    # one sparse generator each, in one expm_multiply call on all the steps.
    liou, inputs = _interacting_inputs()
    assert [q.shape[1] for q in liou.orbits] == [19, 16]
    for name, rho0, pairs in inputs:
        built = counting(monkeypatch, pairgen, "entries")
        states = evolve(rho0, liou, times).states
        assert len(built) == pairs, name
        gap = np.abs(states - full_route(rho0, liou, times)).max()
        assert gap < 1e-12, f"{name}: {gap:.3e}"
        monkeypatch.undo()


def test_block_route_propagates_only_occupied_pairs(monkeypatch):
    # The trapped fock-quench sector at N = 7: 1010101 occupies 9 of the 64
    # pairs of its odd-pattern blocks, 6 of them with a <= b, and one
    # propagator exponentiates those 6 alone.
    basis = ManyBodyBasis(7, 4)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=7, trap_amplitude=2.0), basis)
    rho0 = pure_state(fock_state(basis, "1010101"))
    blocks = lindblad._symmetry_blocks(liou)
    occupied = lindblad._occupied_pairs(blocks.basis.conj().T @ rho0 @ blocks.basis,
                                        blocks.sizes, rho0)
    assert (occupied.sum(), occupied.size) == (9, 64)
    seen = counting(monkeypatch, lindblad, "expm")
    evolve(rho0, liou, [0.0, 2.0])
    assert sum(len(stack) for stack, in seen) == 6
    times = CROSS_GRIDS[1]
    gap = np.abs(evolve(rho0, liou, times).states - full_route(rho0, liou, times)).max()
    assert gap < 1e-12


def test_zero_state_still_reaches_the_checks():
    # A zero rho0 occupies no pair; it is propagated whole and refused.
    _, basis, liou = n3_problem()
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(np.zeros((3, 3)), liou, [0.0, 1.0])
    liou, _ = interacting_problem()
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(np.zeros((35, 35)), liou, [0.0, 1.0])


KERNELS = [pytest.param(lindblad.DENSE_PAIR_LIMIT, id="dense"), pytest.param(0, id="orbits")]


@pytest.mark.parametrize("limit", KERNELS)
def test_negative_eigenvalue_aborts_at_the_first_sample(monkeypatch, limit):
    # Hermitian with trace 1 but an eigenvalue -1/2, on states that occupy
    # some of the blocks only: positivity is read on those blocks' rows and
    # columns, and rho0 itself is the t = 0 sample.
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5), basis)
    rho0 = (1.5 * pure_state(fock_state(basis, "10001"))
            - 0.5 * pure_state(fock_state(basis, "01010")))
    assert _occupied_dimension(rho0, liou) < liou.dim
    with pytest.raises(InvariantViolation, match="negative eigenvalue -5.000e-01 at t=0$"):
        evolve(rho0, liou, [0.0, 1.0])


def turn_conjugates(monkeypatch, factor):
    """Make every pair write the imaginary parts of its conjugate entries,
    below a diagonal pair's diagonal and in rho_ba of a pair a < b, times
    ``factor(liouvillian)``: the trace is still kept, but each sample after
    t = 0, which is rho0 itself, gains an anti-Hermitian part."""
    original = lindblad._point_pairs

    def point_pairs(rho0, liouvillian, blocks):
        pairs = original(rho0, liouvillian, blocks)
        turned = np.where(pairs.weights < 0, factor(liouvillian), 1.0) * pairs.weights
        return pairs._replace(weights=turned)

    monkeypatch.setattr(lindblad, "_point_pairs", point_pairs)


@pytest.mark.parametrize("times", [[0.0, 1.0], [1.0, 2.0]], ids=["with-t0", "without-t0"])
def test_non_hermitian_rho0_is_refused_on_any_grid(monkeypatch, times):
    # The pairs step only a state's Hermitian coordinates, so a rho0 whose
    # hermiticity deviation reaches ABORT_FACTOR times its limit is refused
    # before anything is propagated, whether or not its grid holds t = 0.
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5), basis)
    rho0 = pure_state(fock_state(basis, "10100"))
    rho0[0, 1] += 1e-6
    monkeypatch.setattr(lindblad, "_pair_samples", None)      # never reached
    with pytest.raises(InvariantViolation, match="^hermiticity deviation 1.000e-06 of rho0$"):
        evolve(rho0, liou, times)
    monkeypatch.undo()
    rho0[0, 1] = 5e-10      # inside the limit: runs, and only rho0 itself shows it
    deviation = evolve(rho0, liou, times).diagnostics["max_herm_dev"]
    assert abs(deviation - (5e-10 if times[0] == 0.0 else 0.0)) < 1e-15


@pytest.mark.parametrize("limit", KERNELS)
def test_hermiticity_deviation_aborts(monkeypatch, limit):
    # The generators keep every sample Hermitian in the block basis; the
    # check in the site basis catches a state that is written back wrong.
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
    _, basis, liou = n3_problem()
    turn_conjugates(monkeypatch, lambda liou: 1.0 + 1e-6)
    with pytest.raises(InvariantViolation, match="hermiticity deviation .* at t=5$"):
        evolve(pure_state(fock_state(basis, "010")), liou, [0.0, 5.0])


@pytest.mark.parametrize("limit", KERNELS)
def test_block_basis_that_is_not_unitary_raises(monkeypatch, limit):
    # H's eigenvectors scaled by 1 + 1e-8; without dephasing the jump checks
    # see nothing, so only the unitarity guard can refuse the basis. The
    # dense route reads that basis and refuses it; the orbit route never
    # builds it, so it runs.
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5, dephasing_gamma=0.0), basis)
    energies, vectors, label = liou._spectrum
    liou.__dict__["_spectrum"] = (energies, (1.0 + 1e-8) * vectors, label)
    with pytest.raises(RuntimeError, match="not unitary"):
        lindblad._symmetry_blocks(liou)
    rho0 = pure_state(fock_state(basis, "10100"))
    if limit:
        with pytest.raises(RuntimeError, match="not unitary"):
            evolve(rho0, liou, [0.0, 1.0])
    else:
        built = counting(monkeypatch, lindblad, "_symmetry_blocks")
        evolve(rho0, liou, [0.0, 1.0])
        assert built == []


def _occupied_dimension(rho0, liou) -> int:
    """The number of block-basis dimensions that the blocks of evolve's
    occupied pairs span, on the decomposition that its route picks."""
    dense = lindblad._dense_route([liou])
    blocks = (lindblad._symmetry_blocks if dense else lindblad._orbit_blocks)(liou)
    occupied = lindblad._occupied_pairs(blocks.basis.conj().T @ rho0 @ blocks.basis,
                                        blocks.sizes, rho0)
    return int(blocks.sizes[occupied.any(axis=0) | occupied.any(axis=1)].sum())


def test_recorded_diagnostics_equal_a_full_space_check(monkeypatch):
    # Trace and hermiticity are read in the site basis, positivity in the
    # block basis on the occupied blocks; the worst values must be those of
    # invariant_deviations on the returned samples.
    covered = set()

    def check(rho0, liou, grid, name):
        traj = evolve(rho0, liou, CROSS_GRIDS[grid])
        full = [lindblad.invariant_deviations(rho) for rho in traj.states]
        for key in ("max_trace_dev", "max_herm_dev"):
            worst = max(d[key] for d in full)
            assert abs(traj.diagnostics[key] - worst) <= 1e-15, f"{name}: {key}"
        worst = min(d["min_eigenvalue"] for d in full)
        assert abs(traj.diagnostics["min_eigenvalue"] - worst) <= 1e-14, name
        dense = lindblad._dense_route([liou])
        partial = _occupied_dimension(rho0, liou) < liou.dim
        covered.update({"dense" if dense else "orbits", "k < d" if partial else "k = d",
                        ("uniform", "jittered", "repeated", "no t = 0")[grid]})
        return traj.diagnostics

    rng = np.random.default_rng(21)
    models = [{}, {"trap_amplitude": 2.0}, {"interaction": 0.3}, {"aa_amplitude": 0.4}]
    case = 0
    for n_sites in (3, 5, 7):
        for model in models:
            for limit in (lindblad.DENSE_PAIR_LIMIT, 0):
                monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
                basis = ManyBodyBasis(n_sites, int(rng.integers(1, (n_sites + 1) // 2 + 1)))
                liou = dephasing_liouvillian(LatticeSpec(n_sites=n_sites, **model), basis)
                check(_cross_input(basis, case % 3, rng), liou, case % 4,
                      f"N={n_sites} {model} filling {basis.n_particles} limit {limit}")
                case += 1
    assert covered == {"dense", "orbits", "k < d", "k = d", "uniform", "jittered", "repeated",
                       "no t = 0"}
    # The mirror-even states mixed evenly: positive on the blocks they
    # occupy, so only the zeros of the other blocks give the smallest
    # eigenvalue, exactly 0.
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5), basis)
    even = liou.orbits[0].toarray()
    for limit in (lindblad.DENSE_PAIR_LIMIT, 0):
        monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
        diagnostics = check(even @ even.T / even.shape[1], liou, 0, f"mirror-even, limit {limit}")
        assert diagnostics["min_eigenvalue"] == 0.0


def test_route_follows_the_pair_limit(monkeypatch):
    # The trapped fock-quench sector: its largest pair (6 x 6 states, the
    # odd-pattern sectors of one odd mode) is propagated densely at that
    # limit and by expm_multiply just below it.
    basis = ManyBodyBasis(7, 4)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=7, trap_amplitude=2.0), basis)
    rho0 = pure_state(fock_state(basis, "1010101"))
    times = np.linspace(0.0, 2.0, 5)
    assert lindblad._symmetry_blocks(liou).sizes.max() ** 2 == 36
    runs = {}
    for limit in (36, 35):
        monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
        dense = counting(monkeypatch, lindblad, "expm")
        krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
        runs[limit] = evolve(rho0, liou, times).states
        assert (len(dense) > 0, len(krylov) > 0) == ((True, False) if limit == 36 else (False, True))
        monkeypatch.undo()
    assert np.abs(runs[36] - runs[35]).max() < 1e-12


def test_block_with_a_fractional_jump_raises():
    # N = 3's sectors cut into one per mode: each bright mode alone is a
    # sector on which the compressed jump is 1/2, and the two are coupled by
    # it, so the jump does not leave them invariant; evolve and steady_state
    # both raise.
    _, basis, liou = n3_problem()
    modes = bare_mode_parity(3).modes
    split = replace(liou, sectors=(modes[:, [0]], modes[:, [2]], modes[:, [1]]))
    rho0 = pure_state(fock_state(basis, "010"))
    with pytest.raises(RuntimeError, match="compressed jump"):
        evolve(rho0, split, [0.0, 1.0])
    with pytest.raises(RuntimeError, match="compressed jump"):
        steady_state(rho0, split)


def test_sectors_that_h_does_not_keep_raise():
    # The site basis cut one state per sector: H hops out of each, and its
    # eigen-residual on a sector fails before any block is formed.
    _, basis, liou = n3_problem()
    sites = replace(liou, sectors=tuple(np.eye(3)[:, [k]] for k in range(3)))
    rho0 = pure_state(fock_state(basis, "010"))
    with pytest.raises(RuntimeError, match="symmetry sector invariant"):
        evolve(rho0, sites, [0.0, 1.0])
    with pytest.raises(RuntimeError, match="symmetry sector invariant"):
        steady_state(rho0, sites)


@pytest.mark.parametrize("spec, sizes", [
    (LatticeSpec(n_sites=7), [1, 4, 4, 4, 6, 6, 6, 4]),
    (LatticeSpec(n_sites=7, trap_amplitude=2.0), [1, 4, 4, 4, 6, 6, 6, 4]),
    (LatticeSpec(n_sites=7, trap_amplitude=2.0, dephasing_gamma=0.0), [1, 4, 4, 4, 6, 6, 6, 4]),
    (LatticeSpec(n_sites=7, interaction=0.3), [19, 16]),
    (LatticeSpec(n_sites=7, interaction=0.3, trap_amplitude=0.7), [19, 16]),
    (LatticeSpec(n_sites=7, trap_amplitude=1.0, trap_center=3), [35]),
    (LatticeSpec(n_sites=7, aa_amplitude=1e-13), [35]),
])
def test_sectors_follow_the_spec(spec, sizes):
    # Half filling at N = 7: the odd-mode patterns without interaction, the
    # two reflection sectors with it, and one block once reflection is
    # broken, however slightly. The reflection orbits are kept exactly when
    # reflection is unbroken.
    liou = dephasing_liouvillian(spec, ManyBodyBasis(7, 4))
    assert [q.shape[1] for q in liou.sectors or (np.eye(35),)] == sizes
    assert list(lindblad._symmetry_blocks(liou).sizes) == sizes
    assert [q.shape[1] for q in liou.orbits] == ([] if sizes == [35] else [19, 16])


def test_evolve_validates_times_and_method(monkeypatch):
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    with pytest.raises(ValueError):
        evolve(rho0, liou, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(rho0, liou, [-1.0])
    # A NaN passes every order comparison, and an infinite step fails only
    # deep inside the exponential; both are refused before any work.
    work = counting(monkeypatch, lindblad, "_symmetry_blocks")
    for times in ([0.0, np.nan], [np.nan], [0.0, np.inf], [0.0, 1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            evolve(rho0, liou, times)
    assert work == []


def test_envelope_decay_rate_is_gamma_over_four():
    # fit the peak envelope of |rho_22 - 1/2|; Appendix-type relaxation rate
    for gamma in (0.5, 1.0, 2.0):
        spec = LatticeSpec(n_sites=3, dephasing_gamma=gamma)
        basis = ManyBodyBasis(3, 1)
        liou = dephasing_liouvillian(spec, basis)
        rho0 = pure_state(fock_state(basis, "010"))
        times = np.linspace(0.0, 40.0, 4001)
        traj = evolve(rho0, liou, times)
        dev = np.array([abs(rho[1, 1].real - 0.5) for rho in traj.states])
        peaks_t, peaks_v = [], []
        for k in range(1, len(dev) - 1):
            if dev[k] >= dev[k - 1] and dev[k] >= dev[k + 1] and dev[k] > 1e-8:
                peaks_t.append(times[k])
                peaks_v.append(dev[k])
        slope = np.polyfit(peaks_t, np.log(peaks_v), 1)[0]
        assert abs(-slope - gamma / 4.0) / (gamma / 4.0) < 0.02


def _scan_problem(kind):
    """rho0, the Liouvillians and the sample times of a default scan."""
    config = default_config(kind)
    basis, rho0 = experiments.build_initial_state(config.lattice, config.initial_state)
    field = {"robustness-int": "interaction", "robustness-aa": "aa_amplitude"}[kind]
    liouvillians = [dephasing_liouvillian(replace(config.lattice, **{field: float(value)}), basis)
                    for value in config.scan.grid()]
    times = config.scan.times[:1] if kind == "robustness-int" else config.scan.times
    return rho0, liouvillians, np.asarray(times, dtype=float)


@pytest.mark.parametrize("kind, kernels, expm_calls, krylov_calls", [
    ("robustness-int", [True] + [False] * 7, 0, 1),
    ("robustness-aa", [True] * 8, 4, 0),
])
def test_scan_matches_evolve_point_by_point(monkeypatch, kind, kernels, expm_calls, krylov_calls):
    # One kernel per call steps every point: robustness-int's interacting
    # points need the sparse kernel, so the whole scan, its dense-sized point
    # 0 included, takes one expm_multiply call on the block diagonal of all
    # pairs; robustness-aa's points are all dense-sized, so the pairs of one
    # size take one stacked expm per step (two pair sizes, steps to t = 100
    # and then 900).
    rho0, liouvillians, times = _scan_problem(kind)
    assert [lindblad._dense_route([liou]) for liou in liouvillians] == kernels
    if kind == "robustness-aa":
        assert list(times) == [100.0, 1000.0]
    dense = counting(monkeypatch, lindblad, "expm")
    krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    scan = evolve_scan(rho0, liouvillians, times)
    assert (len(dense), len(krylov)) == (expm_calls, krylov_calls)
    monkeypatch.undo()
    assert len(scan) == len(liouvillians)
    for trajectory, liou in zip(scan, liouvillians):
        single = evolve(rho0, liou, times)
        assert np.array_equal(trajectory.times, times)
        assert np.abs(trajectory.states - single.states).max() < 1e-12
        for key, value in single.diagnostics.items():
            assert abs(trajectory.diagnostics[key] - value) < 1e-12, key


def test_scan_refuses_liouvillians_of_unequal_dimension():
    _, _, small = n3_problem()
    liou, _ = interacting_problem()
    with pytest.raises(ValueError, match="different dimensions"):
        evolve_scan(np.eye(3) / 3, [small, liou], [0.0, 1.0])


def test_scan_refuses_an_empty_list():
    with pytest.raises(ValueError, match="no Liouvillians"):
        evolve_scan(np.eye(3) / 3, [], [0.0, 1.0])


@pytest.mark.parametrize("limit", [pytest.param(lindblad.DENSE_PAIR_LIMIT, id="dense"),
                                   pytest.param(0, id="orbits")])
def test_scan_aborts_at_the_first_failing_point(monkeypatch, limit):
    # The points with gamma 2 and 3 write their conjugate entries turned by
    # different factors, so each gains its own hermiticity deviation; the
    # scan names point 2's, as evolve of that point alone does.
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
    _, basis, _ = n3_problem()
    liouvillians = [n3_problem(gamma)[2] for gamma in (1.0, 0.5, 2.0, 3.0)]
    turn = {2.0: 1.0 + 1e-6, 3.0: 1.0 + 1e-5}
    turn_conjugates(monkeypatch, lambda liou: turn.get(liou.gamma, 1.0))
    rho0 = pure_state(fock_state(basis, "010"))
    with pytest.raises(InvariantViolation) as alone:
        evolve(rho0, liouvillians[2], [0.0, 5.0])
    with pytest.raises(InvariantViolation) as later:
        evolve(rho0, liouvillians[3], [0.0, 5.0])
    assert str(alone.value) != str(later.value)
    with pytest.raises(InvariantViolation) as scanned:
        evolve_scan(rho0, liouvillians, [0.0, 5.0])
    assert str(scanned.value) == str(alone.value)
    assert str(scanned.value).startswith("hermiticity deviation")


def test_sparse_scan_leaves_the_global_random_state_alone():
    # Two interacting points share one expm_multiply call, which must leave
    # numpy's global generator where it was.
    liou, rho0 = interacting_problem()
    other = replace(liou, hamiltonian=1.5 * liou.hamiltonian)
    np.random.seed(7)
    np.random.random(3)
    before = np.random.get_state()
    evolve_scan(rho0, [liou, other], [0.0, 40.0, 1000.0])
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


# ----------------------------------------------------------------------
# steady states
# ----------------------------------------------------------------------

def test_steady_state_n3_x_form():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    result = steady_state(rho0, liou)
    rho = result.state
    assert result.residual < 1e-9
    expected = np.array([[0.25, 0, 0.25], [0, 0.5, 0], [0.25, 0, 0.25]])
    assert np.abs(rho - expected).max() < 1e-7


def test_steady_state_n5_appendix_values():
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 1)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, "00100"))
    result = steady_state(rho0, liou)
    rho = result.state
    sixth = 1.0 / 6.0
    assert rho[0, 0].real == pytest.approx(sixth, abs=1e-7)
    assert rho[0, 4].real == pytest.approx(sixth, abs=1e-7)
    assert rho[1, 1].real == pytest.approx(sixth, abs=1e-7)
    assert rho[1, 3].real == pytest.approx(sixth, abs=1e-7)
    assert rho[2, 2].real == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_mixed_parity_state_never_converges():
    spec = LatticeSpec(n_sites=7)
    basis = ManyBodyBasis(7, 4)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, "1010101"))
    with pytest.raises(SteadyStateNotConverged) as info:
        steady_state(rho0, liou)
    assert info.value.residual > 1e-4


@pytest.mark.parametrize("n_sites, bits, omega, weight", [
    (5, "10000", 2.0, 0.25),
    (7, "1010101", 2.0 * np.sqrt(2.0), 0.2041241452),
    (11, "10101000000", 2.0, 0.0564810071),    # 2 sqrt(3) carries the same weight
])
def test_nonconvergence_names_undamped_gap_and_weight(n_sites, bits, omega, weight):
    basis = ManyBodyBasis(n_sites, bits.count("1"))
    liou = dephasing_liouvillian(LatticeSpec(n_sites=n_sites), basis)
    rho0 = pure_state(fock_state(basis, bits))
    with pytest.raises(SteadyStateNotConverged) as info:
        steady_state(rho0, liou)
    assert info.value.omega == pytest.approx(omega, abs=1e-6)
    assert info.value.weight == pytest.approx(weight, abs=1e-6)
    assert info.value.residual >= 1e-9


@pytest.mark.parametrize("n_sites", [3, 5, 7])
def test_centre_site_input_has_no_undamped_weight(n_sites):
    basis = ManyBodyBasis(n_sites, 1)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=n_sites), basis)
    centre = "0" * (n_sites // 2) + "1" + "0" * (n_sites // 2)
    rho0 = pure_state(fock_state(basis, centre))
    _kernel_part, _undamped, weight, _omega = lindblad._dark_parts(rho0, liou, 1e-9)
    assert weight == 0.0
    result = steady_state(rho0, liou)
    assert np.abs(result.state - analytic_steady_state(n_sites)).max() < 1e-10


def test_steady_state_matches_long_time_evolution():
    """An oracle that shares no code with the projection: "steady" means the
    exact t -> infinity limit of the given generator, so on random small specs
    (AA potential, trap, interaction, stiff gamma = 20) and random states the
    projection must agree with a long exact propagation, or refuse the states
    whose propagation keeps oscillating."""
    rng = np.random.default_rng(11)
    kinds = ("aa", "trap", "interaction", "stiff") * 2
    converged = 0
    for kind in kinds:
        n_sites, filling = int(rng.choice([3, 5])), int(rng.integers(1, 3))
        spec = LatticeSpec(
            n_sites=n_sites,
            dephasing_gamma=20.0 if kind == "stiff" else float(rng.uniform(0.5, 2.0)),
            aa_amplitude=float(rng.uniform(0.3, 1.0)) if kind == "aa" else 0.0,
            trap_amplitude=float(rng.uniform(0.5, 2.0)) if kind == "trap" else 0.0,
            interaction=float(rng.uniform(0.3, 1.0)) if kind == "interaction" else 0.0,
        )
        basis = ManyBodyBasis(n_sites, filling)
        liou = dephasing_liouvillian(spec, basis)
        a = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
        late = evolve(rho0, liou, [600.0, 600.5]).states
        try:
            rho = steady_state(rho0, liou).state
        except SteadyStateNotConverged:
            assert np.abs(late[1] - late[0]).max() > 1e-6, f"{kind}: {spec}"
            continue
        converged += 1
        deviation = np.abs(late[0] - rho).max()
        assert liou.residual(late[0]) < 1e-11, f"{kind}: t = 600 is not late enough"
        assert deviation < 1e-8, f"{kind}: {spec} deviation {deviation:.3e}"
    assert converged >= 4


@pytest.mark.parametrize("amplitude", [1e-7, 1e-3])
def test_weak_aa_potential_relaxes_to_its_exact_limit(amplitude):
    # Above DEGENERACY_TOL the potential splits the bare chain's degenerate
    # levels and makes its dark modes bright, so the kernel is the identity
    # alone: the exact limit is maximally mixed, though reaching it takes a
    # time of order 1 / amplitude^2.
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5, aa_amplitude=amplitude), basis)
    assert steady_state_null_space(liou).shape[1] == 1
    rho0 = pure_state(even_mode_slater(basis))
    rho = steady_state(rho0, liou).state
    assert np.abs(rho - np.eye(basis.size) / basis.size).max() < 1e-8


def test_aa_splitting_below_degeneracy_tol_is_one_level():
    # A potential of 1e-13 splits the bare degenerate levels by less than
    # DEGENERACY_TOL: they stay one level and the bare chain's limit holds.
    basis = ManyBodyBasis(5, 2)
    rho0 = pure_state(even_mode_slater(basis))
    bare = steady_state(rho0, dephasing_liouvillian(LatticeSpec(n_sites=5), basis))
    liou = dephasing_liouvillian(LatticeSpec(n_sites=5, aa_amplitude=1e-13), basis)
    assert steady_state_null_space(liou).shape[1] == 4
    result = steady_state(rho0, liou)
    assert np.abs(result.state - bare.state).max() < 1e-11
    assert result.residual < 1e-12


def test_steady_state_needs_diagonal_projector_jump():
    # A projector off the diagonal and a diagonal that is not 0/1 are both
    # refused when the generator is built, so no evolve or steady_state
    # ever sees them.
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    for jump in (np.array([[0.5, 0.5], [0.5, 0.5]]), np.diag([2.0, 0.0])):
        with pytest.raises(ValueError, match="0/1 jump"):
            build_liouvillian(h, 1.0, jump)


def test_null_space_contains_analytic_steady_state():
    _, basis, liou = n3_problem()
    kernel = steady_state_null_space(liou)
    target = np.ravel(analytic_steady_state(3), order="F").astype(complex)
    target /= np.linalg.norm(target)
    overlap = kernel @ (kernel.conj().T @ target)
    assert np.linalg.norm(overlap - target) < 1e-9


def test_null_space_dimension_cross_checked_against_dense_eigensolve():
    _, basis, liou = n3_problem()
    kernel = steady_state_null_space(liou)
    eigenvalues = np.linalg.eigvals(liou.matrix.toarray())
    assert kernel.shape[1] == int(np.sum(np.abs(eigenvalues) < 1e-10))
    for col in kernel.T:
        assert np.abs(liou.matrix @ col).max() < 1e-10


def test_null_space_unitary_case_has_large_kernel():
    _, basis, liou = n3_problem(gamma=0.0)
    kernel = steady_state_null_space(liou)
    assert kernel.shape[1] >= 3   # one projector per nondegenerate level


NULL_SPACE_CASES = [
    (LatticeSpec(n_sites=3), 1),
    (LatticeSpec(n_sites=5), 1),
    (LatticeSpec(n_sites=5), 2),
    (LatticeSpec(n_sites=5, dephasing_gamma=0.0), 2),
    (LatticeSpec(n_sites=5, aa_amplitude=0.4), 2),
    (LatticeSpec(n_sites=5, interaction=0.7), 2),
    (LatticeSpec(n_sites=5, interaction=0.7, dephasing_gamma=0.0), 1),
    (LatticeSpec(n_sites=5, aa_amplitude=1e-13), 2),   # levels split below DEGENERACY_TOL
    (LatticeSpec(n_sites=7), 2),                       # blocks of several levels
    (LatticeSpec(n_sites=9), 2),                       # two intertwiners between blocks
]


def test_null_space_matches_dense_svd():
    for spec, filling in NULL_SPACE_CASES:
        liou = dephasing_liouvillian(spec, ManyBodyBasis(spec.n_sites, filling))
        kernel = steady_state_null_space(liou)
        dense = dense_kernel(liou.matrix.toarray())
        assert kernel.shape == dense.shape, (spec, filling)
        projector_gap = np.abs(kernel @ kernel.conj().T - dense @ dense.conj().T).max()
        assert projector_gap < 1e-8, (spec, filling, projector_gap)


def test_null_space_residual_guard_fires(monkeypatch):
    # A null-space tolerance of 1 admits combinations that are not in the
    # kernel, and the residual guard refuses them.
    _, _, liou = n3_problem()
    monkeypatch.setattr(lindblad, "NULL_TOL", 1.0)
    with pytest.raises(RuntimeError, match="kernel candidate has residual"):
        steady_state_null_space(liou)


def test_steady_state_residual_guard_fires(monkeypatch):
    # A dark span tilted out of the kernel gives a limit that L does not
    # annihilate, and steady_state refuses it.
    _, basis, liou = n3_problem()
    dark_span = lindblad._dark_span

    def tilted(*args):
        z = dark_span(*args)
        return np.linalg.qr(z + 1e-6 * np.arange(len(z))[:, None])[0] if z.shape[1] else z

    monkeypatch.setattr(lindblad, "_dark_span", tilted)
    with pytest.raises(RuntimeError, match="steady state has residual"):
        steady_state(pure_state(fock_state(basis, "010")), liou)


def test_dark_parts_match_dense_eigenspaces():
    # On random small specs and random states, the kernel part is the
    # projection on the dense kernel of L, and the undamped part the
    # projection on the dense null spaces of L - i omega, over the purely
    # imaginary eigenvalues i omega != 0 of L.
    rng = np.random.default_rng(15)
    models = ({}, {"trap_amplitude": 0.7}, {"aa_amplitude": 0.4}, {"interaction": 0.5},
              {"dephasing_gamma": 20.0})
    undamped_cases = 0
    for model in models:
        for n_sites, filling in ((3, 1), (5, 1), (5, 2)):
            spec = LatticeSpec(n_sites=n_sites, **model)
            basis = ManyBodyBasis(n_sites, filling)
            liou = dephasing_liouvillian(spec, basis)
            a = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
            rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
            kernel_part, undamped, _weight, _omega = lindblad._dark_parts(rho0, liou, 1e-9)
            superop = liou.matrix.toarray()
            kernel = dense_kernel(superop)
            vec0 = np.ravel(rho0, order="F")
            assert np.abs(np.ravel(kernel_part, order="F") - kernel @ (kernel.conj().T @ vec0)
                          ).max() < 1e-8, spec
            eigenvalues = np.linalg.eigvals(superop)
            omegas = np.unique(np.round(eigenvalues.imag[np.abs(eigenvalues.real) < 1e-9], 6))
            expected = np.zeros(basis.size ** 2, dtype=complex)
            for omega in omegas[omegas != 0]:
                space = dense_kernel(superop - 1j * omega * np.eye(len(superop)), tol=1e-6)
                expected += space @ (space.conj().T @ vec0)
            assert np.abs(np.ravel(undamped, order="F") - expected).max() < 1e-8, spec
            undamped_cases += np.abs(expected).max() > 1e-3
    assert undamped_cases >= 3


def test_trapped_half_filling_kernel_matches_dense_svd():
    # H has levels 4.2e-6 apart here; the odd-mode patterns keep its kernel
    # of 8 odd-pattern projectors whole.
    spec = LatticeSpec(n_sites=7, trap_amplitude=2.0)
    liou = dephasing_liouvillian(spec, ManyBodyBasis(7, 4))
    svals = np.linalg.svd(liou.matrix.toarray(), compute_uv=False)
    assert steady_state_null_space(liou).shape[1] == np.sum(svals < 1e-10) == 8


@pytest.mark.parametrize("filling", [3, 4])
def test_trapped_kernel_states_are_their_own_limit(filling):
    # A random state projected onto the dense kernel of L is steady, so
    # steady_state must return it.
    spec = LatticeSpec(n_sites=7, trap_amplitude=2.0)
    liou = dephasing_liouvillian(spec, ManyBodyBasis(7, filling))
    kernel = dense_kernel(liou.matrix.toarray())
    rng = np.random.default_rng(filling)
    a = rng.normal(size=(liou.dim,) * 2) + 1j * rng.normal(size=(liou.dim,) * 2)
    rho0 = (kernel @ (kernel.conj().T @ np.ravel(a @ a.conj().T, order="F"))
            ).reshape((liou.dim,) * 2, order="F")
    rho0 /= np.trace(rho0)
    assert np.abs(steady_state(rho0, liou).state - rho0).max() < 1e-9


def test_trapped_odd_pattern_slater_inputs_reach_the_closed_form():
    # N = 9, Np = 4, trap 2.0: every pattern S of the four odd trapped modes,
    # filled up with the lowest even ones, relaxes to the pure pattern times
    # the uniform mixture of the m = 4 - |S| even-mode particles, whose
    # two-point matrix oracle.long_time_correlation gives from C0.
    spec = LatticeSpec(n_sites=9, trap_amplitude=2.0)
    basis = ManyBodyBasis(9, 4)
    liou = dephasing_liouvillian(spec, basis)
    parity = classify_mode_parity(build_single_particle_hamiltonian(spec))
    phi = parity.modes
    bilinears = [[bilinear_operator(basis, j, k) for k in range(1, 10)] for j in range(1, 10)]
    worst = 0.0
    for size in range(5):
        for pattern in itertools.combinations(parity.odd, size):
            m = 4 - size
            modes = list(pattern) + list(parity.even[:m])
            rho = steady_state(pure_state(slater_state(basis, modes, orbitals=phi)), liou).state
            c = np.array([[expectation(rho, op) for op in row] for row in bilinears])
            occupied = phi[:, np.array(modes) - 1]
            expected = long_time_correlation(occupied @ occupied.T)
            worst = max(worst, np.abs(c - expected).max())
    assert worst < 1e-10


@pytest.mark.parametrize("bits, weight", [
    ("111100000", None),
    ("101010100", 0.0354130897),
    ("010101000", 0.0434266857),
])
def test_trapped_fock_inputs_name_odd_mode_gaps(bits, weight):
    # N = 9, trap 2.0: a Fock input either relaxes, or its undamped part
    # oscillates at a difference of odd-mode energy sums, here the gap
    # between the two lowest odd modes.
    spec = LatticeSpec(n_sites=9, trap_amplitude=2.0)
    basis = ManyBodyBasis(9, bits.count("1"))
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, bits))
    if weight is None:
        validate_density(steady_state(rho0, liou).state)
        return
    parity = classify_mode_parity(build_single_particle_hamiltonian(spec))
    odd = parity.energies[np.array(parity.odd) - 1]
    with pytest.raises(SteadyStateNotConverged) as info:
        steady_state(rho0, liou)
    assert info.value.omega == pytest.approx(odd[1] - odd[0], abs=1e-9)
    assert info.value.weight == pytest.approx(weight, abs=1e-9)


@pytest.mark.parametrize("spec, filling", NULL_SPACE_CASES + [
    (LatticeSpec(n_sites=5, dephasing_gamma=20.0), 2),
])
def test_mask_matches_hermitian_jump_superoperator(spec, filling):
    # The general Hermitian-jump form, assembled densely with J = n_c, is
    # the reference for the mask form the generator is built from.
    basis = ManyBodyBasis(spec.n_sites, filling)
    liou = dephasing_liouvillian(spec, basis)
    h = build_many_body_hamiltonian(spec, basis).toarray()
    jump = number_operator(basis, spec.central_site).toarray()
    eye = np.eye(basis.size)
    expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye)) + spec.dephasing_gamma * (
        np.kron(jump.T, jump)
        - 0.5 * (np.kron(eye, jump @ jump) + np.kron((jump @ jump).T, eye)))
    assert np.abs(liou.matrix.toarray() - expected).max() < 1e-13


def test_kernel_elements_are_physical():
    # The kernel projection of every basis state is a density matrix, and
    # the kernel holds the maximally mixed state.
    _, basis, liou = n3_problem()
    kernel = steady_state_null_space(liou)
    for k in range(basis.size):
        pure = np.zeros((basis.size, basis.size), dtype=complex)
        pure[k, k] = 1.0
        rho = (kernel @ (kernel.conj().T @ np.ravel(pure, order="F"))
               ).reshape(pure.shape, order="F")
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8
    identity = np.ravel(np.eye(basis.size) / basis.size, order="F")
    assert np.linalg.norm(kernel @ (kernel.conj().T @ identity) - identity) < 1e-12


# ----------------------------------------------------------------------
# conserved charges and sector protection
# ----------------------------------------------------------------------

def test_conserved_traces_along_trajectory():
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(even_mode_slater(basis))
    times = np.linspace(0.0, 30.0, 31)
    traj = evolve(rho0, liou, times)
    identity = np.eye(basis.size)
    ones = expectation(traj.states, identity)
    assert np.abs(ones - 1.0).max() < 1e-10
    charge = expectation(traj.states, charge_operator(basis))
    assert np.abs(charge - charge[0]).max() < 1e-8
    assert charge[0] == pytest.approx(1.5, abs=1e-9)    # -1/2 + nu_e = 2
    number = expectation(traj.states, total_number_operator(basis))
    assert np.abs(number - 2.0).max() < 1e-8


def test_single_particle_charge_trace_is_half():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    traj = evolve(rho0, liou, np.linspace(0, 10, 11))
    charge = expectation(traj.states, charge_operator(basis))
    assert np.abs(charge - 0.5).max() < 1e-8


def test_even_sector_protection():
    # populations never leak into the odd modes or other charge sectors
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 1)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(even_mode_slater(basis, which=(1,)))
    traj = evolve(rho0, liou, np.linspace(0, 25, 26))
    # The charge's eigenvalues are half-integers one apart, so <(Q - 1/2)^2>
    # bounds the weight outside Q = 1/2.
    shifted = charge_operator(basis) - 0.5 * sparse.identity(basis.size)
    reflection = reflection_operator(basis)
    for rho in traj.states:
        odd = 0.5 * (np.trace(rho).real - expectation(rho, reflection).real)
        assert odd < 1e-8
        assert abs(expectation(rho, shifted @ shifted)) < 1e-8


def test_x_form_of_even_sector_steady_state():
    from dephchain.entangle import is_x_state
    spec = LatticeSpec(n_sites=7)
    basis = ManyBodyBasis(7, 1)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(even_mode_slater(basis, which=(2,)))
    result = steady_state(rho0, liou)
    flag, off = is_x_state(result.state, tol=1e-7)
    assert flag, f"off-pattern magnitude {off}"


# ----------------------------------------------------------------------
# steady-state recursion: the one-particle sector's Liouvillian residual
# ----------------------------------------------------------------------

def one_particle_liouvillian(n):
    return dephasing_liouvillian(LatticeSpec(n_sites=n), ManyBodyBasis(n, 1))


@pytest.mark.parametrize("n", [5, 9])
def test_recursion_residual_on_analytic_state(n):
    assert one_particle_liouvillian(n).residual(analytic_steady_state(n)) < 1e-12


def test_recursion_residual_on_maximally_mixed():
    assert one_particle_liouvillian(5).residual(np.eye(5) / 5) < 1e-12


def test_recursion_detects_non_steady_state():
    rho = np.zeros((5, 5), dtype=complex)
    rho[0, 0] = 1.0     # localized state is far from steady
    assert one_particle_liouvillian(5).residual(rho) > 0.5
