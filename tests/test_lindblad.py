import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.linalg import expm

import dephchain.lindblad as lindblad
from dephchain.fock import (
    ManyBodyBasis,
    bilinear_operator,
    build_many_body_hamiltonian,
    charge_operator,
    even_mode_slater,
    expectation,
    fock_state,
    number_operator,
    odd_mode_slater,
    parity_sector_weights,
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
    maximally_mixed,
    pure_state,
    steady_state,
    steady_state_null_space,
    unvectorize,
    vectorize,
)
from dephchain.model import LatticeSpec, bare_mode_parity
from dephchain.oracle import analytic_n3_density_matrix, analytic_steady_state
from oracles import dense_kernel


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
    assert lindblad._symmetry_blocks(liou)[1].max() ** 2 > lindblad.DENSE_PAIR_LIMIT
    return liou, pure_state(fock_state(basis, "1010101"))


def full_route(rho0, liou, times):
    """The samples of the expm_multiply route on the whole superoperator."""
    times = np.asarray(times, dtype=float)
    samples = lindblad._expm_samples(liou.matrix, vectorize(rho0), times)
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


def test_trace_preservation_left_null_vector():
    for gamma in (0.0, 0.5, 2.0):
        _, _, liou = n3_problem(gamma)
        assert liou.trace_defect() < 1e-10


def test_maximally_mixed_is_stationary():
    _, _, liou = n3_problem(1.0)
    assert liou.residual(maximally_mixed(3)) < 1e-14


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
    expected = [np.abs(liou.matrix @ vectorize(rho)).max() for rho in stack]
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


def test_vectorization_round_trip():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvectorize(vectorize(m), 4), m)
    # column stacking: vec(A rho B) = kron(B.T, A) vec(rho)
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    lhs = vectorize(a @ m @ b)
    rhs = np.kron(b.T, a) @ vectorize(m)
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
    generator, vec0 = liou.matrix.toarray(), vectorize(rho0)
    # every sample of a short grid; 30 spread over a long one, the last included
    checked = np.unique(np.linspace(0, len(times) - 1, 30).round().astype(int))
    worst = max(
        np.abs(vectorize(traj.states[k]) - expm(generator * times[k]) @ vec0).max()
        for k in checked
    )
    assert worst < 1e-12


GRID_CALLS = [
    (np.linspace(0.0, 6.0, 121), 1),
    (np.linspace(1.0, 3.0, 41), 2),
    (np.array([0.0, 0.3, 0.3, 1.1]), 2),
]


@pytest.mark.parametrize("times, calls", GRID_CALLS)
def test_expm_calls_per_grid(monkeypatch, times, calls):
    # Full route: one interval call per uniform grid, plus one to reach a
    # later first sample; one call per distinct step otherwise.
    liou, rho0 = interacting_problem()
    seen = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    dense = counting(monkeypatch, lindblad, "expm")
    evolve(rho0, liou, times)
    assert len(seen) == calls
    assert dense == []


@pytest.mark.parametrize("times, calls", [(np.linspace(0.0, 60.0, 1201), 1)] + GRID_CALLS[1:])
def test_dense_exponentials_per_grid(monkeypatch, times, calls):
    # Block route: the same number of propagators, each one dense expm call
    # per pair size, and no expm_multiply.
    _, basis, liou = n3_problem()
    sizes = lindblad._symmetry_blocks(liou)[1]
    pair_sizes = np.unique(np.outer(sizes, sizes)).size
    seen = counting(monkeypatch, lindblad, "expm")
    krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    evolve(pure_state(fock_state(basis, "010")), liou, times)
    assert pair_sizes == 3      # pairs of the blocks {E = +-sqrt 2} and {E = 0}
    assert len(seen) == calls * pair_sizes
    assert krylov == []


def test_dark_state_is_stationary():
    spec = LatticeSpec(n_sites=5, dephasing_gamma=2.0)
    basis = ManyBodyBasis(5, 2)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(odd_mode_slater(basis))
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
    # robustness-aa's longest steps: scipy's expm_multiply estimates 1-norms
    # with numpy's global random generator there. Its one block is small, so
    # the full route is forced by a zero pair limit.
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


def test_trajectory_states_are_one_view_of_the_samples():
    liou, rho0 = interacting_problem()
    times = np.linspace(0.0, 2.0, 5)
    traj = evolve(rho0, liou, times)
    assert traj.states.shape == (5, 35, 35)
    assert traj.states.base is not None and not traj.states.flags.owndata
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
    traj = evolve(maximally_mixed(basis.size), liou, [1.0, 2.0])
    assert abs(traj.diagnostics["min_eigenvalue"] - 0.2) < 1e-12


def test_invariant_violation_aborts():
    # a generator that leaks trace: every generator built from operators
    # preserves it, so the superoperator is replaced by pure decay
    bad, rho0 = interacting_problem()
    bad.matrix = sparse.identity(35 * 35, format="csr") * -0.5
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(rho0, bad, [0.0, 5.0])


def test_invariant_violation_aborts_on_the_block_route(monkeypatch):
    # a block exponential that leaks trace: half of each true propagator
    _, basis, liou = n3_problem()
    monkeypatch.setattr(lindblad, "expm", lambda a: 0.5 * expm(a))
    with pytest.raises(InvariantViolation, match="trace deviation"):
        evolve(pure_state(fock_state(basis, "010")), liou, [0.0, 5.0])


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
                basis = ManyBodyBasis(n_sites, filling)
                liou = dephasing_liouvillian(spec, basis)
                rho0 = _cross_input(basis, case % 3, rng)
                times = CROSS_GRIDS[(case // 3) % 4]
                case += 1
                _assert_blocks_exact(liou)
                if lindblad._symmetry_blocks(liou)[1].max() ** 2 > lindblad.DENSE_PAIR_LIMIT:
                    continue        # evolve takes the full route itself
                block_runs += 1
                gap = np.abs(evolve(rho0, liou, times).states - full_route(rho0, liou, times)).max()
                assert gap < 1e-12, f"{spec}, filling {filling}: {gap:.3e}"
    assert block_runs >= 26


def test_route_follows_the_pair_limit(monkeypatch):
    # The trapped fock-quench sector: its largest pair (14 x 14 states) is
    # propagated densely at that limit and by expm_multiply just below it.
    basis = ManyBodyBasis(7, 4)
    liou = dephasing_liouvillian(LatticeSpec(n_sites=7, trap_amplitude=2.0), basis)
    rho0 = pure_state(fock_state(basis, "1010101"))
    times = np.linspace(0.0, 2.0, 5)
    assert lindblad._symmetry_blocks(liou)[1].max() ** 2 == 196
    runs = {}
    for limit in (196, 195):
        monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
        dense = counting(monkeypatch, lindblad, "expm")
        krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
        runs[limit] = evolve(rho0, liou, times).states
        assert (len(dense) > 0, len(krylov) > 0) == ((True, False) if limit == 196 else (False, True))
        monkeypatch.undo()
    assert np.abs(runs[196] - runs[195]).max() < 1e-12


@pytest.mark.parametrize("coupling, blocks", [(1e-11, 1), (1e-13, 2)])
def test_coupling_tolerance_joins_or_splits_blocks(coupling, blocks):
    # A dephased and an undephased state coupled by about the given amount:
    # above BLOCK_COUPLING_TOL they are one block, below it two, and either
    # way the block route agrees with the full route.
    h = np.array([[0.0, coupling], [coupling, 1.0]])
    liou = build_liouvillian(h, 1.0, np.diag([1.0, 0.0]))
    assert len(lindblad._symmetry_blocks(liou)[1]) == blocks
    rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    times = np.linspace(0.0, 5.0, 11)
    assert np.abs(evolve(rho0, liou, times).states - full_route(rho0, liou, times)).max() < 1e-12


def test_block_with_a_fractional_jump_is_refused(monkeypatch):
    # With the coupling tolerance raised to 1, N = 3's two bright levels each
    # become a block on which the compressed jump is 1/2: the block route is
    # refused, and evolve falls back to the full route.
    _, basis, liou = n3_problem()
    monkeypatch.setattr(lindblad, "BLOCK_COUPLING_TOL", 1.0)
    assert lindblad._symmetry_blocks(liou) is None
    krylov = counting(monkeypatch, lindblad.splinalg, "expm_multiply")
    rho0 = pure_state(fock_state(basis, "010"))
    times = np.linspace(0.0, 4.0, 9)
    states = evolve(rho0, liou, times).states
    assert len(krylov) == 1
    assert max(np.abs(rho - analytic_n3_density_matrix(t, 1.0)).max()
               for t, rho in zip(times, states)) < 1e-8


def test_evolve_validates_times_and_method():
    _, basis, liou = n3_problem()
    rho0 = pure_state(fock_state(basis, "010"))
    with pytest.raises(ValueError):
        evolve(rho0, liou, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(rho0, liou, [-1.0])


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
    _part, weight, _omega = lindblad._peripheral_part(rho0, liou, 1e-9)
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
    target = vectorize(analytic_steady_state(3)).astype(complex)
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
]


def test_null_space_matches_dense_svd():
    for spec, filling in NULL_SPACE_CASES:
        liou = dephasing_liouvillian(spec, ManyBodyBasis(spec.n_sites, filling))
        kernel = steady_state_null_space(liou)
        dense = dense_kernel(liou.matrix.toarray())
        assert kernel.shape == dense.shape, (spec, filling)
        projector_gap = np.abs(kernel @ kernel.conj().T - dense @ dense.conj().T).max()
        assert projector_gap < 1e-8, (spec, filling, projector_gap)


def test_null_space_without_blocks_is_the_dense_kernel(monkeypatch):
    # With the coupling tolerance raised to 1, N = 3's blocks are refused,
    # and the kernel is solved as one block: the whole sector in the Fock basis.
    _, _, liou = n3_problem()
    monkeypatch.setattr(lindblad, "BLOCK_COUPLING_TOL", 1.0)
    assert lindblad._symmetry_blocks(liou) is None
    kernel = steady_state_null_space(liou)
    dense = dense_kernel(liou.matrix.toarray())
    assert kernel.shape == dense.shape
    assert np.abs(kernel @ kernel.conj().T - dense @ dense.conj().T).max() < 1e-8


def test_null_space_residual_guard_fires(monkeypatch):
    # A null-space tolerance of 1 admits combinations that are not in the
    # kernel, and the residual guard refuses them.
    _, _, liou = n3_problem()
    monkeypatch.setattr(lindblad, "NULL_TOL", 1.0)
    with pytest.raises(RuntimeError, match="kernel candidate has residual"):
        steady_state_null_space(liou)


@pytest.mark.xfail(strict=True, reason=(
    "lindblad.steady_state_null_space misses kernel elements at N = 7, Np = 4 with "
    "trap 2.0: it returns 5 kernel vectors, but the three odd-mode number operators "
    "commute with H and n_c to 3.9e-13, so the kernel holds at least the 8 odd-pattern "
    "projectors; H has levels 4.2e-6 apart whose eigh eigenvectors mix at about 1e-9, "
    "above NULL_TOL"))
def test_trapped_half_filling_kernel_matches_dense_svd():
    spec = LatticeSpec(n_sites=7, trap_amplitude=2.0)
    liou = dephasing_liouvillian(spec, ManyBodyBasis(7, 4))
    svals = np.linalg.svd(liou.matrix.toarray(), compute_uv=False)
    assert steady_state_null_space(liou).shape[1] == np.sum(svals < 1e-10)


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
        rho = unvectorize(kernel @ (kernel.conj().T @ vectorize(pure)))
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8
    identity = vectorize(maximally_mixed(basis.size))
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
    from dephchain.fock import charge_sector_weights
    for rho in traj.states:
        even, odd = parity_sector_weights(rho, basis)
        assert odd < 1e-8
        weights = charge_sector_weights(rho, basis, tol=1e-8)
        assert set(weights) == {0.5}


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
    assert one_particle_liouvillian(5).residual(maximally_mixed(5)) < 1e-12


def test_recursion_detects_non_steady_state():
    rho = np.zeros((5, 5), dtype=complex)
    rho[0, 0] = 1.0     # localized state is far from steady
    assert one_particle_liouvillian(5).residual(rho) > 0.5
