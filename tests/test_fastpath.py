import numpy as np
import pytest

from dephchain.fastpath import (
    ScalingDomainError,
    correlation_evolve,
    evolve_with_hamiltonian,
    multiparticle_scaling,
    steady_correlation,
    validate_correlation_matrix,
)
from dephchain.fock import (
    ManyBodyBasis,
    correlation_matrix,
    even_mode_slater,
    fock_state,
)
from dephchain.lindblad import dephasing_liouvillian, evolve, pure_state, steady_state
from dephchain.model import LatticeSpec, bare_mode_parity, build_single_particle_hamiltonian
from dephchain.oracle import analytic_steady_state


def full_two_point(spec, basis, psi, times):
    """Oracle route: full sector evolution, then Tr[rho f!_j f_k]."""
    liou = dephasing_liouvillian(spec, basis)
    traj = evolve(pure_state(psi), liou, times)
    return [correlation_matrix(rho, basis) for rho in traj.states]


def test_sign_convention_fixed_by_liouvillian_oracle():
    # Mandated build-time check: the coherent part is +i [h, C]. The full
    # N = 3 Liouvillian decides; the flipped sign is grossly wrong.
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 1)
    psi = fock_state(basis, "010")
    times = np.linspace(0.0, 3.0, 13)
    reference = full_two_point(spec, basis, psi, times)
    c0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    fast = correlation_evolve(spec, c0, times)
    worst = max(np.abs(a - b).max() for a, b in zip(fast, reference))
    assert worst < 1e-9

    h = build_single_particle_hamiltonian(spec)
    flipped = _integrate_two_point(c0, h, spec.dephasing_gamma, 2, times, sign=-1)
    mismatch = max(np.abs(a - b).max() for a, b in zip(flipped, reference))
    assert mismatch > 1e-2


def _integrate_two_point(c0, h, gamma, center, times, sign):
    """dC/dt = sign * i [h, C] - (gamma / 2) D o C, integrated directly by
    DOP853: a reference that shares no code with ``lindblad``."""
    from scipy.integrate import solve_ivp

    n = h.shape[0]
    sites = np.arange(1, n + 1)
    damping = 0.5 * gamma * ((sites[:, None] == center).astype(float)
                             - (sites[None, :] == center)) ** 2

    def rhs(_t, y):
        c = y.reshape(n, n)
        return (sign * 1j * (h @ c - c @ h) - damping * c).ravel()

    sol = solve_ivp(rhs, (0, float(times[-1])), c0.astype(complex).ravel(),
                    method="DOP853", t_eval=times, rtol=1e-10, atol=1e-13)
    return [sol.y[:, k].reshape(n, n) for k in range(len(times))]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_matches_independent_two_point_integration(n):
    # One particle on site 1, and a Slater determinant of two random orbitals.
    rng = np.random.default_rng(7 + n)
    spec = LatticeSpec(n_sites=n, dephasing_gamma=1.5)
    h = build_single_particle_hamiltonian(spec)
    orbitals, _ = np.linalg.qr(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    inputs = [np.diag(np.eye(n)[0]), orbitals.conj() @ orbitals.T]
    times = np.linspace(0.0, 10.0, 21)
    for c0 in inputs:
        fast = correlation_evolve(spec, c0, times)
        reference = _integrate_two_point(c0, h, spec.dephasing_gamma,
                                         spec.central_site, times, sign=+1)
        worst = max(np.abs(a - b).max() for a, b in zip(fast, reference))
        assert worst < 1e-8, f"N={n}, Tr C0={np.trace(c0).real:g}: {worst:.3e}"


def test_center_occupation_not_damped_directly():
    # with h = 0 the dissipator acts alone: entries with exactly one index at
    # the center decay at gamma/2, everything else (the center occupation
    # included) is frozen
    gamma = 4.0
    c0 = np.array([[0.5, 0.2, 0.1],
                   [0.2, 0.3, 0.2],
                   [0.1, 0.2, 0.2]], dtype=complex)
    out = evolve_with_hamiltonian(c0, np.zeros((3, 3)), gamma, 2, [1.0])[-1]
    decay = np.exp(-gamma / 2.0)
    expected = c0.copy()
    for j in range(3):
        for k in range(3):
            if (j == 1) != (k == 1):
                expected[j, k] *= decay
    assert np.abs(out - expected).max() < 1e-10


def test_n3_steady_correlation_values():
    spec = LatticeSpec(n_sites=3)
    c0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    c = steady_correlation(spec, c0)
    expected = np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0], [0.25, 0.0, 0.25]])
    assert np.abs(c - expected).max() < 1e-7


def test_n5_even_input_matches_liouvillian_at_t5():
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 1)
    psi = even_mode_slater(basis, which=(1,))
    c0 = correlation_matrix(np.outer(psi, psi.conj()), basis)
    fast = correlation_evolve(spec, c0, [5.0])[-1]
    reference = full_two_point(spec, basis, psi, [5.0])[-1]
    assert np.abs(fast - reference).max() < 1e-8


@pytest.mark.parametrize("n", [3, 5, 7])
def test_random_even_sector_oracle_equivalence(n):
    rng = np.random.default_rng(42 + n)
    spec = LatticeSpec(n_sites=n)
    basis = ManyBodyBasis(n, 1)
    parity = bare_mode_parity(n)
    times = np.linspace(0.0, 12.0, 20)
    for _ in range(3):
        weights = rng.normal(size=len(parity.even)) + 1j * rng.normal(size=len(parity.even))
        weights /= np.linalg.norm(weights)
        psi = sum(w * parity.modes[:, k - 1].astype(complex)
                  for w, k in zip(weights, parity.even))
        c0 = np.outer(psi.conj(), psi)
        fast = correlation_evolve(spec, c0, times)
        reference = full_two_point(spec, basis, psi.astype(complex), times)
        worst = max(np.abs(a - b).max() for a, b in zip(fast, reference))
        assert worst < 1e-8


def test_trace_and_hermiticity_preserved():
    spec = LatticeSpec(n_sites=5, dephasing_gamma=2.0)
    basis = ManyBodyBasis(5, 2)
    psi = even_mode_slater(basis)
    c0 = correlation_matrix(np.outer(psi, psi.conj()), basis)
    trajectory = correlation_evolve(spec, c0, np.linspace(0, 20, 21))
    for c in trajectory:
        assert abs(np.trace(c).real - 2.0) < 1e-10
        assert abs(np.trace(c).imag) < 1e-10
        assert np.abs(c - c.conj().T).max() < 1e-10


def test_repeated_sample_times_share_a_sample():
    # evolve_with_hamiltonian accepts non-decreasing times; repeats map back
    # onto one sample.
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=3))
    c0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    repeated = evolve_with_hamiltonian(c0, h, 1.0, 2, [0.0, 1.0, 1.0, 2.5])
    distinct = evolve_with_hamiltonian(c0, h, 1.0, 2, [0.0, 1.0, 2.5])
    assert len(repeated) == 4
    assert np.array_equal(repeated[0], c0)
    assert np.array_equal(repeated[1], repeated[2])
    for a, b in zip([repeated[0], repeated[1], repeated[3]], distinct):
        assert np.array_equal(a, b)


def test_steady_correlation_scales_with_filling():
    # Three particles in even modes: C_inf = 3 * (one-particle steady state);
    # the one-particle state rho = C^T / Tr C is scaled back by Tr C0 = 3.
    basis = ManyBodyBasis(9, 3)
    psi = even_mode_slater(basis)
    c0 = correlation_matrix(np.outer(psi, psi.conj()), basis)
    c = steady_correlation(LatticeSpec(n_sites=9), c0)
    expected = multiparticle_scaling(analytic_steady_state(9), 3)
    assert np.abs(c - expected).max() < 1e-8


def test_steady_correlation_needs_positive_trace():
    with pytest.raises(ValueError, match="trace"):
        steady_correlation(LatticeSpec(n_sites=3), np.zeros((3, 3)))


def test_steady_correlation_pattern_invariant():
    spec = LatticeSpec(n_sites=7)
    basis = ManyBodyBasis(7, 1)
    psi = even_mode_slater(basis, which=(3,))
    c0 = correlation_matrix(np.outer(psi, psi.conj()), basis)
    c = steady_correlation(spec, c0, tol=1e-11)
    n = 7
    for i in range(1, n + 1):
        assert c[i - 1, i - 1].real == pytest.approx(
            2.0 / (n + 1) if i == 4 else 1.0 / (n + 1), abs=1e-7)
        if i != 4:
            assert c[i - 1, n - i].real == pytest.approx(1.0 / (n + 1), abs=1e-7)
    off = max(abs(c[i, j]) for i in range(n) for j in range(n)
              if i != j and i + j != n - 1)
    assert off < 1e-7


def test_refuses_interacting_problem():
    spec = LatticeSpec(n_sites=3, interaction=0.5)
    c0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        correlation_evolve(spec, c0, [1.0])
    with pytest.raises(ValueError):
        steady_correlation(spec, c0)


def test_validate_correlation_matrix():
    with pytest.raises(ValueError):
        validate_correlation_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_correlation_matrix(np.diag([1.5, 0.0]))


# ----------------------------------------------------------------------
# multiparticle scaling
# ----------------------------------------------------------------------

def test_scaling_identity_for_one_particle():
    c = analytic_steady_state(5).astype(complex)
    assert np.array_equal(multiparticle_scaling(c, 1), c)


def test_scaling_examples():
    c = multiparticle_scaling(analytic_steady_state(5), 2)
    assert c[0, 4].real == pytest.approx(1.0 / 3.0, abs=1e-12)
    c3 = multiparticle_scaling(analytic_steady_state(3), 2)
    assert c3[0, 0].real == pytest.approx(0.5)
    assert c3[1, 1].real == pytest.approx(1.0)
    assert c3[0, 2].real == pytest.approx(0.5)


def test_scaling_matches_exact_closed_shell():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 2)
    psi = even_mode_slater(basis)
    liou = dephasing_liouvillian(spec, basis)
    steady = steady_state(pure_state(psi), liou)
    exact = correlation_matrix(steady.state, basis)
    scaled = multiparticle_scaling(analytic_steady_state(3), 2)
    assert np.abs(exact - scaled).max() < 1e-7


def test_scaling_rejects_overfilling():
    with pytest.raises(ScalingDomainError):
        multiparticle_scaling(analytic_steady_state(3), 3)   # beyond (N+1)/2
    with pytest.raises(ValueError):
        multiparticle_scaling(analytic_steady_state(3), 0)
