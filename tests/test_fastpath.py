import itertools

import numpy as np
import pytest

import dephchain.fastpath as fastpath
from dephchain.fastpath import (
    correlation_evolve,
    steady_correlation,
    validate_correlation_matrix,
)
from dephchain.fock import ManyBodyBasis, even_mode_slater, fock_state
from dephchain.lindblad import (build_liouvillian, dephasing_liouvillian, evolve, pure_state,
                                steady_state)
from dephchain.model import (LatticeSpec, bare_mode_parity, build_single_particle_hamiltonian,
                             classify_mode_parity)
from dephchain.oracle import long_time_correlation
from oracles import correlation_matrix


def full_two_point(spec, basis, psi, times):
    """Oracle route: full sector evolution, then Tr[rho f!_j f_k]."""
    liou = dephasing_liouvillian(spec, basis)
    traj = evolve(pure_state(psi), liou, times)
    return [correlation_matrix(rho, basis) for rho in traj.states]


def explicit_h_two_point(c0, h, gamma, center, times):
    """Two-point trajectory of an explicit one-body ``h``, with the projector
    on the 1-based ``center`` site as jump: the one-particle generator that
    ``build_liouvillian`` gives, evolved on rho0 = C0^T / Tr C0 and read back
    as Tr C0 * rho(t)^T."""
    c0 = np.asarray(c0, dtype=complex)
    filling = float(np.trace(c0).real)
    liouvillian = build_liouvillian(h, gamma, np.diag(np.arange(len(h)) == center - 1))
    return filling * evolve(c0.T / filling, liouvillian, times).states.transpose(0, 2, 1)


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
    out = explicit_h_two_point(c0, np.zeros((3, 3)), gamma, 2, [1.0])[-1]
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
    # evolve accepts non-decreasing times; repeats map back
    # onto one sample.
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=3))
    c0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    repeated = explicit_h_two_point(c0, h, 1.0, 2, [0.0, 1.0, 1.0, 2.5])
    distinct = explicit_h_two_point(c0, h, 1.0, 2, [0.0, 1.0, 2.5])
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
    assert np.abs(c - long_time_correlation(c0)).max() < 1e-8


def test_spec_entry_points_use_the_spec_generator(monkeypatch):
    # At N = 41 the spec's generator splits the one-particle sector into the
    # 21 even modes and each of the 20 odd modes alone; both entry points
    # propagate or project with it, and match the generator built from h.
    spec = LatticeSpec(n_sites=41)
    basis = ManyBodyBasis(41, 1)
    psi = even_mode_slater(basis)
    c0 = correlation_matrix(np.outer(psi, psi.conj()), basis)
    seen = []
    for name in ("evolve", "steady_state"):
        original = getattr(fastpath, name)
        monkeypatch.setattr(fastpath, name, lambda rho, liou, *args, _f=original, **kwargs:
                            seen.append(liou) or _f(rho, liou, *args, **kwargs))
    trajectory = correlation_evolve(spec, c0, [0.0, 3.0])
    steady_correlation(spec, c0)
    assert [sorted(q.shape[1] for q in liou.sectors) for liou in seen] == [[1] * 20 + [21]] * 2
    h = build_single_particle_hamiltonian(spec)
    assert np.abs(trajectory - explicit_h_two_point(c0, h, 1.0, 21, [0.0, 3.0])).max() < 1e-12


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
    # Every entry point refuses the same bad C0 before it evolves anything.
    spec = LatticeSpec(n_sites=3)
    not_hermitian = np.array([[0.5, 0.2, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    for c0, message in ((not_hermitian, "not Hermitian"),
                        (np.diag([1.5, 0.0, 0.0]), "outside")):
        with pytest.raises(ValueError, match=message):
            correlation_evolve(spec, c0, [0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            steady_correlation(spec, c0)


# ----------------------------------------------------------------------
# the long-time closed form
# ----------------------------------------------------------------------

def _slater_c0(parity, modes) -> np.ndarray:
    """C0 of the Slater determinant of the given 1-based modes."""
    phi = parity.modes[:, np.array(modes, dtype=int) - 1]
    return phi @ phi.T


def test_scaling_examples():
    parity = bare_mode_parity(5)
    c = long_time_correlation(_slater_c0(parity, parity.even[:2]))
    assert c[0, 4].real == pytest.approx(1.0 / 3.0, abs=1e-12)
    parity = bare_mode_parity(3)
    c3 = long_time_correlation(_slater_c0(parity, parity.even[:2]))
    assert c3[0, 0].real == pytest.approx(0.5)
    assert c3[1, 1].real == pytest.approx(1.0)
    assert c3[0, 2].real == pytest.approx(0.5)


def test_scaling_matches_exact_closed_shell():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 2)
    rho0 = pure_state(even_mode_slater(basis))
    liou = dephasing_liouvillian(spec, basis)
    steady = steady_state(rho0, liou)
    exact = correlation_matrix(steady.state, basis)
    closed = long_time_correlation(correlation_matrix(rho0, basis))
    assert np.abs(exact - closed).max() < 1e-7


@pytest.mark.parametrize("spec", [LatticeSpec(n_sites=7),
                                  LatticeSpec(n_sites=9, trap_amplitude=0.7),
                                  LatticeSpec(n_sites=9, trap_amplitude=2.0)],
                         ids=["bare-7", "trap-0.7", "trap-2.0"])
def test_long_time_correlation_matches_the_kernel_route(spec):
    # Every one- and two-mode Slater input of the chain's own modes settles:
    # the odd ones keep their projectors, the even ones share the uniform
    # mixture of their weight.
    parity = classify_mode_parity(build_single_particle_hamiltonian(spec))
    modes = range(1, spec.n_sites + 1)
    inputs = [_slater_c0(parity, pattern) for size in (1, 2)
              for pattern in itertools.combinations(modes, size)]
    worst = max(np.abs(steady_correlation(spec, c0) - long_time_correlation(c0)).max()
                for c0 in inputs)
    assert worst < 1e-10
