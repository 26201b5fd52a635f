import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephchain.entangle import concurrence, is_x_state, pair_readouts, reduce_to_pair
from dephchain.fock import ManyBodyBasis, even_mode_slater, fock_state
from dephchain.lindblad import dephasing_liouvillian, pure_state, steady_state
from dephchain.model import LatticeSpec
from dephchain.oracle import analytic_steady_state, even_sector_steady_state
from oracles import (
    analytic_n3_density_matrix,
    analytic_pair_rdm,
    jw_pair_rdm,
    partial_transpose_eigenvalues,
    wootters_concurrence,
)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    block = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = block @ block.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng, rank_deficient=False):
    """A number-conserving pair: Dirichlet populations and a coherence of
    random phase, at the largest modulus a state allows when
    ``rank_deficient``, when p00 or p11 is also set to zero."""
    p = rng.dirichlet(np.ones(4))
    if rank_deficient:
        p[rng.choice([0, 3])] = 0.0
        p /= p.sum()
    z_max = np.sqrt(p[1] * p[2])
    z = (z_max if rank_deficient else rng.uniform(0, z_max)) * np.exp(2j * np.pi * rng.uniform())
    rho = np.diag(p).astype(complex)
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    return rho


# ----------------------------------------------------------------------
# reduced pair states
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_steady_pair_rdm_matches_closed_form(n):
    basis = ManyBodyBasis(n, 1)
    rho = analytic_steady_state(n)
    rdm = reduce_to_pair(rho, basis, 1, n)
    assert np.abs(rdm - analytic_pair_rdm(n)).max() < 1e-12


def test_product_state_pair_is_vacuum():
    basis = ManyBodyBasis(3, 1)
    rho = np.outer(fock_state(basis, "010"), fock_state(basis, "010").conj())
    rdm = reduce_to_pair(rho, basis, 1, 3)
    assert np.abs(rdm - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-12


def test_random_two_particle_state_against_spin_oracle():
    rng = np.random.default_rng(11)
    basis = ManyBodyBasis(5, 2)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    rdm = reduce_to_pair(rho, basis, 2, 4)
    oracle_rdm = jw_pair_rdm(rho, basis, 2, 4)
    assert np.abs(rdm - oracle_rdm).max() < 1e-12
    assert abs(np.trace(rdm) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rdm).min() > -1e-12


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduce_matches_spin_oracle_property(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    k = data.draw(st.integers(min_value=0, max_value=n))
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    basis = ManyBodyBasis(n, k)
    rho = random_density(rng, basis.size)
    rdm = reduce_to_pair(rho, basis, i, j)
    assert np.abs(rdm - jw_pair_rdm(rho, basis, i, j)).max() < 1e-10


def test_number_conserving_block_structure():
    basis = ManyBodyBasis(5, 2)
    rng = np.random.default_rng(5)
    rho = random_density(rng, basis.size)
    rdm = reduce_to_pair(rho, basis, 1, 5)
    # the only allowed coherence is |01> <-> |10>
    for a in range(4):
        for b in range(4):
            if a == b or {a, b} == {1, 2}:
                continue
            assert abs(rdm[a, b]) < 1e-12


def test_reduce_rejects_bad_pairs():
    basis = ManyBodyBasis(5, 2)
    rho = np.eye(basis.size) / basis.size
    with pytest.raises(ValueError):
        reduce_to_pair(rho, basis, 3, 3)
    with pytest.raises(ValueError):
        reduce_to_pair(rho, basis, 4, 2)
    with pytest.raises(ValueError):
        reduce_to_pair(rho, basis, 0, 2)


@pytest.mark.parametrize("i, j", [(True, 3), (1, True), (1.0, 3), (1, 3.0), (np.float64(2), 4)])
def test_sites_that_are_bools_or_not_integers_are_refused(i, j):
    # A bool used to read site 1 and a float to raise a bare IndexError.
    basis = ManyBodyBasis(5, 2)
    rho = np.eye(basis.size) / basis.size
    with pytest.raises(ValueError, match="sites must be integers"):
        reduce_to_pair(rho, basis, i, j)
    with pytest.raises(ValueError, match="sites must be integers"):
        pair_readouts(basis, i, j)


def test_numpy_integer_sites_read_the_same_pair():
    basis = ManyBodyBasis(5, 2)
    rho = random_density(np.random.default_rng(3), basis.size)
    assert np.array_equal(reduce_to_pair(rho, basis, np.int64(2), np.int32(4)),
                          reduce_to_pair(rho, basis, 2, 4))


# ----------------------------------------------------------------------
# concurrence
# ----------------------------------------------------------------------

def test_bell_pair_is_maximally_entangled():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1.0 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_product_states_have_zero_concurrence():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert concurrence(rho) == 0.0
    assert concurrence(np.eye(4) / 4.0) == 0.0


def test_steady_pair_concurrence_is_two_over_np1():
    rdm = analytic_pair_rdm(9)
    assert concurrence(rdm) == pytest.approx(0.2, abs=1e-12)


def test_closed_shell_pair_is_maximally_entangled():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 2)
    psi = even_mode_slater(basis)
    liou = dephasing_liouvillian(spec, basis)
    steady = steady_state(pure_state(psi), liou)
    rdm = reduce_to_pair(steady.state, basis, 1, 3)
    assert concurrence(rdm) == pytest.approx(1.0, abs=1e-7)


def test_concurrence_agrees_with_x_state_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = rng.dirichlet(np.ones(4))
        z_max = np.sqrt(p[1] * p[2])
        z = rng.uniform(0, z_max) * np.exp(2j * np.pi * rng.uniform())
        rho = np.diag(p).astype(complex)
        rho[1, 2], rho[2, 1] = z, np.conj(z)
        expected = wootters_concurrence(rho)
        assert concurrence(rho) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_closed_form_equals_wootters_on_x_states(rank_deficient):
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = random_x_state(rng, rank_deficient)
        assert abs(concurrence(rho) - wootters_concurrence(rho)) < 1e-12


def test_concurrence_refuses_states_that_are_not_number_conserving_or_not_psd():
    # (|00> + |11>) / sqrt 2 is maximally entangled, but no number-conserving
    # pair: the closed form does not hold for it.
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="not number-conserving"):
        concurrence(bell)
    # Positive populations, but a coherence too large for them: the 01-10
    # block has the eigenvalue 0.25 - 0.3.
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.3
    with pytest.raises(ValueError, match=r"min eig -5\.000e-02"):
        concurrence(rho)
    with pytest.raises(ValueError, match="positive semidefinite"):
        wootters_concurrence(rho)


def test_concurrence_refuses_non_finite_input():
    for bad in (np.nan, np.inf):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            concurrence(rho)
        with pytest.raises(ValueError, match="non-finite"):
            concurrence(np.full((4, 4), bad))


def test_concurrence_rejects_non_psd():
    rho = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(rho)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       weight=st.floats(min_value=0.0, max_value=1.0))
# A rank-deficient state that a square root of eigvals(rho rho~) lifted by 1.3e-9.
@example(seed=1, weight=0.9999999999999999)
def test_concurrence_nonincreasing_under_mixing(seed, weight):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4, rank=rng.integers(1, 5))
    mixed = weight * rho + (1.0 - weight) * np.eye(4) / 4.0
    assert wootters_concurrence(mixed) <= wootters_concurrence(rho) + 1e-9
    # The closed form on number-conserving pairs: one reduced from a random
    # sector density and one random X-state.
    basis = ManyBodyBasis(5, int(rng.integers(1, 5)))
    i = int(rng.integers(1, 5))
    pairs = [reduce_to_pair(random_density(rng, basis.size, rank=int(rng.integers(1, 4))),
                            basis, i, int(rng.integers(i + 1, 6))),
             random_x_state(rng, rank_deficient=bool(rng.integers(2)))]
    for pair in pairs:
        mixed = weight * pair + (1.0 - weight) * np.eye(4) / 4.0
        assert concurrence(mixed) <= concurrence(pair) + 1e-9


def test_equal_concurrence_across_symmetric_pairs():
    n = 9
    basis = ManyBodyBasis(n, 1)
    rho = analytic_steady_state(n)
    values = [concurrence(reduce_to_pair(rho, basis, i, n + 1 - i))
              for i in range(1, (n - 1) // 2 + 1)]
    assert np.ptp(values) < 1e-10


# ----------------------------------------------------------------------
# partial transpose
# ----------------------------------------------------------------------

def test_ppt_eigenvalues_n3():
    rdm = analytic_pair_rdm(3)
    eig = partial_transpose_eigenvalues(rdm)
    expected = np.sort([0.25, 0.25, (2 + np.sqrt(8)) / 8, (2 - np.sqrt(8)) / 8])
    assert np.abs(eig - expected).max() < 1e-12


def test_separable_states_are_ppt():
    assert partial_transpose_eigenvalues(np.eye(4) / 4.0).min() >= 0.0
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert partial_transpose_eigenvalues(rho).min() >= 0.0


def test_large_n_negative_eigenvalue_scaling():
    n = 101
    eig = partial_transpose_eigenvalues(analytic_pair_rdm(n))
    assert abs(eig[0] + 1.0 / n**2) < 0.05 / n**2


def test_ppt_and_concurrence_agree_on_separability():
    rng = np.random.default_rng(17)
    basis = ManyBodyBasis(5, 2)
    rdms = [analytic_pair_rdm(n) for n in (3, 5, 9)]
    rdms += [reduce_to_pair(random_density(rng, basis.size), basis, 1, 5)
             for _ in range(20)]
    rdms.append(np.eye(4) / 4.0)
    for rdm in rdms:
        entangled_c = concurrence(rdm) > 1e-9
        entangled_ppt = partial_transpose_eigenvalues(rdm).min() < -1e-9
        assert entangled_c == entangled_ppt


# ----------------------------------------------------------------------
# X-state detection
# ----------------------------------------------------------------------

def test_analytic_steady_state_is_x(n=7):
    flag, off = is_x_state(analytic_steady_state(n), tol=1e-7)
    assert flag and off < 1e-12


def test_transient_state_is_not_x():
    rho = analytic_n3_density_matrix(1.0, 1.0)
    flag, off = is_x_state(rho, tol=1e-7)
    assert not flag
    assert off == pytest.approx(abs(rho[0, 1]))


def test_identity_is_x():
    flag, _ = is_x_state(np.eye(6) / 6.0, tol=1e-7)
    assert flag


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_x_state_mask_matches_loop(n):
    rng = np.random.default_rng(n)
    rho = random_density(rng, n)
    off = max((abs(rho[a, b]) for a in range(n) for b in range(n)
               if a != b and a + b != n - 1), default=0.0)
    assert is_x_state(rho, tol=off + 1e-12) == (True, off)
    assert is_x_state(rho, tol=off) == (False, off)   # strict: off < tol


def test_multiparticle_even_sector_rdm_concurrence():
    state = even_sector_steady_state(5, 2)
    rdm = reduce_to_pair(state, ManyBodyBasis(5, 2), 2, 4)
    assert concurrence(rdm) == pytest.approx(2.0 * 2 / 6.0, abs=1e-9)
