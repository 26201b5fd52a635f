import numpy as np
import pytest
from scipy.linalg import expm

from dephchain.entangle import reduce_to_pair
from dephchain.fock import ManyBodyBasis, fock_state
from dephchain.lindblad import dephasing_liouvillian, pure_state, validate_density
from dephchain.model import LatticeSpec
from dephchain.oracle import analytic_steady_state, even_sector_steady_state, long_time_correlation
from oracles import (
    analytic_n3_density_matrix,
    analytic_n3_elements,
    analytic_pair_rdm,
    n5_steady_residual,
    partial_transpose_eigenvalues,
    ppt_eigenvalue_formula,
)


# ----------------------------------------------------------------------
# X-form steady state
# ----------------------------------------------------------------------

def test_steady_state_n3_values():
    rho = analytic_steady_state(3)
    assert np.allclose(np.diag(rho), [0.25, 0.5, 0.25])
    assert rho[0, 2] == pytest.approx(0.25)


def test_steady_state_n1_is_pure():
    assert np.array_equal(analytic_steady_state(1), [[1.0]])


def test_steady_state_n5_values():
    rho = analytic_steady_state(5)
    assert rho[0, 0] == pytest.approx(1.0 / 6.0)
    assert rho[2, 2] == pytest.approx(1.0 / 3.0)
    assert rho[1, 3] == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_steady_state_is_valid_density_matrix(n):
    rho = analytic_steady_state(n)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.T).max() == 0.0
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_steady_state_rejects_even_n():
    with pytest.raises(ValueError):
        analytic_steady_state(4)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_steady_state_in_liouvillian_kernel(n):
    spec = LatticeSpec(n_sites=n)
    basis = ManyBodyBasis(n, 1)
    liou = dephasing_liouvillian(spec, basis)
    assert np.abs(liou.matrix @ np.ravel(analytic_steady_state(n), order="F")).max() < 1e-10


def test_long_time_correlation_keeps_the_odd_block_and_mixes_the_even_one():
    # N = 3, one particle on site 1: weight 1/2 in the even states, and the
    # odd state (e_1 - e_3)/sqrt 2 with weight 1/2.
    c = long_time_correlation(np.diag([1.0, 0.0, 0.0]))
    odd = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert np.abs(c - (0.5 * analytic_steady_state(3) + 0.5 * np.outer(odd, odd))).max() < 1e-15


def test_long_time_correlation_refuses_a_matrix_that_is_not_square():
    for c0 in (np.zeros((3, 5)), np.zeros(3), np.zeros((3, 3, 3))):
        with pytest.raises(ValueError, match="square"):
            long_time_correlation(c0)
    with pytest.raises(ValueError, match="odd"):
        long_time_correlation(np.eye(4))


# ----------------------------------------------------------------------
# N = 3 trajectory closed forms
# ----------------------------------------------------------------------

def test_initial_values():
    el = analytic_n3_elements(0.0, 1.7)
    assert el.rho22 == pytest.approx(1.0)
    assert el.rho11 == pytest.approx(0.0)
    assert abs(el.rho12) == pytest.approx(0.0)


def test_long_time_limit():
    el = analytic_n3_elements(400.0, 1.0)
    assert el.rho11 == pytest.approx(0.25, abs=1e-12)
    assert el.rho22 == pytest.approx(0.5, abs=1e-12)
    assert abs(el.rho12) < 1e-12


def test_trace_identity_along_trajectory():
    for gamma in (0.5, 1.0, 4.0, 20.0):
        for t in np.linspace(0.0, 30.0, 91):
            el = analytic_n3_elements(t, gamma)
            assert 2.0 * el.rho11 + el.rho22 == pytest.approx(1.0, abs=1e-12)


def test_damped_envelopes_bounded():
    # |exp(-t gamma/4) f| <= 1 and |exp(-t gamma/4) g| <= 1 (the matrix
    # elements stay physical); holds in both oscillatory and overdamped regimes
    for gamma in (0.5, 1.0, 2.0, 4.0, 11.3, 20.0):
        for t in np.linspace(0.0, 40.0, 161):
            el = analytic_n3_elements(t, gamma)
            damped_f = 1.0 - 4.0 * el.rho11
            assert abs(damped_f) <= 1.0 + 1e-12
            assert abs(el.rho12) <= 1.0 + 1e-12


def test_continuity_at_critical_gamma():
    critical = np.sqrt(128.0)
    for t in (0.3, 1.0, 2.5):
        below = analytic_n3_density_matrix(t, critical - 1e-7)
        above = analytic_n3_density_matrix(t, critical + 1e-7)
        at = analytic_n3_density_matrix(t, critical)
        assert np.abs(below - at).max() < 1e-6
        assert np.abs(above - at).max() < 1e-6


def test_coherence_is_imaginary_in_oscillatory_regime():
    el = analytic_n3_elements(0.7, 1.0)
    assert abs(el.rho12.real) < 1e-14
    assert abs(el.rho12.imag) > 1e-3


def test_matrix_hermiticity_pattern():
    rho = analytic_n3_density_matrix(0.9, 2.0)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert rho[0, 1] == rho[2, 1]          # rho12 = rho32
    assert rho[1, 0] == np.conj(rho[0, 1])


def test_cross_check_against_independent_integrator():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 1)
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, "010"))
    # a dense exponential of the generator, independent of evolve's Krylov path
    rho = (expm(liou.matrix.toarray()) @ np.ravel(rho0, order="F")).reshape((3, 3), order="F")
    assert np.abs(rho - analytic_n3_density_matrix(1.0, 1.0)).max() < 1e-7


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        analytic_n3_elements(-1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_n3_elements(1.0, -1.0)


# ----------------------------------------------------------------------
# N = 5 steady equations
# ----------------------------------------------------------------------

def test_n5_equations_vanish_on_analytic_state():
    assert n5_steady_residual(analytic_steady_state(5)) < 1e-12


def test_n5_equations_on_maximally_mixed():
    # I/5 is stationary but lies outside the even sector; the first equation
    # (coupling rho22, rho33, rho13, rho23) picks up a residual of 1/5
    assert n5_steady_residual(np.eye(5) / 5) == pytest.approx(0.2, abs=1e-12)


def test_n5_equations_on_zero_matrix():
    # only the trace constraint is violated
    assert n5_steady_residual(np.zeros((5, 5))) == pytest.approx(1.0)


def test_n5_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        n5_steady_residual(np.eye(3) / 3.0)


# ----------------------------------------------------------------------
# partial-transpose closed form
# ----------------------------------------------------------------------

def test_ppt_formula_n3():
    values = ppt_eigenvalue_formula(3)
    expected = np.sort([0.25, 0.25, (2 + np.sqrt(8)) / 8.0, (2 - np.sqrt(8)) / 8.0])
    assert np.abs(values - expected).max() < 1e-14


def test_ppt_formula_n5_smallest():
    values = ppt_eigenvalue_formula(5)
    assert values[0] == pytest.approx((4.0 - np.sqrt(20.0)) / 12.0, abs=1e-14)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 51, 201])
def test_ppt_formula_smallest_always_negative(n):
    assert ppt_eigenvalue_formula(n)[0] < 0.0


def test_ppt_formula_large_n_scaling():
    n = 201
    assert abs(ppt_eigenvalue_formula(n)[0] + 1.0 / n**2) < 0.05 / n**2


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_ppt_formula_matches_reduced_state(n):
    basis = ManyBodyBasis(n, 1)
    rdm = reduce_to_pair(analytic_steady_state(n), basis, 1, n)
    numeric = partial_transpose_eigenvalues(rdm)
    assert np.abs(numeric - ppt_eigenvalue_formula(n)).max() < 1e-12


def test_ppt_formula_rejects_bad_n():
    with pytest.raises(ValueError):
        ppt_eigenvalue_formula(4)
    with pytest.raises(ValueError):
        ppt_eigenvalue_formula(1)


# ----------------------------------------------------------------------
# even-sector multi-fermion steady state
# ----------------------------------------------------------------------

def test_even_sector_state_reduces_to_single_particle_form():
    state = even_sector_steady_state(5, 1)
    assert np.abs(state - analytic_steady_state(5)).max() < 1e-12


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 3)])
def test_even_sector_state_is_stationary(n, k):
    state = even_sector_steady_state(n, k)
    spec = LatticeSpec(n_sites=n)
    liou = dephasing_liouvillian(spec, ManyBodyBasis(n, k))
    assert liou.residual(state) < 1e-10
    validate_density(state)


def test_even_sector_state_rejects_overfilling():
    with pytest.raises(ValueError):
        even_sector_steady_state(5, 4)
    with pytest.raises(ValueError):
        even_sector_steady_state(5, 0)


def test_pair_rdm_closed_form_matches_reduction():
    for n in (3, 5, 9):
        basis = ManyBodyBasis(n, 1)
        rdm = reduce_to_pair(analytic_steady_state(n), basis, 2, n - 1) \
            if n > 3 else reduce_to_pair(analytic_steady_state(n), basis, 1, n)
        assert np.abs(rdm - analytic_pair_rdm(n)).max() < 1e-12
