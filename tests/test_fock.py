import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from dephchain.fock import (
    ManyBodyBasis,
    bilinear_operator,
    build_many_body_hamiltonian,
    charge_operator,
    charge_sector_weights,
    correlation_matrix,
    enumerate_charge_sectors,
    even_mode_slater,
    fock_state,
    number_operator,
    odd_mode_slater,
    parity_sector_weights,
    reflection_operator,
    slater_state,
)
from dephchain.lindblad import pure_state
from dephchain.model import LatticeSpec, bare_mode_parity, build_single_particle_hamiltonian
from oracles import (
    bruteforce_bilinear,
    bruteforce_reflection,
    embed_sector_density,
    jw_annihilation,
)


def dense(op):
    return op.toarray() if sparse.issparse(op) else np.asarray(op)


def comm(a, b):
    return dense(a) @ dense(b) - dense(b) @ dense(a)


# ----------------------------------------------------------------------
# basis enumeration
# ----------------------------------------------------------------------

def test_basis_order_single_particle():
    basis = ManyBodyBasis(3, 1)
    assert [basis.bitstring(m) for m in basis.states] == ["100", "010", "001"]


@pytest.mark.parametrize("n,k,size", [(3, 2, 3), (7, 4, 35), (9, 3, 84), (5, 0, 1)])
def test_basis_sizes(n, k, size):
    assert ManyBodyBasis(n, k).size == math.comb(n, k) == size


def test_basis_popcounts_and_index():
    basis = ManyBodyBasis(5, 2)
    for mask in basis.states:
        assert bin(mask).count("1") == 2
        assert basis.states[basis.index_of(mask)] == mask
    assert basis.index_of("01010") == basis.index[0b01010]


def test_basis_rejects_bad_filling():
    with pytest.raises(ValueError):
        ManyBodyBasis(3, 4)
    with pytest.raises(ValueError):
        ManyBodyBasis(3, -1)


# ----------------------------------------------------------------------
# bilinears and signs
# ----------------------------------------------------------------------

def test_hop_without_intervening_occupation():
    basis = ManyBodyBasis(2, 1)
    op = dense(bilinear_operator(basis, 1, 2))
    psi = fock_state(basis, "01")
    assert np.allclose(op @ psi, fock_state(basis, "10"))


def test_hop_across_occupied_site_picks_up_sign():
    basis = ManyBodyBasis(3, 2)
    op = dense(bilinear_operator(basis, 1, 3))
    psi = fock_state(basis, "011")
    assert np.allclose(op @ psi, -fock_state(basis, "110"))


def test_number_operator_diagonal():
    basis = ManyBodyBasis(3, 1)
    op = dense(number_operator(basis, 2))
    psi = fock_state(basis, "010")
    assert np.allclose(op @ psi, psi)
    assert np.allclose(op, np.diag([0.0, 1.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bilinear_matches_bruteforce_anticommutation(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=0, max_value=n))
    i = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=1, max_value=n))
    basis = ManyBodyBasis(n, k)
    assert np.array_equal(dense(bilinear_operator(basis, i, j)),
                          bruteforce_bilinear(n, k, i, j))


def test_bilinear_index_bounds():
    basis = ManyBodyBasis(3, 1)
    with pytest.raises(ValueError):
        bilinear_operator(basis, 0, 1)
    with pytest.raises(ValueError):
        bilinear_operator(basis, 1, 4)


def test_sparse_storage_above_threshold():
    small = ManyBodyBasis(5, 2)      # dimension 10
    large = ManyBodyBasis(9, 3)      # dimension 84
    for basis in (small, large):
        op = bilinear_operator(basis, 1, 2)
        assert sparse.issparse(op) and op.format == "csr"


# ----------------------------------------------------------------------
# many-body Hamiltonian
# ----------------------------------------------------------------------

def test_single_particle_sector_equals_h():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 1)
    h_many = dense(build_many_body_hamiltonian(spec, basis))
    h_one = build_single_particle_hamiltonian(spec)
    assert np.allclose(h_many, h_one, atol=1e-14)


def test_two_particle_free_spectrum_is_pairwise_sums():
    spec = LatticeSpec(n_sites=3)
    basis = ManyBodyBasis(3, 2)
    h_many = dense(build_many_body_hamiltonian(spec, basis))
    assert np.allclose(np.linalg.eigvalsh(h_many),
                       [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_interaction_diagonal():
    spec = LatticeSpec(n_sites=3, interaction=5.0)
    basis = ManyBodyBasis(3, 2)
    h_many = dense(build_many_body_hamiltonian(spec, basis))
    q = basis.index_of("110")
    assert h_many[q, q] == pytest.approx(5.0)
    q2 = basis.index_of("101")
    assert h_many[q2, q2] == pytest.approx(0.0)


def test_hamiltonian_matches_jw_spin_construction():
    # independent route: assemble H from full Jordan-Wigner spin matrices
    spec = LatticeSpec(n_sites=5, interaction=0.7)
    basis = ManyBodyBasis(5, 2)
    h_one = build_single_particle_hamiltonian(spec)
    ops = {site: jw_annihilation(5, site) for site in range(1, 6)}
    h_full = np.zeros((32, 32), dtype=complex)
    for i in range(1, 6):
        for j in range(1, 6):
            if h_one[i - 1, j - 1]:
                h_full += h_one[i - 1, j - 1] * ops[i].conj().T @ ops[j]
    for i in range(1, 5):
        n_i = ops[i].conj().T @ ops[i]
        n_j = ops[i + 1].conj().T @ ops[i + 1]
        h_full += spec.interaction * n_i @ n_j
    h_sector = dense(build_many_body_hamiltonian(spec, basis))
    embedded = embed_sector_density(h_sector, basis)
    # restrict the spin-space H to the sector's basis states
    masks = list(basis.states)
    restricted = h_full[np.ix_(masks, masks)]
    assert np.abs(restricted - h_sector).max() < 1e-12
    del embedded


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build_many_body_hamiltonian(LatticeSpec(n_sites=5), ManyBodyBasis(3, 1))


# ----------------------------------------------------------------------
# reflection
# ----------------------------------------------------------------------

def test_reflection_examples():
    basis = ManyBodyBasis(3, 1)
    refl = dense(reflection_operator(basis))
    assert np.allclose(refl @ fock_state(basis, "100"), fock_state(basis, "001"))
    assert np.allclose(refl @ fock_state(basis, "010"), fock_state(basis, "010"))
    basis2 = ManyBodyBasis(3, 2)
    refl2 = dense(reflection_operator(basis2))
    assert np.allclose(refl2 @ fock_state(basis2, "110"), -fock_state(basis2, "011"))


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (5, 2), (5, 3), (7, 3)])
def test_reflection_matches_bruteforce(n, k):
    basis = ManyBodyBasis(n, k)
    assert np.array_equal(dense(reflection_operator(basis)), bruteforce_reflection(n, k))


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 4)])
def test_reflection_algebra(n, k):
    basis = ManyBodyBasis(n, k)
    spec = LatticeSpec(n_sites=n)
    refl = dense(reflection_operator(basis))
    h0 = build_many_body_hamiltonian(spec, basis)
    n_c = number_operator(basis, spec.central_site)
    assert np.abs(refl @ refl - np.eye(basis.size)).max() < 1e-12
    assert np.abs(refl @ refl.T - np.eye(basis.size)).max() < 1e-12
    assert np.abs(comm(refl, h0)).max() < 1e-12
    assert np.abs(comm(refl, n_c)).max() < 1e-12


def test_reflection_fixes_symmetric_fock_state():
    basis = ManyBodyBasis(7, 4)
    refl = dense(reflection_operator(basis))
    psi = fock_state(basis, "1010101")
    assert np.allclose(refl @ psi, psi)    # 4 reflected modes reorder evenly


# ----------------------------------------------------------------------
# hidden charge
# ----------------------------------------------------------------------

def test_charge_commutes_with_h0_and_nc():
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 2)
    charge = charge_operator(basis)
    h0 = build_many_body_hamiltonian(spec, basis)
    n_c = number_operator(basis, 3)
    assert np.abs(comm(charge, h0)).max() < 1e-12
    assert np.abs(comm(charge, n_c)).max() < 1e-12


def test_charge_does_not_commute_with_interaction():
    spec = LatticeSpec(n_sites=5, interaction=1.0)
    basis = ManyBodyBasis(5, 2)
    charge = charge_operator(basis)
    h_int = build_many_body_hamiltonian(spec, basis)
    assert np.abs(comm(charge, h_int)).max() > 1e-6


def test_charge_spectrum_n3_single_particle():
    basis = ManyBodyBasis(3, 1)
    evals = np.sort(np.linalg.eigvalsh(dense(charge_operator(basis))))
    assert np.allclose(evals, [-1.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
def test_charge_spectrum_matches_sector_enumeration(n, k):
    basis = ManyBodyBasis(n, k)
    evals = np.sort(np.linalg.eigvalsh(dense(charge_operator(basis))))
    expected = np.sort(np.concatenate([
        np.full(s.degeneracy, s.eigenvalue) for s in enumerate_charge_sectors(n, k)
    ]))
    assert np.allclose(evals, expected, atol=1e-10)


def test_single_even_mode_has_charge_half():
    basis = ManyBodyBasis(5, 1)
    psi = even_mode_slater(basis)
    charge = dense(charge_operator(basis))
    assert np.abs(charge @ psi - 0.5 * psi).max() < 1e-12


def test_sector_enumeration_all_fillings():
    sectors = enumerate_charge_sectors(3)
    eigenvalues = sorted(set(s.eigenvalue for s in sectors))
    assert eigenvalues == [-1.5, -0.5, 0.5, 1.5]       # N + 1 distinct values
    # aggregated degeneracy of +-(i - 1/2) is C(N, (N+1)/2 - i)
    for i in (1, 2):
        for lam in (i - 0.5, -(i - 0.5)):
            total = sum(s.degeneracy for s in sectors if s.eigenvalue == lam)
            assert total == math.comb(3, 2 - i)


def test_sector_enumeration_vacuum():
    sectors = enumerate_charge_sectors(3, 0)
    assert len(sectors) == 1
    assert sectors[0].eigenvalue == -0.5 and sectors[0].degeneracy == 1


def test_sector_degeneracy_sums():
    assert sum(s.degeneracy for s in enumerate_charge_sectors(5, 2)) == 10
    for n in (3, 5, 7, 9, 11):
        for k in range(n + 1):
            total = sum(s.degeneracy for s in enumerate_charge_sectors(n, k))
            assert total == math.comb(n, k)
    for s in enumerate_charge_sectors(9, 4):
        assert s.eigenvalue == -0.5 + s.nu_even - s.nu_odd


def test_charge_sector_weights_projection():
    basis = ManyBodyBasis(3, 1)
    weights = charge_sector_weights(pure_state(fock_state(basis, "010")), basis)
    assert weights == pytest.approx({0.5: 1.0})
    mixed = pure_state(fock_state(basis, "100"))
    weights = charge_sector_weights(mixed, basis)
    assert weights[0.5] == pytest.approx(0.5)
    assert weights[-1.5] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# state constructors
# ----------------------------------------------------------------------

def test_ground_mode_slater_amplitudes():
    basis = ManyBodyBasis(3, 1)
    psi = slater_state(basis, [1])
    assert np.allclose(psi, [0.5, 1.0 / np.sqrt(2), 0.5], atol=1e-12)


def test_closed_shell_slater_properties():
    basis = ManyBodyBasis(3, 2)
    parity = bare_mode_parity(3)
    psi = slater_state(basis, parity.even, orbitals=parity.modes)
    refl = dense(reflection_operator(basis))
    charge = dense(charge_operator(basis))
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.abs(refl @ psi - psi).max() < 1e-12
    assert np.abs(charge @ psi - 1.5 * psi).max() < 1e-12   # -1/2 + 2


def test_full_filling_slater_is_unit_amplitude():
    basis = ManyBodyBasis(3, 3)
    psi = slater_state(basis, [1, 2, 3])
    assert psi.shape == (1,)
    assert psi[0] == pytest.approx(1.0)


def test_slater_rejects_repeats_and_mismatch():
    basis = ManyBodyBasis(3, 2)
    with pytest.raises(ValueError):
        slater_state(basis, [1, 1])
    with pytest.raises(ValueError):
        slater_state(basis, [1])


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
def test_even_mode_slaters_are_even_and_charged(n, k):
    basis = ManyBodyBasis(n, k)
    psi = even_mode_slater(basis)
    refl = dense(reflection_operator(basis))
    charge = dense(charge_operator(basis))
    assert np.abs(refl @ psi - psi).max() < 1e-10
    assert np.abs(charge @ psi - (-0.5 + k) * psi).max() < 1e-10


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
def test_odd_mode_slaters_are_dark(n, k):
    basis = ManyBodyBasis(n, k)
    psi = odd_mode_slater(basis)
    n_c = dense(number_operator(basis, (n + 1) // 2))
    assert np.abs(n_c @ psi).max() < 1e-12


def test_fock_state_examples():
    basis = ManyBodyBasis(3, 1)
    assert np.allclose(fock_state(basis, "010"), [0.0, 1.0, 0.0])
    big = ManyBodyBasis(7, 4)
    psi = fock_state(big, "1010101")
    assert np.count_nonzero(psi) == 1 and abs(psi[big.index_of("1010101")]) == 1.0
    with pytest.raises(ValueError):
        fock_state(basis, "011")


def test_parity_sector_weights():
    basis = ManyBodyBasis(3, 1)
    even, odd = parity_sector_weights(pure_state(fock_state(basis, "010")), basis)
    assert even == pytest.approx(1.0) and odd == pytest.approx(0.0)
    even, odd = parity_sector_weights(pure_state(fock_state(basis, "100")), basis)
    assert even == pytest.approx(0.5) and odd == pytest.approx(0.5)


def test_correlation_matrix_of_slater():
    basis = ManyBodyBasis(5, 2)
    parity = bare_mode_parity(5)
    psi = even_mode_slater(basis)
    rho = np.outer(psi, psi.conj())
    c = correlation_matrix(rho, basis)
    chosen = parity.modes[:, [k - 1 for k in parity.even[:2]]]
    assert np.abs(c - chosen @ chosen.T).max() < 1e-12
    assert np.trace(c).real == pytest.approx(2.0)
