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
    even_mode_slater,
    expectation,
    fock_state,
    number_operator,
    reflection_operator,
    reflection_orbits,
    slater_determinants,
    slater_state,
    total_number_operator,
)
from dephchain.lindblad import pure_state
from dephchain.model import LatticeSpec, bare_mode_parity, build_single_particle_hamiltonian
from oracles import (
    apply_creation,
    bruteforce_bilinear,
    bruteforce_reflection,
    correlation_matrix,
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
    for q, mask in enumerate(basis.states):
        assert bin(mask).count("1") == 2
        assert basis.states[basis.index[mask]] == mask
        assert "".join(map(str, basis.occupations[q])) == basis.bitstring(mask)
    assert basis.index[basis.mask_of("01010")] == basis.index[0b01010]


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


@pytest.mark.parametrize("site", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_bilinear_refuses_a_site_that_is_not_an_integer(site):
    # True would otherwise count as site 1, and a float fails in a bit shift.
    basis = ManyBodyBasis(3, 1)
    for sites in ((site, 2), (2, site)):
        with pytest.raises(ValueError, match="sites must be integers"):
            bilinear_operator(basis, *sites)
    with pytest.raises(ValueError, match="sites must be integers"):
        number_operator(basis, site)


def test_bilinear_takes_numpy_integer_sites():
    # Past 63 sites a numpy integer would overflow the bit shifts of the masks.
    for n, k in ((5, 2), (65, 1)):
        basis = ManyBodyBasis(n, k)
        expected = bilinear_operator(basis, 1, n)
        assert (bilinear_operator(basis, np.int64(1), np.int64(n)) != expected).nnz == 0


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
    q = basis.index[basis.mask_of("110")]
    assert h_many[q, q] == pytest.approx(5.0)
    q2 = basis.index[basis.mask_of("101")]
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


# The sign (-1)^(k(k-1)/2) has period 4 in k: every k at N = 7 covers it twice.
@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (5, 2), (5, 3), (7, 3)]
                         + [(7, k) for k in (0, 1, 2, 4, 5, 6, 7)])
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


@pytest.mark.parametrize("n", range(3, 10))
def test_reflection_orbits_are_exact_eigenbases(n):
    # Every filling, k = 0 included, whose one state is its own mirror image
    # and leaves the -1 space empty. The orbit bases are orthonormal, R maps
    # them to +-themselves exactly, their entries are 0, +-1 and +-1/sqrt 2,
    # and the central occupation stays diagonal in them, with no entry off
    # it; its diagonal is 0/1 up to the one rounding of 2 (1/sqrt 2)^2,
    # which is 1 + 2^-52 in floating point.
    allowed = {0.0, 1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5)}
    for k in range(n + 1):
        basis = ManyBodyBasis(n, k)
        refl = reflection_operator(basis)
        plus, minus = reflection_orbits(basis)
        q = np.hstack([dense(plus), dense(minus)])
        assert q.shape == (basis.size, basis.size)
        assert np.abs(q.T @ q - np.eye(basis.size)).max() <= 2 * np.finfo(float).eps
        assert np.array_equal(dense(refl @ plus), dense(plus))
        assert np.array_equal(dense(refl @ minus), -dense(minus))
        assert set(np.unique(q)) <= allowed
        if k == 0:
            assert minus.shape == (1, 0)
        if n % 2:
            n_c = number_operator(basis, (n + 1) // 2)
            for space in (plus, minus):
                jump = dense(space.T @ n_c @ space)
                assert np.array_equal(jump, np.diag(np.diag(jump)))
                assert np.abs(np.diag(jump) - np.round(np.diag(jump))).max(initial=0.0) \
                    <= np.finfo(float).eps
                assert set(np.round(np.diag(jump))) <= {0.0, 1.0}


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
    # Sector (nu_e, nu_o) with nu_e + nu_o = k has eigenvalue -1/2 + nu_e - nu_o
    # and degeneracy C(n_e, nu_e) C(n_o, nu_o) over the n_e even and n_o odd modes.
    n_even, n_odd = (n + 1) // 2, (n - 1) // 2
    expected = np.sort(np.concatenate([
        np.full(math.comb(n_even, nu_e) * math.comb(n_odd, k - nu_e), -0.5 + nu_e - (k - nu_e))
        for nu_e in range(max(0, k - n_odd), min(k, n_even) + 1)
    ]))
    assert np.allclose(evals, expected, atol=1e-10)


def test_single_even_mode_has_charge_half():
    basis = ManyBodyBasis(5, 1)
    psi = even_mode_slater(basis)
    charge = dense(charge_operator(basis))
    assert np.abs(charge @ psi - 0.5 * psi).max() < 1e-12


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


def _created(orbitals):
    """b!_1 ... b!_k |0> with b!_a = sum_i orbitals[i - 1, a] f!_i, by the
    ordered-sequence algebra: {occupied sites: amplitude}."""
    state = {(): 1.0}
    for column in orbitals.T[::-1]:
        terms = [{seq: c * amp for seq, amp in apply_creation(state, i + 1).items()}
                 for i, c in enumerate(column)]
        state = {seq: sum(t.get(seq, 0.0) for t in terms) for t in terms for seq in t}
    return state


@pytest.mark.parametrize("n, k", [(3, 0), (5, 2), (7, 3)])
def test_slater_determinants_match_created_states(n, k):
    # One stacked determinant per orbital set, against the creation
    # operators applied one by one; slater_state is the normalized first.
    rng = np.random.default_rng(n + k)
    basis = ManyBodyBasis(n, k)
    stack = rng.normal(size=(3, n, k))
    amplitudes = slater_determinants(basis, stack)
    assert amplitudes.shape == (3, basis.size)
    for orbitals, row in zip(stack, amplitudes):
        state = _created(orbitals)
        expected = [state.get(basis.occupied_sites(mask), 0.0) for mask in basis.states]
        assert np.abs(row - expected).max() < 1e-12
    modes = np.linalg.qr(rng.normal(size=(n, n)))[0]
    psi = slater_state(basis, range(1, k + 1), orbitals=modes)
    row = slater_determinants(basis, modes[:, :k])
    assert np.abs(psi - row * np.sign(row[np.abs(row) > 1e-12][0])).max() < 1e-14


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
    psi = slater_state(basis, bare_mode_parity(n).odd[:k])
    n_c = dense(number_operator(basis, (n + 1) // 2))
    assert np.abs(n_c @ psi).max() < 1e-12


def test_fock_state_examples():
    basis = ManyBodyBasis(3, 1)
    assert np.allclose(fock_state(basis, "010"), [0.0, 1.0, 0.0])
    big = ManyBodyBasis(7, 4)
    psi = fock_state(big, "1010101")
    assert np.count_nonzero(psi) == 1 and abs(psi[big.index[big.mask_of("1010101")]]) == 1.0
    with pytest.raises(ValueError):
        fock_state(basis, "011")


def parity_sector_weights(rho, basis):
    """(even, odd) reflection-sector populations (Tr rho +- <R>) / 2."""
    reflected = float(np.real(expectation(rho, reflection_operator(basis))))
    trace = float(np.real(np.trace(rho)))
    return 0.5 * (trace + reflected), 0.5 * (trace - reflected)


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


def test_fock_state_outside_the_basis_is_refused():
    with pytest.raises(ValueError, match="mask 8 "):
        fock_state(ManyBodyBasis(3, 1), 0b1000)


def test_fock_state_refuses_a_bool_mask():
    # True used to give the state of mask 1, 001.
    for mask in (True, False):
        with pytest.raises(ValueError, match="is a bool"):
            fock_state(ManyBodyBasis(3, 1), mask)


def test_expectation_of_an_operator_of_another_shape_is_refused():
    # A smaller operator used to read part of the state, a larger one to
    # index past it.
    rho = np.eye(10) / 10
    for size in (5, 20):
        with pytest.raises(ValueError, match=rf"\({size}, {size}\) .* \(10, 10\)"):
            expectation(rho, np.eye(size))
        with pytest.raises(ValueError, match=rf"\({size}, {size}\) .* \(10, 10\)"):
            expectation(np.stack([rho, rho]), sparse.identity(size))


def test_expectation_of_a_stack_equals_each_state_read_alone():
    # Bit for bit: a state's value does not depend on the stack it is read in.
    basis = ManyBodyBasis(7, 4)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(9, 35, 35)) + 1j * rng.normal(size=(9, 35, 35))
    operators = [bilinear_operator(basis, 1, 7), charge_operator(basis),
                 total_number_operator(basis), reflection_operator(basis),
                 rng.normal(size=(35, 35))]
    for op in operators:
        values = expectation(stack, op)
        assert values.shape == (9,)
        assert np.array_equal(values, [expectation(rho, op) for rho in stack])
        assert np.array_equal(values[2:5], expectation(stack[2:5], op))
