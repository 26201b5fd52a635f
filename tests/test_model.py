from dataclasses import replace

import numpy as np
import pytest

from dephchain.model import (
    GOLDEN_MEAN,
    LatticeSpec,
    ReflectionSymmetryBroken,
    bare_mode_parity,
    build_single_particle_hamiltonian,
    classify_mode_parity,
    reflection_permutation,
)
from oracles import chain_spectrum


def test_bare_n3_hamiltonian():
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=3))
    expected = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    assert np.array_equal(h, expected)


def test_single_site_chain_is_trivial():
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=1))
    assert h.shape == (1, 1) and h[0, 0] == 0.0
    parity = classify_mode_parity(h)
    assert parity.even == (1,) and parity.odd == ()


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_bare_spectrum_closed_form(n):
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=n))
    assert np.abs(np.linalg.eigvalsh(h) - chain_spectrum(n)).max() < 1e-12


def test_n3_spectrum_values():
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=3))
    assert np.allclose(np.linalg.eigvalsh(h), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_spectrum_scales_with_tunneling():
    spec = LatticeSpec(n_sites=7, tunneling=2.5)
    h = build_single_particle_hamiltonian(spec)
    assert np.abs(np.linalg.eigvalsh(h) - chain_spectrum(7, tunneling=2.5)).max() < 1e-12


def test_parity_counts():
    parity = bare_mode_parity(3)
    assert len(parity.even) == 2 and len(parity.odd) == 1


def test_n3_odd_mode():
    parity = bare_mode_parity(3)
    odd = parity.modes[:, parity.odd[0] - 1]
    assert np.allclose(odd, [1.0 / np.sqrt(2), 0.0, -1.0 / np.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_odd_modes_vanish_at_center(n):
    parity = bare_mode_parity(n)
    center = (n + 1) // 2
    for k in parity.odd:
        assert abs(parity.modes[center - 1, k - 1]) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 9])
def test_parity_is_sharp(n):
    parity = bare_mode_parity(n)
    reflection = reflection_permutation(n)
    for k in parity.even:
        vec = parity.modes[:, k - 1]
        assert np.abs(reflection @ vec - vec).max() < 1e-12
    for k in parity.odd:
        vec = parity.modes[:, k - 1]
        assert np.abs(reflection @ vec + vec).max() < 1e-12


def test_reflection_commutes_without_aa():
    spec = LatticeSpec(n_sites=7, trap_amplitude=2.0)
    h = build_single_particle_hamiltonian(spec)
    reflection = reflection_permutation(7)
    assert np.abs(h @ reflection - reflection @ h).max() == 0.0


def test_aa_breaks_reflection():
    spec = LatticeSpec(n_sites=5, aa_amplitude=0.3)
    h = build_single_particle_hamiltonian(spec)
    with pytest.raises(ReflectionSymmetryBroken):
        classify_mode_parity(h)


@pytest.mark.parametrize("fields, symmetric", [
    ({}, True),
    ({"trap_amplitude": 2.0}, True),
    ({"trap_amplitude": 2.0, "trap_center": 4}, True),
    ({"trap_center": 2}, True),
    ({"interaction": 0.5}, True),
    ({"trap_amplitude": 2.0, "trap_center": 2}, False),
    ({"aa_amplitude": 0.3}, False),
], ids=["bare", "trap", "trap-centred", "centre-without-trap", "interaction", "off-centre",
        "quasi-periodic"])
def test_reflection_symmetric_matches_the_hamiltonian(fields, symmetric):
    spec = LatticeSpec(n_sites=7, **fields)
    h = build_single_particle_hamiltonian(spec)
    reflection = reflection_permutation(7)
    assert spec.reflection_symmetric is symmetric
    assert bool(np.abs(h @ reflection - reflection @ h).max() == 0.0) is symmetric


def test_aa_diagonal_convention():
    spec = LatticeSpec(n_sites=5, aa_amplitude=0.25)
    h = build_single_particle_hamiltonian(spec)
    sites = np.arange(1, 6)
    assert np.allclose(np.diag(h), 0.25 * np.cos(2 * np.pi * GOLDEN_MEAN * sites / 5))


def test_trap_diagonal_convention():
    spec = LatticeSpec(n_sites=5, trap_amplitude=2.0)
    with_trap = build_single_particle_hamiltonian(spec)
    without = build_single_particle_hamiltonian(replace(spec, trap_amplitude=0.0))
    assert np.array_equal(np.diag(without), np.zeros(5))
    assert np.allclose(np.diag(with_trap), 2.0 * np.array([4, 1, 0, 1, 4]))


def test_trap_center_override():
    spec = LatticeSpec(n_sites=5, trap_amplitude=1.0, trap_center=2)
    h = build_single_particle_hamiltonian(spec)
    assert np.allclose(np.diag(h), [1, 0, 1, 4, 9])


def test_degenerate_levels_resolved_by_parity():
    # zero hopping limit: diag(1, 0, 1) has a doubly degenerate level whose
    # eigenvectors need not be parity eigenstates before projection
    h = np.diag([1.0, 0.0, 1.0])
    parity = classify_mode_parity(h)
    assert len(parity.even) == 2 and len(parity.odd) == 1
    reflection = reflection_permutation(3)
    for k in parity.even:
        vec = parity.modes[:, k - 1]
        assert np.abs(reflection @ vec - vec).max() < 1e-12


@pytest.mark.parametrize("n, trap", [(9, 2.0), (11, 0.7), (11, 2.0)])
def test_trapped_modes_are_eigenvectors_of_sharp_parity(n, trap):
    # Traps whose even and odd levels lie close together: every mode is an
    # eigenvector of h, of sharp parity, numbered by ascending energy.
    h = build_single_particle_hamiltonian(LatticeSpec(n_sites=n, trap_amplitude=trap))
    parity = classify_mode_parity(h)
    assert np.abs(h @ parity.modes - parity.modes * parity.energies).max() < 1e-13
    assert np.all(np.diff(parity.energies) >= 0)
    assert np.abs(parity.modes.T @ parity.modes - np.eye(n)).max() < 1e-13
    reflection = reflection_permutation(n)
    for modes, sign in ((parity.even, 1.0), (parity.odd, -1.0)):
        vecs = parity.modes[:, np.array(modes) - 1]
        assert np.abs(reflection @ vecs - sign * vecs).max() < 1e-13


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_sites": 4},
        {"n_sites": 0},
        {"n_sites": 3, "tunneling": 0.0},
        {"n_sites": 3, "tunneling": -1.0},
        {"n_sites": 3, "dephasing_gamma": -0.1},
        {"n_sites": 3, "aa_amplitude": -0.5},
        {"n_sites": 3, "trap_amplitude": -1.0},
        {"n_sites": 3, "interaction": -2.0},
        {"n_sites": 3, "trap_center": 4},
        {"n_sites": True},
        {"n_sites": 3, "trap_center": True},
        {"n_sites": 3, "trap_center": 2.0},
        {"n_sites": 3, "dephasing_gamma": float("nan")},
        {"n_sites": 3, "dephasing_gamma": float("inf")},
        {"n_sites": 3, "tunneling": float("nan")},
        {"n_sites": 3, "aa_frequency": float("nan")},
        {"n_sites": 3, "interaction": True},
        {"n_sites": 3, "trap_amplitude": "1"},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        LatticeSpec(**kwargs)


def test_spec_defaults():
    spec = LatticeSpec(n_sites=9)
    assert spec.central_site == 5
    assert spec.effective_trap_center == 5
    assert spec.aa_frequency == pytest.approx((np.sqrt(5) - 1) / 2)
