"""Readouts of ``evolve_scan``: the series and kept states of a run that
keeps few states equal, bit for bit, what is read from a run that keeps all
of them, on both kernels, and so do the streamed pair readouts what
``reduce_to_pair`` reads on the whole states; the ``fock-quench`` runner,
which keeps one state, writes the table that whole states give and stays
small in memory."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from dephchain import experiments, lindblad
from dephchain.config import config_from_dict, config_to_dict, default_config
from dephchain.entangle import pair_matrix, pair_readouts, reduce_to_pair
from dephchain.experiments import build_initial_state, run
from dephchain.fock import (ManyBodyBasis, bilinear_operator, charge_operator, expectation,
                            fock_state, reflection_operator, slater_state,
                            total_number_operator)
from dephchain.lindblad import dephasing_liouvillian, evolve, pure_state
from dephchain.model import LatticeSpec

# (spec, input, times, route): the default fock-quench sector, bare and at
# the quench's trap, on the dense route, and an interacting sector on the
# sparse one. Every grid spans several sample chunks and ends in a partial one.
ROUTES = {
    "dense-bare": (LatticeSpec(n_sites=7), "1010101", np.linspace(0.0, 60.0, 1201), True),
    "dense-trap": (LatticeSpec(n_sites=7, trap_amplitude=2.0), "1010101",
                   np.linspace(0.0, 20.0, 401), True),
    "sparse-interacting": (LatticeSpec(n_sites=7, interaction=0.3), "1101010",
                           np.linspace(0.0, 10.0, 121), False),
}


def _readouts(basis):
    return {"corr": bilinear_operator(basis, 1, basis.n_sites), "charge": charge_operator(basis),
            "number": total_number_operator(basis),
            "parity": 0.5 * (sparse.identity(basis.size, format="csr")
                             + reflection_operator(basis)),
            "purity": "purity", "residual": "residual"}


@pytest.mark.parametrize("route", ROUTES)
def test_readouts_equal_the_values_of_the_whole_states(route):
    spec, bits, times, dense = ROUTES[route]
    basis = ManyBodyBasis(spec.n_sites, bits.count("1"))
    liouvillian = dephasing_liouvillian(spec, basis)
    assert lindblad._dense_route([liouvillian]) == dense
    rho0 = pure_state(fock_state(basis, bits))
    readouts = _readouts(basis)
    keep = [len(times) - 1, 0, 60, 7, 60]
    whole = evolve(rho0, liouvillian, times, readouts)
    read = evolve(rho0, liouvillian, times, readouts, keep)

    assert whole.states.shape == (len(times), basis.size, basis.size)
    assert np.array_equal(whole.kept, np.arange(len(times)))
    assert np.array_equal(read.kept, [0, 7, 60, len(times) - 1])
    assert np.array_equal(read.states, whole.states[read.kept])
    assert read.diagnostics == whole.diagnostics
    for name, readout in readouts.items():
        assert np.array_equal(read.series[name], whole.series[name]), name
        if not isinstance(readout, str):
            assert np.array_equal(read.series[name], expectation(whole.states, readout)), name
    assert np.array_equal(read.series["residual"], liouvillian.residual(whole.states))
    assert np.array_equal(read.series["purity"], lindblad._purity(whole.states))
    purity = np.einsum("tij,tji->t", whole.states, whole.states).real
    assert np.abs(read.series["purity"] - purity).max() < 1e-13


def test_a_run_keeps_no_state_when_asked_for_none():
    spec, bits, times, _dense = ROUTES["dense-bare"]
    basis = ManyBodyBasis(spec.n_sites, bits.count("1"))
    trajectory = evolve(pure_state(fock_state(basis, bits)), dephasing_liouvillian(spec, basis),
                        times, {"purity": "purity"}, keep=[])
    assert trajectory.states.shape == (0, basis.size, basis.size)
    assert len(trajectory.series["purity"]) == len(times) == len(trajectory.times)


# (spec, input, times): a Fock input at N = 7 and a Slater input at N = 9,
# each on an unequal grid with a t = 0 sample.
PAIR_INPUTS = {
    "fock-n7": (LatticeSpec(n_sites=7), "1010101", [0.0, 0.5, 2.0, 7.5, 31.1]),
    "slater-n9": (LatticeSpec(n_sites=9), (1, 3), [0.0, 1.0, 2.0, 3.0, 12.5]),
}


@pytest.mark.parametrize("limit", [pytest.param(lindblad.DENSE_PAIR_LIMIT, id="dense"),
                                   pytest.param(0, id="orbits")])
@pytest.mark.parametrize("case", PAIR_INPUTS)
def test_streamed_pairs_equal_the_pairs_of_the_whole_states(monkeypatch, case, limit):
    # The five pair series of one scan, read as the samples are made, against
    # reduce_to_pair of the same samples kept whole, for every mirror pair.
    monkeypatch.setattr(lindblad, "DENSE_PAIR_LIMIT", limit)
    spec, state, times = PAIR_INPUTS[case]
    n = spec.n_sites
    if isinstance(state, str):
        basis = ManyBodyBasis(n, state.count("1"))
        rho0 = pure_state(fock_state(basis, state))
    else:
        basis = ManyBodyBasis(n, len(state))
        rho0 = pure_state(slater_state(basis, state))
    liouvillians = [dephasing_liouvillian(dataclasses.replace(spec, trap_amplitude=a), basis)
                    for a in (0.0, 2.0)]
    largest = max(q.shape[1] for liouvillian in liouvillians for q in liouvillian.sectors)
    assert (largest ** 2 <= limit) == (limit > 0)
    pairs = [(i, n + 1 - i) for i in range(1, (n + 1) // 2)]
    readouts = {(pair, name): op for pair in pairs
                for name, op in pair_readouts(basis, *pair).items()}
    trajectories = lindblad.evolve_scan(rho0, liouvillians, times, readouts)
    for trajectory in trajectories:
        assert len(trajectory.states) == len(times)
        for pair in pairs:
            streamed = pair_matrix({name: trajectory.series[(pair, name)]
                                    for name in ("p00", "p01", "p10", "p11", "z")})
            whole = np.array([reduce_to_pair(rho, basis, *pair) for rho in trajectory.states])
            assert streamed.shape == (len(times), 4, 4)
            assert np.abs(streamed - whole).max() <= 1e-15, pair


@pytest.mark.parametrize("readouts, keep, message", [
    ({"x": "entropy"}, None, "unknown readout"),
    ({"x": np.eye(3)}, None, "does not match dimension"),
    ({}, [0, 5], "kept sample indices"),
    ({}, [-1], "kept sample indices"),
    ({}, [1.7], "kept sample indices must be integers"),
    ({}, [True], "kept sample indices must be integers"),
])
def test_bad_readouts_and_kept_indices_raise_before_propagating(monkeypatch, readouts, keep,
                                                                message):
    spec = LatticeSpec(n_sites=5)
    basis = ManyBodyBasis(5, 2)
    monkeypatch.setattr(lindblad, "_pair_samples", None)      # never reached
    with pytest.raises(ValueError, match=message):
        evolve(pure_state(fock_state(basis, "10100")), dephasing_liouvillian(spec, basis),
               [0.0, 1.0, 2.0], readouts, keep)


def _quench_config(quench_time):
    payload = config_to_dict(default_config("fock-quench"))
    payload["quench"]["time"] = quench_time
    return config_from_dict(payload)


def _quench_rows_from_whole_states(config, t_quench):
    """The ``fock_quench`` rows as whole-state trajectories give them: every
    sample kept and read afterwards."""
    spec, quench = config.lattice, config.quench
    basis, rho0 = build_initial_state(spec, config.initial_state)
    end_to_end = bilinear_operator(basis, 1, spec.n_sites)
    liouvillian = dephasing_liouvillian(spec, basis)
    times = config.time_grid.values()
    bare = evolve(rho0, liouvillian, times)
    k = int(np.searchsorted(times, t_quench, side="right")) - 1
    rho = bare.states[k]
    if t_quench > times[k]:
        rho = evolve(rho, liouvillian, [t_quench - times[k]]).states[-1]
    trapped = dephasing_liouvillian(dataclasses.replace(spec, trap_amplitude=quench.trap_amplitude),
                                    basis)
    step = (config.time_grid.stop - config.time_grid.start) / (config.time_grid.num - 1)
    post_times = np.arange(0.0, quench.window + step / 2, step)
    post = evolve(rho, trapped, post_times)
    rows = [[t, c.real, c.imag, abs(c), r, 0] for t, c, r in
            zip(times, expectation(bare.states, end_to_end), liouvillian.residual(bare.states))
            if t <= t_quench]
    return rows + [[t_quench + t, c.real, c.imag, abs(c), r, 1] for t, c, r in
                   zip(post_times, expectation(post.states, end_to_end),
                       trapped.residual(post.states))]


@pytest.mark.parametrize("quench_time", ["auto", 31.13])
def test_fock_quench_table_equals_the_whole_state_table(quench_time):
    config = _quench_config(quench_time)
    result = run(config)
    t_quench = result.summary["quench_time"]
    if quench_time == "auto":
        assert config.quench.transient <= t_quench < config.time_grid.stop
    header, rows = result.tables["fock_quench"]
    expected = np.array(_quench_rows_from_whole_states(config, t_quench))
    assert np.array(rows).shape == expected.shape
    assert np.abs(np.array(rows) - expected).max() < 1e-13
    assert result.invariants_ok


def test_fock_quench_holds_no_trajectory_of_states():
    # Half of one bare (1201, 35, 35) complex stack: whole-state
    # trajectories held it together with the post-quench one, 34 MB at peak.
    limit = 1201 * 35 * 35 * 16 // 2
    tracemalloc.start()
    try:
        experiments.run_fock_quench(default_config("fock-quench"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"traced peak {peak / 1e6:.1f} MB"


def test_sparse_route_holds_no_array_of_kernel_samples():
    # Half of a (1201, 1225) complex array: every sample of the four orbit
    # pairs' entries, which the Taylor kernel would hold if it were not streamed.
    spec, state, _, _ = ROUTES["sparse-interacting"]
    basis = ManyBodyBasis(spec.n_sites, state.count("1"))
    liou = dephasing_liouvillian(spec, basis)
    rho0 = pure_state(fock_state(basis, state))
    limit = 1201 * 1225 * 16 // 2
    tracemalloc.start()
    try:
        evolve(rho0, liou, np.linspace(0.0, 60.0, 1201),
               {"corr": bilinear_operator(basis, 1, spec.n_sites)}, keep=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"traced peak {peak / 2**20:.1f} MiB"
