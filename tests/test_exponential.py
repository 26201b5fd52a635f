"""The library's two exponentials against scipy's.

``exponential.expm`` is compared with ``scipy.linalg.expm`` and
``exponential.expm_multiply`` with ``scipy.sparse.linalg.expm_multiply``,
each to 1e-13 relative to the largest entry of scipy's result. Ours
takes the steps between samples where scipy's takes their times, and yields
its samples, which ``rows`` reads into one array. The inputs
are the kind the propagation exponentiates: dissipative generators
-i H - D, with H Hermitian and D a non-negative diagonal, scaled to a given
1-norm. scipy's ``expm_multiply`` picks its steps from estimated norms
beyond a 1-norm of about 60 and is then the less accurate of the two, so the
largest norms are compared with the dense exponential instead."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg

from dephchain.exponential import expm, expm_multiply

RTOL = 1e-13


def dissipative(rng, n, norm, stack=()):
    """A stack of dense n x n generators -i H - D of the given 1-norm each."""
    h = rng.normal(size=stack + (n, n)) + 1j * rng.normal(size=stack + (n, n))
    damping = np.abs(rng.normal(size=stack + (n, 1))) * np.eye(n)
    a = -0.5j * (h + np.swapaxes(h, -1, -2).conj()) - damping
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]


def sparse_dissipative(rng, n, norm):
    """A sparse generator -i H - D, H real symmetric with about 10% entries, of 1-norm ``norm``."""
    h = sparse.random(n, n, density=0.1, random_state=rng, format="csr")
    a = sparse.csr_matrix(-1j * (h + h.T) - sparse.diags(rng.random(n)))
    return a * (norm / abs(a).sum(axis=0).max())


def rows(a, vec, steps):
    """The samples of ``expm_multiply``, read into one (T, n) array."""
    return np.array(list(expm_multiply(a, vec, steps)))


def relative(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 10.0, 100.0, 1e3])
def test_expm_matches_scipy_on_a_stack(norm):
    stack = dissipative(np.random.default_rng(1), 6, norm, (5,))
    got = expm(stack)
    assert got.shape == stack.shape and got.dtype == complex
    assert relative(got, np.array([scipy.linalg.expm(a) for a in stack])) <= RTOL


def test_expm_of_zero_and_of_one_by_one_matrices():
    assert np.array_equal(expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))
    scalars = np.array([[[-2.5 + 1j]], [[0.0]], [[7.0j]]])
    got = expm(scalars)
    assert got.shape == (3, 1, 1)
    assert relative(got, np.array([scipy.linalg.expm(a) for a in scalars])) <= RTOL


@pytest.mark.parametrize("norm", [1e-2, 1.0, 10.0, 30.0])
def test_expm_multiply_one_step_matches_scipy(norm):
    rng = np.random.default_rng(2)
    a = sparse_dissipative(rng, 60, norm)
    vec = rng.normal(size=60) + 1j * rng.normal(size=60)
    got = rows(a, vec, [1.0])
    assert got.shape == (1, 60)
    assert relative(got[0], scipy.sparse.linalg.expm_multiply(a, vec)) <= RTOL


@pytest.mark.parametrize("norm", [100.0, 300.0])
def test_expm_multiply_long_step_matches_dense_exponential(norm):
    rng = np.random.default_rng(3)
    a = sparse_dissipative(rng, 60, norm)
    vec = rng.normal(size=60) + 1j * rng.normal(size=60)
    got = rows(a, vec, [1.0])[0]
    assert relative(got, scipy.linalg.expm(a.toarray()) @ vec) <= RTOL


@pytest.mark.parametrize("stop, num", [(3.0, 31), (0.5, 2), (20.0, 7)])
def test_expm_multiply_interval_matches_scipy(stop, num):
    # scipy's interval form against the steps that reach its times.
    rng = np.random.default_rng(4)
    a = sparse_dissipative(rng, 60, 2.0)
    vec = rng.normal(size=60) + 1j * rng.normal(size=60)
    got = rows(a, vec, np.diff(np.linspace(0.0, stop, num), prepend=0.0))
    expected = scipy.sparse.linalg.expm_multiply(a, vec, start=0.0, stop=stop, num=num,
                                                 endpoint=True)
    assert got.shape == (num, 60)
    assert np.array_equal(got[0], vec)
    assert relative(got, expected) <= RTOL


def test_expm_multiply_at_t_zero_is_the_input():
    rng = np.random.default_rng(5)
    a = sparse_dissipative(rng, 40, 5.0)
    vec = rng.normal(size=40) + 1j * rng.normal(size=40)
    assert np.array_equal(rows(0.0 * a, vec, [1.0])[0], vec)
    assert np.array_equal(scipy.sparse.linalg.expm_multiply(0.0 * a, vec), vec)
    single = rows(a, vec, [0.0])
    assert single.shape == (1, 40) and np.array_equal(single[0], vec)


def test_expm_multiply_of_a_real_vector_is_complex():
    rng = np.random.default_rng(6)
    a = sparse_dissipative(rng, 40, 5.0)
    vec = rng.normal(size=40)
    for got, expected in (
            (rows(a, vec, [1.0])[0], scipy.sparse.linalg.expm_multiply(a, vec)),
            (rows(0.0 * a, vec, [1.0])[0], vec),
            (rows(a, vec, np.diff(np.linspace(0.0, 2.0, 5), prepend=0.0)),
             scipy.sparse.linalg.expm_multiply(a, vec, start=0.0, stop=2.0, num=5, endpoint=True))):
        assert got.dtype == complex
        assert relative(got, expected) <= RTOL


def real_dissipative(rng, n, norm, stack=()):
    """A stack of dense real n x n generators K - D of the given 1-norm
    each, K antisymmetric and D a non-negative diagonal: the kind that steps
    the real coordinates of a density matrix."""
    k = rng.normal(size=stack + (n, n))
    damping = np.abs(rng.normal(size=stack + (n, 1))) * np.eye(n)
    a = k - np.swapaxes(k, -1, -2) - damping
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]


@pytest.mark.parametrize("norm", [1e-2, 1.0, 30.0])
def test_real_input_gives_real_output(norm):
    # Both kernels keep a real matrix and a real vector real, and give what
    # the same input cast to complex gives. A silent upcast would keep the
    # values and lose the real arithmetic.
    rng = np.random.default_rng(8)
    stack = real_dissipative(rng, 6, norm, (4,))
    got = expm(stack)
    assert got.dtype == np.float64
    assert relative(got, expm(stack.astype(complex))) <= 1e-14
    dense = real_dissipative(rng, 40, norm)
    a = sparse.csr_matrix(np.where(rng.random((40, 40)) < 0.1, dense, 0.0))
    vec = rng.normal(size=40)
    steps = [0.0, 0.3, 0.3, 1.7]
    got = rows(a, vec, steps)
    assert got.dtype == np.float64
    assert relative(got, rows(a.astype(complex), vec.astype(complex), steps)) <= 1e-14


def test_expm_multiply_on_unequal_steps_and_zeros():
    # Each row is reached from the one before; a zero step repeats it exactly.
    rng = np.random.default_rng(7)
    a = sparse_dissipative(rng, 40, 5.0)
    vec = rng.normal(size=40) + 1j * rng.normal(size=40)
    steps = np.array([0.0, 0.3, 0.0, 1.7, 0.05, 0.0, 4.0])
    got = rows(a, vec, steps)
    assert got.shape == (len(steps), 40)
    assert np.array_equal(got[0], vec)
    for k in np.flatnonzero(steps[1:] == 0.0) + 1:
        assert np.array_equal(got[k], got[k - 1])
    dense = a.toarray()
    expected = np.array([scipy.linalg.expm(dense * t) @ vec for t in np.cumsum(steps)])
    assert relative(got, expected) <= RTOL


def test_expm_multiply_refuses_mismatched_shapes():
    with pytest.raises(ValueError):
        expm_multiply(sparse.identity(3, format="csr"), np.ones(4), [1.0])
    with pytest.raises(ValueError):
        expm_multiply(sparse.identity(3, format="csr"), np.ones(3), 1.0)
