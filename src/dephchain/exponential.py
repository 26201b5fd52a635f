"""The two matrix exponentials that propagate the master equation.

``expm`` exponentiates a stack of dense matrices by scaling and squaring the
degree-13 Padé approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005)). ``expm_multiply`` applies exp(t A) of a sparse A to a vector, step
after step, by a truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)). Both are numpy code with exact norms: neither draws
random numbers, so a result is the same on every run.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sparse

# Higham (2005), Table 2.3: the largest 1-norm at which the degree-13 Padé
# approximant of exp has a backward error below the unit roundoff 2^-53.
_PADE_THETA = 5.371920351148152
# Its coefficients b_0 .. b_13, with p(x) = sum_k b_k x^k and exp(x) ~ p(x) / p(-x),
# divided by b_0 so that the exponential of a zero matrix is exactly the identity.
_PADE = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))

# Al-Mohy & Higham (2011), Table 3.1 (the first 30 from Higham & Al-Mohy, Acta
# Numerica 19, 159 (2010), Table A.3): theta_m, the largest 1-norm of t A at
# which m Taylor terms of exp(t A) have a backward error below 2^-53.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


def expm(a) -> np.ndarray:
    """exp of each matrix of a ``(..., n, n)`` stack, in the stack's dtype.

    One scaling serves the whole stack: the largest 1-norm of its matrices,
    halved s times, is at most ``_PADE_THETA``; each scaled matrix gets the
    degree-13 Padé approximant, by six stacked products and one stacked
    solve, which is then squared s times."""
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    squarings = math.ceil(math.log2(norm / _PADE_THETA)) if _PADE_THETA < norm < math.inf else 0
    a = a * 2.0 ** -squarings
    b = _PADE
    identity = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    odd = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
               + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * identity)
    even = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 \
        + b[0] * identity
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def _taylor_steps(norm: float) -> tuple[int, int]:
    """The degree m and the number of steps s for exp(t A) with ||t A||_1 =
    ``norm``: of the pairs with s = ceil(norm / theta_m), the one with the
    fewest products m s, the lowest m on a tie. (0, 1) for a zero norm.
    Held by :func:`expm_multiply` while the step stays the same."""
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
               key=lambda pair: pair[0] * pair[1])


def _step(a, vec: np.ndarray, t: float, shift: complex, degree: int, steps: int) -> np.ndarray:
    """exp(t (A + shift)) vec for the shifted A, as ``steps`` steps of the
    Taylor series to ``degree`` terms, each cut short once two successive
    terms are below the unit roundoff of the sum (Al-Mohy & Higham 2011,
    Algorithm 3.2)."""
    decay = np.exp(t * shift / steps)
    total = vec.copy()
    for _ in range(steps):
        term = total
        previous = np.abs(term).max(initial=0.0)
        for j in range(1, degree + 1):
            term = a @ term
            term *= t / (steps * j)
            size = np.abs(term).max(initial=0.0)
            total += term
            # Cuts the N = 11, Np = 4 Fock evolve from 2200 CSR matvecs to 1444.
            if previous + size <= _UNIT_ROUNDOFF * np.abs(total).max(initial=0.0):
                break
            previous = size
        total *= decay
    return total


def expm_multiply(a, vec, steps):
    """Yield exp(t_k A) applied to the sample before, for each step t_k of
    ``steps``, the first to ``vec``; a step of 0 yields the last sample
    again. exp(A) vec is ``next(expm_multiply(a, vec, [1.0]))``.

    The call checks its arguments and shifts A once by its mean diagonal mu,
    whose exponential is the exact factor exp(t mu); each step is taken when
    its sample is asked for, with the Taylor degree and step count of the
    exact 1-norm of t (A - mu) (:func:`_taylor_steps`, chosen again when
    the step changes). Samples are complex or real as A and ``vec`` together are."""
    a = sparse.csr_array(a)
    vec = np.asarray(vec)
    steps = np.asarray(steps, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or vec.shape != (n,) or steps.ndim != 1:
        raise ValueError(f"need a square matrix, a vector of its size and a list of steps, "
                         f"got {a.shape}, {vec.shape} and {steps.shape}")
    vec = vec.astype(np.result_type(a.dtype, vec.dtype, float))
    shift = a.trace() / n if n else 0.0
    a = a - shift * sparse.identity(n, dtype=a.dtype, format="csr")
    norm = float(abs(a).sum(axis=0).max(initial=0.0))

    def samples(vec):
        held = None
        for t in steps:
            if t:
                if t != held:
                    held, choice = t, _taylor_steps(abs(t) * norm)
                vec = _step(a, vec, t, shift, *choice)
            yield vec
    return samples(vec)
