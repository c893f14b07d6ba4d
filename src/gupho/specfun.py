"""Special-function and quadrature kernel.

Gegenbauer polynomials and their derivative, and Gauss-Gegenbauer rules.
Everything here is a pure function of its arguments; rules are immutable
after construction.  A Python scalar argument is evaluated in Python floats,
so the per-point path pays no numpy call overhead; arrays and numpy scalars
are evaluated by numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "as_float",
    "gegenbauer_rule",
    "gegenbauer",
    "gegenbauer_derivative",
]


def as_float(x):
    """x as a Python ``float`` if it is a Python ``float`` or ``int``, else as a float ndarray.

    Numpy scalars and 0-d arrays take the array path, so their dtype
    (longdouble included) is kept; non-float dtypes become float64.  This is
    the one place that branches on the kind of the input: every formula
    downstream is written once and runs on either kind.
    """
    if type(x) is float or type(x) is int:
        return float(x)
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


@lru_cache(maxsize=256)
def gegenbauer_rule(mu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Gegenbauer rule with ``count`` nodes for the weight (1 - x^2)^(mu - 1/2).

    Integrates the weight times any polynomial of degree <= 2 count - 1
    exactly.  Nodes are the eigenvalues of the symmetric Jacobi matrix of the
    monic Gegenbauer recurrence, beta_k = k (k + 2mu - 1) / (4 (k + mu) (k + mu - 1))
    (Golub & Welsch 1969).  Weights come from the Christoffel function,
    mass / sum_j p_j(x)^2 over the orthonormal polynomials, which stays
    accurate where squared eigenvector components lose digits; the mass is
    the integral of the weight, sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1).

    Returns read-only ``(nodes, weights)``, shared between callers.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    k = np.arange(1, count, dtype=np.float64)
    off = np.sqrt(k * (k + 2.0 * mu - 1.0) / (4.0 * (k + mu) * (k + mu - 1.0)))
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_prev, p, b_prev = 0.0, 1.0, 0.0
    total = np.ones_like(nodes)
    # Python floats: iterating the ndarray would box every b as a numpy scalar
    for b in off.tolist():
        p_prev, p, b_prev = p, (nodes * p - b_prev * p_prev) / b, b
        total += p * p
    mass = math.exp(0.5 * math.log(math.pi) + math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0))
    weights = mass / total
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x) via the upward three-term recurrence.

    C_0 = 1, C_1 = 2 lam x,
    C_k = [2 x (k + lam - 1) C_{k-1} - (k + 2 lam - 2) C_{k-2}] / k.

    A Python ``float`` or ``int`` x is evaluated in Python floats and gives a
    ``float``; an ndarray or numpy scalar gives the same type back, with
    float dtypes (including longdouble) preserved (see `as_float`).  The
    recurrence is stable for lam > 0 at the moderate degrees used here.
    """
    if n < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if not lam > 0.0:
        raise ValueError("Gegenbauer order lam must be positive")
    x = as_float(x)
    if n == 0:
        return 1.0 if type(x) is float else np.ones_like(x)[()]
    c_prev, c = 1.0, 2.0 * lam * x
    two_x = 2.0 * x
    for k in range(2, n + 1):
        c_prev, c = c, (two_x * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * c_prev) / k
    return c


def gegenbauer_derivative(n: int, lam: float, x):
    """Derivative of C_n^lam: 2 lam C_{n-1}^(lam+1)(x) (DLMF 18.9.19).

    A polynomial like `gegenbauer`, so any x is accepted and dtypes are
    handled the same way; applied to C_{n-1}^(lam+1) it gives the second
    derivative, 4 lam (lam + 1) C_{n-2}^(lam+2).
    """
    if n == 0:
        return 0.0 * gegenbauer(0, lam, x)  # zeros, validated and typed as gegenbauer's
    return 2.0 * lam * gegenbauer(n - 1, lam + 1.0, x)
