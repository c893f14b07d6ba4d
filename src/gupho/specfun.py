"""Special-function and quadrature kernel.

Gegenbauer polynomials, paired with the neighbour C_(n-1) that gives their
derivatives, their closed-form normalization, and the exact weighted
integral of a product of two of them, formed from the Jacobi matrix in
Python floats without nodes or weights.
Everything here is a pure function of its arguments.  A Python scalar
argument is evaluated in Python floats, so the per-point path neither
imports numpy nor pays its call overhead; arrays and numpy scalars are
evaluated by numpy, which `as_float` imports when the first one arrives.
"""

from __future__ import annotations

import math

__all__ = [
    "as_float",
    "gegenbauer_product_integral",
    "gegenbauer",
    "gegenbauer_normalization",
]


def as_float(x):
    """x as a Python ``float`` if it is a Python ``float`` or ``int``, else as a float ndarray.

    Numpy scalars and 0-d arrays take the array path, so their dtype
    (longdouble included) is kept; non-float dtypes become float64.  This is
    the one place that branches on the kind of the input: every formula
    downstream is written once and runs on either kind.  numpy is imported
    only on the array path, so a process that passes Python scalars never
    loads it.
    """
    if type(x) is float or type(x) is int:
        return float(x)
    import numpy as np

    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


def _jacobi_offdiagonal(mu: float, size: int) -> list[float]:
    """beta_0 .. beta_size of the size x size Gegenbauer Jacobi matrix; the two ends are 0.

    beta_k = sqrt(k (k + 2mu - 1) / (4 (k + mu) (k + mu - 1))) is the
    off-diagonal of the symmetric tridiagonal matrix J of the orthonormal
    polynomials for the weight (1 - x^2)^(mu - 1/2); its diagonal is zero.
    With beta_0 = beta_size = 0, (J c)_i = beta_i c_(i-1) + beta_(i+1) c_(i+1)
    holds on every row.
    """
    return [0.0] + [
        math.sqrt(k * (k + 2.0 * mu - 1.0) / (4.0 * (k + mu) * (k + mu - 1.0))) for k in range(1, size)
    ] + [0.0]


def _gegenbauer_column(n: int, lam: float, beta: list[float], last: int) -> list[float]:
    """Rows n & 1, n & 1 + 2, .., last - n of C_n^lam(J) e_0, by the three-term recurrence on J.

    C_k(J) e_0 has parity (-1)^k, so one vector holds two steps: the rows
    of k's parity hold step k - 2 until step k overwrites them in place,
    reading the rows of the other parity, which hold step k - 1.  Row i at
    step k feeds only rows i - 1 and i + 1 at step k + 1, so step k stops at
    row min(k, last - k) <= last // 2, J's last row: those are all the rows
    that can reach rows 0 .. last - n at step n.  The vector ends in a zero
    pad, which also stands in for row -1.
    """
    c = [0.0] * len(beta)  # the rows of J and the pad
    c[0] = 1.0
    for k in range(1, n + 1):
        a, b = 2.0 * (k + lam - 1.0) / k, (k + 2.0 * lam - 2.0) / k
        for i in range(k & 1, min(k, last - k) + 1, 2):
            c[i] = a * (beta[i] * c[i - 1] + beta[i + 1] * c[i + 1]) - b * c[i]
    return c[n & 1 : last - n + 1 : 2]


def gegenbauer_product_integral(mu: float, n_a: int, lam_a: float, n_b: int, lam_b: float) -> float:
    """The integral of (1 - x^2)^(mu - 1/2) C_na^lam_a C_nb^lam_b over (-1, 1), exact up to rounding.

    By the Golub-Welsch identity (1969) the Gauss-Gegenbauer rule for the
    weight (1 - x^2)^(mu - 1/2) whose nodes are the eigenvalues of the
    size x size Jacobi matrix J of `_jacobi_offdiagonal` gives mass e_0^T f(J) e_0
    for any f, where the mass is the integral of the weight,
    sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1), and it is exact for
    polynomials of degree <= 2 size - 1.  With f = C_na C_nb and J symmetric
    this is mass (C_na(J) e_0) . (C_nb(J) e_0), formed here by the
    three-term recurrence on vectors, in Python floats: no nodes, no weights
    and no numpy.  J has (n_a + n_b) // 2 + 1 rows, the fewest that make the
    product of degree n_a + n_b exact; only rows up to min(n_a, n_b) reach
    the product, and only rows up to (n_a + n_b) // 2 reach those.  An odd
    n_a + n_b gives exactly 0.0 by parity.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive")
    if n_a < 0 or n_b < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if not (0.0 < lam_a < math.inf and 0.0 < lam_b < math.inf):
        raise ValueError("Gegenbauer order lam must be positive")
    last = n_a + n_b
    if last % 2:
        return 0.0
    beta = _jacobi_offdiagonal(mu, last // 2 + 1)
    c_a = _gegenbauer_column(n_a, lam_a, beta, last)
    c_b = c_a if (n_b, lam_b) == (n_a, lam_a) else _gegenbauer_column(n_b, lam_b, beta, last)
    mass = math.exp(0.5 * math.log(math.pi) + math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0))
    return mass * sum([x * y for x, y in zip(c_a, c_b)])


def gegenbauer_normalization(n: int, lam: float) -> float:
    """Closed-form normalization constant of C_n^lam (Kempf, Mangano and Mann 1995).

    sqrt(n! (n + lam) Gamma(lam)^2 / (2^(1 - 2 lam) pi Gamma(2 lam + n))), the
    inverse square root of the integral of (1 - x^2)^(lam - 1/2) C_n^lam(x)^2
    over (-1, 1), summed in logs.
    """
    if n < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if not 0.0 < lam < math.inf:
        raise ValueError("Gegenbauer order lam must be positive")
    log_val = (
        math.lgamma(n + 1.0)
        + math.log(n + lam)
        + 2.0 * math.lgamma(lam)
        - (1.0 - 2.0 * lam) * math.log(2.0)
        - math.log(math.pi)
        - math.lgamma(2.0 * lam + n)
    )
    return math.exp(0.5 * log_val)


def _gegenbauer_pair(n: int, lam: float, x) -> tuple:
    """(C_(n-1)^lam(x), C_n^lam(x)) via the upward three-term recurrence, with C_(-1) = 0.

    C_0 = 1, C_1 = 2 lam x,
    C_k = [2 x (k + lam - 1) C_{k-1} - (k + 2 lam - 2) C_{k-2}] / k.

    This is the one pointwise Gegenbauer loop: `gegenbauer` returns the
    second element, and the pair is all that the derivative relation
    (1 - x^2) C_n' = (n + 2 lam - 1) C_(n-1) - n x C_n (DLMF 18.9.20) and
    the Gegenbauer equation need for C_n' and C_n''.  n and lam are
    validated and x is coerced by `as_float`.
    """
    if n < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if not 0.0 < lam < math.inf:
        raise ValueError("Gegenbauer order lam must be positive")
    x = as_float(x)
    if n == 0:
        return 0.0, x ** 0  # C_(-1) = 0; C_0 = 1 of x's kind and dtype, NaN included
    c_prev, c = 1.0, 2.0 * lam * x
    two_x = 2.0 * x
    for k in range(2, n + 1):
        c_prev, c = c, (two_x * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * c_prev) / k
    return c_prev, c


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x), the second element of `_gegenbauer_pair`.

    A Python ``float`` or ``int`` x is evaluated in Python floats and gives a
    ``float``; an ndarray or numpy scalar gives the same type back, with
    float dtypes (including longdouble) preserved (see `as_float`).  The
    recurrence is stable for lam > 0 at the moderate degrees used here.
    """
    return _gegenbauer_pair(n, lam, x)[1]
