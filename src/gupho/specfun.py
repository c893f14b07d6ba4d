"""Special-function and quadrature kernel.

Gegenbauer polynomials, and the exact weighted integral of a product of two
of them, formed from closed-form connection coefficients (DLMF 18.18.16) in
Python floats, in O(n_a + n_b) steps, without nodes, weights or a cache; the
weight's mass is a Gamma ratio summed without cancellation, and its norms
h_n are the states' norm integrals too.  Every Gegenbauer order, in this
module and in `states`, is checked by `_require_order`.
Everything here is a pure function of its arguments.  A Python scalar
argument is evaluated in Python floats, so the per-point path neither
imports numpy nor pays its call overhead; arrays and numpy scalars are
evaluated by numpy, which `as_float` imports when the first one arrives,
and each entry point coerces its argument once.
"""

from __future__ import annotations

import math

from .fm import _require_n
from .gup import QuadratureAccuracyError

__all__ = [
    "as_float",
    "gegenbauer_product_integral",
    "gegenbauer",
]


def as_float(x):
    """x as a Python ``float`` if it is a Python ``float`` or ``int``, else as a float ndarray.

    Numpy scalars and 0-d arrays take the array path, so their dtype
    (longdouble included) is kept; non-float dtypes become float64.  The
    formulas here and in `states` are written once and run on either kind;
    `gup.rho_of_p` and `gup._require_rho`, which call `math` or reduce over
    an array, branch on the kind of the input too.  numpy is imported only
    on the array path, so a process that passes Python scalars never loads it.
    """
    if type(x) is float or type(x) is int:
        return float(x)
    import numpy as np

    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


def _require_order(lam, name: str) -> float:
    """The one check of a Gegenbauer order: finite and positive as a double, NaN rejected; returns a Python float."""
    if not (math.isfinite(lam) and (lam := float(lam)) > 0.0):
        raise ValueError(f"{name} must be positive")
    return lam


def _connection_column(n: int, lam: float, mu: float, top: int) -> list[float]:
    """T(l), the coefficient of C_(n-2l)^mu in C_n^lam, at j = n - 2l = n & 1, n & 1 + 2, .., top.

    The connection coefficients of DLMF 18.18.16: T(0) = (lam)_n / (mu)_n and
    T(l + 1) / T(l) = (lam - mu + l) (mu + n - l) (mu + j - 2) / ((l + 1) (lam + n - l - 1) (mu + j)).
    At lam = mu every T(l >= 1) is exactly 0.  top has n's parity; the
    terms above it are stepped over, not returned.
    """
    t = 1.0
    for k in range(n):
        t *= (lam + k) / (mu + k)
    column = [t] if n <= top else []
    for l in range(n // 2):
        j = n - 2 * l
        t *= (lam - mu + l) * (mu + n - l) * (mu + j - 2.0) / ((l + 1.0) * (lam + n - l - 1.0) * (mu + j))
        if j <= top + 2:
            column.append(t)
    column.reverse()
    return column


def _weight_mass(mu: float) -> float:
    """sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1), the mass of the weight (1 - x^2)^(mu - 1/2), to a few ulp.

    With z = mu + 1/4, log(Gamma(z + 3/4) / Gamma(z + 1/4)) = log(z) / 2 + s(z)
    with s(z) = -sum_k E_2k / (2k 2^(4k+1) z^(2k)), E_2k the Euler numbers
    -1, 5, -61, 1385, .. (DLMF 5.11.8); seven terms leave less than 1e-17
    at z >= 10, and below that the recurrence M(mu) = M(mu + 1) (mu + 1) /
    (mu + 1/2) carries z up.  An lgamma difference cancels instead: its
    terms grow like mu log mu, and it is 1e-3 off at mu = 1e12.
    """
    z = mu + 0.25
    shift = 1.0
    while z < 10.0:
        shift *= (z + 0.75) / (z + 0.25)
        z += 1.0
    t = 1.0 / (z * z)
    s = t * (1 / 64 - t * (5 / 2048 - t * (61 / 49152 - t * (1385 / 1048576 - t * (
        50521 / 20971520 - t * (2702765 / 402653184 - t * 199360981 / 7516192768))))))
    return shift * math.sqrt(math.pi / z) * math.exp(-s)


def _weight_norms(mu: float, top: int) -> list[float]:
    """h_j, the integral of (1 - x^2)^(mu - 1/2) C_j^mu(x)^2 on (-1, 1), at j = top & 1, top & 1 + 2, .., top.

    h_0 is the weight's mass of `_weight_mass`, and the norm ratio
    h_(j+1) / h_j = (j + 2mu) (j + mu) / ((j + 1) (j + 1 + mu)) is taken two
    steps at a time, where the factors j + 1 + mu cancel.
    """
    h = _weight_mass(mu)
    if top & 1:
        h *= 2.0 * mu * mu / (1.0 + mu)
    norms = [h]
    for j in range(top & 1, top - 1, 2):
        h *= (j + 2.0 * mu) * (j + 1.0 + 2.0 * mu) * (j + mu) / ((j + 1.0) * (j + 2.0) * (j + 2.0 + mu))
        norms.append(h)
    return norms


def gegenbauer_product_integral(mu: float, n_a: int, lam_a: float, n_b: int, lam_b: float) -> float:
    """The integral of (1 - x^2)^(mu - 1/2) C_na^lam_a C_nb^lam_b over (-1, 1), exact up to rounding.

    Each factor is expanded on the C_j^mu, which are orthogonal under the
    weight: C_n^lam = sum_l T(l) C_(n-2l)^mu with the closed-form
    connection coefficients of `_connection_column`, so the integral is
    sum_j T_a(j) T_b(j) h_j with h_j of `_weight_norms`, over the common
    parity j <= min(n_a, n_b).  Each column costs n + n // 2 scalar steps,
    so the integral costs O(n_a + n_b), in Python floats: no nodes, no
    numpy and no cache.  An odd n_a + n_b gives exactly 0.0 by parity.  A sum
    that is not finite (T or h_j out of range) raises `QuadratureAccuracyError`.
    """
    mu = _require_order(mu, "mu")
    n_a = _require_n(n_a)
    n_b = _require_n(n_b)
    lam_a = _require_order(lam_a, "lam_a")
    lam_b = _require_order(lam_b, "lam_b")
    if (n_a + n_b) % 2:
        return 0.0
    top = min(n_a, n_b)
    c_a = _connection_column(n_a, lam_a, mu, top)
    c_b = c_a if (n_b, lam_b) == (n_a, lam_a) else _connection_column(n_b, lam_b, mu, top)
    total = sum([x * y * h for x, y, h in zip(c_a, c_b, _weight_norms(mu, top))])
    if not math.isfinite(total):
        raise QuadratureAccuracyError(f"integral at mu = {mu!r}, n_a = {n_a}, n_b = {n_b} is not finite: {total!r}")
    return total


def _gegenbauer(n: int, lam: float, x):
    """C_n^lam(x) via the upward three-term recurrence.

    C_0 = 1, C_1 = 2 lam x,
    C_k = (2 (k + lam - 1) / k) (x C_{k-1}) - ((k + 2 lam - 2) / k) C_{k-2},
    four array operations per step on an array x.

    This is the one pointwise Gegenbauer loop, behind `gegenbauer` and the
    states.  n and lam are validated here; x must already be what
    `as_float` returns, as every caller coerces it once.
    """
    n = _require_n(n)
    lam = _require_order(lam, "lam")
    if n == 0:
        return x ** 0  # C_0 = 1 of x's kind and dtype, NaN included
    c_prev, c = 1.0, 2.0 * lam * x
    lam_1, lam_2 = lam - 1.0, 2.0 * lam - 2.0
    for k in range(2, n + 1):
        c_prev, c = c, (2.0 * (k + lam_1) / k) * (x * c) - ((k + lam_2) / k) * c_prev
    return c


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x), from the recurrence of `_gegenbauer`.

    A Python ``float`` or ``int`` x is evaluated in Python floats and gives a
    ``float``; an ndarray or numpy scalar gives the same type back, with
    float dtypes (including longdouble) preserved (see `as_float`).  The
    recurrence is stable for lam > 0 at the moderate degrees used here.
    """
    return _gegenbauer(n, lam, as_float(x))
