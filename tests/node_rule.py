"""Node-based Gauss-Gegenbauer rule: a reference for the overlap kernel.

Tests compare `gupho.specfun.gegenbauer_product_integral`, which forms the
weighted integral of a product of two Gegenbauer polynomials from
closed-form connection coefficients (DLMF 18.18.16) without nodes or
weights, with the value of a rule built the classical way, exact for that
product.
"""

import mpmath
import numpy as np


def gegenbauer_rule(mu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Gegenbauer rule with ``count`` nodes for the weight (1 - x^2)^(mu - 1/2).

    Integrates the weight times any polynomial of degree <= 2 count - 1
    exactly.  Nodes are the eigenvalues of the symmetric Jacobi matrix of the
    monic Gegenbauer recurrence, beta_k = k (k + 2mu - 1) / (4 (k + mu) (k + mu - 1))
    (Golub & Welsch 1969).  Weights come from the Christoffel function,
    mass / sum_j p_j(x)^2 over the orthonormal polynomials, which stays
    accurate where squared eigenvector components lose digits; the mass is
    the integral of the weight, sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1),
    taken from 30-digit mpmath (an lgamma difference is 1e-13 off at mu = 120).
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
    for b in off.tolist():
        p_prev, p, b_prev = p, (nodes * p - b_prev * p_prev) / b, b
        total += p * p
    with mpmath.workdps(30):
        mass = float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(mu + 0.5) / mpmath.gamma(mu + 1))
    return nodes, mass / total
