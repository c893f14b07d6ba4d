"""Special-function and quadrature kernel.

Gegenbauer polynomials and their derivative, the terminating Gauss
hypergeometric series, log-gamma, and Gauss-Legendre rules.  Everything here
is a pure function of its arguments; rules are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "sine_mapped_rule",
    "symmetric_dot",
    "gegenbauer",
    "gegenbauer_derivative",
    "hyp2f1_terminating",
    "ln_gamma",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration over (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size


def _legendre_pair(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre P_order and its derivative at x, by upward recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # (x^2 - 1) P' = order (x P - P_{order-1})
    dp = order * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] by Newton iteration on the nodes.

    Only the nonnegative half is solved; the rest is mirrored, so the rule is
    exactly symmetric.  Node accuracy is at the 1e-15 level; the rule
    integrates polynomials up to degree 2*order - 1 exactly.  Rules are
    immutable, so repeated requests share one cached instance.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]))

    m = (order + 1) // 2
    k = np.arange(m, dtype=np.float64)
    # classical first guess, descending from the largest root
    x = np.cos(np.pi * (k + 0.75) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    if order % 2:
        x[-1] = 0.0  # center node is exactly zero by symmetry
    _, dp = _legendre_pair(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    if order % 2:
        nodes = np.concatenate([-x, x[-2::-1]]) + 0.0  # normalize -0.0
        weights = np.concatenate([w, w[-2::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w, w[::-1]])
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=64)
def sine_mapped_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule pushed through u -> sin(pi/2 sin(pi/2 u)).

    Intended for integrands on (-1, 1) that decay like a fractional power of
    1 - x^2 at the endpoints, where the raw rule converges only algebraically;
    the repeated sine map flattens the endpoint behaviour and restores fast
    convergence.

    Returns ``(nodes, weights, one_minus_sq)``.  ``one_minus_sq`` holds
    1 - nodes**2 evaluated as cos^2 of the inner angle, which remains accurate
    (and positive) even where ``1 - nodes**2`` would round to zero in double
    precision.  Arrays are exactly symmetric: built from the nonnegative half
    and mirrored.
    """
    base = gauss_legendre(order)
    half = order // 2
    u = base.nodes[order - half:]
    w = base.weights[order - half:]
    th1 = 0.5 * np.pi * u
    y = np.sin(th1)
    dy = 0.5 * np.pi * np.cos(th1)
    th2 = 0.5 * np.pi * y
    xpos = np.sin(th2)
    cpos = np.cos(th2)
    wpos = w * 0.5 * np.pi * cpos * dy
    opos = cpos * cpos
    if order % 2:
        wc = base.weights[half] * (0.5 * np.pi) ** 2
        nodes = np.concatenate([-xpos[::-1], [0.0], xpos])
        weights = np.concatenate([wpos[::-1], [wc], wpos])
        one_minus_sq = np.concatenate([opos[::-1], [1.0], opos])
    else:
        nodes = np.concatenate([-xpos[::-1], xpos])
        weights = np.concatenate([wpos[::-1], wpos])
        one_minus_sq = np.concatenate([opos[::-1], opos])
    for a in (nodes, weights, one_minus_sq):
        a.setflags(write=False)
    return nodes, weights, one_minus_sq


def symmetric_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """Weighted sum that folds symmetric index pairs before accumulating.

    On a symmetric rule an odd integrand then cancels pairwise to exactly
    0.0 instead of leaving float summation residue.
    """
    n = len(weights)
    half = n // 2
    pair = weights[:half] * (values[:half] + values[::-1][:half])
    total = float(np.sum(pair))
    if n % 2:
        total += float(weights[half] * values[half])
    return total


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x) via the upward three-term recurrence.

    C_0 = 1, C_1 = 2 lam x,
    C_k = [2 x (k + lam - 1) C_{k-1} - (k + 2 lam - 2) C_{k-2}] / k.

    Accepts a scalar or an ndarray; float dtypes (including longdouble) are
    preserved.  The recurrence is stable for lam > 0 at the moderate degrees
    used here.
    """
    if n < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if lam <= 0:
        raise ValueError("Gegenbauer order lam must be positive")
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    c_prev = np.ones_like(arr)
    if n == 0:
        return c_prev[()] if arr.ndim == 0 else c_prev
    c = 2.0 * lam * arr
    for k in range(2, n + 1):
        c_prev, c = c, (2.0 * arr * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * c_prev) / k
    return c[()] if arr.ndim == 0 else c


def gegenbauer_derivative(n: int, lam: float, x):
    """Derivative of C_n^lam at x in (-1, 1).

    Uses (1 - x^2) dC_n/dx = (n + 2 lam - 1) C_{n-1} - n x C_n, which has a
    pole at |x| = 1; such arguments are rejected.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("derivative relation requires |x| < 1")
    if n == 0:
        out = np.zeros_like(arr)
        return out[()] if arr.ndim == 0 else out
    out = ((n + 2.0 * lam - 1.0) * gegenbauer(n - 1, lam, arr)
           - n * arr * gegenbauer(n, lam, arr)) / (1.0 - arr * arr)
    return out[()] if arr.ndim == 0 else out


def hyp2f1_terminating(n: int, b: float, c: float, x: float) -> float:
    """2F1(-n, b; c; x) as the terminating degree-n polynomial.

    Sum_{k=0}^{n} (-n)_k (b)_k / (c)_k x^k / k!.  Raises if c hits a
    nonpositive integer pole within the summed terms.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    total = 1.0
    term = 1.0
    for k in range(n):
        denom = c + k
        if denom == 0.0:
            raise ValueError(f"2F1 parameter c = {c} hits a pole at term {k + 1}")
        term *= (-n + k) * (b + k) / (denom * (k + 1)) * x
        total += term
    return total


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError("ln_gamma requires x > 0")
    return math.lgamma(x)
