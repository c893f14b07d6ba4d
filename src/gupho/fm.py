"""Generic bound-state solver for wave equations in a six-coefficient standard form.

The target form is

    psi'' + (k1 - k2 s) / (s (1 - k3 s)) psi'
          + (A s^2 + B s + C) / (s^2 (1 - k3 s)^2) psi = 0,

whose normalizable solutions are fixed by a pair of exponents (k4, k5) and a
linear quantization condition in the quantum number n.  Nothing here knows
about the deformed oscillator; the mapping onto this form lives in `gup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FmProblem",
    "FmSolution",
    "NoBoundStateError",
    "fm_exponents",
    "fm_solution",
    "fm_quantization_residual",
    "fm_closed_condition",
    "fm_wavefunction",
    "hyp2f1_terminating",
]


class NoBoundStateError(ValueError):
    """An exponent radicand is negative: no real, normalizable solution."""

    def __init__(self, message: str, radicand: float):
        super().__init__(f"{message} (radicand = {radicand!r})")
        self.radicand = radicand


@dataclass(frozen=True)
class FmProblem:
    """Coefficients of the standard form; all finite, and k3 nonzero."""

    k1: float
    k2: float
    k3: float
    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "A", "B", "C"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"standard-form coefficient {name} must be finite")
        if self.k3 == 0.0:
            raise ValueError("standard form requires k3 != 0")

    @classmethod
    def from_second_order(cls, p2, p1, p0) -> "FmProblem":
        """Build the standard form from unnormalized polynomial coefficients.

        ``p2``, ``p1``, ``p0`` are ascending coefficient triples/pairs of the
        polynomials multiplying psi'', psi' and psi in

            g s (1 - k3 s) psi'' + g (k1 - k2 s) psi'
                + g (C + B s + A s^2) / (s (1 - k3 s)) psi = 0;

        the common scale g divides out, so two inputs differing only by an
        overall factor produce the same problem.
        """
        p2 = tuple(float(v) for v in p2)
        p1 = tuple(float(v) for v in p1)
        p0 = tuple(float(v) for v in p0)
        if len(p2) != 3 or p2[0] != 0.0:
            raise ValueError("psi'' coefficient must be g*s*(1 - k3*s): (0, g, -g*k3)")
        if len(p1) != 2 or len(p0) != 3:
            raise ValueError("psi' needs 2 coefficients, psi needs 3")
        g = p2[1]
        if g == 0.0:
            raise ValueError("leading scale must be nonzero")
        return cls(
            k1=p1[0] / g,
            k2=-p1[1] / g,
            k3=-p2[2] / g,
            A=p0[2] / g,
            B=p0[1] / g,
            C=p0[0] / g,
        )


@dataclass(frozen=True)
class FmSolution:
    """Exponent pair for a problem at quantum number n."""

    problem: FmProblem
    n: int
    k4: float
    k5: float


def fm_exponents(problem: FmProblem) -> tuple[float, float]:
    """Exponents (k4, k5) of the normalizable solution.

    k4 = [1 - k1 + sqrt((1 - k1)^2 - 4C)] / 2 and k5 takes the matching
    positive square-root branch; the negative branches correspond to
    non-normalizable solutions and are not produced.
    """
    rad4 = (1.0 - problem.k1) ** 2 - 4.0 * problem.C
    if rad4 < 0.0:
        raise NoBoundStateError("no real exponent k4", rad4)
    k4 = 0.5 * (1.0 - problem.k1 + math.sqrt(rad4))

    base = 0.5 + 0.5 * problem.k1 - problem.k2 / (2.0 * problem.k3)
    rad5 = base * base - (problem.A / problem.k3**2 + problem.B / problem.k3 + problem.C)
    if rad5 < 0.0:
        raise NoBoundStateError("no real exponent k5", rad5)
    k5 = base + math.sqrt(rad5)
    return k4, k5


def fm_solution(problem: FmProblem, n: int) -> FmSolution:
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    k4, k5 = fm_exponents(problem)
    return FmSolution(problem=problem, n=n, k4=k4, k5=k5)


def _quantization_target(problem: FmProblem, n: int) -> float:
    rad = (problem.k3 - problem.k2) ** 2 - 4.0 * problem.A
    if rad < 0.0:
        raise ValueError(f"quantization radicand is negative ({rad!r})")
    return (1.0 - 2.0 * n) / 2.0 - (problem.k2 - math.sqrt(rad)) / (2.0 * problem.k3)


def fm_quantization_residual(problem: FmProblem, n: int) -> float:
    """(k4 + k5) minus the quantized value; zero at an admissible energy.

    Shifting n -> n + 1 raises the residual by exactly 1, so roots in the
    energy-like parameters hidden in (A, B, C) separate cleanly by n.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    k4, k5 = fm_exponents(problem)
    return (k4 + k5) - _quantization_target(problem, n)


def fm_closed_condition(problem: FmProblem, n: int) -> float:
    """Closed quartic-style form of the quantization condition.

    Evaluates ((k4^2 - k5^2 - Q^2) / (2 Q))^2 - k5^2 with Q the quantized
    target; vanishes whenever `fm_quantization_residual` does.  Kept as a
    cross-check predicate only; the linear residual is what gets solved.
    """
    k4, k5 = fm_exponents(problem)
    q = _quantization_target(problem, n)
    return ((k4 * k4 - k5 * k5 - q * q) / (2.0 * q)) ** 2 - k5 * k5


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


def _power(base: float, exponent: float) -> float:
    # 0**negative diverges; report it as a domain problem instead of ZeroDivisionError
    if base == 0.0 and exponent < 0.0:
        raise ValueError("wavefunction diverges at an endpoint (negative exponent)")
    return base**exponent


def fm_wavefunction(problem: FmProblem, n: int, s: float) -> float:
    """Unnormalized bound-state solution at s in [0, 1/k3].

    s^k4 (1 - k3 s)^k5 2F1(-n, n + 2(k4 + k5) + k2/k3 - 1; 2 k4 + k1; k3 s).
    Meaningful when the quantization residual vanishes for (problem, n).
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not (s >= 0.0 and problem.k3 * s <= 1.0):  # written so that NaN fails
        raise ValueError("s must satisfy 0 <= s and k3*s <= 1")
    k4, k5 = fm_exponents(problem)
    b = n + 2.0 * (k4 + k5) + problem.k2 / problem.k3 - 1.0
    c = 2.0 * k4 + problem.k1
    poly = hyp2f1_terminating(n, b, c, problem.k3 * s)
    return _power(s, k4) * _power(1.0 - problem.k3 * s, k5) * poly
