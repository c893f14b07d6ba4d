"""Bound-state exponents and quantization condition of a six-coefficient standard form.

The target form is

    psi'' + (k1 - k2 s) / (s (1 - k3 s)) psi'
          + (A s^2 + B s + C) / (s^2 (1 - k3 s)^2) psi = 0,

whose normalizable solutions s^k4 (1 - k3 s)^k5 P_n(s), with P_n a degree-n
polynomial (a terminating 2F1), are fixed by a pair of exponents (k4, k5) and
a linear quantization condition in the quantum number n.  This module gives
the exponents and the residual of that condition.  Nothing here knows about
the deformed oscillator: the mapping onto this form lives in `gup`, and
`states` evaluates the oscillator's polynomial as a Gegenbauer polynomial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

__all__ = [
    "FmProblem",
    "NoBoundStateError",
    "fm_exponents",
    "fm_quantization_residual",
]


class NoBoundStateError(ValueError):
    """An exponent radicand is negative: no real, normalizable solution."""

    def __init__(self, message: str, radicand: float):
        super().__init__(f"{message} (radicand = {radicand!r})")
        self.radicand = radicand


@dataclass(slots=True)
class FmProblem:
    """Coefficients of the standard form; all finite, and k3 nonzero.

    Checked when built, by one `math.isfinite` call per coefficient, not on
    assignment; a plain record, so unhashable.
    """

    k1: float
    k2: float
    k3: float
    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and math.isfinite(self.k2) and math.isfinite(self.k3)
                and math.isfinite(self.A) and math.isfinite(self.B) and math.isfinite(self.C)):
            name = next(f.name for f in fields(self) if not math.isfinite(getattr(self, f.name)))
            raise ValueError(f"standard-form coefficient {name} must be finite")
        if self.k3 == 0.0:
            raise ValueError("standard form requires k3 != 0")


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


def _require_n(n) -> int:
    """The one check of a quantum number: any integer, numpy's included, 0 <= n < 2**53, returned as a Python int."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("n must be a nonnegative integer") from None
    if not 0 <= n < 2**53:
        raise ValueError("n must be a nonnegative integer" + (" below 2**53" if n > 0 else ""))
    return n


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
    n = _require_n(n)
    k4, k5 = fm_exponents(problem)
    return (k4 + k5) - _quantization_target(problem, n)
