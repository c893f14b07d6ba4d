"""Minimal-length model: deformed algebra, transforms, and reduction to the standard form.

The commutator [x, p] = i hbar (1 + eta p^2) implies a smallest resolvable
length hbar sqrt(eta).  In momentum space the position operator carries an
arbitrary representation parameter gamma that enters only through the weight
of the scalar product, never the spectrum.  The oscillator problem reduces,
through the chain p -> rho -> s = (1 - rho)/2, to the standard form of `fm`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .fm import FmProblem

__all__ = [
    "DeformedAlgebra",
    "OscillatorSystem",
    "UndeformedBranchError",
    "DegenerateModelError",
    "QuadratureAccuracyError",
    "minimal_length",
    "uncertainty_bound",
    "scalar_weight",
    "rho_of_p",
    "p_of_rho",
    "tilde_params",
    "fm_problem_of",
    "v_exponent",
    "nr_parameters",
]


class UndeformedBranchError(ValueError):
    """A deformed-only quantity was requested at eta = 0.

    The transform chain divides by eta; callers must use the closed-form
    undeformed limits instead.
    """


class DegenerateModelError(ValueError):
    """Derived model parameters are unusable.

    The weight order or prefactor exponent is not positive, or a standard-form
    coefficient overflows (chiefly where eta^2 underflows).
    """


class QuadratureAccuracyError(RuntimeError):
    """A norm integral or overlap is not a finite normal double, chiefly where 4^(-2v) underflows."""


@dataclass(frozen=True)
class DeformedAlgebra:
    """Deformation parameter eta (1/momentum^2), representation parameter gamma, hbar."""

    eta: float
    gamma: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be finite and >= 0")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be finite and > 0")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @property
    def deformed(self) -> bool:
        return self.eta > 0.0

    @property
    def alpha(self) -> float:
        """Weight exponent gamma/eta of the momentum-space scalar product."""
        self._require_deformed()
        return self.gamma / self.eta

    def _require_deformed(self) -> None:
        if self.eta == 0.0:
            raise UndeformedBranchError(
                "operation is defined only for eta > 0; use the undeformed branch"
            )


@dataclass(frozen=True)
class OscillatorSystem:
    """Oscillator of a given mass (reduced mass in the nonrelativistic case) and frequency."""

    mass: float
    omega: float
    algebra: DeformedAlgebra

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError("mass must be finite and > 0")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be finite and > 0")


def minimal_length(algebra: DeformedAlgebra) -> float:
    """Smallest position uncertainty hbar sqrt(eta)."""
    return algebra.hbar * math.sqrt(algebra.eta)


def uncertainty_bound(algebra: DeformedAlgebra, delta_p: float) -> float:
    """Lower bound on delta_x: (hbar/2) (1/delta_p + eta delta_p).

    Minimized over delta_p (at 1/sqrt(eta)) this reproduces `minimal_length`.
    """
    if not delta_p > 0.0:
        raise ValueError("delta_p must be > 0")
    return 0.5 * algebra.hbar * (1.0 / delta_p + algebra.eta * delta_p)


def scalar_weight(algebra: DeformedAlgebra, p: float) -> float:
    """Measure weight (1 + eta p^2)^(alpha - 1) of the scalar product.

    Formed as hypot(1, sqrt(eta) p)^(2 (alpha - 1)), so p is never squared;
    where the weight is not a normal double ``ValueError`` is raised.
    """
    algebra._require_deformed()
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    try:
        weight = math.hypot(1.0, math.sqrt(algebra.eta) * p) ** (2.0 * (algebra.alpha - 1.0))
    except OverflowError:
        weight = math.inf
    if not sys.float_info.min <= weight < math.inf:
        raise ValueError(f"measure weight at p = {p!r} is not a normal double")
    return weight


def rho_of_p(algebra: DeformedAlgebra, p):
    """Compact momentum coordinate rho = p sqrt(eta) / sqrt(1 + eta p^2) in (-1, 1).

    Accepts a scalar or an ndarray of finite momenta.  A Python ``float`` or
    ``int`` is evaluated with `math` and gives a ``float``; anything else is
    evaluated by numpy, which is imported only then.
    """
    algebra._require_deformed()
    if type(p) is float or type(p) is int:
        finite, hypot = math.isfinite(p), math.hypot
    else:
        import numpy as np

        finite, hypot = np.all(np.isfinite(p)), np.hypot
    if not finite:
        raise ValueError("p must be finite")
    t = p * math.sqrt(algebra.eta)
    # hypot(1, t) = sqrt(1 + t^2) without squaring t, which overflows for |t| >~ 1e154
    return t / hypot(1.0, t)


def p_of_rho(algebra: DeformedAlgebra, rho: float) -> float:
    """Inverse of `rho_of_p`: p = rho / (sqrt(eta) sqrt(1 - rho^2))."""
    algebra._require_deformed()
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    return rho / (math.sqrt(algebra.eta) * math.sqrt(1.0 - rho * rho))


def tilde_params(system: OscillatorSystem, energy_rel: float) -> tuple[float, float]:
    """Coefficient pair (A~, B~) of the reduced momentum-space wave equation.

    A~ = 2 / (hbar^2 m omega^2 (E + m)) - gamma (gamma + eta)
    B~ = -(2 (E^2 - m^2) / (hbar^2 m omega^2 (E + m)) + gamma)
       = -(2 (E - m) / (hbar^2 m omega^2) + gamma),

    formed in the second arrangement, which squares neither E nor m and so
    stays finite for rest masses up to the double range.
    """
    m = system.mass
    if not energy_rel + m > 0.0:
        raise ValueError("requires energy_rel + mass > 0")
    alg = system.algebra
    hw2 = alg.hbar**2 * m * system.omega**2
    a_tilde = 2.0 / (hw2 * (energy_rel + m)) - alg.gamma * (alg.gamma + alg.eta)
    b_tilde = -(2.0 * (energy_rel - m) / hw2 + alg.gamma)
    return a_tilde, b_tilde


def fm_problem_of(system: OscillatorSystem, energy_rel: float) -> FmProblem:
    """Map the oscillator at trial energy onto the standard-form coefficients.

    k1 = 1/2 - gamma/eta, k2 = 2 k1, k3 = 1, A = (B~ eta - A~)/eta^2 = -B,
    C = -A~ / (4 eta^2).
    """
    alg = system.algebra
    alg._require_deformed()
    a_tilde, b_tilde = tilde_params(system, energy_rel)
    k1 = 0.5 - alg.gamma / alg.eta
    a_coef = (b_tilde * alg.eta - a_tilde) / alg.eta**2
    c_coef = -a_tilde / (4.0 * alg.eta**2)
    if not all(math.isfinite(v) for v in (k1, a_coef, c_coef)):
        raise DegenerateModelError(
            f"standard-form coefficients overflow at eta = {alg.eta!r}: "
            f"k1 = {k1!r}, A = {a_coef!r}, C = {c_coef!r}"
        )
    return FmProblem(k1=k1, k2=2.0 * k1, k3=1.0, A=a_coef, B=-a_coef, C=c_coef)


def v_exponent(system: OscillatorSystem, energy_rel: float) -> float:
    """Closed form of the common exponent k4 = k5 for the oscillator problem.

    1/4 + gamma/(2 eta) + (1/2) sqrt(1/4 + 2/(m omega^2 eta^2 hbar^2 (E + m))).
    Agrees with `fm_exponents(fm_problem_of(...))` componentwise.
    """
    alg = system.algebra
    alg._require_deformed()
    m = system.mass
    if not energy_rel + m > 0.0:
        raise ValueError("requires energy_rel + mass > 0")
    rad = 0.25 + 2.0 / (m * system.omega**2 * alg.eta**2 * alg.hbar**2 * (energy_rel + m))
    return 0.25 + alg.gamma / (2.0 * alg.eta) + 0.5 * math.sqrt(rad)


def nr_parameters(system: OscillatorSystem) -> tuple[float, float]:
    """Nonrelativistic prefactor exponent v and Gegenbauer order lam = 2v - gamma/eta.

    v = 1/4 + gamma/(2 eta) + (1/2) sqrt(1/4 + 1/(mu omega eta hbar)^2); the
    gamma shift cancels in lam, which is therefore >= 1 for physical inputs.
    """
    alg = system.algebra
    alg._require_deformed()
    # hypot(1/2, 1/x) = sqrt(1/4 + 1/x^2) without squaring x, which overflows for x >~ 1e154
    root = math.hypot(0.5, 1.0 / (system.mass * system.omega * alg.eta * alg.hbar))
    v = 0.25 + alg.gamma / (2.0 * alg.eta) + 0.5 * root
    lam = 2.0 * v - alg.gamma / alg.eta
    if lam <= 0.0:
        raise DegenerateModelError(f"weight order lam = {lam!r} must be positive")
    return v, lam
