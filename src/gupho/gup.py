"""Minimal-length model: deformed algebra, transforms, and reduction to the standard form.

The commutator [x, p] = i hbar (1 + eta p^2) implies a smallest resolvable
length hbar sqrt(eta).  In momentum space the position operator carries an
arbitrary representation parameter gamma that enters only through the weight
of the scalar product, never the spectrum.  `wave_params` maps a level of
either branch, given as delta = E - m and E + m (2m on the nonrelativistic
branch), onto its momentum-space wave equation (v, lam, A^, B^), which sees the
system only through kappa = hbar eta m omega, alpha = gamma / eta and
delta / (hbar omega); through the chain p -> rho -> s = (1 - rho)/2 that
equation is the standard form of `fm`, which `_fm_problem` reads from the
mapped (A^, B^), so a caller that also needs v and lam maps the level once.
"""

from __future__ import annotations

import math
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
    "rho_of_p",
    "p_of_rho",
    "wave_params",
    "fm_problem_of",
]


class UndeformedBranchError(ValueError):
    """A deformed-only quantity was requested at eta = 0.

    The transform chain divides by eta; callers must use the closed-form
    undeformed limits instead.
    """


class DegenerateModelError(ValueError):
    """Derived model parameters are unusable.

    The prefactor exponent v is not positive, or a coefficient overflows
    (chiefly where kappa = hbar eta m omega is below about 1e-154).  The
    weight order lam = 1/2 + hypot(1/2, r) of `wave_params` is at least 1.
    """


class QuadratureAccuracyError(RuntimeError):
    """A norm integral or overlap is not a finite normal double, chiefly where 4^(-2v) underflows."""


def _store_float(record, name: str, sign: str = "") -> None:
    """Check a model record's field, finite as a double and of `sign` ("> 0", ">= 0" or any); store it as a float."""
    value = getattr(record, name)
    value = float(value) if math.isfinite(value) else math.nan  # any real number, numpy's included; a str raises
    if not (value > 0.0 or (value == 0.0 and sign != "> 0") or (value < 0.0 and not sign)):
        raise ValueError(f"{name} must be finite" + (f" and {sign}" if sign else ""))
    object.__setattr__(record, name, value)


@dataclass(frozen=True)
class DeformedAlgebra:
    """Deformation parameter eta (1/momentum^2), representation parameter gamma, hbar; each held as a Python float."""

    eta: float
    gamma: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _store_float(self, "eta", ">= 0")
        _store_float(self, "hbar", "> 0")
        _store_float(self, "gamma")

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
    """Oscillator of a given mass (reduced mass in the nonrelativistic case) and frequency, held as Python floats."""

    mass: float
    omega: float
    algebra: DeformedAlgebra

    def __post_init__(self) -> None:
        _store_float(self, "mass", "> 0")
        _store_float(self, "omega", "> 0")


def minimal_length(algebra: DeformedAlgebra) -> float:
    """Smallest position uncertainty hbar sqrt(eta)."""
    return algebra.hbar * math.sqrt(algebra.eta)


def uncertainty_bound(algebra: DeformedAlgebra, delta_p: float) -> float:
    """Lower bound on delta_x: (hbar/2) (1/delta_p + eta delta_p).

    Minimized over delta_p (at 1/sqrt(eta)) this reproduces `minimal_length`.
    """
    if not 0.0 < delta_p < math.inf:
        raise ValueError("delta_p must be finite and > 0")
    return 0.5 * algebra.hbar * (1.0 / delta_p + algebra.eta * delta_p)


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


def _require_rho(rho):
    """rho, checked to lie in (-1, 1) with NaN rejected: a Python number, or elementwise any numpy value."""
    inside = abs(rho) < 1.0
    if not (inside if type(inside) is bool else inside.all()):
        raise ValueError("rho must lie in (-1, 1)")
    return rho


def p_of_rho(algebra: DeformedAlgebra, rho: float) -> float:
    """Inverse of `rho_of_p`: p = rho / (sqrt(eta) sqrt(1 - rho^2))."""
    algebra._require_deformed()
    _require_rho(rho)
    return rho / (math.sqrt(algebra.eta) * math.sqrt(1.0 - rho * rho))


def wave_params(system: OscillatorSystem, delta: float, e_plus_m: float) -> tuple[float, float, float, float]:
    """Map a level onto its scale-free momentum-space wave equation: (v, lam, A^, B^).

    delta is the level above the rest mass and e_plus_m is E + m: 2m + delta
    on the relativistic branch, and 2m on the nonrelativistic one, whose
    equation is the relativistic one with E + m replaced by 2m (Kempf, Mangano
    and Mann 1995).  With kappa = hbar eta m omega and alpha = gamma / eta,

    r = sqrt(2m / (E + m)) / kappa,  lam = 1/2 + hypot(1/2, r),  v = (lam + alpha) / 2
    A^ = A~ / eta^2 = r^2 - alpha (alpha + 1)
    B^ = B~ / eta = -(2 delta / (hbar omega kappa) + alpha)

    where A~ = 2 / (hbar^2 m omega^2 (E + m)) - gamma (gamma + eta) and
    B~ = -(2 delta / (hbar^2 m omega^2) + gamma) are the coefficients in p.
    v is k4 = k5 of the standard form, and lam the Gegenbauer order of the
    states, formed here only and from r, so it does not cancel against
    alpha; nothing squares E, m or eta.  Raises `DegenerateModelError` where
    kappa underflows to 0 or a parameter overflows, A^ first, at kappa below
    about 1e-154.
    """
    alg = system.algebra
    alpha = alg.alpha  # UndeformedBranchError at eta = 0
    if not (math.isfinite(delta) and 0.0 < e_plus_m < math.inf):
        raise ValueError("requires finite delta and finite E + m > 0")
    m = system.mass
    kappa = m * system.omega * alg.eta * alg.hbar
    if not kappa > 0.0:
        raise DegenerateModelError("hbar eta m omega underflows to 0")
    r = math.sqrt(2.0 * m / e_plus_m) / kappa
    lam = 0.5 + math.hypot(0.5, r)
    v = 0.5 * (lam + alpha)
    a_hat = r * r - alpha * (alpha + 1.0)
    b_hat = -(2.0 * delta / (alg.hbar * system.omega * kappa) + alpha)
    if not (math.isfinite(v) and math.isfinite(a_hat) and math.isfinite(b_hat)):
        raise DegenerateModelError(
            f"wave-equation parameters overflow at kappa = {kappa!r}: "
            f"v = {v!r}, A^ = {a_hat!r}, B^ = {b_hat!r}"
        )
    return v, lam, a_hat, b_hat


def fm_problem_of(system: OscillatorSystem, energy_rel: float) -> FmProblem:
    """The standard form at a trial energy E, with delta = E - m (which keeps only the ulp of a heavy m)."""
    alg = system.algebra
    _, _, a_hat, b_hat = wave_params(system, energy_rel - system.mass, energy_rel + system.mass)
    return _fm_problem(alg.gamma / alg.eta, a_hat, b_hat)  # alpha: wave_params required eta > 0


def _fm_problem(alpha: float, a_hat: float, b_hat: float) -> FmProblem:
    """Standard-form coefficients of a level that `wave_params` mapped to (A^, B^) at alpha = gamma / eta.

    k1 = 1/2 - alpha, k2 = 2 k1, k3 = 1, A = B^ - A^ = -B, C = -A^ / 4.
    The caller maps the level once and reads v and lam from the same tuple.
    """
    k1 = 0.5 - alpha
    a_coef = b_hat - a_hat
    if not math.isfinite(a_coef):
        raise DegenerateModelError(f"standard-form A = B^ - A^ overflows: B^ = {b_hat!r}, A^ = {a_hat!r}")
    return FmProblem(k1, 2.0 * k1, 1.0, a_coef, -a_coef, -0.25 * a_hat)
