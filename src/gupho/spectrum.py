"""Relativistic and nonrelativistic energy spectra of the deformed oscillator.

The relativistic levels solve an implicit quantization condition; it is
written here as a fixed-point relation for the energy above rest mass,

    delta = (hbar omega m / 2) [ (2n+1) sqrt(hbar^2 eta^2 omega^2 / 4
            + 2 / (m (delta + 2m))) + hbar eta omega (n^2 + n + 1/2) ],

which at eta = 0 reduces smoothly to the undeformed limit, so deformed and
undeformed systems share one solver: safeguarded Newton on delta - map(delta)
with the analytic derivative.  Squared, the relation becomes a cubic in
delta whose closed-form root cross-checks the solver in `checks`.  Working
in delta = E - m keeps the condition well conditioned even for rest masses
of 1e6 and deformations down to 1e-12.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .gup import DeformedAlgebra, OscillatorSystem

__all__ = [
    "SpectrumResult",
    "SolverError",
    "rel_residual",
    "energy_relativistic",
    "energy_nonrel",
    "nr_limit_of_relativistic",
    "ratio_sweep",
    "BOHR_RADIUS",
]

# Bohr-radius unit for the ratio sweep, pinned to 1 in natural units.
BOHR_RADIUS = 1.0

_MAX_ITER = 200
# relative tolerance on the displacement delta - map(delta) (energy units)
_RTOL = 1e-14
# acceptance gate when iteration can no longer improve
_GATE = 1e-12


class SolverError(RuntimeError):
    """Energy solve failed to converge, or a level is not a finite double.

    The message carries bracket diagnostics.
    """


@dataclass(frozen=True)
class SpectrumResult:
    """One converged level.

    ``residual`` is the quantization condition in its fixed-point (energy
    units) arrangement, delta - map(delta), evaluated at the returned energy;
    the dimensionless arrangement is available as `rel_residual`.
    """

    n: int
    energy: float
    residual: float
    iterations: int
    method: str  # "newton" (relativistic) | "closed_form" (nonrelativistic)


def rel_residual(system: OscillatorSystem, n: int, energy: float) -> float:
    """Dimensionless quantization condition at a trial relativistic energy.

    2 (E - m) / (hbar^2 eta m omega^2)
      - (2n+1) sqrt(1/4 + 2 / (hbar^2 eta^2 m omega^2 (E + m)))
      - 1/4 - (1/2 + n)^2.

    Strictly increasing in E above the rest mass, so it has a single root.
    """
    alg = system.algebra
    alg._require_deformed()
    m = system.mass
    if not energy + m > 0.0:
        raise ValueError("requires energy + mass > 0")
    hw2 = alg.hbar**2 * m * system.omega**2
    root = math.sqrt(0.25 + 2.0 / (hw2 * alg.eta**2 * (energy + m)))
    return 2.0 * (energy - m) / (hw2 * alg.eta) - (2 * n + 1) * root - 0.25 - (0.5 + n) ** 2


def _displacement(system: OscillatorSystem, n: int, delta: float) -> tuple[float, float]:
    """h(delta) = delta - map(delta) and its slope h'(delta); valid for eta >= 0.

    map(delta) = a K s + a b c with a = hbar omega m / 2, b = hbar eta omega,
    K = 2n + 1, c = n^2 + n + 1/2 and s = sqrt(b^2/4 + 2 / (m x)), x = delta + 2m,
    so h' = 1 + a K / (m x^2 s).  h is increasing and concave.
    """
    m = system.mass
    hw = system.algebra.hbar * system.omega
    b = hw * system.algebra.eta
    ak = 0.5 * hw * m * (2 * n + 1)
    x = delta + 2.0 * m
    s = math.sqrt(0.25 * b * b + 2.0 / (m * x))
    disp = delta - (ak * s + 0.5 * hw * m * b * (n * n + n + 0.5))
    return disp, 1.0 + ak / (m * x * x * s)


def _solve_newton(system: OscillatorSystem, n: int) -> tuple[float, float, int]:
    """Newton on h over the bracket [0, map(0)], bisecting whenever it leaves it.

    h(0) = -map(0) < 0 and h(map(0)) >= 0 because map is decreasing.  Started
    at the upper end, Newton on the increasing concave h lands left of the
    root and then climbs to it monotonically.
    """
    lo = 0.0
    delta = hi = -_displacement(system, n, 0.0)[0]
    for it in range(1, _MAX_ITER + 1):
        disp, slope = _displacement(system, n, delta)
        if abs(disp) <= _RTOL * max(1.0, abs(delta)):
            return delta, disp, it
        if disp < 0.0:
            lo = delta
        else:
            hi = delta
        step = delta - disp / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == delta:
            break  # no representable step is left
        delta = step
    disp = _displacement(system, n, delta)[0]
    if abs(disp) <= _GATE * max(1.0, abs(delta)):
        return delta, disp, it
    raise SolverError(
        f"Newton iteration stalled after {it} iterations at n={n}: "
        f"bracket=({lo!r}, {hi!r}), displacement={disp!r}"
    )


def energy_relativistic(system: OscillatorSystem, n: int) -> SpectrumResult:
    """Relativistic level E_R > m for quantum number n.

    Safeguarded Newton iteration on h(delta) = delta - map(delta), at most 7
    iterations at hbar = 1 for eta <= 1e3, 1 <= m <= 1e6, 0.1 <= omega <= 10,
    n <= 100; eta = 0 goes through the smooth limit of the map.  The `verify`
    suite checks the levels against the closed-form root of the squared
    condition.  Raises `SolverError` when the solve stalls, or where the
    map leaves the double range (rest masses below about 1e-108, where
    m (delta + 2m)^2 underflows at delta = 0), so no level or residual is
    ever inf or NaN.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    try:
        delta, disp, iters = _solve_newton(system, n)
    except ZeroDivisionError as exc:
        raise SolverError(f"level n={n} leaves the double range at mass {system.mass!r}") from exc
    energy = system.mass + delta
    if not (math.isfinite(energy) and math.isfinite(disp)):
        raise SolverError(f"level n={n} is not a finite double: energy={energy!r}, residual={disp!r}")
    return SpectrumResult(n=n, energy=energy, residual=disp, iterations=iters, method="newton")


def energy_nonrel(system: OscillatorSystem, n: int) -> SpectrumResult:
    """Closed-form nonrelativistic level.

    E_n = hbar omega [ (1/2 + n + n^2) hbar mu eta omega / 2
                       + (n + 1/2) sqrt(hbar^2 eta^2 mu^2 omega^2 / 4 + 1) ],

    which is hbar omega (n + 1/2) at eta = 0 and grows like (n + 1)^2 for
    large deformation.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    alg = system.algebra
    half = 0.5 * alg.hbar * alg.eta * system.mass * system.omega
    energy = alg.hbar * system.omega * (
        (0.5 + n + n * n) * half + (n + 0.5) * math.hypot(half, 1.0)
    )
    if not math.isfinite(energy):
        raise SolverError(f"closed-form level n={n} overflows: hbar eta m omega / 2 = {half!r}")
    return SpectrumResult(n=n, energy=energy, residual=0.0, iterations=0, method="closed_form")


def nr_limit_of_relativistic(system: OscillatorSystem, n: int) -> float:
    """E_R - m from the relativistic solver, for comparison with `energy_nonrel`.

    Meaningful when the rest energy dominates; warns if mass < 1e3 hbar omega.
    The comparison keeps eta fixed across the limit and degrades once
    hbar eta omega m approaches 1.
    """
    alg = system.algebra
    if system.mass < 1e3 * alg.hbar * system.omega:
        warnings.warn(
            "mass is not large compared to hbar*omega; the nonrelativistic "
            "limit will be inaccurate",
            stacklevel=2,
        )
    result = energy_relativistic(system, n)
    return result.energy - system.mass


def ratio_sweep(
    mass: float,
    omega: float,
    hbar: float,
    gamma: float,
    n_values: list[int],
    xi_grid: list[float],
) -> list[tuple[float, int, float, float, float]]:
    """Level-to-ground-state ratios versus minimal length xi = hbar sqrt(eta) / a0.

    Uses the nonrelativistic spectrum with the Bohr-radius unit a0 = 1, so
    eta = (xi a0 / hbar)^2.  Emits one row (xi, n, E_n, E_0, E_n/E_0) per
    (xi, n) pair; at xi = 0 the ratio column is exactly 2n + 1, and for large
    xi it approaches (n + 1)^2.  An xi whose eta leaves the double range
    raises `SolverError`.
    """
    rows = []
    for xi in xi_grid:
        if xi < 0.0:
            raise ValueError("xi values must be nonnegative")
        scaled = xi * BOHR_RADIUS / hbar
        eta = scaled * scaled
        if math.isinf(eta):
            raise SolverError(f"xi = {xi!r} gives eta = (xi a0 / hbar)^2 beyond the double range")
        system = OscillatorSystem(mass, omega, DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar))
        e0 = energy_nonrel(system, 0).energy
        for n in n_values:
            en = energy_nonrel(system, n).energy
            rows.append((float(xi), int(n), en, e0, en / e0))
    return rows
