"""Relativistic and nonrelativistic energy spectra of the deformed oscillator.

The relativistic levels solve an implicit quantization condition; it is
written here as a fixed-point relation for the energy above rest mass,

    delta = (hbar omega m / 2) [ (2n+1) sqrt(hbar^2 eta^2 omega^2 / 4
            + 2 / (m (delta + 2m))) + hbar eta omega (n^2 + n + 1/2) ],

which at eta = 0 reduces smoothly to the undeformed limit, so deformed and
undeformed systems share one formula.  Squared, the relation becomes a cubic
whose one positive root, taken in closed form, is the level; the unsquared
relation, delta - map(delta), is its residual.  Working in delta = E - m
keeps the condition well conditioned from light to heavy rest masses and
for deformations down to eta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fm import _require_n
from .gup import DeformedAlgebra, OscillatorSystem

__all__ = [
    "SpectrumResult",
    "SolverError",
    "energy_relativistic",
    "energy_nonrel",
    "ratio_sweep",
]


class SolverError(RuntimeError):
    """A level, or a quantity it is formed from, leaves the double range."""


@dataclass(slots=True)
class SpectrumResult:
    """One level.

    ``delta`` is the level above the rest mass, E - m, as the relativistic
    solve forms it, before m + delta rounds it away for a heavy mass; on the
    nonrelativistic branch it is the level itself.  ``residual`` is the
    quantization condition in its fixed-point (energy units) arrangement,
    delta - map(delta), evaluated at the returned level.  A plain record, so
    unhashable; `dataclasses.replace` gives a modified copy.
    """

    n: int
    energy: float
    delta: float
    residual: float


def _displacement(system: OscillatorSystem, n: int, delta: float) -> float:
    """h(delta) = delta - map(delta), valid for eta >= 0.

    map(delta) = a (K s + b c) with a = hbar omega m / 2, b = hbar eta omega,
    K = 2n + 1, c = n^2 + n + 1/2 and s = sqrt(b^2/4 + 2 / (m x)), x = delta + 2m.
    h' = 1 + a K / (m x^2 s) >= 1, so |h| bounds the distance to the root.  s is
    formed as hypot(b/2, sqrt(1/m) / sqrt(x/2)), which neither m x nor 2m can
    overflow.
    """
    m = system.mass
    hw = system.algebra.hbar * system.omega
    b = hw * system.algebra.eta
    s = math.hypot(0.5 * b, math.sqrt(1.0 / m) / math.sqrt(0.5 * delta + m))
    return delta - 0.5 * m * (hw * ((2 * n + 1) * s + b * (n * n + n + 0.5)))


def energy_relativistic(system: OscillatorSystem, n: int) -> SpectrumResult:
    """Relativistic level E_R > m for quantum number n, in closed form.

    With a, b, K, c as in `_displacement`, delta = a b c + a K s squares to
    (y^2 - q^2)(y + P) = 2 a^2 K^2 / m in y = delta - a b c, where
    q = a K b / 2 and P = a b c + 2m, for every eta >= 0.  In z = y / P it reads
    (z^2 - Q^2)(z + 1) = U with Q = q / P <= 1 and sqrt(U) = K sqrt(a hbar omega / P) / P.
    The roots multiply to sigma^2 = Q^2 + U > 0 and their pairwise products sum
    to -Q^2, so exactly one is positive, and it is the level.  Cardano gives a
    lone real root.  With three, the trigonometric form gives the largest one
    directly when it is >= 1/3; below, the level follows from the most
    negative root z0 and the quadratic left, scaled by sigma, without
    cancellation.  The returned residual is h at the level; h' >= 1 makes it a
    bound on the error in delta.  Raises `SolverError` where the level, P, U^2
    or sigma leaves the double range, which includes rest masses below about
    4e-78 (2n + 1) hbar omega, so no level or residual is ever inf or NaN.
    """
    n = _require_n(n)
    m = system.mass
    hw = system.algebra.hbar * system.omega
    b = hw * system.algebra.eta
    k = 2 * n + 1
    abc = m * (0.5 * hw * b * (n * n + n + 0.5))
    half_p = 0.5 * abc + m  # P / 2, finite wherever the level is; not finite where abc is not
    if not math.isfinite(half_p):
        raise SolverError(f"level n={n} overflows at mass {m!r}: a b c = {abc!r}")
    a_p = 0.25 * hw * (m / half_p)  # a / P
    q = 0.5 * a_p * k * b
    w = q * q
    root_u = 0.5 * k * math.sqrt(a_p * hw) / half_p
    u = root_u * root_u
    # depressed form t^3 + p t + r = 0 in t = z + 1/3; its discriminant r^2/4 + p^3/27
    # expanded, so that its sign survives sigma << 1
    p = -w - 1.0 / 3.0
    r = 2.0 / 27.0 - 2.0 * w / 3.0 - u
    disc = -(w * (1.0 - w) * (1.0 - w) + u * (1.0 - 9.0 * w) - 6.75 * u * u) / 27.0
    if not math.isfinite(disc):
        raise SolverError(f"level n={n}: U^2 leaves the double range at mass {m!r} (U = {u!r})")
    if disc > 0.0:
        c = math.cbrt(-0.5 * r - math.copysign(math.sqrt(disc), r))
        z = c - p / (3.0 * c) - 1.0 / 3.0
    else:
        rad = 2.0 * math.sqrt(-p / 3.0)
        angle = math.acos(max(-1.0, min(1.0, 1.5 * r / p * math.sqrt(-3.0 / p)))) / 3.0
        z = rad * math.cos(angle) - 1.0 / 3.0
        if z < 1.0 / 3.0:
            # the other two roots solve v^2 + (z0 + 1) v - sigma^2 / |z0| = 0,
            # and z0 + 1 = U / (z0^2 - Q^2) without its cancellation
            z0 = rad * math.cos(angle + 2.0 * math.pi / 3.0) - 1.0 / 3.0
            sigma = math.hypot(q, root_u)
            if sigma == 0.0:
                raise SolverError(f"level n={n}: Q and sqrt(U) both underflow at mass {m!r}")
            g = root_u / sigma * root_u / (z0 * z0 - w)
            z = 2.0 * sigma / -z0 / (g + math.sqrt(g * g - 4.0 / z0))
    delta = abc + half_p * (2.0 * z)
    residual = _displacement(system, n, delta)
    energy = m + delta
    if not (math.isfinite(energy) and math.isfinite(residual)):
        raise SolverError(f"level n={n} is not a finite double: energy={energy!r}, residual={residual!r}")
    return SpectrumResult(n, energy, delta, residual)


def _nr_level(hw: float, half: float, root: float, n: int) -> float:
    """hbar omega [(1/2 + n + n^2) half + (n + 1/2) root], the closed-form level.

    hw = hbar omega, half = hbar eta m omega / 2 and root = hypot(half, 1);
    raises `SolverError` where the level overflows.
    """
    energy = hw * ((0.5 + n + n * n) * half + (n + 0.5) * root)
    if not math.isfinite(energy):
        raise SolverError(f"closed-form level n={n} overflows: hbar eta m omega / 2 = {half!r}")
    return energy


def energy_nonrel(system: OscillatorSystem, n: int) -> SpectrumResult:
    """Closed-form nonrelativistic level.

    E_n = hbar omega [ (1/2 + n + n^2) hbar mu eta omega / 2
                       + (n + 1/2) sqrt(hbar^2 eta^2 mu^2 omega^2 / 4 + 1) ],

    which is hbar omega (n + 1/2) at eta = 0 and grows like (n + 1)^2 for
    large deformation.
    """
    n = _require_n(n)
    alg = system.algebra
    half = 0.5 * alg.hbar * alg.eta * system.mass * system.omega
    energy = _nr_level(alg.hbar * system.omega, half, math.hypot(half, 1.0), n)
    return SpectrumResult(n, energy, energy, 0.0)


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
    xi it approaches (n + 1)^2.  Each n's factors 1/2 + n + n^2 and n + 1/2
    are formed once per call, and E_n inline from them in `_nr_level`'s float
    operations, so E_n and E_0 equal `energy_nonrel` at that eta bit for bit
    (`test_rows_equal_energy_nonrel`).  mass, omega, hbar and gamma are
    checked once per call by the system it builds, and read back from it as
    Python floats, and each n by `fm._require_n` as a Python int, so an empty
    xi_grid is checked too; a negative or NaN xi raises ``ValueError``, each
    xi is taken as a float, and one whose eta or level leaves the double
    range raises `SolverError`.
    """
    system = OscillatorSystem(mass, omega, DeformedAlgebra(eta=0.0, gamma=gamma, hbar=hbar))
    mass, omega, hbar = system.mass, system.omega, system.algebra.hbar
    factors = [(n, 0.5 + n + n * n, n + 0.5) for n in map(_require_n, n_values)]
    hw = hbar * omega
    rows = []
    for xi in xi_grid:
        if not xi >= 0.0:
            raise ValueError("xi values must be nonnegative")
        xi = float(xi)
        scaled = xi / hbar
        eta = scaled * scaled
        if math.isinf(eta):
            raise SolverError(f"xi = {xi!r} gives eta = (xi a0 / hbar)^2 beyond the double range")
        half = 0.5 * hbar * eta * mass * omega
        root = math.hypot(half, 1.0)
        e0 = _nr_level(hw, half, root, 0)
        for n, quad, lin in factors:
            en = hw * (quad * half + lin * root)
            if not math.isfinite(en):
                raise SolverError(f"closed-form level n={n} overflows: hbar eta m omega / 2 = {half!r}")
            rows.append((xi, n, en, e0, en / e0))
    return rows
