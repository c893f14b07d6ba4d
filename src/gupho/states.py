"""Normalized momentum-space eigenstates and their su(1,1) ladder structure.

A state is phi_n(rho) = N ((1 - rho^2)/4)^v C_n^lam(rho), where v and
lam = 2v - gamma/eta come from `gup.wave_params` at the state's level delta,
which forms lam directly.  In rho the weighted momentum overlap of two states is
4^(-v_a - v_b) eta^(-1/2) times the integral of C_na C_nb against the
Gegenbauer weight (1 - rho^2)^(mu - 1/2), mu = (lam_a + lam_b)/2, and
`specfun.gegenbauer_product_integral` gives that integral exactly from
connection coefficients in O(n_a + n_b) Python-float steps, so the overlap
path calls no numpy.  On the diagonal mu = lam, and the norm N follows from
that kernel's own exact diagonal h_n(lam) of `specfun._weight_norms`.

First-order ladder operators shift n by one with coefficients
l- = sqrt(n (2 lam + n - 1)) and l+ = sqrt((n+1) (2 lam + n)); together with
l0 = lam + n they realize the su(1,1) commutation relations, checked on the
coefficient level by `su11_check`.  The Gegenbauer derivative and three-term
relations (DLMF 18.9.1, 18.9.20) collapse both operator brackets, on either
branch, to one neighbouring polynomial:

    lower: (1 - rho^2) phi' + (2v + n) rho phi
           = N ((1 - rho^2)/4)^v (n + 2 lam - 1) C_{n-1}^lam(rho)
    raise: -(1 - rho^2) phi' + (2 lam - 2v + n) rho phi
           = N ((1 - rho^2)/4)^v (n + 1) C_{n+1}^lam(rho)

so `apply_ladder` evaluates them in closed form, and the ladder identity
is one scalar relation per neighbour pair (`_ladder_factor`).

With the envelope (w/4)^v, w = 1 - rho^2, factored out, the wave equation
of either branch is the Gegenbauer equation exactly when three scalar
relations hold (`_wave_relations`), and for n >= 2 only then, so `verify`
reads the equation through those relations, at no momentum.  The second of
them is the quantization condition, which `verify` also reads at the
relativistic levels alone, relative to its terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import specfun
from .fm import _require_n
from .gup import (
    DegenerateModelError,
    OscillatorSystem,
    QuadratureAccuracyError,
    _require_rho,
    wave_params,
)
from .spectrum import energy_nonrel, energy_relativistic

__all__ = [
    "RELATIVISTIC",
    "NONRELATIVISTIC",
    "OscillatorState",
    "LadderCoefficients",
    "Su11Report",
    "QuadratureAccuracyError",
    "make_state",
    "eval_state",
    "weighted_overlap",
    "inner_product",
    "ladder_coeffs",
    "apply_ladder",
    "su11_check",
]

RELATIVISTIC = "relativistic"
NONRELATIVISTIC = "nonrelativistic"


@dataclass(slots=True)
class OscillatorState:
    """One normalized eigenstate, evaluable at rho in (-1, 1); energy and delta are its level's.

    A plain record, so unhashable; `dataclasses.replace` gives a modified copy.
    """

    system: OscillatorSystem
    branch: str
    n: int
    v: float
    lam: float
    norm: float
    energy: float
    delta: float


@dataclass(slots=True)
class LadderCoefficients:
    """Shift coefficients at quantum number n for a given weight order."""

    l_minus: float
    l_plus: float
    l_zero: float


def make_state(system: OscillatorSystem, n: int, branch: str) -> OscillatorState:
    """Build the normalized state for quantum number n on the chosen branch.

    The level comes from `energy_relativistic` or `energy_nonrel`, and v and
    lam from `wave_params` at the level's delta and the branch's E + m.  The
    raw norm integral is 4^(-2v) eta^(-1/2) h_n(lam), with h_n(lam) the integral of
    (1 - rho^2)^(lam - 1/2) C_n^lam(rho)^2, the overlap kernel's diagonal
    (`specfun._weight_norms`), so <s|s> is 1 up to rounding; where 4^(-2v)
    or the integral is not a normal double (first at eta m omega hbar below
    about 2e-3, where 4^(-2v) underflows) `QuadratureAccuracyError` is raised.
    """
    alg = system.algebra
    alg._require_deformed()
    if branch == RELATIVISTIC:
        level = energy_relativistic(system, n)
    elif branch == NONRELATIVISTIC:
        level = energy_nonrel(system, n)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    v, lam, _, _ = wave_params(system, level.delta, _e_plus_m(system, branch, level.delta))
    if not v > 0.0:
        raise DegenerateModelError(f"prefactor exponent v = {v!r} must be positive")
    weight = 4.0 ** (-2.0 * v)
    # a subnormal 4^(-2v) has lost digits
    raw = weight / math.sqrt(alg.eta) * specfun._weight_norms(lam, n)[-1] if weight >= sys.float_info.min else 0.0
    if not sys.float_info.min <= raw < math.inf:
        raise QuadratureAccuracyError(f"raw norm integral is not a normal double: {raw!r}")
    return OscillatorState(system, branch, n, v, lam, 1.0 / math.sqrt(raw), level.energy, level.delta)


def _e_plus_m(system: OscillatorSystem, branch: str, delta: float) -> float:
    """E + m of the branch's wave equation: 2m + delta, or 2m on the nonrelativistic branch."""
    return 2.0 * system.mass + (delta if branch == RELATIVISTIC else 0.0)


def _envelope(state: OscillatorState, x):
    """norm ((1 - rho^2)/4)^v, the state without its polynomial."""
    return state.norm * ((1.0 - x * x) / 4.0) ** state.v


def eval_state(state: OscillatorState, rho):
    """phi_n(rho) = norm ((1 - rho^2)/4)^v C_n^lam(rho).

    A Python ``float`` or ``int`` rho is evaluated in Python floats and
    returns a ``float``; an ndarray or numpy scalar returns the same type,
    with float dtypes (including longdouble) passed through.  rho must lie
    in (-1, 1); anything else, NaN included, raises ``ValueError``.
    """
    x = _require_rho(specfun.as_float(rho))
    return _envelope(state, x) * specfun._gegenbauer(state.n, state.lam, x)


def _wave_relations(n: int, alpha: float, v: float, lam: float, a_hat: float, b_hat: float) -> tuple:
    """The wave equation's three coefficient relations at a level, as (defect, scale) pairs.

    The reduced momentum-space wave equation of either branch is
    phi'' + 2 (gamma + eta) p / (1 + eta p^2) phi' - (B~ + p^2 A~) / (1 + eta p^2)^2 phi = 0;
    the nonrelativistic one (Kempf, Mangano and Mann 1995) is the
    relativistic one with E + m replaced by 2m.  With w = 1 - rho^2,
    C = C_n^lam(rho), alpha = gamma / eta and w^2 C'' from the Gegenbauer
    equation, its left side is, at any state,
    N (w/4)^v w eta [2 e_lam rho (w C') - e_n w C + e_v rho^2 C], which
    vanishes at every rho when the weight order e_lam = lam - 2v + alpha,
    the quantization e_n = n (n + 2 lam) + 2v + B^ and the exponent
    e_v = 4v (v - 1/2 - alpha) - A^ all vanish, and for n >= 2 only then
    (at n = 0 C' = 0, and at n = 1 w C' = w C / rho).  e_n is the
    quantization condition
    n^2 + n + 1/2 + (2n + 1) hypot(1/2, r) - 2 delta / (hbar omega kappa),
    with alpha cancelling between 2v and B^; it grows by 2 lam + 2n + 1
    from n to n + 1.  Each scale is the sum of the magnitudes of its
    relation's terms.
    """
    eigenvalue = n * (n + 2.0 * lam)  # of the Gegenbauer operator
    return (
        (lam - 2.0 * v + alpha, lam + 2.0 * v + abs(alpha)),
        (eigenvalue + 2.0 * v + b_hat, eigenvalue + 2.0 * v + abs(b_hat)),
        (4.0 * v * (v - 0.5 - alpha) - a_hat, 4.0 * v * (v + 0.5 + abs(alpha)) + abs(a_hat)),
    )


def _state_relations(state: OscillatorState) -> tuple:
    """`_wave_relations` at the state's (n, v, lam), with (A^, B^) of `wave_params` at its delta and branch.

    A delta or branch that disagrees with v and lam leaves a defect.
    """
    system = state.system
    _, _, a_hat, b_hat = wave_params(system, state.delta, _e_plus_m(system, state.branch, state.delta))
    return _wave_relations(state.n, system.algebra.alpha, state.v, state.lam, a_hat, b_hat)


def _require_compatible(a: OscillatorState, b: OscillatorState) -> None:
    if a.system != b.system or a.branch != b.branch:
        raise ValueError("states must share the same system and branch")


def weighted_overlap(a: OscillatorState, b: OscillatorState) -> float:
    """<a|b> under the weighted momentum measure, exact up to rounding.

    The measure weight (1 + eta p^2)^(alpha - 1) becomes (1 - rho^2)^(1 - alpha)
    and the Jacobian is dp = d rho / (sqrt(eta) (1 - rho^2)^(3/2)), so the
    integrand is 4^(-v_a - v_b) eta^(-1/2) (1 - rho^2)^(mu - 1/2) C_na C_nb
    with mu = v_a + v_b - alpha = (lam_a + lam_b)/2, a polynomial of degree n_a + n_b times the
    Gegenbauer weight.  `specfun.gegenbauer_product_integral` gives that
    integral exactly from closed-form connection coefficients in
    O(n_a + n_b) Python-float steps, with no numpy call.  Each norm is
    paired with its own 4^(-v), so no intermediate product leaves the
    double range.  C_n has parity (-1)^n, so an odd
    n_a + n_b gives exactly 0.0.  Every step is symmetric in (a, b), so
    <a|b> and <b|a> agree bit for bit.  A value that is not finite raises
    `QuadratureAccuracyError`.
    """
    _require_compatible(a, b)
    if (a.n + b.n) % 2:
        return 0.0
    alg = a.system.algebra
    integral = specfun.gegenbauer_product_integral(0.5 * (a.lam + b.lam), a.n, a.lam, b.n, b.lam)
    value = (a.norm * 4.0 ** -a.v) * (b.norm * 4.0 ** -b.v) / math.sqrt(alg.eta) * integral
    if not math.isfinite(value):
        raise QuadratureAccuracyError(f"overlap of n={a.n} and n={b.n} is not finite: {value!r}")
    return value


# the overlap is exact, so the checked inner product needs no second evaluation
inner_product = weighted_overlap


def ladder_coeffs(n: int, lam: float) -> LadderCoefficients:
    """l- = sqrt(n (2 lam + n - 1)), l+ = sqrt((n+1) (2 lam + n)), l0 = lam + n."""
    _require_n(n)
    specfun._require_order(lam, "lam")
    return LadderCoefficients(math.sqrt(n * (2.0 * lam + n - 1.0)), math.sqrt((n + 1.0) * (2.0 * lam + n)), lam + n)


def _ladder_factor(state: OscillatorState, direction: str) -> tuple:
    """(degree, f): the operator on the state is f N ((1 - rho^2)/4)^v C_degree^lam(rho).

    The one place the closed form's scalar is formed, for `apply_ladder` and
    the ladder-identity check; lowering n = 0 gives (0, 0.0).
    """
    n, lam = state.n, state.lam
    if direction == "lower":
        if n == 0:
            return 0, 0.0  # annihilated, l-(0) = 0
        return n - 1, math.sqrt((lam + n - 1.0) / (n + lam)) * (n + 2.0 * lam - 1.0)
    if direction == "raise":
        return n + 1, math.sqrt((lam + n + 1.0) / (n + lam)) * (n + 1.0)
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def apply_ladder(state: OscillatorState, direction: str, rho):
    """Evaluate the raising or lowering operator on the state at rho.

    lower: [ (1 - rho^2) d/drho + (2v + n) rho ] sqrt((lam + n - 1)/(n + lam))
    raise: [ -(1 - rho^2) d/drho + (2 lam - 2v + n) rho ] sqrt((lam + n + 1)/(n + lam))

    Both brackets are evaluated in closed form, on either branch, as
    f N ((1 - rho^2)/4)^v C_(n +- 1)^lam(rho) with f of `_ladder_factor`:

    lower: f = sqrt((lam + n - 1)/(n + lam)) (n + 2 lam - 1), zero at n = 0
    raise: f = sqrt((lam + n + 1)/(n + lam)) (n + 1)

    so each call runs one Gegenbauer recurrence.  ``rho`` is validated and
    typed as in `eval_state`: a Python ``float`` or ``int`` is evaluated in
    Python floats and returns a ``float``, an ndarray or numpy scalar
    returns the same type.  On the nonrelativistic branch, where (v, lam) do
    not depend on n, the result equals l_(+/-) times the neighbouring
    normalized state pointwise; on the relativistic branch neighbouring
    states carry different exponents and no such identity holds.
    """
    x = _require_rho(specfun.as_float(rho))
    degree, factor = _ladder_factor(state, direction)
    return factor * _envelope(state, x) * specfun._gegenbauer(degree, state.lam, x)


@dataclass(slots=True)
class Su11Report:
    """Maximum absolute deviations of the coefficient-level algebra checks."""

    lam: float
    n_max: int
    commutator: float
    casimir: float
    casimir_commutant: float

    @property
    def max_deviation(self) -> float:
        return max(self.commutator, self.casimir, self.casimir_commutant)


def su11_check(lam: float, n_max: int) -> Su11Report:
    """Verify the su(1,1) relations on the ladder coefficients for n <= n_max.

    [L-, L+] eigenvalue 2 (lam + n); Casimir eigenvalue l0 (l0 - 1) - l+ l-
    equals lam (lam - 1) for every n and therefore commutes with the ladder
    operators.  [L0, L+-] = +-L+- is not read: l0 = lam + n shifts by
    exactly +-1 with n by definition.
    """
    specfun._require_order(lam, "lam")
    _require_n(n_max)
    casimir_target = lam * (lam - 1.0)
    dev_comm = dev_cas = dev_cc = 0.0
    casimir_prev = None
    down, c = None, ladder_coeffs(0, lam)
    for n in range(n_max + 1):
        up = ladder_coeffs(n + 1, lam)
        # [L-, L+] phi_n = (l+(n) l-(n+1) - l-(n) l+(n-1)) phi_n = 2 l0 phi_n
        comm = c.l_plus * up.l_minus
        if n > 0:
            comm -= c.l_minus * down.l_plus
        dev_comm = max(dev_comm, abs(comm - 2.0 * c.l_zero))
        # Casimir: l0 (l0 - 1) - l+(n-1) l-(n), with the lowering product vanishing at n = 0
        lowering = down.l_plus * c.l_minus if n > 0 else 0.0
        casimir = c.l_zero * (c.l_zero - 1.0) - lowering
        dev_cas = max(dev_cas, abs(casimir - casimir_target))
        if casimir_prev is not None:
            # [C, L+-] = 0 on eigenvalues: the Casimir value cannot depend on n
            dev_cc = max(dev_cc, abs((casimir - casimir_prev) * c.l_plus))
            dev_cc = max(dev_cc, abs((casimir - casimir_prev) * c.l_minus))
        casimir_prev = casimir
        down, c = c, up
    return Su11Report(lam, n_max, dev_comm, dev_cas, dev_cc)
