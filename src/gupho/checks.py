"""Invariant verification suite backing the `verify` command.

Each check returns its maximum observed deviation together with the pinned
tolerance; the suite passes when every deviation is within tolerance.  With
eta = 0 the deformed-only checks are skipped and the undeformed limit checks
run instead.  The relativistic levels come from the closed-form root of the
squared quantization condition; `solver_cross_validation` holds them to the
unsquared one and `relativistic_residual` to the wave equation's
quantization relation of `states._wave_relations`, relative to its terms.
These rows and the standard-form rows read one level table: a row at each
kappa = hbar eta m omega of `_KAPPA_GRID` with the user's alpha = gamma / eta
held, so they see one problem at any scale, and as its last row the
relativistic states at the user's eta and gamma, which carry each level's n
and delta.  A grid kappa equal to the user's is dropped, so each level is
solved once.  `nr_limit` and `undeformed_continuity` take their own tables,
at their own mass and kappas, from the same `_level_table`.
`_check_wave_map` maps each table level once per alpha, at the user's alpha
and at gamma / eta in {0, 1/2, 1, 2}, and reads four rows from that one
(v, lam, A^, B^): `relativistic_residual` and `fm_quantization_zero` at the
user's alpha, `gamma_invariance` at the others, and
`fm_exponent_consistency` at all of them.  The wave-equation and ladder
rows read scalar relations of the states, at no rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun, spectrum
from .gup import (
    DeformedAlgebra,
    OscillatorSystem,
    _fm_problem,
    wave_params,
)
from .fm import _quantization_target, fm_exponents
from .spectrum import SolverError, energy_nonrel, energy_relativistic
from .states import (
    NONRELATIVISTIC,
    RELATIVISTIC,
    ladder_coeffs,
    make_state,
    su11_check,
    weighted_overlap,
    _ladder_factor,
    _state_relations,
    _wave_relations,
)

__all__ = ["CheckResult", "run_suite"]

_KAPPA_GRID = (0.01, 0.1, 1.0)
_TRIAL_ALPHAS = (0.0, 0.5, 1.0, 2.0)
_SU11_LAMBDAS = (0.8, 1.61803, 3.2)


@dataclass(slots=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _system(mass, omega, hbar, eta, gamma) -> OscillatorSystem:
    return OscillatorSystem(mass, omega, DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar))


def _system_at(mass, omega, hbar, kappa, alpha) -> OscillatorSystem:
    """The system with hbar eta m omega = kappa and gamma = alpha eta, eta = 0 at kappa = 0.

    Raises `SolverError` if no eta gives kappa.
    """
    scale = hbar * mass * omega
    eta = 0.0 if kappa == 0.0 else kappa / scale if scale > 0.0 else math.inf
    if math.isinf(eta) or (eta > 0.0) != (kappa > 0.0):
        raise SolverError(f"no double eta gives hbar eta m omega = {kappa!r} at mass {mass!r}")
    return _system(mass, omega, hbar, eta, alpha * eta)


def _level_table(mass, omega, hbar, alpha, kappas, n_top) -> list:
    """(system, its relativistic levels n = 0..n_top) at each kappa and the held alpha; each level is solved once."""
    systems = [_system_at(mass, omega, hbar, kappa, alpha) for kappa in kappas]
    return [(system, [energy_relativistic(system, n) for n in range(n_top + 1)]) for system in systems]


def _check_solver_cross_validation(table) -> CheckResult:
    """The closed-form levels against the unsquared fixed point, |h(delta)| / delta.

    The levels come from the squared condition; h = delta - map(delta) does
    not square, so a spurious root of the cubic fails here, and h' >= 1 makes
    |h| / delta a bound on the relative error in delta.  h is formed afresh at
    the level's own delta (not E - m, which is 0 for a heavy mass), not read
    from the level's residual, so a delta moved after the solve fails too.
    """
    dev = max(abs(spectrum._displacement(system, level.n, level.delta)) / level.delta
              for system, levels in table for level in levels)
    return CheckResult("solver_cross_validation", dev, 1e-10)


def _check_wave_map(table, alpha) -> list[CheckResult]:
    """The four rows that read a level's `wave_params` map, each (system, delta) mapped once.

    Each table row is mapped at the user's alpha, through its own system, and
    at gamma = alpha' eta for the other alpha' of `_TRIAL_ALPHAS`, at its
    levels' own delta (which m + delta rounds for a heavy mass) and at the
    trial levels m/10 and m, far above them.  gamma does not enter the
    solver's map, so a level is a level at any gamma, but it does enter the
    reduction to the standard form (k1, A, C), so `gamma_invariance` can
    fail.  `relativistic_residual` reads the quantization relation of
    `states._wave_relations` relative to its terms, and
    `fm_exponent_consistency` |k - v| relative to v's terms (lam + |alpha|) / 2;
    the standard-form residual (k4 + k5) - target reuses those k4 and k5.
    """
    relation = exponents = quantization = invariance = 0.0
    for system, levels in table:
        alg, mass = system.algebra, system.mass
        points = [(None, 0.1 * mass), (None, mass)] + [(level.n, level.delta) for level in levels]
        for trial_alpha in dict.fromkeys((alpha, *_TRIAL_ALPHAS)):
            at_user = trial_alpha == alpha
            trial = system if at_user else _system(mass, system.omega, alg.hbar, alg.eta, trial_alpha * alg.eta)
            a = trial.algebra.alpha
            for n, delta in points:
                v, lam, a_hat, b_hat = params = wave_params(trial, delta, 2.0 * mass + delta)
                problem = _fm_problem(a, a_hat, b_hat)
                k4, k5 = fm_exponents(problem)
                exponents = max(exponents, max(abs(k4 - v), abs(k5 - v)) / (0.5 * (lam + abs(a))))
                if n is None:
                    continue
                residual = abs((k4 + k5) - _quantization_target(problem, n))
                if at_user:
                    defect, scale = _wave_relations(n, a, *params)[1]
                    relation = max(relation, abs(defect) / scale)
                    quantization = max(quantization, residual)
                else:
                    invariance = max(invariance, residual)
    return [
        CheckResult("relativistic_residual", relation, 1e-13),
        CheckResult("gamma_invariance", invariance, 1e-10),
        CheckResult("fm_exponent_consistency", exponents, 1e-12),
        CheckResult("fm_quantization_zero", quantization, 1e-9),
    ]


def _check_nr_limit(omega, hbar, alpha) -> CheckResult:
    """The relativistic delta against the first-order NR level at m = 1e8 hbar omega, deformed and not.

    kappa = hbar eta m omega is held fixed.  Expanding 2 / (m (delta + 2m))
    to first order in delta / 2m inside the solver's map gives the target
    E_nr (1 - hbar omega (n + 1/2) / (4 m hypot(1, kappa/2))), E_nr from
    `energy_nonrel`, which leaves an O((hbar omega / m)^2) gap instead of the
    bare ~1.4e-8; at kappa = 0, E_nr is hbar omega (n + 1/2).
    """
    hw = hbar * omega
    mass = 1e8 * hw
    if math.isinf(mass):
        raise SolverError(f"nr_limit's mass 1e8 hbar omega = {mass!r} leaves the double range")
    kappas = (0.0, 0.1, 1.0, 10.0)
    dev = 0.0
    for kappa, (system, levels) in zip(kappas, _level_table(mass, omega, hbar, alpha, kappas, 5)):
        shift = hw / (4.0 * mass * math.hypot(1.0, 0.5 * kappa))
        for level in levels:
            target = energy_nonrel(system, level.n).energy * (1.0 - (level.n + 0.5) * shift)
            dev = max(dev, abs(level.delta - target) / target)
    return CheckResult("nr_limit", dev, 1e-13)


def _check_orthonormality(states) -> CheckResult:
    """Each state's own overlap, |<s|s> - 1|.

    At lam_a = lam_b = mu every connection coefficient past the leading
    one is exactly 0, so states of one v and lam (the NR branch) have
    off-diagonal overlaps of exactly 0.0; the row does not form them.
    """
    dev = max(abs(weighted_overlap(s, s) - 1.0) for s in states)
    return CheckResult("orthonormality", dev, 1e-10)


def _reference_norm(n, lam) -> float:
    """C_n^lam's closed-form norm sqrt(n! (n + lam) Gamma(lam) / (sqrt(pi) Gamma(lam + 1/2) (2 lam)_n)).

    The formula of Kempf, Mangano and Mann 1995, sqrt(n! (n + lam)
    Gamma(lam)^2 / (2^(1 - 2 lam) pi Gamma(2 lam + n))), with Gamma(2 lam)
    split by the duplication formula, so no term grows with lam.  The ratio
    R(lam) = Gamma(lam + 1/2) / Gamma(lam) is carried up by
    R(lam) = R(lam + 1) lam / (lam + 1/2) to z >= 16, where
    log R(z) = log(z) / 2 + sum_j (2^(1 - 2j) - 2) B_2j / ((2j - 1) 2j z^(2j - 1)),
    B_2j the Bernoulli numbers; six terms leave less than 1e-17.  This
    shares no code with the overlap kernel's `specfun._weight_mass`.
    """
    z, shift = lam, 1.0
    while z < 16.0:
        shift *= z / (z + 0.5)
        z += 1.0
    t = 1.0 / (z * z)
    s = (-1 / 8 + t * (1 / 192 + t * (-1 / 640 + t * (17 / 14336 + t * (-31 / 18432 + t * 691 / 180224))))) / z
    ratio = shift * math.sqrt(z) * math.exp(s)  # R(lam), then R(lam) (2 lam)_n / n!
    for k in range(n):
        ratio *= (2.0 * lam + k) / (k + 1.0)
    return math.sqrt((n + lam) / (math.sqrt(math.pi) * ratio))


def _check_normalization_reference(states) -> CheckResult:
    """Each stored norm against the closed form, |(N 4^(-v) / N_ref)^2 eta^(-1/2) - 1|; v changes with n.

    `make_state` takes N from the overlap kernel's exact diagonal, so <s|s>
    is 1 by construction; this row reads N on a route that shares no code
    with that kernel.
    """
    dev = max(abs((s.norm * 4.0 ** -s.v / _reference_norm(s.n, s.lam)) ** 2 / math.sqrt(s.system.algebra.eta) - 1.0)
              for s in states)
    return CheckResult("normalization_reference", dev, 1e-9)


def _check_ladder_identity(states) -> CheckResult:
    """L+- phi_n = l+- phi_(n +- 1) as one scalar relation per neighbour pair, at no rho.

    `apply_ladder` is f N_n ((1 - rho^2)/4)^v C_(n +- 1)^lam with f from
    `states._ladder_factor`, so the identity holds at every rho exactly when
    f N_n = l+- N_(n +- 1) and the neighbours share v and lam; each pair reads
    that relation's relative defect, |dv| / v and |dlam| / lam.  Needs at
    least two states: with one, no pair is compared and the row reads 0.
    """
    dev = 0.0
    for state in states:
        n, v, lam = state.n, state.v, state.lam
        coeffs = ladder_coeffs(n, lam)
        for direction, k, l_shift in (("raise", n + 1, coeffs.l_plus), ("lower", n - 1, coeffs.l_minus)):
            if 0 <= k < len(states):
                target = l_shift * states[k].norm
                relation = abs(_ladder_factor(state, direction)[1] * state.norm - target) / target
                dev = max(dev, relation, abs(states[k].v - v) / v, abs(states[k].lam - lam) / lam)
    return CheckResult("ladder_identity", dev, 1e-13)


def _check_su11_algebra() -> list[CheckResult]:
    reports = [su11_check(lam, 20) for lam in _SU11_LAMBDAS]
    core = max(max(r.commutator, r.casimir) for r in reports)
    # the commutant product amplifies 1-ulp coefficient noise by ~l_plus(20)
    commutant = max(r.casimir_commutant for r in reports)
    return [
        CheckResult("su11_algebra", core, 1e-12),
        CheckResult("su11_casimir_commutant", commutant, 1e-10),
    ]


def _check_ode_residual(states) -> CheckResult:
    """The wave equation's three coefficient relations, each defect relative to its terms' magnitudes.

    A state solves its equation at every momentum when the weight order,
    quantization and exponent relations of `states._state_relations` hold,
    and for n >= 2 only then, so the row reads them directly, on no momentum
    grid.  The states' branch picks the equation and names the row:
    `ode_residual` or `nr_ode_residual`.
    """
    dev = max(abs(defect) / scale for state in states for defect, scale in _state_relations(state))
    prefix = "nr_" if states[0].branch == NONRELATIVISTIC else ""
    return CheckResult(prefix + "ode_residual", dev, 1e-11)


def _power_series(n, lam) -> list:
    """(power, coefficient) of each term of C_n^lam, a route that shares no code with the overlap kernel.

    C_n^lam(x) = sum_k (-1)^k (lam)_(n-k) (2x)^(n-2k) / (k! (n-2k)!) (DLMF 18.5.10).
    """
    coeff = 2.0 ** n
    for k in range(n):
        coeff *= (lam + k) / (k + 1.0)
    terms = [(n, coeff)]
    for k in range(n // 2):
        coeff *= -(n - 2 * k) * (n - 2 * k - 1) / (4.0 * (k + 1.0) * (lam + n - k - 1.0))
        terms.append((n - 2 * k - 2, coeff))
    return terms


def _check_weight_orthogonality() -> CheckResult:
    """The overlap kernel at mixed orders against power series and the weight's moments.

    At lam_a = lam_b = mu the kernel is its diagonal h_n, which
    `normalization_reference` reads, so every even product of two degree
    <= 8 polynomials is held at (lam_a, lam_b, mu) = (t, 1.5t, 1.2t),
    (1.5t, t, t) and (t, t, 1.3t) to the `_power_series` of both factors
    against the moments of the weight, x^(2k) to mass (1/2)_k / (mu + 1)_k,
    summed by `math.fsum`.  Each reads relative to sqrt(I_aa I_bb): the
    series cancels, so its absolute rounding grows with the integrals' size.
    """
    dev = 0.0
    for t in (0.75, 1.0, 2.5):
        for lam_a, lam_b, mu in ((t, 1.5 * t, 1.2 * t), (1.5 * t, t, t), (t, t, 1.3 * t)):
            moments = [math.sqrt(math.pi) * math.gamma(mu + 0.5) / math.gamma(mu + 1.0)]
            for k in range(1, 9):
                moments.append(moments[-1] * (k - 0.5) / (mu + k))

            def integral(a, b):
                return math.fsum([x * y * moments[(i + j) // 2] for i, x in a for j, y in b])

            series_a = [_power_series(n, lam_a) for n in range(9)]
            series_b = [_power_series(n, lam_b) for n in range(9)]
            norms_b = [integral(b, b) for b in series_b]
            for n, a in enumerate(series_a):
                norm_a = integral(a, a)
                for m in range(n & 1, 9, 2):
                    got = specfun.gegenbauer_product_integral(mu, n, lam_a, m, lam_b)
                    scale = math.sqrt(norm_a * norms_b[m])
                    dev = max(dev, abs(got - integral(a, series_b[m])) / scale)
    return CheckResult("weight_orthogonality", dev, 1e-10)


def _check_undeformed_continuity(mass, omega, hbar, alpha) -> CheckResult:
    """The relativistic delta at eta = 0 against kappa = hbar eta m omega = 1e-12.

    The shift grows with kappa, not with eta, so kappa is held fixed as in
    `nr_limit`; delta is the level's own, since m + delta rounds any shift
    away for a heavy mass.
    """
    (_, flat), (_, tiny) = _level_table(mass, omega, hbar, alpha, (0.0, 1e-12), 3)
    dev = max(abs(d1.delta - d0.delta) / d0.delta for d0, d1 in zip(flat, tiny))
    return CheckResult("undeformed_continuity", dev, 1e-9)


def run_suite(
    mass: float = 1.0,
    omega: float = 1.0,
    hbar: float = 1.0,
    eta: float = 0.1,
    gamma: float = 0.0,
    n_max: int = 8,
) -> list[CheckResult]:
    """Run the invariant suite at the given parameters; returns one result per check.

    The level and state checks cover n = 0..n_max; the nonrelativistic
    states go up to max(n_max, 1), so the ladder identity always compares
    at least the 0 <-> 1 pair.
    """
    if not eta > 0.0:
        table = _level_table(mass, omega, hbar, 0.0, (0.0,), n_max)
        return [_check_solver_cross_validation(table), _check_nr_limit(omega, hbar, 0.0),
                *_check_su11_algebra(), _check_undeformed_continuity(mass, omega, hbar, 0.0)]
    alpha = gamma / eta
    kappa = mass * omega * eta * hbar
    table = _level_table(mass, omega, hbar, alpha, [k for k in _KAPPA_GRID if k != kappa], n_max)
    system = _system(mass, omega, hbar, eta, gamma)
    rel_states = [make_state(system, n, RELATIVISTIC) for n in range(n_max + 1)]
    table.append((system, rel_states))  # a level row reads only n and delta, which a state carries
    residual, *standard_form = _check_wave_map(table, alpha)
    results = [_check_solver_cross_validation(table), residual, _check_nr_limit(omega, hbar, alpha), *standard_form]
    nr_states = [make_state(system, n, NONRELATIVISTIC) for n in range(max(n_max, 1) + 1)]
    return results + [
        _check_orthonormality(nr_states),
        _check_normalization_reference(rel_states),
        _check_ladder_identity(nr_states),
        *_check_su11_algebra(),
        _check_ode_residual(rel_states),
        _check_ode_residual(nr_states),
        _check_weight_orthogonality(),
        _check_undeformed_continuity(mass, omega, hbar, alpha),
    ]
