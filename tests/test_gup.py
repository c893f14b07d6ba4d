import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gupho.fm import fm_exponents
from gupho.gup import (
    DeformedAlgebra,
    DegenerateModelError,
    OscillatorSystem,
    UndeformedBranchError,
    fm_problem_of,
    minimal_length,
    p_of_rho,
    rho_of_p,
    uncertainty_bound,
    wave_params,
)
from gupho.spectrum import energy_relativistic
from gupho.specfun import gegenbauer, gegenbauer_product_integral


def algebra(eta, gamma=0.0, hbar=1.0):
    return DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar)


def system(mass=1.0, omega=1.0, eta=0.1, gamma=0.0, hbar=1.0):
    return OscillatorSystem(mass, omega, algebra(eta, gamma, hbar))


class TestAlgebraType:
    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            DeformedAlgebra(eta=-0.1)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            DeformedAlgebra(eta=0.1, hbar=0.0)

    def test_alpha(self):
        assert algebra(0.2, gamma=0.1).alpha == pytest.approx(0.5)
        with pytest.raises(UndeformedBranchError):
            _ = algebra(0.0).alpha

    def test_system_validation(self):
        with pytest.raises(ValueError):
            OscillatorSystem(0.0, 1.0, algebra(0.1))
        with pytest.raises(ValueError):
            OscillatorSystem(1.0, -1.0, algebra(0.1))


class TestMinimalLength:
    @pytest.mark.parametrize("eta,hbar,expected", [(0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.04, 1.0, 0.2)])
    def test_values(self, eta, hbar, expected):
        assert minimal_length(algebra(eta, hbar=hbar)) == pytest.approx(expected, abs=1e-15)


class TestUncertaintyBound:
    def test_unit_case(self):
        assert uncertainty_bound(algebra(1.0), 1.0) == 1.0

    def test_minimum_equals_minimal_length(self):
        alg = algebra(1.0)
        assert uncertainty_bound(alg, 1.0 / math.sqrt(alg.eta)) == pytest.approx(
            minimal_length(alg), rel=1e-15
        )
        # and it is a minimum over delta_p
        alg2 = algebra(0.3)
        opt = 1.0 / math.sqrt(alg2.eta)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert uncertainty_bound(alg2, factor * opt) >= minimal_length(alg2)

    def test_arithmetic_case(self):
        assert uncertainty_bound(algebra(0.25), 4.0) == pytest.approx(0.625, abs=1e-15)

    def test_rejects_nonpositive_delta_p(self):
        with pytest.raises(ValueError):
            uncertainty_bound(algebra(1.0), 0.0)

    @pytest.mark.parametrize("delta_p", [math.inf, math.nan])
    def test_rejects_non_finite_delta_p(self, delta_p):
        with pytest.raises(ValueError, match="finite"):
            uncertainty_bound(algebra(1.0), delta_p)


class TestMomentumTransform:
    def test_fixed_points(self):
        alg = algebra(1.0)
        assert rho_of_p(alg, 0.0) == 0.0
        assert rho_of_p(alg, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert p_of_rho(alg, 0.0) == 0.0
        assert p_of_rho(alg, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_asymptote(self):
        alg = algebra(0.04)
        p = 22.5 / math.sqrt(alg.eta)
        assert abs(rho_of_p(alg, p)) > 0.999
        assert rho_of_p(alg, -p) == -rho_of_p(alg, p)

    def test_quarter_case(self):
        assert p_of_rho(algebra(4.0), 0.6) == pytest.approx(0.375, rel=1e-15)

    def test_round_trips(self):
        alg = algebra(0.3)
        for p in np.linspace(-30.0, 30.0, 17):
            assert rho_of_p(alg, p_of_rho(alg, rho_of_p(alg, p))) == pytest.approx(
                rho_of_p(alg, p), abs=1e-13
            )
        for rho in np.linspace(-0.99, 0.99, 17):
            assert rho_of_p(alg, p_of_rho(alg, rho)) == pytest.approx(rho, abs=1e-13)

    def test_monotone(self):
        alg = algebra(2.0)
        ps = np.linspace(-8, 8, 41)
        rhos = [rho_of_p(alg, p) for p in ps]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))
        assert all(-1 < r < 1 for r in rhos)

    def test_domain_errors(self):
        with pytest.raises(UndeformedBranchError):
            rho_of_p(algebra(0.0), 1.0)
        with pytest.raises(ValueError):
            p_of_rho(algebra(1.0), 1.0)

    def test_non_finite_momentum_rejected(self):
        alg = algebra(0.1)
        for bad in (math.nan, -math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="finite"):
                rho_of_p(alg, bad)

    def test_huge_momentum_reaches_the_boundary(self):
        # t^2 overflows beyond |t| ~ 1e154; rho must still approach +-1, not collapse to 0
        alg = algebra(1.0)
        assert rho_of_p(alg, 1e200) == 1.0
        assert list(rho_of_p(alg, np.array([-1e300, 1e300]))) == [-1.0, 1.0]

    def test_python_float_stays_a_float(self):
        # a Python scalar takes the math path; numpy's hypot may differ from it by an ulp
        alg = algebra(0.3)
        ps = [-1e300, -40.0, -2.5, 0, 0.3, 1, 17.0, 1e200]
        rhos = [rho_of_p(alg, p) for p in ps]
        assert all(type(rho) is float for rho in rhos)
        assert rhos == pytest.approx(list(rho_of_p(alg, np.array(ps, dtype=float))), rel=2e-16, abs=0.0)

    def test_arc_coordinate_chain(self):
        # rho = sin(arc * sqrt(eta)) with arc = arctan(p sqrt(eta)) / sqrt(eta)
        alg = algebra(0.7)
        for p in np.linspace(-10, 10, 11):
            arc = math.atan(p * math.sqrt(alg.eta)) / math.sqrt(alg.eta)
            assert abs(arc) < 0.5 * math.pi / math.sqrt(alg.eta)
            assert rho_of_p(alg, p) == pytest.approx(math.sin(arc * math.sqrt(alg.eta)), abs=1e-14)


class TestWaveParams:
    """(v, lam, A^, B^) of `wave_params` at a level (delta, E + m); mass 1 unless stated, so E + m = E + 1."""

    def test_unit_a(self):
        sys = system(eta=0.1, gamma=0.0)
        _, _, a, _ = wave_params(sys, 0.0, 2.0)  # E + m = 2: A~ = 1, so A^ = 1 / eta^2
        assert a == pytest.approx(1.0 / 0.1**2, rel=1e-15)

    @pytest.mark.parametrize("e_plus_m", [math.inf, math.nan, 0.0])
    def test_rejects_e_plus_m_outside_the_doubles(self, e_plus_m):
        # E + m = inf would give r = 0, so (v, lam, A^, B^) = (1/2, 1, 0, -20) here without the check
        with pytest.raises(ValueError, match="finite E"):
            wave_params(system(eta=0.1), 1.0, e_plus_m)

    def test_b_vanishes_at_rest_energy(self):
        sys = system(eta=0.1, gamma=0.0)
        _, _, _, b = wave_params(sys, 0.0, 2.0)
        assert b == 0.0

    def test_direct_substitution(self):
        sys = system(eta=0.1, gamma=0.05)
        energy = 1.6
        _, _, a, b = wave_params(sys, energy - 1.0, energy + 1.0)
        denom = 1.0 * 1.0 * (1.6 + 1.0)
        assert a == pytest.approx((2.0 / denom - 0.05 * (0.05 + 0.1)) / 0.1**2, rel=1e-15)
        assert b == pytest.approx(-(2.0 * (1.6**2 - 1.0) / denom + 0.05) / 0.1, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            wave_params(system(), -2.0, 0.0)  # E = -1

    @pytest.mark.parametrize("mass", [1e100, 1e200])
    def test_huge_mass_stays_finite(self, mass):
        # E^2 overflows beyond ~1e154, and E - m keeps only the ulp of m: B~ takes the level's delta
        sys = system(mass=mass, eta=0.1, gamma=0.05)
        delta = energy_relativistic(sys, 3).delta
        v, lam, a, b = wave_params(sys, delta, 2.0 * mass + delta)
        assert all(math.isfinite(x) for x in (v, lam, a, b))
        assert b == -(2.0 * delta / (0.1 * mass) + 0.5)  # B~ / eta, with hbar omega kappa = 0.1 m

    def test_tiny_eta_stays_finite(self):
        # eta^2 underflows below ~1e-162; at kappa = 1e-150 nothing squares eta, so all four are finite
        v, _, a, b = wave_params(system(mass=1e20, eta=1e-170), 0.5, 2e20 + 0.5)
        assert v == pytest.approx(0.5 / 1e-150, rel=1e-15)
        assert a == pytest.approx(1e300, rel=1e-15)
        assert math.isfinite(b)

    def test_underflowing_scale_is_a_model_failure(self):
        with pytest.raises(DegenerateModelError, match="underflows"):
            wave_params(system(eta=1e-320, mass=1e-10), 0.5, 2.5)

    def test_large_deformation_limit(self):
        v = wave_params(system(eta=1e12), 0.0, 2.0)[0]
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_direct_value(self):
        # E + m = 2: radicand is 1/4 + 2/(0.01 * 2) = 100.25
        got = wave_params(system(eta=0.1, gamma=0.0), 0.0, 2.0)[0]
        assert got == pytest.approx(0.25 + 0.5 * math.sqrt(100.25), rel=1e-15)

    def test_gamma_shift_is_exact(self):
        energy = 1.6
        for gamma in (0.05, 0.1, 0.2):
            base = wave_params(system(eta=0.1, gamma=0.0), energy - 1.0, energy + 1.0)[0]
            shifted = wave_params(system(eta=0.1, gamma=gamma), energy - 1.0, energy + 1.0)[0]
            assert shifted - base == pytest.approx(gamma / 0.2, abs=1e-14)

    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    def test_matches_fm_route(self, eta):
        for gamma in (0.0, eta / 2, eta):
            for energy in (1.1, 2.0):
                sys = system(eta=eta, gamma=gamma)
                v = wave_params(sys, energy - 1.0, energy + 1.0)[0]
                k4, k5 = fm_exponents(fm_problem_of(sys, energy))
                assert abs(k4 - v) <= 1e-11
                assert abs(k5 - v) <= 1e-11

    def test_matches_fm_route_at_converged_energy(self):
        sys = system(eta=0.1, gamma=0.0)
        energy = energy_relativistic(sys, 0).energy
        v = wave_params(sys, energy - 1.0, energy + 1.0)[0]
        k4, k5 = fm_exponents(fm_problem_of(sys, energy))
        assert k4 == pytest.approx(v, abs=1e-11)
        assert k5 == pytest.approx(v, abs=1e-11)

    # the nonrelativistic branch maps its level with E + m = 2m, and lam = 2v - gamma / eta

    def test_gamma_zero_formula(self):
        v, lam, _, _ = wave_params(system(eta=0.5, gamma=0.0), 0.0, 2.0)
        assert lam == 2.0 * v  # doubling commutes with rounding
        assert lam == pytest.approx(0.5 + math.sqrt(0.25 + 1.0 / 0.25), rel=1e-15)

    def test_golden_ratio_case(self):
        v, lam, _, _ = wave_params(system(eta=1.0, gamma=0.0), 0.0, 2.0)
        assert v == pytest.approx(0.25 + 0.5 * math.sqrt(1.25), rel=1e-15)
        assert lam == pytest.approx(1.618033988749895, rel=1e-12)

    def test_lam_independent_of_gamma(self):
        _, base, _, _ = wave_params(system(eta=0.4, gamma=0.0), 0.0, 2.0)
        for gamma in (0.1, 0.2, 0.4):
            v, lam, _, _ = wave_params(system(eta=0.4, gamma=gamma), 0.0, 2.0)
            assert lam == base
            assert 2.0 * v - gamma / 0.4 == pytest.approx(lam, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1e2, 1e4, 1e6])
    def test_lam_against_mpmath_at_large_alpha(self, alpha):
        # 2v - alpha cancels: it was 6.8e-13 off at alpha = 1e4 and 2.3e-11 at 1e6
        sys = system(mass=1.0, eta=0.1, gamma=alpha * 0.1)
        for delta in (0.0, 0.7, 3.0):
            _, lam, _, _ = wave_params(sys, delta, 2.0 + delta)
            with mpmath.workdps(40):
                r = mpmath.sqrt(mpmath.mpf(2) / (2 + mpmath.mpf(delta))) / mpmath.mpf(sys.algebra.eta)
                reference = float(mpmath.mpf(1) / 2 + mpmath.sqrt(mpmath.mpf(1) / 4 + r * r))
            assert abs(lam - reference) <= 4.0 * math.ulp(reference)

    def test_undeformed_rejected(self):
        with pytest.raises(UndeformedBranchError):
            wave_params(system(eta=0.0), 0.5, 2.5)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf])
    def test_rejects_a_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite delta"):
            wave_params(system(eta=0.1), delta, 2.5)

    def test_overflowing_parameters_are_a_model_failure(self):
        # kappa = 1e-310 is subnormal: r, and with it v, lam and A^, overflows
        with pytest.raises(DegenerateModelError, match="overflow"):
            wave_params(system(eta=1e-310), 0.5, 2.5)


class TestFmMapping:
    def test_k_constants_at_gamma_zero(self):
        problem = fm_problem_of(system(gamma=0.0), 1.6)
        assert (problem.k1, problem.k2, problem.k3) == (0.5, 1.0, 1.0)

    def test_a_equals_minus_b_identically(self):
        for eta in (0.01, 0.1, 1.0):
            for gamma in (0.0, eta / 2, eta):
                for energy in (1.05, 1.6, 3.0):
                    problem = fm_problem_of(system(eta=eta, gamma=gamma), energy)
                    assert problem.A == -problem.B

    def test_c_from_tilde(self):
        sys = system(eta=0.1, gamma=0.0)
        _, _, a, _ = wave_params(sys, 1.6 - 1.0, 1.6 + 1.0)
        problem = fm_problem_of(sys, 1.6)
        assert problem.C == -a / 4  # -A~ / (4 eta^2)

    def test_undeformed_rejected(self):
        with pytest.raises(UndeformedBranchError):
            fm_problem_of(system(eta=0.0), 1.6)

    def test_overflowing_coefficients_are_a_model_failure(self):
        # kappa = 1e-160: r^2, and with it A^, overflows
        with pytest.raises(DegenerateModelError, match="overflow"):
            fm_problem_of(system(eta=1e-160), 1.6)

    def test_underflowing_eta_squared_is_a_model_failure(self):
        # nothing squares eta, but at kappa = 1e-170 r^2 overflows: still a model failure, not a ZeroDivisionError
        with pytest.raises(DegenerateModelError, match="overflow"):
            fm_problem_of(system(eta=1e-170), 1.6)

    @pytest.mark.parametrize("mass, energy", [(1.0, 1.6), (1.0, 1.05), (3.0, 7.25), (1e6, 1e6 + 2.5)])
    def test_matches_the_energy_arrangement_bit_for_bit(self, mass, energy):
        # fm_problem_of(system, E) forms B^ from E - m, and A = B^ - A^, C = -A^ / 4
        for eta, gamma in ((0.1, 0.0), (0.1, 0.05), (3e-3, 3e-3)):
            sys = system(mass=mass, eta=eta, gamma=gamma)
            kappa, alpha = mass * eta, gamma / eta  # hbar = omega = 1
            r = math.sqrt(2.0 * mass / (energy + mass)) / kappa
            a_hat = r * r - alpha * (alpha + 1.0)
            b_hat = -(2.0 * (energy - mass) / kappa + alpha)
            k1 = 0.5 - alpha
            a_coef = b_hat - a_hat
            c_coef = -0.25 * a_hat
            problem = fm_problem_of(sys, energy)
            assert (problem.k1, problem.k2, problem.k3) == (k1, 2.0 * k1, 1.0)
            assert (problem.A, problem.B, problem.C) == (a_coef, -a_coef, c_coef)


class TestFmBridge:
    """The standard-form solution against the closed Gegenbauer form of the states."""

    def converged_problem(self, n, eta=0.1, gamma=0.0):
        sys = system(eta=eta, gamma=gamma)
        energy = energy_relativistic(sys, n).energy
        return sys, energy, fm_problem_of(sys, energy)

    def test_ground_state_residual_vanishes(self):
        from gupho.fm import fm_quantization_residual

        _, _, problem = self.converged_problem(0)
        assert abs(fm_quantization_residual(problem, 0)) <= 1e-10

    def test_rest_energy_is_not_quantized(self):
        from gupho.fm import fm_quantization_residual

        sys = system(eta=0.1, gamma=0.0)
        at_rest = fm_problem_of(sys, sys.mass)  # no excitation energy
        assert abs(fm_quantization_residual(at_rest, 0)) > 1e-3

    def test_exponents_positive(self):
        from gupho.fm import fm_quantization_residual

        for n in range(4):
            _, _, problem = self.converged_problem(n)
            assert abs(fm_quantization_residual(problem, n)) < 1e-9
            k4, k5 = fm_exponents(problem)
            assert k4 > 0 and k5 > 0

    @pytest.mark.parametrize("eta", [0.1, 3e-3])
    @pytest.mark.parametrize("gamma_over_eta", [0.0, 0.5])
    def test_standard_form_proportional_to_gegenbauer(self, eta, gamma_over_eta):
        # s^k4 (1-s)^k5 2F1(-n, n + 2(k4+k5) + k2/k3 - 1; 2 k4 + k1; s), formed in
        # 50-digit mpmath, is the state's envelope times C_n^lam at rho = 1 - 2s
        from gupho.states import RELATIVISTIC, make_state

        svals = np.linspace(0.05, 0.95, 19)
        for n in range(9):
            sys, _, problem = self.converged_problem(n, eta=eta, gamma=gamma_over_eta * eta)
            k4, k5 = fm_exponents(problem)
            b = n + 2.0 * (k4 + k5) + problem.k2 / problem.k3 - 1.0
            c = 2.0 * k4 + problem.k1
            with mpmath.workdps(50):
                fm_route = np.array([
                    float(mpmath.mpf(s) ** k4 * (1 - mpmath.mpf(s)) ** k5 * mpmath.hyp2f1(-n, b, c, s))
                    for s in svals
                ])
            state = make_state(sys, n, RELATIVISTIC)
            rho = 1.0 - 2.0 * svals
            closed = ((1.0 - rho**2) / 4.0) ** state.v * gegenbauer(n, state.lam, rho)
            fm_route /= np.max(np.abs(fm_route))
            closed /= np.max(np.abs(closed))
            constant = np.dot(fm_route, closed) / np.dot(closed, closed)
            assert np.max(np.abs(fm_route - constant * closed)) <= 1e-12


class TestWeightedNormEquivalence:
    @pytest.mark.parametrize("eta,gamma,n", [(1.0, 0.0, 0), (1.0, 0.0, 3), (0.5, 0.25, 2)])
    def test_jacobian_against_adaptive_quadrature(self, eta, gamma, n):
        # p-side integral computed independently (adaptive quadrature in p),
        # rho-side with the claimed weight; they must agree up to 1/sqrt(eta)
        sys = system(mass=1.0, omega=1.0, eta=eta, gamma=gamma)
        v, lam, _, _ = wave_params(sys, 0.0, 2.0)  # the nonrelativistic branch: E + m = 2m

        def p_integrand(p):
            rho = rho_of_p(sys.algebra, p)
            profile = ((1 - rho * rho) / 4.0) ** v * gegenbauer(n, lam, rho)
            # the measure weight (1 + eta p^2)^(alpha - 1)
            weight = math.hypot(1.0, math.sqrt(eta) * p) ** (2.0 * (gamma / eta - 1.0))
            return weight * profile**2

        p_side, err = quad(p_integrand, -np.inf, np.inf, limit=400)
        assert err < 1e-7 * abs(p_side)

        gpart = gegenbauer_product_integral(lam, n, lam, n, lam)
        rho_side = 4.0 ** (-2 * v) * gpart / math.sqrt(eta)
        assert p_side == pytest.approx(rho_side, rel=1e-7)
