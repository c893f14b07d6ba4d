import math

import pytest

from gupho.fm import (
    FmProblem,
    NoBoundStateError,
    fm_closed_condition,
    fm_exponents,
    fm_quantization_residual,
    fm_solution,
    fm_wavefunction,
)


def exponents_by_hand(k1, k2, k3, A, B, C):
    """Direct transcription of the exponent formulas, kept independent of the module."""
    k4 = (1 - k1 + math.sqrt((1 - k1) ** 2 - 4 * C)) / 2
    base = 0.5 + k1 / 2 - k2 / (2 * k3)
    k5 = base + math.sqrt(base**2 - (A / k3**2 + B / k3 + C))
    return k4, k5


class TestFmProblem:
    def test_k3_must_be_nonzero(self):
        with pytest.raises(ValueError):
            FmProblem(k1=0.0, k2=0.0, k3=0.0, A=0.0, B=0.0, C=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["k1", "k2", "k3", "A", "B", "C"])
    def test_coefficients_must_be_finite(self, name, bad):
        coeffs = dict(k1=0.5, k2=1.0, k3=1.0, A=-3.0, B=3.0, C=-2.0)
        coeffs[name] = bad
        with pytest.raises(ValueError, match=name):
            FmProblem(**coeffs)

    def test_from_second_order_normalizes(self):
        base = FmProblem.from_second_order((0.0, 1.0, -1.0), (0.5, -1.0), (-0.3, 0.2, 0.1))
        assert base == FmProblem(k1=0.5, k2=1.0, k3=1.0, A=0.1, B=0.2, C=-0.3)

    def test_from_second_order_scale_invariant(self):
        g = 3.7
        plain = FmProblem.from_second_order((0.0, 1.0, -2.0), (0.25, -0.5), (-0.1, 0.3, 0.2))
        scaled = FmProblem.from_second_order(
            (0.0, g, -2.0 * g), (0.25 * g, -0.5 * g), (-0.1 * g, 0.3 * g, 0.2 * g)
        )
        assert plain == scaled

    def test_from_second_order_rejects_constant_lead(self):
        with pytest.raises(ValueError):
            FmProblem.from_second_order((1.0, 1.0, -1.0), (0.0, 0.0), (0.0, 0.0, 0.0))


class TestExponents:
    def test_trivial_problem(self):
        k4, k5 = fm_exponents(FmProblem(k1=0.0, k2=0.0, k3=1.0, A=0.0, B=0.0, C=0.0))
        assert k4 == 1.0
        assert k5 == 1.0

    def test_hand_evaluated_case(self):
        problem = FmProblem(k1=1.0, k2=2.0, k3=1.0, A=-2.0, B=2.0, C=0.0)
        expected = exponents_by_hand(1.0, 2.0, 1.0, -2.0, 2.0, 0.0)
        assert expected == (0.0, 0.0)
        assert fm_exponents(problem) == expected

    def test_negative_radicand_carries_value(self):
        problem = FmProblem(k1=0.0, k2=0.0, k3=1.0, A=0.0, B=0.0, C=10.0)
        with pytest.raises(NoBoundStateError) as excinfo:
            fm_exponents(problem)
        assert excinfo.value.radicand == pytest.approx(1.0 - 40.0)

    def test_negative_k5_radicand(self):
        problem = FmProblem(k1=0.0, k2=0.0, k3=1.0, A=0.0, B=100.0, C=0.0)
        with pytest.raises(NoBoundStateError) as excinfo:
            fm_exponents(problem)
        assert excinfo.value.radicand < 0

    def test_solution_record(self):
        problem = FmProblem(k1=0.0, k2=0.0, k3=1.0, A=0.0, B=0.0, C=0.0)
        sol = fm_solution(problem, 2)
        assert (sol.k4, sol.k5, sol.n) == (1.0, 1.0, 2)
        assert sol.problem == problem


class TestQuantizationResidual:
    def test_n_shift_is_exactly_one(self):
        # the quantum number enters only through -n, so consecutive residuals
        # differ by 1; floats leave at most a couple of ulps
        problem = FmProblem(k1=0.5, k2=1.0, k3=1.0, A=-3.0, B=3.0, C=-2.0)
        for n in range(6):
            diff = fm_quantization_residual(problem, n + 1) - fm_quantization_residual(problem, n)
            assert diff == pytest.approx(1.0, abs=2e-15)

    def test_negative_radicand_rejected(self):
        problem = FmProblem(k1=0.0, k2=0.0, k3=1.0, A=10.0, B=-12.0, C=0.0)
        with pytest.raises(ValueError):
            fm_quantization_residual(problem, 0)

    def test_negative_n_rejected(self):
        problem = FmProblem(k1=0.5, k2=1.0, k3=1.0, A=-3.0, B=3.0, C=-2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            fm_quantization_residual(problem, -1)

    def test_closed_condition_vanishes_with_residual(self):
        # tune C so that the linear condition holds exactly at n = 1, then the
        # closed quartic form must vanish as well
        k1, k2, k3, A, B = 0.5, 1.0, 1.0, -3.0, 3.0
        n = 1
        target = (1 - 2 * n) / 2 - (k2 - math.sqrt((k3 - k2) ** 2 - 4 * A)) / (2 * k3)

        def residual_of_c(c):
            problem = FmProblem(k1=k1, k2=k2, k3=k3, A=A, B=B, C=c)
            return fm_quantization_residual(problem, n)

        # exponents shrink as C grows toward the radicand limit at 1/16
        lo, hi = 0.0, 0.0625
        assert residual_of_c(lo) * residual_of_c(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual_of_c(lo) * residual_of_c(mid) <= 0:
                hi = mid
            else:
                lo = mid
        problem = FmProblem(k1=k1, k2=k2, k3=k3, A=A, B=B, C=0.5 * (lo + hi))
        assert abs(fm_quantization_residual(problem, n)) < 1e-12
        assert abs(fm_closed_condition(problem, n)) < 1e-9
        assert target > 0  # sanity: quantized target reachable


class TestWavefunction:
    problem = FmProblem(k1=0.0, k2=0.0, k3=1.0, A=0.0, B=0.0, C=0.0)  # k4 = k5 = 1

    def test_vanishes_at_origin_for_positive_k4(self):
        assert fm_wavefunction(self.problem, 0, 0.0) == 0.0

    def test_ground_value_is_prefactor(self):
        # degree-0 series is 1, so the value is just s^k4 (1-s)^k5
        assert fm_wavefunction(self.problem, 0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            fm_wavefunction(self.problem, 0, -0.1)
        with pytest.raises(ValueError):
            fm_wavefunction(self.problem, 0, 1.5)

    def test_nan_rejected(self):
        problem = FmProblem(0.5, 1.0, 1.0, -3.0, 3.0, -2.0)
        with pytest.raises(ValueError):
            fm_wavefunction(problem, 0, math.nan)

    def test_finite_on_unit_interval(self):
        for n in range(4):
            for s in (0.0, 0.2, 0.5, 0.9, 1.0):
                assert math.isfinite(fm_wavefunction(self.problem, n, s))

    def test_endpoints_vanish_for_positive_exponents(self):
        for n in range(4):
            assert fm_wavefunction(self.problem, n, 0.0) == 0.0
            assert fm_wavefunction(self.problem, n, 1.0) == 0.0
