import math

import pytest

from gupho.fm import FmProblem, NoBoundStateError, fm_exponents, fm_quantization_residual


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

    def test_first_non_finite_coefficient_is_named(self):
        with pytest.raises(ValueError, match="coefficient k2 must be finite"):
            FmProblem(0.5, math.nan, 1.0, math.inf, 3.0, -math.inf)

    def test_positional_equals_keyword(self):
        coeffs = dict(k1=0.5, k2=1.0, k3=1.0, A=-3.0, B=3.0, C=-2.0)
        assert FmProblem(*coeffs.values()) == FmProblem(**coeffs)


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
