import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_gegenbauer, hyp2f1

from gupho.fm import hyp2f1_terminating
from gupho.specfun import (
    gegenbauer,
    gegenbauer_derivative,
    gegenbauer_rule,
)


def weight_integral_closed_form(n, t):
    """Orthogonality normalization pi 2^(1-2t) Gamma(2t+n) / (n! (n+t) Gamma(t)^2)."""
    return math.exp(
        math.log(math.pi)
        + (1.0 - 2.0 * t) * math.log(2.0)
        + math.lgamma(2.0 * t + n)
        - math.lgamma(n + 1.0)
        - 2.0 * math.lgamma(t)
    ) / (n + t)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer(0, 1.5, 0.7) == 1.0

    def test_degree_one(self):
        assert gegenbauer(1, 1.5, 0.7) == pytest.approx(2.1, abs=1e-15)

    def test_degree_two(self):
        # C_2^1(x) = 4x^2 - 1 from the recurrence
        assert gegenbauer(2, 1.0, 0.5) == pytest.approx(4 * 0.25 - 1.0, abs=1e-15)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(2, -1.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(2, math.nan, 0.5)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gegenbauer(-1, 1.0, 0.5)

    @pytest.mark.parametrize("lam", [0.75, 1.0, 1.618, 2.5])
    def test_against_scipy(self, lam):
        x = np.linspace(-0.99, 0.99, 21)
        for n in range(12):
            ours = gegenbauer(n, lam, x)
            ref = eval_gegenbauer(n, lam, x)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(ours - ref)) <= 1e-12 * scale

    def test_parity(self):
        x = np.linspace(0.05, 0.95, 10)
        for n in range(9):
            left = gegenbauer(n, 1.3, -x)
            right = (-1.0) ** n * gegenbauer(n, 1.3, x)
            assert np.array_equal(left, right)

    def test_preserves_longdouble(self):
        val = gegenbauer(3, 1.5, np.longdouble(0.3))
        assert val.dtype == np.longdouble

    def test_result_types(self):
        # a Python scalar is evaluated in floats; numpy input keeps its type and dtype
        for n in (0, 1, 3):
            assert type(gegenbauer(n, 1.5, 0.3)) is float
            assert type(gegenbauer(n, 1.5, 2)) is float
            assert type(gegenbauer(n, 1.5, np.asarray(0.3))) is np.float64
            assert type(gegenbauer(n, 1.5, np.longdouble(0.3))) is np.longdouble
            assert gegenbauer(n, 1.5, np.linspace(-1, 1, 4, dtype=np.float32)).dtype == np.float32

    @pytest.mark.parametrize("lam", [0.75, 1.618, 40.0])
    def test_array_matches_scalar_calls(self, lam):
        # one recurrence of + - * / for both kinds of input, so the results agree exactly
        xs = np.linspace(-1.5, 1.5, 31)
        for n in range(17):
            assert np.array_equal(gegenbauer(n, lam, xs), [gegenbauer(n, lam, x) for x in xs.tolist()])


class TestGegenbauerDerivative:
    def test_constant_has_zero_derivative(self):
        assert gegenbauer_derivative(0, 2.0, 0.3) == 0.0

    def test_linear(self):
        # d/dx (2 lam x) = 2 lam
        assert gegenbauer_derivative(1, 2.0, 0.3) == pytest.approx(4.0, abs=1e-14)

    def test_quadratic(self):
        # d/dx (4x^2 - 1) = 8x
        assert gegenbauer_derivative(2, 1.0, 0.5) == pytest.approx(4.0, abs=1e-14)

    def test_result_types(self):
        for n in (0, 2):
            assert type(gegenbauer_derivative(n, 1.5, 0.3)) is float
            assert type(gegenbauer_derivative(n, 1.5, np.asarray(0.3))) is np.float64
            assert type(gegenbauer_derivative(n, 1.5, np.longdouble(0.3))) is np.longdouble

    @pytest.mark.parametrize("lam", [0.75, 1.618, 40.0])
    def test_array_matches_scalar_calls(self, lam):
        xs = np.linspace(-1.5, 1.5, 31)
        for n in range(17):
            whole = gegenbauer_derivative(n, lam, xs)
            assert np.array_equal(whole, [gegenbauer_derivative(n, lam, x) for x in xs.tolist()])

    def test_endpoints_have_no_pole(self):
        # C_n^lam(1) = (2 lam)_n / n!, so dC_n/dx at 1 is 2 lam (2 lam + 2)_(n-1) / (n-1)!
        lam = 1.25
        for n in range(1, 9):
            at_one = 2.0 * lam * math.gamma(2.0 * lam + n + 1.0) / (
                math.gamma(2.0 * lam + 2.0) * math.factorial(n - 1)
            )
            assert gegenbauer_derivative(n, lam, 1.0) == pytest.approx(at_one, rel=1e-13)
            assert gegenbauer_derivative(n, lam, -1.0) == pytest.approx((-1) ** (n - 1) * at_one, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.75, 3.2, 40.0])
    def test_matches_mpmath_up_to_the_endpoints(self, lam):
        # the (1 - x^2) quotient form lost ~1e-9 relative at |x| = 1 - 1e-7
        xs = [0.0, 0.3, -0.7, 0.99, -0.9999, 1.0 - 1e-7, -(1.0 - 1e-7)]
        with mpmath.workdps(40):
            for n in range(1, 13):
                got = gegenbauer_derivative(n, lam, np.array(xs))
                for x, value in zip(xs, got):
                    ref = mpmath.diff(lambda t: mpmath.gegenbauer(n, lam, t), mpmath.mpf(x))
                    assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-300, (n, x)

    @pytest.mark.parametrize("lam", [0.75, 1.0, 2.5])
    def test_matches_central_differences(self, lam):
        h = 1e-6
        for n in range(9):
            for x in np.linspace(-0.9, 0.9, 13):
                fd = (gegenbauer(n, lam, x + h) - gegenbauer(n, lam, x - h)) / (2 * h)
                exact = gegenbauer_derivative(n, lam, x)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestHyp2f1Terminating:
    def test_degree_zero(self):
        assert hyp2f1_terminating(0, 3.2, 1.1, 0.4) == 1.0

    def test_degree_one(self):
        # 1 - b x / c
        assert hyp2f1_terminating(1, 2.0, 4.0, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_degree_two_term_sum(self):
        # direct term-by-term oracle: 1 - 2 + (2)(2)/((2)(2)) * 1 = 0
        expected = 1.0 + (-2.0) * 1.0 / 1.0 + ((-2.0) * (-1.0)) * (1.0 * 2.0) / (1.0 * 2.0) / 2.0
        assert expected == 0.0
        assert hyp2f1_terminating(2, 1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_pole_in_c_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(3, 1.0, -1.0, 0.5)

    def test_against_scipy(self):
        for n in range(8):
            for b in (0.7, 2.3, 5.0):
                for c in (1.1, 3.7):
                    for x in (0.0, 0.25, 0.8, 1.0):
                        ref = hyp2f1(-n, b, c, x)
                        assert hyp2f1_terminating(n, b, c, x) == pytest.approx(
                            ref, rel=1e-12, abs=1e-12
                        )


class TestGaussLegendre:
    """The mu = 1/2 member of the Gauss-Gegenbauer family is the Gauss-Legendre rule."""

    def test_order_one(self):
        nodes, weights = gegenbauer_rule(0.5, 1)
        assert list(nodes) == [0.0]
        assert weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_order_two(self):
        nodes, weights = gegenbauer_rule(0.5, 2)
        assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_quartic_integral(self):
        nodes, weights = gegenbauer_rule(0.5, 3)
        got = float(np.dot(weights, nodes**4))
        assert got == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 16, 50, 200, 400])
    def test_rule_invariants(self, order):
        nodes, weights = gegenbauer_rule(0.5, order)
        assert len(nodes) == len(weights) == order
        assert abs(float(np.sum(weights)) - 2.0) <= 1e-13
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1)
        # mirror symmetry up to rounding
        assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-14
        assert np.max(np.abs(weights - weights[::-1])) <= 1e-14

    def test_polynomial_exactness(self):
        # degree <= 2*order - 1 integrates exactly
        nodes, weights = gegenbauer_rule(0.5, 5)
        for k in range(10):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = float(np.dot(weights, nodes**k))
            assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("order", [8, 64, 200])
    def test_nodes_against_reference(self, order):
        nodes, weights = gegenbauer_rule(0.5, order)
        ref_nodes, ref_weights = leggauss(order)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
        assert np.max(np.abs(weights - ref_weights)) <= 1e-14

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gegenbauer_rule(0.5, 0)

    def test_rule_is_immutable(self):
        # a one-node rule has no recurrence steps and must still be a pair of arrays
        for count in (1, 4):
            nodes, weights = gegenbauer_rule(0.5, count)
            for arr in (nodes, weights):
                assert type(arr) is np.ndarray and arr.shape == (count,)
                with pytest.raises(ValueError):
                    arr[0] = 0.0


class TestGegenbauerRule:
    @pytest.mark.parametrize("mu", [0.3, 1.0, 1.618, 7.5, 120.0])
    @pytest.mark.parametrize("count", [1, 4, 9, 51])
    def test_exact_moments(self, mu, count):
        # int x^2k (1 - x^2)^(mu - 1/2) dx = B(k + 1/2, mu + 1/2) for 2k <= 2 count - 1
        nodes, weights = gegenbauer_rule(mu, count)
        for k in range(count):
            exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(mu + 0.5) - math.lgamma(k + mu + 1.0))
            assert float(np.dot(weights, nodes ** (2 * k))) == pytest.approx(exact, rel=1e-12)
            odd = weights * nodes ** (2 * k + 1)
            assert abs(float(np.sum(odd))) <= 1e-13 * float(np.sum(np.abs(odd)))

    @pytest.mark.parametrize("mu", [0.3, 2.5, 300.0])
    def test_symmetry(self, mu):
        nodes, weights = gegenbauer_rule(mu, 17)
        assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-15
        assert np.max(np.abs(weights - weights[::-1]) / weights) <= 1e-13
        assert nodes[8] == pytest.approx(0.0, abs=1e-15)

    def test_one_node_too_few_is_not_exact(self):
        # 3 nodes stop at degree 5, so the degree-6 moment misses
        nodes, weights = gegenbauer_rule(1.5, 3)
        exact = math.exp(math.lgamma(3.5) + math.lgamma(2.0) - math.lgamma(5.5))
        assert abs(float(np.dot(weights, nodes**6)) - exact) > 1e-6 * exact

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            gegenbauer_rule(0.0, 3)


class TestOrthogonality:
    @pytest.mark.parametrize("lam", [0.75, 1.0, 2.5])
    def test_weighted_orthogonality(self, lam):
        nodes, weights = gegenbauer_rule(lam, 9)
        polys = [gegenbauer(n, lam, nodes) for n in range(9)]
        for n in range(9):
            for m in range(9):
                got = float(np.dot(weights, polys[n] * polys[m]))
                expected = weight_integral_closed_form(n, lam) if n == m else 0.0
                assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("lam", [0.8, 1.618033988749895, 3.2])
    def test_proportional_to_terminating_series(self, lam):
        # C_n^lam(x) = C_n^lam(1) * 2F1(-n, n + 2 lam; lam + 1/2; (1-x)/2)
        for n in range(9):
            lead = math.exp(math.lgamma(n + 2 * lam) - math.lgamma(n + 1.0) - math.lgamma(2 * lam))
            xs = np.linspace(-0.95, 0.95, 20)
            direct = gegenbauer(n, lam, xs)
            series = lead * np.array(
                [hyp2f1_terminating(n, n + 2 * lam, lam + 0.5, 0.5 * (1 - x)) for x in xs]
            )
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - series)) <= 1e-10 * scale
