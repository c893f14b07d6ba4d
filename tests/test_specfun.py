import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_gegenbauer

from gupho.gup import QuadratureAccuracyError
from gupho.specfun import (
    _weight_norms,
    gegenbauer,
    gegenbauer_product_integral,
)
from node_rule import gegenbauer_rule


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


def _mp_coefficients(n, lam):
    """Monomial coefficients of C_n^lam in mpmath, by the three-term recurrence."""
    prev, cur = [], [mpmath.mpf(1)]
    for k in range(1, n + 1):
        nxt = [mpmath.mpf(0)] + [2 * (k + lam - 1) * c / k for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= (k + 2 * lam - 2) * c / k
        prev, cur = cur, nxt
    return cur


def _mp_weighted_product(moments, a, b):
    """Integral of the weight times the product of two coefficient lists, from its moments."""
    return mpmath.fsum(x * y * moments[i + j] for i, x in enumerate(a) for j, y in enumerate(b))


def _mp_moments(mu, top):
    """Moments 0 .. top of (1 - x^2)^(mu - 1/2) in mpmath: B(k + 1/2, mu + 1/2) at 2k, 0 when odd."""
    half = mpmath.mpf(1) / 2
    moments = [mpmath.beta(half, mu + half)]
    for j in range(1, top + 1):
        k = j // 2
        moments.append(0 if j % 2 else moments[j - 2] * (k - half) / (k + mu))
    return moments


class TestGaussLegendre:
    """The mu = 1/2 member of the Gauss-Gegenbauer family is the Gauss-Legendre rule.

    C_n^(1/2) is the Legendre polynomial P_n.  The node-level tests check
    the reference rule of `node_rule`, which the kernel is compared with.
    """

    def test_order_one(self):
        # degree 0 is the weight's mass 2, the one-node rule's weight; degree 1 is odd and exactly 0
        assert gegenbauer_product_integral(0.5, 0, 0.5, 0, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert gegenbauer_product_integral(0.5, 0, 0.5, 1, 0.5) == 0.0

    def test_order_two(self):
        # degree 2, exact under nodes -+1/sqrt(3) with weights 1: P_1^2 to 2/3, P_0 P_2 to 0
        assert gegenbauer_product_integral(0.5, 1, 0.5, 1, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert gegenbauer_product_integral(0.5, 0, 0.5, 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quartic_integral(self):
        # P_2^2 is quartic and integrates exactly to 2/5
        assert gegenbauer_product_integral(0.5, 2, 0.5, 2, 0.5) == pytest.approx(0.4, abs=1e-15)

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
        # P_(order-1)^2 is exact under the order-node rule; the kernel forms it without nodes
        want = 2.0 / (2 * order - 1)
        assert abs(gegenbauer_product_integral(0.5, order - 1, 0.5, order - 1, 0.5) - want) <= 1e-13 * want

    def test_polynomial_exactness(self):
        # P_i P_j integrates to 2 / (2i + 1) if i == j, else to 0
        for i in range(10):
            for j in range(10 - i):
                exact = 2.0 / (2 * i + 1) if i == j else 0.0
                got = gegenbauer_product_integral(0.5, i, 0.5, j, 0.5)
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
        # the kernel shares nothing between callers: a degree-0 product has no
        # recurrence steps and must still give a Python float, and a call leaves no state behind
        for n in (0, 3):
            first = gegenbauer_product_integral(0.5, n, 0.5, n, 0.5)
            assert type(first) is float
            gegenbauer_product_integral(0.5, 3, 1.5, 1, 0.5)
            assert gegenbauer_product_integral(0.5, n, 0.5, n, 0.5) == first


class TestGegenbauerRule:
    @pytest.mark.parametrize("mu", [0.3, 1.0, 1.618, 7.5, 120.0])
    @pytest.mark.parametrize("rows", [1, 4, 9, 51])
    def test_exact_moments(self, mu, rows):
        # products of total degree 2 rows - 2, which a rule of that many nodes makes exact,
        # against mpmath, with both polynomials of the weight's own order and of two others
        pairs = [(rows - 1, rows - 1), (0, 2 * rows - 2), (rows // 2, 2 * rows - 2 - rows // 2)]
        with mpmath.workdps(150):
            moments = _mp_moments(mpmath.mpf(mu), 4 * rows)
            for lam_a, lam_b in ((mu, mu), (1.1 * mu + 0.05, 0.7 * mu + 0.2)):
                for n_a, n_b in pairs:
                    a = _mp_coefficients(n_a, mpmath.mpf(lam_a))
                    b = _mp_coefficients(n_b, mpmath.mpf(lam_b))
                    want = _mp_weighted_product(moments, a, b)
                    scale = mpmath.sqrt(_mp_weighted_product(moments, a, a) * _mp_weighted_product(moments, b, b))
                    got = gegenbauer_product_integral(mu, n_a, lam_a, n_b, lam_b)
                    assert abs(got - want) <= 1e-12 * scale, (n_a, lam_a, n_b, lam_b)

    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.0, 3.7, 10.0, 120.0, 1e3, 1e6, 1e9, 1e12])
    def test_weight_mass_against_mpmath(self, mu):
        # h_0 = sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1); the lgamma difference it replaced was
        # 5.9e-13 off at mu = 1e3, 3.3e-6 at 1e9 and 9.6e-4 at 1e12
        with mpmath.workdps(40):
            big = mpmath.mpf(mu)
            want = mpmath.sqrt(mpmath.pi) * mpmath.gamma(big + 0.5) / mpmath.gamma(big + 1)
            assert abs(_weight_norms(mu, 0)[0] - want) <= 1e-15 * want

    @pytest.mark.parametrize("mu", [0.3, 2.5, 300.0])
    def test_symmetry(self, mu):
        # the rule's mirror symmetry: odd products are exactly 0.0, and swapping the factors
        # changes no arithmetic
        for n_a in range(17):
            for n_b in range(17 - n_a):
                got = gegenbauer_product_integral(mu, n_a, mu, n_b, 1.5 * mu)
                assert got == gegenbauer_product_integral(mu, n_b, 1.5 * mu, n_a, mu)
                if (n_a + n_b) % 2:
                    assert got == 0.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            gegenbauer_product_integral(0.0, 1, 0.5, 1, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_rule(0.0, 3)

    def test_rejects_bad_degree_or_order(self):
        for n_a, lam_a, n_b, lam_b in ((-1, 0.5, 1, 0.5), (1, 0.5, -2, 0.5), (1, 0.0, 1, 0.5),
                                       (1, 0.5, 1, -1.0), (1, math.nan, 1, 0.5)):
            with pytest.raises(ValueError):
                gegenbauer_product_integral(1.5, n_a, lam_a, n_b, lam_b)

    @pytest.mark.parametrize("n_b", [300, 298])
    def test_non_finite_sum_raises(self, n_b):
        # h_j leaves the double range against an exact-zero connection coefficient: NaN, not a value
        with pytest.raises(QuadratureAccuracyError, match=f"mu = 1000.0, n_a = 300, n_b = {n_b}"):
            gegenbauer_product_integral(1000.0, 300, 1000.0, n_b, 1000.0)


class TestOrthogonality:
    @pytest.mark.parametrize("lam", [0.75, 1.0, 2.5])
    def test_weighted_orthogonality(self, lam):
        for n in range(9):
            for m in range(9):
                got = gegenbauer_product_integral(lam, n, lam, m, lam)
                expected = weight_integral_closed_form(n, lam) if n == m else 0.0
                assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5, 40.0])
    def test_normalization_against_mpmath(self, lam):
        # h_n = pi 2^(1 - 2 lam) Gamma(2 lam + n) / (n! (n + lam) Gamma(lam)^2) in 50 digits, against the
        # kernel's diagonal that make_state takes its norm from; reads <= 9.7e-16 here
        with mpmath.workdps(50):
            big = mpmath.mpf(lam)
            for n in range(31):
                want = (mpmath.pi * mpmath.power(2, 1 - 2 * big) * mpmath.gamma(2 * big + n)
                        / (mpmath.factorial(n) * (n + big) * mpmath.gamma(big) ** 2))
                assert abs(_weight_norms(lam, n)[-1] - want) <= 1e-14 * want, n

    @pytest.mark.parametrize("lam", [0.8, 1.618033988749895, 3.2, 30.0, 300.0])
    def test_proportional_to_terminating_series(self, lam):
        # C_n^lam(x) = C_n^lam(1) * 2F1(-n, n + 2 lam; lam + 1/2; (1-x)/2), with the
        # right side in 50-digit mpmath
        xs = np.linspace(-0.95, 0.95, 20)
        with mpmath.workdps(50):
            for n in range(17):
                lead = mpmath.binomial(n + 2 * lam - 1, n)
                series = np.array([
                    float(lead * mpmath.hyp2f1(-n, n + 2 * lam, lam + 0.5, (1 - mpmath.mpf(x)) / 2))
                    for x in xs
                ])
                direct = gegenbauer(n, lam, xs)
                scale = max(1.0, float(np.max(np.abs(series))))
                assert np.max(np.abs(direct - series)) <= 1e-12 * scale
