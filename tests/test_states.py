import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gupho import checks, gup, specfun
from gupho.gup import DeformedAlgebra, OscillatorSystem, UndeformedBranchError, fm_problem_of, rho_of_p
from gupho.fm import FmProblem, fm_quantization_residual
from gupho.spectrum import energy_nonrel, energy_relativistic, ratio_sweep
from gupho.specfun import gegenbauer, gegenbauer_product_integral
from gupho.states import (
    NONRELATIVISTIC,
    RELATIVISTIC,
    QuadratureAccuracyError,
    apply_ladder,
    eval_state,
    inner_product,
    ladder_coeffs,
    make_state,
    su11_check,
    weighted_overlap,
    _envelope,
    _state_relations,
    _wave_relations,
)
from node_rule import gegenbauer_rule


def system(mass=1.0, omega=1.0, eta=1.0, gamma=0.0, hbar=1.0):
    return OscillatorSystem(mass, omega, DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar))


@pytest.fixture(scope="module")
def nr_family():
    sys = system(eta=1.0, gamma=0.0)
    return [make_state(sys, n, NONRELATIVISTIC) for n in range(11)]


class TestMakeState:
    def test_golden_parameters(self):
        state = make_state(system(eta=1.0, gamma=0.0), 0, NONRELATIVISTIC)
        assert state.v == pytest.approx(0.8090169943749475, rel=1e-12)
        assert state.lam == pytest.approx(1.618033988749895, rel=1e-12)
        assert state.lam == pytest.approx(2 * state.v - 0.0, abs=1e-12)

    def test_normalized_by_construction(self, nr_family):
        for state in nr_family:
            assert inner_product(state, state) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("branch", [RELATIVISTIC, NONRELATIVISTIC])
    def test_unit_norm_to_rounding(self, branch):
        # the norm is the overlap kernel's own diagonal, so <s|s> is 1 to a few ulp over the state domain
        for eta in np.geomspace(2.5e-3, 1e2, 14).tolist():
            for gamma_frac in (0.0, 0.5):
                sys = system(eta=eta, gamma=gamma_frac * eta)
                for n in range(17):
                    state = make_state(sys, n, branch)
                    assert abs(weighted_overlap(state, state) - 1.0) <= 1e-14, (eta, gamma_frac, n)

    def test_relativistic_branch(self):
        sys = system(eta=0.1)
        state = make_state(sys, 1, RELATIVISTIC)
        assert state.branch == RELATIVISTIC
        assert state.energy > sys.mass
        assert state.lam == pytest.approx(2 * state.v, abs=1e-12)
        assert weighted_overlap(state, state) == pytest.approx(1.0, abs=1e-10)

    def test_carries_the_level_delta(self):
        # m + delta rounds delta to the ulp of m here; the state keeps the level's own
        sys = system(mass=1e12, eta=1e-12)
        level = energy_relativistic(sys, 2)
        state = make_state(sys, 2, RELATIVISTIC)
        assert (state.energy, state.delta) == (level.energy, level.delta)
        assert state.delta != state.energy - sys.mass
        nr = make_state(sys, 2, NONRELATIVISTIC)
        assert nr.delta == nr.energy

    def test_flat_weight_changes_norm_not_energy(self):
        plain = make_state(system(eta=1.0, gamma=0.0), 2, NONRELATIVISTIC)
        flat = make_state(system(eta=1.0, gamma=1.0), 2, NONRELATIVISTIC)
        assert flat.lam == pytest.approx(plain.lam, abs=1e-12)
        assert flat.norm != pytest.approx(plain.norm, rel=1e-3)
        assert flat.energy == plain.energy

    @pytest.mark.parametrize("branch", [RELATIVISTIC, NONRELATIVISTIC])
    def test_scale_free_at_fixed_kappa(self, branch):
        # kappa = hbar eta m omega and alpha = gamma / eta fix the state in rho, so v and lam do not
        # move with m and phi scales as eta^(1/4); hbar omega = 1e-20 keeps the relativistic shift
        # hbar omega / m below rounding at m = 1
        rho = np.linspace(-0.99, 0.99, 41)
        for kappa in (0.01, 3.0):
            found = []
            for mass in (1.0, 1e100, 1e300):
                eta = kappa / (mass * 1e-20)
                state = make_state(system(mass=mass, omega=1e-20, eta=eta, gamma=0.5 * eta), 3, branch)
                found.append((state.v, state.lam, eval_state(state, rho) / eta**0.25))
            v, lam, phi = found[0]
            for other_v, other_lam, other_phi in found[1:]:
                assert (other_v, other_lam) == (v, lam)
                assert np.max(np.abs(other_phi - phi)) <= 4 * np.finfo(float).eps * np.max(np.abs(phi))

    def test_undeformed_rejected(self):
        with pytest.raises(UndeformedBranchError):
            make_state(system(eta=0.0), 0, NONRELATIVISTIC)

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError):
            make_state(system(), 0, "semirelativistic")

    @settings(max_examples=300, deadline=None)
    @given(
        eta=st.floats(-12.0, 3.0).map(lambda e: 10.0**e),
        mass=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
        omega=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        gamma_frac=st.floats(0.0, 0.5),
        n=st.integers(0, 100),
        branch=st.sampled_from([RELATIVISTIC, NONRELATIVISTIC]),
    )
    def test_state_domain(self, eta, mass, omega, gamma_frac, n, branch):
        # normalized and finite, or a typed error exactly where 4^(-2v) underflows
        sys = system(mass=mass, omega=omega, eta=eta, gamma=gamma_frac * eta)
        try:
            state = make_state(sys, n, branch)
        except QuadratureAccuracyError:
            assert eta * mass * omega < 2e-3
            return
        assert math.isfinite(state.norm) and state.norm > 0.0
        assert abs(inner_product(state, state) - 1.0) <= 1e-10
        assert np.all(np.isfinite(eval_state(state, np.linspace(-0.999, 0.999, 101))))


class TestEvalState:
    def test_odd_state_vanishes_at_origin(self, nr_family):
        assert eval_state(nr_family[1], 0.0) == 0.0

    def test_ground_value_at_origin(self, nr_family):
        state = nr_family[0]
        assert eval_state(state, 0.0) == pytest.approx(state.norm * 4.0 ** (-state.v), rel=1e-15)

    def test_parity(self, nr_family):
        rhos = np.linspace(0.01, 0.97, 50)
        for n in range(9):
            state = nr_family[n]
            left = eval_state(state, -rhos)
            right = (-1.0) ** n * eval_state(state, rhos)
            assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))

    def test_decays_toward_endpoints(self, nr_family):
        state = nr_family[0]
        assert abs(eval_state(state, 0.999)) < abs(eval_state(state, 0.5)) < abs(eval_state(state, 0.0))

    def test_domain_rejected(self, nr_family):
        for bad in (1.0, -1.0, 1.2):
            with pytest.raises(ValueError):
                eval_state(nr_family[0], bad)

    def test_nan_rejected(self, nr_family):
        for bad in (math.nan, np.float64(math.nan), np.array([0.2, math.nan])):
            with pytest.raises(ValueError):
                eval_state(nr_family[2], bad)

    def test_result_types(self, nr_family):
        # a Python scalar is evaluated in floats; numpy input keeps its type and dtype
        for state in nr_family[:4]:
            assert type(eval_state(state, 0.3)) is float
            assert type(eval_state(state, 0)) is float
            assert type(eval_state(state, np.float64(0.3))) is np.float64
            assert type(eval_state(state, np.asarray(0.3))) is np.float64
            assert type(eval_state(state, np.longdouble(0.3))) is np.longdouble
            assert eval_state(state, np.linspace(-0.5, 0.5, 3, dtype=np.longdouble)).dtype == np.longdouble

    @pytest.mark.parametrize("branch", [NONRELATIVISTIC, RELATIVISTIC])
    def test_python_floats_match_numpy_scalars(self, branch):
        # the float path and the numpy path run one formula, so scalar results agree exactly
        rhos = np.linspace(-0.99, 0.99, 23).tolist()
        sys = system(eta=0.4, gamma=0.1)
        for n in (0, 1, 5, 16):
            state = make_state(sys, n, branch)
            assert [eval_state(state, r) for r in rhos] == [eval_state(state, np.float64(r)) for r in rhos]

    def test_derivative_matches_differences(self, nr_family):
        # the terms of the independent route, for states on and off their equation, against the
        # p-space equation's terms with phi' and phi'' from central differences of phi(rho(p))
        alg = nr_family[0].system.algebra
        h1, h2 = 1e-5, 3e-4
        for n in (0, 1, 4, 8):
            for state in _planted(nr_family[n]):
                a_tilde, b_tilde = _tildes(state)

                def phi(p):
                    return eval_state(state, rho_of_p(alg, p))

                for p in (-3.1, -0.9, 0.2, 0.7, 1.6, 4.4):
                    g = 1.0 + alg.eta * p * p
                    fd1 = (phi(p + h1) - phi(p - h1)) / (2.0 * h1)
                    fd2 = (phi(p + h2) - 2.0 * phi(p) + phi(p - h2)) / (h2 * h2)
                    first = 2.0 * (alg.gamma + alg.eta) * p / g * fd1
                    terms = (fd2, first, -(b_tilde + p * p * a_tilde) / g**2 * phi(p))
                    # the differences are good to ~5e-7 of the terms; the planted residuals reach 3e-5..7e-4
                    bound = 5e-6 * sum(map(abs, terms))
                    assert all(abs(a - b) <= bound for a, b in zip(_terms_by_18_9_19(state, p), terms)), (n, p)


class TestInnerProduct:
    def test_orthonormal_family(self, nr_family):
        for i, a in enumerate(nr_family[:9]):
            for b in nr_family[: i + 1]:
                target = 1.0 if a.n == b.n else 0.0
                assert weighted_overlap(a, b) == pytest.approx(target, abs=1e-10)

    def test_odd_cross_terms_are_exactly_zero(self, nr_family):
        assert weighted_overlap(nr_family[0], nr_family[1]) == 0.0
        assert weighted_overlap(nr_family[2], nr_family[5]) == 0.0

    def test_symmetry(self):
        # bit for bit in (a, b); relativistic neighbours differ in v and lam, so the connection
        # columns past the leading coefficient are nonzero
        for eta in (2.5e-3, 0.1, 10.0):
            for gamma_frac in (0.0, 0.5):
                sys = system(eta=eta, gamma=gamma_frac * eta)
                family = [make_state(sys, n, RELATIVISTIC) for n in range(17)]
                for a in family:
                    for b in family[a.n & 1::2]:
                        assert weighted_overlap(a, b) == weighted_overlap(b, a), (eta, gamma_frac, a.n, b.n)

    def test_incompatible_states_rejected(self, nr_family):
        other = make_state(system(eta=0.5), 0, NONRELATIVISTIC)
        with pytest.raises(ValueError):
            inner_product(nr_family[0], other)

    def test_underflowing_norm_raises(self):
        # eta = 0.01 yields lam ~ 100, still normalized; at eta = 1e-3, 4^(-2v) underflows
        sharp = make_state(system(eta=0.01), 0, NONRELATIVISTIC)
        assert inner_product(sharp, sharp) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(QuadratureAccuracyError):
            make_state(system(eta=1e-3), 0, NONRELATIVISTIC)

    def test_unit_weight_spot_check(self):
        # t = 1, n = 0 weighted square integral over (-1, 1) is pi/2
        assert gegenbauer_product_integral(1.0, 0, 1.0, 0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        eta=st.floats(math.log10(2e-3), 2.0).map(lambda e: 10.0**e),
        gamma_frac=st.floats(0.0, 0.5),
        n_a=st.integers(0, 16),
        n_b=st.integers(0, 16),
        branch=st.sampled_from([RELATIVISTIC, NONRELATIVISTIC]),
    )
    def test_matches_the_node_rule(self, eta, gamma_frac, n_a, n_b, branch):
        # the connection-coefficient overlap against the Gauss-Gegenbauer rule built from nodes and weights
        sys = system(eta=eta, gamma=gamma_frac * eta)
        a, b = make_state(sys, n_a, branch), make_state(sys, n_b, branch)
        nodes, weights = gegenbauer_rule(a.v + b.v - sys.algebra.alpha, (n_a + n_b + 2) // 2)
        integral = float(np.dot(weights, gegenbauer(n_a, a.lam, nodes) * gegenbauer(n_b, b.lam, nodes)))
        want = (a.norm * 4.0 ** -a.v) * (b.norm * 4.0 ** -b.v) / math.sqrt(eta) * integral
        assert abs(weighted_overlap(a, b) - want) <= 1e-13


class TestReferenceNorm:
    """The closed-form Gegenbauer normalization that `normalization_reference` reads the norms against."""

    def test_unit_order_ground(self):
        assert checks._reference_norm(0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_unit_order_first(self):
        # n! (n + lam) Gamma(lam)^2 / (2^(1-2 lam) pi Gamma(2 lam + n)) at n=1, lam=1
        expected = math.sqrt(1.0 * 2.0 * 1.0 / (0.5 * math.pi * math.gamma(3.0)))
        assert checks._reference_norm(1, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.3, 0.6, 1.0, 2.5, 3.3, 40.0, 286.0, 1e4, 1e6])
    def test_against_mpmath(self, lam):
        # 1 / sqrt(pi 2^(1 - 2 lam) Gamma(2 lam + n) / (n! (n + lam) Gamma(lam)^2)) in 50 digits;
        # reads <= 1.0e-15 here (an lgamma sum of the same formula read 3.8e-13 at lam = 286 and 1.5e-9 at 1e6)
        with mpmath.workdps(50):
            big = mpmath.mpf(lam)
            for n in range(31):
                integral = (mpmath.pi * mpmath.power(2, 1 - 2 * big) * mpmath.gamma(2 * big + n)
                            / (mpmath.factorial(n) * (n + big) * mpmath.gamma(big) ** 2))
                want = 1 / mpmath.sqrt(integral)
                assert abs(checks._reference_norm(n, lam) - want) <= 1e-14 * want, n

    def test_measured_norm_ratio_constant_in_n(self, nr_family):
        # the state's norm differs from it by the factor 4^v eta^(1/4), which does not depend on n
        ratios = [state.norm / checks._reference_norm(state.n, state.lam) for state in nr_family[:9]]
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1e-9)


class TestLadderCoefficients:
    def test_ground_state_annihilated(self):
        assert ladder_coeffs(0, 1.3).l_minus == 0.0

    def test_ground_raise(self):
        assert ladder_coeffs(0, 1.3).l_plus == pytest.approx(math.sqrt(2 * 1.3), rel=1e-15)

    def test_weight(self):
        assert ladder_coeffs(4, 1.5).l_zero == 5.5

    @pytest.mark.parametrize("lam", [0.8, 1.6, 3.2])
    def test_commutator_identity(self, lam):
        for n in range(21):
            c = ladder_coeffs(n, lam)
            up = ladder_coeffs(n + 1, lam)
            value = c.l_plus * up.l_minus
            if n > 0:
                value -= c.l_minus * ladder_coeffs(n - 1, lam).l_plus
            assert abs(value - 2.0 * (lam + n)) <= 1e-12


class TestApplyLadder:
    def test_lower_annihilates_ground(self, nr_family):
        assert np.all(apply_ladder(nr_family[0], "lower", np.linspace(-0.9, 0.9, 7)) == 0.0)
        assert apply_ladder(nr_family[0], "lower", 0.5) == 0.0

    def test_lower_first_excited(self, nr_family):
        rhos = np.linspace(-0.9, 0.9, 30)
        coeff = ladder_coeffs(1, nr_family[1].lam).l_minus
        got = apply_ladder(nr_family[1], "lower", rhos)
        np.testing.assert_allclose(got, coeff * eval_state(nr_family[0], rhos), rtol=0, atol=1e-9)

    def test_raise_ground(self, nr_family):
        rhos = np.linspace(-0.9, 0.9, 30)
        coeff = ladder_coeffs(0, nr_family[0].lam).l_plus
        got = apply_ladder(nr_family[0], "raise", rhos)
        np.testing.assert_allclose(got, coeff * eval_state(nr_family[1], rhos), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("eta", [1.0, 0.1, 2e-3])
    def test_pointwise_identity_supnorm(self, eta):
        # `verify` reads the identity as one scalar relation per pair; here it is held pointwise
        family = [make_state(system(eta=eta), n, NONRELATIVISTIC) for n in range(10)]
        rhos = np.linspace(-0.95, 0.95, 39)
        for n in range(9):
            state = family[n]
            coeffs = ladder_coeffs(n, state.lam)
            up_target = coeffs.l_plus * eval_state(family[n + 1], rhos)
            up_got = apply_ladder(state, "raise", rhos)
            assert np.max(np.abs(up_got - up_target)) <= 1e-8 * np.max(np.abs(up_target))
            if n >= 1:
                down_target = coeffs.l_minus * eval_state(family[n - 1], rhos)
                down_got = apply_ladder(state, "lower", rhos)
                assert np.max(np.abs(down_got - down_target)) <= 1e-8 * np.max(np.abs(down_target))

    def test_printed_raising_form_misses_the_identity(self):
        # the paper's printed raising bracket has the diagonal (2 lam - 2v + n) constant instead of
        # times rho; built from the product-rule terms below, at the `verify` defaults it misses
        # l+ phi_(n+1) by ~2.855 of the peak, while apply_ladder meets it
        rhos = np.linspace(-0.95, 0.95, 39)
        family = [make_state(system(eta=0.1), n, NONRELATIVISTIC) for n in range(9)]
        printed_gap = closed_gap = 0.0
        for n in range(8):
            state = family[n]
            v, lam = state.v, state.lam
            phi = eval_state(state, rhos)
            c1 = 2.0 * lam * gegenbauer(n - 1, lam + 1.0, rhos) if n >= 1 else 0.0
            slope = _envelope(state, rhos) * (1.0 - rhos * rhos) * c1 - 2.0 * v * rhos * phi
            printed = math.sqrt((lam + n + 1.0) / (n + lam)) * (-slope + (2.0 * lam - 2.0 * v + n) * phi)
            target = ladder_coeffs(n, lam).l_plus * eval_state(family[n + 1], rhos)
            peak = np.max(np.abs(target))
            printed_gap = max(printed_gap, np.max(np.abs(printed - target)) / peak)
            closed_gap = max(closed_gap, np.max(np.abs(apply_ladder(state, "raise", rhos) - target)) / peak)
        assert printed_gap == pytest.approx(2.855, rel=1e-3)
        assert closed_gap <= 1e-8

    @pytest.mark.parametrize("branch", [NONRELATIVISTIC, RELATIVISTIC])
    @pytest.mark.parametrize("eta,gamma", [(0.05, 0.0), (0.7, 0.2), (3.0, 1.0)])
    def test_closed_form_matches_product_rule(self, branch, eta, gamma):
        # the operator written out from phi' (product rule, C' = 2 lam C_(n-1)^(lam+1) by DLMF 18.9.19,
        # independent of the relation 18.9.20 that apply_ladder rests on) and phi, term by term
        rhos = np.linspace(-0.97, 0.97, 45)
        sys = system(mass=1.3, omega=0.8, eta=eta, gamma=gamma)
        for n in range(17):
            state = make_state(sys, n, branch)
            v, lam = state.v, state.lam
            phi = eval_state(state, rhos)
            c1 = 2.0 * lam * gegenbauer(n - 1, lam + 1.0, rhos) if n >= 1 else 0.0
            slope = _envelope(state, rhos) * (1.0 - rhos * rhos) * c1 - 2.0 * v * rhos * phi
            cases = [("raise", -slope, (2.0 * lam - 2.0 * v + n) * rhos * phi,
                      math.sqrt((lam + n + 1.0) / (n + lam)))]
            if n >= 1:
                cases.append(("lower", slope, (2.0 * v + n) * rhos * phi,
                              math.sqrt((lam + n - 1.0) / (n + lam))))
            for direction, first, second, coeff in cases:
                got = apply_ladder(state, direction, rhos)
                want = coeff * (first + second)
                size = coeff * (np.abs(first) + np.abs(second))
                assert np.all(np.abs(got - want) <= 1e-12 * size), (direction, n)

    @pytest.mark.parametrize("branch", [NONRELATIVISTIC, RELATIVISTIC])
    def test_array_matches_scalar_calls(self, branch):
        rhos = np.linspace(-0.99, 0.99, 23)
        sys = system(eta=0.4, gamma=0.1)
        for n in (0, 1, 5, 16):
            state = make_state(sys, n, branch)
            for direction in ("raise", "lower"):
                whole = apply_ladder(state, direction, rhos)
                each = [apply_ladder(state, direction, r) for r in rhos.tolist()]
                # numpy scalars take the array code path; Python floats must agree with it exactly
                assert each == [apply_ladder(state, direction, r) for r in rhos]
                assert whole.shape == rhos.shape
                # numpy's vectorised power may round the envelope differently from C's pow
                assert np.all(np.abs(whole - each) <= 1e-14 * np.abs(each))

    def test_scalar_and_dtype_handling(self, nr_family):
        # a Python scalar is evaluated in floats; numpy input keeps its type and dtype
        for state in (nr_family[0], nr_family[3]):  # n = 0 lowers to a zero of rho's kind
            for direction in ("raise", "lower"):
                assert type(apply_ladder(state, direction, 0.25)) is float
                assert type(apply_ladder(state, direction, 0)) is float
                assert type(apply_ladder(state, direction, np.asarray(0.25))) is np.float64
                assert type(apply_ladder(state, direction, np.longdouble(0.25))) is np.longdouble
                wide = apply_ladder(state, direction, np.linspace(-0.5, 0.5, 3, dtype=np.longdouble))
                assert wide.dtype == np.longdouble

    def test_nan_rejected(self, nr_family):
        for bad in (math.nan, np.float64(math.nan), np.array([0.2, math.nan])):
            for direction in ("raise", "lower"):
                with pytest.raises(ValueError):
                    apply_ladder(nr_family[2], direction, bad)

    def test_scalar_calls_make_no_numpy_arrays(self, nr_family, monkeypatch):
        # a Python float stays a float: no 0-d array is built on the per-point path
        calls = []

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("asarray", "ones_like"):
            monkeypatch.setattr(np, name, counted(name))
        for state in nr_family[:3]:
            eval_state(state, 0.3)
            for direction in ("raise", "lower"):
                apply_ladder(state, direction, -0.7)
        assert calls == []
        eval_state(nr_family[0], np.array([0.3]))  # the counters do see the array path
        assert calls

    def test_number_operator_composition(self, nr_family):
        # L+ L- phi_n = n (2 lam + n - 1) phi_n on the coefficient level
        for n in range(1, 9):
            lam = nr_family[n].lam
            c = ladder_coeffs(n, lam)
            down = ladder_coeffs(n - 1, lam)
            assert c.l_minus * down.l_plus == pytest.approx(n * (2 * lam + n - 1), rel=1e-14)

    def test_direction_validated(self, nr_family):
        with pytest.raises(ValueError):
            apply_ladder(nr_family[0], "sideways", 0.5)
        with pytest.raises(ValueError):
            apply_ladder(nr_family[0], "raise", 1.0)
        with pytest.raises(ValueError):
            apply_ladder(nr_family[0], "lower", np.array([0.0, -1.0]))


class TestSu11:
    def test_casimir_value(self):
        report = su11_check(2.0, 10)
        assert report.casimir <= 1e-13  # eigenvalue lam(lam-1) = 2 exactly represented

    def test_commutator_example(self):
        c = ladder_coeffs(3, 1.5)
        up = ladder_coeffs(4, 1.5)
        down = ladder_coeffs(2, 1.5)
        assert c.l_plus * up.l_minus - c.l_minus * down.l_plus == pytest.approx(9.0, abs=1e-13)

    def test_report_deviations(self):
        report = su11_check(1.61803, 20)
        assert report.commutator <= 1e-12
        assert report.casimir <= 1e-12
        assert report.max_deviation >= report.casimir

    def test_rejects_bad_lam(self):
        with pytest.raises(ValueError):
            su11_check(0.0, 5)
        # NaN fails every comparison, so max() would drop it and report 0.0
        with pytest.raises(ValueError):
            su11_check(math.nan, 5)
        with pytest.raises(ValueError):
            ladder_coeffs(1, math.nan)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError):
            su11_check(1.0, -3)


_ORDERS = (0.0, -1.0, math.nan, math.inf, -math.inf)
_RHOS = (1.0, -1.0, math.nan)


@pytest.mark.parametrize("call, bad, message", [
    (lambda mu: specfun.gegenbauer_product_integral(mu, 1, 1.0, 1, 1.0), _ORDERS, "mu must be positive"),
    (lambda lam: specfun.gegenbauer_product_integral(1.0, 1, lam, 1, 1.0), _ORDERS, "lam_a must be positive"),
    (lambda lam: specfun.gegenbauer_product_integral(1.0, 1, 1.0, 1, lam), _ORDERS, "lam_b must be positive"),
    (lambda lam: specfun.gegenbauer(2, lam, 0.3), _ORDERS, "lam must be positive"),
    (lambda lam: ladder_coeffs(2, lam), _ORDERS, "lam must be positive"),
    (lambda lam: su11_check(lam, 3), _ORDERS, "lam must be positive"),
    (lambda rho: gup.p_of_rho(DeformedAlgebra(eta=0.1), rho), _RHOS, "rho must lie in (-1, 1)"),
    (lambda rho: eval_state(make_state(system(), 2, NONRELATIVISTIC), rho), _RHOS, "rho must lie in (-1, 1)"),
], ids=["product_mu", "product_lam_a", "product_lam_b", "gegenbauer", "ladder_coeffs",
        "su11_check", "p_of_rho", "eval_state"])
def test_each_argument_rule_has_one_message(call, bad, message):
    # one validator per rule: every order site and both rho sites raise its one message verbatim
    for value in bad:
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == message


@pytest.mark.parametrize("call", [
    lambda n: energy_relativistic(system(), n),
    lambda n: energy_nonrel(system(), n),
    lambda n: make_state(system(), n, RELATIVISTIC),
    lambda n: make_state(system(), n, NONRELATIVISTIC),
    lambda n: ladder_coeffs(n, 1.0),
    lambda n: fm_quantization_residual(FmProblem(0.5, 1.0, 1.0, -3.0, 3.0, -2.0), n),
    lambda n: ratio_sweep(1.0, 1.0, 1.0, 0.0, [n], [0.5]),
    lambda n: specfun.gegenbauer(n, 1.0, 0.3),
    lambda n: specfun.gegenbauer_product_integral(1.0, n, 1.0, 2, 1.5),
    lambda n: specfun.gegenbauer_product_integral(1.0, 2, 1.5, n, 1.0),
    lambda n: su11_check(1.0, n),
], ids=["energy_relativistic", "energy_nonrel", "make_state_rel", "make_state_nr",
        "ladder_coeffs", "fm_quantization_residual", "ratio_sweep", "gegenbauer",
        "product_n_a", "product_n_b", "su11_check_n_max"])
def test_non_integer_n_rejected(call):
    for n in (1.5, 2.0, np.float64(2.0), -1):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            call(n)
    assert call(np.int64(2)) == call(2)  # numpy integers are integers


# numpy integer n whose own arithmetic wraps, a bool n, and float32 and float16 parameters and orders
_LOOPED_NS = (np.uint8(200), np.int16(300), True)
_CLOSED_NS = _LOOPED_NS + (np.int64(4_000_000_000),)
_NUMPY_INPUTS = {"mass": np.float16(1.5), "omega": np.float32(0.7), "hbar": np.float32(1.3),
                 "eta": np.float32(0.1), "gamma": np.float16(0.03), "lam": np.float32(1.61803),
                 "mu": np.float16(1.3)}


def _numpy_system(p):
    return OscillatorSystem(p["mass"], p["omega"], DeformedAlgebra(eta=p["eta"], gamma=p["gamma"], hbar=p["hbar"]))


# each entry point that takes n, a model parameter or an order: (its quantum numbers, call(n, inputs))
_ENTRY_POINTS = {
    "energy_relativistic": (_CLOSED_NS, lambda n, p: energy_relativistic(_numpy_system(p), n)),
    "energy_nonrel": (_CLOSED_NS, lambda n, p: energy_nonrel(_numpy_system(p), n)),
    "make_state_rel": (_LOOPED_NS, lambda n, p: make_state(_numpy_system(p), n, RELATIVISTIC)),
    "make_state_nr": (_LOOPED_NS, lambda n, p: make_state(_numpy_system(p), n, NONRELATIVISTIC)),
    "fm_quantization_residual": (
        _CLOSED_NS, lambda n, p: fm_quantization_residual(FmProblem(0.5, 1.0, 1.0, -3.0, 3.0, -2.0), n)),
    "gegenbauer": (_LOOPED_NS, lambda n, p: gegenbauer(n, p["lam"], 0.4)),
    "gegenbauer_product_integral": (
        _LOOPED_NS, lambda n, p: gegenbauer_product_integral(p["mu"], n, p["lam"], 4, p["mu"])),
    "ladder_coeffs": (_CLOSED_NS, lambda n, p: ladder_coeffs(n, p["lam"])),
    "su11_check": (_LOOPED_NS, lambda n, p: su11_check(p["lam"], n)),
    "ratio_sweep": (_CLOSED_NS, lambda n, p: ratio_sweep(
        p["mass"], p["omega"], p["hbar"], p["gamma"], [0, n, 3], [0.0, p["eta"], 2.5])),
    "run_suite": (_LOOPED_NS, lambda n, p: checks.run_suite(
        p["mass"], p["omega"], p["hbar"], p["eta"], p["gamma"], n)),
}


def _leaves(value):
    """The scalars a result holds, through records, tuples and lists."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_numpy_inputs_compute_as_python_numbers(name):
    # each input is converted where it is checked, so the result is the Python-typed call's, bit for bit,
    # and holds Python ints and floats only
    quantum_numbers, call = _ENTRY_POINTS[name]
    python_inputs = {key: float(value) for key, value in _NUMPY_INPUTS.items()}
    for n in quantum_numbers:
        got = call(n, _NUMPY_INPUTS)
        assert repr(got) == repr(call(int(n), python_inputs)), n
        assert {type(leaf) for leaf in _leaves(got)} <= {int, float, str}, n
    for n in (2**53, 10**400):  # beyond the integers a double holds exactly
        with pytest.raises(ValueError, match=r"n must be a nonnegative integer below 2\*\*53"):
            call(n, python_inputs)


def _tildes(state):
    """(A~, B~) of the state's wave equation, written from its energy E, independently of `wave_params`."""
    system = state.system
    alg = system.algebra
    hw2 = alg.hbar**2 * system.mass * system.omega**2
    if state.branch == NONRELATIVISTIC:
        a_tilde = (1.0 / (alg.hbar * system.mass * system.omega)) ** 2 - alg.gamma * (alg.gamma + alg.eta)
        b_tilde = -(2.0 * state.energy / hw2 + alg.gamma)
    else:
        a_tilde = 2.0 / (hw2 * (state.energy + system.mass)) - alg.gamma * (alg.gamma + alg.eta)
        b_tilde = -(2.0 * (state.energy - system.mass) / hw2 + alg.gamma)
    return a_tilde, b_tilde


def _planted(state):
    """The state, then copies with its level (delta and E), its exponent v and its order lam moved off.

    Each copy misses the state's wave equation, except the order at n = 0
    and 1, where lam scales C_n by a constant and the copy still solves it.
    """
    delta = state.delta * (1.0 + 1e-3)
    energy = delta if state.branch == NONRELATIVISTIC else state.system.mass + delta
    return [
        state,
        dataclasses.replace(state, delta=delta, energy=energy),
        dataclasses.replace(state, v=state.v * (1.0 + 1e-4)),
        dataclasses.replace(state, lam=state.lam + 1e-3),
    ]


def _terms_by_18_9_19(state, p):
    """The three wave-equation terms with C' and C'' from DLMF 18.9.19, three recurrences a point.

    C' = 2 lam C_(n-1)^(lam+1) and C'' = 4 lam (lam + 1) C_(n-2)^(lam+2), with
    (A~, B~) from the state's energy: a route independent of the three
    relations of `states._state_relations`, which `verify` reads in place of
    the equation.
    """
    alg = state.system.algebra
    rho = rho_of_p(alg, specfun.as_float(p))
    w = 1.0 - rho * rho
    n, v, lam = state.n, state.v, state.lam
    c0 = gegenbauer(n, lam, rho)
    c1 = 2.0 * lam * gegenbauer(n - 1, lam + 1.0, rho) if n >= 1 else 0.0 * c0
    c2 = 4.0 * lam * (lam + 1.0) * gegenbauer(n - 2, lam + 2.0, rho) if n >= 2 else 0.0 * c0
    a_tilde, b_tilde = _tildes(state)
    common = _envelope(state, rho) * w
    second = common * alg.eta * (
        w * w * c2 - (4.0 * v + 3.0) * rho * w * c1 + 2.0 * v * ((2.0 * v + 1.0) * rho * rho - w) * c0
    )
    first = common * 2.0 * (alg.gamma + alg.eta) * rho * (w * c1 - 2.0 * v * rho * c0)
    zeroth = -common * (b_tilde * w + a_tilde * rho * rho / alg.eta) * c0
    return second, first, zeroth


def _quantization(sys, n, delta):
    """(defect, scale) of the quantization relation at the relativistic level (n, delta), as `verify` reads it."""
    return _wave_relations(n, sys.algebra.alpha, *gup.wave_params(sys, delta, 2.0 * sys.mass + delta))[1]


class TestQuantizationRelation:
    """The quantization relation of `_wave_relations`, read at relativistic levels."""

    def test_n_difference(self):
        # e(n + 1) - e(n) = 2 lam + 2n + 1 at a fixed level, whatever gamma
        for gamma in (0.0, 0.05):
            sys = system(eta=0.1, gamma=gamma)
            for delta in (0.2, 0.6, 2.0):
                lam = gup.wave_params(sys, delta, 2.0 + delta)[1]
                for n in range(5):
                    diff = _quantization(sys, n + 1, delta)[0] - _quantization(sys, n, delta)[0]
                    assert diff == pytest.approx(2.0 * lam + 2 * n + 1, rel=1e-13)

    def test_decreasing_in_the_level(self):
        # one root: the defect falls strictly with delta, from above 0 to below it
        sys = system(eta=0.5)
        values = [_quantization(sys, 2, d)[0] for d in np.linspace(0.001, 49.0, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > 0.0 > values[-1]

    def test_vanishes_at_light_levels(self):
        for gamma in (0.0, 0.05, 10.0):
            sys = system(eta=0.1, gamma=gamma)
            for n in range(9):
                defect, scale = _quantization(sys, n, energy_relativistic(sys, n).delta)
                assert abs(defect) / scale <= 1e-15

    def test_vanishes_at_a_heavy_level(self):
        # m + delta keeps only the ulp of m (~1e-4) of delta ~ 3.5 here: read through
        # E - m, the closed-form level misses its own condition
        sys = system(mass=1e12, eta=1e-15)
        level = energy_relativistic(sys, 3)
        defect, scale = _quantization(sys, 3, level.delta)
        assert abs(defect) / scale <= 1e-15
        defect, scale = _quantization(sys, 3, level.energy - 1e12)
        assert abs(defect) / scale > 1e-7


class TestOdeResidualOnStates:
    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    def test_relativistic_states_satisfy_wave_equation(self, eta):
        states = [make_state(system(eta=eta, gamma=eta / 2.0), n, RELATIVISTIC) for n in range(9)]
        result = checks._check_ode_residual(states)
        assert result.tolerance <= 1e-11
        assert result.passed, result

    def test_nonrelativistic_states_fail(self):
        # the NR branch solves a different equation: read against the relativistic
        # coefficients, its states leave a relative residual of order one
        states = [make_state(system(eta=0.1), n, NONRELATIVISTIC) for n in range(3)]
        relabelled = [dataclasses.replace(state, branch=RELATIVISTIC) for state in states]
        assert checks._check_ode_residual(relabelled).max_deviation > 0.1

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.floats(math.log10(2e-3), 2.0).map(lambda e: 10.0**e),
        gamma_frac=st.sampled_from([0.0, 0.5, 1.0]),
        mass=st.floats(0.5, 2.0),
        omega=st.floats(0.5, 2.0),
    )
    def test_nonrelativistic_states_satisfy_their_wave_equation(self, eta, gamma_frac, mass, omega):
        assume(eta * mass * omega >= 2e-3)  # the states' domain (README, "Domain of the states")
        sys = system(mass=mass, omega=omega, eta=eta, gamma=gamma_frac * eta)
        result = checks._check_ode_residual([make_state(sys, n, NONRELATIVISTIC) for n in range(9)])
        assert result.name == "nr_ode_residual"
        assert result.passed, result

    @settings(max_examples=60, deadline=None)
    @given(
        mass=st.floats(6.0, 15.0).map(lambda e: 10.0**e),
        kappa=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        omega=st.floats(0.5, 2.0),
        gamma_frac=st.sampled_from([0.0, 0.5]),
        branch=st.sampled_from([RELATIVISTIC, NONRELATIVISTIC]),
    )
    def test_heavy_mass_states_satisfy_their_wave_equation(self, mass, kappa, omega, gamma_frac, branch):
        # kappa = hbar eta m omega in [1e-2, 10]: E - m keeps only the ulp of m, so B^ must take delta
        eta = kappa / (mass * omega)
        sys = system(mass=mass, omega=omega, eta=eta, gamma=gamma_frac * eta)
        result = checks._check_ode_residual([make_state(sys, n, branch) for n in range(9)])
        assert result.tolerance == 1e-11
        assert result.passed, result

    @pytest.mark.parametrize("moved, plant", [
        (0, lambda state: dataclasses.replace(state, lam=state.lam * (1.0 + 1e-9))),
        (1, lambda state: dataclasses.replace(state, delta=state.delta * (1.0 + 1e-9))),
        (2, lambda state: dataclasses.replace(state, branch=RELATIVISTIC)),
    ], ids=["weight_order", "quantization", "exponent"])
    def test_each_relation_reads_its_own_plant(self, moved, plant):
        # at n = 0 the order enters only the weight order, the NR level only B^, and E + m only A^
        state = make_state(system(eta=0.1, gamma=0.05), 0, NONRELATIVISTIC)
        exact = [abs(defect) / scale for defect, scale in _state_relations(state)]
        readings = [abs(defect) / scale for defect, scale in _state_relations(plant(state))]
        assert readings[moved] > 1e-10
        del exact[moved], readings[moved]
        assert readings == exact

    @pytest.mark.parametrize("branch", [RELATIVISTIC, NONRELATIVISTIC])
    @pytest.mark.parametrize("eta", [2e-3, 0.01, 1.0, 100.0])
    @pytest.mark.parametrize("gamma_frac", [0.0, 0.5])
    def test_terms_match_the_three_recurrence_route(self, branch, eta, gamma_frac):
        # the three relations are the wave equation: on the independent route the terms of a true
        # state sum to 1e-13 of their magnitudes at every p of a 101-point grid, in Python floats,
        # float64 and longdouble, and every planted copy misses that somewhere and fails the row;
        # at n < 2 the order plant alone solves the equation, so there the row is the stricter
        sys = system(eta=eta, gamma=gamma_frac * eta)
        ps = np.linspace(-5.0 / math.sqrt(eta), 5.0 / math.sqrt(eta), 101)

        def misses(terms):
            terms = np.asarray(terms)
            return bool(np.any(np.abs(terms.sum(axis=0)) > 1e-13 * np.abs(terms).sum(axis=0)))

        for n in (0, 1, 2, 5, 16, 40):
            true, *plants = _planted(make_state(sys, n, branch))
            for state in (true, *plants):
                each = [_terms_by_18_9_19(state, p) for p in ps.tolist()]
                assert all(type(term) is float for terms in each for term in terms)
                wide = _terms_by_18_9_19(state, ps.astype(np.longdouble))
                assert all(term.dtype == np.longdouble for term in wide)
                seen = state is not true and (n >= 2 or state.lam == true.lam)
                for terms in (np.transpose(each), _terms_by_18_9_19(state, ps), wide):
                    assert misses(terms) is seen, (n, state)
                assert checks._check_ode_residual([state]).passed is (state is true), (n, state)

    def test_one_recurrence_pass_per_call(self, monkeypatch):
        # eval_state and apply_ladder each run the Gegenbauer loop once and no other evaluator;
        # argument checks and as_float are not evaluators
        sys = system(eta=0.1, gamma=0.05)
        states = [make_state(sys, n, branch) for n in (0, 1, 7) for branch in (RELATIVISTIC, NONRELATIVISTIC)]
        loop, calls = specfun._gegenbauer, []

        def counted(*args):
            calls.append(args[:2])
            return loop(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("a Gegenbauer evaluation outside the one recurrence pass")

        monkeypatch.setattr(specfun, "_gegenbauer", counted)
        for name in ("gegenbauer", "gegenbauer_product_integral", "_connection_column", "_weight_norms"):
            monkeypatch.setattr(specfun, name, forbidden)
        for state in states:
            for rho in (0.3, np.linspace(-0.9, 0.9, 9)):
                for call, degree in ((lambda: eval_state(state, rho), state.n),
                                     (lambda: apply_ladder(state, "raise", rho), state.n + 1)):
                    del calls[:]
                    call()
                    assert calls == [(degree, state.lam)]

    def test_one_wave_params_call_per_consumer(self, monkeypatch):
        # make_state and fm_problem_of each map their level through wave_params once, with the
        # level's delta and the branch's E + m
        sys = system(mass=2.0, eta=0.1, gamma=0.05)
        exact, calls = gup.wave_params, []

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr("gupho.gup.wave_params", counted)
        monkeypatch.setattr("gupho.states.wave_params", counted)
        for branch in (RELATIVISTIC, NONRELATIVISTIC):
            for n in (0, 1, 7):
                del calls[:]
                state = make_state(sys, n, branch)
                e_plus_m = 4.0 + state.delta if branch == RELATIVISTIC else 4.0
                assert calls == [(sys, state.delta, e_plus_m)]
        del calls[:]
        fm_problem_of(sys, 2.5)
        assert calls == [(sys, 0.5, 4.5)]

    def test_check_reads_the_relations_alone(self, monkeypatch):
        # the rows evaluate no state: one map call per state, and no Gegenbauer value or envelope
        sys = system(mass=2.0, eta=0.1, gamma=0.05)
        exact, calls = gup.wave_params, []

        def counted(*args):
            calls.append(args)
            return exact(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("the wave-equation check evaluated a state")

        for branch in (RELATIVISTIC, NONRELATIVISTIC):
            family = [make_state(sys, n, branch) for n in range(9)]
            with monkeypatch.context() as patch:
                patch.setattr("gupho.states.wave_params", counted)
                patch.setattr(specfun, "_gegenbauer", forbidden)
                patch.setattr("gupho.states._envelope", forbidden)
                del calls[:]
                assert checks._check_ode_residual(family).passed
            e_plus_m = [4.0 + s.delta if branch == RELATIVISTIC else 4.0 for s in family]
            assert calls == [(sys, s.delta, e) for s, e in zip(family, e_plus_m)]
