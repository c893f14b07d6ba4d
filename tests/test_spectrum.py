import collections
import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupho import spectrum
from gupho.fm import fm_quantization_residual
from gupho.gup import (
    DeformedAlgebra,
    OscillatorSystem,
    fm_problem_of,
)
from gupho.spectrum import (
    SolverError,
    energy_nonrel,
    energy_relativistic,
    ratio_sweep,
)


def system(mass=1.0, omega=1.0, eta=0.1, gamma=0.0, hbar=1.0):
    return OscillatorSystem(mass, omega, DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar))


def high_precision_root(n, eta, mass=1, omega=1, hbar=1, dps=80):
    """E = m + delta from the solver's fixed point, by mpmath bisection; any eta >= 0.

    h(delta) = delta - a b c - a K sqrt(b^2/4 + 2 / (m (delta + 2m))) with
    a = hbar omega m / 2, b = hbar eta omega, K = 2n + 1, c = n^2 + n + 1/2 is
    increasing, negative at 0 and nonnegative at -h(0).
    """
    with mp.workdps(dps):
        m = mp.mpf(mass)
        hw = mp.mpf(hbar) * mp.mpf(omega)
        a, b = hw * m / 2, hw * mp.mpf(eta)

        def h(delta):
            s = mp.sqrt(b * b / 4 + 2 / (m * (delta + 2 * m)))
            return delta - a * b * (n * n + n + mp.mpf(1) / 2) - a * (2 * n + 1) * s

        lo, hi = mp.mpf(0), -h(mp.mpf(0))
        assert h(lo) < 0 <= h(hi)
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if h(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(m + (lo + hi) / 2)


class TestEnergyRelativistic:
    def test_large_mass_undeformed(self):
        sys = system(mass=1e6, omega=1.0, eta=0.0)
        res = energy_relativistic(sys, 2)
        assert (res.energy - 1e6) == pytest.approx(2.5, rel=1e-5)

    def test_against_high_precision_oracle(self):
        sys = system(eta=0.1)
        res = energy_relativistic(sys, 0)
        oracle = high_precision_root(0, "0.1")
        assert res.energy == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.01, 0.1, 1.0])
    def test_monotone_in_n(self, eta):
        sys = system(eta=eta)
        energies = [energy_relativistic(sys, n).energy for n in range(10)]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(e > sys.mass for e in energies)

    def test_result_fields(self):
        res = energy_relativistic(system(eta=0.1), 3)
        assert [field.name for field in dataclasses.fields(res)] == ["n", "energy", "delta", "residual"]
        assert res.n == 3
        assert res.delta == pytest.approx(res.energy - 1.0, rel=1e-15)
        assert abs(res.residual) <= 1e-15 * res.energy

    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_methods_agree(self, eta, omega):
        # the closed-form root of the squared condition against bisection on the unsquared one
        sys = system(omega=omega, eta=eta)
        for n in (0, 1, 3, 5, 8):
            reference = high_precision_root(n, eta, omega=omega)
            assert abs(energy_relativistic(sys, n).energy - reference) <= 1e-15 * reference

    @settings(max_examples=150, deadline=None)
    @given(
        eta=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
        mass=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        omega=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        hbar=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        n=st.integers(0, 8),
    )
    def test_closed_form_matches_high_precision_root(self, eta, mass, omega, hbar, n):
        # the verify space: user mass, omega and hbar on the check's eta grid and at eta = 0
        sys = system(mass=mass, omega=omega, eta=eta, hbar=hbar)
        reference = high_precision_root(n, eta, mass, omega, hbar, dps=40)
        assert abs(energy_relativistic(sys, n).energy - reference) <= 1e-15 * reference

    @pytest.mark.parametrize("mass", [1e-20, 1e-40])
    def test_small_mass_against_high_precision_root(self, mass):
        # delta << 1 here, so an error bound on delta that is not relative misses these levels
        sys = system(mass=mass, eta=0.1)
        for n in (0, 1, 5):
            reference = high_precision_root(n, 0.1, mass)
            assert abs(energy_relativistic(sys, n).energy - reference) <= 1e-15 * reference

    @pytest.mark.parametrize("mass", [1e200, 1e308])
    def test_huge_mass_undeformed(self, mass):
        # 2 / (m x) underflows and 2m may overflow; delta = hbar omega (n + 1/2) must still zero h
        sys = system(mass=mass, eta=0.0)
        for n in range(4):
            res = energy_relativistic(sys, n)
            assert res.energy == mass
            assert abs(res.residual) <= 1e-15 * (n + 0.5)
            assert abs(spectrum._displacement(sys, n, n + 0.5)) <= 1e-15 * (n + 0.5)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            energy_relativistic(system(), -1)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize("mass", [1e-90, 1e-140, 1e-150, 1e-160, 1e-200])
    def test_tiny_mass_raises_solver_error(self, eta, mass):
        # U ~ (K hbar omega / 4m)^2: U^2, or the level itself, leaves the double range
        for n in (0, 5):
            with pytest.raises(SolverError):
                energy_relativistic(system(mass=mass, eta=eta), n)

    @settings(max_examples=300, deadline=None)
    @given(
        eta=st.one_of(st.just(0.0), st.floats(-12.0, 3.0).map(lambda e: 10.0**e)),
        mass=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
        omega=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        n=st.integers(0, 100),
    )
    def test_solver_domain(self, eta, mass, omega, n):
        sys = system(mass=mass, omega=omega, eta=eta)
        res = energy_relativistic(sys, n)
        delta = res.energy - mass
        assert math.isfinite(res.energy) and res.energy > mass
        assert abs(res.residual) <= 1e-12 * max(1.0, delta)
        reference = high_precision_root(n, eta, mass, omega, dps=40)
        assert abs(res.energy - reference) <= 1e-15 * reference


class TestEnergyNonrel:
    def test_undeformed_is_half_integer(self):
        sys = system(eta=0.0)
        for n in range(11):
            res = energy_nonrel(sys, n)
            assert res.energy == n + 0.5
            assert res.residual == 0.0
            assert res.delta == res.energy

    def test_direct_evaluation(self):
        got = energy_nonrel(system(eta=0.1), 0).energy
        assert got == pytest.approx(0.5 * 0.05 + 0.5 * math.sqrt(1.0 + 0.0025), rel=1e-15)

    def test_large_deformation_ratio(self):
        sys = system(eta=1e9)
        e0 = energy_nonrel(sys, 0).energy
        for n in range(1, 6):
            ratio = energy_nonrel(sys, n).energy / e0
            assert ratio == pytest.approx((n + 1) ** 2, rel=1e-8)

    def test_gamma_never_enters(self):
        for gamma in (0.0, 0.3, -0.2):
            assert energy_nonrel(system(eta=0.2, gamma=gamma), 4).energy == energy_nonrel(
                system(eta=0.2, gamma=0.0), 4
            ).energy


class TestNrLimit:
    @pytest.mark.parametrize("mass", [1e17, 1e200])
    def test_heavy_mass_keeps_the_gap(self, mass):
        # m + delta rounds to m here, so E - m would read 0.0; the level's own delta is the gap
        sys = system(mass=mass, eta=0.0)
        for n in range(3):
            assert energy_relativistic(sys, n).delta == pytest.approx(n + 0.5, rel=1e-12)


class TestRatioSweep:
    def test_zero_xi_anchors(self):
        rows = ratio_sweep(1.0, math.pi, 1.0, 0.0, [1, 2, 3], [0.0])
        ratios = {row[1]: row[4] for row in rows}
        assert ratios == {1: 3.0, 2: 5.0, 3: 7.0}

    def test_large_xi_ratio(self):
        rows = ratio_sweep(1.0, math.pi, 1.0, 0.0, [3], [50.0])
        assert rows[0][4] == pytest.approx(16.0, rel=0.01)

    def test_monotone_in_xi(self):
        xi_grid = list(np.linspace(0.0, 5.0, 101))
        rows = ratio_sweep(1.0, math.pi, 1.0, 0.0, [1, 2, 3], xi_grid)
        for n in (1, 2, 3):
            ratios = [row[4] for row in rows if row[1] == n]
            assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_row_structure(self):
        rows = ratio_sweep(1.0, 1.0, 1.0, 0.0, [0, 2], [0.0, 1.0])
        assert len(rows) == 4
        assert [r[:2] for r in rows] == [(0.0, 0), (0.0, 2), (1.0, 0), (1.0, 2)]
        for xi, n, en, e0, ratio in rows:
            assert ratio == en / e0

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            ratio_sweep(1.0, 1.0, 1.0, 0.0, [1], [-1.0])

    def test_overflowing_eta_raises(self):
        assert math.isfinite(ratio_sweep(1.0, 1.0, 1.0, 0.0, [3], [1e150])[0][4])
        with pytest.raises(SolverError):
            ratio_sweep(1.0, 1.0, 1.0, 0.0, [3], [0.0, 1e200])
        with pytest.raises(SolverError):
            ratio_sweep(1.0, 1.0, 1e-300, 0.0, [3], [1e10])  # xi / hbar overflows

    def test_rows_equal_energy_nonrel(self):
        # every row is energy_nonrel's level at eta = (xi a0 / hbar)^2, bit for bit; numpy integer n
        # values (each n's factors are formed once, from the numpy integer) over a np.linspace grid give
        # the same rows, with the n column a Python int
        rng = random.Random(15)
        for _ in range(200):
            mass = 10.0 ** rng.uniform(-3.0, 300.0)
            omega, hbar = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
            gamma = rng.uniform(-1.0, 1.0)
            n_values = rng.sample([0, 1, 2, 3, 7, 40], rng.randint(1, 4))

            def expected(xi_grid):
                rows = []
                for xi in xi_grid:
                    scaled = xi / hbar
                    sys = system(mass=mass, omega=omega, eta=scaled * scaled, gamma=gamma, hbar=hbar)
                    e0 = energy_nonrel(sys, 0).energy
                    for n in n_values:
                        en = energy_nonrel(sys, n).energy
                        rows.append((xi, n, en, e0, en / e0))
                return rows

            # eta up to where the largest level, or eta itself, nears the double range
            eta_top = min(1e306 / hbar, 1e306 / mass / (hbar * omega) ** 2 / 41**2)
            xi_top = hbar * math.sqrt(eta_top)
            xi_grid = [0.0, xi_top] + [xi_top * 10.0 ** rng.uniform(-12.0, 0.0) for _ in range(4)]
            assert ratio_sweep(mass, omega, hbar, gamma, n_values, xi_grid) == expected(xi_grid)
            linspace = np.linspace(0.0, xi_top, 7)
            rows = ratio_sweep(mass, omega, hbar, gamma, [np.int64(n) for n in n_values], linspace)
            assert rows == expected(linspace)
            assert all(type(row[1]) is int for row in rows)

    @pytest.mark.parametrize("xi_grid", [[1.0], []])
    @pytest.mark.parametrize("mass, omega, hbar, gamma", [
        (0.0, 1.0, 1.0, 0.0), (-1.0, 1.0, 1.0, 0.0), (math.inf, 1.0, 1.0, 0.0),
        (math.nan, 1.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0), (1.0, -2.0, 1.0, 0.0),
        (1.0, math.inf, 1.0, 0.0), (1.0, math.nan, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0, -1.0, 0.0), (1.0, 1.0, math.inf, 0.0), (1.0, 1.0, math.nan, 0.0),
        (1.0, 1.0, 1.0, math.inf), (1.0, 1.0, 1.0, math.nan),
    ])
    def test_invalid_parameters_rejected(self, mass, omega, hbar, gamma, xi_grid):
        # checked once per call, so an empty grid is no way round them
        with pytest.raises(ValueError):
            ratio_sweep(mass, omega, hbar, gamma, [1], xi_grid)

    @pytest.mark.parametrize("n_values, xi_grid", [
        ([1], [0.0, math.nan]), ([1], [-math.inf]), ([-1], [1.0]), ([2, -1], [0.0]), ([-1], []),
    ])
    def test_nan_xi_or_negative_n_rejected(self, n_values, xi_grid):
        with pytest.raises(ValueError):
            ratio_sweep(1.0, 1.0, 1.0, 0.0, n_values, xi_grid)

    def test_overflowing_level_raises(self):
        # eta = 1e6 is finite; hbar eta m omega / 2 = 5e305 keeps n = 3 finite but not n = 40
        assert math.isfinite(ratio_sweep(1e300, 1.0, 1.0, 0.0, [3], [1e3])[0][2])
        with pytest.raises(SolverError):
            ratio_sweep(1e300, 1.0, 1.0, 0.0, [3, 40], [0.0, 1e3])
        # a numpy n is converted to a Python int, so n * n cannot wrap; its level overflows honestly
        with pytest.raises(SolverError, match="n=4000000000"):
            ratio_sweep(1.0, 1.0, 1.0, 0.0, [np.int64(4_000_000_000)], [1e146])

    def test_constructions_do_not_grow_with_the_grid(self, monkeypatch):
        # the parameters are checked once per call; no object is built per xi or per row, and E_0 is
        # the one `_nr_level` call per xi: each row's level is formed inline from its n's factors
        counts = collections.Counter()
        for name in ("OscillatorSystem", "DeformedAlgebra", "SpectrumResult", "_nr_level"):
            def counting(*args, _cls=getattr(spectrum, name), _name=name, **kwargs):
                counts[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(spectrum, name, counting)

        def built(steps):
            counts.clear()
            rows = ratio_sweep(1.0, 1.0, 1.0, 0.0, [0, 1, 2], [0.1 * i for i in range(steps)])
            assert len(rows) == 3 * steps
            assert counts.pop("_nr_level", 0) <= steps
            return dict(counts)

        assert built(200) == built(2)


class TestCrossContracts:
    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    def test_solver_root_zeroes_fm_residual(self, eta):
        # gamma never enters the solver, but it enters the standard form (k1, A, C)
        for gamma in (0.0, eta / 2, eta, 2 * eta):
            sys = system(eta=eta, gamma=gamma)
            for n in range(9):
                energy = energy_relativistic(sys, n).energy
                problem = fm_problem_of(sys, energy)
                assert abs(fm_quantization_residual(problem, n)) <= 1e-9

    def test_undeformed_limit_continuity(self):
        for n in range(4):
            flat = energy_relativistic(system(eta=0.0), n).energy
            tiny = energy_relativistic(system(eta=1e-12), n).energy
            assert abs(tiny - flat) <= 1e-9 * flat
