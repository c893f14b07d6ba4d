"""Acceptance suite: one test per criterion, each timed and printing a verdict line.

Criteria 1 and 3-12 are also what the `verify` CLI command executes:
criterion 01 is the kappa = 0 part of `nr_limit`, which holds the
relativistic level to the first-order nonrelativistic one, and criterion 04
is the whole row.  The final test confirms that and the cumulative runtime
budget.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gupho import checks, specfun, spectrum, states
from gupho.gup import DeformedAlgebra, OscillatorSystem
from gupho.spectrum import energy_nonrel, ratio_sweep
from gupho.states import NONRELATIVISTIC, RELATIVISTIC, make_state

_TIMES: dict[int, float] = {}
_ETAS = (0.01, 0.1, 1.0)  # the deformations criteria 05 and 11 run at


def _system(mass=1.0, omega=1.0, eta=0.1, gamma=0.0, hbar=1.0):
    return OscillatorSystem(mass, omega, DeformedAlgebra(eta=eta, gamma=gamma, hbar=hbar))


def _verdict(num, name, started):
    elapsed = time.perf_counter() - started
    _TIMES[num] = elapsed
    print(f"criterion {num:02d} ({name}): PASS [{elapsed * 1e3:.1f} ms]")
    return elapsed


def test_criterion_01_undeformed_limit():
    # nr_limit's kappa = 0 entries hold energy_nonrel at eta = 0, hbar omega (n + 1/2), against the solver
    checks._check_nr_limit(1.0, 1.0, 0.0)  # warm the path before timing
    started = time.perf_counter()
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert result.passed, result
    elapsed = _verdict(1, "undeformed limit", started)
    assert elapsed < 1e-3


def test_criterion_01_fails_on_a_wrong_level(monkeypatch):
    # 1e-13 added at eta = 0 alone, the kappa = 0 entries: 1e-13 / (hbar omega / 2) at n = 0
    def off_by_1e13(system, n):
        level = energy_nonrel(system, n)
        if system.algebra.eta > 0.0:
            return level
        return dataclasses.replace(level, energy=level.energy + 1e-13)

    monkeypatch.setattr(checks, "energy_nonrel", off_by_1e13)
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert not result.passed
    assert result.max_deviation == pytest.approx(2e-13, rel=0.05)


def test_criterion_02_ratio_anchors():
    started = time.perf_counter()
    rows = ratio_sweep(1.0, math.pi, 1.0, 0.0, [1, 2, 3], [0.0, 50.0])
    ratios = {(row[0], row[1]): row[4] for row in rows}
    assert ratios[(0.0, 1)] == 3.0
    assert ratios[(0.0, 2)] == 5.0
    assert ratios[(0.0, 3)] == 7.0
    assert abs(ratios[(50.0, 3)] - 16.0) <= 0.01 * 16.0
    # the sweep itself only has to be monotone in xi; full curves are not pinned
    scan = ratio_sweep(1.0, math.pi, 1.0, 0.0, [1, 2, 3], list(np.linspace(0.0, 10.0, 41)))
    for n in (1, 2, 3):
        values = [row[4] for row in scan if row[1] == n]
        assert all(b >= a for a, b in zip(values, values[1:]))
    elapsed = _verdict(2, "ratio anchors 3,5,7 and 16", started)
    assert elapsed < 10e-3


def _unit_table(kappas=checks._KAPPA_GRID):
    """The suite's level table at m = omega = hbar = 1, gamma = 0 and n <= 8."""
    return checks._level_table(1.0, 1.0, 1.0, 0.0, kappas, 8)


def test_criterion_03_solver_agreement():
    started = time.perf_counter()
    table = _unit_table()
    for result in (
        checks._check_solver_cross_validation(table),
        checks._check_relativistic_residual(table),
    ):
        assert result.passed, result
    elapsed = _verdict(3, "closed-form cubic vs unsquared fixed point", started)
    assert elapsed < 100e-3


def test_criterion_03_fails_on_a_wrong_route(monkeypatch):
    # a fixed-point map 1e-8 off must show up against the closed form, on both branches of run_suite
    displacement = spectrum._displacement

    def map_off_by_1e8(system, n, delta):
        disp = displacement(system, n, delta)
        return disp - 1e-8 * (delta - disp)

    monkeypatch.setattr(spectrum, "_displacement", map_off_by_1e8)
    for kappas in (checks._KAPPA_GRID, (0.0,)):
        result = checks._check_solver_cross_validation(_unit_table(kappas))
        assert not result.passed
        assert result.max_deviation > 1e-9


def test_criterion_04_nr_limit():
    started = time.perf_counter()
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert result.passed, result
    _verdict(4, "nonrelativistic limit", started)
    # the rest mass scales with hbar omega, so the relative gap does not grow with it
    for omega, hbar in ((100.0, 1.0), (3.0, 50.0), (1e-3, 1.0)):
        assert checks._check_nr_limit(omega, hbar, 0.0).passed, (omega, hbar)


def test_criterion_04_fails_on_a_wrong_nr_level(monkeypatch):
    # the target is energy_nonrel times a first-order factor, so a 1e-3 error in it reads ~1e-3
    def off_by_1e3(system, n):
        level = energy_nonrel(system, n)
        return dataclasses.replace(level, energy=level.energy * (1.0 + 1e-3))

    monkeypatch.setattr(checks, "energy_nonrel", off_by_1e3)
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert not result.passed
    assert result.max_deviation == pytest.approx(1e-3, rel=1e-2)


def _rel_states(eta):
    return [make_state(_system(eta=eta), n, RELATIVISTIC) for n in range(9)]


def test_criterion_05_gamma_invariance():
    started = time.perf_counter()
    for eta in _ETAS:
        result = checks._check_gamma_invariance(_rel_states(eta))
        assert result.passed, result
    _verdict(5, "gamma invariance through the standard form", started)


def test_criterion_05_fails_on_a_wrong_energy():
    # a 1e-8 relative error in the states' delta, the field the check reads, fails it
    wrong = [dataclasses.replace(state, delta=state.delta * (1.0 + 1e-8)) for state in _rel_states(0.1)]
    result = checks._check_gamma_invariance(wrong)
    assert not result.passed
    assert result.max_deviation > 1e-8


def test_criterion_06_fm_pipeline_equivalence():
    started = time.perf_counter()
    table = _unit_table()
    for result in (
        checks._check_fm_exponent_consistency(table),
        checks._check_fm_quantization_zero(table),
    ):
        assert result.passed, result
    _verdict(6, "standard-form pipeline equivalence", started)


@pytest.fixture(scope="module")
def nr_states():
    system = _system(eta=1.0, gamma=0.0)
    return [make_state(system, n, NONRELATIVISTIC) for n in range(10)]


@pytest.fixture(scope="module")
def rel_states():
    system = _system(eta=1.0, gamma=0.0)
    return [make_state(system, n, RELATIVISTIC) for n in range(9)]


def _plant_missing_term(monkeypatch):
    """Zero the last term of every connection column, its j = min(n_a, n_b) term."""
    exact = specfun._connection_column
    monkeypatch.setattr(specfun, "_connection_column", lambda *args: exact(*args)[:-1] + [0.0])


def _plant_kernel_piece(monkeypatch, piece):
    """One piece of the overlap kernel 1e-8 relative too large, wherever the kernel forms it.

    Column entries and norms come in ascending j of one parity, and T(l) at
    j = n - 2l is T(0) times l connection ratios, h_j the mass times j norm
    ratios, so a ratio that is too large compounds to (1 + 1e-8)^l or ^j.
    """
    column, norms, grow = specfun._connection_column, specfun._weight_norms, 1.0 + 1e-8
    if piece == "leading":  # T(0) = (lam)_n / (mu)_n
        monkeypatch.setattr(specfun, "_connection_column", lambda n, lam, mu, top: [
            t * grow for t in column(n, lam, mu, top)])
    elif piece == "connection_ratio":
        monkeypatch.setattr(specfun, "_connection_column", lambda n, lam, mu, top: [
            t * grow ** ((n - j) // 2) for j, t in zip(range(n & 1, top + 1, 2), column(n, lam, mu, top))])
    elif piece == "norm_ratio":
        monkeypatch.setattr(specfun, "_weight_norms", lambda mu, top: [
            h * grow ** j for j, h in zip(range(top & 1, top + 1, 2), norms(mu, top))])
    elif piece == "mass":  # h_0
        monkeypatch.setattr(specfun, "_weight_norms", lambda mu, top: [h * grow for h in norms(mu, top)])


def test_criterion_07_orthonormality(nr_states):
    started = time.perf_counter()
    result = checks._check_orthonormality(nr_states[:9])
    assert result.passed, result
    _verdict(7, "orthonormality", started)


def test_criterion_07_fails_on_a_missing_term(monkeypatch, nr_states):
    _plant_missing_term(monkeypatch)
    result = checks._check_orthonormality(nr_states[:9])
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_criterion_08_normalization_reference(rel_states):
    started = time.perf_counter()
    result = checks._check_normalization_reference(rel_states)
    assert result.passed, result
    _verdict(8, "stored norms against the closed-form reference", started)


def _plant_wrong_normalization(monkeypatch, scale=1e-8):
    """The norm integral h_n that `make_state` reads scale n relative too large, so its norm is ~scale n / 2 too small.

    `make_state` takes h_n as the last of `specfun._weight_norms(lam, n)`;
    every entry is scaled, so the overlap kernel sees the same h_j.
    """
    exact = specfun._weight_norms
    monkeypatch.setattr(specfun, "_weight_norms", lambda mu, top: [h * (1.0 + scale * top) for h in exact(mu, top)])


def test_criterion_08_fails_on_a_wrong_norm(monkeypatch):
    _plant_wrong_normalization(monkeypatch)
    system = _system(eta=1.0, gamma=0.0)
    result = checks._check_normalization_reference([make_state(system, n, RELATIVISTIC) for n in range(9)])
    assert not result.passed
    assert result.max_deviation > 1e-8


def test_criterion_08_fails_on_a_wrong_reference(monkeypatch, rel_states):
    # the reference is the row's one route that shares no code with make_state; 1e-8 off in it reads ~2e-8
    exact = checks._reference_norm
    monkeypatch.setattr(checks, "_reference_norm", lambda n, lam: exact(n, lam) * (1.0 + 1e-8))
    result = checks._check_normalization_reference(rel_states)
    assert not result.passed
    assert result.max_deviation == pytest.approx(2e-8, rel=1e-3)


def test_criterion_09_ladder_identity(nr_states):
    started = time.perf_counter()
    result = checks._check_ladder_identity(nr_states)
    assert result.passed, result
    _verdict(9, "ladder identity", started)


def test_criterion_09_fails_on_a_wrong_norm(monkeypatch):
    # neighbouring norms then disagree by ~5e-8 relative; the closed-form bracket must not hide it
    _plant_wrong_normalization(monkeypatch, 1e-7)
    system = _system(eta=0.1, gamma=0.0)
    result = checks._check_ladder_identity([make_state(system, n, NONRELATIVISTIC) for n in range(9)])
    assert not result.passed
    assert result.max_deviation == pytest.approx(5e-8, rel=1e-3)


def test_criterion_09_fails_at_nmax_0_on_a_wrong_raise(monkeypatch):
    # one state has no neighbour, so the suite must still compare the 0 <-> 1 pair; apply_ladder and
    # the row read the one raising factor, so the error is planted there for both
    exact = states._ladder_factor

    def raise_off_by_1e6(state, direction):
        degree, factor = exact(state, direction)
        return degree, factor * (1.0 + 1e-6) if direction == "raise" else factor

    clean = {r.name: r for r in checks.run_suite(n_max=0)}
    assert clean["ladder_identity"].passed
    monkeypatch.setattr(states, "_ladder_factor", raise_off_by_1e6)
    monkeypatch.setattr(checks, "_ladder_factor", raise_off_by_1e6)
    planted = {r.name: r for r in checks.run_suite(n_max=0)}
    assert not planted["ladder_identity"].passed
    assert planted["ladder_identity"].max_deviation == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("field", ["v", "lam"])
def test_criterion_09_fails_on_a_neighbour_with_another_exponent(nr_states, field):
    # the relation f N_n = l N_(n+-1) holds pointwise only if the neighbours share v and lam
    wrong = dataclasses.replace(nr_states[1], **{field: getattr(nr_states[1], field) * (1.0 + 1e-6)})
    result = checks._check_ladder_identity([nr_states[0], wrong, *nr_states[2:]])
    assert not result.passed
    assert result.max_deviation == pytest.approx(1e-6, rel=1e-3)


def test_criterion_09_fails_on_relativistic_states(rel_states):
    # neighbouring relativistic states carry different exponents, so no pointwise identity holds
    result = checks._check_ladder_identity(rel_states)
    assert not result.passed
    assert result.max_deviation > 1e-2


def test_criterion_09_reads_one_relation_per_pair(monkeypatch, nr_states):
    # the row shares only the ladder factor with apply_ladder and evaluates no state at any rho
    read = []
    exact = checks._ladder_factor

    def recording(state, direction):
        read.append((state.n, direction))
        return exact(state, direction)

    def forbidden(*args):
        raise AssertionError("the ladder row evaluates no state value")

    monkeypatch.setattr(checks, "_ladder_factor", recording)
    for name in ("eval_state", "apply_ladder", "_envelope"):
        monkeypatch.setattr(states, name, forbidden)
    for name in ("gegenbauer", "_gegenbauer_pair"):
        monkeypatch.setattr(specfun, name, forbidden)
    assert checks._check_ladder_identity(nr_states).passed
    last = len(nr_states) - 1
    assert sorted(read) == sorted([(n, "raise") for n in range(last)] + [(n, "lower") for n in range(1, last + 1)])
    assert not hasattr(checks, "eval_state") and not hasattr(checks, "apply_ladder")


def test_criterion_10_su11_algebra():
    started = time.perf_counter()
    for result in checks._check_su11_algebra():
        assert result.passed, result
    _verdict(10, "su(1,1) commutators and Casimir", started)


def test_criterion_11_ode_residual():
    started = time.perf_counter()
    for eta in _ETAS:
        system = _system(eta=eta)
        for branch in (RELATIVISTIC, NONRELATIVISTIC):
            result = checks._check_ode_residual([make_state(system, n, branch) for n in range(3)])
            assert result.passed, result
    _verdict(11, "wave-equation residual, both branches", started)


@pytest.mark.parametrize("field, planted", [
    ("delta", lambda state: state.delta * (1.0 + 1e-8)),
    ("v", lambda state: state.v + 1e-8),
])
def test_criterion_11_fails_on_a_planted_error(field, planted):
    for eta in _ETAS:
        exact = _rel_states(eta)
        wrong = [dataclasses.replace(state, **{field: planted(state)}) for state in exact]
        result = checks._check_ode_residual(wrong)
        assert not result.passed, (eta, result)


def _nr_suite_row(monkeypatch, name, value):
    """The `nr_ode_residual` row of the default suite with states.<name> replaced by ``value``."""
    monkeypatch.setattr(states, name, value)
    return next(r for r in checks.run_suite() if r.name == "nr_ode_residual")


@pytest.mark.parametrize("scale", [1e-3, 1e-8])
def test_criterion_11_nr_fails_on_a_wrong_energy(monkeypatch, scale):
    # a relative error e in energy_nonrel, whose delta is the level itself, moves B^ by e B^: the
    # quantization relation n (n + 2 lam) + 2v + B^ = 0 has the scale 2 |B^| (1 + e / 2), so it reads e / (2 + e)
    def planted(system, n):
        level = energy_nonrel(system, n)
        wrong = level.energy * (1.0 + scale)
        return dataclasses.replace(level, energy=wrong, delta=wrong)

    result = _nr_suite_row(monkeypatch, "energy_nonrel", planted)
    assert not result.passed
    assert result.max_deviation == pytest.approx(scale / (2.0 + scale), rel=1e-6)


def test_criterion_11_nr_fails_on_a_wrong_exponent(monkeypatch):
    # v 1e-3 too large, and with it lam = 2v at gamma = 0: the state no longer solves its equation;
    # the exponent relation 4v (v - 1/2) = A^ reads 1e-3 v (8v - 2) / (4v (v + 1/2) + A^) to first order
    exact = states.wave_params

    def planted(system, delta, e_plus_m):
        v, a_tilde, b_tilde = exact(system, delta, e_plus_m)
        return v * (1.0 + 1e-3), a_tilde, b_tilde

    result = _nr_suite_row(monkeypatch, "wave_params", planted)
    assert not result.passed
    v = 0.25 + 0.5 * math.hypot(0.5, 10.0)  # kappa = 0.1 at the defaults: r = 10 and A^ = 100
    assert result.max_deviation == pytest.approx(1e-3 * v * (8.0 * v - 2.0) / (4.0 * v * (v + 0.5) + 100.0), rel=1e-3)


def test_criterion_12_weight_integral_oracle():
    started = time.perf_counter()
    result = checks._check_weight_orthogonality()
    assert result.passed, result
    _verdict(12, "weighted polynomial integral", started)


def test_criterion_12_fails_on_a_missing_term(monkeypatch):
    # a degree-0 column has one term, so the product of two degree-0 factors reads 0 against its integral
    _plant_missing_term(monkeypatch)
    result = checks._check_weight_orthogonality()
    assert not result.passed
    assert result.max_deviation == pytest.approx(1.0, rel=1e-12)


def test_criterion_12_fails_on_a_wrong_norm_ratio(monkeypatch):
    # every norm ratio 1e-8 relative too large moves h_j by (1 + 1e-8)^j, and the degree-8 products by ~8e-8
    _plant_kernel_piece(monkeypatch, "norm_ratio")
    result = checks._check_weight_orthogonality()
    assert not result.passed
    assert result.max_deviation == pytest.approx(7.9e-8, rel=1e-2)


# make_state takes h_n from the kernel, so a wrong h_j moves the norms and the overlaps alike and only the
# closed-form reference sees it; at lam = mu every T(l >= 1) is exactly 0, so only the mixed-order products
# see a wrong connection ratio
_KERNEL_PIECE_ROWS = {
    "leading": {"orthonormality"},
    "connection_ratio": set(),
    "norm_ratio": {"normalization_reference"},
    "mass": {"normalization_reference"},
}


@pytest.mark.parametrize("piece", list(_KERNEL_PIECE_ROWS))
def test_criterion_12_each_kernel_piece_fails_verify(monkeypatch, piece):
    _plant_kernel_piece(monkeypatch, piece)
    failed = {result.name for result in checks.run_suite() if not result.passed}
    assert failed == {"weight_orthogonality"} | _KERNEL_PIECE_ROWS[piece]


def test_zz_total_budget_and_verify_command():
    assert set(_TIMES) == set(range(1, 13)), "all criteria must have run"
    total = sum(_TIMES.values())
    print(f"acceptance total: {total:.3f} s over 12 criteria")
    assert total < 5.0
    result = subprocess.run(
        [sys.executable, "-m", "gupho", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
