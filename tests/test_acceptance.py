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

from gupho import checks, specfun, states
from gupho.gup import DeformedAlgebra, OscillatorSystem
from gupho.spectrum import ratio_sweep
from gupho.states import NONRELATIVISTIC, RELATIVISTIC, make_state
from test_plants import _scaled, expected_rows, plant

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


def _unit_table():
    """The suite's level table at m = omega = hbar = 1, alpha = 0 and n <= 8."""
    return checks._level_table(1.0, 1.0, 1.0, 0.0, checks._KAPPA_GRID, 8)


def test_criterion_03_solver_agreement():
    started = time.perf_counter()
    table = _unit_table()
    for result in (
        checks._check_solver_cross_validation(table),
        checks._check_wave_map(table, 0.0)[0],
    ):
        assert result.name in ("solver_cross_validation", "relativistic_residual")
        assert result.passed, result
    elapsed = _verdict(3, "closed-form cubic vs unsquared fixed point", started)
    assert elapsed < 100e-3


def test_criterion_04_nr_limit():
    started = time.perf_counter()
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert result.passed, result
    _verdict(4, "nonrelativistic limit", started)
    # the rest mass scales with hbar omega, so the relative gap does not grow with it
    for omega, hbar in ((100.0, 1.0), (3.0, 50.0), (1e-3, 1.0)):
        assert checks._check_nr_limit(omega, hbar, 0.0).passed, (omega, hbar)


def test_criterion_04_fails_on_a_wrong_nr_level(monkeypatch):
    # the target is energy_nonrel times a first-order factor, so a relative error e in it reads e
    plant(monkeypatch, "energy_nonrel.energy")
    result = checks._check_nr_limit(1.0, 1.0, 0.0)
    assert not result.passed
    assert result.max_deviation == pytest.approx(1e-8, rel=1e-3)


def _rel_states(eta):
    # through checks.make_state, which the plants of tests/test_plants.py replace
    return [checks.make_state(_system(eta=eta), n, RELATIVISTIC) for n in range(9)]


def _rows(**params):
    """run_suite's results by row name."""
    return {result.name: result for result in checks.run_suite(**params)}


def test_criterion_05_gamma_invariance():
    started = time.perf_counter()
    for eta in _ETAS:
        result = _rows(eta=eta)["gamma_invariance"]
        assert result.passed, result
    _verdict(5, "gamma invariance through the standard form", started)


def test_criterion_05_fails_on_a_wrong_energy(monkeypatch):
    # a 1e-8 relative error in a state's delta, the field the check reads, fails it
    plant(monkeypatch, "make_state.delta")
    result = _rows()["gamma_invariance"]
    assert not result.passed
    assert result.max_deviation > 1e-8


def test_criterion_06_fm_pipeline_equivalence():
    started = time.perf_counter()
    rows = _rows()
    for name in ("fm_exponent_consistency", "fm_quantization_zero"):
        assert rows[name].passed, rows[name]
    _verdict(6, "standard-form pipeline equivalence", started)


@pytest.fixture(scope="module")
def nr_states():
    system = _system(eta=1.0, gamma=0.0)
    return [make_state(system, n, NONRELATIVISTIC) for n in range(10)]


@pytest.fixture(scope="module")
def rel_states():
    system = _system(eta=1.0, gamma=0.0)
    return [make_state(system, n, RELATIVISTIC) for n in range(9)]


def test_criterion_07_orthonormality(nr_states):
    started = time.perf_counter()
    result = checks._check_orthonormality(nr_states[:9])
    assert result.passed, result
    _verdict(7, "orthonormality", started)


def test_criterion_07_fails_on_a_missing_term(monkeypatch, nr_states):
    plant(monkeypatch, "_connection_column.last_term")
    result = checks._check_orthonormality(nr_states[:9])
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_criterion_08_normalization_reference(rel_states):
    started = time.perf_counter()
    result = checks._check_normalization_reference(rel_states)
    assert result.passed, result
    _verdict(8, "stored norms against the closed-form reference", started)


def test_criterion_08_fails_on_a_wrong_norm(monkeypatch):
    # every norm ratio 1e-8 too large: make_state's h_n moves by (1 + 1e-8)^n and only the reference sees it
    plant(monkeypatch, "_weight_norms.ratio")
    result = checks._check_normalization_reference(_rel_states(1.0))
    assert not result.passed
    assert result.max_deviation > 1e-8


def test_criterion_09_ladder_identity(nr_states):
    started = time.perf_counter()
    result = checks._check_ladder_identity(nr_states)
    assert result.passed, result
    _verdict(9, "ladder identity", started)


@pytest.mark.parametrize("field", ["v", "lam"])
def test_criterion_09_fails_on_a_neighbour_with_another_exponent(monkeypatch, field):
    # the relation f N_n = l N_(n+-1) holds pointwise only if the neighbours share v and lam; n = 1's is 1e-6 off
    plant(monkeypatch, f"make_state.{field}")
    wrong = [checks.make_state(_system(eta=1.0), n, NONRELATIVISTIC) for n in range(10)]
    result = checks._check_ladder_identity(wrong)
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
    for name in ("gegenbauer", "_gegenbauer"):
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
        wrong = [dataclasses.replace(state, **{field: planted(state)}) for state in _rel_states(eta)]
        result = checks._check_ode_residual(wrong)
        assert not result.passed, (eta, result)


@pytest.mark.parametrize("scale", [1e-3, 1e-8])
def test_criterion_11_nr_fails_on_a_wrong_energy(monkeypatch, scale):
    # a relative error e in energy_nonrel, whose delta is the level itself, moves B^ by e B^: the
    # quantization relation n (n + 2 lam) + 2v + B^ = 0 has the scale 2 |B^| (1 + e / 2), so it reads e / (2 + e)
    monkeypatch.setattr(states, "energy_nonrel", _scaled("energy delta", scale)(states.energy_nonrel))
    result = next(r for r in checks.run_suite() if r.name == "nr_ode_residual")
    assert not result.passed
    assert result.max_deviation == pytest.approx(scale / (2.0 + scale), rel=1e-6)


def test_criterion_12_weight_integral_oracle():
    started = time.perf_counter()
    result = checks._check_weight_orthogonality()
    assert result.passed, result
    _verdict(12, "weighted polynomial integral", started)


def test_criterion_12_fails_on_a_missing_term(monkeypatch):
    # a degree-0 column has one term, so the product of two degree-0 factors reads 0 against its integral
    plant(monkeypatch, "_connection_column.last_term")
    result = checks._check_weight_orthogonality()
    assert not result.passed
    assert result.max_deviation == pytest.approx(1.0, rel=1e-12)


def test_criterion_12_fails_on_a_wrong_norm_ratio(monkeypatch):
    # every norm ratio 1e-8 relative too large moves h_j by (1 + 1e-8)^j, and the degree-8 products by ~8e-8
    plant(monkeypatch, "_weight_norms.ratio")
    result = checks._check_weight_orthogonality()
    assert not result.passed
    assert result.max_deviation == pytest.approx(7.9e-8, rel=1e-2)


_KERNEL_PIECES = {"leading": "_connection_column.leading", "connection_ratio": "_connection_column.ratio",
                  "norm_ratio": "_weight_norms.ratio", "mass": "_weight_mass"}


@pytest.mark.parametrize("piece", list(_KERNEL_PIECES))
def test_criterion_12_each_kernel_piece_fails_verify(monkeypatch, piece):
    plant(monkeypatch, _KERNEL_PIECES[piece])
    failed = {result.name for result in checks.run_suite() if not result.passed}
    assert failed == {"weight_orthogonality"} | set(expected_rows(_KERNEL_PIECES[piece], "defaults"))


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
