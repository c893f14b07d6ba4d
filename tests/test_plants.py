"""One catalogue of planted errors for `gupho verify`: which rows each plant fails.

Each plant wraps one function, in every module that binds it, so that what
it returns is off by a relative 1e-8 (the ladder plants and a few pinned
readings take another size), and `run_suite` runs at a few configurations.
Every (plant, configuration) asserts the exact set of rows that fail, and a
reading where one is written as ``row=reading``.

Two standing assertions hold "every check can fail": every row of
`DEFORMED_ROWS` and `UNDEFORMED_ROWS` fails on at least one plant, and
every plant's wrapper is called and fails at least one row at the defaults.
"""

import dataclasses
import importlib
from typing import Callable, NamedTuple

import pytest

from gupho import checks

GROW = 1.0 + 1e-8

# the verify rows, in order, at eta > 0 and at eta = 0
DEFORMED_ROWS = [
    "solver_cross_validation", "relativistic_residual", "nr_limit", "gamma_invariance",
    "fm_exponent_consistency", "fm_quantization_zero", "orthonormality",
    "normalization_reference", "ladder_identity", "su11_algebra", "su11_casimir_commutant",
    "ode_residual", "nr_ode_residual", "weight_orthogonality", "undeformed_continuity",
]
UNDEFORMED_ROWS = [
    "solver_cross_validation", "nr_limit", "su11_algebra", "su11_casimir_commutant",
    "undeformed_continuity",
]

# the `verify` flags of each configuration, as run_suite arguments
CONFIGS = {
    "defaults": {},
    "eta0": {"eta": 0.0},  # --eta 0
    "eta0-heavy": {"eta": 0.0, "mass": 1e200},  # --eta 0 --mass 1e200
    "gamma": {"gamma": 0.05},  # --gamma 0.05
    "heavy": {"mass": 1e12, "eta": 1e-9},  # --mass 1e12 --eta 1e-9
    "nmax0": {"n_max": 0},  # --nmax 0
    "nmax60": {"eta": 0.01, "n_max": 60},  # --eta 0.01 --nmax 60
}


class Plant(NamedTuple):
    targets: str  # module.name of each binding the plant replaces
    wrap: Callable  # exact function -> planted function
    fails: dict  # configuration -> the rows that fail, "row=reading" pinning a reading


def _scaled(part=None, size=1e-8, where=lambda *args: True):
    """Wrap a function so that part of what it returns is 1 + size times too large, where where(*args) holds.

    part is None for a float, a tuple index, or the space-separated fields of a record.
    """
    def wrap(exact):
        def planted(*args):
            out = exact(*args)
            if not where(*args):
                return out
            if part is None:
                return out * (1.0 + size)
            if isinstance(part, int):
                return (*out[:part], out[part] * (1.0 + size), *out[part + 1:])
            return dataclasses.replace(out, **{f: getattr(out, f) * (1.0 + size) for f in part.split()})
        return planted
    return wrap


def _alpha_off(problem):
    """k1 = 1/2 - alpha with alpha 1e-8 relative too large, and k2 = 2 k1 with it."""
    k1 = 0.5 - (0.5 - problem.k1) * GROW
    return dataclasses.replace(problem, k1=k1, k2=2.0 * k1)


def _quantization_off(relations):
    """`_wave_relations` with the quantization relation's defect moved by 1e-8 of its scale."""
    weight, (defect, scale), exponent = relations
    return weight, (defect + 1e-8 * scale, scale), exponent


def _first_excited(system, n, branch):
    return n == 1


_LEVEL = "checks.energy_relativistic states.energy_relativistic"
_NR_LEVEL = "checks.energy_nonrel states.energy_nonrel"
_WAVE = "gup.wave_params checks.wave_params states.wave_params"
_STANDARD_ROWS = "gamma_invariance fm_exponent_consistency fm_quantization_zero"
_SU11_ROWS = "su11_algebra su11_casimir_commutant"

PLANTS = {
    # a level's delta moved after the solve; at eta = 0 only the level rows run
    "energy_relativistic.delta": Plant(_LEVEL, _scaled("delta"), {
        "defaults": "solver_cross_validation relativistic_residual nr_limit gamma_invariance "
                    "fm_quantization_zero ode_residual",
        "eta0": "solver_cross_validation nr_limit=1e-8",
        "eta0-heavy": "solver_cross_validation nr_limit=1e-8",  # E - m is 0 here; the rows read delta
        "heavy": "solver_cross_validation relativistic_residual nr_limit gamma_invariance "
                 "fm_quantization_zero ode_residual=5e-9",
        "nmax60": "solver_cross_validation relativistic_residual nr_limit gamma_invariance "
                  "fm_quantization_zero ode_residual",
    }),
    # undeformed_continuity compares the eta = 0 level with a planted one only when the eta = 0 one is exact
    "energy_relativistic.deformed_delta": Plant(
        _LEVEL, _scaled("delta", where=lambda system, n: system.algebra.eta > 0.0), {
            "defaults": "solver_cross_validation relativistic_residual nr_limit gamma_invariance "
                        "fm_quantization_zero ode_residual undeformed_continuity",
            "eta0": "nr_limit undeformed_continuity=1e-8",
            "eta0-heavy": "nr_limit undeformed_continuity=1e-8",
        }),
    # nr_ode_residual: B^ moves by e B^ against a scale 2 |B^|, so a relative e reads e / (2 + e)
    "energy_nonrel.energy": Plant(_NR_LEVEL, _scaled("energy delta"), {
        "defaults": "nr_limit=1e-8 nr_ode_residual=5e-9",
        "eta0": "nr_limit=1e-8",
    }),
    # nr_limit's kappa = 0 entries hold the undeformed level to its 1e-13 bound
    "energy_nonrel.undeformed_energy": Plant(
        _NR_LEVEL, _scaled("energy delta", 2e-13, where=lambda system, n: system.algebra.eta == 0.0), {
            "defaults": "nr_limit=2e-13",
            "eta0": "nr_limit=2e-13",
        }),
    # relativistic_residual: 2v moves by 2e v against a scale of about 4v at n = 0
    "wave_params.v": Plant(_WAVE, _scaled(0), {
        "defaults": "relativistic_residual=5e-9 fm_exponent_consistency ode_residual nr_ode_residual=9.52e-9",
        "heavy": "relativistic_residual fm_exponent_consistency ode_residual nr_ode_residual",
    }),
    # the states store it, and the weight order lam - 2v + alpha reads e lam / (lam + 2v); at n = 0 the
    # quantization relation does not read lam
    "wave_params.lam": Plant(_WAVE, _scaled(1), {
        "defaults": "relativistic_residual ode_residual=5e-9 nr_ode_residual=5e-9",
        "nmax0": "ode_residual=5e-9 nr_ode_residual=5e-9",
    }),
    "wave_params.a_hat": Plant(_WAVE, _scaled(2), {
        "defaults": f"{_STANDARD_ROWS} ode_residual nr_ode_residual",
    }),
    "wave_params.b_hat": Plant(_WAVE, _scaled(3), {
        "defaults": "relativistic_residual gamma_invariance fm_quantization_zero ode_residual nr_ode_residual",
    }),
    "_fm_problem.C": Plant("checks._fm_problem", _scaled("C"), {"defaults": _STANDARD_ROWS}),
    # alpha = gamma / eta is 0 in fm_quantization_zero unless the user's gamma is not
    "_fm_problem.alpha": Plant("checks._fm_problem", lambda exact: lambda *args: _alpha_off(exact(*args)), {
        "defaults": "gamma_invariance fm_exponent_consistency",
        "gamma": _STANDARD_ROWS,
    }),
    "fm_exponents.k5": Plant("checks.fm_exponents fm.fm_exponents", _scaled(1), {"defaults": _STANDARD_ROWS}),
    # make_state takes h_n from the kernel, so a wrong h_j moves the norms and the overlaps alike and
    # only the closed-form reference sees it; at lam = mu every T(l >= 1) is exactly 0, so only the
    # mixed-order products see a wrong connection ratio.  T(l) at j = n - 2l is T(0) times l
    # connection ratios, and h_j the mass times j norm ratios.
    "_connection_column.leading": Plant("specfun._connection_column", lambda exact: lambda n, lam, mu, top: [
        t * GROW for t in exact(n, lam, mu, top)], {
        "defaults": "orthonormality=2e-8 weight_orthogonality=2e-8",
    }),
    "_connection_column.ratio": Plant("specfun._connection_column", lambda exact: lambda n, lam, mu, top: [
        t * GROW ** ((n - j) // 2) for j, t in zip(range(n & 1, top + 1, 2), exact(n, lam, mu, top))], {
        "defaults": "weight_orthogonality=6.08e-9",
    }),
    # each column's j = min(n_a, n_b) term dropped: a degree-0 product then reads 0 against its integral
    "_connection_column.last_term": Plant("specfun._connection_column", lambda exact: lambda *args: [
        *exact(*args)[:-1], 0.0], {
        "defaults": "orthonormality=1 weight_orthogonality=1",
    }),
    # N_n goes as h_n^(-1/2), so each ladder pair's norms are off by a relative 5e-9
    "_weight_norms.ratio": Plant("specfun._weight_norms", lambda exact: lambda mu, top: [
        h * GROW ** j for j, h in zip(range(top & 1, top + 1, 2), exact(mu, top))], {
        "defaults": "normalization_reference=8e-8 ladder_identity=5e-9 weight_orthogonality=7.90e-8",
        "nmax0": "ladder_identity=5e-9 weight_orthogonality",  # h_0 has no ratio
        "nmax60": "normalization_reference=6e-7 ladder_identity=5e-9 weight_orthogonality",
    }),
    "_weight_mass": Plant("specfun._weight_mass", _scaled(), {
        "defaults": "normalization_reference=1e-8 weight_orthogonality=1e-8",
    }),
    "_reference_norm": Plant("checks._reference_norm", _scaled(), {"defaults": "normalization_reference=2e-8"}),
    # with one state the suite still compares the NR 0 <-> 1 pair
    "_ladder_factor.raise": Plant(
        "checks._ladder_factor states._ladder_factor",
        _scaled(1, 1e-6, where=lambda state, direction: direction == "raise"), {
            "defaults": "ladder_identity=1e-6",
            "nmax0": "ladder_identity=1e-6",
        }),
    "ladder_coeffs.l_plus": Plant("checks.ladder_coeffs states.ladder_coeffs", _scaled("l_plus", 1e-6), {
        "defaults": f"ladder_identity=1e-6 {_SU11_ROWS}",
        "eta0": _SU11_ROWS,
    }),
    "ladder_coeffs.l_minus": Plant("checks.ladder_coeffs states.ladder_coeffs", _scaled("l_minus", 1e-6), {
        "defaults": f"ladder_identity=1e-6 {_SU11_ROWS}",
        "eta0": _SU11_ROWS,
    }),
    # the rows read the level's own delta, which m + delta rounds for a heavy mass; only B^ moves, and
    # the state rows read `states`' own binding
    "wave_params.delta": Plant("checks.wave_params", lambda exact: lambda system, delta, e_plus_m: exact(
        system, delta * GROW, e_plus_m), {
        "defaults": "relativistic_residual=5e-9 gamma_invariance fm_quantization_zero=7.92e-8",
        "heavy": "relativistic_residual=5e-9 gamma_invariance fm_quantization_zero=8.17e-8",
    }),
    # the quantization defect moved by 1e-8 of its terms where `relativistic_residual` reads it; the
    # state rows read `states`' own binding
    "_wave_relations.quantization": Plant("checks._wave_relations", lambda exact: lambda *args: _quantization_off(
        exact(*args)), {
        "defaults": "relativistic_residual=1e-8",
        "heavy": "relativistic_residual=1e-8",
    }),
    # the fixed-point map 1e-8 too large, wherever the solver or the row forms h
    "_displacement": Plant("spectrum._displacement", lambda exact: lambda system, n, delta: (
        (h := exact(system, n, delta)) - 1e-8 * (delta - h)), {
        "defaults": "solver_cross_validation=1e-8",
        "eta0": "solver_cross_validation=1e-8",
    }),
    # one state, n = 1 on both branches; the ladder identity reads |dv| / v and |dlam| / lam to its neighbours
    "make_state.norm": Plant("checks.make_state", _scaled("norm", 5e-8, _first_excited), {
        "defaults": "orthonormality=1e-7 normalization_reference=1e-7 ladder_identity=5e-8",
        "nmax0": "orthonormality ladder_identity=5e-8",
    }),
    "make_state.v": Plant("checks.make_state", _scaled("v", 1e-6, _first_excited), {
        "defaults": "orthonormality normalization_reference ladder_identity=1e-6 ode_residual=9.40e-7 "
                    "nr_ode_residual",
        "nmax0": "orthonormality ladder_identity=1e-6 nr_ode_residual",
    }),
    "make_state.lam": Plant("checks.make_state", _scaled("lam", 1e-6, _first_excited), {
        "defaults": "orthonormality normalization_reference ladder_identity=1e-6 ode_residual nr_ode_residual",
    }),
    # the relativistic states are the level table's row at the user's kappa, so the level rows read it too
    "make_state.delta": Plant("checks.make_state", _scaled("delta", 1e-8, _first_excited), {
        "defaults": "solver_cross_validation relativistic_residual gamma_invariance fm_quantization_zero "
                    "ode_residual=5e-9 nr_ode_residual",
    }),
}


def plant(monkeypatch, name) -> list:
    """Install the plant `name` in every module that binds its function; returns the list each call appends to."""
    calls = []
    for target in PLANTS[name].targets.split():
        module, attr = target.split(".")
        module = importlib.import_module(f"gupho.{module}")
        planted = PLANTS[name].wrap(getattr(module, attr))

        def counted(*args, planted=planted):
            calls.append(args)
            return planted(*args)

        monkeypatch.setattr(module, attr, counted)
    return calls


def expected_rows(name, config) -> dict:
    """{row: pinned reading or None} of the rows the plant fails at the configuration."""
    return {row: float(value) if value else None
            for row, _, value in (token.partition("=") for token in PLANTS[name].fails[config].split())}


@pytest.mark.parametrize("config", CONFIGS)
def test_every_row_passes_unplanted(config):
    assert [r.name for r in checks.run_suite(**CONFIGS[config]) if not r.passed] == []


@pytest.mark.parametrize("name, config", [(name, config) for name in PLANTS for config in PLANTS[name].fails])
def test_failing_rows(monkeypatch, name, config):
    calls = plant(monkeypatch, name)
    results = {r.name: r for r in checks.run_suite(**CONFIGS[config])}
    assert calls, f"no binding of {PLANTS[name].targets} is called"
    expected = expected_rows(name, config)
    assert {row for row, r in results.items() if not r.passed} == set(expected)
    for row, reading in expected.items():
        if reading is not None:
            assert results[row].max_deviation == pytest.approx(reading, rel=1e-3), row


@pytest.mark.parametrize("deformed", [True, False], ids=["eta>0", "eta=0"])
def test_every_row_fails_on_some_plant(deformed):
    rows = [r.name for r in checks.run_suite(eta=0.1 if deformed else 0.0)]
    caught = {row for name in PLANTS for config in PLANTS[name].fails
              if (CONFIGS[config].get("eta", 0.1) > 0.0) == deformed for row in expected_rows(name, config)}
    assert rows == (DEFORMED_ROWS if deformed else UNDEFORMED_ROWS)
    assert set(rows) - caught == set()


def test_every_plant_fails_a_row_at_the_defaults():
    # test_failing_rows then shows that its wrapper is called there
    assert [name for name in PLANTS if not PLANTS[name].fails.get("defaults")] == []
