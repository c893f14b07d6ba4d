"""The benchmark's own checks: its oracles reject planted wrong answers and its inputs are seeded.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from gupho import QuadratureAccuracyError  # noqa: E402

SPECTRUM_INPUT = {"eta": 0.3, "mass": 2.0, "omega": 1.5, "gamma": 0.1, "nmax": 8,
                  "n_list": wl.N_LIST, "xi_grid": wl._xi_grid(20.0)}


def _states_input(branch):
    return {"branch": branch, "eta": 0.7, "mass": 1.2, "omega": 0.9, "gamma": 0.2, "nmax": 4,
            "ladder_rho": [-0.6, -0.1, 0.3, 0.8]}


def _bump(x, rel):
    return x * (1.0 + rel)


@pytest.mark.parametrize("mass, omega, eta, n", [
    (1.0, 1.0, 0.1, 0), (1.0, 0.1, 1e-9, 100), (1e6, 10.0, 1e3, 100), (37.0, 2.0, 0.0, 5),
])
def test_relativistic_oracle_matches_high_precision_root(mass, omega, eta, n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    m, w, e = mpmath.mpf(mass), mpmath.mpf(omega), mpmath.mpf(eta)
    a, b = w * m / 2, e * w

    def h(d):
        return d - a * b * (n * n + n + mpmath.mpf(1) / 2) - a * (2 * n + 1) * mpmath.sqrt(b * b / 4 + 2 / (m * (d + 2 * m)))

    want = mpmath.findroot(h, mpmath.mpf(oracle.rel_delta(mass, omega, eta, n)))
    assert abs(oracle.rel_delta(mass, omega, eta, n) - want) <= 1e-14 * want


def test_gauss_gegenbauer_overlap_reproduces_closed_form_norm():
    ref = oracle.RefState("rel", 1.0, 1.0, 0.5, 0.1, 3)
    assert oracle.overlap(ref, ref) == pytest.approx(1.0, abs=1e-13)


def test_spectrum_oracle_rejects_planted_errors():
    out = wl.spectrum_op(SPECTRUM_INPUT, wl.direct)
    assert oracle.check_spectrum(SPECTRUM_INPUT, out) == []

    planted = dict(out, rel=list(out["rel"]))
    planted["rel"][3] = dataclasses.replace(out["rel"][3], energy=_bump(out["rel"][3].energy, 1e-8))
    assert oracle.check_spectrum(SPECTRUM_INPUT, planted)

    planted = dict(out, nr=list(out["nr"]))
    planted["nr"][5] = dataclasses.replace(out["nr"][5], energy=_bump(out["nr"][5].energy, 1e-8))
    assert oracle.check_spectrum(SPECTRUM_INPUT, planted)

    energy, residual = out["fm"][2]
    k4, _, _ = oracle.fm_terms(*oracle.standard_form(2.0, 1.5, 0.3, 0.1, energy), 2)
    planted = dict(out, fm=list(out["fm"]))
    planted["fm"][2] = (energy, residual + 1e-8 * k4)
    assert oracle.check_spectrum(SPECTRUM_INPUT, planted)

    planted = dict(out, ratio=list(out["ratio"]))
    xi, n, e_n, e_0, ratio = out["ratio"][40]
    planted["ratio"][40] = (xi, n, e_n, e_0, _bump(ratio, 1e-8))
    assert oracle.check_spectrum(SPECTRUM_INPUT, planted)
    assert oracle.check_spectrum(SPECTRUM_INPUT, dict(out, ratio=out["ratio"][:-1]))


@pytest.mark.parametrize("branch", ["nr", "rel"])
def test_states_oracle_rejects_planted_errors(branch):
    inp = _states_input(branch)
    out = wl.states_op(inp, wl.direct)
    assert oracle.check_states(inp, out) == []

    for key in [(0, 0), (1, 3)]:
        planted = dict(out, gram=dict(out["gram"]))
        planted["gram"][key] += 1e-9
        assert oracle.check_states(inp, planted), key

    planted = dict(out, diag=list(out["diag"]))
    planted["diag"][2] += 1e-9
    assert oracle.check_states(inp, planted)

    planted = dict(out, states=list(out["states"]))
    planted["states"][1] = dataclasses.replace(out["states"][1], norm=_bump(out["states"][1].norm, 1e-8))
    assert oracle.check_states(inp, planted)

    planted = dict(out, values=list(out["values"]))
    planted["values"][3] = out["values"][3] * (1.0 + 1e-8)
    assert oracle.check_states(inp, planted)

    planted = dict(out, ladder=dict(out["ladder"]))
    planted["ladder"][(2, "raise")] = [_bump(v, 1e-6) for v in out["ladder"][(2, "raise")]]
    assert oracle.check_states(inp, planted)


def test_states_known_failure_regime():
    inp = dict(_states_input("nr"), eta=1e-3, mass=1.0, omega=1.0)
    with pytest.raises(QuadratureAccuracyError):
        wl.states_op(inp, wl.direct)
    assert wl.known_failure("states", inp)
    assert not wl.known_failure("states", _states_input("nr"))
    assert not wl.known_failure("spectrum", SPECTRUM_INPUT)


def test_later_passes_nudge_inputs_without_changing_outcomes():
    inp = _states_input("rel")
    nudged = wl.for_pass(inp, 40)
    assert nudged != inp and nudged["mass"] == pytest.approx(inp["mass"], rel=1e-10)
    assert oracle.check_states(nudged, wl.states_op(nudged, wl.direct)) == []
    with pytest.raises(QuadratureAccuracyError):
        wl.states_op(wl.for_pass(dict(inp, eta=1e-3, mass=1.0, omega=1.0), 40), wl.direct)
    command = wl.first_cli_inputs(7)["spectrum"]
    assert wl.for_pass(command, 3) is command


def _run_cli(inp, capsys):
    from gupho import cli

    code = cli.main(inp["argv"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", ["spectrum", "spectrum_nr", "figure1", "state", "fm"])
def test_cli_oracle_rejects_planted_errors(command, capsys):
    inp = wl.first_cli_inputs(7)[command]
    code, text = _run_cli(inp, capsys)
    assert oracle.check_cli(inp, code, text) == []
    assert oracle.check_cli(inp, 2, text)

    lines = text.splitlines()
    # a value of order one: the peak of the sampled state, the last level or ratio, k4
    row = len(lines) - 1 - (inp["samples"] // 2 if command == "state" else 0)
    col = {"fm": 0, "state": 2, "figure1": 4}.get(command, 1)
    fields = lines[row].split(",")
    fields[col] = repr(_bump(float(fields[col]), 1e-8))
    planted = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
    assert oracle.check_cli(inp, code, planted)
    assert oracle.check_cli(inp, code, "\n".join(lines[:-1]) + "\n")


def test_cli_verify_oracle_rejects_failed_or_missing_checks():
    header = "check,max_deviation,tolerance,status"
    rows = [f"c{i},1e-12,1e-10,pass" for i in range(oracle.VERIFY_MIN_ROWS)]
    inp = {"command": "verify", "argv": ["verify"]}
    assert oracle.check_cli(inp, 0, "\n".join([header] + rows)) == []
    assert oracle.check_cli(inp, 0, "\n".join([header] + rows[:-1]))
    assert oracle.check_cli(inp, 0, "\n".join([header] + rows[:-1] + ["cx,2e-10,1e-10,pass"]))
    assert oracle.check_cli(inp, 1, "\n".join([header] + rows))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first, again, other = wl.inputs(workload, 11), wl.inputs(workload, 11), wl.inputs(workload, 12)
    assert first == again
    assert first != other
    assert len(first) == len(other)
    if workload == "cli":
        commands = [inp["command"] for inp in first]
        for cycle in range(len(commands) // 6):
            assert sorted(commands[6 * cycle: 6 * cycle + 6]) == sorted(wl.CLI_COMMANDS)


def _strata(values, lo, hi, count):
    return sorted(math.floor((v - lo) / (hi - lo) * count) for v in values)


def test_pools_are_stratified():
    spectrum = wl.inputs("spectrum", 11)
    count = wl.SPECTRUM_LATTICE[0]
    assert sum(inp["eta"] == 0.0 for inp in spectrum) == wl.SPECTRUM_FLAT
    log_eta = [math.log10(inp["eta"]) for inp in spectrum if inp["eta"] > 0.0]
    assert _strata(log_eta, -9.0, 3.0, count) == list(range(count))
    assert {inp["nmax"] for inp in spectrum} <= set(range(8, 101))
    assert {8, 100} <= {inp["nmax"] for inp in spectrum}
    states = wl.inputs("states", 11)
    count = wl.STATES_LATTICE[0]
    for branch in wl.STATES_BRANCHES:
        points = [inp for inp in states if inp["branch"] == branch]
        assert _strata([math.log10(inp["eta"]) for inp in points], -4.0, 2.0, count) == list(range(count))
        log_mass = [math.log10(inp["mass"]) for inp in points]
        assert _strata(log_mass, math.log10(0.5), math.log10(2.0), count) == list(range(count))
        assert {inp["nmax"] for inp in points} == set(range(4, 17))


def test_rho_grid_is_open_interval():
    assert np.all(np.abs(wl.RHO_GRID) < 1.0) and wl.RHO_GRID.size == 1001
    assert math.isclose(wl.RHO_GRID[0], -0.999)
