import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupho import checks, cli, fm, gup, spectrum
from test_plants import DEFORMED_ROWS, UNDEFORMED_ROWS, _scaled, expected_rows, plant


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "gupho", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def data_rows(stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _fed_e_minus_m(exact):
    """wave_params fed E - m, which keeps only the ulp of a heavy m, in place of the level's delta."""
    return lambda system, delta, e_plus_m: exact(system, system.mass + delta - system.mass, e_plus_m)


def _v_off_by_1e8(exact):
    """wave_params with v 1e-8 relative too large."""
    return _scaled(0)(exact)


def _v_at_a_wrong_e_plus_m(exact):
    """wave_params with v formed at E + m 1e-8 relative too large: only r = sqrt(2m / (E + m)) / kappa moves."""
    def planted(system, delta, e_plus_m):
        _, lam, a_hat, b_hat = exact(system, delta, e_plus_m)
        return exact(system, delta, e_plus_m * (1.0 + 1e-8))[0], lam, a_hat, b_hat

    return planted


class TestSpectrumCommand:
    def test_undeformed_nonrel_levels(self):
        result = run_cli("spectrum", "--eta", "0", "--branch", "nr", "--nmax", "4")
        assert result.returncode == 0
        header, rows = data_rows(result.stdout)
        assert header == ["n", "energy", "residual"]
        assert [float(r[1]) for r in rows] == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_relativistic_residual_column(self):
        result = run_cli("spectrum", "--eta", "0.1", "--branch", "rel", "--nmax", "6")
        assert result.returncode == 0
        _, rows = data_rows(result.stdout)
        for row in rows:
            assert len(row) == 3
            assert abs(float(row[2])) <= 1e-10

    def test_malformed_flag_exits_64_writes_nothing(self, tmp_path):
        out = tmp_path / "never.csv"
        result = run_cli("spectrum", "--eta", "bogus", "--out", str(out))
        assert result.returncode == 64
        assert not out.exists()
        assert result.stdout == ""

    def test_invalid_parameter_value_exits_64(self):
        result = run_cli("spectrum", "--mass", "-2")
        assert result.returncode == 64

    @pytest.mark.parametrize("mass", ["1e-90", "1e-140", "1e-160", "1e-200"])
    def test_tiny_mass_exits_2(self, mass):
        # U^2 overflows: a typed failure, never a traceback or a wrong level
        result = run_cli("spectrum", "--mass", mass)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("gupho: numerical failure:")
        assert result.stderr.count("\n") == 1

    def test_huge_deformation_stays_finite(self):
        result = run_cli("spectrum", "--branch", "nr", "--eta", "1e160", "--nmax", "2")
        assert result.returncode == 0
        _, rows = data_rows(result.stdout)
        assert all(math.isfinite(float(r[1])) for r in rows)
        # beyond the double range the level is a typed failure, not a silent inf
        assert run_cli("spectrum", "--branch", "nr", "--eta", "1e307", "--nmax", "100").returncode == 2

    def test_json_format(self):
        result = run_cli("spectrum", "--eta", "0", "--branch", "nr", "--nmax", "2",
                         "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["meta"]["columns"] == ["n", "energy", "residual"]
        assert [row[1] for row in doc["rows"]] == [0.5, 1.5, 2.5]


class TestFigure1Command:
    def test_anchor_ratios(self):
        result = run_cli("figure1", "--omega", str(math.pi), "--xi-min", "0",
                         "--xi-max", "50", "--steps", "2", "--n-list", "1,2,3")
        assert result.returncode == 0
        header, rows = data_rows(result.stdout)
        assert header == ["xi", "n", "E_n", "E_0", "ratio"]
        at_zero = {int(r[1]): float(r[4]) for r in rows if float(r[0]) == 0.0}
        assert at_zero == {1: 3.0, 2: 5.0, 3: 7.0}
        at_fifty = {int(r[1]): float(r[4]) for r in rows if float(r[0]) == 50.0}
        assert abs(at_fifty[3] - 16.0) <= 0.16

    def test_row_count_contract(self):
        result = run_cli("figure1", "--steps", "2", "--n-list", "1,2,3")
        _, rows = data_rows(result.stdout)
        assert len(rows) == 2 * 3

    def test_units_metadata_comment(self):
        result = run_cli("figure1", "--steps", "2")
        assert "# units=a0=1 (natural units)" in result.stdout
        assert "# branch=nr" in result.stdout

    def test_bad_range_rejected(self):
        assert run_cli("figure1", "--xi-min", "5", "--xi-max", "1").returncode == 64
        assert run_cli("figure1", "--steps", "1").returncode == 64

    def test_overflowing_eta_exits_2(self):
        # eta = xi^2 leaves the double range at xi = 1e200
        result = run_cli("figure1", "--xi-max", "1e200", "--steps", "2")
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1
        assert "numerical failure" in result.stderr


class TestStateCommand:
    def test_odd_state_is_odd_rowwise(self):
        result = run_cli("state", "--eta", "1", "--branch", "nr", "--n", "1",
                         "--samples", "21")
        assert result.returncode == 0
        _, rows = data_rows(result.stdout)
        assert len(rows) == 21
        phi = [float(r[2]) for r in rows]
        for i in range(len(phi)):
            assert phi[i] == -phi[len(phi) - 1 - i] or abs(phi[i] + phi[len(phi) - 1 - i]) < 1e-15

    def test_ground_center_value(self):
        result = run_cli("state", "--eta", "1", "--branch", "nr", "--n", "0",
                         "--samples", "3")
        _, rows = data_rows(result.stdout)
        center = rows[1]
        assert float(center[1]) == 0.0
        meta = dict(
            line[2:].split("=", 1) for line in result.stdout.splitlines()
            if line.startswith("# ") and "=" in line
        )
        expected = float(meta["norm"]) * 4.0 ** (-float(meta["v"]))
        assert float(center[2]) == expected  # same 17-digit round trip

    def test_endpoint_decay(self):
        result = run_cli("state", "--eta", "1", "--branch", "nr", "--n", "0",
                         "--samples", "5")
        _, rows = data_rows(result.stdout)
        phi = [abs(float(r[2])) for r in rows]
        assert phi[0] < phi[2] and phi[-1] < phi[2]

    def test_undeformed_exits_2(self):
        assert run_cli("state", "--eta", "0").returncode == 2

    def test_huge_deformation_stays_finite(self):
        result = run_cli("state", "--branch", "nr", "--eta", "1e300", "--samples", "5")
        assert result.returncode == 0, result.stderr
        _, rows = data_rows(result.stdout)
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_tiny_mass_exits_2(self):
        result = run_cli("state", "--eta", "1", "--mass", "1e-200")
        assert result.returncode == 2
        assert "numerical failure" in result.stderr

    @pytest.mark.parametrize("flags", [("--eta", "1e-170")])
    def test_tiny_eta_exits_2_without_a_traceback(self, flags):
        # kappa = hbar eta m omega = 1e-170: r = sqrt(2m / (E + m)) / kappa squares past the double range
        result = run_cli("state", *flags)
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gupho: numerical failure:")

    def test_heavy_mass_tiny_eta_is_the_scaled_unit_state(self, capsys):
        # eta^2 underflows at eta = 1e-300, but kappa = hbar eta m omega = 1 as at m = eta = 1, and
        # hbar omega / m = 1e-300 puts the level on the nr branch: the same v, lam and rho grid,
        # with phi scaled by eta^(1/4) = 1e-75
        def state(*flags):
            assert cli.main(["state", *flags, "--samples", "9"]) == cli.EXIT_OK
            out = capsys.readouterr().out
            meta = dict(ln[2:].split("=", 1) for ln in out.splitlines() if ln.startswith("# ") and "=" in ln)
            return meta, data_rows(out)[1]

        heavy_meta, heavy = state("--mass", "1e300", "--eta", "1e-300")
        unit_meta, unit = state("--eta", "1", "--branch", "nr")
        assert (heavy_meta["v"], heavy_meta["lambda"]) == (unit_meta["v"], unit_meta["lambda"])
        for (_, rho, phi), (_, unit_rho, unit_phi) in zip(heavy, unit):
            assert rho == unit_rho
            assert float(phi) / 1e-75 == pytest.approx(float(unit_phi), rel=1e-15)

    def test_underflowing_norm_exits_2(self):
        for flags in (("--branch", "nr", "--eta", "1e-200"), ("--eta", "1e-3")):
            result = run_cli("state", *flags)
            assert result.returncode == 2
            assert "numerical failure" in result.stderr

    def test_extreme_gamma_names_what_fails(self):
        # lam = 2v - gamma/eta = 1/2 + hypot(1/2, r) >= 1 rounds to 0 only where 4^(-2v) has
        # long underflowed, so the message names the norm and not the weight order; v can be negative
        huge = run_cli("state", "--gamma", "1e17")
        assert huge.returncode == 2
        assert huge.stderr == "gupho: numerical failure: raw norm integral is not a normal double: 0.0\n"
        negative = run_cli("state", "--gamma=-1e3")
        assert negative.returncode == 2
        assert "prefactor exponent v = " in negative.stderr


class TestVerifyCommand:
    def test_default_config_passes(self):
        result = run_cli("verify")
        assert result.returncode == 0, result.stdout + result.stderr
        _, rows = data_rows(result.stdout)
        assert all(r[3] == "pass" for r in rows)

    def test_failure_names_exactly_the_planted_rows(self, monkeypatch, capsys):
        # one plant of tests/test_plants.py through the command: exit 1, its rows printed as fail, in
        # verify's order, and named on stderr
        plant(monkeypatch, "energy_relativistic.delta")
        planted = expected_rows("energy_relativistic.delta", "defaults")
        assert cli.main(["verify"]) == cli.EXIT_VERIFY
        out, err = capsys.readouterr()
        _, rows = data_rows(out)
        failed = [r[0] for r in rows if r[3] == "fail"]
        assert failed == [name for name in DEFORMED_ROWS if name in planted]
        assert err == f"verification failed: {', '.join(failed)}\n"

    @pytest.mark.parametrize("flags, names", [((), DEFORMED_ROWS), (("--eta", "0"), UNDEFORMED_ROWS)])
    def test_row_names_are_pinned(self, capsys, flags, names):
        # a dropped, renamed or reordered check must fail here, not only in the benchmark's oracle
        assert cli.main(["verify", *flags]) == 0
        _, rows = data_rows(capsys.readouterr().out)
        assert [r[0] for r in rows] == names

    def test_literal_raise_flag_exits_64(self):
        # the printed raising form is not an option; criterion 09 pins its failure
        result = run_cli("verify", "--literal-raise")
        assert result.returncode == 64
        assert result.stdout == ""
        assert "unrecognized arguments: --literal-raise" in result.stderr

    def test_nmax_is_honoured(self, monkeypatch, capsys):
        built = []
        make_state = checks.make_state

        def recording(system, n, branch):
            built.append(n)
            return make_state(system, n, branch)

        monkeypatch.setattr(checks, "make_state", recording)
        assert cli.main(["verify", "--nmax", "12"]) == 0
        assert max(built) == 12
        assert "# nmax=12\n" in capsys.readouterr().out

    def test_huge_mass_passes(self):
        # B~ is formed from the level's delta, so E^2 never overflows
        result = run_cli("verify", "--mass", "1e200")
        assert result.returncode == 0, result.stderr
        _, rows = data_rows(result.stdout)
        assert len(rows) == len(DEFORMED_ROWS) and all(r[3] == "pass" for r in rows)

    @pytest.mark.parametrize("mass, eta", [
        ("1e12", "1e-9"), ("1e10", "1e-7"), ("1e15", "1e-12"), ("1e9", "1e-6"), ("1e8", "1e-5"),
    ])
    def test_heavy_mass_passes(self, capsys, mass, eta):
        # m + delta keeps only the ulp of m here; the wave-equation and standard-form rows read delta
        assert cli.main(["verify", "--mass", mass, "--eta", eta]) == cli.EXIT_OK
        _, rows = data_rows(capsys.readouterr().out)
        assert len(rows) == len(DEFORMED_ROWS) and all(r[3] == "pass" for r in rows)

    @pytest.mark.parametrize("flags", [
        ("--mass", "0.01", "--omega", "0.1", "--hbar", "0.1", "--eta", "1000"),
        ("--mass", "1e200", "--eta", "1e-198"),
        ("--mass", "1e150", "--omega", "1e80", "--eta", "1e-230"),
    ])
    def test_kappa_held_level_rows_pass(self, capsys, flags):
        # the level rows run at kappa = hbar eta m omega in (0.01, 0.1, 1), whatever the user's scale:
        # at a fixed eta grid the first read kappa = 1e-3..0.1 and failed, the second lost A~, and
        # the third needs B^ to divide by hbar omega kappa, not by hbar^2 m omega^2 eta
        assert cli.main(["verify", *flags]) == cli.EXIT_OK
        _, rows = data_rows(capsys.readouterr().out)
        assert len(rows) == len(DEFORMED_ROWS) and all(r[3] == "pass" for r in rows)

    @settings(max_examples=40, deadline=None)
    @given(
        mass=st.floats(-2.0, 15.0).map(lambda e: 10.0**e),
        omega=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        hbar=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        kappa=st.floats(math.log10(3e-3), 1.0).map(lambda e: 10.0**e),
        gamma_frac=st.sampled_from([0.0, 0.5, 2.0, 100.0]),
    )
    def test_every_row_passes_on_the_domain(self, mass, omega, hbar, kappa, gamma_frac):
        # kappa >= 3e-3 keeps the states inside their domain (README, "Domain of the states"); the
        # level table holds the user's alpha = gamma / eta, which at 100 and kappa >~ 3.8 its gamma did not
        eta = kappa / (hbar * mass * omega)
        results = checks.run_suite(mass, omega, hbar, eta, gamma_frac * eta)
        assert [r.name for r in results if not r.passed] == []

    @pytest.mark.parametrize("flags", [("--nmax", "1000"), ("--eta", "10", "--gamma", "1000"),
                                       ("--eta", "10", "--gamma", "5000")],
                             ids=["nmax1000", "eta10-gamma1000", "eta10-gamma5000"])
    def test_reading_relative_and_at_the_users_alpha_passes(self, capsys, flags):
        # the first failed relativistic_residual read absolutely (2.3e-10, terms growing like n^2); the
        # second failed fm_quantization_zero (5.4e-9) at table alpha up to 1e5, though the user's is 100;
        # alpha = 500 is the last before the states raise
        assert cli.main(["verify", *flags]) == cli.EXIT_OK
        _, rows = data_rows(capsys.readouterr().out)
        assert len(rows) == len(DEFORMED_ROWS) and all(r[3] == "pass" for r in rows)

    @pytest.mark.parametrize("params, message", [
        (dict(eta=math.nan), "eta must be finite and >= 0"),
        (dict(eta=-0.1), "eta must be finite and >= 0"),
        (dict(mass=-1.0), "mass must be finite and > 0"),
        (dict(n_max=-1), "n must be a nonnegative integer"),
        (dict(n_max=2.0), "n must be a nonnegative integer"),
    ], ids=["eta-nan", "eta-negative", "mass-negative", "nmax-negative", "nmax-float"])
    def test_invalid_inputs_raise_value_error(self, params, message):
        # the user's system and n_max are checked before any row: a NaN or negative eta returned five
        # passing undeformed rows, a negative mass raised SolverError, and n_max = -1 or 2.0 no typed error
        with pytest.raises(ValueError) as raised:
            checks.run_suite(**params)
        assert str(raised.value) == message

    def test_exponent_row_reads_the_users_alpha(self):
        # the row read gamma / eta in {0, 1/2, 1} alone, so its reading was 7.1e-15 at all three; read
        # absolutely at alpha = 500 it would be 6.3e-12, so it reads relative to v's terms
        readings = [next(r for r in checks.run_suite(eta=10.0, gamma=gamma) if r.name == "fm_exponent_consistency")
                    for gamma in (0.0, 1000.0, 5000.0)]
        assert all(r.passed for r in readings)
        assert readings[0].max_deviation < readings[1].max_deviation < readings[2].max_deviation

    def test_level_table_is_solved_once(self, monkeypatch):
        # no (system, n) goes to the solver twice in one run_suite: the relativistic states, at the
        # user's exact system, are the level table's last row, and the grid kappa equal to the user's
        # (0.1 at the defaults) is dropped; off the grid (kappa = 0.9) all three grid rows stay
        exact, solved = spectrum.energy_relativistic, []

        def counted(system, n):
            solved.append((system, n))
            return exact(system, n)

        for module in ("checks", "states", "spectrum"):
            monkeypatch.setattr(f"gupho.{module}.energy_relativistic", counted)
        for mass, omega, hbar, eta, gamma, rows in ((1.0, 1.0, 1.0, 0.1, 0.0, 2), (2.0, 0.5, 3.0, 0.3, 0.15, 3)):
            solved.clear()
            checks.run_suite(mass, omega, hbar, eta, gamma, n_max=8)
            # 9 levels per table row, nr_limit's 4 tables of 6 and undeformed_continuity's 2 of 4
            assert len(solved) == len(set(solved)) == 9 * (rows + 1) + 6 * 4 + 4 * 2
            grid = [checks._system_at(mass, omega, hbar, kappa, gamma / eta) for kappa in checks._KAPPA_GRID
                    if kappa != mass * omega * eta * hbar]
            user = checks._system(mass, omega, hbar, eta, gamma)
            assert len(grid) == rows
            for system in grid + [user]:
                assert [solved.count((system, n)) for n in range(9)] == [1] * 9

    def test_level_rows_map_each_level_once(self, monkeypatch):
        # the four wave-map rows read one (v, lam, A^, B^) per (system, delta): each table row at the
        # user's alpha and at gamma / eta in {0, 1/2, 1, 2}, at its 9 levels and the trial levels m/10
        # and m; three functions that each mapped the table made 279 calls (108 distinct) at the
        # defaults and 363 (141) at the second configuration
        exact, mapped = gup.wave_params, []

        def counted(system, delta, e_plus_m):
            mapped.append((system, delta, e_plus_m))
            return exact(system, delta, e_plus_m)

        for module in ("gup", "checks"):
            monkeypatch.setattr(f"gupho.{module}.wave_params", counted)
        for mass, omega, hbar, eta, gamma, rows in ((1.0, 1.0, 1.0, 0.1, 0.0, 2), (2.0, 0.5, 3.0, 0.3, 0.15, 3)):
            mapped.clear()
            checks.run_suite(mass, omega, hbar, eta, gamma, n_max=8)
            assert len(mapped) == len(set(mapped)) == (rows + 1) * 4 * (9 + 2)

    def test_wave_map_forms_each_exponent_pair_once(self, monkeypatch):
        # the standard-form residual reads the (k4, k5) that fm_exponent_consistency formed; a
        # residual that formed them again made 240 calls (132 distinct) at the defaults and 320 (176)
        # at the second configuration
        exact, formed = fm.fm_exponents, []

        def counted(problem):
            formed.append(dataclasses.astuple(problem))
            return exact(problem)

        for module in ("fm", "checks"):
            monkeypatch.setattr(f"gupho.{module}.fm_exponents", counted)
        for mass, omega, hbar, eta, gamma, rows in ((1.0, 1.0, 1.0, 0.1, 0.0, 2), (2.0, 0.5, 3.0, 0.3, 0.15, 3)):
            formed.clear()
            checks.run_suite(mass, omega, hbar, eta, gamma, n_max=8)
            assert len(formed) == len(set(formed)) == (rows + 1) * 4 * (9 + 2)

    def test_zero_kappa_is_eta_0_at_any_scale(self):
        # hbar m omega = 1e-325 underflows to 0; kappa / 0 is not eta, but kappa = 0 is eta = 0
        system = checks._system_at(1e-165, 1e-160, 1.0, 0.0, 0.0)
        assert system.algebra.eta == 0.0
        with pytest.raises(spectrum.SolverError, match="no double eta"):
            checks._system_at(1e-165, 1e-160, 1.0, 0.1, 0.0)

    @pytest.mark.parametrize("name, planted, failing", [
        ("wave_params", _fed_e_minus_m, "relativistic_residual gamma_invariance fm_quantization_zero"),
        ("wave_params", _v_off_by_1e8, "relativistic_residual fm_exponent_consistency"),
        ("wave_params", _v_at_a_wrong_e_plus_m, "relativistic_residual fm_exponent_consistency"),
    ])
    def test_heavy_mass_fails_on_a_wrong_level_row(self, monkeypatch, capsys, name, planted, failing):
        # at a fixed eta grid, m = 1e12 put kappa >= 1e10, where r ~ 1e-10 rounds away: both rows
        # then read 0 with the first and third errors; only checks' binding is planted, so the state
        # rows pass, and B^ fed E - m fails the quantization relation and both standard-form residuals
        monkeypatch.setattr(checks, name, planted(getattr(checks, name)))
        assert cli.main(["verify", "--mass", "1e12", "--eta", "1e-9"]) == cli.EXIT_VERIFY
        _, rows = data_rows(capsys.readouterr().out)
        assert [r[0] for r in rows if r[3] == "fail"] == failing.split()

    def test_tiny_eta_exits_2_without_a_traceback(self):
        result = run_cli("verify", "--eta", "1e-170")
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gupho: numerical failure:")

    def test_huge_mass_undeformed_passes(self):
        # U underflows at eta = 0 here; the level is carried in sigma = hypot(Q, sqrt(U))
        result = run_cli("verify", "--eta", "0", "--mass", "1e200")
        assert result.returncode == 0, result.stderr
        _, rows = data_rows(result.stdout)
        assert len(rows) == len(UNDEFORMED_ROWS) and all(r[3] == "pass" for r in rows)

    def test_huge_mass_undeformed_fails_on_a_wrong_delta(self, monkeypatch, capsys):
        # m + delta rounds to m here, so only the level's own delta can show a 1e-8 error in it;
        # the planted level carries the residual h(delta) the solver forms at its delta
        exact = checks.energy_relativistic

        def off_by_1e8(system, n):
            level = exact(system, n)
            wrong = level.delta * (1.0 + 1e-8)
            return dataclasses.replace(level, delta=wrong, residual=spectrum._displacement(system, n, wrong))

        monkeypatch.setattr(checks, "energy_relativistic", off_by_1e8)
        assert cli.main(["verify", "--eta", "0", "--mass", "1e200"]) == cli.EXIT_VERIFY
        _, rows = data_rows(capsys.readouterr().out)
        row = next(r for r in rows if r[0] == "solver_cross_validation")
        assert row[3] == "fail" and float(row[1]) > 1e-9

    @pytest.mark.parametrize("flags", [
        ("--hbar", "50", "--omega", "3"), ("--eta", "0", "--omega", "1e4"),
        ("--eta", "0", "--mass", "1e200"),
    ])
    def test_undeformed_continuity_holds_off_unit_scale(self, capsys, flags):
        # the deformed level is taken at fixed hbar eta m omega, so the bound holds at any scale
        assert cli.main(["verify", *flags]) == 0
        _, rows = data_rows(capsys.readouterr().out)
        row = next(r for r in rows if r[0] == "undeformed_continuity")
        assert row[3] == "pass" and float(row[1]) > 0.0

    @pytest.mark.parametrize("mass", ["1", "1e200"])
    def test_undeformed_nr_limit_fails_on_a_wrong_delta(self, monkeypatch, capsys, mass):
        # every relativistic delta 1e-8 too large, at eta = 0 as well: undeformed_continuity compares two
        # planted levels, so nr_limit and solver_cross_validation, which re-forms h at each delta, see it
        plant(monkeypatch, "energy_relativistic.delta")
        assert cli.main(["verify", "--eta", "0", "--mass", mass]) == cli.EXIT_VERIFY
        _, rows = data_rows(capsys.readouterr().out)
        assert [r[0] for r in rows if r[3] == "fail"] == ["solver_cross_validation", "nr_limit"]
        row = next(r for r in rows if r[0] == "nr_limit")
        assert float(row[1]) == pytest.approx(1e-8, rel=1e-3)

    def test_tiny_mass_exits_2(self):
        result = run_cli("verify", "--mass", "1e-150")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "numerical failure" in result.stderr

    def test_undeformed_config_passes(self):
        result = run_cli("verify", "--eta", "0")
        assert result.returncode == 0
        _, rows = data_rows(result.stdout)
        names = [r[0] for r in rows]
        assert len(names) == len(UNDEFORMED_ROWS) and "nr_limit" in names
        assert "orthonormality" not in names  # deformed-only checks skipped

    def test_undeformed_tiny_scale_names_the_failing_row(self):
        # hbar m omega underflows to 0, but kappa = 0 is eta = 0 at any scale: the undeformed table is
        # solved, and the failure is nr_limit's kappa = 0.1 at mass 1e8 hbar omega = 1e-152
        result = run_cli("verify", "--eta", "0", "--omega", "1e-160", "--mass", "1e-165")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "hbar eta m omega = 0.1 at mass 1e-152" in result.stderr

    def test_overflowing_nr_limit_mass_exits_2(self):
        # the user's mass is 1 and kappa is 1, so the user's levels are finite, but nr_limit's own mass
        # 1e8 hbar omega overflows; the message names it
        result = run_cli("verify", "--hbar", "1e150", "--omega", "1e155", "--eta", "1e-305")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "gupho: numerical failure: nr_limit's mass 1e8 hbar omega = inf leaves the double range\n"
        )

    def test_overflowing_eta_exits_2(self):
        result = run_cli("verify", "--eta", "1e-160")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "numerical failure" in result.stderr


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_level_range_edges_are_named(command):
    # kappa = 1e259 at eta = 0.1: the level itself overflows (a b c = inf), and the message says so;
    # a tiny mass is the other edge, where U^2 leaves the double range
    over = run_cli(command, "--mass", "1e200", "--omega", "1e60")
    assert over.returncode == 2 and over.stdout == ""
    assert "overflows" in over.stderr and "underflow" not in over.stderr
    under = run_cli(command, "--mass", "1e-200")
    assert under.returncode == 2 and "U^2 leaves the double range" in under.stderr


class TestFmCommand:
    def test_exponents_and_residual(self):
        result = run_cli("fm", "--k1", "0", "--k2", "0", "--k3", "1",
                         "--A", "0", "--B", "0", "--C", "0", "--n", "0")
        assert result.returncode == 0
        header, rows = data_rows(result.stdout)
        assert header == ["k4", "k5", "residual"]
        assert [float(v) for v in rows[0]] == [1.0, 1.0, 1.0]

    def test_no_bound_state_exits_2(self):
        result = run_cli("fm", "--k1", "0", "--k2", "0", "--k3", "1",
                         "--A", "0", "--B", "0", "--C", "10")
        assert result.returncode == 2

    def test_missing_coefficient_exits_64(self):
        result = run_cli("fm", "--k1", "0")
        assert result.returncode == 64

    def test_non_finite_coefficient_exits_64(self):
        for k1 in ("nan", "inf"):
            result = run_cli("fm", f"--k1={k1}", "--k2=1", "--k3=1", "--A=-3", "--B=3", "--C=-2")
            assert result.returncode == 64
            assert result.stdout == ""
            assert "k1 must be finite" in result.stderr

    def test_nan_model_parameter_exits_64(self):
        # fm reads no oscillator parameter, so it takes none
        for flag in ("--eta=nan", "--mass=nan", "--gamma=nan"):
            result = run_cli("fm", "--k1=0.5", "--k2=1", "--k3=1", "--A=-3", "--B=3", "--C=-2", flag)
            assert result.returncode == 64, flag
            assert result.stdout == ""
            assert "unrecognized arguments" in result.stderr


FM_COEFFS = ["--k1=0.5", "--k2=1", "--k3=1", "--A=-3", "--B=3", "--C=-2"]


@pytest.mark.parametrize("n", ["-1", str(2**53), "9" * 401], ids=["negative", "2**53", "401-digits"])
@pytest.mark.parametrize("command", [["fm", *FM_COEFFS, "--n={n}"], ["state", "--n={n}"],
                                     ["figure1", "--n-list=1,{n}"]], ids=lambda command: command[0])
def test_quantum_number_outside_its_domain_exits_64(command, n):
    # one check, `fm._require_n`, for every command; n = 2**53 printed rows from an n rounded to a double
    # (`state` ran past 120 s), and a 401-digit n exited 1 with an OverflowError traceback
    result = run_cli(*(arg.format(n=n) for arg in command))
    assert (result.returncode, result.stdout) == (64, "")
    assert "n must be a nonnegative integer" in result.stderr and "Traceback" not in result.stderr


# the options each command takes: exactly those its handler reads
COMMAND_OPTIONS = {
    "spectrum": {"mass", "omega", "hbar", "eta", "gamma", "nmax", "branch", "format", "out", "config"},
    "figure1": {"mass", "omega", "hbar", "gamma", "xi-min", "xi-max", "steps", "n-list",
                "format", "out", "config"},
    "state": {"mass", "omega", "hbar", "eta", "gamma", "branch", "n", "samples", "format", "out", "config"},
    "verify": {"mass", "omega", "hbar", "eta", "gamma", "nmax", "format", "out", "config"},
    "fm": {"k1", "k2", "k3", "A", "B", "C", "n", "format", "out", "config"},
}
_VALUES = {"branch": "nr", "nmax": "2"}


class TestCommandOptions:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_help_lists_exactly_the_commands_options(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--([A-Za-z0-9-]+)", capsys.readouterr().out)) - {"help"}
        assert flags == COMMAND_OPTIONS[command]

    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command in sorted(COMMAND_OPTIONS)
        for option in ("mass", "omega", "hbar", "eta", "gamma", "nmax", "branch")
        if option not in COMMAND_OPTIONS[command]
    ])
    def test_option_of_another_command_exits_64(self, command, option, capsys):
        argv = [command, *(FM_COEFFS if command == "fm" else []), f"--{option}={_VALUES.get(option, '1')}"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("command, line", [
        (["fm", *FM_COEFFS], "mass = abc"),
        (["state", "--samples=3"], "nmax = -1"),
        (["figure1", "--steps=3"], "branch = xx"),
    ])
    def test_config_key_of_another_command_is_ignored(self, tmp_path, command, line, capsys):
        # a known key that this command does not take is not parsed; an unknown key still exits 64
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert cli.main([*command, "--config", str(cfg)]) == cli.EXIT_OK
        cfg.write_text(line + "\ntau = 3\n")
        assert cli.main([*command, "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "unknown key 'tau'" in capsys.readouterr().err


class TestOutputDiscipline:
    def test_byte_identical_runs(self):
        a = run_cli("spectrum", "--eta", "0.1", "--nmax", "5")
        b = run_cli("spectrum", "--eta", "0.1", "--nmax", "5")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "table.csv"
        direct = run_cli("spectrum", "--eta", "0.1", "--nmax", "3")
        written = run_cli("spectrum", "--eta", "0.1", "--nmax", "3", "--out", str(out))
        assert written.returncode == 0
        assert written.stdout == ""
        assert out.read_text() == direct.stdout

    def test_unwritable_out_file_exits_64(self, tmp_path):
        out = tmp_path / "missing" / "table.csv"
        result = run_cli("spectrum", "--out", str(out))
        assert result.returncode == 64
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("gupho: error: cannot write output file:")
        assert len(result.stderr.splitlines()) == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0\nbranch = nr\nnmax = 2  # comment\n")
        base = run_cli("spectrum", "--config", str(cfg))
        _, rows = data_rows(base.stdout)
        assert [float(r[1]) for r in rows] == [0.5, 1.5, 2.5]
        # flags override the file
        override = run_cli("spectrum", "--config", str(cfg), "--nmax", "1")
        _, rows = data_rows(override.stdout)
        assert len(rows) == 2

    def test_unknown_config_key_exits_64(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau = 3\n")
        assert run_cli("spectrum", "--config", str(cfg)).returncode == 64

    @pytest.mark.parametrize("line", ["branch = xx", "format = xml", "mass = abc", "nmax = -1"])
    def test_invalid_config_value_exits_64(self, tmp_path, line):
        # config values never pass argparse's type and choices checks
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        result = run_cli("spectrum", "--config", str(cfg))
        assert result.returncode == 64
        assert result.stdout == ""
        assert result.stderr.startswith("gupho: error:")

    def test_quad_order_env_is_ignored(self):
        import os

        env = dict(os.environ)
        env.pop("GUP_QUAD_ORDER", None)
        plain = run_cli("state", "--eta", "1", "--branch", "nr", "--n", "2", "--samples", "5", env=env)
        env["GUP_QUAD_ORDER"] = "not-an-int"
        ignored = run_cli("state", "--eta", "1", "--branch", "nr", "--n", "2", "--samples", "5", env=env)
        assert ignored.returncode == plain.returncode == 0
        assert ignored.stdout == plain.stdout


def _readme_cli_examples():
    """The arguments of each `gupho ...` line in the code blocks of README's "CLI" section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for block in section.split("```")[1::2]
            for line in block.splitlines() if line.startswith("gupho ")]


def test_readme_cli_examples_cover_every_command():
    assert sorted(args[0] for args in _readme_cli_examples()) == sorted(COMMAND_OPTIONS)


@pytest.mark.parametrize("args", _readme_cli_examples(), ids=lambda args: args[0])
def test_readme_cli_example_runs(args):
    # each as `python -m gupho` in a fresh interpreter, as a shell user runs it
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == f"# gupho {args[0]}"
