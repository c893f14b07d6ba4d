"""Seeded inputs and the operations of the three benchmark workloads.

Every input is drawn from ``random.Random(f"{workload}-{seed}")``, except
the (eta, mass, omega, nmax) grid of ``states``, which is the same for every
seed; gupho receives only these generated values.  An operation calls gupho
through ``call(name, fn, *args)`` so that the traced run can put a span
around each call; the untraced run passes `direct`, which only forwards the
call.

Workloads (see BENCHMARK.json and WORKLOADS.md for the rationale):

- ``cli``: one fresh ``python -m gupho <command>`` process per operation,
  the six commands in seeded shuffled cycles.
- ``spectrum``: one parameter point per operation, in process: relativistic
  and nonrelativistic tables, the standard-form residual of every
  relativistic level and a 51-step ratio sweep.
- ``states``: one parameter point per operation, in process: states
  n = 0..nmax, their Gram matrix, values on a 1001-point grid and scalar
  ladder values at a few points.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import numpy as np

import oracle
from gupho import (
    NONRELATIVISTIC,
    RELATIVISTIC,
    DeformedAlgebra,
    DegenerateModelError,
    NoBoundStateError,
    OscillatorSystem,
    QuadratureAccuracyError,
    SolverError,
    UndeformedBranchError,
    apply_ladder,
    energy_nonrel,
    energy_relativistic,
    eval_state,
    fm_problem_of,
    fm_quantization_residual,
    inner_product,
    make_state,
    ratio_sweep,
    weighted_overlap,
)

WORKLOADS = ("cli", "spectrum", "states")

# gupho's typed errors: an operation raising one of these failed, it did not crash
TYPED_ERRORS = (
    SolverError,
    QuadratureAccuracyError,
    DegenerateModelError,
    NoBoundStateError,
    UndeformedBranchError,
    ValueError,
)

HBAR = oracle.HBAR
N_LIST = [1, 2, 3]
XI_STEPS = 51
RHO_GRID = np.linspace(-0.999, 0.999, 1001)
LADDER_POINTS = 4
CLI_COMMANDS = ("spectrum", "spectrum_nr", "figure1", "state", "fm", "verify")
CLI_TIMEOUT_S = 120

# Known defect measured by the states workload: below this eta*m*omega*hbar
# the fixed 200-node quadrature underflows or misses 1e-10 (make_state or
# inner_product raise QuadratureAccuracyError, or a norm is slightly off).
# Failures there are expected; anywhere else they mark the run incorrect.
STATES_KNOWN_FAILURE_BELOW = 0.03


def direct(name, fn, *args):
    return fn(*args)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _spectrum_point(rng, allow_flat=True):
    eta = 0.0 if allow_flat and rng.random() < 0.05 else 10.0 ** rng.uniform(-9.0, 3.0)
    return {
        "eta": eta,
        "mass": _log_uniform(rng, 1.0, 1e6),
        "omega": _log_uniform(rng, 0.1, 10.0),
        "gamma": eta * rng.random(),
    }


def _xi_grid(xi_max):
    # the same expression the figure1 command uses for its grid (xi_min = 0)
    return [0.0 + i * (xi_max - 0.0) / (XI_STEPS - 1) for i in range(XI_STEPS)]


def _lattice(rng, count, multiplier, ranges):
    """``count`` points of a randomly shifted rank-1 lattice over a box, in seeded order.

    Point i has coordinate d at the fraction (i multiplier^d / count + shift_d)
    mod 1 of range d.  With ``multiplier`` prime to ``count`` every coordinate
    puts exactly one point in each of ``count`` equal strata of its range,
    and the points fill the box far more evenly than independent draws, so
    any count that depends on a combination of the coordinates (how many
    inputs fall in a failure regime, how many are costly) barely moves from
    seed to seed.
    """
    gens = [pow(multiplier, d, count) for d in range(len(ranges))]
    shifts = [rng.random() for _ in ranges]
    points = [[lo + (hi - lo) * ((i * g / count + shift) % 1.0) for g, shift, (lo, hi) in zip(gens, shifts, ranges)]
              for i in range(count)]
    rng.shuffle(points)
    return points


def _size(lo, hi, fraction):
    """The integer in [lo, hi] at ``fraction`` of the way from lo to hi + 1 on a log scale."""
    return int(lo * ((hi + 1) / lo) ** fraction)


# A run cycles through a fixed seeded pool of inputs whose log(eta),
# log(mass), log(omega) and problem size lie on a shifted lattice, so the
# mix of cheap, costly and failing operations is nearly the same for every
# seed and the run-to-run spread reflects the machine and the program, not
# the draw.  Sizes are spread log-uniformly over their range rather than
# drawn from a few values: operation times then form one smooth distribution
# without gaps, so its median and 90th percentile do not jump between
# clusters when the machine slows part of a run.  Repeating the pool makes
# the count of failing inputs a property of the seed alone.
SPECTRUM_NMAX = (8, 100)
SPECTRUM_LATTICE = (283, 175)  # (points, multiplier), at eta > 0
SPECTRUM_FLAT = 15  # points at eta = 0 (5 %)
STATES_BRANCHES = ("nr", "rel")
STATES_NMAX = (4, 16)
STATES_LATTICE = (149, 48)  # (points, multiplier) per branch
CLI_CYCLES = 6


def spectrum_pool(rng):
    boxes = [(-9.0, 3.0), (0.0, 6.0), (-1.0, 1.0), (0.0, 2.0), (0.0, 1.0)]
    points = [[None] + [rng.uniform(lo, hi) for lo, hi in boxes[1:]] for _ in range(SPECTRUM_FLAT)]
    points += _lattice(rng, *SPECTRUM_LATTICE, boxes)
    pool = []
    for log_eta, log_mass, log_omega, log_xi, size in points:
        eta = 0.0 if log_eta is None else 10.0 ** log_eta
        pool.append({"eta": eta, "mass": 10.0 ** log_mass, "omega": 10.0 ** log_omega,
                     "gamma": eta * rng.random(), "nmax": _size(*SPECTRUM_NMAX, size),
                     "n_list": N_LIST, "xi_grid": _xi_grid(10.0 ** log_xi)})
    rng.shuffle(pool)
    return pool


def _states_point(rng, branch, eta, mass=None, omega=None):
    return {
        "branch": branch,
        "eta": eta,
        "mass": _log_uniform(rng, 0.5, 2.0) if mass is None else mass,
        "omega": _log_uniform(rng, 0.5, 2.0) if omega is None else omega,
        "gamma": eta * rng.uniform(0.0, 0.5),
    }


def states_pool(rng):
    # The (eta, mass, omega, nmax) points are the same for every seed, so the
    # number of inputs in the known failure regime, and with it ``failed``,
    # is the same in every run; the seed draws gamma, the ladder points and
    # the order.
    grid = random.Random("states-grid")
    pool = []
    log_range = (math.log10(0.5), math.log10(2.0))
    boxes = [(-4.0, 2.0), log_range, log_range, (0.0, 1.0)]
    for branch in STATES_BRANCHES:
        for log_eta, log_mass, log_omega, size in _lattice(grid, *STATES_LATTICE, boxes):
            inp = _states_point(rng, branch, 10.0 ** log_eta, 10.0 ** log_mass, 10.0 ** log_omega)
            inp["nmax"] = _size(*STATES_NMAX, size)
            inp["ladder_rho"] = [rng.uniform(-0.95, 0.95) for _ in range(LADDER_POINTS)]
            pool.append(inp)
    rng.shuffle(pool)
    return pool


def _flags(**values):
    # --key=value keeps argparse from reading a negative exponent as a flag
    return [f"--{key.replace('_', '-')}={value if isinstance(value, str) else repr(value)}"
            for key, value in values.items()]


def _cli_input(command, rng):
    if command in ("spectrum", "spectrum_nr"):
        p = dict(_spectrum_point(rng), nmax=_size(*SPECTRUM_NMAX, rng.random()))
        argv = ["spectrum"] + _flags(eta=p["eta"], mass=p["mass"], omega=p["omega"],
                                     gamma=p["gamma"], nmax=p["nmax"])
        if command == "spectrum_nr":
            argv.append("--branch=nr")
        return {"command": command, "argv": argv, **p}
    if command == "figure1":
        p = _spectrum_point(rng, allow_flat=False)
        xi_max = _log_uniform(rng, 1.0, 100.0)
        argv = ["figure1"] + _flags(mass=p["mass"], omega=p["omega"], gamma=p["gamma"],
                                    xi_max=xi_max, steps=XI_STEPS) + ["--n-list=1,2,3"]
        return {"command": command, "argv": argv, "n_list": N_LIST, "xi_grid": _xi_grid(xi_max), **p}
    if command == "state":
        # eta >= 0.15 keeps eta*m*omega above the known states failure regime
        p = _states_point(rng, rng.choice(("nr", "rel")), _log_uniform(rng, 0.15, 1e2))
        n = rng.randrange(0, 17)
        argv = ["state"] + _flags(branch=p["branch"], eta=p["eta"], mass=p["mass"],
                                  omega=p["omega"], gamma=p["gamma"], n=n, samples=101)
        return {"command": command, "argv": argv, "n": n, "samples": 101, **p}
    if command == "fm":
        p = _spectrum_point(rng, allow_flat=False)
        n = rng.randrange(0, 101)
        energy = oracle.rel_energy(p["mass"], p["omega"], p["eta"], n)
        coeffs = oracle.standard_form(p["mass"], p["omega"], p["eta"], p["gamma"], energy)
        argv = ["fm"] + [f"--{k}={v!r}" for k, v in zip(("k1", "k2", "k3", "A", "B", "C"), coeffs)]
        argv.append(f"--n={n}")
        return {"command": command, "argv": argv, "coeffs": coeffs, "n": n}
    return {"command": command, "argv": ["verify"]}


def cli_pool(rng):
    """Seeded shuffled cycles of the six commands."""
    pool = []
    for _ in range(CLI_CYCLES):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        pool += [_cli_input(command, rng) for command in order]
    return pool


POOLS = {"cli": cli_pool, "spectrum": spectrum_pool, "states": states_pool}


def inputs(workload: str, seed: int) -> list:
    """The run's input pool: the same list for the same (workload, seed)."""
    return POOLS[workload](random.Random(f"{workload}-{seed}"))


def for_pass(inp, k: int):
    """The input as pass ``k`` over the pool runs it.

    In-process workloads scale the mass by 1 + 1e-12 k, so no execution
    repeats an earlier one exactly and a result cache in gupho could not turn
    later passes into lookups; no result or check outcome moves at that
    scale.  A cli command starts a fresh process each time, so it runs as is.
    """
    if k == 0 or "argv" in inp:
        return inp
    return dict(inp, mass=inp["mass"] * (1.0 + 1e-12 * k))


def first_cli_inputs(seed: int) -> dict:
    """The first input of each CLI command under this seed."""
    first = {}
    for inp in inputs("cli", seed):
        first.setdefault(inp["command"], inp)
    return first


def known_failure(workload: str, inp) -> bool:
    """Whether a failure of this input lies in a documented defect regime."""
    return workload == "states" and inp["eta"] * inp["mass"] * inp["omega"] * HBAR < STATES_KNOWN_FAILURE_BELOW


# ------------------------------------------------------------ operations


def _system(inp):
    return OscillatorSystem(inp["mass"], inp["omega"],
                            DeformedAlgebra(eta=inp["eta"], gamma=inp["gamma"], hbar=HBAR))


def spectrum_op(inp, call):
    system = call("gup.OscillatorSystem", _system, inp)
    levels = range(inp["nmax"] + 1)
    rel = [call("spectrum.energy_relativistic", energy_relativistic, system, n) for n in levels]
    nr = [call("spectrum.energy_nonrel", energy_nonrel, system, n) for n in levels]
    fm = []
    if inp["eta"] > 0.0:
        for n, level in zip(levels, rel):
            problem = call("gup.fm_problem_of", fm_problem_of, system, level.energy)
            fm.append((level.energy, call("fm.fm_quantization_residual",
                                          fm_quantization_residual, problem, n)))
    ratio = call("spectrum.ratio_sweep", ratio_sweep, inp["mass"], inp["omega"], HBAR,
                 inp["gamma"], inp["n_list"], inp["xi_grid"])
    return {"rel": rel, "nr": nr, "fm": fm, "ratio": ratio}


def states_op(inp, call):
    system = call("gup.OscillatorSystem", _system, inp)
    branch = NONRELATIVISTIC if inp["branch"] == "nr" else RELATIVISTIC
    make_name = f"states.make_state.{inp['branch']}"
    states = [call(make_name, make_state, system, n, branch) for n in range(inp["nmax"] + 1)]
    gram = {
        (i, j): call("states.weighted_overlap", weighted_overlap, states[i], states[j])
        for i in range(len(states)) for j in range(i, len(states))
    }
    diag = [call("states.inner_product", inner_product, s, s) for s in states]
    values = [call("states.eval_state", eval_state, s, RHO_GRID) for s in states]
    ladder = {
        (s.n, direction): [call("states.apply_ladder", apply_ladder, s, direction, rho)
                           for rho in inp["ladder_rho"]]
        for s in states for direction in ("raise", "lower")
    }
    return {"states": states, "gram": gram, "diag": diag, "values": values,
            "ladder": ladder, "rho_grid": RHO_GRID}


def cli_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("GUP_QUAD_ORDER", None)  # every command runs at gupho's defaults
    return env


def _run_gupho(argv, env):
    return subprocess.run([sys.executable, "-m", "gupho", *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, env=env, timeout=CLI_TIMEOUT_S)


def cli_op(inp, call, env):
    """One fresh interpreter running one command; returns (exit code, stdout)."""
    proc = call(f"cli.{inp['command']}", _run_gupho, inp["argv"], env)
    return proc.returncode, proc.stdout.decode()


def check(workload, inp, out) -> list[str]:
    if workload == "spectrum":
        return oracle.check_spectrum(inp, out)
    if workload == "states":
        return oracle.check_states(inp, out)
    return oracle.check_cli(inp, *out)


WARM_UP = {
    "spectrum": {"eta": 0.1, "mass": 1.0, "omega": 1.0, "gamma": 0.0, "nmax": 8,
                 "n_list": N_LIST, "xi_grid": _xi_grid(50.0)},
    "states": {"branch": "nr", "eta": 1.0, "mass": 1.0, "omega": 1.0, "gamma": 0.0,
               "nmax": 4, "ladder_rho": [0.1, 0.5]},
}


def warm_up(workload: str) -> None:
    """One untimed operation that fills gupho's cached quadrature rules."""
    op = spectrum_op if workload == "spectrum" else states_op
    op(WARM_UP[workload], direct)
