"""Batch command-line front end.

Commands: spectrum, figure1, state, verify, fm.  Output is CSV (default) or
JSON, deterministic for a given configuration: floats are printed with 17
significant digits, rows in a fixed order, and nothing is written until the
computation has succeeded.

Exit codes: 0 success, 1 verification failure, 2 numerical or solver
failure, 64 usage error.

No command imports numpy.  The `state` and `verify` handlers import
`states` and `checks` when they run, so `spectrum`, `figure1` and `fm` also
skip loading those modules; `json` is imported only for `--format json`.
"""

from __future__ import annotations

import argparse
import sys

from .fm import FmProblem, NoBoundStateError, fm_exponents, fm_quantization_residual
from .gup import (
    DeformedAlgebra,
    DegenerateModelError,
    OscillatorSystem,
    QuadratureAccuracyError,
    UndeformedBranchError,
    p_of_rho,
)
from .spectrum import SolverError, energy_nonrel, energy_relativistic, ratio_sweep

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64

_BRANCHES = ("nr", "rel")

_DEFAULTS = {
    "mass": 1.0,
    "omega": 1.0,
    "hbar": 1.0,
    "eta": 0.1,
    "gamma": 0.0,
    "nmax": 8,
    "branch": "rel",
    "format": "csv",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _DEFAULTS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def _coerce(key: str, value: str):
    try:
        if key == "nmax":
            return int(value)
        if key in ("branch", "format"):
            return value
        return float(value)
    except ValueError as exc:
        raise UsageError(f"invalid value for {key}: {value!r}") from exc


def _resolve(args) -> None:
    """Fill each unset option of the command from the config file, then the default; validate.

    A config key that only other commands take is ignored, unparsed.  For
    the commands that take ``--eta`` the model is built once, as
    ``args.system``, which also rejects bad physical parameters, NaN included.
    """
    file_values = _read_config_file(args.config) if args.config else {}
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, _coerce(key, file_values[key]) if key in file_values else default)
    if hasattr(args, "eta"):
        args.system = OscillatorSystem(
            args.mass, args.omega, DeformedAlgebra(eta=args.eta, gamma=args.gamma, hbar=args.hbar)
        )
    if getattr(args, "nmax", 0) < 0:
        raise UsageError("nmax must be >= 0")
    if getattr(args, "branch", "rel") not in _BRANCHES:
        raise UsageError(f"branch must be one of {sorted(_BRANCHES)}")
    if args.format not in ("csv", "json"):
        raise UsageError("format must be csv or json")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(args, command: str, meta: dict, columns: list[str], rows: list) -> None:
    """Assemble the whole document, then write it in one go."""
    if args.format == "csv":
        lines = [f"# gupho {command}"]
        for key, value in meta.items():
            lines.append(f"# {key}={_fmt(value)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        import json

        doc = {
            "meta": {"command": command, **meta, "columns": columns},
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _config_meta(args) -> dict:
    keys = ("mass", "omega", "hbar", "eta", "gamma")
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def _cmd_spectrum(args) -> int:
    rows = []
    for n in range(args.nmax + 1):
        if args.branch == "rel":
            res = energy_relativistic(args.system, n)
        else:
            res = energy_nonrel(args.system, n)
        rows.append((res.n, res.energy, res.residual))
    meta = _config_meta(args)
    meta["branch"] = args.branch
    _emit(args, "spectrum", meta, ["n", "energy", "residual"], rows)
    return EXIT_OK


def _cmd_figure1(args) -> int:
    if args.steps < 2:
        raise UsageError("steps must be >= 2")
    if not 0 <= args.xi_min < args.xi_max:
        raise UsageError("requires 0 <= xi-min < xi-max")
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"invalid n-list: {args.n_list!r}") from exc
    if not n_list or any(n < 0 for n in n_list):
        raise UsageError("n-list must contain nonnegative integers")
    xi_grid = [
        args.xi_min + i * (args.xi_max - args.xi_min) / (args.steps - 1)
        for i in range(args.steps)
    ]
    rows = ratio_sweep(args.mass, args.omega, args.hbar, args.gamma, n_list, xi_grid)
    meta = _config_meta(args)
    meta["units"] = "a0=1 (natural units)"
    meta["branch"] = "nr"
    _emit(args, "figure1", meta, ["xi", "n", "E_n", "E_0", "ratio"], rows)
    return EXIT_OK


def _cmd_state(args) -> int:
    from .states import NONRELATIVISTIC, RELATIVISTIC, eval_state, make_state

    if args.samples < 2:
        raise UsageError("samples must be >= 2")
    if args.n < 0:
        raise UsageError("n must be >= 0")
    system = args.system
    branch = RELATIVISTIC if args.branch == "rel" else NONRELATIVISTIC
    state = make_state(system, args.n, branch)
    rows = []
    for i in range(args.samples):
        rho = -0.99 + 1.98 * i / (args.samples - 1)
        rows.append((p_of_rho(system.algebra, rho), rho, eval_state(state, rho)))
    meta = _config_meta(args)
    meta.update({"branch": args.branch, "n": args.n, "v": state.v,
                 "lambda": state.lam, "norm": state.norm, "energy": state.energy})
    _emit(args, "state", meta, ["p", "rho", "phi"], rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import checks

    results = checks.run_suite(
        mass=args.mass, omega=args.omega, hbar=args.hbar, eta=args.eta, gamma=args.gamma,
        n_max=args.nmax,
    )
    rows = [
        (r.name, r.max_deviation, r.tolerance, "pass" if r.passed else "fail")
        for r in results
    ]
    meta = _config_meta(args)
    meta["nmax"] = args.nmax
    _emit(args, "verify", meta, ["check", "max_deviation", "tolerance", "status"], rows)
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_fm(args) -> int:
    problem = FmProblem(k1=args.k1, k2=args.k2, k3=args.k3, A=args.A, B=args.B, C=args.C)
    k4, k5 = fm_exponents(problem)
    residual = fm_quantization_residual(problem, args.n)
    meta = {"k1": args.k1, "k2": args.k2, "k3": args.k3,
            "A": args.A, "B": args.B, "C": args.C, "n": args.n}
    _emit(args, "fm", meta, ["k4", "k5", "residual"], [(k4, k5, residual)])
    return EXIT_OK


def _make_parser() -> _Parser:
    parser = _Parser(prog="gupho", description=__doc__.splitlines()[0])
    # nested parents, so each command takes exactly the options its handler reads
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"])
    output.add_argument("--out", metavar="PATH")
    output.add_argument("--config", metavar="PATH", help="key=value file; flags take precedence")
    model = _Parser(add_help=False, parents=[output])
    for flag in ("--mass", "--omega", "--hbar", "--gamma"):
        model.add_argument(flag, type=float)
    deformed = _Parser(add_help=False, parents=[model])
    deformed.add_argument("--eta", type=float)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[deformed], help="energy levels for n = 0..nmax")
    p.add_argument("--nmax", type=int)
    p.add_argument("--branch", choices=sorted(_BRANCHES))
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("figure1", parents=[model],
                       help="level-to-ground-state ratio sweep over the minimal length")
    p.add_argument("--xi-min", type=float, default=0.0)
    p.add_argument("--xi-max", type=float, default=50.0)
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("--n-list", default="1,2,3")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("state", parents=[deformed], help="sample a normalized state on a rho grid")
    p.add_argument("--branch", choices=sorted(_BRANCHES))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser("verify", parents=[deformed], help="run the invariant suite")
    p.add_argument("--nmax", type=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fm", parents=[output],
                       help="exponents and quantization residual for raw standard-form coefficients")
    for flag in ("--k1", "--k2", "--k3", "--A", "--B", "--C"):
        p.add_argument(flag, type=float, required=True, dest=flag.lstrip("-"))
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(handler=_cmd_fm)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"gupho: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        SolverError,
        NoBoundStateError,
        DegenerateModelError,
        UndeformedBranchError,
        QuadratureAccuracyError,
    ) as exc:
        print(f"gupho: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"gupho: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
