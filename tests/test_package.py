"""The package namespace, each submodule's `__all__`, which commands load numpy, and how inputs are checked.

No command imports numpy, and every command and module runs where numpy
cannot be imported at all; the states exports resolve on first access.  Each
check runs in a fresh interpreter, because this test process has numpy
loaded already.
"""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

# every name of the package namespace
EXPORTS = (
    "DeformedAlgebra", "DegenerateModelError", "FmProblem", "LadderCoefficients",
    "NONRELATIVISTIC", "NoBoundStateError", "OscillatorState", "OscillatorSystem",
    "QuadratureAccuracyError", "RELATIVISTIC", "SolverError", "SpectrumResult", "Su11Report",
    "UndeformedBranchError", "apply_ladder", "energy_nonrel", "energy_relativistic",
    "eval_state", "fm", "fm_exponents", "fm_problem_of", "fm_quantization_residual", "gup",
    "inner_product", "ladder_coeffs", "make_state", "minimal_length",
    "p_of_rho", "ratio_sweep", "rho_of_p", "specfun",
    "spectrum", "states", "su11_check", "uncertainty_bound", "wave_params",
    "weighted_overlap",
)

# the public names of each submodule
SUBMODULE_EXPORTS = {
    "fm": ("FmProblem", "NoBoundStateError", "fm_exponents", "fm_quantization_residual"),
    "gup": (
        "DeformedAlgebra", "DegenerateModelError", "OscillatorSystem", "QuadratureAccuracyError",
        "UndeformedBranchError", "fm_problem_of", "minimal_length", "p_of_rho",
        "rho_of_p", "uncertainty_bound", "wave_params",
    ),
    "spectrum": (
        "SolverError", "SpectrumResult", "energy_nonrel", "energy_relativistic",
        "ratio_sweep",
    ),
    "states": (
        "LadderCoefficients", "NONRELATIVISTIC", "OscillatorState", "QuadratureAccuracyError",
        "RELATIVISTIC", "Su11Report", "apply_ladder", "eval_state", "inner_product",
        "ladder_coeffs", "make_state", "su11_check", "weighted_overlap",
    ),
    "specfun": (
        "as_float", "gegenbauer", "gegenbauer_product_integral",
    ),
    "checks": ("CheckResult", "run_suite"),
}


def run_python(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_export_still_importable():
    out = run_python(
        "import gupho\n"
        f"names = {EXPORTS!r}\n"
        "for name in names:\n"
        "    exec(f'from gupho import {name}')\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


def test_namespace_listing_and_star_import_are_unchanged():
    out = run_python(
        "import sys, gupho\n"
        "print(sorted(n for n in dir(gupho) if not n.startswith('_')))\n"
        "print(sorted(gupho.__all__))\n"
        "print('numpy' in sys.modules)\n"
        "namespace = {}\n"
        "exec('from gupho import *', namespace)\n"
        "print(sorted(n for n in namespace if not n.startswith('_')))\n"
    )
    listed, all_, numpy_loaded, star = out.splitlines()
    expected = repr(sorted(EXPORTS))
    assert (listed, all_, numpy_loaded, star) == (expected, expected, "False", expected)


@pytest.mark.parametrize("module", sorted(SUBMODULE_EXPORTS))
def test_submodule_all_is_pinned_and_resolves(module):
    mod = importlib.import_module(f"gupho.{module}")
    assert sorted(mod.__all__) == sorted(SUBMODULE_EXPORTS[module])
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_lazy_submodules_resolve_as_attributes():
    out = run_python(
        "import gupho\n"
        "print(gupho.specfun.__name__, gupho.states.__name__)\n"
        "print(gupho.states.make_state is gupho.make_state)\n"
    )
    assert out == "gupho.specfun gupho.states\nTrue\n"


def test_spectra_load_neither_states_nor_specfun():
    # a dunder probe (as copy, pickle and inspect make) raises without resolving the states exports
    out = run_python(
        "import contextlib, io, sys, gupho\n"
        "print(hasattr(gupho, '__wrapped__'), hasattr(gupho, '_private'))\n"
        "from gupho.cli import main\n"
        "for argv in (['spectrum'], ['spectrum', '--branch', 'nr'], ['figure1', '--steps', '3'],\n"
        "             ['fm', '--k1=0.5', '--k2=1', '--k3=1', '--A=-3', '--B=3', '--C=-2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(name for name in sys.modules if name in ('gupho.states', 'gupho.specfun')))\n"
    )
    assert out == "False False\n[]\n"


def test_quadrature_error_is_one_class():
    out = run_python(
        "import sys, gupho\n"
        "from gupho import QuadratureAccuracyError\n"
        "print('numpy' in sys.modules)\n"
        "import gupho.states\n"
        "print(gupho.QuadratureAccuracyError is gupho.states.QuadratureAccuracyError)\n"
    )
    assert out == "False\nTrue\n"


def output_records():
    from gupho import checks, fm_problem_of, states
    from gupho.gup import DeformedAlgebra, OscillatorSystem
    from gupho.spectrum import energy_relativistic

    system = OscillatorSystem(1.0, 1.0, DeformedAlgebra(eta=0.1, gamma=0.03))
    level = energy_relativistic(system, 2)
    return [
        level,
        fm_problem_of(system, level.energy),
        states.make_state(system, 2, states.RELATIVISTIC),
        states.ladder_coeffs(2, 1.5),
        states.su11_check(1.5, 3),
        checks.CheckResult("row", 0.0, 1.0),
    ]


@pytest.mark.parametrize("record", output_records(), ids=lambda record: type(record).__name__)
def test_output_records_are_plain_slotted_dataclasses(record):
    # replace and fields keep working, a declared field can be assigned, slots reject a
    # misspelt name, and eq without frozen sets __hash__ to None
    names = [field.name for field in dataclasses.fields(record)]
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record
    setattr(copy, names[0], getattr(record, names[0]))
    with pytest.raises(AttributeError):
        record.misspelt = 1.0
    with pytest.raises(TypeError):
        hash(record)


def test_model_records_stay_frozen_and_hashable():
    from gupho.gup import DeformedAlgebra, OscillatorSystem

    algebra = DeformedAlgebra(eta=0.1, gamma=0.03)
    system = OscillatorSystem(1.0, 1.0, algebra)
    for record, name in ((algebra, "eta"), (system, "mass")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 2.0)
        assert hash(record) == hash(dataclasses.replace(record))


COMMANDS = [
    ["spectrum", "--branch", "rel", "--nmax", "3"],
    ["spectrum", "--branch", "nr", "--nmax", "3"],
    ["figure1", "--steps", "3"],
    ["state", "--branch", "rel", "--n", "2", "--samples", "5"],
    ["state", "--branch", "nr", "--n", "2", "--samples", "5"],
    ["verify"],
    ["verify", "--nmax", "0"],
    ["fm", "--k1=0.5", "--k2=1", "--k3=1", "--A=-3", "--B=3", "--C=-2"],
]
EXPECTED = [f"{argv[0]} 0" for argv in COMMANDS]


def run_commands(prelude=""):
    return run_python(
        "import contextlib, io, sys\n"
        f"{prelude}"
        "from gupho.cli import main\n"
        f"for argv in {COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code)\n"
        "print('numpy' in sys.modules)\n"
    ).splitlines()


def test_commands_do_not_import_numpy():
    assert run_commands() == EXPECTED + ["False"]


def test_commands_run_with_numpy_blocked():
    # a None entry makes every `import numpy` raise ImportError
    out = run_commands(
        "sys.modules['numpy'] = None\n"
        "import gupho.specfun, gupho.states, gupho.checks\n"
    )
    assert out == EXPECTED + ["True"]


def test_every_input_check_result_is_used():
    # `_require_n` and `_require_order` return the converted value: a call whose result is dropped
    # checks its input but leaves the formulas running in the caller's scalar type
    dropped = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "gupho").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("_require_n", "_require_order"):
                    dropped.append(f"{path.name}:{node.lineno}")
    assert dropped == []
