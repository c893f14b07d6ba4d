"""Harmonic oscillator under a minimal-length deformed commutator.

Spectra (relativistic and nonrelativistic), normalized momentum-space
eigenstates, and the su(1,1) ladder-operator algebra, plus a batch CLI.

No module imports numpy when it loads: numpy is imported only where an
ndarray or numpy scalar arrives, so spectra, states sampled at Python floats
and the `verify` suite all run without it.  The scalar layers (`fm`, `gup`,
`spectrum`) load with the package; the `states` exports and the `states`
and `specfun` submodules load on first access, so a process that only
needs spectra does not load them either.  Each module's `__all__` is the
one list of its public names; the package star-imports the scalar layers'.
"""

from importlib import import_module as _import_module

from .fm import *
from .gup import *
from .spectrum import *

# the states exports and the submodules that spectra do not need resolve on
# first access (PEP 562)
_STATES_EXPORTS = frozenset({
    "NONRELATIVISTIC",
    "RELATIVISTIC",
    "LadderCoefficients",
    "OscillatorState",
    "Su11Report",
    "apply_ladder",
    "eval_state",
    "inner_product",
    "ladder_coeffs",
    "make_state",
    "ode_residual",
    "su11_check",
    "weighted_overlap",
})
_LAZY_SUBMODULES = frozenset({"specfun", "states"})


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _STATES_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(".states", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _STATES_EXPORTS | _LAZY_SUBMODULES
)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
