"""Harmonic oscillator under a minimal-length deformed commutator.

Spectra (relativistic and nonrelativistic), normalized momentum-space
eigenstates, and the su(1,1) ladder-operator algebra, plus a batch CLI.

No module imports numpy when it loads: numpy is imported only where an
ndarray or numpy scalar arrives, so spectra, states sampled at Python floats
and the `verify` suite all run without it.  The scalar layers (`fm`, `gup`,
`spectrum`) load with the package; the `states` exports, `__all__` and the
`states` and `specfun` submodules load on first access, so a process that
only needs spectra does not load them either.  Each module's `__all__` is
the one list of its public names; the package star-imports the scalar
layers' and resolves the `states` exports from `states.__all__`.
"""

from importlib import import_module as _import_module

from .fm import *
from .gup import *
from .spectrum import *

_LAZY_SUBMODULES = ("specfun", "states")
_SCALAR_NAMES = [name for name in globals() if not name.startswith("_")]


def __getattr__(name):
    # PEP 562; a private or dunder probe other than __all__ does not load states
    if name in _LAZY_SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name == "__all__":
        value = sorted({*_SCALAR_NAMES, *_import_module(".states", __name__).__all__, *_LAZY_SUBMODULES})
    elif not name.startswith("_") and name in (states := _import_module(".states", __name__)).__all__:
        value = getattr(states, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})


__version__ = "0.1.0"
