"""First-quantized QED engine: spinor algebra, tree amplitudes, one-loop
quantities and classical spinning-particle dynamics, in natural units.

`import fqed` loads the base layers (errors, constants, fourvec,
algebra). The names it re-exports from the tree layers, and those
layers themselves, are imported on first access (PEP 562), so a caller
that never touches them never loads them."""

import importlib

from .algebra import GAMMA, SIGMA, BIG_SIGMA, slash, trace_product
from .constants import ALPHA_DEFAULT, ELECTRON_MASS_MEV
from .errors import (DegenerateLevelError, DomainError, FqedError,
                     NumericError, PoleError, SingularityError)
from .fourvec import FourVector, minkowski_dot

# lazily resolved name -> the submodule that defines it (a submodule
# maps to itself). Names are looked up on their module at each access,
# not cached here, so they always are the module's current attribute.
_LAZY = {
    "NormalizationLedger": "ledger",
    **dict.fromkeys(("KinematicConfig", "ReducedAmplitude",
                     "SubstitutionTable", "amplitude", "apply_crossing",
                     "spin_summed_squared"), "processes"),
    **dict.fromkeys(("DiracSpinor", "PhotonSpinor", "electron_spinor",
                     "photon_state", "polarization_vector"), "states"),
    **{m: m for m in ("ledger", "processes", "propagators", "states")},
}

__all__ = [
    "GAMMA", "SIGMA", "BIG_SIGMA", "slash", "trace_product",
    "ALPHA_DEFAULT", "ELECTRON_MASS_MEV",
    "DegenerateLevelError", "DomainError", "FqedError", "NumericError",
    "PoleError", "SingularityError",
    "FourVector", "minkowski_dot", "NormalizationLedger",
    "KinematicConfig", "ReducedAmplitude", "SubstitutionTable",
    "amplitude", "apply_crossing", "spin_summed_squared",
    "DiracSpinor", "PhotonSpinor", "electron_spinor", "photon_state",
    "polarization_vector",
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if module == name else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
