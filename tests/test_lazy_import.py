"""Layers load when first used, not with fqed: scipy.integrate on the
first callable-current quadrature, and each fqed layer when a command
(or an attribute of the package) needs it. Each check runs in a fresh
interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

# a two-level spectrum whose d-b current is piecewise linear, given as
# a table (closed form) and as a callable (quadrature)
_SPECTRUM = """
import numpy as np
from fqed import loops
KS = np.array([0.0, 1.5, 4.0])
J = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.3], [0.0, 0.05, 0.0],
              [0.0, 0.0, 0.0]], dtype=complex)
LEVELS = {"d": 1.0, "b": 0.625}


def current(k):
    return np.array([np.interp(k, KS, row.real) for row in J],
                    dtype=complex)


tabulated = loops.SpectrumInput(LEVELS, {("d", "b"): (KS, J)}, 4.0)
callable_ = loops.SpectrumInput(LEVELS, {("d", "b"): current}, 4.0)
"""


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_do_not_import_scipy_integrate(tmp_path):
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("[levels]\nd 1.0\nb 0.7\n[current d b]\n"
                        "0.0 0.0 0.2 0.0 0.0\n5.0 0.0 0.2 0.0 0.0\n")
    out = run_python(_SPECTRUM + f"""
import contextlib, io, sys
import fqed.cli
assert "scipy.integrate" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["compton"], ["vacuum-pol", "--k2", "0.5"],
                 ["classical", "--tau-max", "0.01", "--dt", "0.001"],
                 ["energy-shift", "--spectrum", {str(spectrum)!r},
                  "--k-max", "5.0"]):
        assert fqed.cli.run(argv) == 0, argv
print("scipy.integrate" in sys.modules)
exact = loops.energy_shift(tabulated, "d")
print("scipy.integrate" in sys.modules)
quad = loops.energy_shift(callable_, "d")
print("scipy.integrate" in sys.modules)
print(repr(quad), repr(exact))
""")
    before, after_table, after_quad, values = out.strip().split("\n")
    assert (before, after_table, after_quad) == ("False", "False", "True")
    quad, exact = (complex(v) for v in values.split())
    # the same value as the same call with scipy imported up front
    assert quad == complex(run_python(
        "import scipy.integrate\n" + _SPECTRUM
        + "print(repr(loops.energy_shift(callable_, 'd')))"))
    assert abs(quad - exact) <= 1e-9 * abs(exact)


def test_tracer_counts_lazy_quadrature():
    out = run_python(_SPECTRUM + """
import sys
from tracing import Instrumentation, Tracer
tracer = Tracer()
with Instrumentation(tracer):
    loops.energy_shift(callable_, "d")
import scipy.integrate
print(tracer.count("loops.quad"), tracer.counts["integrand_evals"],
      loops.integrate is scipy.integrate)
""")
    quads, evals, restored = out.split()
    assert int(quads) > 0 and int(evals) > 0
    assert restored == "True"


# the names `fqed` re-exports, by the submodule that defines them
_EXPORTS = {
    "algebra": ("GAMMA", "SIGMA", "BIG_SIGMA", "slash"),
    "constants": ("ALPHA_DEFAULT", "ELECTRON_MASS_MEV"),
    "errors": ("DegenerateLevelError", "DomainError", "FqedError",
               "NumericError", "PoleError", "SingularityError"),
    "fourvec": ("FourVector", "minkowski_dot"),
    "ledger": ("NormalizationLedger",),
    "processes": ("KinematicConfig", "ReducedAmplitude", "amplitude",
                  "spin_summed_squared"),
    "states": ("PhotonSpinor", "photon_state"),
}


def loaded_after(argv) -> set:
    """The fqed layers a fresh interpreter holds after `fqed.cli.run`."""
    out = run_python(f"""
import contextlib, io, sys
import fqed.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert fqed.cli.run({argv!r}) == 0
print(" ".join(m[5:] for m in sys.modules if m.startswith("fqed.")))
""")
    return set(out.split())


def test_classical_loads_no_tree_or_loop_layer():
    loaded = loaded_after(["classical", "--tau-max", "0.01", "--dt", "0.001"])
    assert "dynamics" in loaded
    assert not loaded & {"processes", "states", "ledger", "propagators",
                         "loops"}


def test_vacuum_pol_loads_no_tree_or_dynamics_layer():
    loaded = loaded_after(["vacuum-pol", "--k2", "0.5"])
    assert "loops" in loaded
    assert not loaded & {"processes", "states", "dynamics"}


def test_compton_loads_no_loop_or_dynamics_layer():
    loaded = loaded_after(["compton"])
    assert "processes" in loaded
    assert not loaded & {"loops", "dynamics"}


def test_package_names_resolve_on_first_use():
    out = run_python(f"""
import importlib, sys
import fqed
lazy = ("processes", "states", "ledger", "propagators", "loops", "dynamics")
print(any(f"fqed.{{m}}" in sys.modules for m in lazy))
for mod in ("propagators", "ledger", "states", "processes"):
    assert getattr(fqed, mod) is sys.modules[f"fqed.{{mod}}"], mod
exports = {_EXPORTS!r}
assert sorted(fqed.__all__) == sorted(n for v in exports.values() for n in v)
assert set(fqed.__all__) <= set(dir(fqed))
for mod, names in exports.items():
    sub = importlib.import_module(f"fqed.{{mod}}")
    for name in names:
        assert getattr(fqed, name) is getattr(sub, name), name
star = {{}}
exec("from fqed import *", star)
assert all(star[n] is getattr(fqed, n) for n in fqed.__all__)
try:
    fqed.no_such_name
except AttributeError:
    print("ok")
""")
    assert out.split() == ["False", "ok"]
