"""Layers load when first used, not with fqed: each fqed layer when a
command (or an attribute of the package) needs it. No command and no
energy shift imports scipy, and only a table of long blocks imports
orjson. Each check runs in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


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
    out = run_python(f"""
import contextlib, io, sys
import numpy as np
import fqed.cli
from fqed import loops
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["compton"], ["vacuum-pol", "--k2", "0.5"],
                 ["classical", "--tau-max", "0.01", "--dt", "0.001"],
                 ["energy-shift", "--spectrum", {str(spectrum)!r},
                  "--k-max", "5.0"]):
        assert fqed.cli.run(argv) == 0, argv
# a piecewise-linear two-level current, through the library
ks = np.array([0.0, 1.5, 4.0])
J = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 0.3], [0.0, 0.05, 0.0],
              [0.0, 0.0, 0.0]], dtype=complex)
spec = loops.SpectrumInput({{"d": 1.0, "b": 0.625}}, {{("d", "b"): (ks, J)}},
                           4.0)
loops.energy_shifts(spec, ["d", "b"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert out.split() == ["[]"]


def test_tracer_installs_and_restores_integrate():
    out = run_python("""
import scipy.integrate
from fqed import loops
from tracing import Instrumentation, Tracer
with Instrumentation(Tracer()):
    installed = loops.integrate is not scipy.integrate
print(installed, loops.integrate is scipy.integrate)
""")
    assert out.split() == ["True", "True"]


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


def test_orjson_loads_only_for_long_tables():
    """Blocks under the CLI's long-block threshold (100 rows) are spelled
    by repr and load no orjson; a table of 100 rows or more loads it."""
    out = run_python("""
import contextlib, io, sys
import fqed.cli
for argv in (["compton"], ["vacuum-pol", "--sweep", "k2:-3:-1:99"],
             ["vacuum-pol", "--sweep", "k2:-3:-1:100"]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert fqed.cli.run(argv) == 0, argv
    print(text.getvalue().count("\\n") - 1, "orjson" in sys.modules)
""")
    assert out.split() == ["1", "False", "99", "False", "100", "True"]
