"""Layers load when first used, not with fqed: each fqed layer when a
command imports it; `import fqed` loads none. No command and no energy
shift imports scipy, and only a table of long blocks imports orjson.
Each check runs in a fresh interpreter."""

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


def test_loop_commands_load_no_dirac_algebra(tmp_path):
    """The loop commands read only (a, b) coefficients and Pi_bar, so
    none of them loads the Dirac algebra."""
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("[levels]\nd 1.0\nb 0.7\n[current d b]\n"
                        "0.0 0.0 0.2 0.0 0.0\n5.0 0.0 0.2 0.0 0.0\n")
    for argv in (["vacuum-pol", "--k2", "0.5"],
                 ["self-energy", "--p2", "0.5"],
                 ["energy-shift", "--spectrum", str(spectrum),
                  "--k-max", "5.0"]):
        loaded = loaded_after(argv)
        assert "loops" in loaded
        assert "algebra" not in loaded, argv


def test_compton_loads_no_loop_or_dynamics_layer():
    loaded = loaded_after(["compton"])
    assert "processes" in loaded
    assert not loaded & {"loops", "dynamics"}


def test_import_fqed_loads_no_layer():
    """The package root defines no names: `import fqed` loads no layer
    and no numpy, and each layer still imports from the package."""
    out = run_python("""
import sys
import fqed
print(sorted(m for m in sys.modules
             if m.startswith("fqed.") or m.split(".")[0] == "numpy"))
from fqed import (algebra, cli, constants, dynamics, errors, fourvec,
                  ledger, loops, processes, propagators, states)
print("ok")
""")
    assert out.split() == ["[]", "ok"]


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
