"""scipy.integrate is imported on the first callable-current quadrature,
not with fqed: each check runs in a fresh interpreter."""

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
