"""fqed benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload tree-sweep --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The workload's inputs (sweep grids,
spectrum files, spinors) are drawn from --seed; the program only sees
them as `fqed` arguments and files. Commands run in-process through
`fqed.cli.run`, library calls through the public functions, with
FQED_THREADS unset and no --threads.

--trace 0 measures the end-to-end metrics:
  setup_s      fresh interpreter to ready (import fqed, parser build and
               one one-row command of the workload), median of several
               child processes
  wall_s       one pass over the workload's command list, each command
               at its median latency over the run's passes
  cmd_p50_ms,
  cmd_tail_ms  percentiles over the workload's commands of each one's
               median latency; the tail is the highest percentile with
               at least ten commands beyond it
  peak_rss_mb  the process's memory high-water mark
Every timing is scaled to a fixed machine speed: a speed probe (a
numpy loop that runs no fqed code) is timed between consecutive
commands, and each latency is multiplied by PROBE_REF_S over the mean
of the probes on either side of it; each set-up child times a
pure-Python probe before its imports and after its command, scaled
likewise against SETUP_PROBE_REF_S. On a shared machine the speed
swings by up to 2x within seconds; the scaled latencies are what
stays put, and they move only with the program.
--trace 1 runs the same passes, then one more pass with a span around
every call into each fqed layer, and reports the per-layer metrics.

After the timed passes every output row goes through the oracle gate
(check.py); every later pass must reproduce the first pass's output
exactly. The last line of stdout is one JSON object; a human-readable
table, the provenance and the output files' location come before it.
The exit code is 1 when the gate fails, 2 when the checkout is
incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 4
PROBE_ITERATIONS = 500
PROBE_REF_S = 1.0e-3      # the probe's time on a quiet 2-vCPU x86_64 host
SETUP_SAMPLES = 9
SETUP_PROBE_REF_S = 1.8e-3  # the set-up child's probe on the same host
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# the child process behind one setup_s sample: prints the monotonic
# clock once import, parser build and one command are done, and the
# times of a pure-Python speed probe run first thing and after that
_SETUP_CHILD = """
import time
def probe():
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(20000):
        s += i * i % 7
        d[i & 255] = s
    return time.perf_counter() - t0
before = probe()
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import fqed, fqed.cli
fqed.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    rc = fqed.cli.run(sys.argv[2:])
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
print(ready, before, probe(), rc)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own self-check")
    return ap.parse_args(argv)


# -- running commands ------------------------------------------------------

_PROBE_MATRIX = None


def probe() -> float:
    """Seconds for a fixed loop of small numpy calls, the machine's
    current speed; it runs no fqed code, so the program cannot move it."""
    global _PROBE_MATRIX
    import numpy as np
    if _PROBE_MATRIX is None:
        _PROBE_MATRIX = np.eye(4, dtype=complex)
    m = a = _PROBE_MATRIX
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        a = a @ m + 0.0
    return time.perf_counter() - t0


class Runner:
    """Executes commands and times each one; no bookkeeping inside the
    timed region."""

    def __init__(self):
        import fqed.cli
        from scipy.integrate import IntegrationWarning
        self.cli = fqed.cli
        self.warning = IntegrationWarning
        self.sink = io.StringIO

    def run(self, cmd):
        """(exit code, seconds, output, IntegrationWarnings raised)."""
        if cmd.argv is None:
            return self._library(cmd)
        out, err = self.sink(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always", self.warning)
            t0 = time.perf_counter()
            rc = self.cli.run(cmd.argv)
            dt = time.perf_counter() - t0
        n_warn = sum(issubclass(w.category, self.warning) for w in caught)
        return rc, dt, out.getvalue(), n_warn

    def _library(self, cmd):
        import numpy as np
        from fqed import dynamics
        from fqed.fourvec import FourVector
        f = cmd.facts
        potential = np.asarray(f["A"], dtype=float)
        no_gradient = np.zeros((4, 4))
        t0 = time.perf_counter()
        state = dynamics.ElectronState(FourVector(0.0, 0.0, 0.0, 0.0),
                                       FourVector.from_array(f["p"]), f["z"])
        field = dynamics.ExternalField(lambda x: potential,
                                       lambda x: no_gradient, f["charge"])
        traj = dynamics.integrate(state, field, (0.0, f["tau_max"]), f["dt"])
        return 0, time.perf_counter() - t0, traj, 0


def digest(out) -> str:
    h = hashlib.blake2b(digest_size=16)
    if isinstance(out, str):
        h.update(out.encode())
    else:
        for arr in (out.tau, out.x, out.p, out.spinor, out.zbar_z, out.H):
            h.update(arr.tobytes())
    return h.hexdigest()


def run_pass(runner, commands, keep: bool, tracer=None):
    """Latencies, speed probes (one before each command and one after
    the last), exit codes, digests (and outputs when kept) of a pass."""
    lat, rcs, digests, outs, n_warn = [], [], [], [], 0
    probes = [probe()]
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        rc, dt, out, w = runner.run(cmd)
        probes.append(probe())
        lat.append(dt)
        rcs.append(rc)
        digests.append(digest(out))
        n_warn += w
        if keep:
            outs.append(out)
    return {"lat": lat, "probe": probes, "rc": rcs, "digest": digests,
            "out": outs, "warnings": n_warn}


def scaled(seconds: float, before: float, after: float) -> float:
    """A latency at the reference speed, from the probes around it."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def scaled_latencies(p) -> list:
    return [scaled(dt, p["probe"][i], p["probe"][i + 1])
            for i, dt in enumerate(p["lat"])]


def setup_sample(argv: list) -> tuple:
    """Seconds from spawning a fresh interpreter until it is ready, raw
    and scaled to the reference speed.

    Imports are interpreter work, which the child's own pure-Python
    probe, run before the imports and after the command, tracks better
    than the numpy probe of the passes; the first probe's time is not
    counted.
    """
    env = {k: v for k, v in os.environ.items() if k != "FQED_THREADS"}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 4 or fields[3] != "0":
        raise RuntimeError(f"setup child failed: {proc.stderr[-2000:]}")
    ready, before, after = map(float, fields[:3])
    dt = ready - t0 - before
    return dt, dt * SETUP_PROBE_REF_S / (0.5 * (before + after))


# -- provenance ------------------------------------------------------------

def provenance() -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fqed", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + fh.read())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "git_commit": commit, "src_sha256": h.hexdigest(),
            "machine": platform.machine()}


# -- metrics ---------------------------------------------------------------

def tail_percentile(n_commands: int) -> float:
    """Highest ladder percentile with at least ten commands beyond it;
    p50 when the workload has too few commands for any tail."""
    for p in TAIL_LADDER:
        if n_commands * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def median_latencies(passes) -> list:
    """Each command's median scaled latency over the run's passes.

    Other tenants of a shared machine slow it by up to 2x, in phases
    from under a second to minutes, so neither raw medians nor raw
    minima repeat from run to run; the probe-scaled median does (see
    README.md).
    """
    return [statistics.median(lat)
            for lat in zip(*(scaled_latencies(p) for p in passes))]


def end_to_end(setup, passes, pct, peak_mb) -> dict:
    import numpy as np
    med = np.array(median_latencies(passes))
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (float(med.sum()), "s"),
        "cmd_p50_ms": (float(np.percentile(med, 50.0)) * 1e3, "ms"),
        "cmd_tail_ms": (float(np.percentile(med, pct)) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, traced, untraced_wall, gate) -> dict:
    from check import LOOP_KINDS, TREE_KINDS
    from tracing import LAYERS
    s = tracer.summary(traced["wall"])
    c = tracer.counts
    tree_rows = sum(gate.rows.get(k, 0) for k in TREE_KINDS)
    loop_rows = sum(gate.rows.get(k, 0) for k in LOOP_KINDS)
    amplitude_fns = ("compton_amplitude", "pair_annihilation_amplitude",
                     "bremsstrahlung_amplitude", "pair_production_amplitude",
                     "electron_electron_amplitude",
                     "electron_positron_amplitude", "apply_crossing")
    ledger_builds = sum(tracer.count(n) for n in tracer.names
                        if n.startswith("ledger.") and n.endswith("_prefactor"))
    m = {}
    for lay in LAYERS:
        m[f"{lay}.calls"] = (s[f"{lay}.calls"], "count")
        m[f"{lay}.self_s"] = (s[f"{lay}.self_s"], "s")
        m[f"{lay}.errors"] = (s[f"{lay}.errors"], "count")
    m.update({
        "cli.parse_s": (s["cli.parse_s"], "s"),
        "cli.write_s": (s["cli.write_s"], "s"),
        "cli.out_bytes": (sum(len(o) for o in traced["out"]
                              if isinstance(o, str)), "bytes"),
        "processes.amplitude_calls": (
            sum(tracer.count("processes." + f) for f in amplitude_fns),
            "count"),
        "processes.validate_per_row": (
            _per(tracer.count("processes.KinematicConfig.validate"),
                 tree_rows), "calls/row"),
        "processes.spin_sum_s": (s["processes.spin_sum_s"], "s"),
        "states.spinor_builds": (
            tracer.count("states.electron_spinor")
            + tracer.count("states.helicity_spinor"), "count"),
        "states.photon_builds": (tracer.count("states.photon_state"),
                                 "count"),
        "ledger.builds_per_row": (_per(ledger_builds, tree_rows),
                                  "calls/row"),
        "algebra.slash_calls": (tracer.count("algebra.slash"), "count"),
        "fourvec.constructs": (tracer.count("fourvec.FourVector.__init__"),
                               "count"),
        "loops.quad_calls": (tracer.count("loops.quad"), "count"),
        "loops.integrand_evals": (c["integrand_evals"], "count"),
        "loops.evals_per_row": (_per(c["integrand_evals"], loop_rows),
                                "evals/row"),
        "loops.quad_s": (s["loops.quad_s"], "s"),
        "loops.numeric_errors": (s["loops.numeric_errors"], "count"),
        "loops.quad_warnings": (traced["warnings"], "count"),
        "dynamics.steps": (c["free_steps"] + c["field_steps"], "count"),
        "dynamics.free_us_per_step": (
            _per(c["free_s"], c["free_steps"]) * 1e6, "us"),
        "dynamics.field_us_per_step": (
            _per(c["field_s"], c["field_steps"]) * 1e6, "us"),
        "dynamics.csv_s": (s["dynamics.csv_s"], "s"),
        "dynamics.zbar_z_drift": (gate.zbar_z_drift, "abs"),
        "dynamics.H_drift": (gate.H_drift, "abs"),
        "trace.overhead_frac": (
            traced["scaled_wall"] / untraced_wall - 1.0, "frac"),
        "trace.unattributed_frac": (s["trace.unattributed_frac"], "frac"),
        "check.max_relerr": (gate.max_relerr, "rel"),
    })
    return m


# -- main ------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (os.path.join(SRC, "fqed", "__init__.py"),
                 os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(need):
            print(f"benchmark: {os.path.relpath(need, ROOT)} is missing; run "
                  f"from the root of a full fqed checkout", file=sys.stderr)
            return 2
    os.environ.pop("FQED_THREADS", None)
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}" + ("-smoke" if args.smoke
                                                   else ""))
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, outdir, args.smoke)
    min_passes = 2 if args.smoke else MIN_PASSES

    runner = Runner()
    rc, _, _, _ = runner.run(workloads.Command("warmup", wl.warmup))
    if rc != 0:
        print(f"benchmark: warm-up command failed ({rc})", file=sys.stderr)
        return 1

    # set-up samples come first and count against --seconds: a pass run
    # right after a child process is measurably slower
    t_start = time.perf_counter()
    n_setup = 0 if args.trace else (2 if args.smoke else SETUP_SAMPLES)
    setup = [setup_sample(wl.warmup) for _ in range(n_setup)]
    passes = []
    while (len(passes) < min_passes
           or time.perf_counter() - t_start < args.seconds):
        passes.append(run_pass(runner, wl.commands, keep=not passes))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = tracer = None
    if args.trace:
        from tracing import Instrumentation, Tracer, TracedSink
        tracer = Tracer()
        runner.sink = lambda: TracedSink(tracer)
        with Instrumentation(tracer):
            traced = run_pass(runner, wl.commands, keep=True, tracer=tracer)
        runner.sink = io.StringIO
        traced["wall"] = sum(traced["lat"])
        traced["scaled_wall"] = sum(scaled_latencies(traced))

    # oracle gate on the first pass; every other pass must match it
    import check
    gate = check.Gate(ROOT)
    first = passes[0]
    good = [gate.check(cmd, rc, out) for cmd, rc, out
            in zip(wl.commands, first["rc"], first["out"])]
    checked = passes + ([traced] if traced else [])
    attempted = failed = 0
    for p in checked:
        for i, (rc, dig) in enumerate(zip(p["rc"], p["digest"])):
            attempted += 1
            if rc != 0 or dig != first["digest"][i] or not good[i]:
                failed += 1
                if p is not first and good[i]:
                    gate.failures.append((wl.commands[i].label,
                                          "output differs from pass 1"))
    correct = failed == 0

    pct = tail_percentile(len(wl.commands))
    if args.trace == 0:
        metrics = end_to_end(setup, passes, pct, peak_mb)
    else:
        # like with like: one traced pass against a typical untraced one
        untraced = statistics.median(sum(scaled_latencies(p))
                                     for p in passes)
        metrics = per_layer(tracer, traced, untraced, gate)
        tracer.save(os.path.join(outdir, "spans.npz"),
                    [c.label for c in wl.commands])

    rows = sum(gate.rows.values())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "commands_per_pass": len(wl.commands),
        "rows_per_pass": rows, "passes": len(passes),
        "latency_samples": sum(len(p["lat"]) for p in passes),
        "tail_percentile": pct, "probe_ref_s": PROBE_REF_S,
        "setup_samples": [s for _, s in setup],
        "setup_samples_raw": [r for r, _ in setup],
        "pass_latencies": [scaled_latencies(p) for p in passes],
        "pass_latencies_raw": [p["lat"] for p in passes],
        "pass_probes": [p["probe"] for p in passes],
        "failed_frac": failed / attempted,
        "quad_warnings_per_pass": first["warnings"],
        "provenance": provenance(), "failures": gate.failures[:50],
    }
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**info, "metrics": {k: {"value": v, "unit": u}
                                       for k, (v, u) in metrics.items()}},
                  fh, indent=1)

    print(f"fqed benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {len(wl.commands)} commands and {rows} rows "
          f"per pass, {len(passes)} passes")
    print("provenance: " + json.dumps(info["provenance"], sort_keys=True))
    probes = [x for p in passes for x in p["probe"]]
    print(f"speed probe: median {statistics.median(probes) * 1e3:.3f} ms "
          f"over {len(probes)} probes; timings below are scaled to "
          f"{PROBE_REF_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("cmd_p50_ms", "cmd_tail_ms"):
            p = 50.0 if name == "cmd_p50_ms" else pct
            note = (f"  (p{p:g} over {len(wl.commands)} commands of each "
                    f"one's median of {len(passes)} passes)")
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh processes)"
        elif name == "wall_s":
            note = (f"  (sum over {len(wl.commands)} commands of each one's "
                    f"median of {len(passes)} passes; {rows} rows)")
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<28} {info['failed_frac']:>14.6g} "
          f"({failed} of {attempted} commands)")
    for label, reason in gate.failures[:10]:
        print(f"FAILED {label}: {reason}")
    print(f"details: {os.path.relpath(outdir, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
