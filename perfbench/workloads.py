"""Seeded command lists for the four benchmark workloads.

Every workload is a list of commands that one pass runs in order. A
command is either an `fqed` argument vector, run in-process through
`fqed.cli.run`, or a library call. Each command carries the expected
input columns of its output table and the facts its oracle needs, so
the gate in `check.py` can test every row.

Row counts and the structure of every input are fixed; the seed only
draws the values. That keeps the work per pass the same for every
seed, so run-to-run spread measures the machine and the program, not
the draw.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("tree-sweep", "loop-scan", "trajectory", "point-calls")

TREE_SUBCOMMANDS = ("compton", "annihilate", "moller", "bhabha", "brems",
                    "pairprod")

# Transition-current profile of the generated spectra: piecewise linear
# in k with a kink at a fixed node. The seed scales each pair's profile,
# which leaves the quadrature's subdivision pattern, and so the cost,
# unchanged from seed to seed. Each further kink roughly triples the
# cost of the shift.
_SPECTRUM_NODES = (0.0, 2.5, 5.0)
_SPECTRUM_PROFILE = ((0.0, 0.20, 0.05, 0.00), (0.0, 0.22, 0.02, 0.08),
                     (0.0, 0.05, 0.01, 0.01))
# single points use a flat current: the shift then costs a few quad
# calls, like the other one-row commands
_FLAT_PROFILE = ((0.0, 0.2, 0.0, 0.0), (0.0, 0.2, 0.0, 0.0))
_FLAT_NODES = (0.0, 5.0)
_SPECTRUM_K_MAX = 5.0

# the CLI's default --z, as it parses it
DEFAULT_ELECTRON_Z = (0.7071067811865476, 0.0, 0.7071067811865476, 0.0)


@dataclass
class Command:
    """One unit of work: a CLI argument vector or a library call."""

    kind: str                     # oracle selector, see check.py
    argv: list | None = None      # CLI arguments; None for library calls
    columns: dict = field(default_factory=dict)   # expected input columns
    facts: dict = field(default_factory=dict)     # extra oracle inputs

    @property
    def label(self) -> str:
        if self.argv is None:
            return f"library:{self.kind}"
        return " ".join(self.argv)

    @property
    def fmt(self) -> str:
        return "json" if self.argv and "json" in self.argv else "csv"


@dataclass
class Workload:
    name: str
    commands: list
    warmup: list                  # one-row CLI command, run before timing


def _num(x: float) -> float:
    """Round a drawn value to 7 significant digits for readable argv."""
    return float(f"{float(x):.7g}")


def _arg(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _column(param: str) -> str:
    return param + "_deg" if param.startswith("theta") else param


def _grid(start: float, stop: float, count: int, log: bool) -> np.ndarray:
    """The sweep grid as `--sweep name:start:stop:count[:log]` defines it,
    computed by interpolation rather than numpy's linspace/geomspace."""
    i = np.arange(count) / (count - 1)
    if not log:
        return start + i * (stop - start)
    sign = 1.0 if start > 0 else -1.0
    a, b = math.log(abs(start)), math.log(abs(stop))
    return sign * np.exp(a + i * (b - a))


def table_command(sub: str, params: dict, sweep: tuple | None = None,
                  fmt: str = "csv") -> Command:
    """A table subcommand, optionally sweeping one parameter.

    The swept parameter is also passed explicitly, set to the grid's
    start. Under the CLI's documented rule (an explicit value off the
    grid becomes an extra row) the table is then exactly the grid.
    """
    params = dict(params)
    n = 1
    grid = None
    if sweep is not None:
        name, start, stop, n, log = sweep
        params[name] = start
        grid = _grid(start, stop, n, log)
    argv = [sub]
    for param, value in params.items():
        argv += ["--" + param.replace("_", "-"), _arg(value)]
    columns = {_column(k): np.full(n, v, dtype=float)
               for k, v in params.items() if isinstance(v, float)}
    if sweep is not None:
        spec = f"{name}:{start!r}:{stop!r}:{n}" + (":log" if log else "")
        argv += ["--sweep", spec]
        columns[_column(name)] = grid
    if fmt == "json":
        argv += ["--format", "json"]
    return Command(sub, argv, columns)


# -- tree-level processes --------------------------------------------------

def _tree_point(rng, sub: str) -> dict:
    """One draw of every input of a tree subcommand, inside its domain."""
    u = lambda a, b: _num(rng.uniform(a, b))
    if sub == "compton":
        return {"omega_in": u(0.05, 5.0), "theta": u(1.0, 179.0)}
    if sub == "annihilate":
        return {"pmag": u(0.05, 3.0), "theta": u(1.0, 179.0)}
    if sub in ("moller", "bhabha"):
        return {"energy": u(1.05, 6.0), "theta": u(10.0, 170.0)}
    if sub == "brems":
        omega = u(0.1, 1.0)
        return {"e_in": _num(1.0 + omega + rng.uniform(0.1, 3.0)),
                "omega": omega, "theta_e": u(5.0, 175.0),
                "theta_k": u(5.0, 175.0)}
    e_plus = u(1.1, 3.0)
    return {"omega_in": _num(e_plus + 1.1 + rng.uniform(0.0, 3.0)),
            "e_plus": e_plus, "theta_p": u(5.0, 175.0),
            "theta_m": u(5.0, 175.0)}


def _tree_sweeps(rng, sub: str, n: int) -> list:
    """An angle sweep and an energy sweep of one tree subcommand."""
    u = lambda a, b: _num(rng.uniform(a, b))
    base = _tree_point(rng, sub)
    if sub == "compton":
        angle = ("theta", u(1.0, 10.0), u(170.0, 179.0))
        energy = ("omega_in", u(0.05, 0.2), u(5.0, 20.0))
    elif sub == "annihilate":
        angle = ("theta", u(1.0, 10.0), u(170.0, 179.0))
        energy = ("pmag", u(0.05, 0.2), u(3.0, 8.0))
    elif sub in ("moller", "bhabha"):
        angle = ("theta", u(10.0, 20.0), u(160.0, 170.0))
        energy = ("energy", u(1.05, 1.2), u(5.0, 10.0))
    elif sub == "brems":
        angle = ("theta_k", u(5.0, 15.0), u(165.0, 175.0))
        lo = 1.0 + base["omega"] + 0.05
        energy = ("e_in", u(lo, lo + 0.2), u(5.0, 10.0))
    else:
        angle = ("theta_p", u(5.0, 15.0), u(165.0, 175.0))
        lo = base["e_plus"] + 1.05
        energy = ("omega_in", u(lo, lo + 0.2), u(6.0, 12.0))
    return [table_command(sub, base, (angle[0], angle[1], angle[2], n,
                                      False)),
            table_command(sub, base, (energy[0], energy[1], energy[2], n,
                                      True))]


def tree_sweep(rng, smoke: bool) -> Workload:
    # brems and pairprod rows cost about a tenth of a 2->2 spin sum, so
    # they get three times the rows to stay visible in the pass. A pass
    # takes about a second, so a run takes each command's median latency
    # over a dozen or more passes.
    n, n_fast = (4, 6) if smoke else (24, 72)
    cmds = []
    for sub in TREE_SUBCOMMANDS:
        cmds += _tree_sweeps(rng, sub, n_fast if sub in ("brems", "pairprod")
                             else n)
    return Workload("tree-sweep", cmds,
                    ["compton", "--omega-in", "1.0", "--theta", "90.0"])


# -- one-loop quantities ---------------------------------------------------

def write_spectrum(path: str, rng, levels: dict,
                   nodes=_SPECTRUM_NODES, profile=_SPECTRUM_PROFILE) -> dict:
    """Write a tabulated spectrum with the current profile, scaled from
    the seed, on every level pair; returns the tables as
    {(row, col): (k, J[4, n])}."""
    labels = list(levels)
    lines = ["[levels]"] + [f"{lab} {levels[lab]!r}" for lab in labels]
    tables = {}
    profile = np.array(profile).T
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            scale = _num(rng.uniform(0.5, 1.5))
            J = np.array([[_num(v * scale) for v in comp]
                          for comp in profile])
            tables[(a, b)] = (np.array(nodes), J)
            lines.append(f"[current {a} {b}]")
            for j, k in enumerate(nodes):
                lines.append(" ".join(_arg(float(v))
                                      for v in (k, *J[:, j])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return tables


def energy_shift_command(path: str, levels: dict, tables: dict,
                         level: str | None = None,
                         fmt: str = "csv") -> Command:
    argv = ["energy-shift", "--spectrum", path,
            "--k-max", _arg(_SPECTRUM_K_MAX)]
    if level is not None:
        argv += ["--level", level]
    if fmt == "json":
        argv += ["--format", "json"]
    shown = [level] if level is not None else sorted(levels)
    return Command("energy-shift", argv,
                   {"level": shown,
                    "energy": np.array([levels[s] for s in shown])},
                   {"levels": levels, "tables": tables})


def loop_scan(rng, smoke: bool, outdir: str) -> Workload:
    n = 5 if smoke else 500
    u = lambda a, b: _num(rng.uniform(a, b))
    # narrow ranges for the endpoints: the cost of a row depends on
    # where it lies (above threshold, near the shell), so wide draws
    # would make the work per pass depend on the seed
    cmds = [
        # spacelike: cheap smooth integrands
        table_command("vacuum-pol", {}, ("k2", -u(48.0, 52.0),
                                         -u(0.009, 0.011), n, True)),
        table_command("vacuum-pol", {}, ("k2", -u(9.5, 10.5),
                                         -u(0.18, 0.22), n, False)),
        # timelike across the pair threshold k2 = 4 m^2
        table_command("vacuum-pol", {}, ("k2", u(0.5, 0.6), u(11.5, 12.5),
                                         n, False)),
        table_command("vacuum-pol", {}, ("k2", u(2.4, 2.6), u(43.0, 47.0),
                                         n, True)),
        # self-energy below and above the mass shell p2 = m^2
        table_command("self-energy", {}, ("p2", -u(2.9, 3.1), u(0.93, 0.95),
                                          n, False)),
        table_command("self-energy", {}, ("p2", u(1.06, 1.08), u(4.9, 5.1),
                                          n, False)),
    ]
    # three levels: the shift takes about a third of the pass
    levels = {"L0": 1.6, "L1": 1.0, "L2": 0.45}
    if smoke:
        levels = {"L0": 1.0, "L1": 0.45}
    path = os.path.join(outdir, "spectrum.txt")
    cmds.append(energy_shift_command(path, levels,
                                     write_spectrum(path, rng, levels)))
    return Workload("loop-scan", cmds, ["vacuum-pol", "--k2", "-1.0"])


# -- classical trajectories ------------------------------------------------

def classical_command(particle: str, z: tuple, pz: float, tau_max: float,
                      dt: float, fmt: str = "csv",
                      default_z: bool = False) -> Command:
    argv = ["classical"]
    if particle == "photon":
        argv += ["--particle", "photon"]
    if not default_z:
        argv += ["--z", ",".join(_arg(c) for c in z)]
    argv += ["--pz", _arg(pz), "--tau-max", _arg(tau_max), "--dt", _arg(dt)]
    if fmt == "json":
        argv += ["--format", "json"]
    return Command("classical", argv, {},
                   {"particle": particle, "z": np.array(z, dtype=complex),
                    "pz": pz, "tau_max": tau_max, "dt": dt})


def _unit_spinor(rng, dim: int) -> tuple:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return tuple(complex(_num(c.real), _num(c.imag)) for c in v)


def trajectory(rng, smoke: bool) -> Workload:
    # 4000 steps: short enough for a dozen passes in a run, so each
    # command's median latency has a dozen samples
    tau = 0.2 if smoke else 4.0
    tau_field = 0.1 if smoke else 2.0
    dt = 1e-3
    pz = _num(rng.uniform(0.0, 1.0))
    cmds = [
        classical_command("electron", DEFAULT_ELECTRON_Z, pz, tau, dt,
                          default_z=True),
        classical_command("electron", DEFAULT_ELECTRON_Z, pz, tau, dt,
                          fmt="json", default_z=True),
        classical_command("photon", _unit_spinor(rng, 2),
                          _num(rng.uniform(0.5, 2.0)), tau, dt),
    ]
    # electron in a constant (pure-gauge) potential: the field branch
    # runs in full, and the exact answer is free motion at the kinetic
    # momentum p - eA
    p3 = rng.uniform(-0.5, 0.5, 3)
    p = np.array([math.sqrt(1.0 + p3 @ p3), *p3])
    a = rng.uniform(-0.1, 0.1, 4)
    cmds.append(Command("field-trajectory", None, {},
                        {"z": np.array(_unit_spinor(rng, 4)), "p": p,
                         "A": a, "charge": 1.0, "tau_max": tau_field,
                         "dt": dt}))
    return Workload("trajectory", cmds,
                    ["classical", "--tau-max", "0.001", "--dt", "0.001"])


# -- single points ---------------------------------------------------------

def point_calls(rng, smoke: bool, outdir: str) -> Workload:
    # 256 commands: p95 of their latencies has twelve commands beyond it
    n = (dict(tree=4, loop=1, shift=2, classical=2, selftest=1) if smoke
         else dict(tree=28, loop=16, shift=8, classical=12, selftest=4))
    cmds = []
    for sub in TREE_SUBCOMMANDS:
        for i in range(n["tree"]):
            cmds.append(table_command(sub, _tree_point(rng, sub),
                                      fmt="json" if i % 4 == 0 else "csv"))
    for _ in range(n["loop"]):
        k2 = -_num(10.0 ** rng.uniform(-2.0, 1.7))
        cmds.append(table_command("vacuum-pol", {"k2": k2}))
        cmds.append(table_command("vacuum-pol",
                                  {"k2": _num(rng.uniform(0.2, 14.0))}))
        cmds.append(table_command("self-energy",
                                  {"p2": _num(rng.uniform(-4.0, 0.97))}))
        cmds.append(table_command("self-energy",
                                  {"p2": _num(rng.uniform(1.03, 6.0))}))
    levels = {"d": 1.0, "b": 0.7}
    path = os.path.join(outdir, "two-level.txt")
    tables = write_spectrum(path, rng, levels, _FLAT_NODES, _FLAT_PROFILE)
    for i in range(n["shift"]):
        cmds.append(energy_shift_command(path, levels, tables,
                                         level="d" if i % 2 else None))
    for i in range(n["classical"]):
        fmt = "json" if i % 3 == 0 else "csv"
        if i % 2:
            cmds.append(classical_command("photon", _unit_spinor(rng, 2),
                                          _num(rng.uniform(0.5, 2.0)),
                                          0.05, 0.01, fmt))
        else:
            cmds.append(classical_command("electron", _unit_spinor(rng, 4),
                                          _num(rng.uniform(0.0, 1.0)),
                                          0.05, 0.01, fmt))
    cmds += [Command("selftest", ["selftest"])] * n["selftest"]
    order = rng.permutation(len(cmds))
    return Workload("point-calls", [cmds[i] for i in order],
                    ["compton", "--omega-in", "1.0", "--theta", "90.0"])


def build(name: str, seed: int, outdir: str, smoke: bool = False
          ) -> Workload:
    """The workload's command list, drawn from the seed alone."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "tree-sweep":
        return tree_sweep(rng, smoke)
    if name == "loop-scan":
        return loop_scan(rng, smoke, outdir)
    if name == "trajectory":
        return trajectory(rng, smoke)
    return point_calls(rng, smoke, outdir)
