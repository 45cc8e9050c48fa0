"""Command-line front end: kinematics sweeps and plot-ready tables.

Every subcommand evaluates a table of rows (one per sweep point, or a
single row when no sweep is given) and writes CSV or JSON with full
round-trip precision. Exit codes: 0 success, 2 domain error (bad
kinematics or input), 3 numeric error (pole, singular point, aborted
trajectory), 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .constants import ALPHA_DEFAULT, ELECTRON_MASS_MEV, MAX_RECORD_BYTES
from .errors import (DomainError, FqedError, NumericError, PoleError,
                     SingularityError)
from .fourvec import FourVector, minkowski_dot

USAGE_EXIT = 64
DOMAIN_EXIT = 2
NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Given(argparse.Action):
    """Store action that notes the options the user actually gave."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace._given = getattr(namespace, "_given", set()) | {self.dest}


class _NumberWords:
    """Matches, in place of a compiled regex, the words whose every
    comma-separated item complex() parses: a number, or a list of them
    as --z takes (complex() parses every word that float() parses)."""

    @staticmethod
    def match(word: str) -> bool:
        try:
            for item in word.split(","):
                complex(item)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word that argparse takes for a negative number is a value, not
        # an option; its own pattern takes -12 and -1.5 but not -1e-05,
        # -5., -inf or -1,0,0,0, so every number or list of them is taken
        self._negative_number_matcher = _NumberWords

    def error(self, message):
        raise _UsageError(message)


def _parse_sweep(spec: str):
    """name:start:stop:count[:log] -> (name, values array); a grid that
    would not fit in memory is a DomainError, raised before allocating."""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise _UsageError(f"bad sweep spec: {spec}")
    name = parts[0].replace("-", "_")
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError:
        raise _UsageError(f"bad sweep numbers in: {spec}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"sweep endpoints must be finite: {spec}")
    if count < 1:
        raise _UsageError("sweep count must be >= 1")
    scale = parts[4] if len(parts) == 5 else "linear"
    if scale not in ("linear", "log"):
        raise _UsageError(f"sweep scale must be linear|log, got {scale}")
    if scale == "log":
        if start == 0.0 or stop == 0.0:
            raise _UsageError("log sweep endpoints must be nonzero")
        if (start > 0) != (stop > 0):
            raise _UsageError("log sweep endpoints must have the same sign")
    if count == 1:
        return name, np.array([start])
    if 8 * count > MAX_RECORD_BYTES:
        raise DomainError(f"sweep count {count} would not fit in memory "
                          f"({MAX_RECORD_BYTES} bytes)")
    if scale == "linear":
        return name, np.linspace(start, stop, count)
    sign = 1.0 if start > 0 else -1.0
    return name, sign * np.geomspace(abs(start), abs(stop), count)


def _config(args) -> dict:
    """The JSON config block: every set option but the plumbing."""
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and not k.startswith("_")
            and v is not None}


# a float64 column of a block of at least this many rows is tested for
# one bit pattern and spelled through orjson (_float_cells): the test
# costs 2-5 us a column, and orjson's text of 100 cells, mask and call
# included, about 20 us against 60-95 us of repr (2 vCPU x86_64);
# shorter blocks (single points, the 24- to 72-row tree sweeps) keep
# one float comparison and repr, and never import orjson (about 8 ms,
# with datetime and uuid)
_REPEAT_ROWS = 100


def _spelled(v: list, kind: str, csv: bool) -> list:
    """The text of each cell of v, a column's tolist() of dtype kind:
    repr for CSV (str for bool and text columns) and JSON otherwise."""
    if csv:
        # repr of a Python number (from tolist) is its str, without the
        # type call
        return list(map(repr if kind in "fiuc" else str, v))
    # repr of a finite float is its JSON, and a float column with a
    # finite sum holds only finite floats; json.dumps spells the rest
    finite = kind == "f" and math.isfinite(sum(v))
    return list(map(repr if finite else json.dumps, v))


def _float_cells(v: np.ndarray, csv: bool) -> list:
    """_spelled of a float64 array, through orjson. For |x| < 1e-9
    (+-0.0 and subnormals included) and 1e-4 <= |x| < 1e16, orjson
    writes repr's shortest round-trip digits; in 1e-9 <= |x| < 1e-4 and
    from 1e16 up it spells the exponent its own way (1e-9, 0.0000224
    and 1e16 for 1e-09, 2.24e-05 and 1e+16) and non-finite cells as
    null. So the array is formatted by one orjson.dumps, and the odd
    cells, found on the values, are spelled again; where they are more
    than half the cells, all are spelled by _spelled and orjson is not
    called. The window is orjson 3.8.3's; the writer tests hold the text
    to repr's in every binade."""
    a = np.abs(v)
    # ~(a < 1e16) also marks NaN
    odd = ((a >= 1e-9) & (a < 1e-4)) | ~(a < 1e16)
    if 2 * np.count_nonzero(odd) > len(v):
        return _spelled(v.tolist(), "f", csv)
    import orjson
    # orjson takes only C-contiguous arrays; a trajectory's x and p
    # columns are strided views
    text = orjson.dumps(np.ascontiguousarray(v),
                        option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode().split(",")
    for i, text in zip(np.flatnonzero(odd).tolist(),
                       _spelled(v[odd].tolist(), "f", csv)):
        cells[i] = text
    return cells


def _column_cells(c: np.ndarray, csv: bool) -> list:
    """The text of each cell of a column of one block of rows, as
    _spelled gives it. A float64 column of two or more rows whose cells
    all have the bytes of the first (so -0.0 is not 0.0) has one text,
    formatted once. In a block of _REPEAT_ROWS rows or more, that is
    tested on the column's int64 bit view, and the cells spelled go
    through _float_cells. A shorter block compares the bytes only where
    the last cell equals the first, so that other columns (and NaN
    ones) pay one float comparison."""
    n = len(c)
    if n >= _REPEAT_ROWS and c.dtype == np.float64:
        bits = c.view(np.int64)
        cells = _float_cells(c[:1] if (bits[1:] == bits[:-1]).all() else c,
                             csv)
    else:
        v = c.tolist()
        if n > 1 and v[-1] == v[0] and c.dtype == np.float64:
            bits = c.tobytes()
            if bits == bits[:8] * n:
                v = v[:1]
        cells = _spelled(v, c.dtype.kind, csv)
    return cells * n if len(cells) < n else cells


# rows per block of table text: the writer holds the cells and the text
# of one block, never those of the whole table
_BLOCK_ROWS = 1024


def _rows_text(names, cols, csv: bool) -> str:
    """The text of the rows of one block of columns: each row's cells
    joined by commas and ended by a newline, or each row's JSON object
    (indent=1, one level into "rows") joined by ",\n". A JSON block is
    one join of a flat list holding, row by row, each column's head and
    cell and then the row's close."""
    cells = [_column_cells(c, csv) for c in cols]
    if csv:
        return "\n".join([*map(",".join, zip(*cells)), ""])
    n, step = len(cells[0]), 2 * len(cells) + 1
    parts = [""] * (step * n)
    for j, (name, column) in enumerate(zip(names, cells)):
        head = ("  {\n" if j == 0 else ",\n") + f"   {json.dumps(name)}: "
        parts[2 * j::step] = [head] * n
        parts[2 * j + 1::step] = column
    parts[step - 1::step] = ["\n  },\n"] * n
    if n:
        parts[-1] = "\n  }"
    return "".join(parts)


def _write_table(args, table: dict):
    """Write a table given as one sequence per column name, streamed in
    blocks of _BLOCK_ROWS rows: the CSV header or the JSON head goes out
    with the first block and the JSON close with the last, and a table
    of one block is one write. Within a block the cells are formatted
    column by column (a column constant over the block once), and the
    bytes are those of joining each row's cells with commas, or of
    `json.dumps` of {"config", "rows": [a dict per row]}, indent=1."""
    csv = args.format == "csv"
    cols = [np.asarray(v) for v in table.values()]
    n = len(cols[0])
    if csv:
        head, between, tail = ",".join(table) + "\n", "", ""
    else:
        config = json.dumps(_config(args), indent=1).replace("\n", "\n ")
        head = '{\n "config": ' + config + ',\n "rows": ['
        head, between, tail = ((head + "\n", ",\n", "\n ]\n}\n") if n
                               else (head, "", "]\n}\n"))
    with (contextlib.nullcontext(sys.stdout) if args.output == "-"
          else open(args.output, "w", encoding="utf-8")) as fh:
        # an empty table is one empty block
        for start in range(0, max(n, 1), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = (cols if n <= _BLOCK_ROWS
                     else [c[start:stop] for c in cols])
            text = ((head if start == 0 else between)
                    + _rows_text(table, block, csv))
            fh.write(text + tail if stop >= n else text)


def _grid(args, param_names) -> dict:
    """Every row's parameter values, one array per parameter: the sweep
    grid, plus the swept parameter's value as an extra row when the user
    gave one off the grid; or the single point of the options."""
    base = {n: getattr(args, n) for n in param_names}
    if not args.sweep:
        return {n: np.array([v]) for n, v in base.items()}
    name, values = _parse_sweep(args.sweep)
    if name not in base:
        raise _UsageError(f"unknown sweep parameter: {name}")
    if (name in getattr(args, "_given", ())
            and not np.any(values == base[name])):
        values = np.append(values, base[name])
    return {n: values if n == name else np.full(len(values), base[n])
            for n in param_names}


def _check_mass_alpha(args) -> None:
    """A declared --mass must be finite and > 0, a declared --alpha
    finite and >= 0 (alpha = e^2 / 4 pi)."""
    opts = vars(args)
    if "mass" in opts and not (math.isfinite(args.mass) and args.mass > 0):
        raise DomainError(f"--mass must be finite and > 0, got {args.mass!r}")
    if "alpha" in opts and not 0 <= args.alpha < math.inf:
        raise DomainError(f"--alpha must be finite and >= 0, "
                          f"got {args.alpha!r}")


def _finite(table: dict) -> dict:
    """table's columns as arrays, the float and complex ones checked: a
    non-finite (overflowed) cell is a NumericError naming its columns.
    Each block of _BLOCK_ROWS rows is tested with one np.isfinite over
    those columns' cells in it, concatenated (never the whole table's);
    the columns are walked, to name the bad ones, only when that fails."""
    cols = {k: np.asarray(v) for k, v in table.items()}
    checked = [c for c in cols.values() if c.dtype.kind in "fc"]
    n = max(map(len, checked), default=0)
    for start in range(0, n, _BLOCK_ROWS):
        block = (checked if n <= _BLOCK_ROWS
                 else [c[start:start + _BLOCK_ROWS] for c in checked])
        if not np.isfinite(np.concatenate(block)).all():
            bad = [k for k, c in cols.items()
                   if c.dtype.kind in "fc" and not np.isfinite(c).all()]
            raise NumericError(f"not finite (overflow): {', '.join(bad)}")
    return cols


def _escale(args) -> float:
    return ELECTRON_MASS_MEV if args.mev else 1.0


# -- subcommand evaluators -------------------------------------------------
#
# Every table subcommand evaluates its whole grid in one batched call
# and returns its table, one column per name; `run` checks and writes
# it. Each evaluator imports the layers it calls when it runs, so a
# command loads only its own, and calls them through their module
# attributes.

def _cmd_compton(args):
    from . import processes
    esc = _escale(args)
    g = _grid(args, ("theta", "omega_in"))
    theta = np.radians(g["theta"])
    cfg = processes.compton_lab_config(g["omega_in"], theta, mass=args.mass)
    m2 = processes.spin_summed_squared(cfg, args.alpha)
    w2 = processes.compton_omega_out(g["omega_in"], theta, args.mass)
    dsig = (w2 / g["omega_in"]) ** 2 * m2 / (
        64.0 * math.pi ** 2 * args.mass ** 2)
    return {"theta_deg": g["theta"], "omega_in": g["omega_in"] * esc,
            "omega_out": w2 * esc, "M2_spin_avg": m2,
            "dsigma_dOmega": dsig / esc ** 2 if args.mev else dsig}


def _cmd_annihilate(args):
    from . import processes
    g = _grid(args, ("theta", "pmag"))
    cfg = processes.annihilation_cm_config(g["pmag"], np.radians(g["theta"]),
                                           mass=args.mass)
    return {"theta_deg": g["theta"], "pmag": g["pmag"] * _escale(args),
            "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)}


def _coulomb_cmd(args, params, builder):
    """brems and pairprod: two energies, two angles, every leg at slot 0."""
    from . import processes
    esc = _escale(args)
    g = _grid(args, params)
    energies, angles = params[:2], params[2:]
    cfg = getattr(processes, builder)(
        *(g[p] for p in energies), *(np.radians(g[p]) for p in angles),
        Z=args.Z, mass=args.mass)
    m = processes.slot0_amplitude(cfg, args.alpha)
    return {**{p: g[p] * esc for p in energies},
            **{p + "_deg": g[p] for p in angles},
            "re_M": m.real, "im_M": m.imag, "abs2_M": np.abs(m) ** 2}


def _four_fermion_cmd(args, builder):
    from . import processes
    g = _grid(args, ("energy", "theta"))
    cfg = getattr(processes, builder)(g["energy"], np.radians(g["theta"]),
                                      mass=args.mass)
    return {"energy": g["energy"] * _escale(args), "theta_deg": g["theta"],
            "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)}


def _cmd_vacuum_pol(args):
    from . import loops
    if args.k2 is None and not args.sweep:
        raise _UsageError("vacuum-pol needs --k2 and/or --sweep")
    k2 = _grid(args, ("k2",))["k2"]
    val = loops.vacuum_polarization_finite(k2, args.mass, args.alpha)
    return {"k2": k2, "re_pi_bar": val.real, "im_pi_bar": val.imag}


def _cmd_self_energy(args):
    from . import loops
    p2 = _grid(args, ("p2",))["p2"]
    try:
        m2 = args.mass ** 2
    except OverflowError:
        raise DomainError(f"--mass {args.mass!r}: m^2 overflows") from None
    a, b = loops.self_energy_ab(p2 * m2, args.mass, args.alpha)
    pole_a, pole_b = loops.self_energy_pole(args.mass, args.alpha)
    # p2 = 0 is the zero momentum, whose pslash vanishes: b reads 0
    zero = p2 == 0.0
    b[zero] = 0.0
    return {"p2": p2, "re_a": a.real, "im_a": a.imag, "re_b": b.real,
            "im_b": b.imag, "pole_a": np.full(len(p2), pole_a),
            "pole_b": np.where(zero, 0.0, pole_b)}


def _cmd_energy_shift(args):
    from . import loops
    spec = loops.load_spectrum(args.spectrum, args.k_max)
    esc = _escale(args)
    levels = [args.level] if args.level else sorted(spec.levels)
    shifts = loops.energy_shifts(spec, levels, alpha=args.alpha)
    return {"level": levels,
            "energy": [spec.levels[lab] * esc for lab in levels],
            "re_shift": [v.real * esc for v in shifts],
            "im_shift": [v.imag * esc for v in shifts]}


def _cmd_classical(args):
    from . import dynamics
    if args.stride < 1:
        raise _UsageError(f"--stride must be >= 1, got {args.stride}")
    try:
        z0 = np.array([complex(c) for c in args.z.split(",")])
    except ValueError:
        raise _UsageError(f"bad internal components: {args.z}") from None
    if not (np.isfinite(z0).all() and math.isfinite(args.pz)):
        raise DomainError("internal components and pz must be finite")
    if args.particle == "electron":
        if len(z0) != 4:
            raise _UsageError("electron spinor needs 4 components")
        pz = args.pz
        # mass * mass overflows to inf, a DomainError; mass ** 2 raises
        p = FourVector(math.sqrt(args.mass * args.mass + pz * pz),
                       0.0, 0.0, pz)
        state = dynamics.ElectronState(FourVector(0, 0, 0, 0), p, z0)
        rate = args.mass            # slash(p) has eigenvalues +-m
    else:
        if "mass" in getattr(args, "_given", ()):
            raise _UsageError("--mass is not read by a photon run")
        # without --z the photon takes the first two default components
        eta = z0 if "z" in getattr(args, "_given", ()) else z0[:2]
        if len(eta) != 2:
            raise _UsageError("photon internal state needs 2 components")
        if args.pz == 0.0:
            raise DomainError("a photon needs |k| > 0: give a nonzero --pz")
        # a photon along -z still has positive energy
        p = FourVector(abs(args.pz), 0.0, 0.0, args.pz)
        state = dynamics.PhotonClassicalState(FourVector(0, 0, 0, 0), p, eta)
        rate = 2.0 * abs(args.pz)   # sigma.p has eigenvalues 0 and 2|k|
    # an RK4 step of dz/dtau = -i A z multiplies each eigencomponent by
    # R(-i y), y = dt times an eigenvalue of A, and |R(iy)|^2 = 1 - y^6/72
    # + y^8/576 exceeds 1 for |y| > 2 sqrt(2): z would grow without bound
    if args.dt * rate > math.sqrt(8.0):
        raise DomainError(f"--dt {args.dt!r} is above "
                          f"{math.sqrt(8.0) / rate!r}, RK4's stability "
                          f"limit for this run")
    # an overflow of x, p or z aborts the run, reported after its rows;
    # one of zbar_z or H alone is refused by `_finite` before any row
    traj = dynamics.integrate(state, None, (0.0, args.tau_max), args.dt)
    reason = (f"trajectory aborted after tau = {float(traj.tau[-1])!r}: "
              f"the state became non-finite" if traj.aborted else None)
    return {k: v[::args.stride] for k, v
            in dynamics.trajectory_columns(traj).items()}, reason


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    from . import algebra, fourvec, loops, processes, states
    rng = np.random.default_rng(7)

    def clifford():
        # every anticommutator {g^m, g^n} = 2 eta^mn from one product
        g = algebra.GAMMA
        gg = np.einsum("mij,njk->mnik", g, g)
        metric = np.diag(fourvec.METRIC_DIAG)
        return np.allclose(gg + gg.transpose(1, 0, 2, 3),
                           2 * metric[:, :, None, None] * np.eye(4),
                           atol=1e-14)

    def dirac_residual():
        p3 = rng.normal(size=(50, 3))
        p = np.column_stack([np.sqrt(1.0 + np.sum(p3 * p3, axis=1)), p3])
        u = states.dirac_spinors(p)[:, 0]
        r = np.einsum("nij,nj->ni", algebra.slash(p) - np.eye(4), u)
        return np.max(np.linalg.norm(r, axis=1)) <= 1e-12

    def photon_residual():
        for kind in states.PHOTON_KINDS:
            k = 0.0 if kind == "vacuum" else 1.3
            st = states.photon_state(kind, k)
            if states.wave_equation_residual(st) > 1e-12:
                return False
        return True

    def subtraction_zero():
        return abs(loops.vacuum_polarization_finite(0.0)) <= 1e-12

    def crossing():
        # every annihilation amplitude, evaluated from the Compton
        # topology through its crossing map, against the closed form of
        # its spin sum (Peskin & Schroeder 5.105; m = 1)
        cfg = processes.annihilation_cm_config(0.7, 1.1, 0.3)
        amp = processes.amplitude(cfg).value
        p = cfg.momenta["p_minus"]
        k1 = minkowski_dot(p, cfg.momenta["k_i"])
        k2 = minkowski_dot(p, cfg.momenta["k_f"])
        s = 1.0 / k1 + 1.0 / k2
        want = (2.0 * (4.0 * math.pi * ALPHA_DEFAULT) ** 2
                * (k2 / k1 + k1 / k2 + 2.0 * s - s * s))
        return abs(np.sum(abs(amp) ** 2) / 4.0 - want) <= 1e-12 * want

    def exchange():
        # every helicity amplitude against the one with the final
        # electrons' momenta and slot axes swapped
        cfg = processes.moller_cm_config(1.5, 0.8, 0.2)
        swapped = dict(cfg.momenta)
        swapped["p_f1"], swapped["p_f2"] = swapped["p_f2"], swapped["p_f1"]
        c2 = processes.KinematicConfig("moller", swapped, mass=cfg.mass)
        amp = processes.electron_electron_amplitude(cfg)
        a, b = amp.value, np.swapaxes(
            processes.electron_electron_amplitude(c2).value,
            amp.axes.index("p_f1"), amp.axes.index("p_f2"))
        return (np.abs(a + b) <= 1e-12 * np.maximum(1.0, np.abs(a))).all()

    check("clifford-algebra", clifford)
    check("dirac-residual", dirac_residual)
    check("photon-residual", photon_residual)
    check("vacuum-pol-subtraction", subtraction_zero)
    check("crossing-consistency", crossing)
    check("exchange-antisymmetry", exchange)
    if all(ok for _, ok in checks):
        return 0
    return 1


# -- parser ----------------------------------------------------------------

# the options several subcommands share; each subcommand declares the ones
# it reads, so any other is a usage error
_SHARED = {
    "mass": (("--mass",), {"type": float, "default": 1.0}),
    "alpha": (("--alpha",), {"type": float, "default": ALPHA_DEFAULT}),
    "mev": (("--mev",), {"action": "store_true", "help": "display energies "
                         "in MeV (0.51099895 MeV per m)"}),
    "format": (("--format",), {"choices": ("csv", "json"),
                               "default": "csv"}),
    "output": (("-o", "--output"), {"default": "-"}),
    "sweep": (("--sweep",), {"help": "name:start:stop:count[:log]"}),
}
_TABLE = ("format", "output")
_LOOP = ("mass", "alpha", *_TABLE, "sweep")
_TREE = (*_LOOP, "mev")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fqed", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def command(name, func, shared):
        sp = sub.add_parser(name)
        sp.register("action", None, _Given)     # plain options note use
        for opt in shared:
            flags, kwargs = _SHARED[opt]
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
        return sp

    sp = command("compton", _cmd_compton, _TREE)
    sp.add_argument("--omega-in", dest="omega_in", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=90.0)

    sp = command("annihilate", _cmd_annihilate, _TREE)
    sp.add_argument("--pmag", type=float, default=0.5)
    sp.add_argument("--theta", type=float, default=60.0)

    sp = command("brems", functools.partial(
        _coulomb_cmd, params=("e_in", "omega", "theta_e", "theta_k"),
        builder="bremsstrahlung_config"), _TREE)
    sp.add_argument("--e-in", dest="e_in", type=float, default=2.0)
    sp.add_argument("--omega", type=float, default=0.5)
    sp.add_argument("--theta-e", dest="theta_e", type=float, default=20.0)
    sp.add_argument("--theta-k", dest="theta_k", type=float, default=45.0)
    sp.add_argument("--Z", type=float, default=1.0)

    sp = command("pairprod", functools.partial(
        _coulomb_cmd, params=("omega_in", "e_plus", "theta_p", "theta_m"),
        builder="pair_production_config"), _TREE)
    sp.add_argument("--omega-in", dest="omega_in", type=float, default=3.0)
    sp.add_argument("--e-plus", dest="e_plus", type=float, default=1.5)
    sp.add_argument("--theta-p", dest="theta_p", type=float, default=30.0)
    sp.add_argument("--theta-m", dest="theta_m", type=float, default=30.0)
    sp.add_argument("--Z", type=float, default=1.0)

    for name, builder in (("moller", "moller_cm_config"),
                          ("bhabha", "bhabha_cm_config")):
        sp = command(name, functools.partial(
            _four_fermion_cmd, builder=builder), _TREE)
        sp.add_argument("--energy", type=float, default=2.0)
        sp.add_argument("--theta", type=float, default=60.0)

    sp = command("vacuum-pol", _cmd_vacuum_pol, _LOOP)
    sp.add_argument("--k2", type=float, default=None)

    sp = command("self-energy", _cmd_self_energy, _LOOP)
    sp.add_argument("--p2", type=float, default=0.5,
                    help="p^2 in units of m^2")

    sp = command("energy-shift", _cmd_energy_shift,
                 ("alpha", "mev", *_TABLE))
    sp.add_argument("--spectrum", required=True)
    sp.add_argument("--level", default=None)
    sp.add_argument("--k-max", dest="k_max", type=float, default=10.0)

    sp = command("classical", _cmd_classical, ("mass", *_TABLE))
    sp.add_argument("--particle", choices=("electron", "photon"),
                    default="electron")
    sp.add_argument("--z", default="0.7071067811865476,0,"
                                   "0.7071067811865476,0",
                    help="comma-separated internal components")
    sp.add_argument("--pz", type=float, default=0.0)
    sp.add_argument("--tau-max", dest="tau_max", type=float, default=100.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--stride", type=int, default=1)

    command("selftest", _cmd_selftest, ())

    # each subcommand's parser by name, for `_parse`
    ap.commands = sub.choices
    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses: built once per process, on first use.
    Parsing keeps no state in it (each call fills a new namespace), and
    its defaults hold only evaluators, the tree ones bound by
    `functools.partial` to the *name* of their config builder. Those
    import their layer when called and look each library function up on
    its module then (`processes.moller_cm_config`, never a name bound at
    import), so a layer a command does not use is never loaded, and a
    wrapper installed on a module attribute later (as a tracer does) is
    the one called."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed as `_parser().parse_args` parses it, with less work
    where argv[0] names a subcommand: its words after that name go
    straight to the subcommand's parser, the one the top-level parser's
    subparsers action would hand them to, into a namespace that already
    holds the subcommand's name (as that action sets it first). So the
    options, defaults, help and messages are the subcommand parser's in
    either path. Any other argv (empty, an unknown word, -h) goes to the
    top-level parser."""
    ap = _parser()
    sub = ap.commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        _check_mass_alpha(args)
        # an overflow surfaces as the table's `_finite` check or a
        # trajectory's abort, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.subcommand == "selftest":
                return args.func(args)
            table = args.func(args)
        # `classical` returns its rows with the reason its run aborted,
        # which is raised once they are written
        table, abort = table if isinstance(table, tuple) else (table, None)
        _write_table(args, _finite(table))
        if abort:
            raise NumericError(abort)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PoleError, SingularityError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (DomainError, FqedError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except OSError as exc:
        if (isinstance(exc, BrokenPipeError)
                and getattr(args, "output", "-") == "-"):
            # the reader closed stdout early, having read what it wanted:
            # point stdout at os.devnull, so that the interpreter's final
            # flush of what is still buffered fails on nothing (the recipe
            # in Python's `signal` docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        print(f"i/o error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
