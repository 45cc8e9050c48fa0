"""Command-line front end: kinematics sweeps and plot-ready tables.

Every subcommand evaluates a table of rows (one per sweep point, or a
single row when no sweep is given) and writes CSV or JSON with full
round-trip precision. Exit codes: 0 success, 2 domain error (bad
kinematics or input), 3 numeric error (pole, singular point, aborted
trajectory), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .constants import ALPHA_DEFAULT, ELECTRON_MASS_MEV
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_sweep(spec: str):
    """name:start:stop:count[:log] -> (name, values array)."""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise _UsageError(f"bad sweep spec: {spec}")
    name = parts[0].replace("-", "_")
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError:
        raise _UsageError(f"bad sweep numbers in: {spec}") from None
    if count < 1:
        raise _UsageError("sweep count must be >= 1")
    scale = parts[4] if len(parts) == 5 else "linear"
    if scale not in ("linear", "log"):
        raise _UsageError(f"sweep scale must be linear|log, got {scale}")
    if count == 1:
        return name, np.array([start])
    if scale == "linear":
        return name, np.linspace(start, stop, count)
    if start == 0.0 or stop == 0.0:
        raise _UsageError("log sweep endpoints must be nonzero")
    if (start > 0) != (stop > 0):
        raise _UsageError("log sweep endpoints must have the same sign")
    sign = 1.0 if start > 0 else -1.0
    return name, sign * np.geomspace(abs(start), abs(stop), count)


def _config(args) -> dict:
    """The JSON config block: every set option but the plumbing."""
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and not k.startswith("_")
            and v is not None}


def _column_cells(c: np.ndarray, csv: bool) -> list:
    """The text of each cell of a column: str for CSV, JSON otherwise. A
    float64 column of two or more rows whose cells all have the bytes of
    the first (so -0.0 is not 0.0) is formatted once. The bytes are
    compared only where the last cell equals the first, so that other
    columns (and NaN ones) pay one float comparison: on a short table
    the full test would cost more than it saves."""
    v = c.tolist()
    if len(v) > 1 and v[-1] == v[0] and c.dtype == np.float64:
        bits = c.tobytes()
        if bits == bits[:8] * len(v):
            return [str(v[0]) if csv else json.dumps(v[0])] * len(v)
    if csv:
        # str of a Python float (from tolist) is its round-trip repr
        return list(map(str, v))
    # repr of a finite float is its JSON, and a float column with a
    # finite sum holds only finite floats; json.dumps spells the rest
    finite = c.dtype.kind == "f" and math.isfinite(sum(v))
    return list(map(repr if finite else json.dumps, v))


def _write_table(args, table: dict):
    """Write a table given as one sequence per column name. Column by
    column, a constant float column formatted once, and byte-identical
    to joining each row's cells with commas and to `json.dumps` of
    {"config", "rows": [a dict per row]}, indent=1."""
    csv = args.format == "csv"
    cells = [_column_cells(np.asarray(v), csv) for v in table.values()]
    if csv:
        text = "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"
    else:
        # a column of two or more rows whose cells all have one text is
        # written into the row template once (escaped for %, as a string
        # cell may hold one); only the other columns are substituted
        same = [len(c) > 1 and c[-1] == c[0] and c.count(c[0]) == len(c)
                for c in cells]
        row = "  {\n" + ",\n".join(
            f"   {json.dumps(k).replace('%', '%%')}: "
            + (c[0].replace("%", "%%") if s else "%s")
            for k, c, s in zip(table, cells, same)
        ) + "\n  }"
        n = len(cells[0])
        cells = [c for c, s in zip(cells, same) if not s]
        # where no column varies, every row is the template alone
        rows = ",\n".join([row % r for r in zip(*cells)] if cells
                          else [row % ()] * n)
        config = json.dumps(_config(args), indent=1).replace("\n", "\n ")
        text = ('{\n "config": ' + config + ',\n "rows": ['
                + ("\n" + rows + "\n " if rows else "") + "]\n}\n")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    """table, checked: a non-finite (overflowed) cell is a NumericError."""
    if not np.isfinite(list(table.values())).all():
        bad = [k for k, v in table.items() if not np.isfinite(v).all()]
        raise NumericError(f"not finite (overflow): {', '.join(bad)}")
    return table


def _escale(args) -> float:
    return ELECTRON_MASS_MEV if args.mev else 1.0


# -- subcommand evaluators -------------------------------------------------
#
# Every table subcommand evaluates its whole grid in one batched call.
# Each evaluator imports the layers it calls when it runs, so a command
# loads only its own, and calls them through their module attributes.

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
    _write_table(args, _finite({
        "theta_deg": g["theta"], "omega_in": g["omega_in"] * esc,
        "omega_out": w2 * esc, "M2_spin_avg": m2,
        "dsigma_dOmega": dsig / esc ** 2 if args.mev else dsig}))


def _cmd_annihilate(args):
    from . import processes
    g = _grid(args, ("theta", "pmag"))
    cfg = processes.annihilation_cm_config(g["pmag"], np.radians(g["theta"]),
                                           mass=args.mass)
    _write_table(args, _finite({
        "theta_deg": g["theta"], "pmag": g["pmag"] * _escale(args),
        "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)}))


def _coulomb_cmd(args, params, builder):
    """brems and pairprod: two energies, two angles, one helicity."""
    from . import processes
    esc = _escale(args)
    g = _grid(args, params)
    energies, angles = params[:2], params[2:]
    cfg = builder(*(g[p] for p in energies),
                  *(np.radians(g[p]) for p in angles), Z=args.Z,
                  mass=args.mass)
    m = processes.amplitude(cfg, args.alpha).value
    _write_table(args, _finite({**{p: g[p] * esc for p in energies},
                                **{p + "_deg": g[p] for p in angles},
                                "re_M": m.real, "im_M": m.imag,
                                "abs2_M": np.abs(m) ** 2}))


def _cmd_brems(args):
    from . import processes
    _coulomb_cmd(args, ("e_in", "omega", "theta_e", "theta_k"),
                 processes.bremsstrahlung_config)


def _cmd_pairprod(args):
    from . import processes
    _coulomb_cmd(args, ("omega_in", "e_plus", "theta_p", "theta_m"),
                 processes.pair_production_config)


def _four_fermion_cmd(args, builder):
    from . import processes
    g = _grid(args, ("energy", "theta"))
    cfg = builder(g["energy"], np.radians(g["theta"]), mass=args.mass)
    _write_table(args, _finite({
        "energy": g["energy"] * _escale(args), "theta_deg": g["theta"],
        "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)}))


def _cmd_moller(args):
    from . import processes
    _four_fermion_cmd(args, processes.moller_cm_config)


def _cmd_bhabha(args):
    from . import processes
    _four_fermion_cmd(args, processes.bhabha_cm_config)


def _cmd_vacuum_pol(args):
    from . import loops
    if args.k2 is None and not args.sweep:
        raise _UsageError("vacuum-pol needs --k2 and/or --sweep")
    k2 = _grid(args, ("k2",))["k2"]
    val = loops.vacuum_polarization_finite(k2, args.mass, args.alpha)
    _write_table(args, _finite({"k2": k2, "re_pi_bar": val.real,
                                "im_pi_bar": val.imag}))


def _cmd_self_energy(args):
    from . import loops
    p2 = _grid(args, ("p2",))["p2"]
    try:
        m2 = args.mass ** 2
    except OverflowError:
        raise DomainError(f"--mass {args.mass!r}: m^2 overflows") from None
    a, b = loops.self_energy_ab(p2 * m2, args.mass, args.alpha)
    c = args.alpha / (4.0 * math.pi)
    # p2 = 0 is the zero momentum, whose pslash vanishes: b reads 0
    zero = p2 == 0.0
    b[zero] = 0.0
    _write_table(args, _finite({"p2": p2, "re_a": a.real, "im_a": a.imag,
                                "re_b": b.real, "im_b": b.imag,
                                "pole_a": np.full(len(p2),
                                                  4.0 * args.mass * c),
                                "pole_b": np.where(zero, 0.0, -c)}))


def _cmd_energy_shift(args):
    from . import loops
    spec = loops.load_spectrum(args.spectrum, args.k_max)
    esc = _escale(args)
    levels = [args.level] if args.level else sorted(spec.levels)
    shifts = [loops.energy_shift(spec, lab, alpha=args.alpha)
              for lab in levels]
    # the level labels are text, which `_finite` does not take
    _write_table(args, {"level": levels, **_finite({
        "energy": [spec.levels[lab] * esc for lab in levels],
        "re_shift": [v.real * esc for v in shifts],
        "im_shift": [v.imag * esc for v in shifts]})})


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
    else:
        # without --z the photon takes the first two default components
        eta = z0 if "z" in getattr(args, "_given", ()) else z0[:2]
        if len(eta) != 2:
            raise _UsageError("photon internal state needs 2 components")
        if args.pz == 0.0:
            raise DomainError("a photon needs |k| > 0: give a nonzero --pz")
        # a photon along -z still has positive energy
        p = FourVector(abs(args.pz), 0.0, 0.0, args.pz)
        state = dynamics.PhotonClassicalState(FourVector(0, 0, 0, 0), p, eta)
    # overflow ends the run as an abort, reported below
    traj = dynamics.integrate(state, None, (0.0, args.tau_max), args.dt)
    _write_table(args, {k: v[::args.stride] for k, v
                        in dynamics.trajectory_columns(traj).items()})
    if traj.aborted:
        # the rows up to the last finite state are written first
        raise NumericError(f"trajectory aborted after tau = "
                           f"{float(traj.tau[-1])!r}: the state became "
                           f"non-finite")


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    from . import algebra, loops, processes, states
    rng = np.random.default_rng(7)

    def clifford():
        g = algebra.GAMMA
        metric = np.diag([1.0, -1.0, -1.0, -1.0])
        return all(np.allclose(g[m] @ g[n] + g[n] @ g[m],
                               2 * metric[m, n] * np.eye(4), atol=1e-14)
                   for m in range(4) for n in range(4))

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
        # annihilation, evaluated from the Compton topology through its
        # crossing table, against the closed form of its spin sum
        # (Peskin & Schroeder 5.105; m = 1)
        cfg = processes.annihilation_cm_config(0.7, 1.1, 0.3)
        p = cfg.momenta["p_minus"]
        k1 = minkowski_dot(p, cfg.momenta["k_i"])
        k2 = minkowski_dot(p, cfg.momenta["k_f"])
        s = 1.0 / k1 + 1.0 / k2
        want = (2.0 * (4.0 * math.pi * ALPHA_DEFAULT) ** 2
                * (k2 / k1 + k1 / k2 + 2.0 * s - s * s))
        return abs(processes.spin_summed_squared(cfg) - want) <= 1e-12 * want

    def exchange():
        cfg = processes.moller_cm_config(1.5, 0.8, 0.2)
        swapped = dict(cfg.momenta)
        swapped["p_f1"], swapped["p_f2"] = swapped["p_f2"], swapped["p_f1"]
        spins = dict(cfg.spins)
        spins["p_f1"], spins["p_f2"] = spins["p_f2"], spins["p_f1"]
        c2 = processes.KinematicConfig("moller", swapped, spins, {},
                                       mass=cfg.mass)
        a = processes.electron_electron_amplitude(cfg).value
        b = processes.electron_electron_amplitude(c2).value
        return abs(a + b) <= 1e-12 * max(1.0, abs(a))

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

    sp = command("brems", _cmd_brems, _TREE)
    sp.add_argument("--e-in", dest="e_in", type=float, default=2.0)
    sp.add_argument("--omega", type=float, default=0.5)
    sp.add_argument("--theta-e", dest="theta_e", type=float, default=20.0)
    sp.add_argument("--theta-k", dest="theta_k", type=float, default=45.0)
    sp.add_argument("--Z", type=float, default=1.0)

    sp = command("pairprod", _cmd_pairprod, _TREE)
    sp.add_argument("--omega-in", dest="omega_in", type=float, default=3.0)
    sp.add_argument("--e-plus", dest="e_plus", type=float, default=1.5)
    sp.add_argument("--theta-p", dest="theta_p", type=float, default=30.0)
    sp.add_argument("--theta-m", dest="theta_m", type=float, default=30.0)
    sp.add_argument("--Z", type=float, default=1.0)

    for name, func in (("moller", _cmd_moller), ("bhabha", _cmd_bhabha)):
        sp = command(name, func, _TREE)
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

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses: built once per process, on first use.
    Parsing keeps no state in it (each call fills a new namespace), and
    its defaults hold only `_cmd_*` functions. Those import their layer
    when called and look each library function up on its module then
    (`dynamics.integrate`, never a name bound at import), so a layer a
    command does not use is never loaded, and a wrapper installed on a
    module attribute later (as a tracer does) is the one called."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        _check_mass_alpha(args)
        # an overflow surfaces as the evaluator's own error (a table's
        # `_finite` check, a trajectory's abort), not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rc = args.func(args)
        return 0 if rc is None else rc
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
        print(f"i/o error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
