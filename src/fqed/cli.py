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

from . import loops, processes
from .constants import ALPHA_DEFAULT, ELECTRON_MASS_MEV
from .dynamics import (ElectronState, PhotonClassicalState, integrate,
                       trajectory_columns)
from .errors import (DomainError, FqedError, NumericError, PoleError,
                     SingularityError)
from .fourvec import FourVector

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


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config(args) -> dict:
    """The JSON config block: every set option but the plumbing."""
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and not k.startswith("_")
            and v is not None}


def _write_table(args, table: dict):
    """Write a table given as one sequence per column name."""
    # tolist() gives Python scalars, so floats print round-trip
    rows = list(zip(*(np.asarray(v).tolist() for v in table.values())))
    if args.format == "csv":
        lines = [",".join(table)] + [",".join(map(_fmt, r)) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"config": _config(args),
                           "rows": [dict(zip(table, r)) for r in rows]},
                          indent=1) + "\n"
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
    """The options every subcommand shares: mass finite and > 0, alpha
    finite."""
    if not (math.isfinite(args.mass) and args.mass > 0):
        raise DomainError(f"--mass must be finite and > 0, got {args.mass!r}")
    if not math.isfinite(args.alpha):
        raise DomainError(f"--alpha must be finite, got {args.alpha!r}")


def _escale(args) -> float:
    return ELECTRON_MASS_MEV if getattr(args, "mev", False) else 1.0


# -- subcommand evaluators -------------------------------------------------
#
# Every table subcommand evaluates its whole grid in one batched call.

def _cmd_compton(args):
    esc = _escale(args)
    g = _grid(args, ("theta", "omega_in"))
    theta = np.radians(g["theta"])
    cfg = processes.compton_lab_config(g["omega_in"], theta, mass=args.mass)
    m2 = processes.spin_summed_squared(cfg, args.alpha)
    w2 = processes.compton_omega_out(g["omega_in"], theta, args.mass)
    dsig = (w2 / g["omega_in"]) ** 2 * m2 / (
        64.0 * math.pi ** 2 * args.mass ** 2)
    _write_table(args, {
        "theta_deg": g["theta"], "omega_in": g["omega_in"] * esc,
        "omega_out": w2 * esc, "M2_spin_avg": m2,
        "dsigma_dOmega": dsig / esc ** 2 if args.mev else dsig})


def _cmd_annihilate(args):
    g = _grid(args, ("theta", "pmag"))
    cfg = processes.annihilation_cm_config(g["pmag"], np.radians(g["theta"]),
                                           mass=args.mass)
    _write_table(args, {
        "theta_deg": g["theta"], "pmag": g["pmag"] * _escale(args),
        "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)})


def _coulomb_cmd(args, params, builder):
    """brems and pairprod: two energies, two angles, one helicity."""
    esc = _escale(args)
    g = _grid(args, params)
    energies, angles = params[:2], params[2:]
    cfg = builder(*(g[p] for p in energies),
                  *(np.radians(g[p]) for p in angles), Z=args.Z,
                  mass=args.mass)
    m = processes.amplitude(cfg, args.alpha).value
    _write_table(args, {**{p: g[p] * esc for p in energies},
                        **{p + "_deg": g[p] for p in angles},
                        "re_M": m.real, "im_M": m.imag,
                        "abs2_M": np.abs(m) ** 2})


def _cmd_brems(args):
    _coulomb_cmd(args, ("e_in", "omega", "theta_e", "theta_k"),
                 processes.bremsstrahlung_config)


def _cmd_pairprod(args):
    _coulomb_cmd(args, ("omega_in", "e_plus", "theta_p", "theta_m"),
                 processes.pair_production_config)


def _four_fermion_cmd(args, builder):
    g = _grid(args, ("energy", "theta"))
    cfg = builder(g["energy"], np.radians(g["theta"]), mass=args.mass)
    _write_table(args, {
        "energy": g["energy"] * _escale(args), "theta_deg": g["theta"],
        "M2_spin_avg": processes.spin_summed_squared(cfg, args.alpha)})


def _cmd_vacuum_pol(args):
    if args.k2 is None and not args.sweep:
        raise _UsageError("vacuum-pol needs --k2 and/or --sweep")
    k2 = _grid(args, ("k2",))["k2"]
    val = loops.vacuum_polarization_finite(k2, args.mass, args.alpha)
    _write_table(args, {"k2": k2, "re_pi_bar": val.real,
                        "im_pi_bar": val.imag})


def _cmd_self_energy(args):
    p2 = _grid(args, ("p2",))["p2"]
    a, b = loops.self_energy_ab(p2 * args.mass ** 2, args.mass, args.alpha)
    c = args.alpha / (4.0 * math.pi)
    # p2 = 0 is the zero momentum, whose pslash vanishes: b reads 0
    zero = p2 == 0.0
    b[zero] = 0.0
    _write_table(args, {"p2": p2, "re_a": a.real, "im_a": a.imag,
                        "re_b": b.real, "im_b": b.imag,
                        "pole_a": np.full(len(p2), 4.0 * args.mass * c),
                        "pole_b": np.where(zero, 0.0, -c)})


def _cmd_energy_shift(args):
    spec = loops.load_spectrum(args.spectrum, args.k_max)
    esc = _escale(args)
    levels = [args.level] if args.level else sorted(spec.levels)
    shifts = [loops.energy_shift(spec, lab, alpha=args.alpha)
              for lab in levels]
    _write_table(args, {"level": levels,
                        "energy": [spec.levels[lab] * esc for lab in levels],
                        "re_shift": [v.real * esc for v in shifts],
                        "im_shift": [v.imag * esc for v in shifts]})


def _cmd_classical(args):
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
        p = FourVector(math.sqrt(args.mass ** 2 + pz * pz), 0.0, 0.0, pz)
        state = ElectronState(FourVector(0, 0, 0, 0), p, z0)
    else:
        eta = z0[:2]
        if len(eta) != 2:
            raise _UsageError("photon internal state needs 2 components")
        p = FourVector(args.pz, 0.0, 0.0, args.pz)
        state = PhotonClassicalState(FourVector(0, 0, 0, 0), p, eta)
    # overflow ends the run as an abort, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(state, None, (0.0, args.tau_max), args.dt)
    _write_table(args, {k: v[::args.stride]
                        for k, v in trajectory_columns(traj).items()})
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

    from . import algebra, states
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
        cfg = processes.annihilation_cm_config(0.7, 1.1, 0.3)
        a = processes.pair_annihilation_amplitude(cfg).value
        b = processes.apply_crossing("compton",
                                     processes.COMPTON_TO_ANNIHILATION,
                                     cfg).value
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def exchange():
        cfg = processes.moller_cm_config(1.5, 0.8, 0.2)
        swapped = dict(cfg.momenta)
        swapped["p_f1"], swapped["p_f2"] = swapped["p_f2"], swapped["p_f1"]
        spins = dict(cfg.spins)
        spins["p_f1"], spins["p_f2"] = spins["p_f2"], spins["p_f1"]
        c2 = processes.KinematicConfig("moller", swapped, spins, {},
                                       frame="cm", mass=cfg.mass)
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

def _add_common(sp):
    sp.add_argument("--mass", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=ALPHA_DEFAULT)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("-o", "--output", default="-")
    sp.add_argument("--mev", action="store_true",
                    help="display energies in MeV (0.51099895 MeV per m)")
    sp.add_argument("--sweep", default=None,
                    help="name:start:stop:count[:log]")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fqed", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def command(name):
        sp = sub.add_parser(name)
        sp.register("action", None, _Given)     # plain options note use
        return sp

    sp = command("compton")
    sp.add_argument("--omega-in", dest="omega_in", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=90.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_compton)

    sp = command("annihilate")
    sp.add_argument("--pmag", type=float, default=0.5)
    sp.add_argument("--theta", type=float, default=60.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_annihilate)

    sp = command("brems")
    sp.add_argument("--e-in", dest="e_in", type=float, default=2.0)
    sp.add_argument("--omega", type=float, default=0.5)
    sp.add_argument("--theta-e", dest="theta_e", type=float, default=20.0)
    sp.add_argument("--theta-k", dest="theta_k", type=float, default=45.0)
    sp.add_argument("--Z", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brems)

    sp = command("pairprod")
    sp.add_argument("--omega-in", dest="omega_in", type=float, default=3.0)
    sp.add_argument("--e-plus", dest="e_plus", type=float, default=1.5)
    sp.add_argument("--theta-p", dest="theta_p", type=float, default=30.0)
    sp.add_argument("--theta-m", dest="theta_m", type=float, default=30.0)
    sp.add_argument("--Z", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_pairprod)

    for name, builder in (("moller", processes.moller_cm_config),
                          ("bhabha", processes.bhabha_cm_config)):
        sp = command(name)
        sp.add_argument("--energy", type=float, default=2.0)
        sp.add_argument("--theta", type=float, default=60.0)
        _add_common(sp)
        sp.set_defaults(func=functools.partial(_four_fermion_cmd,
                                               builder=builder))

    sp = command("vacuum-pol")
    sp.add_argument("--k2", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_vacuum_pol)

    sp = command("self-energy")
    sp.add_argument("--p2", type=float, default=0.5,
                    help="p^2 in units of m^2")
    _add_common(sp)
    sp.set_defaults(func=_cmd_self_energy)

    sp = command("energy-shift")
    sp.add_argument("--spectrum", required=True)
    sp.add_argument("--level", default=None)
    sp.add_argument("--k-max", dest="k_max", type=float, default=10.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_energy_shift)

    sp = command("classical")
    sp.add_argument("--particle", choices=("electron", "photon"),
                    default="electron")
    sp.add_argument("--z", default="0.7071067811865476,0,"
                                   "0.7071067811865476,0",
                    help="comma-separated internal components")
    sp.add_argument("--pz", type=float, default=0.0)
    sp.add_argument("--tau-max", dest="tau_max", type=float, default=100.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--stride", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_classical)

    sp = command("selftest")
    _add_common(sp)
    sp.set_defaults(func=_cmd_selftest)

    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        _check_mass_alpha(args)
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
