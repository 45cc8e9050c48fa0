"""The contract of the `fqed` command line, as one table of cases.

A case is a command line, the fixture files it reads, and what its run
must give: the exit code, stdout and stderr. It runs in an empty
directory that holds only its fixtures, and must leave no other file
there. `tests/test_cli.py` runs every case in process through
`fqed.cli.run`, one test per group of cases (the test a group is named
after); `tests/test_cli_contract.py` runs every case through the
console script that the environment variable FQED_BIN names, as a
subprocess.

What stdout must be: a str is the exact text (so "" is no output at
all), a `Csv` or a `Json` a table. What stderr must be: a str is the
exact text, a `Line` one line holding given strings.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Csv:
    """A CSV table of `rows` rows under a header that starts with `head`,
    every row with a cell per column. `col0`, where given, is the text of
    each row's first cell. Where `same` names command lines, the rows are
    those of their outputs one after another, cell for cell as text."""

    rows: int
    head: str = ""
    col0: tuple | None = None
    same: tuple = ()


@dataclass(frozen=True)
class Json:
    """A JSON document of a `config` object and `rows` rows."""

    rows: int


class Line(tuple):
    """One line of stderr that holds each of these strings."""

    def __new__(cls, *parts):
        return super().__new__(cls, parts)


@dataclass(frozen=True)
class Case:
    group: str              # the test of tests/test_cli.py that runs it
    argv: tuple             # the words after `fqed`
    rc: int
    out: object = ""        # str, Csv or Json
    err: object = ""        # str or Line
    files: tuple = ()       # (name, text or bytes) written before the run
    key: str | None = None  # its id in its group's test

    @property
    def id(self) -> str:
        return f"{self.group}[{self.key or ' '.join(self.argv)}]"


def _argv(words) -> tuple:
    return tuple(words.split()) if isinstance(words, str) else tuple(words)


CASES: list[Case] = []


def case(group, argv, rc, out="", err="", files=(), key=None):
    """Add a case; argv is a list of words or a string split at spaces,
    and so is each command line of a Csv's `same`."""
    CASES.append(Case(group, _argv(argv), rc, out, err, tuple(files), key))


# -- spectrum files and expected texts ----------------------------------------

LEVELS = "[levels]\n2p 1.0\n1s 0.625\n"
TWO_LEVELS = ("[levels]\nd 1.0\nb 0.7\n[current d b]\n"
              "0.0 0.0 0.2 0.0 0.0\n5.0 0.0 0.2 0.0 0.0\n")
THREE_LEVELS = ("[levels]\na 1.6\nb 1.0\nc 0.45\n"
                "[current a b]\n0.0 0.0 0.16 0.04 0.0\n"
                "2.5 0.0 0.18 0.02 0.06\n5.0 0.0 0.04 0.01 0.01\n"
                "[current c a]\n0.0 0.0 0.22 0.05 0.0\n"
                "2.5 0.0 0.24 0.02 0.09\n5.0 0.0 0.05 0.01 0.01\n"
                "[current b c]\n0.0 0.0 0.26 0.07 0.0\n"
                "5.0 0.0 0.07 0.01 0.01\n")
SELFTEST = "".join(f"PASS {name}\n" for name in (
    "clifford-algebra", "dirac-residual", "photon-residual",
    "vacuum-pol-subtraction", "crossing-consistency",
    "exchange-antisymmetry"))
TRAJECTORY = "tau,x0,x1,x2,x3,p0,p1,p2,p3,re_z0,im_z0,re_z1,im_z1,"
SHORT = "--tau-max 0.003 --dt 0.001"


# -- TestExitCodes ------------------------------------------------------------

case("success", "compton", 0, Csv(1, "theta_deg,"))

for argv in ("not-a-command", "", "compton --sweep bogus:0:1:2",
             "selftest --format json"):
    case("usage_error", argv, 64, err=Line("usage error: "))
for stride in ("0", "-1"):
    case("usage_error", f"classical --tau-max 0.01 --dt 0.001 --stride "
         f"{stride}", 64, err=Line("--stride must be >= 1"))

# subcommands that evaluate no grid take no --sweep
for argv, out, files in (
        ("classical --tau-max 0.01", Csv(11, TRAJECTORY), ()),
        ("energy-shift --spectrum levels.txt", Csv(2, "level,"),
         [("levels.txt", LEVELS)]),
        ("selftest", None, ())):
    case("sweep_only_where_honoured", f"{argv} --sweep pz:0:1:3", 64,
         err=Line("--sweep"), files=files)
    if out:
        case("sweep_only_where_honoured", argv, 0, out, files=files)
case("sweep_only_where_honoured", "self-energy --sweep p2:0.1:0.9:3", 0,
     Csv(3, "p2,"))

# a non-finite angle exits 2 naming its option, not a leg built from it
for value in ("nan", "inf", "-inf"):
    for sub, option in (("compton", "theta"), ("annihilate", "theta"),
                        ("moller", "theta"), ("bhabha", "theta"),
                        ("brems", "theta_e"), ("brems", "theta_k"),
                        ("pairprod", "theta_p"), ("pairprod", "theta_m")):
        case("non_finite_angle_named",
             [sub, f"--{option.replace('_', '-')}={value}"], 2,
             err=Line(f"{option} must be finite"),
             key=f"{value}-{sub}-{option}")

case("domain_error", "pairprod --omega-in 1.0", 2,
     err="domain error: omega_in must exceed 2: omega_in = 1.000e+00\n")

for argv in ("vacuum-pol --k2 1 --mass 0", "vacuum-pol --k2 1 --mass -1",
             "self-energy --mass nan", "compton --alpha nan",
             "compton --mass inf", "classical --mass 0",
             "classical --mass 1e300", "self-energy --mass 1e300",
             "brems --alpha -1", "pairprod --alpha -1",
             "energy-shift --spectrum /no/file --alpha inf"):
    case("bad_mass_or_alpha", argv, 2, err=Line("domain error: "))

# each internal line refuses a point at its pole, naming the line and the
# first bad value
POLES = {"fermion": ("compton --omega-in 1e-7",
                     "intermediate fermion too close to mass shell: "
                     "q^2 - m^2 = 2.000e-07"),
         "photon": ("moller --theta 1e-9", "photon line at q^2 = -9.139e-22"),
         "coulomb": ("brems --omega 1e-9 --theta-e 0 --theta-k 0",
                     "Coulomb pole: |q|^2 = 2.393e-20")}
for argv, message in POLES.values():
    case("numeric_error", argv, 3, err=f"numeric error: {message}\n")
for line, (argv, message) in POLES.items():
    for fmt in ("csv", "json"):
        case("pole_guard", f"{argv} --format {fmt}", 3,
             err=f"numeric error: {message}\n", key=f"{line}-{fmt}")

case("missing_spectrum_file", "energy-shift --spectrum /no/file", 2,
     err=Line("i/o error: ", "No such file"))

for key, text, k_max in (
        ("bad-level", b"[levels]\n2p abc\n1s 0.625\n", "4"),
        ("bad-current", b"[levels]\n2p 1.0\n1s 0.625\n[current 2p 1s]\n"
         b"0 0 x 0 0\n", "4"),
        ("not-utf8", "[levels]\n2p 1.0\n1s 0.625 # é\n".encode(
            "latin-1"), "4"),
        ("nan-current", b"[levels]\n2p 1.0\n1s 0.625\n[current 2p 1s]\n"
         b"0 0 nan 0 0\n4 0 0.1 0 0\n", "4"),
        ("repeated-level", b"[levels]\nd 1.0\nb 0.7\nd 2.0\n", "4"),
        ("repeated-k", b"[levels]\nd 1.0\nb 0.7\n[current d b]\n"
         b"0 0 0.2 0 0\n0 0 0.3 0 0\n4 0 0.2 0 0\n", "4"),
        ("empty-header", b"[levels]\nd 1.0\n[]\n", "4"),
        ("repeated-current", "[levels]\nd 1.0\nb 0.7\n[current d b]\n"
         "0.0 0.0 0.2 0.0 0.0\n[current d b]\n0.0 0.0 0.1 0.0 0.0\n", "5"),
        ("repeated-level-default-k-max", "[levels]\nd 1.0\nb 0.7\nd 2.0\n",
         None),
        ("repeated-k-at-zero", "[levels]\nd 1.0\nb 0.7\n[current d b]\n"
         "0.0 0.0 0.2 0.0 0.0\n0.0 0.0 0.3 0.0 0.0\n5.0 0.0 0.2 0.0 0.0\n",
         "5"),
        ("empty-header-default-k-max", "[levels]\nd 1.0\n[]\n", None),
        ("empty-levels", "[levels]\n", "4"),
        ("infinite-level", "[levels]\na 1e999\nb 0.5\n", "4"),
        ("empty-current", "[levels]\na 1.0\nb 0.5\n[current a b]\n", "4"),
        ("short-current-row", "[levels]\na 1.0\nb 0.5\n[current a b]\n"
         "0.0 0.0 0.2\n4.0 0.0 0.2\n", "4")):
    case("bad_spectrum_file", ["energy-shift", "--spectrum", f"{key}.txt"]
         + (["--k-max", k_max] if k_max else []), 2,
         err=Line("domain error: "), files=[(f"{key}.txt", text)], key=key)

case("usage_error", "classical --z 1,x,0,0", 64,
     err="usage error: bad internal components: 1,x,0,0\n")

for k_max in ("nan", "inf", "-inf", "0"):
    case("bad_k_max", f"energy-shift --spectrum levels.txt --k-max={k_max}",
         2, err=Line("k_max"), files=[("levels.txt", LEVELS)], key=k_max)

for argv in ("brems --Z nan", "pairprod --Z nan", "pairprod --Z inf",
             "brems --sweep omega:0.1:0.5:3 --Z=-inf"):
    case("non_finite_Z", argv, 2, err=Line("Z must be finite"))

# an overflow reaches stderr as the one `numeric error` line, with no
# warning before it and no rows
for argv in ("compton --alpha 1e300", "annihilate --alpha 1e300",
             "moller --alpha 1e300", "bhabha --alpha 1e300",
             "brems --Z 1e300", "pairprod --Z 1e300",
             "compton --alpha 1e300 --sweep theta:1:179:5 --format json",
             "self-energy --p2 1e300", "self-energy --p2 1.3e154",
             "vacuum-pol --k2 1e300 --alpha 1e308"):
    case("overflowed_result_exits_3", argv, 3,
         err=Line("numeric error: ", "not finite"))

for fmt in ("csv", "json"):
    case("overflowed_energy_shift_exits_3",
         "energy-shift --spectrum two_levels.txt --k-max 5 --alpha 1e308"
         + (" --format json" if fmt == "json" else ""), 3,
         err="numeric error: not finite (overflow): re_shift, im_shift\n",
         files=[("two_levels.txt", TWO_LEVELS)])

case("vacuum_pol_needs_point_or_sweep", "vacuum-pol", 64,
     err="usage error: vacuum-pol needs --k2 and/or --sweep\n")

for argv, rc in (("vacuum-pol --k2 nan", 2), ("vacuum-pol --k2 inf", 2),
                 ("self-energy --p2 1.0", 3),
                 ("self-energy --sweep p2:0:2:3", 3)):
    case("loop_bad_points", argv, rc, err=Line())

for extra in ("--z nan,0,0,0", "--z 1,0,0,inf", "--pz nan", "--dt nan",
              "--particle photon --z nan,1"):
    case("classical_non_finite_input",
         f"classical --tau-max 0.003 --dt 0.001 {extra}", 2,
         err=Line("domain error: "))

# step counts whose samples cannot be allocated are refused before any
# allocation
for extra in ("--tau-max 1 --dt 1e-300", "--tau-max 1e10 --dt 5e-324",
              "--tau-max 1e10 --dt 1e-3",
              "--particle photon --pz 1 --tau-max 1 --dt 1e-300"):
    case("classical_step_count_bound", f"classical {extra}", 2,
         err=Line("domain error: ", "memory"))

# the default --pz 0 would run a photon of zero four-momentum
for extra in ("", " --pz 0", " --pz -0.0"):
    for fmt in ("csv", "json"):
        case("classical_photon_needs_momentum",
             f"classical --particle photon {SHORT} --format {fmt}{extra}", 2,
             err=Line("domain error: ", "|k| > 0"))

for z in ("1,0,0,0", "1,0,0", "1"):
    case("classical_photon_needs_two_components",
         f"classical --particle photon --z {z} --pz 1 {SHORT}", 64,
         err=Line("2 components"))

# a photon run never reads --mass, so a given one is refused
for argv in [f"classical --particle photon --pz 1 --mass {mass} {SHORT}"
             for mass in ("5", "2", "1")] + [
        "classical --particle photon --pz 1 --mass 2"]:
    case("classical_photon_refuses_mass", argv, 64,
         err=Line("usage error: ", "--mass"))

case("classical_ends_at_or_before_tau_max",
     "classical --tau-max 0.0015 --dt 0.001", 0,
     Csv(2, TRAJECTORY, ("0.0", "0.001")))
case("classical_ends_at_or_before_tau_max",
     "classical --tau-max 0.0025 --dt 0.001", 0,
     Csv(3, TRAJECTORY, ("0.0", "0.001", "0.002")))

# an RK4 step is stable while dt times the spinor's top frequency (m for
# an electron, 2|k| for a photon) is at most 2 sqrt(2) = 2.8284271...:
# a step past it is refused before any row, one just inside it runs
for argv in ("classical --z 0.6,0.1,0.3,0.2j --pz 3 --dt 2.83",
             "classical --mass 2 --dt 1.4143 --tau-max 3",
             "classical --z 1e150,0,0,0 --tau-max 3e10 --dt 1e10",
             "classical --particle photon --z 0.6,0.8 --pz 1414.3",
             "classical --particle photon --pz -1414.3 --format json"):
    case("classical_rk4_stability_limit", argv, 2,
         err=Line("domain error: ", "--dt", "stability limit"))
for argv, rows in (("classical --z 0.6,0.1,0.3,0.2j --pz 3 --dt 2.828 "
                    "--tau-max 5.656", 3),
                   ("classical --particle photon --z 0.6,0.8 --pz 1414.2 "
                    "--tau-max 0.01", 11)):
    case("classical_rk4_stability_limit", argv, 0, Csv(rows, TRAJECTORY))

# the first step overflows, so the run stops after the initial sample,
# whose cells are finite: its one row is written, then the abort (the
# small --mass keeps the long step inside RK4's stability limit)
ABORT = ("numeric error: trajectory aborted after tau = 0.0: the state "
         "became non-finite\n")
for run in ("--z 1e150,0,0,0 --mass 1e-10 --tau-max 3e10 --dt 1e10",
            "--z 1e150,0,0,0 --dt 1e10 --mass 1e-10 --tau-max 3e10"):
    case("classical_abort_writes_rows_then_fails", f"classical {run}", 3,
         Csv(1, TRAJECTORY, same=[f"classical {run} --format json"]),
         ABORT)
    case("classical_abort_writes_rows_then_fails",
         f"classical {run} --format json", 3, Json(1), ABORT)

# a trajectory whose zbar_z or H overflows exits 3 before its first row,
# whether or not the run aborts
for key, z, bad in (("nan-H", "1e154,0,1e154,0", "H"),
                    ("inf-initial-sample", "1e308,0,0,0", "zbar_z, H")):
    for fmt in ("", "csv", "json"):
        case("classical_writes_no_non_finite_cell",
             f"classical --z {z} {SHORT}" + (f" --format {fmt}" if fmt
                                              else ""),
             3, err=f"numeric error: not finite (overflow): {bad}\n",
             key=f"{key}-{fmt}" if fmt else key)


# -- TestSubcommands ----------------------------------------------------------

case("brems_and_pairprod_rows", "brems", 0,
     Csv(1, "e_in,omega,theta_e_deg,theta_k_deg,re_M,im_M,abs2_M"))
case("brems_and_pairprod_rows", "pairprod", 0,
     Csv(1, "omega_in,e_plus,theta_p_deg,theta_m_deg,re_M,im_M,abs2_M"))
case("annihilate_row", "annihilate", 0, Csv(1, "theta_deg,pmag,"))
case("classical_short_run", "classical --tau-max 0.1 --dt 0.01", 0,
     Csv(11, TRAJECTORY))
case("selftest_passes", "selftest", 0, SELFTEST)


# -- TestTables ---------------------------------------------------------------

# a swept parameter's default adds no row off the grid
case("default_is_not_an_extra_point", "compton --sweep theta:10:20:2", 0,
     Csv(2, "theta_deg,", ("10.0", "20.0")))


# -- TestContract -------------------------------------------------------------

# every table subcommand's JSON parses
for sub in ("compton", "annihilate", "brems", "pairprod", "moller",
            "bhabha"):
    case("json_tables", f"{sub} --format json", 0, Json(1))
case("json_tables", "classical --tau-max 0.01 --format json", 0, Json(11))

# a trajectory's CSV rows are its JSON rows
for run, rows in (("classical --particle photon --pz 1 --tau-max 0.01", 11),
                  ("classical --tau-max 3", 3001)):
    case("csv_rows_equal_json_rows", run, 0,
         Csv(rows, TRAJECTORY, same=[f"{run} --format json"]))

# all levels in one pass are the rows of one --level run per level
case("energy_shift_levels", "energy-shift --spectrum three_levels.txt "
     "--k-max 5", 0, Csv(3, "level,energy,re_shift,im_shift", same=[
         f"energy-shift --spectrum three_levels.txt --k-max 5 --level {lev}"
         for lev in "abc"]), files=[("three_levels.txt", THREE_LEVELS)])

case("sweep_bounds", "compton --sweep theta:1:inf:1", 2,
     err="domain error: sweep endpoints must be finite: theta:1:inf:1\n")
case("sweep_bounds",
     "compton --sweep theta:0:1:100000000000000000000000000000", 2,
     err=Line("domain error: sweep count 10000000000000000000000000000",
              "would not fit in memory"))
# a one-point log sweep is held to the log grid's endpoint rules
case("sweep_bounds", "compton --sweep theta:-1:1:1:log", 64,
     err="usage error: log sweep endpoints must have the same sign\n")
case("sweep_bounds", "compton --sweep theta:0:10:1:log", 64,
     err="usage error: log sweep endpoints must be nonzero\n")

# a negative number in exponent form, or with a trailing dot, is a value,
# as in the --opt=value form
for argv, col0 in (("vacuum-pol --k2 -1e-3", ("-0.001",)),
                   ("vacuum-pol --k2 -5.", ("-5.0",)),
                   ("compton --theta -1e-5", ("-1e-05",)),
                   ("self-energy --p2 -2E+1", ("-20.0",)),
                   ("classical --tau-max 0.002 --pz -1e-3",
                    ("0.0", "0.001", "0.002"))):
    *words, opt, value = argv.split()
    case("negative_number_values", argv, 0,
         Csv(len(col0), col0=col0, same=[[*words, f"{opt}={value}"]]))
# -inf and -nan reach the named finiteness check
for value in ("-inf", "-nan"):
    for argv, name in ((["vacuum-pol", "--k2", value], "k2"),
                       (["vacuum-pol", f"--k2={value}"], "k2"),
                       (["classical", "--pz", value, *SHORT.split()], "pz")):
        case("negative_number_values", argv, 2,
             err=Line("domain error: ", f"{name} must be finite"))
# a --z list whose first component is negative is a value too; a word
# with an item that is no number is still an option, and an undeclared
# one exits 64
for z, rest in (("-1,0,0,0", "--tau-max 0.002"),
                ("-0.6,0.8j", "--particle photon --pz 0.5 --tau-max 0.002"),
                ("-0.6,-0.8j", "--particle photon --pz 1 --tau-max 0.002")):
    case("negative_number_values", f"classical --z {z} {rest}", 0,
         Csv(3, TRAJECTORY, same=[f"classical --z={z} {rest}"]))
for argv, message in (("classical --z -x,0", "expected one argument"),
                      ("classical --bogus", "unrecognized arguments: --bogus"),
                      ("classical --bogus -1,0", "unrecognized arguments")):
    case("negative_number_values", argv, 64,
         err=Line("usage error: ", message))

# a non-finite energy is named, not met later as a leg off its shell
for argv, name in (("compton --omega-in inf", "omega_in"),
                   ("compton --omega-in nan", "omega_in"),
                   ("annihilate --pmag inf", "pmag"),
                   ("moller --energy inf", "energy"),
                   ("bhabha --energy -inf", "energy"),
                   ("brems --e-in inf", "e_in"),
                   ("brems --omega inf", "omega"),
                   ("pairprod --omega-in inf", "omega_in"),
                   ("pairprod --e-plus inf", "e_plus")):
    case("non_finite_energy_named", argv, 2,
         err=f"domain error: {name} must be finite: {name} = "
             f"{float(argv.split()[-1]):.3e}\n")

# momenta that a builder made at a high energy are on their shell: the
# tolerance of p^2 - m^2 grows with the energy, as its rounding does
for argv, head in (("moller --energy 1e5", "energy,theta_deg,"),
                   ("annihilate --pmag 1e6", "theta_deg,pmag,"),
                   ("annihilate --pmag 1e7", "theta_deg,pmag,"),
                   ("compton --omega-in 1e7 --theta 10", "theta_deg,")):
    case("high_energy_kinematics", argv, 0, Csv(1, head))

# inputs that fail at different points of a sweep: the input checked
# first is named, at its first bad point, whatever the later ones hold
for argv, message in (
        ("compton --sweep omega_in:-1:1:3 --omega-in -1 --theta nan",
         "omega_in must exceed 0: omega_in = -1.000e+00"),
        ("annihilate --sweep pmag:1:0:3 --pmag 1 --theta inf",
         "pmag must exceed 0: pmag = 0.000e+00"),
        ("moller --sweep energy:2:0.5:3 --energy 2 --theta nan",
         "energy must exceed 1: energy = 5.000e-01"),
        ("bhabha --sweep theta:10:20:2 --theta 10 --energy 0.5",
         "energy must exceed 1: energy = 5.000e-01"),
        ("brems --sweep omega:0.5:1.5:3 --omega 0.5 --theta-e nan",
         "final electron energy must exceed 1: final electron energy = "
         "1.000e+00"),
        ("brems --sweep e_in:2:0.5:2 --e-in 2 --omega 1.2",
         "e_in must exceed 1: e_in = 5.000e-01"),
        ("pairprod --sweep e_plus:0.5:2.5:3 --e-plus 0.5 --theta-m inf",
         "e_plus must exceed 1: e_plus = 5.000e-01"),
        ("pairprod --sweep omega_in:3:2:2 --omega-in 3 --theta-p nan",
         "omega_in must exceed 2: omega_in = 2.000e+00")):
    case("first_failing_input", argv, 2, err=f"domain error: {message}\n")


# -- running a case -----------------------------------------------------------

def _rows(out: str) -> list:
    """The rows of a CSV or JSON table, each a dict of its cells' text (a
    JSON cell's repr, which is the text of a float's CSV cell)."""
    if out.startswith("{"):
        return [{k: v if isinstance(v, str) else repr(v)
                 for k, v in row.items()} for row in json.loads(out)["rows"]]
    head, *lines = out.splitlines()
    return [dict(zip(head.split(","), line.split(","))) for line in lines]


def _check_out(spec, out: str, run) -> None:
    if isinstance(spec, str):
        assert out == spec
        return
    if isinstance(spec, Json):
        doc = json.loads(out)
        assert list(doc) == ["config", "rows"]
        assert len(doc["rows"]) == spec.rows
        return
    assert out.endswith("\n"), out[-200:]
    head, *lines = out[:-1].split("\n")
    assert head.startswith(spec.head), head
    assert len(lines) == spec.rows
    cells = [line.split(",") for line in lines]
    assert all(len(c) == len(head.split(",")) for c in cells)
    if spec.col0 is not None:
        assert tuple(c[0] for c in cells) == spec.col0
    if spec.same:
        assert _rows(out) == [row for argv in spec.same
                              for row in _rows(run(_argv(argv))[1])]


def _check_err(spec, err: str) -> None:
    if isinstance(spec, str):
        assert err == spec
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert all(part in err for part in spec), (err, spec)


def check(c: Case, directory: pathlib.Path, run) -> None:
    """Write the case's fixtures into the empty directory, run the case
    there with run(argv) -> (exit code, stdout, stderr), and check what
    it gives and that it leaves no other file."""
    for name, text in c.files:
        path = directory / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
    rc, out, err = run(c.argv)
    assert rc == c.rc, (c.id, rc, err)
    _check_out(c.out, out, run)
    _check_err(c.err, err)
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        name for name, _ in c.files)


def console_script(binary: str, directory: pathlib.Path):
    """run(argv) for `check`: the console script, as a subprocess in the
    directory."""
    def run(argv):
        proc = subprocess.run([binary, *argv], cwd=directory,
                              capture_output=True, encoding="utf-8",
                              timeout=300)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def check_closed_pipe(command: list, output: str, rc: int, err: bytes):
    """Run `command classical --tau-max 40 -o output` (40001 rows), read
    the first line of its stdout and close the pipe, so that a later
    block's write meets a broken pipe; check the exit code and stderr.
    The command runs with src/ on its PYTHONPATH."""
    if not os.path.exists(output) and output != "-":
        pytest.skip(f"no {output} on this platform")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         env.get("PYTHONPATH", "")])
    with subprocess.Popen([*command, "classical", "--tau-max", "40", "-o",
                           output], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        assert (proc.wait(timeout=300), proc.stderr.read()) == (rc, err)
    assert first.startswith(b"tau,x0,")


# fqed's main, run by this interpreter
PYTHON_MAIN = [sys.executable, "-c", "from fqed.cli import main; main()"]
# (output, exit code, stderr) of a closed pipe: on stdout fqed exits 0
# with nothing on stderr, as it did when it wrote the whole table at once;
# on -o FILE it is an i/o error, exit 2
CLOSED_PIPE = [("-", 0, b""),
               ("/dev/stdout", 2, b"i/o error: [Errno 32] Broken pipe\n")]
