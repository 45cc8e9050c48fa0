import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_cases
import oracles
from fqed import cli, loops
from fqed.constants import ELECTRON_MASS_MEV
from fqed.dynamics import (ElectronState, PhotonClassicalState, integrate,
                           trajectory_columns)
from fqed.errors import DomainError, NumericError
from fqed.fourvec import FourVector


def run_capture(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_in_process(argv):
    """(exit code, stdout, stderr) of cli.run(argv), with any warning
    raised as an error: a run must report through its exit code and its
    one stderr line alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


def assert_same_runs_under_blas_kernels(argvs):
    """Each of argvs gives the same (exit code, stdout, stderr), all
    exit 0, in a child process under each OpenBLAS kernel that
    OPENBLAS_CORETYPE picks (set for the child only) as in this one."""
    want = [list(run_in_process(argv)) for argv in argvs]
    assert [rc for rc, _, _ in want] == [0] * len(argvs)
    code = ("import contextlib, io, json, sys\n"
            "from fqed import cli\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(err):\n"
            "        rc = cli.run(argv)\n"
            "    runs.append([rc, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(runs))\n")
    for kernel in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(cli_cases.ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), kernel
        assert json.loads(proc.stdout) == want, kernel


def table_test(group, each=False):
    """The test that runs one group of the cases of tests/cli_cases.py in
    process, each in an empty directory of its own: with each, one test
    item per case (its id the case's key, or argv0, argv1, ... where the
    cases have none), else one item for the whole group."""
    cases = {c.argv: c for c in cli_cases.CASES if c.group == group}
    assert cases, group

    def run(argv, directory, monkeypatch):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        cli_cases.check(cases[argv], directory, run_in_process)

    if each:
        keys = [c.key for c in cases.values()]

        @pytest.mark.parametrize("argv", list(cases),
                                 ids=keys if all(keys) else None)
        def test(self, argv, tmp_path, monkeypatch):
            run(argv, tmp_path, monkeypatch)
    else:
        def test(self, tmp_path, monkeypatch):
            for i, argv in enumerate(cases):
                run(argv, tmp_path / str(i), monkeypatch)
    test.group = group
    return test


class TestSweepParsing:

    def test_linear(self):
        name, vals = cli._parse_sweep("theta:0:90:4")
        assert name == "theta"
        assert np.allclose(vals, [0, 30, 60, 90])

    def test_log(self):
        _, vals = cli._parse_sweep("k2:0.01:1:3:log")
        assert np.allclose(vals, [0.01, 0.1, 1.0])

    def test_negative_log_keeps_sign(self):
        _, vals = cli._parse_sweep("k2:-0.01:-1:3:log")
        assert np.allclose(vals, [-0.01, -0.1, -1.0])

    def test_dash_normalized(self):
        name, _ = cli._parse_sweep("omega-in:1:2:2")
        assert name == "omega_in"

    def test_bad_specs(self):
        for spec in ("theta:0:90", "theta:a:90:4", "theta:0:90:0",
                     "theta:0:90:4:cubic", "k2:0:1:3:log",
                     "k2:-10:5:4:log"):
            with pytest.raises(cli._UsageError):
                cli._parse_sweep(spec)

    @pytest.mark.parametrize("spec", ["theta:1:inf:1", "theta:inf:inf:1",
                                      "theta:nan:5:3", "theta:1:-inf:3:log"])
    def test_non_finite_endpoints(self, capsys, spec):
        with pytest.raises(DomainError):
            cli._parse_sweep(spec)
        rc, out, err = run_capture(capsys, ["compton", "--sweep", spec])
        assert (rc, out) == (2, "")
        assert err == f"domain error: sweep endpoints must be finite: {spec}\n"

    @pytest.mark.parametrize("spec", [
        "theta:0:1:100000000000000000000000000000",
        "theta:1:2:9223372036854775807:log"])
    def test_count_beyond_memory(self, capsys, spec):
        """A grid that cannot fit in memory is refused before allocating."""
        with pytest.raises(DomainError):
            cli._parse_sweep(spec)
        rc, out, err = run_capture(capsys, ["compton", "--sweep", spec])
        assert (rc, out) == (2, "")
        assert err.startswith(f"domain error: sweep count "
                              f"{spec.split(':')[3]} would not fit in memory")


class TestExitCodes:
    """Exit codes, rows and stderr lines: each test runs its group of the
    cases of tests/cli_cases.py."""

    test_success = table_test("success")
    test_usage_error = table_test("usage_error")
    test_sweep_only_where_honoured = table_test("sweep_only_where_honoured")
    test_non_finite_angle_named = table_test("non_finite_angle_named",
                                             each=True)
    test_domain_error = table_test("domain_error")
    test_bad_mass_or_alpha = table_test("bad_mass_or_alpha")
    test_numeric_error = table_test("numeric_error")
    test_pole_guard = table_test("pole_guard", each=True)
    test_missing_spectrum_file = table_test("missing_spectrum_file")
    test_bad_spectrum_file = table_test("bad_spectrum_file", each=True)
    test_bad_k_max = table_test("bad_k_max", each=True)
    test_non_finite_Z = table_test("non_finite_Z", each=True)
    test_overflowed_result_exits_3 = table_test("overflowed_result_exits_3",
                                                each=True)
    test_overflowed_energy_shift_exits_3 = table_test(
        "overflowed_energy_shift_exits_3")
    test_vacuum_pol_needs_point_or_sweep = table_test(
        "vacuum_pol_needs_point_or_sweep")
    test_loop_bad_points = table_test("loop_bad_points")
    test_classical_non_finite_input = table_test("classical_non_finite_input")
    test_classical_step_count_bound = table_test("classical_step_count_bound")
    test_classical_photon_needs_momentum = table_test(
        "classical_photon_needs_momentum")
    test_classical_photon_needs_two_components = table_test(
        "classical_photon_needs_two_components")
    test_classical_photon_refuses_mass = table_test(
        "classical_photon_refuses_mass")
    test_classical_ends_at_or_before_tau_max = table_test(
        "classical_ends_at_or_before_tau_max")
    test_classical_abort_writes_rows_then_fails = table_test(
        "classical_abort_writes_rows_then_fails")
    test_classical_rk4_stability_limit = table_test(
        "classical_rk4_stability_limit")
    test_classical_writes_no_non_finite_cell = table_test(
        "classical_writes_no_non_finite_cell", each=True)

    def test_self_energy_zero_momentum_row(self, capsys):
        rc, out, _ = run_capture(capsys, ["self-energy", "--p2", "0.0"])
        assert rc == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert vals["re_b"] == vals["im_b"] == vals["pole_b"] == 0.0
        assert vals["pole_a"] > 0.0

    def test_finite_checks_numeric_columns_only(self):
        table = {"level": ["d", "b"], "energy": [1.0, 0.7],
                 "shift": np.array([1e-3 + 2e-4j, -1e-3j]),
                 "im_shift": [2e-4, -1e-3]}
        checked = cli._finite(table)
        assert list(checked) == list(table)
        assert checked["level"].tolist() == ["d", "b"]
        table["im_shift"] = [2e-4, math.inf]
        with pytest.raises(NumericError) as exc:
            cli._finite(table)
        assert str(exc.value) == "not finite (overflow): im_shift"

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_finite_names_bad_columns_of_any_block(self, rows):
        """Each block is tested at once, and a failing one names every
        bad column of the table, in table order: here a NaN in the last
        block and an inf in an earlier one."""
        table = {"a": np.ones(rows), "b": np.ones(rows, dtype=complex),
                 "level": ["x"] * rows, "c": np.ones(rows)}
        with mock.patch.object(cli, "_BLOCK_ROWS", 2):
            assert list(cli._finite(table)) == ["a", "b", "level", "c"]
            table["c"][-1] = math.nan
            table["b"][0] = complex(0.0, math.inf)
            with pytest.raises(NumericError) as exc:
                cli._finite(table)
        assert str(exc.value) == "not finite (overflow): b, c"


# every option each subcommand declares
OPTIONS = {
    "compton": {"--omega-in", "--theta"},
    "annihilate": {"--pmag", "--theta"},
    "brems": {"--e-in", "--omega", "--theta-e", "--theta-k", "--Z"},
    "pairprod": {"--omega-in", "--e-plus", "--theta-p", "--theta-m",
                 "--Z"},
    "moller": {"--energy", "--theta"},
    "bhabha": {"--energy", "--theta"},
    "vacuum-pol": {"--k2"},
    "self-energy": {"--p2"},
    "energy-shift": {"--spectrum", "--level", "--k-max"},
    "classical": {"--particle", "--z", "--pz", "--tau-max", "--dt",
                  "--stride"},
    "selftest": set(),
}
TABLE = {"--format", "-o", "--output"}
TREE = {"--mass", "--alpha", "--mev", "--sweep"} | TABLE
for sub in ("compton", "annihilate", "brems", "pairprod", "moller",
            "bhabha"):
    OPTIONS[sub] |= TREE
for sub in ("vacuum-pol", "self-energy"):
    OPTIONS[sub] |= {"--mass", "--alpha", "--sweep"} | TABLE
OPTIONS["energy-shift"] |= {"--alpha", "--mev"} | TABLE
OPTIONS["classical"] |= {"--mass"} | TABLE


def spectrum_file(tmp_path):
    spec = tmp_path / "levels.txt"
    spec.write_text("[levels]\n2p 1.0\n1s 0.625\n"
                    "[current 2p 1s]\n"
                    "0.0 0.0 0.2 0.0 0.0\n"
                    "4.0 0.0 0.1 0.05 0.0\n")
    return str(spec)


def subparsers() -> dict:
    """Each subcommand's parser, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def base_argv(sub, tmp_path):
    """A short, valid run of each subcommand."""
    return {"vacuum-pol": ["vacuum-pol", "--k2", "0.5"],
            "energy-shift": ["energy-shift", "--spectrum",
                             spectrum_file(tmp_path), "--k-max", "4"],
            "classical": ["classical", "--tau-max", "0.003", "--dt",
                          "0.001"]}.get(sub, [sub])


class TestOptions:
    """Each subcommand declares the options it reads, and no other."""

    def test_declared_option_sets(self):
        declared = {name: {o for a in sp._actions for o in a.option_strings}
                    - {"-h", "--help"} for name, sp in subparsers().items()}
        assert declared == OPTIONS

    @pytest.mark.parametrize("sub, extra", [
        ("vacuum-pol", ["--mev"]),
        ("self-energy", ["--mev"]),
        ("energy-shift", ["--mass", "2"]),
        ("classical", ["--alpha", "0.01"]),
        ("classical", ["--alpha=-inf"]),
        ("classical", ["--mev"]),
        ("selftest", ["--mass", "2"]),
        ("selftest", ["--mass", "nan"]),
        ("selftest", ["--alpha", "0.01"]),
        ("selftest", ["--format", "json"]),
        ("selftest", ["-o", "out.json"]),
        ("selftest", ["--mev"]),
    ])
    def test_undeclared_option_is_usage_error(self, capsys, tmp_path,
                                              monkeypatch, sub, extra):
        monkeypatch.chdir(tmp_path)
        argv = base_argv(sub, tmp_path)
        assert run_capture(capsys, argv)[0] == 0
        rc, out, err = run_capture(capsys, argv + extra)
        assert rc == 64
        assert out == ""
        assert "unrecognized arguments" in err
        assert not (tmp_path / "out.json").exists()

    def test_each_shared_option_changes_rows(self, capsys, tmp_path):
        changed = {"--mass": ["1.2"], "--alpha": ["0.01"], "--mev": [],
                   "--Z": ["2"]}
        for sub, opts in OPTIONS.items():
            argv = base_argv(sub, tmp_path)
            rc, plain, _ = run_capture(capsys, argv)
            assert rc == 0, sub
            for opt in sorted(opts & set(changed)):
                rc, out, _ = run_capture(capsys, argv + [opt] + changed[opt])
                assert rc == 0, (sub, opt)
                header, *rows = out.split("\n")
                assert header == plain.split("\n")[0], (sub, opt)
                assert rows != plain.split("\n")[1:], (sub, opt)


class TestTables:

    def test_csv_round_trip_precision(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["compton", "--theta", "37.5",
                                  "--omega-in", "1.3"])
        assert rc == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), row.split(",")))
        from fqed import processes
        cfg = processes.compton_lab_config(1.3, math.radians(37.5))
        m2 = processes.spin_summed_squared(cfg)
        assert float(vals["M2_spin_avg"]) == m2

    def test_vacuum_pol_round_trip_precision(self, capsys):
        from fqed import loops
        for k2 in (-0.37, 0.81, 3.2, 7.5):
            rc, out, _ = run_capture(capsys, ["vacuum-pol", "--k2", repr(k2)])
            assert rc == 0
            header, row = out.strip().split("\n")
            vals = dict(zip(header.split(","), row.split(",")))
            val = loops.vacuum_polarization_finite(k2)
            assert float(vals["re_pi_bar"]) == val.real
            assert float(vals["im_pi_bar"]) == val.imag

    def test_self_energy_row_matches_library(self, capsys):
        from fqed import loops
        rc, out, _ = run_capture(capsys, ["self-energy", "--p2", "2.5"])
        assert rc == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), row.split(",")))
        a, b = loops.self_energy_ab(2.5)
        assert complex(float(vals["re_a"]), float(vals["im_a"])) == a
        assert complex(float(vals["re_b"]), float(vals["im_b"])) == b

    def test_json_structure(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["vacuum-pol", "--k2", "-1.0",
                                  "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["k2"] == -1.0
        assert len(doc["rows"]) == 1
        from fqed import loops
        assert doc["rows"][0]["re_pi_bar"] == \
            loops.vacuum_polarization_finite(-1.0).real

    def test_sweep_rows_and_extra_point(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["vacuum-pol", "--k2", "0.5",
                                  "--sweep", "k2:-1:-0.1:5:log"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 5 + 1
        assert float(lines[-1].split(",")[0]) == 0.5

    test_default_is_not_an_extra_point = table_test(
        "default_is_not_an_extra_point")

    def test_deterministic_output(self, capsys):
        argv = ["moller", "--sweep", "theta:20:160:8"]
        _, a, _ = run_capture(capsys, argv)
        _, b, _ = run_capture(capsys, argv)
        assert a == b

    def test_loop_sweeps_deterministic(self, capsys):
        for argv, rows in ((["vacuum-pol", "--sweep", "k2:-10:12:23"], 23),
                           (["self-energy", "--sweep", "p2:-3:5:16"], 16)):
            _, a, _ = run_capture(capsys, argv)
            _, b, _ = run_capture(capsys, argv)
            assert a == b
            assert len(a.strip().split("\n")) == 1 + rows

    def test_threads_option_removed(self, capsys, monkeypatch):
        rc, _, err = run_capture(capsys, ["vacuum-pol", "--k2", "-1.0",
                                          "--threads", "4"])
        assert rc == 64
        assert "usage error" in err
        # the environment variable is no longer read at all
        _, plain, _ = run_capture(capsys, ["compton", "--sweep",
                                           "theta:10:20:2"])
        monkeypatch.setenv("FQED_THREADS", "lots")
        rc, out, _ = run_capture(capsys, ["compton", "--sweep",
                                          "theta:10:20:2"])
        assert rc == 0
        assert out == plain

    def test_csv_bytes_trajectory(self, capsys):
        z0 = "0.6,0.0,0.0,0.8j"
        rc, out, _ = run_capture(capsys, ["classical", "--z", z0, "--pz",
                                          "0.25", "--tau-max", "0.002",
                                          "--dt", "0.001"])
        assert rc == 0
        p = FourVector(math.sqrt(1.0 + 0.25 ** 2), 0.0, 0.0, 0.25)
        state = ElectronState(FourVector(0, 0, 0, 0), p,
                              np.array([0.6, 0.0, 0.0, 0.8j]))
        cols = trajectory_columns(integrate(state, None, (0.0, 0.002),
                                            0.001))
        header = ("tau,x0,x1,x2,x3,p0,p1,p2,p3,re_z0,im_z0,re_z1,im_z1,"
                  "re_z2,im_z2,re_z3,im_z3,zbar_z,H")
        rows = [",".join(repr(float(c[i])) for c in cols.values())
                for i in range(3)]
        assert out == "\n".join([header] + rows) + "\n"
        assert [r.split(",", 1)[0] for r in rows] == ["0.0", "0.001",
                                                      "0.002"]

    def test_csv_bytes_photon_trajectory(self, capsys):
        """A free photon along z keeps p and eta0: constant columns."""
        rc, out, _ = run_capture(capsys, ["classical", "--particle",
                                          "photon", "--z", "0.6,0.8j",
                                          "--pz", "1.5", "--tau-max",
                                          "0.003", "--dt", "0.001"])
        assert rc == 0
        state = PhotonClassicalState(FourVector(0, 0, 0, 0),
                                     FourVector(1.5, 0.0, 0.0, 1.5),
                                     np.array([0.6, 0.8j]))
        cols = trajectory_columns(integrate(state, None, (0.0, 0.003),
                                            0.001))
        header = ("tau,x0,x1,x2,x3,p0,p1,p2,p3,re_z0,im_z0,re_z1,im_z1,"
                  "zbar_z,H")
        rows = [",".join(repr(float(c[i])) for c in cols.values())
                for i in range(4)]
        assert out == "\n".join([header] + rows) + "\n"
        assert [r.split(",")[5:11] for r in rows] == [
            ["1.5", "0.0", "0.0", "1.5", "0.6", "0.0"]] * 4
        assert len({r.split(",")[11] for r in rows}) == 4

    def test_csv_bytes_energy_shift_labels(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("[levels]\n2p 1.0\n1s 0.625\n"
                        "[current 2p 1s]\n"
                        "0.0 0.0 0.2 0.0 0.0\n"
                        "4.0 0.0 0.1 0.05 0.0\n")
        rc, out, _ = run_capture(capsys, ["energy-shift", "--spectrum",
                                          str(spec), "--k-max", "4.0"])
        assert rc == 0
        table = loops.load_spectrum(str(spec), 4.0)
        shift = {lab: loops.energy_shift(table, lab) for lab in ("1s", "2p")}
        assert out == (
            "level,energy,re_shift,im_shift\n"
            f"1s,0.625,{shift['1s'].real!r},{shift['1s'].imag!r}\n"
            f"2p,1.0,{shift['2p'].real!r},{shift['2p'].imag!r}\n")

    def test_shared_parser_matches_fresh_parser(self, capsys, monkeypatch):
        """One process, one parser: no option value, default or noted
        option (`_given`) of a call reaches the next one."""
        calls = [
            (["compton", "--sweep", "theta:10:170:4"], 0),
            (["compton", "--theta", "33", "--sweep", "theta:10:170:4"], 0),
            (["compton", "--sweep", "theta:10:170:4"], 0),
            (["compton", "--bogus"], 64),
            (["compton", "--theta", "33", "--mev"], 0),
            (["compton"], 0),
            (["vacuum-pol", "--k2", "0.5", "--sweep", "k2:-1:1:3"], 0),
            (["vacuum-pol", "--sweep", "k2:-1:1:3"], 0),
            (["vacuum-pol"], 64),
            (["self-energy", "--p2", "0.3", "--format", "json"], 0),
            (["self-energy", "--sweep", "p2:0.1:0.9:3", "--format",
              "json"], 0),
            (["annihilate", "--mass", "-1"], 2),
            (["annihilate", "--sweep", "pmag:0.1:0.9:3"], 0),
            (["moller", "--energy", "3"], 0),
            (["bhabha"], 0),
            (["moller"], 0),
            (["brems", "--Z", "2", "--sweep", "omega:0.1:0.5:3"], 0),
            (["pairprod", "--sweep", "theta_p:10:50:3"], 0),
            (["classical", "--particle", "photon", "--z", "1,0", "--pz",
              "1", "--tau-max", "0.003", "--dt", "0.001"], 0),
            (["classical", "--particle", "photon", "--pz", "1",
              "--tau-max", "0.003", "--dt", "0.001"], 0),
            (["classical", "--tau-max", "0.003", "--dt", "nan"], 2),
            (["classical", "--tau-max", "0.003", "--dt", "0.001",
              "--stride", "2", "--format", "json"], 0),
            (["classical", "--tau-max", "0.003", "--dt", "0.001"], 0),
        ]
        assert cli._parser() is cli._parser()
        shared = [run_capture(capsys, argv) for argv, _ in calls]
        assert [rc for rc, _, _ in shared] == [rc for _, rc in calls]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_capture(capsys, argv) for argv, _ in calls]
        for (argv, _), a, b in zip(calls, shared, fresh):
            assert a == b, argv

    def test_mev_scaling(self, capsys):
        _, plain, _ = run_capture(capsys, ["compton"])
        _, mev, _ = run_capture(capsys, ["compton", "--mev"])
        w_plain = float(plain.strip().split("\n")[1].split(",")[1])
        w_mev = float(mev.strip().split("\n")[1].split(",")[1])
        assert np.isclose(w_mev, w_plain * ELECTRON_MASS_MEV)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        rc, out, _ = run_capture(capsys, ["compton", "-o", str(target)])
        assert rc == 0
        assert out == ""
        assert target.read_text().startswith("theta_deg,")


cell_text = st.text(alphabet=st.sampled_from('ab,%"\\\n\té€😀 '),
                    max_size=6)
# the cells of one column: floats with and without NaN and +-inf, text,
# integers, booleans
columns = st.sampled_from([st.floats(), st.floats(allow_nan=False,
                                                  allow_infinity=False),
                           cell_text, st.integers(-10 ** 6, 10 ** 6),
                           st.booleans()])


@st.composite
def signed_zeros(draw, n):
    """0.0 and -0.0 in one column: equal as floats but not in their bits,
    so not a constant column to the writer."""
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                          max_size=n))
    if n > 1:
        zeros[draw(st.integers(1, n - 1))] = -zeros[0]
    return zeros


def column(n):
    """n cells of one column: of one kind drawn from `columns`, one value
    repeated (which the JSON writer puts into its row template once), or
    mixed signed zeros."""
    constant = (st.floats() | st.sampled_from([math.nan, math.inf,
                                               -math.inf, -0.0])
                | cell_text | st.integers(-10 ** 6, 10 ** 6))
    return st.one_of(
        columns.flatmap(lambda cells: st.lists(cells, min_size=n,
                                               max_size=n)),
        constant.map(lambda x: [x] * n),
        signed_zeros(n))


@st.composite
def tables(draw):
    names = draw(st.lists(cell_text.filter(bool), min_size=1, max_size=4,
                          unique=True))
    n = draw(st.sampled_from([0, 1, 2, 5]) | st.integers(0, 50))
    return {name: draw(column(n)) for name in names}


@st.composite
def blocked_tables(draw):
    """(table, rows per block) for the writer at 1 to 3 rows a block: a
    `tables()` table, with at times a float column "nf" whose NaN and
    +-inf cells all fall in one block (whose cells `json.dumps` spells)
    while the other blocks are finite (whose cells `repr` spells)."""
    block = draw(st.sampled_from([1, 2, 3]))
    table = draw(tables())
    n = len(next(iter(table.values())))
    if n and draw(st.booleans()):
        col = draw(st.lists(st.floats(allow_nan=False,
                                      allow_infinity=False),
                            min_size=n, max_size=n))
        first = draw(st.integers(0, (n - 1) // block)) * block
        for i in range(first, min(first + block, n)):
            if draw(st.booleans()):
                col[i] = draw(st.sampled_from([math.nan, math.inf,
                                               -math.inf]))
        table["nf"] = col
    return table, block


# cells whose text a memo keyed by the float would get wrong (0.0 ==
# -0.0; NaN != NaN, of either sign), infinities, a subnormal and
# 17-digit values
REPEAT_POOL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, 0.1 + 0.2, -1 / 3, 2.718281828459045e-300)


@st.composite
def repeating_column(draw, n):
    """n cells from REPEAT_POOL in runs of equal cells, so that a long
    block's equal neighbours pass the writer's repeat fraction; at times
    one cell is any float."""
    cells = []
    while len(cells) < n:
        cells += [draw(st.sampled_from(REPEAT_POOL))] * draw(
            st.integers(1, 40))
    del cells[n:]
    if n and draw(st.booleans()):
        cells[draw(st.integers(0, n - 1))] = draw(st.floats())
    return cells


@st.composite
def repeating_tables(draw):
    """(table, rows per block): one to three repeating float columns
    beside at times a constant, a varying or a text column, at blocks
    of 20 rows more than the writer's repeat threshold; the last block
    falls on either side of that threshold."""
    block = cli._REPEAT_ROWS + 20
    n = draw(st.integers(0, 3 * block))
    table = {f"r{i}": draw(repeating_column(n))
             for i in range(draw(st.integers(1, 3)))}
    extra = draw(st.sampled_from([None, "constant", "varying", "text"]))
    if extra == "constant":
        table["c"] = [draw(st.sampled_from(REPEAT_POOL))] * n
    elif extra == "varying":
        table["v"] = draw(st.lists(st.floats(), min_size=n, max_size=n))
    elif extra == "text":
        table["t"] = draw(st.lists(cell_text, min_size=n, max_size=n))
    return table, block


# the edges of the windows in which orjson writes repr's text (|x| <
# 1e-9, and 1e-4 <= |x| < 1e16), the smallest normal and a subnormal,
# +-0.0, 2**53, the largest doubles and the non-finite cells, which
# orjson writes as null
WINDOW_EDGES = (1e-4, float(np.nextafter(1e-4, 0)),
                float(np.nextafter(1e16, 0)), 1e16, 0.0, -0.0, 5e-324,
                1e-9, float(np.nextafter(1e-9, 0)),
                float(np.nextafter(1e-9, 1)), 2.2250738585072014e-308,
                2.0 ** 53, 1.7976931348623157e308, -1.7976931348623157e308,
                math.nan, math.inf, -math.inf)
# a long column of the edges among in-window cells, most of them
# formatted by orjson; and one of the edges alone, most of them outside
EDGES_AMONG_WINDOW = [*WINDOW_EDGES, *(0.5 + i / 7 for i in range(100))]
EDGES_ALONE = list(WINDOW_EDGES) * 8


@st.composite
def binade_column(draw, n):
    """n float cells of every binade, drawn as a whole column: the raw
    64-bit patterns from one binary of 8n bytes, and one byte a cell
    that keeps the pattern or puts in its place a cell inside orjson's
    window (log-uniform, from the pattern), an edge cell (picked by the
    pattern) or one of st.floats() (from a short list). At times most
    cells are inside the window, so that most are formatted by orjson;
    at times the kinds are drawn evenly, and most cells fall outside."""
    raw = np.frombuffer(draw(st.binary(min_size=8 * n, max_size=8 * n)),
                        dtype=np.float64)
    bits = raw.view(np.uint64)
    kind = np.frombuffer(draw(st.binary(min_size=n, max_size=n)),
                         dtype=np.uint8)
    kind = np.where(draw(st.booleans()) & (kind < 192), 1, kind % 4)
    inside = np.minimum(1e-4 * 10.0 ** (20.0 * (bits >> 11) * 2.0 ** -53),
                        np.nextafter(1e16, 0))
    cells = np.where(kind == 1, np.copysign(inside, raw), raw).tolist()
    edges = (bits % len(WINDOW_EDGES)).tolist()
    floats = draw(st.lists(st.floats(), min_size=1, max_size=16))
    for j, i in enumerate(np.flatnonzero(kind >= 2).tolist()):
        cells[i] = (WINDOW_EDGES[edges[i]] if kind[i] == 2
                    else floats[j % len(floats)])
    return cells


@st.composite
def binade_tables(draw):
    """(table, rows per block): one or two float columns of cells from
    every binade (binade_column), at blocks of the writer's long-block
    threshold."""
    block = cli._REPEAT_ROWS
    n = draw(st.integers(block, 3 * block))
    return {f"b{i}": draw(binade_column(n))
            for i in range(draw(st.integers(1, 2)))}, block


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, s):
        self.calls += 1
        return super().write(s)


def check_blocks(table, block, fmt, to_file):
    """Write the table at `block` rows a block, to stdout or to -o FILE:
    its bytes must be those of the whole-row formulas, and it must go
    out in one write per block (one for an empty table)."""
    n = len(next(iter(table.values())))
    sink = _CountedWrites()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_BLOCK_ROWS", block), \
            contextlib.redirect_stdout(sink):
        target = os.path.join(tmp, "table") if to_file else "-"
        args = argparse.Namespace(format=fmt, output=target, mass=1.0)
        cli._write_table(args, table)
        got = (pathlib.Path(target).read_bytes().decode("utf-8")
               if to_file else sink.getvalue())
    assert got == oracles.table_text(cli._config(args), fmt, table)
    if not to_file:
        assert sink.calls == max(1, -(-n // block))


class TestWriter:
    """`_write_table` formats column by column within each block of
    rows; its bytes must be those of the whole-row formulas in
    `oracles.table_text`."""

    @settings(max_examples=300)
    @given(table=tables(), fmt=st.sampled_from(["csv", "json"]),
           label=cell_text)
    # every column constant: each JSON row is the bare template, whose
    # key needs its % escaped
    @example(table={"%": [0.0, 0.0]}, fmt="json", label="")
    # a constant -0.0 column in the template beside a varying one
    @example(table={"a": [-0.0, -0.0], "b": [0.0, 1.0]}, fmt="json",
             label="")
    # a constant text column: its % is escaped in the template
    @example(table={"a": ["%", "%"], "b": [0.0, 1.0]}, fmt="json",
             label="")
    def test_matches_row_formulas(self, table, fmt, label):
        args = argparse.Namespace(format=fmt, output="-", label=label,
                                  mass=1.0, sweep=None, func=None)
        want = oracles.table_text(cli._config(args), fmt, table)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._write_table(args, table)
        assert buf.getvalue() == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_bytes(self, fmt, tmp_path):
        table = {"x": [1.5, math.nan, -math.inf, 0.1], "name":
                 ['a"b', "c\\d", "é", ""], "n": [1, 2, 3, 4]}
        for rows in (0, 1, 4):
            part = {k: v[:rows] for k, v in table.items()}
            target = tmp_path / f"t{rows}.{fmt}"
            args = argparse.Namespace(format=fmt, output=str(target),
                                      mass=2.0)
            cli._write_table(args, part)
            want = oracles.table_text(cli._config(args), fmt, part)
            assert target.read_bytes() == want.encode("utf-8")


    @settings(max_examples=300)
    @given(case=blocked_tables(), fmt=st.sampled_from(["csv", "json"]),
           to_file=st.booleans())
    # a constant column across block boundaries, beside a varying one
    @example(case=({"a": [1.5] * 5, "b": [0.0, 1.0, 2.0, 3.0, 4.0]}, 2),
             fmt="json", to_file=False)
    # 0.0 and -0.0 each constant within a block, not across blocks
    @example(case=({"z": [0.0, 0.0, -0.0, -0.0, 0.0]}, 2), fmt="json",
             to_file=False)
    @example(case=({"z": [0.0, 0.0, -0.0, -0.0, 0.0]}, 2), fmt="csv",
             to_file=True)
    # NaN and -inf in the middle block only
    @example(case=({"x": [0.5, 1.5, math.nan, -math.inf, 2.5]}, 2),
             fmt="json", to_file=False)
    @example(case=({"a": []}, 1), fmt="json", to_file=True)
    @example(case=({"a": []}, 1), fmt="csv", to_file=False)
    def test_blocks_match_row_formulas(self, case, fmt, to_file):
        """Streamed in blocks of 1 to 3 rows, to stdout or to -o FILE,
        the bytes are those of the whole-row formulas, and a table goes
        out in one write per block (one for an empty table)."""
        check_blocks(*case, fmt, to_file)

    @settings(max_examples=150, deadline=None)
    @given(case=repeating_tables(), fmt=st.sampled_from(["csv", "json"]),
           to_file=st.booleans())
    # the last block one row short of the threshold, then at it
    @example(case=({"r": [0.0] * 60 + [-0.0] * 119 + [math.nan] * 40},
                   cli._REPEAT_ROWS + 20), fmt="json", to_file=False)
    @example(case=({"r": [-math.nan] * 130 + [math.inf, 5e-324] * 45},
                   cli._REPEAT_ROWS + 20), fmt="csv", to_file=True)
    def test_repeating_columns_match_row_formulas(self, case, fmt, to_file):
        """Columns of long blocks that repeat values give the bytes of
        the whole-row formulas, to stdout or to -o FILE, in one write
        per block."""
        check_blocks(*case, fmt, to_file)

    @settings(max_examples=150, deadline=None)
    @given(case=binade_tables(), fmt=st.sampled_from(["csv", "json"]),
           to_file=st.booleans())
    @example(case=({"e": EDGES_AMONG_WINDOW}, cli._REPEAT_ROWS),
             fmt="csv", to_file=False)
    @example(case=({"e": EDGES_AMONG_WINDOW}, cli._REPEAT_ROWS),
             fmt="json", to_file=False)
    @example(case=({"e": EDGES_ALONE}, cli._REPEAT_ROWS), fmt="csv",
             to_file=True)
    @example(case=({"e": EDGES_ALONE}, cli._REPEAT_ROWS), fmt="json",
             to_file=True)
    def test_long_blocks_of_every_binade_match_row_formulas(self, case, fmt,
                                                             to_file):
        """Float columns of long blocks, whose cells orjson formats and
        whose cells outside its window are spelled again, give the
        bytes of the whole-row formulas, from every binade."""
        check_blocks(*case, fmt, to_file)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_blocks_are_formatted_by_orjson(self, fmt):
        """A long block's float column of in-window cells is formatted
        by one orjson call, and the window's edges among them are
        spelled again: the bytes are those of the whole-row formulas."""
        import orjson
        table = {"e": EDGES_AMONG_WINDOW}
        with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as dumps:
            check_blocks(table, len(EDGES_AMONG_WINDOW), fmt, False)
        assert dumps.call_count == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_classical_constant_columns_spelled_once(self, capsys, fmt):
        """With the default --z, a free run's conserved zbar_z is exactly
        0.0 in every row, as the free steps sum in one order whatever
        the BLAS kernel: in each full block the writer formats it, like
        each p column, once, and no column goes through np.unique. With
        --z 0.8,0,0.6,0 (zbar_z = 0.28) the bytes are those of the
        whole-row formulas too."""
        p = FourVector(math.sqrt(1.0 + 0.8 * 0.8), 0.0, 0.0, 0.8)
        once = ["p0", "p1", "p2", "p3", "zbar_z"]
        for z in (None, "0.8,0,0.6,0"):
            argv = ["classical", "--pz", "0.8", "--tau-max", "2.048",
                    "--dt", "0.001", "--format", fmt]
            argv += [] if z is None else ["--z", z]
            with mock.patch.object(np, "unique", wraps=np.unique) as unique, \
                    mock.patch.object(cli, "_float_cells",
                                      wraps=cli._float_cells) as spelled:
                rc, out, err = run_capture(capsys, argv)
            assert (rc, err) == (0, "")
            assert unique.call_count == 0
            z0 = np.array([0.7071067811865476, 0, 0.7071067811865476, 0]
                          if z is None else [0.8, 0, 0.6, 0], dtype=complex)
            table = trajectory_columns(integrate(
                ElectronState(FourVector(0, 0, 0, 0), p, z0), None,
                (0.0, 2.048), 0.001))
            assert len(table["tau"]) == 2 * cli._BLOCK_ROWS + 1
            config = cli._config(cli._parser().parse_args(argv))
            assert out == oracles.table_text(config, fmt, table)
            if z is not None:
                continue
            assert table["zbar_z"].tobytes() == bytes(table["zbar_z"].nbytes)
            # the two full blocks' float columns, in order; the last
            # block's one row is spelled by repr
            calls = [call.args[0] for call in spelled.call_args_list]
            assert len(calls) == 2 * len(table)
            for i, name in enumerate(list(table) * 2):
                if name in once:
                    start = i // len(table) * cli._BLOCK_ROWS
                    assert calls[i].tobytes() == (
                        table[name][start:start + 1].tobytes()), name

    def test_classical_bytes_do_not_depend_on_blas_kernel(self):
        """A classical run prints the same bytes under the OpenBLAS
        kernels that OPENBLAS_CORETYPE picks (set for the child only) as
        in this process: electron with the default --z, electron with a
        complex --z (JSON), and photon."""
        assert_same_runs_under_blas_kernels(
            [["classical", "--pz", "0.8", "--tau-max", "2.048"],
             ["classical", "--z", "0.3+0.2j,0.1,-0.5j,0.7", "--pz", "-0.8",
              "--tau-max", "2.048", "--format", "json"],
             ["classical", "--particle", "photon", "--pz", "-1",
              "--tau-max", "2.048"]])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [
        cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1,
        2 * cli._BLOCK_ROWS + 1])
    def test_classical_across_blocks(self, capsys, rows, fmt):
        tau_max = (rows - 1) / 1000
        argv = ["classical", "--tau-max", repr(tau_max), "--dt", "0.001",
                "--format", fmt]
        rc, out, err = run_capture(capsys, argv)
        assert (rc, err) == (0, "")
        z0 = np.array([0.7071067811865476, 0, 0.7071067811865476, 0],
                      dtype=complex)
        state = ElectronState(FourVector(0, 0, 0, 0),
                              FourVector(1.0, 0.0, 0.0, 0.0), z0)
        table = trajectory_columns(integrate(state, None, (0.0, tau_max),
                                             0.001))
        assert len(table["tau"]) == rows
        config = cli._config(cli._parser().parse_args(argv))
        assert out == oracles.table_text(config, fmt, table)

    def test_classical_memory_is_samples_plus_a_block(self, tmp_path):
        """A trajectory's table is written holding its samples and one
        block of text, not the cells of every row: the traced peak of a
        20001-row run stays below twice its samples' bytes."""
        target = str(tmp_path / "traj.csv")
        # the layers and the parser are loaded before tracing starts
        assert cli.run(["classical", "--tau-max", "0.01", "-o", target]) == 0
        tracemalloc.start()
        try:
            rc = cli.run(["classical", "--tau-max", "20", "-o", target])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        z0 = np.array([0.7071067811865476, 0, 0.7071067811865476, 0],
                      dtype=complex)
        traj = integrate(ElectronState(FourVector(0, 0, 0, 0),
                                       FourVector(1.0, 0.0, 0.0, 0.0), z0),
                         None, (0.0, 20.0), 0.001)
        samples = sum(a.nbytes for a in (traj.tau, traj.x, traj.p,
                                         traj.spinor, traj.zbar_z, traj.H))
        assert len(traj.tau) == 20001
        assert peak < 2 * samples, (peak, samples)


class TestSubcommands:

    @pytest.mark.parametrize("entry", [(0, 0, 0), (1, 0, 3), (3, 2, 0)])
    def test_selftest_fails_on_perturbed_gamma(self, capsys, monkeypatch,
                                               entry):
        """One entry of one gamma matrix off by 1e-12: the Clifford check
        fails, and selftest exits 1 after its six lines."""
        from fqed import algebra
        gamma = algebra.GAMMA.copy()
        gamma[entry] += 1e-12
        monkeypatch.setattr(algebra, "GAMMA", gamma)
        rc, out, err = run_capture(capsys, ["selftest"])
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "FAIL clifford-algebra"
        assert len(lines) == 6

    def test_selftest_check_that_raises_fails_alone(self, capsys,
                                                    monkeypatch):
        """A check that raises prints its FAIL line, the other five still
        run and pass, and selftest exits 1."""
        from fqed import loops

        def broken(*args, **kwargs):
            raise RuntimeError("broken")
        monkeypatch.setattr(loops, "vacuum_polarization_finite", broken)
        rc, out, err = run_capture(capsys, ["selftest"])
        assert (rc, err) == (1, "")
        assert out == cli_cases.SELFTEST.replace(
            "PASS vacuum-pol-subtraction", "FAIL vacuum-pol-subtraction")

    def test_self_energy_row(self, capsys):
        rc, out, _ = run_capture(capsys, ["self-energy", "--p2", "0.5"])
        assert rc == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["im_a"]) == 0.0
        assert float(vals["pole_a"]) != 0.0

    def test_energy_shift_from_file(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("[levels]\nd 1.0\nb 0.7\n"
                        "[current d b]\n"
                        "0.0 0.0 0.2 0.0 0.0\n"
                        "5.0 0.0 0.2 0.0 0.0\n")
        rc, out, _ = run_capture(capsys,
                                 ["energy-shift", "--spectrum", str(spec),
                                  "--k-max", "5.0"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        d_row = [ln for ln in lines[1:] if ln.startswith("d,")][0]
        im = float(d_row.split(",")[3])
        assert im < 0.0

    def test_repeated_current_section(self, capsys, tmp_path):
        """A second section of one ordered pair is refused, naming the
        pair; one section per order is accepted, and each level reads
        the section of its own order."""
        head = "[levels]\nd 1.0\nb 0.7\n"
        section = ("[current {} {}]\n0.0 0.0 {} 0.0 0.0\n"
                   "5.0 0.0 0.2 0.05 0.0\n").format
        spec = tmp_path / "levels.txt"
        argv = ["energy-shift", "--spectrum", str(spec), "--k-max", "5"]

        def rows(text):
            spec.write_text(head + text)
            rc, out, err = run_capture(capsys, argv)
            return rc, out.splitlines()[1:], err

        assert rows(section("d", "b", 0.1) + section("d", "b", 0.3)) == (
            2, [], "domain error: repeated current section ('d', 'b')\n")
        rc, both, _ = rows(section("d", "b", 0.1) + section("b", "d", 0.3))
        assert rc == 0
        assert both[1] == rows(section("d", "b", 0.1))[1][1]
        assert both[0] == rows(section("b", "d", 0.3))[1][0]

    test_brems_and_pairprod_rows = table_test("brems_and_pairprod_rows")

    def test_tree_bytes_do_not_depend_on_blas_kernel(self):
        """A compton, a moller and a brems sweep print the same bytes
        under each OpenBLAS kernel as in this process: the tree path
        makes no BLAS call."""
        assert_same_runs_under_blas_kernels(
            [["compton", "--sweep", "theta:1:179:37", "--omega-in", "2.5"],
             ["moller", "--sweep", "theta:5:175:37", "--energy", "3",
              "--format", "json"],
             ["brems", "--sweep", "theta_k:5:175:37"]])

    test_annihilate_row = table_test("annihilate_row")

    test_classical_short_run = table_test("classical_short_run")

    def test_classical_stride_and_json(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["classical", "--tau-max", "0.1",
                                  "--dt", "0.01", "--stride", "5",
                                  "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["zbar_z"] == doc["rows"][2]["zbar_z"]

    def test_classical_photon(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["classical", "--particle", "photon",
                                  "--z", "1,0", "--pz", "1.0",
                                  "--tau-max", "0.1", "--dt", "0.01"])
        assert rc == 0
        last = out.strip().split("\n")[-1].split(",")
        # lightlike straight line: x0 = x3 = tau
        assert np.isclose(float(last[1]), 0.1)
        assert np.isclose(float(last[4]), 0.1)

    def test_classical_photon_along_minus_z(self, capsys):
        # a photon along -z, helicity state eta = (0, 1) moving along -z,
        # has p0 = |pz| > 0: x0 grows while x3 falls
        rc, out, _ = run_capture(capsys,
                                 ["classical", "--particle", "photon",
                                  "--z", "0,1", "--pz", "-1",
                                  "--tau-max", "0.1", "--dt", "0.01",
                                  "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["p0"] == 1.0 and rows[0]["p3"] == -1.0
        assert rows[-1]["x0"] > rows[0]["x0"]
        assert rows[-1]["x3"] < rows[0]["x3"]

    def test_classical_photon_default_components(self, capsys):
        # without --z the photon starts from the first two components of
        # the default --z, as an explicit --z with those two does
        argv = ["classical", "--particle", "photon", "--pz", "1",
                "--tau-max", "0.003", "--dt", "0.001"]
        rc, out, _ = run_capture(capsys, argv)
        assert rc == 0
        rc, explicit, _ = run_capture(capsys,
                                      argv + ["--z", "0.7071067811865476,0"])
        assert rc == 0
        assert out == explicit
        header, first = out.split("\n")[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert float(row["re_z0"]) == 0.7071067811865476
        assert float(row["re_z1"]) == 0.0 and "re_z2" not in row

    test_selftest_passes = table_test("selftest_passes")


# the values of every numeric option in the exit-code property: zero,
# signs, extremes, non-finite and ordinary numbers
# a sweep count whose grid cannot fit in memory
BIG = "100000000000000000000000000000"
NUMBERS = ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "-0.0",
           "0.5", "1", "2", "30"]
# the values of the options that take no number
WORDS = {"--format": ["csv", "json"], "--particle": ["electron", "photon"],
         "--z": ["0.6,0,0,0.8j", "0.6,0.8j", "1e308,0,0,0", "nan,0,0,0",
                 "1,2,3", "a"],
         "--stride": ["1", "3", "0", "-1", "1.5"],
         "--level": ["d", "b", "c"]}


@st.composite
def command_lines(draw, spectrum):
    """argv of one subcommand with some of its declared options (not -o,
    which would take the rows away from stdout), each `--opt=value` with
    a value from NUMBERS or WORDS; a sweep runs over one of the
    subcommand's own parameters. A classical run always gets --tau-max
    and --dt from NUMBERS: at most 60 steps, or a count refused before
    stepping."""
    number = st.sampled_from(NUMBERS)
    sub = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [sub]
    if sub == "energy-shift":
        argv.append(f"--spectrum={spectrum}")
    if sub == "classical":
        argv += [f"--tau-max={draw(number)}", f"--dt={draw(number)}"]
    params = sorted(o[2:] for o in OPTIONS[sub] - TREE - {"--Z"})
    for opt in sorted(OPTIONS[sub] - {"-o", "--output", "--spectrum",
                                      "--tau-max", "--dt"}):
        if not draw(st.booleans()):
            continue
        if opt == "--mev":
            argv.append(opt)
        elif opt == "--sweep":
            ends = ":".join(draw(number) for _ in range(2))
            argv.append(f"--sweep={draw(st.sampled_from(params))}:{ends}:"
                        f"{draw(st.sampled_from(['0', '1', '3', BIG]))}"
                        f"{draw(st.sampled_from(['', ':log']))}")
        else:
            value = draw(st.sampled_from(WORDS.get(opt, NUMBERS)))
            argv.append(f"{opt}={value}")
    return argv


@pytest.fixture(scope="module")
def two_levels(tmp_path_factory):
    return spectrum_file(tmp_path_factory.mktemp("spectrum"))


class TestExitCodeProperty:
    """Any command line of declared options exits 0, 2, 3 or 64; a
    nonzero exit writes one stderr line and no rows, except the rows a
    classical run writes before its abort (exit 3), which its stderr
    line names. Rows are streamed,
    so this holds only while every check runs before the first write."""

    @settings(max_examples=400)
    @given(data=st.data())
    def test_exit_codes(self, two_levels, data):
        argv = data.draw(command_lines(two_levels))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 2, 3, 64), (argv, rc, err)
        if rc:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            if out:
                assert argv[0] == "classical" and "aborted" in err, argv


def parse_outcome(parse, argv):
    """What parse(argv) gives: ("args", the repr of the namespace's
    attributes in order, `_given` among them; a repr, as nan != nan),
    ("usage", message) for a usage error, or ("exit", code, stdout,
    stderr) where the parser exits, as -h does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "args", repr(list(vars(parse(list(argv))).items()))
        except cli._UsageError as exc:
            return "usage", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


# command lines beyond the cases: help, top-level words, and what
# argparse does with a bare `--`, an abbreviation, a missing or refused
# value and a repeated option
PARSE_EXTRA = [[], ["-h"], ["--help"], ["-h", "compton"], ["--bogus"],
               ["nope", "--theta", "3"], ["Compton"], ["--", "compton"],
               ["compton", "--", "--theta", "3"], ["compton", "--"],
               ["compton", "--the", "30"], ["compton", "--theta"],
               ["compton", "--format", "xml"], ["compton", "compton"],
               ["compton", "--theta", "1", "--theta=2"], ["energy-shift"],
               ["classical", "--stride", "1.5"], ["selftest", "-h", "x"],
               ["vacuum-pol", "--k2", "-1", "--help"],
               ["classical", "--z", "-1,0", "--z", "-x"]] + [
    [sub, flag] for sub in OPTIONS for flag in ("-h", "--help")]
# words a drawn command line may gain, anywhere after its subcommand
PARSE_WORDS = ["--", "-h", "--bogus", "-1", "x", "--the", "--theta", "-o",
               "--format", "--z", "-1,0", "--sweep", "--mev=1", ""]


class TestParse:
    """`cli._parse` parses as the top-level parser does: the same
    namespace, `_given` included, the same usage message, or the same
    exit and help text."""

    def test_cases_and_help_parse_alike(self):
        argvs = [c.argv for c in cli_cases.CASES] + [
            cli_cases._argv(same) for c in cli_cases.CASES
            if isinstance(c.out, cli_cases.Csv) for same in c.out.same]
        for argv in argvs + PARSE_EXTRA:
            want = parse_outcome(cli._parser().parse_args, argv)
            assert parse_outcome(cli._parse, argv) == want, argv
            if argv and argv[-1] in ("-h", "--help"):
                assert want[:2] == ("exit", 0) and want[2], argv

    @settings(max_examples=400)
    @given(data=st.data())
    def test_drawn_lines_parse_alike(self, two_levels, data):
        """A drawn command line, with some of its `--opt=value` words
        split in two and some words of PARSE_WORDS put in."""
        argv = []
        for word in data.draw(command_lines(two_levels)):
            if "=" in word and data.draw(st.booleans()):
                argv += word.split("=", 1)
            else:
                argv.append(word)
        for word in data.draw(st.lists(st.sampled_from(PARSE_WORDS),
                                       max_size=3)):
            argv.insert(data.draw(st.integers(1, len(argv))), word)
        assert (parse_outcome(cli._parse, argv)
                == parse_outcome(cli._parser().parse_args, argv)), argv


class TestClosedPipe:
    """A reader that takes the first line of a 40001-row run and closes
    the pipe: the next block's write meets a broken pipe."""

    @pytest.mark.parametrize("output, rc, err", cli_cases.CLOSED_PIPE)
    def test_reader_closes_early(self, output, rc, err):
        cli_cases.check_closed_pipe(cli_cases.PYTHON_MAIN, output, rc, err)


def float_options():
    """(subcommand, option) for every float-valued option."""
    return sorted((name, a.option_strings[-1])
                  for name, sp in subparsers().items()
                  for a in sp._actions if a.type is float)


class TestContract:
    """The cases of tests/cli_cases.py that no older test carries, each
    group run in process; and the table itself."""

    test_json_tables = table_test("json_tables", each=True)
    test_csv_rows_equal_json_rows = table_test("csv_rows_equal_json_rows",
                                               each=True)
    test_energy_shift_levels = table_test("energy_shift_levels")
    test_sweep_bounds = table_test("sweep_bounds", each=True)
    test_negative_number_values = table_test("negative_number_values",
                                             each=True)
    test_non_finite_energy_named = table_test("non_finite_energy_named",
                                              each=True)
    test_first_failing_input = table_test("first_failing_input", each=True)
    test_high_energy_kinematics = table_test("high_energy_kinematics",
                                             each=True)

    def test_every_case_runs_in_process(self):
        """Each group of cases is run by exactly one test of this module,
        and no two cases share a command line."""
        bound = [f.group for cls in (TestExitCodes, TestTables,
                                     TestSubcommands, TestContract)
                 for f in vars(cls).values() if hasattr(f, "group")]
        assert sorted(bound) == sorted({c.group for c in cli_cases.CASES})
        assert len({c.argv for c in cli_cases.CASES}) == len(cli_cases.CASES)

    @settings(max_examples=300)
    @given(option=st.sampled_from(float_options()),
           x=st.floats(max_value=0.0))
    def test_separate_and_joined_values_agree(self, two_levels, option, x):
        """`--opt VALUE` and `--opt=VALUE` parse alike for every float
        option and every negative or zero VALUE as repr writes it: -1e-05
        is a value, not an option."""
        sub, opt = option
        argv = [sub, *{"vacuum-pol": ["--k2", "0.5"],
                       "energy-shift": ["--spectrum", two_levels],
                       "classical": cli_cases.SHORT.split()}.get(sub, [])]
        assert (run_in_process(argv + [opt, repr(x)])
                == run_in_process(argv + [f"{opt}={x!r}"]))
