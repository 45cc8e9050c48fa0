import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fqed import cli, loops
from fqed.constants import ELECTRON_MASS_MEV
from fqed.dynamics import (ElectronState, PhotonClassicalState, integrate,
                           trajectory_columns)
from fqed.fourvec import FourVector


def run_capture(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


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


class TestExitCodes:

    def test_success(self, capsys):
        rc, out, _ = run_capture(capsys, ["compton"])
        assert rc == 0
        assert out.startswith("theta_deg,")

    def test_usage_error(self, capsys):
        rc, _, err = run_capture(capsys, ["not-a-command"])
        assert rc == 64
        rc, _, _ = run_capture(capsys, [])
        assert rc == 64
        rc, _, _ = run_capture(capsys, ["compton", "--sweep", "bogus:0:1:2"])
        assert rc == 64
        for stride in ("0", "-1"):
            rc, out, err = run_capture(capsys, [
                "classical", "--tau-max", "0.01", "--dt", "0.001",
                "--stride", stride])
            assert rc == 64, stride
            assert out == ""
            assert "stride" in err

    def test_sweep_only_where_honoured(self, capsys, tmp_path):
        """Subcommands that evaluate no grid do not take --sweep."""
        spec = tmp_path / "levels.txt"
        spec.write_text("[levels]\n2p 1.0\n1s 0.625\n")
        for argv in (["classical", "--tau-max", "0.01"],
                     ["energy-shift", "--spectrum", str(spec)],
                     ["selftest"]):
            rc, out, err = run_capture(capsys, argv + ["--sweep",
                                                       "pz:0:1:3"])
            assert rc == 64, argv
            assert out == ""
            assert "--sweep" in err
            assert run_capture(capsys, argv)[0] == 0, argv
        assert run_capture(capsys, ["self-energy", "--sweep",
                                    "p2:0.1:0.9:3"])[0] == 0

    def test_domain_error(self, capsys):
        rc, _, err = run_capture(capsys, ["pairprod", "--omega-in", "1.0"])
        assert rc == 2
        assert "domain error" in err

    def test_bad_mass_or_alpha(self, capsys):
        for argv in (["vacuum-pol", "--k2", "1", "--mass", "0"],
                     ["vacuum-pol", "--k2", "1", "--mass", "-1"],
                     ["self-energy", "--mass", "nan"],
                     ["compton", "--alpha", "nan"],
                     ["compton", "--mass", "inf"],
                     ["classical", "--mass", "0"],
                     ["classical", "--mass", "1e300"],
                     ["self-energy", "--mass", "1e300"],
                     ["brems", "--alpha", "-1"],
                     ["pairprod", "--alpha", "-1"],
                     ["energy-shift", "--spectrum", "/no/file",
                      "--alpha", "inf"]):
            rc, out, err = run_capture(capsys, argv)
            assert rc == 2, argv
            assert out == ""
            assert "domain error" in err

    def test_numeric_error(self, capsys):
        rc, _, err = run_capture(capsys, ["moller", "--theta", "1e-9"])
        assert rc == 3
        assert "numeric error" in err

    def test_missing_spectrum_file(self, capsys):
        rc, _, _ = run_capture(capsys,
                               ["energy-shift", "--spectrum", "/no/file"])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        b"[levels]\n2p abc\n1s 0.625\n",
        b"[levels]\n2p 1.0\n1s 0.625\n[current 2p 1s]\n0 0 x 0 0\n",
        "[levels]\n2p 1.0\n1s 0.625 # \u00e9\n".encode("latin-1"),
        b"[levels]\n2p 1.0\n1s 0.625\n[current 2p 1s]\n"
        b"0 0 nan 0 0\n4 0 0.1 0 0\n",
    ], ids=["bad-level", "bad-current", "not-utf8", "nan-current"])
    def test_bad_spectrum_file(self, capsys, tmp_path, text):
        spec = tmp_path / "levels.txt"
        spec.write_bytes(text)
        rc, out, err = run_capture(capsys, ["energy-shift", "--spectrum",
                                            str(spec), "--k-max", "4"])
        assert rc == 2
        assert out == ""
        assert "domain error" in err

    @pytest.mark.parametrize("k_max", ["nan", "inf", "-inf", "0"])
    def test_bad_k_max(self, capsys, tmp_path, k_max):
        spec = tmp_path / "levels.txt"
        spec.write_text("[levels]\n2p 1.0\n1s 0.625\n")
        rc, out, err = run_capture(capsys, ["energy-shift", "--spectrum",
                                            str(spec), "--k-max=" + k_max])
        assert rc == 2
        assert out == ""
        assert "k_max" in err

    @pytest.mark.parametrize("argv", [["brems", "--Z", "nan"],
                                      ["pairprod", "--Z", "nan"],
                                      ["pairprod", "--Z", "inf"],
                                      ["brems", "--sweep", "omega:0.1:0.5:3",
                                       "--Z=-inf"]])
    def test_non_finite_Z(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == ""
        assert "Z must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["compton", "--alpha", "1e300"], ["annihilate", "--alpha", "1e300"],
        ["moller", "--alpha", "1e300"], ["bhabha", "--alpha", "1e300"],
        ["brems", "--Z", "1e300"], ["pairprod", "--Z", "1e300"],
        ["compton", "--alpha", "1e300", "--sweep", "theta:1:179:5",
         "--format", "json"],
        ["self-energy", "--p2", "1e300"], ["self-energy", "--p2", "1.3e154"],
        ["vacuum-pol", "--k2", "1e300", "--alpha", "1e308"]])
    # the overflow reaches stderr as the one `numeric error` line, never
    # as numpy RuntimeWarnings first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_result_exits_3(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 3
        assert out == ""
        assert "numeric error" in err and "not finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_energy_shift_exits_3(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("[levels]\nd 1.0\nb 0.7\n[current d b]\n"
                        "0.0 0.0 0.2 0.0 0.0\n5.0 0.0 0.2 0.0 0.0\n")
        rc, out, err = run_capture(capsys, [
            "energy-shift", "--spectrum", str(spec), "--k-max", "5",
            "--alpha", "1e308"])
        assert rc == 3
        assert out == ""
        assert err == ("numeric error: not finite (overflow): re_shift, "
                       "im_shift\n")

    def test_vacuum_pol_needs_point_or_sweep(self, capsys):
        rc, _, _ = run_capture(capsys, ["vacuum-pol"])
        assert rc == 64

    def test_loop_bad_points(self, capsys):
        for argv, code in ((["vacuum-pol", "--k2", "nan"], 2),
                           (["vacuum-pol", "--k2", "inf"], 2),
                           (["self-energy", "--p2", "1.0"], 3),
                           (["self-energy", "--sweep", "p2:0:2:3"], 3)):
            rc, out, err = run_capture(capsys, argv)
            assert rc == code, argv
            assert out == ""
            assert err

    def test_self_energy_zero_momentum_row(self, capsys):
        rc, out, _ = run_capture(capsys, ["self-energy", "--p2", "0.0"])
        assert rc == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert vals["re_b"] == vals["im_b"] == vals["pole_b"] == 0.0
        assert vals["pole_a"] > 0.0

    def test_classical_non_finite_input(self, capsys):
        for extra in (["--z", "nan,0,0,0"], ["--z", "1,0,0,inf"],
                      ["--pz", "nan"], ["--dt", "nan"],
                      ["--particle", "photon", "--z", "nan,1"]):
            rc, out, err = run_capture(capsys, ["classical", "--tau-max",
                                                "0.003", "--dt", "0.001"]
                                       + extra)
            assert rc == 2, extra
            assert out == ""
            assert "domain error" in err

    def test_classical_step_count_bound(self, capsys):
        # step counts whose samples cannot be allocated (1e300, an
        # overflowing span / dt, 1e13) are refused before any allocation
        for extra in (["--tau-max", "1", "--dt", "1e-300"],
                      ["--tau-max", "1e10", "--dt", "5e-324"],
                      ["--tau-max", "1e10", "--dt", "1e-3"],
                      ["--particle", "photon", "--pz", "1",
                       "--tau-max", "1", "--dt", "1e-300"]):
            rc, out, err = run_capture(capsys, ["classical"] + extra)
            assert rc == 2, extra
            assert out == ""
            assert "domain error" in err and "memory" in err

    def test_classical_photon_needs_momentum(self, capsys):
        # the default --pz 0 would run a photon of zero four-momentum
        for extra in ([], ["--pz", "0"], ["--pz", "-0.0"]):
            for fmt in ("csv", "json"):
                rc, out, err = run_capture(capsys, [
                    "classical", "--particle", "photon", "--tau-max",
                    "0.003", "--dt", "0.001", "--format", fmt] + extra)
                assert rc == 2, (extra, fmt)
                assert out == ""
                assert "domain error" in err and "|k| > 0" in err

    def test_classical_photon_needs_two_components(self, capsys):
        for z in ("1,0,0,0", "1,0,0", "1"):
            rc, out, err = run_capture(capsys, [
                "classical", "--particle", "photon", "--z", z, "--pz", "1",
                "--tau-max", "0.003", "--dt", "0.001"])
            assert rc == 64, z
            assert out == ""
            assert "2 components" in err

    def test_classical_abort_writes_rows_then_fails(self, capsys):
        # the first RK4 stage sum overflows, so the run stops after the
        # initial sample
        for fmt in ("csv", "json"):
            rc, out, err = run_capture(capsys, [
                "classical", "--z", "1e308,0,0,0", "--tau-max", "0.003",
                "--dt", "0.001", "--format", fmt])
            assert rc == 3
            assert "aborted" in err
            if fmt == "csv":
                lines = out.strip().split("\n")
                assert lines[0].startswith("tau,")
                assert len(lines) == 2
            else:
                assert '"rows"' in out


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
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {o for a in sp._actions for o in a.option_strings}
                    - {"-h", "--help"} for name, sp in sub.choices.items()}
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

    def test_default_is_not_an_extra_point(self, capsys):
        rc, out, _ = run_capture(capsys, ["compton", "--sweep",
                                          "theta:10:20:2"])
        assert rc == 0
        rows = out.strip().split("\n")[1:]
        assert [float(r.split(",")[0]) for r in rows] == [10.0, 20.0]

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


class TestWriter:
    """`_write_table` formats column by column; its bytes must be those
    of the whole-row formulas in `oracles.table_text`."""

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


class TestSubcommands:

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

    def test_brems_and_pairprod_rows(self, capsys):
        rc, out, _ = run_capture(capsys, ["brems"])
        assert rc == 0
        assert "abs2_M" in out.split("\n")[0]
        rc, out, _ = run_capture(capsys, ["pairprod"])
        assert rc == 0

    def test_annihilate_row(self, capsys):
        rc, out, _ = run_capture(capsys, ["annihilate"])
        assert rc == 0
        assert out.startswith("theta_deg,pmag,")

    def test_classical_short_run(self, capsys):
        rc, out, _ = run_capture(capsys,
                                 ["classical", "--tau-max", "0.1",
                                  "--dt", "0.01"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("tau,x0")
        assert len(lines) == 12

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

    def test_selftest_passes(self, capsys):
        rc, out, _ = run_capture(capsys, ["selftest"])
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6
