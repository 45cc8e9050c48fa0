import json
import math

import numpy as np
import pytest

from fqed import cli
from fqed.constants import ELECTRON_MASS_MEV


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
                     ["classical", "--alpha=-inf"],
                     ["selftest", "--mass", "nan"]):
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

    def test_selftest_passes(self, capsys):
        rc, out, _ = run_capture(capsys, ["selftest"])
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6
