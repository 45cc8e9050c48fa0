"""Smoke test: every script in demos/ runs to the end and prints its
report; the zitterbewegung demo finds the 2m oscillation."""

import pathlib
import re
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert {p.stem for p in DEMOS} >= {
        "compton_sweep", "spontaneous_emission", "vacuum_polarization_scan",
        "zitterbewegung"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem == "zitterbewegung":
        w = float(re.search(r"dominant frequency: (\S+)", out).group(1))
        assert abs(w - 2.0) <= 0.01 * 2.0
