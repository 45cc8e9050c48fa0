"""Smoke test: every script in demos/ runs to the end and prints its
report; the zitterbewegung demo prints the 2m oscillation to its six
decimals, and the vacuum-polarization scan prints the 2 alpha/3 pi pole
coefficient.
Every python example of README.md runs too."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```\n",
                      README.read_text(encoding="utf-8"), re.M | re.S)


def test_demos_found():
    assert {p.stem for p in DEMOS} >= {
        "compton_sweep", "spontaneous_emission", "vacuum_polarization_scan",
        "zitterbewegung"}


def test_readme_examples_found():
    # the library example and the loops example
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem == "zitterbewegung":
        # the step map's frequency, 2 - 1.7e-14, to the printed digits
        assert re.search(r"dominant frequency: (\S+)", out).group(1) == (
            "2.000000")
    if path.stem == "vacuum_polarization_scan":
        pole, ref = re.search(r"pole coefficient \(1/eps\): (\S+)"
                              r"\s+\[2 alpha / 3 pi = (\S+)\]", out).groups()
        assert pole == ref


@pytest.mark.parametrize("code", EXAMPLES,
                         ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
