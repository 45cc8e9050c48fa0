"""Every case of tests/cli_cases.py, run through the `fqed` console script
that FQED_BIN names, each as a subprocess in an empty directory; and the
closed pipe through it. Skipped where FQED_BIN is unset:

    python -m pip install -e . --no-build-isolation
    FQED_BIN="$(command -v fqed)" python -m pytest -q tests/test_cli_contract.py

tests/test_cli.py runs the same cases in process.
"""

import os

import pytest

import cli_cases

FQED_BIN = os.environ.get("FQED_BIN")

pytestmark = pytest.mark.skipif(not FQED_BIN,
                                reason="FQED_BIN names no console script")


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda c: c.id)
def test_console_script(case, tmp_path):
    cli_cases.check(case, tmp_path,
                    cli_cases.console_script(FQED_BIN, tmp_path))


@pytest.mark.parametrize("output, rc, err", cli_cases.CLOSED_PIPE)
def test_closed_pipe(output, rc, err):
    cli_cases.check_closed_pipe([FQED_BIN], output, rc, err)
