from fractions import Fraction

import pytest

from fqed import ledger, processes

H = Fraction(-1, 2)


def test_zero_exponents_pruned():
    a = ledger.NormalizationLedger.of(V=0, e=2)
    assert "V" not in a.exponents
    assert str(a) == "e^2"


@pytest.mark.parametrize("cfg, expected", [
    (processes.compton_lab_config(1.0, 0.7),
     {"e": 2, "V": -1, "T": -3, "m": 1, "2": -1,
      "E_i": H, "E_f": H, "omega_i": H, "omega_f": H}),
    (processes.annihilation_cm_config(0.7, 1.1),
     {"e": 2, "V": -1, "T": -3, "m": 1, "2": -1,
      "E_minus": H, "E_plus": H, "omega_i": H, "omega_f": H}),
    (processes.bremsstrahlung_config(3.0, 1.0, 0.4, 0.6),
     {"Z": 1, "e": 3, "V": -1, "T": Fraction(-3, 2), "m": 1, "2": H,
      "2pi": 1, "E_i": H, "E_f": H, "omega_f": H}),
    (processes.pair_production_config(3.0, 1.5, 0.5, 0.5),
     {"Z": 1, "e": 3, "V": -1, "T": Fraction(-3, 2), "m": 1, "2": H,
      "2pi": 1, "E_minus": H, "E_plus": H, "omega_i": H}),
    (processes.moller_cm_config(1.5, 0.8),
     {"e": 2, "m": 2, "V": Fraction(-3, 2), "T": Fraction(-3, 2),
      "E_i1": H, "E_i2": H, "E_f1": H, "E_f2": H}),
    (processes.bhabha_cm_config(1.5, 0.8),
     {"e": 2, "m": 2, "V": Fraction(-3, 2), "T": Fraction(-3, 2),
      "E_i_minus": H, "E_i_plus": H, "E_f_minus": H, "E_f_plus": H}),
], ids=["compton", "annihilation", "bremsstrahlung", "pair_production",
        "moller", "bhabha"])
def test_printed_ledger(cfg, expected):
    """Each process's whole printed ledger: the base prefactor, or for a
    crossed process the base prefactor with its leg energies renamed."""
    assert processes.amplitude(cfg).ledger.exponents == expected
