from fractions import Fraction

import pytest

from fqed import ledger, processes


def test_identity_and_composition():
    a = ledger.NormalizationLedger.of(V=1, T=Fraction(1, 2))
    b = a.inverse()
    assert (a * b).is_identity()
    assert (a ** 2).exponent("V") == 2
    assert (a * ledger.NormalizationLedger.identity()) == a


def test_zero_exponents_pruned():
    a = ledger.NormalizationLedger.of(V=0, e=2)
    assert "V" not in a.exponents
    assert str(a) == "e^2"


def test_coupling_and_wave_norms():
    c = ledger.coupling()
    assert c.exponent("e") == 1
    assert c.exponent("V") == Fraction(3, 4)
    w = ledger.electron_wave_norm()
    assert w.exponent("V") == Fraction(-1, 2)
    ph = ledger.photon_wave_norm()
    assert ph.exponent("2") == Fraction(-1, 2)


def test_crossed_prefactors_swap_energies_only():
    """Crossing renames the leg energies but leaves the V, T, e and 2pi
    bookkeeping untouched."""
    c = ledger.compton_prefactor()
    a = processes.amplitude(processes.annihilation_cm_config(0.7, 1.1)).ledger
    for sym in ("V", "T", "e", "2", "m", "omega_i", "omega_f"):
        assert c.exponent(sym) == a.exponent(sym)
    assert a.exponent("E_plus") == a.exponent("E_minus") == Fraction(-1, 2)
    assert c.exponent("E_plus") == 0 and a.exponent("E_i") == 0
    b = ledger.bremsstrahlung_prefactor()
    p = processes.amplitude(
        processes.pair_production_config(3.0, 1.5, 0.5, 0.5)).ledger
    for sym in ("V", "T", "e", "Z", "2pi"):
        assert b.exponent(sym) == p.exponent(sym)
    assert p.exponent("E_plus") == p.exponent("E_minus") == Fraction(-1, 2)
    assert p.exponent("omega_i") == Fraction(-1, 2)
    assert p.exponent("omega_f") == 0


def test_ingredient_composition_does_not_close():
    """The box-normalization ingredients do not multiply out to the
    printed per-process prefactor: composing two couplings, the four
    wave-function norms, the internal-line norm and the two transverse
    vertex factors leaves V and T exponents far from the printed
    e^2/(V T^3) form. The printed prefactors are therefore attached per
    process instead of being derived; this test pins the observed gap
    so any future reconciliation is noticed."""
    composed = (ledger.coupling() ** 2
                * ledger.electron_wave_norm() ** 2
                * ledger.photon_wave_norm() ** 2
                * ledger.fermion_line_norm()
                * ledger.vertex_transverse("i")
                * ledger.vertex_transverse("f")
                * ledger.electron_energy_factor())
    printed = ledger.compton_prefactor()
    gap = composed * printed.inverse()
    assert not gap.is_identity()
    assert gap.exponent("V") == Fraction(1, 4)
    assert gap.exponent("T") == Fraction(13, 4)


def test_vertex_longitudinal_symbols():
    v = ledger.vertex_longitudinal()
    assert v.exponent("2pi") == Fraction(1, 2)
    assert v.exponent("omega_long") == Fraction(-1, 2)


def test_moller_bhabha_prefactors():
    m = ledger.moller_prefactor()
    b = processes.amplitude(processes.bhabha_cm_config(1.5, 0.8)).ledger
    assert m.exponent("V") == b.exponent("V") == Fraction(-3, 2)
    assert m.exponent("e") == 2
    for leg in ("i_minus", "f_minus", "i_plus", "f_plus"):
        assert b.exponent(f"E_{leg}") == Fraction(-1, 2)


def test_bad_vertex_label():
    with pytest.raises(ValueError):
        ledger.vertex_transverse("x")
