"""Symbolic bookkeeping of box-normalization prefactors.

Amplitudes are reported "reduced": the space-time box factors V and T,
the photon-energy factors, the 2pi's of the overall delta function and
the electron-energy square roots are never given numbers. They live
here as rational exponents: the printed prefactors of the three base
topologies (Compton, bremsstrahlung, Moller), from which
fqed.processes derives each crossed process's ledger by renaming its
leg energies.

Symbols used throughout: "V", "T", "2pi", "2", "e" (electron charge),
"Z", "omega_i", "omega_f", "m", "E_i", "E_f" and the per-leg electron
energies of the four-fermion processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping


def _norm(exponents: Mapping[str, Fraction]) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in exponents.items() if Fraction(v) != 0}


@dataclass(frozen=True)
class NormalizationLedger:
    """Multiplicative record  prod_s s^exponents[s]  with rational exponents."""

    exponents: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "exponents", _norm(self.exponents))

    @classmethod
    def of(cls, **exponents) -> "NormalizationLedger":
        return cls({k: Fraction(v) for k, v in exponents.items()})

    def __str__(self):
        if not self.exponents:
            return "1"
        return " * ".join(f"{k}^{v}" for k, v in sorted(self.exponents.items()))


# -- printed final prefactors of the base topologies ----------------------
#
# The crossed processes' ledgers are these with each leg's energy symbol
# renamed through the crossing map (fqed.processes).

def compton_prefactor() -> NormalizationLedger:
    """e^2/(V T^3) sqrt(m^2/(E_f E_i)) (2 omega_f 2 omega_i)^(-1/2)."""
    return NormalizationLedger.of(
        e=2, V=-1, T=-3, m=1,
        E_i=Fraction(-1, 2), E_f=Fraction(-1, 2),
        omega_i=Fraction(-1, 2), omega_f=Fraction(-1, 2),
        **{"2": -1})


def bremsstrahlung_prefactor() -> NormalizationLedger:
    """-Z e^3/(V T^(3/2)) (2 pi) sqrt(m^2/(E_f E_i)) (2 omega_f)^(-1/2)."""
    return NormalizationLedger.of(
        Z=1, e=3, V=-1, T=Fraction(-3, 2), m=1,
        E_i=Fraction(-1, 2), E_f=Fraction(-1, 2),
        omega_f=Fraction(-1, 2),
        **{"2": Fraction(-1, 2), "2pi": 1})


def moller_prefactor() -> NormalizationLedger:
    """e^2 m^2 (VT)^(-3/2) / sqrt(E_f2 E_i2 E_f1 E_i1)."""
    return NormalizationLedger.of(
        e=2, m=2, V=Fraction(-3, 2), T=Fraction(-3, 2),
        E_i1=Fraction(-1, 2), E_i2=Fraction(-1, 2),
        E_f1=Fraction(-1, 2), E_f2=Fraction(-1, 2))
