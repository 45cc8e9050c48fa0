"""Radiative level shift and width of a two-level toy spectrum.

The upper level couples to the lower one through a constant spatial
transition current. Its energy shift acquires a negative imaginary
part (the decay half-width), while the lower level picks up the
opposite-sign absorption term. The imaginary part is compared with
the closed form -2 pi alpha (E_d - E_b) |J|^2.
"""

import math

import numpy as np

from fqed import loops
from fqed.constants import ALPHA_DEFAULT

GAP = 0.3
J = 0.2


def main():
    # a constant current: the same J at both ends of the sampled range
    current = ([0.0, 5.0], np.array([[0.0, 0.0], [J, J], [0.0, 0.0],
                                     [0.0, 0.0]], dtype=complex))
    spec = loops.SpectrumInput({"upper": 1.0, "lower": 1.0 - GAP},
                               {("upper", "lower"): current}, 5.0)

    for label in ("upper", "lower"):
        val = loops.energy_shift(spec, label)
        print(f"{label:>6}: dE = {val.real:+.6e} {val.imag:+.6e}i")

    closed = -2.0 * math.pi * ALPHA_DEFAULT * GAP * J * J
    print(f"\nclosed-form Im dE(upper): {closed:+.6e}")
    width = -2.0 * loops.energy_shift(spec, "upper").imag
    print(f"decay width Gamma = -2 Im dE = {width:.6e}")


if __name__ == "__main__":
    main()
