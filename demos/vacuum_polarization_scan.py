"""Scan of the subtracted vacuum-polarization function Pi_bar(k^2).

Walks the spacelike axis, through zero, and across the pair threshold
at k^2 = 4m^2 where the imaginary part opens up. Also prints the
small-k^2 slope against its closed-form alpha/(15 pi m^2) value.
"""

import math

import numpy as np

from fqed import loops
from fqed.constants import ALPHA_DEFAULT


def main():
    print(f"{'k^2/m^2':>10} {'Re Pi_bar':>16} {'Im Pi_bar':>16}")
    grid = np.concatenate([-np.geomspace(10.0, 0.01, 6),
                           [0.0],
                           np.geomspace(0.01, 3.9, 6),
                           np.linspace(4.1, 12.0, 5)])
    for k2 in grid:
        val = loops.vacuum_polarization_finite(float(k2))
        print(f"{k2:>10.4f} {val.real:>16.8e} {val.imag:>16.8e}")

    k2 = 1e-3
    slope = loops.vacuum_polarization_finite(k2).real / k2
    print(f"\nsmall-k^2 slope : {slope:.8e}")
    print(f"alpha/(15 pi)   : {ALPHA_DEFAULT / (15.0 * math.pi):.8e}")

    pole, _ = loops.vacuum_polarization_pole()
    print(f"\npole coefficient (1/eps): {pole.real:.8e}"
          f"  [2 alpha / 3 pi = {2 * ALPHA_DEFAULT / (3 * math.pi):.8e}]")


if __name__ == "__main__":
    main()
