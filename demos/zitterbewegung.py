"""Zitterbewegung of a rest-frame spinor superposition.

Integrates the free classical spinning-electron equations for a state
mixing the two gamma^0 eigenspaces, then reads the frequency of the
velocity's oscillation off the recurrence its steps obey. It is 2m, the
energy gap between the two internal branches.
"""

import math

import numpy as np

from fqed import dynamics as dyn
from fqed.fourvec import FourVector


def main():
    z0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    state = dyn.ElectronState(FourVector(0, 0, 0, 0),
                              FourVector(1.0, 0.0, 0.0, 0.0), z0)
    traj = dyn.integrate(state, None, (0.0, 100.0), 1e-3)

    zs, xs = dyn.exact_free_trajectory(z0, state.p, state.x, traj.tau)
    print(f"max spinor error vs exact solution: "
          f"{np.max(np.abs(traj.spinor - zs)):.3e}")
    print(f"max position error vs exact solution: "
          f"{np.max(np.abs(traj.x - xs)):.3e}")
    print(f"zbar z drift: "
          f"{np.max(np.abs(traj.zbar_z - traj.zbar_z[0])):.3e}")

    v3 = dyn.velocity(traj.spinor)[:, 3]
    print(f"\nz-velocity range: [{v3.min():+.4f}, {v3.max():+.4f}]")
    w = dyn.zitterbewegung_frequency(traj)
    print(f"dominant frequency: {w:.6f} rad per unit tau  (expected 2m)")


if __name__ == "__main__":
    main()
