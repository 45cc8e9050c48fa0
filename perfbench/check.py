"""Oracle gate: every output row against an independent reference.

The references are the oracles in `tests/oracles.py` (loaded read-only
from the checkout) plus a few closed forms kept here for outputs those
oracles do not cover. Kinematics are rebuilt here from the row's input
columns, not with the program's configuration builders.

  compton      Klein-Nishina invariant |M|^2 (tests/oracles.py)
  moller       trace-theorem |M|^2 (tests/oracles.py)
  bhabha       trace-theorem |M|^2 (tests/oracles.py)
  annihilate   closed-form e+e- -> 2 gamma |M|^2 (here)
  brems,
  pairprod     |M|^2 equals re^2 + im^2, all finite (no oracle exists)
  vacuum-pol   refined Gauss-Legendre Pi_bar (tests/oracles.py)
  self-energy  closed-form Feynman-parameter integrals (here)
  energy-shift closed-form emission width, Im Delta E (here)
  classical    exact free motion: exact_free_trajectory for electrons
               (src/fqed/dynamics.py), spectral solution for photons
  field run    exact free motion at the kinetic momentum p - eA
  selftest     exit 0 and six PASS lines

Every table's input columns must also equal the grid that was asked
for, row for row.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import math
import os

import numpy as np

from fqed.algebra import SIGMA
from fqed.constants import ALPHA_DEFAULT
from fqed.dynamics import exact_free_trajectory
from fqed.fourvec import FourVector

_EULER_GAMMA = 0.5772156649015329

# relative tolerances per oracle. The program's adaptive quadratures
# promise 1e-10. Above the pair threshold the fixed-node Pi_bar oracle
# converges only as 1/nodes^2 (log singularities at the cut points):
# at 1280 nodes it is within 2.5e-7 of its limit, hence 1e-6 there.
PI_BAR_NODES = 1280
TOL = {"tree": 1e-9, "consistency": 1e-12, "vp_below_threshold": 1e-10,
       "vp_above_threshold": 1e-6, "self-energy": 1e-8, "energy-shift": 1e-10,
       "trajectory": 1e-7, "grid": 1e-12}

TREE_KINDS = ("compton", "annihilate", "moller", "bhabha", "brems",
              "pairprod")
LOOP_KINDS = ("vacuum-pol", "self-energy", "energy-shift")


def load_test_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("fqed_test_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@contextlib.contextmanager
def cached_legendre_nodes():
    """gauss_pi_bar recomputes its Gauss-Legendre nodes on every call
    (tens of ms); reuse them while the gate runs."""
    leg = np.polynomial.legendre
    original = leg.leggauss
    leg.leggauss = functools.lru_cache(maxsize=4)(original)
    try:
        yield
    finally:
        leg.leggauss = original


def parse_table(text: str, fmt: str) -> dict:
    """Column name -> list of values (floats, or strings for labels)."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return {c: [r[c] for r in rows] for c in (rows[0] if rows else {})}
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cols = {c: [] for c in header}
    for line in lines[1:]:
        for c, v in zip(header, line.split(",")):
            try:
                cols[c].append(float(v))
            except ValueError:
                cols[c].append(v)
    return cols


def _fv(a) -> FourVector:
    return FourVector(*(float(x) for x in a))


def _mdot(a, b) -> float:
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


class _Config:
    """The two fields of a KinematicConfig the trace oracles read."""

    def __init__(self, momenta: dict, mass: float = 1.0):
        self.momenta = {k: _fv(v) for k, v in momenta.items()}
        self.mass = mass


def _cm_pair(E: float, theta: float):
    p = math.sqrt(E * E - 1.0)
    n = np.array([math.sin(theta), 0.0, math.cos(theta)])
    return (np.array([E, 0.0, 0.0, p]), np.array([E, 0.0, 0.0, -p]),
            np.array([E, *(p * n)]), np.array([E, *(-p * n)]))


def annihilation_m2(pmag: float, theta: float, alpha: float) -> float:
    """Spin-averaged, polarization-summed e+e- -> 2 gamma |M|^2."""
    E = math.sqrt(pmag * pmag + 1.0)
    p = np.array([E, 0.0, 0.0, pmag])
    n = np.array([math.sin(theta), 0.0, math.cos(theta)])
    a = _mdot(p, np.array([E, *(E * n)]))
    b = _mdot(p, np.array([E, *(-E * n)]))
    e2 = 4.0 * math.pi * alpha
    s = 1.0 / a + 1.0 / b
    return 2.0 * e2 * e2 * (b / a + a / b + 2.0 * s - s * s)


def self_energy_ab(p2: float, alpha: float) -> tuple[complex, complex]:
    """Finite scalar parts (a, b) of Omega = a + b pslash, unit mass.

    The Feynman-parameter integrals of log G, G = 1 - p2 (1 - z), done
    in closed form: with u = G, int log|u| = u log|u| - u and
    int u log|u| = u^2 log|u| / 2 - u^2 / 4; below z0 = 1 - 1/p2 the
    branch log G = log|G| - i pi adds the imaginary parts.
    """
    r = p2
    if abs(r) < 0.25:
        # the closed forms cancel to ~1e-16 / r^2 near r = 0; use the
        # series log(1 - r t) = -sum r^k t^k / k, with t = 1 - z
        ks = range(1, 60)
        i1 = complex(-sum(r ** k / (k * (k + 2)) for k in ks))
        i2 = complex(-sum(r ** k / (k * (k + 1)) for k in ks))
    else:
        def F(u):
            return u * math.log(abs(u)) - u if u != 0.0 else 0.0

        def H(u):
            return (u * u * math.log(abs(u)) / 2.0 - u * u / 4.0
                    if u != 0.0 else 0.0)

        lo = 1.0 - r
        i2 = complex((F(1.0) - F(lo)) / r)
        i1 = complex(((F(1.0) - F(lo)) - (H(1.0) - H(lo))) / (r * r))
        if r > 1.0:
            z0 = 1.0 - 1.0 / r
            i1 += -1j * math.pi * (z0 - z0 * z0 / 2.0)
            i2 += -1j * math.pi * z0
    L = math.log(4.0 * math.pi) - _EULER_GAMMA
    c = alpha / (2.0 * math.pi)
    a = c * (-(1.0 + 2.0 * i2) + 1.0 + L)
    b = c * ((0.5 + i1) + 3.0 / 8.0 - L / 4.0) if r != 0.0 else 0.0j
    return a, b


def emission_width(levels: dict, tables: dict, d: str,
                   alpha: float) -> float:
    """Im Delta E_d in closed form: the delta shells at k = |E_d - E_b|
    weighted by the linearly interpolated current contraction."""
    total = 0.0
    for (a, b), (ks, J) in tables.items():
        if d not in (a, b):
            continue
        other = b if d == a else a
        E = levels[d] - levels[other]
        j = np.array([np.interp(abs(E), ks, comp) for comp in J])
        contraction = j[0] ** 2 - j[1:] @ j[1:]
        total += 2.0 * math.pi * alpha * E * contraction
    return total


def exact_free_photon(eta0, p, taus):
    """(eta(tau), x(tau)) for free photon motion, x(0) = 0.

    eta = exp(-i sigma_slash(p) tau) eta0 on the eigenbasis of the
    Hermitian sigma_slash(p); the velocity eta^dag sigma^mu eta is a sum
    of constant and e^{i (l_j - l_k) tau} terms, integrated exactly.
    """
    S = (p[0] * SIGMA[0] - p[1] * SIGMA[1] - p[2] * SIGMA[2]
         - p[3] * SIGMA[3])
    lam, V = np.linalg.eigh(S)
    c = V.conj().T @ eta0
    ph = np.exp(-1j * np.outer(taus, lam))                  # (n, 2)
    eta = (ph * c) @ V.T
    xs = np.zeros((len(taus), 4))
    for j in range(2):
        for k in range(2):
            amp = np.array([np.conj(c[j] * V[:, j]) @ SIGMA[mu]
                            @ (c[k] * V[:, k]) for mu in range(4)])
            d = lam[j] - lam[k]
            w = taus if d == 0.0 else (np.exp(1j * d * taus) - 1.0) / (1j * d)
            xs += np.real(np.outer(w, amp))
    return eta, xs


class Gate:
    """Checks command outputs; keeps the worst agreement and the drift
    health numbers of electron trajectories."""

    def __init__(self, root: str):
        self.oracles = load_test_oracles(root)
        self.alpha = ALPHA_DEFAULT
        self.max_relerr = 0.0
        self.zbar_z_drift = 0.0
        self.H_drift = 0.0
        self.rows = {}            # kind -> rows checked
        self.failures = []        # (command label, reason)

    # -- helpers -----------------------------------------------------------

    def _fail(self, label: str, reason: str) -> bool:
        self.failures.append((label, reason))
        return False

    def _agree(self, label, what, got, want, tol, normwise=False) -> bool:
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            return self._fail(label, f"{what}: shape {got.shape} != "
                                     f"{want.shape}")
        if not np.all(np.isfinite(got)):
            return self._fail(label, f"{what}: non-finite values")
        if normwise:
            err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)),
                                                   1e-300)
        else:
            err = np.max(np.abs(got - want)
                         / np.maximum(np.abs(want), 1e-300))
        err = float(err)
        self.max_relerr = max(self.max_relerr, err)
        if err > tol:
            return self._fail(label, f"{what}: relative error {err:.3e} "
                                     f"> {tol:g}")
        return True

    def _inputs(self, cmd, cols: dict) -> bool:
        """Input columns equal the requested grid, row for row."""
        for name, want in cmd.columns.items():
            got = cols.get(name)
            if got is None or len(got) != len(want):
                return self._fail(cmd.label, f"column {name}: "
                                  f"{None if got is None else len(got)} "
                                  f"rows, asked for {len(want)}")
            if isinstance(want, list):
                if got != want:
                    return self._fail(cmd.label, f"column {name} != {want}")
                continue
            scale = max(1.0, float(np.max(np.abs(want))))
            if np.max(np.abs(np.asarray(got, dtype=float) - want)) > (
                    TOL["grid"] * scale):
                return self._fail(cmd.label, f"column {name} is not the "
                                             f"requested grid")
        return True

    # -- entry point -------------------------------------------------------

    def check(self, cmd, rc: int, out) -> bool:
        """True when the command's output passes its oracle."""
        if rc != 0:
            return self._fail(cmd.label, f"exit code {rc}")
        if cmd.kind == "field-trajectory":
            return self._field_run(cmd, out)
        if cmd.kind == "selftest":
            lines = out.strip().split("\n")
            ok = len(lines) == 6 and all(s.startswith("PASS ")
                                         for s in lines)
            return ok or self._fail(cmd.label, "selftest output: "
                                    + "; ".join(lines))
        try:
            cols = parse_table(out, cmd.fmt)
            n = len(next(iter(cols.values()), []))
            self.rows[cmd.kind] = self.rows.get(cmd.kind, 0) + n
            return self._inputs(cmd, cols) and getattr(
                self, "_" + cmd.kind.replace("-", "_"))(cmd, cols)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return self._fail(cmd.label, f"unreadable output: {exc!r}")

    # -- tree level --------------------------------------------------------

    def _compton(self, cmd, c):
        w = np.array(c["omega_in"])
        th = np.radians(c["theta_deg"])
        w2 = w / (1.0 + w * (1.0 - np.cos(th)))
        m2 = []
        for wi, ti, wf in zip(w, th, w2):
            k_i = np.array([wi, 0.0, 0.0, wi])
            k_f = wf * np.array([1.0, math.sin(ti), 0.0, math.cos(ti)])
            p_i = np.array([1.0, 0.0, 0.0, 0.0])
            p_f = p_i + k_i - k_f
            p_f[0] = math.sqrt(p_f[1:] @ p_f[1:] + 1.0)
            cfg = _Config({"p_i": p_i, "p_f": p_f, "k_i": k_i, "k_f": k_f})
            m2.append(self.oracles.compton_invariant_m2(cfg, self.alpha))
        m2 = np.array(m2)
        dsig = (w2 / w) ** 2 * m2 / (64.0 * math.pi ** 2)
        return (self._agree(cmd.label, "omega_out", c["omega_out"], w2,
                            TOL["tree"])
                and self._agree(cmd.label, "M2_spin_avg", c["M2_spin_avg"],
                                m2, TOL["tree"])
                and self._agree(cmd.label, "dsigma_dOmega",
                                c["dsigma_dOmega"], dsig, TOL["tree"]))

    def _annihilate(self, cmd, c):
        want = [annihilation_m2(p, math.radians(t), self.alpha)
                for p, t in zip(c["pmag"], c["theta_deg"])]
        return self._agree(cmd.label, "M2_spin_avg", c["M2_spin_avg"], want,
                           TOL["tree"])

    def _four_fermion(self, cmd, c, labels, oracle):
        want = []
        for E, t in zip(c["energy"], c["theta_deg"]):
            cfg = _Config(dict(zip(labels, _cm_pair(E, math.radians(t)))))
            want.append(oracle(cfg, self.alpha))
        return self._agree(cmd.label, "M2_spin_avg", c["M2_spin_avg"], want,
                           TOL["tree"])

    def _moller(self, cmd, c):
        return self._four_fermion(cmd, c, ("p_i1", "p_i2", "p_f1", "p_f2"),
                                  self.oracles.moller_trace_m2)

    def _bhabha(self, cmd, c):
        return self._four_fermion(
            cmd, c, ("p_i_minus", "p_i_plus", "p_f_minus", "p_f_plus"),
            self.oracles.bhabha_trace_m2)

    def _brems(self, cmd, c):
        re, im = np.array(c["re_M"]), np.array(c["im_M"])
        return self._agree(cmd.label, "abs2_M", c["abs2_M"], re * re + im * im,
                           TOL["consistency"])

    _pairprod = _brems

    # -- loops -------------------------------------------------------------

    def _vacuum_pol(self, cmd, c):
        ok = True
        with cached_legendre_nodes():
            for k2, re, im in zip(c["k2"], c["re_pi_bar"], c["im_pi_bar"]):
                tol = TOL["vp_below_threshold" if k2 <= 4.0
                          else "vp_above_threshold"]
                want = self.oracles.gauss_pi_bar(k2, nodes=PI_BAR_NODES)
                ok = ok and self._agree(cmd.label, f"Pi_bar({k2!r})",
                                        complex(re, im), want, tol)
        return ok

    def _self_energy(self, cmd, c):
        ab = [self_energy_ab(p2, self.alpha) for p2 in c["p2"]]
        c4 = self.alpha / (4.0 * math.pi)
        n = len(ab)
        return (self._agree(cmd.label, "a", np.array(c["re_a"])
                            + 1j * np.array(c["im_a"]), [a for a, _ in ab],
                            TOL["self-energy"])
                and self._agree(cmd.label, "b", np.array(c["re_b"])
                                + 1j * np.array(c["im_b"]),
                                [b for _, b in ab], TOL["self-energy"])
                and self._agree(cmd.label, "pole_a", c["pole_a"],
                                np.full(n, 4.0 * c4), TOL["consistency"])
                and self._agree(cmd.label, "pole_b", c["pole_b"],
                                np.full(n, -c4), TOL["consistency"]))

    def _energy_shift(self, cmd, c):
        f = cmd.facts
        want = [emission_width(f["levels"], f["tables"], d, self.alpha)
                for d in c["level"]]
        finite = np.all(np.isfinite(c["re_shift"]))
        return (finite or self._fail(cmd.label, "non-finite re_shift")) and (
            self._agree(cmd.label, "im_shift", c["im_shift"], want,
                        TOL["energy-shift"]))

    # -- trajectories ------------------------------------------------------

    def _trajectory(self, label, taus, xs, ps, zs, f, p,
                    electron: bool) -> bool:
        n = int(round(f["tau_max"] / f["dt"]))
        if len(taus) != n + 1:
            return self._fail(label, f"{len(taus)} samples, expected {n + 1}")
        if np.max(np.abs(taus - f["dt"] * np.arange(n + 1))) > (
                TOL["grid"] * max(1.0, f["tau_max"])):
            return self._fail(label, "tau column is not the step grid")
        if electron:
            want_z, want_x = exact_free_trajectory(
                f["z"], _fv(p), FourVector(0.0, 0.0, 0.0, 0.0), taus)
        else:
            want_z, want_x = exact_free_photon(f["z"], p, taus)
        tol = TOL["trajectory"]
        return (self._agree(label, "spinor", zs, want_z, tol, normwise=True)
                and self._agree(label, "x", xs, want_x, tol, normwise=True)
                and self._agree(label, "p", ps[-1], ps[0], TOL["grid"]))

    def _classical(self, cmd, c):
        f = cmd.facts
        electron = f["particle"] == "electron"
        pz = f["pz"]
        p = (np.array([math.sqrt(1.0 + pz * pz), 0.0, 0.0, pz]) if electron
             else np.array([pz, 0.0, 0.0, pz]))
        dim = 4 if electron else 2
        col = lambda name: np.asarray(c[name], dtype=float)
        zs = np.stack([col(f"re_z{i}") + 1j * col(f"im_z{i}")
                       for i in range(dim)], axis=1)
        if electron:
            # zbar_z and H are conserved by free electron motion; the
            # field run's H uses the canonical momentum and is not
            zbar_z, H = col("zbar_z"), col("H")
            self.zbar_z_drift = max(self.zbar_z_drift,
                                    float(np.max(np.abs(zbar_z - zbar_z[0]))))
            self.H_drift = max(self.H_drift, float(np.max(np.abs(H - H[0]))))
        xs = np.stack([col(f"x{i}") for i in range(4)], axis=1)
        ps = np.stack([col(f"p{i}") for i in range(4)], axis=1)
        return (self._agree(cmd.label, "p", ps[0], p, TOL["grid"])
                and self._trajectory(cmd.label, col("tau"), xs, ps, zs, f,
                                     p, electron))

    def _field_run(self, cmd, traj) -> bool:
        f = cmd.facts
        self.rows["field-trajectory"] = (
            self.rows.get("field-trajectory", 0) + len(traj.tau))
        if traj.aborted:
            return self._fail(cmd.label, "trajectory aborted")
        kinetic = f["p"] - f["charge"] * f["A"]
        return (self._agree(cmd.label, "p", traj.p[0], f["p"], TOL["grid"])
                and self._trajectory(cmd.label, traj.tau, traj.x, traj.p,
                                     traj.spinor, f, kinetic, electron=True))
