"""Reduced tree-level matrix elements for the six radiative processes.

Conventions
-----------
* Reported values are invariant matrix elements: the (2pi)^4 delta^4 and
  all box factors are stripped into the NormalizationLedger attached to
  each result. Spinors are relativistically normalized internally
  (u-bar u = 2m); the box-normalization energy square roots live in
  the ledger, not in the number.
* The electromagnetic coupling enters as e = sqrt(4 pi alpha); the
  Compton-class values carry e^2, the external-Coulomb processes carry
  Z e^3 together with the static 1/|q|^2 kernel.
* Photon vertices use transverse polarization four-vectors (the
  eps-slash form of the final matrix elements).

Batches and helicities
----------------------
A KinematicConfig holds one point (FourVector legs) or N points ((N, 4)
array legs). Evaluation validates all legs at once (fourvec.on_shell
scales the mass-shell tolerance with the energy), then makes one stacked
leg pass: one build of every spinor (a v spinor is the u spinor with its
halves swapped) and one of every photon's polarization vectors.
Two kernels contract them with einsum into every helicity amplitude of
every point: `_line`, the fermion line with two vertices, serves the
Compton topology and bremsstrahlung, whose static Coulomb vertex
gamma^0 is a one-slot absorbed photon, and `_four_fermion_core` the
Moller topology. `amplitude` returns them all: one slot axis per leg,
slot 0 spin up (the spinor built on chi_up, as in states.dirac_spinors)
or helicity plus, slot 1 spin down or helicity minus. slot0_amplitude
returns slot 0 of every leg alone (the amplitude the brems and pairprod
commands print): it cuts every spinor and polarization vector to slot 0
before the same kernels contract them, so it builds one amplitude per
point, not every one. One point is a batch of one through the same
code, without the batch axis. A 2->2 spin sum builds no amplitude:
spin_summed_squared is the closed form of the Compton or Moller
topology, through the same crossing plans.

Crossing
--------
Each process declares its legs once, in _LEGS: label -> (particle,
side), with particle e-, e+ or photon and side in or out. Every process
is evaluated on one of three base topologies (Compton, bremsstrahlung,
Moller) through a map from base leg labels to the process's own: the
identity for a base process, its entry in _CROSSINGS for annihilation,
pair production and Bhabha scattering. The rest follows from the two
processes' legs, and _plan derives it once per process, at import,
into _PLANS. A leg's momentum enters the internal lines with sign -1
exactly when the leg changes side. A fermion takes a v spinor exactly
when its target leg is a positron, and it keeps its end of the fermion
line (an incoming e- and an outgoing e+ are the spinor end). Emitted
photons enter with the conjugated polarization vector; external
spinors are built at the physical positive-energy momentum. The
crossed ledger is the base ledger with each leg's energy symbol
renamed through the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ledger as _ledger
from .algebra import GAMMA, slash
from .constants import ALPHA_DEFAULT
from .errors import DomainError, check_mass, reject
from .fourvec import (METRIC_DIAG, SHELL_TOL, FourVector, _components,
                      minkowski_dot, on_shell)
from .propagators import (coulomb_line, fermion_denominator, fermion_line,
                          photon_line)
from .states import _u_spinors, _V_ORDER, polarization_vectors

# each process's external legs, label -> (particle, side); every other
# per-leg fact (labels, conservation sides, emitted photons, positrons,
# crossing signs and spinor kinds) is derived from this
_LEGS = {
    "compton": {"p_i": ("e-", "in"), "k_i": ("photon", "in"),
                "p_f": ("e-", "out"), "k_f": ("photon", "out")},
    "annihilation": {"p_minus": ("e-", "in"), "p_plus": ("e+", "in"),
                     "k_i": ("photon", "out"), "k_f": ("photon", "out")},
    "bremsstrahlung": {"p_i": ("e-", "in"), "p_f": ("e-", "out"),
                       "k_f": ("photon", "out")},
    "pair_production": {"k_i": ("photon", "in"), "p_minus": ("e-", "out"),
                        "p_plus": ("e+", "out")},
    "moller": {"p_i1": ("e-", "in"), "p_i2": ("e-", "in"),
               "p_f1": ("e-", "out"), "p_f2": ("e-", "out")},
    "bhabha": {"p_i_minus": ("e-", "in"), "p_i_plus": ("e+", "in"),
               "p_f_minus": ("e-", "out"), "p_f_plus": ("e+", "out")},
}
PROCESS_IDS = tuple(_LEGS)


@lru_cache(maxsize=None)
def _labels(process: str, particle=None, side=None) -> tuple:
    """process's leg labels, of one particle or side if given."""
    return tuple(lab for lab, (part, s) in _LEGS[process].items()
                 if particle in (None, part) and side in (None, s))


# the order validate stacks legs in: the fermions, e- first, the photons
_ORDER = {process: _labels(process, "e-") + _labels(process, "e+")
          + _labels(process, "photon") for process in _LEGS}
# the legs at the spinor end of a fermion line (the other end is barred)
_SPINOR_END = (("e-", "in"), ("e+", "out"))
# the external-Coulomb processes conserve energy only
_ENERGY_ONLY = ("bremsstrahlung", "pair_production")
# helicity axes of the base topologies' amplitude arrays; a crossed
# process has its base's axes renamed by its crossing map (its _Plan)
_AXES = {
    "compton": ("p_f", "p_i", "k_i", "k_f"),
    "bremsstrahlung": ("p_f", "p_i", "k_f"),
    "moller": ("p_f2", "p_i2", "p_f1", "p_i1"),
}
_G0_DIAG = np.array([1.0, 1.0, -1.0, -1.0])     # gamma^0 is diagonal


@dataclass(frozen=True)
class KinematicConfig:
    """External kinematics of one process evaluation, or of N at once.

    momenta is keyed by leg label: a FourVector per leg for one point,
    or an (N, 4) array of contravariant components per leg for N points.
    It fixes no helicity: amplitude returns every helicity amplitude,
    and spin_summed_squared sums over all of them in closed form.
    """

    process: str
    momenta: dict
    Z: float = 1.0
    mass: float = 1.0

    def _is_point(self) -> bool:
        return all(isinstance(v, FourVector) or np.ndim(v) == 1
                   for v in self.momenta.values())

    def validate(self) -> dict[str, np.ndarray]:
        """Check exactly the process's legs, a finite Z, on-shell
        fermions with p0 > 0, lightlike photons with |k| > 0 (both by
        fourvec.on_shell) and conservation at every point at once;
        returns every leg as an (N, 4) array (N = 1 for one point)."""
        legs = self._legs()
        if not np.isfinite(self.Z).all():
            raise DomainError(f"Z must be finite, got {self.Z!r}")
        check_mass(self.mass)
        order = _ORDER[self.process]
        nf = len(order) - len(_labels(self.process, "photon"))
        dev = minkowski_dot(legs, legs)     # k^2 of the photons, and
        dev[:nf] -= self.mass * self.mass   # p^2 - m^2 of the fermions
        p0 = legs[..., 0]
        shell = on_shell(dev, self.mass, p0)
        kmag = np.sqrt(np.add.reduce(legs[nf:, ..., 1:] ** 2, -1))
        mom = dict(zip(order, legs))
        res = _residual(self.process, mom)
        res = np.sqrt(np.add.reduce(res * res, -1))
        what = "energy" if self.process in _ENERGY_ONLY else "4-momentum"
        # each check once, in the order they are reported: where it
        # holds, its message, its values and the legs they run over
        checks = (
            (shell[:nf], "off shell: p^2 - m^2", dev[:nf], order),
            (p0[:nf] > 0, "needs p0 > 0, p0", p0[:nf], order),
            (shell[nf:], "not lightlike: k^2", dev[nf:], order[nf:]),
            (kmag > 0, "needs |k| > 0, |k|", kmag, order[nf:]),
            # in units of the largest of m and the point's leg energies
            (res < SHELL_TOL * p0.max(0, initial=self.mass),
             f"{what} not conserved, |residual|", res, ()))
        # one test of every point of every check; the first failure is
        # found, and named, only when one fails
        if not np.concatenate([ok for ok, *_ in checks], axis=None).all():
            for ok, message, values, labels in checks:
                reject(~ok, message, values, labels)
        return mom

    def conservation_residual(self):
        """Incoming minus outgoing four-momentum (energy only for the
        external-Coulomb processes): a FourVector, or (N, 4) array."""
        mom = dict(zip(_ORDER.get(self.process, ()), self._legs()))
        res = _residual(self.process, mom)
        return FourVector.from_array(res[0]) if self._is_point() else res

    def _legs(self) -> np.ndarray:
        """Every leg, in _ORDER, stacked into one (L, N, 4) array."""
        if self.process not in _LEGS:
            raise DomainError(f"unknown process: {self.process}")
        expected = _LEGS[self.process]
        if self.momenta.keys() != expected.keys():
            raise DomainError(
                f"{self.process} needs the legs {', '.join(expected)}; "
                f"got {', '.join(self.momenta) or 'none'}")
        legs = [np.atleast_2d(_components(self.momenta[lab]))
                for lab in _ORDER[self.process]]
        if any(leg.shape != legs[0].shape for leg in legs):
            legs = np.broadcast_arrays(*legs)
        return np.array(legs, dtype=float)


def _residual(process: str, mom: dict) -> np.ndarray:
    res = (sum(mom[lab] for lab in _labels(process, side="in"))
           - sum(mom[lab] for lab in _labels(process, side="out")))
    if process in _ENERGY_ONLY:
        res[:, 1:] = 0.0
    return res


@dataclass(frozen=True)
class ReducedAmplitude:
    value: np.ndarray       # axes (N, 2, ..., 2), without N for one point
    ledger: _ledger.NormalizationLedger
    axes: tuple             # the leg label of each slot axis of value


# -- core topologies -----------------------------------------------------
#
# Each core returns a value per helicity slot of every point; the axes are
# the points, then the spin or helicity slots of its arguments in order.

def _line(bar_out, u_in, a, e, s1, s2) -> np.ndarray:
    """bar_out [e s1 a + a s2 e] u_in, axes (N, out, in, a, e): the
    fermion line with two vertices, shared by the Compton and the
    bremsstrahlung topologies. a and e are the slashed vertices, each
    (N, slots, 4, 4); s1 and s2 are the internal fermion lines of the
    terms where a and where e meets u_in first."""
    bar_e = np.einsum("noi,neij->noej", bar_out, e)
    bar_a = np.einsum("noi,naij->noaj", bar_out, a)
    a_u = np.einsum("naij,nmj->nmai", a, u_in)
    e_u = np.einsum("neij,nmj->nmei", e, u_in)
    return (np.einsum("noej,njk,nmak->nomae", bar_e, s1, a_u)
            + np.einsum("noaj,njk,nmek->nomae", bar_a, s2, e_u))


def _four_fermion_core(bar_1, u_1, bar_2, u_2, q_direct, q_exchange,
                       mass: float, e2: float) -> np.ndarray:
    """[ (bar_1 G u_1).(bar_2 G u_2)/q_d^2
         - (bar_2 G u_1).(bar_1 G u_2)/q_e^2 ] * (-i e^2),
    G = gamma^mu, Minkowski-contracted currents."""
    q2 = photon_line(np.stack([q_direct, q_exchange]), mass)
    t, u = q2[:, :, None, None, None, None]
    # direct and exchange through the same contraction, so that relabeling
    # the two outgoing fermions swaps the two terms exactly
    currents = lambda bar, ket: np.einsum("nai,mij,nbj->nabm", bar, GAMMA,
                                          ket)
    dot = lambda j, k: np.einsum("nabm,ncdm->nabcd", j * METRIC_DIAG, k)
    direct = dot(currents(bar_1, u_1), currents(bar_2, u_2))
    exchange = dot(currents(bar_2, u_1), currents(bar_1, u_2))
    return -1j * e2 * (direct / t - exchange.transpose(0, 3, 2, 1, 4) / u)


# -- crossing --------------------------------------------------------------

# each crossed process: its base topology and the map of the base's leg
# labels onto its own; a base process is evaluated through the identity
_CROSSINGS = {
    "annihilation": ("compton", {"k_f": "k_f", "k_i": "k_i",
                                 "p_f": "p_plus", "p_i": "p_minus"}),
    "pair_production": ("bremsstrahlung", {"k_f": "k_i", "p_f": "p_minus",
                                           "p_i": "p_plus"}),
    "bhabha": ("moller", {"p_i1": "p_i_minus", "p_f1": "p_f_minus",
                          "p_i2": "p_f_plus", "p_f2": "p_i_plus"}),
}


class _Plan(NamedTuple):
    """How a process is evaluated on its base topology."""

    base: str
    axes: tuple             # its labels, in the base's axis order
    nf: int                 # the fermion count
    sign: np.ndarray        # each leg's sign on the internal lines
    positrons: list         # the v spinor rows
    emitted: np.ndarray     # which photons are emitted
    ledger: _ledger.NormalizationLedger


def _energy(label: str) -> str:
    """The ledger symbol of a leg's energy: E_x for p_x, omega_x for k_x."""
    return ("E" if label[0] == "p" else "omega") + label[1:]


def _plan(target: str, base: str, legs: dict) -> _Plan:
    """target's plan on base's topology under legs, a map of the base's
    leg labels onto target's. It must map them one to one, photons onto
    photons, and keep every fermion at its end of the line. The ledger is
    the base's with each leg's energy symbol renamed through legs."""
    base_legs, target_legs = _LEGS[base], _LEGS[target]
    if (legs.keys() != base_legs.keys()
            or sorted(legs.values()) != sorted(target_legs)):
        raise DomainError(
            f"table {legs} does not map the {base} legs one "
            f"to one onto the {target} legs {sorted(target_legs)}")
    for base_lab, lab in legs.items():
        b, t = base_legs[base_lab], target_legs[lab]
        if (b[0] == "photon") != (t[0] == "photon"):
            raise DomainError(
                f"{base_lab} -> {lab} mixes photon/fermion legs")
        if b[0] != "photon" and (b in _SPINOR_END) != (t in _SPINOR_END):
            raise DomainError(
                f"{base_lab} -> {lab} moves a fermion to the other end "
                f"of its line")
    kinds = [(base_legs[b], target_legs[legs[b]]) for b in _AXES[base]]
    nf = sum(b[0] != "photon" for b, _ in kinds)
    sign = np.array([1.0 if b[1] == t[1] else -1.0 for b, t in kinds])
    emitted = np.array([t[1] == "out" for _, t in kinds[nf:]])
    prefactor = {"compton": _ledger.compton_prefactor,
                 "bremsstrahlung": _ledger.bremsstrahlung_prefactor,
                 "moller": _ledger.moller_prefactor}[base]()
    rename = {_energy(b): _energy(t) for b, t in legs.items()}
    return _Plan(
        base, tuple(legs[b] for b in _AXES[base]), nf, sign[:, None, None],
        [i for i, (_, t) in enumerate(kinds) if t[0] == "e+"],
        emitted[:, None, None, None],
        _ledger.NormalizationLedger(
            {rename.get(s, s): v for s, v in prefactor.exponents.items()}))


# every process's plan, built and checked once, here
_PLANS = {process: _plan(process, *_CROSSINGS.get(
              process, (process, {lab: lab for lab in _LEGS[process]})))
          for process in _LEGS}


# -- evaluation ------------------------------------------------------------

def _evaluate(plan: _Plan, cfg: KinematicConfig, mom: dict, alpha: float,
              slots: slice = slice(None)) -> np.ndarray:
    """The helicity amplitudes of the plan's base topology on the legs
    mom (validated), in one stacked pass over the legs; axes
    (N, *plan.axes), each leg's slots selected by slots before any
    contraction (every slot by default)."""
    m = cfg.mass
    e2 = 4.0 * math.pi * alpha
    nf = plan.nf
    p = np.array([mom[lab] for lab in plan.axes])
    q = p * plan.sign               # the momenta on the internal lines
    # every spinor (u-bar u = +-2m); the barred leg leads each pair
    u = np.sqrt(2.0 * p[:nf, ..., 0])[..., None, None] * _u_spinors(p[:nf], m)
    if plan.positrons:
        u[plan.positrons] = u[plan.positrons][..., _V_ORDER]
    u = u[..., slots, :]
    bar, u = u[::2].conj() * _G0_DIAG, u[1::2]
    if nf < len(p):
        # the target's side decides: emitted legs enter conjugated
        eps = polarization_vectors(p[nf:])[..., slots, :]
        np.conjugate(eps, out=eps, where=plan.emitted)
    if plan.base == "compton":
        # -i e^2 bar [eps_em 1/(p+k_abs-m) eps_abs + eps_abs 1/(p-k_em-m)
        # eps_em] u
        s1, s2 = fermion_line(np.stack([q[1] + q[2], q[1] - q[3]]), m)
        return -1j * e2 * _line(bar[0], u[0], slash(eps[0]), slash(eps[1]),
                                s1, s2)
    if plan.base == "bremsstrahlung":
        # -i (-Z e^3/|q|^2) bar [eps 1/(p_out+k-m) g0 + g0 1/(p_in-k-m) eps]
        # u, g0 a one-slot absorbed photon, q the spatial k + p_out - p_in
        p_out, p_in, k = q
        q2 = coulomb_line((k + p_out - p_in)[:, 1:], m)
        s1, s2 = fermion_line(np.stack([p_out + k, p_in - k]), m)
        e3 = e2 * math.sqrt(e2)     # first: the order sets the last bits
        return (-1j * (-cfg.Z) * e3 / q2)[:, None, None, None] * _line(
            bar[0], u[0], GAMMA[:1, None], slash(eps[0]), s1, s2)[:, :, :, 0]
    return _four_fermion_core(bar[0], u[0], bar[1], u[1], q[3] - q[2],
                              q[3] - q[0], m, e2)


def amplitude(cfg: KinematicConfig,
              alpha: float = ALPHA_DEFAULT) -> ReducedAmplitude:
    """Every reduced helicity amplitude of cfg, with its ledger: one slot
    axis per leg, named in axes (slot 0 spin up or helicity plus, slot 1
    spin down or helicity minus), after the N axis of N points."""
    mom = cfg.validate()
    plan = _PLANS[cfg.process]
    value = _evaluate(plan, cfg, mom, alpha)
    return ReducedAmplitude(value[0] if cfg._is_point() else value,
                            plan.ledger, plan.axes)


def slot0_amplitude(cfg: KinematicConfig, alpha: float = ALPHA_DEFAULT):
    """amplitude's value with every leg at slot 0 (spin up or helicity
    plus), through the same kernels on that slot alone: an (N,) array,
    or a complex scalar for one point."""
    mom = cfg.validate()
    value = _evaluate(_PLANS[cfg.process], cfg, mom, alpha, slice(1))
    value = value.reshape(len(value))
    return value[0] if cfg._is_point() else value


# the per-process names of the direct evaluation
compton_amplitude = pair_annihilation_amplitude = amplitude
bremsstrahlung_amplitude = pair_production_amplitude = amplitude
electron_electron_amplitude = electron_positron_amplitude = amplitude


# -- spin and polarization sums --------------------------------------------

def spin_summed_squared(cfg: KinematicConfig,
                        alpha: float = ALPHA_DEFAULT):
    """(1/4) sum over all spin and polarization labels of |M|^2: the
    closed form of the base topology (Klein-Nishina, Peskin & Schroeder
    5.87; Moller, Berestetskii, Lifshitz and Pitaevskii section 81) on
    the plan's signed legs q, times the crossing sign (the product of
    the fermions' signs). The internal lines refuse their poles as the
    amplitude's do. 2->2 processes only; a float for one point, an (N,)
    array for N points."""
    plan = _PLANS.get(cfg.process)
    if plan is None or plan.base == "bremsstrahlung":
        raise DomainError(
            f"spin_summed_squared needs a 2->2 process, got {cfg.process}")
    mom = cfg.validate()
    m2, e2 = cfg.mass * cfg.mass, 4.0 * math.pi * alpha
    q = np.array([mom[lab] for lab in plan.axes]) * plan.sign
    if plan.base == "compton":
        _, q_pi, q_ki, q_kf = q
        fermion_denominator(np.stack([q_pi + q_ki, q_pi - q_kf]), cfg.mass)
        a, b = minkowski_dot(q_pi, q_ki), minkowski_dot(q_pi, q_kf)
        d = 1.0 / a - 1.0 / b
        total = b / a + a / b + 2.0 * m2 * d + m2 * m2 * d * d
    else:
        f2, i2, f1, i1 = q
        t, u = photon_line(np.stack([i1 - f1, i1 - f2]), cfg.mass)
        s = minkowski_dot(i1 + i2, i1 + i2)
        total = ((s * s + u * u + 8.0 * m2 * (t - m2)) / (t * t)
                 + (s * s + t * t + 8.0 * m2 * (u - m2)) / (u * u)
                 + 2.0 * (s - 2.0 * m2) * (s - 6.0 * m2) / (t * u))
    total *= 2.0 * (e2 * e2) * plan.sign[:plan.nf].prod()
    return float(total[0]) if cfg._is_point() else total


# -- kinematics builders ---------------------------------------------------
#
# Every builder takes scalars or arrays (broadcast together): scalars give
# a one-point config with FourVector legs, arrays an N-point config.

def _guard(mass, *inputs, **angles) -> None:
    """Reject the mass first, as the other bounds depend on it, then the
    first bad one of a builder's inputs at its first bad point: inputs
    are (name, value, low), each to be finite and above low, in the order
    they are checked; the angles follow, by name, each only to be
    finite. The inputs, broadcast together, are tested in one pass; only
    when that fails is the same array walked, input by input, for the
    first non-finite value, then the first at or below its bound."""
    check_mass(mass)
    inputs += tuple((name, v, -math.inf) for name, v in angles.items())
    values = [v for _, v, _ in inputs]
    a = np.empty(np.broadcast(*values).shape + (len(values),))
    for i, v in enumerate(values):
        a[..., i] = v
    if not (np.isfinite(a) & (a > [low for _, _, low in inputs])).all():
        for (name, _, low), v in zip(inputs, np.moveaxis(a, -1, 0)):
            reject(~np.isfinite(v), f"{name} must be finite: {name}", v)
            reject(~(v > low), f"{name} must exceed {low:g}: {name}", v)


def _direction(theta, phi):
    """Cartesian components of the unit vectors at (theta, phi)."""
    return (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
            np.cos(theta))


def _config(process: str, legs: dict, **kwargs) -> KinematicConfig:
    """legs maps each label to its (t, x, y, z), broadcast together."""
    comps = [c for leg in legs.values() for c in leg]
    shape = np.broadcast(*comps).shape
    arrays = np.empty((len(legs),) + shape + (4,))
    for i, c in enumerate(comps):
        arrays[(i // 4, ..., i % 4)] = c
    if not shape:
        arrays = [FourVector.from_array(v) for v in arrays]
    return KinematicConfig(process, dict(zip(legs, arrays)), **kwargs)


def compton_omega_out(omega_in, theta, mass: float = 1.0):
    """Lab-frame Compton relation for the scattered photon energy."""
    check_mass(mass)
    return omega_in / (1.0 + (omega_in / mass) * (1.0 - np.cos(theta)))


def compton_lab_config(omega_in, theta, phi=0.0,
                       mass: float = 1.0) -> KinematicConfig:
    """Electron at rest, photon along +z, scattering at (theta, phi)."""
    _guard(mass, ("omega_in", omega_in, 0.0), theta=theta, phi=phi)
    w2 = compton_omega_out(omega_in, theta, mass)
    nx, ny, nz = _direction(theta, phi)
    # p_f = p_i + k_i - k_f, with the energy put on shell
    px, py, pz = -w2 * nx, -w2 * ny, omega_in - w2 * nz
    return _config(
        "compton",
        {"p_i": (mass, 0.0, 0.0, 0.0),
         "p_f": (np.sqrt(px * px + py * py + pz * pz + mass * mass),
                 px, py, pz),
         "k_i": (omega_in, 0.0, 0.0, omega_in),
         "k_f": (w2, w2 * nx, w2 * ny, w2 * nz)}, mass=mass)


def annihilation_cm_config(pmag, theta, phi=0.0,
                           mass: float = 1.0) -> KinematicConfig:
    """e- e+ back to back along z; photons back to back at (theta, phi)."""
    _guard(mass, ("pmag", pmag, 0.0), theta=theta, phi=phi)
    E = np.sqrt(pmag * pmag + mass * mass)
    nx, ny, nz = _direction(theta, phi)
    return _config(
        "annihilation",
        {"p_minus": (E, 0.0, 0.0, pmag),
         "p_plus": (E, 0.0, 0.0, -pmag),
         "k_i": (E, E * nx, E * ny, E * nz),
         "k_f": (E, -E * nx, -E * ny, -E * nz)}, mass=mass)


def moller_cm_config(E, theta, phi=0.0, mass: float = 1.0,
                     process: str = "moller") -> KinematicConfig:
    """Symmetric CM collision at beam energy E per particle."""
    _guard(mass, ("energy", E, mass), theta=theta, phi=phi)
    pmag = np.sqrt(E * E - mass * mass)
    nx, ny, nz = _direction(theta, phi)
    # in along +z, in along -z, out along n, out along -n
    legs = dict(zip(_LEGS[process], (
        (E, 0.0, 0.0, pmag),
        (E, 0.0, 0.0, -pmag),
        (E, pmag * nx, pmag * ny, pmag * nz),
        (E, -pmag * nx, -pmag * ny, -pmag * nz))))
    return _config(process, legs, mass=mass)


def bhabha_cm_config(E, theta, phi=0.0,
                     mass: float = 1.0) -> KinematicConfig:
    return moller_cm_config(E, theta, phi, mass, process="bhabha")


def bremsstrahlung_config(E_i, omega_f, theta_e, theta_k,
                          phi_e=0.0, phi_k=0.0, Z: float = 1.0,
                          mass: float = 1.0) -> KinematicConfig:
    """Electron E_i along z radiates omega_f; energy conservation only."""
    # an E_f that overflows or is inf - inf has an input refused first
    with np.errstate(over="ignore", invalid="ignore"):
        E_f = E_i - omega_f
    _guard(mass, ("e_in", E_i, mass), ("omega", omega_f, 0.0),
           ("final electron energy", E_f, mass), theta_e=theta_e,
           theta_k=theta_k, phi_e=phi_e, phi_k=phi_k)
    pf = np.sqrt(E_f * E_f - mass * mass)
    ex, ey, ez = _direction(theta_e, phi_e)
    kx, ky, kz = _direction(theta_k, phi_k)
    return _config(
        "bremsstrahlung",
        {"p_i": (E_i, 0.0, 0.0, np.sqrt(E_i * E_i - mass * mass)),
         "p_f": (E_f, pf * ex, pf * ey, pf * ez),
         "k_f": (omega_f, omega_f * kx, omega_f * ky, omega_f * kz)},
        Z=Z, mass=mass)


def pair_production_config(omega_i, E_plus, theta_p, theta_m,
                           phi_p=0.0, phi_m=math.pi, Z: float = 1.0,
                           mass: float = 1.0) -> KinematicConfig:
    """Photon omega_i along z converts; E_minus fixed by energy balance."""
    # an E_minus that overflows or is inf - inf has an input refused first
    with np.errstate(over="ignore", invalid="ignore"):
        E_minus = omega_i - E_plus
    _guard(mass, ("omega_in", omega_i, 2.0 * mass), ("e_plus", E_plus, mass),
           ("E_minus", E_minus, mass), theta_p=theta_p, theta_m=theta_m,
           phi_p=phi_p, phi_m=phi_m)
    pp = np.sqrt(E_plus * E_plus - mass * mass)
    pm = np.sqrt(E_minus * E_minus - mass * mass)
    px, py, pz = _direction(theta_p, phi_p)
    mx, my, mz = _direction(theta_m, phi_m)
    return _config(
        "pair_production",
        {"k_i": (omega_i, 0.0, 0.0, omega_i),
         "p_plus": (E_plus, pp * px, pp * py, pp * pz),
         "p_minus": (E_minus, pm * mx, pm * my, pm * mz)},
        Z=Z, mass=mass)
