"""One-loop quantities with dimensional-regularization bookkeeping.

The divergent integrals are never evaluated in d dimensions
numerically. Their pole structure at epsilon = 4 - d -> 0 is known in
closed form and is stored symbolically as a two-term Laurent series
(pole, finite). The epsilon^0 Feynman-parameter integrals are
elementary and are evaluated in closed form on arrays: the k^2 and p^2
functions below take a scalar (Python scalars out) or an array (arrays
out), a scalar being a batch of one through the same code.

Vacuum polarization scalar part, with the subtraction at k^2 = 0
already performed:

    Pi_bar(k^2) = -(2 alpha/pi) int_0^1 dx x(1-x)
                                  log[1 - (k^2/m^2) x(1-x)]

The overall sign is fixed by the small-k^2 limit
Pi_bar -> +(alpha/15 pi) k^2/m^2. The log argument first turns negative
at k^2 = 4 m^2 (max of x(1-x) is 1/4); above that threshold the branch
is taken as log(-|r|) = log|r| + i pi, which makes Im Pi_bar < 0
(absorptive part of the forward amplitude). With r = k^2/m^2 and
beta = sqrt(1 - 4/r) the integral is (Peskin & Schroeder 7.5,
Berestetskii-Lifshitz-Pitaevskii 113)

    Pi_bar = (alpha/3 pi) [5/3 + 4/r - (1 + 2/r) B(r)]

    B = beta log((beta + 1)/(beta - 1))                   r < 0
    B = 2 b arctan(1/b),  b = sqrt(4/r - 1)               0 < r <= 4
    B = beta log((1 + beta)/(1 - beta)) + i pi beta       r > 4

with each region in real arithmetic, so Pi_bar is exactly real below
threshold. The bracket cancels as r -> 0; for |r| < 1 the series
Pi_bar = (2 alpha/pi) sum_n c_n r^n, c_n = ((n+1)!)^2 / (n (2n+3)!),
from expanding the log and int (x(1-x))^j dx = (j!)^2/(2j+1)!, is used.

Electron self-energy matrix Omega(p), finite part from the z-integral

    (alpha/2 pi) int_0^1 dz { (1-z) pslash [1 + log G]
                              - m [1 + 2 log G]
                              - (1/2) log z [2m - (1-z) pslash]
                              + (L/2) [2m - (1-z) pslash] }

with G(z) = 1 - p^2 (1-z)/m^2 and L = log(4 pi) - gamma_E - 2 log m,
and the pole part (alpha/4 pi)(1/eps)[4m - pslash]. Above the mass
shell G turns negative and log G = log|G| - i pi (the -i epsilon of the
originating denominators). The finite part is a 1 + b pslash, and it
needs i1 = int (1-z) log G dz and i2 = int log G dz. Substituting
u = G, with F(u) = u log|u| - u and H(u) = u^2 log|u|/2 - u^2/4,

    i2 = [F(1) - F(1-r)] / r
    i1 = [F(1) - F(1-r) - H(1) + H(1-r)] / r^2,    r = p^2/m^2,

plus, above the shell (z0 = 1 - 1/r), -i pi z0 and -i pi (z0 - z0^2/2).
For |r| < 1/2, where these cancel, the series i2 = -sum r^k/(k(k+1))
and i1 = -sum r^k/(k(k+2)) are used.

The complex level-shift kernel for a discrete spectrum with isotropic
transition currents J_db(k):

    Delta E_d = (e^2/pi) sum_b int k^2 dk {
        (1/k^2) J_dd . J_bb*
        + [ i pi/2k (delta(E-k) - delta(E+k))
            + P/2k (1/(E+k) - 1/(E-k)) ] J_db . J_db* }

with E = E_d - E_b, Minkowski contraction of the currents, the delta
terms collapsed analytically and P the principal value. The currents
are tabulated and interpolated linearly, so both integrals are exact
sums over the segments between table nodes: a polynomial for the
static term, and a polynomial plus P(a) log|(a - x0)/(a - x1)| for the
principal value with pole a. A missing current adds an exact 0.0.
Every read of a stored current goes through one table, conjugated for
the reversed pair, and one complex np.interp, at the nodes and at |E|
alike. Every term reads only Re J.J^*, which conjugation keeps. The
two levels of a stored pair share only the sum of its PV integrals:
each level's poles are the other's, swapped, and a + b rounds as b + a.
A pair stored in both orders is two entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import I4, slash
from .constants import ALPHA_DEFAULT
from .errors import (DegenerateLevelError, DomainError, SingularityError,
                     check_mass)
from .fourvec import FourVector

_EULER_GAMMA = 0.5772156649015329

# power-series coefficients of r^1, r^2, ... (module docstring); the
# terms fall as (r/4)^n for Pi_bar and as r^k for the self energy, so
# 30 and 60 terms are below rounding on |r| < 1 and |r| < 1/2
_PI_BAR_SERIES = np.array([math.factorial(n + 1) ** 2
                           / (n * math.factorial(2 * n + 3))
                           for n in range(1, 31)])
_I1_SERIES = np.array([-1.0 / (k * (k + 2)) for k in range(1, 61)])
_I2_SERIES = np.array([-1.0 / (k * (k + 1)) for k in range(1, 61)])


@dataclass(frozen=True)
class LaurentValue:
    """Two-term Laurent series a/eps + b in the parameter eps = 4 - d.

    pole and finite are either complex scalars or complex matrices.
    """

    pole: object
    finite: object


def __getattr__(name):
    # no fqed code integrates numerically: `integrate` (scipy.integrate,
    # imported on first access) stays only because the benchmark tracer
    # (perfbench/tracing.py) wraps its quad when it installs, until that
    # tracer drops it (ROADMAP item B)
    if name == "integrate":
        from scipy import integrate
        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _batch(x, name: str) -> tuple[np.ndarray, bool]:
    """x as an array of at least one dimension, and whether it was a
    scalar; a non-finite value is a DomainError naming the first one."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    bad = ~np.isfinite(flat)
    if bad.any():
        raise DomainError(f"{name} must be finite, got {flat[bad][0]}")
    return flat, arr.ndim == 0


def _power_series(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k-1] r^k for a 1-d r, summed row by row."""
    powers = np.cumprod(np.repeat(r[:, None], len(coeffs), axis=1), axis=1)
    return np.sum(powers * coeffs, axis=1)


def _complex(re: np.ndarray, im: np.ndarray, scalar: bool):
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return complex(out[0]) if scalar else out


# -- vacuum polarization ---------------------------------------------------

def vacuum_polarization_finite(k2, mass: float = 1.0,
                               alpha: float = ALPHA_DEFAULT):
    """Subtracted scalar vacuum polarization Pi_bar(k^2), closed form.

    Real for k^2 < 4 m^2; above threshold picks up a negative
    imaginary part from the log branch. k2 is a scalar (complex out)
    or an array (complex array out).
    """
    check_mass(mass)
    r, scalar = _batch(k2, "k2")
    r = r / (mass * mass)
    re = np.empty_like(r)
    im = np.zeros_like(r)
    small = np.abs(r) < 1.0
    re[small] = (2.0 * alpha / math.pi) * _power_series(_PI_BAR_SERIES,
                                                       r[small])
    B = np.empty_like(r)
    spacelike = r <= -1.0
    rs = r[spacelike]
    beta = np.sqrt(1.0 - 4.0 / rs)
    # (beta + 1)/(beta - 1) = 1 - (beta + 1) r/2
    B[spacelike] = beta * np.log1p(-0.5 * (beta + 1.0) * rs)
    below = (r >= 1.0) & (r <= 4.0)
    b = np.sqrt(4.0 / r[below] - 1.0)
    B[below] = 2.0 * b * np.arctan2(1.0, b)
    above = r > 4.0
    ra = r[above]
    beta = np.sqrt(1.0 - 4.0 / ra)
    # (1 + beta)/(1 - beta) = 1 + beta (1 + beta) r/2
    B[above] = beta * np.log1p(0.5 * beta * (1.0 + beta) * ra)
    im[above] = -(alpha / 3.0) * (1.0 + 2.0 / ra) * beta
    big = ~small
    rb = r[big]
    re[big] = (alpha / (3.0 * math.pi)) * (
        5.0 / 3.0 + 4.0 / rb - (1.0 + 2.0 / rb) * B[big])
    return _complex(re, im, scalar)


def vacuum_polarization_pole(alpha: float = ALPHA_DEFAULT,
                             mass: float = 1.0) -> LaurentValue:
    """Divergent part Pi_d(0) of the unsubtracted scalar polarization.

    The x-integral int 2x(1-x) dx = 1/3 gives the pole coefficient
    2 alpha/(3 pi); the Gamma(1+eps/2) (4 pi)^(eps/2) m^(-eps) factors
    are expanded to order eps^0 and folded into the finite slot.
    """
    check_mass(mass)
    pole = 2.0 * alpha / (3.0 * math.pi)
    L = math.log(4.0 * math.pi) - _EULER_GAMMA - 2.0 * math.log(mass)
    return LaurentValue(complex(pole), complex(pole * L / 2.0))


def vacuum_polarization(k2, mass: float = 1.0,
                        alpha: float = ALPHA_DEFAULT) -> LaurentValue:
    """Full Pi_d(k^2) = Pi_d(0) + Pi_bar(k^2) as a Laurent series.

    The pole is k-independent, so differences of two values have an
    exactly zero pole component.
    """
    base = vacuum_polarization_pole(alpha, mass)
    return LaurentValue(base.pole,
                        base.finite + vacuum_polarization_finite(
                            k2, mass, alpha))


# -- electron self-energy --------------------------------------------------

def self_energy_ab(p2, mass: float = 1.0, alpha: float = ALPHA_DEFAULT):
    """Finite part of the self energy as Omega = a 1 + b pslash.

    The z-integrals in closed form (module docstring). p2 is p^2, a
    scalar (a pair of complex scalars out) or an array (a pair of
    complex arrays out). A point exactly on the mass shell, where the
    z-integral is logarithmically singular, rejects the whole batch.
    """
    check_mass(mass)
    m = mass
    p2, scalar = _batch(p2, "p2")
    if np.any(np.abs(p2 - m * m) <= 1e-12 * m * m):
        raise SingularityError(
            "self-energy has a logarithmic singularity at p^2 = m^2")
    r = p2 / (m * m)
    i1 = np.empty_like(r)
    i2 = np.empty_like(r)
    small = np.abs(r) < 0.5
    i1[small] = _power_series(_I1_SERIES, r[small])
    i2[small] = _power_series(_I2_SERIES, r[small])
    big = ~small
    rb = r[big]
    u = 1.0 - rb
    logu = np.log(np.abs(u))
    dF = -1.0 - (u * logu - u)                      # F(1) - F(1 - r)
    dH = -0.25 - (0.5 * u * u * logu - 0.25 * u * u)  # H(1) - H(1 - r)
    i2[big] = dF / rb
    i1[big] = (dF - dH) / (rb * rb)
    L = math.log(4.0 * math.pi) - _EULER_GAMMA - 2.0 * math.log(m)
    c = alpha / (2.0 * math.pi)
    # identity (times m): -[1 + 2 i2] from the G terms, +1 from
    # -(1/2) int log z * 2, and L; pslash: int (1-z)[1 + log G] =
    # 1/2 + i1, then the log z and L pieces, with int (1-z) log z = -3/4
    re_a = c * m * (L - 2.0 * i2)
    re_b = c * ((0.5 + i1) + 3.0 / 8.0 - L / 4.0)
    # imaginary parts above the shell, from log G = log|G| - i pi on
    # z < z0 = 1 - 1/r
    im_a = np.zeros_like(r)
    im_b = np.zeros_like(r)
    above = r > 1.0
    z0 = 1.0 - 1.0 / r[above]
    im_a[above] = 2.0 * math.pi * c * m * z0
    im_b[above] = -math.pi * c * (z0 - 0.5 * z0 * z0)
    return _complex(re_a, im_a, scalar), _complex(re_b, im_b, scalar)


def self_energy_pole(mass: float = 1.0, alpha: float = ALPHA_DEFAULT):
    """The self energy's 1/eps pole as (a, b), pole = a 1 + b pslash:
    (alpha/4 pi)(4m, -1) at every p. This is the d = 4 - 2 eps form,
    which a derivation of the self energy is to revisit (ROADMAP)."""
    check_mass(mass)
    c = alpha / (4.0 * math.pi)
    return 4.0 * mass * c, -c


def self_energy(p: FourVector, mass: float = 1.0,
                alpha: float = ALPHA_DEFAULT) -> LaurentValue:
    """Self-energy matrix Omega(p) as a Laurent series of 4x4 matrices.

    Pole part (1/eps)[a_pole + b_pole pslash] from self_energy_pole;
    finite part a 1 + b pslash from self_energy_ab. Exactly on shell
    the point is rejected.
    """
    a, b = self_energy_ab(float(p.norm2()), mass, alpha)
    pole_a, pole_b = self_energy_pole(mass, alpha)
    psl = slash(p)
    return LaurentValue((pole_a * I4 + pole_b * psl).astype(complex),
                        a * I4 + b * psl)


def self_energy_near_shell(p: FourVector, mass: float = 1.0,
                           alpha: float = ALPHA_DEFAULT) -> LaurentValue:
    """Printed near-mass-shell form of the self energy.

    (alpha/4 pi) { (1/eps)[3m - (pslash - m)]
                   - (pslash - m) log((m^2 - p^2)/m^2) }

    The full z-integral of self_energy has the same pole bracket but a
    log coefficient four times this printed -alpha/4pi. Expand its
    closed form (module docstring, m = 1) at delta = 1 - p^2 -> 0: with
    1 - r = delta, the log delta parts are -delta log delta/(1 - delta)
    in i2 and -(delta - delta^2/2) log delta/(1 - delta)^2 in i1. On a
    spinor with pslash = lambda = sqrt(1 - delta), a + lambda b then
    carries

        (alpha/2 pi) log delta [2 delta/(1 - delta)
                                - lambda (delta - delta^2/2)/(1 - delta)^2]
        = (alpha/2 pi) delta log delta (1 + O(delta)),

    and delta = -(lambda - 1)(lambda + 1) = -2 (lambda - 1) + O((lambda - 1)^2)
    makes this -(alpha/pi)(lambda - 1) log delta: the coefficient is
    exactly -alpha/pi. Both forms are kept, this one as the quoted
    representation.
    """
    m = mass
    pole_a, pole_b = self_energy_pole(m, alpha)     # checks the mass
    p2 = float(p.norm2())
    if abs(p2 - m * m) <= 1e-12 * m * m:
        raise SingularityError(
            "near-shell form is logarithmically singular at p^2 = m^2")
    delta = (m * m - p2) / (m * m)
    logd = cmath.log(complex(delta))
    psl = slash(p).astype(complex)
    return LaurentValue(pole_a * I4 + pole_b * psl,
                        pole_b * logd * (psl - m * I4))


# -- complex energy shifts -------------------------------------------------

@dataclass(frozen=True)
class SpectrumInput:
    """Discrete level spectrum with isotropic transition currents.

    levels maps label -> energy. currents maps (row, col) pairs of those
    labels to a pair of arrays (k_samples, J (4, n)), interpolated
    linearly (constant beyond the end samples); the table of (b, d)
    serves (d, b) conjugated, and missing pairs are zero. k_max bounds
    all photon-momentum integrals. Energies, k_max and the current
    samples must be finite, with k_samples strictly increasing.
    """

    levels: dict[str, float]
    currents: dict[tuple[str, str], object] = field(default_factory=dict)
    k_max: float = 10.0

    def __post_init__(self):
        for a, b in self.currents:
            if a not in self.levels or b not in self.levels:
                raise DomainError(
                    f"current ({a},{b}) references unknown level")
        if not self.levels:
            raise DomainError("spectrum needs at least one level")
        for lab, E in self.levels.items():
            if not math.isfinite(E):
                raise DomainError(f"level {lab} has non-finite energy")
        if not (math.isfinite(self.k_max) and self.k_max > 0):
            raise DomainError(f"k_max must be finite and positive, got "
                              f"{self.k_max!r}")
        for key, entry in self.currents.items():
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise DomainError(f"current {key} must be a (k_samples, J) "
                                  f"pair")
            if not all(np.isfinite(np.asarray(a, dtype=complex)).all()
                       for a in entry):
                raise DomainError(f"current {key} has a non-finite sample")
            ks, shape = np.asarray(entry[0], dtype=float), np.shape(entry[1])
            if ks.ndim != 1 or not ks.size or (np.diff(ks) <= 0.0).any():
                raise DomainError(f"current {key} needs a strictly "
                                  f"increasing 1-d array of k samples")
            if shape != (4, len(ks)):
                raise DomainError(f"current {key} needs J of shape "
                                  f"(4, {len(ks)}), got {shape}")


def _contract(u: np.ndarray, v: np.ndarray):
    """Minkowski contraction u . v^* of currents, over the leading axis
    of a (4,) or (4, n) array."""
    uv = u * np.conj(v)
    return uv[0] - uv[1] - uv[2] - uv[3]


def _table(spec: SpectrumInput, row: str, col: str):
    """A pair's stored current as (k nodes, J (4, n)), conjugated if it
    is stored for the reversed pair; None if neither order is stored."""
    for key, conj in (((row, col), False), ((col, row), True)):
        if key in spec.currents:
            ks, J = spec.currents[key]
            J = np.asarray(J, dtype=complex)
            return np.asarray(ks, dtype=float), J.conj() if conj else J
    return None


def _interp(x, table) -> np.ndarray:
    """A table's current at x, linear and clamped beyond its ends."""
    ks, J = table
    return np.array([np.interp(x, ks, comp) for comp in J])


def _breakpoints(k_max: float, tables) -> tuple[np.ndarray, list]:
    """The nodes of all tables inside (0, k_max), with 0 and k_max, and
    each table's current there, between which every current is linear."""
    inner = [ks[(ks > 0.0) & (ks < k_max)] for ks, _ in tables]
    x = np.unique(np.concatenate([[0.0, k_max], *inner]))
    return x, [_interp(x, table) for table in tables]


def _static_integral(k_max: float, t_dd, t_bb) -> float:
    """int_0^k_max Re J_dd . J_bb^* dk for tabulated currents: on each
    segment the product of two linear functions, integrated exactly."""
    x, (f, g) = _breakpoints(k_max, (t_dd, t_bb))
    f0, f1, g0, g1 = f[:, :-1], f[:, 1:], g[:, :-1], g[:, 1:]
    seg = (2.0 * _contract(f0, g0) + _contract(f0, g1)
           + _contract(f1, g0) + 2.0 * _contract(f1, g1))
    return float(np.sum(np.diff(x) * seg.real)) / 6.0


def _log_abs(x: np.ndarray) -> np.ndarray:
    """log|x|, with 0 where x = 0."""
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = np.log(np.abs(x[nz]))
    return out


# moments int_{-1/2}^{1/2} s^m ds of the segment's centred variable
_PV_TERMS = 40
_MOMENTS = np.array([0.5 ** m / (m + 1) if m % 2 == 0 else 0.0
                     for m in range(_PV_TERMS + 4)])
_MOMENT_TABLE = _MOMENTS[np.arange(_PV_TERMS)[:, None] + np.arange(4)]


def _pv_integrals(k_max: float, table, poles) -> np.ndarray:
    """P int_0^k_max (k/2) J.J^*(k) / (a - k) dk for each pole a, with
    a tabulated current.

    On a segment of midpoint xm and width w, in s = (k - xm)/w, the
    numerator is a cubic Q(s) = sum q_j s^j and, with
    sigma = (a - xm)/w, dividing Q(s) - Q(sigma) by s - sigma gives

        P int Q(s)/(sigma - s) ds = Q(sigma) log|(a - x0)/(a - x1)|
                                    - q1 - q2 sigma - q3 (sigma^2 + 1/12)

    over s in [-1/2, 1/2]. A pole on a node gives the two segments that
    meet there log|0| terms of opposite sign with the same Q value;
    they cancel, and both are dropped. For a pole far from a short
    segment these terms cancel instead, so for |sigma| >= 3/2 the
    expansion of 1/(sigma - s) in s/sigma, sum_n sigma^-(n+1)
    int Q(s) s^n ds, is used (terms fall by 3 or more each).
    """
    x, (f,) = _breakpoints(k_max, (table,))
    x0, x1, w = x[:-1], x[1:], np.diff(x)
    xm = 0.5 * (x0 + x1)
    Jm, D = 0.5 * (f[:, :-1] + f[:, 1:]), np.diff(f, axis=1)
    # J.J^* on the segment: c0 + c1 s + c2 s^2, real
    c0 = _contract(Jm, Jm).real
    c1 = 2.0 * _contract(Jm, D).real
    c2 = _contract(D, D).real
    q = np.array([0.5 * xm * c0, 0.5 * (xm * c1 + w * c0),
                  0.5 * (xm * c2 + w * c1), 0.5 * w * c2])
    a = np.asarray(poles, dtype=float)[:, None]
    sigma = (a - xm) / w
    Q = ((q[3] * sigma + q[2]) * sigma + q[1]) * sigma + q[0]
    logs = _log_abs(a - x0) - _log_abs(a - x1)
    near = Q * logs - q[1] - q[2] * sigma - q[3] * (sigma * sigma + 1 / 12)
    far = np.abs(sigma) >= 1.5
    u = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=far)
    moments = np.einsum("nj,jm->nm", _MOMENT_TABLE, q)
    series = np.zeros_like(sigma)
    for M in moments[::-1]:
        series = (series + M) * u
    return np.sum(np.where(far, series, near), axis=1)


def energy_shift(spec: SpectrumInput, d: str,
                 alpha: float = ALPHA_DEFAULT) -> complex:
    """Complex second-order shift Delta E_d: energy_shifts of level d."""
    return energy_shifts(spec, [d], alpha)[0]


def energy_shifts(spec: SpectrumInput, levels,
                  alpha: float = ALPHA_DEFAULT) -> list[complex]:
    """Complex second-order shifts Delta E_d of the levels d, in order.

    Real part: static current-current term plus the principal-value
    (level-shift) term; imaginary part: the delta-shell emission and
    absorption terms, collapsed analytically. Energies and momenta in
    units of the electron mass. The currents are integrated exactly; a
    missing current adds an exact 0.0. Each level reads every current
    from its own table, and the two levels of a stored pair share only
    the sum of its PV integrals (module docstring), so each shift is bit
    for bit energy_shift's.
    """
    e2 = 4.0 * math.pi * alpha
    pref = e2 / math.pi
    # stored pair -> the sum of its PV integrals at the poles -E and E
    pv_sums = {}
    shifts = []
    for d in levels:
        if d not in spec.levels:
            raise DomainError(f"unknown level: {d}")
        t_dd = _table(spec, d, d)
        total = 0.0 + 0.0j
        for b, E_b in spec.levels.items():
            # static term: the 1/k^2 cancels the measure; a missing
            # current adds 0.0, what it integrates to
            t_bb = _table(spec, b, b)
            static = (0.0 if t_dd is None or t_bb is None
                      else _static_integral(spec.k_max, t_dd, t_bb))
            total += pref * static
            table = None if b == d else _table(spec, d, b)
            if table is None:
                continue
            E = spec.levels[d] - E_b
            if E == 0.0:
                raise DegenerateLevelError(
                    f"levels {d} and {b} are degenerate with nonzero current")
            if abs(E) >= spec.k_max:
                raise DomainError(
                    f"k_max = {spec.k_max} does not cover the {d}-{b} "
                    f"transition at |E| = {abs(E)}")
            # delta-shell terms: i pi/2k [delta(E-k) - delta(E+k)], the
            # k^2 dk measure collapses onto k = |E|; emission for E > 0,
            # absorption (opposite sign) for E < 0
            J_E = _interp(abs(E), table)
            shell = 0.5j * math.pi * abs(E) * _contract(J_E, J_E).real
            if E < 0.0:
                shell = -shell
            total += pref * shell
            # principal-value term P/2k (1/(E+k) - 1/(E-k)) k^2 dk;
            # 1/(E +- k) rewritten as -+ 1/((-+E) - k) for the PV integrals
            key = (d, b) if (d, b) in spec.currents else (b, d)
            if key not in pv_sums:
                pv_sums[key] = complex(np.sum(
                    _pv_integrals(spec.k_max, table, (-E, E))))
            total += pref * -pv_sums[key]
        shifts.append(total)
    return shifts


# -- spectrum text format --------------------------------------------------

def parse_spectrum(text: str, k_max: float = 10.0) -> SpectrumInput:
    """Parse the structured text form of a SpectrumInput.

    A `[levels]` section lists `label energy` lines; each
    `[current d b]` section lists `k J0 Jx Jy Jz` sample rows that are
    interpolated linearly. A label may appear once in `[levels]`, and a
    pair's section once per order.
    """
    levels: dict[str, float] = {}
    currents: dict[tuple[str, str], object] = {}
    section = None
    rows: list[list[float]] = []
    key: tuple[str, str] | None = None

    def numbers(fields, line):
        try:
            return [float(v) for v in fields]
        except ValueError:
            raise DomainError(f"bad number in: {line}") from None

    def flush():
        if key is not None:
            if not rows:
                raise DomainError(f"empty current section {key}")
            arr = np.array(rows, dtype=float)
            order = np.argsort(arr[:, 0])
            currents[key] = (arr[order, 0], arr[order, 1:].T)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            flush()
            rows, key = [], None
            head = line.strip("[]").split()
            if head[:1] == ["levels"]:
                section = "levels"
            elif head[:1] == ["current"] and len(head) == 3:
                section = "current"
                key = (head[1], head[2])
                if key in currents:
                    raise DomainError(f"repeated current section {key}")
            else:
                raise DomainError(f"bad section header: {line}")
            continue
        if section == "levels":
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"bad level line: {line}")
            if parts[0] in levels:
                raise DomainError(f"repeated level {parts[0]!r}")
            levels[parts[0]] = numbers(parts[1:], line)[0]
        elif section == "current":
            vals = numbers(line.split(), line)
            if len(vals) != 5:
                raise DomainError(f"bad current row: {line}")
            rows.append(vals)
        else:
            raise DomainError(f"data before any section: {line}")
    flush()
    return SpectrumInput(levels, currents, k_max)


def load_spectrum(path: str, k_max: float = 10.0) -> SpectrumInput:
    """parse_spectrum of a UTF-8 text file."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_spectrum(text, k_max)
