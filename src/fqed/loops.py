"""One-loop quantities with dimensional-regularization bookkeeping.

The divergent integrals are never evaluated in d dimensions
numerically. Their pole structure at epsilon = 4 - d -> 0 is known in
closed form; each result is a pair of complex coefficients, (pole,
finite) of pole/eps + finite, or (a, b) of a 1 + b pslash, so that no
4x4 matrix is ever formed. The epsilon^0 Feynman-parameter integrals are
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
Every term reads only Re J.J^*, which conjugation keeps: a table serves
the reversed pair as stored, and the two levels of a pair share its PV
sum (its poles, swapped; a + b rounds as b + a). A pair stored in both
orders is two entries. The pairs on one node grid are one batch,
interpolated as np.interp rounds; each level adds, per b in turn, its
static, shell and -PV terms, so no value depends on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ALPHA_DEFAULT
from .errors import (DegenerateLevelError, DomainError, SingularityError,
                     check_mass)

_EULER_GAMMA = 0.5772156649015329

# power-series coefficients of r^1, r^2, ... (module docstring); the
# terms fall as (r/4)^n for Pi_bar and as r^k for the self energy, so
# 30 and 60 terms are below rounding on |r| < 1 and |r| < 1/2
_PI_BAR_SERIES = np.array([math.factorial(n + 1) ** 2
                           / (n * math.factorial(2 * n + 3))
                           for n in range(1, 31)])
_I1_SERIES = np.array([-1.0 / (k * (k + 2)) for k in range(1, 61)])
_I2_SERIES = np.array([-1.0 / (k * (k + 1)) for k in range(1, 61)])


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


def vacuum_polarization_pole(mass: float = 1.0,
                             alpha: float = ALPHA_DEFAULT):
    """Divergent part Pi_d(0) of the unsubtracted scalar polarization,
    as the pair (pole, finite) of pole/eps + finite; the full
    Pi_d(k^2) adds vacuum_polarization_finite to the finite slot.

    The x-integral int 2x(1-x) dx = 1/3 gives the pole coefficient
    2 alpha/(3 pi); the Gamma(1+eps/2) (4 pi)^(eps/2) m^(-eps) factors
    are expanded to order eps^0 and folded into the finite slot.
    """
    check_mass(mass)
    pole = 2.0 * alpha / (3.0 * math.pi)
    L = math.log(4.0 * math.pi) - _EULER_GAMMA - 2.0 * math.log(mass)
    return complex(pole), complex(pole * L / 2.0)


# -- electron self-energy --------------------------------------------------

def _off_shell(p2, mass: float) -> tuple[np.ndarray, bool]:
    """r = p^2/m^2 as a batch, and whether p2 was a scalar, after the
    mass check; a point on the mass shell, where both self-energy forms
    are logarithmically singular, rejects the whole batch."""
    check_mass(mass)
    p2, scalar = _batch(p2, "p2")
    if np.any(np.abs(p2 - mass * mass) <= 1e-12 * mass * mass):
        raise SingularityError(
            "self-energy has a logarithmic singularity at p^2 = m^2")
    return p2 / (mass * mass), scalar


def self_energy_ab(p2, mass: float = 1.0, alpha: float = ALPHA_DEFAULT):
    """Finite part of the self energy as Omega = a 1 + b pslash.

    The z-integrals in closed form (module docstring). p2 is p^2, a
    scalar (a pair of complex scalars out) or an array (a pair of
    complex arrays out). A point exactly on the mass shell, where the
    z-integral is logarithmically singular, rejects the whole batch.
    """
    m = mass
    r, scalar = _off_shell(p2, m)
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


def self_energy_near_shell(p2, mass: float = 1.0,
                           alpha: float = ALPHA_DEFAULT):
    """Finite part of the printed near-mass-shell form of the self
    energy as (a, b), finite = a 1 + b pslash:

    (alpha/4 pi) { (1/eps)[3m - (pslash - m)]
                   - (pslash - m) log((m^2 - p^2)/m^2) }

    Its pole bracket is self_energy_pole's. p2 is batched as in
    self_energy_ab, and the shell is rejected alike. Above the shell
    the log takes the -i epsilon branch of the module docstring,
    log(-|x|) = log|x| - i pi.

    The full z-integral of self_energy_ab has the same pole bracket but
    a log coefficient four times this printed -alpha/4pi. Expand its
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
    r, scalar = _off_shell(p2, mass)
    # the printed literal alpha/4pi, not self_energy_pole's coefficient
    c = alpha / (4.0 * math.pi)
    # -c (pslash - m) log delta = (c m log delta) 1 - (c log delta) pslash,
    # log delta = log|1 - r| - i pi above the shell
    log_re = c * np.log(np.abs(1.0 - r))
    above = r > 1.0
    return (_complex(mass * log_re,
                     np.where(above, -math.pi * c * mass, 0.0), scalar),
            _complex(-log_re, np.where(above, math.pi * c, 0.0), scalar))


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
            ks = np.asarray(entry[0], dtype=float)
            J = np.asarray(entry[1], dtype=complex)
            if not (np.isfinite(ks).all() and np.isfinite(J).all()):
                raise DomainError(f"current {key} has a non-finite sample")
            if ks.ndim != 1 or not ks.size or (ks[1:] <= ks[:-1]).any():
                raise DomainError(f"current {key} needs a strictly "
                                  f"increasing 1-d array of k samples")
            if J.shape != (4, len(ks)):
                raise DomainError(f"current {key} needs J of shape "
                                  f"(4, {len(ks)}), got {J.shape}")


def _contract(u: np.ndarray, v: np.ndarray):
    """Minkowski contraction u . v^* of currents (..., 4, n)."""
    uv = u * np.conj(v)
    return uv[..., 0, :] - uv[..., 1, :] - uv[..., 2, :] - uv[..., 3, :]


def _grids(spec: SpectrumInput, keys) -> list:
    """The stored currents of keys by node grid, in blocks of at most 64
    keys that bound the working set (some 40 kB a pair on 33 nodes): per
    block (k nodes, breakpoints [0, nodes in (0, k_max), k_max],
    J (keys, 4, n), keys)."""
    groups: dict[bytes, tuple] = {}
    for key in keys:
        ks = np.asarray(spec.currents[key][0], dtype=float)
        groups.setdefault(ks.tobytes(), (ks, []))[1].append(key)
    return [(ks, np.concatenate([[0.0], ks[(ks > 0.0) & (ks < spec.k_max)],
                                 [spec.k_max]]),
             np.array([spec.currents[k][1] for k in part], dtype=complex),
             part) for ks, group in groups.values()
            for part in (group[i:i + 64] for i in range(0, len(group), 64))]


def _lerp(x, ks: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Currents J (..., 4, n) on the nodes ks at the points x (last axis;
    the others broadcast against J's): linear, clamped beyond the ends,
    rounded as np.interp rounds, (J1 - J0) (1/(k1 - k0)) (x - k0) + J0."""
    n = J.shape[-1]
    j = np.searchsorted(ks, x, side="right") - 1
    lo = np.minimum(np.maximum(j, 0), max(n - 2, 0))
    hi = np.minimum(lo + 1, n - 1)
    start = np.arange(0, J.size, n).reshape(J.shape[:-1] + (1,))
    J0, J1, k0, k1 = J.take(start + lo), J.take(start + hi), ks[lo], ks[hi]
    low, top = x <= k0, x >= k1
    inv = 1.0 / np.where(low | top, 1.0, k1 - k0)
    return np.where(top, J1,
                    np.where(low, J0, (J1 - J0) * inv * (x - k0) + J0))


# int_{-1/2}^{1/2} s^(n+j) ds: series term n, power j of the cubic
_MOMENT_TABLE = np.array([[0.5 ** m / (m + 1) if m % 2 == 0 else 0.0
                           for m in range(n, n + 4)] for n in range(40)])


def _pv_integrals(x: np.ndarray, f: np.ndarray, a: np.ndarray):
    """P int_0^k_max (k/2) J.J^*(k) / (a - k) dk for a batch of currents
    f (pairs, 4, len(x)) on the breakpoints x, at poles a (pairs, m, 1).

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
    int Q(s) s^n ds, is used there (terms fall by 3 or more each).
    """
    x0, x1, w, xm = x[:-1], x[1:], x[1:] - x[:-1], 0.5 * (x[:-1] + x[1:])
    Jm, D = 0.5 * (f[..., :-1] + f[..., 1:]), f[..., 1:] - f[..., :-1]
    # J.J^* on the segment: c0 + c1 s + c2 s^2, real
    c0, c1 = _contract(Jm, Jm).real, 2.0 * _contract(Jm, D).real
    c2 = _contract(D, D).real
    q = np.array([0.5 * xm * c0, 0.5 * (xm * c1 + w * c0),
                  0.5 * (xm * c2 + w * c1), 0.5 * w * c2])[:, :, None]
    sigma = (a - xm) / w
    Q = ((q[3] * sigma + q[2]) * sigma + q[1]) * sigma + q[0]
    # log|a - x0| - log|a - x1|, a log|0| taken as 0
    logs = [np.log(np.abs(a - xe), out=np.zeros(sigma.shape), where=a != xe)
            for xe in (x0, x1)]
    out = (Q * (logs[0] - logs[1]) - q[1] - q[2] * sigma
           - q[3] * (sigma * sigma + 1 / 12))
    far = np.abs(sigma) >= 1.5
    if far.any():
        (pair, _, seg), u = np.nonzero(far), 1.0 / sigma[far]
        moments = np.einsum("nj,jf->nf", _MOMENT_TABLE,
                            q.reshape(4, -1).take(pair * w.size + seg, axis=1))
        series = np.zeros_like(u)
        for M in moments[::-1]:
            series += M
            series *= u
        out[far] = series
    return out.sum(axis=-1)


def energy_shift(spec: SpectrumInput, d: str,
                 alpha: float = ALPHA_DEFAULT) -> complex:
    """Complex second-order shift Delta E_d: energy_shifts of level d."""
    return energy_shifts(spec, [d], alpha)[0]


def energy_shifts(spec: SpectrumInput, levels,
                  alpha: float = ALPHA_DEFAULT) -> list[complex]:
    """Complex second-order shifts Delta E_d of the levels d, in order.

    Real part: static current-current term plus the principal-value
    (level-shift) term; imaginary part: the delta-shell emission and
    absorption terms, collapsed analytically; in units of the electron
    mass. The levels are checked in order before any integral, so the
    error raised is the first a level-by-level evaluation meets."""
    pref = 4.0 * math.pi * alpha / math.pi
    col = {b: i for i, b in enumerate(spec.levels)}
    rows = {d: i for i, d in enumerate(dict.fromkeys(levels))}
    links = []  # (row, col, stored key, E) of each pair with a current
    for d in rows:
        if d not in spec.levels:
            raise DomainError(f"unknown level: {d}")
        for b in col:
            key = (d, b) if (d, b) in spec.currents else (b, d)
            if b == d or key not in spec.currents:
                continue
            E = spec.levels[d] - spec.levels[b]
            if E == 0.0:
                raise DegenerateLevelError(
                    f"levels {d} and {b} are degenerate with nonzero current")
            if abs(E) >= spec.k_max:
                raise DomainError(
                    f"k_max = {spec.k_max} does not cover the {d}-{b} "
                    f"transition at |E| = {abs(E)}")
            links.append((rows[d], col[b], key, E))
    # each level's real and imaginary terms in the order it adds them:
    # 0, then per b its static (real) or shell (imag) term and its -PV
    terms = np.zeros((2, len(rows), 2 * len(col) + 1))
    # static term: the 1/k^2 cancels the measure; on each segment the
    # product of two linear currents, integrated exactly
    diag = _grids(spec, [(b, b) for b in col if (b, b) in spec.currents])
    for ks_d, x_d, J_d, group_d in diag:
        mine = [i for i, (d, _) in enumerate(group_d) if d in rows]
        for ks_b, x_b, J_b, group_b in diag if mine else ():
            x = np.union1d(x_d, x_b)
            f = _lerp(x, ks_d, J_d[mine])[:, None]
            g = _lerp(x, ks_b, J_b)[None]
            f0, f1, g0, g1 = f[..., :-1], f[..., 1:], g[..., :-1], g[..., 1:]
            seg = (2.0 * _contract(f0, g0) + _contract(f0, g1)
                   + _contract(f1, g0) + 2.0 * _contract(f1, g1))
            terms[0][np.ix_([rows[group_d[i][0]] for i in mine],
                            [2 * col[b] + 1 for b, _ in group_b])] = (
                pref * ((np.diff(x) * seg.real).sum(axis=-1) / 6.0))
    r, c, keys, E = zip(*links) if links else ((),) * 4
    r, c = np.array(r, dtype=int), 2 * np.array(c, dtype=int)
    # a stored pair's PV sum and Re J.J^* at |E| sit at its first link
    first = {key: i for i, key in reversed(list(enumerate(keys)))}
    E, pv, shell = np.array(E), np.empty(len(E)), np.empty(len(E))
    for ks, x, J, group in _grids(spec, first):
        at = [first[key] for key in group]
        gap = np.abs(E[at])[:, None]
        points = np.empty((len(at), 1, len(x) + 1))
        points[..., :-1], points[..., -1] = x, gap
        f = _lerp(points, ks, J)
        pv[at] = _pv_integrals(x, f[..., :-1],
                               (gap * [-1.0, 1.0])[..., None]).sum(1)
        shell[at] = _contract(f[..., -1:], f[..., -1:]).real[:, 0]
    same = [first[key] for key in keys]
    # i pi/2k [delta(E-k) - delta(E+k)]: the k^2 dk measure collapses
    # onto k = |E|; emission for E > 0, absorption for E < 0
    terms[1, r, c + 1] = pref * (0.5 * math.pi * E * shell[same])
    # P/2k (1/(E+k) - 1/(E-k)) k^2 dk, as minus the PV integrals
    terms[0, r, c + 2] = pref * -pv[same]
    re, im = terms.cumsum(axis=2)[:, :, -1].tolist()
    return [complex(re[rows[d]], im[rows[d]]) for d in levels]


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
