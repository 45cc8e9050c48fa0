"""Independent oracles used by the test suite.

Everything here is computed by a different route than the library code
under test: closed-form invariant-amplitude expressions, numeric trace
contractions, refined fixed-node quadrature, and smeared-delta dense
integration.
"""

import json
import math

import numpy as np

from fqed.algebra import GAMMA, I4, SIGMA, slash
from fqed.constants import ALPHA_DEFAULT
from fqed.errors import DegenerateLevelError, DomainError
from fqed.fourvec import minkowski_dot
from fqed.states import _V_ORDER

_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def compton_invariant_m2(cfg, alpha):
    """Spin/polarization summed |M|^2 / 4 from the closed-form
    Klein-Nishina invariant expression (kappa = p_i . k)."""
    e2 = 4.0 * math.pi * alpha
    ki = minkowski_dot(cfg.momenta["p_i"], cfg.momenta["k_i"])
    kf = minkowski_dot(cfg.momenta["p_i"], cfg.momenta["k_f"])
    m2 = cfg.mass * cfg.mass
    d = 1.0 / ki - 1.0 / kf
    return 2.0 * e2 * e2 * (kf / ki + ki / kf
                            + 2.0 * m2 * d + m2 * m2 * d * d)


def annihilation_invariant_m2(cfg, alpha):
    """Spin/polarization summed |M|^2 / 4 of e- e+ -> gamma gamma from
    the closed form (Peskin & Schroeder 5.105), p the electron momentum:
    2 e^4 [p.k2/p.k1 + p.k1/p.k2 + 2 m^2 s - m^4 s^2],
    s = 1/p.k1 + 1/p.k2."""
    e2 = 4.0 * math.pi * alpha
    k1 = minkowski_dot(cfg.momenta["p_minus"], cfg.momenta["k_i"])
    k2 = minkowski_dot(cfg.momenta["p_minus"], cfg.momenta["k_f"])
    m2 = cfg.mass * cfg.mass
    s = 1.0 / k1 + 1.0 / k2
    return 2.0 * e2 * e2 * (k2 / k1 + k1 / k2 + 2.0 * m2 * s
                            - m2 * m2 * s * s)


def _tr(*ms):
    acc = ms[0]
    for m in ms[1:]:
        acc = acc @ m
    return np.trace(acc)


def _gl(mu):
    return _METRIC[mu, mu] * GAMMA[mu]


def moller_trace_m2(cfg, alpha):
    e2 = 4.0 * math.pi * alpha
    m = cfg.mass
    pi1, pi2 = cfg.momenta["p_i1"], cfg.momenta["p_i2"]
    pf1, pf2 = cfg.momenta["p_f1"], cfg.momenta["p_f2"]
    t = minkowski_dot(pi1 - pf1, pi1 - pf1)
    u = minkowski_dot(pi1 - pf2, pi1 - pf2)
    P = {k: slash(v) + m * I4 for k, v in
         (("i1", pi1), ("i2", pi2), ("f1", pf1), ("f2", pf2))}
    tt = uu = tu = 0.0 + 0.0j
    for mu in range(4):
        for nu in range(4):
            tt += (_tr(P["f1"], GAMMA[mu], P["i1"], GAMMA[nu])
                   * _tr(P["f2"], _gl(mu), P["i2"], _gl(nu)))
            uu += (_tr(P["f2"], GAMMA[mu], P["i1"], GAMMA[nu])
                   * _tr(P["f1"], _gl(mu), P["i2"], _gl(nu)))
            tu += _tr(P["f1"], GAMMA[mu], P["i1"], GAMMA[nu],
                      P["f2"], _gl(mu), P["i2"], _gl(nu))
    return float(np.real(e2 * e2 / 4.0
                         * (tt / t ** 2 + uu / u ** 2
                            - 2.0 * np.real(tu) / (t * u))))


def bhabha_trace_m2(cfg, alpha):
    """Spin-averaged Bhabha |M|^2; positron legs use (pslash - m)."""
    e2 = 4.0 * math.pi * alpha
    m = cfg.mass
    pim, pfm = cfg.momenta["p_i_minus"], cfg.momenta["p_f_minus"]
    pip, pfp = cfg.momenta["p_i_plus"], cfg.momenta["p_f_plus"]
    t = minkowski_dot(pim - pfm, pim - pfm)
    s = minkowski_dot(pim + pip, pim + pip)
    Em = slash(pim) + m * I4
    Fm = slash(pfm) + m * I4
    Ep = slash(pip) - m * I4
    Fp = slash(pfp) - m * I4
    tt = ss = ts = 0.0 + 0.0j
    for mu in range(4):
        for nu in range(4):
            # scattering: vbar(i+) G v(f+) . ubar(f-) G u(i-)
            tt += (_tr(Ep, GAMMA[mu], Fp, GAMMA[nu])
                   * _tr(Fm, _gl(mu), Em, _gl(nu)))
            # annihilation: ubar(f-) G v(f+) . vbar(i+) G u(i-)
            ss += (_tr(Fm, GAMMA[mu], Fp, GAMMA[nu])
                   * _tr(Ep, _gl(mu), Em, _gl(nu)))
            # interference: single trace over the closed fermion line
            ts += _tr(Ep, GAMMA[mu], Fp, _gl(nu), Fm, _gl(mu),
                      Em, GAMMA[nu])
    return float(np.real(e2 * e2 / 4.0
                         * (tt / t ** 2 + ss / s ** 2
                            - 2.0 * np.real(ts) / (t * s))))


def _coulomb_kinematics(cfg):
    """(p_out, p_in, k, q1, q2, q) of bremsstrahlung e-(p_i) -> e-(p_f)
    gamma(k_f) or of pair production gamma(k_i) -> e-(p_minus)
    e+(p_plus): the barred electron, the spinor end of the open line
    (u(p_i), or v(p_plus)), the photon, the internal fermion momenta of
    the two terms and the static transfer."""
    mom = {lab: v.as_array() for lab, v in cfg.momenta.items()}
    if cfg.process == "bremsstrahlung":
        # ubar(p_f) [eps S(p_f + k) g0 + g0 S(p_i - k) eps] u(p_i)
        p_out, p_in, k = mom["p_f"], mom["p_i"], mom["k_f"]
        return p_out, p_in, k, p_out + k, p_in - k, p_out + k - p_in
    # ubar(p-) [eps S(p- - k) g0 + g0 S(k - p+) eps] v(p+)
    p_out, p_plus, k = mom["p_minus"], mom["p_plus"], mom["k_i"]
    return p_out, p_plus, k, p_out - k, k - p_plus, p_out + p_plus - k


def _fermion_prop(p, m):
    return (slash(p) + m * I4) / (minkowski_dot(p, p) - m * m)


def coulomb_trace_m2(cfg, alpha):
    """Sum over both fermion spins and both photon helicities of |M|^2
    in the static Coulomb field of a charge Z, for bremsstrahlung
    e-(p_i) -> e-(p_f) gamma(k_f) and for pair production
    gamma(k_i) -> e-(p_minus) e+(p_plus): Z^2 e^6 / |q|^4 times the
    trace over the open electron line, with -g_{mu nu} in place of the
    polarization sum (the photon Ward identity makes them equal)."""
    e2 = 4.0 * math.pi * alpha
    m = cfg.mass
    p_out, p_in, k, q1, q2, q = _coulomb_kinematics(cfg)
    sign = 1.0 if cfg.process == "bremsstrahlung" else -1.0
    rho_in = slash(p_in) + sign * m * I4
    g0 = GAMMA[0]
    total = 0.0 + 0.0j
    for mu in range(4):
        vertex = (GAMMA[mu] @ _fermion_prop(q1, m) @ g0
                  + g0 @ _fermion_prop(q2, m) @ GAMMA[mu])
        total -= _METRIC[mu, mu] * _tr(slash(p_out) + m * I4, vertex, rho_in,
                                       g0 @ vertex.conj().T @ g0)
    q_sq = np.sum(q[1:] ** 2)
    return float(np.real(cfg.Z ** 2 * e2 ** 3 / q_sq ** 2 * total))


GAMMA5 = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]


def spin_vector(p, m):
    """The spin four-vector of the spinor built on chi_up at p: the
    rest-frame z axis under the pure boost to p, (p_z/m, z-hat
    + p_z p/(m (E + m)))."""
    E, pz = p[0], p[3]
    return np.array([pz / m, 0.0, 0.0, 1.0]) + np.concatenate(
        [[0.0], pz * p[1:] / (m * (E + m))])


def u_projector(p, m, slot):
    """u ubar = (pslash + m)(1 + gamma5 sslash)/2 at p for the spin slot
    (0 spin up, 1 down along the rest-frame z axis; Berestetskii,
    Lifshitz and Pitaevskii section 29), with u-bar u = 2m."""
    s = (1.0 - 2.0 * slot) * spin_vector(p, m)
    return (slash(p) + m * I4) @ (I4 + GAMMA5 @ slash(s)) / 2.0


def v_projector(p, m, slot):
    """v vbar of the spin slot at p, v = P u with P the permutation
    _V_ORDER: v vbar = P (u ubar) gamma^0 P^T gamma^0. In the
    Dirac-Pauli representation P is gamma5, which makes this
    (pslash - m)(1 - gamma5 sslash)/2: the u slot's spin reversed."""
    perm = np.eye(4)[_V_ORDER]
    return perm @ u_projector(p, m, slot) @ GAMMA[0] @ perm.T @ GAMMA[0]


def helicity_vector(k, slot):
    """A circular polarization four-vector of the photon k, up to its
    phase: (0, e1 + i e2)/sqrt2 for slot 0 (helicity plus), its
    conjugate for slot 1, with (e1, e2, k-hat) right-handed; e1 comes
    from the coordinate axis least along k-hat, by Gram-Schmidt."""
    khat = k[1:] / np.linalg.norm(k[1:])
    axis = np.eye(3)[np.argmin(np.abs(khat))]
    e1 = axis - (axis @ khat) * khat
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    eps = np.concatenate([[0.0], e1 + 1j * e2]) / math.sqrt(2.0)
    return eps.conj() if slot else eps


def coulomb_slot_m2(cfg, alpha, slots=(0, 0, 0)):
    """|M|^2 of one helicity amplitude of bremsstrahlung or pair
    production, slots in the amplitude's axis order (the barred
    electron, the spinor-end fermion, the photon): coulomb_trace_m2's
    trace with each (pslash +- m) replaced by its spin projector and
    -g_{mu nu} by eps_mu eps*_nu of the photon's slot, conjugated for
    an emitted photon."""
    e2 = 4.0 * math.pi * alpha
    m = cfg.mass
    p_out, p_in, k, q1, q2, q = _coulomb_kinematics(cfg)
    if cfg.process == "bremsstrahlung":
        rho_in = u_projector(p_in, m, slots[1])
        eps = helicity_vector(k, slots[2]).conj()
    else:
        rho_in = v_projector(p_in, m, slots[1])
        eps = helicity_vector(k, slots[2])
    g0 = GAMMA[0]
    vertex = (slash(eps) @ _fermion_prop(q1, m) @ g0
              + g0 @ _fermion_prop(q2, m) @ slash(eps))
    total = _tr(u_projector(p_out, m, slots[0]), vertex, rho_in,
                g0 @ vertex.conj().T @ g0)
    q_sq = np.sum(q[1:] ** 2)
    return float(np.real(cfg.Z ** 2 * e2 ** 3 / q_sq ** 2 * total))


def compton_slot_m2(cfg, alpha, slots=(0, 0, 0, 0)):
    """|M|^2 of one helicity amplitude of Compton scattering e-(p_i)
    gamma(k_i) -> e-(p_f) gamma(k_f) or of pair annihilation e-(p_minus)
    e+(p_plus) -> gamma(k_i) gamma(k_f), slots in the amplitude's axis
    order (the barred fermion, the spinor-end electron, k_i, k_f): the
    single-line trace of coulomb_slot_m2 with two photon vertices, eps_1
    S(q_1) eps_2 + eps_2 S(q_2) eps_1, each photon's eps conjugated where
    it is emitted and the positron's v projector at the barred end."""
    e2 = 4.0 * math.pi * alpha
    m = cfg.mass
    mom = {lab: v.as_array() for lab, v in cfg.momenta.items()}
    k_i, k_f = mom["k_i"], mom["k_f"]
    if cfg.process == "compton":
        # ubar(p_f) [eps_f* S(p_i + k_i) eps_i + eps_i S(p_i - k_f)
        # eps_f*] u(p_i)
        p_in = mom["p_i"]
        rho_out = u_projector(mom["p_f"], m, slots[0])
        eps_i = helicity_vector(k_i, slots[2])
        q1 = p_in + k_i
    else:
        # vbar(p+) [eps_f* S(p- - k_i) eps_i* + eps_i* S(p- - k_f)
        # eps_f*] u(p-)
        p_in = mom["p_minus"]
        rho_out = v_projector(mom["p_plus"], m, slots[0])
        eps_i = helicity_vector(k_i, slots[2]).conj()
        q1 = p_in - k_i
    eps_f = helicity_vector(k_f, slots[3]).conj()
    g0 = GAMMA[0]
    vertex = (slash(eps_f) @ _fermion_prop(q1, m) @ slash(eps_i)
              + slash(eps_i) @ _fermion_prop(p_in - k_f, m) @ slash(eps_f))
    total = _tr(rho_out, vertex, u_projector(p_in, m, slots[1]),
                g0 @ vertex.conj().T @ g0)
    return float(np.real(e2 * e2 * total))


def gauss_pi_bar(k2, mass=1.0, alpha=None, nodes=640):
    """Pi_bar by fixed high-order Gauss-Legendre quadrature.

    Subdivides at the log-argument roots above threshold, and at x = 1/2
    at and below it, where the log argument 1 - r x (1 - x) is smallest
    and nearly vanishes just below threshold (the nodes cluster at an
    end point, where they resolve that near-singularity); used as the
    refined-quadrature oracle (spacelike and timelike)."""
    from fqed.constants import ALPHA_DEFAULT
    if alpha is None:
        alpha = ALPHA_DEFAULT
    r = k2 / (mass * mass)
    x, w = np.polynomial.legendre.leggauss(nodes)
    cuts = [0.0, 0.5, 1.0]
    if r > 4.0:
        s = math.sqrt(1.0 - 4.0 / r)
        cuts = [0.0, 0.5 * (1.0 - s), 0.5 * (1.0 + s), 1.0]
    total = 0.0 + 0.0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = 0.5 * (b - a) * x + 0.5 * (a + b)
        args = 1.0 - r * xs * (1.0 - xs)
        logs = np.where(args > 0, np.log(np.abs(args)),
                        np.log(np.abs(args)) + 1j * math.pi)
        total += 0.5 * (b - a) * np.sum(w * xs * (1.0 - xs) * logs)
    return complex(-(2.0 * alpha / math.pi) * total)


def smeared_shift_imag(E_levels, d, currents, k_max, alpha,
                       sigma=1e-4, n=400001):
    """Imaginary part of the level shift with the delta shells replaced
    by narrow Gaussians, integrated on a dense uniform grid. Each current
    is a table (k nodes, J (4, n)), interpolated linearly on the grid."""
    e2 = 4.0 * math.pi * alpha
    ks = np.linspace(1e-12, k_max, n)
    E_d = E_levels[d]
    total = 0.0
    for b, E_b in E_levels.items():
        if b == d or (d, b) not in currents and (b, d) not in currents:
            continue
        nodes, J = currents.get((d, b), currents.get((b, d)))
        E = E_d - E_b
        j = np.array([np.interp(ks, nodes, comp)
                      for comp in np.asarray(J, dtype=complex)])
        c = np.real(j[0] * np.conj(j[0])
                    - np.sum(j[1:] * np.conj(j[1:]), axis=0))
        gauss = lambda x: np.exp(-x * x / (2 * sigma * sigma)) / (
            sigma * math.sqrt(2 * math.pi))
        integrand = (ks * ks * (math.pi / (2 * ks))
                     * (gauss(E - ks) - gauss(E + ks)) * c)
        total += (e2 / math.pi) * np.trapezoid(integrand, ks)
    return total


def interpolated_current(currents, row, col):
    """k -> J^mu_{row,col}(k) of a spectrum's (k nodes, J (4, n)) tables,
    interpolated linearly with Re and Im apart; conjugated when the table
    is stored for the reversed pair, and zero when neither order is."""
    if (row, col) in currents:
        (ks, J), sign = currents[(row, col)], 1.0
    elif (col, row) in currents:
        (ks, J), sign = currents[(col, row)], -1.0
    else:
        return lambda k: np.zeros(4, dtype=complex)
    J = np.asarray(J, dtype=complex)
    return lambda k: np.array([np.interp(k, ks, c.real)
                               + sign * 1j * np.interp(k, ks, c.imag)
                               for c in J])


# -- the level shift, pair by pair -----------------------------------------
# Every (d, b) pair in a Python loop, each table conjugated for the
# reversed pair, read by np.interp and integrated on its own breakpoints;
# loops.energy_shifts, which batches the pairs by node grid, is held to
# it bit for bit.

def _pair_contract(u, v):
    uv = u * np.conj(v)
    return uv[0] - uv[1] - uv[2] - uv[3]


def _pair_table(spec, row, col):
    for key, conj in (((row, col), False), ((col, row), True)):
        if key in spec.currents:
            ks, J = spec.currents[key]
            J = np.asarray(J, dtype=complex)
            return np.asarray(ks, dtype=float), J.conj() if conj else J
    return None


def _pair_interp(x, table):
    ks, J = table
    return np.array([np.interp(x, ks, comp) for comp in J])


def _pair_breakpoints(k_max, tables):
    inner = [ks[(ks > 0.0) & (ks < k_max)] for ks, _ in tables]
    x = np.unique(np.concatenate([[0.0, k_max], *inner]))
    return x, [_pair_interp(x, table) for table in tables]


def _pair_static(k_max, t_dd, t_bb):
    x, (f, g) = _pair_breakpoints(k_max, (t_dd, t_bb))
    f0, f1, g0, g1 = f[:, :-1], f[:, 1:], g[:, :-1], g[:, 1:]
    seg = (2.0 * _pair_contract(f0, g0) + _pair_contract(f0, g1)
           + _pair_contract(f1, g0) + 2.0 * _pair_contract(f1, g1))
    return float(np.sum(np.diff(x) * seg.real)) / 6.0


def _pair_pv(k_max, table, poles):
    x, (f,) = _pair_breakpoints(k_max, (table,))
    x0, x1, w = x[:-1], x[1:], np.diff(x)
    xm = 0.5 * (x0 + x1)
    Jm, D = 0.5 * (f[:, :-1] + f[:, 1:]), np.diff(f, axis=1)
    c0 = _pair_contract(Jm, Jm).real
    c1 = 2.0 * _pair_contract(Jm, D).real
    c2 = _pair_contract(D, D).real
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


def _log_abs(x):
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = np.log(np.abs(x[nz]))
    return out


_MOMENTS = np.array([0.5 ** m / (m + 1) if m % 2 == 0 else 0.0
                     for m in range(44)])
_MOMENT_TABLE = _MOMENTS[np.arange(40)[:, None] + np.arange(4)]


def per_pair_shifts(spec, levels, alpha=ALPHA_DEFAULT):
    """Delta E_d of the levels d, pair by pair: static, shell and -PV
    terms of each b in turn, the PV sum of a stored pair computed once
    and shared by its two levels."""
    pref = 4.0 * math.pi * alpha / math.pi
    pv_sums = {}
    shifts = []
    for d in levels:
        if d not in spec.levels:
            raise DomainError(f"unknown level: {d}")
        t_dd = _pair_table(spec, d, d)
        total = 0.0 + 0.0j
        for b, E_b in spec.levels.items():
            t_bb = _pair_table(spec, b, b)
            static = (0.0 if t_dd is None or t_bb is None
                      else _pair_static(spec.k_max, t_dd, t_bb))
            total += pref * static
            table = None if b == d else _pair_table(spec, d, b)
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
            J_E = _pair_interp(abs(E), table)
            shell = 0.5j * math.pi * abs(E) * _pair_contract(J_E, J_E).real
            if E < 0.0:
                shell = -shell
            total += pref * shell
            key = (d, b) if (d, b) in spec.currents else (b, d)
            if key not in pv_sums:
                pv_sums[key] = complex(np.sum(
                    _pair_pv(spec.k_max, table, (-E, E))))
            total += pref * -pv_sums[key]
        shifts.append(total)
    return shifts


def table_text(config, fmt, table):
    """The bytes of a CLI table by whole-row formulas: each row's cells
    joined by commas, or json.dumps of one dict per row."""
    rows = list(zip(*(np.asarray(v).tolist() for v in table.values())))
    if fmt == "csv":
        return "\n".join([",".join(table)]
                         + [",".join(map(str, r)) for r in rows]) + "\n"
    return json.dumps({"config": config,
                       "rows": [dict(zip(table, r)) for r in rows]},
                      indent=1) + "\n"


def field_rhs_complex(cliff, field, x, p, z):
    """(dx, dp, dz) in an external field in complex arithmetic: v^mu =
    Re z^dag mats^mu z (mats = cliff^0 cliff^mu for the electron, cliff
    for the photon), dp^mu = -e v^nu dA_nu/dx^mu with the index raised,
    dz = -i cliff^mu (p - e A)_mu z."""
    mats = cliff[0] @ cliff if len(z) == 4 else cliff
    xv = np.asarray(x, dtype=float)
    kin = p - field.charge * np.asarray(field.A(xv), dtype=float)
    gen = -1j * sum(_METRIC[mu, mu] * kin[mu] * cliff[mu] for mu in range(4))
    v = np.real(np.einsum("i,mij,j->m", z.conj(), mats, z))
    da = np.asarray(field.grad(xv), dtype=float)
    return v, -field.charge * (da @ v) * np.diag(_METRIC), gen @ z


def rk4_field_complex(cliff, x, p, z, field, n, dt):
    """n RK4 steps in an external field in complex arithmetic, one
    (dx, dp, dz) tuple per stage: (xs, ps, zs), with NaN rows after the
    first non-finite state, as the packed real loop must give them."""

    def rhs(x, p, z):
        return field_rhs_complex(cliff, field, x, p, z)

    xs = np.full((n + 1, 4), np.nan)
    ps = np.full((n + 1, 4), np.nan)
    zs = np.full((n + 1, len(z)), np.nan, dtype=complex)
    xs[0], ps[0], zs[0] = x, p, z
    for i in range(1, n + 1):
        try:
            v1, q1, k1 = rhs(x, p, z)
            v2, q2, k2 = rhs(x + 0.5 * dt * v1, p + 0.5 * dt * q1,
                             z + 0.5 * dt * k1)
            v3, q3, k3 = rhs(x + 0.5 * dt * v2, p + 0.5 * dt * q2,
                             z + 0.5 * dt * k2)
            v4, q4, k4 = rhs(x + dt * v3, p + dt * q3, z + dt * k3)
        except DomainError:
            break
        x = x + dt / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        p = p + dt / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        z = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i], ps[i], zs[i] = x, p, z
        if not (np.isfinite(x).all() and np.isfinite(p).all()
                and np.isfinite(z).all()):
            break
    return xs, ps, zs


def exact_free_photon(eta0, k, x0, taus):
    """(eta(tau), x(tau)) of free photon motion at constant momentum k:
    eta = exp(-i sigma^mu k_mu tau) eta0, expanded on the eigenvectors of
    the Hermitian sigma^mu k_mu, and x = x0 + the exact integral of the
    velocity eta^dag sigma^mu eta, whose terms go as e^{i (l_j - l_k) tau}."""
    lam, vec = np.linalg.eigh(sum(_METRIC[mu, mu] * k[mu] * SIGMA[mu]
                                  for mu in range(4)))
    c = vec.conj().T @ eta0
    modes = c[None, :] * np.exp(-1j * np.outer(taus, lam))    # (n, 2)
    xs = np.tile(np.asarray(x0, dtype=float), (len(taus), 1))
    for j in range(2):
        for l in range(2):
            amp = np.einsum("i,mij,j->m", vec[:, j].conj(), SIGMA, vec[:, l])
            d = lam[j] - lam[l]
            w = (taus if abs(d) < 1e-12
                 else (np.exp(1j * d * taus) - 1.0) / (1j * d))
            xs += np.real(np.outer(w * c[j].conj() * c[l], amp))
    return modes @ vec.T, xs
