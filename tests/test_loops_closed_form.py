"""Oracle tests for the closed-form one-loop layer.

References are 50-digit mpmath quadratures of the defining
Feynman-parameter integrals, and for energy shifts a 20-digit mpmath
quadrature of the kernel split at the table nodes and the poles, on
currents that oracles.interpolated_current interpolates.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fqed import cli, loops
from fqed.constants import ALPHA_DEFAULT
from fqed.errors import DomainError, SingularityError

DPS = 50
# split points that resolve log singularities sitting at or next to an
# endpoint at any scale down to 1e-16
_GEOMETRIC = [mp.mpf(10) ** -k for k in range(16, 0, -1)]


def mp_pi_bar(k2):
    """Pi_bar(k2) from the x-integral, branch log(-|r|) = log|r| + i pi."""
    with mp.workdps(DPS):
        r = mp.mpf(k2)
        half = mp.mpf(1) / 2
        f = lambda x: x * (1 - x) * mp.log(abs(1 - r * x * (1 - x)))
        points, im = [0, half, 1], mp.mpf(0)
        if r > 4:
            s = mp.sqrt(1 - 4 / r)
            x1, x2 = (1 - s) / 2, (1 + s) / 2
            points = [0, x1, half, x2, 1]
            im = mp.pi * mp.quad(lambda x: x * (1 - x), [x1, x2])
        re = mp.quad(f, points)
        c = -2 * mp.mpf(ALPHA_DEFAULT) / mp.pi
        return complex(c * re), complex(c * im)


def mp_ab(p2):
    """(a, b) of the self energy at unit mass from the z-integrals,
    branch log G = log|G| - i pi; as 50-digit mpc values."""
    with mp.workdps(DPS):
        r = mp.mpf(p2)
        logG = lambda z: mp.log(abs(1 - r * (1 - z)))
        points = [mp.mpf(0)] + _GEOMETRIC + [mp.mpf(1)]
        im1 = im2 = mp.mpf(0)
        if r > 1:
            z0 = 1 - 1 / r
            points = sorted(set(points + [z0]))
            im1 = -mp.pi * (z0 - z0 * z0 / 2)
            im2 = -mp.pi * z0
        i1 = mp.mpc(mp.quad(lambda z: (1 - z) * logG(z), points), im1)
        i2 = mp.mpc(mp.quad(logG, points), im2)
        L = mp.log(4 * mp.pi) - mp.euler
        c = mp.mpf(ALPHA_DEFAULT) / (2 * mp.pi)
        a = c * (L - 2 * i2)
        b = c * ((mp.mpf(1) / 2 + i1) + mp.mpf(3) / 8 - L / 4)
        return a, b


def assert_close(got, want, rtol):
    got, want = complex(got), complex(want)
    assert abs(got - want) <= rtol * abs(want), (got, want)


class TestPiBarOracle:

    @settings(max_examples=25)
    @given(st.floats(-60.0, -0.001))
    def test_spacelike(self, k2):
        re, im = mp_pi_bar(k2)
        assert_close(loops.vacuum_polarization_finite(k2), re, 1e-12)

    @settings(max_examples=25)
    @given(st.floats(0.001, 3.999))
    def test_below_threshold(self, k2):
        re, im = mp_pi_bar(k2)
        val = loops.vacuum_polarization_finite(k2)
        assert val.imag == 0.0
        assert_close(val, re, 1e-12)

    @settings(max_examples=25)
    @given(st.floats(4.001, 60.0))
    def test_above_threshold(self, k2):
        re, im = mp_pi_bar(k2)
        assert_close(loops.vacuum_polarization_finite(k2), re + 1j * im,
                     1e-12)

    @settings(max_examples=15)
    @given(st.floats(-1e-6, 1e-6))
    def test_at_threshold(self, eps):
        k2 = 4.0 + eps
        re, im = mp_pi_bar(k2)
        val = loops.vacuum_polarization_finite(k2)
        assert_close(val, re + 1j * im, 1e-12)
        assert (val.imag < 0.0) == (k2 > 4.0)

    @pytest.mark.parametrize("r", [-1.0, 1.0])
    def test_series_switch_is_continuous(self, r):
        """|r| < 1 runs the power series, |r| >= 1 the closed form."""
        inside = np.nextafter(r, 0.0)
        for k2 in (r, inside):
            assert_close(loops.vacuum_polarization_finite(k2),
                         mp_pi_bar(k2)[0], 1e-13)
        assert_close(loops.vacuum_polarization_finite(inside),
                     loops.vacuum_polarization_finite(r), 1e-13)

    def test_mass_scaling(self):
        # Pi_bar depends on k2/m^2 only
        assert_close(loops.vacuum_polarization_finite(9.0, mass=1.5),
                     loops.vacuum_polarization_finite(4.0), 1e-15)


class TestSelfEnergyOracle:

    @settings(max_examples=25)
    @given(st.floats(-0.6, 0.6))
    def test_near_zero_momentum(self, p2):
        a, b = loops.self_energy_ab(p2)
        wa, wb = mp_ab(p2)
        assert_close(a, wa, 1e-12)
        assert_close(b, wb, 1e-12)

    @pytest.mark.parametrize("p2", [1.0 - 1e-6, 1.0 + 1e-6, 0.5, -0.5,
                                    -3.0, 2.0, 5.0])
    def test_fixed_points(self, p2):
        a, b = loops.self_energy_ab(p2)
        wa, wb = mp_ab(p2)
        assert_close(a, wa, 1e-12)
        assert_close(b, wb, 1e-12)

    def test_matrix_from_kernel(self):
        from fqed.algebra import I4, slash
        from fqed.fourvec import FourVector
        p = FourVector(1.3, 0.2, -0.4, 0.1)
        a, b = loops.self_energy_ab(float(p.norm2()))
        om = loops.self_energy(p).finite
        assert np.array_equal(om, a * I4 + b * slash(p))

    def test_shell_in_batch_rejected(self):
        with pytest.raises(SingularityError):
            loops.self_energy_ab(np.array([0.5, 1.0, 2.0]))

    def test_near_shell_log_coefficient_exact(self):
        """The a + lambda b scalar (pslash = lambda) near the shell is
        A + B (lambda - 1) + C (lambda - 1) log delta + O(delta^2 log
        delta); three 50-digit points fix C, which the closed form's
        expansion (self_energy_near_shell docstring) puts at exactly
        -alpha/pi."""
        with mp.workdps(DPS):
            rows, ys = [], []
            for delta in (mp.mpf("1e-12"), mp.mpf("2e-12"), mp.mpf("4e-12")):
                lam = mp.sqrt(1 - delta)
                a, b = mp_ab(1 - delta)
                rows.append([1, lam - 1, (lam - 1) * mp.log(delta)])
                ys.append(mp.re(a + lam * b))
            C = mp.lu_solve(mp.matrix(rows), mp.matrix(ys))[2]
            target = -mp.mpf(ALPHA_DEFAULT) / mp.pi
            assert abs(C - target) <= mp.mpf("1e-10") * abs(target)


class TestBatchOfOne:

    @settings(max_examples=20)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
    def test_vacuum_polarization(self, k2s):
        batch = loops.vacuum_polarization_finite(np.array(k2s))
        assert batch.shape == (len(k2s),)
        for k2, v in zip(k2s, batch):
            one = loops.vacuum_polarization_finite(k2)
            assert isinstance(one, complex)
            assert abs(v - one) <= 1e-14 * abs(one)

    @settings(max_examples=20)
    @given(st.lists(st.floats(-5.0, 6.0).filter(
        lambda x: abs(x - 1.0) > 1e-9), min_size=1, max_size=40))
    def test_self_energy(self, p2s):
        a, b = loops.self_energy_ab(np.array(p2s))
        for p2, av, bv in zip(p2s, a, b):
            a1, b1 = loops.self_energy_ab(p2)
            assert isinstance(a1, complex) and isinstance(b1, complex)
            assert abs(av - a1) <= 1e-14 * abs(a1)
            assert abs(bv - b1) <= 1e-14 * abs(b1)


def _mdot(J, K):
    return J[0] * np.conj(K[0]) - J[1:] @ np.conj(K[1:])


def mp_shift(spec, d):
    """Delta E_d by 20-digit tanh-sinh quadrature of the kernel, split
    at every table node and at the poles, so that every piece is
    smooth; the principal value subtracts the residue at the pole."""
    k_max = spec.k_max
    nodes = {0.0, k_max}
    for ks, _ in spec.currents.values():
        nodes |= {float(k) for k in ks if 0.0 < k < k_max}
    current = oracles.interpolated_current
    with mp.workdps(20):
        pref = 4 * mp.mpf(ALPHA_DEFAULT)
        J_dd = current(spec.currents, d, d)
        total = mp.mpc(0)
        for b, E_b in spec.levels.items():
            J_bb = current(spec.currents, b, b)
            total += pref * mp.quad(
                lambda k: _mdot(J_dd(float(k)), J_bb(float(k))).real,
                sorted(nodes))
            if b == d or {(d, b), (b, d)}.isdisjoint(spec.currents):
                continue
            E = spec.levels[d] - E_b
            J = current(spec.currents, d, b)
            half = lambda k: 0.5 * float(k) * _mdot(J(float(k)),
                                                    J(float(k))).real
            shell = _mdot(J(abs(E)), J(abs(E))).real
            total += pref * 0.5j * mp.pi * E * shell
            for a in (-E, E):
                if not 0.0 < a < k_max:
                    total -= pref * mp.quad(lambda k: half(k) / (a - k),
                                            sorted(nodes))
                    continue
                ha = half(a)
                pv = mp.quad(lambda k: (half(k) - ha) / (a - k)
                             if k != a else 0, sorted(nodes | {a}))
                total -= pref * (pv + ha * mp.log(a / (k_max - a)))
        return complex(total)


def _assert_shifts_agree(spec, reference, rtol=1e-10):
    for d in spec.levels:
        exact = loops.energy_shift(spec, d)
        ref = reference(spec, d)
        assert abs(exact - ref) <= rtol * abs(ref), (d, exact, ref)


def _draw_table(draw, last):
    """A current on a random number of nodes in [0, last], real or
    complex."""
    value = st.floats(-0.3, 0.3)
    n = draw(st.integers(1, 6))
    ks = np.sort(np.concatenate([[0.0], draw(st.lists(
        st.floats(0.05, last), min_size=n, max_size=n, unique=True))]))
    re = np.array(draw(st.lists(value, min_size=4 * len(ks),
                                max_size=4 * len(ks)))).reshape(4, -1)
    im = 0.0
    if draw(st.booleans()):
        im = np.array(draw(st.lists(value, min_size=4 * len(ks),
                                    max_size=4 * len(ks)))).reshape(4, -1)
    return ks, re + 1j * im


@st.composite
def tabulated_spectra(draw):
    """Two or three levels, with k_max beyond the last node or inside
    the table. Each diagonal current is present or missing; each
    transition pair is stored as (d, b), as (b, d) or in both orders,
    with a table of its own per order."""
    n_levels = draw(st.integers(2, 3))
    energies = [1.0, 0.62, 0.25][:n_levels]
    labels = [f"L{i}" for i in range(n_levels)]
    last = draw(st.floats(1.5, 4.0))
    k_max = draw(st.sampled_from([last + 1.0, 0.5 * (1.0 + last)]))
    currents = {}
    for i, a in enumerate(labels):
        if draw(st.booleans()):
            currents[(a, a)] = _draw_table(draw, last)
        for b in labels[i + 1:]:
            for key in draw(st.sampled_from([[(a, b)], [(b, a)],
                                             [(a, b), (b, a)]])):
                currents[key] = _draw_table(draw, last)
    return loops.SpectrumInput(dict(zip(labels, energies)), currents, k_max)


class TestTabulatedShift:

    @settings(max_examples=12)
    @given(tabulated_spectra())
    def test_random_tables_against_mpmath(self, spec):
        _assert_shifts_agree(spec, mp_shift)

    @pytest.mark.parametrize("k_max", [5.0, 6.5, 3.7])
    def test_loop_scan_like_spectrum(self, k_max):
        """The benchmark's kinked three-level profile, with k_max at,
        beyond and inside the last node."""
        ks = np.array([0.0, 2.5, 5.0])
        profile = np.array([(0.0, 0.20, 0.05, 0.00), (0.0, 0.22, 0.02, 0.08),
                            (0.0, 0.05, 0.01, 0.01)]).T
        levels = {"L0": 1.6, "L1": 1.0, "L2": 0.45}
        currents = {("L0", "L1"): (ks, 0.8 * profile),
                    ("L0", "L2"): (ks, 1.1 * profile),
                    ("L1", "L2"): (ks, 1.3 * profile)}
        spec = loops.SpectrumInput(levels, currents, k_max)
        _assert_shifts_agree(spec, mp_shift, 1e-13)

    @pytest.mark.parametrize("offset", [0.0, 1e-7, -1e-9])
    def test_pole_on_or_next_to_node(self, offset):
        levels = {"d": 1.0, "b": 0.7}
        E = levels["d"] - levels["b"]
        ks = np.array([0.0, 0.1, E + offset, 2.0, 3.5])
        J = np.array([[0.0, 0.01, 0.03, 0.0, 0.02],
                      [0.2, 0.25, 0.1, 0.3, 0.05],
                      [0.0, 0.1j, 0.02, -0.1, 0.0],
                      [0.05, 0.0, 0.2, 0.1, 0.1]])
        spec = loops.SpectrumInput(levels, {("d", "b"): (ks, J),
                                            ("d", "d"): (ks, 0.5 * J)}, 3.0)
        val = loops.energy_shift(spec, "d")
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        _assert_shifts_agree(spec, mp_shift, 1e-13)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_short_segment_far_pole(self, gap):
        """Two close nodes far from both poles: the closed form's terms
        cancel there and the series takes over."""
        ks = np.array([0.0, 0.9, 1.43, 1.43 + gap, 2.3])
        J = np.array([[0.07, -0.25, 0.0, 0.1, 0.02],
                      [-0.13, 0.0, 0.3j, -0.2, 0.1],
                      [0.0, 0.14, -0.22, 0.05j, 0.0],
                      [-0.3, 0.18, -0.07, 0.2, 0.1]])
        spec = loops.SpectrumInput({"d": 1.0, "b": 0.62},
                                   {("d", "b"): (ks, J)}, 2.8)
        _assert_shifts_agree(spec, mp_shift, 1e-13)

    @settings(max_examples=60)
    @given(tabulated_spectra())
    @example(loops.SpectrumInput(
        {"d": 1.0, "b": 0.4},
        {("d", "b"): (np.array([0.0, 2.0]),
                      np.array([[0.1j, 0.0], [0.2, 0.1 + 0.1j], [0.0, 0.0],
                                [0.0, 0.05]]))}, 3.0))
    def test_reversed_pair_is_conjugated(self, spec):
        """Every shift keeps its bits when each transition pair (a, b)
        is restated as (b, a) with the conjugated table: every term
        reads Re J.J^*, which conjugation keeps. A pair stored in both
        orders is two currents, and stays as it is."""
        restated = {}
        for (a, b), (ks, J) in spec.currents.items():
            if (b, a) in spec.currents:
                restated[(a, b)] = ks, J
            else:
                restated[(b, a)] = ks, np.conj(J)
        levels = sorted(spec.levels)
        rev = loops.SpectrumInput(spec.levels, restated, spec.k_max)
        assert (_hex(loops.energy_shifts(rev, levels))
                == _hex(loops.energy_shifts(spec, levels)))


def _hex(shifts):
    return [(v.real.hex(), v.imag.hex()) for v in shifts]


class TestOnePass:
    """energy_shifts computes all levels in one pass and shares work
    between the two levels of a stored pair; every value must still be
    bit for bit the one of a call for that level alone."""

    @settings(max_examples=60)
    @given(tabulated_spectra())
    def test_equals_per_level_bit_for_bit(self, spec):
        levels = sorted(spec.levels)
        together = _hex(loops.energy_shifts(spec, levels))
        assert together == _hex([loops.energy_shift(spec, d)
                                 for d in levels])
        # a missing diagonal current adds exactly what a zero table does
        zero = (np.zeros(1), np.zeros((4, 1), dtype=complex))
        explicit = loops.SpectrumInput(
            spec.levels, {(d, d): zero for d in levels} | spec.currents,
            spec.k_max)
        assert _hex(loops.energy_shifts(explicit, levels)) == together

    @pytest.mark.parametrize("levels, currents, k_max, extra", [
        # a label that is not a level, sorted before a failing one
        ({"a": 1.0, "b": 0.7, "c": 0.2}, [("a", "b"), ("b", "c")], 0.4,
         "0"),
        # degenerate b and c: b fails first, naming b before c
        ({"a": 1.0, "b": 0.7, "c": 0.7}, [("a", "b"), ("c", "b")], 5.0,
         None),
        # k_max below the a-c transition: a fails first
        ({"a": 2.0, "b": 1.0, "c": 0.2}, [("a", "b"), ("b", "c"),
                                          ("c", "a")], 1.5, None),
    ], ids=["unknown-level", "degenerate", "k-max"])
    def test_error_parity(self, capsys, tmp_path, levels, currents, k_max,
                          extra):
        """The all-level call fails as the first failing level does when
        the levels are evaluated one by one in sorted order, and the
        command exits 2 with no rows."""
        ks = np.array([0.0, 5.0])
        J = np.array([[0.0, 0.0], [0.2, 0.1], [0.0, 0.05], [0.0, 0.0]])
        spec = loops.SpectrumInput(levels, {key: (ks, J) for key in currents},
                                   k_max)
        order = sorted([*levels] + ([extra] if extra else []))
        first = None
        for d in order:
            try:
                loops.energy_shift(spec, d)
            except DomainError as exc:
                first = exc
                break
        assert first is not None
        with pytest.raises(DomainError) as info:
            loops.energy_shifts(spec, order)
        assert type(info.value) is type(first)
        assert str(info.value) == str(first)
        path = tmp_path / "levels.txt"
        path.write_text("[levels]\n" + "".join(
            f"{lab} {E!r}\n" for lab, E in levels.items()) + "".join(
            f"[current {a} {b}]\n0.0 0.0 0.2 0.0 0.0\n5.0 0.0 0.1 0.05 0.0\n"
            for a, b in currents))
        argv = ["energy-shift", "--spectrum", str(path), "--k-max", str(k_max)]
        assert cli.run(argv + (["--level", extra] if extra else [])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: {first}\n"
