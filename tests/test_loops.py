import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fqed import loops
from fqed.algebra import GAMMA, I4, slash
from fqed.constants import ALPHA_DEFAULT
from fqed.errors import (DegenerateLevelError, DomainError,
                         SingularityError)
from fqed.fourvec import METRIC_DIAG, FourVector

METRIC = np.diag(METRIC_DIAG)


def polarization_tensor(k):
    """The transverse tensor (g^{mu nu} k^2 - k^mu k^nu) Pi_bar(k^2) of the
    four-vector k, from the library's scalar Pi_bar."""
    karr = k.as_array()
    k2 = float(k.norm2())
    return ((METRIC * k2 - np.outer(karr, karr))
            * loops.vacuum_polarization_finite(k2))


def positronium_insertion():
    """The vacuum-polarization insertion of the zero-momentum vacuum line:
    the pair-source line carries k = 0, so the transverse tensor vanishes
    and pairs form and annihilate in vacuum with no net contribution.
    The two Sigma^0 vertices contract to the (0, 0) component; the full
    trace is a second zero witness."""
    t = polarization_tensor(FourVector(0.0, 0.0, 0.0, 0.0))
    return complex(t[0, 0] + np.einsum("mn,mn->", METRIC, t))


class TestVacuumPolarization:

    def test_zero_subtraction(self):
        assert abs(loops.vacuum_polarization_finite(0.0)) <= 1e-12

    def test_small_k2_limit(self):
        k2 = 1e-3
        val = loops.vacuum_polarization_finite(k2)
        target = ALPHA_DEFAULT / (15.0 * math.pi) * k2
        assert abs(val.real - target) <= 0.01 * target
        assert val.imag == 0.0

    def test_spacelike_against_refined_quadrature(self):
        for k2 in (-1.0, -4.7, -0.02):
            val = loops.vacuum_polarization_finite(k2)
            oracle = oracles.gauss_pi_bar(k2)
            assert abs(val - oracle) <= 1e-10 * abs(oracle)

    def test_timelike_against_refined_quadrature(self):
        for k2 in (2.0, 6.3, 11.0):
            val = loops.vacuum_polarization_finite(k2)
            oracle = oracles.gauss_pi_bar(k2)
            assert abs(val - oracle) <= 1e-6 * abs(oracle)

    @staticmethod
    def mp_pi_bar(k2):
        """Pi_bar(k2) at or below threshold (m = 1) by a 30-digit mpmath
        quadrature of its Feynman-parameter integral, split at x = 1/2."""
        import mpmath as mp
        with mp.workdps(30):
            r = mp.mpf(k2)
            val = mp.quad(lambda x: x * (1 - x) * mp.log(1 - r * x * (1 - x)),
                          [0, mp.mpf(1) / 2, 1])
            return float(-2 * mp.mpf(ALPHA_DEFAULT) / mp.pi * val)

    @settings(max_examples=20, deadline=None)
    @given(k2=st.floats(-7.0, -1.0).map(lambda u: 4.0 - 10.0 ** u))
    @example(k2=3.999936857715431)
    def test_oracle_just_below_threshold_against_mpmath(self, k2):
        """The Gauss-Legendre oracle, at its default nodes and at the
        benchmark gate's 1280, where the log argument nearly vanishes at
        x = 1/2: k2 from 1e-7 to 1e-1 below 4 m^2 (the example is a k2
        that a vacuum-pol sweep reaches)."""
        want = self.mp_pi_bar(k2)
        for nodes in (640, 1280):
            got = oracles.gauss_pi_bar(k2, nodes=nodes)
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-12 * abs(want), nodes

    @settings(max_examples=20, deadline=None)
    @given(k2=st.floats(-15.0, -7.0).map(lambda u: 4.0 - 10.0 ** u))
    def test_oracle_at_threshold_against_mpmath(self, k2):
        """The Gauss-Legendre oracle within 1e-15 to 1e-7 m^2 below
        threshold, where the log's peak at x = 1/2 narrows to a width
        sqrt(1 - k2/4) / 2 that its graded panels resolve; at 640 and
        1280 nodes. In a scan of 4 - k2 from 1e-15 to 1e-7 it read at
        most 6.6e-14 (1280 nodes)."""
        want = self.mp_pi_bar(k2)
        for nodes in (640, 1280):
            got = oracles.gauss_pi_bar(k2, nodes=nodes)
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-12 * abs(want), nodes

    def test_threshold_is_4m2(self):
        grid = np.linspace(1e-3, 4.0 - 1e-3, 50)
        for k2 in grid:
            assert loops.vacuum_polarization_finite(float(k2)).imag == 0.0
        above = loops.vacuum_polarization_finite(4.0001)
        assert above.imag < 0.0

    def test_spacelike_real_and_monotone(self):
        """Pi_bar is real on the spacelike axis and, with the sign fixed
        by the small-k^2 limit, monotone increasing toward zero."""
        grid = np.linspace(-10.0, -0.01, 50)
        vals = [loops.vacuum_polarization_finite(float(k)) for k in grid]
        assert all(v.imag == 0.0 for v in vals)
        assert all(v.real < 0.0 for v in vals)
        assert all(b.real > a.real for a, b in zip(vals, vals[1:]))

    def test_pole_laurent(self):
        pole, finite = loops.vacuum_polarization_pole()
        assert abs(pole - 2.0 * ALPHA_DEFAULT / (3.0 * math.pi)) <= 1e-15
        # finite slot carries the expanded Gamma/(4pi)/m factors
        L = math.log(4.0 * math.pi) - 0.5772156649015329
        assert abs(finite - pole * L / 2.0) <= 1e-15

    def test_subtracted_difference_has_zero_pole(self):
        """Pi_d(k^2) = pole/eps + finite + Pi_bar(k^2): the pole takes
        no k^2 and no mass, so the difference of two values has an
        exactly zero pole; the mass moves only the finite slot, by
        -pole log m."""
        pole, finite = loops.vacuum_polarization_pole()
        pole_m, finite_m = loops.vacuum_polarization_pole(2.5)
        assert pole_m - pole == 0.0
        assert abs(finite_m - finite + pole * math.log(2.5)) <= 1e-15

    def test_x_integral_value(self):
        # int 2x(1-x) dx = 1/3, the pole's Feynman-parameter weight
        import mpmath as mp
        val = float(mp.quad(lambda x: 2 * x * (1 - x), [0, 1]))
        assert abs(val - 1.0 / 3.0) <= 1e-14

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            loops.vacuum_polarization_finite(math.inf)


# each closed form that takes a mass, called with it
MASS_CALLS = {
    "vacuum_polarization_finite":
        lambda m: loops.vacuum_polarization_finite(1.0, m),
    "vacuum_polarization_pole": lambda m: loops.vacuum_polarization_pole(m),
    "self_energy_ab": lambda m: loops.self_energy_ab(0.5, m),
    "self_energy_pole": lambda m: loops.self_energy_pole(m),
    "self_energy_near_shell":
        lambda m: loops.self_energy_near_shell(0.5, m),
}


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", MASS_CALLS)
def test_bad_mass_named(name, mass):
    """A mass that is not finite and > 0 is a DomainError naming it,
    never an inf, a NaN or a math domain error."""
    MASS_CALLS[name](1.0)
    with pytest.raises(DomainError, match="^mass must be finite and > 0"):
        MASS_CALLS[name](mass)


class TestPolarizationTensor:

    def test_transversality(self):
        k = FourVector(0.4, 0.3, -0.2, 0.9)
        t = polarization_tensor(k)
        contracted = (METRIC @ k.as_array()) @ t
        assert np.max(np.abs(contracted)) <= 1e-12

    def test_trace_relation(self):
        k = FourVector(0.4, 0.3, -0.2, 0.9)
        t = polarization_tensor(k)
        tr = np.einsum("mn,mn->", METRIC, t)
        k2 = k.norm2()
        target = 3.0 * k2 * loops.vacuum_polarization_finite(float(k2))
        assert abs(tr - target) <= 1e-12 * max(1.0, abs(target))

    def test_zero_momentum(self):
        t = polarization_tensor(FourVector(0, 0, 0, 0))
        assert np.max(np.abs(t)) == 0.0

    def test_positronium_null(self):
        assert abs(positronium_insertion()) <= 1e-12

    def test_near_zero_scaling(self):
        """Tensor norm divided by the scalar factor scales as k^2."""
        ks = [1e-3, 2e-3, 4e-3]
        norms = []
        for kk in ks:
            k = FourVector(0.0, kk, 0.0, 0.0)
            t = polarization_tensor(k)
            pi = loops.vacuum_polarization_finite(float(k.norm2()))
            norms.append(np.linalg.norm(t) / abs(pi))
        slope = (math.log(norms[2] / norms[0])
                 / math.log(ks[2] / ks[0]))
        assert abs(slope - 2.0) <= 0.05


def fit_log_coefficient(form):
    """C of A + B (lambda - 1) + C (lambda - 1) log delta, fitted to
    a + lambda b of a self-energy form's (a, b) on a spinor with
    pslash = lambda = sqrt(1 - delta), near the shell."""
    deltas = np.geomspace(1e-4, 1e-2, 12)
    lam = np.sqrt(1.0 - deltas)
    a, b = form(1.0 - deltas)
    design = np.stack([np.ones_like(lam), lam - 1.0,
                       (lam - 1.0) * np.log(deltas)], axis=1)
    coef, *_ = np.linalg.lstsq(design, (a + lam * b).real, rcond=None)
    return coef[2]


class TestSelfEnergy:

    def test_pole_bracket(self):
        c = ALPHA_DEFAULT / (4.0 * math.pi)
        assert loops.self_energy_pole() == (4.0 * c, -c)
        pole_a, pole_b = loops.self_energy_pole(2.0)
        assert abs(pole_a - 8.0 * c) <= 1e-15 and pole_b == -c

    def test_on_shell_pole_projection(self):
        from fqed.states import dirac_spinors
        p = FourVector(math.sqrt(1.0 + 0.09), 0.3, 0.0, 0.0)
        u = dirac_spinors(p.as_array())[0]       # spin up
        ub = u.conj() @ GAMMA[0]
        pole_a, pole_b = loops.self_energy_pole()
        pole = pole_a * I4 + pole_b * slash(p)
        proj = (ub @ pole @ u) / (ub @ u)
        assert abs(proj - ALPHA_DEFAULT / (4.0 * math.pi) * 3.0) <= 1e-10

    def test_hermiticity_below_shell(self):
        """Below the shell a and b are real, so a 1 + b pslash is
        Dirac-hermitian, gamma0 Omega^dagger gamma0 = Omega."""
        p2s = np.array([0.5, -1.3, 0.9])
        for form in (loops.self_energy_ab, loops.self_energy_near_shell):
            a, b = form(p2s)
            assert np.all(a.imag == 0.0) and np.all(b.imag == 0.0)
        for p2, av, bv in zip(p2s, *loops.self_energy_ab(p2s)):
            if p2 > 0:
                p = FourVector(math.sqrt(p2), 0.0, 0.0, 0.0)
            else:
                p = FourVector(0.0, math.sqrt(-p2), 0.0, 0.0)
            om = av * I4 + bv * slash(p)
            assert np.max(np.abs(GAMMA[0] @ om.conj().T @ GAMMA[0]
                                 - om)) <= 1e-10

    def test_exact_shell_rejected(self):
        """Both forms share one shell rule: a batch with a point on the
        shell is rejected whole."""
        match = "^self-energy has a logarithmic singularity at p"
        for form in (loops.self_energy_ab, loops.self_energy_near_shell):
            with pytest.raises(SingularityError, match=match):
                form(1.0)
            with pytest.raises(SingularityError, match=match):
                form(np.array([0.5, 4.0, 2.0]), 2.0)

    def test_complex_above_shell(self):
        for form in (loops.self_energy_ab, loops.self_energy_near_shell):
            a, b = form(1.96)
            assert a.imag != 0.0 and b.imag != 0.0

    def test_near_shell_imaginary_part_matches_full_form(self):
        """Above the shell both forms take log(-|x|) = log|x| - i pi,
        so Im(a + lambda b) of the full z-integral is four times the
        near-shell form's, as the log coefficients are; below the
        shell both are real."""
        lam = math.sqrt(1.001)
        a, b = loops.self_energy_ab(1.001)
        an, bn = loops.self_energy_near_shell(1.001)
        ratio = (a + lam * b).imag / (an + lam * bn).imag
        assert abs(ratio - 4.0) <= 0.01 * 4.0
        for form in (loops.self_energy_ab, loops.self_energy_near_shell):
            a, b = form(0.999)
            assert a.imag == 0.0 and b.imag == 0.0

    def test_z_integral_constant(self):
        # int (1-z) dz = 1/2 enters the pslash pole coefficient:
        # pole = (alpha/2pi)[2m - pslash/2] = (alpha/4pi)[4m - pslash]
        _, pole_b = loops.self_energy_pole()
        assert abs(-pole_b - ALPHA_DEFAULT / (4.0 * math.pi)) <= 1e-14

    def test_near_shell_form_log_coefficient(self):
        got = fit_log_coefficient(loops.self_energy_near_shell)
        target = -ALPHA_DEFAULT / (4.0 * math.pi)
        assert abs(got - target) <= 0.01 * abs(target)

    def test_full_integral_log_coefficient_is_4x(self):
        """The full z-integral's near-shell log coefficient is
        -alpha/pi, four times the printed near-shell form; kept as a
        pinned observation of the unreconciled factor."""
        got = fit_log_coefficient(loops.self_energy_ab)
        target = -ALPHA_DEFAULT / math.pi
        assert abs(got - target) <= 0.05 * abs(target)


def constant_current(J, k_max):
    """The current J (4 components) at every k in [0, k_max]: a table
    with J at both nodes."""
    J = np.asarray(J, dtype=complex)
    return np.array([0.0, k_max]), np.stack([J, J], axis=1)


class TestEnergyShift:

    def two_level(self, J=0.2, delta=0.3, k_max=5.0):
        cur = constant_current([0.0, J, 0.0, 0.0], k_max)
        return loops.SpectrumInput({"d": 1.0, "b": 1.0 - delta},
                                   {("d", "b"): cur}, k_max), cur

    def test_zero_current_zero_shift(self):
        spec = loops.SpectrumInput({"d": 1.0}, {}, 5.0)
        assert loops.energy_shift(spec, "d") == 0.0

    def test_emission_imaginary_closed_form(self):
        spec, _ = self.two_level()
        val = loops.energy_shift(spec, "d")
        target = -2.0 * math.pi * ALPHA_DEFAULT * 0.3 * 0.2 ** 2
        assert abs(val.imag - target) <= 1e-12 * abs(target)
        assert val.imag < 0.0

    def test_absorption_sign_flips(self):
        spec, _ = self.two_level()
        val = loops.energy_shift(spec, "b")
        assert val.imag > 0.0

    def test_against_smeared_delta_oracle(self):
        spec, cur = self.two_level()
        val = loops.energy_shift(spec, "d")
        oracle = oracles.smeared_shift_imag(
            {"d": 1.0, "b": 0.7}, "d", {("d", "b"): cur}, 5.0,
            ALPHA_DEFAULT)
        assert abs(val.imag - oracle) <= 1e-8 * abs(oracle)

    def test_degenerate_levels_rejected(self):
        cur = constant_current([0.0, 0.1, 0.0, 0.0], 5.0)
        spec = loops.SpectrumInput({"d": 1.0, "b": 1.0},
                                   {("d", "b"): cur}, 5.0)
        with pytest.raises(DegenerateLevelError):
            loops.energy_shift(spec, "d")

    def test_k_max_coverage(self):
        cur = constant_current([0.0, 0.1, 0.0, 0.0], 2.0)
        spec = loops.SpectrumInput({"d": 3.0, "b": 0.5},
                                   {("d", "b"): cur}, 2.0)
        with pytest.raises(DomainError):
            loops.energy_shift(spec, "d")

    def test_unknown_level(self):
        spec, _ = self.two_level()
        with pytest.raises(DomainError):
            loops.energy_shift(spec, "q")

    def test_static_term_with_diagonal_currents(self):
        cur = constant_current([0.1, 0.0, 0.0, 0.0], 2.0)
        spec = loops.SpectrumInput({"d": 1.0}, {("d", "d"): cur}, 2.0)
        val = loops.energy_shift(spec, "d")
        # + (e^2/pi) int_0^kmax |J0|^2 dk
        target = 4.0 * ALPHA_DEFAULT * 0.01 * 2.0
        assert abs(val.real - target) <= 1e-10 * target
        assert val.imag == 0.0


class TestSpectrumFormat:

    TEXT = """
    # toy two-level system
    [levels]
    d 1.0
    b 0.7

    [current d b]
    0.0 0.0 0.2 0.0 0.0
    5.0 0.0 0.2 0.0 0.0
    """

    def test_round_trip(self):
        spec = loops.parse_spectrum(self.TEXT, 5.0)
        assert spec.levels["b"] == 0.7
        val = loops.energy_shift(spec, "d")
        direct, _ = TestEnergyShift().two_level()
        assert abs(val - loops.energy_shift(direct, "d")) <= 1e-12

    def test_bad_rows(self):
        with pytest.raises(DomainError):
            loops.parse_spectrum("[levels]\nd\n")
        with pytest.raises(DomainError):
            loops.parse_spectrum("[levels]\nd 1.0\n[current d q]\n"
                                 "0 0 0 0 0\n")
        with pytest.raises(DomainError):
            loops.parse_spectrum("stray 1.0\n")
        with pytest.raises(DomainError, match="repeated level 'd'"):
            loops.parse_spectrum("[levels]\nd 1.0\nb 0.7\nd 2.0\n")
        for text in ("[levels]\nd abc\n",
                     "[levels]\nd 1.0\nb 0.7\n[current d b]\n0 0 x 0 0\n"):
            with pytest.raises(DomainError, match="bad number"):
                loops.parse_spectrum(text)

    def test_non_finite_inputs(self):
        ks = np.array([0.0, 5.0])
        J = np.zeros((4, 2), dtype=complex)
        J[1] = 0.2, math.nan
        for kwargs in ({"currents": {("d", "b"): (ks, J)}},
                       {"currents": {("d", "b"): ([0.0, math.inf],
                                                  np.ones((4, 2)))}},
                       {"k_max": math.nan}, {"k_max": math.inf}):
            with pytest.raises(DomainError):
                loops.SpectrumInput({"d": 1.0, "b": 0.7}, **kwargs)

    def test_current_of_unknown_level(self):
        """A current naming a level the spectrum lacks is refused where
        the spectrum is made: it was dropped, and every shift read 0."""
        table = (np.array([0.0, 5.0]), np.full((4, 2), 0.2))
        with pytest.raises(DomainError,
                           match=r"^current \(a,zz\) references unknown "
                                 r"level$"):
            loops.SpectrumInput({"a": 1.0, "b": 0.7}, {("a", "zz"): table},
                                5.0)

    @pytest.mark.parametrize("ks, J", [
        ([5.0, 2.5, 0.0], np.full((4, 3), 0.2)),
        ([0.0, 2.5, 2.5, 5.0], np.full((4, 4), 0.2)),
        ([0.0, 2.5, 5.0], np.full((3, 4), 0.2)),
    ], ids=["reversed", "repeated", "J-shape"])
    def test_bad_nodes(self, ks, J):
        """A tabulated current needs strictly increasing nodes and J of
        shape (4, n): reversed nodes gave another shift without an error,
        and of a repeated node the sort's tie order picked the value."""
        with pytest.raises(DomainError, match=r"current \('d', 'b'\)"):
            loops.SpectrumInput({"d": 1.0, "b": 0.4},
                                {("d", "b"): (np.array(ks), J)}, 5.0)

    @pytest.mark.parametrize("entry", [
        lambda k: np.array([0.0, 0.2, 0.0, 0.0], dtype=complex),
        0.2,
        "table",
        (np.array([0.0, 5.0]),),
        (np.array([0.0, 5.0]), np.full((4, 2), 0.2), np.zeros(2)),
    ], ids=["callable", "float", "string", "1-tuple", "3-tuple"])
    def test_entry_not_a_pair(self, entry):
        """A current is a (k_samples, J) pair and nothing else: a float,
        a string or a 1-tuple failed with a TypeError, ValueError or
        IndexError, and a callable or a 3-tuple was accepted."""
        with pytest.raises(DomainError,
                           match=r"^current \('d', 'b'\) must be a "
                                 r"\(k_samples, J\) pair$"):
            loops.SpectrumInput({"d": 1.0, "b": 0.4}, {("d", "b"): entry},
                                5.0)
