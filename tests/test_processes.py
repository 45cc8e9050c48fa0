import contextlib
import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fqed import cli
from fqed import processes as pr
from fqed.algebra import GAMMA, slash
from fqed.constants import ALPHA_DEFAULT
from fqed.errors import DomainError, PoleError
from fqed.fourvec import (METRIC_DIAG, FourVector, check_on_shell,
                          minkowski_dot)
from fqed.propagators import fermion_line
from fqed.states import dirac_spinors, polarization_vectors

rng = np.random.default_rng(19)


def crossed_amplitudes(plan, cfg):
    """Every helicity amplitude of cfg's process evaluated through plan
    (a pr._plan of it on its base topology), axes
    (N, *pr._PLANS[cfg.process].axes): the base helicity axes, renamed
    through plan's map, in the order of the process's own plan."""
    amps = pr._evaluate(plan, cfg, cfg.validate(), ALPHA_DEFAULT)
    return amps.transpose(0, *(plan.axes.index(lab) + 1
                               for lab in pr._PLANS[cfg.process].axes))


def crossing(target):
    """target's plan, built afresh from its entry in pr._CROSSINGS."""
    return pr._plan(target, *pr._CROSSINGS[target])


def crossed_value(plan, cfg):
    """crossed_amplitudes shaped as pr.amplitude(cfg).value: without the
    batch axis for one point."""
    value = crossed_amplitudes(plan, cfg)
    return value[0] if cfg._is_point() else value


def swapped(amp, a, b):
    """amp.value with the slot axes of the legs a and b swapped."""
    return np.swapaxes(amp.value, amp.axes.index(a), amp.axes.index(b))


def compton_with_momentum(cfg, photon):
    """cfg's Compton amplitudes with the polarization of one photon
    ("k_i", absorbed, or "k_f", emitted) replaced by that photon's
    momentum, at every slot of the other legs: the axes of
    pr.amplitude(cfg).value, with one slot on the replaced photon's axis.
    Gauge invariance makes them vanish. photon=None replaces nothing."""
    mom = cfg.validate()
    m = cfg.mass
    # relativistic normalization, u-bar u = 2m
    u_i, u_f = (np.sqrt(2.0 * mom[lab][:, 0])[:, None, None]
                * dirac_spinors(mom[lab], m) for lab in ("p_i", "p_f"))
    eps = {"k_i": polarization_vectors(mom["k_i"]),
           "k_f": polarization_vectors(mom["k_f"]).conj()}
    if photon is not None:
        eps[photon] = mom[photon][:, None, :]
    p_i, k_i, k_f = mom["p_i"], mom["k_i"], mom["k_f"]
    s1, s2 = fermion_line(np.stack([p_i + k_i, p_i - k_f]), m)
    amps = -1j * (4.0 * math.pi * ALPHA_DEFAULT) * pr._line(
        u_f.conj() @ GAMMA[0], u_i, slash(eps["k_i"]), slash(eps["k_f"]),
        s1, s2)
    return amps[0] if cfg._is_point() else amps


def random_compton():
    return pr.compton_lab_config(float(rng.uniform(0.2, 2.0)),
                                 float(rng.uniform(0.1, 3.0)),
                                 float(rng.uniform(0.0, 2 * math.pi)))


def random_annihilation():
    return pr.annihilation_cm_config(
        float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0)),
        float(rng.uniform(0.0, 2 * math.pi)))


# every kinematics builder: its energy arguments and its angle names
ANGLE_BUILDERS = [
    (pr.compton_lab_config, (1.0,), ("theta", "phi")),
    (pr.annihilation_cm_config, (0.5,), ("theta", "phi")),
    (pr.moller_cm_config, (1.5,), ("theta", "phi")),
    (pr.bhabha_cm_config, (1.5,), ("theta", "phi")),
    (pr.bremsstrahlung_config, (2.0, 0.5),
     ("theta_e", "theta_k", "phi_e", "phi_k")),
    (pr.pair_production_config, (3.0, 1.5),
     ("theta_p", "theta_m", "phi_p", "phi_m")),
]


@pytest.mark.parametrize("build, energies, angles", ANGLE_BUILDERS,
                         ids=lambda v: getattr(v, "__name__", ""))
def test_non_finite_angle_named(build, energies, angles):
    """A non-finite angle, alone or in a batch, is a DomainError naming
    the angle; the legs are never built from it."""
    build(*energies, **dict.fromkeys(angles, 0.5)).validate()
    for name in angles:
        for bad in (math.nan, math.inf, -math.inf,
                    np.array([0.3, math.nan, 0.4])):
            kwargs = {**dict.fromkeys(angles, 0.5), name: bad}
            with pytest.raises(DomainError,
                               match=f"^{name} must be finite: {name} = "):
                build(*energies, **kwargs)


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("build, energies, angles", ANGLE_BUILDERS,
                         ids=lambda v: getattr(v, "__name__", ""))
def test_bad_mass_named(build, energies, angles, mass):
    """A mass that is not finite and > 0 is a DomainError naming mass:
    from each builder, before the bounds that depend on it, and from
    validate."""
    cfg = build(*energies, **dict.fromkeys(angles, 0.5))
    with pytest.raises(DomainError, match="^mass must be finite and > 0"):
        build(*energies, **dict.fromkeys(angles, 0.5), mass=mass)
    with pytest.raises(DomainError, match="^mass must be finite and > 0"):
        dataclasses.replace(cfg, mass=mass).validate()


class TestKinematicConfig:

    def test_validate_accepts_builders(self):
        random_compton().validate()
        random_annihilation().validate()
        pr.moller_cm_config(1.5, 0.8).validate()

    def test_off_shell_rejected(self):
        cfg = random_compton()
        mom = dict(cfg.momenta)
        mom["p_i"] = FourVector(2.0, 0.0, 0.0, 0.0)
        bad = pr.KinematicConfig("compton", mom)
        with pytest.raises(DomainError):
            bad.validate()

    def test_nonconserving_rejected(self):
        cfg = random_compton()
        mom = dict(cfg.momenta)
        mom["k_f"] = FourVector(0.9, 0.0, 0.0, 0.9)
        bad = pr.KinematicConfig("compton", mom)
        with pytest.raises(DomainError):
            bad.validate()

    def test_unknown_process(self):
        with pytest.raises(DomainError):
            pr.KinematicConfig("mott", {}).validate()
        with pytest.raises(DomainError, match="unknown process"):
            pr.KinematicConfig("mott", {}).conservation_residual()

    @pytest.mark.parametrize("edit", [
        lambda mom: {lab: v for lab, v in mom.items() if lab != "k_f"},
        lambda mom: {**mom, "k_x": mom["k_f"]}], ids=["missing", "extra"])
    def test_leg_set_must_match(self, edit):
        cfg = pr.compton_lab_config(1.0, 0.5)
        bad = dataclasses.replace(cfg, momenta=edit(cfg.momenta))
        with pytest.raises(DomainError,
                           match="compton needs the legs p_i, k_i, p_f, k_f"):
            bad.validate()

    def test_non_finite_Z_rejected(self):
        for cfg in (pr.bremsstrahlung_config(2.0, 0.5, 0.3, 1.2, Z=math.nan),
                    pr.pair_production_config(3.0, 1.5, 0.5, 0.5,
                                              Z=math.inf)):
            with pytest.raises(DomainError, match="Z must be finite"):
                pr.amplitude(cfg)

    def test_brems_conserves_energy_only(self):
        cfg = pr.bremsstrahlung_config(2.0, 0.5, 0.3, 1.2)
        cfg.validate()
        res = cfg.conservation_residual()
        assert abs(res.t) <= 1e-12

    # the evaluation builds spinors without check_on_shell, so validate's
    # bound must never be looser than check_on_shell's
    @example(1e-3, 1.0, 1e-9, 0.5e-10)
    @example(1e3, 0.3, math.pi - 1e-9, -0.5e-10)
    @example(1.0, 2.0, 0.0, 0.0)
    @settings(max_examples=200)
    @given(st.floats(1e-3, 1e3), st.floats(0.05, 5.0),
           st.floats(0.0, math.pi), st.floats(-2e-10, 2e-10))
    def test_accepted_fermions_pass_check_on_shell(self, mass, omega, theta,
                                                   eps):
        cfg = pr.compton_lab_config(omega * mass, theta, mass=mass)
        p_f = cfg.momenta["p_f"]
        cfg = dataclasses.replace(cfg, momenta={
            **cfg.momenta, "p_f": dataclasses.replace(p_f,
                                                      t=p_f.t * (1 + eps))})
        try:
            legs = cfg.validate()
        except DomainError:
            return
        for lab in ("p_i", "p_f"):
            check_on_shell(legs[lab], mass)
            assert (legs[lab][:, 0] > 0).all()

    @settings(max_examples=50)
    @given(st.floats(0.05, 5.0), st.floats(0.0, math.pi),
           st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
    def test_fermions_are_checked_before_photons(self, omega, theta, dp, dk):
        cfg = pr.compton_lab_config(omega, theta)
        p_f, k_f = cfg.momenta["p_f"], cfg.momenta["k_f"]
        bad = dataclasses.replace(cfg, momenta={
            **cfg.momenta, "p_f": dataclasses.replace(p_f, t=p_f.t + dp),
            "k_f": dataclasses.replace(k_f, t=k_f.t + dk)})
        with pytest.raises(DomainError, match="^p_f off shell"):
            bad.validate()


# one point given as FourVectors, as 1-D arrays, or mixed with 1-D or
# (1, 4) array legs: leg i of the point v becomes form(i, v)
LEG_FORMS = {
    "fourvectors": lambda i, v: v,
    "arrays": lambda i, v: v.as_array(),
    "mixed-1d": lambda i, v: v if i == 0 else v.as_array(),
    "mixed-2d": lambda i, v: v if i == 0 else v.as_array()[None],
}


class TestLegForms:

    @pytest.mark.parametrize("form", LEG_FORMS)
    @pytest.mark.parametrize("cfg", [
        pr.compton_lab_config(1.3, 0.7, 0.2),
        pr.annihilation_cm_config(0.6, 1.1, 0.4),
        pr.moller_cm_config(1.8, 0.9, 0.3)], ids=["compton", "annihilation",
                                                  "moller"])
    def test_point_types(self, cfg, form):
        conv = dataclasses.replace(cfg, momenta={
            lab: LEG_FORMS[form](i, v)
            for i, (lab, v) in enumerate(cfg.momenta.items())})
        value = pr.amplitude(conv).value
        m2 = pr.spin_summed_squared(conv)
        res = conv.conservation_residual()
        want = (pr.amplitude(cfg).value, pr.spin_summed_squared(cfg),
                cfg.conservation_residual())
        if form == "mixed-2d":
            # a (1, 4) leg makes a batch of one
            assert value.shape == (1, 2, 2, 2, 2)
            assert isinstance(m2, np.ndarray) and m2.shape == (1,)
            assert isinstance(res, np.ndarray) and res.shape == (1, 4)
            value, m2 = value[0], float(m2[0])
            res = FourVector.from_array(res[0])
        assert value.shape == (2, 2, 2, 2) and np.array_equal(value, want[0])
        assert type(m2) is float and m2 == want[1]
        assert isinstance(res, FourVector) and res == want[2]

    def test_batch_legs_of_different_shapes_broadcast(self):
        theta = np.linspace(0.2, 2.9, 7)
        cfg = pr.compton_lab_config(1.3, theta)
        # p_i and k_i are the same at every point: one FourVector and one
        # (1, 4) row broadcast against the (7, 4) legs
        mixed = dataclasses.replace(cfg, momenta={
            **cfg.momenta, "p_i": FourVector.from_array(cfg.momenta["p_i"][0]),
            "k_i": cfg.momenta["k_i"][:1]})
        assert not mixed._is_point()
        assert np.array_equal(pr.amplitude(mixed).value,
                              pr.amplitude(cfg).value)
        assert np.array_equal(pr.spin_summed_squared(mixed),
                              pr.spin_summed_squared(cfg))
        assert np.array_equal(mixed.conservation_residual(),
                              cfg.conservation_residual())


class TestComptonFamily:

    def test_spin_sum_matches_invariant_oracle(self):
        for _ in range(10):
            cfg = random_compton()
            m2 = pr.spin_summed_squared(cfg)
            oracle = oracles.compton_invariant_m2(cfg, ALPHA_DEFAULT)
            assert abs(m2 - oracle) <= 1e-10 * oracle

    def test_thomson_limit(self):
        w = 1e-5
        r = (pr.spin_summed_squared(pr.compton_lab_config(w, 0.0))
             / pr.spin_summed_squared(
                 pr.compton_lab_config(w, math.pi / 2)))
        assert abs(r - 2.0) <= 1e-6

    def test_compton_relation(self):
        w2 = pr.compton_omega_out(1.0, math.pi)
        assert np.isclose(w2, 1.0 / 3.0)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
    def test_compton_relation_checks_mass(self, mass):
        with pytest.raises(DomainError, match="^mass must be finite and > 0"):
            pr.compton_omega_out(1.0, 1.0, mass)

    # the draws of the fixed-seed version of this test
    @example(1.1148895233549918, 0.20691912789502345, 3.2221200440604623)
    @example(0.3726155213139018, 0.28197813843879505, 5.1990356221325955)
    @example(0.45635189046860525, 2.1923888463888153, 2.760350697221822)
    @example(1.1048868312178577, 1.5737529159887225, 1.050631859043613)
    @example(0.31485408372444423, 1.9499136447253713, 0.6456994851541449)
    @example(0.3170643293526335, 0.2316149090357278, 3.7916114640166656)
    @example(1.9020495292729331, 1.6678924445994945, 0.09693365260927818)
    @example(1.2448653276284543, 1.4863891690966655, 4.320200489541438)
    @example(0.4123455431472546, 2.05454310121963, 5.855235501952556)
    @example(0.5924813635700443, 2.8570206939874168, 3.795661263441873)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 2.0), st.floats(0.1, 3.0),
           st.floats(0.0, 2 * math.pi))
    def test_ward_identity(self, omega, theta, phi):
        cfg = pr.compton_lab_config(omega, theta, phi)
        val = compton_with_momentum(cfg, "k_i")
        ref = np.abs(pr.compton_amplitude(cfg).value)
        assert np.all(np.abs(val) <= 1e-10 * np.maximum(ref, 1e-30))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 2.0), st.floats(0.1, 3.0),
           st.floats(0.0, 2 * math.pi))
    def test_ward_identity_emitted_photon(self, omega, theta, phi):
        cfg = pr.compton_lab_config(omega, theta, phi)
        val = compton_with_momentum(cfg, "k_f")
        ref = np.abs(pr.compton_amplitude(cfg).value)
        assert np.all(np.abs(val) <= 1e-10 * np.maximum(ref, 1e-30))

    def test_ward_helper_without_replacement_is_the_amplitude(self):
        """compton_with_momentum's own route, with no polarization
        replaced, gives the library amplitude at every helicity."""
        draw = np.random.default_rng(7).uniform
        for _ in range(5):
            cfg = pr.compton_lab_config(draw(0.2, 2.0), draw(0.1, 3.0),
                                        draw(0.0, 2 * math.pi))
            a = pr.compton_amplitude(cfg).value
            assert np.all(np.abs(compton_with_momentum(cfg, None) - a)
                          <= 1e-14 * np.maximum(1.0, np.abs(a)))

    def test_annihilation_photon_swap_symmetric(self):
        for _ in range(5):
            cfg = random_annihilation()
            mom = dict(cfg.momenta)
            mom["k_i"], mom["k_f"] = mom["k_f"], mom["k_i"]
            a = pr.pair_annihilation_amplitude(cfg).value
            b = swapped(pr.pair_annihilation_amplitude(
                dataclasses.replace(cfg, momenta=mom)), "k_i", "k_f")
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))


class TestFourFermion:

    def test_moller_matches_trace_oracle(self):
        for _ in range(5):
            cfg = pr.moller_cm_config(float(rng.uniform(1.2, 3.0)),
                                      float(rng.uniform(0.3, 2.8)),
                                      float(rng.uniform(0, 2 * math.pi)))
            m2 = pr.spin_summed_squared(cfg)
            oracle = oracles.moller_trace_m2(cfg, ALPHA_DEFAULT)
            assert abs(m2 - oracle) <= 1e-10 * oracle

    def test_bhabha_matches_trace_oracle(self):
        for _ in range(5):
            cfg = pr.bhabha_cm_config(float(rng.uniform(1.2, 3.0)),
                                      float(rng.uniform(0.3, 2.8)),
                                      float(rng.uniform(0, 2 * math.pi)))
            m2 = pr.spin_summed_squared(cfg)
            oracle = oracles.bhabha_trace_m2(cfg, ALPHA_DEFAULT)
            assert abs(m2 - oracle) <= 1e-10 * oracle

    @example(1.7, 0.9, 0.4)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.2, 3.0), st.floats(0.3, 2.8),
           st.floats(0.0, 2 * math.pi))
    def test_final_label_swap_antisymmetric(self, E, theta, phi):
        cfg = pr.moller_cm_config(E, theta, phi)
        mom = dict(cfg.momenta)
        mom["p_f1"], mom["p_f2"] = mom["p_f2"], mom["p_f1"]
        a = pr.electron_electron_amplitude(cfg).value
        b = swapped(pr.electron_electron_amplitude(
            pr.KinematicConfig("moller", mom)), "p_f1", "p_f2")
        assert np.array_equal(a, -b)




def examples(draws):
    """Each draw (a tuple of the test's arguments) as a hypothesis
    @example of the decorated test."""
    def apply(test):
        for draw in draws:
            test = example(*draw)(test)
        return test
    return apply


# the draws of the fixed-seed versions of the crossing tests
ANNIHILATION_DRAWS = (
    (1.4604186650291426, 0.26102844080162735, 0.5375519863617662),
    (0.3668663720706288, 1.5561347646068362, 0.5745207086628672),
    (1.9559291899923894, 2.4857866399785857, 1.2788106031867734),
    (0.622657169219179, 2.615196977809026, 4.729067121018884),
    (1.658340709348814, 2.7694705780322386, 5.492215123524347),
    (0.37926558941610367, 0.7353665512235276, 3.8161500311139904),
    (1.8146108713076123, 1.7981515577020424, 2.6805010895010173),
    (0.9675157913553056, 0.5223024305406957, 3.820006927156838),
    (0.2415570541104476, 0.49520779452996055, 2.061697240184546),
    (0.34674467101433243, 1.7606836321486898, 3.151634326048687),
    (0.5392045027304104, 1.53480630470804, 3.1941212712722926),
    (1.820060289213928, 1.2406171288158958, 0.899823676345273),
    (0.6653545868222437, 1.9149068126313882, 1.8618120053043083),
    (0.49598408921307896, 0.9088846938863145, 3.869331291224391),
    (1.8441870643693499, 1.5835168681960856, 4.393017752396124),
    (1.312400868200348, 0.15904652823060877, 0.8113024297590435),
    (0.4829863647498635, 2.8588766653527693, 3.5714723863584754),
    (1.5823780667289975, 2.9292543851559736, 3.033438452736009),
    (1.318965207590731, 2.877698695022695, 4.897805660385702),
    (1.8734837030902542, 2.2144529120441536, 1.89857263770497),
)
PAIR_PRODUCTION_DRAWS = (
    ((3.279350974283289, 1.436252989915768), 2.7285580980658657,
     2.1043763596126737, 0.06754370706049682, 2.2640024914228674),
    ((3.135749851608042, 1.7762007806204774), 0.45706282125981323,
     2.004739127990902, 1.3730302772565406, 3.0901381650167603),
    ((4.324421586533704, 1.5075734576626416), 0.6791048541379161,
     0.24916260020740089, 5.6272413645685155, 3.656655203637778),
    ((3.3805527634330756, 1.4983586143968275), 2.5549308579805836,
     2.1089927444219425, 0.17386544417553162, 0.9589182389814107),
    ((3.9078542580782716, 2.526386949717113), 0.7205822025582473,
     0.9278564227625831, 0.09014760652738885, 1.6897861034991724),
    ((4.218663909191669, 1.3570042235658977), 2.842885349691696,
     1.4248458567609066, 6.09742568648931, 1.455888577256228),
    ((4.180962399193128, 2.853063750356225), 2.2509724073737587,
     2.3917994719564053, 0.6893240336094496, 4.1254314595152435),
    ((3.991997212606067, 2.5284470030364297), 2.9041374276592204,
     1.1702802397332488, 2.1981238644719734, 0.727139042817176),
    ((4.06180647231679, 2.0366993875484), 1.969273381088411, 2.435496570751664,
     4.149155822935916, 1.5352697721715425),
    ((3.955398955137012, 1.9182883375668531), 1.3753921049851485,
     2.377844056900563, 1.1173252317074527, 4.485801821193999),
    ((4.757798417741428, 2.567445939164635), 0.9060076988795628,
     1.178897221377972, 3.38387488112099, 1.0072100657998497),
    ((4.955405339703301, 2.491466079339687), 2.601118934648528,
     2.5618426054534793, 1.1208878044617114, 5.27262157124614),
    ((3.5418996483661696, 1.2416558678114695), 1.5316689813594522,
     1.189026189214463, 5.172579708930462, 3.1981081535671043),
    ((4.888160544805023, 3.22294287783041), 0.27095634310781835,
     0.5230217465607271, 3.0086797722456935, 4.569032913020409),
    ((3.4660174623431876, 1.2233707120435309), 1.7623212607264582,
     1.1571564265801, 5.452695351686188, 0.08549552360076425),
    ((2.888142420843071, 1.5411278030297204), 2.5513715249155386,
     0.6807640575340825, 2.7300016812780945, 5.805272411896735),
    ((4.656911207724763, 3.0246140521328053), 2.5646315002902327,
     1.190344911439483, 4.9887669221428155, 5.411316846758991),
    ((3.4536442249170487, 1.3213665929222371), 2.287204295108769,
     0.4917932376900853, 4.713028484878184, 1.5566593615186566),
    ((3.7520077554205966, 1.6781710076463523), 0.37436970396795943,
     2.5126968594624066, 1.3553016893297818, 0.8958258440511573),
    ((3.245070452195536, 1.7008713561999813), 1.2764696483006233,
     2.003122494892145, 4.153701289872324, 1.9402577302793542),
)
BHABHA_DRAWS = (
    (2.193866475427746, 0.9685014877055207, 1.6283165108063575),
    (2.347166800375458, 1.7629110085663269, 0.2849717074903145),
    (1.308718875141026, 2.048139947343376, 5.334082321136357),
    (2.981687035049762, 0.584175393661136, 3.838765306045843),
    (2.026998887275687, 2.2403779106772403, 3.794812817083026),
    (1.3935240715508648, 2.224215954225134, 1.828342981234432),
    (1.7177923190123177, 1.3462764275886825, 1.4635271995658532),
    (2.691357219584111, 0.9577319998968588, 1.132649725646199),
    (2.116218394412112, 1.5661868950637836, 1.2464966725583175),
    (2.685128738680995, 0.4358530715288386, 4.577803361601456),
    (1.349908137329914, 2.1780668973641912, 5.171909460843855),
    (1.5848185530527632, 1.4199789338087687, 2.9438208090891638),
    (2.050518565169045, 1.5760295703350733, 4.201670545957882),
    (2.874393910250586, 2.1281827884057187, 5.554224977253807),
    (2.121566807935634, 0.6187337491392647, 1.958856770469987),
    (2.080658797373842, 1.5889123773584979, 4.301077224451802),
    (2.357268065647469, 1.807471042875153, 2.556425202033606),
    (1.766943664942826, 0.4780441728230178, 1.2559207961516092),
    (2.515592543107391, 2.417872075281283, 2.5605961027159108),
    (1.5628892461016681, 2.142522758176451, 1.8956807800184288),
)


class TestCrossing:

    def test_table_validation(self):
        assert pr._PLANS.keys() == pr._LEGS.keys()
        assert sorted(pr._CROSSINGS) == ["annihilation", "bhabha",
                                         "pair_production"]
        for target in pr._CROSSINGS:
            assert crossing(target).axes == pr._PLANS[target].axes
        with pytest.raises(DomainError):
            pr._plan("annihilation", "compton", {})

    def test_old_pair_production_map_rejected(self):
        # p_f crossed to the positron and p_i to the electron: both
        # fermions would change ends of the fermion line
        with pytest.raises(DomainError, match="other end"):
            pr._plan("pair_production", "bremsstrahlung", {
                "k_f": "k_i", "p_f": "p_plus", "p_i": "p_minus"})

    def test_two_legs_onto_one_rejected(self):
        legs = {**pr._CROSSINGS["annihilation"][1], "k_i": "k_f"}
        with pytest.raises(DomainError, match="one to one"):
            pr._plan("annihilation", "compton", legs)

    @pytest.mark.parametrize("table", [
        (target, *pr._CROSSINGS[target])
        for target in ("annihilation", "pair_production", "bhabha")])
    def test_every_target_permutation_rejected_or_equal(self, table):
        """Each map of the base legs onto a permutation of the target
        legs is rejected, or evaluates to +-1 times the direct amplitude
        at every point and slot. table is (target, base, map)."""
        target, base, legs = table
        draw = np.random.default_rng(23).uniform
        n = 5
        # the config, the count of valid maps, and a slot whose amplitude
        # is nonzero at every point, which the sign is read off
        cfg, valid, slot = {
            "annihilation": lambda: (pr.annihilation_cm_config(
                draw(0.2, 2.0, n), draw(0.1, 3.0, n), draw(0, 2 * math.pi, n)),
                2, (0, 1, 0, 1)),
            "pair_production": lambda: (pr.pair_production_config(
                draw(3.0, 5.0, n), draw(1.2, 1.8, n), draw(0.1, 3.0, n),
                draw(0.1, 3.0, n), draw(0, 2 * math.pi, n),
                draw(0, 2 * math.pi, n)), 1, (0, 1, 0)),
            "bhabha": lambda: (pr.bhabha_cm_config(
                draw(1.2, 3.0, n), draw(0.3, 2.8, n), draw(0, 2 * math.pi, n)),
                4, (1, 0, 0, 0)),
        }[target]()
        direct = pr.amplitude(cfg).value
        at = (slice(None), *slot)
        assert np.all(np.abs(direct[at]) > 1e-6)
        accepted = 0
        for targets in itertools.permutations(legs.values()):
            try:
                plan = pr._plan(target, base, dict(zip(legs, targets)))
            except DomainError:
                continue
            accepted += 1
            crossed = crossed_value(plan, cfg)
            d, c = direct[at][0], crossed[at][0]
            sign = 1.0 if abs(c - d) < abs(d) else -1.0
            assert np.all(np.abs(crossed - sign * direct)
                          <= 1e-12 * np.maximum(1.0, np.abs(direct)))
        assert accepted == valid

    @examples(ANNIHILATION_DRAWS)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 2.0), st.floats(0.1, 3.0),
           st.floats(0.0, 2 * math.pi))
    def test_compton_to_annihilation(self, pmag, theta, phi):
        cfg = pr.annihilation_cm_config(pmag, theta, phi)
        a = pr.pair_annihilation_amplitude(cfg).value
        b = crossed_value(crossing("annihilation"), cfg)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))

    @examples(PAIR_PRODUCTION_DRAWS)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(2.6, 5.0).flatmap(
               lambda w: st.tuples(st.just(w), st.floats(1.2, w - 1.2))),
           st.floats(0.1, 3.0), st.floats(0.1, 3.0),
           st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    def test_brems_to_pair_production(self, energies, theta_p, theta_m,
                                      phi_p, phi_m):
        """energies is (omega_i, E_plus) with E_plus in [m + 0.2,
        omega_i - m - 0.2]."""
        cfg = pr.pair_production_config(*energies, theta_p, theta_m, phi_p,
                                        phi_m)
        a = pr.pair_production_amplitude(cfg).value
        b = crossed_value(crossing("pair_production"), cfg)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))

    @examples(BHABHA_DRAWS)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.2, 3.0), st.floats(0.3, 2.8),
           st.floats(0.0, 2 * math.pi))
    def test_moller_to_bhabha(self, E, theta, phi):
        cfg = pr.bhabha_cm_config(E, theta, phi)
        a = pr.electron_positron_amplitude(cfg).value
        b = crossed_value(crossing("bhabha"), cfg)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))


# one builder per process, from one number: a point for a float, a batch
# for an array
CONTRACT = {
    "compton": lambda x: pr.compton_lab_config(0.5 + x, 0.4 + x, x),
    "annihilation": lambda x: pr.annihilation_cm_config(0.3 + x, 0.5 + x, x),
    "moller": lambda x: pr.moller_cm_config(1.5 + x, 0.6 + x, x),
    "bhabha": lambda x: pr.bhabha_cm_config(1.5 + x, 0.6 + x, x),
    "bremsstrahlung": lambda x: pr.bremsstrahlung_config(
        2.0 + x, 0.5, 0.3 + x, 1.1 + x, x),
    "pair_production": lambda x: pr.pair_production_config(
        3.0 + x, 1.4, 0.4 + x, 0.7 + x, x),
}


class TestAmplitudeContract:

    @pytest.mark.parametrize("x", [0.3, np.array([0.1, 0.3, 0.5])],
                             ids=["point", "batch"])
    @pytest.mark.parametrize("process", pr.PROCESS_IDS)
    def test_every_helicity_amplitude(self, process, x):
        """amplitude returns one slot axis per leg, after the batch axis
        of a batch, and the spin sum of a 2->2 process is the sum of the
        squares of every slot over 4."""
        cfg = CONTRACT[process](x)
        amp = pr.amplitude(cfg)
        assert set(amp.axes) == set(cfg.momenta)
        assert len(amp.axes) == len(cfg.momenta)
        batch = np.shape(x)
        assert amp.value.shape == batch + (2,) * len(amp.axes)
        if len(amp.axes) == 4:
            flat = amp.value.reshape(batch + (-1,))
            m2 = np.sum(flat.real ** 2 + flat.imag ** 2, axis=-1) / 4.0
            np.testing.assert_allclose(m2, pr.spin_summed_squared(cfg),
                                       rtol=1e-14, atol=0)

    @pytest.mark.parametrize("process", pr.PROCESS_IDS)
    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.floats(-1.0, 3.0), st.floats(0.05, 0.95),
               st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0),
                         st.floats(0.0, 2 * math.pi),
                         st.floats(0.0, 2 * math.pi))),
               min_size=1, max_size=12),
           log_m=st.floats(-3.0, 3.0), point=st.booleans())
    def test_slot0_amplitude_is_slot_zero(self, process, rows, log_m, point):
        """slot0_amplitude is amplitude's value at slot 0 of every leg,
        bit for bit, with its shape rule: (N,) for a batch of the rows'
        points, no axis for one point."""
        m = 10.0 ** log_m
        cfgs = [HIGH_ENERGY[process][0](10.0 ** log_r, m, f, a)
                for log_r, f, a in rows]
        cfg = cfgs[0] if point else dataclasses.replace(cfgs[0], momenta={
            lab: np.array([c.momenta[lab].as_array() for c in cfgs])
            for lab in cfgs[0].momenta})
        value = pr.amplitude(cfg).value
        want = value[(Ellipsis,) + (0,) * len(cfg.momenta)]
        got = pr.slot0_amplitude(cfg)
        shape = () if point else (len(rows),)
        assert np.shape(got) == np.shape(want) == shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sub, build", [
        ("brems", pr.bremsstrahlung_config),
        ("pairprod", pr.pair_production_config)])
    def test_cli_prints_slot_zero(self, sub, build):
        """brems and pairprod print the amplitude at slot 0 of every leg
        (spin up, helicity plus) and its square, read back from their
        JSON rows."""
        angle = "theta_k" if sub == "brems" else "theta_p"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run([sub, "--sweep", f"{angle}:10:170:9",
                            "--format", "json"]) == 0
        rows = json.loads(out.getvalue())["rows"]
        cols = {k: np.array([row[k] for row in rows]) for k in rows[0]}
        names = list(cols)
        cfg = build(*(cols[k] for k in names[:2]),
                    *(np.radians(cols[k]) for k in names[2:4]))
        m = pr.amplitude(cfg).value[:, 0, 0, 0]
        assert np.array_equal(cols["re_M"], m.real)
        assert np.array_equal(cols["im_M"], m.imag)
        assert np.array_equal(cols["abs2_M"], np.abs(m) ** 2)


# each process at the scale r: the config of its builder from r, the mass
# m, a share f of the energy above threshold and four angles; the oracle
# of its spin sum (of |M|^2 for the Coulomb processes); and the bound on
# their relative difference, a floor plus a slope per unit of r
HIGH_ENERGY = {
    "compton": (lambda r, m, f, a: pr.compton_lab_config(
        r * m, a[0], a[2], mass=m), oracles.compton_invariant_m2,
        (0.0, 1e-14)),
    "annihilation": (lambda r, m, f, a: pr.annihilation_cm_config(
        r * m, a[0], a[2], mass=m), oracles.annihilation_invariant_m2,
        (0.0, 2e-14)),
    "moller": (lambda r, m, f, a: pr.moller_cm_config(
        m * math.hypot(1.0, r), a[0], a[2], mass=m), oracles.moller_trace_m2,
        (0.0, 1e-14)),
    "bhabha": (lambda r, m, f, a: pr.bhabha_cm_config(
        m * math.hypot(1.0, r), a[0], a[2], mass=m), oracles.bhabha_trace_m2,
        (0.0, 1e-14)),
    "bremsstrahlung": (lambda r, m, f, a: pr.bremsstrahlung_config(
        m * (1.0 + r), f * r * m, *a, mass=m), oracles.coulomb_trace_m2,
        (1e-9, 2e-14)),
    "pair_production": (lambda r, m, f, a: pr.pair_production_config(
        m * (2.0 + r), m * (1.0 + f * r), *a, mass=m),
        oracles.coulomb_trace_m2, (1e-9, 2e-14)),
}


def opening_angle(theta_1, theta_2, phi_1, phi_2):
    """The angle between the directions (theta_1, phi_1), (theta_2, phi_2)."""
    c = (math.sin(theta_1) * math.sin(theta_2) * math.cos(phi_1 - phi_2)
         + math.cos(theta_1) * math.cos(theta_2))
    return math.acos(min(1.0, max(-1.0, c)))


@pytest.mark.parametrize("process", HIGH_ENERGY)
@example(log_r=3.0, log_m=0.0, f=0.5, a=(1.0, 1.0, 0.0, 0.0))
@settings(max_examples=30, deadline=None)
@given(log_r=st.floats(0.0, 6.0), log_m=st.floats(-3.0, 3.0),
       f=st.floats(0.05, 0.95),
       a=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0),
                   st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
def test_high_energy_kinematics(process, log_r, log_m, f, a):
    """Every builder's legs, at energies from about m to 1e6 m, pass
    validate and check_on_shell, as the mass-shell tolerance scales with
    the leg energy; the spin sums stay within the bound of the oracles'.
    A bremsstrahlung electron and photon less than 0.1 apart are not
    compared: the q^2 - m^2 of the line between them cancels, in the
    oracle as in the amplitude, and at a = (1, 1, 0, 0) and r = 1e3 the
    two differ by 5e-10."""
    build, oracle, (floor, slope) = HIGH_ENERGY[process]
    r, m = 10.0 ** log_r, 10.0 ** log_m
    cfg = build(r, m, f, a)
    legs = cfg.validate()
    for lab in pr._ORDER[process][:pr._PLANS[process].nf]:
        check_on_shell(legs[lab], m)
    if process == "bremsstrahlung" and opening_angle(*a) < 0.1:
        return
    if process in pr._ENERGY_ONLY:
        value = pr.amplitude(cfg).value
        got = float(np.sum(value.real ** 2 + value.imag ** 2))
    else:
        got = pr.spin_summed_squared(cfg)
    ref = oracle(cfg, ALPHA_DEFAULT)
    assert abs(got - ref) <= (floor + slope * r) * abs(ref)


class TestCoulombSlots:
    """Each helicity amplitude of bremsstrahlung and pair production,
    slot 0 (the one the CLI prints) first, against the per-slot trace
    oracle: spin projectors in place of the spinors, the photon's eps
    eps* in place of -g."""

    @pytest.mark.parametrize("process", pr._ENERGY_ONLY)
    @example(log_r=0.0, log_m=0.0, f=0.5, a=(1.0, 2.0, 0.5, 3.0), Z=1.0)
    @settings(max_examples=80, deadline=None)
    @given(log_r=st.floats(-1.0, 2.0), log_m=st.floats(-3.0, 3.0),
           f=st.floats(0.05, 0.95),
           a=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0),
                       st.floats(0.0, 2 * math.pi),
                       st.floats(0.0, 2 * math.pi)),
           Z=st.floats(1.0, 100.0))
    def test_every_slot_matches_trace_oracle(self, process, log_r, log_m,
                                             f, a, Z):
        """|amplitude|^2 at every slot is the oracle's to 8192 eps of the
        spin sum times the condition of the internal lines, (q0^2 + |q|^2
        + m^2) / |q^2 - m^2| at its largest, as both divide by the same
        cancelling q^2 - m^2. The two terms of the line cancel further
        for a slow electron: random draws with the bounds of these
        ranges reached 1851 eps at log_r = -1."""
        m = 10.0 ** log_m
        cfg = dataclasses.replace(
            HIGH_ENERGY[process][0](10.0 ** log_r, m, f, a), Z=Z)
        got = abs(pr.amplitude(cfg).value) ** 2
        want = np.zeros((2, 2, 2))
        for slots in itertools.product((0, 1), repeat=3):
            want[slots] = oracles.coulomb_slot_m2(cfg, ALPHA_DEFAULT, slots)
        *_, q1, q2, _ = oracles._coulomb_kinematics(cfg)
        cond = max((q @ q + m * m) / abs(q @ (METRIC_DIAG * q) - m * m)
                   for q in (q1, q2))
        tol = 8192 * np.finfo(float).eps * cond * want.sum()
        assert np.all(np.abs(got - want) <= tol)
        # the slot the CLI prints, as it evaluates it
        assert abs(abs(pr.slot0_amplitude(cfg)) ** 2 - want[0, 0, 0]) <= tol

    @pytest.mark.parametrize("process", pr._ENERGY_ONLY)
    @pytest.mark.parametrize("r, a", [
        (1.0, (1.0, 2.0, 0.5, 3.0)), (30.0, (0.4, 0.9, 1.0, 4.0))])
    def test_slots_sum_to_trace_oracle(self, process, r, a):
        """The per-slot oracle summed over the slots is the spin sum of
        coulomb_trace_m2, which replaces the polarization sum by -g: its
        unphysical polarizations cancel in rounding, which reached 1.0e-13
        at r = 30 in bremsstrahlung under the Prescott OpenBLAS kernel."""
        cfg = dataclasses.replace(HIGH_ENERGY[process][0](r, 0.3, 0.4, a),
                                  Z=6.0)
        total = sum(oracles.coulomb_slot_m2(cfg, ALPHA_DEFAULT, slots)
                    for slots in itertools.product((0, 1), repeat=3))
        want = oracles.coulomb_trace_m2(cfg, ALPHA_DEFAULT)
        assert abs(total - want) <= 1e-12 * want

    @pytest.mark.parametrize("slot", [0, 1])
    def test_v_projector_reverses_spin(self, slot):
        """The v projector derived from _V_ORDER is (pslash - m)(1 - gamma5
        sslash)/2 with s the u slot's spin vector."""
        m = 0.7
        p = np.array([math.sqrt(m * m + 1.69), 0.3, -1.2, 0.4])
        s = (1.0 - 2.0 * slot) * oracles.spin_vector(p, m)
        want = (slash(p) - m * np.eye(4)) @ (
            np.eye(4) - oracles.GAMMA5 @ slash(s)) / 2.0
        np.testing.assert_allclose(oracles.v_projector(p, m, slot), want,
                                   rtol=0, atol=1e-15)


# the invariants each 2->2 spin sum divides by: p.k of the electron
# with each photon, or the two photon lines' q^2
INVARIANTS = {
    "compton": lambda p: (minkowski_dot(p["p_i"], p["k_i"]),
                          minkowski_dot(p["p_i"], p["k_f"])),
    "annihilation": lambda p: (minkowski_dot(p["p_minus"], p["k_i"]),
                               minkowski_dot(p["p_minus"], p["k_f"])),
    "moller": lambda p: ((p["p_i1"] - p["p_f1"]).norm2(),
                         (p["p_i1"] - p["p_f2"]).norm2()),
    "bhabha": lambda p: ((p["p_i_minus"] - p["p_f_minus"]).norm2(),
                         (p["p_i_minus"] + p["p_i_plus"]).norm2()),
}
NEAR_POLES = st.floats(1e-6, 1e-2)


@pytest.mark.parametrize("process", INVARIANTS)
@example(log_r=4.0, log_m=1.0, theta=1e-6, phi=0.3)
@example(log_r=4.0, log_m=-2.0, theta=math.pi - 1e-6, phi=5.0)
@example(log_r=-3.0, log_m=3.0, theta=1e-2, phi=1.0)
@settings(max_examples=150, deadline=None)
@given(log_r=st.floats(-3.0, 4.0), log_m=st.floats(-3.0, 3.0),
       theta=st.one_of(NEAR_POLES, st.floats(1e-2, math.pi - 1e-2),
                       NEAR_POLES.map(lambda x: math.pi - x)),
       phi=st.floats(0.0, 2 * math.pi))
def test_spin_sum_closed_form_matches_amplitudes(process, log_r, log_m,
                                                 theta, phi):
    """The closed-form spin sum is the sum of the squares of every
    helicity amplitude over 4, at photon energies or momenta from 1e-3 m
    to 1e4 m, near-forward and near-backward angles included;
    where the amplitude refuses a pole, the spin sum refuses it with the
    same message. Both lose digits to the cancellation in the invariants
    they divide by, so the bound is 128 eps times the condition
    E_max^2 / min |invariant|; the amplitude's forward Compton lines
    lose a further E_max / m."""
    m = 10.0 ** log_m
    cfg = HIGH_ENERGY[process][0](10.0 ** log_r, m, 0.5,
                                  (theta, 0.0, phi, 0.0))
    try:
        value = pr.amplitude(cfg).value
    except PoleError as exc:
        with pytest.raises(PoleError) as refused:
            pr.spin_summed_squared(cfg)
        assert str(refused.value) == str(exc)
        return
    want = np.sum(abs(value) ** 2) / 4.0
    e_max = max(leg.t for leg in cfg.momenta.values())
    cond = e_max ** 2 / min(map(abs, INVARIANTS[process](cfg.momenta)))
    if pr._PLANS[process].base == "compton":
        cond *= max(1.0, e_max / m)
    got = pr.spin_summed_squared(cfg)
    assert abs(got - want) <= 128 * np.finfo(float).eps * cond * want


@pytest.mark.parametrize("process", ["compton", "annihilation"])
@example(log_r=4.0, log_m=1.0, theta=1e-6, phi=0.3)
@example(log_r=-3.0, log_m=3.0, theta=math.pi - 1e-2, phi=1.0)
@settings(max_examples=60, deadline=None)
@given(log_r=st.floats(-3.0, 4.0), log_m=st.floats(-3.0, 3.0),
       theta=st.one_of(NEAR_POLES, st.floats(1e-2, math.pi - 1e-2),
                       NEAR_POLES.map(lambda x: math.pi - x)),
       phi=st.floats(0.0, 2 * math.pi))
def test_every_compton_slot_matches_trace_oracle(process, log_r, log_m,
                                                 theta, phi):
    """|amplitude|^2 at each of the 16 slots of Compton scattering and
    pair annihilation against the per-slot trace oracle (spin
    projectors, the positron's v projector, each photon's eps), at the
    draws and with the condition of the spin-sum test above: 128 eps
    of the spin sum times E_max^2 / min |p.k| times E_max / m. In 600
    random draws per process at the ranges' bounds, on each of the
    default and the Prescott OpenBLAS kernel, the largest difference was
    3.0 eps times that."""
    m = 10.0 ** log_m
    cfg = HIGH_ENERGY[process][0](10.0 ** log_r, m, 0.5,
                                  (theta, 0.0, phi, 0.0))
    try:
        got = abs(pr.amplitude(cfg).value) ** 2
    except PoleError:
        return
    want = np.zeros((2, 2, 2, 2))
    for slots in itertools.product((0, 1), repeat=4):
        want[slots] = oracles.compton_slot_m2(cfg, ALPHA_DEFAULT, slots)
    e_max = max(leg.t for leg in cfg.momenta.values())
    cond = (e_max ** 2 / min(map(abs, INVARIANTS[process](cfg.momenta)))
            * max(1.0, e_max / m))
    tol = 128 * np.finfo(float).eps * cond * want.sum()
    assert np.all(np.abs(got - want) <= tol)


class TestGuards:

    def test_pair_threshold(self):
        with pytest.raises(DomainError):
            pr.pair_production_config(1.5, 0.9, 0.3, 0.3)

    def test_forward_moller_pole(self):
        cfg = pr.moller_cm_config(2.0, 1e-9)
        with pytest.raises(PoleError):
            pr.electron_electron_amplitude(cfg)

    def test_amplitude_dispatch(self):
        cfg = random_compton()
        assert np.array_equal(pr.amplitude(cfg).value,
                              pr.compton_amplitude(cfg).value)

    def test_spin_sum_rejects_coulomb_processes(self):
        cfg = pr.bremsstrahlung_config(2.0, 0.5, 0.3, 1.2)
        with pytest.raises(DomainError):
            pr.spin_summed_squared(cfg)

    def test_ledgers_attached(self):
        cfg = random_compton()
        amp = pr.compton_amplitude(cfg)
        assert amp.ledger.exponents["e"] == 2
        assert amp.ledger.exponents["V"] == -1
        brems = pr.bremsstrahlung_amplitude(
            pr.bremsstrahlung_config(2.0, 0.5, 0.3, 1.2))
        assert brems.ledger.exponents["e"] == 3
        assert brems.ledger.exponents["Z"] == 1


# inputs where two entries fail, the one checked later at an earlier
# point: the first failing entry in the builder's order is named, at its
# first bad point (a non-finite value before one at or below the bound)
FIRST_FAILING_INPUT = [
    (pr.compton_lab_config, ([1.0, 1.0, -1.0], [0.1, math.nan, 0.2]), {},
     "omega_in must exceed 0: omega_in = -1.000e+00"),
    (pr.compton_lab_config, ([-1.0, 1.0, math.inf], 0.1), {},
     "omega_in must be finite: omega_in = inf"),
    (pr.annihilation_cm_config, ([0.5, 0.5, 0.0], [math.nan, 0.1, 0.1]), {},
     "pmag must exceed 0: pmag = 0.000e+00"),
    (pr.moller_cm_config, ([2.0, 0.5, 2.0], [math.inf, 0.1, 0.1]), {},
     "energy must exceed 1: energy = 5.000e-01"),
    (pr.moller_cm_config, ([3.0, 1.5], 0.1), {"mass": 2.0},
     "energy must exceed 2: energy = 1.500e+00"),
    (pr.bhabha_cm_config, (2.0, [0.1, math.nan], [math.inf, 0.0]), {},
     "theta must be finite: theta = nan"),
    (pr.bremsstrahlung_config,
     (2.0, [0.5, 1.5, 0.5], [math.nan, 0.1, 0.1], 0.1), {},
     "final electron energy must exceed 1: final electron energy = "
     "5.000e-01"),
    (pr.bremsstrahlung_config,
     ([2.0, 2.0, 0.5], [0.5, -1.0, 0.5], 0.1, 0.1), {},
     "e_in must exceed 1: e_in = 5.000e-01"),
    (pr.bremsstrahlung_config, (2.0, 0.5, 0.1, [0.1, math.nan]),
     {"phi_e": [math.inf, 0.0]}, "theta_k must be finite: theta_k = nan"),
    (pr.pair_production_config, (3.0, [1.5, 2.5, 0.5], 0.1, 0.1), {},
     "e_plus must exceed 1: e_plus = 5.000e-01"),
    (pr.pair_production_config, ([3.0, 1.9], [1.5, 0.5], 0.1, 0.1), {},
     "omega_in must exceed 2: omega_in = 1.900e+00"),
    (pr.pair_production_config,
     (3.0, 1.5, [0.1, 0.1, math.nan], [0.1, math.inf, 0.1]),
     {"phi_m": math.nan}, "theta_p must be finite: theta_p = nan"),
]


# explicit ids, as pytest first generated them (builder, indices and
# pinned message), so that a later message edit renames no test
FIRST_FAILING_INPUT_IDS = [
    "compton_lab_config-args0-kwargs0-omega_in must exceed 0: omega_in = "
    "-1.000e+00",
    "compton_lab_config-args1-kwargs1-omega_in must be finite: omega_in = "
    "inf",
    "annihilation_cm_config-args2-kwargs2-pmag must exceed 0: pmag = "
    "0.000e+00",
    "moller_cm_config-args3-kwargs3-energy must exceed 1: energy = "
    "5.000e-01",
    "moller_cm_config-args4-kwargs4-energy must exceed 2: energy = "
    "1.500e+00",
    "bhabha_cm_config-args5-kwargs5-theta must be finite: theta = nan",
    "bremsstrahlung_config-args6-kwargs6-final electron energy must exceed "
    "1: final electron energy = 5.000e-01",
    "bremsstrahlung_config-args7-kwargs7-e_in must exceed 1: e_in = "
    "5.000e-01",
    "bremsstrahlung_config-args8-kwargs8-theta_k must be finite: theta_k = "
    "nan",
    "pair_production_config-args9-kwargs9-e_plus must exceed 1: e_plus = "
    "5.000e-01",
    "pair_production_config-args10-kwargs10-omega_in must exceed 2: "
    "omega_in = 1.900e+00",
    "pair_production_config-args11-kwargs11-theta_p must be finite: theta_p "
    "= nan",
]


@pytest.mark.parametrize("build, args, kwargs, message", FIRST_FAILING_INPUT,
                         ids=FIRST_FAILING_INPUT_IDS)
def test_first_failing_input_named(build, args, kwargs, message):
    with pytest.raises(DomainError) as exc:
        build(*(np.array(a) for a in args),
              **{k: np.array(v) for k, v in kwargs.items()})
    assert str(exc.value) == message


def edited_compton(edits):
    """A three-point Compton config with the (leg, point) -> (t, x, y, z)
    edits made to its legs."""
    cfg = pr.compton_lab_config(np.array([0.5, 1.0, 1.5]),
                                np.array([0.3, 0.6, 0.9]))
    mom = {lab: v.copy() for lab, v in cfg.momenta.items()}
    for (lab, point), leg in edits.items():
        mom[lab][point] = leg
    return dataclasses.replace(cfg, momenta=mom)


# legs that fail two checks of validate at different points, the check
# reported first at the later point: the first failing check is named,
# at its first bad leg and point
FIRST_FAILING_CHECK = [
    ({("p_i", 2): (2.0, 0.0, 0.0, 0.0), ("k_i", 0): (1.0, 0.0, 0.0, 0.5)},
     "p_i off shell: p^2 - m^2 = 3.000e+00"),
    ({("p_f", 0): (2.0, 0.0, 0.0, 0.0), ("p_i", 2): (3.0, 0.0, 0.0, 0.0)},
     "p_i off shell: p^2 - m^2 = 8.000e+00"),
    ({("p_i", 2): (-1.0, 0.0, 0.0, 0.0), ("k_f", 0): (1.0, 0.0, 0.0, 0.5)},
     "p_i needs p0 > 0, p0 = -1.000e+00"),
    ({("k_f", 2): (1.0, 0.0, 0.0, 0.5), ("k_i", 0): (0.0, 0.0, 0.0, 0.0)},
     "k_f not lightlike: k^2 = 7.500e-01"),
    ({("k_i", 1): (0.0, 0.0, 0.0, 0.0), ("k_f", 0): (0.5, 0.0, 0.3, 0.4)},
     "k_i needs |k| > 0, |k| = 0.000e+00"),
    ({("k_f", 2): (1.5, 0.0, 0.0, 1.5)},
     "4-momentum not conserved, |residual| = 1.295e+00"),
]


# explicit ids, as pytest first generated them (index and pinned
# message), so that a later message edit renames no test
FIRST_FAILING_CHECK_IDS = [
    "edits0-p_i off shell: p^2 - m^2 = 3.000e+00",
    "edits1-p_i off shell: p^2 - m^2 = 8.000e+00",
    "edits2-p_i needs p0 > 0, p0 = -1.000e+00",
    "edits3-k_f not lightlike: k^2 = 7.500e-01",
    "edits4-k_i needs |k| > 0, |k| = 0.000e+00",
    "edits5-4-momentum not conserved, |residual| = 1.295e+00",
]


@pytest.mark.parametrize("edits, message", FIRST_FAILING_CHECK,
                         ids=FIRST_FAILING_CHECK_IDS)
def test_first_failing_check_named(edits, message):
    with pytest.raises(DomainError) as exc:
        edited_compton(edits).validate()
    assert str(exc.value) == message
