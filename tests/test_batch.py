"""Properties of the batched tree-level engine at random kinematics."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fqed import cli
from fqed import processes as pr
from fqed.constants import ALPHA_DEFAULT
from fqed.errors import DomainError
from fqed.fourvec import FourVector

angle = st.floats(0.05, math.pi - 0.05)
azimuth = st.floats(0.0, 2.0 * math.pi)
rapidity = st.floats(-1.5, 1.5)


def boosted(cfg, eta, theta, phi):
    """cfg with every leg boosted by rapidity eta along (theta, phi)."""
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi), math.cos(theta)])
    ch, sh = math.cosh(eta), math.sinh(eta)
    legs = {}
    for lab, p in cfg.momenta.items():
        t, x = p.t, p.as_array()[1:]
        along = x @ n
        legs[lab] = FourVector.from_spatial(
            ch * t + sh * along, x + ((ch - 1.0) * along + sh * t) * n)
    return pr.KinematicConfig(cfg.process, legs, cfg.Z, cfg.mass)


@settings(max_examples=40)
@given(st.floats(0.01, 10.0), angle, azimuth, rapidity, angle, azimuth)
def test_compton_spin_sum_matches_invariant_oracle(w, theta, phi, eta,
                                                   b_theta, b_phi):
    cfg = boosted(pr.compton_lab_config(w, theta, phi), eta, b_theta, b_phi)
    oracle = oracles.compton_invariant_m2(cfg, ALPHA_DEFAULT)
    assert abs(pr.spin_summed_squared(cfg) - oracle) <= 1e-9 * oracle


@settings(max_examples=25)
@given(st.sampled_from(["moller", "bhabha"]), st.floats(1.01, 8.0), angle,
       azimuth, rapidity, angle, azimuth)
def test_four_fermion_spin_sums_match_trace_oracles(process, E, theta, phi,
                                                    eta, b_theta, b_phi):
    build = pr.moller_cm_config if process == "moller" else pr.bhabha_cm_config
    oracle = (oracles.moller_trace_m2 if process == "moller"
              else oracles.bhabha_trace_m2)
    cfg = boosted(build(E, theta, phi), eta, b_theta, b_phi)
    ref = oracle(cfg, ALPHA_DEFAULT)
    assert abs(pr.spin_summed_squared(cfg) - ref) <= 1e-9 * ref


@settings(max_examples=25)
@given(st.floats(0.05, 3.0), angle, azimuth, rapidity, angle, azimuth)
def test_annihilation_spin_sum_matches_invariant_oracle(pmag, theta, phi, eta,
                                                        b_theta, b_phi):
    cfg = boosted(pr.annihilation_cm_config(pmag, theta, phi), eta, b_theta,
                  b_phi)
    oracle = oracles.annihilation_invariant_m2(cfg, ALPHA_DEFAULT)
    assert abs(pr.spin_summed_squared(cfg) - oracle) <= 1e-9 * oracle


# the external-Coulomb builders from six uniform draws
COULOMB = {
    "bremsstrahlung": lambda u, v, a, b, c, d, Z: pr.bremsstrahlung_config(
        1.2 + 4 * u, 0.05 + (0.05 + 4 * u) * v, 0.1 + 3 * a, 0.1 + 3 * b,
        6.2 * c, 6.2 * d, Z=Z),
    "pair_production": lambda u, v, a, b, c, d, Z: pr.pair_production_config(
        2.3 + 4 * u, 1.05 + (0.2 + 4 * u) * v, 0.1 + 3 * a, 0.1 + 3 * b,
        6.2 * c, 6.2 * d, Z=Z),
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(COULOMB)),
       st.tuples(*[st.floats(0, 1)] * 6), st.floats(0.2, 3.0))
def test_coulomb_spin_sums_match_trace_oracle(process, draws, Z):
    cfg = COULOMB[process](*draws, Z)
    total = np.sum(np.abs(pr.amplitude(cfg).value) ** 2)
    ref = oracles.coulomb_trace_m2(cfg, ALPHA_DEFAULT)
    assert abs(total - ref) <= 1e-9 * ref


# one builder per process: its scalar arguments from two uniform draws
BATCHED = {
    "compton": lambda u, v: pr.compton_lab_config(0.05 + 5 * u, 0.05 + 3 * v,
                                                  6 * u * v),
    "annihilation": lambda u, v: pr.annihilation_cm_config(
        0.05 + 3 * u, 0.05 + 3 * v, 6 * v),
    "moller": lambda u, v: pr.moller_cm_config(1.05 + 5 * u, 0.2 + 2.7 * v),
    "bhabha": lambda u, v: pr.bhabha_cm_config(1.05 + 5 * u, 0.2 + 2.7 * v,
                                               2 * u),
    "bremsstrahlung": lambda u, v: pr.bremsstrahlung_config(
        2.0 + 3 * u, 0.1 + 0.8 * v, 0.1 + 3 * v, 0.1 + 3 * u),
    "pair_production": lambda u, v: pr.pair_production_config(
        4.0 + 2 * u, 1.2 + 1.5 * v, 0.1 + 3 * u, 0.1 + 3 * v),
}


draws = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1,
                 max_size=12)


@settings(max_examples=15)
@given(st.sampled_from(sorted(BATCHED)), draws)
def test_batch_of_n_equals_n_batches_of_one(process, uv):
    """Every helicity amplitude, and the spin sum of a 2->2 process."""
    build = BATCHED[process]
    evaluations = [lambda cfg: pr.amplitude(cfg).value]
    if process not in ("bremsstrahlung", "pair_production"):
        evaluations.append(pr.spin_summed_squared)
    for evaluate in evaluations:
        got = evaluate(build(*np.array(uv).T))
        want = [evaluate(build(u, v)) for u, v in uv]
        assert got.shape == (len(uv),) + np.shape(want[0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@settings(max_examples=10)
@given(st.sampled_from(["moller", "bhabha"]), st.integers(2, 9),
       st.floats(10.0, 170.0), st.sampled_from(["csv", "json"]))
def test_grid_with_a_pole_exits_3_and_writes_nothing(sub, count, stop, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run([sub, "--sweep", f"theta:0:{stop!r}:{count}",
                      "--format", fmt])
    assert rc == 3
    assert out.getvalue() == ""
    assert "numeric error" in err.getvalue()


def test_batch_rejects_any_bad_point():
    cfg = pr.compton_lab_config(np.array([0.5, 1.0]), np.array([0.3, 0.6]))
    mom = dict(cfg.momenta)
    mom["p_f"] = mom["p_f"] * np.array([[1.0], [1.01]])
    bad = pr.KinematicConfig("compton", mom)
    with pytest.raises(DomainError, match="p_f off shell"):
        pr.spin_summed_squared(bad)
