"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL line naming its criterion so the
suite output doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

import oracles
from fqed import dynamics as dyn
from fqed import loops, processes
from fqed.algebra import GAMMA, I4, slash
from fqed.constants import ALPHA_DEFAULT
from fqed.fourvec import FourVector
from fqed.states import (PHOTON_KINDS, dirac_spinors, photon_state,
                         wave_equation_residual)
from test_dynamics import frequency_tolerance
from test_loops import fit_log_coefficient, positronium_insertion
from test_processes import (compton_with_momentum, crossed_amplitudes,
                            crossed_value, crossing, swapped)

rng = np.random.default_rng(2026)


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok


def test_criterion_1_vacuum_polarization_limit():
    t0 = time.perf_counter()
    val = loops.vacuum_polarization_finite(1e-3)
    elapsed = time.perf_counter() - t0
    target = ALPHA_DEFAULT / (15.0 * math.pi) * 1e-3
    ok = abs(val - target) <= 0.01 * target and elapsed < 1.0
    report(1, "small-k^2 vacuum-polarization limit", ok)


def test_criterion_2_subtraction_zero():
    ok = abs(loops.vacuum_polarization_finite(0.0)) <= 1e-12
    report(2, "vacuum-polarization subtraction zero", ok)


def test_criterion_3_threshold_behavior():
    grid = np.linspace(4.0 / 51.0, 4.0 * 50.0 / 51.0, 50)
    below = all(loops.vacuum_polarization_finite(float(k)).imag == 0.0
                for k in grid)
    above = loops.vacuum_polarization_finite(4.0 * (1 + 1e-6)).imag != 0.0
    report(3, "imaginary part opens at the pair threshold", below and above)


def test_criterion_4_positronium_null():
    ok = abs(positronium_insertion()) <= 1e-12
    report(4, "zero-momentum vacuum-polarization insertion vanishes", ok)


def test_criterion_5_self_energy_near_shell():
    target = -ALPHA_DEFAULT / (4.0 * math.pi)
    got = fit_log_coefficient(loops.self_energy_near_shell)
    fit_ok = abs(got - target) <= 0.01 * abs(target)

    # the pole bracket (alpha/4 pi)[3m - (pslash - m)], projected
    # between on-shell spinors
    p = FourVector(math.sqrt(1.0 + 0.16), 0.4, 0.0, 0.0)
    u = dirac_spinors(p.as_array())[0]       # spin up
    ub = u.conj() @ GAMMA[0]
    pole_a, pole_b = loops.self_energy_pole()
    c = ALPHA_DEFAULT / (4.0 * math.pi)
    assert (pole_a, pole_b) == (4.0 * c, -c)
    proj = (ub @ (pole_a * I4 + pole_b * slash(p)) @ u) / (ub @ u)
    pole_ok = abs(proj - 3.0 * c) <= 1e-10
    report(5, "self-energy near-shell log coefficient and pole bracket",
           fit_ok and pole_ok)


def test_criterion_6_compton_equivalence():
    ok = True
    for _ in range(25):
        cfg = processes.compton_lab_config(
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.0, 2 * math.pi)))
        m2 = processes.spin_summed_squared(cfg)
        oracle = oracles.compton_invariant_m2(cfg, ALPHA_DEFAULT)
        ok = ok and abs(m2 - oracle) <= 1e-10 * oracle
    w = 1e-5
    ratio = (processes.spin_summed_squared(processes.compton_lab_config(
        w, 0.0)) / processes.spin_summed_squared(
        processes.compton_lab_config(w, math.pi / 2)))
    ok = ok and abs(ratio - 2.0) <= 1e-6
    report(6, "Compton enumeration matches trace oracle + Thomson ratio",
           ok)


def test_criterion_7_crossing_consistency():
    ok = True
    for _ in range(100):
        cfg = processes.annihilation_cm_config(
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.0, 2 * math.pi)))
        a = processes.pair_annihilation_amplitude(cfg).value
        b = crossed_value(crossing("annihilation"), cfg)
        ok = ok and np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))
        # the crossed spin sum against the closed form, which shares no
        # code path with the crossing engine
        m2 = np.sum(np.abs(crossed_amplitudes(
            crossing("annihilation"), cfg)) ** 2) / 4.0
        oracle = oracles.annihilation_invariant_m2(cfg, ALPHA_DEFAULT)
        ok = ok and abs(m2 - oracle) <= 1e-9 * oracle
    for _ in range(100):
        w = float(rng.uniform(2.6, 5.0))
        cfg = processes.pair_production_config(
            w, float(rng.uniform(1.2, w - 1.2)),
            float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.0, 2 * math.pi)),
            float(rng.uniform(0.0, 2 * math.pi)))
        a = processes.pair_production_amplitude(cfg).value
        b = crossed_value(crossing("pair_production"), cfg)
        ok = ok and np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))
        m2 = np.sum(np.abs(crossed_amplitudes(
            crossing("pair_production"), cfg)) ** 2)
        oracle = oracles.coulomb_trace_m2(cfg, ALPHA_DEFAULT)
        ok = ok and abs(m2 - oracle) <= 1e-9 * oracle
    report(7, "crossing substitution equals direct evaluation and the "
           "spin-sum oracles", ok)


def test_criterion_8_exchange_statistics():
    # every helicity amplitude against the one with two identical legs'
    # momenta and slot axes swapped
    cfg = processes.moller_cm_config(1.7, 0.9, 0.4)
    mom = dict(cfg.momenta)
    mom["p_f1"], mom["p_f2"] = mom["p_f2"], mom["p_f1"]
    b = swapped(processes.electron_electron_amplitude(
        processes.KinematicConfig("moller", mom)), "p_f1", "p_f2")
    fermi = np.array_equal(
        processes.electron_electron_amplitude(cfg).value, -b)

    acfg = processes.annihilation_cm_config(0.8, 1.2, 0.5)
    mom = dict(acfg.momenta)
    mom["k_i"], mom["k_f"] = mom["k_f"], mom["k_i"]
    a = processes.pair_annihilation_amplitude(acfg).value
    b = swapped(processes.pair_annihilation_amplitude(
        processes.KinematicConfig("annihilation", mom)), "k_i", "k_f")
    bose = np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))
    report(8, "Fermi antisymmetry and Bose symmetry under exchange",
           fermi and bose)


def test_criterion_9_wave_equations():
    ok = True
    for _ in range(1000):
        p3 = rng.normal(scale=1.5, size=3)
        p = FourVector.from_spatial(math.sqrt(1.0 + p3 @ p3), p3)
        # both spin slots of each
        u = dirac_spinors(p.as_array())
        v = dirac_spinors(p.as_array(), 1.0, True)
        ok = ok and np.all(np.linalg.norm((slash(p) - I4) @ u.T, axis=0)
                           <= 1e-12)
        ok = ok and np.all(np.linalg.norm((slash(p) + I4) @ v.T, axis=0)
                           <= 1e-12)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for kind in PHOTON_KINDS:
            k = 0.0 if kind == "vacuum" else float(rng.uniform(0.1, 3.0))
            st = photon_state(kind, k, axis)
            ok = ok and wave_equation_residual(st) <= 1e-12
    report(9, "Dirac and photon wave-equation residuals", ok)


def test_criterion_10_ward_identity():
    ok = True
    for _ in range(25):
        cfg = processes.compton_lab_config(
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.0, 2 * math.pi)))
        ref = np.abs(processes.compton_amplitude(cfg).value)
        for photon in ("k_i", "k_f"):
            val = compton_with_momentum(cfg, photon)
            ok = ok and np.all(np.abs(val) <= 1e-10 * np.maximum(ref, 1e-30))
    report(10, "Compton amplitude vanishes for epsilon -> k", ok)


def test_criterion_11_classical_dynamics():
    t0 = time.perf_counter()
    z0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    st = dyn.ElectronState(FourVector(0, 0, 0, 0),
                           FourVector(1.0, 0.0, 0.0, 0.0), z0)
    traj = dyn.integrate(st, None, (0.0, 100.0), 1e-3)
    zs, xs = dyn.exact_free_trajectory(z0, st.p, st.x, traj.tau)
    accurate = (np.max(np.abs(traj.spinor - zs)) <= 1e-6
                and np.max(np.abs(traj.x - xs)) <= 1e-6)
    drift = (np.max(np.abs(traj.zbar_z - traj.zbar_z[0])) <= 1e-8
             and np.max(np.abs(traj.H - traj.H[0])) <= 1e-8)
    w = dyn.zitterbewegung_frequency(traj)
    peak = (abs(w - oracles.rk4_step_frequency(1.0, -1.0, 1e-3))
            <= frequency_tolerance(traj, 2.0, 1.0))
    elapsed = time.perf_counter() - t0
    report(11, "free trajectory accuracy, drift, zitterbewegung peak",
           accurate and drift and peak and elapsed < 10.0)


def test_criterion_12_energy_shift_kernel():
    # the constant current J_x = 0.2, tabulated at both ends of [0, 5]
    cur = (np.array([0.0, 5.0]), np.array([[0.0, 0.0], [0.2, 0.2],
                                           [0.0, 0.0], [0.0, 0.0]],
                                          dtype=complex))
    levels = {"d": 1.0, "b": 0.7}
    currents = {("d", "b"): cur}
    spec = loops.SpectrumInput(levels, currents, 5.0)
    emission = loops.energy_shift(spec, "d")
    absorption = loops.energy_shift(spec, "b")
    oracle = oracles.smeared_shift_imag(levels, "d", currents, 5.0,
                                        ALPHA_DEFAULT)
    ok = (abs(emission.imag - oracle) <= 1e-8 * abs(oracle)
          and emission.imag < 0.0 and absorption.imag > 0.0)
    report(12, "two-level energy-shift kernel vs dense-quadrature oracle",
           ok)
