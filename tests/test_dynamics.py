import ctypes
import functools
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from defectlaser import (DivergenceError, IntegratorSettings,
                         InvalidParameterError, MeanFieldState,
                         ReducedState, SingularParameterError, Trajectory,
                         crossing_time, dynamics, gain, growth_rate,
                         integrate_full, integrate_reduced, steady_optics,
                         with_value)
from defectlaser.params import derive_quantities
from defectlaser.steadystate import coefficients

from conftest import (GAMMA, GAMMA_M, OMEGA_M, fake_solve_ivp, make_params,
                      random_params)


def settings_for(t_final, dt_factor=0.1, stride=5):
    return IntegratorSettings(dt=dt_factor / OMEGA_M, t_final=t_final,
                              stride=stride)


def optics_block_growth(params):
    """Independent oracle: largest growth eigenvalue of the linearized
    optics-phonon block (defect-free), built directly from the model
    coefficients rather than any package formula."""
    d = derive_quantities(params)
    gam = params.optical.cavity_loss
    gm = params.mechanical.mech_loss
    k = 0.5j * d.xi * d.x0
    drv = d.eps_l / math.sqrt(2.0)
    a_p = drv / (gam + 1j * d.omega_plus)
    a_m = drv / (gam + 1j * d.omega_minus)
    mat = np.array([
        [-1j * d.omega_plus - gam, 0.0, k * a_m],
        [0.0, np.conj(-1j * d.omega_minus - gam), np.conj(k * a_p)],
        [k * np.conj(a_m), k * a_p,
         -1j * params.mechanical.mech_freq - gm]], dtype=complex)
    return float(np.linalg.eigvals(mat).real.max())


def saturated_defect_gain(params, n_b):
    t = params.tls
    if t.coupling == 0.0:
        return 0.0
    dq = t.tls_freq - params.mechanical.mech_freq
    return -t.coupling ** 2 * t.tls_loss \
        / (t.tls_loss ** 2 + dq * dq + 2.0 * t.coupling ** 2 * n_b)


def run_with_partial(params, settings, init=None):
    try:
        return integrate_full(params, init, settings)
    except DivergenceError as err:
        assert err.partial is not None
        return err.partial


def fit_amplitude_window(traj, lo, hi):
    t_lo = crossing_time(traj.times, traj.abs_b, lo)
    t_hi = crossing_time(traj.times, traj.abs_b, hi)
    return growth_rate(traj, (t_lo, t_hi))


class TestFullModel:
    def test_decoupled_damped_oscillator(self):
        p = make_params(pump_power=0.0, g_d=0.0)
        s = settings_for(30 * 2 * math.pi / OMEGA_M)
        traj = integrate_full(p, MeanFieldState(b=1.0), s)
        expected = np.exp(-GAMMA_M * traj.times)
        assert np.max(np.abs(traj.abs_b - expected) / expected) < 1e-4
        # phase winds at -omega_m
        phase = np.unwrap(np.angle(traj.column("b")))
        slope = np.polyfit(traj.times, phase, 1)[0]
        assert slope == pytest.approx(-OMEGA_M, rel=1e-5)
        # optics stay dark
        assert np.max(np.abs(traj.column("a_plus"))) == 0.0

    def test_spin_length_conserved_with_coupling_on(self):
        """Lossless defect: sigma_z^2 + 4 |sigma_-|^2 is a constant of the
        motion whatever b does (checked over 50 mechanical periods)."""
        p = make_params(pump_power=0.0, g_d=1e6, gamma_q=0.0)
        sm0 = 0.3 + 0.2j
        init = MeanFieldState(b=1.0, sigma_minus=sm0,
                              sigma_z=-math.sqrt(1 - 4 * abs(sm0) ** 2))
        s = IntegratorSettings(dt=0.005 / OMEGA_M,
                               t_final=50 * 2 * math.pi / OMEGA_M, stride=50)
        traj = integrate_full(p, init, s)
        q = traj.column("sigma_z").real ** 2 \
            + 4 * np.abs(traj.column("sigma_minus")) ** 2
        assert np.max(np.abs(q - q[0]) / q[0]) < 1e-10
        sz = traj.column("sigma_z").real
        assert np.all(sz >= -1.0 - 1e-6) and np.all(sz <= 1.0 + 1e-6)

    def test_deterministic_bit_identical(self, fig2_params):
        s = settings_for(1e-6)
        a = integrate_full(fig2_params, None, s)
        b = integrate_full(fig2_params, None, s)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    @pytest.mark.filterwarnings("ignore:dt\\*max")
    def test_step_halving_fourth_order(self):
        p = make_params(pump_power=0.0, g_d=0.0)
        t_final = 10 * 2 * math.pi / OMEGA_M

        def final_err(n_steps):
            s = IntegratorSettings(dt=t_final / n_steps, t_final=t_final,
                                   stride=10 ** 9)
            traj = integrate_full(p, MeanFieldState(b=1.0), s)
            exact = np.exp((-1j * OMEGA_M - GAMMA_M) * traj.times[-1])
            return abs(traj.column("b")[-1] - exact)

        e1, e2 = final_err(400), final_err(800)
        assert 10.0 < e1 / e2 < 24.0  # 2^4 = 16 for a 4th-order method

    def test_divergence_reports_time_and_partial(self, fig2_params):
        s = settings_for(8e-6)
        with pytest.raises(DivergenceError) as exc:
            integrate_full(fig2_params, None, s)
        err = exc.value
        assert 0.0 < err.time <= 8e-6
        assert err.partial is not None
        assert err.partial.meta["diverged_at"] == err.time
        assert np.all(np.isfinite(err.partial.states.view(float)))

    def test_resolution_warning_attached(self, fig2_params):
        s = IntegratorSettings(dt=1.0 / OMEGA_M, t_final=20 / OMEGA_M)
        with pytest.warns(UserWarning, match="under-resolved"):
            traj = integrate_full(fig2_params, None, s)
        assert any("under-resolved" in w for w in traj.meta["warnings"])

    def test_default_step_never_warns(self):
        """At this rate 0.1 / rate * rate rounds above 0.1: the default
        step must not warn, and the next float above it still must."""
        rate = 147732263.56170473
        p = make_params(omega_m=rate, omega_q=rate)
        dt = dynamics._default_settings(p).dt
        assert dt * rate > 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate_reduced(p, None, IntegratorSettings(dt=dt, t_final=1e-8))
        coarser = IntegratorSettings(dt=math.nextafter(dt, math.inf),
                                     t_final=1e-8)
        with pytest.warns(UserWarning, match="under-resolved"):
            integrate_reduced(p, None, coarser)

    def test_adaptive_cross_check(self, fig2_params):
        """DOP853 stores at RK4's sample times, also where t_final is not a
        step multiple (both end at step round(t_final / dt)), and agrees
        with RK4 at every sample."""
        for t_final in (1.0e-6, 1.0001e-6):
            s_rk = IntegratorSettings(dt=3.125e-10, t_final=t_final, stride=40)
            a = integrate_full(fig2_params, None, s_rk)
            b = integrate_full(fig2_params, None,
                               replace(s_rk, method="dop853"))
            assert a.times.tobytes() == b.times.tobytes()
            assert a.times[-1] == 3200 * 3.125e-10
            fa, fb = a.column("b"), b.column("b")
            assert np.max(np.abs(fa - fb) / np.abs(fa)) < 1e-5

    @pytest.mark.parametrize("t, time", [([0.0, 2e-8], 2e-8), ([], 0.0)])
    def test_adaptive_failure_names_the_solver_message(
            self, fig2_params, monkeypatch, t, time):
        fake_solve_ivp(monkeypatch, success=False, message="stiff",
                       t=np.array(t), y=np.zeros((5, len(t)), complex))
        with pytest.raises(DivergenceError) as exc:
            integrate_full(fig2_params, None, IntegratorSettings(
                dt=1e-10, t_final=1e-7, method="dop853"))
        assert str(exc.value) == "adaptive integration failed: stiff"
        assert exc.value.time == time and exc.value.partial is None

    def test_adaptive_non_finite_state_raises_at_the_last_time(
            self, fig2_params, monkeypatch):
        y = np.zeros((5, 2), complex)
        y[2, 1] = complex(math.inf, 0.0)
        fake_solve_ivp(monkeypatch, success=True, message="done",
                       t=np.array([0.0, 3e-8]), y=y)
        with pytest.raises(DivergenceError) as exc:
            integrate_full(fig2_params, None, IntegratorSettings(
                dt=1e-10, t_final=1e-7, method="dop853"))
        assert str(exc.value) == "non-finite state at t = 3e-08 s"
        assert exc.value.time == 3e-8 and exc.value.partial is None

    def test_growth_matches_exact_linearization(self, fig2_params):
        """Dynamics oracle: the windowed growth rate equals the exact
        linear-response rate (optics-block eigenvalue plus the saturated
        defect term at the window phonon number) to better than 8%."""
        for power, detune in ((4e-6, 0.5), (8e-6, 0.5), (6e-6, 0.45),
                              (10e-6, 0.55)):
            p = with_value(fig2_params, "optical.pump_power", power)
            p = with_value(p, "optical.pump_detuning", detune * OMEGA_M)
            traj = run_with_partial(p, settings_for(25e-6))
            fit = fit_amplitude_window(traj, 30.0, 300.0)
            n_mid = 30.0 * 300.0
            oracle = optics_block_growth(p) + saturated_defect_gain(p, n_mid)
            assert fit.rate == pytest.approx(oracle, rel=0.08), \
                f"P={power}, Delta={detune}"

    def test_driven_floor_matches_static_supermode_beat(self):
        """Below threshold the mechanical amplitude settles onto the
        driven floor set by the static supermode beat: |b| ->
        (xi x0 / 2) |a-ss* a+ss| / omega_m (off-resonant response of the
        mechanical mode to the DC part of the radiation-pressure force).
        Constructed directly from the model coefficients, this is
        independent of the eliminated-gain closures."""
        p = make_params(pump_power=0.5e-6)
        s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=40e-6, stride=5)
        traj = integrate_full(p, None, s)
        floor = float(np.mean(traj.abs_b[traj.times > 30e-6]))
        d = derive_quantities(p)
        gam = p.optical.cavity_loss
        drv = d.eps_l / math.sqrt(2.0)
        a_p = drv / (gam + 1j * d.omega_plus)
        a_m = drv / (gam + 1j * d.omega_minus)
        beat = 0.5 * d.xi * d.x0 * abs(np.conj(a_m) * a_p)
        assert floor == pytest.approx(beat / OMEGA_M, rel=0.03)

    def test_defect_ringdown_rate(self):
        """Below threshold the defect adds g_d^2 gamma_q / (gamma_q^2+...)
        to the mechanical decay; seeding a small phonon amplitude keeps the
        defect unsaturated so the linear form applies."""
        p = make_params(pump_power=0.0, g_d=1e6, gamma_q=GAMMA)
        s = settings_for(25 * 2 * math.pi / (2 * math.pi * 0.24e6))
        traj = integrate_full(p, MeanFieldState(b=1e-3), s)
        t0, t1 = 2e-6, traj.times[-1] * 0.8
        fit = growth_rate(traj, (t0, t1))
        expected = -(GAMMA_M + 1e6 ** 2 * GAMMA / GAMMA ** 2)
        assert fit.rate == pytest.approx(expected, rel=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="The eliminated gain closes the supermode amplitudes "
        "quasi-statically, which misses the resonant sideband response of "
        "the lower supermode; at the operating point (J = Delta = "
        "omega_m/2) the closed form underestimates the model's true "
        "linear growth by about 2x, far outside 10%.  See the exact-"
        "linearization test above for the passing companion oracle.")
    def test_growth_matches_eliminated_gain_formula(self, fig2_params):
        traj = run_with_partial(fig2_params, settings_for(8e-6))
        fit = fit_amplitude_window(traj, 30.0, 300.0)
        oracle = gain(fig2_params, 30.0 * 300.0).G - GAMMA_M
        assert fit.rate == pytest.approx(oracle, rel=0.10)


class TestReducedModel:
    def test_defect_decouples_and_relaxes(self):
        p = make_params(pump_power=0.0, g_d=0.0, gamma_q=2e6)
        s = settings_for(6.0 / 2e6)
        init = ReducedState(b=0.0, sigma_minus=0.1, sigma_z=-0.4)
        traj = integrate_reduced(p, init, s)
        sz = traj.column("sigma_z").real
        expected = -1.0 + 0.6 * np.exp(-2 * 2e6 * traj.times)
        assert np.max(np.abs(sz - expected)) < 1e-6
        sm = np.abs(traj.column("sigma_minus"))
        assert sm[-1] == pytest.approx(0.1 * math.exp(-2e6 * traj.times[-1]),
                                       rel=1e-4)

    def test_frozen_inversion_defaults_to_steady_value(self, rng):
        from conftest import random_params
        for _ in range(20):
            p = random_params(rng)
            s = IntegratorSettings(dt=0.05 / p.mechanical.mech_freq,
                                   t_final=1.0 / p.mechanical.mech_freq)
            traj = integrate_reduced(p, None, s)
            dn0 = steady_optics(p, 0.0, 0.0).delta_n
            assert traj.meta["delta_n0"] == dn0
            assert np.all(traj.column("delta_n") == dn0)
            # the b = 0 inversion that gain reports, bit for bit
            assert (float.hex(traj.meta["delta_n0"])
                    == float.hex(gain(p, 0.0).delta_n))

    def test_frozen_inversion_is_held_by_dop853(self, fig2_params):
        """delta_n has derivative 0.0, so the adaptive integrator keeps the
        frozen inversion bit for bit, as RK4 does."""
        s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=0.5e-6,
                               method="dop853", stride=5)
        traj = integrate_reduced(fig2_params, None, s)
        dn = traj.column("delta_n")
        want = np.full(len(dn), complex(traj.meta["delta_n0"]))
        assert len(dn) > 2 and dn.tobytes() == want.tobytes()

    def test_diverged_run_carries_the_run_meta(self, fig2_params):
        with pytest.raises(DivergenceError) as exc:
            integrate_reduced(fig2_params, None, settings_for(8e-6))
        meta = exc.value.partial.meta
        assert meta["model"] == "reduced"
        assert meta["delta_n_mode"] == "frozen"
        assert meta["delta_n0"] == steady_optics(fig2_params, 0, 0).delta_n
        assert meta["diverged_at"] == exc.value.time

    def test_diverged_full_closure_reports_the_closure_inversion(
            self, monkeypatch):
        """A diverged full-closure run's prefix stores, at each stored b,
        the delta_n its step's closure computes (the closed form
        eps^2 / q * (2 J Delta - J kx Re b - gamma kx Im b), q = alpha^2 +
        4 Delta^2 gamma^2), bit for bit, on the kernel and the Python
        loop."""
        p = make_params(pump_power=12e-6)
        c, opt = coefficients(p), p.optical
        gam, J, delta = opt.cavity_loss, opt.coupling, opt.pump_detuning

        def closure_dn(b):
            alpha = c.alpha0 + c.alpha_n * (b.real * b.real + b.imag * b.imag)
            return c.eps2 / (alpha * alpha + c.dg2) * (
                2.0 * J * delta - J * c.kx * b.real - gam * c.kx * b.imag)

        for run, rk4 in ((outcome, "c"),
                         (functools.partial(python_loop, monkeypatch),
                          "python")):
            part, time = run(integrate_reduced, p, None,
                             settings_for(4e-6, stride=1),
                             delta_n_mode="full-closure")
            assert part.meta["rk4"] == rk4
            assert 1.9e-6 < time < 2.0e-6
            expected = [closure_dn(b) for b in map(complex, part.column("b"))]
            dn = part.column("delta_n").real
            assert dn.tobytes() == np.array(expected).tobytes()
            assert np.all(dn[:-2] > 1e7)  # all but the last two blow-ups

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_closure_is_the_supermode_elimination(self, monkeypatch):
        """The closure's closed forms against ``steady_optics(p, b, |b|^2)``
        on seeded random points and amplitudes b, each within a band of
        its term scale: the frozen rhs's drive (eps a+ + eps a-*) / sqrt 2
        within 1e-14 of (|eps a+| + |eps a-|) / sqrt 2 (the drive itself
        cancels near |b| ~ 5e5, where its own relative error reaches
        6e-14), and the full closure's stored
        delta_n = |a+|^2 - |a-|^2 within 1e-12 of |a+|^2 + |a-|^2."""
        grabbed = []  # _solve's arguments (rhs, fill); the stub runs nothing
        monkeypatch.setattr(dynamics, "_solve",
                            lambda *args, **meta: grabbed.append(args))
        rng, sqrt2 = np.random.default_rng(32), math.sqrt(2.0)
        drive_err = dn_err = 0.0
        for _ in range(300):
            p = random_params(rng)
            eps = coefficients(p).derived.eps_l
            integrate_reduced(p)
            integrate_reduced(p, delta_n_mode="full-closure")
            rhs, fill = grabbed[-2][2], grabbed[-1][6]
            bs = 10.0 ** rng.uniform(-3.0, 6.0, 10) * np.exp(
                2j * np.pi * rng.uniform(size=10))
            states = np.zeros((10, 5), dtype=complex)
            states[:, 1] = bs
            fill(states)
            for b, dn in zip(map(complex, bs), states[:, 4].real):
                so = steady_optics(p, b, abs(b) ** 2)
                ap, am = so.a_plus, so.a_minus
                drive = (eps * ap + eps * am.conjugate()) / sqrt2
                # p = 0 and a delta_n of 0.0 (the fifth state) leave the
                # drive alone
                got = rhs(0j, b, 0j, -1.0, 0.0)[0]
                drive_err = max(drive_err, abs(got - drive) / (
                    abs(eps * ap) + abs(eps * am)) * sqrt2)
                dn_err = max(dn_err, abs(dn - (abs(ap) ** 2 - abs(am) ** 2))
                             / (abs(ap) ** 2 + abs(am) ** 2))
        assert drive_err < 1e-14 and dn_err < 1e-12

    def test_frozen_inversion_growth_rate(self, monkeypatch):
        """With the drive off and the inversion frozen positive, b grows at
        the first gain term minus the mechanical loss.  The frozen rhs
        reads delta_n as its fifth state, so RK4 steps it from 3e6."""
        p = make_params(pump_power=0.0, g_d=0.0)
        d = derive_quantities(p)
        delta_n = 3e6
        kx = d.xi * d.x0
        g0_first = kx * kx * GAMMA * delta_n \
            / (2.0 * (2 * p.optical.coupling - OMEGA_M) ** 2 + 8 * GAMMA ** 2)
        grabbed = []  # _solve's arguments; the stub runs nothing
        monkeypatch.setattr(dynamics, "_solve",
                            lambda *args, **meta: grabbed.append(args))
        s = settings_for(40e-6)
        integrate_reduced(p, None, s, delta_n_mode="frozen")
        rhs, n = grabbed[0][2], round(s.t_final / s.dt)
        states = np.empty((1 + -(-n // s.stride), 5), dtype=complex)
        y0 = (0j, 1e-3, 0j, -1.0, delta_n)
        assert dynamics._run_rk4(rhs, y0, s.dt, n, s.stride, states) == n
        times = np.append(np.arange(0, n, s.stride), n) * s.dt
        traj = Trajectory(times, states, dynamics.REDUCED_FIELDS)
        assert np.all(traj.column("delta_n") == delta_n)
        fit = growth_rate(traj, (10e-6, 35e-6))
        assert fit.rate == pytest.approx(g0_first - GAMMA_M, rel=0.10)

    def test_linear_regime_equivalence(self):
        """Defect-free, small |b|, frozen optical populations: the reduced
        model reproduces the full analytic G0 (both terms) within 5%."""
        p = make_params(pump_power=2.5e-6, g_d=0.0,
                        coupling_j=0.52 * OMEGA_M)
        g = gain(p, 0.0)
        s = IntegratorSettings(dt=0.09 / OMEGA_M, t_final=60e-6, stride=5)
        traj = integrate_reduced(p, ReducedState(), s, delta_n_mode="frozen")
        fit = fit_amplitude_window(traj, 20.0, 400.0)
        assert fit.rate == pytest.approx(g.G0 - GAMMA_M, rel=0.05)

    def test_optical_frequency_pull_matches_dynamics(self):
        """The oscillation frequency of b in the rotating frame is
        omega_m - omega_prime.  Fitting the phase slope of the reduced
        model validates the optical pull terms, including the inversion
        factor on the supermode-detuning term and the gamma^2 scale of
        the drive-induced term (a dimensional-consistency check); the
        oracle is evaluated at the window phonon number, where the defect
        term is saturated away."""
        p = make_params(pump_power=1.5e-6, coupling_j=0.505 * OMEGA_M,
                        g_d=1e6, omega_q=OMEGA_M - 3e6)
        s = IntegratorSettings(dt=0.09 / OMEGA_M, t_final=40e-6, stride=5)
        try:
            traj = integrate_reduced(p, ReducedState(b=300.0), s,
                                     delta_n_mode="frozen")
        except DivergenceError as err:
            traj = err.partial
        mask = (traj.times >= 2e-6) & (traj.times <= 30e-6)
        amp = traj.abs_b[mask]
        phase = np.unwrap(np.angle(traj.column("b")[mask]))
        slope = np.polyfit(traj.times[mask], phase, 1)[0]
        measured_pull = slope + OMEGA_M
        n_window = float(np.exp(np.mean(np.log(amp ** 2))))
        oracle = gain(p, n_window).omega_prime
        assert abs(oracle) > 4e4  # the pull is resolvable
        assert measured_pull == pytest.approx(oracle, rel=0.10)

    def test_defect_frequency_pull_in_ringdown(self):
        """Undriven, tiny seed: the defect stays unsaturated and drags the
        mechanical frequency by its dispersive pull term.  The eliminated
        form carries gamma_m/gamma_q and g_d^2/gamma_q^2 corrections, so
        the defect is kept well damped."""
        p = make_params(pump_power=0.0, g_d=1e6, gamma_q=10e6,
                        omega_q=OMEGA_M - 4e6)
        g = gain(p, 0.0)
        s = IntegratorSettings(dt=0.09 / OMEGA_M, t_final=20e-6, stride=5)
        traj = integrate_full(p, MeanFieldState(b=1e-3), s)
        mask = traj.times >= 2e-6
        phase = np.unwrap(np.angle(traj.column("b")[mask]))
        slope = np.polyfit(traj.times[mask], phase, 1)[0]
        measured_pull = slope + OMEGA_M
        assert abs(g.omega_prime) > 3e4
        assert measured_pull == pytest.approx(g.omega_prime, rel=0.10)

    def test_full_closure_tracks_inversion(self, fig2_params):
        s = settings_for(1.5e-6)
        traj = integrate_reduced(fig2_params, None, s,
                                 delta_n_mode="full-closure")
        dn = traj.column("delta_n").real
        target = steady_optics(fig2_params, 0.0, 0.0).delta_n
        assert dn[-1] == pytest.approx(target, rel=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="The reduced model inherits the quasi-static supermode "
        "closure, so above threshold it grows at roughly half the rate of "
        "the full model at the J = Delta = omega_m/2 operating point; the "
        "envelopes leave a 15% band within a few microseconds.")
    def test_envelopes_match_full_model(self, fig2_params):
        s = settings_for(6e-6)
        full = run_with_partial(fig2_params, s,
                                init=MeanFieldState(b=1e-3))
        try:
            red = integrate_reduced(fig2_params, ReducedState(b=1e-3), s,
                                    delta_n_mode="full-closure")
        except DivergenceError as err:
            red = err.partial
        t_hi = min(full.times[-1], red.times[-1])
        mask = (full.times >= 1.5e-6) & (full.times <= t_hi)
        ratio = full.abs_b[mask] / np.interp(full.times[mask], red.times,
                                             red.abs_b)
        ratio = ratio / ratio[0]
        assert np.all(np.abs(ratio - 1.0) <= 0.15)


class TestGrowthRateFit:
    def synthetic(self, rate, t_final=20e-6, b0=1.0):
        t = np.linspace(0.0, t_final, 2001)
        b = b0 * np.exp((rate - 1j * OMEGA_M) * t)
        states = b.reshape(-1, 1).astype(complex)
        return Trajectory(times=t, states=states, fields=("b",))

    def test_recovers_positive_rate(self):
        traj = self.synthetic(0.5e6)
        fit = growth_rate(traj, (0.0, 20e-6))
        assert fit.rate == pytest.approx(0.5e6, rel=1e-12)
        assert fit.stderr < 1.0

    def test_recovers_decay_rate(self):
        traj = self.synthetic(-0.24e6)
        fit = growth_rate(traj, (0.0, 20e-6))
        assert fit.rate == pytest.approx(-0.24e6, rel=1e-12)

    def test_window_outside_rejected(self):
        traj = self.synthetic(1e5)
        with pytest.raises(ValueError, match="outside"):
            growth_rate(traj, (0.0, 1.0))

    def test_zero_amplitude_rejected(self):
        t = np.linspace(0.0, 1e-6, 101)
        b = np.linspace(1.0, 0.0, 101).astype(complex)
        traj = Trajectory(times=t, states=b.reshape(-1, 1), fields=("b",))
        with pytest.raises(ValueError, match="zero"):
            growth_rate(traj, (0.0, 1e-6))

    def test_inverted_window_rejected(self):
        traj = self.synthetic(1e5)
        with pytest.raises(ValueError):
            growth_rate(traj, (2e-6, 1e-6))

    def test_window_with_two_samples_rejected(self):
        traj = self.synthetic(1e5)  # one sample every 1e-8 s
        with pytest.raises(ValueError, match="fewer than 3 samples"):
            growth_rate(traj, (0.0, 1.5e-8))

    def test_window_slice_matches_the_mask(self):
        """The window is found by bisection on the sorted times; the fit
        keeps the bits of the boolean-mask form on random windows, ends on
        a sample time included."""
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.5e-9, 1.5e-9, 3000))
        b = np.exp(2e5 * t + 1e-2 * rng.normal(size=t.size)
                   - 1j * OMEGA_M * t)
        traj = Trajectory(times=t, states=b.reshape(-1, 1), fields=("b",))
        for k in range(300):
            ends = (np.sort(rng.uniform(t[0], t[-1], 2)) if k % 3 else
                    t[np.sort(rng.choice(t.size, 2, replace=False))])
            if k % 5 == 0:
                ends[1] = ends[0] + rng.uniform(0.0, 6e-9)
            t0, t1 = map(float, ends)
            mask = (t >= t0) & (t <= t1)
            if mask.sum() < 3:
                with pytest.raises(ValueError, match="fewer than 3 samples"):
                    growth_rate(traj, (t0, t1))
                continue
            x, y = t[mask], np.log(np.abs(b[mask]))
            x, y = x - x.mean(), y - y.mean()
            rate = float(x @ y / (x @ x))
            stderr = math.sqrt(float(np.sum((y - rate * x) ** 2))
                               / (len(x) - 2) / (x @ x))
            fit = growth_rate(traj, (t0, t1))
            assert (fit.rate.hex(), fit.stderr.hex()) == (rate.hex(),
                                                          stderr.hex())

    def test_nan_window_end_rejected(self):
        traj = self.synthetic(1e5)
        for window in ((0.0, math.nan), (math.nan, 1e-6)):
            with pytest.raises(ValueError, match="t0 < t1"):
                growth_rate(traj, window)

    def test_crossing_time_of_a_level_never_reached(self):
        with pytest.raises(ValueError, match="level 3 never reached"):
            crossing_time(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 3.0)

    def test_crossing_time_at_the_first_sample(self):
        times, values = np.array([0.5, 1.0]), np.array([4.0, 5.0])
        assert crossing_time(times, values, 3.0) == 0.5

    def test_non_finite_amplitude_is_named(self):
        """A nan or infinite |b| inside the window raises and names its
        time (a nan gave rate = stderr = nan); outside it, it is not read.
        A zero before it is named first."""
        t = np.linspace(0.0, 1e-6, 101)
        for bad in (math.nan, complex(0.0, math.nan), math.inf,
                    complex(-math.inf, math.nan)):
            b = np.exp((2e5 - 1j * OMEGA_M) * t)
            b[37] = bad
            traj = Trajectory(times=t, states=b.reshape(-1, 1), fields=("b",))
            with pytest.raises(ValueError, match=(
                    rf"^\|b\| is {abs(bad)} at t = {t[37]:.6g} s$")):
                growth_rate(traj, (0.0, 1e-6))
            fit = growth_rate(traj, (t[38], 1e-6))
            assert fit.rate == pytest.approx(2e5, rel=1e-9)
            b[20] = 0.0
            with pytest.raises(ValueError, match="touches zero"):
                growth_rate(traj, (0.0, 1e-6))

    def test_crossing_time_stops_at_a_nan(self):
        times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"^values\[1\] is nan$"):
            crossing_time(times, np.array([1.0, math.nan, 5.0]), 3.0)
        # a nan after the crossing is not read
        assert crossing_time(times, np.array([1.0, 5.0, math.nan]), 3.0) \
            == 0.5
        with pytest.raises(ValueError, match="level nan never reached"):
            crossing_time(times, np.array([1.0, 5.0, 6.0]), math.nan)

    def test_crossing_time_stops_at_an_infinite_sample(self):
        """An infinite end of the pair it would interpolate across is
        named: -inf gave nan and a RuntimeWarning, inf the earlier
        sample's time; a finite pair interpolates as before."""
        times = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values, name in (((-math.inf, 5.0), r"values\[0\] is -inf"),
                                 ((1.0, math.inf), r"values\[1\] is inf")):
                with pytest.raises(ValueError, match=rf"^{name}$"):
                    crossing_time(times, np.array(values), 3.0)
            assert crossing_time(times, np.array([1.0, 5.0]), 3.0) == 0.5

    def test_crossing_time_matches_the_nonzero_form(self):
        """The first sample not below the level (argmin of the mask) gives
        the bits of the np.nonzero form on random arrays: levels reached
        at sample 0 or never, ties with the level, plateaus, signed zeros."""
        def oracle(times, values, level):
            above = np.nonzero(values >= level)[0]
            if len(above) == 0:
                raise ValueError(f"level {level:g} never reached")
            i = int(above[0])
            if i == 0:
                return float(times[0])
            t0, t1 = times[i - 1], times[i]
            v0, v1 = values[i - 1], values[i]
            frac = (level - v0) / (v1 - v0) if v1 != v0 else 1.0
            return float(t0 + frac * (t1 - t0))

        def result(f, *args):
            try:
                return f(*args).hex()
            except ValueError as err:
                return str(err)

        rng = np.random.default_rng(34)
        seen = dict.fromkeys(("first", "never", "tie", "plateau"), 0)
        for k in range(3000):
            n = int(rng.integers(1, 30))
            times = np.cumsum(rng.uniform(1e-9, 2e-9, n))
            steps = rng.integers(-2, 4, n) * 0.1  # a sixth are 0: plateaus
            values = np.round(rng.normal(0.0, 0.3) + steps.cumsum(), 1)
            level = float((values[rng.integers(n)], rng.normal(0.0, 1.0),
                           values.min() - 0.1, values.max() + 0.1,
                           0.0)[k % 5])
            want = result(oracle, times, values, level)
            assert result(crossing_time, times, values, level) == want
            above = np.nonzero(values >= level)[0]
            i = above[0] if len(above) else None
            seen["first"] += i == 0
            seen["never"] += i is None
            seen["tie"] += i is not None and values[i] == level
            seen["plateau"] += i is not None and i >= 2 \
                and values[i - 1] == values[i - 2]
        assert min(seen.values()) > 100, seen


def non_finite_starts():
    """Each field of each model's start at nan and at inf, under both
    methods.  Such a start was integrated and reported as a blow-up at
    the first step (DivergenceError: non-finite state at t = 1e-10 s)."""
    for integrate, state in ((integrate_full, MeanFieldState),
                             (integrate_reduced, ReducedState)):
        for name in (f.name for f in fields(state)):
            for x, method in itertools.product((math.nan, math.inf),
                                               ("rk4", "dop853")):
                value = x if name == "sigma_z" else complex(x, 0.0)
                yield pytest.param(
                    functools.partial(
                        integrate, make_params(), state(**{name: value}),
                        replace(settings_for(1e-7), method=method)),
                    re.escape(f"initial {name} is {value}, not finite"),
                    id=f"{state.__name__}-{name}-{x}-{method}")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: IntegratorSettings(dt=1e-9, t_final=1e-6,
                                            method="euler"),
                 "method must be 'rk4' or 'dop853'", id="unknown-method"),
    pytest.param(lambda: IntegratorSettings(dt=1e-9, t_final=1e-6,
                                            stride=2.5),
                 "stride must be an integer, not 2.5", id="stride-fraction"),
    pytest.param(lambda: IntegratorSettings(dt=1e-9, t_final=1e-6,
                                            stride=3.0),
                 "stride must be an integer, not 3.0", id="stride-float"),
    # one step stored t = 1e-6 past a 1e-9 t_final; round(0.5) is 0 too
    pytest.param(lambda: IntegratorSettings(dt=1e-6, t_final=1e-9),
                 "t_final / dt rounds to 0 steps", id="zero-steps"),
    pytest.param(lambda: IntegratorSettings(dt=2.0, t_final=1.0),
                 "t_final / dt rounds to 0 steps", id="half-a-step"),
    pytest.param(lambda: IntegratorSettings(dt=1e300, t_final=1e-300),
                 "t_final / dt rounds to 0 steps", id="ratio-underflows"),
    pytest.param(lambda: Trajectory(times=np.zeros(2),
                                    states=np.zeros((3, 1), complex),
                                    fields=("b",)),
                 "times and states lengths differ", id="trajectory-lengths"),
    pytest.param(lambda: Trajectory(times=np.array([0.0, 1.0, 1.0]),
                                    states=np.zeros((3, 1), complex),
                                    fields=("b",)),
                 "times must be strictly increasing", id="trajectory-order"),
    pytest.param(lambda: integrate_reduced(make_params(), None,
                                           settings_for(1e-7),
                                           delta_n_mode="adiabatic"),
                 "delta_n_mode must be 'frozen' or 'full-closure'",
                 id="unknown-delta-n-mode"),
    *non_finite_starts(),
])
def test_malformed_dynamics_input_is_rejected(build, message):
    with pytest.raises(InvalidParameterError, match=message):
        build()


def test_numpy_integer_stride_is_accepted(fig2_params):
    s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=1e-7,
                           stride=np.int64(7))
    assert integrate_full(fig2_params, None, s).states.tobytes() == (
        integrate_full(fig2_params, None, replace(s, stride=7)).states
        .tobytes())


class TestTrajectoryIO:
    def test_csv_round_trip(self, tmp_path, fig2_params):
        s = settings_for(2e-7, stride=10)
        traj = integrate_full(fig2_params, None, s)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["t", "re_a_plus", "im_a_plus", "re_a_minus",
                          "im_a_minus", "re_b", "im_b", "re_sigma_minus",
                          "im_sigma_minus", "sigma_z", "abs_b"]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(traj.times)
        np.testing.assert_allclose(data[:, 0], traj.times, rtol=1e-16)
        np.testing.assert_allclose(data[:, -1], traj.abs_b, rtol=1e-15)

    @staticmethod
    def savetxt_text(traj):
        """The CSV as ``np.savetxt`` wrote it before the sweep table's
        writer took over: the same columns, stacked."""
        cols, parts = ["t"], [traj.times]
        for name in traj.fields:
            col = traj.column(name)
            if name in ("sigma_z", "delta_n"):
                cols.append(name)
                parts.append(col.real)
            else:
                cols += [f"re_{name}", f"im_{name}"]
                parts += [col.real, col.imag]
        cols.append("abs_b")
        parts.append(traj.abs_b)
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack(parts), fmt="%.17g", delimiter=",",
                   header=",".join(cols), comments="")
        return buf.getvalue()

    def test_csv_bytes_are_savetxts(self, tmp_path, fig2_params):
        s = settings_for(1e-6, stride=1)
        full = integrate_full(fig2_params, None, s)
        reduced = integrate_reduced(fig2_params, None, s,
                                    delta_n_mode="full-closure")
        with pytest.raises(DivergenceError) as exc:  # at 1.79 us
            integrate_full(fig2_params, None, settings_for(8e-6))
        for i, traj in enumerate((full, reduced, exc.value.partial)):
            path = tmp_path / f"{i}.csv"
            traj.to_csv(path)
            want = self.savetxt_text(traj)
            assert len(want.splitlines()) == 1 + len(traj.times) > 100
            assert path.read_bytes() == want.encode()

    def test_unknown_column_names_the_fields(self, fig2_params):
        traj = integrate_full(fig2_params, None, settings_for(1e-8))
        assert traj.column("b").shape == traj.times.shape
        with pytest.raises(InvalidParameterError,
                           match=r"no column 'p' in \('a_plus', 'a_minus', "
                                 r"'b', 'sigma_minus', 'sigma_z'\)"):
            traj.column("p")

    def test_reduced_csv_fields(self, tmp_path, fig2_params):
        s = settings_for(2e-7, stride=10)
        traj = integrate_reduced(fig2_params, None, s)
        path = tmp_path / "red.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "re_p", "im_p"]
        assert "delta_n" in header and "sigma_z" in header


def outcome(integrate, *args, **kwargs):
    """(trajectory or diverged prefix, divergence time or None)."""
    try:
        return integrate(*args, **kwargs), None
    except DivergenceError as err:
        return err.partial, err.time


def python_loop(monkeypatch, integrate, *args, **kwargs):
    """The same run through ``_run_rk4``, the Python loop."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_kernel", lambda: None)
        return outcome(integrate, *args, **kwargs)


def assert_same_bits(a, b):
    (ta, at_a), (tb, at_b) = a, b
    assert at_a == at_b
    assert ta.times.tobytes() == tb.times.tobytes()
    assert ta.states.tobytes() == tb.states.tobytes()
    assert ta.fields == tb.fields
    assert dict(ta.meta, rk4=None) == dict(tb.meta, rk4=None)


class TestCompiledKernel:
    """The C kernel against ``_run_rk4``, its oracle: equal bits."""

    @pytest.mark.parametrize("mode", ["full", "frozen", "full-closure"])
    def test_bit_identical_to_python_loop(self, monkeypatch, mode):
        rng = np.random.default_rng(
            {"full": 11, "frozen": 12, "full-closure": 13}[mode])

        def cz(scale):
            return complex(*rng.normal(size=2)) * scale

        # 20 random points with random initial states, half of them with
        # the defect off and |b| = 1e4..1e8, which saturates the supermodes
        # without a blow-up (there the closure's squares show in p); then,
        # from the default state, two that diverge after thousands of steps
        # and an undriven one
        points = []
        for i in range(20):
            off = i % 2 == 1
            p = random_params(rng, g_d=0.0 if off else None)
            dt = rng.uniform(0.02, 0.3) / p.mechanical.mech_freq
            n_steps = int(rng.integers(150, 400))
            log_b = rng.uniform(4.0, 8.0) if off else rng.uniform(-3.0, 7.0)
            points.append((p, dt, n_steps, 10.0 ** log_b))
        points += [(make_params(pump_power=pw), 0.1 / OMEGA_M, 2950, None)
                   for pw in (10e-6, 12e-6, 0.0)]
        diverged = 0
        for p, dt, n_steps, b_abs in points:
            full = mode == "full"
            integrate = integrate_full if full else integrate_reduced
            kwargs = {} if full else {"delta_n_mode": mode}
            if b_abs is None:
                init = None
            elif full:
                init = MeanFieldState(a_plus=cz(100.0), a_minus=cz(100.0),
                                      b=cz(b_abs), sigma_minus=cz(0.3),
                                      sigma_z=rng.uniform(-1.0, 1.0))
            else:
                init = ReducedState(p=cz(1e3), b=cz(b_abs),
                                    sigma_minus=cz(0.3),
                                    sigma_z=rng.uniform(-1.0, 1.0))
            odd = next(k for k in range(3, 40) if n_steps % k)
            for stride in (1, odd):
                s = IntegratorSettings(dt=dt, t_final=n_steps * dt,
                                       stride=stride)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    c = outcome(integrate, p, init, s, **kwargs)
                    py = python_loop(monkeypatch, integrate, p, init, s,
                                     **kwargs)
                assert (c[0].meta["rk4"], py[0].meta["rk4"]) == ("c", "python")
                assert_same_bits(c, py)
                diverged += c[1] is not None
        assert diverged >= 6

    def test_ensemble_member_bit_identical(self, monkeypatch):
        """A dynamics-ensemble-shaped member, the inputs of the kernel's
        speed figures: a lasing point near 10 uW at dt = 0.095/omega_m,
        3 us, stride 5, from the default state."""
        p = make_params(pump_power=9.5e-6, g_d=0.5e6, gamma_q=8e6)
        s = IntegratorSettings(dt=0.095 / OMEGA_M, t_final=3e-6, stride=5)
        runs = {}
        for integrate in (integrate_full, integrate_reduced):
            c = outcome(integrate, p, None, s)
            py = python_loop(monkeypatch, integrate, p, None, s)
            assert (c[0].meta["rk4"], py[0].meta["rk4"]) == ("c", "python")
            assert_same_bits(c, py)
            runs[integrate] = c
        # the full model diverges; the frozen reduced one runs every step
        assert runs[integrate_full][1] is not None
        assert runs[integrate_reduced][1] is None
        assert runs[integrate_reduced][0].meta["steps"] == 4643

    def test_signed_zero_starts_bit_identical(self, monkeypatch):
        """Starts built from +-0 parts, where the kernel's real factors
        (no 0.0 * terms) could change the sign of a zero: the kernel steps
        those with no -0.0 part and hands the others to the loop, and
        both give the loop's bits.  About a fifth of the parts are 1,
        5e-324 or -3e-160, so that zeros also come from underflow."""
        rng = np.random.default_rng(33)
        points = [make_params(pump_power=pw, g_d=gd)
                  for pw in (0.0, 10e-6) for gd in (0.0, 1e6)]
        negative = declined = 0
        for i in range(600):
            v = rng.choice((0.0, -0.0), size=9)
            if i % 2:
                v = np.abs(v)  # no -0.0 part: the kernel steps it
            odd = rng.random(9) < 0.2
            v[odd] = rng.choice((1.0, 5e-324, -3e-160), size=odd.sum())
            v = [float(x) for x in v]
            z = [complex(*v[j:j + 2]) for j in (0, 2, 4, 6)]
            mode = ("full", "frozen", "full-closure")[i % 3]
            p, n = points[i // 3 % 4], 1 + i // 12 % 3
            s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=n * 0.1 / OMEGA_M,
                                   stride=1)
            if mode == "full":
                integrate, kwargs, used = integrate_full, {}, v
                init = MeanFieldState(a_plus=z[0], a_minus=z[1], b=z[2],
                                      sigma_minus=z[3], sigma_z=v[8])
            else:
                integrate, used = integrate_reduced, v[:6] + v[8:]
                kwargs = {"delta_n_mode": mode}
                init = ReducedState(p=z[0], b=z[1], sigma_minus=z[2],
                                    sigma_z=v[8])
            negative += any(math.copysign(1.0, x) < 0 for x in used if x == 0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                c = outcome(integrate, p, init, s, **kwargs)
                py = python_loop(monkeypatch, integrate, p, init, s, **kwargs)
            declined += c[0].meta["rk4"] == "python"
            assert_same_bits(c, py)
        assert declined == negative and 200 < negative < 400

    def test_coupling_zero_signs_bit_identical(self, monkeypatch):
        """The kernel forms k x as (-(k.im x.im), k.im x.re), the loop as
        (0 x.re - k.im x.im, 0 x.im + k.im x.re) with k = i kx / 2.  Starts
        whose a+-, b, p and sigma_- parts mix +-1e-160, 5e-324 and 0.0 (no
        -0.0 part) make those products and their partners underflow, at
        kx ~ 3e3 and, with a 1 mg resonator, at kx ~ 0.7, where k.im
        5e-324 is 0: there the dropped 0 x.re terms decide a zero's sign.
        The kernel steps every start and gives the loop's bits."""
        rng = np.random.default_rng(35)
        points = [make_params(pump_power=pw, g_d=gd, mass=m)
                  for m in (50e-12, 1e-3) for pw in (0.0, 10e-6)
                  for gd in (0.0, 1e6)]
        def signs(w):
            return math.copysign(1.0, w.real), math.copysign(1.0, w.imag)

        decided = 0
        for i in range(480):
            v = [float(x) for x in rng.choice((1e-160, -1e-160, 5e-324, 0.0),
                                              size=8)]
            z = [complex(*v[j:j + 2]) for j in (0, 2, 4, 6)]
            mode = ("full", "frozen", "full-closure")[i % 3]
            p, n = points[i // 3 % 8], 1 + i // 24 % 3
            s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=n * 0.1 / OMEGA_M,
                                   stride=1)
            k = 0.5j * coefficients(p).kx
            if mode == "full":
                integrate, kwargs = integrate_full, {}
                init = MeanFieldState(a_plus=z[0], a_minus=z[1], b=z[2],
                                      sigma_minus=z[3], sigma_z=-1.0)
                factors = (z[0], z[1], z[1].conjugate())
            else:
                integrate, kwargs = integrate_reduced, {"delta_n_mode": mode}
                init = ReducedState(p=z[0], b=z[1], sigma_minus=z[2],
                                    sigma_z=-1.0)
                factors = (z[0],)
            # the loop's k x against the kernel's, at the start
            decided += any(signs(k * x) != signs(
                complex(-(k.imag * x.imag), k.imag * x.real)) for x in factors)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                c = outcome(integrate, p, init, s, **kwargs)
                py = python_loop(monkeypatch, integrate, p, init, s, **kwargs)
            assert (c[0].meta["rk4"], py[0].meta["rk4"]) == ("c", "python")
            assert_same_bits(c, py)
        assert decided > 100

    @pytest.mark.parametrize("model", [0, 1, 2])
    def test_coupling_with_a_real_part_goes_to_the_loop(self, monkeypatch,
                                                        fig2_params, model):
        """The kernel's k x holds for k's zero real part only: a coupling
        with a nonzero or a nan real part returns 0, so the run replays
        the loop, which gives its own bits; a -0.0 real part (kx < 0) is
        stepped."""
        at = 4 if model == 0 else 1  # k's place among the coefficients
        n, lib = 10, dynamics._kernel()
        for k, stepped in ((0.5j, True), (complex(-0.0, 0.5), True),
                           (0.1 + 0.5j, False), (complex(math.nan, 0.5), False)):
            c = np.full(8 if model == 0 else 17, 0.1 + 0.0j)
            c[at] = k
            y0, states = np.full(5, 0.1 + 0.0j), np.empty((n + 1, 5), complex)
            assert lib.integrate(model, c.ctypes.data, y0.ctypes.data, 1e-3,
                                 n, 1, states.ctypes.data) == (n if stepped
                                                               else 0)

        integrate = integrate_full if model == 0 else integrate_reduced
        kwargs = {} if model < 2 else {"delta_n_mode": "full-closure"}
        s = settings_for(1e-7, stride=3)
        want = python_loop(monkeypatch, integrate, fig2_params, None, s,
                           **kwargs)
        solve = dynamics._solve
        for re, ran in ((-0.0, "c"), (0.1, "python"), (math.nan, "python")):
            def skewed(params, settings, rhs, y0, fields, native, *args,
                       **kw):
                coeffs = list(native[1])
                coeffs[at] = complex(re, coeffs[at].imag)
                return solve(params, settings, rhs, y0, fields,
                             (native[0], coeffs), *args, **kw)

            with monkeypatch.context() as m:
                m.setattr(dynamics, "_solve", skewed)
                got = outcome(integrate, fig2_params, None, s, **kwargs)
            assert got[0].meta["rk4"] == ran
            assert_same_bits(got, want)

    def test_undriven_long_run_bit_identical(self, monkeypatch):
        """A dynamics-long-shaped run, the inputs of the kernel's speed
        figure: lossless, undriven, dt = 0.005/omega_m, stride 200.  a+-
        stay +0.0 throughout, so every update of theirs adds zeros."""
        p = make_params(pump_power=0.0, gamma_q=0.0)
        sm = 0.36 * complex(math.cos(0.6), math.sin(0.6))
        init = MeanFieldState(b=1.0, sigma_minus=sm,
                              sigma_z=-math.sqrt(1.0 - 4.0 * abs(sm) ** 2))
        s = IntegratorSettings(dt=0.005 / OMEGA_M,
                               t_final=3 * 2.0 * math.pi / OMEGA_M, stride=200)
        c = outcome(integrate_full, p, init, s)
        py = python_loop(monkeypatch, integrate_full, p, init, s)
        assert (c[0].meta["rk4"], py[0].meta["rk4"]) == ("c", "python")
        assert_same_bits(c, py)
        assert c[1] is None and c[0].meta["steps"] == 3770
        a = c[0].states[:, :2]
        assert a.tobytes() == bytes(a.nbytes)  # every part +0.0

    def test_kernel_writes_only_the_laid_out_rows(self, monkeypatch,
                                                  fig2_params):
        """The kernel gets raw addresses, so a row written past the states
        would corrupt memory instead of raising.  With sentinel rows laid
        after the states: a finished run writes every row, a diverged one
        the rows before its blow-up, and neither touches a row after."""
        sentinel = np.frombuffer(b"\xa5" * 16, complex)[0]
        buffers = []

        class Numpy:  # numpy, whose empty() lays 3 sentinel rows after
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, dtype):
                buffers.append(np.full((shape[0] + 3, shape[1]), sentinel,
                                       dtype))
                return buffers[-1][:shape[0]]

        runs = [(integrate_full, {}), (integrate_reduced, {}),
                (integrate_reduced, {"delta_n_mode": "full-closure"})]
        dt = 0.1 / OMEGA_M
        diverged = 0
        for integrate, kwargs in runs:
            # n_steps < stride; a multiple of it; neither; a blow-up
            for n_steps, stride in ((3, 5), (1, 1), (20, 5), (20, 20),
                                    (23, 5), (round(8e-6 / dt), 7)):
                s = IntegratorSettings(dt=dt, t_final=n_steps * dt,
                                       stride=stride)
                with monkeypatch.context() as m:
                    m.setattr(dynamics, "np", Numpy())
                    traj, at = outcome(integrate, fig2_params, None, s,
                                       **kwargs)
                assert traj.meta["rk4"] == "c"
                buf, written = buffers[-1], len(traj.states)
                assert (buf[written:] == sentinel).all()
                assert (buf[:written] != sentinel).all()
                rows = len(buf) - 3
                assert rows == 1 + -(-n_steps // stride)
                assert written == rows if at is None else written < rows
                diverged += at is not None
                assert_same_bits((traj, at), outcome(integrate, fig2_params,
                                                     None, s, **kwargs))
        assert diverged == 3

    def test_steps_in_meta(self, fig2_params):
        s = settings_for(1e-6, stride=7)
        for integrate in (integrate_full, integrate_reduced):
            assert integrate(fig2_params, None, s).meta["steps"] \
                == round(s.t_final / s.dt)
            with pytest.raises(DivergenceError) as exc:
                integrate(fig2_params, None, settings_for(8e-6))
            meta = exc.value.partial.meta
            assert meta["steps"] == round(exc.value.time / (0.1 / OMEGA_M))
            assert meta["steps"] * (0.1 / OMEGA_M) == exc.value.time

    def test_python_exception_is_raised_by_the_loop(self, monkeypatch):
        """Where Python raises mid-run (here a supermode elimination that
        underflows to singular at b = 0), the kernel's caller replays the
        loop, which raises the same error."""
        p = make_params(gamma=1e-200, pump_detuning=1e-200, coupling_j=0.0)
        s = settings_for(20 / OMEGA_M)
        replays = []
        loop = dynamics._run_rk4
        monkeypatch.setattr(dynamics, "_run_rk4",
                            lambda *a: replays.append(1) or loop(*a))
        errors = []
        for kernel in (dynamics._kernel, lambda: None):
            monkeypatch.setattr(dynamics, "_kernel", kernel)
            with pytest.raises(SingularParameterError) as exc:
                integrate_reduced(p, ReducedState(b=0j), s,
                                  delta_n_mode="full-closure")
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and len(replays) == 2

    def test_fallback_warns_once_and_gives_the_same_bits(self, monkeypatch,
                                                          fig2_params):
        s = settings_for(8e-6, stride=3)
        c = outcome(integrate_full, fig2_params, None, s)

        def unloadable(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        monkeypatch.setattr(dynamics, "_kernel",
                            functools.cache(dynamics._kernel.__wrapped__))
        with pytest.warns(RuntimeWarning, match="RK4 runs in Python"):
            py = outcome(integrate_full, fig2_params, None, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome(integrate_full, fig2_params, None, s)  # no second warning
        assert py[0].meta["rk4"] == "python" and c[1] is not None
        assert_same_bits(c, py)

    def test_threads_building_at_once_each_get_the_kernel(self, tmp_path):
        """4 threads of one process build the kernel of an empty
        ``__pycache__`` at once, behind a barrier, and no build is renamed
        before all 4 are written: each compiles to its own temporary file,
        so none loses its build to another's rename."""
        here = Path(dynamics.__file__).resolve().parent
        shutil.copytree(here, tmp_path / "defectlaser",
                        ignore=shutil.ignore_patterns("__pycache__"))
        probe = textwrap.dedent("""
            import subprocess, threading
            from defectlaser import dynamics
            barrier, got, run = threading.Barrier(4), [], subprocess.run
            def compile_all(*args, **kwargs):
                done = run(*args, **kwargs)
                barrier.wait()
                return done
            subprocess.run = compile_all
            def build():
                barrier.wait()
                got.append(dynamics._kernel.__wrapped__() is not None)
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print(dynamics.__file__, got)
            """)
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        run = subprocess.run([sys.executable, "-W", "always", "-c", probe],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        where = tmp_path / "defectlaser" / "dynamics.py"
        assert run.stdout == f"{where} [True, True, True, True]\n"
        assert run.stderr == ""  # no RuntimeWarning: no thread fell back
        built = sorted(p.name for p in (tmp_path / "defectlaser"
                                        / "__pycache__").glob("_rk4.*"))
        assert len(built) == 1 and built[0].endswith(".so"), built
