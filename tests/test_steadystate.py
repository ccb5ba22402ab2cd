import cmath
import ctypes
import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import math
import pickle
import sys
import threading
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectlaser import (EffectiveParams, GrowthRateFit, IntegratorSettings,
                         InvalidParameterError, MaterialParams,
                         MeanFieldState, ReducedState,
                         SingularParameterError, SweepAxis, SweepSpec,
                         SystemParams, Trajectory, eigenvalues, gain,
                         integrate_full, preset, solve_nb_fixed_point,
                         steady_optics, with_value)
from defectlaser import steadystate, sweep
from defectlaser.config import params_from_config, params_to_config
from defectlaser.constants import HBAR
from defectlaser.params import derive_quantities, setter
from defectlaser.presets import FIGURE_PRESETS
from defectlaser.steadystate import coefficients

from conftest import (GAMMA, GAMMA_M, OMEGA_M, Elimination, make_params,
                      random_params)

#: sha256 of every self-consistent preset row's fixed point (see
#: ``TestFixedPoint.test_every_self_consistent_preset_row_is_pinned``)
FIXED_POINT_PIN = ("28009a720334f15accd95ad41973bfe8"
                   "675a8e3b8acba8e568dd6a930e8c3401")
#: sha256 of ``steady_optics`` off b = 0 (see
#: ``TestSteadyOptics.test_every_bit_is_pinned_off_b0``)
STEADY_OPTICS_PIN = ("b6b4d0639e3ad2211b18fe69e0cb0687"
                     "977fc45b4cde83222a839f854a97dc68")


class TestSteadyOptics:
    def test_zero_detuning_balances_supermodes(self):
        p = make_params(pump_detuning=0.0)
        so = steady_optics(p, 0.0, 0.0)
        assert abs(so.a_plus) == pytest.approx(abs(so.a_minus), rel=1e-12)
        assert so.delta_n == pytest.approx(0.0, abs=1e-9 * abs(so.a_plus) ** 2)

    def test_undriven_cavity_is_dark(self):
        p = make_params(pump_power=0.0)
        so = steady_optics(p, 0.3 + 0.1j, 5.0)
        assert so.a_plus == 0.0
        assert so.a_minus == 0.0

    def test_alpha_definition(self, fig2_params):
        d = derive_quantities(fig2_params)
        opt = fig2_params.optical
        n_b = 7.5
        so = steady_optics(fig2_params, 0.0, n_b)
        expected = (opt.coupling ** 2 + opt.cavity_loss ** 2
                    - opt.pump_detuning ** 2
                    + (d.xi * d.x0) ** 2 * n_b / 4.0)
        assert so.alpha == pytest.approx(expected, rel=1e-15)

    def test_inversion_positive_on_blue_side(self, fig2_params):
        so = steady_optics(fig2_params, 0.0, 0.0)
        assert so.delta_n > 0
        # frozen from the closed form 2 J Delta |eps|^2 / (alpha^2+4 D^2 g^2)
        assert so.delta_n == pytest.approx(12137963.079906974, rel=1e-12)

    def test_inversion_matches_ode_average(self, fig2_params):
        """Independent oracle: long-time mean of |a+|^2 - |a-|^2 from the
        full integration reproduces the eliminated-inversion closed form.
        Run at reduced pump power: at the lasing point |b| runs away and
        the optics never sit at their b = 0 values, so the stationary
        comparison needs the near-threshold drive."""
        p = with_value(fig2_params, "optical.pump_power", 2e-6)
        so = steady_optics(p, 0.0, 0.0)
        assert so.delta_n > 0
        s = IntegratorSettings(dt=0.1 / OMEGA_M, t_final=3.0e-6, stride=4)
        traj = integrate_full(p, None, s)
        t = traj.times
        mask = t > 1.0e-6
        dn = (np.abs(traj.column("a_plus")[mask]) ** 2
              - np.abs(traj.column("a_minus")[mask]) ** 2)
        assert np.mean(dn) == pytest.approx(so.delta_n, rel=0.02)

    def test_negative_nb_rejected(self, fig2_params):
        with pytest.raises(ValueError):
            steady_optics(fig2_params, 0.0, -1.0)

    def test_undamped_resonant_defect_leaves_the_optics_alone(self):
        """At gamma_q = 0, omega_q = omega_m and n_b = 0 the defect's
        elimination is singular, so ``gain`` raises; ``steady_optics``
        reads no defect term and returns the supermode closure of the same
        point with the defect off (``terms``' a+-), bit for bit."""
        p = make_params(gamma_q=0.0, omega_q=OMEGA_M)
        with pytest.raises(SingularParameterError, match="undamped"):
            gain(p, 0.0)
        so = steady_optics(p, 0j, 0.0)
        off = coefficients(with_value(p, "tls.coupling", 0.0))
        alpha, _, a_plus, a_minus = off.terms(0.0)[:4]
        got = np.array([so.a_plus, so.a_minus, so.alpha, so.delta_n])
        want = np.array([a_plus, a_minus, alpha,
                         abs(a_plus) ** 2 - abs(a_minus) ** 2])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_every_bit_is_pinned_off_b0(self):
        """One sha256 over a+-, alpha and delta_n (as float.hex), or the
        error raised, on 400 seeded points and one whose elimination is
        singular at n_b = 0, each at eight amplitudes b (signed zeros, a
        subnormal part, 1e150 parts, a -1e160 one whose |a|^2 overflows)
        and four phonon numbers.  The closure test allows 1e-14 off b = 0;
        this holds every bit there."""
        bs = (0j, complex(-0.0, -0.0), complex(0.0, -0.0), 0.3 + 0.1j,
              complex(-2e5, 5e-324), complex(5e-324, -7e4),
              complex(1e150, 1e150), complex(-1e160, -0.0))
        points = [random_params(np.random.default_rng(seed))
                  for seed in range(400)]
        points.append(make_params(gamma=1e-90, pump_detuning=1e-90,
                                  coupling_j=0.0))
        digest, errors = hashlib.sha256(), 0
        for p, b, n_b in itertools.product(points, bs, (0.0, 1e-3, 1e4, 1e12)):
            try:
                so = steady_optics(p, b, n_b)
            except (SingularParameterError, OverflowError) as err:
                errors += 1
                digest.update(f"{type(err).__name__} {err}\n".encode())
                continue
            digest.update(" ".join(x.hex() for x in (
                so.a_plus.real, so.a_plus.imag, so.a_minus.real,
                so.a_minus.imag, so.alpha, so.delta_n)).encode() + b"\n")
        assert errors == 1604  # 8 singular at n_b = 0, the rest overflow
        assert digest.hexdigest() == STEADY_OPTICS_PIN


class TestGain:
    def test_defect_free_reduction_is_exact(self, fig2_params):
        p = with_value(fig2_params, "tls.coupling", 0.0)
        g = gain(p, 3.0)
        assert g.Gd == 0.0
        assert g.P_thd == 0.0
        assert g.G == g.G0

    def test_resonant_defect_gain_hand_value(self, fig2_params):
        g = gain(fig2_params, 0.0)
        # g_d = 1 MHz, gamma_q = 6.43 MHz, resonant, n_b = 0
        assert g.Gd == pytest.approx(-155520.99533437014, rel=1e-13)

    def test_overdamped_defect_decouples(self, fig2_params):
        p = with_value(fig2_params, "tls.tls_loss", 1e3 * GAMMA)
        g = gain(p, 0.0)
        assert abs(g.Gd) < 1e-3 * p.tls.coupling
        assert g.G == pytest.approx(g.G0, rel=1e-3)

    def test_zero_detuning_zero_linear_gain(self):
        g = gain(make_params(pump_detuning=0.0), 0.0)
        assert g.G0 == pytest.approx(0.0, abs=1e-6 * GAMMA_M)

    def test_stimulated_phonon_number_relation(self, fig2_params):
        g = gain(fig2_params, 2.0)
        assert g.N_b == math.exp(2.0 * (g.G - GAMMA_M) / GAMMA_M)

    def test_undamped_resonant_defect_is_singular(self):
        p = make_params(gamma_q=0.0)
        with pytest.raises(SingularParameterError):
            gain(p, 0.0)

    @pytest.mark.filterwarnings("ignore:defect coupling")
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1e4))
    def test_additivity_and_sign(self, seed, n_b):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        if p.tls.tls_loss == 0.0:
            p = with_value(p, "tls.tls_loss", 1e5)
        g = gain(p, n_b)
        assert g.G == g.G0 + g.Gd  # float-exact: computed as the sum
        assert g.P_th == g.P_th0 + g.P_thd
        assert g.Gd <= 0.0
        assert (g.Gd == 0.0) == (p.tls.coupling == 0.0)

    @pytest.mark.filterwarnings("ignore:defect coupling")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_defect_gain_lorentzian_peaks_on_resonance(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng, g_d=rng.uniform(1e5, 2e6))
        if p.tls.tls_loss == 0.0:
            p = with_value(p, "tls.tls_loss", 1e5)
        n_b = rng.uniform(0.0, 50.0)
        wm = p.mechanical.mech_freq
        on_res = abs(gain(with_value(p, "tls.tls_freq", wm), n_b).Gd)
        for detune in rng.uniform(-0.3, 0.3, size=8) * wm:
            if detune == 0.0:
                continue
            off = abs(gain(with_value(p, "tls.tls_freq", wm + detune), n_b).Gd)
            assert off < on_res


class TestThreshold:
    def test_defect_free(self, fig2_params):
        g = gain(with_value(fig2_params, "tls.coupling", 0.0), 0.0)
        assert g.P_thd == 0.0
        assert g.P_th == g.P_th0

    def test_matched_supermodes_zero_detuning_closed_form(self):
        p = make_params(pump_detuning=0.0)  # 2J = omega_m and Delta = 0
        d = derive_quantities(p)
        p_th0 = gain(p, 0.0).P_th0
        expected = (2.0 * HBAR * 4.0 * GAMMA ** 2
                    * (p.optical.cavity_freq + p.optical.coupling) * GAMMA_M
                    / (d.xi * d.x0) ** 2)
        assert p_th0 == pytest.approx(expected, rel=1e-12)

    def test_threshold_peak_at_gain_minimum(self, fig2_params):
        """The defect threshold penalty is maximal exactly where the gain
        is minimal (fixed n_b); cross-checked against sqrt(2 n_b) g_d."""
        n_b = 2.0
        gqs = np.geomspace(0.05 * GAMMA, 6.0 * GAMMA, 1500)
        p_th = [gain(with_value(fig2_params, "tls.tls_loss", gq), n_b).P_th
                for gq in gqs]
        g = [gain(with_value(fig2_params, "tls.tls_loss", gq), n_b).G
             for gq in gqs]
        i_pth = int(np.argmax(p_th))
        i_g = int(np.argmin(g))
        assert i_pth == i_g
        analytic = math.sqrt(2.0 * n_b) * fig2_params.tls.coupling
        step = gqs[min(i_pth + 1, len(gqs) - 1)] - gqs[max(i_pth - 1, 0)]
        assert abs(gqs[i_pth] - analytic) <= step


class TestFixedPoint:
    def test_undriven_contracts_fast(self):
        p = make_params(pump_power=0.0)
        r = solve_nb_fixed_point(p)
        assert r.converged
        assert r.iterations <= 10
        assert r.n_b_star < 1.0
        g = gain(p, r.n_b_star)
        assert abs(g.N_b - r.n_b_star) <= 1e-10 * max(1.0, r.n_b_star)

    def test_defect_free_residual(self, fig2_params):
        p = with_value(fig2_params, "tls.coupling", 0.0)
        r = solve_nb_fixed_point(p, tol=1e-10)
        assert r.converged
        # direct residual re-evaluation is the oracle
        residual = abs(gain(p, r.n_b_star).N_b - r.n_b_star)
        assert residual <= 1e-10 * max(1.0, r.n_b_star)

    def test_monotone_in_power(self, fig2_params):
        ns = []
        for power in np.linspace(0.5e-6, 20e-6, 24):
            p = with_value(fig2_params, "optical.pump_power", float(power))
            r = solve_nb_fixed_point(p)
            assert r.converged, f"not converged at {power}"
            ns.append(r.n_b_star)
        assert all(b >= a * (1 - 1e-9) for a, b in zip(ns, ns[1:]))

    def test_history_and_report_fields(self, fig2_params):
        r = solve_nb_fixed_point(fig2_params, n_b0=0.0)
        assert r.history[0] == 0.0
        assert len(r.history) >= r.iterations
        assert r.method in ("damped", "bisection")

    def test_infinite_map_at_zero_converges(self, fig2_params):
        """At 1 mW, N_b(G(0)) overflows, so the iteration jumps to the
        1e300 cap and the bisection has to descend from there."""
        p = with_value(fig2_params, "optical.pump_power", 1e-3)
        r = solve_nb_fixed_point(p)
        assert 1e300 in r.history
        assert r.converged and r.method == "bisection"
        residual = abs(gain(p, r.n_b_star).N_b - r.n_b_star)
        assert residual == r.residual <= 1e-10 * max(1.0, r.n_b_star)

    def test_bisection_bracket_expands(self, fig2_params):
        """After one damped step the bracket is [0, 1], and N_b(G(n)) > n at
        both of its ends (two of the three roots lie between), so its top
        grows eightfold, past the third root."""
        p = with_value(fig2_params, "tls.tls_loss", 3.2e5)
        r = solve_nb_fixed_point(p, max_iter=1)
        assert r.history[2] == 0.5 * 8.0 ** 8  # first midpoint
        assert r.converged and r.method == "bisection"
        residual = abs(gain(p, r.n_b_star).N_b - r.n_b_star)
        assert residual == r.residual <= 1e-10 * max(1.0, r.n_b_star)
        # the default solve returns the lowest of the three roots
        r = solve_nb_fixed_point(p)
        assert r.method == "damped"
        assert r.n_b_star == 2.482269828855697e-05

    def test_cycle_exit_keeps_the_bisection_bits(self, fig2_params):
        """At 20 uW the damped loop enters an exact cycle.  Leaving it there
        starts the bisection from the bracket all 200 steps would give, so
        the root and residual keep their bits and only the evaluation
        count is shorter (272 when the loop runs all 200 steps)."""
        p = with_value(fig2_params, "optical.pump_power", 20e-6)
        r = solve_nb_fixed_point(p)
        assert r.method == "bisection"
        assert r.n_b_star == 316928945.20669985
        assert r.residual == 3.5762786865234375e-07
        assert r.iterations == 77

    def test_unclosed_bracket_is_reported(self, fig2_params, monkeypatch):
        """A map that is infinite everywhere leaves no n with N_b(G(n)) < n,
        so the bracket top grows past 1e300 and the solve reports that.
        The kernel never calls ``terms``, so the Python loop runs."""
        monkeypatch.setattr(steadystate, "_kernel", lambda: None)
        monkeypatch.setattr(steadystate.GainCoefficients, "terms",
                            lambda self, n: (math.inf,))
        r = solve_nb_fixed_point(fig2_params)
        assert r.method == "bisection" and r.converged is False
        assert r.n_b_star > 1e300 and r.residual == math.inf

    def test_negative_start_rejected(self, fig2_params):
        with pytest.raises(ValueError):
            solve_nb_fixed_point(fig2_params, n_b0=-1.0)

    def test_every_self_consistent_preset_row_is_pinned(self):
        """One sha256 over n_b*, residual (both as float.hex), iterations,
        method and converged of every row of the six self-consistent
        presets (3471 rows).  A speed-up keeps these bits; a new root
        finder (ROADMAP item 5) moves them on purpose and recaptures it."""
        digest, rows = hashlib.sha256(), 0
        for name in FIGURE_PRESETS:
            spec = preset(name)
            if spec.mode != "self-consistent":
                continue
            for i in range(math.prod(spec.grid_shape())):
                r = solve_nb_fixed_point(spec.point_params(i)[1])
                digest.update(f"{r.n_b_star.hex()} {r.residual.hex()} "
                              f"{r.iterations} {r.method} {r.converged}\n"
                              .encode())
                rows += 1
        assert rows == 3471
        assert digest.hexdigest() == FIXED_POINT_PIN


def reference_n_b_map(p, n):
    """N_b(G(n)) at b = 0, each closed form written out in full.

    The reference for the coefficient bundle: hoisting a factor out of a
    product must not move a single bit, so this must agree exactly.
    """
    d = derive_quantities(p)
    opt, mech, tls = p.optical, p.mechanical, p.tls
    gam, J, delta = opt.cavity_loss, opt.coupling, opt.pump_detuning
    wm = mech.mech_freq
    kx = d.xi * d.x0
    b = 0j
    alpha = J * J + gam * gam - delta * delta + 0.25 * kx * kx * n
    denom_sq = alpha * alpha + 4.0 * delta * delta * gam * gam
    denom = 2.0 * math.sqrt(2.0) * (alpha - 2j * gam * delta)
    a_plus = d.eps_l * (2j * d.omega_minus + 2.0 * gam + 1j * kx * b) / denom
    a_minus = (d.eps_l * (2j * d.omega_plus + 2.0 * gam
                          + 1j * kx * b.conjugate()) / denom)
    delta_n = abs(a_plus) ** 2 - abs(a_minus) ** 2
    dj = 2.0 * J - wm
    nj = dj * dj + 4.0 * gam * gam
    G0 = (kx * kx * gam / (2.0 * nj)
          * (delta_n - delta * dj * d.eps_l ** 2 / denom_sq))
    Gd = 0.0
    if tls.coupling != 0.0:
        dq = tls.tls_freq - wm
        den = tls.tls_loss ** 2 + dq * dq + 2.0 * tls.coupling ** 2 * n
        Gd = -tls.coupling ** 2 * tls.tls_loss / den
    exponent = 2.0 * (G0 + Gd - mech.mech_loss) / mech.mech_loss
    return math.inf if exponent > 700.0 else math.exp(exponent)


class TestEliminationOracle:
    """Every printed gain quantity against ``Elimination``, which eliminates
    p and sigma_- from the reduced model's own right-hand side.  Bands are
    5-16x the largest error measured on 2100 points over seven seeds."""

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_closed_forms_match_the_elimination(self, rng):
        for _ in range(300):
            p = random_params(rng)
            oracle, g = Elimination(p), gain(p, 0.0)
            optical, defect = oracle.sigma()
            sigma = optical + defect
            scale = abs(g.G0) + abs(g.Gd)
            gamma_m = p.mechanical.mech_loss
            assert abs(sigma.real - g.G) <= 1e-8 * scale  # 1.6e-9 seen
            assert abs(sigma.real - (g.G0 + g.Gd)) <= 1e-8 * scale
            assert abs(defect.real - g.Gd) <= 1e-12 * scale  # 6.3e-14
            assert abs(sigma.imag - g.omega_prime) <= 1e-7 * (  # 1.3e-8
                abs(optical.imag) + abs(defect.imag))
            if 0.0 < g.N_b < math.inf:
                assert abs(math.log(g.N_b) - 2.0 * (sigma.real - gamma_m)
                           / gamma_m) <= 1e-8 * 2.0 * scale / gamma_m
            # P_th: Re Sigma = gamma_m at the frozen inversion dn_th, which
            # is affine in dn; converted as P = hbar (omega_c + J) gamma dn
            zero = sum(oracle.sigma(delta_n=0.0)).real
            dn_th = oracle.delta_n * (gamma_m - zero) / (sigma.real - zero)
            opt = p.optical
            power = (HBAR * (opt.cavity_freq + opt.coupling) * opt.cavity_loss
                     * dn_th)
            assert abs(power - g.P_th) <= 5e-8 * (  # 9.1e-9 seen
                abs(g.P_th0) + abs(g.P_thd))
            # Gd saturates with sigma_z, steady under a drive of n_b phonons;
            # at this n_b the saturation 2 g_d^2 n_b is 2 (gamma_q^2 + dq^2)
            tls = p.tls
            n_b = (tls.tls_loss ** 2 + (tls.tls_freq - p.mechanical.mech_freq)
                   ** 2) / tls.coupling ** 2
            sigma_z = oracle.saturated_sigma_z(n_b)
            gd = gain(p, n_b).Gd
            assert abs(oracle.sigma(sigma_z=sigma_z)[1].real - gd) <= (
                1e-12 * abs(gd))  # 4.8e-14 seen


class TestGainKernel:
    """The fixed point iterates ``GainCoefficients.terms``; it must give
    the bits ``gain`` reports, so the iterates match the closed forms."""

    @pytest.mark.filterwarnings("ignore:defect coupling")
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.one_of(st.just(0.0), st.floats(1e-12, 1e12)),
           decoupled=st.booleans(),
           pump_scale=st.sampled_from([1.0, 1e3, 1e5]))
    @example(seed=1, n=0.0, decoupled=True, pump_scale=1.0)
    @example(seed=1, n=1.0, decoupled=False, pump_scale=1e5)
    def test_map_is_bit_identical_to_gain(self, seed, n, decoupled,
                                          pump_scale):
        p = random_params(np.random.default_rng(seed),
                          g_d=0.0 if decoupled else None)
        p = with_value(p, "optical.pump_power",
                       p.optical.pump_power * pump_scale)
        mapped = coefficients(p).terms(n)[-1]
        g = gain(p, n)
        for other in (g.N_b, reference_n_b_map(p, n)):
            assert mapped == other or (math.isinf(mapped)
                                       and math.isinf(other))

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_terms_is_the_b0_form(self):
        """``terms`` evaluates a+- from the hoisted b = 0 numerators
        eps_l x+-; every entry it shares with ``steady_optics(p, 0j, n)``
        (its alpha, alpha^2 + 4 Delta^2 gamma^2, a+-, ``abs(a) ** 2``
        inversion) and ``defect_den`` has their bits, signed zeros and nan
        included.
        300 draws: |a|**2 and |a|*|a| differ on 7 of their 3600 a+-."""
        def bits(z):
            return None if z is None else (float(z.real).hex(),
                                           float(z.imag).hex())

        for seed in range(300):
            g_d = 0.0 if seed % 4 == 0 else None
            p = random_params(np.random.default_rng(seed), g_d)
            c = coefficients(p)
            for n in (0.0, 1e-12, 1.0, 1e3, 1e8, 1e300):
                so = steady_optics(p, 0j, n)
                denom_sq = so.alpha * so.alpha + c.dg2
                slow = (so.alpha, denom_sq, so.a_plus, so.a_minus,
                        so.delta_n, c.defect_den(n))
                assert (list(map(bits, c.terms(n)[:6]))
                        == list(map(bits, slow))), (seed, n)

    def test_overflow_branch_reports_inf(self, fig2_params):
        hot = with_value(fig2_params, "optical.pump_power", 1.0)
        assert coefficients(hot).terms(1.0)[-1] == math.inf
        assert gain(hot, 1.0).N_b == math.inf

    @staticmethod
    def raised(p, slow):
        """The messages of the SingularParameterError that ``gain``,
        ``terms``, the fixed point and ``slow(bundle)`` raise at n_b = 0."""
        raised = []
        for evaluate in (lambda: gain(p, 0.0),
                         lambda: coefficients(p).terms(0.0),
                         lambda: solve_nb_fixed_point(p),
                         lambda: slow(coefficients(p))):
            with pytest.raises(SingularParameterError) as err:
                evaluate()
            raised.append(str(err.value))
        return raised

    def test_singular_defect_raises_the_same_error(self):
        raised = self.raised(make_params(gamma_q=0.0),
                             lambda c: c.defect_den(0.0))
        assert len(set(raised)) == 1

    def test_singular_supermodes_raise_the_same_error(self):
        # alpha = 0 exactly, and 4 Delta^2 gamma^2 underflows to 0
        p = make_params(gamma=1e-90, pump_detuning=1e-90, coupling_j=0.0)
        raised = self.raised(p, lambda c: steady_optics(p, 0j, 0.0))
        assert len(set(raised)) == 1 and "vanished" in raised[0]

    @pytest.mark.parametrize("pump_power", [10e-6, 20e-6])
    def test_evaluations_count_every_map_call(self, fig2_params, monkeypatch,
                                              pump_power):
        calls = []
        terms = steadystate.GainCoefficients.terms

        def counted(self, n):
            calls.append(n)
            return terms(self, n)

        # the kernel never calls terms: count the Python loop's calls
        monkeypatch.setattr(steadystate, "_kernel", lambda: None)
        monkeypatch.setattr(steadystate.GainCoefficients, "terms", counted)
        p = with_value(fig2_params, "optical.pump_power", pump_power)
        r = solve_nb_fixed_point(p)
        assert r.converged
        assert r.method == ("damped" if pump_power == 10e-6 else "bisection")
        assert r.iterations == len(calls) - 1 >= 0


def report_bits(r):
    """Every field of a ``FixedPointReport``, each float as float.hex."""
    return (r.n_b_star.hex(), r.iterations, r.residual.hex(), r.converged,
            r.method, [x.hex() for x in r.history])


@pytest.fixture
def kernel_returns(monkeypatch):
    """What each call of ``_fixed_point.c``'s entry returns (0: replay)."""
    lib = steadystate._kernel()
    assert lib is not None
    entry, returns = lib.fixed_point, []

    def recorded(*args):
        returned = entry(*args)
        returns.append(returned)
        return returned

    monkeypatch.setattr(lib, "fixed_point", recorded)
    return returns


def python_loop(monkeypatch, p, **kwargs):
    """The same solve through the Python loop, the kernel's oracle."""
    with monkeypatch.context() as m:
        m.setattr(steadystate, "_kernel", lambda: None)
        return solve_nb_fixed_point(p, **kwargs)


class TestFixedPointKernel:
    """``_fixed_point.c`` against the Python loop: equal bits."""

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_bit_identical_to_python_loop(self, monkeypatch, kernel_returns,
                                          fig2_params):
        # 2400 random points at 1, 10 and 100 times their pump with random
        # n_b0, tol and max_iter; then the 1 mW map that is infinite at 0,
        # the three-root point after one damped step, and the 20 uW exact
        # cycle
        rng = np.random.default_rng(28)
        cases = []
        for i in range(2400):
            p = random_params(rng)
            p = with_value(p, "optical.pump_power",
                           p.optical.pump_power * (1.0, 10.0, 100.0)[i % 3])
            cases.append((p, {
                "n_b0": 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-3, 9),
                "tol": 10.0 ** rng.uniform(-13, -6),
                "max_iter": int(rng.integers(1, 300))}))
        cases += [
            (with_value(fig2_params, "optical.pump_power", 1e-3), {}),
            (with_value(fig2_params, "tls.tls_loss", 3.2e5), {"max_iter": 1}),
            (with_value(fig2_params, "optical.pump_power", 20e-6), {})]
        methods = []
        for p, kwargs in cases:
            c = solve_nb_fixed_point(p, **kwargs)
            py = python_loop(monkeypatch, p, **kwargs)
            assert report_bits(c) == report_bits(py), (p, kwargs)
            methods.append(c.method)
        # the kernel answered every solve, none was replayed
        assert len(kernel_returns) == len(cases) and min(kernel_returns) > 0
        assert methods.count("bisection") >= 100
        assert c.iterations == 77  # after the cycle exit (272 without)

    @pytest.mark.parametrize("case", ["singular", "abs", "square"])
    def test_raising_point_replays_the_same_error(self, monkeypatch,
                                                  kernel_returns, fig2_params,
                                                  case):
        """Where the map raises, the kernel returns 0 and the loop raises.
        The two overflows come from a bundle patched into the cache: at
        alpha = 0.1 a numerator of 3.7e307 (1 + i) makes abs(a+) overflow,
        and one of 1e200 makes abs(a+) ** 2 overflow."""
        if case == "singular":  # alpha = 0, 4 Delta^2 gamma^2 underflows
            p = make_params(gamma=1e-90, pump_detuning=1e-90, coupling_j=0.0)
        else:
            p = fig2_params
            p.__dict__["_coefficients"] = dataclasses.replace(
                coefficients(p), alpha0=0.1, alpha_n=0.0, dg2=0.0, dg_im=0j,
                num_plus=complex(3.7e307, 3.7e307) if case == "abs"
                else complex(1e200, 0.0))
        raised = []
        for solve in (solve_nb_fixed_point, functools.partial(
                python_loop, monkeypatch)):
            with pytest.raises((SingularParameterError, OverflowError)) as err:
                solve(p)
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1] and kernel_returns == [0]
        assert (raised[0][0] is OverflowError) == (case != "singular")

    def test_history_overflow_replays_the_same_report(self, monkeypatch,
                                                      kernel_returns,
                                                      fig2_params):
        # this thread's room: 17 inputs, 5 outputs and 5 history entries,
        # where the solve keeps 10
        monkeypatch.setattr(steadystate._rooms, "w",
                            array("d", bytes(8 * (17 + 5 + 5))), raising=False)
        c = solve_nb_fixed_point(fig2_params)
        assert len(c.history) > 5 and kernel_returns == [0]
        assert report_bits(c) == report_bits(
            python_loop(monkeypatch, fig2_params))

    def test_inputs_it_cannot_take_go_to_the_loop(self, kernel_returns,
                                                  fig2_params):
        # a max_iter beyond int64: no kernel call
        r = solve_nb_fixed_point(fig2_params, max_iter=2 ** 64 + 200)
        assert r.converged and type(r.history[0]) is float
        assert kernel_returns == []
        # an int n_b0 is made a float first: one kernel call, same bits
        r = solve_nb_fixed_point(fig2_params, n_b0=0)
        assert type(r.history[0]) is float and kernel_returns == [len(
            r.history)]
        assert report_bits(r) == report_bits(
            solve_nb_fixed_point(fig2_params, n_b0=0.0))

    @pytest.mark.parametrize("kwargs", [{"n_b0": 10 ** 400},
                                        {"tol": 10 ** 400}])
    def test_int_past_the_doubles_is_invalid(self, kwargs, fig2_params):
        with pytest.raises(InvalidParameterError, match="fit a double"):
            solve_nb_fixed_point(fig2_params, **kwargs)

    def test_threads_each_solve_in_their_own_room(self, monkeypatch):
        """4 threads solve the seed-0 ``sweep-selfconsistent`` rows at once;
        ctypes releases the GIL inside the kernel, so a room shared between
        threads would be overwritten mid-solve.  Each thread builds its own
        rows, as the sweep does, and gets the serial reports."""
        specs = perfbench_specs(monkeypatch, "sweep-selfconsistent", 0)
        lib = steadystate._kernel()
        entry, returns = lib.fixed_point, []

        def counted(*args):
            k = entry(*args)
            returns.append(k)
            return k

        monkeypatch.setattr(lib, "fixed_point", counted)

        def solve_rows(barrier=None):
            if barrier is not None:
                barrier.wait()
            return [report_bits(solve_nb_fixed_point(p)) for spec in specs
                    for _, p in sweep._grid_points(spec)]

        serial = solve_rows()
        barrier = threading.Barrier(4)
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(solve_rows, [barrier] * 4))
        assert len(serial) == 2026
        for reports in threaded:
            assert reports == serial
        # the kernel answered every solve, none was replayed
        assert len(returns) == 5 * 2026 and min(returns) > 0

    def test_fallback_warns_once_and_gives_the_same_bits(self, monkeypatch,
                                                          fig2_params):
        p = with_value(fig2_params, "optical.pump_power", 20e-6)
        c = solve_nb_fixed_point(p)

        def unloadable(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        monkeypatch.setattr(steadystate, "_kernel",
                            functools.cache(steadystate._kernel.__wrapped__))
        with pytest.warns(RuntimeWarning,
                          match="the fixed point runs in Python"):
            py = solve_nb_fixed_point(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = solve_nb_fixed_point(p)  # no second warning
        assert report_bits(c) == report_bits(py) == report_bits(again)


def perfbench_specs(monkeypatch, workload, seed):
    """The sweep specs of one perfbench workload at ``seed``, built by
    ``perfbench/workloads.py`` on its generated parameter file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    base = params_from_config(workloads.config_text(workload, seed))
    return workloads.build(workload, seed, base).specs


def bundle_bits(c):
    """Every field of a ``GainCoefficients``, each float as float.hex."""
    def bits(x):
        if isinstance(x, complex):
            return x.real.hex(), x.imag.hex()
        if isinstance(x, float):
            return x.hex()
        return [bits(v) for v in vars(x).values()]  # DerivedQuantities
    return [(f.name, bits(getattr(c, f.name))) for f in dataclasses.fields(c)]


def fresh_bundle(monkeypatch, p):
    """The bundle ``coefficients`` builds for a copy of ``p`` (no bundle
    cached on it) with no earlier build to take the optics from."""
    monkeypatch.setattr(steadystate, "_last", (None, None, None))
    return coefficients(dataclasses.replace(p))


@pytest.fixture
def derive_calls(monkeypatch):
    """The parameter sets ``coefficients`` derives the optics of."""
    calls = []

    def counted(params):
        calls.append(params)
        return derive_quantities(params)

    monkeypatch.setattr(steadystate, "derive_quantities", counted)
    return calls



class TestCoefficientCache:
    """``coefficients`` builds one bundle per parameter object and keeps it
    on that object; nothing else about the object changes."""

    def test_one_bundle_per_object(self, fig2_params):
        assert coefficients(fig2_params) is coefficients(fig2_params)

    def test_object_unchanged_by_the_bundle(self):
        p, twin = make_params(), make_params()
        before = (hash(p), repr(p), params_to_config(p))
        coefficients(p)
        assert "_coefficients" in vars(p)
        assert p == twin and twin == p
        assert (hash(p), repr(p), params_to_config(p)) == before
        q = pickle.loads(pickle.dumps(p))
        assert q == twin and hash(q) == hash(twin) and repr(q) == repr(twin)
        assert coefficients(q) == coefficients(twin) == coefficients(p)

    def test_child_gets_its_own_bundle(self, fig2_params):
        parent = coefficients(fig2_params)
        child = with_value(fig2_params, "optical.pump_power",
                           4.0 * fig2_params.optical.pump_power)
        assert "_coefficients" not in vars(child)
        assert coefficients(child) is not parent
        assert coefficients(child).eps_l == pytest.approx(2.0 * parent.eps_l,
                                                          rel=1e-15)
        assert coefficients(fig2_params) is parent

    def test_out_of_range_bundle_is_not_cached(self):
        # 2J = omega_m at the base point, so nj = 4 gamma^2 underflows to 0
        p = make_params(gamma=1e-300)
        for _ in range(2):
            with pytest.raises(SingularParameterError, match="is 0"):
                coefficients(p)
        assert "_coefficients" not in p.__dict__

    def test_overflowing_numerator_is_out_of_range(self):
        # eps_l ~ 1.26e154 and omega_-+ = -+1.3e154: every other coefficient
        # is finite, but eps_l * x_+- overflows to an infinite num_+-
        p = make_params(pump_power=1e250, cavity_freq=1.2e-24,
                        pump_detuning=0.0, coupling_j=1.3e154, gamma=1.0,
                        omega_m=2.6e154, omega_q=2.6e154)
        with pytest.raises(SingularParameterError,
                           match="leave the floating-point range"):
            coefficients(p)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_bundle_has_a_non_finite_coefficient(self):
        # every input at an extreme value, alone or with one other one:
        # coefficients raises or returns only finite coefficients
        extremes = (5e-324, 1e-300, 1e300, 1.7e308, math.inf)
        names = ("pump_power", "coupling_j", "gamma", "gamma_m", "g_d",
                 "gamma_q", "omega_q", "omega_m", "mass", "radius",
                 "cavity_freq")
        single = [(n, v) for n in names for v in extremes]
        single += [("pump_detuning", s * v) for s in (1, -1) for v in extremes]
        for kw in itertools.chain(((s,) for s in single),
                                  itertools.combinations(single, 2)):
            try:
                c = coefficients(make_params(**dict(kw)))
            except (InvalidParameterError, SingularParameterError):
                continue
            bad = [f.name for f in dataclasses.fields(c)[1:]
                   if not cmath.isfinite(getattr(c, f.name))]
            assert not bad, (kw, bad)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_a_reused_bundle_equals_a_fresh_one(self, monkeypatch, rng,
                                                derive_calls):
        """Steps along a defect path keep the optical and mechanical
        blocks, so their bundles take the optics of the last build and
        derive only the defect's fields: bit for bit the fresh bundle."""
        draw = {"tls.tls_loss": lambda p: rng.uniform(1e5, 2e7),
                "tls.coupling": lambda p: rng.uniform(0.0, 3e6),
                "tls.tls_freq": lambda p: p.mechanical.mech_freq
                * rng.uniform(0.8, 1.2),
                "material.tls_loss": lambda p: rng.uniform(1e5, 2e7),
                "material.deformation_potential": lambda p: rng.uniform(
                    0.5, 2.0) * 1.6e-19}
        reused = 0
        for i in range(40):
            p = random_params(rng)
            if i % 2:  # the defect derived from material data
                p = SystemParams(p.optical, p.mechanical, material=MaterialParams(
                    1.6e-19, p.tls.tls_freq, 0.0, 72e9, 1e-19, p.tls.tls_loss))
            coefficients(p)
            for path in draw:
                if path.startswith("material") and p.material is None:
                    continue
                build = setter(p, path)
                for _ in range(3):
                    q = build(draw[path](p))
                    n = len(derive_calls)
                    c = coefficients(q)
                    assert len(derive_calls) == n, path  # no optics derived
                    assert bundle_bits(c) == bundle_bits(
                        fresh_bundle(monkeypatch, q)), (path, q)
                    reused += 1
        assert reused == 20 * 3 * 3 + 20 * 5 * 3

    @pytest.mark.parametrize("path", ["optical.pump_power",
                                      "optical.pump_detuning",
                                      "mechanical.mech_loss",
                                      "mechanical.mech_freq"])
    def test_a_changed_block_rebuilds(self, monkeypatch, rng, derive_calls,
                                      path):
        for _ in range(10):
            p = random_params(rng)
            coefficients(p)
            group, name = path.split(".")
            q = with_value(p, path, getattr(getattr(p, group), name) * 1.25)
            c = coefficients(q)
            assert derive_calls[-1] is q
            assert bundle_bits(c) == bundle_bits(fresh_bundle(monkeypatch, q))
        # an equal block that is another object is a new block: ``is``
        p, twin = make_params(), make_params()
        coefficients(p)
        n = len(derive_calls)
        assert coefficients(twin) == coefficients(p)
        assert derive_calls[n:] == [twin]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("path, value", [("tls.coupling", 1e160),
                                             ("tls.tls_loss", 1e160),
                                             ("tls.tls_freq", 1.7e308)])
    def test_out_of_range_defect_raises_as_a_fresh_build(
            self, monkeypatch, derive_calls, path, value):
        # g_d ** 2 and gamma_q ** 2 overflow; dq * dq makes tls_den0 inf
        p = make_params()
        coefficients(p)
        q = with_value(p, path, value)
        raised = []
        for build in (coefficients, functools.partial(fresh_bundle,
                                                      monkeypatch)):
            with pytest.raises(SingularParameterError) as err:
                build(q)
            raised.append(str(err.value))
        assert derive_calls == [p, mock.ANY]  # the first took the optics
        assert raised[0] == raised[1] == steadystate._OUT_OF_RANGE
        assert "_coefficients" not in vars(q)

    def test_fixed_point_gain_and_optics_share_one_bundle(self, derive_calls):
        calls = derive_calls
        p = make_params()
        n_b = solve_nb_fixed_point(p).n_b_star
        g = gain(p, n_b)
        steady_optics(p, 0j, n_b)
        assert calls == [p]
        fresh = make_params()
        assert gain(fresh, n_b) == g and len(calls) == 2



class TestInputsFrozenRecordsPlain:
    """Inputs are frozen: they are hashed, compared, and a SystemParams
    carries the coefficient cache.  Results are plain dataclasses, built
    fresh by every call, which keep the dataclass protocol."""

    INPUTS = {  # each builds a new object, equal to the last one built
        "OpticalParams": lambda: make_params().optical,
        "MechanicalParams": lambda: make_params().mechanical,
        "TlsParams": lambda: make_params().tls,
        "MaterialParams": lambda: MaterialParams(1.6e-19, OMEGA_M, 0.0,
                                                 72e9, 1e-19, 1e6),
        "SystemParams": make_params,
        "EffectiveParams": lambda: EffectiveParams.at(make_params(), 2.0,
                                                      1e5),
        "SweepAxis": lambda: SweepAxis("tls.tls_loss", 1e6, 2e6, 3),
        "SweepSpec": lambda: SweepSpec(
            base=make_params(), axes=(SweepAxis("tls.tls_loss", 1, 2, 3),),
            quantities=("G",), mode="fixed-nb", n_b_fixed=0.0),
        "IntegratorSettings": lambda: IntegratorSettings(dt=1e-9,
                                                         t_final=1e-6),
        "MeanFieldState": MeanFieldState,
        "ReducedState": ReducedState,
        "GrowthRateFit": lambda: GrowthRateFit(1.0, 0.1),
    }

    @pytest.mark.parametrize("make", INPUTS.values(), ids=list(INPUTS))
    def test_inputs_are_frozen_and_hash_by_value(self, make):
        a, b = make(), make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, dataclasses.fields(a)[0].name, None)
        assert a is not b and a == b and hash(a) == hash(b)

    def test_trajectory_is_frozen(self):
        traj = Trajectory(np.zeros(1), np.zeros((1, 1), complex), ("b",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.meta = {}

    @staticmethod
    def records():
        p = make_params()
        report = solve_nb_fixed_point(p)
        g = gain(p, report.n_b_star)
        return [derive_quantities(p), coefficients(p), g, report,
                eigenvalues(EffectiveParams.at(p, report.n_b_star, g.G0))]

    def test_records_keep_the_dataclass_protocol(self):
        for r, twin in zip(self.records(), self.records()):
            names = [f.name for f in dataclasses.fields(r)]
            assert r == twin and r is not twin
            assert repr(r) == repr(twin)
            assert repr(r).startswith(f"{type(r).__name__}({names[0]}=")
            assert list(dataclasses.asdict(r)) == names
            assert dataclasses.replace(r) == r
            changed = dataclasses.replace(r, **{names[-1]: "changed"})
            assert changed != r and getattr(changed, names[-1]) == "changed"
