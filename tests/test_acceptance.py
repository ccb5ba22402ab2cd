"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 5 integrates the reduced model (``integrate_reduced``), the
model the eliminated gain G = G0 + Gd is derived from: eliminating the
supermode coherence p and the defect coherence from it gives the closed
forms.  The full two-mode model (``integrate_full``) keeps the Stokes
sideband as its own pole and grows faster near Delta + J = omega_m; that
gap is measured, not hidden, by
test_dynamics.py::TestFullModel::test_growth_matches_exact_linearization,
test_steadystate.py::TestSteadyOptics::test_inversion_matches_ode_average
and the two strict xfails
test_dynamics.py::TestFullModel::test_growth_matches_eliminated_gain_formula
and test_dynamics.py::TestReducedModel::test_envelopes_match_full_model
(see *Known model limitation* in the README).
"""

import math
import time

import numpy as np
import pytest

from defectlaser import (DivergenceError, EffectiveParams,
                         IntegratorSettings, crossing_time,
                         eigenvalues, gain, growth_rate, integrate_full,
                         integrate_reduced, preset, run_sweep, turning_point,
                         with_value)
from defectlaser.dynamics import MeanFieldState

from conftest import (GAMMA, GAMMA_M, OMEGA_M, assert_matches_eig,
                      gamma_q_ep_resonant, make_params, random_params)


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_c1_defect_free_reduction(self, rng):
        """g_d = 0 forces Gd = 0, P_thd = 0 and G == G0 exactly."""
        bad = 0
        for _ in range(10_000):
            p = random_params(rng, g_d=0.0)
            n_b = rng.uniform(0.0, 1e4)
            g = gain(p, n_b)
            if not (g.Gd == 0.0 and g.P_thd == 0.0 and g.G == g.G0):
                bad += 1
        verdict("C1 defect-free reduction", bad == 0,
                f"{bad}/10000 random sets violated the exact identities")

    def test_c2_turning_point_sweep(self, fig2_params):
        """argmin of G(gamma_q) on a 2000-point log grid hits
        sqrt(2 n_b) g_d within one grid step, in under 1 s per case."""
        gqs = np.geomspace(0.05 * GAMMA, 6.0 * GAMMA, 2000)
        worst = ""
        ok = True
        for n_b in (1.0, 2.0, 5.0):
            t0 = time.perf_counter()
            g_vals = np.array(
                [gain(with_value(fig2_params, "tls.tls_loss", gq), n_b).G
                 for gq in gqs])
            elapsed = time.perf_counter() - t0
            i = int(np.argmin(g_vals))
            analytic = math.sqrt(2.0 * n_b) * fig2_params.tls.coupling
            step = gqs[min(i + 1, len(gqs) - 1)] - gqs[max(i - 1, 0)]
            hit = abs(gqs[i] - analytic) <= step and elapsed < 1.0
            if not hit:
                ok = False
            worst += (f" n_b={n_b:g}: grid {gqs[i]:.6g} vs analytic "
                      f"{analytic:.6g} ({elapsed:.2f}s);")
        verdict("C2 turning point", ok, worst.strip())

    def test_c3_ep_degeneracy(self, rng):
        """Eigenvalue gap closes at the resonant EP loss rate, and the
        closed form agrees with direct 2x2 diagonalization."""
        worst_gap = 0.0
        for _ in range(1000):
            n_b = rng.uniform(1.0, 5.0)
            g_d = rng.uniform(0.05e6, 1.0e6)
            gpm = rng.uniform(-1.0e6, 1.0e6)
            gq_ep = gpm + 2.0 * math.sqrt(n_b) * g_d
            if gq_ep <= 0:
                continue
            eff = EffectiveParams(n_b=n_b, omega_m=OMEGA_M, omega_q=OMEGA_M,
                                  gamma_m_eff=gpm, gamma_q=gq_ep, g_d=g_d)
            worst_gap = max(worst_gap, eigenvalues(eff).gap)
        gap_ok = worst_gap <= 1e-9 * OMEGA_M

        # cross-check clause on generic (well-conditioned) random points:
        # closed form vs 2x2 diagonalization within 1e-12 relative
        checked = 0
        while checked < 1000:
            eff = EffectiveParams(
                n_b=rng.uniform(1.0, 50.0),
                omega_m=OMEGA_M, omega_q=OMEGA_M * rng.uniform(0.9, 1.1),
                gamma_m_eff=rng.uniform(-3e6, 3e6),
                gamma_q=rng.uniform(0.0, 2e7), g_d=rng.uniform(0.0, 3e6))
            from defectlaser import discriminant
            if abs(discriminant(eff)) < (1e-5 * eff.n_b * OMEGA_M) ** 2:
                continue
            assert_matches_eig(eff)
            checked += 1
        verdict("C3 EP degeneracy", gap_ok,
                f"worst gap {worst_gap:.3g} rad/s vs bound "
                f"{1e-9 * OMEGA_M:.3g}; {checked} cross-checks at 1e-12")

    def test_c4_turning_point_below_ep(self, rng):
        """gamma_q_min < gamma_q_EP whenever the hypothesis holds."""
        tested = 0
        ok = True
        while tested < 2000:
            n_b = rng.uniform(1.0, 100.0)
            g_d = rng.uniform(1e4, 3e6)
            gpm = rng.uniform(-2e6, 2e6)
            eff = EffectiveParams(n_b=n_b, omega_m=OMEGA_M, omega_q=OMEGA_M,
                                  gamma_m_eff=gpm, gamma_q=1e6, g_d=g_d)
            gq_ep = gamma_q_ep_resonant(eff)
            gq_min = turning_point(eff)
            if not gq_ep > gq_min:  # hypothesis of the criterion
                continue
            tested += 1
            if not gq_min < gq_ep:
                ok = False
        verdict("C4 turning point below EP", ok, f"{tested} samples")

    def test_c4_landmark_order_follows_the_criterion(self, rng):
        """On C4's resonant draw, gamma_q_EP < gamma_q_min exactly when
        (2 - sqrt 2) sqrt(n_b) g_d < -gamma_m_eff: the form of C4's claim
        that can fail.  About 5% of draws put the EP first; near-ties are
        skipped, and the draws go on until each side has 100 samples."""
        sides, wrong = [0, 0], []  # [minimum first, EP first]
        for _ in range(20_000):
            n_b = rng.uniform(1.0, 100.0)
            g_d = rng.uniform(1e4, 3e6)
            gpm = rng.uniform(-2e6, 2e6)
            margin = (2.0 - math.sqrt(2.0)) * math.sqrt(n_b) * g_d + gpm
            if abs(margin) <= 1e-9 * (abs(gpm) + math.sqrt(n_b) * g_d):
                continue  # a near-tie: rounding picks the order
            spec = eigenvalues(EffectiveParams(
                n_b=n_b, omega_m=OMEGA_M, omega_q=OMEGA_M, gamma_m_eff=gpm,
                gamma_q=1e6, g_d=g_d))
            ep_first = margin < 0.0
            sides[ep_first] += 1
            if (spec.gamma_q_EP < spec.gamma_q_min) != ep_first:
                wrong.append((n_b, g_d, gpm))
            if min(sides) >= 100:
                break
        verdict("C4 landmark order", not wrong and min(sides) >= 100,
                f"{sides[1]} EP first, {sides[0]} minimum first, "
                f"{len(wrong)} against the criterion")

    def test_c5_dynamics_vs_eliminated_gain(self, rng):
        """Windowed |b| growth of the reduced model vs G - gamma_m from
        the eliminated gain at the window-consistent phonon number,
        10 sets, 10%.

        The closed forms eliminate p = <a-^dag a+> (rate 2 gamma,
        detuning 2J - omega_m) and sigma_- from the reduced model, so its
        growth is what G - gamma_m predicts; it runs with the inversion
        recomputed from the closed supermodes ("full-closure"), as the
        eliminated gain does.  p relaxes at 2 gamma, not instantly, so the
        reduced model grows a few percent slower than the formula.  The
        full model grows faster still, by about
        2 gamma^2 / (gamma^2 + (Delta + J - omega_m)^2), because it keeps
        the Stokes sideband as a separate pole; the full-model tests named
        in the module docstring measure that gap.
        """
        t_start = time.perf_counter()
        results = []
        attempts = 0
        while len(results) < 10 and attempts < 100:
            attempts += 1
            p = make_params(
                pump_power=rng.uniform(3e-6, 10e-6),
                pump_detuning=rng.uniform(0.42, 0.58) * OMEGA_M,
                g_d=rng.uniform(0.2e6, 2e6),
                gamma_q=rng.uniform(2e6, 12e6))
            try:
                traj = integrate_reduced(
                    p, None, IntegratorSettings(dt=0.1 / OMEGA_M,
                                                t_final=45e-6, stride=5),
                    delta_n_mode="full-closure")
            except DivergenceError as err:
                traj = err.partial
            if traj.abs_b.max() < 320.0:
                continue  # below/near threshold: no usable growth window
            t_lo = crossing_time(traj.times, traj.abs_b, 30.0)
            t_hi = crossing_time(traj.times, traj.abs_b, 300.0)
            fit = growth_rate(traj, (t_lo, t_hi))
            oracle = gain(p, 30.0 * 300.0).G - GAMMA_M
            results.append((fit.rate, oracle))
        elapsed = time.perf_counter() - t_start
        assert len(results) == 10, "could not draw 10 lasing parameter sets"
        rel = [abs(o - r) / abs(r) for r, o in results]
        detail = ("max rel dev {:.1%}, median {:.1%}, runtime {:.1f}s"
                  .format(max(rel), np.median(rel), elapsed))
        verdict("C5 dynamics vs eliminated gain",
                max(rel) <= 0.10 and elapsed < 30.0, detail)

    def test_c6_conservation(self):
        """Lossless-defect spin length conserved to 1e-9 relative over
        1000 mechanical periods; step halving confirms 4th order."""
        p = make_params(pump_power=0.0, g_d=1e6, gamma_q=0.0)
        sm0 = 0.3 + 0.2j
        init = MeanFieldState(b=1.0, sigma_minus=sm0,
                              sigma_z=-math.sqrt(1.0 - 4.0 * abs(sm0) ** 2))
        period = 2.0 * math.pi / OMEGA_M

        def drift(n_periods, dt_factor, stride):
            s = IntegratorSettings(dt=dt_factor / OMEGA_M,
                                   t_final=n_periods * period, stride=stride)
            traj = integrate_full(p, init, s)
            q = traj.column("sigma_z").real ** 2 \
                + 4.0 * np.abs(traj.column("sigma_minus")) ** 2
            return float(np.max(np.abs(q - q[0]) / q[0]))

        long_drift = drift(1000, 0.005, 200)
        d1 = drift(20, 0.04, 50)
        d2 = drift(20, 0.02, 50)
        order_ratio = d1 / d2
        ok = long_drift <= 1e-9 and order_ratio > 10.0
        verdict("C6 conservation", ok,
                f"drift {long_drift:.3g} over 1000 periods; halving "
                f"improves {order_ratio:.1f}x")

    def test_c7_optimal_detuning_structure(self):
        """fig3a sweep puts the gain maximum at (Delta, J) = (0.5, 0.5)
        omega_m within 0.05 omega_m on both axes."""
        table = run_sweep(preset("fig3a"))
        g = np.array(table.column("G"))
        i = int(np.nanargmax(g))
        j_val = table.column("optical.coupling")[i]
        d_val = table.column("optical.pump_detuning")[i]
        ok = (abs(d_val - 0.5 * OMEGA_M) <= 0.05 * OMEGA_M
              and abs(j_val - 0.5 * OMEGA_M) <= 0.05 * OMEGA_M)
        verdict("C7 optimal detuning", ok,
                f"argmax at Delta = {d_val / OMEGA_M:.3f} omega_m, "
                f"J = {j_val / OMEGA_M:.3f} omega_m")

    def test_c8_phonon_number_turning_point(self, fig2_params):
        """N_b(gamma_q) and G(gamma_q) reach their minimum at the same
        grid point (N_b is monotone in G), in both n_b modes."""
        gqs = np.geomspace(0.05 * GAMMA, 6.0 * GAMMA, 600)
        ok = True
        detail = []
        for n_b in (2.0, None):  # fixed sector and self-consistent
            g_vals, nb_vals = [], []
            for gq in gqs:
                p = with_value(fig2_params, "tls.tls_loss", float(gq))
                if n_b is None:
                    from defectlaser import solve_nb_fixed_point
                    res = gain(p, solve_nb_fixed_point(p).n_b_star)
                else:
                    res = gain(p, n_b)
                g_vals.append(res.G)
                nb_vals.append(res.N_b)
            ig, inb = int(np.argmin(g_vals)), int(np.argmin(nb_vals))
            detail.append(f"mode={'sc' if n_b is None else n_b}: "
                          f"argmin G @ {ig}, argmin N_b @ {inb}")
            ok = ok and (ig == inb)
        verdict("C8 phonon-number turning point", ok, "; ".join(detail))

    def test_c9_phase_classification(self, rng):
        """Localization is ~0 well below the EP and >= 0.5 well above.

        The property encodes the loss-induced transition along gamma_q, so
        it is stated in the coupling-dominated regime
        0 <= gamma_m_eff <= 1.5 sqrt(n_b) g_d (at the lasing threshold the
        effective damping vanishes identically, the paradigmatic case).
        Outside that regime the fixed multiples 0.5x / 5x stop bracketing
        the transition: strong positive damping puts 0.5x the EP loss
        below the mirror EP at gamma_m_eff - 2 sqrt(n_b) g_d (localized
        again), and strong gain pushes the EP toward zero so 5x the EP is
        no longer deep in the localized phase.
        """
        ok = True
        tested = 0
        while tested < 500:
            n_b = rng.uniform(1.0, 50.0)
            g_d = rng.uniform(0.05e6, 2e6)
            kappa = math.sqrt(n_b) * g_d
            gpm = rng.uniform(0.0, 1.5 * kappa)
            probe = EffectiveParams(n_b=n_b, omega_m=OMEGA_M,
                                    omega_q=OMEGA_M, gamma_m_eff=gpm,
                                    gamma_q=1.0, g_d=g_d)
            gq_ep = gamma_q_ep_resonant(probe)
            if gq_ep <= 0:
                continue
            tested += 1
            lo = eigenvalues(EffectiveParams(
                n_b=n_b, omega_m=OMEGA_M, omega_q=OMEGA_M,
                gamma_m_eff=gpm, gamma_q=0.5 * gq_ep, g_d=g_d))
            hi = eigenvalues(EffectiveParams(
                n_b=n_b, omega_m=OMEGA_M, omega_q=OMEGA_M,
                gamma_m_eff=gpm, gamma_q=5.0 * gq_ep, g_d=g_d))
            if not (lo.L <= 1e-6 and hi.L >= 0.5):
                ok = False
        verdict("C9 phase classification", ok, f"{tested} resonant samples")
