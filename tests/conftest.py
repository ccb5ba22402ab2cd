import cmath
import math
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from defectlaser import (MechanicalParams, OpticalParams, SystemParams,
                         TlsParams, discriminant, dynamics, eigenvalues,
                         integrate_reduced, steadystate)
from defectlaser.constants import HBAR

OMEGA_M = 2.0 * math.pi * 23.4e6
GAMMA = 6.43e6
GAMMA_M = 0.24e6


def make_params(pump_power=10e-6, pump_detuning=0.5 * OMEGA_M,
                coupling_j=0.5 * OMEGA_M, gamma=GAMMA, gamma_m=GAMMA_M,
                g_d=1e6, gamma_q=GAMMA, omega_q=OMEGA_M, omega_m=OMEGA_M,
                mass=50e-12, radius=34.5e-6,
                cavity_freq=2.0 * math.pi * 193e12) -> SystemParams:
    """Experimentally accessible base point used across the suite."""
    return SystemParams(
        optical=OpticalParams(cavity_freq=cavity_freq, cavity_loss=gamma,
                              coupling=coupling_j, radius=radius,
                              pump_power=pump_power,
                              pump_detuning=pump_detuning),
        mechanical=MechanicalParams(mech_freq=omega_m, mech_loss=gamma_m,
                                    eff_mass=mass),
        tls=TlsParams(tls_freq=omega_q, tls_loss=gamma_q, coupling=g_d),
    )


@pytest.fixture
def fig2_params() -> SystemParams:
    return make_params()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


def random_params(rng: np.random.Generator, g_d=None) -> SystemParams:
    """Random valid parameter set in a broad physical range."""
    omega_m = 2.0 * math.pi * rng.uniform(5e6, 80e6)
    return make_params(
        pump_power=rng.uniform(0.0, 20e-6),
        pump_detuning=rng.uniform(-1.0, 1.0) * omega_m,
        coupling_j=rng.uniform(0.2, 0.8) * omega_m,
        gamma=rng.uniform(1e6, 2e7),
        gamma_m=rng.uniform(1e4, 5e5),
        g_d=rng.uniform(0.0, 3e6) if g_d is None else g_d,
        gamma_q=rng.uniform(1e5, 2e7),
        omega_q=rng.uniform(0.8, 1.2) * omega_m,
        omega_m=omega_m,
        mass=rng.uniform(1e-12, 1e-10),
        radius=rng.uniform(10e-6, 100e-6),
    )


def gamma_q_ep_resonant(eff) -> float:
    """The resonant (omega_q = omega_m) EP loss, written out independently
    of ``spectrum.gamma_q_ep``: the defect loss at which the discriminant
    4 n_b g_d^2 - (gamma_q - gamma_m_eff)^2 vanishes, upper root."""
    return eff.gamma_m_eff + 2.0 * math.sqrt(eff.n_b) * eff.g_d


def assert_matches_eig(eff) -> bool:
    """Compare ``eigenvalues(eff)`` with direct 2x2 diagonalization.

    The eig output is matched to the branch-labelled closed form, and the
    two must agree to 1e-12 relative.  eig loses ~sqrt(eps) digits at a
    defective point, so the bound is enforced only where the eigenproblem
    is well conditioned (|sqrt(disc)| > 1e-6 scale).  Returns whether the
    comparison was enforced.
    """
    r = eigenvalues(eff)
    zm = eff.omega_m - 1j * eff.gamma_m_eff
    zq = eff.omega_q - 1j * eff.gamma_q
    kappa = eff.g_d * math.sqrt(eff.n_b)
    mat = np.array([[eff.n_b * zm, kappa],
                    [kappa, (eff.n_b - 1.0) * zm + zq]], dtype=complex)
    ev = np.linalg.eigvals(mat)
    if (abs(ev[0] - r.E_plus) + abs(ev[1] - r.E_minus)
            > abs(ev[1] - r.E_plus) + abs(ev[0] - r.E_minus)):
        ev = ev[::-1]
    scale = max(abs(r.E_plus), abs(r.E_minus), 1.0)
    mismatch = max(abs(ev[0] - r.E_plus), abs(ev[1] - r.E_minus)) / scale
    if abs(cmath.sqrt(discriminant(eff))) <= 1e-6 * scale:
        return False
    assert mismatch <= 1e-12, (
        f"closed form and 2x2 diagonalization disagree: {mismatch:.3e}")
    return True


def _dec(q: Fraction) -> Decimal:
    """``q`` rounded once to the Decimal context's precision."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def principal_sqrt(re: Fraction, im: Fraction,
                   zero_sign: float = 1.0) -> tuple[Decimal, Decimal]:
    """The square root of re + i im whose real part is >= 0, to the Decimal
    context's precision, with no difference that cancels.  A negative real
    with im = 0 has its root on the side of ``zero_sign``: cmath.sqrt takes
    the sign of a zero imaginary part, which a Fraction does not carry."""
    mod = _dec(re * re + im * im).sqrt()
    if re >= 0:
        x = ((mod + _dec(re)) / 2).sqrt()
        return x, (_dec(im) / (2 * x) if x else Decimal(0))
    y = ((mod - _dec(re)) / 2).sqrt()
    y = -y if im < 0 or im == 0 and zero_sign < 0 else y
    return _dec(im) / (2 * y), y


def exact_spectrum(eff, zero_sign: float = 1.0) -> dict:
    """Every printed spectrum column of ``eff``'s block from its doubles,
    to 60 digits: E_plus and E_minus as (re, im), gap, L, gamma_q_EP,
    gamma_q_min and phase, independently of ``spectrum``.

    With x = gamma_q - gamma_m_eff, z = dq - i x and kappa^2 = n_b g_d^2,
    the discriminant 4 kappa^2 + z^2 is exact in Fractions; r is its
    principal root (``zero_sign`` as in ``principal_sqrt``) and
    E+- = center +- r/2.  E+- - a = (z +- r)/2 and E+- - d = (+-r - z)/2,
    so the eigenvector (kappa, E - a) or (E - d, kappa), whichever is
    longer, gives the weights without subtracting eigenvalues.  A block
    with kappa = 0 and a = d, where any vector is one, is not covered.
    """
    n, g2 = Fraction(eff.n_b), Fraction(eff.g_d) ** 2
    w_m, w_q = Fraction(eff.omega_m), Fraction(eff.omega_q)
    g_m, g_q = Fraction(eff.gamma_m_eff), Fraction(eff.gamma_q)
    dq, x, kappa2 = w_q - w_m, g_q - g_m, n * g2
    with localcontext() as ctx:
        ctx.prec = 60
        rr, ri = principal_sqrt(4 * kappa2 + dq * dq - x * x, -2 * dq * x,
                                zero_sign)
        half = n - Fraction(1, 2)
        c_re, c_im = _dec(half * w_m + w_q / 2), _dec(-half * g_m - g_q / 2)
        z_re, z_im, k2 = _dec(dq), _dec(-x), _dec(kappa2)
        ep = _dec(g_m) + _dec(max(Fraction(0), 4 * kappa2 - dq * dq)).sqrt()
        at_ep = abs(_dec(g_q) - ep) <= Decimal(1e-9) * _dec(w_m)
        out = dict(gap=(rr * rr + ri * ri).sqrt(), L=Decimal(0),
                   gamma_q_EP=ep,
                   gamma_q_min=_dec(dq * dq + 2 * kappa2).sqrt(),
                   phase="at-EP" if at_ep
                   else "below-EP" if g_q < ep else "above-EP")
        for name, s in (("E_plus", 1), ("E_minus", -1)):
            out[name] = (c_re + s * rr / 2, c_im + s * ri / 2)
            p2 = (z_re + s * rr) ** 2 + (z_im + s * ri) ** 2  # |2 (E - a)|^2
            q2 = (s * rr - z_re) ** 2 + (s * ri - z_im) ** 2  # |2 (E - d)|^2
            w = k2 / (k2 + p2 / 4) if p2 >= q2 else q2 / (q2 + 4 * k2)
            out["L"] = max(out["L"], abs(2 * w - 1))  # |w_phonon - w_defect|
    return out


def exact_gain(params: SystemParams, n: float) -> dict:
    """G0, Gd, G and delta_n at phonon number n, exact in Fractions from the
    parameter doubles and HBAR, by the two-pole closed form
    G = g0 Delta omega_m eps^2 / (alpha^2 + 4 Delta^2 gamma^2)
        - g_d^2 gamma_q / (gamma_q^2 + dq^2 + 2 g_d^2 n),
    alpha = J^2 + gamma^2 - Delta^2 + kx^2 n / 4,
    g0 = kx^2 gamma / (2 ((2J - omega_m)^2 + 4 gamma^2)),
    kx^2 = (omega_c / R)^2 hbar / (2 m omega_m),
    eps^2 = 2 P gamma / (hbar (omega_c + Delta)), and
    delta_n = 2 J Delta eps^2 / (alpha^2 + 4 Delta^2 gamma^2), from
    |x+|^2 - |x-|^2 = 16 Delta J."""
    opt, mech, tls = params.optical, params.mechanical, params.tls
    w_c, gam, J, delta = (Fraction(v) for v in (
        opt.cavity_freq, opt.cavity_loss, opt.coupling, opt.pump_detuning))
    w_m, hbar, n = Fraction(mech.mech_freq), Fraction(HBAR), Fraction(n)
    kx2 = (w_c / Fraction(opt.radius)) ** 2 * hbar / (
        2 * Fraction(mech.eff_mass) * w_m)
    eps2 = 2 * Fraction(opt.pump_power) * gam / (hbar * (w_c + delta))
    alpha = J * J + gam * gam - delta * delta + kx2 * n / 4
    denom = alpha * alpha + 4 * delta * delta * gam * gam
    g0 = kx2 * gam / (2 * ((2 * J - w_m) ** 2 + 4 * gam * gam))
    g_d, g_q = Fraction(tls.coupling), Fraction(tls.tls_loss)
    dq = Fraction(tls.tls_freq) - w_m
    G0 = g0 * delta * w_m * eps2 / denom
    Gd = -g_d * g_d * g_q / (g_q * g_q + dq * dq + 2 * g_d * g_d * n)
    return dict(G0=G0, Gd=Gd, G=G0 + Gd, delta_n=2 * J * delta * eps2 / denom)


def exact_nb_star(params: SystemParams, near: float) -> Decimal:
    """The root nearest ``near`` of h(n) = ln n - 2 (G(n) - gamma_m) /
    gamma_m, the self-consistent n_b = N_b(G(n_b)), to 40 digits: G is
    what ``GainCoefficients.terms`` rounds, from the bundle's fields
    (a+- = num+- / (sqrt8 alpha + i dg_div), sqrt8 the double it reads)
    with every operation at 40 digits; secant steps from ``near``."""
    c = steadystate.coefficients(params)
    with localcontext() as ctx:
        ctx.prec = 40
        (a0, a_n, dg2, dg_div, g0, g0_pump, den0, den_n, gd_num, gamma_m,
         sqrt8) = map(Decimal, (
             c.alpha0, c.alpha_n, c.dg2, c.dg_div, c.g0, c.g0_pump,
             c.tls_den0, c.tls_den_n, c.gd_num, c.gamma_m, steadystate._SQRT8))
        num = sum(s * Decimal(v) ** 2 for s, z in ((1, c.num_plus),
                  (-1, c.num_minus)) for v in (z.real, z.imag))

        def h(n):
            alpha = a0 + a_n * n
            G = g0 * (num / ((sqrt8 * alpha) ** 2 + dg_div ** 2)
                      - g0_pump / (alpha * alpha + dg2))
            if c.g_d:
                G += gd_num / (den0 + den_n * n)
            return n.ln() - 2 * (G - gamma_m) / gamma_m

        x0, x1 = Decimal(near), Decimal(near) * (1 + Decimal("1e-9"))
        h0, h1 = h(x0), h(x1)
        for _ in range(50):
            if h1 == h0 or abs(x1 - x0) <= abs(x1) * Decimal("1e-36"):
                return x1
            x0, x1 = x1, x1 - h1 * (x1 - x0) / (h1 - h0)
            h0, h1 = h1, h(x1)
        raise AssertionError(f"no root of h near {near!r}")


class Elimination:
    """p and sigma_- eliminated from ``integrate_reduced``'s own right-hand
    side, independently of the closed forms in ``steadystate``.

    At b = 0 and frozen delta_n the (p, b, sigma_-) system is affine up to
    O(|b|^2), so central differences at h = 1 with one Richardson step
    give its Jacobian J (smaller h loses digits to the constant drive).
    With s = -i omega_m the self-energy of b is
    Sigma = J_bp J_pb / (s - J_pp) + J_bs J_sb / (s - J_ss):
    Re Sigma is the gain and Im Sigma the frequency pull.
    """

    def __init__(self, params: SystemParams):
        def capture(_params, _settings, rhs, y0, *args, **kwargs):
            self.rhs, self.delta_n = rhs, y0[4]  # frozen: b = 0 inversion

        with mock.patch.object(dynamics, "_solve", capture):
            integrate_reduced(params)
        self.omega_m = params.mechanical.mech_freq

    def sigma(self, delta_n=None, sigma_z=-1.0) -> tuple[complex, complex]:
        """The optical (p) and defect (sigma_-) terms of Sigma at the
        frozen inversions delta_n (default: its b = 0 value) and sigma_z."""
        dn = self.delta_n if delta_n is None else delta_n

        def central(h):
            cols = []
            for j in range(3):
                up, down = [0j] * 3, [0j] * 3
                up[j], down[j] = h, -h
                f_up = self.rhs(*up, sigma_z, dn)
                f_down = self.rhs(*down, sigma_z, dn)
                cols.append([(f_up[i] - f_down[i]) / (2.0 * h)
                             for i in range(3)])
            return cols  # cols[j][i] = d f_i / d y_j

        coarse, fine = central(1.0), central(0.5)
        J = [[(4.0 * fine[j][i] - coarse[j][i]) / 3.0 for j in range(3)]
             for i in range(3)]
        s = -1j * self.omega_m
        return (J[1][0] * J[0][1] / (s - J[0][0]),
                J[1][2] * J[2][1] / (s - J[2][2]))

    def saturated_sigma_z(self, n_b: float) -> float:
        """sigma_z where the defect's two equations are steady under
        b = sqrt(n_b) e^{-i omega_m t}, with sigma_- = A e^{-i omega_m t}:
        both are affine in (A, sigma_z), so two evaluations each solve
        them."""
        b, dn = math.sqrt(n_b), self.delta_n

        def steady_a(sz):  # rhs_sigma(A) + i omega_m A = 0
            f0 = self.rhs(0j, b, 0j, sz, dn)[2]
            f1 = self.rhs(0j, b, 1.0 + 0j, sz, dn)[2] + 1j * self.omega_m
            return -f0 / (f1 - f0)

        g0, g1 = (self.rhs(0j, b, steady_a(sz), sz, dn)[3] for sz in (0.0, 1.0))
        return g0 / (g0 - g1)


def fake_solve_ivp(monkeypatch, **result):
    """Make scipy's solve_ivp return ``result`` without integrating."""
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *args, **kwargs: types.SimpleNamespace(**result))
