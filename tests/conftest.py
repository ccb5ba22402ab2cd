import cmath
import math
import types
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from defectlaser import (MechanicalParams, OpticalParams, SystemParams,
                         TlsParams, discriminant, dynamics, eigenvalues,
                         integrate_reduced)

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
