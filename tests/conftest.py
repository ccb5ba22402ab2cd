import cmath
import math
import types

import numpy as np
import pytest
import scipy.integrate

from defectlaser import (MechanicalParams, OpticalParams, SystemParams,
                         TlsParams, discriminant, eigenvalues)

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


def fake_solve_ivp(monkeypatch, **result):
    """Make scipy's solve_ivp return ``result`` without integrating."""
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *args, **kwargs: types.SimpleNamespace(**result))
