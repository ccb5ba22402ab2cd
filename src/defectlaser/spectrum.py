"""Effective non-Hermitian two-level/phonon spectrum and exceptional points.

The active phonon mode (effective damping gamma_m_eff = gamma_m - G0,
negative above threshold) and the lossy defect form a 2x2 non-Hermitian
block in the basis {|n_b, g>, |n_b - 1, e>}.  Both eigenvalues and
eigenvectors coalesce at the exceptional point (EP), the upper least-|disc|
loss gamma_q_EP = gamma_m_eff + sqrt(max(0, 4 n_b g_d^2 - dq^2)), dq =
omega_q - omega_m, not the mirror EP below it; ``phase`` compares gamma_q
with it.  Off resonance it is the closest approach, which a sweep row notes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidParameterError, SingularParameterError
from .params import SystemParams

_OUT_OF_RANGE = "the spectrum at n_b = {:.3g} leaves the floating-point range"


@dataclass(frozen=True)
class EffectiveParams:
    """Parameters of the reduced phonon-defect block at phonon number n_b."""

    n_b: float
    omega_m: float
    omega_q: float
    gamma_m_eff: float  # may be negative (net mechanical gain)
    gamma_q: float
    g_d: float

    @classmethod
    def at(cls, params: SystemParams, n_b: float, G0: float) -> EffectiveParams:
        """The block of ``params`` at phonon number n_b, whose optical
        gain G0 offsets the mechanical loss: gamma_m_eff = gamma_m - G0."""
        return cls(n_b=n_b, omega_m=params.mechanical.mech_freq,
                   omega_q=params.tls.tls_freq,
                   gamma_m_eff=params.mechanical.mech_loss - G0,
                   gamma_q=params.tls.tls_loss, g_d=params.tls.coupling)

    def __post_init__(self):
        # written so that NaN and inf fail each test, as params._require does
        if not 1 <= self.n_b < math.inf:
            raise InvalidParameterError(
                "n_b must be >= 1 and finite: |n_b - 1, e> needs a phonon")
        if not (0 < self.omega_m < math.inf and 0 < self.omega_q < math.inf):
            raise InvalidParameterError(
                "omega_m and omega_q must be > 0 and finite")
        if not (0 <= self.gamma_q < math.inf and 0 <= self.g_d < math.inf):
            raise InvalidParameterError(
                "gamma_q and g_d must be >= 0 and finite")
        if not math.isfinite(self.gamma_m_eff):
            raise InvalidParameterError("gamma_m_eff must not be NaN or inf")


@dataclass
class SpectrumResult:
    E_plus: complex
    E_minus: complex
    weights_plus: tuple[float, float]   # (|phonon|^2, |defect|^2), sums to 1
    weights_minus: tuple[float, float]
    gap: float                          # |sqrt(disc)| = |E+ - E-|, uncancelled
    gamma_q_EP: float
    gamma_q_min: float
    phase: str                          # below-EP | at-EP | above-EP
    eigvec_overlap: float               # |<v+|v->|, -> 1 at the EP
    # localization, max over v+- of |w_phonon - w_defect|: ~0 below the EP
    # (both share the weight), toward 1 above it (each localizes)
    L: float


def discriminant(eff: EffectiveParams) -> complex:
    """4 n_b g_d^2 + [omega_q - omega_m - i(gamma_q - gamma_m_eff)]^2: on
    resonance it vanishes at gamma_q_ep and at the mirror EP below it."""
    z = eff.omega_q - eff.omega_m - 1j * (eff.gamma_q - eff.gamma_m_eff)
    try:  # g_d ** 2 raises past g_d ~ 1.3e154
        return 4.0 * eff.n_b * eff.g_d ** 2 + z * z
    except OverflowError:
        raise SingularParameterError(_OUT_OF_RANGE.format(eff.n_b)) from None


def gamma_q_ep(eff: EffectiveParams) -> float:
    """The upper gamma_q of least |discriminant|, ``eff.gamma_q`` ignored:
    with x = gamma_q - gamma_m_eff, |disc|^2 = (4 n_b g_d^2 + dq^2 - x^2)^2
    + 4 dq^2 x^2 is least at x = +-sqrt(max(0, 4 n_b g_d^2 - dq^2))."""
    dq = eff.omega_q - eff.omega_m
    split = 2.0 * math.sqrt(eff.n_b) * eff.g_d
    # on resonance the half-width is the split itself, so the EP loss is
    # gamma_m_eff + 2 sqrt(n_b) g_d even where split * split underflows
    half = split if dq == 0 else math.sqrt(max(0.0, split * split - dq * dq))
    return eff.gamma_m_eff + half


def turning_point(eff: EffectiveParams) -> float:
    """Defect loss at which the gain is minimal.

    Gd is proportional to -gamma_q / (gamma_q^2 + sat) with
    sat = (omega_q - omega_m)^2 + 2 g_d^2 n_b, so the minimum sits at
    sqrt(sat): sqrt(2 n_b) g_d on resonance.  Returns 0 when n_b g_d = 0
    on resonance (no interior minimum).
    """
    return math.hypot(eff.omega_q - eff.omega_m,
                      math.sqrt(2.0 * eff.n_b) * eff.g_d)


def eigenvalues(eff: EffectiveParams) -> SpectrumResult:
    """Eigenvalues/eigenvectors of the effective block.

    The closed form uses the principal square root (Re >= 0); labels are
    fixed by that branch.  The phase is at-EP within 1e-9 omega_m of
    gamma_q_EP.  Raises :class:`SingularParameterError` when an
    eigenvalue or an eigenvector norm is not finite.
    """
    zm = eff.omega_m - 1j * eff.gamma_m_eff
    zq = eff.omega_q - 1j * eff.gamma_q
    center = (eff.n_b - 0.5) * zm + 0.5 * zq
    root = cmath.sqrt(discriminant(eff))
    e_plus = center + 0.5 * root
    e_minus = center - 0.5 * root
    if not (cmath.isfinite(e_plus) and cmath.isfinite(e_minus)):
        raise SingularParameterError(_OUT_OF_RANGE.format(eff.n_b))

    # the block [[a, kappa], [kappa, d]] in the basis {|n_b,g>, |n_b-1,e>}
    a, d = eff.n_b * zm, (eff.n_b - 1.0) * zm + zq
    kappa = eff.g_d * math.sqrt(eff.n_b)
    w_plus, v_plus = _eigvec(a, kappa, d, e_plus, (1.0, 0.0))
    w_minus, v_minus = _eigvec(a, kappa, d, e_minus, (0.0, 1.0))
    (a0, a1), (c0, c1) = v_plus, v_minus
    overlap = abs(a0.conjugate() * c0 + a1.conjugate() * c1)

    gq_ep = gamma_q_ep(eff)
    phase = ("at-EP" if abs(eff.gamma_q - gq_ep) <= 1e-9 * eff.omega_m
             else "below-EP" if eff.gamma_q < gq_ep else "above-EP")

    return SpectrumResult(E_plus=e_plus, E_minus=e_minus,
                          weights_plus=w_plus, weights_minus=w_minus,
                          gap=abs(root),
                          gamma_q_EP=gq_ep,
                          gamma_q_min=turning_point(eff),
                          phase=phase, eigvec_overlap=overlap,
                          L=max(abs(w_plus[0] - w_plus[1]),
                                abs(w_minus[0] - w_minus[1])))


def _eigvec(a: complex, kappa: float, d: complex, e: complex,
            basis: tuple) -> tuple[tuple[float, float], tuple]:
    """Normalized eigenvector for eigenvalue e; stable at degeneracy.  Where
    M - e is zero (kappa = 0, a = d = e) it is the basis vector ``basis``."""
    # (M - e) v = 0 for a 2x2: use the better-conditioned row
    r1 = (kappa, e - a)
    r2 = (e - d, kappa)
    x, y = (r1 if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1])
            else r2)
    # np.linalg.norm's sqrt(ddot(re) + ddot(im)), whose OpenBLAS ddot
    # fused the second product; an overflow gives inf, raised just below
    norm = math.sqrt(_fma(y.real, y.real, x.real * x.real)
                     + _fma(y.imag, y.imag, x.imag * x.imag))
    if not math.isfinite(norm):
        raise SingularParameterError(
            "an eigenvector's norm leaves the floating-point range")
    if norm == 0.0:
        (x, y), norm = basis, 1.0
    s = 1.0 / norm
    x, y = x * s, y * s
    return (abs(x) ** 2, abs(y) ** 2), (x, y)


def _fma(x: float, y: float, z: float) -> float:
    """x * y + z rounded once, as C's fma (``math.fma`` is Python 3.13+):
    fsum adds z and the four exact products of Veltkamp's halves of x and y
    (Dekker 1971), or a Fraction where those could overflow or underflow.
    An inf or nan operand, or a sum past the largest double, goes unfused."""
    p = x * y
    if x == 0.0 or y == 0.0 or z == 0.0:  # exact x * y, or nothing to add
        return p + z
    try:
        if not (1e-280 < abs(p) < 1e300 and abs(x) < 1e300 > abs(y)):
            from fractions import Fraction  # rare: spare every run its import
            return float(Fraction(x) * Fraction(y) + Fraction(z))
        c, d = 134217729.0 * x, 134217729.0 * y  # 2**27 + 1
        xh, yh = c - (c - x), d - (d - y)
        xl, yl = x - xh, y - yh
        return math.fsum((xh * yh, xh * yl, xl * yh, xl * yl, z))
    except (OverflowError, ValueError):
        return p + z

