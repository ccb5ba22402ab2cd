"""Adiabatic-elimination steady state, mechanical gain and threshold.

The optical supermodes and the defect coherence are eliminated assuming
they follow the slowly varying mechanical amplitude, which yields closed
forms for the steady amplitudes, the mechanical gain G = G0 + Gd, the
frequency pull, the threshold power and the stimulated phonon number
N_b = exp[2 (G - gamma_m) / gamma_m].

The elimination is made in the reduced model (``integrate_reduced``):
the supermode coherence p = <a-^dag a+> (rate 2 gamma, detuning
2J - omega_m) and sigma_- are set to their steady values, so
G - gamma_m is the slow-amplitude growth rate of |b| in that model.
The full two-mode model (``integrate_full``) keeps the Stokes sideband
as its own pole and grows faster near Delta + J = omega_m (see the
README's *Known model limitation*).

The closed forms depend on the phonon number n_b only through alpha(n_b)
and the defect denominator.  ``coefficients`` hoists everything else into
a ``GainCoefficients`` bundle, kept for the last parameter set built,
and ``GainCoefficients.terms`` evaluates G and N_b at one n_b.  ``gain``
reads it; ``solve_nb_fixed_point`` closes the loop n_b = N_b(G(n_b)) on
its C transcription (``_fixed_point.c``), bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from array import array
from dataclasses import dataclass

from .constants import HBAR
from .errors import InvalidParameterError, SingularParameterError
from .params import DerivedQuantities, SystemParams, derive_quantities

_EXP_MAX = 700.0  # exp overflow guard; beyond this N_b is reported as inf
_RELAXATION = 0.5  # damping eta of the fixed-point iteration
_TOL = 1e-10  # the fixed point's relative residual tolerance
_MAX_ITER = 200  # damped steps before the bisection fallback
_SQRT2 = math.sqrt(2.0)
_SQRT8 = 2.0 * _SQRT2
_pack_16 = struct.Struct("16d").pack_into  # the fixed-point kernel's inputs
_ROOM = bytes(8 * 21)  # 16 in, 5 out; one per solve, as ctypes frees the GIL
_SINGULAR_SUPERMODES = ("alpha^2 + 4 Delta^2 gamma^2 vanished; supermode "
                        "elimination is singular (requires gamma = 0 and "
                        "alpha = 0)")


@dataclass(frozen=True)
class SteadyOptics:
    """Eliminated supermode amplitudes, alpha and inversion at (b, n_b)."""

    a_plus: complex
    a_minus: complex
    alpha: float
    delta_n: float


@dataclass
class GainResult:
    """Gain, frequency pull, threshold and phonon numbers for one
    parameter point, linearized about b = 0 at phonon number n_b.

    G - gamma_m is the slow-amplitude growth rate of |b| in the reduced
    p model (``integrate_reduced``) that the closed forms are eliminated
    from, not the growth rate of the full two-mode model.
    """

    G: float
    G0: float
    Gd: float
    omega_prime: float
    alpha: float
    delta_n: float
    n_b: float
    N_b: float
    P_th: float
    P_th0: float
    P_thd: float


@dataclass
class FixedPointReport:
    """Outcome of the self-consistent phonon-number iteration.

    ``iterations`` counts the evaluations of the map N_b(G(n)) after the
    first at 0, including the bisection fallback and the final
    residual check, whichever ``method`` ran.  An exact cycle ends the
    damped loop early, which shortens ``iterations`` only.
    """

    n_b_star: float
    iterations: int
    residual: float
    converged: bool
    method: str = "damped"


@dataclass(slots=True)
class GainCoefficients:
    """The n_b-independent factors of the eliminated steady state.

    Build it with ``coefficients``.  Python multiplies left to right, so
    a*b*c*n equals (a*b*c)*n bit for bit: each factor is hoisted exactly
    as the closed form groups it, and every result keeps the bits of the
    closed form written out in full.  The last bundle built is shared by
    every call on the same blocks, so it is read-only by contract (not
    frozen: a frozen ``__init__`` costs about 0.2 us per field).
    """

    derived: DerivedQuantities
    gamma_m: float      # mechanical loss
    eps2: float         # derived.eps_l ** 2
    kx: float           # xi * x0
    dj: float           # 2 J - omega_m
    nj: float           # dj^2 + 4 gamma^2
    alpha0: float       # alpha(n) = alpha0 + alpha_n * n
    alpha_n: float
    dg2: float          # alpha^2 + dg2 = |alpha - 2i gamma Delta|^2
    dg_div: float       # sqrt 8 (0 - 2 gamma Delta), the divisor's imag
    num_plus: complex   # eps_l x+-, x+- = 2i omega_-+ + 2 gamma: the
    num_minus: complex  # numerators of a+- at b = 0
    g0: float           # G0 = g0 * (delta_n - g0_pump / denom_sq)
    g0_pump: float
    g_d: float          # defect coupling, first of the five defect fields
    dq: float           # omega_q - omega_m
    tls_den0: float     # defect denominator tls_den0 + tls_den_n * n
    tls_den_n: float
    gd_num: float       # Gd = gd_num / defect denominator

    def terms(self, n: float) -> tuple:
        """(alpha, denom_sq, a_plus, a_minus, delta_n, defect denominator
        or None at g_d = 0, G0, Gd, G, N_b) at b = 0 and phonon number n;
        the fixed point iterates the last entry.

        The b = 0 form of ``steady_optics``, written out in one straight
        line on the hoisted numerators; it gives its bits, signed zeros
        included (``TestGainKernel::test_terms_is_the_b0_form``).
        """
        alpha = self.alpha0 + self.alpha_n * n
        denom_sq = alpha * alpha + self.dg2
        if denom_sq == 0.0:
            raise SingularParameterError(_SINGULAR_SUPERMODES)
        denom = complex(_SQRT8 * alpha, self.dg_div)  # not promoted (README)
        a_plus, a_minus = self.num_plus / denom, self.num_minus / denom
        try:  # abs(a+-) ** 2 raises past |a+-| ~ 1.3e154
            delta_n = abs(a_plus) ** 2 - abs(a_minus) ** 2
        except OverflowError:
            raise SingularParameterError(_OUT_OF_RANGE) from None
        G0 = self.g0 * (delta_n - self.g0_pump / denom_sq)
        if self.g_d == 0.0:
            tls_den, Gd = None, 0.0
        else:
            tls_den = self.tls_den0 + self.tls_den_n * n
            if tls_den == 0.0:
                raise SingularParameterError(
                    "undamped resonant defect at n_b = 0: two-level "
                    "elimination is singular")
            Gd = self.gd_num / tls_den
        G = G0 + Gd
        exponent = 2.0 * (G - self.gamma_m) / self.gamma_m
        N_b = math.inf if exponent > _EXP_MAX else math.exp(exponent)
        return (alpha, denom_sq, a_plus, a_minus, delta_n, tls_den,
                G0, Gd, G, N_b)


_OUT_OF_RANGE = "the gain's closed forms leave the floating-point range"
# the last build: its optical, mechanical and defect blocks (strong
# references, so an ``is`` match is never a reused id), 14 fields, bundle
_last: tuple = (None, None, None, None, None)


def _optics(params: SystemParams) -> tuple:
    """The 14 fields of a bundle up to g0_pump, derived and checked."""
    opt, mech = params.optical, params.mechanical
    gam, J, delta = opt.cavity_loss, opt.coupling, opt.pump_detuning
    dj = 2.0 * J - mech.mech_freq
    nj = dj * dj + 4.0 * gam * gam
    try:  # ** raises on overflow, / on a zero divisor
        d = derive_quantities(params)
        kx = d.xi * d.x0
        eps2 = d.eps_l ** 2
        g0 = kx * kx * gam / (2.0 * nj)
    except (OverflowError, ZeroDivisionError):
        why = ": (2J - omega_m)^2 + 4 gamma^2 is 0" if nj == 0.0 else ""
        raise SingularParameterError(_OUT_OF_RANGE + why) from None
    alpha0, alpha_n = J * J + gam * gam - delta * delta, 0.25 * kx * kx
    dg2, g0_pump = 4.0 * delta * delta * gam * gam, delta * dj * eps2
    # steady_optics' numerators at b = 0, bit for bit (README): x+- has no
    # -0.0 part, and 1j * kx * 0j is zero for finite kx (alpha_n checks it)
    num_plus = d.eps_l * (2j * d.omega_minus + 2.0 * gam)
    num_minus = d.eps_l * (2j * d.omega_plus + 2.0 * gam)
    # 0.0 * x is nan unless x is finite.  The values left out are finite
    # when these are: d.eps_l by eps2, kx by alpha_n, dj by nj, dg_div by dg2,
    # and steady_optics' x+- by num_+-.  num_+- are not: eps_l ~ 1e154
    # times omega_-+ ~ 1e154 overflows
    if not cmath.isfinite(0.0 * mech.mech_loss + 0.0 * eps2 + 0.0 * nj
                          + 0.0 * alpha0 + 0.0 * alpha_n + 0.0 * dg2
                          + 0.0 * num_plus + 0.0 * num_minus + 0.0 * g0
                          + 0.0 * g0_pump):
        raise SingularParameterError(_OUT_OF_RANGE)
    return (d, mech.mech_loss, eps2, kx, dj, nj, alpha0, alpha_n, dg2,
            _SQRT8 * (0.0 - 2.0 * gam * delta), num_plus, num_minus, g0,
            g0_pump)


def coefficients(params: SystemParams) -> GainCoefficients:
    """Hoist every n_b-independent factor.  The last build's very blocks
    give its bundle back; its optical and mechanical ones, its optics."""
    global _last
    opt, mech, tls = params.optical, params.mechanical, params.tls
    last = _last  # read once: another thread may replace it
    same = last[0] is opt and last[1] is mech
    if same and last[2] is tls:
        return last[4]
    optics = last[3] if same else _optics(params)
    dq = tls.tls_freq - mech.mech_freq
    try:  # ** raises on overflow
        g2, gq2 = tls.coupling ** 2, tls.tls_loss ** 2
    except OverflowError:
        raise SingularParameterError(_OUT_OF_RANGE) from None
    c = GainCoefficients(*optics, tls.coupling, dq, gq2 + dq * dq, 2.0 * g2,
                         -g2 * tls.tls_loss)
    # dq is finite by tls_den0, g_d by tls_den_n
    if not math.isfinite(0.0 * c.tls_den0 + 0.0 * c.tls_den_n
                         + 0.0 * c.gd_num):
        raise SingularParameterError(_OUT_OF_RANGE)
    _last = opt, mech, tls, optics, c  # only a build that passed every check
    return c


def steady_optics(params: SystemParams, b: complex, n_b: float) -> SteadyOptics:
    """Closed-form steady supermode amplitudes at mechanical amplitude b.

    ``n_b`` is the phonon number entering the saturation terms; callers
    decide whether it equals |b|^2 (dynamics closure) or labels a sector
    (linear-response gain).  delta_n squares with ``abs(a) ** 2``, as
    ``terms`` does; ``gain`` carries the eliminated p and sigma_-.
    """
    if not 0.0 <= n_b < math.inf:
        raise InvalidParameterError("n_b must be >= 0 and finite")
    c, b = coefficients(params), complex(b)
    alpha = c.alpha0 + c.alpha_n * n_b
    if alpha * alpha + c.dg2 == 0.0:
        raise SingularParameterError(_SINGULAR_SUPERMODES)
    divisor = complex(_SQRT8 * alpha, c.dg_div)  # as ``terms`` forms it
    d, gam = c.derived, params.optical.cavity_loss
    x_plus = 2j * d.omega_minus + 2.0 * gam  # x+- as _optics forms them
    x_minus = 2j * d.omega_plus + 2.0 * gam
    a_plus = d.eps_l * (x_plus + 1j * c.kx * b) / divisor
    a_minus = d.eps_l * (x_minus + 1j * c.kx * b.conjugate()) / divisor
    try:  # abs(a+-) ** 2 raises past |a+-| ~ 1.3e154, as in ``terms``
        delta_n = abs(a_plus) ** 2 - abs(a_minus) ** 2
    except OverflowError:
        raise SingularParameterError(_OUT_OF_RANGE) from None
    return SteadyOptics(a_plus, a_minus, alpha, delta_n)


def gain(params: SystemParams, n_b: float) -> GainResult:
    """Mechanical gain G = G0 + Gd and companions at phonon number n_b.

    The population inversion is evaluated from the steady optics at b = 0
    (linear response).  The pull omega_prime keeps the eps_l^2 term
    consistent with the linearized mechanical equation; the drive-induced
    piece carries gamma^2 over the supermode response bandwidth.
    """
    if not 0.0 <= n_b < math.inf:
        raise InvalidParameterError("n_b must be >= 0 and finite")
    c = coefficients(params)
    alpha, denom_sq, _, _, delta_n, tls_den, G0, Gd, G, N_b = c.terms(n_b)
    opt = params.optical
    gam, J, delta = opt.cavity_loss, opt.coupling, opt.pump_detuning
    kx, dj, nj, eps2 = c.kx, c.dj, c.nj, c.eps2

    pull_d = 0.0 if tls_den is None else c.g_d ** 2 * c.dq / tls_den
    omega_prime = (pull_d
                   - kx * kx * dj * delta_n / (4.0 * nj)
                   - kx * kx * gam * gam * delta * eps2 / (nj * denom_sq))

    wcj = opt.cavity_freq + J
    kx2 = kx ** 2  # pow, not kx * kx: they can differ in the last bit
    if kx2 == 0.0:
        raise SingularParameterError(
            "(xi x0)^2 underflowed to 0; the threshold power is singular")
    P_th0 = (2.0 * HBAR * nj * wcj * c.gamma_m / kx2
             + HBAR * delta * dj * wcj * gam * eps2 / denom_sq)
    P_thd = 0.0 if tls_den is None else (
        2.0 * HBAR * c.g_d ** 2 * params.tls.tls_loss * wcj * nj
        / (kx2 * tls_den))

    return GainResult(G, G0, Gd, omega_prime, alpha, delta_n, n_b, N_b,
                      P_th0 + P_thd, P_th0, P_thd)


def solve_nb_fixed_point(params: SystemParams) -> FixedPointReport:
    """Self-consistent phonon number from n_b = N_b(G(n_b)).

    Damped iteration n <- (1-eta) n + eta N_b(G(n)) from n = 0, with a
    safeguarded Aitken delta-squared extrapolation every third step
    (skipped whenever it would leave [0, inf)).  Convergence is declared
    on the residual |N_b(G(n)) - n| <= _TOL * max(1, n).

    Far above threshold the map is exponentially steep and the damped
    iteration oscillates.  Once it repeats a state exactly, or after
    ``_MAX_ITER`` steps, the solver falls back to bisection on
    N_b(G(n)) - n (flagged via ``method``), on a bracket [0, hi] grown
    eightfold until N_b(G(hi)) < hi and halved down to adjacent floats,
    with no step cap.  Genuine non-convergence is reported, not raised.

    Each step evaluates N_b(G(n)) as ``gain(params, n).N_b``, bit for bit.
    ``_fixed_point.c`` runs this loop, transcribed; the loop below runs
    without a kernel and replays where the kernel returns 0 (README).
    """
    c = coefficients(params)
    if lib := _kernel():
        w = array("d", _ROOM)
        _pack_16(w, 0, c.alpha0, c.alpha_n, c.dg2, c.dg_div, c.num_plus.real,
                 c.num_plus.imag, c.num_minus.real, c.num_minus.imag, c.g0,
                 c.g0_pump, c.g_d, c.tls_den0, c.tls_den_n, c.gd_num,
                 c.gamma_m, _SQRT8)
        if lib.fixed_point(w.buffer_info()[0], _TOL, _MAX_ITER):
            return FixedPointReport(w[16], int(w[18]), w[17], w[19] == 1.0,
                                    "bisection" if w[20] else "damped")
    terms = c.terms
    evaluations = 0

    def report(n, fn, method):
        residual = abs(fn - n)
        return FixedPointReport(
            n_b_star=n, iterations=evaluations - 1, residual=residual,
            converged=residual <= _TOL * max(1.0, n), method=method)

    # n stays finite and >= 0 (an infinite map value is capped at 1e300);
    # once a triple start repeats, so does the path, and peak stays: bisect
    n = peak = 0.0
    window = [0.0, 0.0, 0.0]
    starts = set()
    for it in range(_MAX_ITER + 1):
        if it % 3 == 0:
            if n in starts:
                break
            starts.add(n)
        fn = terms(n)[-1]
        evaluations += 1
        if abs(fn - n) <= _TOL * max(1.0, n):
            return report(n, fn, "damped")
        if it == _MAX_ITER:
            break
        if not math.isfinite(fn):
            n = min(fn, 1e300) if fn > 0 else 0.0
        else:
            n = (1.0 - _RELAXATION) * n + _RELAXATION * fn
        peak = max(peak, n)
        window[it % 3] = n
        if it % 3 == 2:
            x0, x1, x2 = window
            d1, d2 = x1 - x0, x2 - x1
            dd = d2 - d1
            if dd != 0.0 and math.isfinite(dd):
                cand = x2 - d2 * d2 / dd
                if math.isfinite(cand) and cand >= 0.0:
                    n = cand
                    peak = max(peak, n)

    # f(0) = N_b > 0, so lo = 0 lies below the root
    lo, hi = 0.0, max(1.0, 2.0 * peak)
    while not terms(hi)[-1] < hi:
        evaluations += 1
        if (hi := 8.0 * hi) > 1e300:
            return report(hi, math.inf, "bisection")
    evaluations += 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        evaluations += 1
        if terms(mid)[-1] > mid:
            lo = mid
        else:
            hi = mid
    evaluations += 1
    return report(mid, terms(mid)[-1], "bisection")


@functools.cache
def _kernel():
    """``_fixed_point.c`` (``_kernels.load_kernel``), or None and a warning."""
    import ctypes
    from ._kernels import load_kernel
    return load_kernel("_fixed_point.c", "fixed_point", (
        ctypes.c_int, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64),
        "the fixed point runs in Python", 3)
