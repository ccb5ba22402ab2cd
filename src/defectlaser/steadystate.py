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
a ``GainCoefficients`` bundle, cached on the (frozen) parameter object,
and ``GainCoefficients.terms`` evaluates G and N_b at one n_b.  ``gain``
reads it; ``solve_nb_fixed_point`` closes the loop n_b = N_b(G(n_b)) on
its C transcription (``_fixed_point.c``), bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
import threading
from array import array
from dataclasses import dataclass

from .constants import HBAR
from .errors import InvalidParameterError, SingularParameterError
from .params import DerivedQuantities, SystemParams, derive_quantities

_EXP_MAX = 700.0  # exp overflow guard; beyond this N_b is reported as inf
_RELAXATION = 0.5  # damping eta of the fixed-point iteration
_SQRT2 = math.sqrt(2.0)
_SQRT8 = 2.0 * _SQRT2
_pack_17 = struct.Struct("17d").pack_into  # the fixed-point kernel's inputs
_rooms = threading.local()  # its room, one per thread: ctypes frees the GIL
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
    first at n_b0, including the bisection fallback and the final
    residual check, whichever ``method`` ran.  An exact cycle ends the
    damped loop early, which shortens ``iterations`` and ``history`` only.
    """

    n_b_star: float
    iterations: int
    residual: float
    converged: bool
    history: tuple[float, ...]
    method: str = "damped"


@dataclass(slots=True)
class GainCoefficients:
    """The n_b-independent factors of the eliminated steady state.

    Build it with ``coefficients``.  Python multiplies left to right, so
    a*b*c*n equals (a*b*c)*n bit for bit: each factor is hoisted exactly
    as the closed form groups it, and every result keeps the bits of the
    closed form written out in full.  The bundle is shared through the
    parameter object's cache, so it is read-only by contract (not frozen:
    a frozen ``__init__`` costs about 0.2 us per field).
    """

    derived: DerivedQuantities
    gamma_m: float      # mechanical loss
    eps_l: float        # pump amplitude
    eps2: float         # eps_l ** 2
    kx: float           # xi * x0
    dj: float           # 2 J - omega_m
    nj: float           # dj^2 + 4 gamma^2
    alpha0: float       # alpha(n) = alpha0 + alpha_n * n
    alpha_n: float
    dg2: float          # alpha^2 + dg2 = |alpha - dg_im|^2
    dg_im: complex      # 2i gamma Delta
    x_plus: complex     # 2i omega_-+ + 2 gamma
    x_minus: complex
    num_plus: complex   # eps_l x+-: numerators of a+- at b = 0
    num_minus: complex
    g0: float           # G0 = g0 * (delta_n - g0_pump / denom_sq)
    g0_pump: float
    g_d: float          # defect coupling, first of the five defect fields
    dq: float           # omega_q - omega_m
    tls_den0: float     # defect denominator tls_den0 + tls_den_n * n
    tls_den_n: float
    gd_num: float       # Gd = gd_num / defect denominator

    def defect_den(self, n: float) -> float | None:
        """gamma_q^2 + (omega_q - omega_m)^2 + 2 g_d^2 n; None when g_d = 0."""
        if self.g_d == 0.0:
            return None
        den = self.tls_den0 + self.tls_den_n * n
        if den == 0.0:
            raise SingularParameterError(
                "undamped resonant defect at n_b = 0: two-level elimination "
                "is singular")
        return den

    def terms(self, n: float) -> tuple:
        """(alpha, denom_sq, a_plus, a_minus, delta_n, defect denominator,
        G0, Gd, G, N_b) at b = 0 and phonon number n; the fixed point
        iterates the last entry.

        The b = 0 form of ``steady_optics``, written out in one straight
        line on the hoisted numerators; it gives its bits, signed zeros
        included (``TestGainKernel::test_terms_is_the_b0_form``).
        """
        alpha = self.alpha0 + self.alpha_n * n
        denom_sq = alpha * alpha + self.dg2
        if denom_sq == 0.0:
            raise SingularParameterError(_SINGULAR_SUPERMODES)
        denom = _SQRT8 * (alpha - self.dg_im)
        a_plus, a_minus = self.num_plus / denom, self.num_minus / denom
        delta_n = abs(a_plus) ** 2 - abs(a_minus) ** 2
        G0 = self.g0 * (delta_n - self.g0_pump / denom_sq)
        tls_den = self.defect_den(n)
        Gd = 0.0 if tls_den is None else self.gd_num / tls_den
        G = G0 + Gd
        exponent = 2.0 * (G - self.gamma_m) / self.gamma_m
        N_b = math.inf if exponent > _EXP_MAX else math.exp(exponent)
        return (alpha, denom_sq, a_plus, a_minus, delta_n, tls_den,
                G0, Gd, G, N_b)


_OUT_OF_RANGE = "the gain's closed forms leave the floating-point range"
# the optical and mechanical blocks of the last build and their 17 fields;
# strong references, so an ``is`` match is never a reused id
_last: tuple = (None, None, None)


def _optics(params: SystemParams) -> tuple:
    """The 17 fields of a bundle up to g0_pump, derived and checked."""
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
    x_plus = 2j * d.omega_minus + 2.0 * gam
    x_minus = 2j * d.omega_plus + 2.0 * gam
    alpha0, alpha_n = J * J + gam * gam - delta * delta, 0.25 * kx * kx
    dg2, g0_pump = 4.0 * delta * delta * gam * gam, delta * dj * eps2
    # steady_optics' numerators at b = 0, bit for bit (README): x+- has no
    # -0.0 part, and 1j * kx * 0j is zero for finite kx (alpha_n checks it)
    num_plus, num_minus = d.eps_l * x_plus, d.eps_l * x_minus
    # 0.0 * x is nan unless x is finite.  The fields left out are finite
    # when these are: eps_l by eps2, kx by alpha_n, dj by nj, dg_im by dg2,
    # x_plus and x_minus by alpha0.  num_+- are not: eps_l ~ 1e154 times
    # omega_-+ ~ 1e154 overflows
    if not cmath.isfinite(0.0 * mech.mech_loss + 0.0 * eps2 + 0.0 * nj
                          + 0.0 * alpha0 + 0.0 * alpha_n + 0.0 * dg2
                          + 0.0 * num_plus + 0.0 * num_minus + 0.0 * g0
                          + 0.0 * g0_pump):
        raise SingularParameterError(_OUT_OF_RANGE)
    return (d, mech.mech_loss, d.eps_l, eps2, kx, dj, nj, alpha0, alpha_n,
            dg2, 2j * gam * delta, x_plus, x_minus, num_plus, num_minus, g0,
            g0_pump)


def coefficients(params: SystemParams) -> GainCoefficients:
    """Hoist every n_b-independent factor; cached in ``params.__dict__``.
    The optics of the last build's very blocks are reused (a defect step)."""
    if "_coefficients" in params.__dict__:
        return params.__dict__["_coefficients"]
    global _last
    opt, mech, tls = params.optical, params.mechanical, params.tls
    last = _last  # read once: another thread may replace it
    if last[0] is not opt or last[1] is not mech:
        last = _last = opt, mech, _optics(params)
    dq = tls.tls_freq - mech.mech_freq
    try:  # ** raises on overflow
        g2, gq2 = tls.coupling ** 2, tls.tls_loss ** 2
    except OverflowError:
        raise SingularParameterError(_OUT_OF_RANGE) from None
    c = GainCoefficients(*last[2], tls.coupling, dq, gq2 + dq * dq, 2.0 * g2,
                         -g2 * tls.tls_loss)
    # dq is finite by tls_den0, g_d by tls_den_n
    if not math.isfinite(0.0 * c.tls_den0 + 0.0 * c.tls_den_n
                         + 0.0 * c.gd_num):
        raise SingularParameterError(_OUT_OF_RANGE)
    params.__dict__["_coefficients"] = c
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
    divisor = _SQRT8 * (alpha - c.dg_im)
    a_plus = c.eps_l * (c.x_plus + 1j * c.kx * b) / divisor
    a_minus = c.eps_l * (c.x_minus + 1j * c.kx * b.conjugate()) / divisor
    return SteadyOptics(a_plus, a_minus, alpha,
                        abs(a_plus) ** 2 - abs(a_minus) ** 2)


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


def solve_nb_fixed_point(params: SystemParams, n_b0: float = 0.0,
                         tol: float = 1e-10, max_iter: int = 200
                         ) -> FixedPointReport:
    """Self-consistent phonon number from n_b = N_b(G(n_b)).

    Damped iteration n <- (1-eta) n + eta N_b(G(n)), with a safeguarded
    Aitken delta-squared extrapolation every third step (skipped whenever
    it would leave [0, inf)).  Convergence is declared on the residual
    |N_b(G(n)) - n| <= tol * max(1, n).

    Far above threshold the map is exponentially steep and the damped
    iteration oscillates.  Once it repeats a state exactly, or after
    ``max_iter`` steps, the solver falls back to bisection on
    N_b(G(n)) - n (flagged via ``method``), on a bracket [0, hi] grown
    eightfold until N_b(G(hi)) < hi and halved down to adjacent floats,
    with no step cap.  Genuine non-convergence is reported, not raised.

    Each step evaluates N_b(G(n)) as ``gain(params, n).N_b``, bit for bit.
    ``_fixed_point.c`` runs this loop, transcribed; the loop below runs
    without a kernel and replays where the kernel returns 0 (README).
    """
    if not 0.0 <= n_b0 < math.inf:
        raise InvalidParameterError("n_b0 must be >= 0 and finite")
    if max_iter < 1 or not 0.0 < tol < math.inf:
        raise InvalidParameterError("max_iter must be >= 1 and tol > 0 finite")
    try:  # the report holds floats; an int past 1.8e308 has no double
        n_b0, tol = float(n_b0), float(tol)
    except OverflowError:
        raise InvalidParameterError("n_b0 and tol must fit a double") from None
    c = coefficients(params)
    if type(max_iter) is int and max_iter < 2 ** 63 and (lib := _kernel()):
        if (w := getattr(_rooms, "w", None)) is None:  # 17 in, 5 out, history
            w = _rooms.w = array("d", bytes(8 * (17 + 5 + 2400)))
        _pack_17(w, 0, c.alpha0, c.alpha_n, c.dg2, c.dg_im.real, c.dg_im.imag,
                 c.num_plus.real, c.num_plus.imag, c.num_minus.real,
                 c.num_minus.imag, c.g0, c.g0_pump, c.g_d, c.tls_den0,
                 c.tls_den_n, c.gd_num, c.gamma_m, _SQRT8)
        if k := lib.fixed_point(w.buffer_info()[0], n_b0, tol, max_iter,
                                len(w) - 22):
            return FixedPointReport(
                w[17], int(w[19]), w[18], w[20] == 1.0, tuple(w[22:22 + k]),
                "bisection" if w[21] else "damped")
    terms = c.terms
    evaluations = 0
    history = [n_b0]

    def report(n, fn, method):
        residual = abs(fn - n)
        return FixedPointReport(
            n_b_star=n, iterations=evaluations - 1, residual=residual,
            converged=residual <= tol * max(1.0, n), history=tuple(history),
            method=method)

    # n stays finite and >= 0 (an infinite map value is capped at 1e300);
    # at a triple's start it is the whole state (each triple rebuilds the
    # Aitken window), so once it repeats only history recurs: bisect
    n = n_b0
    starts = set()
    for it in range(max_iter + 1):
        if it % 3 == 0:
            if n in starts:
                break
            starts.add(n)
        fn = terms(n)[-1]
        evaluations += 1
        if abs(fn - n) <= tol * max(1.0, n):
            return report(n, fn, "damped")
        if it == max_iter:
            break
        if not math.isfinite(fn):
            n = min(fn, 1e300) if fn > 0 else 0.0
        else:
            n = (1.0 - _RELAXATION) * n + _RELAXATION * fn
        history.append(n)
        if it % 3 == 2:
            x0, x1, x2 = history[-3], history[-2], history[-1]
            d1, d2 = x1 - x0, x2 - x1
            dd = d2 - d1
            if dd != 0.0 and math.isfinite(dd):
                cand = x2 - d2 * d2 / dd
                if math.isfinite(cand) and cand >= 0.0:
                    n = cand
                    history.append(n)

    # f(0) = N_b > 0, so lo = 0 lies below the root
    lo, hi = 0.0, max(1.0, 2.0 * max(history))
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
        history.append(mid)
    evaluations += 1
    return report(mid, terms(mid)[-1], "bisection")


@functools.cache
def _kernel():
    """``_fixed_point.c`` (``_kernels.load_kernel``), or None and a warning."""
    import ctypes
    from ._kernels import load_kernel
    return load_kernel("_fixed_point.c", "fixed_point", (
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64), "the fixed point runs in Python", 3)
