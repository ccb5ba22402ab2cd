"""Mean-field equations of motion and growth-rate extraction.

Two integrators are provided.  ``integrate_full`` evolves the five coupled
mean-field amplitudes (both supermodes, the mechanical mode and the defect
Bloch components); ``integrate_reduced`` evolves the supermode coherence
p = <a-^dag a+> directly, with the individual supermode amplitudes closed
quasi-statically at the current mechanical amplitude.

All operator products are factorized into products of expectation values
and noise is dropped, so trajectories are deterministic: identical inputs
give bit-identical outputs.  The reference method is fixed-step classical
RK4; an adaptive high-order method is available for cross-checks.

Above threshold |b| grows until the optical drive saturates; extract
rates over an early window instead of integrating long.  At the suite's
base point (10 uW, J = Delta = omega_m/2, gamma_q = gamma) the full model
settles on a limit cycle at |b| ~ 7.6e3 when RK4 runs 8 us at
dt = 0.02/omega_m, while dt = 0.1/omega_m diverges at t = 1.79 us: the
step rule does not see the defect's Bloch rotation at 2 g_d |b|, so a
``DivergenceError`` there is a numerical blow-up.  A constant
radiation-pressure drive gives |b| a driven floor (typically >> any small
seed); growth windows should sit a safe factor above that floor.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DivergenceError, InvalidParameterError,
                     SingularParameterError)
from .params import SystemParams
from .steadystate import _SINGULAR_SUPERMODES, _SQRT2, coefficients

#: default seed phonon amplitude: smallest that still gives clean log fits
DEFAULT_SEED = 1e-3


@dataclass(frozen=True)
class IntegratorSettings:
    """Integrator configuration; dt and t_final are in seconds.

    Both methods store the state after every ``stride``-th of
    round(t_final / dt) steps and after the last, step i at float(i) * dt.
    ``method`` is "rk4" (reference, bit-reproducible) or "dop853"
    (adaptive cross-check at rtol 1e-10, atol 1e-12).
    """

    dt: float
    t_final: float
    method: str = "rk4"
    stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise InvalidParameterError("dt must be > 0 and finite")
        if not 0 < self.t_final < math.inf:
            raise InvalidParameterError("t_final must be > 0 and finite")
        if not isinstance(self.stride, numbers.Integral):
            raise InvalidParameterError(
                f"stride must be an integer, not {self.stride!r}")
        if self.stride < 1:
            raise InvalidParameterError("stride must be >= 1")
        if self.method not in ("rk4", "dop853"):
            raise InvalidParameterError("method must be 'rk4' or 'dop853'")


@dataclass(frozen=True)
class MeanFieldState:
    """Expectation values of the full supermode model."""

    a_plus: complex = 0.0
    a_minus: complex = 0.0
    b: complex = DEFAULT_SEED
    sigma_minus: complex = 0.0
    sigma_z: float = -1.0


@dataclass(frozen=True)
class ReducedState:
    """Expectation values of the reduced model (supermode coherence p)."""

    p: complex = 0.0
    b: complex = DEFAULT_SEED
    sigma_minus: complex = 0.0
    sigma_z: float = -1.0


FULL_FIELDS = ("a_plus", "a_minus", "b", "sigma_minus", "sigma_z")
REDUCED_FIELDS = ("p", "b", "sigma_minus", "sigma_z", "delta_n")


@dataclass(frozen=True)
class Trajectory:
    """Times, states and the settings that produced them."""

    times: np.ndarray            # (n,) seconds, strictly increasing
    states: np.ndarray           # (n, k) complex
    fields: tuple[str, ...]      # column names of states
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise InvalidParameterError("times and states lengths differ")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise InvalidParameterError("times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.fields.index(name)]

    @property
    def abs_b(self) -> np.ndarray:
        return np.abs(self.column("b"))

    def to_csv(self, path) -> None:
        """Write t, Re/Im of each amplitude, sigma_z (real), |b|."""
        cols = ["t"]
        parts = [self.times]
        for name in self.fields:
            col = self.column(name)
            if name in ("sigma_z", "delta_n"):
                cols.append(name)
                parts.append(col.real)
            else:
                cols += [f"re_{name}", f"im_{name}"]
                parts += [col.real, col.imag]
        cols.append("abs_b")
        parts.append(self.abs_b)
        data = np.column_stack(parts)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            np.savetxt(fh, data, fmt="%.17g", delimiter=",",
                       header=",".join(cols), comments="")


def _fastest_rate(params: SystemParams) -> float:
    """max(omega_m, omega_q, 2J), the rate a step must resolve."""
    return max(params.mechanical.mech_freq, params.tls.tls_freq,
               2.0 * params.optical.coupling)


def _default_settings(params: SystemParams) -> IntegratorSettings:
    """dt = 0.1 / fastest rate up to 200 mechanical periods, about 4000
    stored samples; the default of the integrators and the CLI."""
    dt = 0.1 / _fastest_rate(params)
    t_final = 200.0 * 2.0 * math.pi / params.mechanical.mech_freq
    return IntegratorSettings(dt=dt, t_final=t_final,
                              stride=max(1, int(round(t_final / dt / 4000))))


def _solve(params: SystemParams, settings: IntegratorSettings | None, rhs,
           y0, fields, native, fill=None, **meta) -> Trajectory:
    """Run ``settings.method`` (default ``_default_settings``) from y0 on
    the rows ``IntegratorSettings`` lays out; warn when dt under-resolves.
    "rk4" runs the kernel's ``integrate`` on ``native`` = (model,
    coefficients), or ``_run_rk4`` where that returns 0.
    ``fill(states)`` fills in place the columns the steps leave out."""
    settings = settings or _default_settings(params)
    rate = _fastest_rate(params)
    notes = []
    if settings.dt > 0.1 / rate:  # the default's own dt never warns
        notes.append(
            f"dt*max(omega_m, omega_q, 2J) = {settings.dt * rate:.3g} "
            "> 0.1: the fastest oscillation is under-resolved")
        warnings.warn(notes[-1], UserWarning, stacklevel=3)
    meta.update(settings=settings, warnings=notes)
    h, stride = settings.dt, settings.stride
    where = (f"t_final / dt = {settings.t_final / h:.3g} steps at stride "
             f"{stride:.3g}")
    try:
        n_steps = max(1, round(settings.t_final / h))
        states = np.empty((1 + -(-n_steps // stride), 5), dtype=complex)
    except (OverflowError, ValueError, MemoryError) as err:
        raise InvalidParameterError(
            f"{where}: cannot allocate the stored rows ({err})") from err
    if max(n_steps, stride) >= 2 ** 63:  # the kernel counts in int64_t
        raise InvalidParameterError(f"{where}: more than int64 counts")
    times = np.append(np.arange(0, n_steps, stride), n_steps) * h
    if settings.method == "dop853":
        states[:] = _run_adaptive(rhs, y0, times)
    else:
        meta["rk4"] = "c" if (lib := _kernel()) else "python"
        steps = 0 if lib is None else lib.integrate(
            native[0], np.array(native[1], dtype=complex),
            np.array(y0, dtype=complex), h, n_steps, stride, states)
        if steps == 0:  # no kernel, or a singular elimination: replay
            steps = _run_rk4(rhs, y0, h, n_steps, stride, states)
        meta["steps"] = abs(steps)
        if steps < 0:  # the state after step -steps is not finite
            rows = 1 + (-steps - 1) // stride
            times, states = times[:rows], states[:rows]
            meta["diverged_at"] = -steps * h
    if fill is not None:
        fill(states)
    traj = Trajectory(times=times, states=states, fields=fields, meta=meta)
    if "diverged_at" in meta:
        raise DivergenceError(meta["diverged_at"], partial=traj)
    return traj


def _poles(params: SystemParams) -> tuple[complex, complex]:
    """-i omega - gamma of the mechanical mode and of the defect."""
    mech, tls = params.mechanical, params.tls
    return (-1j * mech.mech_freq - mech.mech_loss,
            -1j * tls.tls_freq - tls.tls_loss)


def integrate_full(params: SystemParams, init: MeanFieldState | None = None,
                   settings: IntegratorSettings | None = None) -> Trajectory:
    """Integrate the five mean-field equations of the full supermode model.

    Raises :class:`DivergenceError` carrying the blow-up time if the state
    leaves the representable range: above threshold that is RK4 instability
    at the defect's 2 g_d |b| rotation, which ``_fastest_rate`` leaves out.
    """
    init = init or MeanFieldState()
    c = coefficients(params)
    d, gam = c.derived, params.optical.cavity_loss
    cp = -1j * d.omega_plus - gam
    cm = -1j * d.omega_minus - gam
    cb, cs = _poles(params)
    k, drv = 0.5j * c.kx, c.eps_l / _SQRT2
    gd, gq = c.g_d, params.tls.tls_loss

    def rhs(ap, am, b, sm, sz):
        return (cp * ap + k * am * b + drv,
                cm * am + k * ap * b.conjugate() + drv,
                cb * b + k * am.conjugate() * ap - 1j * gd * sm,
                cs * sm + 1j * gd * b * sz,
                -2.0 * gq * (sz + 1.0) + 4.0 * gd * (sm.conjugate() * b).imag)

    y0 = (complex(init.a_plus), complex(init.a_minus), complex(init.b),
          complex(init.sigma_minus), float(init.sigma_z))
    return _solve(params, settings, rhs, y0, FULL_FIELDS,
                  (0, (cp, cm, cb, cs, k, drv, gd, gq)),
                  model="full")


def integrate_reduced(params: SystemParams, init: ReducedState | None = None,
                      settings: IntegratorSettings | None = None,
                      delta_n_mode: str = "frozen",
                      delta_n0: float | None = None) -> Trajectory:
    """Integrate the reduced model built on the supermode coherence p.

    The p equation's drive (eps a+ + eps a-*) / sqrt 2 takes a+- at their
    steady values at the current b, as real closed forms over eps^2 / q
    (README *Reproducibility*; a long run at an under-resolved step
    amplifies their rounding).  ``delta_n_mode`` sets the inversion:

    * "frozen": held at its b = 0 steady value (``delta_n0`` overrides),
      the linear-gain configuration;
    * "full-closure": |a+|^2 - |a-|^2 of the closed a+- at the current b.

    The closed-form gain is p and sigma_- eliminated from this model, so
    its linear growth of |b| is what G - gamma_m predicts (a few percent
    slower, since p relaxes at 2 gamma rather than instantly).  The full
    model (``integrate_full``) grows faster near Delta + J = omega_m,
    where its separate Stokes-sideband pole is resonant.
    """
    if delta_n_mode not in ("frozen", "full-closure"):
        raise InvalidParameterError(
            "delta_n_mode must be 'frozen' or 'full-closure'")
    if delta_n_mode == "full-closure" and delta_n0 is not None:
        raise InvalidParameterError("delta_n0 is for delta_n_mode 'frozen'; "
                                    "'full-closure' recomputes the inversion")
    init, opt, c = init or ReducedState(), params.optical, coefficients(params)
    kx, eps2, alpha0, alpha_n, dg2 = c.kx, c.eps2, c.alpha0, c.alpha_n, c.dg2
    gam, J, delta = opt.cavity_loss, opt.coupling, opt.pump_detuning
    k, gd, gq = 0.5j * kx, c.g_d, params.tls.tls_loss
    cb, cs = _poles(params)
    cpp = -2j * J - 2.0 * gam
    gdd, gdk, jd, jk, gk = (2.0 * gam * delta * delta, gam * delta * kx,
                            2.0 * J * delta, J * kx, gam * kx)

    frozen = delta_n_mode == "frozen"
    if frozen and delta_n0 is None:
        delta_n0 = c.terms(0.0)[4]  # gain(params, 0.0).delta_n
    dn0 = float(delta_n0) if frozen else None

    def rhs(p, b, sm, sz, dn):
        # a+- share the divisor sqrt 8 (alpha - 2i gamma Delta), |.|^2 = 8 q
        br, bi = b.real, b.imag
        alpha = alpha0 + alpha_n * (br * br + bi * bi)
        q = alpha * alpha + dg2
        if q == 0.0:
            raise SingularParameterError(_SINGULAR_SUPERMODES)
        s = eps2 / q
        if not frozen:  # |a+|^2 - |a-|^2
            dn = s * (jd - jk * br - gk * bi)
        drive = complex(s * (gam * alpha + gdd - gdk * br),  # (eps a+ +
                        -(s * (J * alpha + gdk * bi)))       # eps a-*)/sqrt 2
        return (cpp * p - k * dn * b + drive,
                cb * b + k * p - 1j * gd * sm,
                cs * sm + 1j * gd * b * sz,
                -2.0 * gq * (sz + 1.0) + 4.0 * gd * (sm.conjugate() * b).imag,
                0.0)

    def fill(states):
        # the inversion the step's closure gives at each stored b
        br, bi = states[:, 1].real, states[:, 1].imag
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = alpha0 + alpha_n * (br * br + bi * bi)
            q = alpha * alpha + dg2
            if not q.all():
                raise SingularParameterError(_SINGULAR_SUPERMODES)
            states[:, 4] = eps2 / q * (jd - jk * br - gk * bi)

    y0 = (complex(init.p), complex(init.b), complex(init.sigma_minus),
          float(init.sigma_z), dn0 if frozen else 0.0)
    native = (1 if frozen else 2,
              (cpp, k, cb, cs, alpha0, alpha_n, dg2, eps2, gam, J, gdd, gdk,
               jd, jk, gk, gd, gq))
    return _solve(params, settings, rhs, y0, REDUCED_FIELDS, native,
                  None if frozen else fill, model="reduced",
                  delta_n_mode=delta_n_mode, delta_n0=dn0)


def _run_rk4(rhs, y0, h, n_steps, stride, states) -> int:
    """Classical fixed-step RK4 over a tuple state of 5 scalars, the oracle
    of ``_rk4.c`` with its contract: fills row 0 of the preallocated states
    with y0, then one row every stride-th step and at the last;
    returns n_steps, or -i when the state after step i is not finite (not
    stored); raises only where CPython raises, where the kernel returns 0.
    """
    h2 = 0.5 * h
    h6 = h / 6.0

    states[0], r = y0, 1
    y1, y2, y3, y4, y5 = y0
    for i in range(1, n_steps + 1):
        a1, b1, c1, d1, e1 = rhs(y1, y2, y3, y4, y5)
        a2, b2, c2, d2, e2 = rhs(y1 + h2 * a1, y2 + h2 * b1, y3 + h2 * c1,
                                 y4 + h2 * d1, y5 + h2 * e1)
        a3, b3, c3, d3, e3 = rhs(y1 + h2 * a2, y2 + h2 * b2, y3 + h2 * c2,
                                 y4 + h2 * d2, y5 + h2 * e2)
        a4, b4, c4, d4, e4 = rhs(y1 + h * a3, y2 + h * b3, y3 + h * c3,
                                 y4 + h * d3, y5 + h * e3)
        y1 = y1 + h6 * (a1 + 2.0 * (a2 + a3) + a4)
        y2 = y2 + h6 * (b1 + 2.0 * (b2 + b3) + b4)
        y3 = y3 + h6 * (c1 + 2.0 * (c2 + c3) + c4)
        y4 = y4 + h6 * (d1 + 2.0 * (d2 + d3) + d4)
        y5 = y5 + h6 * (e1 + 2.0 * (e2 + e3) + e4)
        mag2 = (y1.real * y1.real + y1.imag * y1.imag
                + y2.real * y2.real + y2.imag * y2.imag
                + y3.real * y3.real + y3.imag * y3.imag
                + y4.real * y4.real + y4.imag * y4.imag
                + y5.real * y5.real + y5.imag * y5.imag)
        # nan fails the comparison too, so this catches nan and overflow
        if not mag2 < 1e250:
            return -i
        if i % stride == 0 or i == n_steps:
            states[r] = (y1, y2, y3, y4, y5)
            r += 1
    return n_steps


@functools.cache
def _kernel():
    """``_rk4.c`` (``_kernels.load_kernel``), or None and a warning."""
    import ctypes
    from ._kernels import load_kernel
    cx = np.ctypeslib.ndpointer(complex, flags="C")
    return load_kernel("_rk4.c", "integrate", (
        ctypes.c_int64, ctypes.c_int, cx, cx, ctypes.c_double, ctypes.c_int64,
        ctypes.c_int64, cx), "RK4 runs in Python", 4)


def _run_adaptive(rhs, y0, times) -> np.ndarray:
    """DOP853 from y0 at t = 0, its states at ``times`` (one row each)."""
    from scipy.integrate import solve_ivp

    def f(t, y):
        return np.asarray(rhs(*y), dtype=complex)

    sol = solve_ivp(f, (0.0, times[-1]), np.asarray(y0, dtype=complex),
                    method="DOP853", rtol=1e-10, atol=1e-12, t_eval=times)
    if not sol.success:
        raise DivergenceError(sol.t[-1] if len(sol.t) else 0.0,
                              f"adaptive integration failed: {sol.message}")
    if not np.isfinite(sol.y).all():
        raise DivergenceError(sol.t[-1])
    return sol.y.T


@dataclass(frozen=True)
class GrowthRateFit:
    """Least-squares exponential rate of |b| with a residual error bar."""

    rate: float
    stderr: float


def growth_rate(traj: Trajectory, window: tuple[float, float]) -> GrowthRateFit:
    """Least-squares slope of log|b(t)| over ``window`` (t0, t1).

    Requires |b| strictly positive on the window and at least three
    samples inside it.
    """
    t0, t1 = window
    if t0 >= t1:
        raise ValueError("window must satisfy t0 < t1")
    t = traj.times
    if t0 < t[0] or t1 > t[-1]:
        raise ValueError("window lies outside the trajectory")
    mask = (t >= t0) & (t <= t1)
    if mask.sum() < 3:
        raise ValueError("window contains fewer than 3 samples")
    amp = traj.abs_b[mask]
    if np.any(amp <= 0.0):
        raise ValueError("|b| touches zero inside the window")
    x, y = t[mask], np.log(amp)
    x, y = x - x.mean(), y - y.mean()  # the centred least-squares line
    var_t = x @ x
    rate = float(x @ y / var_t)
    ss = float(np.sum((y - rate * x) ** 2))
    stderr = math.sqrt(ss / (len(x) - 2) / var_t) if var_t > 0 else math.inf
    return GrowthRateFit(rate=rate, stderr=stderr)


def crossing_time(times: np.ndarray, values: np.ndarray, level: float) -> float:
    """First time ``values`` rises to ``level`` (linear interpolation)."""
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
