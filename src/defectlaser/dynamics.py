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

Above threshold the model has no saturation mechanism for the optical
drive, so |b| grows without bound; extract rates over an early window
instead of integrating long.  A constant radiation-pressure drive gives
|b| a driven floor (typically >> any small seed); growth windows should
sit a safe factor above that floor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .params import SystemParams, derive_quantities

#: default seed phonon amplitude: smallest that still gives clean log fits
DEFAULT_SEED = 1e-3


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step integrator configuration.

    dt and t_final are in seconds.  ``stride`` thins the stored output.
    ``method`` is "rk4" (reference, bit-reproducible) or "dop853"
    (adaptive cross-check, uses rtol/atol).
    """

    dt: float
    t_final: float
    method: str = "rk4"
    stride: int = 1
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidParameterError("dt must be > 0")
        if self.t_final <= 0:
            raise InvalidParameterError("t_final must be > 0")
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
    delta_n: float = 0.0


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

    def final_state(self):
        row = self.states[-1]
        vals = dict(zip(self.fields, row))
        if self.fields == FULL_FIELDS:
            return MeanFieldState(
                a_plus=vals["a_plus"], a_minus=vals["a_minus"], b=vals["b"],
                sigma_minus=vals["sigma_minus"], sigma_z=vals["sigma_z"].real)
        return ReducedState(
            p=vals["p"], b=vals["b"], sigma_minus=vals["sigma_minus"],
            sigma_z=vals["sigma_z"].real, delta_n=vals["delta_n"].real)

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
            fh.write(",".join(cols) + "\n")
            for row in data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _check_resolution(params: SystemParams, settings: IntegratorSettings) -> list[str]:
    fastest = max(params.mechanical.mech_freq, params.tls.tls_freq,
                  2.0 * params.optical.coupling)
    notes = []
    if settings.dt * fastest > 0.1:
        notes.append(
            f"dt*max(omega_m, omega_q, 2J) = {settings.dt * fastest:.3g} "
            "> 0.1: the fastest oscillation is under-resolved")
        warnings.warn(notes[-1], UserWarning, stacklevel=3)
    return notes


def _coeffs(params: SystemParams):
    d = derive_quantities(params)
    opt, mech, tls = params.optical, params.mechanical, params.tls
    return {
        "c_plus": -1j * d.omega_plus - opt.cavity_loss,
        "c_minus": -1j * d.omega_minus - opt.cavity_loss,
        "c_b": -1j * mech.mech_freq - mech.mech_loss,
        "c_sigma": -1j * tls.tls_freq - tls.tls_loss,
        "k": 0.5j * d.xi * d.x0,
        "drive": d.eps_l / math.sqrt(2.0),
        "g_d": tls.coupling,
        "gamma_q": tls.tls_loss,
    }


def integrate_full(params: SystemParams, init: MeanFieldState | None = None,
                   settings: IntegratorSettings | None = None) -> Trajectory:
    """Integrate the five mean-field equations of the full supermode model.

    Raises :class:`DivergenceError` carrying the blow-up time if the state
    leaves the representable range (expected far above threshold).
    """
    if init is None:
        init = MeanFieldState()
    if settings is None:
        settings = _default_settings(params)
    notes = _check_resolution(params, settings)
    c = _coeffs(params)
    cp, cm, cb, cs = c["c_plus"], c["c_minus"], c["c_b"], c["c_sigma"]
    k, drv, gd, gq = c["k"], c["drive"], c["g_d"], c["gamma_q"]

    def rhs(ap, am, b, sm, sz):
        return (cp * ap + k * am * b + drv,
                cm * am + k * ap * b.conjugate() + drv,
                cb * b + k * am.conjugate() * ap - 1j * gd * sm,
                cs * sm + 1j * gd * b * sz,
                -2.0 * gq * (sz + 1.0) + 4.0 * gd * (sm.conjugate() * b).imag)

    y0 = (complex(init.a_plus), complex(init.a_minus), complex(init.b),
          complex(init.sigma_minus), float(init.sigma_z))
    meta = {"model": "full", "settings": settings, "warnings": notes}
    try:
        if settings.method == "dop853":
            times, states = _run_adaptive(rhs, y0, settings)
        else:
            times, states = _run_rk4(rhs, y0, settings)
    except DivergenceError as err:
        _attach_partial(err, FULL_FIELDS, meta)
        raise
    return Trajectory(times=times, states=states, fields=FULL_FIELDS, meta=meta)


def integrate_reduced(params: SystemParams, init: ReducedState | None = None,
                      settings: IntegratorSettings | None = None,
                      delta_n_mode: str = "frozen",
                      delta_n0: float | None = None) -> Trajectory:
    """Integrate the reduced model built on the supermode coherence p.

    The p equation needs the individual supermode amplitudes for its drive
    term; they are closed quasi-statically from the steady-state forms at
    the current b.  ``delta_n_mode`` controls the population inversion:

    * "frozen": held at its b = 0 steady value (``delta_n0`` overrides),
      the linear-gain configuration;
    * "full-closure": recomputed from the closed a+-, a- at the current b.
    """
    from .steadystate import coefficients, inversion, steady_optics

    if delta_n_mode not in ("frozen", "full-closure"):
        raise InvalidParameterError(
            "delta_n_mode must be 'frozen' or 'full-closure'")
    if init is None:
        init = ReducedState()
    if settings is None:
        settings = _default_settings(params)
    notes = _check_resolution(params, settings)
    c = _coeffs(params)
    optics = coefficients(params)
    kx, eps = optics.kx, optics.eps_l
    k, gd, gq = c["k"], c["g_d"], c["gamma_q"]
    cb, cs = c["c_b"], c["c_sigma"]
    cpp = -2j * params.optical.coupling - 2.0 * params.optical.cavity_loss
    sqrt2 = math.sqrt(2.0)

    if delta_n_mode == "frozen":
        if delta_n0 is None:
            delta_n0 = steady_optics(params, 0.0, 0.0).delta_n
    frozen = delta_n_mode == "frozen"
    dn0 = float(delta_n0 if delta_n0 is not None else 0.0)

    supermodes = optics.supermodes

    def closure(b):
        # steady supermode amplitudes at the current b (n_b = |b|^2)
        _, _, ap, am = supermodes(b.real * b.real + b.imag * b.imag, b)
        return ap, am

    def rhs(p, b, sm, sz, dn):
        ap, am = closure(b)
        if not frozen:
            dn = (ap.real ** 2 + ap.imag ** 2) - (am.real ** 2 + am.imag ** 2)
        drive = (eps * ap + eps * am.conjugate()) / sqrt2
        return (cpp * p - 1j * 0.5 * kx * dn * b + drive,
                cb * b + k * p - 1j * gd * sm,
                cs * sm + 1j * gd * b * sz,
                -2.0 * gq * (sz + 1.0) + 4.0 * gd * (sm.conjugate() * b).imag,
                0.0)

    y0 = (complex(init.p), complex(init.b), complex(init.sigma_minus),
          float(init.sigma_z), dn0 if frozen else float(init.delta_n))
    meta_stub = {"model": "reduced", "settings": settings, "warnings": notes,
                 "delta_n_mode": delta_n_mode}
    try:
        if settings.method == "dop853":
            times, states = _run_adaptive(rhs, y0, settings)
        else:
            times, states = _run_rk4(rhs, y0, settings)
    except DivergenceError as err:
        _attach_partial(err, REDUCED_FIELDS, meta_stub)
        raise
    if not frozen:
        # recompute the reported inversion from the stored b
        for i in range(len(states)):
            states[i, 4] = inversion(*closure(complex(states[i, 1])))
    else:
        states[:, 4] = dn0
    meta = {"model": "reduced", "settings": settings, "warnings": notes,
            "delta_n_mode": delta_n_mode, "delta_n0": dn0 if frozen else None}
    return Trajectory(times=times, states=states, fields=REDUCED_FIELDS,
                      meta=meta)


def _default_settings(params: SystemParams) -> IntegratorSettings:
    fastest = max(params.mechanical.mech_freq, params.tls.tls_freq,
                  2.0 * params.optical.coupling)
    dt = 0.1 / fastest
    t_final = 200.0 * 2.0 * math.pi / params.mechanical.mech_freq
    return IntegratorSettings(dt=dt, t_final=t_final,
                              stride=max(1, int(round(t_final / dt / 4000))))


def _attach_partial(err: DivergenceError, fields, meta) -> None:
    """Hang the finite prefix of a diverged run on the error."""
    if getattr(err, "_raw", None) is not None:
        times, rows = err._raw
        err.partial = Trajectory(times=np.asarray(times, dtype=float),
                                 states=np.asarray(rows, dtype=complex),
                                 fields=fields, meta=dict(meta, diverged_at=err.time))


def _run_rk4(rhs, y0, settings: IntegratorSettings):
    """Classical fixed-step RK4 over a tuple state of 5 scalars."""
    h = settings.dt
    n_steps = max(1, int(round(settings.t_final / h)))
    stride = settings.stride
    h2 = 0.5 * h
    h6 = h / 6.0

    times = [0.0]
    rows = [y0]
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
            err = DivergenceError(i * h)
            err._raw = (times, rows)
            raise err
        if i % stride == 0 or i == n_steps:
            times.append(i * h)
            rows.append((y1, y2, y3, y4, y5))
    return np.asarray(times, dtype=float), np.asarray(rows, dtype=complex)


def _run_adaptive(rhs, y0, settings: IntegratorSettings):
    from scipy.integrate import solve_ivp

    def f(t, y):
        return np.asarray(rhs(*y), dtype=complex)

    n_out = max(2, int(round(settings.t_final / settings.dt / settings.stride)))
    t_eval = np.linspace(0.0, settings.t_final, n_out + 1)
    sol = solve_ivp(f, (0.0, settings.t_final),
                    np.asarray(y0, dtype=complex), method="DOP853",
                    rtol=settings.rtol, atol=settings.atol, t_eval=t_eval)
    if not sol.success:
        raise DivergenceError(sol.t[-1] if len(sol.t) else 0.0,
                              f"adaptive integration failed: {sol.message}")
    states = sol.y.T.copy()
    if not np.all(np.isfinite(states.view(float))):
        raise DivergenceError(sol.t[-1])
    return sol.t.copy(), states


@dataclass(frozen=True)
class GrowthRateFit:
    """Least-squares exponential rate of |b| with a residual error bar."""

    rate: float
    stderr: float
    n_points: int
    window: tuple[float, float]


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
    tw = t[mask]
    y = np.log(amp)
    A = np.column_stack([tw - tw[0], np.ones_like(tw)])
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    n = len(tw)
    ss = float(res[0]) if len(res) else float(np.sum((y - A @ coef) ** 2))
    var_t = float(np.sum((tw - tw.mean()) ** 2))
    stderr = math.sqrt(ss / max(n - 2, 1) / var_t) if var_t > 0 else math.inf
    return GrowthRateFit(rate=float(coef[0]), stderr=stderr, n_points=n,
                         window=(t0, t1))


def demodulated_envelope(traj: Trajectory, omega_ref: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """|b| envelope after demodulating the carrier at ``omega_ref``.

    Mixing b(t) with exp(+i omega_ref t) and boxcar-averaging over one
    carrier period isolates the resonant component; constant driven
    offsets and counter-rotating ripple average out.
    """
    t = traj.times
    z = traj.column("b") * np.exp(1j * omega_ref * t)
    if len(t) < 3:
        return t, np.abs(z)
    dt = float(np.median(np.diff(t)))
    span = 2.0 * math.pi / omega_ref
    w = max(1, int(round(span / dt)))
    if w <= 1:
        return t, np.abs(z)
    kernel = np.ones(w) / w
    sm = np.convolve(z, kernel, mode="valid")
    tc = t[w - 1:] - 0.5 * (w - 1) * dt
    return tc, np.abs(sm)


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
