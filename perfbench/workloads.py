"""Seeded workloads: inputs, one pass, and the output check of each pass.

Every workload draws its inputs from the seed alone.  The seed picks a base
point (pump power, detuning, J, g_d, gamma_q) around the package's
experimentally accessible base point and jitters the axis endpoints; grid
sizes, member counts and step sizes are fixed, so the work per pass barely
moves with the seed.  The base point reaches the package as a generated
parameter file, and the sweep specs are built here rather than taken from
``presets``, so edits there do not move the benchmark.

Calls go through module attributes (``sweep.run_sweep``, not a name
imported once) so that the wrappers ``tracing`` installs are seen.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from defectlaser import dynamics, errors, params, steadystate, sweep

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEFAULT_SEED = 0

OMEGA_M = 2.0 * math.pi * 23.4e6
GAMMA = 6.43e6

# Relative tolerance of the golden comparison.  Wide enough for a
# different but converged root finder (fixed-point tol is 1e-10 on the
# residual) or a reordered sum; narrow enough to catch any change of model.
GOLDEN_RTOL = 1e-6
# Bound on the lossless spin-length drift of dynamics-long.  Over seeds
# 0..19 it reads 1.14e-11 to 1.53e-11 at the commit that added this
# benchmark (RK4 truncation, growing linearly with the run length).
DRIFT_BOUND = 5e-11
# The drift is a small difference of O(1) numbers, so rounding-level
# changes of the integrator move it by a few per cent; the golden check
# allows that and no more.
DRIFT_GOLDEN_RTOL = 0.1
# The fixed-point solver's default convergence tolerance.
FP_TOL = 1e-10

SKIP_REASONS = ("spectrum_nb_lt_1", "fp_unconverged", "other")
SPECTRUM_SKIP = re.compile(r"spectrum skipped: n_b = \S+ < 1 \(needs one phonon\)")
FP_UNCONVERGED = re.compile(r"fixed point not converged")


# --- seeded inputs -----------------------------------------------------------

# (center, relative half-width) of the seeded base point, per workload.
# pump in uW, detuning and J in units of omega_m, g_d and gamma_q in rad/s.
BASE_POINTS = {
    "sweep-linear": dict(pump=(10.0, 0.10), detuning=(0.5, 0.05),
                         coupling=(0.5, 0.05), g_d=(1e6, 0.10),
                         gamma_q=(GAMMA, 0.10)),
    # The fixed point's cost is very sensitive to where the grid rows fall
    # (a row whose damped iteration does not settle takes 200 steps and then
    # a bisection), so this jitter is small: at 5% the gain calls per pass spread by 14%
    # between seeds, at 1% by 3%, at 0.2% by 1.6%.
    "sweep-selfconsistent": dict(pump=(10.0, 0.005), detuning=(0.5, 0.005),
                                 coupling=(0.5, 0.005), g_d=(1e6, 0.005),
                                 gamma_q=(GAMMA, 0.005)),
    # members override the pump; see Ensemble
    "dynamics-ensemble": dict(pump=(10.0, 0.0), detuning=(0.5, 0.01),
                              coupling=(0.5, 0.01), g_d=(0.5e6, 0.03),
                              gamma_q=(8e6, 0.03)),
    # lossless (gamma_q = 0) and undriven (no pump): the C6 conservation run
    "dynamics-long": dict(pump=(0.0, 0.0), detuning=(0.5, 0.05),
                          coupling=(0.5, 0.05), g_d=(1e6, 0.10),
                          gamma_q=(0.0, 0.0)),
}
WORKLOADS = tuple(BASE_POINTS)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _jitter(rng: random.Random, center: float, rel: float) -> float:
    return center * (1.0 + rel * rng.uniform(-1.0, 1.0))


def config_text(workload: str, seed: int) -> str:
    """Parameter file of the seeded base point, in the tagged units users write."""
    rng = _rng(workload, seed, "base")
    v = {key: _jitter(rng, *cr) for key, cr in BASE_POINTS[workload].items()}
    f_m = OMEGA_M / (2.0 * math.pi * 1e6)  # 23.4, in 2pi.MHz
    return "\n".join([
        "[optical]",
        "cavity_freq   = 193 2pi.THz",
        "cavity_loss   = 6.43 MHz",
        f"coupling      = {v['coupling'] * f_m!r} 2pi.MHz",
        "radius        = 34.5 um",
        f"pump_power    = {v['pump']!r} uW",
        f"pump_detuning = {v['detuning'] * f_m!r} 2pi.MHz",
        "",
        "[mechanical]",
        "mech_freq = 23.4 2pi.MHz",
        "mech_loss = 0.24 MHz",
        "eff_mass  = 50 ng",
        "",
        "[tls]",
        "tls_freq = 23.4 2pi.MHz",
        f"tls_loss = {v['gamma_q'] / 1e6!r} MHz",
        f"coupling = {v['g_d'] / 1e6!r} MHz",
        "",
    ])


@dataclass
class PassOutcome:
    """What one checked pass did: its work and its failures."""

    ops: int                 # sweep rows or RK4 steps, the unit of ops_per_s
    attempted: int           # operations: grid rows or integration runs
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)  # sweep rows by reason


def build(workload: str, seed: int, base: params.SystemParams):
    """The workload object for ``workload`` on the loaded base point."""
    cls = {"sweep-linear": LinearSweeps,
           "sweep-selfconsistent": SelfConsistentSweeps,
           "dynamics-ensemble": Ensemble,
           "dynamics-long": LongRun}[workload]
    return cls(seed, base)


# --- sweeps ------------------------------------------------------------------

def _axis(rng, rel, path, start, stop, num, scale="linear"):
    return sweep.SweepAxis(path, _jitter(rng, start, rel),
                           _jitter(rng, stop, rel), num, scale)


def expected_columns(spec: sweep.SweepSpec) -> tuple[str, ...]:
    """The CSV schema a spec must produce: axes, quantities, error.

    Written out here rather than taken from ``sweep`` so that the check does
    not reuse the code it checks.
    """
    cols = [ax.path for ax in spec.axes]
    for q in spec.quantities:
        cols += [f"{q}_re", f"{q}_im"] if q in ("C", "E_plus", "E_minus") else [q]
    return tuple(cols + ["error"])


class Sweeps:
    """A list of specs run through ``run_sweep`` and ``emit_outputs``."""

    name = ""

    def __init__(self, seed: int, base: params.SystemParams):
        self.specs = self.make_specs(_rng(self.name, seed, "axes"), base)
        self.operations = sum(int(np.prod(s.grid_shape())) for s in self.specs)
        self.reference: dict[str, str] | None = None  # CSV digests of pass 1

    def make_specs(self, rng, base) -> tuple[sweep.SweepSpec, ...]:
        raise NotImplementedError

    def run(self, out_dir: Path) -> list[sweep.SweepTable]:
        tables = []
        for spec in self.specs:
            table = sweep.run_sweep(spec)
            sweep.emit_outputs(table, out_dir)
            tables.append(table)
        return tables

    def check(self, tables, out_dir: Path, golden: bool = False) -> PassOutcome:
        out = PassOutcome(ops=0, attempted=0)
        digests = {}
        for spec, table in zip(self.specs, tables):
            n = int(np.prod(spec.grid_shape()))
            out.ops += len(table.rows)
            out.attempted += n
            csv_bytes = (out_dir / f"{spec.name}.csv").read_bytes()
            digests[spec.name] = hashlib.sha256(csv_bytes).hexdigest()
            bad, notes = self._check_table(spec, table, out.skipped)
            if self.reference is not None and \
                    digests[spec.name] != self.reference[spec.name]:
                notes.append("CSV bytes differ from the first pass")
                bad = set(range(n))
            if golden:
                mismatch = compare_golden_csv(spec.name, csv_bytes)
                if mismatch:
                    notes.append(mismatch)
                    bad = set(range(n))
            out.failed += len(bad)
            out.notes += [f"{spec.name}: {note}" for note in notes]
        if self.reference is None:
            self.reference = digests
        return out

    def coverage(self, outcome: PassOutcome, layers: dict) -> dict:
        """Which regimes this seed reaches, so a seed that loses one shows."""
        return {"spectrum_skipped_frac":
                outcome.skipped["spectrum_nb_lt_1"] / outcome.attempted}

    def _check_table(self, spec, table, skipped: Counter):
        n = int(np.prod(spec.grid_shape()))
        if table.columns != expected_columns(spec) or len(table.rows) != n:
            return set(range(n)), [
                f"schema {table.columns} with {len(table.rows)} rows, "
                f"expected {expected_columns(spec)} with {n}"]
        col = {c: i for i, c in enumerate(table.columns)}
        bad: set[int] = set()
        notes: list[str] = []
        for i, row in enumerate(table.rows):
            err = row[col["error"]]
            if err:
                if SPECTRUM_SKIP.fullmatch(err):
                    skipped["spectrum_nb_lt_1"] += 1
                else:
                    skipped["fp_unconverged" if FP_UNCONVERGED.match(err)
                            else "other"] += 1
                    bad.add(i)
                    notes.append(f"row {i}: error {err!r}")
                    continue
            if {"G", "G0", "Gd"} <= col.keys():
                g, g0, gd = (row[col[q]] for q in ("G", "G0", "Gd"))
                if not (math.isfinite(g) and
                        abs(g - (g0 + gd)) <= 1e-12 * (abs(g0) + abs(gd))):
                    bad.add(i)
                    notes.append(f"row {i}: G {g!r} != G0 + Gd")
            if spec.mode == "self-consistent":
                if "fp_converged" in col and row[col["fp_converged"]] != 1.0:
                    bad.add(i)
                    notes.append(f"row {i}: fp_converged is false")
                n_b = row[col["n_b_star"]]
                _, p = spec.point_params(i)
                residual = abs(steadystate.gain(p, n_b).N_b - n_b)
                if not residual <= FP_TOL * max(1.0, abs(n_b)):
                    bad.add(i)
                    notes.append(f"row {i}: fixed-point residual {residual:.3g}"
                                 f" at n_b = {n_b:.6g}")
        return bad, notes[:5]


class LinearSweeps(Sweeps):
    """Fixed-n_b sweeps shaped like fig2a and fig3a: one gain call a row."""

    name = "sweep-linear"

    def make_specs(self, rng, base):
        axis = partial(_axis, rng, 0.02)  # row cost does not depend on it
        det = ("optical.pump_detuning", -OMEGA_M, OMEGA_M)
        return (
            sweep.SweepSpec(
                base=base, axes=(axis(*det, 161),),
                quantities=("G", "G0", "Gd", "delta_n"),
                mode="fixed-nb", n_b_fixed=0.0, name="fig2a-line"),
            sweep.SweepSpec(
                base=base,
                axes=(axis("optical.coupling", 0.1 * OMEGA_M, OMEGA_M, 37),
                      axis(*det, 81)),
                quantities=("G", "G0", "Gd"),
                mode="fixed-nb", n_b_fixed=0.0, name="fig3a-grid"),
        )


class SelfConsistentSweeps(Sweeps):
    """Self-consistent sweeps shaped like fig2b/3b, fig4, fig6a and fig5/6b."""

    name = "sweep-selfconsistent"

    def make_specs(self, rng, base):
        axis = partial(_axis, rng, 0.0025)  # small, as for the base point
        loss = ("tls.tls_loss", 0.05 * GAMMA, 6.0 * GAMMA)
        pump = base.optical.pump_power
        return (
            sweep.SweepSpec(
                base=base, axes=(axis(*loss, 481, "log"),),
                quantities=("G", "G0", "Gd", "n_b_star", "fp_converged",
                            "P_th", "P_th0", "P_thd"),
                name="fig2b-loss"),
            sweep.SweepSpec(
                base=params.with_value(base, "optical.pump_power", 0.7 * pump),
                axes=(axis(*loss, 481, "log"),),
                quantities=("E_plus", "E_minus", "gap", "L", "phase",
                            "gamma_q_EP", "n_b_star", "G0"),
                name="fig4-spectrum"),
            sweep.SweepSpec(
                base=base,
                axes=(axis("optical.pump_power", 0.1e-6, 20e-6, 100),),
                quantities=("N_b", "G", "n_b_star", "fp_converged"),
                name="fig6a-power"),
            sweep.SweepSpec(
                base=base,
                axes=(axis("optical.pump_detuning", 0.25 * OMEGA_M,
                            OMEGA_M, 4),
                      axis(*loss, 241, "log")),
                quantities=("G", "N_b", "n_b_star", "gamma_q_min",
                            "gamma_q_EP"),
                name="fig5-family"),
        )

    def coverage(self, outcome: PassOutcome, layers: dict) -> dict:
        gamma_q = self.multi_root_loss()
        return {**super().coverage(outcome, layers),
                "bisection_frac":
                layers["steadystate.solve_nb_fixed_point.bisection_frac"],
                "multi_root_low_loss": gamma_q is not None,
                "multi_root_gamma_q": gamma_q}

    def multi_root_loss(self, points: int = 32) -> float | None:
        """First low loss of the fig2b-shaped axis with more than one root.

        Scans h(n_b) = N_b(G(n_b)) - n_b over a log grid of n_b at each of
        the ``points`` lowest losses; more than one sign change means more
        than one self-consistent phonon number.
        """
        spec = self.specs[0]
        grid = np.geomspace(1e-12, 1e12, 481)
        for i in range(min(points, spec.axes[0].num)):
            _, p = spec.point_params(i)
            h = np.array([steadystate.gain(p, n).N_b - n for n in grid])
            signs = np.sign(h[h != 0.0])
            if np.count_nonzero(signs[1:] != signs[:-1]) > 1:
                return p.tls.tls_loss
        return None


def compare_golden_csv(name: str, csv_bytes: bytes) -> str:
    """Empty when the CSV matches the golden copy within GOLDEN_RTOL."""
    golden = gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes())
    got = list(csv.reader(io.StringIO(csv_bytes.decode())))
    want = list(csv.reader(io.StringIO(golden.decode())))
    if got[0] != want[0] or len(got) != len(want):
        return f"golden: header or row count differs ({len(got)} vs {len(want)})"
    for r, (row, ref) in enumerate(zip(got[1:], want[1:])):
        for c, (a, b) in enumerate(zip(row, ref)):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return f"golden: row {r} column {want[0][c]}: {a!r} != {b!r}"
            if not abs(x - y) <= GOLDEN_RTOL * max(abs(x), abs(y)):
                return (f"golden: row {r} column {want[0][c]}: {x!r} vs {y!r}"
                        f" (rtol {GOLDEN_RTOL:g})")
    return ""


# --- dynamics ----------------------------------------------------------------

def steps_taken(settings: dynamics.IntegratorSettings,
                diverged_at: float | None) -> int:
    """RK4 steps run up to divergence or t_final (as ``_run_rk4`` counts)."""
    t_end = settings.t_final if diverged_at is None else diverged_at
    return max(1, int(round(t_end / settings.dt)))


def _digest(traj, *extra) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.times).tobytes())
    h.update(np.ascontiguousarray(traj.states).tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


@dataclass
class RunResult:
    """One integration run of a pass."""

    digest: str = ""
    steps: int = 0
    value: float = math.nan   # growth rate (ensemble) or drift (long run)
    error: str = ""


def _load_golden_dynamics() -> dict:
    return json.loads((GOLDEN / "dynamics.json").read_text())


class Ensemble:
    """C5-shaped: lasing members, each integrated by both models.

    Pump power is stratified over 8-14 uW (one member per stratum, jittered
    inside it) so the steps to divergence, and with them the pass time,
    vary little between seeds.  t_final caps the members that have not
    diverged yet; all reach |b| = 300 well before it.
    """

    name = "dynamics-ensemble"
    MEMBERS = 8
    LEVELS = (30.0, 300.0)   # |b| window of the growth fit, as in C5
    MEMBER_JITTER = (("optical.pump_detuning", 0.01), ("tls.coupling", 0.03),
                     ("tls.tls_loss", 0.03))

    def __init__(self, seed: int, base: params.SystemParams):
        rng = _rng(self.name, seed, "members")
        self.settings = dynamics.IntegratorSettings(
            dt=0.095 / OMEGA_M, t_final=3e-6, stride=5)
        self.members = []
        for i in range(self.MEMBERS):
            stratum = (i + rng.uniform(0.25, 0.75)) / self.MEMBERS
            p = params.with_value(base, "optical.pump_power",
                                  (8.0 + 6.0 * stratum) * 1e-6)
            for path, rel in self.MEMBER_JITTER:
                group, key = path.split(".")
                value = getattr(getattr(p, group), key)
                p = params.with_value(p, path, _jitter(rng, value, rel))
            self.members.append(p)
        self.operations = 2 * self.MEMBERS
        self.reference: list[str] | None = None

    def run(self, out_dir: Path) -> list[RunResult]:
        results = []
        for p in self.members:
            for integrate in (dynamics.integrate_full, dynamics.integrate_reduced):
                results.append(self._one(integrate, p))
        return results

    def _one(self, integrate, p) -> RunResult:
        diverged_at = None
        try:
            try:
                traj = integrate(p, None, self.settings)
            except errors.DivergenceError as err:
                traj, diverged_at = err.partial, err.time
            lo, hi = (dynamics.crossing_time(traj.times, traj.abs_b, level)
                      for level in self.LEVELS)
            rate = dynamics.growth_rate(traj, (lo, hi)).rate
        except Exception as err:  # one failed run must not end the pass
            return RunResult(error=f"{type(err).__name__}: {err}")
        return RunResult(digest=_digest(traj, diverged_at, rate),
                         steps=steps_taken(self.settings, diverged_at),
                         value=rate)

    def coverage(self, outcome: PassOutcome, layers: dict) -> dict:
        return {"diverged_frac": layers["dynamics.diverged_frac"]}

    def check(self, results, out_dir: Path, golden: bool = False) -> PassOutcome:
        out = PassOutcome(ops=sum(r.steps for r in results),
                          attempted=len(results))
        want = _load_golden_dynamics()[self.name]["rates"] if golden else None
        for i, r in enumerate(results):
            note = r.error
            if not note and not (math.isfinite(r.value) and r.value > 0.0):
                note = f"growth rate {r.value!r} is not a positive number"
            if not note and self.reference is not None \
                    and r.digest != self.reference[i]:
                note = "trajectory differs from the first pass"
            if not note and want is not None and not \
                    abs(r.value - want[i]) <= GOLDEN_RTOL * abs(want[i]):
                note = f"golden: growth rate {r.value!r} vs {want[i]!r}"
            if note:
                out.failed += 1
                out.notes.append(f"run {i}: {note}")
        if self.reference is None:
            self.reference = [r.digest for r in results]
        return out


class LongRun:
    """C6-shaped: one long lossless, undriven ``integrate_full`` run.

    A single trajectory cannot be batched, so this is where per-step cost
    shows on its own.  The spin length sigma_z^2 + 4|sigma_-|^2 is
    conserved; its drift is the output check.
    """

    name = "dynamics-long"
    PERIODS = 40

    def __init__(self, seed: int, base: params.SystemParams):
        rng = _rng(self.name, seed, "init")
        self.params = base
        # |sigma_-| and phase around C6's 0.3 + 0.2j
        sm = _jitter(rng, 0.36, 0.1) * np.exp(1j * rng.uniform(0.4, 0.8))
        self.init = dynamics.MeanFieldState(
            b=_jitter(rng, 1.0, 0.1), sigma_minus=sm,
            sigma_z=-math.sqrt(1.0 - 4.0 * abs(sm) ** 2))
        period = 2.0 * math.pi / OMEGA_M
        self.settings = dynamics.IntegratorSettings(
            dt=0.005 / OMEGA_M, t_final=self.PERIODS * period, stride=200)
        self.operations = 1
        self.reference: str | None = None
        self.reference_drift = math.nan

    def run(self, out_dir: Path) -> list[RunResult]:
        try:
            traj = dynamics.integrate_full(self.params, self.init, self.settings)
            q = traj.column("sigma_z").real ** 2 \
                + 4.0 * np.abs(traj.column("sigma_minus")) ** 2
            drift = float(np.max(np.abs(q - q[0]) / q[0]))
        except Exception as err:  # reported as a failed run, not a crash
            return [RunResult(error=f"{type(err).__name__}: {err}")]
        return [RunResult(digest=_digest(traj), value=drift,
                          steps=steps_taken(self.settings, None))]

    def coverage(self, outcome: PassOutcome, layers: dict) -> dict:
        return {"drift": self.reference_drift}

    def check(self, results, out_dir: Path, golden: bool = False) -> PassOutcome:
        (r,) = results
        out = PassOutcome(ops=r.steps, attempted=1)
        note = r.error
        if not note and not r.value <= DRIFT_BOUND:
            note = f"spin-length drift {r.value:.3g} exceeds {DRIFT_BOUND:g}"
        if not note and self.reference is not None and r.digest != self.reference:
            note = "trajectory differs from the first pass"
        if not note and golden:
            want = _load_golden_dynamics()[self.name]["drift"]
            if not abs(r.value - want) <= DRIFT_GOLDEN_RTOL * want:
                note = f"golden: drift {r.value!r} vs {want!r}"
        if note:
            out.failed = 1
            out.notes.append(note)
        if self.reference is None:
            self.reference, self.reference_drift = r.digest, r.value
        return out

