"""Parameter sweeps: grid evaluation, tables, CSV/plot emission.

A sweep walks one or two dotted parameter paths over linear or log grids
(built once per spec, not per row), evaluates the requested quantities
independently at every grid point (row-major order, outer axis first) and
collects one row per point.
Per-point failures land in an ``error`` column and never abort the sweep.
Grid points are independent, so they may be dispatched to a process pool;
assembly order is deterministic regardless of completion order.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import params_to_config
from .constants import PACKAGE_VERSION
from .errors import DefectLaserError, SweepError
from .params import SystemParams, with_value
from .spectrum import EffectiveParams, eigenvalues
from .steadystate import gain, solve_nb_fixed_point

GAIN_QUANTITIES = ("G", "G0", "Gd", "omega_prime", "C", "alpha", "delta_n",
                   "N_b", "P_th", "P_th0", "P_thd", "n_b")
SPECTRUM_QUANTITIES = ("E_plus", "E_minus", "gap", "L", "phase",
                       "gamma_q_EP", "gamma_q_min")
FP_QUANTITIES = ("n_b_star", "fp_iterations", "fp_converged")
KNOWN_QUANTITIES = GAIN_QUANTITIES + SPECTRUM_QUANTITIES + FP_QUANTITIES

_COMPLEX = {"C", "E_plus", "E_minus"}
_TEXT = {"phase"}


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: dotted path, range, point count, scale."""

    path: str
    start: float
    stop: float
    num: int
    scale: str = "linear"

    def __post_init__(self):
        if self.num < 1:
            raise SweepError("axis point count must be >= 1")
        if self.scale not in ("linear", "log"):
            raise SweepError("axis scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise SweepError("log axis endpoints must be > 0")

    def values(self) -> np.ndarray:
        if self.num == 1:
            return np.asarray([self.start], dtype=float)
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.num)
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, axes, quantity list and phonon-number mode.

    mode is "self-consistent" (fixed point of n_b = N_b(G(n_b)) at every
    grid point) or "fixed-nb" with ``n_b_fixed``.  ``grids`` holds each
    axis's values, computed once at construction.
    """

    base: SystemParams
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...]
    mode: str = "self-consistent"
    n_b_fixed: float | None = None
    track_branches: bool = True
    name: str = "sweep"
    defaulted: tuple[str, ...] = ()
    grids: tuple[np.ndarray, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise SweepError("a sweep takes 1 or 2 axes")
        if not self.quantities:
            raise SweepError("quantity list must not be empty")
        unknown = [q for q in self.quantities if q not in KNOWN_QUANTITIES]
        if unknown:
            raise SweepError(
                f"unknown quantities {unknown}; known: {KNOWN_QUANTITIES}")
        if self.mode == "fixed-nb":
            if self.n_b_fixed is None or self.n_b_fixed < 0:
                raise SweepError("fixed-nb mode needs n_b_fixed >= 0")
            asked = [q for q in self.quantities if q in FP_QUANTITIES]
            if asked:
                raise SweepError(
                    f"{asked} are defined only in self-consistent mode")
        elif self.mode != "self-consistent":
            raise SweepError("mode must be 'self-consistent' or 'fixed-nb'")
        object.__setattr__(self, "grids",
                           tuple(ax.values() for ax in self.axes))

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(ax.num for ax in self.axes)

    def point_params(self, idx: int) -> tuple[list[float], SystemParams]:
        """Axis values and the parameter set at flat row-major index."""
        vals = []
        p = self.base
        coords = np.unravel_index(idx, self.grid_shape())
        for ax, grid, c in zip(self.axes, self.grids, coords):
            v = float(grid[c])
            vals.append(v)
            p = with_value(p, ax.path, v)
        return vals, p


def _columns(spec: SweepSpec) -> list[str]:
    cols = [ax.path for ax in spec.axes]
    for q in spec.quantities:
        if q in _COMPLEX:
            cols += [f"{q}_re", f"{q}_im"]
        else:
            cols.append(q)
    cols.append("error")
    return cols


def _eval_point(spec: SweepSpec, idx: int) -> list:
    """Evaluate one grid point; failures go to the error cell."""
    axis_vals, params = None, None
    errors: list[str] = []
    try:
        axis_vals, params = spec.point_params(idx)
    except DefectLaserError as err:
        width = len(_columns(spec)) - 1
        return [math.nan] * width + [f"point construction failed: {err}"]

    values: dict[str, object] = {}
    n_b = spec.n_b_fixed if spec.mode == "fixed-nb" else None
    fp = None
    if spec.mode == "self-consistent":
        fp = solve_nb_fixed_point(params)
        n_b = fp.n_b_star
        if not fp.converged:
            errors.append(
                f"fixed point not converged (residual {fp.residual:.3g})")
    values["n_b_star"] = fp.n_b_star if fp else math.nan
    values["fp_iterations"] = fp.iterations if fp else math.nan
    values["fp_converged"] = float(fp.converged) if fp else math.nan

    g = None
    try:
        g = gain(params, n_b)
    except DefectLaserError as err:
        errors.append(str(err))
    if g is not None:
        values.update(G=g.G, G0=g.G0, Gd=g.Gd, omega_prime=g.omega_prime,
                      C=g.C, alpha=g.alpha, delta_n=g.delta_n, N_b=g.N_b,
                      P_th=g.P_th, P_th0=g.P_th0, P_thd=g.P_thd, n_b=g.n_b)

    if any(q in SPECTRUM_QUANTITIES for q in spec.quantities):
        if g is None:
            errors.append("spectrum skipped: gain unavailable")
        elif n_b < 1.0:
            errors.append(
                f"spectrum skipped: n_b = {n_b:.3g} < 1 (needs one phonon)")
        else:
            eff = EffectiveParams(
                n_b=n_b, omega_m=params.mechanical.mech_freq,
                omega_q=params.tls.tls_freq,
                gamma_m_eff=params.mechanical.mech_loss - g.G0,
                gamma_q=params.tls.tls_loss, g_d=params.tls.coupling)
            res = eigenvalues(eff)
            values.update(E_plus=res.E_plus, E_minus=res.E_minus,
                          gap=res.gap, L=res.localization, phase=res.phase,
                          gamma_q_EP=res.gamma_q_EP,
                          gamma_q_min=res.gamma_q_min)

    row: list = list(axis_vals)
    for q in spec.quantities:
        v = values.get(q)
        if q in _COMPLEX:
            z = complex(v) if v is not None else complex(math.nan, math.nan)
            row += [z.real, z.imag]
        elif q in _TEXT:
            row.append(v if v is not None else "")
        else:
            row.append(float(v) if v is not None else math.nan)
    row.append("; ".join(errors))
    return row


def _eval_chunk(args) -> list[list]:
    spec, indices = args
    return [_eval_point(spec, i) for i in indices]


@dataclass(frozen=True)
class SweepTable:
    """Column schema, one row per grid point, and a provenance block."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def to_csv_text(self) -> str:
        out = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for v in row:
                if isinstance(v, str):
                    cells.append(v)
                else:
                    cells.append(f"{v:.17g}")
            out.append(",".join(cells))
        return "\n".join(out) + "\n"


def validate_spec(spec: SweepSpec) -> None:
    """Reject invalid axis endpoints before any computation."""
    for ax in spec.axes:
        for v in (ax.start, ax.stop):
            try:
                with_value(spec.base, ax.path, v)
            except DefectLaserError as err:
                raise SweepError(
                    f"axis {ax.path} endpoint {v:g} is invalid: {err}") from err


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepTable:
    """Evaluate the grid; deterministic row-major row order."""
    validate_spec(spec)
    n = int(np.prod(spec.grid_shape()))
    indices = list(range(n))
    if jobs > 1 and n > 1:
        chunk = max(1, n // (jobs * 4))
        batches = [(spec, indices[i:i + chunk])
                   for i in range(0, n, chunk)]
        rows: list[list] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_eval_chunk, batches):
                rows.extend(part)
    else:
        rows = [_eval_point(spec, i) for i in indices]

    cols = _columns(spec)
    if spec.track_branches and "E_plus_re" in cols and "E_minus_re" in cols:
        _track_branches(cols, rows, inner=spec.axes[-1].num)
    prov = _provenance(spec)
    return SweepTable(columns=tuple(cols),
                      rows=tuple(tuple(r) for r in rows), provenance=prov)


def _track_branches(cols: list[str], rows: list[list], inner: int) -> None:
    """Swap eigenvalue pairs along the innermost axis for continuity.

    The closed-form branch labelling can jump across an EP; minimal-distance
    matching with the previous grid point keeps each curve continuous.
    """
    i_pr = cols.index("E_plus_re")
    i_pi = cols.index("E_plus_im")
    i_mr = cols.index("E_minus_re")
    i_mi = cols.index("E_minus_im")
    for start in range(0, len(rows), inner):
        prev = None
        for r in rows[start:start + inner]:
            ep = complex(r[i_pr], r[i_pi])
            em = complex(r[i_mr], r[i_mi])
            if prev is not None:
                keep = abs(ep - prev[0]) + abs(em - prev[1])
                swap = abs(em - prev[0]) + abs(ep - prev[1])
                if swap < keep:
                    ep, em = em, ep
                    r[i_pr], r[i_pi] = ep.real, ep.imag
                    r[i_mr], r[i_mi] = em.real, em.imag
            if not (math.isnan(ep.real) or math.isnan(em.real)):
                prev = (ep, em)


def _provenance(spec: SweepSpec) -> dict:
    return {
        "tool": "defectlaser",
        "version": PACKAGE_VERSION,
        "name": spec.name,
        "base_config": params_to_config(spec.base),
        "axes": [{"path": ax.path, "start": ax.start, "stop": ax.stop,
                  "num": ax.num, "scale": ax.scale} for ax in spec.axes],
        "quantities": list(spec.quantities),
        "mode": spec.mode,
        "n_b_fixed": spec.n_b_fixed,
        "track_branches": spec.track_branches,
        "defaulted": list(spec.defaulted),
        "rows": int(np.prod(spec.grid_shape())),
    }


def emit_outputs(table: SweepTable, out_dir, formats=("csv", "plot")
                 ) -> dict[str, str]:
    """Write CSV (bit-stable), provenance sidecar, optional plot script.

    Returns a manifest {kind: path}.  The run timestamp lives only in the
    provenance sidecar so identical inputs give identical CSV bytes.
    """
    for fmt in formats:
        if fmt not in ("csv", "plot"):
            raise SweepError(f"unknown output format {fmt!r}")
    name = table.provenance.get("name", "sweep")
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict[str, str] = {}
    try:
        csv_path = os.path.join(out_dir, f"{name}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(table.to_csv_text())
        manifest["csv"] = csv_path

        sidecar = dict(table.provenance)
        sidecar["written_at_unix"] = time.time()
        prov_path = os.path.join(out_dir, f"{name}.provenance.json")
        with open(prov_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest["provenance"] = prov_path

        if "plot" in formats:
            plot_path = os.path.join(out_dir, f"{name}.plot.py")
            with open(plot_path, "w", encoding="utf-8") as fh:
                fh.write(_plot_script(table, f"{name}.csv"))
            manifest["plot"] = plot_path
    except OSError as err:
        raise SweepError(f"IO failure writing {out_dir}: {err}") from err
    return manifest


def _plot_script(table: SweepTable, csv_name: str) -> str:
    prov = table.provenance
    axes = prov["axes"]
    x = axes[-1]["path"]
    log_x = axes[-1]["scale"] == "log"
    numeric = [c for c in table.columns
               if c not in (x, "error", "phase")
               and c not in [a["path"] for a in axes]]
    two_axis = len(axes) == 2
    outer = axes[0]["path"] if two_axis else None
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot {prov.get("name", "sweep")} from {csv_name} (auto-generated)."""',
        "import csv",
        "import matplotlib.pyplot as plt",
        "",
        "rows = []",
        f"with open({csv_name!r}) as fh:",
        "    for rec in csv.DictReader(fh):",
        "        rows.append(rec)",
        "",
        "def col(name):",
        "    return [float(r[name]) for r in rows]",
        "",
        f"x = col({x!r})",
        f"quantities = {numeric!r}",
        "fig, axs = plt.subplots(len(quantities), 1, sharex=True,",
        "                        figsize=(7, 2.4 * len(quantities)),",
        "                        squeeze=False)",
    ]
    if two_axis:
        lines += [
            f"outer = col({outer!r})",
            "groups = sorted(set(outer))",
        ]
    lines += [
        "for ax, q in zip(axs[:, 0], quantities):",
    ]
    if two_axis:
        lines += [
            "    for gval in groups:",
            "        xs = [xv for xv, ov in zip(x, outer) if ov == gval]",
            "        ys = [yv for yv, ov in zip(col(q), outer) if ov == gval]",
            f"        ax.plot(xs, ys, label=f'{outer}={{gval:.6g}}')",
            "    ax.legend(fontsize=7)",
        ]
    else:
        lines += [
            "    ax.plot(x, col(q))",
        ]
    lines += [
        "    ax.set_ylabel(q)",
    ]
    if log_x:
        lines += ["    ax.set_xscale('log')"]
    lines += [
        f"axs[-1, 0].set_xlabel({x!r})",
        "fig.tight_layout()",
        f"fig.savefig({(prov.get('name', 'sweep') + '.png')!r}, dpi=160)",
        "print('wrote', " + repr(prov.get("name", "sweep") + ".png") + ")",
        "",
    ]
    return "\n".join(lines)
