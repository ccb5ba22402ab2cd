"""Parameter sweeps: grid evaluation, tables, CSV/plot emission.

A sweep walks one or two dotted parameter paths over linear or log grids
(built once per spec, not per row), evaluates the requested quantities
independently at every grid point (row-major order, outer axis first) and
collects one row per point.
Every package error at a point lands in that row's ``error`` column and
never aborts the sweep.
"""

from __future__ import annotations

import json
import math
import os
import time
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise SweepError("axis endpoints must be finite")
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
            if self.n_b_fixed is None or not 0 <= self.n_b_fixed < math.inf:
                raise SweepError("fixed-nb mode needs a finite n_b_fixed >= 0")
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
        coords = np.unravel_index(idx, self.grid_shape())
        vals = [float(grid[c]) for grid, c in zip(self.grids, coords)]
        p = self.base
        for ax, v in zip(self.axes, vals):
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


def _grid_points(spec: SweepSpec):
    """(axis values, parameters or the error building them raised) of each
    row, row-major; each outer-axis value is applied once, not per row."""
    def point(p, ax, v):
        if isinstance(p, DefectLaserError):
            return p
        try:
            return with_value(p, ax.path, v)
        except DefectLaserError as err:
            return err
    *outer, (inner, grid) = zip(spec.axes, spec.grids)
    points = [((), spec.base)]
    for ax, g in outer:
        points = [((*vals, v), point(p, ax, v))
                  for vals, p in points for v in g.tolist()]
    return (([*vals, v], point(p, inner, v))
            for vals, p in points for v in grid.tolist())


def _eval_point(spec: SweepSpec, axis_vals: list, params) -> list:
    """Evaluate one grid point.  Any package error lands in the error
    cell; the quantities the row did not reach stay NaN (text: empty)."""
    if isinstance(params, DefectLaserError):
        return ([math.nan] * (len(_columns(spec)) - 1)
                + [f"point construction failed: {params}"])

    values: dict[str, object] = {}
    errors: list[str] = []
    try:
        n_b = spec.n_b_fixed
        if spec.mode == "self-consistent":
            fp = solve_nb_fixed_point(params)
            n_b = fp.n_b_star
            values.update(n_b_star=n_b, fp_iterations=fp.iterations,
                          fp_converged=float(fp.converged))
            if not fp.converged:
                errors.append(
                    f"fixed point not converged (residual {fp.residual:.3g})")
        g = gain(params, n_b)
        values.update(vars(g))
        if any(q in SPECTRUM_QUANTITIES for q in spec.quantities):
            if n_b < 1.0:
                errors.append(f"spectrum skipped: n_b = {n_b:.3g} < 1 "
                              "(needs one phonon)")
            else:
                res = eigenvalues(EffectiveParams.at(params, n_b, g.G0))
                values.update(vars(res), L=res.localization)
    except DefectLaserError as err:
        errors.append(str(err))

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


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid serially, in row-major order."""
    validate_spec(spec)
    rows = [_eval_point(spec, vals, p) for vals, p in _grid_points(spec)]

    cols = _columns(spec)
    if "E_plus_re" in cols and "E_minus_re" in cols:
        _track_branches(cols, rows, inner=spec.axes[-1].num)
    return SweepTable(columns=tuple(cols), rows=tuple(map(tuple, rows)),
                      provenance=_provenance(spec))


def _track_branches(cols: list[str], rows: list[list], inner: int) -> None:
    """Swap eigenvalue pairs along the innermost axis for continuity.

    The closed-form branch labelling can jump across an EP; minimal-distance
    matching with the previous grid point keeps each curve continuous.
    """
    i_pr, i_pi, i_mr, i_mi = map(
        cols.index, ("E_plus_re", "E_plus_im", "E_minus_re", "E_minus_im"))
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

    def write(kind, filename, text):
        path = manifest[kind] = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    write("csv", f"{name}.csv", table.to_csv_text())
    sidecar = {**table.provenance, "written_at_unix": int(time.time())}
    write("provenance", f"{name}.provenance.json",
          json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    if "plot" in formats:
        write("plot", f"{name}.plot.py", _plot_script(table, name))
    return manifest


def _plot_script(table: SweepTable, name: str) -> str:
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
        f'"""Plot {name} from {name}.csv (auto-generated)."""',
        "import csv",
        "from pathlib import Path",
        "import matplotlib.pyplot as plt",
        "",
        "here = Path(__file__).resolve().parent",
        "rows = []",
        f"with open(here / {name + '.csv'!r}) as fh:",
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
    lines.append("for ax, q in zip(axs[:, 0], quantities):")
    if two_axis:
        lines += [
            "    for gval in groups:",
            "        xs = [xv for xv, ov in zip(x, outer) if ov == gval]",
            "        ys = [yv for yv, ov in zip(col(q), outer) if ov == gval]",
            f"        ax.plot(xs, ys, label=f'{outer}={{gval:.6g}}')",
            "    ax.legend(fontsize=7)",
        ]
    else:
        lines.append("    ax.plot(x, col(q))")
    lines.append("    ax.set_ylabel(q)")
    if log_x:
        lines += ["    ax.set_xscale('log')"]
    lines += [
        f"axs[-1, 0].set_xlabel({x!r})",
        "fig.tight_layout()",
        f"fig.savefig(here / {name + '.png'!r}, dpi=160)",
        f"print('wrote', here / {name + '.png'!r})",
        "",
    ]
    return "\n".join(lines)
