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
import numbers
import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import params_to_config
from .constants import PACKAGE_VERSION
from .errors import DefectLaserError, SweepError
from .params import SystemParams, setter, with_value
from .spectrum import EffectiveParams, eigenvalues
from .steadystate import gain, solve_nb_fixed_point

GAIN_QUANTITIES = ("G", "G0", "Gd", "omega_prime", "alpha", "delta_n", "N_b",
                   "P_th", "P_th0", "P_thd", "n_b")
SPECTRUM_QUANTITIES = ("E_plus", "E_minus", "gap", "L", "phase",
                       "gamma_q_EP", "gamma_q_min")
FP_QUANTITIES = ("n_b_star", "fp_iterations", "fp_converged")
KNOWN_QUANTITIES = GAIN_QUANTITIES + SPECTRUM_QUANTITIES + FP_QUANTITIES

_COMPLEX = {"E_plus", "E_minus"}
_TEXT = {"phase"}
_EP_NOTED = {"gamma_q_EP", "phase"}  # noted as approximate off resonance


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: dotted path, range, point count, scale."""

    path: str
    start: float
    stop: float
    num: int
    scale: str = "linear"

    def __post_init__(self):
        if not isinstance(self.num, numbers.Integral):
            raise SweepError(
                f"axis point count must be an integer, not {self.num!r}")
        object.__setattr__(self, "num", operator.index(self.num))
        if self.num < 1:
            raise SweepError("axis point count must be >= 1")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise SweepError("axis endpoints must be finite")
        if self.scale not in ("linear", "log"):
            raise SweepError("axis scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise SweepError("log axis endpoints must be > 0")
        if self.scale == "linear" and math.isinf(self.stop - self.start):
            raise SweepError(f"axis {self.path}: stop - start overflows")

    def values(self) -> tuple[float, ...]:
        space = np.geomspace if self.scale == "log" else np.linspace
        try:
            return tuple(space(self.start, self.stop, self.num).tolist())
        except (ValueError, IndexError, MemoryError) as err:
            raise SweepError(f"axis {self.path}: numpy cannot allocate "
                             f"{self.num} points") from err


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, axes, quantity list and phonon-number mode.

    mode is "self-consistent" (fixed point of n_b = N_b(G(n_b)) at every
    grid point) or "fixed-nb" with ``n_b_fixed``.  ``grids`` (each axis's
    values), ``kinds`` (each quantity's cell type), ``spectrum`` and
    ``ep_noted`` (whether rows run the spectrum and note an inexact EP)
    are worked out once, at construction, for every row to read.
    """

    base: SystemParams
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...]
    mode: str = "self-consistent"
    n_b_fixed: float | None = None
    name: str = "sweep"
    defaulted: tuple[str, ...] = ()
    grids: tuple = field(init=False, repr=False, compare=False)
    kinds: tuple = field(init=False, repr=False, compare=False)
    spectrum: bool = field(init=False, repr=False, compare=False)
    ep_noted: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_stem(self.name)
        if not (1 <= len(self.axes) <= 2):
            raise SweepError("a sweep takes 1 or 2 axes")
        # the inner axis, applied last, would overwrite the outer one
        paths = [ax.path for ax in self.axes]
        if len(set(paths)) < len(paths):
            raise SweepError(f"both axes sweep {paths[0]}")
        if {path.partition(".")[0] for path in paths} == {"tls", "material"}:
            raise SweepError("a tls.* value drops the material that the "
                             "material.* axis edits; material.tls_loss "
                             "sweeps the loss")
        if not self.quantities:
            raise SweepError("quantity list must not be empty")
        unknown = [q for q in self.quantities if q not in KNOWN_QUANTITIES]
        if unknown:
            raise SweepError(
                f"unknown quantities {unknown}; known: {KNOWN_QUANTITIES}")
        if len(set(self.quantities)) < len(self.quantities):
            raise SweepError(f"quantities {list(self.quantities)} repeat")
        if self.mode == "fixed-nb":
            if self.n_b_fixed is None or not 0 <= self.n_b_fixed < math.inf:
                raise SweepError("fixed-nb mode needs a finite n_b_fixed >= 0")
            asked = [q for q in self.quantities if q in FP_QUANTITIES]
            if asked:
                raise SweepError(
                    f"{asked} are defined only in self-consistent mode")
        elif self.mode != "self-consistent":
            raise SweepError("mode must be 'self-consistent' or 'fixed-nb'")
        elif self.n_b_fixed is not None:
            raise SweepError("n_b_fixed is only for fixed-nb mode")
        object.__setattr__(self, "grids",
                           tuple(ax.values() for ax in self.axes))
        object.__setattr__(self, "kinds", tuple(
            (q, complex if q in _COMPLEX else str if q in _TEXT else float)
            for q in self.quantities))
        wanted = set(self.quantities)
        object.__setattr__(self, "spectrum",
                           not wanted.isdisjoint(SPECTRUM_QUANTITIES))
        object.__setattr__(self, "ep_noted", not wanted.isdisjoint(_EP_NOTED))

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(ax.num for ax in self.axes)

    def point_params(self, idx: int) -> tuple[list[float], SystemParams]:
        """Axis values and the parameter set at flat row-major index."""
        shape = self.grid_shape()
        if not 0 <= idx < math.prod(shape):
            raise ValueError(f"index {idx} is off the {shape} grid")
        coords = divmod(idx, shape[1]) if len(shape) == 2 else (idx,)
        vals = [grid[c] for grid, c in zip(self.grids, coords)]
        p = self.base
        for ax, v in zip(self.axes, vals):
            p = with_value(p, ax.path, v)
        return vals, p


def _columns(spec: SweepSpec) -> list[str]:
    cols = [ax.path for ax in spec.axes]
    for q, kind in spec.kinds:
        cols += [f"{q}_re", f"{q}_im"] if kind is complex else [q]
    cols.append("error")
    return cols


def _grid_points(spec: SweepSpec):
    """(axis values, parameters or the error building them raised) of each
    row, row-major.  Rows are built lazily, so a grid's parameter sets are
    never all held at once."""
    points = iter([([], spec.base)])
    for ax, grid in zip(spec.axes, spec.grids):
        points = _along(points, ax.path, grid)
    return points


def _along(points, path: str, grid: tuple[float, ...]):
    """Each point of ``points`` extended by every value of one axis; the
    path is resolved once per point, not per value."""
    for vals, p in points:
        # setter cannot raise: run_sweep resolves the path on the base, and
        # SweepSpec refuses tls.* beside material.*, which could unset a group
        build = p if isinstance(p, DefectLaserError) else setter(p, path)
        for v in grid:
            try:
                q = build if isinstance(build, DefectLaserError) else build(v)
            except DefectLaserError as err:
                q = err
            yield [*vals, v], q


def _eval_point(spec: SweepSpec, row: list, params) -> list:
    """Evaluate one grid point into ``row``, which holds its axis values.
    Any package error lands in the error cell; the quantities the row did
    not reach stay NaN (text: empty)."""
    values: dict[str, object] = {}
    errors: list[str] = []
    try:
        if isinstance(params, DefectLaserError):  # from _grid_points
            raise SweepError(f"point construction failed: {params}")
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
        if spec.spectrum:
            if n_b < 1.0:
                errors.append(f"spectrum skipped: n_b = {n_b:.3g} < 1 "
                              "(needs one phonon)")
            else:
                res = eigenvalues(EffectiveParams.at(params, n_b, g.G0))
                values.update(vars(res))
                if (spec.ep_noted and params.tls.tls_freq
                        != params.mechanical.mech_freq):
                    errors.append("no exact EP off resonance: gamma_q_EP "
                                  "is the closest approach (least |disc|)")
    except DefectLaserError as err:
        errors.append(str(err))

    for q, kind in spec.kinds:
        v = values.get(q)
        if kind is float:
            row.append(math.nan if v is None else float(v))
        elif kind is complex:
            z = complex(math.nan, math.nan) if v is None else complex(v)
            row += [z.real, z.imag]
        else:
            row.append("" if v is None else v)
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
        # %.17g writes the bytes of f"{v:.17g}"; text cells go in as is
        fmt = ",".join("%s" if c in _TEXT or c == "error" else "%.17g"
                       for c in self.columns)
        return "\n".join([",".join(self.columns),
                          *[fmt % row for row in self.rows]]) + "\n"


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid serially, in row-major order, after rejecting
    invalid axis endpoints."""
    for ax in spec.axes:
        for v in (ax.start, ax.stop):
            try:
                with_value(spec.base, ax.path, v)
            except DefectLaserError as err:
                raise SweepError(
                    f"axis {ax.path} endpoint {v:g} is invalid: {err}") from err
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
        "rows": math.prod(spec.grid_shape()),
    }


def _check_stem(name: str) -> str:
    """``name``, the stem of every file emit_outputs writes, or SweepError."""
    if name in ("", ".", "..") or {os.sep, os.altsep} & set(name):
        raise SweepError(f"sweep name {name!r} is not a file stem")
    return name


def check_formats(formats) -> tuple[str, ...]:
    """``formats`` (one name or a sequence) as a tuple; SweepError names
    the first not in {csv, plot}.  The CLI checks before a row runs."""
    formats = (formats,) if isinstance(formats, str) else formats
    for fmt in formats:
        if fmt not in ("csv", "plot"):
            raise SweepError(f"unknown output format {fmt!r}")
    return tuple(formats)


def emit_outputs(table: SweepTable, out_dir, formats=("csv", "plot")
                 ) -> dict[str, str]:
    """Write CSV (bit-stable), provenance sidecar, optional plot script.

    The CSV and the sidecar are always written; ``formats`` (one name or
    a sequence) decides only whether the plot script is.  Returns a
    manifest {kind: path}.  The run timestamp lives only in the
    provenance sidecar so identical inputs give identical CSV bytes.
    """
    formats = check_formats(formats)
    name = _check_stem(str(table.provenance.get("name", "sweep")))
    sidecar = {**table.provenance, "written_at_unix": int(time.time())}
    # every text is rendered before a file is opened, so one that fails
    # to render writes nothing
    texts = {"csv": (f"{name}.csv", table.to_csv_text()),
             "provenance": (f"{name}.provenance.json", json.dumps(
                 sidecar, indent=2, sort_keys=True) + "\n")}
    if "plot" in formats:
        texts["plot"] = f"{name}.plot.py", _plot_script(table, name)
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict[str, str] = {}
    for kind, (filename, text) in texts.items():
        path = manifest[kind] = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return manifest


#: every sweep's NAME.plot.py; only the header of literals differs, and
#: the script reads it to draw one or two axes and a linear or log x axis
_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot a defectlaser sweep's CSV (auto-generated)."""
import csv
from pathlib import Path
import matplotlib.pyplot as plt

X, OUTER, LOG_X = %r, %r, %r
QUANTITIES, CSV, PNG = %r, %r, %r

here = Path(__file__).resolve().parent
with open(here / CSV) as fh:
    rows = list(csv.DictReader(fh))
col = {k: [float(r[k]) for r in rows] for k in (X, OUTER, *QUANTITIES) if k}
fig, axs = plt.subplots(len(QUANTITIES), 1, sharex=True,
                        figsize=(7, 2.4 * len(QUANTITIES)), squeeze=False)
for ax, q in zip(axs[:, 0], QUANTITIES):
    if OUTER:
        for gval in sorted(set(col[OUTER])):
            xs = [xv for xv, ov in zip(col[X], col[OUTER]) if ov == gval]
            ys = [yv for yv, ov in zip(col[q], col[OUTER]) if ov == gval]
            ax.plot(xs, ys, label=f'{OUTER}={gval:.6g}')
        ax.legend(fontsize=7)
    else:
        ax.plot(col[X], col[q])
    ax.set_ylabel(q)
    if LOG_X:
        ax.set_xscale('log')
axs[-1, 0].set_xlabel(X)
fig.tight_layout()
fig.savefig(here / PNG, dpi=160)
print('wrote', here / PNG)
'''


def _plot_script(table: SweepTable, name: str) -> str:
    if not table.provenance.get("axes"):  # a table built by hand
        raise SweepError("a plot script needs provenance['axes'], which is "
                         "missing or empty")
    *outer, x = table.provenance["axes"]
    numeric = [c for c in table.columns[len(outer) + 1:-1] if c not in _TEXT]
    return _PLOT_SCRIPT % (x["path"], outer[0]["path"] if outer else None,
                           x["scale"] == "log", numeric, f"{name}.csv",
                           f"{name}.png")
