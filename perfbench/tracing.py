"""Spans around the package's public functions, installed from outside.

A ``Tracer`` replaces each traced function in every ``defectlaser`` module
namespace that binds it, so calls between modules (``sweep`` calling
``gain``) and inside one (``gain`` calling ``steady_optics``) are both
recorded.  No source file changes; ``uninstall`` puts the originals back.

Each span is (id, name, start, end, parent id).  Spans are kept in memory
and written out by ``write``; a layer's self time is its span's duration
minus the durations of its child spans (calls nest on one thread, so
children never overlap).
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

import workloads
from defectlaser import errors

TRACED = (
    "params.with_value",
    "params.derive_quantities",
    "steadystate.gain",
    "steadystate.steady_optics",
    "steadystate.solve_nb_fixed_point",
    "spectrum.eigenvalues",
    "sweep.run_sweep",
    "sweep.emit_outputs",
    "dynamics.integrate_full",
    "dynamics.integrate_reduced",
    "dynamics.growth_rate",
)


def _fixed_point(counters, args, report):
    counters["fp.iterations"] += report.iterations
    counters["fp.bisection"] += report.method == "bisection"
    counters["fp.unconverged"] += not report.converged


def _emitted(counters, args, manifest):
    counters["emit.bytes"] += sum(os.path.getsize(p) for p in manifest.values())


def _rows(counters, args, table):
    counters["work"] += len(table.rows)


def _integrated(model):
    def count(counters, settings, diverged_at):
        steps = workloads.steps_taken(settings, diverged_at)
        counters[f"{model}.steps"] += steps
        counters["work"] += steps
        counters["diverged"] += diverged_at is not None
        counters["integrations"] += 1

    def on_return(counters, args, traj):
        count(counters, args[2], None)

    def on_raise(counters, args, err):
        if isinstance(err, errors.DivergenceError):
            count(counters, args[2], err.time)
    return on_return, on_raise


# name -> (on_return, on_raise); hooks run after the span has ended
HOOKS = {
    "steadystate.solve_nb_fixed_point": (_fixed_point, None),
    "sweep.emit_outputs": (_emitted, None),
    "sweep.run_sweep": (_rows, None),
    "dynamics.integrate_full": _integrated("integrate_full"),
    "dynamics.integrate_reduced": _integrated("integrate_reduced"),
}


class Tracer:
    """Records spans and counters while installed (``with Tracer() as t``)."""

    def __init__(self):
        self.ids = array("q")
        self.names = array("h")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "defectlaser" or name.startswith("defectlaser.")]
        next_id = iter(range(sys.maxsize)).__next__
        stack = [-1]
        for name_id, name in enumerate(TRACED):
            module, func = name.split(".")
            original = getattr(sys.modules[f"defectlaser.{module}"], func)
            wrapper = self._wrap(name_id, original, next_id, stack,
                                 *HOOKS.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name_id, fn, next_id, stack, on_return, on_raise):
        ids, names, parents = self.ids, self.names, self.parents
        starts, ends, counters = self.starts, self.ends, self.counters
        clock = time.perf_counter_ns

        def record(sid, parent, t0):
            ends.append(clock())
            stack.pop()
            ids.append(sid)
            names.append(name_id)
            parents.append(parent)
            starts.append(t0)

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                record(sid, parent, t0)
                if on_raise is not None:
                    on_raise(counters, args, err)
                raise
            record(sid, parent, t0)
            if on_return is not None:
                on_return(counters, args, out)
            return out

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """Spans ordered by id, with durations and self times in seconds."""
        # every span gets the next id when it starts and is recorded when
        # it ends, so ordering by id makes position == id
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64))
        parent = np.frombuffer(self.parents, dtype=np.int64)[order]
        start = np.frombuffer(self.starts, dtype=np.int64)[order]
        end = np.frombuffer(self.ends, dtype=np.int64)[order]
        dur = (end - start) * 1e-9
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(order))
        return {"name": np.frombuffer(self.names, dtype=np.int16)[order],
                "parent": parent, "start_ns": start, "end_ns": end,
                "dur": dur, "self": dur - children}

    def write(self, path) -> None:
        s = self.spans()
        np.savez_compressed(path, names=np.array(TRACED), name=s["name"],
                            start_ns=s["start_ns"], end_ns=s["end_ns"],
                            parent=s["parent"])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans."""
    s = tracer.spans()
    c = tracer.counters
    name = s["name"]

    def calls(n):
        return int(np.count_nonzero(name == TRACED.index(n)))

    def total(n, key="dur"):
        return float(s[key][name == TRACED.index(n)].sum())

    def per(num, den):
        return num / den if den else 0.0

    fp = TRACED.index("steadystate.solve_nb_fixed_point")
    gain_in_fp = np.count_nonzero(
        (name == TRACED.index("steadystate.gain"))
        & (s["parent"] >= 0) & (name[np.maximum(s["parent"], 0)] == fp))
    n_fp = calls("steadystate.solve_nb_fixed_point")
    m = {
        "params.with_value.calls": calls("params.with_value"),
        "params.with_value.self_s": total("params.with_value", "self"),
        "params.derive_quantities.calls": calls("params.derive_quantities"),
        "sweep.run_sweep.self_s": total("sweep.run_sweep", "self"),
        "sweep.emit_outputs.s": total("sweep.emit_outputs"),
        "sweep.emit_outputs.bytes": c["emit.bytes"],
        "steadystate.gain.calls": calls("steadystate.gain"),
        "steadystate.gain.self_s": total("steadystate.gain", "self"),
        "steadystate.gain.us_per_call": 1e6 * per(
            total("steadystate.gain"), calls("steadystate.gain")),
        "steadystate.steady_optics.calls": calls("steadystate.steady_optics"),
        "steadystate.solve_nb_fixed_point.calls": n_fp,
        "steadystate.solve_nb_fixed_point.self_s": total(
            "steadystate.solve_nb_fixed_point", "self"),
        "steadystate.solve_nb_fixed_point.gain_calls_per_solve": per(
            gain_in_fp, n_fp),
        "steadystate.solve_nb_fixed_point.iterations_mean": per(
            c["fp.iterations"], n_fp),
        "steadystate.solve_nb_fixed_point.bisection_frac": per(
            c["fp.bisection"], n_fp),
        "steadystate.solve_nb_fixed_point.unconverged": c["fp.unconverged"],
        "spectrum.eigenvalues.calls": calls("spectrum.eigenvalues"),
        "spectrum.eigenvalues.self_s": total("spectrum.eigenvalues", "self"),
        "dynamics.diverged_frac": per(c["diverged"], c["integrations"]),
        "dynamics.growth_rate.s": total("dynamics.growth_rate"),
    }
    for model in ("integrate_full", "integrate_reduced"):
        secs = total(f"dynamics.{model}")
        steps = c[f"{model}.steps"]
        m[f"dynamics.{model}.s"] = secs
        m[f"dynamics.{model}.steps"] = steps
        m[f"dynamics.{model}.us_per_step"] = 1e6 * per(secs, steps)
    return m
