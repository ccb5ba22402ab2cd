"""Self-tests of the benchmark: its checks must catch what they claim to.

    python3 -m pytest perfbench -q
"""

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from defectlaser import config, params, steadystate, sweep

SEED = 5


def build(name, n_specs=None, members=None):
    base = config.params_from_config(workloads.config_text(name, SEED))
    wl = workloads.build(name, SEED, base)
    if n_specs is not None:
        wl.specs = wl.specs[:n_specs]
        wl.operations = sum(s.axes[0].num for s in wl.specs)
    if members is not None:
        wl.members = wl.members[:members]
        wl.operations = 2 * members
    return wl


def replace_cell(table, row, column, value):
    i = table.columns.index(column)
    rows = list(table.rows)
    rows[row] = rows[row][:i] + (value,) + rows[row][i + 1:]
    return dataclasses.replace(table, rows=tuple(rows))


def test_clean_pass_passes_and_is_identical_on_repeat(tmp_path):
    wl = build("sweep-linear", n_specs=1)
    first = wl.check(wl.run(tmp_path), tmp_path)
    second = wl.check(wl.run(tmp_path), tmp_path)
    assert (first.failed, second.failed) == (0, 0)
    assert first.ops == second.ops == 161


def test_corrupted_cell_fails(tmp_path):
    wl = build("sweep-linear", n_specs=1)
    tables = wl.run(tmp_path)
    bad = [replace_cell(tables[0], 7, "G", tables[0].rows[7][1] * 1.001)]
    out = wl.check(bad, tmp_path)
    assert out.failed == 1
    assert "G0 + Gd" in out.notes[0]


def test_changed_csv_bytes_fail_every_row(tmp_path):
    wl = build("sweep-linear", n_specs=1)
    wl.check(wl.run(tmp_path), tmp_path)
    tables = wl.run(tmp_path)
    csv_path = tmp_path / f"{wl.specs[0].name}.csv"
    csv_path.write_bytes(csv_path.read_bytes() + b"\n")
    out = wl.check(tables, tmp_path)
    assert out.failed == 161
    assert any("CSV bytes differ" in n for n in out.notes)


def test_golden_mismatch_is_reported(tmp_path):
    name = "fig2a-line"
    golden = workloads.GOLDEN / f"{name}.csv.gz"
    text = gzip.decompress(golden.read_bytes()).decode()
    assert workloads.compare_golden_csv(name, text.encode()) == ""
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-5))
    lines[5] = ",".join(cells)
    assert "rtol" in workloads.compare_golden_csv(
        name, ("\n".join(lines) + "\n").encode())


def test_unconverged_fixed_point_fails(tmp_path, monkeypatch):
    wl = build("sweep-selfconsistent")
    spec = wl.specs[2]  # fig6a-power, 100 rows
    wl.specs = (dataclasses.replace(
        spec, axes=(dataclasses.replace(spec.axes[0], num=5),)),)
    wl.operations = 5
    solve = steadystate.solve_nb_fixed_point

    def unconverged(p, *args, **kwargs):
        rep = solve(p, *args, **kwargs)
        return dataclasses.replace(rep, converged=False,
                                   n_b_star=rep.n_b_star * 1.5 + 1.0)

    monkeypatch.setattr(sweep, "solve_nb_fixed_point", unconverged)
    out = wl.check(wl.run(tmp_path), tmp_path)
    assert out.failed == 5
    assert out.skipped["fp_unconverged"] == 5


def test_wrong_fixed_point_value_fails_residual_check(tmp_path):
    wl = build("sweep-selfconsistent")
    spec = wl.specs[0]
    wl.specs = (dataclasses.replace(
        spec, axes=(dataclasses.replace(spec.axes[0], num=4),)),)
    tables = wl.run(tmp_path)
    n_b = tables[0].rows[2][tables[0].columns.index("n_b_star")]
    bad = [replace_cell(tables[0], 2, "n_b_star", n_b * (1 + 1e-6) + 1e-6)]
    out = wl.check(bad, tmp_path)
    assert out.failed == 1
    assert "residual" in out.notes[0]


def test_changed_trajectory_fails(tmp_path):
    wl = build("dynamics-ensemble", members=1)
    assert wl.check(wl.run(tmp_path), tmp_path).failed == 0
    p = wl.members[0]
    wl.members[0] = params.with_value(
        p, "optical.pump_power", p.optical.pump_power * (1 + 1e-9))
    out = wl.check(wl.run(tmp_path), tmp_path)
    assert out.failed == 2
    assert "differs from the first pass" in out.notes[0]


def test_long_run_drift_bound_and_repeat(tmp_path):
    wl = build("dynamics-long")
    wl.settings = dataclasses.replace(wl.settings,
                                      t_final=wl.settings.t_final / 20)
    first = wl.run(tmp_path)
    assert wl.check(first, tmp_path).failed == 0
    assert 0.0 < first[0].value < workloads.DRIFT_BOUND
    drifted = [dataclasses.replace(first[0], value=2 * workloads.DRIFT_BOUND)]
    assert "exceeds" in wl.check(drifted, tmp_path).notes[0]


@pytest.mark.parametrize("name", ["sweep-linear", "dynamics-ensemble"])
def test_traced_and_untraced_counts_agree(tmp_path, name):
    wl = build(name, n_specs=1 if name == "sweep-linear" else None,
               members=1 if name == "dynamics-ensemble" else None)
    plain = wl.check(wl.run(tmp_path), tmp_path)
    with tracing.Tracer() as tracer:
        result = wl.run(tmp_path)
    traced = wl.check(result, tmp_path)
    assert (plain.ops, plain.attempted, plain.failed) == \
        (traced.ops, traced.attempted, traced.failed)
    assert tracer.counters["work"] == traced.ops
    m = tracing.layer_metrics(tracer)
    if name == "sweep-linear":
        assert m["steadystate.gain.calls"] == traced.attempted
    else:
        assert m["dynamics.integrate_full.steps"] \
            + m["dynamics.integrate_reduced.steps"] == traced.ops
    # the wrappers are gone again
    assert steadystate.gain is tracing.sys.modules["defectlaser"].gain


def test_self_time_excludes_children(tmp_path):
    wl = build("sweep-linear", n_specs=1)
    with tracing.Tracer() as tracer:
        wl.run(tmp_path)
    s = tracer.spans()
    gain = s["name"] == tracing.TRACED.index("steadystate.gain")
    assert (s["self"][gain] < s["dur"][gain]).all()
    assert (s["self"] >= -1e-9).all()
    assert s["dur"].sum() > 0


def test_tail_percentile():
    times = list(range(1, 41))
    pct, value = run.tail(times)
    assert pct == 75.0 and value == 30
    assert sum(t > value for t in times) == 10


def test_exits_nonzero_without_package_source(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sweep-linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
