import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from defectlaser import (DivergenceError, GainResult, SpectrumResult,
                         SweepAxis, SweepSpec, SweepError, SweepTable,
                         UnknownPresetError, compute_gd, dynamics,
                         emit_outputs, gain, params, preset, run_sweep, sweep,
                         with_value)
from defectlaser.cli import EXIT_CONFIG, SWEEP_QUANTITIES, main as cli_main
from defectlaser.config import (load_config, params_from_config,
                                params_to_config)
from defectlaser.presets import FIGURE_PRESETS, base_params

from conftest import GAMMA, OMEGA_M, fake_solve_ivp, make_params

#: a matplotlib.pyplot with just what the generated plot scripts call
PYPLOT_STUB = """
import numpy as np


class _Stub:
    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: None


class _Figure(_Stub):
    def savefig(self, path, dpi=None):
        with open(path, "wb") as fh:
            fh.write(b"stub")


def subplots(nrows, ncols, **kwargs):
    axs = np.empty((nrows, ncols), dtype=object)
    for i in range(nrows):
        for j in range(ncols):
            axs[i, j] = _Stub()
    return _Figure(), axs
"""

#: a matplotlib.pyplot that records every call the plot scripts make and
#: writes the record, as JSON, where the PNG would go
RECORDING_PYPLOT_STUB = """
import json

import numpy as np

CALLS = []


class _Recorder:
    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        return lambda *args, **kwargs: CALLS.append(
            [self._name, attr, list(args), kwargs])


class _Figure(_Recorder):
    def savefig(self, path, **kwargs):
        CALLS.append([self._name, "savefig", [str(path)], kwargs])
        with open(path, "w") as fh:
            json.dump(CALLS, fh)


def subplots(*args, **kwargs):
    CALLS.append(["plt", "subplots", list(args), kwargs])
    nrows, ncols = args
    axs = np.empty((nrows, ncols), dtype=object)
    for i in range(nrows):
        for j in range(ncols):
            axs[i, j] = _Recorder(f"ax{i}")
    return _Figure("fig"), axs
"""

#: sha256 prefixes of the eight preset CSVs and of their provenance
#: (as sorted-key JSON); any moved cell or sidecar field shows here
PRESET_CSV_SHA256 = {
    "fig2a": ("f90e98434047", "a5a4f587cdbd"),
    "fig2b": ("ef7ac52a7e12", "5513b6f8f225"),
    "fig3a": ("a7103696cf6a", "3001583f9d56"),
    "fig3b": ("72d5c747f5f9", "7e1a1b4474a2"),
    "fig4": ("3494f08fdc69", "5fe5f197d960"),
    "fig5": ("edcb29bfdaf3", "10b8c9977a8b"),
    "fig6a": ("bbe8f306ce9d", "8b63cc0bee14"),
    "fig6b": ("e58136a597ba", "c601d26d1660"),
}

#: sha256 prefixes of ``defectlaser integrate --model M --t-final 1e-6``'s
#: trajectory CSV (148 rows, no divergence) for each model
TRAJECTORY_CSV_SHA256 = {"full": "d741bc945d88", "reduced": "336ead48f8c6"}


#: the base point's parameter file, and its [optical] and [tls] sections
BASE_CONFIG = params_to_config(base_params())
OPTICAL, _, TLS = BASE_CONFIG.split("\n\n")
#: README's [material] example
MATERIAL = """[material]
deformation_potential = 1 eV
tunnel_splitting      = 23.4 2pi.MHz
asymmetry             = 0 MHz
youngs_modulus        = 72 GPa
mode_volume           = 0.1 um^3
tls_loss              = 6.43 MHz
"""
#: stands for a file holding BASE_CONFIG with MATERIAL in place of [tls]
MATERIAL_CONFIG = "<material config file>"


def small_spec(**kw):
    defaults = dict(
        base=make_params(),
        axes=(SweepAxis("tls.tls_loss", 0.5e6, 2e7, 12, "log"),),
        quantities=("G", "G0", "Gd"),
        mode="fixed-nb", n_b_fixed=2.0)
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_rejects_empty_quantities(self):
        with pytest.raises(SweepError, match="empty"):
            small_spec(quantities=())

    def test_rejects_unknown_quantity(self):
        with pytest.raises(SweepError, match="unknown"):
            small_spec(quantities=("G", "brightness"))

    def test_quantities_are_result_fields(self):
        # a row's cells come from vars() of its results: a quantity that
        # names no field would write an all-NaN column and report nothing
        assert set(sweep.GAIN_QUANTITIES) == {
            f.name for f in dataclasses.fields(GainResult)}
        assert set(sweep.SPECTRUM_QUANTITIES) <= {
            f.name for f in dataclasses.fields(SpectrumResult)}
        with pytest.raises(SweepError, match="unknown quantities"):
            small_spec(quantities=("C",))  # no longer a gain result

    def test_rejects_three_axes(self):
        ax = SweepAxis("tls.tls_loss", 1e6, 2e6, 3)
        with pytest.raises(SweepError, match="1 or 2"):
            small_spec(axes=(ax, ax, ax))

    @pytest.mark.parametrize("num", [2.5, 3.0, "3"])
    def test_rejects_a_non_integer_point_count(self, num):
        # each raised a raw TypeError, from numpy or from the `< 1` test
        with pytest.raises(SweepError,
                           match="axis point count must be an integer"):
            SweepAxis("tls.tls_loss", 1e6, 2e6, num)

    def test_accepts_a_numpy_integer_point_count(self):
        ax = SweepAxis("tls.tls_loss", 1e6, 2e6, np.int64(3))
        assert small_spec(axes=(ax,)).grid_shape() == (3,)

    def test_rejects_log_axis_through_zero(self):
        with pytest.raises(SweepError, match="log"):
            SweepAxis("optical.pump_detuning", -1e6, 1e6, 5, "log")

    @pytest.mark.parametrize("start, stop", [(1e6, math.inf), (math.nan, 1e6),
                                             (-math.inf, 1e6)])
    def test_rejects_non_finite_endpoint(self, start, stop):
        with pytest.raises(SweepError, match="finite"):
            SweepAxis("tls.tls_loss", start, stop, 3)

    def test_rejects_fixed_mode_without_value(self):
        with pytest.raises(SweepError, match="n_b_fixed"):
            small_spec(mode="fixed-nb", n_b_fixed=None)

    def test_rejects_fixed_point_quantities_in_fixed_mode(self):
        with pytest.raises(SweepError, match="self-consistent"):
            small_spec(quantities=("G", "n_b_star"))

    def test_rejects_two_axes_on_one_path(self):
        # the inner axis overwrote the outer: rows of one inner value matched
        ax = SweepAxis("tls.tls_loss", 1e5, 1e6, 2)
        with pytest.raises(SweepError, match="both axes sweep tls.tls_loss"):
            small_spec(axes=(ax, dataclasses.replace(ax, start=1e7, stop=2e7)))

    @pytest.mark.parametrize("paths", [
        ("tls.coupling", "material.mode_volume"),
        ("material.mode_volume", "tls.coupling")])
    def test_rejects_a_tls_axis_beside_a_material_axis(self, paths):
        # a tls value drops the material: outer, every material row fails;
        # inner, it overrides the defect the material axis derives
        axes = tuple(SweepAxis(path, 1e-19, 2e-19, 2) for path in paths)
        with pytest.raises(SweepError, match="material.tls_loss"):
            small_spec(axes=axes)

    @pytest.mark.parametrize("swap", [False, True],
                             ids=["mech-freq-outer", "mech-freq-inner"])
    def test_mech_freq_axis_rederives_g_d_beside_a_material_axis(self, swap):
        # g_d ∝ sqrt(omega_m): each row's defect is derived at its own mode
        base = params_from_config(BASE_CONFIG.replace(TLS, MATERIAL))
        axes = (SweepAxis("mechanical.mech_freq", 1.4e8, 1.5e8, 2),
                SweepAxis("material.mode_volume", 1e-19, 2e-19, 2))
        spec = small_spec(base=base, axes=axes[::-1] if swap else axes)
        table = run_sweep(spec)
        assert table.column("error") == [""] * 4
        couplings = set()
        for i, (w, v) in enumerate(zip(table.column("mechanical.mech_freq"),
                                       table.column("material.mode_volume"))):
            mech = dataclasses.replace(base.mechanical, mech_freq=w)
            material = dataclasses.replace(base.material, mode_volume=v)
            p = spec.point_params(i)[1]
            assert p.tls == compute_gd(material, mech)
            g = gain(p, 2.0)
            assert table.rows[i][2:5] == (g.G, g.G0, g.Gd)
            couplings.add(p.tls.coupling)
        assert len(couplings) == 4

    def test_rejects_n_b_fixed_in_self_consistent_mode(self):
        with pytest.raises(SweepError, match="n_b_fixed is only for fixed-nb"):
            small_spec(mode="self-consistent", n_b_fixed=5.0)

    def test_rejects_a_repeated_quantity(self):
        with pytest.raises(SweepError, match="repeat"):
            small_spec(quantities=("G", "G"))

    def test_rejects_unknown_mode(self):
        with pytest.raises(SweepError, match="mode must be"):
            small_spec(mode="adiabatic")

    def test_invalid_endpoint_fails_before_compute(self):
        spec = small_spec(axes=(SweepAxis("optical.cavity_loss",
                                          -1e6, 1e6, 5),))
        with pytest.raises(SweepError, match="endpoint"):
            run_sweep(spec)


class TestRunSweep:
    def test_single_point_equals_direct_call(self):
        spec = small_spec(axes=(SweepAxis("tls.tls_loss", 3e6, 3e6, 1),))
        table = run_sweep(spec)
        assert len(table.rows) == 1
        direct = gain(with_value(make_params(), "tls.tls_loss", 3e6), 2.0)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["G"] == direct.G
        assert row["G0"] == direct.G0
        assert row["Gd"] == direct.Gd
        assert row["error"] == ""

    def test_single_point_self_consistent_equals_direct(self):
        from defectlaser import solve_nb_fixed_point
        spec = small_spec(axes=(SweepAxis("tls.tls_loss", 3e6, 3e6, 1),),
                          quantities=("G", "n_b_star", "fp_converged"),
                          mode="self-consistent", n_b_fixed=None)
        table = run_sweep(spec)
        row = dict(zip(table.columns, table.rows[0]))
        p = with_value(make_params(), "tls.tls_loss", 3e6)
        report = solve_nb_fixed_point(p)
        assert row["n_b_star"] == report.n_b_star
        assert row["G"] == gain(p, report.n_b_star).G
        assert row["fp_converged"] == 1.0

    def test_row_major_order_and_count(self):
        spec = small_spec(axes=(
            SweepAxis("optical.pump_detuning", -OMEGA_M, OMEGA_M, 3),
            SweepAxis("tls.tls_loss", 1e6, 4e6, 4)))
        table = run_sweep(spec)
        assert len(table.rows) == 12
        outer = table.column("optical.pump_detuning")
        inner = table.column("tls.tls_loss")
        assert outer == sorted(outer)
        assert inner[:4] == inner[4:8] == inner[8:]

    def test_interior_minimum_on_loss_axis(self):
        spec = small_spec(axes=(SweepAxis("tls.tls_loss", 0.1e6, 40e6,
                                          400, "log"),))
        table = run_sweep(spec)
        g = np.array(table.column("G"))
        i = int(np.argmin(g))
        assert 0 < i < len(g) - 1
        # unique interior minimum: one descending-to-ascending transition
        # (grid ties at the flat bottom produce zero diffs; drop them)
        signs = np.sign(np.diff(g))
        signs = signs[signs != 0]
        assert np.count_nonzero(np.diff(signs)) == 1
        analytic = math.sqrt(2.0 * 2.0) * 1e6
        gqs = table.column("tls.tls_loss")
        assert abs(gqs[i] - analytic) <= gqs[i + 1] - gqs[i - 1]

    def test_all_presets_complete_quickly(self, tmp_path):
        t0 = __import__("time").perf_counter()
        for name in FIGURE_PRESETS:
            table = run_sweep(preset(name))
            emit_outputs(table, tmp_path, formats=("csv", "plot"))
        assert __import__("time").perf_counter() - t0 < 60.0

    def test_failures_annotated_not_fatal(self):
        # gamma_q = 0 with a resonant defect at n_b = 0 is singular
        spec = small_spec(
            axes=(SweepAxis("tls.tls_loss", 0.0, 2e6, 3),),
            mode="fixed-nb", n_b_fixed=0.0)
        table = run_sweep(spec)
        errs = table.column("error")
        assert errs[0] != "" and errs[1] == "" and errs[2] == ""
        g = table.column("G")
        assert math.isnan(g[0]) and not math.isnan(g[1])

    def test_unconverged_fixed_point_keeps_its_row(self, monkeypatch):
        spec = small_spec(mode="self-consistent", n_b_fixed=None,
                          quantities=("G", "n_b_star", "fp_converged"))
        converged = run_sweep(spec)
        solve = sweep.solve_nb_fixed_point
        monkeypatch.setattr(
            sweep, "solve_nb_fixed_point", lambda params: dataclasses.replace(
                solve(params), converged=False, residual=0.25))
        table = run_sweep(spec)
        for name in ("tls.tls_loss", "G", "n_b_star"):
            assert table.column(name) == converged.column(name)
        assert set(table.column("fp_converged")) == {0.0}
        # the benchmark counts these rows by the start of the error cell
        assert all(e.startswith("fixed point not converged (residual 0.25)")
                   for e in table.column("error"))

    def test_self_consistent_sweep_from_lossless_defect(self):
        """gamma_q = 0 on resonance makes the fixed point singular: that
        row carries the error with NaN cells, and the sweep goes on."""
        spec = small_spec(axes=(SweepAxis("tls.tls_loss", 0.0, 1e6, 3),),
                          quantities=("G", "n_b_star", "fp_converged"),
                          mode="self-consistent", n_b_fixed=None)
        table = run_sweep(spec)
        errs = table.column("error")
        assert "undamped resonant defect" in errs[0]
        assert errs[1] == errs[2] == ""
        for q in ("G", "n_b_star", "fp_converged"):
            col = table.column(q)
            assert math.isnan(col[0])
            assert all(math.isfinite(v) for v in col[1:])

    @pytest.mark.parametrize("mode, n_b", [("fixed-nb", 2.0),
                                           ("self-consistent", None)])
    def test_outer_axis_reuse_keeps_every_row(self, mode, n_b):
        """Outer cavity_freq and inner pump_detuning, where some pairs give
        a negative pump frequency: exactly those rows fail construction,
        with point_params's error, and the others are the direct values."""
        from defectlaser import InvalidParameterError, solve_nb_fixed_point
        spec = small_spec(
            axes=(SweepAxis("optical.cavity_freq", 1e8, 1e9, 3),
                  SweepAxis("optical.pump_detuning", -5e8, 1e8, 7)),
            quantities=("G", "G0", "Gd", "N_b")
            + (("n_b_star",) if n_b is None else ()),
            mode=mode, n_b_fixed=n_b)
        table = run_sweep(spec)
        assert len(table.rows) == 21
        failed = 0
        for i, row in enumerate(table.rows):
            cells = dict(zip(table.columns, row))
            try:
                vals, p = spec.point_params(i)
            except InvalidParameterError as err:
                failed += 1
                assert cells["error"] == f"point construction failed: {err}"
                coords = np.unravel_index(i, spec.grid_shape())
                assert list(row[:2]) == [float(g[c]) for g, c
                                         in zip(spec.grids, coords)]
                assert all(math.isnan(v) for v in row[2:-1])
                continue
            assert "point construction failed" not in cells["error"]
            assert [cells[ax.path] for ax in spec.axes] == vals
            n = n_b if n_b is not None else solve_nb_fixed_point(p).n_b_star
            direct = gain(p, n)
            for q in ("G", "G0", "Gd", "N_b"):
                assert cells[q] == getattr(direct, q), (i, q)
            if n_b is None:
                assert cells["n_b_star"] == n
        assert 0 < failed < 21

    @pytest.mark.parametrize("axes", [
        (SweepAxis("material.mode_volume", 1e-19, 4e-19, 3),
         SweepAxis("optical.pump_detuning", -OMEGA_M, OMEGA_M, 4)),
        (SweepAxis("tls.tls_loss", 1e5, 1e7, 5, "log"),)],
        ids=["material-x-optical", "tls"])
    def test_grid_points_are_the_point_params(self, axes):
        base = (params_from_config(BASE_CONFIG.replace(TLS, MATERIAL))
                if axes[0].path.startswith("material.") else make_params())
        spec = small_spec(base=base, axes=axes)
        points = list(sweep._grid_points(spec))
        assert len(points) == int(np.prod(spec.grid_shape()))
        for i, (vals, p) in enumerate(points):
            assert (vals, p) == spec.point_params(i), i

    @pytest.mark.parametrize("shape", [(2, 10**6), (10**3, 10**3)])
    def test_grid_points_are_built_lazily(self, shape, monkeypatch):
        spec = small_spec(axes=(
            SweepAxis("optical.pump_detuning", -OMEGA_M, OMEGA_M, shape[0]),
            SweepAxis("tls.tls_loss", 1e6, 4e6, shape[1])))
        built = []
        system_params = params.SystemParams

        def counted(*args, **kwargs):
            built.append(args)
            return system_params(*args, **kwargs)

        monkeypatch.setattr(params, "SystemParams", counted)
        vals, p = next(sweep._grid_points(spec))
        assert vals == [-OMEGA_M, 1e6] and isinstance(p, system_params)
        assert len(built) == 2  # the outer value's point, then the row's

    def test_preset_csv_bytes_are_pinned(self):
        for name, prefixes in PRESET_CSV_SHA256.items():
            table = run_sweep(preset(name))
            texts = (table.to_csv_text(),
                     json.dumps(table.provenance, sort_keys=True))
            assert tuple(hashlib.sha256(t.encode()).hexdigest()[:12]
                         for t in texts) == prefixes, name

    def test_no_nan_without_annotation(self):
        for name in ("fig4", "fig5"):
            table = run_sweep(preset(name))
            i_err = table.columns.index("error")
            for row in table.rows:
                has_nan = any(isinstance(v, float) and math.isnan(v)
                              for v in row)
                if has_nan:
                    assert row[i_err] != ""

    def test_branch_tracking_keeps_curves_continuous(self):
        # along gamma_q the closed-form labels never jump; along omega_q
        # they swap where omega_q - omega_m changes sign above the EP
        # (20 of the 41 rows), and Im E+ would jump by its whole span
        cases = [
            (make_params(pump_power=7e-6),
             SweepAxis("tls.tls_loss", 0.05 * GAMMA, 6 * GAMMA, 300, "log")),
            (make_params(pump_power=7e-6, gamma_q=6 * GAMMA),
             SweepAxis("tls.tls_freq", 0.95 * OMEGA_M, 1.05 * OMEGA_M, 41)),
        ]
        for base, axis in cases:
            table = run_sweep(SweepSpec(
                base=base, axes=(axis,),
                quantities=("E_plus", "E_minus", "gap"),
                mode="fixed-nb", n_b_fixed=1.0))
            re_p = np.array(table.column("E_plus_re"))
            im_p = np.array(table.column("E_plus_im"))
            # continuity: adjacent steps move much less than the span
            span = re_p.max() - re_p.min() + im_p.max() - im_p.min()
            jumps = np.abs(np.diff(re_p)) + np.abs(np.diff(im_p))
            assert jumps.max() < 0.2 * span, axis.path


class TestEmit:
    def test_csv_text_is_the_per_cell_format(self):
        numbers = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   1.7976931348623157e308, 1 / 3, -2.5e-300, 35.0]
        texts = [("below-EP", ""), ("", "100% of rows; see %s"),
                 ("at-EP", "a; b %d %% c")]
        rows = tuple((v, -v, *texts[i % 3]) for i, v in enumerate(numbers))
        table = SweepTable(columns=("tls.tls_loss", "G", "phase", "error"),
                           rows=rows)
        want = [",".join(table.columns)]
        want += [",".join([v if isinstance(v, str) else f"{v:.17g}"
                           for v in row]) for row in rows]
        assert table.to_csv_text() == "\n".join(want) + "\n"

    def test_manifest_and_determinism(self, tmp_path):
        spec = small_spec()
        table = run_sweep(spec)
        out1 = emit_outputs(table, tmp_path / "a")
        out2 = emit_outputs(table, tmp_path / "b")
        assert set(out1) == {"csv", "provenance", "plot"}
        b1 = open(out1["csv"], "rb").read()
        b2 = open(out2["csv"], "rb").read()
        assert b1 == b2
        prov = json.load(open(out1["provenance"]))
        assert prov["tool"] == "defectlaser"
        assert type(prov["written_at_unix"]) is int
        assert "written_at_unix" not in b1.decode()
        # the timestamp's width does not move the sidecar's byte count
        assert os.path.getsize(out1["provenance"]) \
            == os.path.getsize(out2["provenance"])

    def test_plot_script_is_self_contained(self, tmp_path):
        table = run_sweep(small_spec())
        out = emit_outputs(table, tmp_path)
        src = open(out["plot"]).read()
        assert "matplotlib" in src
        assert os.path.basename(out["csv"]) in src
        compile(src, out["plot"], "exec")  # syntactically valid

    def test_plot_scripts_run_from_another_directory(self, tmp_path):
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        (stub / "pyplot.py").write_text(PYPLOT_STUB)
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        elsewhere.mkdir()
        for name in FIGURE_PRESETS:
            emit_outputs(run_sweep(preset(name)), out)
            proc = subprocess.run(
                [sys.executable, str(out / f"{name}.plot.py")],
                cwd=elsewhere, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(stub.parent)))
            assert proc.returncode == 0, proc.stderr
            assert (out / f"{name}.png").is_file()
        assert not any(elsewhere.iterdir())

    def plot_calls(self, tmp_path, name):
        """The recorded pyplot calls of preset ``name``'s plot script, by
        target, and its CSV's rows."""
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        (stub / "pyplot.py").write_text(RECORDING_PYPLOT_STUB)
        out = emit_outputs(run_sweep(preset(name)), tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, out["plot"]], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(stub.parent)))
        assert proc.returncode == 0, proc.stderr
        calls = {}
        for target, method, args, kwargs in json.loads(
                (tmp_path / "out" / f"{name}.png").read_text()):
            calls.setdefault(target, []).append((method, args, kwargs))
        with open(out["csv"]) as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh]
        return calls, header, rows

    @staticmethod
    def same_floats(got, want):
        return np.array_equal(np.asarray(got, dtype=float),
                              np.asarray(want, dtype=float), equal_nan=True)

    def test_one_axis_plot_draws_one_line_per_panel(self, tmp_path):
        calls, header, rows = self.plot_calls(tmp_path, "fig2a")
        quantities = ["G", "G0", "Gd", "delta_n"]
        assert calls["plt"] == [("subplots", [4, 1], {
            "sharex": True, "figsize": [7, 2.4 * 4], "squeeze": False})]
        x = [r[header.index("optical.pump_detuning")] for r in rows]
        for i, q in enumerate(quantities):
            panel = calls[f"ax{i}"]
            methods = [m for m, _, _ in panel]
            assert methods.count("plot") == 1
            assert "legend" not in methods and "set_xscale" not in methods
            (xs, ys), kwargs = next((a, k) for m, a, k in panel
                                    if m == "plot")
            assert kwargs == {}
            assert self.same_floats(xs, x)
            assert self.same_floats(ys, [r[header.index(q)] for r in rows])
            assert ("set_ylabel", [q], {}) in panel

    def test_two_axis_plot_draws_one_labeled_line_per_outer_value(
            self, tmp_path):
        calls, header, rows = self.plot_calls(tmp_path, "fig5")
        quantities = ["G", "n_b_star", "gamma_q_min", "gamma_q_EP"]
        outer, inner = "optical.pump_detuning", "tls.tls_loss"
        values = sorted({float(r[header.index(outer)]) for r in rows})
        assert len(values) == 4
        assert calls["plt"][0][1] == [4, 1]
        for i, q in enumerate(quantities):
            panel = calls[f"ax{i}"]
            lines = [(a, k) for m, a, k in panel if m == "plot"]
            assert len(lines) == 4
            for ((xs, ys), kwargs), v in zip(lines, values):
                assert kwargs == {"label": f"{outer}={v:.6g}"}
                mine = [r for r in rows if float(r[header.index(outer)]) == v]
                assert self.same_floats(xs, [r[header.index(inner)]
                                             for r in mine])
                assert self.same_floats(ys, [r[header.index(q)]
                                             for r in mine])
            assert ("legend", [], {"fontsize": 7}) in panel
            assert ("set_xscale", ["log"], {}) in panel

    def test_rerun_of_sweep_is_byte_stable(self, tmp_path):
        spec = small_spec(mode="self-consistent", n_b_fixed=None)
        out1 = emit_outputs(run_sweep(spec), tmp_path / "r1")
        out2 = emit_outputs(run_sweep(spec), tmp_path / "r2")
        assert open(out1["csv"], "rb").read() == open(out2["csv"], "rb").read()

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        table = run_sweep(small_spec())
        target = tmp_path / "nothing"
        with pytest.raises(SweepError):
            emit_outputs(table, target, formats=("pdf",))
        assert not target.exists()


class TestPresets:
    def test_all_presets_resolve(self):
        for name in FIGURE_PRESETS:
            spec = preset(name)
            assert spec.name == name
            assert spec.quantities

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("fig9")

    def test_unknown_preset_is_a_sweep_error(self):
        with pytest.raises(UnknownPresetError) as err:
            preset("fig9")
        assert isinstance(err.value, SweepError)

    def test_fig2b_caption_values_verbatim(self):
        spec = preset("fig2b")
        base = spec.base
        assert base.optical.pump_detuning == 0.5 * OMEGA_M
        assert base.optical.coupling == 0.5 * OMEGA_M
        assert base.optical.pump_power == 10e-6
        assert base.tls.coupling == 1e6
        assert spec.axes[0].path == "tls.tls_loss"
        assert spec.defaulted  # undocumented choices are flagged

    def test_fig4_caption_values(self):
        spec = preset("fig4")
        assert spec.base.optical.pump_power == 7e-6
        assert spec.base.optical.coupling == 0.5 * OMEGA_M
        assert spec.base.tls.tls_loss == GAMMA
        assert {"E_plus", "E_minus"} <= set(spec.quantities)

    def test_fig5_is_loss_sweep_family_over_detuning(self):
        spec = preset("fig5")
        assert spec.axes[0].path == "optical.pump_detuning"
        assert spec.axes[1].path == "tls.tls_loss"
        assert spec.base.optical.pump_power == 10e-6
        assert spec.base.tls.tls_freq == OMEGA_M

    def test_presets_document_defaults_in_provenance(self, tmp_path):
        table = run_sweep(preset("fig2a"))
        out = emit_outputs(table, tmp_path, formats=("csv",))
        prov = json.load(open(out["provenance"]))
        assert prov["defaulted"]
        assert prov["base_config"].startswith("[optical]")


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_fixed_point_exit_ok(self, capsys):
        assert self.run("fixed-point") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["method"] == "damped"

    def test_fixed_point_history_only_on_request(self, capsys):
        assert self.run("fixed-point") == 0
        plain = json.loads(capsys.readouterr().out)
        assert self.run("fixed-point", "--history") == 0
        full = json.loads(capsys.readouterr().out)
        assert set(plain) == {"n_b_star", "iterations", "residual",
                              "converged", "method"}
        assert full.pop("history")[0] == 0.0
        assert full == plain

    def test_gain_sweep_from_lossless_defect(self, tmp_path):
        code = self.run("gain-sweep", "--axis", "tls.tls_loss:0:1e6:3",
                        "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "gain-sweep.csv").read().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        assert "undamped resonant defect" in rows[0]["error"]
        assert rows[0]["G"] == "nan" and rows[0]["n_b_star"] == "nan"
        for row in rows[1:]:
            assert row["error"] == ""
            assert math.isfinite(float(row["G"]))
            assert math.isfinite(float(row["n_b_star"]))

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                      "--mode", "fixed-nb:nan"), "n_b_fixed",
                     id="fixed-nb-nan"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                      "--mode", "fixed-nb:-1"), "n_b_fixed",
                     id="fixed-nb-negative"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                      "--mode", "fixed-nb:inf"), "n_b_fixed",
                     id="fixed-nb-inf"),
        pytest.param(("ep-locate", "--nb", "-1"), "n_b must be >= 0",
                     id="ep-locate-nb-negative"),
        pytest.param(("ep-locate", "--nb", "nan"), "n_b must be >= 0",
                     id="ep-locate-nb-nan"),
        pytest.param(("ep-locate", "--nb", "inf"), "n_b must be >= 0",
                     id="ep-locate-nb-inf"),
        pytest.param(("ep-locate", "--bracket-lo", "2e6",
                      "--bracket-hi", "1e6"), "bracket",
                     id="ep-locate-bracket-inverted"),
        pytest.param(("fixed-point", "--nb0", "-1"), "n_b0 must be >= 0",
                     id="fixed-point-nb0-negative"),
        pytest.param(("fixed-point", "--nb0", "nan"), "n_b0 must be >= 0",
                     id="fixed-point-nb0-nan"),
        pytest.param(("fixed-point", "--max-iter", "0"), "max_iter",
                     id="fixed-point-max-iter-zero"),
        pytest.param(("fixed-point", "--max-iter", "-3"), "max_iter",
                     id="fixed-point-max-iter-negative"),
        pytest.param(("fixed-point", "--tol", "-1"), "tol",
                     id="fixed-point-tol-negative"),
        pytest.param(("fixed-point", "--tol", "0"), "tol",
                     id="fixed-point-tol-zero"),
        pytest.param(("fixed-point", "--tol", "nan"), "tol",
                     id="fixed-point-tol-nan"),
        pytest.param(("fixed-point", "--tol", "inf"), "tol",
                     id="fixed-point-tol-inf"),
        pytest.param(("gain-sweep", "--axis", "mechanical.x_zpf:1:2:3"),
                     "unknown field", id="property-x_zpf"),
        pytest.param(("validate-config", "--set",
                      "optical.cavity_loss=1e999"), "not a finite",
                     id="set-cavity-loss-overflow"),
        pytest.param(("validate-config", "--set", "optical.radius=1e999"),
                     "not a finite", id="set-radius-overflow"),
        pytest.param(("integrate", "--dt", "1e-300", "--t-final", "1"),
                     "cannot allocate", id="integrate-rows-unallocatable"),
        # 3 rows, but 2**64 + 4096 steps at stride 2**64 + 1 do not fit
        # the kernel's int64_t counts
        pytest.param(("integrate", "--dt", repr(2.0 ** -32), "--t-final",
                      repr((2 ** 64 + 4096) * 2.0 ** -32), "--stride",
                      str(2 ** 64 + 1)), "more than int64 counts",
                     id="integrate-steps-beyond-int64"),
        # t_final / dt overflows to inf: no step count, on either method
        pytest.param(("integrate", "--dt", "1e-320", "--method", "rk4"),
                     "inf steps at stride 10: cannot allocate",
                     id="integrate-steps-infinite-rk4"),
        pytest.param(("integrate", "--dt", "1e-320", "--method", "dop853"),
                     "inf steps at stride 10: cannot allocate",
                     id="integrate-steps-infinite-dop853"),
        pytest.param(("gain-sweep", "--axis",
                      "tls.coupling_ratio:0.01:0.02:3"),
                     "unknown field", id="property-coupling_ratio"),
        pytest.param(("gain-sweep", "--axis", "a:1:2"),
                     "axis must look like path:start:stop:num[:scale]",
                     id="axis-too-few-fields"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:x:1:3"),
                     "could not convert string to float: 'x'",
                     id="axis-start-not-a-number"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1:2:0"),
                     "axis point count must be >= 1", id="axis-zero-points"),
        # numpy refuses both counts before allocating anything
        pytest.param(("gain-sweep", "--axis",
                      f"tls.tls_loss:1e5:1e7:{2 ** 60}", "--format", "csv"),
                     f"axis tls.tls_loss: numpy cannot allocate {2 ** 60} "
                     "points", id="axis-too-big"),
        pytest.param(("gain-sweep", "--axis",
                      f"tls.tls_loss:1e5:1e7:{2 ** 63}:log"),
                     f"axis tls.tls_loss: numpy cannot allocate {2 ** 63} "
                     "points", id="axis-beyond-int64"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1:2:3:cubic"),
                     "axis scale must be 'linear' or 'log'",
                     id="axis-unknown-scale"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                      "--mode", "fixed-nb:abc"),
                     "bad --mode value 'fixed-nb:abc'",
                     id="fixed-nb-not-a-number"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                      "--mode", "bogus"),
                     "--mode must be 'self-consistent' or 'fixed-nb:<v>'",
                     id="mode-unknown"),
        pytest.param(("integrate", "--stride", "0"), "stride must be >= 1",
                     id="integrate-stride-zero"),
        pytest.param(("validate-config", "--set", "optical.radius=-1"),
                     "radius must be > 0", id="set-radius-negative"),
        pytest.param(("validate-config", "--set", "optical.pump_power="),
                     "empty value, expected a power quantity",
                     id="set-empty-value"),
        pytest.param(("gain-sweep", "--axis", "foo.bar:1:2:3"),
                     "unknown parameter group 'foo'", id="axis-unknown-group"),
        pytest.param(("gain-sweep", "--axis",
                      "material.mode_volume:1e-18:2e-18:3"),
                     "parameter group 'material' is not set",
                     id="axis-group-not-set"),
        pytest.param(("gain-sweep", "--axis", "tls.tls_loss:1e5:1e6:2",
                      "--axis", "tls.tls_loss:1e7:2e7:2",
                      "--mode", "fixed-nb:0"),
                     "both axes sweep tls.tls_loss", id="axis-path-twice"),
        # the --set coupling dropped the material the axis would edit
        pytest.param(("gain-sweep", "--config", MATERIAL_CONFIG,
                      "--set", "tls.coupling=2e6",
                      "--axis", "material.mode_volume:1e-19:1e-19:1",
                      "--mode", "fixed-nb:0"),
                     "parameter group 'material' is not set",
                     id="tls-set-beside-material-axis"),
    ])
    def test_invalid_input_is_a_config_error(self, argv, message, tmp_path,
                                             tmp_path_factory, monkeypatch,
                                             capsys):
        if MATERIAL_CONFIG in argv:
            cfg = tmp_path_factory.mktemp("config") / "material.cfg"
            cfg.write_text(BASE_CONFIG.replace(TLS, MATERIAL))
            argv = [str(cfg) if a == MATERIAL_CONFIG else a for a in argv]
        monkeypatch.chdir(tmp_path)
        assert self.run(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("axis", ["a:1:2", "tls.tls_loss:x:1:3"])
    def test_bad_axis_is_named_once(self, axis, capsys):
        assert self.run("gain-sweep", "--axis", axis) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count(axis) == 1 and "key '" not in err

    def test_gain_sweep_with_axis(self, tmp_path, capsys):
        code = self.run("gain-sweep", "--axis",
                        f"tls.tls_loss:{0.5e6}:{2e7}:10:log",
                        "--mode", "fixed-nb:2", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "csv:" in out
        csv_path = [l.split(": ")[1] for l in out.splitlines()
                    if l.startswith("csv:")][0]
        header = open(csv_path).readline().strip().split(",")
        assert header[0] == "tls.tls_loss"
        assert "G" in header and "error" in header

    def test_threshold_sweep_two_axes_parallel(self, tmp_path):
        code = self.run("threshold-sweep",
                        "--axis", f"optical.pump_detuning:{0.3 * OMEGA_M}:"
                                  f"{0.7 * OMEGA_M}:3",
                        "--axis", f"tls.tls_loss:{1e6}:{1e7}:4:log",
                        "--mode", "fixed-nb:2",
                        "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "threshold-sweep.csv").read().splitlines()
        assert len(lines) == 1 + 3 * 4
        header = lines[0].split(",")
        assert header[:2] == ["optical.pump_detuning", "tls.tls_loss"]
        assert "P_th" in header

    def test_spectrum_sweep(self, tmp_path):
        code = self.run("spectrum-sweep", "--axis",
                        f"tls.tls_loss:{0.5e6}:{2e7}:8:log",
                        "--mode", "fixed-nb:2", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        header = open(tmp_path / "spectrum-sweep.csv").readline().split(",")
        assert header[:6] == ["tls.tls_loss", "E_plus_re", "E_plus_im",
                              "E_minus_re", "E_minus_im", "gap"]

    @pytest.mark.parametrize("assignment", ["optical.radius=1e300",
                                            "mechanical.eff_mass=1e300"])
    def test_underflowed_kx_is_singular(self, assignment, capsys):
        # kx = xi x0 squares to 0, and P_th divides by kx^2
        assert self.run("validate-config", "--set", assignment) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "underflowed to 0" in err

    def test_underflowed_kx_lands_in_its_row(self, tmp_path):
        code = self.run("gain-sweep", "--axis", "optical.radius:1e-5:1e300:3",
                        "--mode", "fixed-nb:0", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "gain-sweep.csv").read().splitlines()
        errors = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert errors[0] == "" and len(errors) == 3
        assert all("underflowed to 0" in e for e in errors[1:])

    @pytest.mark.filterwarnings("ignore:defect coupling")
    @pytest.mark.parametrize("assignment", [
        "optical.cavity_loss=1e-300", "tls.coupling=1e300",
        "optical.radius=1e-300", "optical.pump_power=1e300",
        "optical.cavity_loss=1e300", "optical.pump_detuning=1e200",
        "optical.coupling=1e200"])
    def test_out_of_range_parameter_is_singular(self, assignment, capsys):
        # each once ended in a traceback or printed G(n_b=0) = nan, exit 0
        assert self.run("validate-config", "--set", assignment) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "floating-point range" in err

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_out_of_range_point_lands_in_its_row(self, tmp_path):
        code = self.run("gain-sweep", "--axis", "tls.coupling:1e6:1e300:3:log",
                        "--mode", "fixed-nb:0", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "gain-sweep.csv").read().splitlines()
        errors = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert errors[0] == "" and len(errors) == 3
        assert all("floating-point range" in e for e in errors[1:])

    def test_non_finite_spectrum_lands_in_its_row(self, tmp_path):
        # at n_b = 1e300 the block's eigenvalues overflow
        code = self.run("spectrum-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                        "--mode", "fixed-nb:1e300", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "spectrum-sweep.csv").read().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        for row in rows:
            assert "leaves the floating-point range" in row["error"]
            assert row["E_plus_re"] == "nan" and row["phase"] == ""

    def test_failed_write_is_io_error(self, tmp_path, capsys):
        (tmp_path / "fig2a.csv").mkdir()
        assert self.run("preset", "fig2a", "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("io error:")

    def test_validity_warning_once_per_command(self, tmp_path):
        # 155 of the 200 rows exceed g_d/omega_q = 0.05
        proc = self.run_child(
            "-m", "defectlaser.cli", "gain-sweep",
            "--axis", "tls.coupling:1e6:3e7:200", "--mode", "fixed-nb:0",
            "--out", str(tmp_path), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("g_d/omega_q") == 1
        proc = self.run_child("-m", "defectlaser.cli", "validate-config",
                              "--set", "tls.coupling=2e7")
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout + proc.stderr).count("g_d/omega_q") == 1

    def test_missing_axis_is_config_error(self):
        assert self.run("gain-sweep") == 1

    def test_unknown_preset_is_config_error(self, capsys):
        assert self.run("preset", "fig9") == EXIT_CONFIG
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_preset_message_is_unquoted(self, capsys):
        assert self.run("preset", "fig9") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: unknown preset 'fig9'; available: fig2a, fig2b, fig3a, "
            "fig3b, fig4, fig5, fig6a, fig6b\n")

    def test_unknown_format_fails_before_any_row(self, tmp_path, capsys,
                                                 monkeypatch):
        def never(spec):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr("defectlaser.cli.run_sweep", never)
        out = tmp_path / "out"
        assert self.run("gain-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                        "--out", str(out), "--format", "json") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown output format 'json'\n"
        assert not out.exists()

    def test_internal_key_error_is_not_a_config_error(self, monkeypatch):
        def broken(args):
            raise KeyError("internal lookup")

        monkeypatch.setattr("defectlaser.cli.cmd_sweep", broken)
        with pytest.raises(KeyError, match="internal lookup"):
            self.run("preset", "fig2a")

    def test_usage_error_exit_code(self, capsys):
        assert self.run("integrate", "--stride", "not-a-number") == 1

    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path,
                                                           capsys):
        assert self.run("fixed-point", "--out", str(tmp_path)) == 1
        assert self.run("ep-locate", "--mode", "fixed-nb:2") == 1
        assert self.run("integrate", "--format", "csv",
                        "--out", str(tmp_path)) == 1
        assert not list(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        assert self.run("--help") == 0
        assert "gain-sweep" in capsys.readouterr().out

    def test_bad_set_is_config_error(self):
        assert self.run("fixed-point", "--set", "tls.coupling=1 parsec") == 1

    def test_bad_config_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[optical]\ncavity_loss = 6.43 parsecs\n")
        assert self.run("validate-config", "--config", str(bad)) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        pytest.param("[optical]\ncavity_loss 6.43 MHz\n",
                     "line 2: expected 'key = value'",
                     id="line-without-equals"),
        pytest.param("cavity_loss = 6.43 MHz\n[optical]\n",
                     "line 1: key outside any [section]",
                     id="key-before-section"),
        pytest.param("[optical]\ncavity_loss = 6.43 MHz\n",
                     "section [optical] is missing: cavity_freq",
                     id="section-missing-keys"),
        pytest.param(BASE_CONFIG.replace("cavity_loss = ", "cavity_loss = -"),
                     "cavity_loss must be > 0", id="negative-cavity-loss"),
        pytest.param(f"{OPTICAL}\n\n{TLS}",
                     "missing required section [mechanical]",
                     id="no-mechanical-section"),
        pytest.param(BASE_CONFIG.replace(TLS, MATERIAL.replace(
            "23.4 2pi.MHz", "0 MHz")),
                     "tunnel_splitting and asymmetry cannot both be zero",
                     id="material-without-splitting"),
    ])
    def test_malformed_config_file_is_config_error(self, text, message,
                                                   tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert self.run("validate-config", "--config", str(bad)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        # a Latin-1 comment on line 3, after CRLF line ends
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"# base\r\n\r\n# caf\xe9\n" + BASE_CONFIG.encode())
        assert self.run("validate-config", "--config", str(bad)) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: line 3: not UTF-8 text (byte 0xe9)\n"

    def test_missing_config_file_is_io_error(self):
        assert self.run("validate-config", "--config", "/nonexistent.cfg") == 3

    def material_config(self, tmp_path):
        cfg = tmp_path / "mat.cfg"
        cfg.write_text("""
[optical]
cavity_freq   = 193 2pi.THz
cavity_loss   = 6.43 MHz
coupling      = 73.513268093 MHz
radius        = 34.5 um
pump_power    = 10 uW
pump_detuning = 73.513268093 MHz

[mechanical]
mech_freq = 23.4 2pi.MHz
mech_loss = 0.24 MHz
eff_mass  = 50 ng

[material]
deformation_potential = 1 eV
tunnel_splitting      = 23.4 2pi.MHz
asymmetry             = 0 MHz
youngs_modulus        = 72 GPa
mode_volume           = 0.1 um^3
tls_loss              = 6.43 MHz
""")
        return str(cfg)

    def test_validate_config_with_material_block(self, tmp_path, capsys):
        cfg = self.material_config(tmp_path)
        assert self.run("validate-config", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "coupling = 1576481.686" in out  # derived defect coupling

    def test_set_material_tls_loss(self, tmp_path, capsys):
        cfg = self.material_config(tmp_path)
        assert self.run("validate-config", "--config", cfg,
                        "--set", "material.tls_loss=2 MHz") == 0
        out = capsys.readouterr().out
        assert "[material]" in out and "\n[tls]" not in out
        assert "\ntls_loss = 2000000.0 rad/s" in out
        assert "# tls_loss = 2000000.0 rad/s" in out  # the derived defect
        assert "coupling = 1576481.686" in out  # coupling unchanged

    def test_set_mech_freq_rederives_the_material_defect(self, tmp_path,
                                                         capsys):
        # g_d ∝ S_zpf ∝ sqrt(omega_m): doubling omega_m scales it by sqrt 2
        cfg = self.material_config(tmp_path)
        assert self.run("validate-config", "--config", cfg,
                        "--set", "mechanical.mech_freq=46.8 2pi.MHz") == 0
        out = capsys.readouterr().out
        assert "[material]" in out and "\n[tls]" not in out
        assert "# coupling = 2229481.7824906055 rad/s" in out

    def test_sweep_over_material_tls_loss(self, tmp_path):
        cfg = self.material_config(tmp_path)
        code = self.run("gain-sweep", "--config", cfg,
                        "--axis", "material.tls_loss:1e6:1e7:4:log",
                        "--mode", "fixed-nb:2", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "gain-sweep.csv").read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "material.tls_loss" and len(lines) == 1 + 4
        base = load_config(cfg)
        i_g, i_err = header.index("G"), header.index("error")
        for line in lines[1:]:
            cells = line.split(",")
            gq = float(cells[0])
            expected = gain(with_value(base, "tls.tls_loss", gq), 2.0).G
            assert float(cells[i_g]) == expected and cells[i_err] == ""

    def test_tls_axis_beside_material_axis_is_a_config_error(self, tmp_path,
                                                              capsys):
        # the outer tls.coupling value dropped the material of every row
        out = tmp_path / "out"
        assert self.run("gain-sweep", "--config", self.material_config(tmp_path),
                        "--axis", "tls.coupling:1e5:1e7:2",
                        "--axis", "material.mode_volume:1e-19:2e-19:2",
                        "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "material.tls_loss" in err
        assert not out.exists()

    def underflowing_material(self, tmp_path):
        cfg = tmp_path / "under.cfg"
        cfg.write_text(open(self.material_config(tmp_path)).read()
                       .replace("72 GPa", "1e-200 Pa")
                       .replace("0.1 um^3", "1e-200 m^3"))
        return str(cfg)

    def test_underflowing_material_is_singular(self, tmp_path, capsys):
        # 2 Y V_m underflows to 0: once a ZeroDivisionError traceback
        cfg = self.underflowing_material(tmp_path)
        assert self.run("validate-config", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "youngs_modulus * mode_volume underflows to 0" in err

    @pytest.mark.filterwarnings("ignore:defect coupling")
    def test_underflowing_material_point_lands_in_its_row(self, tmp_path):
        # each endpoint is valid alone; Y = V = 1e-200 together underflow
        code = self.run("gain-sweep", "--config",
                        self.material_config(tmp_path),
                        "--axis", "material.youngs_modulus:1e-200:72e9:2",
                        "--axis", "material.mode_volume:1e-200:1e-19:2",
                        "--mode", "fixed-nb:0", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        lines = open(tmp_path / "gain-sweep.csv").read().splitlines()
        errors = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert errors[0] == ("point construction failed: youngs_modulus * "
                             "mode_volume underflows to 0: the zero-point "
                             "strain is singular")
        assert len(errors) == 4 and "underflows" not in "".join(errors[1:])

    def test_ep_locate(self, capsys):
        assert self.run("ep-locate", "--nb", "4") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"] is True
        expected = (0.24e6 - gain(base_params(), 4.0).G0) + 2 * 2 * 1e6
        assert out["gamma_q_EP"] == pytest.approx(expected, rel=1e-9)

    def test_off_resonance_sweep_agrees_with_ep_locate(self, tmp_path,
                                                       capsys):
        detuned = f"tls.tls_freq={OMEGA_M + 3e6!r} rad/s"
        assert self.run("spectrum-sweep", "--set", detuned, "--axis",
                        "tls.tls_loss:3e6:5.5e6:6", "--mode", "fixed-nb:4",
                        "--out", str(tmp_path), "--format", "csv") == 0
        lines = open(tmp_path / "spectrum-sweep.csv").read().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert all(r["error"] == "no exact EP off resonance: gamma_q_EP is "
                   "the closest approach (least |disc|)" for r in rows)
        capsys.readouterr()
        assert self.run("ep-locate", "--nb", "4", "--set", detuned) == 0
        out = json.loads(capsys.readouterr().out)
        assert {float(r["gamma_q_EP"]) for r in rows} == {out["gamma_q_EP"]}
        assert rows[0]["phase"] == "above-EP"

    @staticmethod
    def strict_json(text):
        """json.loads that rejects NaN and Infinity."""
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        return json.loads(text, parse_constant=reject)

    def test_ep_locate_without_minimum_prints_strict_json(self, capsys):
        code = self.run("ep-locate", "--bracket-lo", "1e3",
                        "--bracket-hi", "2e3")
        assert code == 2
        out = self.strict_json(capsys.readouterr().out)
        assert out["found"] is False and out["disc_abs"] is None

    def test_fixed_point_infinite_residual_prints_strict_json(
            self, capsys, monkeypatch):
        from defectlaser import FixedPointReport, cli
        report = FixedPointReport(n_b_star=1e300, iterations=3,
                                  residual=math.inf, converged=False,
                                  history=(0.0,))
        monkeypatch.setattr(cli, "solve_nb_fixed_point",
                            lambda *args, **kwargs: report)
        assert self.run("fixed-point") == 2
        out = self.strict_json(capsys.readouterr().out)
        assert out["residual"] is None and out["n_b_star"] == 1e300

    def test_integrate_writes_trajectory(self, tmp_path, capsys):
        code = self.run("integrate", "--model", "reduced",
                        "--set", "optical.pump_power=0 W",
                        "--t-final", "1e-6", "--out", str(tmp_path))
        assert code == 0
        files = os.listdir(tmp_path)
        assert "trajectory-reduced.csv" in files

    @pytest.mark.parametrize("model", sorted(TRAJECTORY_CSV_SHA256))
    def test_integrate_csv_bytes_are_pinned(self, tmp_path, capsys, model):
        assert self.run("integrate", "--model", model, "--t-final", "1e-6",
                        "--out", str(tmp_path)) == 0
        data = (tmp_path / f"trajectory-{model}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest()[:12] \
            == TRAJECTORY_CSV_SHA256[model]

    @pytest.mark.parametrize("flag", ["--dt", "--t-final", "--dt=nan",
                                      "--dt=inf", "--t-final=nan",
                                      "--t-final=inf"])
    def test_integrate_zero_step_or_duration_is_config_error(
            self, tmp_path, capsys, flag):
        # a bare flag gets 0
        args = flag.split("=") if "=" in flag else [flag, "0"]
        assert self.run("integrate", *args, "--out", str(tmp_path)) == 1
        assert "must be > 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_integrate_default_time_grid(self, tmp_path, capsys):
        # dt = 0.1 / max(omega_m, omega_q, 2J) up to 200 mechanical periods,
        # every 10th step stored (and the last one)
        from defectlaser.config import apply_override
        sets = ("optical.pump_power=0 W", "optical.coupling=40 2pi.MHz")
        code = self.run("integrate", "--set", sets[0], "--set", sets[1],
                        "--out", str(tmp_path))
        assert code == 0
        p = base_params()
        for assignment in sets:
            p = apply_override(p, assignment)
        dt = 0.1 / (2.0 * p.optical.coupling)  # 2J is the fastest rate here
        n_steps = round(200.0 * 2.0 * math.pi / p.mechanical.mech_freq / dt)
        steps = list(range(0, n_steps + 1, 10))
        if steps[-1] != n_steps:
            steps.append(n_steps)
        times = np.loadtxt(tmp_path / "trajectory-full.csv", delimiter=",",
                           skiprows=1, usecols=0)
        assert times.tolist() == [i * dt for i in steps]

    def test_integrate_divergence_exit_code(self, tmp_path, capsys):
        # above threshold the run blows up; exit 2, finite prefix written
        code = self.run("integrate", "--model", "full",
                        "--t-final", "1e-5", "--out", str(tmp_path))
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        assert (tmp_path / "trajectory-full.csv").exists()

    def test_integrate_failure_without_a_prefix_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # a failed adaptive step has no finite prefix: name the solver's
        # message, not a prefix that is never written
        def failed(rhs, y0, times):
            raise DivergenceError(1e-7, "adaptive integration failed: stiff")

        monkeypatch.setattr(dynamics, "_run_adaptive", failed)
        code = self.run("integrate", "--method", "dop853",
                        "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: adaptive integration failed: stiff\n"
        assert not list(tmp_path.iterdir())

    def test_integrate_solver_failure_is_one_error_line(
            self, tmp_path, capsys, monkeypatch):
        fake_solve_ivp(monkeypatch, success=False, message="stiff",
                       t=np.array([0.0, 1e-7]), y=np.zeros((5, 2), complex))
        out = tmp_path / "out"
        code = self.run("integrate", "--method", "dop853", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: adaptive integration failed: stiff\n"
        assert not out.exists()

    def test_preset_subcommand(self, tmp_path):
        code = self.run("preset", "fig2a", "--out", str(tmp_path),
                        "--format", "csv")
        assert code == 0
        assert (tmp_path / "fig2a.csv").exists()

    def test_preset_mode_and_set_overrides(self, tmp_path):
        code = self.run("preset", "fig2b", "--mode", "fixed-nb:2",
                        "--set", "tls.coupling=0.5 MHz",
                        "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        prov = json.load(open(tmp_path / "fig2b.provenance.json"))
        assert prov["mode"] == "fixed-nb"
        assert prov["n_b_fixed"] == 2.0
        assert "coupling = 500000.0 rad/s" in prov["base_config"]

    def test_preset_precedence_flag_over_config_over_default(self, tmp_path):
        from defectlaser import params_to_config
        cfg = tmp_path / "base.cfg"
        p = make_params(pump_power=3e-6, g_d=2e6)
        cfg.write_text(params_to_config(p))
        code = self.run("preset", "fig2b", "--config", str(cfg),
                        "--set", "tls.coupling=0.25 MHz",
                        "--mode", "fixed-nb:1",
                        "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        prov = json.load(open(tmp_path / "fig2b.provenance.json"))
        base = prov["base_config"]
        assert "pump_power = 3e-06 W" in base          # from the config file
        assert "coupling = 250000.0 rad/s" in base     # --set wins over file

    #: argv (CFG stands for a parameter file at 3 uW) and the spec the
    #: library builds for it
    SPEC_CASES = {
        "gain-sweep": (
            ("gain-sweep", "--axis", "tls.tls_loss:1e5:1e7:5:log"),
            lambda cfg: SweepSpec(
                base=base_params(),
                axes=(SweepAxis("tls.tls_loss", 1e5, 1e7, 5, "log"),),
                quantities=SWEEP_QUANTITIES["gain-sweep"],
                name="gain-sweep")),
        "gain-sweep-fixed-nb": (
            ("gain-sweep", "--axis", "tls.coupling:1e5:1e6:3",
             "--set", "optical.pump_power=2 uW", "--mode", "fixed-nb:0"),
            lambda cfg: SweepSpec(
                base=with_value(base_params(), "optical.pump_power", 2e-6),
                axes=(SweepAxis("tls.coupling", 1e5, 1e6, 3),),
                quantities=("G", "G0", "Gd", "omega_prime", "delta_n",
                            "N_b", "n_b"),
                mode="fixed-nb", n_b_fixed=0.0, name="gain-sweep")),
        "threshold-sweep": (
            ("threshold-sweep", "--config", "CFG",
             "--axis", "optical.pump_detuning:1e7:1e8:3",
             "--axis", "tls.tls_loss:1e6:2e6:2:log",
             "--mode", "fixed-nb:2"),
            lambda cfg: SweepSpec(
                base=load_config(cfg),
                axes=(SweepAxis("optical.pump_detuning", 1e7, 1e8, 3),
                      SweepAxis("tls.tls_loss", 1e6, 2e6, 2, "log")),
                quantities=SWEEP_QUANTITIES["threshold-sweep"],
                mode="fixed-nb", n_b_fixed=2.0, name="threshold-sweep")),
        "spectrum-sweep": (
            ("spectrum-sweep", "--config", "CFG",
             "--set", "tls.coupling=0.5 MHz",
             "--axis", "tls.tls_loss:1e6:2e7:4", "--mode", "self-consistent"),
            lambda cfg: SweepSpec(
                base=with_value(load_config(cfg), "tls.coupling", 5e5),
                axes=(SweepAxis("tls.tls_loss", 1e6, 2e7, 4),),
                quantities=SWEEP_QUANTITIES["spectrum-sweep"],
                name="spectrum-sweep")),
        "preset-fig2a": (("preset", "fig2a"), lambda cfg: preset("fig2a")),
        "preset-fig2b-fixed-nb": (
            ("preset", "fig2b", "--mode", "fixed-nb:0"),
            lambda cfg: dataclasses.replace(
                preset("fig2b"), mode="fixed-nb", n_b_fixed=0.0,
                quantities=("G", "G0", "Gd"))),
        "preset-fig4-config-set": (
            ("preset", "fig4", "--config", "CFG",
             "--set", "tls.coupling=0.25 MHz", "--mode", "self-consistent"),
            lambda cfg: dataclasses.replace(
                preset("fig4"),
                base=with_value(load_config(cfg), "tls.coupling", 2.5e5))),
    }

    @pytest.mark.parametrize("case", sorted(SPEC_CASES))
    def test_cli_builds_the_library_spec(self, tmp_path, monkeypatch, case):
        argv, expected = self.SPEC_CASES[case]
        cfg = str(tmp_path / "base.cfg")
        with open(cfg, "w") as fh:
            fh.write(params_to_config(make_params(pump_power=3e-6)))
        built = []

        def record(spec):
            built.append(spec)
            return sweep.SweepTable(columns=("error",), rows=(),
                                    provenance={"name": spec.name})

        monkeypatch.setattr("defectlaser.cli.run_sweep", record)
        argv = [cfg if a == "CFG" else a for a in argv]
        assert self.run(*argv, "--out", str(tmp_path), "--format", "csv") == 0
        assert built == [expected(cfg)]

    def run_child(self, *argv, **env):
        import defectlaser
        # the child imports the package this process imported, installed
        # or run from a checkout
        src = os.path.dirname(os.path.dirname(defectlaser.__file__))
        path = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path, **env))

    def test_preset_pins_hold_on_another_blas_kernel(self):
        """fig4's `L` column took its last bits from numpy's BLAS while
        the spectrum normalized with numpy: OpenBLAS's Nehalem kernels
        (which run on any x86_64) gave fig4 sha256 721bfa1057a8.  The
        spectrum now rounds in scalar code, so the pins hold there too."""
        proc = self.run_child(
            "-c", "import hashlib, json\n"
                  "from defectlaser import preset, run_sweep\n"
                  "for name in ('fig4', 'fig5'):\n"
                  "    t = run_sweep(preset(name))\n"
                  "    print(name, *(hashlib.sha256(x.encode()).hexdigest()"
                  "[:12] for x in (t.to_csv_text(), json.dumps("
                  "t.provenance, sort_keys=True))))",
            OPENBLAS_CORETYPE="Nehalem")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{name} {' '.join(PRESET_CSV_SHA256[name])}"
            for name in ("fig4", "fig5")]

    def test_import_loads_no_scipy(self):
        proc = self.run_child(
            "-c", "import sys, defectlaser, defectlaser.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_kernel(self):
        # (fixed-point kernel, RK4 kernel) loads: none at import, then
        # the first solve loads its own
        proc = self.run_child(
            "-c", "import defectlaser, defectlaser.cli\n"
                  "from defectlaser import dynamics, steadystate\n"
                  "from defectlaser.presets import base_params\n"
                  "def loaded():\n"
                  "    return (steadystate._kernel.cache_info().currsize,\n"
                  "            dynamics._kernel.cache_info().currsize)\n"
                  "before = loaded()\n"
                  "defectlaser.solve_nb_fixed_point(base_params())\n"
                  "print(before, loaded())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(0, 0) (1, 0)"

    def test_cached_kernel_load_imports_no_sysconfig(self):
        """A built kernel is found by its source, flags and interpreter, so
        a process that loads both from ``__pycache__`` imports neither
        ``sysconfig`` (the compiler's name) nor ``subprocess``."""
        from defectlaser import steadystate
        if not (dynamics._kernel() and steadystate._kernel()):
            pytest.skip("no C kernel could be built here")
        proc = self.run_child(
            "-c", "import sys\n"
                  "from defectlaser import dynamics, steadystate\n"
                  "assert dynamics._kernel() and steadystate._kernel()\n"
                  "print(sorted({'sysconfig', 'subprocess'}"
                  " & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_benchmark_self_tests_pass(self):
        """The benchmark's own checks run here too: they pin one ``gain``
        call per fixed-n_b sweep row and patch the module attribute
        ``sweep.solve_nb_fixed_point``.  A child process, because
        ``perfbench`` and ``tests`` each import their own ``conftest``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "perfbench", "-q",
             "-p", "no:cacheprovider"],
            cwd=root, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr

    def test_console_script_entrypoint(self):
        proc = self.run_child("-m", "defectlaser.cli", "--help")
        assert proc.returncode == 0
        assert "gain-sweep" in proc.stdout
