import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from defectlaser import (SweepAxis, SweepSpec, SweepError,
                         UnknownPresetError, emit_outputs, gain, preset,
                         run_sweep, with_value)
from defectlaser.cli import EXIT_CONFIG, main as cli_main
from defectlaser.presets import FIGURE_PRESETS, base_params

from conftest import GAMMA, OMEGA_M, make_params


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

    def test_rejects_three_axes(self):
        ax = SweepAxis("tls.tls_loss", 1e6, 2e6, 3)
        with pytest.raises(SweepError, match="1 or 2"):
            small_spec(axes=(ax, ax, ax))

    def test_rejects_log_axis_through_zero(self):
        with pytest.raises(SweepError, match="log"):
            SweepAxis("optical.pump_detuning", -1e6, 1e6, 5, "log")

    def test_rejects_fixed_mode_without_value(self):
        with pytest.raises(SweepError, match="n_b_fixed"):
            small_spec(mode="fixed-nb", n_b_fixed=None)

    def test_rejects_fixed_point_quantities_in_fixed_mode(self):
        with pytest.raises(SweepError, match="self-consistent"):
            small_spec(quantities=("G", "n_b_star"))

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

    def test_parallel_equals_serial(self):
        spec = small_spec(axes=(SweepAxis("tls.tls_loss", 0.5e6, 2e7, 24,
                                          "log"),),
                          mode="self-consistent", n_b_fixed=None)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.columns == parallel.columns

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
        base = make_params(pump_power=7e-6)
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis("tls.tls_loss", 0.05 * GAMMA, 6 * GAMMA, 300,
                            "log"),),
            quantities=("E_plus", "E_minus", "gap"),
            mode="fixed-nb", n_b_fixed=1.0)
        table = run_sweep(spec)
        re_p = np.array(table.column("E_plus_re"))
        im_p = np.array(table.column("E_plus_im"))
        # continuity: adjacent steps move much less than the overall span
        span = re_p.max() - re_p.min() + im_p.max() - im_p.min()
        jumps = np.abs(np.diff(re_p)) + np.abs(np.diff(im_p))
        assert jumps.max() < 0.2 * span


class TestEmit:
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
        assert "written_at_unix" in prov
        assert "written_at_unix" not in b1.decode()

    def test_plot_script_is_self_contained(self, tmp_path):
        table = run_sweep(small_spec())
        out = emit_outputs(table, tmp_path)
        src = open(out["plot"]).read()
        assert "matplotlib" in src
        assert os.path.basename(out["csv"]) in src
        compile(src, out["plot"], "exec")  # syntactically valid

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
        assert out["evaluations"] > out["iterations"]

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
                        "--mode", "fixed-nb:2", "--jobs", "2",
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

    def test_missing_axis_is_config_error(self):
        assert self.run("gain-sweep") == 1

    def test_unknown_preset_is_config_error(self, capsys):
        assert self.run("preset", "fig9") == EXIT_CONFIG
        assert "unknown preset" in capsys.readouterr().err

    def test_internal_key_error_is_not_a_config_error(self, monkeypatch):
        def broken(args):
            raise KeyError("internal lookup")

        monkeypatch.setattr("defectlaser.cli.cmd_preset", broken)
        with pytest.raises(KeyError, match="internal lookup"):
            self.run("preset", "fig2a")

    def test_usage_error_exit_code(self, capsys):
        assert self.run("gain-sweep", "--jobs", "not-a-number") == 1

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

    def test_missing_config_file_is_io_error(self):
        assert self.run("validate-config", "--config", "/nonexistent.cfg") == 3

    def test_validate_config_with_material_block(self, tmp_path, capsys):
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
        assert self.run("validate-config", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "coupling = 1576481.686" in out  # derived defect coupling

    def test_ep_locate(self, capsys):
        assert self.run("ep-locate", "--nb", "4") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"] is True
        expected = (0.24e6 - gain(base_params(), 4.0).G0) + 2 * 2 * 1e6
        assert out["gamma_q_EP"] == pytest.approx(expected, rel=1e-9)

    def test_integrate_writes_trajectory(self, tmp_path, capsys):
        code = self.run("integrate", "--model", "reduced",
                        "--set", "optical.pump_power=0 W",
                        "--t-final", "1e-6", "--out", str(tmp_path))
        assert code == 0
        files = os.listdir(tmp_path)
        assert "trajectory-reduced.csv" in files

    def test_integrate_divergence_exit_code(self, tmp_path, capsys):
        # above threshold the run blows up; exit 2, finite prefix written
        code = self.run("integrate", "--model", "full",
                        "--t-final", "1e-5", "--out", str(tmp_path))
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        assert (tmp_path / "trajectory-full.csv").exists()

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

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "defectlaser.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gain-sweep" in proc.stdout
