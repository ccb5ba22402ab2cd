"""Command-line interface.

Subcommands: gain-sweep, threshold-sweep, spectrum-sweep, integrate,
ep-locate, fixed-point, preset, validate-config.

Exit codes: 0 success, 1 configuration error, 2 numerical non-convergence,
3 IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .config import apply_override, load_config, params_to_config
from .dynamics import (IntegratorSettings, integrate_full, integrate_reduced)
from .errors import (ConfigError, DefectLaserError, DivergenceError,
                     InvalidParameterError, SweepError, UnitError)
from .params import SystemParams
from .presets import FIGURE_PRESETS, base_params, preset
from .spectrum import EffectiveParams, locate_ep, turning_point
from .steadystate import gain, solve_nb_fixed_point
from .sweep import SweepAxis, SweepSpec, emit_outputs, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; remap to the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", metavar="FILE",
                    help="parameter file (defaults to the built-in base)")
    ap.add_argument("--set", metavar="KEY=VALUE", action="append",
                    dest="overrides", default=[],
                    help="override one parameter, e.g. "
                         "--set 'tls.coupling=2 MHz' (repeatable)")
    ap.add_argument("--out", metavar="DIR", default="out",
                    help="output directory (default: out)")
    ap.add_argument("--format", default="csv,plot",
                    help="comma list from {csv,plot} (default: csv,plot)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for sweeps (default: 1)")
    ap.add_argument("--mode", default=None,
                    help="n_b mode: 'self-consistent' or 'fixed-nb:<value>'")


def _add_axis(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--axis", metavar="PATH:START:STOP:N[:SCALE]",
                    action="append", dest="axes", default=[],
                    help="sweep axis, SI values, scale linear|log "
                         "(repeatable up to 2)")


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(
            "axis must look like path:start:stop:num[:scale]", key=text)
    path, start, stop, num = parts[:4]
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        return SweepAxis(path=path, start=float(start), stop=float(stop),
                         num=int(num), scale=scale)
    except (ValueError, SweepError) as err:
        raise ConfigError(f"bad axis {text!r}: {err}", key=text) from err


def _load_params(args) -> SystemParams:
    params = load_config(args.config) if args.config else base_params()
    for assignment in args.overrides:
        params = apply_override(params, assignment)
    return params


def _parse_mode(text: str | None) -> tuple[str, float | None]:
    if text is None or text == "self-consistent":
        return "self-consistent", None
    if text.startswith("fixed-nb:"):
        try:
            return "fixed-nb", float(text.split(":", 1)[1])
        except ValueError as err:
            raise ConfigError(f"bad --mode value {text!r}") from err
    raise ConfigError(
        f"--mode must be 'self-consistent' or 'fixed-nb:<v>', got {text!r}")


def _run_spec_command(args, quantities, default_name: str) -> int:
    params = _load_params(args)
    axes = [_parse_axis(a) for a in args.axes]
    if not axes:
        raise ConfigError("at least one --axis is required")
    mode, n_b = _parse_mode(args.mode)
    spec = SweepSpec(base=params, axes=tuple(axes), quantities=quantities,
                     mode=mode, n_b_fixed=n_b, name=default_name)
    table = run_sweep(spec, jobs=args.jobs)
    manifest = emit_outputs(table, args.out,
                            formats=tuple(args.format.split(",")))
    for kind, path in sorted(manifest.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def cmd_gain_sweep(args) -> int:
    return _run_spec_command(
        args, ("G", "G0", "Gd", "omega_prime", "delta_n", "N_b", "n_b",
               "n_b_star", "fp_converged")
        if (args.mode or "self-consistent") == "self-consistent"
        else ("G", "G0", "Gd", "omega_prime", "delta_n", "N_b", "n_b"),
        "gain-sweep")


def cmd_threshold_sweep(args) -> int:
    return _run_spec_command(
        args, ("P_th", "P_th0", "P_thd", "G"), "threshold-sweep")


def cmd_spectrum_sweep(args) -> int:
    return _run_spec_command(
        args, ("E_plus", "E_minus", "gap", "L", "phase", "gamma_q_EP",
               "gamma_q_min", "n_b"), "spectrum-sweep")


def cmd_integrate(args) -> int:
    params = _load_params(args)
    fastest = max(params.mechanical.mech_freq, params.tls.tls_freq,
                  2.0 * params.optical.coupling)
    dt = args.dt if args.dt else 0.1 / fastest
    t_final = args.t_final if args.t_final else \
        200.0 * 2.0 * math.pi / params.mechanical.mech_freq
    settings = IntegratorSettings(dt=dt, t_final=t_final,
                                  method=args.method, stride=args.stride)
    integrator = integrate_reduced if args.model == "reduced" else integrate_full
    diverged = False
    try:
        traj = integrator(params, None, settings)
    except DivergenceError as err:
        print(f"diverged at t = {err.time:.6g} s; writing the finite prefix",
              file=sys.stderr)
        if err.partial is None:
            return EXIT_NONCONVERGED
        traj = err.partial
        diverged = True
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"trajectory-{args.model}.csv")
    traj.to_csv(path)
    print(f"csv: {path}")
    return EXIT_NONCONVERGED if diverged else EXIT_OK


def cmd_ep_locate(args) -> int:
    params = _load_params(args)
    g = gain(params, args.nb)
    eff = EffectiveParams(
        n_b=args.nb, omega_m=params.mechanical.mech_freq,
        omega_q=params.tls.tls_freq,
        gamma_m_eff=params.mechanical.mech_loss - g.G0,
        gamma_q=params.tls.tls_loss, g_d=params.tls.coupling)
    lo = args.bracket_lo if args.bracket_lo is not None \
        else 0.01 * params.optical.cavity_loss
    hi = args.bracket_hi if args.bracket_hi is not None \
        else 100.0 * params.optical.cavity_loss
    res = locate_ep(eff, (lo, hi))
    out = {
        "gamma_q_EP": res.gamma_q,
        "disc_abs": res.disc_abs,
        "found": res.found,
        "gamma_q_min": turning_point(eff),
        "gamma_m_eff": eff.gamma_m_eff,
        "n_b": args.nb,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if not res.found:
        print(res.message, file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_fixed_point(args) -> int:
    params = _load_params(args)
    report = solve_nb_fixed_point(params, n_b0=args.nb0, tol=args.tol,
                                  max_iter=args.max_iter)
    out = {
        "n_b_star": report.n_b_star,
        "iterations": report.iterations,
        "residual": report.residual,
        "converged": report.converged,
        "method": report.method,
        "evaluations": report.evaluations,
    }
    if args.history:
        out["history"] = list(report.history)
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_preset(args) -> int:
    spec = preset(args.name)
    # precedence: --set flag > config file > preset defaults
    params = load_config(args.config) if args.config else spec.base
    for assignment in args.overrides:
        params = apply_override(params, assignment)
    if params is not spec.base:
        spec = replace(spec, base=params)
    if args.mode:
        mode, n_b = _parse_mode(args.mode)
        quantities = spec.quantities
        if mode == "fixed-nb":
            from .sweep import FP_QUANTITIES
            quantities = tuple(q for q in quantities
                               if q not in FP_QUANTITIES)
        spec = replace(spec, mode=mode, n_b_fixed=n_b,
                       quantities=quantities)
    table = run_sweep(spec, jobs=args.jobs)
    manifest = emit_outputs(table, args.out,
                            formats=tuple(args.format.split(",")))
    for kind, path in sorted(manifest.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    params = _load_params(args)
    print(params_to_config(params))
    notes = params.validity_report()
    for note in notes:
        print(f"note: {note}")
    g = gain(params, 0.0)
    print(f"# G(n_b=0) = {g.G:.6g} rad/s, threshold P_th = {g.P_th:.6g} W")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="defectlaser",
        description="Defect-coupled phonon-laser model: sweeps, spectra, "
                    "dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, extra_axis in (
            ("gain-sweep", cmd_gain_sweep, True),
            ("threshold-sweep", cmd_threshold_sweep, True),
            ("spectrum-sweep", cmd_spectrum_sweep, True)):
        p = sub.add_parser(name)
        _add_common(p)
        if extra_axis:
            _add_axis(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("integrate", help="integrate the mean-field model")
    _add_common(p)
    p.add_argument("--model", choices=("full", "reduced"), default="full")
    p.add_argument("--dt", type=float, default=None, help="step (s)")
    p.add_argument("--t-final", type=float, default=None, dest="t_final")
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--method", choices=("rk4", "dop853"), default="rk4")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("ep-locate", help="locate the exceptional point")
    _add_common(p)
    p.add_argument("--nb", type=float, default=1.0,
                   help="phonon number sector (default 1)")
    p.add_argument("--bracket-lo", type=float, default=None)
    p.add_argument("--bracket-hi", type=float, default=None)
    p.set_defaults(func=cmd_ep_locate)

    p = sub.add_parser("fixed-point",
                       help="solve the self-consistent phonon number")
    _add_common(p)
    p.add_argument("--nb0", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    p.add_argument("--history", action="store_true")
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("preset", help="run a figure-reproduction preset")
    p.add_argument("name",
                   help=f"one of: {', '.join(sorted(FIGURE_PRESETS))}")
    _add_common(p)
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("validate-config",
                       help="parse, validate and echo a parameter file")
    _add_common(p)
    p.set_defaults(func=cmd_validate_config)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # --help (0) or usage error (1)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, UnitError, InvalidParameterError,
            SweepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except DefectLaserError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
