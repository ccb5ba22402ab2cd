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
from dataclasses import asdict, replace

from .config import apply_override, load_config, params_to_config
from .dynamics import _default_settings, integrate_full, integrate_reduced
from .errors import (ConfigError, DefectLaserError, DivergenceError,
                     InvalidParameterError, SweepError, UnitError)
from .params import SystemParams
from .presets import FIGURE_PRESETS, base_params, preset
from .spectrum import EffectiveParams, locate_ep, turning_point
from .steadystate import gain, solve_nb_fixed_point
from .sweep import (FP_QUANTITIES, SweepAxis, SweepSpec, check_formats,
                    emit_outputs, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2
EXIT_IO = 3

#: the quantities each sweep subcommand writes
SWEEP_QUANTITIES = {
    "gain-sweep": ("G", "G0", "Gd", "omega_prime", "delta_n", "N_b", "n_b",
                   "n_b_star", "fp_converged"),
    "threshold-sweep": ("P_th", "P_th0", "P_thd", "G"),
    "spectrum-sweep": ("E_plus", "E_minus", "gap", "L", "phase", "gamma_q_EP",
                       "gamma_q_min", "n_b"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; remap to the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _add_common(ap: argparse.ArgumentParser, *, out: bool = False,
                sweep: bool = False) -> None:
    """--config and --set; --out for the commands that write files;
    --format and --mode for the sweeps, which write files too."""
    ap.add_argument("--config", metavar="FILE",
                    help="parameter file (defaults to the built-in base)")
    ap.add_argument("--set", metavar="KEY=VALUE", action="append",
                    dest="overrides", default=[],
                    help="override one parameter, e.g. "
                         "--set 'tls.coupling=2 MHz' (repeatable)")
    if out or sweep:
        ap.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    if sweep:
        ap.add_argument("--format", default="csv,plot",
                        help="comma list from {csv,plot} (default: csv,plot)")
        ap.add_argument("--mode", help="n_b mode: 'self-consistent' or "
                                       "'fixed-nb:<value>'")


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    try:
        if len(parts) not in (4, 5):
            raise SweepError("axis must look like path:start:stop:num[:scale]")
        path, start, stop, num = parts[:4]
        scale = parts[4] if len(parts) == 5 else "linear"
        return SweepAxis(path=path, start=float(start), stop=float(stop),
                         num=int(num), scale=scale)
    except ValueError as err:  # SweepError is a ValueError
        raise ConfigError(f"bad axis {text!r}: {err}") from err


def _load_params(args, base: SystemParams | None = None) -> SystemParams:
    """--config, else ``base``, else the built-in base; then each --set."""
    if args.config:
        params = load_config(args.config)
    else:
        params = base_params() if base is None else base
    for assignment in args.overrides:
        params = apply_override(params, assignment)
    return params


def _given(**flags) -> dict:
    """The flags the user gave; the others keep the library's defaults."""
    return {k: v for k, v in flags.items() if v is not None}


def _parse_mode(text: str, quantities: tuple[str, ...]) -> dict:
    """--mode as SweepSpec fields.  fixed-nb drops the fixed-point
    quantities, which only the self-consistent mode defines."""
    if text == "self-consistent":
        return dict(mode=text, n_b_fixed=None, quantities=quantities)
    if text.startswith("fixed-nb:"):
        try:
            n_b = float(text.split(":", 1)[1])
        except ValueError as err:
            raise ConfigError(f"bad --mode value {text!r}") from err
        return dict(mode="fixed-nb", n_b_fixed=n_b, quantities=tuple(
            q for q in quantities if q not in FP_QUANTITIES))
    raise ConfigError(
        f"--mode must be 'self-consistent' or 'fixed-nb:<v>', got {text!r}")


def cmd_sweep(args) -> int:
    """Every sweep: preset NAME's spec, or SWEEP_QUANTITIES[command] over
    --axis; then --config and --set on its base (precedence: --set flag >
    config file > preset), then --mode."""
    if args.command == "preset":
        spec = preset(args.name)
    else:
        axes = tuple(_parse_axis(a) for a in args.axes)
        if not axes:
            raise ConfigError("at least one --axis is required")
        spec = SweepSpec(base=base_params(), axes=axes, name=args.command,
                         quantities=SWEEP_QUANTITIES[args.command])
    spec = replace(spec, base=_load_params(args, spec.base))
    if args.mode is not None:
        spec = replace(spec, **_parse_mode(args.mode, spec.quantities))
    formats = check_formats(args.format.split(","))
    manifest = emit_outputs(run_sweep(spec), args.out, formats)
    for kind, path in sorted(manifest.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def _print_json(out: dict) -> None:
    """Print ``out`` as strict JSON, a non-finite float as null."""
    print(json.dumps({k: None if isinstance(v, float) and not math.isfinite(v)
                      else v for k, v in out.items()},
                     indent=2, sort_keys=True, allow_nan=False))


def cmd_integrate(args) -> int:
    params = _load_params(args)
    settings = replace(_default_settings(params), stride=args.stride,
                       **_given(dt=args.dt, t_final=args.t_final,
                                method=args.method))
    integrator = integrate_reduced if args.model == "reduced" else integrate_full
    try:
        traj = integrator(params, None, settings)
    except DivergenceError as err:
        print(f"diverged at t = {err.time:.6g} s; writing the finite prefix",
              file=sys.stderr)
        if err.partial is None:
            return EXIT_NONCONVERGED
        traj = err.partial
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"trajectory-{args.model}.csv")
    traj.to_csv(path)
    print(f"csv: {path}")
    return EXIT_NONCONVERGED if "diverged_at" in traj.meta else EXIT_OK


def cmd_ep_locate(args) -> int:
    params = _load_params(args)
    eff = EffectiveParams.at(params, args.nb, gain(params, args.nb).G0)
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
    _print_json(out)
    if not res.found:
        print(res.message, file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_fixed_point(args) -> int:
    params = _load_params(args)
    report = solve_nb_fixed_point(params, **_given(
        n_b0=args.nb0, tol=args.tol, max_iter=args.max_iter))
    out = asdict(report)
    if not args.history:
        del out["history"]
    _print_json(out)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_validate_config(args) -> int:
    params = _load_params(args)
    print(params_to_config(params))
    g = gain(params, 0.0)
    print(f"# G(n_b=0) = {g.G:.6g} rad/s, threshold P_th = {g.P_th:.6g} W")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="defectlaser",
        description="Defect-coupled phonon-laser model: sweeps, spectra, "
                    "dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in SWEEP_QUANTITIES:
        p = sub.add_parser(name)
        _add_common(p, sweep=True)
        p.add_argument("--axis", metavar="PATH:START:STOP:N[:SCALE]",
                       action="append", dest="axes", default=[],
                       help="sweep axis, SI values, scale linear|log "
                            "(repeatable up to 2)")
        p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("integrate", help="integrate the mean-field model")
    _add_common(p, out=True)
    p.add_argument("--model", choices=("full", "reduced"), default="full")
    p.add_argument("--dt", type=float, help="step (s)")
    p.add_argument("--t-final", type=float, dest="t_final")
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--method", choices=("rk4", "dop853"))
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("ep-locate", help="locate the exceptional point")
    _add_common(p)
    p.add_argument("--nb", type=float, default=1.0,
                   help="phonon number sector (default 1)")
    p.add_argument("--bracket-lo", type=float)
    p.add_argument("--bracket-hi", type=float)
    p.set_defaults(func=cmd_ep_locate)

    p = sub.add_parser("fixed-point",
                       help="solve the self-consistent phonon number")
    _add_common(p)
    p.add_argument("--nb0", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--history", action="store_true")
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("preset", help="run a figure-reproduction preset")
    p.add_argument("name",
                   help=f"one of: {', '.join(sorted(FIGURE_PRESETS))}")
    _add_common(p, sweep=True)
    p.set_defaults(func=cmd_sweep)

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
    except DefectLaserError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
