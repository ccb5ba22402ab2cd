"""Sweep presets reproducing the reference figure set.

All presets share one experimentally accessible base: a 34.5 um silica
resonator pair (50 ng effective mass, 2pi x 23.4 MHz breathing mode,
6.43 MHz optical loss, 0.24 MHz mechanical loss) carrying one resonant
defect with 1 MHz strain coupling.  Values a figure states are set
verbatim; everything a figure leaves open (axis ranges, point counts,
family values, phonon-number mode) has a documented default flagged in
the ``defaulted`` provenance list.
"""

from __future__ import annotations

import math

from .errors import UnknownPresetError
from .params import MechanicalParams, OpticalParams, SystemParams, TlsParams
from .sweep import SweepAxis, SweepSpec

OMEGA_M = 2.0 * math.pi * 23.4e6
GAMMA = 6.43e6


def base_params(pump_power: float = 10e-6,
                pump_detuning: float = 0.5 * OMEGA_M,
                coupling_j: float = 0.5 * OMEGA_M,
                gamma_q: float = GAMMA,
                g_d: float = 1e6,
                omega_q: float = OMEGA_M) -> SystemParams:
    """Shared experimentally accessible parameter point."""
    return SystemParams(
        optical=OpticalParams(cavity_freq=2.0 * math.pi * 193e12,
                              cavity_loss=GAMMA,
                              coupling=coupling_j,
                              radius=34.5e-6,
                              pump_power=pump_power,
                              pump_detuning=pump_detuning),
        mechanical=MechanicalParams(mech_freq=OMEGA_M, mech_loss=0.24e6,
                                    eff_mass=50e-12),
        tls=TlsParams(tls_freq=omega_q, tls_loss=gamma_q, coupling=g_d),
    )


_DETUNING_AXIS = ("optical.pump_detuning", -OMEGA_M, OMEGA_M, 161, "linear")
_LOSS_AXIS = ("tls.tls_loss", 0.05 * GAMMA, 6.0 * GAMMA, 481, "log")
_RANGE_NOTE = "axis range/count not stated by the figure; package default"


def _fig2a() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis(*_DETUNING_AXIS),),
        quantities=("G", "G0", "Gd", "delta_n"),
        mode="fixed-nb", n_b_fixed=0.0,
        name="fig2a",
        defaulted=(_RANGE_NOTE,
                   "n_b mode not stated; linear-response n_b = 0"))


def _fig2b() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis(*_LOSS_AXIS),),
        quantities=("G", "G0", "Gd", "n_b_star", "fp_converged"),
        mode="self-consistent",
        name="fig2b",
        defaulted=(_RANGE_NOTE,
                   "n_b mode not stated; self-consistent fixed point"))


def _fig3a() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis("optical.coupling", 0.1 * OMEGA_M, OMEGA_M, 37,
                        "linear"),
              SweepAxis(*_DETUNING_AXIS[:3], 81, "linear")),
        quantities=("G", "G0", "Gd"),
        mode="fixed-nb", n_b_fixed=0.0,
        name="fig3a",
        defaulted=(_RANGE_NOTE,
                   "J axis range not stated; [0.1, 1] omega_m",
                   "n_b mode not stated; linear-response n_b = 0"))


def _fig3b() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis(*_LOSS_AXIS),),
        quantities=("P_th", "P_th0", "P_thd", "G", "n_b_star"),
        mode="self-consistent",
        name="fig3b",
        defaulted=(_RANGE_NOTE,
                   "n_b mode not stated; self-consistent fixed point"))


def _fig4() -> SweepSpec:
    return SweepSpec(
        base=base_params(pump_power=7e-6),
        axes=(SweepAxis(*_LOSS_AXIS),),
        quantities=("E_plus", "E_minus", "gap", "L", "phase", "gamma_q_EP",
                    "n_b_star", "G0"),
        mode="self-consistent",
        name="fig4",
        defaulted=(_RANGE_NOTE,
                   "abscissa not stated; sweeping the defect loss",
                   "n_b from the fixed point at each sweep coordinate"))


def _fig5() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis("optical.pump_detuning", 0.25 * OMEGA_M, OMEGA_M, 4,
                        "linear"),
              SweepAxis(*_LOSS_AXIS[:3], 241, "log")),
        quantities=("G", "n_b_star", "gamma_q_min", "gamma_q_EP"),
        mode="self-consistent",
        name="fig5",
        defaulted=(_RANGE_NOTE,
                   "detuning family values not stated; "
                   "[0.25, 0.5, 0.75, 1] omega_m",
                   "n_b mode not stated; self-consistent fixed point"))


def _fig6a() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis("optical.pump_power", 0.1e-6, 20e-6, 100, "linear"),),
        quantities=("N_b", "G", "n_b_star", "fp_converged"),
        mode="self-consistent",
        name="fig6a",
        defaulted=(_RANGE_NOTE,
                   "power axis range not stated; [0.1, 20] uW"))


def _fig6b() -> SweepSpec:
    return SweepSpec(
        base=base_params(),
        axes=(SweepAxis("optical.pump_detuning", 0.25 * OMEGA_M, OMEGA_M, 4,
                        "linear"),
              SweepAxis(*_LOSS_AXIS[:3], 241, "log")),
        quantities=("N_b", "G", "n_b_star"),
        mode="self-consistent",
        name="fig6b",
        defaulted=(_RANGE_NOTE,
                   "detuning family values not stated; "
                   "[0.25, 0.5, 0.75, 1] omega_m"))


FIGURE_PRESETS = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6a": _fig6a,
    "fig6b": _fig6b,
}


def preset(name: str) -> SweepSpec:
    """Fully resolved sweep spec for one figure preset."""
    try:
        factory = FIGURE_PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: "
            f"{', '.join(sorted(FIGURE_PRESETS))}") from None
    return factory()
