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


def base_params(pump_power: float = 10e-6) -> SystemParams:
    """Shared experimentally accessible parameter point: J = Delta =
    omega_m / 2 and a resonant defect with gamma_q = gamma."""
    return SystemParams(
        optical=OpticalParams(cavity_freq=2.0 * math.pi * 193e12,
                              cavity_loss=GAMMA,
                              coupling=0.5 * OMEGA_M,
                              radius=34.5e-6,
                              pump_power=pump_power,
                              pump_detuning=0.5 * OMEGA_M),
        mechanical=MechanicalParams(mech_freq=OMEGA_M, mech_loss=0.24e6,
                                    eff_mass=50e-12),
        tls=TlsParams(tls_freq=OMEGA_M, tls_loss=GAMMA, coupling=1e6),
    )


_RANGE_NOTE = "axis range/count not stated by the figure; package default"
_LINEAR_RESPONSE = "n_b mode not stated; linear-response n_b = 0"
_SELF_CONSISTENT = "n_b mode not stated; self-consistent fixed point"
_FIXED_NB = dict(mode="fixed-nb", n_b_fixed=0.0)

_DETUNING = ("optical.pump_detuning", -OMEGA_M, OMEGA_M)
_LOSS = ("tls.tls_loss", 0.05 * GAMMA, 6.0 * GAMMA)
_LOSS_AXES = (SweepAxis(*_LOSS, 481, "log"),)
# fig5 and fig6b: one loss sweep for each of four pump detunings
_FAMILY_AXES = (SweepAxis("optical.pump_detuning", 0.25 * OMEGA_M, OMEGA_M, 4),
                SweepAxis(*_LOSS, 241, "log"))
_FAMILY_NOTE = ("detuning family values not stated; "
                "[0.25, 0.5, 0.75, 1] omega_m")

#: each figure's SweepSpec arguments, with ``notes`` for what the figure
#: leaves open besides the axis ranges and ``base`` for changes to
#: ``base_params()``
FIGURE_PRESETS = {
    "fig2a": dict(axes=(SweepAxis(*_DETUNING, 161),),
                  quantities=("G", "G0", "Gd", "delta_n"),
                  notes=(_LINEAR_RESPONSE,), **_FIXED_NB),
    "fig2b": dict(axes=_LOSS_AXES,
                  quantities=("G", "G0", "Gd", "n_b_star", "fp_converged"),
                  notes=(_SELF_CONSISTENT,)),
    "fig3a": dict(axes=(SweepAxis("optical.coupling", 0.1 * OMEGA_M, OMEGA_M,
                                  37),
                        SweepAxis(*_DETUNING, 81)),
                  quantities=("G", "G0", "Gd"),
                  notes=("J axis range not stated; [0.1, 1] omega_m",
                         _LINEAR_RESPONSE), **_FIXED_NB),
    "fig3b": dict(axes=_LOSS_AXES,
                  quantities=("P_th", "P_th0", "P_thd", "G", "n_b_star"),
                  notes=(_SELF_CONSISTENT,)),
    "fig4": dict(base=dict(pump_power=7e-6), axes=_LOSS_AXES,
                 quantities=("E_plus", "E_minus", "gap", "L", "phase",
                             "gamma_q_EP", "n_b_star", "G0"),
                 notes=("abscissa not stated; sweeping the defect loss",
                        "n_b from the fixed point at each sweep coordinate")),
    "fig5": dict(axes=_FAMILY_AXES,
                 quantities=("G", "n_b_star", "gamma_q_min", "gamma_q_EP"),
                 notes=(_FAMILY_NOTE, _SELF_CONSISTENT)),
    "fig6a": dict(axes=(SweepAxis("optical.pump_power", 0.1e-6, 20e-6, 100),),
                  quantities=("N_b", "G", "n_b_star", "fp_converged"),
                  notes=("power axis range not stated; [0.1, 20] uW",)),
    "fig6b": dict(axes=_FAMILY_AXES, quantities=("N_b", "G", "n_b_star"),
                  notes=(_FAMILY_NOTE,)),
}


def preset(name: str) -> SweepSpec:
    """Fully resolved sweep spec for one figure preset."""
    try:
        entry = dict(FIGURE_PRESETS[name])
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: "
            f"{', '.join(sorted(FIGURE_PRESETS))}") from None
    return SweepSpec(base=base_params(**entry.pop("base", {})), name=name,
                     defaulted=(_RANGE_NOTE, *entry.pop("notes")), **entry)
