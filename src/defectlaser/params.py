"""Physical parameters of the defect-coupled phonon-laser model.

All rates and (angular) frequencies are stored in rad/s, lengths in m,
masses in kg, powers in W, energies in J, pressures in Pa and volumes in
m^3; each field's ``unit`` metadata names its unit class, and
``config.SCHEMA`` is read off it.  Parameter objects are frozen, slotted
dataclasses: nothing is stored on them after they are built.

Conventions
-----------
* The optical cavity frequency is an angular frequency; a 193 THz telecom
  carrier enters as 2*pi*193e12 rad/s.
* Loss rates quoted in plain MHz (cavity, mechanical, defect) are plain
  angular rates: "6.43 MHz" = 6.43e6 rad/s.
* The pump detuning is pump minus cavity, so the pump frequency is
  cavity_freq + pump_detuning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .constants import HBAR
from .errors import InvalidParameterError, SingularParameterError

# Defect coupling is a perturbative two-level term; warn when g_d/omega_q
# exceeds this ratio (do not reject).
VALIDITY_RATIO = 0.05
_STRONG_COUPLING = (f"defect coupling g_d/omega_q exceeds {VALIDITY_RATIO:g}; "
                    "two-level treatment is marginal")
_OFF_RESONANCE = ("defect splitting omega_q is more than omega_m/2 from "
                  "omega_m; the resonant rotating-wave model is inaccurate")


# each block check is one chained comparison, so NaN and inf fail it
_INF = math.inf


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


def _unit(unit_class: str):
    """A required field whose config value carries ``unit_class``."""
    return field(metadata={"unit": unit_class})


@dataclass(frozen=True, slots=True)
class MaterialParams:
    """Amorphous-host material data used to derive the defect coupling.

    The defect loss ``tls_loss`` is not fixed by material data; it is
    given alongside it and passed through to the derived TlsParams,
    which checks it.
    """

    deformation_potential: float = _unit("energy")
    tunnel_splitting: float = _unit("angular_rate")
    asymmetry: float = _unit("angular_rate")
    youngs_modulus: float = _unit("pressure")
    mode_volume: float = _unit("volume")
    tls_loss: float = _unit("angular_rate")

    def __post_init__(self):
        _require(-_INF < self.deformation_potential < _INF,
                 "deformation_potential must be finite")
        _require(0 < self.youngs_modulus < _INF,
                 "youngs_modulus must be > 0 and finite")
        _require(0 < self.mode_volume < _INF,
                 "mode_volume must be > 0 and finite")
        _require(0 <= self.tunnel_splitting < _INF,
                 "tunnel_splitting must be >= 0 and finite")
        _require(0 <= self.asymmetry < _INF,
                 "asymmetry must be >= 0 and finite")


@dataclass(frozen=True, slots=True)
class OpticalParams:
    """Two coupled optical modes plus the coherent pump."""

    cavity_freq: float = _unit("angular_rate")
    cavity_loss: float = _unit("angular_rate")
    coupling: float = _unit("angular_rate")
    radius: float = _unit("length")
    pump_power: float = _unit("power")
    pump_detuning: float = _unit("angular_rate")

    def __post_init__(self):
        _require(0 < self.cavity_loss < _INF,
                 "cavity_loss must be > 0 and finite")
        _require(0 <= self.coupling < _INF, "coupling must be >= 0 and finite")
        _require(0 <= self.pump_power < _INF,
                 "pump_power must be >= 0 and finite")
        _require(0 < self.radius < _INF, "radius must be > 0 and finite")
        _require(0 < self.cavity_freq < _INF,
                 "cavity_freq must be > 0 and finite")
        # cavity_freq is finite, so this is cavity_freq + pump_detuning > 0
        _require(-self.cavity_freq < self.pump_detuning < _INF,
                 "pump_detuning must be finite and > -cavity_freq: the pump "
                 "frequency cavity_freq + pump_detuning must be > 0")


@dataclass(frozen=True, slots=True)
class MechanicalParams:
    """Mechanical breathing mode."""

    mech_freq: float = _unit("angular_rate")
    mech_loss: float = _unit("angular_rate")
    eff_mass: float = _unit("mass")

    def __post_init__(self):
        _require(0 < self.mech_freq < _INF, "mech_freq must be > 0 and finite")
        _require(0 < self.mech_loss < _INF, "mech_loss must be > 0 and finite")
        _require(0 < self.eff_mass < _INF, "eff_mass must be > 0 and finite")


@dataclass(frozen=True, slots=True)
class TlsParams:
    """Two-level defect coupled to the mechanical mode via strain."""

    tls_freq: float = _unit("angular_rate")
    tls_loss: float = _unit("angular_rate")
    coupling: float = _unit("angular_rate")

    def __post_init__(self):
        _require(0 < self.tls_freq < _INF, "tls_freq must be > 0 and finite")
        _require(0 <= self.tls_loss < _INF, "tls_loss must be >= 0 and finite")
        _require(0 <= self.coupling < _INF,
                 "coupling (g_d) must be >= 0 and finite")


# config section -> parameter block, in config order; the sections are
# also SystemParams's fields
GROUPS = {"optical": OpticalParams, "mechanical": MechanicalParams,
          "tls": TlsParams, "material": MaterialParams}


def compute_gd(material: MaterialParams, mech: MechanicalParams) -> TlsParams:
    """Defect parameters from material data.

    The splitting is omega_q = sqrt(tunnel^2 + asymmetry^2) and the strain
    coupling is g_d = (D_T/hbar) * (tunnel/omega_q) * S_zpf with the
    zero-point strain S_zpf = sqrt(hbar*omega_m / (2*Y*V_m)).  The defect
    loss rate is the material's ``tls_loss``.
    """
    d0 = material.tunnel_splitting
    da = material.asymmetry
    omega_q = math.hypot(d0, da)
    if omega_q == 0.0:
        raise InvalidParameterError(
            "tunnel_splitting and asymmetry cannot both be zero")
    stiffness = 2.0 * material.youngs_modulus * material.mode_volume
    if stiffness == 0.0:  # both factors are > 0, so the product underflowed
        raise SingularParameterError("youngs_modulus * mode_volume underflows "
                                     "to 0: the zero-point strain is singular")
    s_zpf = math.sqrt(HBAR * mech.mech_freq / stiffness)
    g_d = (material.deformation_potential / HBAR) * (d0 / omega_q) * s_zpf
    return TlsParams(tls_freq=omega_q, tls_loss=material.tls_loss,
                     coupling=g_d)


@dataclass(frozen=True, slots=True)
class SystemParams:
    """Complete parameter set: optics, mechanics and one defect.

    The defect block comes directly (``tls``) or derived from ``material``;
    at least one must be given.  A set ``material`` always derives ``tls``
    (at the set's mode frequency): a ``tls`` given beside it must equal
    the derived one.
    """

    optical: OpticalParams
    mechanical: MechanicalParams
    tls: TlsParams | None = None
    material: MaterialParams | None = None

    def __post_init__(self):
        if self.material is not None:
            tls = compute_gd(self.material, self.mechanical)
            if self.tls is not None and self.tls != tls:
                raise InvalidParameterError(
                    "a tls given beside a material must be the one it derives")
            object.__setattr__(self, "tls", tls)
        elif self.tls is None:
            raise InvalidParameterError("give tls or material")
        # a fixed text and own warn line per condition: shown once, not per row
        tls, wm = self.tls, self.mechanical.mech_freq
        if tls.coupling > 0:
            if tls.coupling / tls.tls_freq >= VALIDITY_RATIO:
                warnings.warn(_STRONG_COUPLING, UserWarning)
            if abs(tls.tls_freq - wm) > 0.5 * wm:
                warnings.warn(_OFF_RESONANCE, UserWarning)


@dataclass
class DerivedQuantities:
    """Derived scales: all pure functions of SystemParams."""

    x0: float          # zero-point displacement, m
    xi: float          # optomechanical frequency pull, rad/s per m
    eps_l: float       # pump amplitude, rad/s
    omega_plus: float  # upper supermode detuning, rad/s
    omega_minus: float  # lower supermode detuning, rad/s


def derive_quantities(params: SystemParams) -> DerivedQuantities:
    """Compute x0, xi, eps_l and the supermode detunings.

    Deterministic; identical inputs give bit-identical outputs.
    """
    opt = params.optical
    mech = params.mechanical
    x0 = math.sqrt(HBAR / (2.0 * mech.eff_mass * mech.mech_freq))
    xi = opt.cavity_freq / opt.radius
    omega_l = opt.cavity_freq + opt.pump_detuning
    eps_l = math.sqrt(2.0 * opt.pump_power * opt.cavity_loss / (HBAR * omega_l))
    omega_plus = -opt.pump_detuning + opt.coupling
    omega_minus = -opt.pump_detuning - opt.coupling
    return DerivedQuantities(x0, xi, eps_l, omega_plus, omega_minus)


def with_value(params: SystemParams, path: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one dotted-path field replaced.

    Paths address the parameter tree, e.g. ``"tls.tls_loss"`` or
    ``"optical.pump_detuning"``.
    """
    return setter(params, path)(value)


def setter(params: SystemParams, path: str):
    """Check the dotted ``path`` against ``params`` once and return the
    function of one value that builds ``params`` with that field replaced
    (each value is checked by the parameter block built from it)."""
    group, _, name = path.partition(".")
    if not name:
        raise InvalidParameterError(f"path {path!r} must look like group.field")
    if group not in GROUPS:
        raise InvalidParameterError(f"unknown parameter group {group!r}")
    groups = {g: getattr(params, g) for g in GROUPS}
    sub = groups[group]
    if sub is None:
        raise InvalidParameterError(f"parameter group {group!r} is not set")
    names = sub.__slots__  # the block's fields in order, no method
    if name not in names:
        raise InvalidParameterError(f"unknown field {name!r} in {group!r}")
    if params.material is not None:
        # a tls.* value leaves the material behind; any other is re-derived
        groups["material" if group == "tls" else "tls"] = None
    # SystemParams and each block take their fields positionally, in order
    i, k, cls = list(groups).index(group), names.index(name), type(sub)
    blocks, fields = list(groups.values()), [getattr(sub, f) for f in names]
    before, after = blocks[:i], blocks[i + 1:]
    head, tail = fields[:k], fields[k + 1:]
    return lambda value: SystemParams(*before, cls(*head, value, *tail), *after)
