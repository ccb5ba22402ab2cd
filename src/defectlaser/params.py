"""Physical parameters of the defect-coupled phonon-laser model.

All rates and (angular) frequencies are stored in rad/s, lengths in m,
masses in kg, powers in W, energies in J.  Parameter objects are frozen
dataclasses: immutable after construction, safe to share across workers.

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
from dataclasses import dataclass, replace

from .constants import HBAR
from .errors import InvalidParameterError

# Defect coupling is a perturbative two-level term; warn when g_d/omega_q
# exceeds this ratio (do not reject).
DEFAULT_VALIDITY_RATIO = 0.05


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


@dataclass(frozen=True)
class MaterialParams:
    """Amorphous-host material data used to derive the defect coupling.

    deformation_potential : J (accepts eV through the config layer)
    tunnel_splitting, asymmetry : rad/s
    youngs_modulus : Pa
    mode_volume : m^3
    """

    deformation_potential: float
    tunnel_splitting: float
    asymmetry: float
    youngs_modulus: float
    mode_volume: float

    def __post_init__(self):
        _require(self.youngs_modulus > 0, "youngs_modulus must be > 0")
        _require(self.mode_volume > 0, "mode_volume must be > 0")
        _require(self.tunnel_splitting >= 0, "tunnel_splitting must be >= 0")
        _require(self.asymmetry >= 0, "asymmetry must be >= 0")


@dataclass(frozen=True)
class OpticalParams:
    """Two coupled optical modes plus the coherent pump.

    cavity_freq, cavity_loss, coupling, pump_detuning : rad/s
    radius : m
    pump_power : W
    """

    cavity_freq: float
    cavity_loss: float
    coupling: float
    radius: float
    pump_power: float
    pump_detuning: float

    def __post_init__(self):
        _require(self.cavity_loss > 0, "cavity_loss must be > 0")
        _require(self.coupling >= 0, "coupling must be >= 0")
        _require(self.pump_power >= 0, "pump_power must be >= 0")
        _require(self.radius > 0, "radius must be > 0")
        _require(self.cavity_freq > 0, "cavity_freq must be > 0")
        _require(self.cavity_freq + self.pump_detuning > 0,
                 "pump frequency cavity_freq + pump_detuning must be > 0")


@dataclass(frozen=True)
class MechanicalParams:
    """Mechanical breathing mode.

    mech_freq, mech_loss : rad/s
    eff_mass : kg
    """

    mech_freq: float
    mech_loss: float
    eff_mass: float

    def __post_init__(self):
        _require(self.mech_freq > 0, "mech_freq must be > 0")
        _require(self.mech_loss > 0, "mech_loss must be > 0")
        _require(self.eff_mass > 0, "eff_mass must be > 0")

    @property
    def x_zpf(self) -> float:
        """Zero-point displacement x0 = sqrt(hbar / (2 m omega_m))."""
        return math.sqrt(HBAR / (2.0 * self.eff_mass * self.mech_freq))


@dataclass(frozen=True)
class TlsParams:
    """Two-level defect coupled to the mechanical mode via strain.

    tls_freq, tls_loss, coupling : rad/s
    """

    tls_freq: float
    tls_loss: float
    coupling: float

    def __post_init__(self):
        _require(self.tls_freq > 0, "tls_freq must be > 0")
        _require(self.tls_loss >= 0, "tls_loss must be >= 0")
        _require(self.coupling >= 0, "coupling (g_d) must be >= 0")

    @property
    def coupling_ratio(self) -> float:
        """g_d / omega_q, the small parameter of the two-level description."""
        return self.coupling / self.tls_freq


def compute_gd(material: MaterialParams, mech: MechanicalParams, *,
               gamma_q: float) -> TlsParams:
    """Defect parameters from material data.

    The splitting is omega_q = sqrt(tunnel^2 + asymmetry^2) and the strain
    coupling is g_d = (D_T/hbar) * (tunnel/omega_q) * S_zpf with the
    zero-point strain S_zpf = sqrt(hbar*omega_m / (2*Y*V_m)).  The defect
    loss rate is not fixed by material data and must be supplied.
    """
    d0 = material.tunnel_splitting
    da = material.asymmetry
    omega_q = math.hypot(d0, da)
    if omega_q == 0.0:
        raise InvalidParameterError(
            "tunnel_splitting and asymmetry cannot both be zero")
    s_zpf = math.sqrt(HBAR * mech.mech_freq /
                      (2.0 * material.youngs_modulus * material.mode_volume))
    g_d = (material.deformation_potential / HBAR) * (d0 / omega_q) * s_zpf
    return TlsParams(tls_freq=omega_q, tls_loss=gamma_q, coupling=g_d)


@dataclass(frozen=True)
class SystemParams:
    """Complete parameter set: optics, mechanics and one defect.

    The defect block comes either directly (``tls``) or derived from
    ``material`` (then ``material_tls_loss`` supplies the defect loss);
    exactly one source must be given at construction.  When a material
    block is present its derived TlsParams are stored in ``tls``, which is
    authoritative from then on (the material is kept for provenance).
    """

    optical: OpticalParams
    mechanical: MechanicalParams
    tls: TlsParams | None = None
    material: MaterialParams | None = None
    material_tls_loss: float | None = None

    def __post_init__(self):
        if self.tls is None and self.material is None:
            raise InvalidParameterError(
                "exactly one of tls / material must be given")
        if self.tls is None:
            if self.material_tls_loss is None:
                raise InvalidParameterError(
                    "material_tls_loss is required when deriving the defect "
                    "from material data")
            derived = compute_gd(self.material, self.mechanical,
                                 gamma_q=self.material_tls_loss)
            object.__setattr__(self, "tls", derived)
        for message in self.validity_report():
            warnings.warn(message, UserWarning, stacklevel=3)

    def validity_report(self, ratio: float = DEFAULT_VALIDITY_RATIO) -> list[str]:
        """Soft checks on the perturbative two-level description."""
        out = []
        tls = self.tls
        if tls is not None and tls.coupling > 0:
            if tls.coupling_ratio >= ratio:
                out.append(
                    f"defect coupling g_d/omega_q = {tls.coupling_ratio:.3g} "
                    f"exceeds {ratio:g}; two-level treatment is marginal")
            wm = self.mechanical.mech_freq
            if abs(tls.tls_freq - wm) > 0.5 * wm:
                out.append(
                    f"defect splitting omega_q = {tls.tls_freq:.3g} rad/s is "
                    f"far from omega_m = {wm:.3g} rad/s; the resonant "
                    "rotating-wave model is inaccurate")
        return out


@dataclass(frozen=True)
class DerivedQuantities:
    """Derived scales: all pure functions of SystemParams."""

    x0: float          # zero-point displacement, m
    xi: float          # optomechanical frequency pull, rad/s per m
    eps_l: float       # pump amplitude, rad/s
    omega_l: float     # pump angular frequency, rad/s
    omega_plus: float  # upper supermode detuning, rad/s
    omega_minus: float  # lower supermode detuning, rad/s


def derive_quantities(params: SystemParams) -> DerivedQuantities:
    """Compute x0, xi, eps_l, omega_l and the supermode detunings.

    Deterministic; identical inputs give bit-identical outputs.
    """
    opt = params.optical
    mech = params.mechanical
    x0 = mech.x_zpf
    xi = opt.cavity_freq / opt.radius
    omega_l = opt.cavity_freq + opt.pump_detuning
    eps_l = math.sqrt(2.0 * opt.pump_power * opt.cavity_loss / (HBAR * omega_l))
    omega_plus = -opt.pump_detuning + opt.coupling
    omega_minus = -opt.pump_detuning - opt.coupling
    return DerivedQuantities(x0=x0, xi=xi, eps_l=eps_l, omega_l=omega_l,
                             omega_plus=omega_plus, omega_minus=omega_minus)


def with_value(params: SystemParams, path: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one dotted-path field replaced.

    Paths address the parameter tree, e.g. ``"tls.tls_loss"`` or
    ``"optical.pump_detuning"``.
    """
    group, _, name = path.partition(".")
    if not name:
        raise InvalidParameterError(f"path {path!r} must look like group.field")
    if group not in ("optical", "mechanical", "tls", "material"):
        raise InvalidParameterError(f"unknown parameter group {group!r}")
    sub = getattr(params, group)
    if sub is None:
        raise InvalidParameterError(f"parameter group {group!r} is not set")
    if not hasattr(sub, name):
        raise InvalidParameterError(f"unknown field {name!r} in {group!r}")
    new_sub = replace(sub, **{name: value})
    if group == "material":
        # the defect block is derived from the material, so rebuild it
        return replace(params, material=new_sub, tls=None)
    return replace(params, **{group: new_sub})
