"""Defect-coupled optomechanical phonon-laser model.

Mean-field dynamics of two coupled optical supermodes, a mechanical
breathing mode and a lossy two-level defect, plus the closed-form
steady-state gain, threshold power, stimulated phonon number and the
non-Hermitian defect-phonon spectrum with its exceptional points.
"""

from .constants import PACKAGE_VERSION as __version__

from .errors import (ConfigError, DefectLaserError, DivergenceError,
                     InvalidParameterError, SingularParameterError,
                     SweepError, UnitError, UnknownPresetError)
from .params import (DerivedQuantities, MaterialParams, MechanicalParams,
                     OpticalParams, SystemParams, TlsParams, compute_gd,
                     derive_quantities, with_value)
from .steadystate import (FixedPointReport, GainResult, SteadyOptics, gain,
                          solve_nb_fixed_point, steady_optics)
from .spectrum import (EffectiveParams, SpectrumResult, discriminant,
                       eigenvalues, gamma_q_ep, turning_point)
from .dynamics import (GrowthRateFit, IntegratorSettings, MeanFieldState,
                       ReducedState, Trajectory, crossing_time, growth_rate,
                       integrate_full, integrate_reduced)
from .config import (apply_override, load_config, params_from_config,
                     params_to_config)
from .sweep import (SweepAxis, SweepSpec, SweepTable, emit_outputs,
                    run_sweep)
from .presets import FIGURE_PRESETS, preset

__all__ = [name for name in dir() if not name.startswith("_")]
