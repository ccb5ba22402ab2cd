import math

import pytest
from hypothesis import given, strategies as st

from defectlaser import (ConfigError, MaterialParams, SystemParams,
                         UnitError)
from defectlaser.constants import EV
from defectlaser.config import (apply_override, params_from_config,
                                params_to_config)
from defectlaser.units import parse_quantity

from conftest import make_params


def material_params() -> SystemParams:
    """The base point with its defect derived from material data."""
    base = make_params()
    return SystemParams(
        optical=base.optical, mechanical=base.mechanical,
        material=MaterialParams(
            deformation_potential=EV, tunnel_splitting=1.4e8,
            asymmetry=0.3e8, youngs_modulus=72e9, mode_volume=1e-19,
            tls_loss=1.1e6))


FIG2_CONFIG = """
# reference hardware point
[optical]
cavity_freq   = 193 2pi.THz
cavity_loss   = 6.43 MHz
coupling      = 73.513268093 MHz     ; 0.5 omega_m
radius        = 34.5 um
pump_power    = 10 uW
pump_detuning = 73.513268093 MHz

[mechanical]
mech_freq = 23.4 2pi.MHz
mech_loss = 0.24 MHz
eff_mass  = 50 ng

[tls]
tls_freq = 23.4 2pi.MHz
tls_loss = 6.43 MHz
coupling = 1 MHz
"""


class TestUnits:
    def test_plain_mhz_is_angular_rate(self):
        assert parse_quantity("6.43 MHz", "angular_rate") == 6.43e6

    def test_2pi_prefix(self):
        assert parse_quantity("23.4 2pi.MHz", "angular_rate") \
            == pytest.approx(2 * math.pi * 23.4e6, rel=1e-15)
        # separator variants
        for tag in ("2pi·MHz", "2pi*MHz", "2pi MHz"):
            assert parse_quantity(f"1 {tag}", "angular_rate") \
                == parse_quantity("1 2pi.MHz", "angular_rate")

    def test_si_passthrough(self):
        assert parse_quantity("123.5 rad/s", "angular_rate") == 123.5
        assert parse_quantity("123.5", "angular_rate") == 123.5

    def test_other_classes(self):
        assert parse_quantity("34.5 um", "length") == pytest.approx(34.5e-6, rel=1e-15)
        assert parse_quantity("50 ng", "mass") == pytest.approx(50e-12, rel=1e-15)
        assert parse_quantity("10 uW", "power") == pytest.approx(10e-6, rel=1e-15)
        assert parse_quantity("72 GPa", "pressure") == pytest.approx(72e9, rel=1e-15)
        assert parse_quantity("1 eV", "energy") == 1.602176634e-19
        assert parse_quantity("0.1 um^3", "volume") == pytest.approx(1e-19, rel=1e-15)

    def test_wrong_class_rejected(self):
        with pytest.raises(UnitError, match="length"):
            parse_quantity("6.43 MHz", "length")

    def test_garbage_rejected(self):
        with pytest.raises(UnitError):
            parse_quantity("fast", "angular_rate")

    @pytest.mark.parametrize("text, unit_class", [
        ("1e999", "length"), ("-1e999 um", "length"),
        ("1e300 THz", "angular_rate")])
    def test_non_finite_rejected(self, text, unit_class):
        # the number itself overflows, or its product with the unit does
        with pytest.raises(UnitError, match=f"not a finite {unit_class}"):
            parse_quantity(text, unit_class)

    @given(st.floats(min_value=1e-3, max_value=1e9,
                     allow_nan=False, allow_infinity=False))
    def test_mhz_round_trip_is_identity(self, value):
        # MHz -> rad/s -> MHz is the identity to machine precision
        si = parse_quantity(f"{value!r} MHz", "angular_rate")
        assert si / 1e6 == pytest.approx(value, rel=4e-16)


class TestConfig:
    def test_fig2_values_parse(self):
        p = params_from_config(FIG2_CONFIG)
        assert p.optical.cavity_freq == pytest.approx(2 * math.pi * 193e12)
        assert p.optical.cavity_loss == 6.43e6
        assert p.mechanical.mech_freq == pytest.approx(2 * math.pi * 23.4e6)
        assert p.mechanical.eff_mass == 50e-12
        assert p.optical.radius == 34.5e-6
        assert p.tls.coupling == 1e6

    def test_round_trip_bit_exact(self):
        p = params_from_config(FIG2_CONFIG)
        p2 = params_from_config(params_to_config(p))
        for group in ("optical", "mechanical", "tls"):
            a, b = getattr(p, group), getattr(p2, group)
            assert a == b  # dataclass equality is field-by-field float ==

    def test_round_trip_of_programmatic_params(self):
        p = make_params(pump_detuning=-0.3123456789012345 * 2e8)
        assert params_from_config(params_to_config(p)) \
            .optical.pump_detuning == p.optical.pump_detuning

    def test_round_trip_keeps_material_block(self):
        lossy = apply_override(material_params(), "material.tls_loss=2 MHz")
        assert lossy.tls.tls_loss == 2e6
        assert lossy.tls.coupling == material_params().tls.coupling
        for p in (material_params(), lossy):
            text = params_to_config(p)
            assert "[material]" in text and "\n[tls]" not in text
            assert f"# coupling = {p.tls.coupling!r} rad/s" in text
            assert params_from_config(text) == p  # material kept, tls exact

    def test_tls_override_of_material_params_writes_tls_block(self):
        p = apply_override(material_params(), "tls.tls_loss=2 MHz")
        text = params_to_config(p)
        assert "[material]" not in text and "\n[tls]" in text
        q = params_from_config(text)
        assert q.material is None
        assert (q.optical, q.mechanical, q.tls) == \
            (p.optical, p.mechanical, p.tls)

    def test_error_reports_key_and_line(self):
        bad = "[optical]\ncavity_freq = 193 2pi.THz\ncavity_loss = 6.43 parsecs\n"
        with pytest.raises(ConfigError) as exc:
            params_from_config(bad)
        assert exc.value.key == "cavity_loss"
        assert exc.value.line == 3
        assert "angular_rate" in str(exc.value)

    @pytest.mark.parametrize("mark", ["\x0c", "\u2028"])
    def test_a_line_ends_at_newline_only(self, mark):
        # a form feed or line separator inside a comment starts no line
        bad = f"[optical]\n# note{mark} page\ncavity_loss = 6.43 parsecs\n"
        with pytest.raises(ConfigError) as exc:
            params_from_config(bad)
        assert (exc.value.key, exc.value.line) == ("cavity_loss", 3)

    def test_crlf_line_ends_keep_the_line_numbers(self):
        with pytest.raises(ConfigError) as exc:
            params_from_config("[optical]\r\ncavity_loss = 6.43 parsecs\r\n")
        assert (exc.value.key, exc.value.line) == ("cavity_loss", 2)

    def test_repeated_key_names_both_lines(self):
        text = FIG2_CONFIG.replace("pump_detuning = 73.513268093 MHz\n",
                                   "pump_detuning = 73.513268093 MHz\n"
                                   "pump_power    = 20 uW\n")
        with pytest.raises(ConfigError) as exc:
            params_from_config(text)
        assert (exc.value.key, exc.value.line) == ("pump_power", 10)
        assert str(exc.value) == ("line 10: key 'pump_power': already given "
                                  "at line 8")

    def test_repeated_section_names_both_lines(self):
        text = FIG2_CONFIG + "\n[optical]\nradius = 30 um\n"
        with pytest.raises(ConfigError) as exc:
            params_from_config(text)
        assert exc.value.line == len(FIG2_CONFIG.splitlines()) + 2
        assert "section [optical] already given at line 3" in str(exc.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="not a \\[optical\\] key"):
            params_from_config("[optical]\nfinesse = 10\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            params_from_config("[laser]\npower = 1 W\n")

    def test_missing_section_and_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            params_from_config("[optical]\ncavity_freq = 193 2pi.THz\n")

    def test_tls_xor_material(self):
        text = FIG2_CONFIG + """
[material]
deformation_potential = 1 eV
tunnel_splitting = 23.4 2pi.MHz
asymmetry = 0 MHz
youngs_modulus = 72 GPa
mode_volume = 0.1 um^3
tls_loss = 6.43 MHz
"""
        with pytest.raises(ConfigError, match="exactly one"):
            params_from_config(text)

    def test_material_path_derives_coupling(self):
        text = "\n".join(line for line in FIG2_CONFIG.splitlines()
                         if not line.startswith(("tls_freq", "tls_loss",
                                                 "coupling = 1 MHz", "[tls]")))
        text += """
[material]
deformation_potential = 1 eV
tunnel_splitting = 23.4 2pi.MHz
asymmetry = 0 MHz
youngs_modulus = 72 GPa
mode_volume = 0.1 um^3
tls_loss = 6.43 MHz
"""
        p = params_from_config(text)
        # frozen from a 40-digit evaluation of the strain-coupling formula
        assert p.tls.coupling == pytest.approx(1576481.6869309786, rel=1e-12)
        assert p.tls.tls_loss == 6.43e6

    def test_apply_override(self):
        p = params_from_config(FIG2_CONFIG)
        p2 = apply_override(p, "tls.coupling=2 MHz")
        assert p2.tls.coupling == 2e6
        p3 = apply_override(p, "optical.pump_power=5 uW")
        assert p3.optical.pump_power == pytest.approx(5e-6, rel=1e-15)
        with pytest.raises(ConfigError):
            apply_override(p, "tls.coupling")
        with pytest.raises(ConfigError):
            apply_override(p, "nope.value=1")
