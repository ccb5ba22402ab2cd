import copy
import dataclasses
import math
import pickle
import warnings

import pytest
from hypothesis import given, strategies as st

from defectlaser import (InvalidParameterError, MaterialParams,
                         MechanicalParams, OpticalParams,
                         SingularParameterError, SystemParams, TlsParams,
                         compute_gd, derive_quantities, with_value)
from defectlaser.config import params_from_config, params_to_config
from defectlaser.constants import EV, HBAR
from defectlaser.params import GROUPS

from conftest import OMEGA_M, make_params

MECH = MechanicalParams(mech_freq=OMEGA_M, mech_loss=0.24e6, eff_mass=50e-12)


def silica_material(tunnel=OMEGA_M, asym=0.0, tls_loss=1e6):
    return MaterialParams(deformation_potential=EV, tunnel_splitting=tunnel,
                          asymmetry=asym, youngs_modulus=72e9,
                          mode_volume=1e-19, tls_loss=tls_loss)


class TestInvariants:
    def test_rejects_bad_optical(self):
        with pytest.raises(InvalidParameterError):
            OpticalParams(cavity_freq=1e15, cavity_loss=0.0, coupling=1e6,
                          radius=30e-6, pump_power=1e-6, pump_detuning=0.0)
        with pytest.raises(InvalidParameterError):
            OpticalParams(cavity_freq=1e15, cavity_loss=1e6, coupling=-1.0,
                          radius=30e-6, pump_power=1e-6, pump_detuning=0.0)

    def test_rejects_bad_mechanical(self):
        with pytest.raises(InvalidParameterError):
            MechanicalParams(mech_freq=0.0, mech_loss=1e5, eff_mass=1e-12)
        with pytest.raises(InvalidParameterError):
            MechanicalParams(mech_freq=1e8, mech_loss=1e5, eff_mass=0.0)

    def test_rejects_bad_tls(self):
        with pytest.raises(InvalidParameterError):
            TlsParams(tls_freq=0.0, tls_loss=1e6, coupling=1e6)
        with pytest.raises(InvalidParameterError):
            TlsParams(tls_freq=1e8, tls_loss=-1.0, coupling=1e6)

    @pytest.mark.parametrize("value", [math.inf, math.nan],
                             ids=["inf", "nan"])
    @pytest.mark.parametrize("path", [
        f"{group}.{f.name}" for group, block in GROUPS.items()
        for f in dataclasses.fields(block)])
    def test_rejects_a_non_finite_field(self, path, value):
        # built, an infinite field fails later in the gain, or (as
        # youngs_modulus) derives g_d = 0
        group, _, name = path.partition(".")
        base = make_params()
        if group == "material":
            base = SystemParams(optical=base.optical, mechanical=MECH,
                                material=silica_material())
        with pytest.raises(InvalidParameterError,
                           match=rf"^{name}\b.* finite"):
            with_value(base, path, value)

    def test_system_needs_exactly_one_defect_source(self):
        opt = make_params().optical
        with pytest.raises(InvalidParameterError):
            SystemParams(optical=opt, mechanical=MECH)
        with pytest.raises(InvalidParameterError, match="tls_loss"):
            SystemParams(optical=opt, mechanical=MECH,
                         material=silica_material(tls_loss=-1.0))

    def test_material_derives_tls(self):
        opt = make_params().optical
        derived = compute_gd(silica_material(), MECH)
        p = SystemParams(optical=opt, mechanical=MECH, tls=derived,
                         material=silica_material())
        assert p.tls == derived
        other = dataclasses.replace(derived, coupling=2e6)
        with pytest.raises(InvalidParameterError, match="beside a material"):
            SystemParams(optical=opt, mechanical=MECH, tls=other,
                         material=silica_material())

    def test_validity_warning_on_strong_coupling(self):
        with pytest.warns(UserWarning, match="g_d/omega_q"):
            make_params(g_d=0.2 * OMEGA_M)

    def test_no_warning_in_validity_regime(self, recwarn):
        make_params(g_d=1e6)
        assert not [w for w in recwarn.list
                    if "g_d/omega_q" in str(w.message)]


class TestComputeGd:
    def test_zero_tunnel_splitting_gives_zero_coupling(self):
        tls = compute_gd(silica_material(tunnel=0.0, asym=OMEGA_M), MECH)
        assert tls.coupling == 0.0
        assert tls.tls_freq == OMEGA_M

    def test_symmetric_defect(self):
        # asymmetry = 0: omega_q = tunnel splitting, full coupling strength
        tls = compute_gd(silica_material(tls_loss=2e6), MECH)
        assert tls.tls_freq == OMEGA_M
        assert tls.tls_loss == 2e6
        # frozen from a 40-digit independent evaluation
        assert tls.coupling == pytest.approx(1576481.6869309786, rel=1e-13)

    def test_silica_values_give_mhz_scale(self):
        tls = compute_gd(silica_material(asym=0.75 * OMEGA_M), MECH)
        assert tls.tls_freq == pytest.approx(183783170.2350029, rel=1e-13)
        assert tls.coupling == pytest.approx(1261185.3495447829, rel=1e-13)
        assert 1e5 < tls.coupling < 1e7  # MHz scale

    def test_both_splittings_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            compute_gd(silica_material(tunnel=0.0, asym=0.0), MECH)

    def test_underflowing_stiffness_is_singular(self):
        material = dataclasses.replace(silica_material(), youngs_modulus=1e-200,
                                       mode_volume=1e-200)
        with pytest.raises(SingularParameterError, match="underflows to 0"):
            compute_gd(material, MECH)

    @given(st.floats(min_value=1e5, max_value=1e10),
           st.floats(min_value=0.0, max_value=1e10))
    def test_splitting_quadrature(self, d0, da):
        tls = compute_gd(silica_material(tunnel=d0, asym=da, tls_loss=0.0),
                         MECH)
        assert tls.tls_freq ** 2 == pytest.approx(d0 * d0 + da * da,
                                                  rel=1e-12)


class TestDerivedQuantities:
    def test_zero_power_zero_drive(self):
        d = derive_quantities(make_params(pump_power=0.0))
        assert d.eps_l == 0.0

    def test_zero_detuning_symmetric_supermodes(self):
        d = derive_quantities(make_params(pump_detuning=0.0))
        assert d.omega_plus == make_params().optical.coupling
        assert d.omega_minus == -make_params().optical.coupling

    def test_fig2_values(self, fig2_params):
        d = derive_quantities(fig2_params)
        # frozen from a 40-digit evaluation
        assert d.x0 == pytest.approx(8.4691576570052179e-17, rel=1e-14)
        assert d.xi == pytest.approx(3.5149413457555368e19, rel=1e-14)
        assert d.eps_l == pytest.approx(31711282170.024555, rel=1e-14)

    def test_pure_function(self, fig2_params):
        a = derive_quantities(fig2_params)
        b = derive_quantities(fig2_params)
        assert a == b


class TestWithValue:
    def test_replaces_nested_field(self, fig2_params):
        p = with_value(fig2_params, "tls.tls_loss", 3e6)
        assert p.tls.tls_loss == 3e6
        assert p.optical == fig2_params.optical

    def test_material_path_rederives(self):
        opt = make_params().optical
        p = SystemParams(optical=opt, mechanical=MECH,
                         material=silica_material())
        base_gd = p.tls.coupling
        p2 = with_value(p, "material.mode_volume", 4e-19)
        assert p2.tls.coupling == pytest.approx(base_gd / 2.0, rel=1e-12)

    def test_tls_path_on_material_drops_the_material(self):
        p = SystemParams(optical=make_params().optical, mechanical=MECH,
                         material=silica_material())
        p2 = with_value(p, "tls.tls_loss", 3e6)
        assert p2.material is None
        assert p2.tls == dataclasses.replace(p.tls, tls_loss=3e6)

    def test_mech_freq_on_material_rederives(self):
        p = SystemParams(optical=make_params().optical, mechanical=MECH,
                         material=silica_material())
        p2 = with_value(p, "mechanical.mech_freq", 2.0 * OMEGA_M)
        assert p2.material == p.material
        assert p2.tls == compute_gd(p.material, p2.mechanical)
        assert p2.tls.coupling == pytest.approx(math.sqrt(2.0)
                                                * p.tls.coupling, rel=1e-12)

    @staticmethod
    def replace_reference(params, path, value):
        """with_value spelled with dataclasses.replace: on a material-based
        set, a tls.* value drops the material and any other re-derives
        tls."""
        group, _, name = path.partition(".")
        sub = dataclasses.replace(getattr(params, group), **{name: value})
        if params.material is None:
            return dataclasses.replace(params, **{group: sub})
        if group == "tls":
            return dataclasses.replace(params, tls=sub, material=None)
        return dataclasses.replace(params, **{group: sub, "tls": None})

    @staticmethod
    def outcome(build, *args):
        """(result or error type and text, warnings) of one build."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = build(*args)
            except InvalidParameterError as err:
                out = (type(err), str(err))
        return out, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("scale", [1.5, 0.0, -1.0, 40.0])
    def test_equals_dataclasses_replace_on_every_field(self, scale):
        tls_params = make_params()
        material_params = SystemParams(optical=tls_params.optical,
                                       mechanical=MECH,
                                       material=silica_material())
        checked = 0
        for params in (tls_params, material_params):
            for group in ("optical", "mechanical", "tls", "material"):
                sub = getattr(params, group)
                if sub is None:
                    continue
                for f in dataclasses.fields(sub):
                    path = f"{group}.{f.name}"
                    value = getattr(sub, f.name) * scale
                    got = self.outcome(with_value, params, path, value)
                    want = self.outcome(self.replace_reference, params,
                                        path, value)
                    assert got == want, path
                    if isinstance(got[0], SystemParams):
                        assert repr(got[0]) == repr(want[0])
                        assert got[0].tls == want[0].tls
                    checked += 1
        assert checked == 2 * (6 + 3 + 3) + 6

    def test_unknown_path_rejected(self, fig2_params):
        with pytest.raises(InvalidParameterError):
            with_value(fig2_params, "optical.finesse", 1.0)
        with pytest.raises(InvalidParameterError):
            with_value(fig2_params, "pump_power", 1.0)


def material_set() -> SystemParams:
    return SystemParams(optical=make_params().optical, mechanical=MECH,
                        material=silica_material())


def set_bits(obj):
    """Every field of a parameter set, nested, each float as float.hex."""
    if obj is None or isinstance(obj, float):
        return obj if obj is None else obj.hex()
    return [(f.name, set_bits(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)]


class TestSlottedBlocks:
    """Parameter objects are frozen and slotted: they have no instance
    dict, so nothing can be stored on them, and every copy of a set is an
    equal set with the same bits."""

    def test_no_parameter_class_has_an_instance_dict(self):
        p = material_set()
        blocks = (p, p.optical, p.mechanical, p.tls, p.material)
        assert {type(b) for b in blocks} == {SystemParams, *GROUPS.values()}
        for b in blocks:
            assert not hasattr(b, "__dict__"), type(b)
            assert type(b).__slots__ == tuple(
                f.name for f in dataclasses.fields(b))
            with pytest.raises(AttributeError):
                object.__setattr__(b, "_coefficients", None)

    @pytest.mark.parametrize("make", [make_params, material_set],
                             ids=["tls", "material"])
    def test_every_copy_is_the_same_set(self, make):
        p = make()
        copies = {f"pickle-{proto}": pickle.loads(pickle.dumps(p, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)}
        copies.update({
            "copy": copy.copy(p), "deepcopy": copy.deepcopy(p),
            "replace": dataclasses.replace(p),
            "replace-block": dataclasses.replace(
                p, optical=dataclasses.replace(p.optical)),
            # a set material re-derives the defect from the new mechanics
            "with_value": with_value(p, "mechanical.mech_freq",
                                     p.mechanical.mech_freq),
            "config": params_from_config(params_to_config(p)),
        })
        for how, q in copies.items():
            assert q == p and hash(q) == hash(p), how
            assert repr(q) == repr(p) and set_bits(q) == set_bits(p), how
            assert (q.material is None) == (p.material is None), how
        # each block of the set on its own, too
        for block in (p.optical, p.mechanical, p.tls, p.material):
            if block is not None:
                q = pickle.loads(pickle.dumps(block))
                assert q == block and set_bits(q) == set_bits(block)
