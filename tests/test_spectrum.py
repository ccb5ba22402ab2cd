import cmath
import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from defectlaser import (EffectiveParams, InvalidParameterError,
                         SingularParameterError, SweepAxis, SweepSpec,
                         discriminant, eigenvalues, gain, gamma_q_ep, preset,
                         run_sweep, solve_nb_fixed_point, spectrum,
                         turning_point, with_value)
from defectlaser.cli import main as cli_main

from conftest import (GAMMA, OMEGA_M, assert_matches_eig,
                      gamma_q_ep_resonant, make_params)

WM = OMEGA_M


def eff(n_b=1.0, omega_q=WM, gamma_m_eff=0.0, gamma_q=2e6, g_d=1e6):
    return EffectiveParams(n_b=n_b, omega_m=WM, omega_q=omega_q,
                           gamma_m_eff=gamma_m_eff, gamma_q=gamma_q, g_d=g_d)


class TestEigenvalues:
    def test_decoupled_limit(self):
        e = eff(g_d=0.0, gamma_m_eff=1e5, gamma_q=3e6)
        r = eigenvalues(e)
        # bare phonon / defect lines; the splitting is purely imaginary
        vals = sorted([r.E_plus, r.E_minus], key=lambda z: z.imag)
        assert vals[1] == pytest.approx(WM - 1e5j, rel=1e-12)
        assert vals[0] == pytest.approx(WM - 3e6j, rel=1e-12)
        assert abs((r.E_plus - r.E_minus).real) < 1e-6
        assert r.gap == pytest.approx(3e6 - 1e5, rel=1e-12)

    def test_uncoupled_degenerate_block_keeps_orthogonal_vectors(self):
        # g_d = 0 and a = d: every vector is an eigenvector, so the branches
        # take the phonon and the defect basis vectors, not one twice
        r = eigenvalues(eff(g_d=0.0, gamma_m_eff=2e5, gamma_q=2e5))
        assert r.E_plus == r.E_minus
        assert r.weights_plus == (1.0, 0.0)
        assert r.weights_minus == (0.0, 1.0)
        assert r.eigvec_overlap == 0.0

    def test_discriminant_vanishes_at_ep(self):
        e = eff(n_b=1.0, gamma_m_eff=0.0, gamma_q=2e6, g_d=1e6)
        assert discriminant(e) == pytest.approx(0.0, abs=1e-3)
        r = eigenvalues(e)
        assert r.E_plus == r.E_minus
        assert r.gap == 0.0
        assert r.phase == "at-EP"

    def test_trace_matches_center(self):
        e = eff(n_b=3.0, gamma_m_eff=-2e5, gamma_q=4e6, g_d=0.7e6,
                omega_q=1.01 * WM)
        r = eigenvalues(e)
        zm = WM - 1j * e.gamma_m_eff
        zq = e.omega_q - 1j * e.gamma_q
        center2 = 2.0 * ((e.n_b - 0.5) * zm + 0.5 * zq)
        assert (r.E_plus + r.E_minus) == pytest.approx(center2, rel=1e-12)

    def test_closed_form_vs_eig_random(self):
        """Closed form against 2x2 diagonalization over 10^4 random valid
        parameter sets.

        Near-defective points are excluded: there the eigenproblem itself
        has O(sqrt(eps)) conditioning and no solver can do better.
        """
        rng = np.random.default_rng(7)
        count = 0
        while count < 10_000:
            e = eff(n_b=rng.uniform(1.0, 50.0),
                    omega_q=WM * rng.uniform(0.9, 1.1),
                    gamma_m_eff=rng.uniform(-3e6, 3e6),
                    gamma_q=rng.uniform(0.0, 2e7),
                    g_d=rng.uniform(0.0, 3e6))
            scale = max(abs(e.n_b * WM), 1.0)
            if abs(discriminant(e)) < (1e-5 * scale) ** 2:
                continue
            count += 1
            assert_matches_eig(e)

    def test_fig4_rows_match_eig(self):
        """Every spectrum row of the fig4 preset: the row holds the closed
        form's eigenvalue pair at its effective block, and that pair
        agrees with 2x2 diagonalization."""
        spec = preset("fig4")
        table = run_sweep(spec)
        i_err = table.columns.index("error")
        checked = 0
        for i, row in enumerate(table.rows):
            if "spectrum skipped" in row[i_err]:
                continue
            _, p = spec.point_params(i)
            n_b = solve_nb_fixed_point(p).n_b_star
            e = EffectiveParams.at(p, n_b, gain(p, n_b).G0)
            r = eigenvalues(e)
            pair = {complex(row[table.columns.index(f"E_{s}_re")],
                            row[table.columns.index(f"E_{s}_im")])
                    for s in ("plus", "minus")}
            assert pair == {r.E_plus, r.E_minus}
            checked += assert_matches_eig(e)
        assert checked > 400

    def test_weights_normalized(self):
        r = eigenvalues(eff(n_b=4.0, gamma_q=8e6))
        assert sum(r.weights_plus) == pytest.approx(1.0, rel=1e-12)
        assert sum(r.weights_minus) == pytest.approx(1.0, rel=1e-12)

    def test_basis_swap_symmetry(self):
        """Relabeling (omega_m, gamma_m') <-> (omega_q, gamma_q) at
        n_b = 1 permutes the basis and must keep the eigenvalue set."""
        a = EffectiveParams(n_b=1.0, omega_m=WM, omega_q=1.02 * WM,
                            gamma_m_eff=3e5, gamma_q=5e6, g_d=1e6)
        b = EffectiveParams(n_b=1.0, omega_m=1.02 * WM, omega_q=WM,
                            gamma_m_eff=5e6, gamma_q=3e5, g_d=1e6)
        ra, rb = eigenvalues(a), eigenvalues(b)
        sa = sorted([ra.E_plus, ra.E_minus], key=lambda z: (z.real, z.imag))
        sb = sorted([rb.E_plus, rb.E_minus], key=lambda z: (z.real, z.imag))
        assert sa[0] == pytest.approx(sb[0], rel=1e-12)
        assert sa[1] == pytest.approx(sb[1], rel=1e-12)

    def test_nb_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            eff(n_b=0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("omega_m", 0.0, "omega_m and omega_q must be > 0"),
        ("omega_q", -1.0, "omega_m and omega_q must be > 0"),
        ("gamma_q", -1.0, "gamma_q and g_d must be >= 0"),
        ("g_d", -1.0, "gamma_q and g_d must be >= 0"),
        # NaN fails no comparison: each must be refused, not reach gamma_q_ep
        ("n_b", math.nan, "n_b must be >= 1"),
        ("omega_q", math.nan, "omega_m and omega_q must be > 0"),
        ("gamma_q", math.nan, "gamma_q and g_d must be >= 0"),
        ("g_d", math.nan, "gamma_q and g_d must be >= 0"),
        ("gamma_m_eff", math.nan, "gamma_m_eff must not be NaN"),
        # nor an infinity: an infinite omega_q gave an EP loss of 0.0
        ("n_b", math.inf, "n_b must be >= 1 and finite"),
        ("omega_m", math.inf, "omega_m and omega_q must be > 0 and finite"),
        ("omega_q", math.inf, "omega_m and omega_q must be > 0 and finite"),
        ("gamma_q", math.inf, "gamma_q and g_d must be >= 0 and finite"),
        ("g_d", math.inf, "gamma_q and g_d must be >= 0 and finite"),
        ("gamma_m_eff", -math.inf, "gamma_m_eff must not be NaN or inf")])
    def test_invalid_block_rejected(self, field, value, message):
        with pytest.raises(InvalidParameterError, match=message):
            dataclasses.replace(eff(), **{field: value})

    def test_non_finite_eigenvalues_raise(self):
        # (n_b - 1/2) omega_m overflows, and with it both eigenvalues
        with pytest.raises(SingularParameterError, match="spectrum at n_b"):
            eigenvalues(eff(n_b=1e300))

    def test_overflowing_coupling_squared_raises(self):
        # the discriminant's g_d ** 2 overflows past g_d ~ 1.3e154: the
        # package error, not a bare OverflowError, from every caller
        e = EffectiveParams(n_b=1, omega_m=1.47e8, omega_q=1.47e8,
                            gamma_m_eff=0, gamma_q=1e6, g_d=1e160)
        for call in (discriminant, eigenvalues):
            with pytest.raises(SingularParameterError,
                               match="spectrum at n_b = 1 leaves"):
                call(e)

    def test_non_finite_eigenvector_norm_raises(self):
        # finite eigenvalues near 1e154 whose eigenvector's squared norm
        # overflows: the error, and no warning
        e = EffectiveParams(n_b=1.0, omega_m=WM, omega_q=0.9e154,
                            gamma_m_eff=0.0, gamma_q=0.9e154, g_d=6.5e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularParameterError, match="eigenvector"):
                eigenvalues(e)


def fraction_fma(x, y, z):
    """x * y + z rounded once: the exact rational sum, then one rounding."""
    exact = Fraction(x) * Fraction(y) + Fraction(z)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def same_float(a, b):
    # zeros compare by value: the rational oracle carries no sign of zero
    return a == b == 0.0 or a.hex() == b.hex()


class TestFma:
    """``spectrum._fma`` rounds x * y + z once, as C's fma does."""

    def test_matches_the_rational_oracle(self):
        rng = random.Random(29)

        def draw(lo, hi):
            return rng.choice((-1.0, 1.0)) * math.ldexp(
                rng.uniform(1.0, 2.0), rng.randint(lo, hi))

        ranges = (
            ((-60, 60), (-60, 60), (-120, 120)),         # ordinary
            ((-1074, 1023), (-1074, 1023), (-1074, 1023)),  # any exponent
            ((-600, -400), (-600, -400), (-1074, -1000)),   # subnormal
            ((-540, -530), (-540, -530), (-1074, -1060)),   # splits underflow
            ((500, 520), (490, 520), (1000, 1023)))         # near overflow
        for i in range(25_000):
            if i % 6 == 5:  # z cancels x * y to within an ulp
                x, y = draw(-100, 100), draw(-100, 100)
                z = -x * y * rng.choice((1.0, 1 + 2.0 ** -52, 1 - 2.0 ** -53))
            else:
                x, y, z = (draw(*r) for r in ranges[i % 6])
            assert same_float(spectrum._fma(x, y, z), fraction_fma(x, y, z)), \
                (x, y, z)

    @pytest.mark.parametrize("args, expected", [
        ((1.2e154, 1.2e154, 1e308), math.inf),  # fsum would overflow
        ((-1.2e154, 1.2e154, -1e308), -math.inf),
        ((1e300, 10.0, -1e300),                 # inf unfused, finite fused
         fraction_fma(1e300, 10.0, -1e300)),
        ((math.inf, 1.0, 1.0), math.inf),
        ((1.0, 1.0, -math.inf), -math.inf),
        ((math.inf, 1.0, -math.inf), math.nan),  # fsum would raise
        ((math.nan, 1.0, 1.0), math.nan),
        ((0.0, math.inf, 1.0), math.nan)])
    def test_non_finite_ends_without_raising(self, args, expected):
        got = spectrum._fma(*args)
        assert got == expected or math.isnan(got) and math.isnan(expected)


def numpy_spectrum(e):
    """Every field of ``eigenvalues(e)`` as its numpy code computed them,
    transcribed: ``np.linalg.norm`` as sqrt(ddot(re) + ddot(im)) whose
    OpenBLAS ddot fused its second product and ``v / norm`` as
    v * (1 / norm) per component, each fused multiply-add through
    ``fraction_fma``; but the overlap as the plain |<v+|v->| and the gap
    as |sqrt(disc)|, not numpy's cancelling |E+ - E-|.  Second, that
    overlap as ``np.vdot`` rounded it, through OpenBLAS's zdotc."""
    zm = e.omega_m - 1j * e.gamma_m_eff
    zq = e.omega_q - 1j * e.gamma_q
    center = (e.n_b - 0.5) * zm + 0.5 * zq
    root = cmath.sqrt(discriminant(e))
    pair = (center + 0.5 * root, center - 0.5 * root)
    a, d = e.n_b * zm, (e.n_b - 1.0) * zm + zq
    kappa = complex(e.g_d * math.sqrt(e.n_b))
    vectors = []
    for ev, basis in zip(pair, ((1.0, 0.0), (0.0, 1.0))):
        r1, r2 = (kappa, ev - a), (ev - d, kappa)
        x, y = (r1 if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1])
                else r2)
        norm = math.sqrt(fraction_fma(y.real, y.real, x.real * x.real)
                         + fraction_fma(y.imag, y.imag, x.imag * x.imag))
        if norm == 0.0:
            (x, y), norm = map(complex, basis), 1.0
        s = 1.0 / norm
        vectors.append(tuple(complex(c.real * s, c.imag * s) for c in (x, y)))
    (a0, a1), (c0, c1) = vectors
    zdotc = complex(fraction_fma(a1.real, c1.real, a0.real * c0.real)
                    + fraction_fma(a1.imag, c1.imag, a0.imag * c0.imag),
                    fraction_fma(a1.real, c1.imag, a0.real * c0.imag)
                    - fraction_fma(a1.imag, c1.real, a0.imag * c0.real))
    weights = [(abs(x) ** 2, abs(y) ** 2) for x, y in vectors]
    gq_ep = spectrum.gamma_q_ep(e)
    return dict(
        E_plus=pair[0], E_minus=pair[1], weights_plus=weights[0],
        weights_minus=weights[1], gap=abs(root),
        gamma_q_EP=gq_ep, gamma_q_min=turning_point(e),
        phase=("at-EP" if abs(e.gamma_q - gq_ep) <= 1e-9 * e.omega_m
               else "below-EP" if e.gamma_q < gq_ep else "above-EP"),
        eigvec_overlap=abs(a0.conjugate() * c0 + a1.conjugate() * c1),
        L=max(abs(w[0] - w[1]) for w in weights)), abs(zdotc)


def field_bits(value):
    if isinstance(value, tuple):
        return tuple(map(field_bits, value))
    if isinstance(value, complex):
        return field_bits((value.real, value.imag))
    return value.hex() if isinstance(value, float) else value


def test_every_field_keeps_numpys_bits():
    """20k seeded blocks, on and off resonance, n_b from 1 to 1e12, at and
    around the EP, and uncoupled (kappa = 0, degenerate or not): every
    field equals the numpy transcription's by float.hex, and the overlap
    is within 1 ulp of numpy's vdot."""
    rng = random.Random(15)
    checked = degenerate = 0
    while checked < 20_000:
        kind = checked % 10  # 0: kappa = 0 and a = d, 1: kappa = 0, 2: EP
        n_b = 1.0 if kind == 0 else 10.0 ** rng.uniform(0.0, 12.0)
        g_d = 0.0 if kind < 2 else 10.0 ** rng.uniform(3.0, 7.0)
        gme = rng.uniform(-1.0, 2.0) * (2.0 * math.sqrt(n_b) * g_d + 1e6)
        omega_q = WM if checked % 2 == 0 else WM * (1 + rng.uniform(-0.1, 0.1))
        probe = eff(n_b=n_b, omega_q=omega_q, gamma_m_eff=gme, g_d=g_d)
        gq_ep = spectrum.gamma_q_ep(probe)
        gq = (gme if kind == 0 else gq_ep if kind == 2
              else gq_ep * rng.uniform(0.0, 3.0))
        if gq < 0.0:
            continue
        e = dataclasses.replace(probe, gamma_q=gq)
        got = eigenvalues(e)
        fields, zdotc = numpy_spectrum(e)
        assert field_bits(vars(got)) == field_bits(fields), e
        assert abs(got.eigvec_overlap - zdotc) <= math.ulp(zdotc), e
        checked += 1
        degenerate += got.weights_minus == (0.0, 1.0) and kind == 0
    assert degenerate == 2000  # the defect's basis vector, not the phonon's


#: sha256 prefixes of ``spectrum-sweep --axis tls.tls_loss:1e6:2e6:2
#: --mode fixed-nb:N``: finite eigenvalues near 1e288 and 1e298 whose gap
#: |sqrt(disc)| is 2e146 and 2e151 (|E+ - E-| rounded both to 0), then
#: the overflow of 1e300 as the row's error
HUGE_NB_CSV_SHA256 = {"1e280": "1a5d694be7a2", "1e290": "5271ebbaaf04",
                      "1e300": "a72c90218507"}


@pytest.mark.parametrize("n_b", sorted(HUGE_NB_CSV_SHA256))
def test_huge_phonon_numbers_write_the_same_rows(tmp_path, n_b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["spectrum-sweep", "--axis", "tls.tls_loss:1e6:2e6:2",
                         "--mode", f"fixed-nb:{n_b}", "--out", str(tmp_path),
                         "--format", "csv"]) == 0
    data = (tmp_path / "spectrum-sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:12] == HUGE_NB_CSV_SHA256[n_b]


class TestEpLoss:
    def test_resonant_closed_form_simple(self):
        gq = gamma_q_ep(eff(n_b=1.0, gamma_m_eff=0.0, g_d=1e6))
        assert gq == pytest.approx(2.0e6, rel=1e-12)

    def test_resonant_closed_form_shifted(self):
        gq = gamma_q_ep(eff(n_b=4.0, gamma_m_eff=0.5e6, g_d=1e6))
        assert gq == pytest.approx(4.5e6, rel=1e-12)

    def test_off_resonant_matches_dense_scan(self):
        # the second point has 4 n_b g_d^2 < dq^2: no EP, and the closest
        # approach sits at gamma_m_eff
        weak = eff(n_b=1.0, omega_q=WM + 3e6, gamma_m_eff=0.4e6, g_d=1e6)
        assert 4.0 * weak.n_b * weak.g_d ** 2 < (weak.omega_q - WM) ** 2
        for e in (eff(n_b=1.0, omega_q=WM + 0.3e6, gamma_m_eff=0.0, g_d=1e6),
                  weak):
            gq = gamma_q_ep(e)
            gqs = np.linspace(1e5, 1e7, 100_000)
            vals = np.abs([discriminant(dataclasses.replace(e, gamma_q=g))
                           for g in gqs])
            scan = gqs[int(np.argmin(vals))]
            assert gq == pytest.approx(scan, abs=2 * (gqs[1] - gqs[0]))
            assert abs(discriminant(dataclasses.replace(e, gamma_q=gq))) \
                <= vals.min() * (1 + 1e-9)
        assert gq == weak.gamma_m_eff


class TestOneEp:
    """``eigenvalues``' gamma_q_EP and phase read one least-|disc| loss,
    on and off resonance."""

    @pytest.mark.parametrize("n_b, gme, expected, phases", [
        # 4 n_b g_d^2 = 1.6e13 > dq^2 = 9e12: the closest approach, not
        # the resonant gme + 4e6 nor the Re disc = 0 loss gme + 5e6
        (4.0, 1e4, 1e4 + math.sqrt(7e12),
         ((2e6, "below-EP"), (4.5e6, "above-EP"))),
        # 4 n_b g_d^2 < dq^2: |disc| is least at gamma_q = gamma_m_eff
        (1.0, 0.4e6, 0.4e6, ((0.3e6, "below-EP"), (2e6, "above-EP"))),
    ], ids=["strong", "weak"])
    def test_off_resonance_agrees(self, n_b, gme, expected, phases):
        e = eff(n_b=n_b, omega_q=WM + 3e6, gamma_m_eff=gme, g_d=1e6)
        gq_ep = eigenvalues(e).gamma_q_EP
        assert gq_ep == pytest.approx(expected, rel=1e-12)
        for gq, phase in (*phases, (gq_ep, "at-EP")):
            assert eigenvalues(dataclasses.replace(e, gamma_q=gq)).phase \
                == phase

    def test_resonant_bits_unchanged(self):
        """On resonance gamma_q_EP is gamma_q_ep_resonant bit for bit, and
        the phase follows the resonant rule."""
        rng = np.random.default_rng(16)
        tol = 1e-9 * WM
        for _ in range(2000):
            n_b = rng.uniform(1.0, 1e4)
            g_d = rng.uniform(0.0, 3e6)
            gme = rng.uniform(-2.0, 1.0) * 2.0 * math.sqrt(n_b) * g_d
            probe = eff(n_b=n_b, gamma_m_eff=gme, g_d=g_d)
            gq_ep = gamma_q_ep_resonant(probe)
            offset = rng.choice([0.0, 0.5, 1.0, 1.5, 1e3]) * tol
            gq = max(0.0, gq_ep + rng.choice([-1.0, 1.0]) * offset)
            e = dataclasses.replace(probe, gamma_q=gq)
            r = eigenvalues(e)
            assert r.gamma_q_EP == gq_ep
            diff = gq - gq_ep
            assert r.phase == ("at-EP" if abs(diff) <= tol else
                               "below-EP" if diff < 0 else "above-EP")

    def test_off_resonance_rows_are_noted(self):
        base = make_params(omega_q=OMEGA_M + 3e6)
        axes = (SweepAxis("tls.tls_loss", 3e6, 5.5e6, 3),)
        noted = run_sweep(SweepSpec(base=base, axes=axes,
                                    quantities=("gap", "gamma_q_EP"),
                                    mode="fixed-nb", n_b_fixed=4.0))
        assert all("closest approach" in c for c in noted.column("error"))
        plain = run_sweep(SweepSpec(base=base, axes=axes,
                                    quantities=("E_plus", "gap", "L"),
                                    mode="fixed-nb", n_b_fixed=4.0))
        assert plain.column("error") == [""] * 3
        resonant = run_sweep(SweepSpec(base=make_params(), axes=axes,
                                       quantities=("phase",),
                                       mode="fixed-nb", n_b_fixed=4.0))
        assert resonant.column("error") == [""] * 3


@pytest.mark.parametrize("g_d", [1e-160, 7e-156])
def test_resonant_ep_loss_exact_where_split_squared_underflows(g_d):
    """2 sqrt(n_b) g_d below ~1.5e-154 squares to a subnormal; the resonant
    gamma_q_EP still equals gamma_q_ep_resonant."""
    e = eff(n_b=1.0, gamma_m_eff=0.0, g_d=g_d)
    assert gamma_q_ep_resonant(e) == 2.0 * g_d
    assert gamma_q_ep(e) == 2.0 * g_d
    assert eigenvalues(e).gamma_q_EP == 2.0 * g_d


class TestTurningPoint:
    def test_resonant_closed_form(self):
        assert turning_point(eff(n_b=1.0)) \
            == pytest.approx(math.sqrt(2.0) * 1e6, rel=1e-15)

    def test_no_phonons_no_minimum(self):
        # n_b >= 1 is required by the two-state basis; the n_b -> 0 limit
        # of the gain minimum is reached through g_d = 0
        assert turning_point(eff(n_b=1.0, g_d=0.0)) == 0.0

    def test_sweep_minimum_oracle(self, fig2_params):
        n_b = 2.0
        e = eff(n_b=n_b)
        analytic = turning_point(e)
        assert analytic == pytest.approx(2.0e6, rel=1e-15)
        gqs = np.geomspace(0.05 * GAMMA, 6 * GAMMA, 2000)
        g_vals = [gain(with_value(fig2_params, "tls.tls_loss", gq), n_b).G
                  for gq in gqs]
        i = int(np.argmin(g_vals))
        step = gqs[i + 1] - gqs[i - 1]
        assert abs(gqs[i] - analytic) <= step

    def test_off_resonant_closed_form(self):
        e = eff(n_b=2.0, omega_q=WM + 0.4e6, g_d=1e6)
        expected = math.sqrt(0.4e6 ** 2 + 2 * 2.0 * 1e6 ** 2)
        assert turning_point(e) == pytest.approx(expected, rel=1e-9)


class TestEpSignatureSweep:
    def test_loss_sweep_shows_ep_signature(self):
        """Sweeping the defect loss at the threshold-power operating point
        (one-phonon sector override) shows the EP signature: split real
        parts with locked imaginary parts below the EP, merged real parts
        with split imaginary parts above it, crossing at the closed-form
        EP loss within grid resolution."""
        from defectlaser import SweepAxis, SweepSpec, run_sweep
        from defectlaser.presets import base_params

        base = base_params(pump_power=7e-6)
        n_b = 1.0
        gamma_m_eff = 0.24e6 - gain(base, n_b).G0
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis("tls.tls_loss", 0.05 * GAMMA, 6 * GAMMA, 500,
                            "log"),),
            quantities=("E_plus", "E_minus", "gap", "gamma_q_EP"),
            mode="fixed-nb", n_b_fixed=n_b)
        table = run_sweep(spec)
        gqs = np.array(table.column("tls.tls_loss"))
        re_split = np.abs(np.array(table.column("E_plus_re"))
                          - np.array(table.column("E_minus_re")))
        im_split = np.abs(np.array(table.column("E_plus_im"))
                          - np.array(table.column("E_minus_im")))
        gq_ep = table.column("gamma_q_EP")[0]
        assert gq_ep == pytest.approx(
            gamma_m_eff + 2 * math.sqrt(n_b) * base.tls.coupling, rel=1e-12)
        below = gqs < 0.8 * gq_ep
        above = gqs > 1.25 * gq_ep
        assert below.any() and above.any()
        # phase (i): frequencies split, damping locked
        assert np.all(re_split[below] > 10 * im_split[below])
        # phase (ii): frequencies merge, damping splits
        assert np.all(im_split[above] > 10 * re_split[above])
        # the crossover sits at the closed-form EP within grid resolution
        cross = int(np.argmax(im_split > re_split))
        assert 0 < cross < len(gqs) - 1
        step = gqs[cross + 1] - gqs[cross - 1]
        assert abs(gqs[cross] - gq_ep) <= step


class TestPhase:
    def test_balanced_below_ep(self):
        e = eff(n_b=4.0, gamma_m_eff=0.5e6, g_d=1e6)
        gq_ep = gamma_q_ep_resonant(e)
        r = eigenvalues(EffectiveParams(
            n_b=4.0, omega_m=WM, omega_q=WM, gamma_m_eff=0.5e6,
            gamma_q=0.3 * gq_ep, g_d=1e6))
        assert r.phase == "below-EP"
        assert r.weights_plus[0] == pytest.approx(0.5, abs=1e-9)
        assert r.weights_minus[0] == pytest.approx(0.5, abs=1e-9)
        assert r.L <= 1e-9

    def test_localized_above_ep(self):
        e = eff(n_b=4.0, gamma_m_eff=0.5e6, g_d=1e6)
        gq_ep = gamma_q_ep_resonant(e)
        r = eigenvalues(EffectiveParams(
            n_b=4.0, omega_m=WM, omega_q=WM, gamma_m_eff=0.5e6,
            gamma_q=10.0 * gq_ep, g_d=1e6))
        assert r.phase == "above-EP"
        assert r.L > 0.9
        # one branch phonon-dominated, the other defect-dominated
        weights = sorted([r.weights_plus[0], r.weights_minus[0]])
        assert weights[0] < 0.1 and weights[1] > 0.9

    def test_degenerate_at_ep(self):
        e = eff(n_b=1.0, gamma_m_eff=0.0, gamma_q=2e6, g_d=1e6)
        r = eigenvalues(e)
        assert r.phase == "at-EP"
        assert r.eigvec_overlap == pytest.approx(1.0, abs=1e-6)

    def test_localization_grows_monotonically_above_ep(self):
        e = eff(n_b=2.0, gamma_m_eff=0.2e6, g_d=1e6)
        gq_ep = gamma_q_ep_resonant(e)
        locs = []
        for f in np.linspace(1.05, 8.0, 30):
            r = eigenvalues(EffectiveParams(
                n_b=2.0, omega_m=WM, omega_q=WM, gamma_m_eff=0.2e6,
                gamma_q=f * gq_ep, g_d=1e6))
            locs.append(r.L)
        assert all(b > a for a, b in zip(locs, locs[1:]))


class TestOrdering:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 100.0), st.floats(1e4, 3e6),
           st.floats(-2e6, 2e6))
    def test_turning_point_below_ep(self, n_b, g_d, gamma_m_eff):
        """Whenever the resonant EP sits above sqrt(2 n_b) g_d, the gain
        minimum must sit strictly below the EP (the documented shift)."""
        e = EffectiveParams(n_b=n_b, omega_m=WM, omega_q=WM,
                            gamma_m_eff=gamma_m_eff, gamma_q=1e6, g_d=g_d)
        gq_ep = gamma_q_ep_resonant(e)
        gq_min = turning_point(e)
        assume(gq_ep > gq_min)
        assert gq_min < gq_ep
