"""The accuracy ledger: each printed column's worst error against an exact
oracle of ``conftest`` (``exact_spectrum``, ``exact_gain``,
``exact_nb_star``), row by row, held within a budget set from its measured
worst.  A budget may only tighten; a change that makes a column more exact
tightens its budget here.  ``pytest -s`` or ``-rP`` prints the ledger."""

import math
from fractions import Fraction

from defectlaser import (EffectiveParams, discriminant, eigenvalues, gain,
                         preset, solve_nb_fixed_point, with_value)
from defectlaser.presets import base_params

from conftest import exact_gain, exact_nb_star, exact_spectrum

HUGE = "resonant, n_b 1e20-1e30, 1e280, 1e290"
UNITS = {"E_plus": "ulp of |E|", "E_minus": "ulp of |E|", "gap": "ulp",
         "L": "absolute", "phase": "1 if a label differs",
         "gamma_q_EP": "ulp",
         "gamma_q_min": "ulp", "G0": "ulp", "Gd": "ulp",
         "G": "of |G0| + |Gd|", "delta_n": "ulp", "n_b_star": "relative"}
#: (column, rows) -> the largest error the ledger allows: the worst
#: measured when it was set, with the grids that numpy's AVX-512 and
#: baseline power kernels give, rounded up in the second digit; `gap`'s is
#: 1 ulp.  `L` on HUGE is lost whole (e - a cancels; ROADMAP item 15),
#: `G0` and `delta_n` lose ulps to |a+|^2 - |a-|^2 (item 25), and
#: `n_b_star` to the fixed point's absolute tolerance below n = 1 (item 26)
BUDGETS = {
    **{(col, rows): budget
       for rows, spectrum in (
           ("fig4", dict(E_plus=1.5, E_minus=1.5, L=4.5e-12, gamma_q_EP=1.3,
                         gamma_q_min=0.97)),
           ("fig5", dict(E_plus=1.2, E_minus=1.2, L=8.4e-11, gamma_q_EP=1.3,
                         gamma_q_min=0.91)),
           (HUGE, dict(E_plus=0.96, E_minus=0.70, L=1.0, gamma_q_EP=0.71,
                       gamma_q_min=1.2)))
       for col, budget in {**spectrum, "gap": 1.0, "phase": 0}.items()},
    ("G0", "fig2a"): 27.0, ("Gd", "fig2a"): 0.32, ("G", "fig2a"): 1.2e-15,
    ("delta_n", "fig2a"): 19.0,
    ("G0", "fig3a"): 57.0, ("Gd", "fig3a"): 0.32, ("G", "fig3a"): 1.2e-15,
    ("delta_n", "fig3a"): 31.0,
    ("n_b_star", "fig2b"): 3.1e-6, ("n_b_star", "fig6a"): 8.7e-11,
}


def ulps(value: float, exact) -> float:
    """|value - exact| in ulps of the double nearest ``exact``."""
    exact = Fraction(exact)
    return float(abs(Fraction(value) - exact)) / math.ulp(float(exact))


def complex_ulps(value: complex, exact: tuple) -> float:
    """|value - exact| in ulps of |exact|, for an exact (re, im) pair."""
    re, im = map(Fraction, exact)
    return math.hypot(float(Fraction(value.real) - re),
                      float(Fraction(value.imag) - im)) / math.ulp(
        math.hypot(float(re), float(im)))


def preset_rows(name: str):
    """(parameters, n_b) of each row of a preset, n_b as the row has it."""
    spec = preset(name)
    for i in range(math.prod(spec.grid_shape())):
        _, params = spec.point_params(i)
        yield params, (spec.n_b_fixed if spec.mode == "fixed-nb"
                       else solve_nb_fixed_point(params).n_b_star)


def spectrum_blocks():
    """(rows, block) of every fig4 and fig5 row with n_b* >= 1, as the
    sweep builds it, then both rows of ``spectrum-sweep --axis
    tls.tls_loss:1e6:2e6:2`` at each huge fixed n_b."""
    for name in ("fig4", "fig5"):
        for params, n_b in preset_rows(name):
            if n_b >= 1.0:
                yield name, EffectiveParams.at(params, n_b,
                                               gain(params, n_b).G0)
    for n_b in [10.0 ** k for k in range(20, 31)] + [1e280, 1e290]:
        for gamma_q in (1e6, 2e6):
            params = with_value(base_params(), "tls.tls_loss", gamma_q)
            yield HUGE, EffectiveParams.at(params, n_b, gain(params, n_b).G0)


def ledger() -> tuple[dict, dict]:
    """Each (column, rows)'s worst error, and each row set's size."""
    worst, size = {}, {}

    def note(rows, errors):
        for col, err in errors.items():
            worst[col, rows] = max(worst.get((col, rows), 0.0), err)
        size[rows] = size.get(rows, 0) + 1

    for rows, eff in spectrum_blocks():
        got = eigenvalues(eff)
        zero_sign = math.copysign(1.0, discriminant(eff).imag)
        exact = exact_spectrum(eff, zero_sign)
        note(rows, dict(
            E_plus=complex_ulps(got.E_plus, exact["E_plus"]),
            E_minus=complex_ulps(got.E_minus, exact["E_minus"]),
            gap=ulps(got.gap, exact["gap"]),
            L=abs(float(Fraction(got.L) - Fraction(exact["L"]))),
            phase=float(got.phase != exact["phase"]),
            **{col: ulps(getattr(got, col), exact[col])
               for col in ("gamma_q_EP", "gamma_q_min")}))
    for name in ("fig2a", "fig3a"):
        for params, n_b in preset_rows(name):
            got, exact = gain(params, n_b), exact_gain(params, n_b)
            scale = abs(exact["G0"]) + abs(exact["Gd"])
            note(name, dict(
                G=float(abs(Fraction(got.G) - exact["G"]) / scale),
                **{col: ulps(getattr(got, col), exact[col])
                   for col in ("G0", "Gd", "delta_n")}))
    for name in ("fig2b", "fig6a"):
        for params, n_b in preset_rows(name):
            root = Fraction(exact_nb_star(params, n_b))
            note(name, dict(n_b_star=float(abs(Fraction(n_b) - root) / root)))
    return worst, size


def test_every_printed_column_within_its_budget():
    worst, size = ledger()
    lines = [f"{'column':<12}{'rows':<40}{'count':>6}{'worst':>11}"
             f"{'budget':>11}  unit"]
    for col, rows in BUDGETS:
        lines.append(f"{col:<12}{rows:<40}{size[rows]:>6}"
                     f"{worst[col, rows]:>11.3g}{BUDGETS[col, rows]:>11.3g}"
                     f"  {UNITS[col]}")
    print("\naccuracy ledger (worst error against the exact oracle)")
    print("\n".join(lines))
    assert set(worst) == set(BUDGETS)
    over = {key: worst[key] for key in BUDGETS
            if not worst[key] <= BUDGETS[key]}
    assert not over, f"over budget: {over}"
