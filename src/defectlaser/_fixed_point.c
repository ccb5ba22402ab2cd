/* The self-consistent phonon number n = N_b(G(n)) of steadystate.py.

   nb_map transcribes GainCoefficients.terms down to N_b, and the one
   entry, ``fixed_point``, transcribes solve_nb_fixed_point's loop (damped
   steps, Aitken every third step, the exact-cycle exit, bracket growth
   and bisection to adjacent floats), operation for operation as CPython
   3.11 evaluates them, so every report is bit-identical to the Python
   loop's (the tests pin this against the loop on the running
   interpreter).  The complex arithmetic is _cx.h's.

   The map calls the libm functions CPython calls, so it gets their bits
   from the same libm: exp (math.exp), hypot (abs of a complex, through
   _Py_c_abs) and pow (float ** 2, through float_pow's special cases and
   errno test).  The library leaves the three undefined, so they resolve
   to the interpreter's own libm.  Build with -fno-builtin: gcc otherwise
   folds pow(x, 2.0) into x * x, which differs from libm pow in the last
   bit for about one input in a thousand.  fabs clears the sign bit
   through a union, not a call, so no other function is called.

   Arguments: w, the 17 coefficients (their order is set in
   steadystate.py) followed by room for the five outputs and cap history
   entries; n_b0, tol and max_iter as the Python solver takes them.  On
   return w[17..21] hold n_b_star, residual, iterations, converged and
   whether the bisection ran, and w[22..] the history.

   Returns the length of the history, or 0 where CPython raises instead (a
   singular elimination, a zero defect denominator, an abs or a square
   that overflows) or where the history or the cycle test would outgrow
   its buffer: the caller then replays the Python loop, which raises or
   answers the same. */

#include <errno.h>
#include <float.h>
#include <stdint.h>

#include "_cx.h"

enum { ALPHA0, ALPHA_N, DG2, DG_RE, DG_IM, NUMP_RE, NUMP_IM, NUMM_RE,
       NUMM_IM, G0, G0_PUMP, G_D, TLS_DEN0, TLS_DEN_N, GD_NUM, GAMMA_M,
       SQRT8, NCOEF };

#define RELAXATION 0.5 /* steadystate._RELAXATION */
#define EXP_MAX 700.0  /* steadystate._EXP_MAX */
#define STARTS 1024    /* room for the damped loop's triple starts */

INLINE double fabs_(double x)
{
    union { double d; uint64_t u; } v;
    v.d = x;
    v.u &= ~(UINT64_C(1) << 63);
    return v.d;
}
INLINE int isfinite_(double x) { return fabs_(x) <= DBL_MAX; }
INLINE double max1(double x) { return x > 1.0 ? x : 1.0; } /* max(1.0, x) */

/* abs(z) of a Python complex (_Py_c_abs); a fault where it overflows */
INLINE double c_abs(cx z, int *fault)
{
    if (!isfinite_(z.re) || !isfinite_(z.im)) {
        if (z.re == HUGE_VAL || z.re == -HUGE_VAL
            || z.im == HUGE_VAL || z.im == -HUGE_VAL)
            return HUGE_VAL;
        return NAN;
    }
    const double r = hypot(z.re, z.im);
    if (!isfinite_(r))
        *fault = 1;
    return r;
}

/* x ** 2 of a Python float (float_pow); a fault where it raises */
INLINE double sq(double x, int *fault)
{
    if (x != x)
        return x;
    if (x == HUGE_VAL || x == -HUGE_VAL || x == 0.0)
        return x * x;
    if (x < 0.0)
        x = -x;
    if (x == 1.0)
        return 1.0;
    errno = 0;
    const double r = pow(x, 2.0);
    if (errno == 0 ? (r == HUGE_VAL || r == -HUGE_VAL)
                   : !(errno == ERANGE && r == 0.0))
        *fault = 1;
    return r;
}

/* N_b(G(n)), the last entry of GainCoefficients.terms(n) */
INLINE double nb_map(const double *c, double n, int *fault)
{
    const double alpha = c[ALPHA0] + c[ALPHA_N] * n;
    const double denom_sq = alpha * alpha + c[DG2];
    if (denom_sq == 0.0) { /* SingularParameterError */
        *fault = 1;
        return 0.0;
    }
    const cx denom = mul(F(c[SQRT8]), sub(F(alpha), C(c[DG_RE], c[DG_IM])));
    const double abs_plus = c_abs(quot(C(c[NUMP_RE], c[NUMP_IM]), denom),
                                  fault);
    const double abs_minus = c_abs(quot(C(c[NUMM_RE], c[NUMM_IM]), denom),
                                   fault);
    const double delta_n = sq(abs_plus, fault) - sq(abs_minus, fault);
    double Gd = 0.0;
    if (c[G_D] != 0.0) { /* defect_den is None at g_d = 0 */
        const double den = c[TLS_DEN0] + c[TLS_DEN_N] * n;
        if (den == 0.0) { /* SingularParameterError */
            *fault = 1;
            return 0.0;
        }
        Gd = c[GD_NUM] / den;
    }
    const double G = c[G0] * (delta_n - c[G0_PUMP] / denom_sq) + Gd;
    const double exponent = 2.0 * (G - c[GAMMA_M]) / c[GAMMA_M];
    return exponent > EXP_MAX ? HUGE_VAL : exp(exponent);
}

/* the report of solve_nb_fixed_point's ``report(n, fn, method)`` */
INLINE int64_t report(double *out, double tol, int64_t evaluations,
                      double n, double fn, int bisection, int64_t k)
{
    const double residual = fabs_(fn - n);
    out[0] = n;
    out[1] = residual;
    out[2] = (double)(evaluations - 1);
    out[3] = residual <= tol * max1(n);
    out[4] = bisection;
    return k;
}

int64_t fixed_point(double *w, double n_b0, double tol, int64_t max_iter,
                    int64_t cap)
{
    const double *c = w;
    double *out = w + NCOEF, *history = out + 5, starts[STARTS];
    double n = n_b0, fn, lo, hi, mid;
    int64_t it, k = 0, n_starts = 0, evaluations = 0;
    int fault = 0;

    if (cap < 1)
        return 0;
    history[k++] = n;
    for (it = 0; it <= max_iter; it++) {
        if (it % 3 == 0) { /* `n in starts`: the loop would repeat */
            for (int64_t i = 0; i < n_starts; i++)
                if (starts[i] == n)
                    goto bisect;
            if (n_starts == STARTS)
                return 0;
            starts[n_starts++] = n;
        }
        fn = nb_map(c, n, &fault);
        if (fault)
            return 0;
        evaluations++;
        if (fabs_(fn - n) <= tol * max1(n))
            return report(out, tol, evaluations, n, fn, 0, k);
        if (it == max_iter)
            break;
        if (!isfinite_(fn))
            n = fn > 0.0 ? (1e300 < fn ? 1e300 : fn) : 0.0;
        else
            n = (1.0 - RELAXATION) * n + RELAXATION * fn;
        if (k == cap)
            return 0;
        history[k++] = n;
        if (it % 3 == 2) {
            const double x0 = history[k - 3], x1 = history[k - 2];
            const double x2 = history[k - 1];
            const double d1 = x1 - x0, d2 = x2 - x1;
            const double dd = d2 - d1;
            if (dd != 0.0 && isfinite_(dd)) {
                const double cand = x2 - d2 * d2 / dd;
                if (isfinite_(cand) && cand >= 0.0) {
                    n = cand;
                    if (k == cap)
                        return 0;
                    history[k++] = n;
                }
            }
        }
    }

bisect:
    lo = 0.0;
    hi = history[0];
    for (int64_t i = 1; i < k; i++) /* max(history) */
        if (history[i] > hi)
            hi = history[i];
    hi = max1(2.0 * hi);
    for (;;) {
        fn = nb_map(c, hi, &fault);
        if (fault)
            return 0;
        if (fn < hi)
            break;
        evaluations++;
        if ((hi = 8.0 * hi) > 1e300)
            return report(out, tol, evaluations, hi, HUGE_VAL, 1, k);
    }
    evaluations++;
    while (lo < (mid = 0.5 * (lo + hi)) && mid < hi) {
        evaluations++;
        fn = nb_map(c, mid, &fault);
        if (fault)
            return 0;
        if (fn > mid)
            lo = mid;
        else
            hi = mid;
        if (k == cap)
            return 0;
        history[k++] = mid;
    }
    evaluations++;
    fn = nb_map(c, mid, &fault);
    if (fault)
        return 0;
    return report(out, tol, evaluations, mid, fn, 1, k);
}
