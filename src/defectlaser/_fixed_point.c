/* The self-consistent phonon number n = N_b(G(n)) of steadystate.py.

   nb_map transcribes GainCoefficients.terms down to N_b, and the one
   entry, ``fixed_point``, transcribes solve_nb_fixed_point's loop (damped
   steps, Aitken every third step, the exact-cycle exit, bracket growth
   and bisection to adjacent floats), operation for operation as CPython
   3.11 evaluates them, so every report is bit-identical to the Python
   loop's (the tests pin this against the loop on the running
   interpreter).  The complex quotient is _cx.h's.

   The kernel keeps only finite arithmetic: where an abs or a square is
   not finite it faults, so every infinity and NaN is the Python loop's.
   The map calls the libm functions CPython calls, so it gets their bits
   from the same libm: exp (math.exp), hypot (abs of a complex, through
   _Py_c_abs) and pow (float ** 2, through float_pow's errno test).  The
   library leaves the three undefined, so they resolve to the
   interpreter's own libm.  Build with -fno-builtin: gcc otherwise folds
   pow(x, 2.0) into x * x, which differs from libm pow in the last bit
   for about one input in a thousand.  fabs clears the sign bit through a
   union, not a call, so no other function is called.

   Arguments: w, the 16 coefficients (their order is set in
   steadystate.py) followed by room for the five outputs; tol and
   max_iter, steadystate._TOL and _MAX_ITER.  The loop starts at 0.  On
   return w[16..20] hold n_b_star, residual, iterations, converged and
   whether the bisection ran.

   Returns 1, or 0 where an abs or a square is not finite, where CPython
   raises (a singular elimination, a zero defect denominator) or where
   the cycle test would outgrow its table: the caller then replays the
   Python loop, which raises or answers the same. */

#include <errno.h>
#include <float.h>
#include <stdint.h>

#include "_cx.h"

enum { ALPHA0, ALPHA_N, DG2, DG_DIV, NUMP_RE, NUMP_IM, NUMM_RE, NUMM_IM,
       G0, G0_PUMP, G_D, TLS_DEN0, TLS_DEN_N, GD_NUM, GAMMA_M, SQRT8, NCOEF };

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

/* abs(z) ** 2 of a Python complex (_Py_c_abs, then float_pow); a fault
   where it raises or is not finite */
INLINE double abs_sq(cx z, int *fault)
{
    const double h = hypot(z.re, z.im);
    errno = 0;
    const double r = pow(h, 2.0);
    if (errno == 0 ? !isfinite_(r) : !(errno == ERANGE && r == 0.0))
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
    const cx denom = C(c[SQRT8] * alpha, c[DG_DIV]); /* terms' divisor */
    const double delta_n =
        abs_sq(quot(C(c[NUMP_RE], c[NUMP_IM]), denom), fault)
        - abs_sq(quot(C(c[NUMM_RE], c[NUMM_IM]), denom), fault);
    double Gd = 0.0;
    if (c[G_D] != 0.0) { /* terms' tls_den is None at g_d = 0 */
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
INLINE int report(double *out, double tol, int64_t evaluations,
                  double n, double fn, int bisection)
{
    const double residual = fabs_(fn - n);
    out[0] = n;
    out[1] = residual;
    out[2] = (double)(evaluations - 1);
    out[3] = residual <= tol * max1(n);
    out[4] = bisection;
    return 1;
}

int fixed_point(double *w, double tol, int64_t max_iter)
{
    const double *c = w;
    double *out = w + NCOEF, window[3], starts[STARTS];
    double n = 0.0, peak = 0.0, fn, lo, hi, mid;
    int64_t it, n_starts = 0, evaluations = 0;
    int fault = 0;

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
            return report(out, tol, evaluations, n, fn, 0);
        if (it == max_iter)
            break;
        if (!isfinite_(fn))
            n = fn > 0.0 ? (1e300 < fn ? 1e300 : fn) : 0.0;
        else
            n = (1.0 - RELAXATION) * n + RELAXATION * fn;
        peak = peak < n ? n : peak; /* max(peak, n) */
        window[it % 3] = n;
        if (it % 3 == 2) {
            const double x0 = window[0], x1 = window[1], x2 = window[2];
            const double d1 = x1 - x0, d2 = x2 - x1;
            const double dd = d2 - d1;
            if (dd != 0.0 && isfinite_(dd)) {
                const double cand = x2 - d2 * d2 / dd;
                if (isfinite_(cand) && cand >= 0.0) {
                    n = cand;
                    peak = peak < n ? n : peak;
                }
            }
        }
    }

bisect:
    lo = 0.0;
    hi = max1(2.0 * peak);
    for (;;) {
        fn = nb_map(c, hi, &fault);
        if (fault)
            return 0;
        if (fn < hi)
            break;
        evaluations++;
        if ((hi = 8.0 * hi) > 1e300)
            return report(out, tol, evaluations, hi, HUGE_VAL, 1);
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
    }
    evaluations++;
    fn = nb_map(c, mid, &fault);
    if (fault)
        return 0;
    return report(out, tol, evaluations, mid, fn, 1);
}
