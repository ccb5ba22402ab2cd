/* Fixed-step classical RK4 for the two mean-field models of dynamics.py.

   Each model's right-hand side transcribes its Python ``rhs`` closure, and
   the stepper transcribes ``_run_rk4``, operation for operation as CPython
   3.11 evaluates them, so every trajectory is bit-identical to the Python
   loop (the tests pin this against the loop on the running interpreter):

   - operations run left to right, one rounding each (build with
     -ffp-contract=off, so no multiply-add is fused);
   - a float operand of a complex operation is promoted to (x, 0.0) and the
     operation is CPython's _Py_c_sum, _Py_c_diff, _Py_c_prod or _Py_c_quot;
   - every component steps as a complex number.  sigma_z and the reduced
     delta_n, floats in Python, enter as (x, +0.0) and rhs returns F(x'):
     with h > 0, mul(F(hh), k) = (hh x' - 0.0 0.0, hh 0.0 + 0.0 x') =
     (hh x', +0.0) and sums keep +0.0, so .re is the Python float.  .im
     turns NaN (0.0 inf) only once a .re is infinite, which fails
     mag2 < 1e250 in both loops; rhs reads only .re of these components.

   Every helper is forced inline, so each model's branch of the one entry,
   ``integrate``, compiles to its own stepper with the model's right-hand
   side inlined.  The build is -O3: without -ffast-math gcc neither
   reassociates nor contracts, and its vectoriser keeps each operation's
   order, so the bits stay CPython's.

   Arguments: the model (0 full, 1 reduced with frozen delta_n, 2 reduced
   with the full closure), its complex coefficients (their order is set in
   dynamics.py), y0 (5 complex), h, the number of steps n, the stride, then
   states (rows x 5 complex) to fill; the caller sizes the rows as
   1 + ceil(n / stride) and lays out their times.  Row r holds the state
   after step r * stride, and the last row the state after step n.

   Returns n when the run finished, and -i when the squared norm of the
   state after step i was not < 1e250 (that state is not stored; rows 0 to
   (i - 1) / stride are).  Returns 0 where CPython raises instead (a
   singular supermode elimination): the caller then replays the Python
   loop, which raises the same exception. */

#include <math.h>
#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

typedef struct { double re, im; } cx;

INLINE cx C(double re, double im) { cx r; r.re = re; r.im = im; return r; }
INLINE cx F(double x) { return C(x, 0.0); } /* float operand, promoted */
INLINE cx add(cx a, cx b) { return C(a.re + b.re, a.im + b.im); }
INLINE cx sub(cx a, cx b) { return C(a.re - b.re, a.im - b.im); }
INLINE cx mul(cx a, cx b)
{
    return C(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);
}
INLINE cx conj_(cx a) { return C(a.re, -a.im); }

/* _Py_c_quot without its zero-divisor branch, which no caller reaches.
   Every divisor is (sqrt 2, 0) or sqrt 8 (alpha - 2i gamma Delta), and
   the latter only after alpha^2 + 4 Delta^2 gamma^2 != 0 has passed: if
   alpha != 0 its real part sqrt 8 alpha is nonzero (sqrt 8 > 1, so it
   cannot underflow); if alpha = 0 the check gives 4 Delta^2 gamma^2 != 0,
   so 2 gamma Delta and the imaginary part are nonzero.  A NaN divisor
   takes the last branch, as in CPython. */
INLINE cx quot(cx a, cx b)
{
    const double abs_br = b.re < 0 ? -b.re : b.re;
    const double abs_bi = b.im < 0 ? -b.im : b.im;
    if (abs_br >= abs_bi) {
        const double ratio = b.im / b.re;
        const double denom = b.re + b.im * ratio;
        return C((a.re + a.im * ratio) / denom, (a.im - a.re * ratio) / denom);
    }
    if (abs_bi >= abs_br) {
        const double ratio = b.re / b.im;
        const double denom = b.re * ratio + b.im;
        return C((a.re * ratio + a.im) / denom, (a.im * ratio - a.re) / denom);
    }
    return C(NAN, NAN);
}

static const cx I = {0.0, 1.0};

/* the full model's rhs; c = (cp, cm, cb, cs, k, drv, gd, gq) */
INLINE int rhs_full(const cx *c, const cx *y, cx *k)
{
    const cx ap = y[0], am = y[1], b = y[2], sm = y[3];
    const double sz = y[4].re, drv = c[5].re, gd = c[6].re, gq = c[7].re;
    k[0] = add(add(mul(c[0], ap), mul(mul(c[4], am), b)), F(drv));
    k[1] = add(add(mul(c[1], am), mul(mul(c[4], ap), conj_(b))), F(drv));
    k[2] = sub(add(mul(c[2], b), mul(mul(c[4], conj_(am)), ap)),
               mul(mul(I, F(gd)), sm));
    k[3] = add(mul(c[3], sm), mul(mul(mul(I, F(gd)), b), F(sz)));
    k[4] = F(-2.0 * gq * (sz + 1.0) + 4.0 * gd * mul(conj_(sm), b).im);
    return 0;
}

/* the reduced model's rhs, with GainCoefficients.supermodes(|b|^2, b) as
   the closure; c = (cpp, k, cb, cs, dg_im, x_plus, x_minus, kx, eps_l, gd,
   gq, sqrt 2, alpha0, alpha_n, dg2, sqrt 8); flag = full closure */
INLINE int rhs_reduced(const cx *c, int flag, const cx *y, cx *k)
{
    const cx p = y[0], b = y[1], sm = y[2];
    const double kx = c[7].re, eps = c[8].re, gd = c[9].re, gq = c[10].re;
    const double sz = y[3].re;
    double dn = y[4].re;

    const double alpha = c[12].re + c[13].re * (b.re * b.re + b.im * b.im);
    if (alpha * alpha + c[14].re == 0.0) /* SingularParameterError */
        return 1;
    const cx denom = mul(F(c[15].re), sub(F(alpha), c[4]));
    const cx ap = quot(mul(F(eps), add(c[5], mul(mul(I, F(kx)), b))), denom);
    const cx am = quot(mul(F(eps), add(c[6], mul(mul(I, F(kx)), conj_(b)))),
                       denom);
    if (flag)
        dn = (ap.re * ap.re + ap.im * ap.im) - (am.re * am.re + am.im * am.im);
    const cx drive = quot(add(mul(F(eps), ap), mul(F(eps), conj_(am))),
                          F(c[11].re));
    k[0] = add(sub(mul(c[0], p),
                   mul(mul(mul(mul(I, F(0.5)), F(kx)), F(dn)), b)), drive);
    k[1] = sub(add(mul(c[2], b), mul(c[1], p)), mul(mul(I, F(gd)), sm));
    k[2] = add(mul(c[3], sm), mul(mul(mul(I, F(gd)), b), F(sz)));
    k[3] = F(-2.0 * gq * (sz + 1.0) + 4.0 * gd * mul(conj_(sm), b).im);
    k[4] = F(0.0);
    return 0;
}

/* the model's rhs at y; nonzero where Python raises */
INLINE int rhs(int reduced, const cx *c, int flag, const cx *y, cx *k)
{
    return reduced ? rhs_reduced(c, flag, y, k) : rhs_full(c, y, k);
}

/* s = y + hh * k */
INLINE void stage(const cx *y, double hh, const cx *k, cx *s)
{
    for (int j = 0; j < 5; j++)
        s[j] = add(y[j], mul(F(hh), k[j]));
}

INLINE int64_t rk4(int reduced, const cx *c, int flag, const cx *y0,
                   double h, int64_t n, int64_t stride, cx *states)
{
    const double h2 = 0.5 * h, h6 = h / 6.0;
    cx y[5], s[5], k1[5], k2[5], k3[5], k4[5];
    int64_t i, r = 1;

    for (int j = 0; j < 5; j++)
        y[j] = states[j] = y0[j];
    for (i = 1; i <= n; i++) {
        if (rhs(reduced, c, flag, y, k1))
            return 0;
        stage(y, h2, k1, s);
        if (rhs(reduced, c, flag, s, k2))
            return 0;
        stage(y, h2, k2, s);
        if (rhs(reduced, c, flag, s, k3))
            return 0;
        stage(y, h, k3, s);
        if (rhs(reduced, c, flag, s, k4))
            return 0;
        for (int j = 0; j < 5; j++)
            y[j] = add(y[j], mul(F(h6), add(add(k1[j], mul(F(2.0),
                       add(k2[j], k3[j]))), k4[j])));
        double mag2 = y[0].re * y[0].re + y[0].im * y[0].im;
        for (int j = 1; j < 5; j++)
            mag2 = mag2 + y[j].re * y[j].re + y[j].im * y[j].im;
        if (!(mag2 < 1e250))
            return -i;
        if (i % stride == 0 || i == n) {
            for (int j = 0; j < 5; j++)
                states[5 * r + j] = y[j];
            r++;
        }
    }
    return n;
}

int64_t integrate(int model, const cx *c, const cx *y0, double h, int64_t n,
                  int64_t stride, cx *states)
{
    if (model == 0)
        return rk4(0, c, 0, y0, h, n, stride, states);
    return rk4(1, c, model == 2, y0, h, n, stride, states);
}
