/* Fixed-step classical RK4 for the two mean-field models of dynamics.py.

   Each model's right-hand side transcribes its Python ``rhs`` closure, and
   the stepper transcribes ``_run_rk4``, so every trajectory is
   bit-identical to the Python loop (TestCompiledKernel pins this against
   the loop on the running interpreter):

   - operations run left to right, one rounding each, with CPython's
     complex arithmetic (_cx.h), and the reduced closure's real forms;
   - a real factor x scales both parts of a (scal, iscal) and a real addend
     shifts .re only (addr).  CPython 3.11 promotes x to (x, 0.0) and adds
     the terms -0.0 a.im and 0.0 a.re (or 0.0 to a.im).  For finite a they
     change no nonzero value, so every nonzero value is the loop's and only
     the sign of an exact zero can differ; where a part of a is not finite,
     the kernel's result has a part that is not finite too, so the step
     fails mag2 < 1e250 in both loops.  No division reads a zero's sign:
     q is built from squares;
   - the coupling k = i kx / 2 (c[4] of the full model, c[1] of the
     reduced one) has a zero real part, so k x is iscal(k.im, x) and
     k dn x is iscal(dn k.im, x).  CPython forms (+-0 x.re - k.im x.im,
     +-0 x.im + k.im x.re): the dropped terms, like the promotion's, can
     change only the sign of an exact zero.  integrate checks the premise
     once a call: a k whose real part is not == 0.0 (NaN from an
     overflowing kx) returns 0.  TestCompiledKernel pins both, with
     starts whose parts underflow next to k and with hand-made k;
   - no such sign reaches a state: y + t rounds to -0.0 only when y and t
     are both -0.0, so from a start with no -0.0 part no state or stage
     has one, and adding a signed zero to a part that is not -0.0 gives the
     same bits.  A start with a -0.0 part returns 0 (the loop runs): there
     an exact zero's sign can differ from the second step on;
   - every component steps as a complex number.  sigma_z and the reduced
     delta_n, floats in Python, enter as (x, +0.0) and rhs returns F(x'):
     scal(hh, F(x')) = (hh x', +0.0) and sums keep +0.0, so .re is the
     Python float; rhs reads only .re of these components.

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
   singular supermode elimination), for a start with a -0.0 part and for
   a coupling whose real part is not 0; the caller then replays the
   Python loop, which raises where CPython does. */

#include <stdint.h>

#include "_cx.h"

/* x a, i x a and a + x for a real x, without CPython's 0.0 terms */
INLINE cx scal(double x, cx a) { return C(x * a.re, x * a.im); }
INLINE cx iscal(double x, cx a) { return C(-(x * a.im), x * a.re); }
INLINE cx addr(cx a, double x) { return C(a.re + x, a.im); }

INLINE int negzero(double x) { return x == 0.0 && 1.0 / x < 0.0; }

/* the full model's rhs; c = (cp, cm, cb, cs, k, drv, gd, gq) */
INLINE int rhs_full(const cx *c, const cx *y, cx *k)
{
    const cx ap = y[0], am = y[1], b = y[2], sm = y[3];
    const double sz = y[4].re, ki = c[4].im, drv = c[5].re, gd = c[6].re,
                 gq = c[7].re;
    k[0] = addr(add(mul(c[0], ap), mul(iscal(ki, am), b)), drv);
    k[1] = addr(add(mul(c[1], am), mul(iscal(ki, ap), conj_(b))), drv);
    k[2] = sub(add(mul(c[2], b), mul(iscal(ki, conj_(am)), ap)),
               iscal(gd, sm));
    k[3] = add(mul(c[3], sm), scal(sz, iscal(gd, b)));
    k[4] = F(-2.0 * gq * (sz + 1.0) + 4.0 * gd * mul(conj_(sm), b).im);
    return 0;
}

/* the reduced model's rhs, with integrate_reduced's closure: the drive and
   delta_n as real closed forms over one division eps^2 / q (no quotient);
   c = (cpp, k, cb, cs, alpha0, alpha_n, dg2, eps^2, gamma, J, 2 gamma
   Delta^2, gamma Delta kx, 2 J Delta, J kx, gamma kx, gd, gq); flag = full
   closure */
INLINE int rhs_reduced(const cx *c, int flag, const cx *y, cx *k)
{
    const cx p = y[0], b = y[1], sm = y[2];
    const double ki = c[1].im, gd = c[15].re, gq = c[16].re, sz = y[3].re;
    double dn = y[4].re;

    const double alpha = c[4].re + c[5].re * (b.re * b.re + b.im * b.im);
    const double q = alpha * alpha + c[6].re;
    if (q == 0.0) /* SingularParameterError */
        return 1;
    const double s = c[7].re / q;
    if (flag)
        dn = s * (c[12].re - c[13].re * b.re - c[14].re * b.im);
    const cx drive = C(s * (c[8].re * alpha + c[10].re - c[11].re * b.re),
                       -(s * (c[9].re * alpha + c[11].re * b.im)));
    k[0] = add(sub(mul(c[0], p), iscal(dn * ki, b)), drive);
    k[1] = sub(add(mul(c[2], b), iscal(ki, p)), iscal(gd, sm));
    k[2] = add(mul(c[3], sm), scal(sz, iscal(gd, b)));
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
        s[j] = add(y[j], scal(hh, k[j]));
}

INLINE int64_t rk4(int reduced, const cx *restrict c, int flag,
                   const cx *restrict y0, double h, int64_t n, int64_t stride,
                   cx *restrict states)
{
    const double h2 = 0.5 * h, h6 = h / 6.0;
    cx y[5], s[5], k1[5], k2[5], k3[5], k4[5];
    int64_t i, r = 1;

    for (int j = 0; j < 5; j++)
        if (negzero(y0[j].re) || negzero(y0[j].im))
            return 0;
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
            y[j] = add(y[j], scal(h6, add(add(k1[j], scal(2.0,
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
    if (!(c[model == 0 ? 4 : 1].re == 0.0)) /* k = i kx / 2, or the loop */
        return 0;
    if (model == 0)
        return rk4(0, c, 0, y0, h, n, stride, states);
    return rk4(1, c, model == 2, y0, h, n, stride, states);
}
