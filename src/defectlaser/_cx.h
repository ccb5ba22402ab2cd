/* CPython 3.11's complex arithmetic, shared by the package's C kernels
   (_rk4.c and _fixed_point.c).

   An operation is CPython's _Py_c_sum, _Py_c_diff, _Py_c_prod or
   _Py_c_quot, one rounding per operation, left to right (the kernels are
   built with -ffp-contract=off, so no multiply-add is fused).  F promotes
   a float operand to (x, 0.0) as CPython 3.11 does, for _fixed_point.c;
   _rk4.c scales by a real factor without it and uses F only to hold its
   real components.  Every helper is forced inline. */

#ifndef DEFECTLASER_CX_H
#define DEFECTLASER_CX_H

#include <math.h>

#define INLINE static inline __attribute__((always_inline))

typedef struct { double re, im; } cx;

INLINE cx C(double re, double im) { cx r; r.re = re; r.im = im; return r; }
INLINE cx F(double x) { return C(x, 0.0); } /* a float as a complex */
INLINE cx add(cx a, cx b) { return C(a.re + b.re, a.im + b.im); }
INLINE cx sub(cx a, cx b) { return C(a.re - b.re, a.im - b.im); }
INLINE cx mul(cx a, cx b)
{
    return C(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);
}
INLINE cx conj_(cx a) { return C(a.re, -a.im); }

/* _Py_c_quot without its zero-divisor branch, which no caller reaches.
   Every divisor is sqrt 8 (alpha - 2i gamma Delta) (_fixed_point.c),
   reached only after alpha^2 + 4 Delta^2 gamma^2 != 0 has passed: if
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

#endif
