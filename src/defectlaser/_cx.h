/* CPython 3.11's complex arithmetic, shared by the package's C kernels
   (_rk4.c and _fixed_point.c).

   An operation is CPython's _Py_c_sum, _Py_c_diff, _Py_c_prod or
   _Py_c_quot, one rounding per operation, left to right (the kernels are
   built with -ffp-contract=off, so no multiply-add is fused).  F holds a
   real component of _rk4.c as (x, 0.0).  Every helper is forced inline. */

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

/* _Py_c_quot without its zero-divisor and NaN-divisor branches.  Every
   divisor is terms' sqrt 8 alpha + i dg_div (_fixed_point.c), dg_div
   finite, reached only after alpha^2 + 4 Delta^2 gamma^2 != 0 has
   passed: if alpha != 0 its real part sqrt 8 alpha is nonzero (sqrt 8 >
   1, so it cannot underflow); if alpha = 0 the check gives 4 Delta^2
   gamma^2 != 0, so 2 gamma Delta and the imaginary part are nonzero.  An
   infinite alpha takes the first branch; a NaN one (alpha_n = 0 at an
   infinite n) the second, whose NaN quotient the kernel faults on. */
INLINE cx quot(cx a, cx b)
{
    const double abs_br = b.re < 0 ? -b.re : b.re;
    const double abs_bi = b.im < 0 ? -b.im : b.im;
    if (abs_br >= abs_bi) {
        const double ratio = b.im / b.re;
        const double denom = b.re + b.im * ratio;
        return C((a.re + a.im * ratio) / denom, (a.im - a.re * ratio) / denom);
    }
    const double ratio = b.re / b.im;
    const double denom = b.re * ratio + b.im;
    return C((a.re * ratio + a.im) / denom, (a.im * ratio - a.re) / denom);
}

#endif
