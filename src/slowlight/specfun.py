"""Special functions for the statistical sums: Bose-Einstein polylogarithms
g_nu(f) = sum_{l>=1} f^l / l^nu of a float (a Horner direct series for
f <= 1/2, Robinson's expansion in alpha = -ln f above), partial tails of g_nu
(to about 1e-15 of g_nu(f), not of the tail), the Faddeeva function
w(y) = exp(-y^2)(1 + erf(iy)) with its large-|y| expansion, and inversion of
the fugacity relations g_nu(f) = g_nu(1) (Tc/T)^nu by Newton's method.

The zeta values behind g_nu(1) and Robinson's expansion come from Borwein's
series, so importing this module imports no scipy; scipy.special is imported
on the first exact Faddeeva evaluation or Euler-Maclaurin tail.  numpy, too,
is imported only by the Faddeeva functions and by polylog_tail's head sum:
polylog runs on math alone.
"""

import math
from functools import lru_cache

from .errors import DomainError, SeriesCapError

SQRT_PI = math.sqrt(math.pi)

# Borwein's series for the alternating zeta function (P. Borwein, "An
# efficient algorithm for the Riemann zeta function", CMS Conf. Proc. 27,
# 2000): eta(s) = sum_{k<n} w_k (k+1)^-s with w_k = (-1)^k (1 - d_k/d_n) and
# the integers d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!); for real s
# the truncation error is about 3 (3 + sqrt 8)^-n = 1e-30 at n = 40
_BORWEIN_TERMS = 40


def _borwein_weights(n):
    partial, d = 0, []
    for i in range(n + 1):
        partial += n * math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        d.append(partial)
    # integer true division rounds each weight correctly
    return tuple((-1) ** k * (d[n] - d[k]) / d[n] for k in range(n))


_BORWEIN_WEIGHTS = _borwein_weights(_BORWEIN_TERMS)


def _zeta(s):
    """Riemann zeta(s) for real s != 1: Borwein's series for s >= 1/2, the
    reflection formula below, with zeta(0) = -1/2 and the zeros at the
    negative even integers exact.  Within 2.4e-14 of 40-digit mpmath at every
    s = nu - k of the polylog tables (worst far out on the negative axis)."""
    if s >= 0.5:
        eta = math.fsum(w * (k + 1.0) ** -s for k, w in enumerate(_BORWEIN_WEIGHTS))
        return eta / (1.0 - 2.0 ** (1.0 - s))
    if s == 0.0:
        return -0.5
    if s % 2.0 == 0.0:
        return 0.0
    return 2.0**s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s) * math.gamma(1.0 - s) * _zeta(1.0 - s)


# Riemann zeta values g_nu(1) used by the thermodynamic relations
ZETA_3_2 = _zeta(1.5)
ZETA_2 = _zeta(2.0)
ZETA_3 = _zeta(3.0)

# g_nu(f) for f <= 1/2 truncates the direct series after 63 terms (remainder
# below 2^-63 relative); above 1/2 it sums 24 terms of Robinson's expansion,
# whose terms fall as (alpha/2 pi)^k with alpha = -ln f <= ln 2
_DIRECT_TERMS = 63
# a float f <= 1/2 sums only l <= 1 + ceil(_DIRECT_LOG_TOL / -ln f), so that
# the first term dropped is below f e^-36.8 = 1e-16 f
_DIRECT_LOG_TOL = 36.8
_ROBINSON_TERMS = 24

# a polylog tail after fewer head terms is g_nu less the head, after more an
# Euler-Maclaurin sum: past 2000 terms the Doppler series weights the tail by
# |A/zeta|^(2k+1) > 0.64^(2k+1), which would magnify the subtraction's ulp
_EM_HEAD_TERMS = 2000

# large-|y| expansion of w (Abramowitz & Stegun 7.1.23), for Im y > 0:
# w(y) ~ (i/sqrt(pi)) sum_k c_k y^-(2k+1) with c_k = (2k-1)!!/2^k, and
# dw/dy ~ -(i/sqrt(pi)) sum_k (2k+1) c_k y^-(2k+2); every product is exact
W_LARGE_Y = (1.0, 0.5, 0.75, 1.875, 6.5625)

# |y| boundary above which dw/dy = -2 y w + 2i/sqrt(pi) is evaluated through
# the large-|y| series instead (the direct form loses ~|y|^2 eps to
# cancellation; at 35 both branches are accurate to ~5e-13)
_W_PRIME_ASYMPTOTIC_RADIUS = 35.0

# below this target g_nu(f) = f (1 + f/2^nu + ...) rounds to f, so f = target
_BOLTZMANN_TARGET = 1e-17
# Newton's iteration for the fugacity stops once a step moves alpha = -ln f
# by at most this relative amount, or by a few ulp of f near 1 (2^-50), and
# fails after _NEWTON_STEPS steps (it takes at most 5)
_NEWTON_RTOL = 1e-9
_NEWTON_STEPS = 50


def _upper_gamma(s, z):
    """Upper incomplete gamma Gamma(s, z) for real s <= 1 and z > 0.

    Brings s into (0, 1] (or 0, handled by E1) and walks back down with
    Gamma(s-1, z) = (Gamma(s, z) - z^(s-1) e^(-z)) / (s-1).
    """
    if s > 1.0:
        raise ValueError("recursion written for s <= 1")
    steps = int(math.ceil(-s)) if s <= 0 else 0
    s0 = s + steps
    from scipy import special

    if s0 == 0.0:
        g = float(special.exp1(z))
    else:
        g = float(special.gammaincc(s0, z)) * float(special.gamma(s0))
    t = s0
    expz = math.exp(-z)
    for _ in range(steps):
        g = (g - z ** (t - 1.0) * expz) / (t - 1.0)
        t -= 1.0
    return g


def _em_tail(nu, f, l_start):
    """sum_{l > l_start} f^l / l^nu by Euler-Maclaurin (0 < f <= 1)."""
    length = float(l_start)
    alpha = -math.log(f) if f < 1.0 else 0.0
    if alpha == 0.0:
        integral = length ** (1.0 - nu) / (nu - 1.0)
    else:
        integral = alpha ** (nu - 1.0) * _upper_gamma(1.0 - nu, alpha * length)
    damp = math.exp(-alpha * length)
    h = damp * length**-nu
    hp = -damp * (alpha * length**-nu + nu * length ** -(nu + 1.0))
    hppp = -damp * (
        alpha**3 * length**-nu
        + 3.0 * alpha**2 * nu * length ** -(nu + 1.0)
        + 3.0 * alpha * nu * (nu + 1.0) * length ** -(nu + 2.0)
        + nu * (nu + 1.0) * (nu + 2.0) * length ** -(nu + 3.0)
    )
    return integral - h / 2.0 - hp / 12.0 + hppp / 720.0


def _check_polylog_args(nu, f):
    if not nu > 0.0:
        raise DomainError("polylog order must be positive, got %r" % nu)
    if not 0.0 <= f <= 1.0:
        raise DomainError("polylog argument must lie in [0, 1], got %r" % f)
    if f == 1.0 and nu <= 1.0:
        raise DomainError("polylog(nu<=1, 1) diverges")


@lru_cache(maxsize=32)
def _polylog_tables(nu):
    """Horner coefficients of g_nu, highest power first: the direct series
    l^-nu, and Robinson's zeta(nu-k)(-1)^k/k! with its leading-term factor
    (Gamma(1-nu), or (-1)^(n-1)/(n-1)! with the harmonic number H_(n-1) for
    integer nu = n, whose k = n-1 term is dropped)."""
    direct = tuple(float(l) ** -nu for l in range(_DIRECT_TERMS, 0, -1))
    n = int(nu) if float(nu).is_integer() else None
    robinson = tuple(
        _zeta(nu - k) * (-1.0) ** k / math.factorial(k) if nu - k != 1.0 else 0.0
        for k in range(_ROBINSON_TERMS - 1, -1, -1)
    )
    if n is None:
        return direct, robinson, math.gamma(1.0 - nu), None
    harmonic = math.fsum(1.0 / j for j in range(1, n))
    return direct, robinson, (-1.0) ** (n - 1) / math.factorial(n - 1), harmonic


def _horner(coefficients, x):
    """sum_k c_k x^k for the coefficients highest power first; x is a float
    or an array."""
    acc = 0.0 * x
    for c in coefficients:
        acc = acc * x + c
    return acc


def polylog(nu, f):
    """Bose-Einstein function g_nu(f) = sum_{l>=1} f^l / l^nu, f in [0, 1].

    f <= 1/2 sums the direct series, only as many terms as reach 1e-16
    relative; above it, Robinson's expansion in alpha = -ln f,
    g_nu = Gamma(1-nu) alpha^(nu-1) + sum_k zeta(nu-k) (-alpha)^k / k!,
    with (-alpha)^(n-1)/(n-1)! (H_(n-1) - ln alpha) in place of the leading
    and the k = n-1 terms for integer nu = n (J. E. Robinson, Phys. Rev. 83,
    678 (1951)).  Both are Horner polynomials over per-order tables.
    """
    f = float(f)
    # the full check, which names the fault, only where one of its tests fails
    if not (nu > 0.0 and 0.0 <= f <= 1.0) or (f == 1.0 and nu <= 1.0):
        _check_polylog_args(nu, f)
    direct, robinson, lead, harmonic = _polylog_tables(nu)
    if f <= 0.5:
        if f == 0.0:
            return 0.0
        terms = min(_DIRECT_TERMS, math.ceil(_DIRECT_LOG_TOL / -math.log(f)) + 1)
        return _horner(direct[-terms:], f) * f
    alpha = -math.log(f)
    total = _horner(robinson, alpha)
    if alpha == 0.0:
        return total
    leading = lead * alpha ** (nu - 1.0)
    return total + (leading if harmonic is None else leading * (harmonic - math.log(alpha)))


def polylog_tail(nu, f, l_start):
    """Partial tail sum_{l > l_start} f^l / l^nu (l_start = 0 gives g_nu).

    Below 2000 head terms it is polylog(nu, f) less the head; from 2000 on,
    an Euler-Maclaurin sum with an upper-incomplete-gamma integral.  The
    error is about 1e-15 relative to g_nu(f), not to the tail.
    """
    _check_polylog_args(nu, f)
    if not (l_start >= 0 and float(l_start).is_integer()):
        raise DomainError("polylog tail start must be a nonnegative integer, got %r" % l_start)
    if f == 0.0:
        return 0.0
    if l_start >= _EM_HEAD_TERMS:
        return _em_tail(nu, f, l_start)
    import numpy as np

    l = np.arange(1, l_start + 1, dtype=float)
    return polylog(nu, f) - float((f**l / l**nu).sum())


def _finite_w(out, y, shape, name):
    """out in the shape of the input y (a complex for a scalar), or a
    DomainError naming the first y where it is not finite."""
    import numpy as np

    bad = ~np.isfinite(out)
    if bad.any():
        raise DomainError("%s is not finite at y = %r" % (name, complex(y[bad][0])))
    return complex(out[0]) if shape == () else out.reshape(shape)


def faddeeva_w(y):
    """Faddeeva function w(y) = exp(-y^2)(1 + erf(iy)), on a complex or an
    array.  A w that is not finite (deep below the real axis) is a DomainError.
    """
    import numpy as np
    from scipy import special

    arr = np.asarray(y, dtype=complex)
    a = np.atleast_1d(arr)
    return _finite_w(special.wofz(a), a, arr.shape, "w")


def faddeeva_w_prime(y):
    """dw/dy = -2 y w(y) + 2i/sqrt(pi), stabilized at large |y|.

    Beyond |y| = 35 with Im y >= 0 the identity is evaluated through the
    five-term expansion -(i/sqrt(pi)) sum_k (2k+1) W_LARGE_Y[k] y^-(2k+2) to
    avoid the cancellation of the two O(1) terms.  A w' that is not finite
    is a DomainError.
    """
    import numpy as np

    arr = np.asarray(y, dtype=complex)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    big = (np.abs(a) >= _W_PRIME_ASYMPTOTIC_RADIUS) & (a.imag >= 0.0)
    if big.any():
        y2 = 1.0 / (a[big] * a[big])
        series = _horner([(2 * k + 1) * c for k, c in reversed(list(enumerate(W_LARGE_Y)))], y2)
        out[big] = (-1j / SQRT_PI) * y2 * series
    small = ~big
    if small.any():
        from scipy import special

        with np.errstate(over="ignore", invalid="ignore"):
            out[small] = -2.0 * a[small] * special.wofz(a[small]) + 2j / SQRT_PI
    return _finite_w(out, a, arr.shape, "dw/dy")


def fugacity_from_temperature(geometry_kind, t_over_tc):
    """Invert g_{3/2}(f) = g_{3/2}(1) (Tc/T)^{3/2} (box) or
    g_3(f) = g_3(1) (Tc/T)^3 (trap) for the fugacity f, a float in [0, 1];
    f = 1 below Tc.

    Newton's method on ln g_nu in x = alpha = -ln f (trap) or x = sqrt(alpha)
    (box), in which g_nu is smooth at Tc, with dg_nu/dalpha = -g_{nu-1}.  It
    starts from the larger of two underestimates: the tangent at Tc,
    g_nu ~ g_nu(1) - g_{nu-1}(1) alpha (trap) or g_{3/2}(1) - 2 sqrt(pi) x
    (box), and the Boltzmann limit g_nu ~ f.  A last Newton step in f itself
    puts f within a few ulp of the root.  f = 1 where exp(-alpha) rounds to
    1, and f = target where the target is so small that g_nu(f) rounds to f.
    """
    if geometry_kind not in ("box", "trap"):
        raise ValueError("geometry_kind must be 'box' or 'trap', got %r" % geometry_kind)
    if not t_over_tc > 0.0:
        raise DomainError("t_over_tc must be positive, got %r" % t_over_tc)
    if t_over_tc <= 1.0:
        return 1.0
    if geometry_kind == "box":
        nu, power, g_at_one, slope_at_one = 1.5, 2, ZETA_3_2, 2.0 * SQRT_PI
    else:
        nu, power, g_at_one, slope_at_one = 3.0, 1, ZETA_3, ZETA_2
    target = float(g_at_one * t_over_tc**-nu)
    if target < _BOLTZMANN_TARGET:
        return target
    log_target = math.log(target)
    x = max((g_at_one - target) / slope_at_one, max(-log_target, 0.0) ** (1.0 / power))
    alpha = x**power
    for _ in range(_NEWTON_STEPS):
        f = math.exp(-alpha)
        if f == 1.0:
            return 1.0
        g = polylog(nu, f)
        # d ln g / dx = -g_{nu-1}/g dalpha/dx
        x += (math.log(g) - log_target) * g / (polylog(nu - 1.0, f) * power * x ** (power - 1))
        alpha, previous = x**power, alpha
        if abs(alpha - previous) <= _NEWTON_RTOL * alpha + 2.0**-50:
            break
    else:
        raise SeriesCapError("fugacity solve did not converge at T/Tc = %r" % t_over_tc)
    f = math.exp(-alpha)
    if f == 1.0:
        return 1.0
    # dg_nu/df = g_{nu-1}/f
    f -= (polylog(nu, f) - target) * f / polylog(nu - 1.0, f)
    return min(f, 1.0)
