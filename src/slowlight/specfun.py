"""Special functions for the statistical sums: Bose-Einstein polylogarithms
g_nu(e^-alpha) = sum_{l>=1} e^(-l alpha) / l^nu of alpha = -ln f in [0, inf],
the Bose state every layer carries for the fugacity f (a double f rounds to 1
below alpha = 5e-17), by a Horner direct series for alpha >= ln 2 and
Robinson's expansion in alpha below, each cut to the length alpha needs, and
their pinhole-section averages; the Faddeeva function w(y) with its
large-|y| expansion; and the fugacity relations
g_nu(e^-alpha) = g_nu(1) (Tc/T)^nu solved for alpha (2 polylog calls).

The zeta values come from Borwein's series, so importing this module imports
no scipy; scipy.special (only its wofz) is imported on the first exact
Faddeeva evaluation, and numpy only by the Faddeeva functions.
"""

import math
import operator
from bisect import bisect_left
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
ZETA_1_2 = _zeta(0.5)

# g_nu(e^-alpha) for alpha >= ln 2 sums at most 63 terms of the direct series
# in f = e^-alpha (remainder below 2^-63 relative), only l <= 1 +
# ceil(_DIRECT_LOG_TOL / alpha) of them, so that the first term dropped is
# below f e^-36.8 = 1e-16 f; below ln 2 at most 24 terms of Robinson's
# expansion, whose terms fall as (alpha/2 pi)^k, only the K lowest powers for
# the smallest K whose dropped terms sum_{k>=K} |c_k| alpha^k stay below
# _ROBINSON_CUT (5 terms at alpha = 1e-3, 18 near ln 2 for nu = 3/2)
_LN2 = math.log(2.0)
_DIRECT_TERMS = 63
_DIRECT_LOG_TOL = 36.8
_ROBINSON_TERMS = 24
_ROBINSON_CUT = 2.0**-60

# large-|y| expansion of w (Abramowitz & Stegun 7.1.23), for Im y > 0:
# w(y) ~ (i/sqrt(pi)) sum_k c_k y^-(2k+1) with c_k = (2k-1)!!/2^k, and
# dw/dy ~ -(i/sqrt(pi)) sum_k (2k+1) c_k y^-(2k+2); every product is exact
W_LARGE_Y = (1.0, 0.5, 0.75, 1.875, 6.5625)

# |y| boundary above which dw/dy = -2 y w + 2i/sqrt(pi) is evaluated through
# the large-|y| series instead (the direct form loses ~|y|^2 eps to
# cancellation; at 35 both branches are accurate to ~5e-13)
_W_PRIME_ASYMPTOTIC_RADIUS = 35.0

# below this target g_nu(e^-alpha) = f (1 + f/2^nu + ...) rounds to f = e^-alpha
_BOLTZMANN_TARGET = 1e-17
# the fugacity start table holds y = -ln g_nu(e^-alpha) at the nodes
# w_i = sqrt(_START_ALPHA_MAX) (i/N)^2, i = 1..N, of w = sqrt(alpha), packed
# toward Tc; g_nu(e^-40) < _BOLTZMANN_TARGET, so they bracket every target
# but those within alpha = 9.3e-9 of Tc.  With N = 256 its cubic Hermite
# start is within 7e-9 alpha of the root (built in 0.6-1.1 ms, 25 kB)
_START_NODES = 256
_START_ALPHA_MAX = 40.0
# Newton's iteration for alpha stops once the step an evaluation implies
# would move alpha by at most this relative amount, or by 2^-50, above the
# eps g_nu/g_{nu-1} <= eps a double g_nu leaves in alpha: the step in alpha
# itself from that evaluation then squares the error left.  It fails after
# _NEWTON_STEPS evaluations; from the table start, and from the second-order
# start next to Tc, the first one stops it (2 polylog calls a solve)
_NEWTON_RTOL = 1e-8
_NEWTON_STEPS = 50


@lru_cache(maxsize=32)
def _polylog_tables(nu):
    """Horner coefficients of g_nu, highest power first, as the suffix tuples
    each length of sum reads: the direct series l^-nu (direct[K] holds its
    first K terms), and Robinson's zeta(nu-k)(-1)^k/k! cut to length (the
    edges and sums of _robinson_cuts), with its leading-term factor
    (Gamma(1-nu), or (-1)^(n-1)/(n-1)! with the harmonic number H_(n-1) for
    integer nu = n, whose k = n-1 term is dropped).  Built on first use of
    each order."""
    direct = tuple(float(l) ** -nu for l in range(_DIRECT_TERMS, 0, -1))
    n = int(nu) if float(nu).is_integer() else None
    robinson = tuple(
        _zeta(nu - k) * (-1.0) ** k / math.factorial(k) if nu - k != 1.0 else 0.0
        for k in range(_ROBINSON_TERMS - 1, -1, -1)
    )
    direct = tuple(direct[len(direct) - k :] for k in range(len(direct) + 1))
    edges, sums = _robinson_cuts(robinson)
    if n is None:
        return direct, edges, sums, math.gamma(1.0 - nu), None
    harmonic = math.fsum(1.0 / j for j in range(1, n))
    return direct, edges, sums, (-1.0) ** (n - 1) / math.factorial(n - 1), harmonic


def _robinson_cuts(robinson):
    """(edges, sums) for the Robinson coefficients c_k, highest power first:
    sums[i] holds the i+1 lowest powers, and edges[i] is the largest alpha at
    which the terms that length drops, sum_{k>i} |c_k| alpha^k, stay below
    _ROBINSON_CUT, found by Newton's method on their log in ln alpha (convex,
    so it falls to the edge from alpha = ln 2).  The last length holds up to
    ln 2, where Robinson's range ends, and its edge is inf."""
    sizes = [abs(c) for c in reversed(robinson)]

    def dropped(length, alpha):
        terms = [sizes[k] * alpha**k for k in range(length, len(sizes))]
        return sum(terms), sum(k * term for k, term in enumerate(terms, length))

    edges, sums = [], []
    for length in range(1, len(sizes) + 1):
        sums.append(robinson[len(robinson) - length :])
        alpha = math.log(2.0)
        excess, slope = dropped(length, alpha)
        if excess <= _ROBINSON_CUT:
            edges.append(math.inf)
            break
        for _ in range(100):
            step = math.log(excess / _ROBINSON_CUT) * excess / slope
            alpha *= math.exp(-step)
            excess, slope = dropped(length, alpha)
            if step <= 1e-14:
                break
        while excess > _ROBINSON_CUT:
            alpha = math.nextafter(alpha, 0.0)
            excess = dropped(length, alpha)[0]
        edges.append(alpha)
    return tuple(edges), tuple(sums)


def _horner(coefficients, x):
    """sum_k c_k x^k for the coefficients highest power first; x is a float
    or an array."""
    acc = 0.0 * x
    for c in coefficients:
        acc = acc * x + c
    return acc


def polylog(nu, alpha):
    """g_nu(e^-alpha) = sum_{l>=1} e^(-l alpha) / l^nu, alpha = -ln f in [0, inf].

    alpha >= ln 2 sums the direct series in e^-alpha, only as many terms as
    reach 1e-16 relative; below it, Robinson's expansion in alpha,
    g_nu = Gamma(1-nu) alpha^(nu-1) + sum_k zeta(nu-k) (-alpha)^k / k!,
    with (-alpha)^(n-1)/(n-1)! (H_(n-1) - ln alpha) in place of the leading
    and the k = n-1 terms for integer nu = n (J. E. Robinson, Phys. Rev. 83,
    678 (1951)), only as many terms as leave a remainder below 2^-60.  Both
    are Horner polynomials over per-order tables of the suffixes each length
    reads.
    """
    alpha = float(alpha)
    # one test on the common path, and the fault named only where it fails
    if not (nu > 0.0 and alpha >= 0.0) or (alpha == 0.0 and nu <= 1.0):
        if not nu > 0.0:
            raise DomainError("polylog order must be positive, got %r" % nu)
        if not alpha >= 0.0:
            raise DomainError("polylog argument alpha = -ln f must lie in [0, inf], got %r" % alpha)
        raise DomainError("polylog(nu<=1, alpha=0) diverges")
    direct, edges, sums, lead, harmonic = _polylog_tables(nu)
    if alpha >= _LN2:
        f = math.exp(-alpha)
        return _horner(direct[min(_DIRECT_TERMS, math.ceil(_DIRECT_LOG_TOL / alpha) + 1)], f) * f
    total = _horner(sums[bisect_left(edges, alpha)], alpha)
    if alpha == 0.0:
        return total
    leading = lead * alpha ** (nu - 1.0)
    return total + (leading if harmonic is None else leading * (harmonic - math.log(alpha)))


def polylog_sections(orders, alpha, section):
    """((g_nu(e^-alpha) - g_nu(e^-(alpha+c)))/c for nu in orders), c = section > 0,
    for alpha >= ln 2: the direct series with term l weighted by (1 - e^{-lc}), smallest
    first, never forming alpha + c, whose rounding the difference would divide by c."""
    terms = min(_DIRECT_TERMS, math.ceil(_DIRECT_LOG_TOL / alpha) + 1)
    weights = [math.exp(-alpha * l) * -math.expm1(-section * l) for l in range(terms, 0, -1)]
    return tuple([sum(map(operator.mul, _polylog_tables(nu)[0][terms], weights)) / section for nu in orders])


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


def _smaller_root(curvature, slope, deficit):
    """The smaller positive root y of curvature y^2 - slope y + deficit = 0
    (real for the small deficits of the interval next to Tc)."""
    return 2.0 * deficit / (slope + math.sqrt(slope * slope - 4.0 * curvature * deficit))


@lru_cache(maxsize=2)
def _start_table(nu, power):
    """(y, x, dx/dy) at the _START_NODES nodes w = sqrt(alpha) of the
    fugacity start table for g_nu: y = -ln g_nu(e^-alpha), increasing, and
    the Newton variable x = alpha^(1/power) with
    dx/dy = g_nu / (g_{nu-1} power x^(power-1)).  The table holds x, not w:
    a trap's y grows as alpha = w^2 at Tc, so its w(y) has a square-root
    branch there and would interpolate to only 1e-4 alpha over the first ten
    intervals.  Built on the first solve above Tc of each geometry."""
    ys, xs, slopes = [], [], []
    for i in range(1, _START_NODES + 1):
        w = math.sqrt(_START_ALPHA_MAX) * (i / _START_NODES) ** 2
        alpha = w * w
        x = w if power == 2 else alpha
        g = polylog(nu, alpha)
        ys.append(-math.log(g))
        xs.append(x)
        slopes.append(g / (polylog(nu - 1.0, alpha) * power * x ** (power - 1)))
    return tuple(ys), tuple(xs), tuple(slopes)


def _interpolated_start(nu, power, y):
    """x = alpha^(1/power) at y = -ln g_nu(e^-alpha) by cubic Hermite
    interpolation of x(y) between the start-table nodes around y, or None
    where y lies before the first node."""
    ys, xs, slopes = _start_table(nu, power)
    i = bisect_left(ys, y)
    if i == 0:
        return None
    y0, x0, x1 = ys[i - 1], xs[i - 1], xs[i]
    h = ys[i] - y0
    t = (y - y0) / h
    m0, m1 = h * slopes[i - 1], h * slopes[i]
    return x0 + t * (m0 + t * (3.0 * (x1 - x0) - 2.0 * m0 - m1 + t * (2.0 * (x0 - x1) + m0 + m1)))


def fugacity_from_temperature(geometry_kind, t_over_tc):
    """Invert g_{3/2}(e^-alpha) = g_{3/2}(1) (Tc/T)^{3/2} (box) or
    g_3(e^-alpha) = g_3(1) (Tc/T)^3 (trap) for alpha = -ln f of the fugacity
    f, a float in [0, inf]; alpha = 0 at and below Tc.

    Newton's method on ln g_nu in x = alpha (trap) or x = sqrt(alpha) (box),
    in which g_nu is smooth at Tc, with dg_nu/dalpha = -g_{nu-1}, from the
    cubic Hermite start of _start_table or, in the interval next to Tc that it
    does not bracket, from the root of the second-order expansion at Tc.  Once
    an evaluation implies a step in alpha of at most 1e-8 alpha, a Newton step
    in alpha itself from the same g_nu and g_{nu-1} closes the solve; from
    either start the first does (2 polylog calls).  alpha = -ln target where
    g_nu(e^-alpha) rounds to e^-alpha, and inf where the target underflows.
    """
    if geometry_kind not in ("box", "trap"):
        raise ValueError("geometry_kind must be 'box' or 'trap', got %r" % geometry_kind)
    if not t_over_tc > 0.0:
        raise DomainError("t_over_tc must be positive, got %r" % t_over_tc)
    if t_over_tc <= 1.0:
        return 0.0
    nu, power, g_at_one = (1.5, 2, ZETA_3_2) if geometry_kind == "box" else (3.0, 1, ZETA_3)
    target = float(g_at_one * t_over_tc**-nu)
    if target < _BOLTZMANN_TARGET:
        return -math.log(target) if target > 0.0 else math.inf
    log_target = math.log(target)
    x = _interpolated_start(nu, power, -log_target)
    deficit = g_at_one - target
    if x is None and geometry_kind == "box":
        # g_{3/2} ~ zeta(3/2) - 2 sqrt(pi) x - zeta(1/2) x^2
        x = _smaller_root(-ZETA_1_2, 2.0 * SQRT_PI, deficit)
    elif x is None:
        # g_3 ~ zeta(3) - zeta(2) alpha + (3/2 - ln alpha) alpha^2/2, with the
        # log frozen at the previous estimate, from the tangent's
        x = deficit / ZETA_2
        for _ in range(2):
            x = _smaller_root(0.75 - 0.5 * math.log(x), ZETA_2, deficit)
    alpha = x**power
    for _ in range(_NEWTON_STEPS):
        g = polylog(nu, alpha)
        g_below = polylog(nu - 1.0, alpha)
        # d ln g / dx = -g_{nu-1}/g dalpha/dx
        x += (math.log(g) - log_target) * g / (g_below * power * x ** (power - 1))
        alpha, previous = x**power, alpha
        if abs(alpha - previous) <= _NEWTON_RTOL * alpha + 2.0**-50:
            # dg_nu/dalpha = -g_{nu-1}, at the alpha that g and g_below were taken at
            return max(previous + (g - target) / g_below, 0.0)
    raise SeriesCapError("fugacity solve did not converge at T/Tc = %r" % t_over_tc)
