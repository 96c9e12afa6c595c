"""Special functions for the statistical sums: Bose-Einstein polylogarithms
g_nu(f) = sum_{l>=1} f^l / l^nu on floats and arrays (a Horner direct series
for f <= 1/2, Robinson's expansion in alpha = -ln f above), their partial
tails, the Faddeeva function w(y) = exp(-y^2)(1 + erf(iy)) with its large-|y|
expansion, and inversion of the fugacity relations g_nu(f) = g_nu(1) (Tc/T)^nu.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize
from scipy import special as sc

from .errors import DomainError, SeriesCapError

SQRT_PI = math.sqrt(math.pi)

# Riemann zeta values g_nu(1) used by the thermodynamic relations
ZETA_3_2 = float(sc.zeta(1.5))
ZETA_2 = float(sc.zeta(2.0))
ZETA_5_2 = float(sc.zeta(2.5))
ZETA_3 = float(sc.zeta(3.0))
ZETA_4 = float(sc.zeta(4.0))

# g_nu(f) for f <= 1/2 truncates the direct series after 63 terms (remainder
# below 2^-63 relative); above 1/2 it sums 24 terms of Robinson's expansion,
# whose terms fall as (alpha/2 pi)^k with alpha = -ln f <= ln 2
_DIRECT_TERMS = 63
_ROBINSON_TERMS = 24

# below this fugacity a polylog tail is geometric enough to sum directly;
# above it a 2000-term head plus an Euler-Maclaurin tail is used
_DIRECT_SERIES_MAX_F = 0.99
_EM_HEAD_TERMS = 2000
_CHUNK = 256

# |y| boundary above which dw/dy = -2 y w + 2i/sqrt(pi) is evaluated through
# the large-|y| series instead (the direct form loses ~|y|^2 eps to
# cancellation; at 35 both branches are accurate to ~5e-13)
_W_PRIME_ASYMPTOTIC_RADIUS = 35.0

# fugacity solve: the tightest relative tolerance brentq accepts (4 ulp), and
# an absolute one below every normal float
_F_RTOL = 4.0 * np.finfo(float).eps
_F_XTOL = np.finfo(float).tiny


@dataclass(frozen=True)
class Fugacity:
    """Fugacity f = exp(mu/K_B T); f = 1 exactly for T <= Tc."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError("fugacity must lie in [0, 1], got %r" % self.value)


def _upper_gamma(s, z):
    """Upper incomplete gamma Gamma(s, z) for real s <= 1 and z > 0.

    Brings s into (0, 1] (or 0, handled by E1) and walks back down with
    Gamma(s-1, z) = (Gamma(s, z) - z^(s-1) e^(-z)) / (s-1).
    """
    if s > 1.0:
        raise ValueError("recursion written for s <= 1")
    steps = int(math.ceil(-s)) if s <= 0 else 0
    s0 = s + steps
    if s0 == 0.0:
        g = float(sc.exp1(z))
    else:
        g = float(sc.gammaincc(s0, z)) * float(sc.gamma(s0))
    t = s0
    expz = math.exp(-z)
    for _ in range(steps):
        g = (g - z ** (t - 1.0) * expz) / (t - 1.0)
        t -= 1.0
    return g


def _em_tail(nu, f, l_start):
    """sum_{l > l_start} f^l / l^nu by Euler-Maclaurin (f in (0.99, 1])."""
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


def _direct_series(nu, f, l_start, rel_tol, l_max):
    """sum_{l > l_start} f^l / l^nu by chunked summation (f <= 0.99)."""
    total = 0.0
    l0 = l_start + 1
    while l0 <= l_max:
        hi = min(l0 + _CHUNK - 1, l_max)
        l = np.arange(l0, hi + 1, dtype=float)
        terms = f**l / l**nu
        total += float(terms.sum())
        # remainder bound: l^-nu decreasing, geometric envelope in f
        bound = float(terms[-1]) * f / (1.0 - f)
        if bound <= rel_tol * abs(total) or bound == 0.0:
            return total
        l0 = hi + 1
    raise SeriesCapError(
        "polylog(%g, %g) did not converge within %d terms" % (nu, f, l_max)
    )


def _check_polylog_args(nu, f):
    if not nu > 0.0:
        raise DomainError("polylog order must be positive, got %r" % nu)
    if isinstance(f, np.ndarray):
        inside = bool(np.all((f >= 0.0) & (f <= 1.0)))
        at_one = bool(np.any(f == 1.0))
    else:
        inside = 0.0 <= f <= 1.0
        at_one = f == 1.0
    if not inside:
        raise DomainError("polylog argument must lie in [0, 1], got %r" % f)
    if at_one and nu <= 1.0:
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
        float(sc.zeta(nu - k)) * (-1.0) ** k / math.factorial(k) if nu - k != 1.0 else 0.0
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


def _robinson_leading(nu, alpha, lead, harmonic, log):
    """Leading term of Robinson's expansion at alpha > 0 (log is math.log or
    np.log)."""
    if harmonic is None:
        return lead * alpha ** (nu - 1.0)
    return lead * alpha ** (nu - 1.0) * (harmonic - log(alpha))


def polylog(nu, f):
    """Bose-Einstein function g_nu(f) = sum_{l>=1} f^l / l^nu, f in [0, 1].

    f is a float (or Fugacity), giving a float, or an ndarray, giving an
    array of the same shape.  f <= 1/2 sums the direct series; above it,
    Robinson's expansion in alpha = -ln f,
    g_nu = Gamma(1-nu) alpha^(nu-1) + sum_k zeta(nu-k) (-alpha)^k / k!,
    with (-alpha)^(n-1)/(n-1)! (H_(n-1) - ln alpha) in place of the leading
    and the k = n-1 terms for integer nu = n (J. E. Robinson, Phys. Rev. 83,
    678 (1951)).  Both are Horner polynomials over per-order tables.
    """
    if isinstance(f, Fugacity):
        f = f.value
    f = f.astype(float, copy=False) if isinstance(f, np.ndarray) else float(f)
    _check_polylog_args(nu, f)
    direct, robinson, lead, harmonic = _polylog_tables(nu)
    if isinstance(f, np.ndarray):
        out = np.empty_like(f)
        low = f <= 0.5
        out[low] = _horner(direct, f[low]) * f[low]
        alpha = -np.log(f[~low])
        total = _horner(robinson, alpha)
        # alpha = 0 (f = 1) leaves zeta(nu)
        inner = alpha > 0.0
        total[inner] += _robinson_leading(nu, alpha[inner], lead, harmonic, np.log)
        out[~low] = total
        return out
    if f <= 0.5:
        return _horner(direct, f) * f
    alpha = -math.log(f)
    total = _horner(robinson, alpha)
    if alpha == 0.0:
        return total
    return total + _robinson_leading(nu, alpha, lead, harmonic, math.log)


def polylog_tail(nu, f, l_start, rel_tol=1e-12, l_max=10**6):
    """Partial tail sum_{l > l_start} f^l / l^nu (l_start = 0 gives g_nu)."""
    if isinstance(f, Fugacity):
        f = f.value
    _check_polylog_args(nu, f)
    if f == 0.0:
        return 0.0
    if f <= _DIRECT_SERIES_MAX_F:
        return _direct_series(nu, f, l_start, rel_tol, l_max)
    if l_start >= _EM_HEAD_TERMS:
        return _em_tail(nu, f, l_start)
    l = np.arange(l_start + 1, _EM_HEAD_TERMS + 1, dtype=float)
    head = float((f**l / l**nu).sum())
    return head + _em_tail(nu, f, _EM_HEAD_TERMS)


def faddeeva_w(y, mode="exact"):
    """Faddeeva function w(y) = exp(-y^2)(1 + erf(iy)).

    mode "exact" evaluates everywhere; "asymptotic" returns the two-term
    expansion i/(sqrt(pi) y) (1 + 1/(2 y^2)), valid for |y| >= 2, Im y > 0.
    """
    arr = np.asarray(y, dtype=complex)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if mode == "exact":
        out = sc.wofz(a)
    elif mode == "asymptotic":
        if np.any(np.abs(a) < 2.0):
            raise DomainError("two-term w expansion requires |y| >= 2")
        if np.any(a.imag <= 0.0):
            raise DomainError("w expansion requires Im y > 0")
        out = (1j / (SQRT_PI * a)) * (1.0 + 0.5 / (a * a))
    else:
        raise ValueError("mode must be 'exact' or 'asymptotic'")
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def faddeeva_w_prime(y):
    """dw/dy = -2 y w(y) + 2i/sqrt(pi), stabilized at large |y|.

    Beyond |y| = 35 the identity is evaluated through the expansion
    -(i/sqrt(pi)) (y^-2 + 3/2 y^-4 + 15/4 y^-6 + 105/8 y^-8 + 945/16 y^-10)
    to avoid the cancellation of the two O(1) terms.
    """
    arr = np.asarray(y, dtype=complex)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    big = np.abs(a) >= _W_PRIME_ASYMPTOTIC_RADIUS
    if big.any():
        y2 = 1.0 / (a[big] * a[big])
        out[big] = (-1j / SQRT_PI) * y2 * (
            1.0 + y2 * (1.5 + y2 * (3.75 + y2 * (13.125 + y2 * 59.0625)))
        )
    small = ~big
    if small.any():
        out[small] = -2.0 * a[small] * sc.wofz(a[small]) + 2j / SQRT_PI
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def fugacity_from_temperature(geometry_kind, t_over_tc):
    """Invert g_{3/2}(f) = g_{3/2}(1) (Tc/T)^{3/2} (box) or
    g_3(f) = g_3(1) (Tc/T)^3 (trap) for the fugacity; f = 1 below Tc.

    Brent's method on f in [0, 1] to a few ulp; the absolute tolerance is
    below the smallest normal float, so a fugacity far below 1 keeps its
    relative precision too.
    """
    if geometry_kind not in ("box", "trap"):
        raise ValueError("geometry_kind must be 'box' or 'trap', got %r" % geometry_kind)
    if not t_over_tc > 0.0:
        raise DomainError("t_over_tc must be positive, got %r" % t_over_tc)
    if t_over_tc <= 1.0:
        return Fugacity(1.0)
    nu = 1.5 if geometry_kind == "box" else 3.0
    g_at_one = ZETA_3_2 if geometry_kind == "box" else ZETA_3
    target = g_at_one * t_over_tc**-nu

    def excess(f):
        # the exact g_nu(1) at the upper end keeps the bracket valid even
        # when T/Tc is within rounding of 1
        return (polylog(nu, f) if f < 1.0 else g_at_one) - target

    return Fugacity(optimize.brentq(excess, 0.0, 1.0, xtol=_F_XTOL, rtol=_F_RTOL))
