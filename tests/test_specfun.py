"""Polylogarithm, Faddeeva function, and fugacity inversion."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz
from scipy.special import zeta as scipy_zeta

from slowlight import specfun
from slowlight import (
    DomainError,
    faddeeva_w,
    faddeeva_w_prime,
    fugacity_from_temperature,
    polylog,
)

from _oracles import (
    box_fugacity_oracle,
    faddeeva_by_quadrature,
    polylog_bruteforce,
    polylog_mp,
    trap_fugacity_oracle,
    zeta_constant,
)

# 0, a geometric ladder 1e-8 ... 1/2, both sides of the switch to Robinson's
# expansion at 1/2, a ladder 1 - 0.1 ... 1 - 1e-12, and 1
POLYLOG_GRID = np.concatenate(
    (
        [0.0],
        np.geomspace(1e-8, 0.5, 12),
        [np.nextafter(0.5, 1.0), 0.6, 0.75],
        1.0 - np.geomspace(0.1, 1e-12, 12),
        [1.0],
    )
)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_polylog_at_one_matches_tail_bounded_sums():
    # the tail-bounded oracle sums carry < 2e-14 error
    assert rel(polylog(1.5, 1.0), zeta_constant(1.5)) < 1e-10
    assert rel(polylog(3.0, 1.0), zeta_constant(3.0)) < 1e-10
    assert rel(polylog(2.5, 1.0), zeta_constant(2.5)) < 1e-10
    assert rel(polylog(4.0, 1.0), zeta_constant(4.0)) < 1e-10
    assert abs(polylog(1.5, 1.0) - 2.612375) < 5e-7
    assert abs(polylog(3.0, 1.0) - 1.202057) < 5e-7


def test_polylog_matches_bruteforce_inside_disc():
    for nu in (1.5, 2.5, 3.0, 4.0):
        for f in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9995):
            assert rel(polylog(nu, f), polylog_bruteforce(nu, f)) < 1e-12


def test_polylog_returns_a_float():
    # every real argument gives a float
    for f in (0, 1, np.float64(0.9), 0.9):
        assert type(polylog(2.5, f)) is float, f
    assert polylog(2.5, np.float64(0.9)) == polylog(2.5, 0.9)


def test_polylog_tail_splits_the_series():
    # polylog_tail(nu, f, l_start) sums l > l_start
    for nu, f in ((1.5, 0.9), (3.0, 0.99)):
        head = math.fsum(f**l / l**nu for l in range(1, 513))
        assert rel(head + specfun.polylog_tail(nu, f, 512), polylog(nu, f)) < 1e-12
    assert specfun.polylog_tail(1.5, 0.0, 512) == 0.0


def test_polylog_tail_matches_mpmath_relative_to_g():
    # the Euler-Maclaurin tail after the whole 512-term chunks of exact terms
    # that the Doppler series sums first: its error is a few ulp of g_nu(f) at
    # most, which is what the series sees (measured worst 1.9e-16, at f = 0.999)
    def tail_mp(nu, f, l_start):
        with mpmath.workdps(40):
            if f == 1.0:
                return float(mpmath.zeta(nu, l_start + 1))
            return float(mpmath.mpf(f) ** (l_start + 1) * mpmath.lerchphi(f, nu, l_start + 1))

    for nu in (1.5, 3.0, 4.5, 6.0):
        for f in (0.99, 1.0 - 1e-8, 1.0):
            for l_start in (512, 1024, 1536, 2048, 20000):
                error = abs(specfun.polylog_tail(nu, f, l_start) - tail_mp(nu, f, l_start))
                assert error <= 2e-15 * polylog(nu, f), (nu, f, l_start)


def test_polylog_domain_errors():
    with pytest.raises(DomainError):
        polylog(0.0, 0.5)
    with pytest.raises(DomainError):
        polylog(-1.0, 0.5)
    with pytest.raises(DomainError):
        polylog(1.5, -0.1)
    with pytest.raises(DomainError):
        polylog(1.5, 1.0 + 1e-9)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        polylog(1.5, math.nan)
    with pytest.raises(DomainError, match="diverges"):
        polylog(1.0, 1.0)
    with pytest.raises(DomainError):
        polylog(0.5, 1.0)
    # nu in (0, 1] is fine strictly inside the disc
    assert polylog(0.5, 0.5) > 0.0


def test_polylog_grid_matches_mpmath():
    for nu in (1.5, 2.0, 2.5, 3.0, 4.0):
        assert polylog(nu, 0.0) == 0.0
        for f in POLYLOG_GRID[1:]:
            assert rel(polylog(nu, float(f)), polylog_mp(nu, f)) <= 1e-14, (nu, f)


def test_polylog_sum_matches_mpmath():
    # mixed-sign weighted sums of polylogs, as the Doppler tail combines them,
    # one ulp to either side of each edge where the direct series for f <= 1/2
    # changes length (e^-x, x = ln 2, 2, 6, 36.8) and at the ends; the error is
    # relative to sum_k |w_k g_k|, since mixed-sign weights can cancel
    grid = [0.0, 1e-300, 1.0 - 1e-12, 1.0]
    for x in (math.log(2.0), 2.0, 6.0, 36.8):
        edge = math.exp(-x)
        grid += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    for terms in (
        ((1.5, 0.7), (2.5, -1.3)),
        ((2.0, -2.0), (3.0, 0.5)),
        ((1.5, 1.0), (2.5, -3.0), (3.5, 2.0), (4.5, -0.25)),
    ):
        for f in grid:
            value = sum(w * polylog(nu, float(f)) for nu, w in terms)
            with mpmath.workdps(30):
                parts = [w * mpmath.polylog(nu, float(f)) for nu, w in terms]
                error = float(abs(value - sum(parts)))
                scale = float(sum(abs(p) for p in parts))
            assert error <= 1e-15 * scale, (terms, f)


def test_polylog_short_direct_series_matches_mpmath():
    # a float f <= 1/2 sums only the terms above 1e-16 relative: 2 at
    # f = 1e-300, 7 at 1e-3, 55 at 1/2; also one ulp to either side of
    # e^-x, x = ln 2, 2, 6 and 36.8, where 55, 20, 8 and 2 terms reach that
    # bound, and near f = 1 on Robinson's side, where the sum is cut to length:
    # one ulp to either side of each edge e^-alpha where that length changes
    grid = [1e-300, 1e-3, 0.05, 0.3, 0.5, 1.0 - 1e-12, 1.0]
    for x in (math.log(2.0), 2.0, 6.0, 36.8):
        edge = math.exp(-x)
        grid += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    for nu in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
        cuts = []
        # the last length, edge inf, holds to f = 1/2
        for alpha in specfun._polylog_tables(nu)[1][:-1]:
            edge = math.exp(-alpha)
            cuts += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        for f in grid + cuts:
            with mpmath.workdps(30):
                expected = mpmath.polylog(nu, float(f))
            assert rel(polylog(nu, float(f)), float(expected)) <= 1e-15, (nu, f)
        assert polylog(nu, 0.0) == 0.0


@settings(derandomize=True, max_examples=40)
@given(
    st.floats(min_value=1e-6, max_value=0.999999),
    st.floats(min_value=1e-6, max_value=0.999999),
)
def test_polylog_monotone_in_f(f_a, f_b):
    lo, hi = min(f_a, f_b), max(f_a, f_b)
    if hi - lo < 1e-9:
        return
    assert polylog(1.5, lo) < polylog(1.5, hi)
    assert polylog(3.0, lo) < polylog(3.0, hi)


@settings(derandomize=True, max_examples=40)
@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_polylog_decreasing_in_order(f):
    assert polylog(1.5, f) > polylog(2.5, f) > polylog(3.0, f)


def test_fugacity_solver_round_trip():
    rng = np.random.default_rng(11)
    thetas = 1.0 + 9.0 * rng.random(100)
    # the brute-force polylog oracle needs f bounded away from 1
    assert thetas.min() > 1.01
    for kind, nu in (("box", 1.5), ("trap", 3.0)):
        g_one = zeta_constant(nu)
        for theta in thetas:
            f = fugacity_from_temperature(kind, theta)
            target = g_one * theta**-nu
            assert 0.0 < f < 1.0
            assert abs(polylog_bruteforce(nu, f) - target) < 5e-13 * target


def test_fugacity_solver_matches_mpmath_oracle():
    # close above Tc, where the box relation is infinitely steep, from
    # T/Tc - 1 = 1e-10 on, and far above it, where the trap fugacity is small
    rng = np.random.default_rng(5)
    thetas = np.concatenate(
        ([1.0 + 1e-10], 1.0 + 10.0 ** rng.uniform(-10.0, 0.0, 20), rng.uniform(2.0, 100.0, 20))
    )
    for kind, oracle in (("box", box_fugacity_oracle), ("trap", trap_fugacity_oracle)):
        for theta in thetas:
            assert rel(fugacity_from_temperature(kind, theta), oracle(theta)) <= 2e-12, (kind, theta)


def test_fugacity_solve_makes_few_polylog_calls(monkeypatch):
    # each evaluation takes g_nu and g_{nu-1}; from the table start (or the
    # second-order start next to Tc) the first one is close enough to give
    # the last step in f, so a solve makes one evaluation in both geometries
    calls = []
    uncounted = specfun.polylog
    monkeypatch.setattr(specfun, "polylog", lambda nu, f: calls.append(nu) or uncounted(nu, f))

    def calls_per_solve(kind, theta):
        calls.clear()
        fugacity_from_temperature(kind, float(theta))
        return len(calls)

    for kind in ("box", "trap"):
        fugacity_from_temperature(kind, 2.0)  # builds the start table outside the count
        for excess in (1e-6, 1e-3, 1e-2, 5e-2, 0.1):
            assert calls_per_solve(kind, 1.0 + excess) <= 2, (kind, excess)
        for theta in 1.0 + np.geomspace(1e-10, 1e3 - 1.0, 200):
            assert calls_per_solve(kind, theta) <= 2, (kind, theta)


def _ulps_from_mpmath_root(kind, theta, f):
    """|f - f*| in ulp of f, for the root f* of the solver's own float target
    (its zeta(3/2) is 1 ulp above mpmath's, which moves f* by a few ulp), by
    three 40-digit Newton steps in x = alpha (trap) or sqrt(alpha) (box) from
    the returned f, or from the tangent at Tc where f rounds to 1."""
    nu, power, g_at_one = (1.5, 2, specfun.ZETA_3_2) if kind == "box" else (3.0, 1, specfun.ZETA_3)
    target = float(g_at_one * theta**-nu)
    with mpmath.workdps(40):
        target_mp = mpmath.mpf(target)
        if f < 1.0:
            x = (-mpmath.log(f)) ** (mpmath.mpf(1) / power)
        else:
            x = (mpmath.zeta(nu) - target_mp) / (2 * mpmath.sqrt(mpmath.pi) if kind == "box" else mpmath.zeta(2))
        for _ in range(3):
            z = mpmath.exp(-(x**power))
            g = mpmath.polylog(nu, z)
            slope = mpmath.polylog(nu - 1, z) * power * x ** (power - 1)
            x += (mpmath.log(g) - mpmath.log(target_mp)) * g / slope
        return float(abs(f - mpmath.exp(-(x**power))) / math.ulp(f))


def test_fugacity_within_a_few_ulp_of_mpmath_root():
    # the step in f from the last evaluation puts f within a few ulp of the
    # root, from T/Tc - 1 = 1e-10, where a box f rounds to 1, to 1e3
    for kind in ("box", "trap"):
        for theta in 1.0 + np.geomspace(1e-10, 1e3, 150):
            theta = float(theta)
            assert _ulps_from_mpmath_root(kind, theta, fugacity_from_temperature(kind, theta)) <= 4.0, (kind, theta)


def test_fugacity_far_above_tc_matches_mpmath_oracle():
    # f down to 1e-15 (trap T/Tc = 1e5): the oracle's root solves its
    # relation to 1e-14 relative, and the solver agrees with it
    for kind, nu, oracle, thetas in (
        ("trap", 3.0, trap_fugacity_oracle, (1e3, 1e4, 1e5)),
        ("box", 1.5, box_fugacity_oracle, (1e3, 1e6)),
    ):
        for theta in thetas:
            f = oracle(theta)
            target = zeta_constant(nu) * theta**-nu
            with mpmath.workdps(30):
                residual = float((mpmath.polylog(nu, f) - target) / target)
            assert abs(residual) <= 1e-14, (kind, theta)
            assert rel(fugacity_from_temperature(kind, theta), f) <= 1e-13, (kind, theta)


def test_fugacity_solver_edges():
    assert fugacity_from_temperature("box", 0.5) == 1.0
    assert fugacity_from_temperature("trap", 1.0) == 1.0
    assert fugacity_from_temperature("box", 1.0 + 1e-12) > 0.999
    assert 0.999 < fugacity_from_temperature("trap", 1.0 + 4.4e-16) < 1.0
    assert fugacity_from_temperature("box", 2.0) > fugacity_from_temperature("box", 3.0)
    with pytest.raises(ValueError, match="geometry_kind must be 'box' or 'trap'"):
        fugacity_from_temperature("lattice", 2.0)
    with pytest.raises(DomainError):
        fugacity_from_temperature("box", 0.0)


def test_zeta_tables_match_scipy():
    # Borwein's series and the reflection formula at every s = nu - k that
    # Robinson's tables read, for the orders the package and its tests use
    for nu in (0.5, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
        for k in range(specfun._ROBINSON_TERMS):
            s = nu - k
            if s == 1.0 or (s <= 0.0 and s % 2.0 == 0.0):
                continue
            assert rel(specfun._zeta(s), float(scipy_zeta(s))) <= 1e-13, s
    assert specfun._zeta(0.0) == -0.5
    for k in range(1, 12):
        assert specfun._zeta(-2.0 * k) == 0.0
    assert polylog(1.5, 1.0) == specfun.ZETA_3_2 and polylog(3.0, 1.0) == specfun.ZETA_3


def test_fugacity_monotone_from_tc_to_extreme_temperatures():
    thetas = np.concatenate(([1.0], 1.0 + np.geomspace(1e-15, 0.1, 300), np.geomspace(1.11, 1e3, 300)))
    for kind in ("box", "trap"):
        values = [fugacity_from_temperature(kind, theta) for theta in thetas]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:])), kind
        # far above Tc the target g_nu(1) (Tc/T)^nu is its own fugacity, 0 at T = inf
        for theta in (1e150, 1e300, math.inf):
            assert 0.0 <= fugacity_from_temperature(kind, theta) <= 1.0, (kind, theta)


def test_faddeeva_exact_vs_quadrature_oracle():
    rng = np.random.default_rng(17)
    ys = rng.uniform(-8.0, 8.0, 100) + 1j * rng.uniform(0.05, 3.0, 100)
    worst = 0.0
    for y in ys:
        y = complex(y)
        worst = max(worst, rel(faddeeva_w(y), faddeeva_by_quadrature(y)))
    assert worst < 1e-10


def test_faddeeva_domain_errors():
    # deep below the real axis w grows as exp(-y^2) and overflows
    with pytest.raises(DomainError, match="w is not finite"):
        faddeeva_w(-50j)
    with pytest.raises(DomainError, match="dw/dy is not finite"):
        faddeeva_w_prime(-50j)


def test_faddeeva_scalar_and_array_shapes():
    ys = np.array([0.3 + 0.4j, -2.0 + 1.0j, 15.0 + 2.0j])
    out = faddeeva_w(ys)
    assert out.shape == ys.shape
    for y, w in zip(ys, out):
        assert w == faddeeva_w(complex(y))
    assert isinstance(faddeeva_w(1.0 + 1.0j), complex)


def test_faddeeva_prime_matches_finite_differences():
    step = 1e-6
    # 35 e^(-i pi/4) lies beyond |y| = 35 but below the real axis, where the
    # large-|y| expansion does not hold
    for y in (0.5 + 0.8j, -3.0 + 0.2j, 2.0 + 5.0j, 40.0j, 25.0 + 30.0j, cmath.rect(35.0, -math.pi / 4)):
        fd = (faddeeva_w(y + step) - faddeeva_w(y - step)) / (2.0 * step)
        assert rel(faddeeva_w_prime(y), fd) < 1e-6


def test_faddeeva_prime_identity():
    for y in (0.5 + 0.8j, -3.0 + 0.2j, 2.0 + 5.0j):
        target = -2.0 * y * wofz(y) + 2j / math.sqrt(math.pi)
        assert rel(faddeeva_w_prime(y), target) < 1e-13
