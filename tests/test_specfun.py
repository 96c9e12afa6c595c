"""Polylogarithm, Faddeeva function, and fugacity inversion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from slowlight import (
    DomainError,
    Fugacity,
    SeriesCapError,
    faddeeva_w,
    faddeeva_w_prime,
    fugacity_from_temperature,
    polylog,
    polylog_tail,
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


def test_polylog_accepts_fugacity_wrapper():
    assert polylog(1.5, Fugacity(0.5)) == polylog(1.5, 0.5)


def test_polylog_tail_splits_the_series():
    # polylog_tail(nu, f, l_start) sums l > l_start
    for nu, f in ((1.5, 0.9), (3.0, 0.99)):
        whole = polylog(nu, f)
        assert rel(polylog_tail(nu, f, 0), whole) < 1e-12
        head = math.fsum(f**l / l**nu for l in range(1, 100))
        assert rel(head + polylog_tail(nu, f, 99), whole) < 1e-12


def test_polylog_domain_errors():
    with pytest.raises(DomainError):
        polylog(0.0, 0.5)
    with pytest.raises(DomainError):
        polylog(-1.0, 0.5)
    with pytest.raises(DomainError):
        polylog(1.5, -0.1)
    with pytest.raises(DomainError):
        polylog(1.5, 1.0 + 1e-9)
    with pytest.raises(DomainError, match="diverges"):
        polylog(1.0, 1.0)
    with pytest.raises(DomainError):
        polylog(0.5, 1.0)
    # nu in (0, 1] is fine strictly inside the disc
    assert polylog(0.5, 0.5) > 0.0
    # the same errors for arrays, raised by any one bad element
    with pytest.raises(DomainError, match="order must be positive"):
        polylog(0.0, np.array([0.5]))
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        polylog(1.5, np.array([0.2, -0.1]))
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        polylog(1.5, np.array([0.5, 1.0 + 1e-9]))
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        polylog(1.5, np.array([0.5, math.nan]))
    with pytest.raises(DomainError, match="diverges"):
        polylog(1.0, np.array([0.5, 1.0]))
    assert np.all(polylog(0.5, np.array([0.25, 0.5, 0.75])) > 0.0)


def test_polylog_arrays_match_mpmath():
    for nu in (1.5, 2.0, 2.5, 3.0, 4.0):
        values = polylog(nu, POLYLOG_GRID)
        assert values[0] == 0.0
        for f, value in zip(POLYLOG_GRID[1:], values[1:]):
            assert rel(value, polylog_mp(nu, f)) <= 1e-14, (nu, f)


def test_polylog_scalar_and_array_agree():
    for nu in (0.5, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0):
        grid = POLYLOG_GRID[:-1] if nu <= 1.0 else POLYLOG_GRID
        values = polylog(nu, grid)
        for f, value in zip(grid, values):
            scalar = polylog(nu, float(f))
            assert isinstance(scalar, float)
            assert abs(scalar - value) <= 1e-15 * abs(value), (nu, f)
    square = np.array([[0.1, 0.6], [0.9, 1.0]])
    assert polylog(2.5, square).shape == (2, 2)
    assert polylog(2.5, square)[1, 0] == polylog(2.5, np.array([0.9]))[0]


def test_polylog_series_cap_is_an_error():
    with pytest.raises(SeriesCapError, match="did not converge within 300 terms"):
        polylog_tail(1.1, 0.99, 0, rel_tol=1e-15, l_max=300)


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


def test_fugacity_bounds():
    assert Fugacity(0.0).value == 0.0
    assert Fugacity(1.0).value == 1.0
    with pytest.raises(DomainError):
        Fugacity(1.0 + 1e-12)
    with pytest.raises(DomainError):
        Fugacity(-1e-12)


def test_fugacity_solver_round_trip():
    rng = np.random.default_rng(11)
    thetas = 1.0 + 9.0 * rng.random(100)
    # the brute-force polylog oracle needs f bounded away from 1
    assert thetas.min() > 1.01
    for kind, nu in (("box", 1.5), ("trap", 3.0)):
        g_one = zeta_constant(nu)
        for theta in thetas:
            f = fugacity_from_temperature(kind, theta).value
            target = g_one * theta**-nu
            assert 0.0 < f < 1.0
            assert abs(polylog_bruteforce(nu, f) - target) < 5e-13 * target


def test_fugacity_solver_matches_mpmath_oracle():
    # close above Tc, where the box relation is infinitely steep, and far
    # above it, where the trap fugacity is small
    rng = np.random.default_rng(5)
    thetas = np.concatenate((1.0 + 10.0 ** rng.uniform(-8.0, 0.0, 6), rng.uniform(2.0, 100.0, 6)))
    for kind, oracle in (("box", box_fugacity_oracle), ("trap", trap_fugacity_oracle)):
        for theta in thetas:
            assert rel(fugacity_from_temperature(kind, theta).value, oracle(theta)) <= 2e-12, (kind, theta)


def test_fugacity_solver_edges():
    assert fugacity_from_temperature("box", 0.5).value == 1.0
    assert fugacity_from_temperature("trap", 1.0).value == 1.0
    assert fugacity_from_temperature("box", 1.0 + 1e-12).value > 0.999
    assert 0.999 < fugacity_from_temperature("trap", 1.0 + 4.4e-16).value < 1.0
    assert fugacity_from_temperature("box", 2.0).value > fugacity_from_temperature("box", 3.0).value
    with pytest.raises(ValueError, match="geometry_kind must be 'box' or 'trap'"):
        fugacity_from_temperature("lattice", 2.0)
    with pytest.raises(DomainError):
        fugacity_from_temperature("box", 0.0)


def test_faddeeva_exact_vs_quadrature_oracle():
    rng = np.random.default_rng(17)
    ys = rng.uniform(-8.0, 8.0, 100) + 1j * rng.uniform(0.05, 3.0, 100)
    worst = 0.0
    for y in ys:
        y = complex(y)
        worst = max(worst, rel(faddeeva_w(y, mode="exact"), faddeeva_by_quadrature(y)))
    assert worst < 1e-10


def test_faddeeva_asymptotic_branch_accuracy():
    # two-term expansion: next term is 3/(4 y^4) relative, 7.5e-5 at |y| = 10
    angles = np.linspace(0.02 * math.pi, 0.98 * math.pi, 25)
    for radius in (10.0, 12.0, 30.0):
        for phi in angles:
            y = radius * complex(math.cos(phi), math.sin(phi))
            assert rel(faddeeva_w(y, mode="asymptotic"), wofz(y)) < 1e-4


def test_faddeeva_mode_and_domain_errors():
    with pytest.raises(ValueError, match="mode"):
        faddeeva_w(1j, mode="pade")
    with pytest.raises(DomainError, match=r"\|y\| >= 2"):
        faddeeva_w(0.5j, mode="asymptotic")
    with pytest.raises(DomainError, match="Im y > 0"):
        faddeeva_w(5.0 - 0.1j, mode="asymptotic")


def test_faddeeva_scalar_and_array_shapes():
    ys = np.array([0.3 + 0.4j, -2.0 + 1.0j, 15.0 + 2.0j])
    out = faddeeva_w(ys)
    assert out.shape == ys.shape
    for y, w in zip(ys, out):
        assert w == faddeeva_w(complex(y))
    assert isinstance(faddeeva_w(1.0 + 1.0j), complex)


def test_faddeeva_prime_matches_finite_differences():
    step = 1e-6
    for y in (0.5 + 0.8j, -3.0 + 0.2j, 2.0 + 5.0j, 40.0j, 25.0 + 30.0j):
        fd = (faddeeva_w(y + step, mode="exact") - faddeeva_w(y - step, mode="exact")) / (2.0 * step)
        assert rel(faddeeva_w_prime(y), fd) < 1e-6


def test_faddeeva_prime_identity():
    for y in (0.5 + 0.8j, -3.0 + 0.2j, 2.0 + 5.0j):
        target = -2.0 * y * wofz(y) + 2j / math.sqrt(math.pi)
        assert rel(faddeeva_w_prime(y), target) < 1e-13
