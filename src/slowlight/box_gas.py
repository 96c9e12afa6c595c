"""Thermodynamic state of the ideal Bose gas, the Doppler kernel of a thermal
cloud and GasResponse, the one susceptibility evaluator of either geometry.

The state at one temperature (Tc, alpha = -ln f of the fugacity f, the
condensate fraction) serves both geometries.  Above Tc the Doppler-averaged
response of the thermal cloud in a box is the series over l of
e^{-l alpha}/l * w(sqrt(l) zeta / A), with A = sqrt(2 K_B T/m) k_g/Gamma_ge
the thermal Doppler width in linewidth units; below Tc the alpha = 0 series
plus the zero-momentum condensate term
-(chi0/zeta) n (1 - (T/Tc)^{3/2}).  Where |zeta/A| >= 70 (150 and more at
the sodium EIT defaults) the large-|y| expansion of w turns the series into
polylogs in closed form; below, it is 512 exact terms and, unless their
geometric bound ends it, an Euler-Maclaurin remainder on Gauss-Legendre
panels: at most 1361 Faddeeva points at any alpha.  With a factor l^-p per term and a
section factor it is also the trap's column and pinhole response (trap_gas).
A scan over detuning is one loop per state, which binds those polylogs once;
a single point is its one-point case, so both give the same bits.
"""

import cmath
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .eit_core import ComplexResponse, zeta, zeta_pair
from .errors import DomainError, ValidityWarning, float_range_error, in_float_range
from .specfun import (
    SQRT_PI,
    W_LARGE_Y,
    ZETA_3,
    ZETA_3_2,
    faddeeva_w,
    faddeeva_w_prime,
    fugacity_from_temperature,
    polylog,
    polylog_sections,
)
from .units_params import (
    HBAR_J_S,
    KB_J_PER_K,
    AtomSpecies,
    Box,
    chi0,
    ground_state_size,
    mean_trap_frequency,
    recoil_frequency,
)

# below |zeta/A| = 70 the kernel sums this many exact terms before the geometric
# stop or the Euler-Maclaurin remainder, whose integral in t = sqrt((head + 1/2)/l)
# runs on _REMAINDER_POINTS-point Gauss-Legendre panels down to where
# e^{-alpha l} falls below _REMAINDER_FLOOR, or at most to t = _REMAINDER_MIN_T
_SERIES_CHUNK = 512
_REMAINDER_POINTS = 16
_REMAINDER_FLOOR = 2.0**-60
_REMAINDER_MIN_T = 2.0**-52
# the large-|y| tail keeps term k >= 1 of W_LARGE_Y while (2k+1) c_k
# |A/zeta|^2k >= 2^-60, that is while |A/zeta|^2 reaches these, up to k = 3
_TAIL_THRESHOLDS = tuple((2.0**-60 / ((2 * k + 1) * c)) ** (1.0 / k) for k, c in enumerate(W_LARGE_Y[:4]) if k)
# the tail's terms S = (i/sqrt(pi)) sum_k c_k (A/zeta)^(2k+1) G_k and
# S' = (-i/sqrt(pi)) sum_k (2k+1) c_k (A/zeta)^(2k+2) G_k, G_k = sum_l s_l e^{-l alpha}/l^(k+3/2+p),
# as (c_k, (2k+1) c_k, 2k+1, 2k+2)
TAIL_TABLE = tuple((c, (2 * k + 1) * c, 2 * k + 1, 2 * k + 2) for k, c in enumerate(W_LARGE_Y[:4]))
# the 4-term tail is ~1e-13 accurate once |y| = sqrt(l)|zeta|/A >= 70
_TAIL_MIN_ABS_Y = 70.0
_ASYMPTOTIC_MIN_RATIO = 5.0
_I_OVER_SQRT_PI = 1j / SQRT_PI
# uniform bounds on |w|, |dw/dy| in the upper half plane (for remainder bounds)
_W_BOUND = 1.0
_WPRIME_BOUND = 2.0
# relative size of the series remainder at which the sum stops
_SERIES_REL_TOL = 1e-12


@dataclass(frozen=True)
class GasState:
    """Thermodynamic state of the gas (box or trap) at one temperature.

    It holds only what the species, geometry and temperature fix; the
    responses take the light fields separately, so one state serves every
    detuning of a scan.
    """

    species: AtomSpecies
    geometry: object  # Box or HarmonicTrap
    temperature_k: float
    t_c_k: float
    alpha: float  # -ln f of the fugacity f, in [0, inf]; 0 at and below Tc
    condensate_fraction: float


def tc_box(species, number_density):
    """Condensation temperature Tc = (2 pi hbar^2 / m K_B)(n/g_{3/2}(1))^{2/3} (a DomainError beyond the float range)."""
    if not number_density > 0.0:
        raise DomainError("number density must be positive, got %r" % number_density)
    m_kb = species.mass_kg * KB_J_PER_K
    t_c = 2.0 * math.pi * HBAR_J_S**2 / m_kb * (number_density / ZETA_3_2) ** (2.0 / 3.0) if m_kb > 0.0 else math.inf
    return in_float_range(t_c, "Tc", "m = %.3g kg, n = %.3g m^-3", species.mass_kg, number_density)


def tc_trap(species, trap):
    """K_B Tc = hbar nu_bar (N / g_3(1))^{1/3}, nu_bar = (nu_z nu_r^2)^{1/3} (a DomainError beyond the float range)."""
    nu_bar = mean_trap_frequency(trap)
    t_c = HBAR_J_S * nu_bar * (trap.atom_count / ZETA_3) ** (1.0 / 3.0) / KB_J_PER_K
    return in_float_range(t_c, "Tc", "nu_bar = %.3g rad/s, N = %.3g", nu_bar, trap.atom_count)


def doppler_width_param(species, fields, temperature):
    """A = sqrt(2 K_B T / m) k_g / Gamma_ge (thermal Doppler width over linewidth)."""
    speed = math.sqrt(2.0 * KB_J_PER_K * temperature / species.mass_kg)
    return speed * fields.k_g_per_m / fields.gamma_ge_rad_s


def gas_state(config, temperature):
    """GasState at the given temperature (T = 0 allowed: pure condensate).

    alpha = -ln f solves g_nu(e^-alpha) = g_nu(1) (Tc/T)^nu and the condensate
    fraction is 1 - (T/Tc)^nu, with nu = 3/2 in a box and nu = 3 in a trap.
    A trapped gas warns where the semiclassical K_B T >> hbar nu fails.
    """
    if not 0.0 <= temperature < math.inf:
        raise DomainError("temperature must be nonnegative and finite, got T = %r K" % temperature)
    # a float, so that an overflow in the responses raises or gives inf, not
    # a numpy warning
    temperature = float(temperature)
    species, geometry, kind = config.species, config.geometry, config.geometry_kind
    if kind == "box":
        t_c, nu = tc_box(species, geometry.number_density_per_m3), 1.5
    else:
        t_c, nu = tc_trap(species, geometry), 3.0
    theta = temperature / t_c
    alpha = 0.0 if temperature == 0.0 else fugacity_from_temperature(kind, theta)
    if kind == "trap" and temperature > 0.0:
        nu_max = max(geometry.nu_r_rad_s, geometry.nu_z_rad_s)
        if KB_J_PER_K * temperature < 10.0 * HBAR_J_S * nu_max:
            warnings.warn(
                "semiclassical statistics assume K_B T >> hbar nu "
                "(K_B T / hbar nu_max = %.3g)" % (KB_J_PER_K * temperature / (HBAR_J_S * nu_max)),
                ValidityWarning,
                stacklevel=2,
            )
    return GasState(
        species=species,
        geometry=geometry,
        temperature_k=temperature,
        t_c_k=t_c,
        alpha=alpha,
        condensate_fraction=1.0 - theta**nu if theta < 1.0 else 0.0,
    )


@lru_cache(maxsize=256)
def _tail_polylogs(terms, power, alpha, section):
    """G_k = sum_{l >= 1} s_l e^{-l alpha} / l^(k+3/2+p) for k < terms (for a
    section c > 0, two polylogs of order one higher at alpha and alpha + c over
    c, or polylog_sections).  Each G_k depends on neither zeta, the fields nor
    the number of terms."""
    if section == 0.0:
        return tuple([polylog(k + 1.5 + power, alpha) for k in range(terms)])
    if alpha >= 2.0:
        # from alpha = 2 on a double alpha + c rounds by ulp(alpha)/2 > 1.1e-16, which the difference divides by c
        return polylog_sections([k + 2.5 + power for k in range(terms)], alpha, section)
    shrunk = alpha + section
    return tuple([(polylog(k + 2.5 + power, alpha) - polylog(k + 2.5 + power, shrunk)) / section for k in range(terms)])


@lru_cache(maxsize=None)
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1] as float tuples, built on first use."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(points)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _doppler_kernel(alpha, z_over_a, power, section, mode, bound):
    """(S, S') of thermal_response_series at zeta/A = z_over_a.  bound is a one-item list that
    holds the tail polylogs the first zeta needs, or all of TAIL_TABLE's once a later one needs
    more: how many a scan computes does not grow with its length."""
    abs_ratio = abs(z_over_a)
    if mode == "exact" and abs_ratio < _TAIL_MIN_ABS_Y:
        return _exact_kernel(alpha, z_over_a, power, section)
    r = 1.0 / z_over_a  # A/zeta
    if mode == "asymptotic" and abs_ratio < _ASYMPTOTIC_MIN_RATIO:
        raise DomainError("asymptotic expansion requires |zeta/A| >= 5, got |zeta/A| = %.3g" % abs_ratio)
    # the terms k of TAIL_TABLE with (2k+1) c_k |A/zeta|^2k >= 2^-60, or in mode "asymptotic" k <= 1
    terms = 1 + bisect_right(_TAIL_THRESHOLDS[:1] if mode == "asymptotic" else _TAIL_THRESHOLDS, abs_ratio**-2)
    g = bound[0]
    if len(g) < terms:
        g = bound[0] = _tail_polylogs(len(TAIL_TABLE) if g else terms, power, alpha, section)
    sum_a = sum_b = 0
    for (c, d, m, n), g_k in zip(TAIL_TABLE[:terms], g):
        sum_a += c * r**m * g_k
        sum_b += d * r**n * g_k
    return _I_OVER_SQRT_PI * sum_a, -_I_OVER_SQRT_PI * sum_b


def _term_weights(l, alpha, power, section):
    """u_l = s_l e^{-l alpha}/l^p of the Doppler series at the array l."""
    import numpy as np

    ul = np.exp(-alpha * l) / l**power
    if section > 0.0:
        ul *= -np.expm1(-l * section) / (l * section)
    return ul


def _exact_kernel(alpha, z_over_a, power, section):
    """(S, S') below |zeta/A| = 70: the exact terms l <= _SERIES_CHUNK, which the
    geometric stop ends for alpha > 0 where it can, and else the midpoint
    Euler-Maclaurin remainder int_a^inf h dl + h'(a)/24, a = _SERIES_CHUNK + 1/2
    (DLMF 2.10), of h = u_l w(y_l)/l for S and h = u_l w'(y_l)/sqrt(l) for S',
    with y_l = sqrt(l) zeta/A."""
    import numpy as np

    head = _SERIES_CHUNK
    l = np.arange(1, head + 1, dtype=float)
    y = np.sqrt(l) * z_over_a
    ul = _term_weights(l, alpha, power, section)
    s_w = complex((ul / l * faddeeva_w(y)).sum())
    s_wp = complex((ul / np.sqrt(l) * faddeeva_w_prime(y)).sum())
    if alpha > 0.0:
        # remainder bounds from |w| <= 1, |w'| <= 2 on the upper half plane
        geom = math.exp(-alpha * (head + 1)) / -math.expm1(-alpha)
        if (
            geom * _W_BOUND / (head + 1) <= _SERIES_REL_TOL * abs(s_w)
            and geom * _WPRIME_BOUND / math.sqrt(head + 1) <= _SERIES_REL_TOL * abs(s_wp)
        ):
            return s_w, s_wp
    # the integral in t = sqrt(a/l), dl = 2 l dt/t, on panels [t/2, t] from t = 1 down to
    # where e^{-alpha l} < 2^-60 or to t = 2^-52, closed by [0, t]
    a = head + 0.5
    edges = [1.0]
    while edges[-1] > _REMAINDER_MIN_T and math.exp(-alpha * a / edges[-1] ** 2) >= _REMAINDER_FLOOR:
        edges.append(0.5 * edges[-1])
    if edges[-1] <= _REMAINDER_MIN_T and math.sqrt(a) * abs(z_over_a) < _REMAINDER_MIN_T:
        # |y| < 1 on the last panel, where w is not yet in its smooth large-|y| regime
        message = "the Doppler kernel is unresolved at |zeta/A| = %.3g < 1e-17 (alpha = -ln f = %.3g)"
        raise DomainError(message % (abs(z_over_a), alpha))
    edges.append(0.0)
    nodes, weights = _gauss_legendre(_REMAINDER_POINTS)
    edges = np.array(edges)
    half = 0.5 * (edges[:-1] - edges[1:])[:, None]
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * np.array(nodes)).ravel()
    dt = 2.0 * (half * np.array(weights)).ravel() / t
    # the nodes, then l = a itself for h'(a)
    l = np.append(a / (t * t), a)
    sqrt_l = np.sqrt(l)
    ul = _term_weights(l, alpha, power, section)
    y = sqrt_l * z_over_a
    w, wp = faddeeva_w(y), faddeeva_w_prime(y)
    s_w += complex((dt * ul[:-1] * w[:-1]).sum())
    s_wp += complex((dt * ul[:-1] * sqrt_l[:-1] * wp[:-1]).sum())
    # h'(a) from u' = (e^{-a(alpha + c)}/a^p - u_a (1 + alpha a + p))/a, dy/dl = y/2l
    # and w'' = -2w - 2y w'
    u, y0, w0, wp0 = ul[-1], complex(y[-1]), complex(w[-1]), complex(wp[-1])
    du = (math.exp(-a * (alpha + section)) * a**-power - u * (1.0 + alpha * a + power)) / a
    wpp0 = -2.0 * (w0 + y0 * wp0)
    s_w += (du * w0 + u * (0.5 * y0 * wp0 - w0) / a) / (24.0 * a)
    s_wp += (du * wp0 + 0.5 * u * (y0 * wpp0 - wp0) / a) / (24.0 * math.sqrt(a))
    return s_w, s_wp


def thermal_response_series(alpha, zeta_value, a_param, power=0.0, section=0.0, mode="exact"):
    """Doppler kernel of one thermal cloud in the local state alpha: returns
    (S, S') with S = sum_l s_l e^{-l alpha}/l^(1+p) w(sqrt(l) zeta/A),
    S' = sum_l s_l e^{-l alpha}/l^(1/2+p) w'(sqrt(l) zeta/A), p = power,
    s_l = (1 - e^{-lc})/(lc) for section = c > 0 and 1 for c = 0; (0, 0) at alpha = inf.

    Where |zeta/A| >= 70, every |y| = sqrt(l)|zeta/A| is at least 70, and the
    series is the large-|y| expansion of TAIL_TABLE in closed form over
    polylogs g_{k+3/2+p} while (2k+1) c_k |A/zeta|^2k >= 2^-60, as at the
    sodium EIT defaults.  Below, it is _SERIES_CHUNK exact terms, with a
    geometric early stop for alpha > 0, and else an Euler-Maclaurin remainder
    on at most 53 Gauss-Legendre panels: a bounded cost at any alpha, alpha = 0
    included, and a DomainError only where |zeta/A| < 1e-17 leaves even the last
    panel short of large |y|.  Mode "asymptotic" is the closed form cut after
    k = 1, for |zeta/A| >= 5."""
    return _doppler_kernel(alpha, zeta_value / a_param, power, section, mode, [()])


def thermal_series_prefactor(species, temperature, a_param):
    """P = i chi0 (2 m K_B T / hbar^2)^{3/2} / (8 pi A); chi_thermal = P*S (a DomainError beyond the float range)."""
    try:
        return (
            1j
            * chi0(species)
            * (2.0 * species.mass_kg * KB_J_PER_K * temperature / HBAR_J_S**2) ** 1.5
            / (8.0 * math.pi * a_param)
        )
    except ArithmeticError as exc:
        prefactor = "the thermal prefactor chi0 (2 m K_B T/hbar^2)^{3/2}/(8 pi A)"
        raise float_range_error(prefactor, "T = %.3g K" % temperature, exc) from exc


def condensate_response(x0n, value, d_domega):
    """(chi, dchi/domega) = (-chi0 n/zeta, chi0 n zeta'/zeta^2) of a condensate
    density (or column density) n at rest, at zeta = value, with x0n = chi0 n."""
    return -x0n / value, x0n * d_domega / value**2


class GasResponse:
    """Susceptibility of a gas state under the fields, in a box or at radius
    r in the z = 0 plane of a trap (a box refuses a nonzero r):
    response(detuning) is the ComplexResponse at the probe detuning Delta_g0
    (rad/s), by default the fields' own.  It is the Doppler kernel at the
    local state alpha + beta V (alpha, 0 below Tc, in a box) plus the
    condensate.  Mode "asymptotic" stops the kernel at (A/zeta)^2, in a box
    the closed form
    chi = -(n chi0/zeta)[1 + (T/Tc)^{3/2} (g_{5/2}(e^-alpha)/(2 g_{3/2}(1))) (A/zeta)^2]
    and in a trap -(chi0/zeta)(m K_B T/2 pi hbar^2)^{3/2} [g_{3/2} + g_{5/2} A^2/(2 zeta^2)].

    Construction is the per-temperature stage, run once for a whole scan:
    the recoil, the Doppler width A, the local state alpha, the thermal
    prefactor P and the local condensate density, and in a trap the scales
    the delays read: a0r, a0z and beta (T > 0).  responses(detunings) is
    the per-detuning stage of a scan: zeta, the Doppler kernel and the
    condensate term at each detuning in one loop, with the kernel's tail
    polylogs and chi0 n bound once for the state; a call is its one-point
    case, at(zeta_at(detuning))."""

    def __init__(self, state, fields, r=0.0, mode="exact"):
        if not r >= 0.0:
            raise DomainError("radial position must be nonnegative, got %r" % r)
        if mode not in ("exact", "asymptotic"):
            raise ValueError("mode must be 'exact' or 'asymptotic', got %r" % mode)
        species, geometry, temperature = state.species, state.geometry, state.temperature_k
        self.state, self.species, self.fields, self.mode, self.temperature = state, species, fields, mode, temperature
        try:
            self.recoil = recoil_frequency(species, fields)
        except ArithmeticError as exc:
            raise float_range_error("zeta", "T = %.3g K" % temperature, exc) from exc
        self.a_param = doppler_width_param(species, fields, temperature)
        self.alpha, self._tails, self._x0n = state.alpha, [()], None  # tail polylogs and chi0 n, bound as points need them
        if isinstance(geometry, Box):
            if r != 0.0:
                raise ValueError("a box response has no position, got r = %r" % r)
            self.density = geometry.number_density_per_m3 * state.condensate_fraction
        else:
            self.a0r = ground_state_size(species, geometry.nu_r_rad_s)
            self.a0z = ground_state_size(species, geometry.nu_z_rad_s)
            self.density = 0.0
            try:
                if temperature > 0.0:
                    k_t = KB_J_PER_K * temperature
                    beta = 1.0 / k_t if k_t > 0.0 else math.inf
                    self.beta = in_float_range(beta, "beta = 1/(K_B T)", "T = %.3g K (K_B T = %r J)", temperature, k_t)
                    potential = 0.5 * species.mass_kg * (geometry.nu_r_rad_s**2 * r**2)
                    self.alpha += self.beta * potential
                if state.condensate_fraction > 0.0:
                    volume = math.pi**1.5 * self.a0r**2 * self.a0z
                    peak = geometry.atom_count * state.condensate_fraction / volume if volume > 0.0 else math.inf
                    peak = in_float_range(peak, "the condensate peak density", "T = %.3g K", temperature)
                    self.density = peak * math.exp(-((r / self.a0r) ** 2))
            except OverflowError as exc:
                # r^2 of a finite radius beyond about 1e154 m
                quantity = "the local density at r = %.3g m" % r
                raise float_range_error(quantity, "T = %.3g K" % temperature, exc) from exc
        if temperature > 0.0:
            self.pref = thermal_series_prefactor(species, temperature, self.a_param)

    def zeta_at(self, detuning=None):
        """zeta and dzeta/domega at the probe detuning Delta_g0 (rad/s) or the fields' own."""
        try:
            return zeta(self.fields, self.recoil, detuning)
        except ArithmeticError as exc:
            raise float_range_error("zeta", "T = %.3g K" % self.temperature, exc) from exc

    def responses(self, detunings):
        """(chi, dchi/domega) at each probe detuning Delta_g0 (rad/s) of detunings in turn,
        lazily: a fault raises at its own detuning, after the responses of those before it."""
        fields, recoil = self.fields, self.recoil
        for detuning in detunings:
            try:
                value, d_domega = zeta_pair(fields, recoil, detuning)
            except ArithmeticError as exc:
                raise float_range_error("zeta", "T = %.3g K" % self.temperature, exc) from exc
            yield self._response(value, d_domega)

    def _response(self, value, d_domega):
        """(P S, P (zeta'/A) S') of the Doppler kernel S, S' at zeta/A plus the
        condensate term, or a DomainError naming T where that is not finite."""
        chi = dchi = 0j
        if self.temperature > 0.0:
            a_param, pref = self.a_param, self.pref
            s_w, s_wp = _doppler_kernel(self.alpha, value / a_param, 0.0, 0.0, self.mode, self._tails)
            chi, dchi = pref * s_w, pref * (d_domega / a_param) * s_wp
        if self.state.condensate_fraction > 0.0:
            try:
                if self._x0n is None:
                    self._x0n = chi0(self.species) * self.density  # chi0 n, bound at the first point, where it may overflow
                chi_c, dchi_c = condensate_response(self._x0n, value, d_domega)
            except ArithmeticError as exc:
                raise float_range_error("the condensate response", "T = %.3g K" % self.temperature, exc) from exc
            chi, dchi = chi + chi_c, dchi + dchi_c
        if not (cmath.isfinite(chi) and cmath.isfinite(dchi)):
            message = "the susceptibility chi = %r (dchi/domega = %r) is not finite at T = %.3g K"
            raise DomainError(message % (chi, dchi, self.temperature))
        return chi, dchi

    def at(self, zv):
        """The ComplexResponse at the zeta value zv of zeta_at: the one-point case of responses."""
        return ComplexResponse(*self._response(zv.value, zv.d_domega))

    def __call__(self, detuning=None):
        return self.at(self.zeta_at(detuning))
