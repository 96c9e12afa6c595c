"""Thermodynamic state of the ideal Bose gas, the Doppler kernel of a thermal
cloud and GasResponse, the one susceptibility evaluator of either geometry.

The state at one temperature (Tc, alpha = -ln f of the fugacity f, the
condensate fraction) serves both geometries.  Above Tc the Doppler-averaged
response of the thermal cloud in a box is the series over l of
e^{-l alpha}/l * w(sqrt(l) zeta / A), with A = sqrt(2 K_B T/m) k_g/Gamma_ge
the thermal Doppler width in linewidth units; below Tc the alpha = 0 series
plus the zero-momentum condensate term
-(chi0/zeta) n (1 - (T/Tc)^{3/2}).  Terms with sqrt(l)|zeta/A| < 70 use the
exact w; from the first l beyond, the large-|y| expansion of w turns the rest
of the series into polylogs in closed form, which at the sodium EIT defaults
(|zeta/A| >= 150) is the whole series.  With a factor l^-p per term and a
section factor it is also the trap's column and pinhole response (trap_gas).
"""

import cmath
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .eit_core import ComplexResponse, zeta
from .errors import DomainError, SeriesCapError, ValidityWarning, float_range_error, in_float_range
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
    polylog_tail,
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

_SERIES_CHUNK = 512
_SERIES_CAP = 10**6
# the start of the last chunk that the cap lets the series sum
_LAST_CHUNK_START = 1 + _SERIES_CHUNK * ((_SERIES_CAP - 1) // _SERIES_CHUNK)
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


def tail_terms(z_over_a, mode="exact"):
    """How many terms k of TAIL_TABLE the kernel's large-|y| tail keeps:
    those with (2k+1) c_k |A/zeta|^2k >= 2^-60, or in mode "asymptotic" k <= 1,
    which needs |zeta/A| >= 5."""
    ratio = abs(z_over_a)
    if mode == "asymptotic" and ratio < _ASYMPTOTIC_MIN_RATIO:
        raise DomainError("asymptotic expansion requires |zeta/A| >= 5, got |zeta/A| = %.3g" % ratio)
    terms = 1 + bisect_right(_TAIL_THRESHOLDS, ratio**-2)
    return min(terms, 2) if mode == "asymptotic" else terms


@lru_cache(maxsize=256)
def _tail_polylogs(terms, power, alpha, head, section):
    """G_k = sum_{l > head} s_l e^{-l alpha} / l^(k+3/2+p) for k < terms after a
    head of 0 or a whole number of chunks (for a section c > 0, two tails of
    order one higher at alpha and alpha + c over c, or polylog_sections).
    Cached: the G_k depend on neither zeta nor the fields."""
    tail = polylog if head == 0 else lambda nu, a: polylog_tail(nu, a, head)
    if section == 0.0:
        return tuple([tail(k + 1.5 + power, alpha) for k in range(terms)])
    if head == 0 and alpha >= 2.0:
        # from alpha = 2 on a double alpha + c rounds by ulp(alpha)/2 > 1.1e-16, which the difference divides by c
        return polylog_sections([k + 2.5 + power for k in range(terms)], alpha, section)
    shrunk = alpha + section
    return tuple([(tail(k + 2.5 + power, alpha) - tail(k + 2.5 + power, shrunk)) / section for k in range(terms)])


def thermal_response_series(alpha, zeta_value, a_param, power=0.0, section=0.0, mode="exact"):
    """Doppler kernel of one thermal cloud in the local state alpha: returns
    (S, S') with S = sum_l s_l e^{-l alpha}/l^(1+p) w(sqrt(l) zeta/A),
    S' = sum_l s_l e^{-l alpha}/l^(1/2+p) w'(sqrt(l) zeta/A), p = power,
    s_l = (1 - e^{-lc})/(lc) for section = c > 0 and 1 for c = 0; (0, 0) at alpha = inf.

    Chunks of exact w while |y| = sqrt(l)|zeta/A| < 70, with a geometric early
    stop for alpha > 0; from the first l where |y| >= 70, the large-|y| tail of
    TAIL_TABLE in closed form over polylogs g_{k+3/2+p} (all of g_nu from l = 1,
    as at the sodium EIT defaults, else a tail after whole chunks).  Mode
    "asymptotic" is that tail from l = 1, cut after k = 1.  Where neither the
    tail nor the geometric stop can end the series within the cap (alpha below
    2.2e-5), the SeriesCapError comes before any term is summed.
    """
    z_over_a = zeta_value / a_param
    abs_ratio = abs(z_over_a)
    s_w = s_wp = 0j
    l0 = 1
    if mode == "exact" and math.sqrt(_LAST_CHUNK_START) * abs_ratio < _TAIL_MIN_ABS_Y:
        x = -math.expm1(-alpha)  # 1 - e^-alpha, and |S| <= sum_l e^{-l alpha}/l = -ln x
        if x * -math.log(x or 1.0) * _SERIES_REL_TOL * (_SERIES_CAP + 1) < math.exp(-alpha * (_SERIES_CAP + 1)):
            l0 = _SERIES_CAP + 1  # the geometric bound at the cap exceeds tol (-ln x): straight to the SeriesCapError
    while l0 <= _SERIES_CAP:
        if mode == "asymptotic" or math.sqrt(l0) * abs_ratio >= _TAIL_MIN_ABS_Y:
            r = 1.0 / z_over_a  # A/zeta
            sum_a = sum_b = 0
            g = _tail_polylogs(tail_terms(z_over_a, mode), power, alpha, l0 - 1, section)
            for (c, d, m, n), g_k in zip(TAIL_TABLE, g):
                sum_a += c * r**m * g_k
                sum_b += d * r**n * g_k
            return s_w + _I_OVER_SQRT_PI * sum_a, s_wp - _I_OVER_SQRT_PI * sum_b
        import numpy as np

        hi = min(l0 + _SERIES_CHUNK - 1, _SERIES_CAP)
        l = np.arange(l0, hi + 1, dtype=float)
        y = np.sqrt(l) * z_over_a
        ul = np.exp(-alpha * l) / l**power
        if section > 0.0:
            ul *= -np.expm1(-l * section) / (l * section)
        s_w += complex((ul / l * faddeeva_w(y)).sum())
        s_wp += complex((ul / np.sqrt(l) * faddeeva_w_prime(y)).sum())
        if alpha > 0.0:
            # remainder bounds from |w| <= 1, |w'| <= 2 on the upper half plane
            geom = math.exp(-alpha * (hi + 1)) / -math.expm1(-alpha)
            if (
                geom * _W_BOUND / (hi + 1) <= _SERIES_REL_TOL * abs(s_w)
                and geom * _WPRIME_BOUND / math.sqrt(hi + 1) <= _SERIES_REL_TOL * abs(s_wp)
            ):
                return s_w, s_wp
        l0 = hi + 1
    raise SeriesCapError(
        "Doppler series not converged within %d terms (alpha = -ln f = %.6g, |zeta/A| = %.3g)"
        % (_SERIES_CAP, alpha, abs_ratio)
    )


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


def condensate_response(species, zv, density):
    """(chi, dchi/domega) = (-chi0 n/zeta, chi0 n zeta'/zeta^2) of a condensate
    density (or column density) n at rest."""
    x0 = chi0(species)
    return -x0 * density / zv.value, x0 * density * zv.d_domega / zv.value**2


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
    the delays read: a0r, a0z and beta (T > 0).
    A call is the per-detuning stage: zeta (zeta_at), then the Doppler kernel
    S, S' at zeta/A, whose tail polylogs are cached, for (P S, P (zeta'/A) S'),
    and the condensate term (at)."""

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
        self.alpha = state.alpha
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

    def at(self, zv):
        """The response at the zeta value zv of zeta_at, or a DomainError
        naming the temperature when it is not finite."""
        chi = dchi = 0j
        if self.temperature > 0.0:
            s_w, s_wp = thermal_response_series(self.alpha, zv.value, self.a_param, mode=self.mode)
            chi, dchi = self.pref * s_w, self.pref * (zv.d_domega / self.a_param) * s_wp
        if self.state.condensate_fraction > 0.0:
            try:
                chi_c, dchi_c = condensate_response(self.species, zv, self.density)
            except ArithmeticError as exc:
                raise float_range_error("the condensate response", "T = %.3g K" % self.temperature, exc) from exc
            chi += chi_c
            dchi += dchi_c
        if not (cmath.isfinite(chi) and cmath.isfinite(dchi)):
            message = "the susceptibility chi = %r (dchi/domega = %r) is not finite at T = %.3g K"
            raise DomainError(message % (chi, dchi, self.temperature))
        return ComplexResponse(chi=chi, dchi_domega=dchi)

    def __call__(self, detuning=None):
        return self.at(self.zeta_at(detuning))

