"""Exception and warning types shared across the package.

Two error families matter to callers (and to the CLI exit-code mapping):

* ``ConfigError`` / ``UsageError`` -- bad input documents or bad invocation;
  the computation never started.  CLI exit status 1.
* ``PhysicsError`` and subclasses -- the parameters put a formula outside its
  domain (a pole of the dressed response, an asymptotic expansion evaluated
  out of regime, a fugacity solve that does not converge, negative dispersion
  denominator).
  CLI exit status 2.

Validity warnings never interrupt a computation; out-of-regime points are
evaluated on request.
"""

import math


class ConfigError(ValueError):
    """A configuration document is missing keys, has unknown keys, or holds
    values that fail validation.  The message names the offending key paths."""


class UsageError(ValueError):
    """Bad command-line invocation (unknown flag, malformed grid, ...)."""


class PhysicsError(Exception):
    """Base class for domain errors of the physical formulas."""


class PoleError(PhysicsError):
    """The dressed-response parameter zeta is evaluated at (or within the
    guard band of) its pole Gamma_gr + i(Delta_g0 - Delta_r0) = 0."""


class DomainError(PhysicsError):
    """An expansion or special function was requested outside its domain of
    validity (asymptotic branch at small argument, diverging polylog, ...)."""


def float_range_error(quantity, where, detail=None):
    """The DomainError "<quantity> leaves the floating-point range at <where>[ (<detail>)]"
    of an overflow, an underflow to 0 or a division by zero (detail: the exception met)."""
    message = "%s leaves the floating-point range at %s" % (quantity, where)
    return DomainError(message if detail is None else "%s (%s)" % (message, detail))


def in_float_range(value, quantity, where, *args):
    """The value if 0 < value < inf, else the float_range_error of the quantity at where % args."""
    if not 0.0 < value < math.inf:
        raise float_range_error(quantity, where % args)
    return value


class SeriesCapError(PhysicsError):
    """The fugacity solve (specfun.fugacity_from_temperature) did not converge
    within its cap of Newton steps; no statistical sum raises it."""


class UnphysicalDispersionError(PhysicsError):
    """The group-velocity denominator 1 + 2*pi*chi' + 2*pi*omega*dchi'/domega
    came out non-positive."""


class ValidityWarning(UserWarning):
    """A formula is being used near or outside its regime of validity
    (linear response, semiclassical limit, |chi| smallness)."""
