"""Closed-form dynamics of parametric down-conversion with phase mismatch.

The pump is an undepleted classical wave detuned by delta from the
signal/idler sum frequency; in units of the coupling rate g the model is
fixed by the dimensionless mismatch y = delta/g < 1, the dimensionless
interaction time tau = g*t and the dimensionless mode frequencies
omega_j_bar = omega_j/g.  The two-mode state generated from a thermal
input stays Gaussian at all times, and every second moment has a closed
form built from

    x = sqrt((1 - y)(1 + y)),  A = cosh(x tau) + i (y/x) sinh(x tau),
    B = (i/x) sinh(x tau),

with |A|^2 - |B|^2 = 1.  The mode amplitudes grow like sinh(x tau), so a
mismatch only slows the pair production down (y < 1 regime); the
oscillatory regime y >= 1 is out of scope.  Written as a product, x is
exact to rounding for every float y < 1 (where x >= 1.5e-8), so
sinh(x tau)/x needs no series branch near y = 1.

Every closed form reads one core, ``_pair_state``.  It validates tau and
T once and returns the four numbers that fix the state: the initial
occupations nbar1 and nbar2, the pair gain m = sinh^2(x tau)/x^2 and
K = nbar1 + nbar2 + 1, plus x, sinh(x tau)/x and cosh(x tau) for the
covariance-matrix entries, and the params, y, tau and T it was built
from, converted and checked.  Each public closed form is ``_pair_state``
followed by a private reader that takes the state alone and runs its
own finiteness check, which names the state's tau and T
(``_photon_numbers``, ``_pair_matrix``, ``_det_gamma``,
``analysis._witness``), so ``eval`` builds the state once for all of
them.  The birth time, which needs no tau, reads only the checked inputs
and occupations (``_pair_inputs``) and takes x itself.  The same
formulas run in float64 on two kinds of input (``gaussian_core._working``
picks the kind once per call, and the pair state carries it as ``lib``):

* Python floats, evaluated with ``math``; a numpy scalar of any width or
  a 0-d array enters as a Python float, and is checked after that;
* numpy arrays of y, tau and T, evaluated with numpy and broadcast
  against each other, so a whole (y, T) map is one call.  The mismatch
  then travels as an argument next to tau and T and is checked point by
  point against the rule of ``PdcParams``.  A point that fails a check
  or leaves the float range makes the whole call raise the error the
  same scalar input would; arrays whose shapes do not broadcast are
  refused with a ValidationError that names them.

``covariance_matrix`` attaches the pair state to the matrix it returns,
so ``gaussian_core`` takes E_N and S from (nbar1, nbar2, m, K) without
cancellation (the pair route); a matrix built from entries alone goes
through the generic 4x4 route.  ``pair_invariants`` gives the pair-route
invariants of array inputs directly; ``covariance_matrix`` stays a
scalar 4x4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError, ValidationError
from .gaussian_core import (
    CovarianceMatrix,
    PairState,
    SymplecticInvariants,
    _check_finite,
    _check_scalar,
    _every,
    _first,
    _pair_invariants,
    _pointwise,
    _real,
    _working,
)

# CODATA 2018 exact values
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K

# largest argument of exp (and so of sinh, cosh, expm1) in float64
_EXP_MAX = math.log(sys.float_info.max)


def _check_mismatch(y):
    """Refuse any y outside [0, 1); y may be an array, checked point by point."""
    inside = (0.0 <= y) & (y < 1.0)
    if inside is not True and not _every(inside):
        raise ValidationError(
            f"mismatch y must lie in [0, 1), got {_first(y, inside)}"
        )


def _check_frequency(omega, name):
    """Refuse an angular frequency unless hbar*omega is a positive float:
    besides 0, negatives, NaN and inf, this refuses an omega so small that
    hbar*omega underflows to 0 and the occupation would divide by it.
    omega may be an array, checked point by point."""
    hw = HBAR * omega
    ok = (0.0 < hw) & (hw < math.inf)
    if ok is not True and not _every(ok):
        raise ValidationError(
            f"{name} must be finite and > 0, with hbar*{name} > 0 in float64, "
            f"got {_first(omega, ok)}"
        )


def _store_finite(record, names):
    """Store the fields ``names`` of a frozen dataclass as finite Python floats."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not float:
            _check_scalar(type(record).__name__, name, value)
            value = _real(name, value)
            object.__setattr__(record, name, value)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PdcParams:
    """Static parameters of one down-conversion configuration.

    omega1_bar, omega2_bar : dimensionless mode frequencies omega_j/g
    g : coupling rate in rad/s (sets the absolute frequency scale used
        for thermal occupations, omega_j = omega_j_bar * g)
    y : dimensionless mismatch delta/g, 0 <= y < 1
    """

    omega1_bar: float
    omega2_bar: float
    g: float
    y: float = 0.0

    def __post_init__(self):
        _store_finite(self, ("omega1_bar", "omega2_bar", "g", "y"))
        if not self.g > 0.0:
            raise ValidationError("coupling rate g must be positive")
        _check_frequency(self.omega1_bar * self.g, "omega1_bar*g")
        _check_frequency(self.omega2_bar * self.g, "omega2_bar*g")
        _check_mismatch(self.y)


@dataclass(frozen=True)
class ThermalInit:
    """Initial thermal occupations of the two modes at one temperature."""

    temperature: float
    nbar1: float
    nbar2: float

    def __post_init__(self):
        _store_finite(self, ("temperature", "nbar1", "nbar2"))
        if self.temperature < 0.0:
            raise ValidationError("temperature must be >= 0")
        if self.nbar1 < 0.0 or self.nbar2 < 0.0:
            raise ValidationError("occupations must be >= 0")
        if self.temperature == 0.0 and (self.nbar1 != 0.0 or self.nbar2 != 0.0):
            raise ValidationError("zero temperature forces zero occupation")


def _bose(omega, temperature, lib):
    """1/(exp(beta) - 1) at beta = hbar omega/(k_B T) for a validated T.

    Exactly 0 at T = 0, and also once exp(beta) reaches the end of the
    float range, where the occupation is below its smallest normal
    value.  Those cold points divide by k_B T + hbar omega in place of
    k_B T, which keeps beta below 1, and are then multiplied by
    False, so no point of an array divides by zero or overflows.  A hot
    beta that underflows to 0 gives inf, as numpy does, for the callers'
    finiteness checks to refuse.
    """
    hw = HBAR * omega
    kt = K_B * temperature
    # hot points have beta = hw/kt below the exp range, a few ulps to spare
    scaled = kt * _EXP_MAX
    limit = hw * (1.0 + 2.0**-50)
    beta = hw / (kt + hw * (scaled <= limit))
    try:
        return (scaled > limit) * (1.0 / lib.expm1(beta))
    except ZeroDivisionError:  # Python floats divide by zero with an error
        return math.inf


def _check_nonnegative(value, name):
    ok = (0.0 <= value) & (value < math.inf)
    if ok is not True and not _every(ok):
        raise ValidationError(f"{name} must be finite and >= 0")


def _check_broadcast(**arrays):
    """Refuse array arguments whose shapes do not broadcast together,
    naming each that is not a scalar and its shape."""
    try:
        np.broadcast(*arrays.values())
    except ValueError:
        shapes = ", ".join(
            f"{name} of shape {np.shape(value)}" for name, value in arrays.items() if np.ndim(value)
        )
        raise ValidationError(f"array arguments do not broadcast together: {shapes}") from None


@_pointwise
def thermal_occupation(omega, temperature):
    """Bose-Einstein mean photon number of a mode at temperature T.

    Parameters
    ----------
    omega : angular frequency, rad/s (finite, > 0)
    temperature : kelvin (finite, >= 0); T = 0 returns exactly 0

    Returns
    -------
    1 / (exp(hbar*omega/(k_B*T)) - 1): a Python float, or a float64 array
    of the broadcast shape for arrays of omega and T, each point checked
    as a scalar would be.  Exactly 0 once hbar*omega/(k_B*T) reaches the
    end of the float exponent range.

    Raises NumericalDomainError where the occupation leaves the float
    range (k_B T/(hbar omega) past about 1.8e308).
    """
    omega, temperature = _real("omega", omega), _real("temperature", temperature)
    lib = _working(omega, temperature)
    if lib is np:
        _check_broadcast(omega=omega, temperature=temperature)
    _check_frequency(omega, "omega")
    _check_nonnegative(temperature, "temperature")
    nbar = _bose(omega, temperature, lib)
    _check_finite(nbar, "thermal occupation", "T", temperature)
    return nbar


def _occupations(params: PdcParams, temperature, lib=math):
    """Initial occupations (nbar1, nbar2) of both modes at a validated T."""
    return (
        _bose(params.omega1_bar * params.g, temperature, lib),
        _bose(params.omega2_bar * params.g, temperature, lib),
    )


def thermal_init(params: PdcParams, temperature) -> ThermalInit:
    """Initial occupations for both modes of a parameter set.

    Raises ValidationError where the temperature is not a real number or
    not finite and >= 0, and NumericalDomainError where an occupation, or
    their sum, leaves the float range.
    """
    _check_scalar("thermal_init", "temperature", temperature)
    temperature = _real("temperature", temperature)
    _check_nonnegative(temperature, "temperature")
    n1, n2 = _occupations(params, temperature)
    _check_finite(n1 + n2, "thermal occupation", "T", temperature)
    return ThermalInit(temperature=temperature, nbar1=n1, nbar2=n2)


def _sinh_overflow(z):
    """The error for an x*tau = z past ``_EXP_MAX``."""
    return NumericalDomainError(f"x*tau = {float(z)!r} overflows sinh(x*tau) in float64")


def _stretch(y, tau, lib):
    """Return (x, sinh(x tau)/x, cosh(x tau)), x = sqrt((1 - y)(1 + y)),
    in ``lib``, the library ``_working`` picks for y and tau.

    Raises NumericalDomainError once x*tau leaves the exponent range.
    """
    x = lib.sqrt((1.0 - y) * (1.0 + y))
    z = x * tau
    fits = z <= _EXP_MAX
    if fits is not True and not _every(fits):
        raise _sinh_overflow(_first(z, fits))
    return x, lib.sinh(z) / x, lib.cosh(z)


def _pair_inputs(params: PdcParams, tau, temperature, y):
    """(y, tau, T, nbar1, nbar2, lib): the inputs of a pair state, y =
    ``params.y`` unless given, converted (``_real``) and checked once in
    the library ``lib`` that ``_working`` picks for them, and the
    occupations at T.  Array inputs must broadcast against each other."""
    # a Python float, the common input, costs no call
    tau = tau if type(tau) is float else _real("tau", tau)
    temperature = temperature if type(temperature) is float else _real("temperature", temperature)
    y = params.y if y is None else y if type(y) is float else _real("y", y)
    lib = _working(y, tau, temperature)
    if lib is np:
        _check_broadcast(tau=tau, temperature=temperature, y=y)
    _check_nonnegative(tau, "tau")
    _check_nonnegative(temperature, "temperature")
    _check_mismatch(y)
    nbar1, nbar2 = _occupations(params, temperature, lib)
    return y, tau, temperature, nbar1, nbar2, lib


def _pair_state(params: PdcParams, tau, temperature, y=None) -> PairState:
    """The core every closed form reads: (nbar1, nbar2, m, K) at
    (tau, T), plus the (x, sinh(x tau)/x, cosh(x tau)) of the entries.

    Picks the library, and converts and validates tau, T and y
    (``params.y`` unless given), once (:func:`_pair_inputs`).
    m = sinh^2(x tau)/x^2 is the pair gain and K = nbar1 + nbar2 + 1.
    """
    y, tau, temperature, nbar1, nbar2, lib = _pair_inputs(params, tau, temperature, y)
    # x, sinh and cosh run in numpy only for an array y or tau, so that an
    # array of T gets them to the bit as a scalar call does
    x, ratio, ch = _stretch(y, tau, lib if lib is math else _working(y, tau))
    # _make takes one tuple: binding twelve arguments in the generated
    # __new__ costs phase_map 1-2% of its items per second
    return PairState._make((nbar1, nbar2, ratio * ratio, nbar1 + nbar2 + 1.0, x, ratio, ch, lib,
                            params, y, tau, temperature))


@_pointwise
def pair_invariants(
    params: PdcParams, tau, temperature, y=None
) -> SymplecticInvariants:
    """Pair-route invariants (I1, I2, S0, S, PT spectrum) at (y, tau, T).

    The same numbers ``symplectic_invariants(covariance_matrix(...))``
    gives for scalars, without building the matrix.  tau, T and y (which
    replaces ``params.y`` when given) may be numpy arrays; they broadcast
    against each other and every field of the result has their broadcast
    shape.  ``.log_negativity`` gives E_N.

    Raises NumericalDomainError if an invariant leaves the float range at
    any point.
    """
    return _pair_invariants(_pair_state(params, tau, temperature, y))


@_pointwise
def mean_photon_numbers(params: PdcParams, tau, temperature):
    """Mean photon numbers (n1, n2) after interaction time tau.

    With m = sinh^2(x tau)/x^2 and K = nbar1 + nbar2 + 1 both modes gain
    the same m*K pairs, so n1 - n2 is conserved (integral of motion).
    Raises NumericalDomainError where a photon number leaves the float
    range.
    """
    return _photon_numbers(_pair_state(params, tau, temperature))


def _photon_numbers(pair: PairState):
    """(n1, n2) of a pair state; ``mean_photon_numbers``."""
    gain = pair.m * pair.big_k
    n1, n2 = pair.nbar1 + gain, pair.nbar2 + gain
    _check_finite(n1 + n2, "mean photon number", "tau, T", pair.tau, pair.temperature)
    return n1, n2


def covariance_matrix(params: PdcParams, tau, temperature) -> CovarianceMatrix:
    """Covariance matrix of the two-mode state at time tau, temperature T.

    Entries (K = nbar1 + nbar2 + 1, S = sinh(x tau), C = cosh(x tau),
    theta = omega1_bar + omega2_bar + 2y):

        sigma_11 = sigma_22 = n1 + 1/2
        sigma_33 = sigma_44 = n2 + 1/2
        sigma_12 = sigma_34 = 0
        sigma_13 = K (S/x) [sin(theta tau) C - cos(theta tau) (y/x) S]
        sigma_14 = sigma_23 = K (S/x) [cos(theta tau) C + sin(theta tau) (y/x) S]
        sigma_24 = -sigma_13

    The sign of sigma_24 follows from the dimensionless quadrature
    convention; it flips nothing that a determinant can see.  The
    returned matrix carries the pair state, so its invariants take the
    pair route.  tau and T are scalars.
    """
    _check_scalar("covariance_matrix", "tau and T", tau, temperature, arrays="pair_invariants")
    return _pair_matrix(_pair_state(params, tau, temperature))


def _pair_matrix(pair: PairState) -> CovarianceMatrix:
    """The matrix of a scalar pair state; ``covariance_matrix``."""
    nbar1, nbar2, m, big_k, _, ratio, ch, _, params, y, tau, _ = pair
    gain = m * big_k
    # phase accumulated per mode; summed this way it matches the local
    # rotations used by the moment-ODE oracle to the last ulp
    alpha1 = (params.omega1_bar + y) * tau
    alpha2 = (params.omega2_bar + y) * tau
    phase = alpha1 + alpha2
    sn, cs = math.sin(phase), math.cos(phase)
    s13 = big_k * ratio * (sn * ch - cs * y * ratio)
    s14 = big_k * ratio * (cs * ch + sn * y * ratio)
    d1 = nbar1 + gain + 0.5
    d2 = nbar2 + gain + 0.5
    _check_finite(abs(s13) + abs(s14) + d1 + d2, "covariance matrix", "tau", tau)
    return CovarianceMatrix._of_pair(d1, d2, s13, s14, pair)


@_pointwise
def det_gamma_closed_form(params: PdcParams, tau, temperature):
    """det of the correlation block without building the matrix.

    Equals -m(m+1)K^2 with m = sinh^2(x tau)/x^2; always <= 0 and
    strictly decreasing in tau for tau > 0.  Raises NumericalDomainError
    where it leaves the float range.
    """
    return _det_gamma(_pair_state(params, tau, temperature))


def _det_gamma(pair: PairState):
    """det gamma of a pair state; ``det_gamma_closed_form``."""
    m, big_k = pair.m, pair.big_k
    det_gamma = -m * (m + 1.0) * big_k * big_k
    _check_finite(det_gamma, "det gamma", "tau, T", pair.tau, pair.temperature)
    return det_gamma
