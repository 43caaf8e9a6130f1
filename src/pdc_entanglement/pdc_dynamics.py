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

Every closed form reads one core, ``_pair_state``.  It validates tau, T
and y once and returns a :class:`PairState`: the initial occupations nbar1
and nbar2, the pair gain m = sinh^2(x tau)/x^2, K = nbar1 + nbar2 + 1,
x and sinh(x tau)/x for the covariance-matrix entries, and the params,
y, tau and T it was built from, converted and checked.  Each public
closed form is ``_pair_state`` followed by a reader that takes the state
alone and runs its own finiteness check, which names the state's tau
and T (``_photon_numbers``, ``_pair_matrix``, ``_det_gamma``,
``PairState.invariants``, ``analysis._witness``), so ``eval`` builds the
state once for all of them.  ``_pair_state`` and the birth time check
Python floats by one comparison chain and leave any other input to
``_pair_inputs``, which converts it.  The birth time, ``thermal_init``
and ``critical_temperature`` refuse an overflowing nbar1 + nbar2
through ``_check_occupations``.  ``PdcParams`` carries hbar omega_j and
a finite theta = hbar (omega1 + omega2)/k_B for every reader.  The same
formulas run in float64 on two kinds of input (``gaussian_core._working``
picks the kind once per call, and the readers follow it, see PairState):

* Python floats, evaluated with ``math``; a numpy scalar of any width or
  a 0-d array enters as a Python float, and is checked after that;
* numpy arrays of y, tau and T, evaluated with numpy and broadcast
  against each other, so a whole (y, T) map is one call and every field
  of a result has the broadcast shape.  The mismatch then travels as an
  argument next to tau and T and is checked point by point against the
  rule of ``PdcParams``.  A point that fails a check or leaves the float
  range makes the whole call raise the error the same scalar input
  would; arrays whose shapes do not broadcast are refused with a
  ValidationError that names them.

The pair route: ``covariance_matrix`` alone attaches the pair state to
its matrix, and ``gaussian_core`` calls its two methods in place of
reading the 4x4 entries.  ``PairState.invariants`` forms E_N, S and
the PT spectrum with no cancelling subtraction, exact to a few roundings
until an invariant leaves the float range, where it raises
NumericalDomainError.  ``PairState.entangled`` is the package's one
verdict, m > m* = nbar1 nbar2/K = 1/(exp(theta/T) - 1), read on a state
of Python floats as the float comparison theta/T > ln(1 + 1/m); near the
boundary the float sign of S, a difference of terms of order nbar^4, can
differ from it, and neither is yet certified there.  ``pair_invariants``
gives the invariants of array inputs; ``covariance_matrix`` stays a
scalar 4x4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalDomainError, ValidationError
from .gaussian_core import (
    CovarianceMatrix,
    SymplecticInvariants,
    _check_finite,
    _check_scalar,
    _every,
    _first,
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
    """hbar*omega, once it is a positive float: besides 0, negatives, NaN
    and inf, this refuses an omega so small that hbar*omega underflows to
    0 and the occupation would divide by it.  omega may be an array,
    checked point by point."""
    hw = HBAR * omega
    ok = (0.0 < hw) & (hw < math.inf)
    if ok is not True and not _every(ok):
        raise ValidationError(
            f"{name} must be finite and > 0, with hbar*{name} > 0 in float64, "
            f"got {_first(omega, ok)}"
        )
    return hw


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

    It also holds the constants the closed forms read, formed once from
    the checked fields: hbar omega_j (``_hw1``, ``_hw2``) and theta =
    hbar (omega1 + omega2)/k_B (``_theta``), private attributes that
    ``==``, hash, repr, ``asdict`` and ``replace`` do not see.
    """

    omega1_bar: float
    omega2_bar: float
    g: float
    y: float = 0.0

    def __post_init__(self):
        _store_finite(self, ("omega1_bar", "omega2_bar", "g", "y"))
        if not self.g > 0.0:
            raise ValidationError("coupling rate g must be positive")
        hw1 = _check_frequency(self.omega1_bar * self.g, "omega1_bar*g")
        hw2 = _check_frequency(self.omega2_bar * self.g, "omega2_bar*g")
        _check_mismatch(self.y)
        theta = HBAR * ((self.omega1_bar + self.omega2_bar) * self.g) / K_B
        if not theta < math.inf:  # each hbar omega_j fits, yet their sum may not
            raise ValidationError(
                f"theta = hbar*(omega1_bar + omega2_bar)*g/k_B must be finite in float64, "
                f"got {theta}"
            )
        # not through __dict__: CPython then keeps a dict, and reads are slower
        object.__setattr__(self, "_hw1", hw1)
        object.__setattr__(self, "_hw2", hw2)
        object.__setattr__(self, "_theta", theta)


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


def _bose(hw, temperature, lib):
    """1/(exp(beta) - 1) at beta = hw/(k_B T), hw = hbar omega, for a
    validated T, in ``lib``.

    Exactly 0 at T = 0, and also once exp(beta) reaches the end of the
    float range, where the occupation is below its smallest normal
    value.  Python floats branch on that; arrays divide those cold points
    by k_B T + hw in place of k_B T, which keeps beta below 1, and then
    multiply them by False, so no point divides by zero or overflows; the
    two give the same bits.  A hot beta that underflows to 0 gives inf,
    as numpy does, for the callers' finiteness checks to refuse.
    """
    kt = K_B * temperature
    # hot points have beta = hw/kt below the exp range, a few ulps to spare
    scaled = kt * _EXP_MAX
    limit = hw * (1.0 + 2.0**-50)
    if lib is math:
        if not scaled > limit:
            return 0.0
        try:
            return 1.0 / math.expm1(hw / kt)
        except ZeroDivisionError:  # Python floats divide by zero with an error
            return math.inf
    return (scaled > limit) * (1.0 / np.expm1(hw / (kt + hw * (scaled <= limit))))


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
    hw = _check_frequency(omega, "omega")
    _check_nonnegative(temperature, "temperature")
    nbar = _bose(hw, temperature, lib)
    _check_finite(nbar, "thermal occupation", "T", temperature)
    return nbar


def _occupations(params: PdcParams, temperature, lib=math):
    """Initial occupations (nbar1, nbar2) of both modes at a validated T."""
    return _bose(params._hw1, temperature, lib), _bose(params._hw2, temperature, lib)


def _check_occupations(params: PdcParams, temperature, lib=math):
    """Refuse a checked T where nbar1 + nbar2 leaves the float range; each
    is below about 2^900 while k_B T < 2^900 hbar omega_j, so a Python-float
    T below that bound evaluates neither."""
    if type(temperature) is float and temperature < min(params._hw1, params._hw2) * 2.0**900 / K_B:
        return
    n1, n2 = _occupations(params, temperature, lib)
    _check_finite(n1 + n2, "thermal occupation", "T", temperature)


def thermal_init(params: PdcParams, temperature) -> ThermalInit:
    """Initial occupations for both modes of a parameter set.

    Raises ValidationError where the temperature is not a real number or
    not finite and >= 0, and NumericalDomainError where an occupation, or
    their sum, leaves the float range.
    """
    _check_scalar("thermal_init", "temperature", temperature)
    temperature = _real("temperature", temperature)
    _check_nonnegative(temperature, "temperature")
    _check_occupations(params, temperature)
    n1, n2 = _occupations(params, temperature)
    return ThermalInit(temperature=temperature, nbar1=n1, nbar2=n2)


def _sinh_overflow(z):
    """The error for an x*tau = z past ``_EXP_MAX``."""
    return NumericalDomainError(f"x*tau = {float(z)!r} overflows sinh(x*tau) in float64")


def _stretch(y, tau, lib):
    """Return (x, sinh(x tau)/x), x = sqrt((1 - y)(1 + y)), in ``lib``,
    the library ``_working`` picks for y and tau.

    Raises NumericalDomainError once x*tau leaves the exponent range.
    """
    x = lib.sqrt((1.0 - y) * (1.0 + y))
    z = x * tau
    fits = z <= _EXP_MAX
    if fits is not True and not _every(fits):
        raise _sinh_overflow(_first(z, fits))
    return x, lib.sinh(z) / x


def _pair_inputs(params: PdcParams, tau, temperature, y):
    """(y, tau, T, lib) of an input the float chains of ``_pair_state`` and
    ``birth_time`` do not pass: y = ``params.y`` unless given, converted
    (``_real``) and checked in the order tau, T, y, and ``lib`` (``math``
    for floats, else ``_working``'s).  Arrays must broadcast together."""
    y = params.y if y is None else y
    tau, temperature, y = _real("tau", tau), _real("temperature", temperature), _real("y", y)
    lib = _working(y, tau, temperature)
    if lib is np:
        _check_broadcast(tau=tau, temperature=temperature, y=y)
    _check_nonnegative(tau, "tau")
    _check_nonnegative(temperature, "temperature")
    _check_mismatch(y)
    return y, tau, temperature, lib


def _critical_ratio(m):
    """c = ln(1 + 1/m) of a Python float m, inf at m = 0; -ln(m), to the
    bit the same, where 1/m overflows (a subnormal m)."""
    inverse = 1.0 / m if m > 0.0 else math.inf
    return math.log1p(inverse) if inverse < math.inf or m == 0.0 else -math.log(m)


def _entangled_at(theta, temperature, c):
    """fl(theta/T) > c for a checked Python-float T; c < inf (m > 0) at T = 0."""
    return theta / temperature > c if temperature > 0.0 else c < math.inf


def _threshold_gain(params: PdcParams, temperature, lib):
    """m* = 1/expm1(theta/T) in ``lib`` for a checked T, exp(-theta/T) where
    expm1 overflows, so 0 at T = 0; arrays come with warnings off (``_pointwise``)."""
    if lib is np:
        ratio = np.divide(params._theta, temperature)
        return np.where(ratio > _EXP_MAX, np.exp(-ratio), 1.0 / np.expm1(ratio))
    ratio = params._theta / temperature if temperature > 0.0 else math.inf
    return math.exp(-ratio) if ratio > _EXP_MAX else 1.0 / math.expm1(ratio)


class PairState(NamedTuple):
    """A thermally seeded two-mode squeezed state and the point it is at.

    nbar1, nbar2 are the initial thermal occupations, m = sinh^2(x tau)/x^2
    the pair gain and big_k = nbar1 + nbar2 + 1; x and ratio = sinh(x tau)/x
    are kept for the covariance-matrix entries.  params, y, tau and
    temperature are the inputs, converted and checked; the readers'
    refusals name them.  Each number is a scalar or a numpy array, and
    they broadcast together; the readers compute in ``math`` when nbar1 is
    a Python float, else in numpy.
    """

    nbar1: float
    nbar2: float
    m: float
    big_k: float
    x: float
    ratio: float
    params: PdcParams
    y: float
    tau: float
    temperature: float

    def invariants(self) -> SymplecticInvariants:
        """The invariant set, with no cancelling subtraction.

        With a = nbar1 + 1/2, b = nbar2 + 1/2 and |det gamma| = m(m+1)K^2:
        I1 = (ab)^2 and I2 = a^2 + b^2 are conserved by the evolution,
        delta_tilde = I2 + 4|det gamma|, and the PT symplectic eigenvalues
        are nu_plus = D/2 and nu_minus = ab/nu_plus with
        D = K(1+2m) + sqrt((nbar1-nbar2)^2 + 4K^2 m(m+1)), so that
        E_N = ln(D/((2nbar1+1)(2nbar2+1))).  D is formed from sqrt(m)
        sqrt(m+1), not from |det gamma|, so it stays finite while m does.
        Array fields give arrays of invariants.
        """
        n1, n2, m, big_k = self.nbar1, self.nbar2, self.m, self.big_k
        lib = math if type(n1) is float else np
        a = n1 + 0.5
        b = n2 + 0.5
        i1 = a * b * a * b
        i2 = a * a + b * b
        s0 = n1 * n2 * (n1 + 1.0) * (n2 + 1.0)
        correlation = m * (m + 1.0) * big_k * big_k
        spread = 2.0 * big_k * lib.sqrt(m) * lib.sqrt(m + 1.0)
        nu_plus = (big_k * (1.0 + 2.0 * m) + lib.hypot(n1 - n2, spread)) / 2.0
        s = s0 - correlation
        delta_tilde = i2 + 4.0 * correlation
        # every term but -s is >= 0 and s0 - s >= 0, so the sum is finite
        # exactly when every invariant is; a float is tested inline
        total = i1 + i2 + s0 - s + delta_tilde + nu_plus
        if lib is np or not abs(total) < math.inf:
            _check_finite(total, "invariants", "nbar1, nbar2, m", n1, n2, m)
        if lib is np:  # I1, I2 and S0 read T alone; S has the shape of every input
            i1, i2, s0 = (np.broadcast_to(v, s.shape).copy() for v in (i1, i2, s0))
        return tuple.__new__(SymplecticInvariants,
                             (i1, i2, s0, s, delta_tilde, a * b / nu_plus, nu_plus))

    def entangled(self) -> bool:
        """Whether m > m*, as fl(theta/T) > c = ln(1 + 1/m) (``_entangled_at``),
        for a state of Python floats."""
        return _entangled_at(self.params._theta, self.temperature, _critical_ratio(self.m))


def _pair_state(params: PdcParams, tau, temperature, y=None) -> PairState:
    """The core every closed form reads: the :class:`PairState` at (tau, T).

    Python floats tau, T and y (``params.y`` unless given) that pass one
    comparison chain call only ``_bose`` and ``math``; any other input is
    converted and checked by :func:`_pair_inputs`, with the same refusals.
    """
    y = params.y if y is None else y
    if type(tau) is type(temperature) is type(y) is float and (
        0.0 <= tau < math.inf and 0.0 <= temperature < math.inf and 0.0 <= y < 1.0
    ):
        nbar1, nbar2 = _bose(params._hw1, temperature, math), _bose(params._hw2, temperature, math)
        x = math.sqrt((1.0 - y) * (1.0 + y))  # as _stretch, inline
        z = x * tau
        if not z <= _EXP_MAX:
            raise _sinh_overflow(z)
        ratio = math.sinh(z) / x
    else:
        y, tau, temperature, lib = _pair_inputs(params, tau, temperature, y)
        nbar1, nbar2 = _occupations(params, temperature, lib)
        # x and sinh run in numpy only for an array y or tau, so that an
        # array of T gets them to the bit as a scalar call does
        x, ratio = _stretch(y, tau, lib if lib is math else _working(y, tau))
    # not PairState(...) or _make: the one binds ten arguments, the other calls len
    return tuple.__new__(PairState, (nbar1, nbar2, ratio * ratio, nbar1 + nbar2 + 1.0, x, ratio,
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
    return _pair_state(params, tau, temperature, y).invariants()


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
    if type(tau) is not float or type(temperature) is not float:
        _check_scalar("covariance_matrix", "tau and T", tau, temperature, arrays="pair_invariants")
    return _pair_matrix(_pair_state(params, tau, temperature))


def _pair_matrix(pair: PairState) -> CovarianceMatrix:
    """The matrix of a scalar pair state; ``covariance_matrix``."""
    nbar1, nbar2, m, big_k, x, ratio, params, y, tau, _ = pair
    ch = math.cosh(x * tau)
    gain = m * big_k
    # phase accumulated per mode; summed this way it matches the local
    # rotations used by the moment-ODE oracle to the last ulp
    alpha1 = (params.omega1_bar + y) * tau
    alpha2 = (params.omega2_bar + y) * tau
    phase = alpha1 + alpha2
    if not phase < math.inf:  # math.sin and math.cos refuse it with a bare ValueError
        _check_finite(phase, "lab-frame phase", "tau", tau)
    sn, cs = math.sin(phase), math.cos(phase)
    s13 = big_k * ratio * (sn * ch - cs * y * ratio)
    s14 = big_k * ratio * (cs * ch + sn * y * ratio)
    d1 = nbar1 + gain + 0.5
    d2 = nbar2 + gain + 0.5
    total = abs(s13) + abs(s14) + d1 + d2
    if not abs(total) < math.inf:
        _check_finite(total, "covariance matrix", "tau", tau)
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
