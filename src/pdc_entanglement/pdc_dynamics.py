"""Closed-form dynamics of parametric down-conversion with phase mismatch.

The pump is an undepleted classical wave detuned by delta from the
signal/idler sum frequency; in units of the coupling rate g the model is
fixed by the dimensionless mismatch y = delta/g < 1, the dimensionless
interaction time tau = g*t and the dimensionless mode frequencies
omega_j_bar = omega_j/g.  The two-mode state generated from a thermal
input stays Gaussian at all times, and every second moment has a closed
form built from

    x = sqrt(1 - y^2),  A = cosh(x tau) + i (y/x) sinh(x tau),
    B = (i/x) sinh(x tau),

with |A|^2 - |B|^2 = 1.  The mode amplitudes grow like sinh(x tau), so a
mismatch only slows the pair production down (y < 1 regime); the
oscillatory regime y >= 1 is out of scope.

Closed forms are dtype-polymorphic: pass ``np.longdouble`` time or
temperature arguments to evaluate the whole pipeline in extended
precision (used by the invariant-conservation checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian_core import CovarianceMatrix

# CODATA 2018 exact values
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K

# below this x = sqrt(1-y^2) the sinh(x tau)/x forms switch to their series
X_DEGENERATE = 1e-6


@dataclass(frozen=True)
class PdcParams:
    """Static parameters of one down-conversion configuration.

    omega1_bar, omega2_bar : dimensionless mode frequencies omega_j/g
    g : coupling rate in rad/s (sets the absolute frequency scale used
        for thermal occupations, omega_j = omega_j_bar * g)
    y : dimensionless mismatch delta/g, 0 <= y < 1
    phi : pump phase in rad; a local phase that cannot change any
        determinant-based quantity, accepted for completeness and not
        threaded into the covariance matrix
    """

    omega1_bar: float
    omega2_bar: float
    g: float
    y: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (self.omega1_bar > 0.0 and self.omega2_bar > 0.0):
            raise ValidationError("mode frequencies must be positive")
        if not self.g > 0.0:
            raise ValidationError("coupling rate g must be positive")
        if not (0.0 <= self.y < 1.0):
            raise ValidationError(f"mismatch y must lie in [0, 1), got {self.y}")


@dataclass(frozen=True)
class ModeCoefficients:
    """Bogoliubov pair (A, B) of the time-dependent mode transformation.

    Canonical commutation preservation requires |A|^2 - |B|^2 = 1 (to
    rounding; verify in extended precision at large tau).
    """

    a_coef: complex
    b_coef: complex


@dataclass(frozen=True)
class ThermalInit:
    """Initial thermal occupations of the two modes at one temperature."""

    temperature: float
    nbar1: float
    nbar2: float

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValidationError("temperature must be >= 0")
        if self.nbar1 < 0.0 or self.nbar2 < 0.0:
            raise ValidationError("occupations must be >= 0")
        if self.temperature == 0.0 and (self.nbar1 != 0.0 or self.nbar2 != 0.0):
            raise ValidationError("zero temperature forces zero occupation")


def _wd(*values):
    """Common working dtype of the inputs (at least float64)."""
    return np.result_type(np.float64, *(np.asarray(v).dtype for v in values))


def thermal_occupation(omega, temperature):
    """Bose-Einstein mean photon number of a mode at temperature T.

    Parameters
    ----------
    omega : angular frequency, rad/s (> 0)
    temperature : kelvin (finite, >= 0); T = 0 returns exactly 0

    Returns
    -------
    1 / (exp(hbar*omega/(k_B*T)) - 1) in the working dtype of the inputs.
    """
    dt = _wd(omega, temperature)
    if not omega > 0.0:
        raise ValidationError("omega must be positive")
    if not 0.0 <= temperature < math.inf:
        raise ValidationError("temperature must be finite and >= 0")
    if temperature == 0.0:
        return dt.type(0.0)
    beta = dt.type(HBAR) * dt.type(omega) / (dt.type(K_B) * dt.type(temperature))
    return dt.type(1.0) / np.expm1(beta)


def thermal_init(params: PdcParams, temperature) -> ThermalInit:
    """Initial occupations for both modes of a parameter set."""
    n1 = thermal_occupation(params.omega1_bar * params.g, temperature)
    n2 = thermal_occupation(params.omega2_bar * params.g, temperature)
    return ThermalInit(temperature=float(temperature), nbar1=float(n1), nbar2=float(n2))


def _stretch(y, tau):
    """Return (x, sinh(x tau)/x, cosh(x tau)) with the degenerate branch.

    For x < X_DEGENERATE the ratio sinh(x tau)/x is evaluated by its
    series tau*(1 + z^2/6) with z = x*tau (and cosh by 1 + z^2/2), which
    avoids the 0/0 at y -> 1 with branch error far below 1e-12.
    """
    dt = _wd(y, tau)
    y = dt.type(y)
    tau = dt.type(tau)
    one = dt.type(1.0)
    x = np.sqrt(one - y * y)
    if x < X_DEGENERATE:
        z = x * tau
        return x, tau * (one + z * z / 6.0), one + z * z / 2.0
    arg = x * tau
    return x, np.sinh(arg) / x, np.cosh(arg)


def ab_coefficients(y, tau) -> ModeCoefficients:
    """Bogoliubov coefficients A(x tau), B(x tau) of the mode evolution.

    A = cosh(x tau) + i (y/x) sinh(x tau), B = (i/x) sinh(x tau); at
    tau = 0 this is the identity (A, B) = (1, 0).
    """
    if not (0.0 <= y < 1.0):
        raise ValidationError(f"mismatch y must lie in [0, 1), got {y}")
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau must be finite and >= 0")
    _, ratio, ch = _stretch(y, tau)
    return ModeCoefficients(a_coef=ch + 1j * y * ratio, b_coef=1j * ratio)


def squeezing_parameter(y, tau):
    """Effective squeezing r = tau*sqrt(1 - y^2); reduces to r = tau at y=0."""
    if not (0.0 <= y < 1.0):
        raise ValidationError(f"mismatch y must lie in [0, 1), got {y}")
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau must be finite and >= 0")
    dt = _wd(y, tau)
    return dt.type(tau) * np.sqrt(dt.type(1.0) - dt.type(y) ** 2)


def mean_photon_numbers(params: PdcParams, tau, temperature):
    """Mean photon numbers (n1, n2) after interaction time tau.

    With m = sinh^2(x tau)/x^2 and K = nbar1 + nbar2 + 1 both modes gain
    the same m*K pairs, so n1 - n2 is conserved (integral of motion).
    """
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau must be finite and >= 0")
    n10 = thermal_occupation(params.omega1_bar * params.g, temperature)
    n20 = thermal_occupation(params.omega2_bar * params.g, temperature)
    _, ratio, _ = _stretch(params.y, tau)
    m = ratio * ratio
    gain = m * (n10 + n20 + 1.0)
    return n10 + gain, n20 + gain


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
    convention; it flips nothing that a determinant can see.  The pump
    phase phi is a local rotation and is not threaded through.
    """
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau must be finite and >= 0")
    dt = _wd(params.y, tau, temperature)
    n10 = thermal_occupation(params.omega1_bar * params.g, temperature)
    n20 = thermal_occupation(params.omega2_bar * params.g, temperature)
    y = dt.type(params.y)
    tau = dt.type(tau)
    half = dt.type(0.5)
    x, ratio, ch = _stretch(y, tau)
    m = ratio * ratio
    big_k = n10 + n20 + dt.type(1.0)
    gain = m * big_k
    # phase accumulated per mode; summed this way it matches the local
    # rotations used by the moment-ODE oracle to the last ulp
    alpha1 = (dt.type(params.omega1_bar) + y) * tau
    alpha2 = (dt.type(params.omega2_bar) + y) * tau
    phase = alpha1 + alpha2
    sn, cs = np.sin(phase), np.cos(phase)
    s13 = big_k * ratio * (sn * ch - cs * y * ratio)
    s14 = big_k * ratio * (cs * ch + sn * y * ratio)
    d1 = n10 + gain + half
    d2 = n20 + gain + half
    zero = dt.type(0.0)
    sigma = np.array(
        [
            [d1, zero, s13, s14],
            [zero, d1, s14, -s13],
            [s13, s14, d2, zero],
            [s14, -s13, zero, d2],
        ],
        dtype=dt,
    )
    return CovarianceMatrix(sigma)


def det_gamma_closed_form(params: PdcParams, tau, temperature):
    """det of the correlation block without building the matrix.

    Equals -m(m+1)K^2 with m = sinh^2(x tau)/x^2; always <= 0 and
    strictly decreasing in tau for tau > 0.
    """
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau must be finite and >= 0")
    n10 = thermal_occupation(params.omega1_bar * params.g, temperature)
    n20 = thermal_occupation(params.omega2_bar * params.g, temperature)
    _, ratio, _ = _stretch(params.y, tau)
    m = ratio * ratio
    big_k = n10 + n20 + 1.0
    return -m * (m + 1.0) * big_k * big_k
