"""Derived entanglement analytics: birth time, critical temperature,
phase boundary and the photon-number witness.

Everything here reduces to one scalar condition.  With P = nbar1 nbar2,
K = nbar1 + nbar2 + 1 and the pair gain m = sinh^2(x tau)/x^2, the
paper's S = S0 - |det gamma| factors as (P - mK)(P + mK + K), so the
thermally seeded state is entangled exactly when m > m* = P/K (Hillery
and Zubairy, PRL 96, 050503 (2006)); S0 = P (P + K) is kept for
reporting only.  With theta = hbar (omega1 + omega2)/k_B, m* is
1/(exp(theta/T) - 1), the occupation of one mode at omega1 + omega2, so
the verdict reads theta/T > ln(1 + 1/m) (``PairState.entangled``), and
T_c = theta/ln(1 + 1/m).  The birth time inverts m = m* by an arcsinh; a
bracketed bisection in tau solves the same m = m* with the same
sinh(x tau)/x, and so checks the arcsinh inversion alone.

The closed-form birth time and the witness also take numpy arrays of T,
tau and y (the mismatch then given next to them, in place of
``params.y``) and return arrays of their broadcast shape; the bisection,
the critical temperature and the verdict take scalars.  A 0-d array is a
scalar.  Each call computes in the one library ``_pair_inputs`` picks;
the witness reads it off the pair state (``math`` for Python floats).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .gaussian_core import _check_finite, _check_scalar, _every, _pointwise, _real
from .pdc_dynamics import (
    _EXP_MAX,
    PdcParams,
    _check_nonnegative,
    _check_occupations,
    _critical_ratio,
    _entangled_at,
    _pair_inputs,
    _pair_state,
    _sinh_overflow,
    _stretch,
    _threshold_gain,
)

BTE_ABS_TOL = 1e-10


class BteResult(NamedTuple):
    """Birth time of entanglement and the route that produced it."""

    tau_e: float
    method: str  # "closed_form" | "bisection"


class PhasePoint(NamedTuple):
    """One sample (y, T_c) of the separable/entangled boundary."""

    y: float
    t_c: float


class WitnessValue(NamedTuple):
    """Photon-number witness w = sqrt(S0) - <n>.  w >= 0 certifies
    separability, and every entangled state has w < 0; a negative w alone
    proves nothing."""

    w: float
    mean_pair_photons: float
    threshold: float


@_pointwise
def s0_threshold(nbar1, nbar2):
    """Entanglement threshold S0 = nbar1 nbar2 (nbar1+1)(nbar2+1).

    This equals I1 - I2/4 + 1/16 evaluated on the initial thermal product
    state; it vanishes only for vacuum input.  Arrays are taken point by
    point.  Raises ValidationError for an occupation that is negative or
    not finite, and NumericalDomainError where S0 leaves the float range.
    """
    nbar1, nbar2 = _real("nbar1", nbar1), _real("nbar2", nbar2)
    ok = (nbar1 >= 0.0) & (nbar2 >= 0.0)
    if ok is not True and not _every(ok):
        raise ValidationError("occupations must be >= 0")
    ok = (nbar1 < math.inf) & (nbar2 < math.inf)
    if ok is not True and not _every(ok):
        raise ValidationError("occupations must be finite")
    s0 = nbar1 * nbar2 * (nbar1 + 1.0) * (nbar2 + 1.0)
    _check_finite(s0, "S0", "nbar1, nbar2", nbar1, nbar2)
    return s0


@_pointwise
def birth_time(
    params: PdcParams,
    temperature,
    method: str = "closed_form",
    y=None,
) -> BteResult:
    """Minimum interaction time before the output state is entangled.

    Solves m(tau_E) = m* (``_threshold_gain``).  For vacuum input (T = 0)
    the state is entangled immediately and tau_E = 0 for every mismatch.

    Parameters
    ----------
    method : "closed_form" inverts m = sinh^2(x tau)/x^2 at m*;
        "bisection" doubles its bracket from tau = 1 until it holds the
        onset and bisects to 1e-10 absolute, or to neighbouring floats.
        It solves the same m = m* with the same sinh form, so it checks
        only the asinh inversion.
    y : mismatch in place of ``params.y``.  With the closed form, T and y
        may be numpy arrays; tau_e then has their broadcast shape, and is
        a Python float for scalar inputs.

    Raises NumericalDomainError where an occupation, or their sum, leaves
    the float range, by either method.
    """
    if method not in ("closed_form", "bisection"):
        raise ValidationError(f"unknown method {method!r}")
    mismatch = params.y if y is None else y
    # Python floats, the common input, cost one comparison chain to check
    if type(temperature) is type(mismatch) is float and 0.0 <= mismatch < 1.0 and (
        0.0 <= temperature < math.inf
    ):
        lib = math
    else:  # the checks alone: tau = 0 only goes through them
        mismatch, _, temperature, lib = _pair_inputs(params, 0.0, temperature, y)
    _check_occupations(params, temperature, lib)
    m_star = _threshold_gain(params, temperature, lib)
    x = lib.sqrt((1.0 - mismatch) * (1.0 + mismatch))

    if method == "closed_form":
        return BteResult(lib.asinh(x * lib.sqrt(m_star)) / x, method)

    if lib is np:
        raise ValidationError("the bisection route takes a scalar T and y")
    if m_star == 0.0:
        return BteResult(0.0, method)

    # m = sinh^2(x tau)/x^2 grows without bound, so the doubling ends;
    # past the float range it refuses, and so bounds every x * mid below
    lo, hi = 0.0, 1.0
    while True:
        z = x * hi
        if not z <= _EXP_MAX:
            raise _sinh_overflow(z)
        ratio = math.sinh(z) / x
        if ratio * ratio - m_star > 0.0:
            break
        hi *= 2.0
    # past neighbouring floats the midpoint rounds to an end and the
    # bracket cannot shrink, as with a tolerance below their spacing
    while hi - lo > BTE_ABS_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        ratio = math.sinh(x * mid) / x
        if ratio * ratio - m_star > 0.0:
            hi = mid
        else:
            lo = mid
    return BteResult(0.5 * (lo + hi), method)


def _bracket_inputs(function, tau_i, t_max):
    """tau_i and t_max of ``function`` as Python floats, once they are
    real scalars, tau_i finite and >= 0 and t_max finite and positive;
    ValidationError if not."""
    _check_scalar(function, "tau_i and t_max", tau_i, t_max)
    tau_i, t_max = _real("tau_i", tau_i), _real("t_max", t_max)
    _check_nonnegative(tau_i, "tau_i")
    if not 0.0 < t_max < math.inf:
        raise ValidationError("t_max must be finite and positive")
    return tau_i, t_max


def critical_temperature(
    params: PdcParams, tau_i, t_max: float = 2000.0
) -> Optional[float]:
    """Temperature above which the state at fixed tau_i turns separable.

    The verdict is theta/T > c = ln(1 + 1/m) (``PairState.entangled``), so
    T_c = theta/c, taken as the least float T with fl(theta/T) <= c: since
    fl(theta/T) never rises with T, the state is separable from T_c up and
    entangled below it.  Returns None when there is no root in [0, t_max]:
    either the state is never entangled (tau_i = 0) or it is still
    entangled at t_max.  Raises NumericalDomainError where an occupation,
    or their sum, leaves the float range at t_max, as the birth time does.
    """
    tau_i, t_max = _bracket_inputs("critical_temperature", tau_i, t_max)
    _, ratio = _stretch(params.y, tau_i, math)
    m = ratio * ratio
    if not m > 0.0:
        return None  # m* >= m = 0 even at T = 0, as at tau_i = 0
    _check_occupations(params, t_max)
    theta, c = params._theta, _critical_ratio(m)
    if _entangled_at(theta, t_max, c):
        return None  # still entangled at t_max: no root in bracket
    t_c = math.nextafter(theta / c, math.inf)  # past theta/c, so separable
    while not _entangled_at(theta, below := math.nextafter(t_c, 0.0), c):
        t_c = below
    return t_c


def phase_boundary(
    params: PdcParams, tau_i, y_grid: Sequence[float], t_max: float = 2000.0
) -> list[PhasePoint]:
    """Map critical_temperature over a mismatch grid.

    Points with no root (never entangled, or T_c beyond the bracket) are
    omitted rather than failing the scan.  tau_i and t_max are checked
    before the first point, so an empty grid refuses them as any grid does.
    """
    tau_i, t_max = _bracket_inputs("phase_boundary", tau_i, t_max)
    points = []
    for y in y_grid:
        _check_scalar("phase_boundary", "y per y_grid entry", y)
        params_y = replace(params, y=y)  # PdcParams converts and checks y
        t_c = critical_temperature(params_y, tau_i, t_max=t_max)
        if t_c is not None:
            points.append(PhasePoint(params_y.y, t_c))
    return points


@_pointwise
def witness(params: PdcParams, tau, temperature, y=None) -> WitnessValue:
    """Measurable witness w = sqrt(S0(T)) - (n1 + n2)/2 at time tau.

    It reads the produced photon numbers and the medium temperature
    alone.  With P = nbar1 nbar2 and K = nbar1 + nbar2 + 1, the mean is
    (nbar1 + nbar2)/2 + mK, and sqrt(S0) <= P + (K - 1)/2, since their
    squares differ by (nbar1 - nbar2)^2/4; so w <= P - mK.  The state is
    entangled exactly where mK > P: every entangled state has w < 0, and
    w >= 0 certifies separability.  The converse fails, so a negative w
    alone proves nothing (at tau = 0 and 1 K, w = -2.69e-2 while
    S = +2.06e-2).  Its zero crossing in T sits close to (but not
    algebraically at) the critical temperature.  tau, T and y (the
    mismatch, in place of ``params.y``) may be numpy arrays; each field
    then has their broadcast shape.  The fields are Python floats for
    scalar inputs, and float64 arrays otherwise.  Raises
    NumericalDomainError where a field leaves the float range.
    """
    return _witness(_pair_state(params, tau, temperature, y))


def _witness(pair) -> WitnessValue:
    """The witness of a pair state; ``witness``."""
    nbar1, nbar2 = pair.nbar1, pair.nbar2
    lib = math if type(nbar1) is float else np
    threshold = lib.sqrt(nbar1 * nbar2 * (nbar1 + 1.0) * (nbar2 + 1.0))
    gain = pair.m * pair.big_k
    mean = (nbar1 + gain + nbar2 + gain) / 2.0
    _check_finite(threshold + mean, "witness", "tau, T", pair.tau, pair.temperature)
    if lib is np:  # sqrt(S0) reads T alone; the mean has the shape of every input
        threshold = np.broadcast_to(threshold, mean.shape).copy()
    return WitnessValue(threshold - mean, mean, threshold)
