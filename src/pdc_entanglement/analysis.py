"""Derived entanglement analytics: birth time, critical temperature,
phase boundary and the photon-number witness.

Everything here reduces to one scalar condition.  The thermally seeded
state is entangled exactly when

    |det gamma(tau)| > S0,      S0 = nbar1 nbar2 (nbar1+1)(nbar2+1),

with |det gamma| = m(m+1)K^2, m = sinh^2(x tau)/x^2, K = nbar1+nbar2+1.
Every quantity here reads the occupations and m from the core of
``pdc_dynamics``.  The birth time solves the equality in closed form
(quadratic in m, then arcsinh); a bracketed bisection in tau on the same
condition is kept as an independent verification route.  The occupations
and x are fixed outside its loop, so each evaluation is sinh(x tau)/x and
one comparison that refuses an x*tau past the float range.  The critical
temperature is the root in T of the separability indicator at fixed
interaction time, found by bisection with m computed once.

The closed-form birth time and the witness also take numpy arrays of T,
tau and y (the mismatch then given next to them, in place of
``params.y``) and return arrays of their broadcast shape; the bisections
take scalars.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .gaussian_core import _check_finite, _every, _pointwise, _working
from .pdc_dynamics import (
    _EXP_MAX,
    PdcParams,
    _check_mismatch,
    _check_nonnegative,
    _occupations,
    _pair_state,
    _sinh_overflow,
    _stretch,
)

BTE_ABS_TOL = 1e-10
TC_REL_TOL = 1e-6


class BteResult(NamedTuple):
    """Birth time of entanglement and the route that produced it."""

    tau_e: float
    method: str  # "closed_form" | "bisection"


class PhasePoint(NamedTuple):
    """One sample (y, T_c) of the separable/entangled boundary."""

    y: float
    t_c: float


class WitnessValue(NamedTuple):
    """Photon-number witness w = sqrt(S0) - <n>; negative means entangled."""

    w: float
    mean_pair_photons: float
    threshold: float


def s0_threshold(nbar1, nbar2):
    """Entanglement threshold S0 = nbar1 nbar2 (nbar1+1)(nbar2+1).

    This equals I1 - I2/4 + 1/16 evaluated on the initial thermal product
    state; it vanishes only for vacuum input.  Arrays are taken point by
    point.
    """
    ok = (nbar1 >= 0.0) & (nbar2 >= 0.0)
    if ok is not True and not _every(ok):
        raise ValidationError("occupations must be >= 0")
    return nbar1 * nbar2 * (nbar1 + 1.0) * (nbar2 + 1.0)


def _bisect(f, lo, hi, *, abs_tol=0.0, rel_tol=0.0):
    """Sign-change bisection; assumes f(lo) <= 0 < f(hi).

    It stops when the bracket is within the tolerance, however wide it
    was at the start, or when lo and hi are neighbouring floats: past
    that the midpoint rounds to an end and the bracket cannot shrink, as
    with a tolerance below the float spacing at the root.
    """
    while hi - lo > abs_tol + rel_tol * max(abs(hi), 1.0):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@_pointwise
def birth_time(
    params: PdcParams,
    temperature,
    method: str = "closed_form",
    y=None,
) -> BteResult:
    """Minimum interaction time before the output state is entangled.

    Solves |det gamma(tau_E)| = S0.  For vacuum input (T = 0) the state
    is entangled immediately and tau_E = 0 for every mismatch.

    Parameters
    ----------
    method : "closed_form" solves the quadratic in m = sinh^2(x tau)/x^2
        and inverts it; "bisection" doubles its bracket from tau = 1 until
        it holds the onset and bisects to 1e-10 absolute, serving as the
        independent check.
    y : mismatch in place of ``params.y``.  With the closed form, T and y
        may be numpy arrays; tau_e then has their broadcast shape, and is
        a Python float for scalar inputs.

    Raises NumericalDomainError where S0 or K^2 leaves the float range (T
    above about 1e77 K at the default frequencies), by either method.
    """
    if method not in ("closed_form", "bisection"):
        raise ValidationError(f"unknown method {method!r}")
    pair = _pair_state(params, 0.0, temperature, y)
    s0 = s0_threshold(pair.nbar1, pair.nbar2)
    k_sq = pair.big_k * pair.big_k
    x = pair.x
    # their sum, not their product: S0 K^2 overflows long before either
    _check_finite(s0 + k_sq, "S0 or K^2", "T", temperature)

    if method == "closed_form":
        _, lib = _working(s0, x)
        # 4 S0/K^2 <= K^2/4, so this stays finite with S0 and K^2
        c = 4.0 * (s0 / k_sq)
        m_star = c / (2.0 * (1.0 + lib.sqrt(1.0 + c)))  # (-1+sqrt(1+c))/2, stable
        tau_e = lib.asinh(x * lib.sqrt(m_star)) / x
        return BteResult(tau_e, method)

    if np.ndim(s0) or np.ndim(x):
        raise ValidationError("the bisection route takes a scalar T and y")
    if s0 == 0.0:
        return BteResult(0.0, method)
    # the library _working picks for y as given: numpy for a 0-d array y
    _, lib = _working(y)

    def f(tau):
        z = x * tau
        if not z <= _EXP_MAX:
            raise _sinh_overflow(z)
        ratio = lib.sinh(z) / x
        m = ratio * ratio
        return m * (m + 1.0) * k_sq - s0

    # f grows without bound, so the doubling ends; past the float range
    # f refuses
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    return BteResult(float(_bisect(f, 0.0, hi, abs_tol=BTE_ABS_TOL)), method)


def critical_temperature(
    params: PdcParams, tau_i, t_max: float = 2000.0
) -> Optional[float]:
    """Temperature above which the state at fixed tau_i turns separable.

    Bisects S(T) = 0 over [0, t_max] to 1e-6 relative.  Returns None when
    there is no root in the bracket: either the state is never entangled
    (tau_i = 0) or it is still entangled at t_max.  S is checked by sign
    at both bracket ends rather than assumed monotone.  Raises
    NumericalDomainError where S0 or K^2 leaves the float range in the
    bracket (a t_max above about 1e77 K at the default frequencies), as
    the birth time does.
    """
    tau_i, t_max = float(tau_i), float(t_max)
    _check_nonnegative(tau_i, "tau_i")
    if not 0.0 < t_max < math.inf:
        raise ValidationError("t_max must be finite and positive")
    _, ratio, _ = _stretch(params.y, tau_i, math)
    m = ratio * ratio
    pair_gain = m * (m + 1.0)

    def indicator(temp):
        """S(T) = S0(T) - m(m+1)K(T)^2 at the fixed m."""
        n1, n2 = _occupations(params, temp)
        big_k = n1 + n2 + 1.0
        return s0_threshold(n1, n2) - pair_gain * big_k * big_k

    if indicator(0.0) >= 0.0:
        return None  # separable even at T = 0, as at tau_i = 0, where m = 0
    # S0 and K^2 grow with T, so finite at t_max they are finite in the
    # whole bracket.  Past the float range S(t_max) = inf - inf = NaN would
    # pass both sign tests and move every midpoint's lo up; an infinite
    # m(m+1) alone gives S = -inf, whose sign holds.
    n1, n2 = _occupations(params, t_max)
    big_k = n1 + n2 + 1.0
    _check_finite(s0_threshold(n1, n2) + big_k * big_k, "S0 or K^2", "T", t_max)
    if indicator(t_max) < 0.0:
        return None  # still entangled at t_max: no root in bracket
    return float(_bisect(indicator, 0.0, t_max, rel_tol=TC_REL_TOL))


def phase_boundary(
    params: PdcParams, tau_i, y_grid: Sequence[float], t_max: float = 2000.0
) -> list[PhasePoint]:
    """Map critical_temperature over a mismatch grid.

    Points with no root (never entangled, or T_c beyond the bracket) are
    omitted rather than failing the scan.
    """
    points = []
    for y in y_grid:
        _check_mismatch(y)
        t_c = critical_temperature(replace(params, y=float(y)), tau_i, t_max=t_max)
        if t_c is not None:
            points.append(PhasePoint(float(y), t_c))
    return points


@_pointwise
def witness(params: PdcParams, tau, temperature, y=None) -> WitnessValue:
    """Measurable witness w = sqrt(S0(T)) - (n1 + n2)/2 at time tau.

    Negative w certifies entanglement from the produced photon numbers
    and the medium temperature alone.  Its zero crossing in T sits close
    to (but not algebraically at) the critical temperature.  tau, T and
    y (the mismatch, in place of ``params.y``) may be numpy arrays; each
    field then has their broadcast shape.  The fields are Python floats
    for scalar inputs, and float64 arrays otherwise.  Raises
    NumericalDomainError where a field leaves the float range.
    """
    pair = _pair_state(params, tau, temperature, y)
    s0 = s0_threshold(pair.nbar1, pair.nbar2)
    _, lib = _working(s0, pair.m)
    threshold = lib.sqrt(s0)
    gain = pair.m * pair.big_k
    mean = (pair.nbar1 + gain + pair.nbar2 + gain) / 2.0
    _check_finite(threshold + mean, "witness", "tau, T", tau, temperature)
    return WitnessValue(threshold - mean, mean, threshold)
