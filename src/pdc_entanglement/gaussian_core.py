"""Covariance-matrix algebra for two-mode Gaussian states.

All states are described by the 4x4 real symmetric matrix of symmetrized
second moments of the quadratures (q1, p1, q2, p2) with the convention
q = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), so the vacuum
covariance matrix is identity/2, ``CovarianceMatrix(0.5 * np.eye(4))``.

Entanglement is decided from the two scalar symplectic invariants of the
partially transposed state; no generic eigensolver is involved.  The
indicator S is negative exactly when the state is entangled (PPT
criterion, necessary and sufficient for 1x1 modes), and the logarithmic
negativity is E_N = max(0, -ln 2*nu_minus_pt).

A matrix has one of two routes.  A matrix whose ``pair`` is set (only
those from ``pdc_dynamics.covariance_matrix``) takes the pair route:
``pair`` is an object with two methods, ``invariants()``, which returns
its :class:`SymplecticInvariants`, and ``entangled()``, its verdict.
``symplectic_invariants`` and ``entanglement_report`` call them, and
``physicality_check`` answers True; this module reads nothing else of
it, and the closed forms behind it live in ``pdc_dynamics``.  Any other
matrix takes the generic route: determinants of the 4x4 entries in
float64, with the verdict S < 0.  At strong squeezing those combinations
cancel, so the route loses digits once sinh(x tau) is large.  The
rounding of the entries themselves (relative eps of float64) then
reaches E_N as an error of about eps * max|sigma|^2 / sqrt(I1); once that
estimate passes GENERIC_EN_TOL the route raises NumericalDomainError
instead of returning a verdict.

A ``CovarianceMatrix`` built from entries is checked (finite, symmetric)
and copied to a read-only float64 array.  The matrices of
``pdc_dynamics.covariance_matrix`` skip those checks: that function has
already refused entries that are not finite, and the private constructor
it calls keeps the four distinct entries and forms the array from them
on the first read of ``entries``, in a layout that is symmetric by
construction; the pair route, the verdict and ``physicality_check``
never read it.  Every other construction keeps the checks.

Every function is pure.  The results are immutable NamedTuples, and a
``CovarianceMatrix`` is a frozen dataclass over a read-only array or the
four floats it is formed from, so instances can be shared freely across
threads: two threads that form one matrix's array form the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import NumericalDomainError, ValidationError

SYMMETRY_TOL = 1e-12
DOMAIN_TOL = 1e-9
# largest estimated E_N error the generic route answers with.  On a grid of
# 12 y in [0, 0.99], 7 T in [0, 2000] K and tau from 4 in steps of 0.05
# until covariance_matrix overflows, every E_N it then gave was within
# 3.2e-9 of the pair route
GENERIC_EN_TOL = 1e-9


def _has_array(values):
    """Whether any value is a numpy array of one or more dimensions, which
    sends a closed form to numpy; a 0-d array is a scalar."""
    for value in values:
        if type(value) is not float and isinstance(value, np.ndarray) and value.ndim:
            return True
    return False


def _check_scalar(function, names, *values, arrays=None):
    """Refuse, with a ValidationError that names ``function`` and its
    scalar arguments ``names``, any of ``values`` of one or more
    dimensions, an array or a list alike; a 0-d array passes.  ``arrays``
    names the function that takes arrays in their place, if there is one."""
    for value in values:
        if type(value) is not float and np.ndim(value):
            instead = f"; {arrays} takes arrays" if arrays else ""
            raise ValidationError(f"{function} takes a scalar {names}{instead}")


_REAL_KINDS = "fiu"  # numpy kinds of a real number: float, signed and unsigned int


def _real(name, value):
    """A real input as a Python float, or as a float64 array of one or more
    dimensions, if its numpy kind is in ``_REAL_KINDS``; else (None, bool,
    complex, str, list, int past 64 bits) a ValidationError naming ``name``."""
    if type(value) is float:
        return value
    if isinstance(value, (int, float, np.generic, np.ndarray)):
        if np.asarray(value).dtype.kind in _REAL_KINDS:
            return np.asarray(value, dtype=np.float64) if np.ndim(value) else float(value)
    raise ValidationError(f"{name} must be a real number, got {value!r}")


def _working(*values):
    """The math module of a closed-form evaluation: numpy when
    ``_has_array``, else ``math``; after ``_real``, a numpy scalar or a
    0-d array is a Python float and gives the scalar call's bits."""
    return np if _has_array(values) else math


def _every(ok):
    """Whether a check holds at every point: ``ok`` itself for a scalar
    check, ``ok.all()`` for an array of them.  Call sites on the scalar
    path test ``ok is not True`` first, so a check on Python floats costs
    no call."""
    return ok.all() if isinstance(ok, np.ndarray) else ok


def _first(value, ok):
    """The value a failed check reports: ``value`` itself for a scalar
    check, else its first point where ``ok`` is False."""
    if isinstance(ok, np.ndarray):
        return np.broadcast_to(value, ok.shape)[~ok][0]
    return value


def _check_finite(value, what, names, *points):
    """Raise NumericalDomainError unless ``value`` is finite at every
    point; the message gives the ``points`` (called ``names``) of the
    first failing one.  Positional, since keywords cost more than the
    check on the scalar path."""
    ok = abs(value) < math.inf
    if ok is not True and not _every(ok):
        at = ", ".join(repr(float(_first(v, ok))) for v in points)
        raise NumericalDomainError(f"{what} overflows the float range at ({names}) = ({at})")


def _pointwise(closed_form):
    """Let ``closed_form`` take numpy arrays.

    On Python floats an overflow gives inf (and inf - inf gives NaN)
    without a word, and the finiteness checks of the closed forms then
    raise.  numpy warns on the same operations, and on a division by
    zero, which the thermal occupation turns into inf for Python floats
    as well.  So a call with an array argument runs with those warnings
    off: any point of an array past the float range then raises the
    error that point alone would.  The positional arguments are tested
    inline, as ``_has_array`` does, so a call on Python floats and no
    keywords makes no call besides ``closed_form``.
    """

    @functools.wraps(closed_form)
    def call(*args, **kwargs):
        for value in args:
            if type(value) is not float and isinstance(value, np.ndarray) and value.ndim:
                break
        else:
            if not kwargs or not _has_array(kwargs.values()):
                return closed_form(*args, **kwargs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return closed_form(*args, **kwargs)

    return call


def _det2(m):
    """Determinant of a 2x2 block, written out explicitly."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _spectrum_at_least(sigma, i1, t_sq):
    """Whether both symplectic eigenvalues of a positive-definite CM
    sigma with I1 = det(sigma) are >= t, given t^2.

    nu^2 are the roots of q(z) = z^2 - I2 z + I1, so "both nu >= t" is
    equivalent to the sign conditions q(t^2) >= 0 and I2 >= 2 t^2: no
    square root, no clamp, exact for rationals.
    """
    i2 = _det2(sigma[:2, :2]) + _det2(sigma[2:, 2:]) + 2 * _det2(sigma[:2, 2:])
    return (t_sq * t_sq - i2 * t_sq + i1 >= 0) & (i2 >= 2 * t_sq)


_FLOAT64_MAX = float(np.finfo(np.float64).max)


def _checked_entries(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of a 4x4 matrix, once its entries are real
    or integer, finite and symmetric within ``SYMMETRY_TOL`` times
    max(1, its largest |entry|); ValidationError if not.
    """
    # a complex matrix would lose its imaginary part in the float64 copy
    if arr.dtype.kind not in _REAL_KINDS:
        raise ValidationError(
            f"covariance matrix entries must be real numbers, got dtype {arr.dtype}"
        )
    # one pass finds both: the max is NaN if any entry is, and an entry
    # past the float64 range (of a long double input) exceeds its max
    scale = float(np.abs(arr).max())
    if not scale <= _FLOAT64_MAX:
        raise ValidationError("covariance matrix entries must be finite")
    arr = arr.astype(np.float64)
    if not np.abs(arr - arr.T).max() <= SYMMETRY_TOL * max(1.0, scale):
        raise ValidationError("covariance matrix is not symmetric within 1e-12")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """4x4 real symmetric second-moment matrix, ordering (q1, p1, q2, p2).

    The entries array is copied and frozen at construction.  Symmetry is
    enforced within ``SYMMETRY_TOL`` (scaled by the matrix magnitude);
    physicality is *not* enforced here, use :func:`physicality_check`.
    The entries are stored as float64; an entry past the float64 range is
    refused like any other entry that is not finite.

    ``pair`` is set only by ``pdc_dynamics.covariance_matrix``, through
    ``_of_pair``, to the pair state the entries were built from, an object
    with ``invariants()`` and ``entangled()``; the invariants and the
    verdict then take the pair route, and the same read-only float64
    entries are formed on first read, unchecked (see the module
    docstring).  It is not a constructor argument, is not in repr, and
    ``replace`` drops it.  ``==`` is identity: compare ``entries``.
    """

    entries: np.ndarray
    pair: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.shape != (4, 4):
            raise ValidationError(f"covariance matrix must be 4x4, got {arr.shape}")
        object.__setattr__(self, "entries", _checked_entries(arr))

    @classmethod
    def _of_pair(cls, d1, d2, s13, s14, pair) -> "CovarianceMatrix":
        """The matrix of a pair state from its four distinct entries, which
        the caller has checked to be finite, without ``__post_init__`` (see
        the module docstring); ``entries`` is formed on its first read, in
        the layout of ``pdc_dynamics.covariance_matrix``.  The only caller
        is ``pdc_dynamics._pair_matrix``, the reader behind that function.
        """
        cm = object.__new__(cls)
        # not through __dict__: CPython then keeps a dict, and reads are slower
        object.__setattr__(cm, "pair", pair)
        object.__setattr__(cm, "_four", (d1, d2, s13, s14))
        return cm

    def __getattr__(self, name):
        # reached only when the lookup failed: entries of _of_pair, unread
        if name != "entries" or self.pair is None:
            return object.__getattribute__(self, name)  # the usual AttributeError
        d1, d2, s13, s14 = self._four
        flat = np.array([
            d1, 0.0, s13, s14,
            0.0, d1, s14, -s13,
            s13, s14, d2, 0.0,
            s14, -s13, 0.0, d2,
        ])
        flat.setflags(write=False)
        object.__setattr__(self, "entries", flat.reshape(4, 4))
        return self.entries


class SymplecticInvariants(NamedTuple):
    """Scalar invariants of a two-mode CM and its partial transpose.

    i1 is det(sigma); i2 = det alpha + det beta + 2 det gamma.  s0 and the
    separability indicator s follow from them; delta_tilde is the
    partially transposed seralian det alpha + det beta - 2 det gamma, and
    nu_minus_pt <= nu_plus_pt are the PT symplectic eigenvalues obtained
    in closed form from (delta_tilde, i1).
    """

    i1: float
    i2: float
    s0: float
    s: float
    delta_tilde: float
    nu_minus_pt: float
    nu_plus_pt: float

    @property
    def log_negativity(self):
        """E_N = max(0, -ln 2*nu_minus_pt), natural log, per point."""
        nu = self.nu_minus_pt
        e_n = -(math.log if type(nu) is float else _working(nu).log)(2.0 * nu)
        # max(0, e_n) for a scalar and an array alike, and +0.0 at nu = 1/2
        return (e_n + abs(e_n)) / 2.0


class EntanglementReport(NamedTuple):
    """Summary verdict for one state: E_N, the indicator s, and nu_minus_pt."""

    log_negativity: float
    s: float
    entangled: bool
    nu_minus_pt: float


def _pt_eigenvalue_pair(delta, i1):
    """Both symplectic eigenvalues (nu_minus, nu_plus), nu_minus <=
    nu_plus, from a seralian/determinant pair.

    Solves z^2 - delta*z + i1 = 0 for z = nu^2 using the rationalized
    root for the small solution; the naive (delta - sqrt(disc))/2 form
    loses all precision once delta >> i1 (strong squeezing).  A
    discriminant below 0 by no more than DOMAIN_TOL max(delta^2, 1) is
    rounding of a degenerate spectrum and is taken as 0; i1/nu_plus^2
    can then round above nu_plus^2, so the small root is capped at the
    large one.  A larger deficit (delta^2 < 4 i1), which no
    positive-definite matrix has, raises NumericalDomainError.  The one
    caller, the generic route, passes only positive-definite matrices, so
    delta >= 2 sqrt(i1) > 0 up to rounding far below that margin.
    """
    disc = delta * delta - 4.0 * i1
    if disc < 0.0:
        if -disc <= DOMAIN_TOL * max(float(delta * delta), 1.0):
            disc = disc * 0
        else:
            raise NumericalDomainError(
                "delta^2 < 4*det(sigma): covariance matrix is not a physical "
                f"two-mode Gaussian state (delta={float(delta)!r}, det={float(i1)!r})"
            )
    nu_plus_sq = (delta + np.sqrt(disc)) / 2.0
    nu_minus_sq = min(i1 / nu_plus_sq, nu_plus_sq)
    return np.sqrt(nu_minus_sq), np.sqrt(nu_plus_sq)


def symplectic_invariants(cm: CovarianceMatrix) -> SymplecticInvariants:
    """Compute the invariant set (I1, I2, S0, S, PT symplectic spectrum).

    A matrix that carries its pair state takes the pair route.  Any other
    matrix takes the generic route in float64, whose determinant
    combinations cancel digits at strong squeezing; it refuses the
    matrices where that can move E_N by more than GENERIC_EN_TOL.

    Raises
    ------
    NumericalDomainError
        If an invariant of the pair route is not finite, if the generic
        route gets a matrix that is not positive definite, or with
        entries whose determinants overflow float64, or if its estimated
        E_N error eps * max|sigma|^2 / sqrt(I1) exceeds GENERIC_EN_TOL.
        Positive definite is read from the leading principal minors:
        sigma_11 > 0, det alpha > 0 (no CM has det alpha < 1/4), the
        first entry of the Schur complement beta - gamma^T alpha^-1 gamma
        > 0, and I1 > 0, which the error estimate requires.  The PT
        spectrum of a positive-definite matrix is real, so delta_tilde^2
        >= 4*I1 holds up to rounding.
    """
    if cm.pair is not None:
        return cm.pair.invariants()
    sigma = cm.entries
    scale = np.max(np.abs(sigma))
    # a positive-definite sigma keeps every intermediate below 64 max|sigma|^4 <= 2^1018
    if not scale <= 2.0**253:
        raise NumericalDomainError(f"max|sigma| = {scale:.3e} overflows the generic route")
    alpha, gamma = sigma[:2, :2], sigma[:2, 2:]
    det_alpha = _det2(alpha)
    if not det_alpha > 0.0:
        raise NumericalDomainError(f"det alpha = {float(det_alpha)!r}: not a CM")
    # det sigma = det alpha det(beta - gamma^T alpha^-1 gamma): no cofactor
    # expansion, whose terms cancel catastrophically at strong squeezing
    adj_alpha = np.array([[alpha[1, 1], -alpha[0, 1]], [-alpha[1, 0], alpha[0, 0]]])
    schur = sigma[2:, 2:] - (gamma.T @ adj_alpha @ gamma) / det_alpha
    if not (sigma[0, 0] > 0.0 and schur[0, 0] > 0.0):
        raise NumericalDomainError(
            f"sigma_11 = {float(sigma[0, 0])!r}, (beta - gamma^T alpha^-1 gamma)_11 = "
            f"{float(schur[0, 0])!r}: not positive definite, not a CM"
        )
    det_beta = _det2(sigma[2:, 2:])
    det_gamma = _det2(gamma)
    i1 = det_alpha * _det2(schur)
    eps = np.finfo(np.float64).eps
    allowed = GENERIC_EN_TOL * np.sqrt(i1) if 0.0 < i1 < math.inf else 0.0
    if not eps * scale * scale <= allowed:
        raise NumericalDomainError(
            "generic route cannot resolve this matrix: estimated E_N error "
            f"eps*max|sigma|^2/sqrt(det) exceeds {GENERIC_EN_TOL} (eps={eps:.1e}, "
            f"max|sigma|={float(scale):.3e}, det={float(i1):.3e})"
        )
    i2 = det_alpha + det_beta + 2.0 * det_gamma
    s0 = i1 - i2 / 4.0 + 1.0 / 16.0
    s = s0 + (det_gamma - np.abs(det_gamma)) / 2.0
    delta_tilde = det_alpha + det_beta - 2.0 * det_gamma
    nu_minus, nu_plus = _pt_eigenvalue_pair(delta_tilde, i1)
    return SymplecticInvariants(i1, i2, s0, s, delta_tilde, nu_minus, nu_plus)


def log_negativity(cm: CovarianceMatrix) -> float:
    """Logarithmic negativity E_N = max(0, -ln 2*nu_minus_pt), natural log.

    The factor 2 matches the vacuum-variance-1/2 convention used
    throughout the package.
    """
    return float(symplectic_invariants(cm).log_negativity)


def entanglement_report(cm: CovarianceMatrix) -> EntanglementReport:
    """Bundle E_N, S and the verdict for one covariance matrix: the pair
    state's ``entangled()`` on the pair route, else S < 0."""
    inv = symplectic_invariants(cm)
    entangled = inv.s < 0.0 if cm.pair is None else cm.pair.entangled()
    return EntanglementReport(
        float(inv.log_negativity), float(inv.s), bool(entangled), float(inv.nu_minus_pt)
    )


def physicality_check(cm: CovarianceMatrix) -> bool:
    """True iff both symplectic eigenvalues of the CM itself are >= 1/2 - 1e-9
    and the matrix is positive definite.

    This checks the state, not its partial transpose; it never raises and
    returns False for anything below the vacuum noise floor.

    A matrix that carries its pair state is physical by construction (its
    symplectic eigenvalues are nbar_j + 1/2), though its rounded float64
    entries alone can miss the 1e-9 slack at strong squeezing.  Any other
    matrix is decided exactly on its entries: scaled by one power-of-two
    denominator den they are integers, and Bareiss' fraction-free
    elimination of those gives the leading principal minors times
    den^(k+1) as its pivots, the last one being det(sigma) den^4.  The
    sign test of ``_spectrum_at_least`` needs no square root, so
    rationals decide it exactly even on a degenerate spectrum.
    """
    if cm.pair is not None:
        return True
    ratios = [v.as_integer_ratio() for v in cm.entries.ravel().tolist()]
    den = max(d for _, d in ratios)
    a = [[n * (den // d) for n, d in ratios[4 * i:4 * i + 4]] for i in range(4)]
    # positive definite iff every leading principal minor is positive
    previous = 1
    for k in range(4):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, 4):
            for j in range(k + 1, 4):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // previous
        previous = pivot
    exact = np.array([Fraction(n, d) for n, d in ratios], dtype=object).reshape(4, 4)
    threshold = Fraction(1, 2) - Fraction(1, 10**9)
    return _spectrum_at_least(exact, Fraction(previous, den**4), threshold * threshold)
