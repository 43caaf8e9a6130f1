"""Covariance-matrix algebra for two-mode Gaussian states.

All states are described by the 4x4 real symmetric matrix of symmetrized
second moments of the quadratures (q1, p1, q2, p2) with the convention
q = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), so the vacuum
covariance matrix is identity/2.

Entanglement is decided from the two scalar symplectic invariants of the
partially transposed state; no generic eigensolver is involved.  The
separability indicator S is negative exactly when the state is entangled
(PPT criterion, necessary and sufficient for 1x1 modes), and the
logarithmic negativity is E_N = max(0, -ln 2*nu_minus_pt).

The invariants have two routes:

* the pair route, for a matrix that carries a :class:`PairState` (every
  matrix from ``pdc_dynamics.covariance_matrix``).  The state is then a
  thermally seeded two-mode squeezed state, fixed by its initial
  occupations nbar1, nbar2, the pair gain m and K = nbar1 + nbar2 + 1,
  and every invariant has a closed form with no subtraction of large
  terms.  It runs in the precision of the pair state and is exact until
  the invariants leave the float range, where it raises
  NumericalDomainError;
* the generic route, for any other matrix.  It computes determinants of
  the 4x4 entries in extended precision; at strong squeezing the
  combinations cancel, so it loses digits once sinh(x tau) is large.
  The rounding of the entries themselves (relative eps of their dtype)
  then reaches E_N as an error of about eps * max|sigma|^2 / sqrt(I1);
  once that estimate passes GENERIC_EN_TOL the route raises
  NumericalDomainError instead of returning a verdict.

Every function is pure and the value types are frozen; instances can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalDomainError, ValidationError

SYMMETRY_TOL = 1e-12
PHYSICALITY_SLACK = 1e-9
DOMAIN_TOL = 1e-9
# largest estimated E_N error the generic route answers with.  On float64
# entries (y in [0, 0.99], T in [0, 2000] K, tau from 4 until
# covariance_matrix overflows) every E_N it then gave was within 2e-9 of
# the pair route
GENERIC_EN_TOL = 1e-9


def _det2(m) -> float:
    """Determinant of a 2x2 block, written out explicitly."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det4(sigma) -> float:
    """Determinant of a 4x4 covariance matrix.

    Uses the Schur-complement factorization det(sigma) =
    det(alpha) * det(beta - gamma^T alpha^{-1} gamma), which keeps the
    large hyperbolic terms from cancelling catastrophically at strong
    squeezing (a naive cofactor expansion loses ~16 digits there).  Falls
    back to cofactor expansion when the upper block is near singular,
    which cannot happen for a physical state (alpha >= id/2).
    """
    al = sigma[:2, :2]
    be = sigma[2:, 2:]
    ga = sigma[:2, 2:]
    det_al = _det2(al)
    scale = np.max(np.abs(sigma))
    if np.abs(det_al) > 1e-100 * max(1.0, float(scale)) ** 2:
        adj = np.array([[al[1, 1], -al[0, 1]], [-al[1, 0], al[0, 0]]])
        schur = be - (ga.T @ adj @ ga) / det_al
        return det_al * _det2(schur)
    return _det4_cofactor(sigma)


def _det4_cofactor(m) -> float:
    """Plain first-row cofactor expansion (generic fallback)."""

    def det3(a):
        return (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )

    total = m[0, 0] * det3(m[1:, [1, 2, 3]])
    total = total - m[0, 1] * det3(m[1:, [0, 2, 3]])
    total = total + m[0, 2] * det3(m[1:, [0, 1, 3]])
    total = total - m[0, 3] * det3(m[1:, [0, 1, 2]])
    return total


class PairState(NamedTuple):
    """Scalars that fix a thermally seeded two-mode squeezed state.

    nbar1, nbar2 are the initial thermal occupations, m = sinh^2(x tau)/x^2
    the pair gain and big_k = nbar1 + nbar2 + 1; x, ratio = sinh(x tau)/x
    and ch = cosh(x tau) are kept for the covariance-matrix entries.
    """

    nbar1: float
    nbar2: float
    m: float
    big_k: float
    x: float
    ratio: float
    ch: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 real symmetric second-moment matrix, ordering (q1, p1, q2, p2).

    The entries array is copied and frozen at construction.  Symmetry is
    enforced within ``SYMMETRY_TOL`` (scaled by the matrix magnitude);
    physicality is *not* enforced here, use :func:`physicality_check`.
    The dtype of the input is preserved, so extended-precision pipelines
    (``np.longdouble``) pass through untouched.

    ``pair`` is set by ``pdc_dynamics.covariance_matrix`` to the pair
    state the entries were built from; the invariants then take the pair
    route.  It takes no part in equality or repr.
    """

    entries: np.ndarray
    pair: Optional[PairState] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, copy=True)
        if arr.shape != (4, 4):
            raise ValidationError(f"covariance matrix must be 4x4, got {arr.shape}")
        # one pass finds both: the max is NaN if any entry is, and float()
        # turns an entry past the float64 range into inf
        scale = float(np.abs(arr).max())
        if not scale < math.inf:
            raise ValidationError("covariance matrix entries must be finite")
        if float(np.abs(arr - arr.T).max()) > SYMMETRY_TOL * max(1.0, scale):
            raise ValidationError("covariance matrix is not symmetric within 1e-12")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def vacuum(cls) -> "CovarianceMatrix":
        return cls(0.5 * np.eye(4))


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 blocks of a two-mode CM: local CMs alpha/beta, correlations gamma."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class SymplecticInvariants:
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


@dataclass(frozen=True)
class EntanglementReport:
    """Summary verdict for one state: E_N, the indicator s, and nu_minus_pt."""

    log_negativity: float
    s: float
    entangled: bool
    nu_minus_pt: float


def block_decompose(cm: CovarianceMatrix) -> BlockDecomposition:
    """Split a CM into its mode-local blocks and the correlation block.

    alpha is rows/cols (1,2), beta rows/cols (3,4), gamma the upper-right
    2x2 block.  Stacking them back reproduces the source matrix bit for
    bit.
    """
    sigma = cm.entries
    return BlockDecomposition(
        alpha=sigma[:2, :2].copy(),
        beta=sigma[2:, 2:].copy(),
        gamma=sigma[:2, 2:].copy(),
    )


def _pt_eigenvalue_pair(delta, i1):
    """Both symplectic eigenvalues from a seralian/determinant pair.

    Solves z^2 - delta*z + i1 = 0 for z = nu^2 using the rationalized
    root for the small solution; the naive (delta - sqrt(disc))/2 form
    loses all precision once delta >> i1 (strong squeezing).
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
    root = np.sqrt(disc)
    nu_plus_sq = (delta + root) / 2.0
    if nu_plus_sq <= 0.0:
        raise NumericalDomainError("non-positive symplectic spectrum")
    nu_minus_sq = i1 / nu_plus_sq
    return np.sqrt(nu_minus_sq), np.sqrt(nu_plus_sq)


def _pair_invariants(pair: PairState) -> SymplecticInvariants:
    """The invariant set of a pair state, with no cancelling subtraction.

    With a = nbar1 + 1/2, b = nbar2 + 1/2 and |det gamma| = m(m+1)K^2:
    I1 = (ab)^2 and I2 = a^2 + b^2 are conserved by the evolution,
    delta_tilde = I2 + 4|det gamma|, and the PT symplectic eigenvalues are
    nu_plus = D/2 and nu_minus = ab/nu_plus with
    D = K(1+2m) + sqrt((nbar1-nbar2)^2 + 4K^2 m(m+1)), so that
    E_N = ln(D/((2nbar1+1)(2nbar2+1))).  D is formed from sqrt(m)
    sqrt(m+1), not from |det gamma|, so it stays finite while m does.
    """
    lib = np if isinstance(pair.m, np.longdouble) else math
    n1, n2, m, big_k = pair.nbar1, pair.nbar2, pair.m, pair.big_k
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
    # exactly when every invariant is
    if not i1 + i2 + s0 - s + delta_tilde + nu_plus < math.inf:
        raise NumericalDomainError(
            f"invariants overflow the {type(m).__name__} range at m={float(m)!r}"
        )
    return SymplecticInvariants(
        i1=i1,
        i2=i2,
        s0=s0,
        s=s,
        delta_tilde=delta_tilde,
        nu_minus_pt=a * b / nu_plus,
        nu_plus_pt=nu_plus,
    )


def symplectic_invariants(cm: CovarianceMatrix) -> SymplecticInvariants:
    """Compute the invariant set (I1, I2, S0, S, PT symplectic spectrum).

    A matrix that carries its pair state takes the pair route, in the
    precision of the pair state.  Any other matrix takes the generic
    route: arithmetic runs in extended precision and the results are cast
    back to the entry dtype, because the determinant combinations cancel
    digits at strong squeezing (there even extended precision misses
    E_N = 2 tau by more than 1e-9 from tau ~ 6.5 on).

    Raises
    ------
    NumericalDomainError
        If delta_tilde^2 < 4*I1 beyond tolerance, which signals an
        unphysical input matrix, if an invariant of the pair route is
        not finite, or if the generic route's estimated E_N error
        eps * max|sigma|^2 / sqrt(I1) exceeds GENERIC_EN_TOL (always for
        I1 <= 0).
    """
    if cm.pair is not None:
        return _pair_invariants(cm.pair)
    out = cm.entries.dtype.type
    sigma = cm.entries.astype(np.longdouble)
    det_alpha = _det2(sigma[:2, :2])
    det_beta = _det2(sigma[2:, 2:])
    det_gamma = _det2(sigma[:2, 2:])
    i1 = _det4(sigma)
    eps = np.finfo(np.result_type(cm.entries.dtype, 1.0)).eps
    scale = np.max(np.abs(sigma))
    allowed = GENERIC_EN_TOL * np.sqrt(i1) if i1 > 0.0 else 0.0
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
    return SymplecticInvariants(
        i1=out(i1),
        i2=out(i2),
        s0=out(s0),
        s=out(s),
        delta_tilde=out(delta_tilde),
        nu_minus_pt=out(nu_minus),
        nu_plus_pt=out(nu_plus),
    )


def separability_indicator(cm: CovarianceMatrix) -> float:
    """The indicator S; S < 0 if and only if the state is entangled."""
    return symplectic_invariants(cm).s


def log_negativity(cm: CovarianceMatrix) -> float:
    """Logarithmic negativity E_N = max(0, -ln 2*nu_minus_pt), natural log.

    The factor 2 matches the vacuum-variance-1/2 convention used
    throughout the package.
    """
    nu_minus = symplectic_invariants(cm).nu_minus_pt
    return float(max(0.0, -np.log(2.0 * nu_minus)))


def entanglement_report(cm: CovarianceMatrix) -> EntanglementReport:
    """Bundle E_N, S and the verdict for one covariance matrix."""
    inv = symplectic_invariants(cm)
    return EntanglementReport(
        log_negativity=float(max(0.0, -np.log(2.0 * inv.nu_minus_pt))),
        s=float(inv.s),
        entangled=bool(inv.s < 0.0),
        nu_minus_pt=float(inv.nu_minus_pt),
    )


def _exact_fraction(value) -> Fraction:
    """Lossless rational image of a float64 or longdouble scalar.

    An 80-bit extended float splits exactly into two float64 values
    (64-bit mantissa <= 53 + 53), each of which Fraction represents
    exactly.
    """
    hi = float(value)
    lo = float(value - type(value)(hi)) if not isinstance(value, float) else 0.0
    return Fraction(hi) + Fraction(lo)


def _exact_det(matrix: list) -> Fraction:
    """Leibniz determinant over exact rationals (n <= 4 here)."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def physicality_check(cm: CovarianceMatrix) -> bool:
    """True iff both symplectic eigenvalues of the CM itself are >= 1/2 - 1e-9
    and the matrix is positive definite.

    This checks the state, not its partial transpose; it never raises and
    returns False for anything below the vacuum noise floor.

    The decision is computed in exact rational arithmetic.  Vacuum-seeded
    states have an exactly degenerate spectrum, where any floating-point
    route through the discriminant square root amplifies rounding noise
    far past the 1e-9 slack at strong squeezing.  With nu^2 the roots of
    z^2 - I2 z + I1, "both nu >= t" is equivalent to the sign conditions
    q(t^2) >= 0 and I2 >= 2 t^2 with q(z) = z^2 - I2 z + I1, which
    rationals decide exactly.
    """
    rows = [
        [_exact_fraction(cm.entries[i, j]) for j in range(4)] for i in range(4)
    ]
    # positive definiteness via leading principal minors
    for k in range(1, 5):
        if _exact_det([row[:k] for row in rows[:k]]) <= 0:
            return False
    det_alpha = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det_beta = rows[2][2] * rows[3][3] - rows[2][3] * rows[3][2]
    det_gamma = rows[0][2] * rows[1][3] - rows[0][3] * rows[1][2]
    i2 = det_alpha + det_beta + 2 * det_gamma
    i1 = _exact_det(rows)
    threshold = Fraction(1, 2) - Fraction(1, 10**9)
    t_sq = threshold * threshold
    return t_sq * t_sq - i2 * t_sq + i1 >= 0 and i2 >= 2 * t_sq
