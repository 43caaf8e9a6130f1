"""Brute-force validation backends for the closed-form dynamics.

Two independent routes certify the covariance-matrix pipeline:

* :func:`evolve_moments_ode` integrates the linear second-moment
  equations d sigma/d tau = F sigma + sigma F^T, whose flow is
  sigma = M sigma0 M^T with dM/d tau = F M, by classical fixed-step
  4th-order stepping of the 4 x 4 propagator M; the end point is
  compared entrywise against the closed form.
* :func:`evolve_fock` evolves the density matrix in a truncated
  two-mode Fock basis; :func:`fock_log_negativity` takes the partial
  transpose and its trace norm, giving an entanglement measure that
  knows nothing about Gaussian states.

Both work in the frame co-rotating with each mode, where the drift

    F = [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]]

is constant and of order one; the fast local oscillations are restored
afterwards as exact phase-space rotations by (omega_j_bar + y) tau per
mode.  Integrating the lab-frame equations directly would demand
resolving ~10^2-10^3 rad frequencies to absolute 1e-8 in the presence of
1e4-scale matrix entries, which fixed-step double precision cannot do.

For the linear autonomous equation dM/d tau = F M, classical RK4 is
exactly multiplication by its one-step stability matrix R = E4(h*F)
with E4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so 2^k steps of tau / 2^k
are applied as M = R^(2^k), k squarings of the increment R - I (see
:func:`evolve_moments_ode`); that keeps RK4's O(h^4) error, at h <=
1e-4 far below the end point's float64 rounding, and forms only the end
point.  The Fock generator is Hermitian, so its propagator is taken
exactly in its eigenbasis, V exp(-i E tau) V^T, exact up to the
eigensolver's rounding (C. Moler and C. Van Loan, SIAM Rev. 45, 3
(2003)).

The Fock stages follow the model's integral of motion.  The generator
conserves the photon difference n1 - n2, so the propagator and the
evolved state split into one block per difference sector, and
:class:`FockState` stores those blocks alone; the mode swap keeps H and
takes sector d to -d, so the two share one propagator.  Sector -d holds
n1 = j, n2 = j + d, and the partial transpose over mode 2 moves its
entry [j, k] to row n1 = j, column n1 = k of the block of total number
N = j + k + d; sector d, its mode swap, goes to row j + d, column
k + d.  So the partial transpose splits into one block per N, and the
second moments read only the diagonal and the c1 c2 coherences, on each
sector block's first sub-diagonal.  The blocks of H and of the partial
transpose are written down from the model, not searched for among the
entries, and the tests hold them to dense references.  They rest on
symmetries of the generator, not on the Gaussian closed form, so the
oracle stays independent of it.

That bookkeeping depends on the cutoff alone, so it is worked out once
per cutoff and kept in a bounded cache of read-only plans
(:func:`_sector_plan`): H's sector blocks, grouped d with -d and the
groups stacked four at a time, each block zero-padded to the largest of
its stack, and the evolved state's :class:`_Layout`, which holds the
places its checks, its partial transpose and its ladders read.  A call
then only fills in values and solves: one eigensolve per stack of four
groups in the evolution, and one per group of equal-size blocks (N with
2 n_cut - N) in the partial transpose.  A state built from ``blocks=``
gets a layout of its own, whose partial transpose is one block over the
whole basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import IntegrationError, TruncationError, ValidationError
from .gaussian_core import CovarianceMatrix, _check_scalar
from .pdc_dynamics import PdcParams, thermal_init

LEAKAGE_LIMIT = 1e-4
MAX_ORACLE_OCCUPATION = 2.0
# The co-rotating drift F is linear in y: F = _COUPLING + y * _MISMATCH.
_COUPLING = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
_MISMATCH = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
# The moment ODE's largest step; the step taken is tau_end / 2^k, and the
# step matrix R = I + D is squared on its increment, R^2 - I = D (D + 2I).
_MOMENT_STEP = 1e-4
_TWO_I = 2.0 * np.eye(4)


@dataclass(frozen=True, eq=False)
class MomentTrajectory:
    """The lab-frame end point of a moment integration: ``cm``, the
    checked covariance matrix at time ``tau``, which ``final()`` returns."""

    tau: float
    cm: CovarianceMatrix

    def final(self) -> CovarianceMatrix:
        return self.cm


def _check_n_cut(n_cut) -> None:
    if not isinstance(n_cut, (int, np.integer)) or n_cut < 1:
        raise ValidationError(f"n_cut must be an integer >= 1, got {n_cut!r}")


@dataclass(frozen=True, init=False, eq=False)
class FockState:
    """Two-mode density matrix over |n1> x |n2>, truncated at n_cut per mode.

    rho is stored as diagonal blocks: ``blocks`` holds (indices, block)
    pairs, the basis indices n1*(n_cut + 1) + n2 of one group and the
    Hermitian block of rho on them; every entry outside the blocks is
    zero.  A state from :func:`evolve_fock` has one block per difference
    sector n1 - n2; a dense rho is one block over every index,
    ``blocks=[(np.arange((n_cut + 1) ** 2), rho)]``; a state built so is
    served densely, its partial transpose one block over the whole basis
    at O((n_cut + 1)^4) memory.  Each block must be
    finite and Hermitian within 1e-12, every population (stored diagonal
    entry) at least -1e-12, trace(rho), the sum of the stored diagonal,
    positive and finite, and every stored entry within its 2 x 2
    principal minor, |rho[a, b]|^2 <= rho[a, a] rho[b, b]
    + 1e-12 max(1, trace(rho))^2; ValidationError if not.  A positive
    semidefinite rho passes all of these; a rho that passes them need not
    be positive semidefinite (the minors of order three and up are not
    read), so the check is necessary, not sufficient.  n_cut must be an
    integer >= 1 and leakage finite; ValidationError if not.

    leakage reports 1 - trace(rho): the thermal weight dropped at
    truncation (the geometric distribution is normalized over the full
    ladder, not renormalized after the cut), up to rounding.
    Truncated evolution conserves the trace, so leakage cannot see
    population pushed against the cutoff during the evolution; that
    shows in edge_population.
    """

    n_cut: int
    leakage: float
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def __init__(self, *, n_cut: int, leakage: float, blocks):
        _check_n_cut(n_cut)
        if not -math.inf < leakage < math.inf:
            raise ValidationError(f"leakage must be finite, got {leakage!r}")
        blocks = [(np.asarray(idx, dtype=np.intp), np.asarray(b, dtype=complex)) for idx, b in blocks]
        if not blocks or any(b.shape != (idx.size, idx.size) for idx, b in blocks):
            raise ValidationError("blocks must be square over their indices, at least one")
        layout = _Layout(
            n_cut, np.concatenate([idx for idx, _ in blocks]), tuple(idx.size for idx, _ in blocks)
        )
        # one packed copy of every entry, which the stored blocks view
        self._store(n_cut, leakage, layout, np.concatenate([b.ravel() for _, b in blocks]))

    @classmethod
    def _from_values(cls, layout: _Layout, leakage: float, values: np.ndarray) -> FockState:
        """The state whose packed values on a planned layout are values,
        checked as the blocks= constructor checks them."""
        state = cls.__new__(cls)
        state._store(layout.n_cut, leakage, layout, values)
        return state

    def _store(self, n_cut, leakage, layout, values):
        # max |rho - rho^dag|, in place to spare memory; a NaN or inf entry
        # makes its own defect NaN or inf, which fails this test too; blocks
        # with no entries at all pass here and fail the trace test
        defect = values.take(layout.transpose)
        np.conjugate(defect, out=defect)
        with np.errstate(invalid="ignore"):
            defect -= values
        if not np.abs(defect).max(initial=0.0) <= 1e-12:
            raise ValidationError("rho is not Hermitian within 1e-12, or not finite")
        # gone before the minor test, where the check peaks
        del defect
        diag = values.take(layout.diagonal).real
        trace = float(diag.sum())
        if not 0.0 < trace < math.inf:
            raise ValidationError(f"trace of rho must be positive and finite, got {trace}")
        if diag.min() < -1e-12:
            raise ValidationError(f"rho has a negative population {diag.min():.3e}")
        # a positive semidefinite rho has every 2 x 2 principal minor >= 0;
        # per stored entry rho[a, b], rho[a, a] is its row's population and
        # rho[b, b] that of the row of rho[b, a]; two float arrays at a time,
        # since take copies its int32 places to intp
        minor = diag.take(layout.row_slot)
        minor *= minor.take(layout.transpose)
        excess = values.real**2
        excess += values.imag**2
        excess -= minor
        excess = float(excess.max())
        # rounding puts an entry of a pure state about eps trace^2 above
        # its minor, so the tolerance scales with the trace
        if excess > 1e-12 * max(1.0, trace) ** 2:
            raise ValidationError(
                "rho is not positive semidefinite: an entry has |rho[a, b]|^2"
                f" above rho[a, a] rho[b, b] by {excess:.3e}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "n_cut", n_cut)
        object.__setattr__(self, "leakage", leakage)
        object.__setattr__(self, "blocks", tuple(
            (idx, values[start:start + m * m].reshape(m, m)) for idx, start, m in layout.blocks
        ))
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_diagonal", diag)

    @property
    def edge_population(self) -> float:
        """Diagonal mass on the cutoff edge, n1 = n_cut or n2 = n_cut.

        A state that has not reached the cutoff leaves this near zero;
        a sizable value means the truncated dynamics has been distorted.
        """
        layout = self._layout
        return float(self._diagonal[(layout.n1 == self.n_cut) | (layout.n2 == self.n_cut)].sum())


# The sector plans a process keeps, those of its most recent cutoffs.  A
# plan holds about as many bytes as the values of a state at its cutoff,
# so past _LARGE_PLAN stored entries (n_cut > 72, a few MB) only the most
# recent cutoff's plan is kept.  Every cached array is read-only, since
# one plan serves every caller.
_PLANS = 8
_LARGE_PLAN = 2**18
# Sector groups per eigensolve in evolve_fock, each block zero-padded to
# the largest of its stack.  Four spread the per-call cost of the small
# blocks; sixteen pad more than they save at n_cut = 120 (evolve_fock
# 159-176 against 141-153 ms, best of 5, one BLAS thread, shared 2-CPU
# host) and peak higher (53.8 against 48.2 MB traced).
_STACK = 4

# The ladder operators moments_from_fock reads, O |a> = w(a) |a - s> by
# shift s = (s1, s2): w for a state with n1 = k1, n2 = k2.
_LADDERS = {
    (1, 0): lambda k1, k2: np.sqrt(k1),  # c1
    (0, 1): lambda k1, k2: np.sqrt(k2),  # c2
    (2, 0): lambda k1, k2: np.sqrt(k1 * (k1 - 1.0)),  # c1 c1
    (0, 2): lambda k1, k2: np.sqrt(k2 * (k2 - 1.0)),  # c2 c2
    (1, 1): lambda k1, k2: np.sqrt(k1 * k2),  # c1 c2
    (1, -1): lambda k1, k2: np.sqrt(k1 * (k2 + 1.0)),  # c1 c2^dag
}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _places(array, bound: int) -> np.ndarray:
    """Integer places below bound as a read-only plan field, in int32
    where that holds them, which halves what a cached plan keeps.  Each
    ``take`` with int32 places first copies them to a fresh intp array,
    8 B per index: 9.45 MB per ``values.take(layout.transpose)`` at
    n_cut = 120, next to the 18.9 MB it returns."""
    return _read_only(np.asarray(array, dtype=np.int32 if bound <= 2**31 else np.intp))


class _Layout:
    """What the Fock stages read of one layout of stored blocks, the basis
    indices and block sizes of a state; ValidationError if the indices
    are not distinct or not below (n_cut + 1)^2.

    The blocks, of sizes m_0, m_1, ..., lie one after another in one
    array of values, each in row-major order, and their basis indices one
    after another in another array; a slot is a place among the indices,
    a place one among the values.  indices, n1 and n2 are per slot;
    blocks holds per block its indices (a view), the place of its first
    value and its size; diagonal the place of each slot's diagonal entry.
    Per stored entry rho[a, b], transpose is the place of rho[b, a] and
    row_slot the slot of a.  Per basis index, block_of is its block (-1
    if none), and rho[a, b] of one block lies at row_place[a] +
    col_place[b].  pt_blocks batch the partial transpose's blocks by size:
    per batch, each block's first eigenvalue in block order and the
    blocks' basis indices, one row per block; by default one block over
    the whole basis.  The places they read are worked out on first use.
    """

    def __init__(self, n_cut: int, indices: np.ndarray, sizes, pt_blocks=None):
        dim = n_cut + 1
        if np.any((indices < 0) | (indices >= dim * dim)) or np.bincount(indices).max(initial=0) > 1:
            raise ValidationError(f"block indices must be distinct and below {dim * dim}")
        sizes = np.array(sizes, dtype=np.intp)
        value_starts = np.cumsum(sizes * sizes) - sizes * sizes
        count = int((sizes * sizes).sum())  # stored entries
        # every place and slot below is below count: int32 where that holds it
        itype = np.int32 if count <= 2**31 else np.intp
        slot_starts = (np.cumsum(sizes) - sizes).astype(itype)
        slots = np.arange(indices.size, dtype=itype)
        # per slot: its block's size, its place in its block, and the place
        # of its row's first value; the rows of rho lie one after another
        width = np.repeat(sizes.astype(itype), sizes)
        local = slots - np.repeat(slot_starts, sizes)
        row_start = np.cumsum(width, dtype=itype) - width
        # per stored entry rho[a, b]: the slots of a and b, and the place of
        # rho[b, a], at column local[a] of the row of b
        row_slot = np.repeat(slots, width)
        col_slot = np.arange(count, dtype=itype) - row_start.take(row_slot)
        col_slot += (slots - local).take(row_slot)
        transpose = row_start.take(col_slot)
        transpose += local.take(row_slot)
        n1, n2 = np.divmod(indices, dim)
        block_of = np.full(dim * dim, -1, dtype=itype)
        block_of[indices] = np.repeat(np.arange(sizes.size, dtype=itype), sizes)
        row_place, col_place = np.zeros((2, dim * dim), dtype=itype)
        row_place[indices], col_place[indices] = row_start, local
        self.n_cut = n_cut
        self.indices = _read_only(indices)
        self.n1, self.n2 = _read_only(n1), _read_only(n2)
        self.blocks = tuple(
            (indices[s:s + m], v, m)
            for s, v, m in zip(slot_starts.tolist(), value_starts.tolist(), sizes.tolist())
        )
        self.diagonal = _read_only(row_start + local)
        self.transpose = _read_only(transpose)
        self.row_slot = _read_only(row_slot)
        self.block_of = _read_only(block_of)
        self.row_place, self.col_place = _read_only(row_place), _read_only(col_place)
        self.pt_blocks = pt_blocks or ((np.zeros(1, dtype=np.intp), np.arange(dim * dim)[None]),)

    def _place(self, rows, cols) -> np.ndarray:
        """The place of the stored rho[a, b] per basis index a of rows and
        b of cols, -1 where rho holds none."""
        block = self.block_of.take(rows)
        stored = (block >= 0) & (block == self.block_of.take(cols))
        return np.where(stored, self.row_place.take(rows) + self.col_place.take(cols), -1)

    @functools.cached_property
    def partial_transpose(self):
        """(batches, order): the blocks of the partial transpose over mode
        2, stacked by size.  Per batch (source, zeros, shape): its blocks'
        packed values are the stored entries source names, except for a
        zero at the places zeros names (where source names place 0), and
        stack as shape, (blocks, m, m).  The blocks' eigenvalues, batch
        after batch, go back to block order by taking them at order."""
        dim = self.n_cut + 1
        batches, order = [], []
        for firsts, idx in self.pt_blocks:
            (a1, a2), (b1, b2) = np.divmod(idx[:, :, None], dim), np.divmod(idx[:, None, :], dim)
            # the partial transpose moves rho[(a1, b2), (b1, a2)] to
            # [(a1, a2), (b1, b2)]
            source = self._place(a1 * dim + b2, b1 * dim + a2)
            batches.append((
                _places(np.maximum(source, 0).ravel(), self.transpose.size),
                _places(np.flatnonzero(source < 0), source.size),
                source.shape,
            ))
            order.append((firsts[:, None] + np.arange(idx.shape[1])).ravel())
        # per block-order eigenvalue, its place among the batched ones
        order = np.concatenate(order)
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.arange(order.size)
        return tuple(batches), _places(inverse, inverse.size)

    @functools.cached_property
    def ladders(self):
        """Per shift s in _LADDERS: (places, weights), the stored entries
        rho[a, a - s], in the order they are stored, and w(a) on them."""
        dim = self.n_cut + 1
        ladders = {}
        for (s1, s2), weight in _LADDERS.items():
            # the stored a whose a - s is in the basis, then those of them
            # whose rho[a, a - s] is stored
            rows = self.indices[(self.n1 >= s1) & (self.n2 >= s2) & (self.n2 - s2 < dim)]
            on = self._place(rows, rows - (s1 * dim + s2))
            rows, on = rows[on >= 0], on[on >= 0]
            ladders[s1, s2] = (_places(on, self.transpose.size), _read_only(weight(*np.divmod(rows, dim))))
        return ladders


def _real(name: str, value) -> float:
    """value as a float; ValidationError naming it if it is not a real
    number, a numpy complex scalar too, which float() would take as its
    real part."""
    try:
        if isinstance(value, (complex, np.complexfloating)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None


def _rk4_increment(generator: np.ndarray, h: float) -> np.ndarray:
    """R - I for classical RK4's one-step matrix R = E4(h generator),
    formed from its terms alone: the h-sized increment kept apart from
    the identity keeps its low digits, which I + D would round away."""
    hm = h * generator
    hm2 = hm @ hm
    return hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0


def _mode_rotation(angle1, angle2) -> np.ndarray:
    """Block-diagonal phase-space rotation, one angle per mode."""
    rot = np.zeros((4, 4))
    for k, ang in enumerate((angle1, angle2)):
        c, s = np.cos(ang), np.sin(ang)
        rot[2 * k, 2 * k] = c
        rot[2 * k, 2 * k + 1] = s
        rot[2 * k + 1, 2 * k] = -s
        rot[2 * k + 1, 2 * k + 1] = c
    return rot


def evolve_moments_ode(params: PdcParams, tau_end, temperature) -> MomentTrajectory:
    """Integrate the second-moment equations to tau_end and return the
    lab-frame end point.

    The flow of d sigma/d tau = F sigma + sigma F^T is sigma(tau) =
    M sigma0 M^T with dM/d tau = F M, M(0) = I.  M is carried from 0 to
    tau_end by 2^k RK4 steps of h = tau_end / 2^k, k >= 0 the least with
    h <= 1e-4 (one step of h = tau_end up to tau_end = 1e-4), applied as
    k squarings of the step matrix kept as an increment over the
    identity; the end point is rotated to the lab frame and returned.

    Raises
    ------
    ValidationError
        If tau_end or temperature is not a real number (a numeric string
        is read as its number), or tau_end is not finite and >= 0.
    IntegrationError
        If an entry of the lab-frame end point is not finite; the message
        names tau_end.  The eigenvalues of F are +-x, x = sqrt(1 - y^2)
        <= 1, so |h lambda| <= 1e-4, far inside RK4's stability region,
        and the steps grow no mode faster than the flow does.  What is
        left to fail is the float range, which the end point leaves where
        the exact flow takes it past it (tau_end of about 352 at y = 0,
        T = 300 K, and 406 at y = 0.5), and a finiteness check sees that.
        Also when the step count tau_end / 1e-4 passes the float range
        (tau_end past 1.8e304).

    Notes
    -----
    Everything runs in float64.  The step matrix R = I + D has D of order
    h, and a float64 I + D would round away all but about 12 digits of D;
    squared k times and amplified by the propagator's exp(x tau) growth,
    that loss would show above the 1e-8 absolute agreement this oracle is
    held to at high temperature.  So D is formed from its Taylor terms
    and squared k times as an increment, D <- (I + D)^2 - I = D (D + 2I),
    where D + 2I is rounded only relative to 2 (scaling and squaring:
    N. J. Higham, *Functions of Matrices*, SIAM 2008, ch. 10); M = I + D
    is formed once, and equals 2^k single steps up to rounding.  M comes
    from stepping F alone: F^2 = x^2 I would give it as
    cosh(x tau) I + sinh(x tau) F / x, the closed form this oracle checks.
    """
    _check_scalar("evolve_moments_ode", "tau_end and temperature", tau_end, temperature)
    tau = _real("tau_end", tau_end)
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    init = thermal_init(params, temperature)
    sigma0 = np.array([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2)

    steps = tau / _MOMENT_STEP
    if steps == math.inf:
        raise IntegrationError(
            f"moment ODE end point at tau={tau}: the step count tau/step left the float range"
        )
    # k >= 0 the least with 2^k >= steps = m 2^e, 0.5 <= m < 1: e, or e - 1 at m = 0.5
    mantissa, k = math.frexp(steps)
    k = max(k - (mantissa == 0.5), 0)
    # an end point past the float range turns inf or NaN, which the check
    # refuses
    with np.errstate(over="ignore", invalid="ignore"):
        increment = _rk4_increment(_COUPLING + params.y * _MISMATCH, math.ldexp(tau, -k))
        for _ in range(k):
            increment = increment @ (increment + _TWO_I)
        propagator = np.eye(4) + increment
        # float64 angle arithmetic deliberately mirrors covariance_matrix:
        # at |angle| ~ 1e3 rad a one-ulp angle difference already moves
        # 1e4-scale entries by ~1e-9
        rot = _mode_rotation(
            (params.omega1_bar + params.y) * tau, (params.omega2_bar + params.y) * tau
        )
        frame = rot @ propagator
        lab = (frame * sigma0) @ frame.T
        lab = (lab + lab.T) / 2.0
    # checked as it goes to CovarianceMatrix: a finite propagator can still
    # give an end point past the float range
    if not np.isfinite(lab).all():
        raise IntegrationError(
            f"moment ODE end point at tau={tau}: an entry left the float range"
        )
    return MomentTrajectory(tau=tau, cm=CovarianceMatrix(lab))


def _sector_plan(n_cut: int) -> tuple:
    """The plan of a cutoff (:func:`_build_sector_plan`), from the cache
    of small plans or from the one-plan cache of large ones."""
    # stored entries of a state from evolve_fock: sum over d of (dim - |d|)^2
    entries = (n_cut + 1) ** 2 + n_cut * (n_cut + 1) * (2 * n_cut + 1) // 3
    return (_small_plans if entries <= _LARGE_PLAN else _large_plans)(n_cut)


def _build_sector_plan(n_cut: int) -> tuple:
    """What evolve_fock reads at one cutoff: (layout, stacks), the layout
    of the evolved state and H's sector blocks in stacks.  Sector
    n1 - n2 = -d holds n1 = j, n2 = j + d, which c1 c2 takes to j - 1
    with weight sqrt(j) sqrt(j + d); the mode swap takes it to sector d
    state for state and keeps H, so the two form one group with one
    block, -d first, for d = n_cut .. 0 (sector 0 alone), in the layout's
    order.  The groups' blocks are stacked _STACK at a time in that
    order, each zero-padded to the largest of its stack: per stack
    (coupling, number, sizes), the tridiagonal blocks of
    -(c1 c2 + c1^dag c2^dag), the diagonals of n1 + n2 on them and the
    blocks' sizes n_cut + 1 - d, with no coupling and a number of 0 on
    the padding.  The partial-transpose blocks N = n_cut -+ d have the
    group's size, and hold n1 = j, n2 = n_cut - d - j and n1 = j + d,
    n2 = n_cut - j."""
    dim = n_cut + 1
    indices, sizes, pt_blocks = [], [], []
    for d in range(n_cut, -1, -1):
        m = dim - d
        j = np.arange(m)
        members = [j * dim + j + d, (j + d) * dim + j][:2 if d else 1]
        indices += members
        sizes += [m] * len(members)
        # the first eigenvalue of block N follows those of the blocks N' < N
        firsts = np.array([m * (m - 1) // 2, dim * dim - m * (m + 1) // 2][:2 if d else 1])
        pt_idx = np.array([j * dim + n_cut - d - j, (j + d) * dim + n_cut - j][:2 if d else 1])
        pt_blocks.append((_read_only(firsts), _read_only(pt_idx)))
    stacks = []
    for first in range(1, dim + 1, _STACK):
        # group sizes m = first, first + 1, ..., each block padded to big
        block_sizes = np.arange(first, min(first + _STACK, dim + 1))
        big = int(block_sizes[-1])
        j, d = np.arange(big), dim - block_sizes[:, None]
        inside = j < block_sizes[:, None]
        coupling = np.zeros((block_sizes.size, big, big))
        coupling[:, j[1:], j[:-1]] = coupling[:, j[:-1], j[1:]] = np.where(
            inside[:, 1:], -(np.sqrt(j[1:]) * np.sqrt(j[1:] + d)), 0.0
        )
        stacks.append(tuple(map(_read_only, (coupling, np.where(inside, 2 * j + d, 0), block_sizes))))
    layout = _Layout(n_cut, np.concatenate(indices), sizes, tuple(pt_blocks))
    return layout, tuple(stacks)


_small_plans = functools.lru_cache(maxsize=_PLANS)(_build_sector_plan)
_large_plans = functools.lru_cache(maxsize=1)(_build_sector_plan)


def evolve_fock(
    params: PdcParams, tau_end, temperature, n_cut: int, step: float = 1e-4
) -> FockState:
    """Evolve a truncated two-mode thermal state through the interaction.

    The generator in the co-rotating frame is

        H = -y (n1 + n2) - (c1^dag c2^dag + c1 c2)

    (coupling rate = 1 in tau units, pump phase taken at zero); the local
    oscillations exp(-i (omega_j_bar + y) tau n_j) are restored exactly
    afterwards, so the returned state is lab-frame and its moments match
    the closed-form covariance matrix directly.

    H conserves n1 - n2, so it is formed sector by sector (real
    tridiagonal, dimension <= n_cut + 1) and the state is returned as one
    block per sector; no matrix over the whole (n_cut+1)^2 basis is
    formed.  The sectors and their coupling blocks are planned once per
    cutoff, sectors d and -d sharing one block and the blocks of four
    such pairs stacked, zero-padded to the largest; a call fills in the
    diagonals, which depend on y.  Per stack, one eigensolve
    H = V diag(E) V^T gives the exact propagators U = V exp(-i E tau) V^T
    and R = U diag(w) U^dag, with w = (q1 q2)^j on sector -d,
    q = nbar / (nbar + 1), and w = 0 on the padding.  Two identities of
    the thermal product input let one R serve a sector pair: the input
    weights of sectors -d and d are c q2^d (q1 q2)^j and c q1^d (q1 q2)^j,
    c = 1 / ((nbar1 + 1)(nbar2 + 1)), and the lab-frame phase of
    rho[j, k] is exp(-i (a1 + a2)(j - k)) in every sector, one Toeplitz
    matrix per call.  Each R is made Hermitian as (R + R^dag) / 2 on its
    stack and written, with its phases and the sector's scale, straight
    into the state's one array of values, which is so exactly Hermitian;
    the trace is read from its diagonal.

    The oracle is restricted to small occupation (nbar <= 2) and demands
    n_cut >= 8*(1 + max(nbar)); tighter cutoffs raise ValidationError, as
    do a step outside (0, inf), an n_cut that is not an integer and a
    tau_end, temperature or step that is not a real number (a numeric
    string is read as its number).
    ``step`` is accepted and has no effect; it is removed once the
    benchmark stops passing it.  TruncationError is raised when the
    initial thermal tail dropped at the cut exceeds LEAKAGE_LIMIT; while
    the nbar <= 2 cap and the n_cut rule hold it cannot, since the
    largest tail they let through, 1 - (1 - (2/3)^25)^2 = 7.92e-5 at
    nbar1 = nbar2 = 2 and n_cut = 24, is below LEAKAGE_LIMIT = 1e-4.
    IntegrationError, naming tau_end, is raised when a phase angle leaves
    the float range, so that a lab phase or the trace is not finite.  The
    lab phases reach tau_end n_cut (omega1_bar + omega2_bar + 2 y), past
    1.8e308 from tau_end = 1.5e304 for omega_bar = 200 and 400 at
    n_cut = 20, and the propagator's tau_end |E| at most
    2 tau_end n_cut (1 + y).
    Population driven against the cutoff during the evolution is not
    caught by the leakage, because the propagator is unitary and
    conserves the trace; read FockState.edge_population to see it.
    Below the float range the state is returned however long tau_end,
    but once tau |E| passes about 1e16 the angle tau E carries no correct
    digit, and the phases of the returned state are rounding noise.  It
    is still a unitary image of the input, with the same trace, so only
    edge_population shows it: the truncated dynamics has filled the
    cutoff long before.

    The route has a ceiling near 10-15 K.  The cutoff must reach about ten
    times the photon number per mode, which at the birth time (y = 0) is
    6.4 at 5 K, 24 at 10 K, 93 at 20 K and 2.0e4 at 300 K, and the stored
    state grows as n_cut^3 (169 MB at n_cut = 250).  Past the ceiling the
    moment ODE (:func:`evolve_moments_ode`), which needs no cutoff, is the
    oracle for the covariance matrix.
    """
    _check_scalar("evolve_fock", "tau_end, temperature and step", tau_end, temperature, step)
    tau = _real("tau_end", tau_end)
    if not 0.0 <= tau < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < _real("step", step) < math.inf:
        raise ValidationError("step must be positive and finite")
    _check_n_cut(n_cut)
    init = thermal_init(params, temperature)
    nbar_max = max(init.nbar1, init.nbar2)
    if nbar_max > MAX_ORACLE_OCCUPATION:
        raise ValidationError(
            f"Fock oracle is limited to nbar <= {MAX_ORACLE_OCCUPATION}"
        )
    if n_cut < 8.0 * (1.0 + nbar_max):
        raise ValidationError(
            f"n_cut={n_cut} too small: need >= 8*(1 + max occupation) = "
            f"{8.0 * (1.0 + nbar_max):.1f}"
        )

    dim = n_cut + 1
    layout, stacks = _sector_plan(int(n_cut))
    levels = np.arange(dim)
    q1, q2 = init.nbar1 / (init.nbar1 + 1.0), init.nbar2 / (init.nbar2 + 1.0)
    pair_weights = (q1 * q2) ** levels
    # the thermal input, not renormalized after the cut so that 1 - trace
    # is the dropped tail, is c q2^d (q1 q2)^j on sector -d and
    # c q1^d (q1 q2)^j on sector d: per d the scales c q2^d and c q1^d,
    # halved for (R + R^dag) / 2
    scales = np.array([q2**levels, q1**levels]) * (0.5 / ((init.nbar1 + 1.0) * (init.nbar2 + 1.0)))
    values = np.empty(layout.transpose.size, dtype=complex)
    place = 0
    # an angle past the float range turns its phase NaN, and with it a
    # population or the phases, which the checks below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        # exact local-phase restoration to the lab frame: phase[j, k] =
        # exp(-i (a1 + a2)(j - k)), a Toeplitz view of its first column
        # and that column's conjugate, so exactly Hermitian
        a1, a2 = (params.omega1_bar + params.y) * tau, (params.omega2_bar + params.y) * tau
        column = np.exp(-1j * (a1 + a2) * levels)
        phase = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([column[::-1], column[1:].conj()]), dim
        )[::-1]
        for coupling, number, sizes in stacks:
            count, big = number.shape
            ham = coupling.copy()
            ham.reshape(count, -1)[:, ::big + 1] = -params.y * number
            energies, vecs = np.linalg.eigh(ham)
            unitary = (vecs * np.exp(-1j * tau * energies)[:, None, :]) @ vecs.transpose(0, 2, 1)
            weights = np.where(levels[:big] < sizes[:, None], pair_weights[:big], 0.0)
            evolved = (unitary * weights[:, None, :]) @ unitary.conj().transpose(0, 2, 1)
            evolved += evolved.conj().transpose(0, 2, 1)
            evolved *= phase[:big, :big]
            # sectors -d and d, d = dim - m, one after another in the layout
            for block, m in zip(evolved, sizes.tolist()):
                k = 1 if m == dim else 2
                np.multiply(
                    block[:m, :m], scales[:k, dim - m, None, None],
                    out=values[place:place + k * m * m].reshape(k, m, m),
                )
                place += k * m * m
    trace = float(values.take(layout.diagonal).real.sum())
    if not (math.isfinite(trace) and np.isfinite(column).all()):
        raise IntegrationError(
            f"Fock end point at tau={tau}: a phase angle left the float range"
        )
    leakage = 1.0 - trace
    if leakage > LEAKAGE_LIMIT:
        raise TruncationError(
            f"basis leakage {leakage:.2e} exceeds {LEAKAGE_LIMIT}; raise n_cut"
        )
    return FockState._from_values(layout, leakage, values)


def fock_log_negativity(state: FockState) -> float:
    """ln of the trace norm of the partial transpose over mode 2, >= 0.

    The partial transpose is gathered from the stored values, by places
    planned once per layout.  A state from evolve_fock gives one
    partial-transpose block per total-number sector n1 + n2, a state
    built from ``blocks=`` one dense block.  Blocks of
    one size are stacked and go to a Hermitian eigensolver in one call,
    which solves each on its own; on a state from evolve_fock sectors N
    and 2 n_cut - N have one size, so n_cut + 1 calls solve its 2 n_cut + 1
    blocks.  The eigenvalues are put back in block order before the
    negative ones are summed.  The result is normalized by trace(rho) so
    a truncated product state gives exactly 0.
    """
    batches, order = state._layout.partial_transpose
    eigs = []
    for source, zeros, shape in batches:
        packed = state._values.take(source)
        packed[zeros] = 0.0
        eigs.append(np.linalg.eigvalsh(packed.reshape(shape)).ravel())
    # in block order, so that the negative mass is summed as block by block
    eigs = np.concatenate(eigs).take(order)
    # ||pt||_1 = trace - 2 * (negative mass); log1p keeps a PT-positive
    # state at exactly zero
    negative_mass = float(eigs[eigs < 0.0].sum())
    trace = float(state._diagonal.sum())
    return float(max(0.0, np.log1p(-2.0 * negative_mass / trace)))


def _mode_moments(number, number_up, square) -> np.ndarray:
    """Symmetrized (q, p) second moments of one mode from <c^dag c>,
    <c c^dag> and <c c>, with q = (c + c^dag)/sqrt 2 and
    p = -i (c - c^dag)/sqrt 2."""
    half = (number + number_up) / 2.0
    return np.array(
        [[half + square.real, square.imag], [square.imag, half - square.real]]
    )


def moments_from_fock(state: FockState) -> CovarianceMatrix:
    """Quadrature covariance matrix of a Fock-basis state.

    First moments must vanish (within 1e-9): every state this oracle
    produces carries only pair coherences.  Expectations are normalized
    by trace(rho) to remove the truncation-tail bias.

    Every moment is a ladder expectation tr(O rho) with O |a> = w(a)
    |a - s>, the sum of w(a) rho[a, a - s] over the stored entries whose
    row and column differ by the shift s: the diagonal for the numbers,
    and the coherences one or two steps off it for <c_j>, <c_j c_j>,
    <c1 c2> and <c1 c2^dag>; on a state from evolve_fock only <c1 c2> has
    entries, and the others are 0.  The operators are the truncated ones,
    so <c c^dag> drops the top level n = n_cut, as the truncated matrices
    do.
    """
    layout, values, diag = state._layout, state._values, state._diagonal
    trace = float(diag.sum())

    def ladder(s1, s2):
        places, weight = layout.ladders[s1, s2]
        return complex(np.dot(weight, values.take(places))) / trace

    def numbers(n):
        """<c^dag c> and <c c^dag> of one mode"""
        return float(n @ diag) / trace, float(((n + 1.0) * (n < state.n_cut)) @ diag) / trace

    m1, m2 = ladder(1, 0), ladder(0, 1)
    means = np.sqrt(2.0) * np.array([m1.real, m1.imag, m2.real, m2.imag])
    if float(np.max(np.abs(means))) > 1e-9:
        raise ValidationError("state has nonzero first moments")
    local = [
        _mode_moments(*numbers(layout.n1), ladder(2, 0)),
        _mode_moments(*numbers(layout.n2), ladder(0, 2)),
    ]
    pair = ladder(1, 1)  # <c1 c2>
    swap = ladder(1, -1)  # <c1 c2^dag>
    # modes commute, so the cross products need no symmetrizing
    cross = np.array(
        [
            [pair.real + swap.real, pair.imag - swap.imag],
            [pair.imag + swap.imag, swap.real - pair.real],
        ]
    )
    sigma = np.block([[local[0], cross], [cross.T, local[1]]]) - np.outer(means, means)
    return CovarianceMatrix(sigma)
