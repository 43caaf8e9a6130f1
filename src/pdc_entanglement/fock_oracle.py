"""Brute-force validation backends for the closed-form dynamics.

Two independent routes certify the covariance-matrix pipeline:

* :func:`evolve_moments_ode` integrates the linear second-moment
  equations d sigma/d tau = F sigma + sigma F^T with classical
  fixed-step 4th-order stepping and compares entrywise against the
  closed form.
* :func:`evolve_fock` evolves the density matrix in a truncated
  two-mode Fock basis; :func:`fock_log_negativity` takes the partial
  transpose and its trace norm, giving an entanglement measure that
  knows nothing about Gaussian states.

Both integrate in the frame co-rotating with each mode, where the drift

    F = [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]]

is constant and of order one; the fast local oscillations are restored
afterwards as exact phase-space rotations by (omega_j_bar + y) tau per
mode.  Integrating the lab-frame equations directly would demand
resolving ~10^2-10^3 rad frequencies to absolute 1e-8 in the presence of
1e4-scale matrix entries, which fixed-step double precision cannot do.

For the linear autonomous systems here, classical RK4 is exactly
multiplication by its one-step stability matrix R = E4(h*L) with
E4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so n steps are applied as R^n.
The moment ODE integrates only the 10 independent moments sigma[i, j],
i <= j: the Lyapunov operator maps symmetric matrices to symmetric
ones, so it restricts to them, and R is 10 x 10.  It works in float64
on increments over the identity: D = R - I is formed from its Taylor
terms and squared on increments, D_k = R^(2^k) - I with
D_{k+1} = 2 D_k + D_k D_k, and set bit k of n moves the moment vector
as v + D_k v, so the O(h) step is never added to 1 and rounded.  The
factors commute, hence the result is identical (up to rounding) to
stepping one by one, and the error retains the O(h^4) signature
checked by the step-halving test.  Only the end point is formed: it is
rotated to the lab frame, checked to be finite and returned, so a call
costs O(log n) matrix products and constant memory in tau_end.  The
Fock generator is Hermitian, so there R^n is taken in its eigenbasis,
V E4(-i h E)^n V^T, the same integrator.

The Fock stages work sector by sector; on a state from evolve_fock none
of them forms a matrix over the whole (n_cut+1)^2 basis.  The generator
conserves the photon difference n1 - n2 (the model's integral of
motion), so the propagator and the evolved state split into one block
per difference sector, and :class:`FockState` stores those blocks
alone; the mode swap keeps H and takes sector d to -d, so those two
share one propagator.  The partial transpose of such a state splits
into one block per total-number sector n1 + n2, assembled straight from
the stored blocks, and the second moments are read from the diagonal
and the ladder coherences.  H's sectors are written down from the model
(the tests hold them to the dense H); those of a partial transpose are
checked against its entries (:func:`_label_groups`): where it couples
two sectors it is one block, so a state without the structure still
gets the exact answer.  The blocking rests on symmetries of the
generator, not on the Gaussian closed form, so the oracle stays
independent of it.

Where the entries go depends on the cutoff and the block layout alone,
so that index bookkeeping is worked out once per cutoff and kept in a
bounded cache of read-only plans (:func:`_sector_plan`): H's sector
blocks, grouped d with -d, and the layout of the evolved state
(:class:`_Layout`), which holds the checks on its indices, the diagonal
and transposed places, the partial-transpose sectors and the ladder
entries.  A call then only fills in values and solves; the first call
at a new cutoff pays for its plan.  A state built from blocks works out
its own layout, once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import IntegrationError, TruncationError, ValidationError
from .gaussian_core import CovarianceMatrix
from .pdc_dynamics import PdcParams, thermal_init

MAX_MOMENT_STEP = 1e-3
LEAKAGE_LIMIT = 1e-4
MAX_ORACLE_OCCUPATION = 2.0
# The moment ODE carries the 10 independent entries sigma[i, j], i <= j,
# in np.triu_indices(4) order; _MOMENT_PLACE[i, j] is the place of
# sigma[i, j] = sigma[j, i] among them.
_UPPER = np.triu_indices(4)
_MOMENT_PLACE = np.zeros((4, 4), dtype=np.intp)
_MOMENT_PLACE[_UPPER] = _MOMENT_PLACE.T[_UPPER] = np.arange(10)


def _moment_lyapunov(drift) -> np.ndarray:
    """The Lyapunov operator sigma -> F sigma + sigma F^T on the 10 moments.

    d sigma[i, j] = sum over (k, l) of lyap[i, j, k, l] sigma[k, l], the
    operator kron(F, 1) + kron(1, F) with its four indices apart.  It maps
    symmetric sigma to symmetric sigma, so on the 10 moments it is its
    rows for i <= j applied to the 16 x 10 duplication matrix that spreads
    the moments over sigma (row-major).
    """
    drift, eye4 = np.asarray(drift, dtype=np.float64), np.eye(4)
    lyap = (
        drift[:, None, :, None] * eye4[None, :, None, :]
        + eye4[:, None, :, None] * drift[None, :, None, :]
    )
    duplication = np.eye(10)[_MOMENT_PLACE.ravel()]
    # the product summed elementwise: a matrix product at import would
    # set up BLAS buffers in every process that imports the package
    return (lyap[_UPPER].reshape(10, 16, 1) * duplication).sum(axis=1)


# The drift F is linear in y, and so is its Lyapunov operator:
# L = _LYAP_COUPLING + y * _LYAP_MISMATCH.
_LYAP_COUPLING = _moment_lyapunov(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
)
_LYAP_MISMATCH = _moment_lyapunov(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
)


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
    ``blocks=[(np.arange((n_cut + 1) ** 2), rho)]``.  Each block must be
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
    ladder, not renormalized after the cut) plus any integrator drift.
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
        defect = values.take(layout.transpose).conj()
        with np.errstate(invalid="ignore"):
            defect -= values
        if not np.abs(defect).max(initial=0.0) <= 1e-12:
            raise ValidationError("rho is not Hermitian within 1e-12, or not finite")
        diag = values.take(layout.diagonal).real
        trace = float(diag.sum())
        if not 0.0 < trace < math.inf:
            raise ValidationError(f"trace of rho must be positive and finite, got {trace}")
        if diag.min() < -1e-12:
            raise ValidationError(f"rho has a negative population {diag.min():.3e}")
        # a positive semidefinite rho has every 2 x 2 principal minor >= 0;
        # per stored entry rho[a, b], rho[a, a] is its row's population and
        # rho[b, b] that of the row of rho[b, a]
        row_diag = diag.take(layout.row_slot)
        excess = float(
            (values.real**2 + values.imag**2 - row_diag * row_diag.take(layout.transpose)).max()
        )
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
    where that holds them (read with ``take``, which indexes by int32 as
    fast as by intp)."""
    return _read_only(np.asarray(array, dtype=np.int32 if bound <= 2**31 else np.intp))


def _block_places(rows, cols, groups):
    """(sizes, places): the sizes of the index groups' blocks, packed in
    group order, and each entry's place in the packed block values.

    (rows, cols) are the positions of a matrix's entries; groups partition
    the basis, and every entry has its row and column in one group (as
    :func:`_label_groups` returns them).
    """
    indices = np.concatenate(groups)
    sizes = np.array([idx.size for idx in groups])
    # per basis index: its place in its block, and where its row of the
    # block starts in the packed values
    place = np.empty(indices.size, dtype=np.intp)
    row_start = np.empty(indices.size, dtype=np.intp)
    place[indices] = np.arange(indices.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_start[indices] = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, sizes)
    row_start[indices] += place[indices] * np.repeat(sizes, sizes)
    return sizes, row_start[rows] + place[cols]


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
    row_slot the slot of a.  The partial-transpose blocks and the ladder
    entries are worked out on first use.
    """

    def __init__(self, n_cut: int, indices: np.ndarray, sizes: tuple):
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

    def _entry_slots(self):
        """(row_slot, col_slot): the slots of a and b per stored rho[a, b]."""
        return self.row_slot, self.row_slot.take(self.transpose)

    @functools.cached_property
    def partial_transpose(self):
        """(source, blocks): the partial transpose over mode 2 in packed
        blocks, which hold at each place the stored entry source names
        (one past the last entry where they hold a zero); blocks holds per
        block the place of its first value and its size."""
        dim = self.n_cut + 1
        row_slot, col_slot = self._entry_slots()
        # the partial transpose moves rho[(a1, a2), (b1, b2)] to
        # [(a1, b2), (b1, a2)]: it swaps the n2 digits of row and column
        rows = self.n1.take(row_slot) * dim + self.n2.take(col_slot)
        cols = self.n1.take(col_slot) * dim + self.n2.take(row_slot)
        n1, n2 = np.divmod(np.arange(dim * dim), dim)
        # sectors n1 + n2, checked against every moved entry
        sizes, places = _block_places(rows, cols, _label_groups(rows, cols, n1 + n2))
        count = rows.size
        source = np.full(int((sizes * sizes).sum()), count)
        source[places] = np.arange(count)
        starts = np.cumsum(sizes * sizes) - sizes * sizes
        return _places(source, count + 1), tuple(zip(starts.tolist(), sizes.tolist()))

    @functools.cached_property
    def ladders(self):
        """Per shift s in _LADDERS: (places, weights), the stored entries
        rho[a, a - s] and w(a) on them."""
        dim = self.n_cut + 1
        row_slot, col_slot = self._entry_slots()
        a1, a2 = self.n1.take(row_slot), self.n2.take(row_slot)
        b1, b2 = self.n1.take(col_slot), self.n2.take(col_slot)
        # one code per shift (a1 - b1, a2 - b2): |a2 - b2| < dim, so a base
        # of 2 dim keeps distinct shifts apart
        shift = (a1 - b1) * (2 * dim) + (a2 - b2)
        ladders = {}
        for (s1, s2), weight in _LADDERS.items():
            on = np.flatnonzero(shift == s1 * (2 * dim) + s2)
            ladders[s1, s2] = (_places(on, row_slot.size), _read_only(weight(a1[on], a2[on])))
        return ladders


def _rk4_increment(generator: np.ndarray, h: float) -> np.ndarray:
    """R - I for classical RK4's one-step matrix R = E4(h generator),
    formed from its terms alone: the h-sized increment kept apart from
    the identity keeps its low digits, which I + D would round away."""
    hm = h * generator
    hm2 = hm @ hm
    return hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0


def _label_groups(rows, cols, labels) -> list[np.ndarray]:
    """Basis indices grouped by an integer label, one group per label.

    (rows, cols) are the positions of a matrix's entries.  If any of them
    couples two different labels, the matrix does not split and a single
    group holding every index is returned, so callers treat the dense
    case as one block.
    """
    labels = np.asarray(labels)
    if np.any(labels[rows] != labels[cols]):
        return [np.arange(labels.size)]
    # a stable sort keeps each group's indices ascending
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return np.split(order, starts[1:])


def _rk4_propagator(ham: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """RK4's n-step propagator E4(-i h H)^n for dx/dt = -i H x, H real
    symmetric, formed in H's eigenbasis as V E4(-i h E)^n V^T.

    On the imaginary axis E4(-i t) = 1 - t^2/2 + t^4/24 - i t (1 - t^2/6),
    whose squared modulus is exactly 1 - t^6/72 + t^8/576, so the n-th
    power is taken as modulus and phase without forming the product.
    """
    energies, vecs = np.linalg.eigh(ham)
    t = h * energies
    t2 = t * t
    phase = np.arctan2(-t * (1.0 - t2 / 6.0), 1.0 - t2 / 2.0 + t2 * t2 / 24.0)
    log_modulus = 0.5 * np.log1p(t2**3 * (t2 / 576.0 - 1.0 / 72.0))
    return (vecs * np.exp(n_steps * (log_modulus + 1j * phase))) @ vecs.T


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


def evolve_moments_ode(
    params: PdcParams, tau_end, temperature, step: float = 1e-4
) -> MomentTrajectory:
    """Integrate the second-moment equations to tau_end and return the
    lab-frame end point.

    The 10 independent moments are carried from 0 to tau_end by n RK4
    steps, applied as powers of the step matrix kept as increments over
    the identity; the end point is rotated to the lab frame and returned.

    Parameters
    ----------
    step : maximum step size, must be <= 1e-3; the actual step divides
        tau_end evenly.

    Raises
    ------
    IntegrationError
        If an entry of the lab-frame end point is not finite; the message
        names tau_end.  The eigenvalues of F are +-x, x = sqrt(1 - y^2),
        so those of the Lyapunov operator, sums of two of them, are 0 and
        +-2x: with step <= 1e-3, |h lambda| <= 2e-3, far inside RK4's
        stability region, and the steps grow no mode faster than the flow
        does.  What is left to fail is the float range, which the moments
        leave where the exact flow takes them past it (tau_end of about
        352 at y = 0, T = 300 K, and 406 at y = 0.5), and a finiteness
        check sees that.

    Notes
    -----
    Everything runs in float64.  The step matrix R = I + D has D of order
    h, and a float64 I + D would round away all but about 12 digits of D;
    compounded over 10^4 steps and amplified by the propagator's
    exp(2 x tau) growth, that loss would show above the 1e-8 absolute
    agreement this oracle is held to at high temperature.  So D is formed
    from its Taylor terms directly and R^n is applied one set bit of n at
    a time: with D_0 = D and D_{k+1} = (I + D_k)^2 - I = 2 D_k + D_k D_k,
    bit k moves the moment vector as v + D_k v, one matrix-vector product
    (N. J. Higham, *Functions of Matrices*, SIAM 2008, ch. 10).  The
    factors I + D_k are powers of R and commute, so the end point equals
    n single steps up to rounding.
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < step <= MAX_MOMENT_STEP:
        raise ValidationError(f"step must lie in (0, {MAX_MOMENT_STEP}]")
    tau = float(tau_end)
    init = thermal_init(params, temperature)
    moments = np.diag([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2)[_UPPER]

    # moments past the float range turn inf or NaN, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if tau != 0.0:
            n_steps = math.ceil(tau / step)
            increment = _rk4_increment(
                _LYAP_COUPLING + params.y * _LYAP_MISMATCH, tau / n_steps
            )
            while n_steps:
                if n_steps & 1:
                    moments = moments + increment @ moments
                n_steps >>= 1
                if n_steps:
                    increment = 2.0 * increment + increment @ increment
        # float64 angle arithmetic deliberately mirrors covariance_matrix:
        # at |angle| ~ 1e3 rad a one-ulp angle difference already moves
        # 1e4-scale entries by ~1e-9
        rot = _mode_rotation(
            (params.omega1_bar + params.y) * tau, (params.omega2_bar + params.y) * tau
        )
        lab = rot @ moments[_MOMENT_PLACE] @ rot.T
        lab = (lab + lab.T) / 2.0
    # checked as it goes to CovarianceMatrix: finite moments can still
    # overflow in the rotation or the symmetrization
    if not np.isfinite(lab).all():
        raise IntegrationError(
            f"moment ODE end point at tau={tau}: an entry left the float range"
        )
    return MomentTrajectory(tau=tau, cm=CovarianceMatrix(lab))


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Truncated geometric distribution; deliberately not renormalized
    after the cut so that 1 - sum(weights) is the dropped tail mass."""
    q = nbar / (nbar + 1.0)
    return q ** np.arange(dim) / (nbar + 1.0)


def _sector_plan(n_cut: int) -> tuple:
    """The plan of a cutoff (:func:`_build_sector_plan`), from the cache
    of small plans or from the one-plan cache of large ones."""
    # stored entries of a state from evolve_fock: sum over d of (dim - |d|)^2
    entries = (n_cut + 1) ** 2 + n_cut * (n_cut + 1) * (2 * n_cut + 1) // 3
    return (_small_plans if entries <= _LARGE_PLAN else _large_plans)(n_cut)


def _build_sector_plan(n_cut: int) -> tuple:
    """What evolve_fock reads at one cutoff: (layout, groups), the layout
    of the evolved state and per group of difference sectors with equal
    H, in the layout's order, (coupling, number, members): the
    tridiagonal block of -(c1 c2 + c1^dag c2^dag), the diagonal of
    n1 + n2 on it, and the basis indices of each member sector, one row
    per member.  Sector n1 - n2 = -d holds n1 = j, n2 = j + d, which
    c1 c2 takes to j - 1 with weight sqrt(j) sqrt(j + d); the mode swap
    takes it to sector d state for state and keeps H, so the two form
    one group, -d first, for d = n_cut .. 0 (sector 0 alone)."""
    dim = n_cut + 1
    groups = []
    for d in range(n_cut, -1, -1):
        j = np.arange(dim - d)
        pair = -(np.sqrt(j[1:]) * np.sqrt(j[1:] + d))
        members = np.array([j * dim + j + d, (j + d) * dim + j][:2 if d else 1])
        coupling = np.diag(pair, 1) + np.diag(pair, -1)
        groups.append(tuple(map(_read_only, (coupling, 2 * j + d, members))))
    layout = _Layout(
        n_cut,
        np.concatenate([members.ravel() for _, _, members in groups]),
        tuple(idx.size for _, _, members in groups for idx in members),
    )
    return layout, tuple(groups)


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
    cutoff; a call fills in the diagonal, which depends on y.  RK4 is a
    polynomial in H, so its n-step propagator is taken in each sector's
    eigenbasis (:func:`_rk4_propagator`): the same integrator as the
    power of the one-step matrix, with ``step`` fixing h and n as before.

    The oracle is restricted to small occupation (nbar <= 2) and demands
    n_cut >= 8*(1 + max(nbar)); tighter cutoffs raise ValidationError, as
    do a step outside (0, inf) and an n_cut that is not an integer.
    TruncationError is raised when the initial thermal tail dropped at
    the cut (plus integrator drift) exceeds LEAKAGE_LIMIT, and
    IntegrationError when the trace grew by more than LEAKAGE_LIMIT (or
    is not finite): RK4 amplifies every eigenmode with |h E| > 2 sqrt 2,
    so a step too large for the spectrum of H makes the state blow up.  Population
    driven against the cutoff during the evolution is not caught by that
    check, because truncated evolution conserves the trace; read
    FockState.edge_population to see it.

    The route has a ceiling near 10-15 K.  The cutoff must reach about ten
    times the photon number per mode, which at the birth time (y = 0) is
    6.4 at 5 K, 24 at 10 K, 93 at 20 K and 2.0e4 at 300 K, and the stored
    state grows as n_cut^3 (169 MB at n_cut = 250).  Past the ceiling the
    moment ODE (:func:`evolve_moments_ode`), which needs no cutoff, is the
    oracle for the covariance matrix.
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < step < math.inf:
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
    weights = np.kron(
        _thermal_weights(init.nbar1, dim), _thermal_weights(init.nbar2, dim)
    )

    n_steps = max(1, int(np.ceil(float(tau_end) / step)))
    h = float(tau_end) / n_steps
    # exact local-phase restoration to the lab frame
    a1 = (params.omega1_bar + params.y) * float(tau_end)
    a2 = (params.omega2_bar + params.y) * float(tau_end)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)  # basis index n1*dim + n2
    phases = np.exp(-1j * (a1 * n1 + a2 * n2))

    # the thermal input is diagonal, so each sector evolves on its own:
    # rho_d = (P U_d) diag(w_d) (P U_d)^dag with P the lab-frame phases.
    layout, groups = _sector_plan(int(n_cut))
    values, trace = [], 0.0
    for coupling, number, idx in groups:
        ham_d = coupling.copy()
        np.fill_diagonal(ham_d, -params.y * number)
        lab = phases[idx][:, :, None] * _rk4_propagator(ham_d, h, n_steps)
        sector = (lab * weights[idx][:, None, :]) @ lab.conj().transpose(0, 2, 1)
        sector = (sector + sector.conj().transpose(0, 2, 1)) / 2.0
        trace += float(np.trace(sector, axis1=1, axis2=2).real.sum())
        values.append(sector.ravel())

    leakage = 1.0 - trace
    if leakage > LEAKAGE_LIMIT:
        raise TruncationError(
            f"basis leakage {leakage:.2e} exceeds {LEAKAGE_LIMIT}; raise n_cut"
        )
    if not leakage >= -LEAKAGE_LIMIT:
        raise IntegrationError(
            f"trace grew to {trace:.3e}: step {step} is past the RK4 stability limit"
        )
    return FockState._from_values(layout, leakage, np.concatenate(values))


def fock_log_negativity(state: FockState) -> float:
    """ln of the trace norm of the partial transpose over mode 2, >= 0.

    The partial transpose is assembled from the stored blocks, by places
    planned once per layout.  A state whose blocks conserve n1 - n2 gives
    one partial-transpose block per total-number sector n1 + n2, each
    diagonalized on its own by a Hermitian eigensolver (one dense solve
    when the partial transpose couples sectors).  The result is normalized by trace(rho) so a
    truncated product state gives exactly 0.
    """
    source, blocks = state._layout.partial_transpose
    packed = np.append(state._values, 0.0).take(source)
    eigs = np.concatenate(
        [np.linalg.eigvalsh(packed[start:start + m * m].reshape(m, m)) for start, m in blocks]
    )
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
    <c1 c2> and <c1 c2^dag>.  The operators are the truncated ones, so
    <c c^dag> drops the top level n = n_cut, as the truncated matrices do.
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
