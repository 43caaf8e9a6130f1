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
terms, R^n - I by square-and-multiply on increments, and a moment
vector moves as v + (R^n - I) v, so the O(h) step is never added to 1
and rounded.  The samples lie a fixed stride of steps apart, except for
a shorter last gap.  The stride samples are made by doubling: the block
of the first 2^k of them, times I + P with P = R^(2^k stride) - I,
gives the next 2^k, and P is then squared; the last gap takes its own
increment power.  The composition is associative, hence identical (up
to rounding) to stepping one by one, and the error retains the O(h^4)
signature checked by the step-halving test.  The samples are then
gated, rotated to the lab frame and checked all at once, as one
(n, 4, 4) stack, which :class:`MomentTrajectory` stores as it is.  The
Fock generator is Hermitian, so there R^n is taken in its eigenbasis,
V E4(-i h E)^n V^T, the same integrator.

The Fock stages work sector by sector; on a state from evolve_fock none
of them forms a matrix over the whole (n_cut+1)^2 basis.  The generator
conserves the photon difference n1 - n2 (the model's integral of
motion), so the propagator and the evolved state split into one block
per difference sector, and :class:`FockState` stores those blocks
alone.  The partial transpose of
such a state splits into one block per total-number sector n1 + n2,
assembled straight from the stored blocks, and the second moments are
read from the diagonal and the ladder coherences.  Sectors are checked
against a matrix's own entries (:func:`_label_groups`): a matrix that
couples two sectors is treated as one block, so a state without the
structure still gets the exact answer.  The blocking rests on a
symmetry of the generator, not on the Gaussian closed form, so the
oracle stays independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import IntegrationError, TruncationError, ValidationError
from .gaussian_core import (
    CovarianceMatrix,
    _checked_entries,
    _det2,
    _det4,
    _spectrum_at_least,
)
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
    """Lab-frame samples of a moment integration, stored as arrays.

    ``taus`` are the sample times in increasing order and ``entries`` the
    (len(taus), 4, 4) stack of covariance matrices at them, both
    read-only float64, with at least one sample.  Every matrix passes the
    finiteness and symmetry checks of CovarianceMatrix at construction;
    ``final()`` builds the CovarianceMatrix of the last sample when it is
    read.
    """

    taus: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        taus = np.array(self.taus, dtype=np.float64)
        entries = np.asarray(self.entries)
        if taus.ndim != 1 or entries.shape != (taus.size, 4, 4):
            raise ValidationError(
                f"entries must be (len(taus), 4, 4), got {entries.shape} for {taus.shape} taus"
            )
        if not taus.size:
            raise ValidationError("a trajectory needs at least one sample")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "entries", _checked_entries(entries))

    def final(self) -> CovarianceMatrix:
        return CovarianceMatrix(self.entries[-1])


@dataclass(frozen=True, init=False, eq=False)
class FockState:
    """Two-mode density matrix over |n1> x |n2>, truncated at n_cut per mode.

    rho is stored as diagonal blocks: ``blocks`` holds (indices, block)
    pairs, the basis indices n1*(n_cut + 1) + n2 of one group and the
    Hermitian block of rho on them; every entry outside the blocks is
    zero.  A state from :func:`evolve_fock` has one block per difference
    sector n1 - n2; a dense rho is one block over every index,
    ``blocks=[(np.arange((n_cut + 1) ** 2), rho)]``.  Each block must be
    finite and Hermitian within 1e-12, and trace(rho), the sum of the
    stored diagonal, positive and finite; ValidationError if not.

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
        size = (n_cut + 1) ** 2
        blocks = [(np.asarray(idx, dtype=np.intp), np.asarray(b, dtype=complex)) for idx, b in blocks]
        if not blocks or any(b.shape != (idx.size, idx.size) for idx, b in blocks):
            raise ValidationError("blocks must be square over their indices, at least one")
        # one packed copy of every index and entry, which the stored blocks view
        indices = np.concatenate([idx for idx, _ in blocks])
        values = np.concatenate([b.ravel() for _, b in blocks])
        if np.any((indices < 0) | (indices >= size)) or np.unique(indices).size < indices.size:
            raise ValidationError(f"block indices must be distinct and below {size}")
        # max |rho - rho^dag|, in place to spare memory; a NaN or inf entry
        # makes its own defect NaN or inf, which fails this test too
        defect = np.concatenate([b.T.ravel() for _, b in blocks]).conj()
        with np.errstate(invalid="ignore"):
            defect -= values
        if not np.abs(defect).max() <= 1e-12:
            raise ValidationError("rho is not Hermitian within 1e-12, or not finite")
        sizes = np.array([idx.size for idx, _ in blocks])
        trace = float(values[_diagonal_places(sizes)].real.sum())
        if not 0.0 < trace < math.inf:
            raise ValidationError(f"trace of rho must be positive and finite, got {trace}")
        indices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "n_cut", n_cut)
        object.__setattr__(self, "leakage", leakage)
        object.__setattr__(self, "blocks", _unpack(indices, values, sizes))
        object.__setattr__(self, "_packed", (indices, values, sizes))

    @property
    def edge_population(self) -> float:
        """Diagonal mass on the cutoff edge, n1 = n_cut or n2 = n_cut.

        A state that has not reached the cutoff leaves this near zero;
        a sizable value means the truncated dynamics has been distorted.
        """
        n1, n2, diag = _diagonal(self)
        return float(diag[(n1 == self.n_cut) | (n2 == self.n_cut)].sum())


# Packed block storage: blocks of sizes m_0, m_1, ... lie one after
# another in one array of values, each in row-major order, and their
# basis indices one after another in another array.


def _unpack(indices, values, sizes):
    """(indices, block) views, one pair per packed block."""
    ends, value_ends = np.cumsum(sizes), np.cumsum(sizes * sizes)
    return tuple(
        (indices[end - m:end], values[value_end - m * m:value_end].reshape(m, m))
        for m, end, value_end in zip(sizes.tolist(), ends.tolist(), value_ends.tolist())
    )


def _entries(state: FockState):
    """(rows, cols, values) of every stored entry of rho, in packed order."""
    indices, values, sizes = state._packed
    width = np.repeat(sizes, sizes)  # per stored row: its block's size
    rows = np.repeat(indices, width)
    # an entry's column: its block's first slot plus its place in the row
    row_start = np.repeat(np.cumsum(width) - width, width)
    block_first = np.repeat(np.repeat(np.cumsum(sizes) - sizes, sizes), width)
    cols = indices[block_first + np.arange(rows.size) - row_start]
    return rows, cols, values


def _diagonal_places(sizes):
    """Places of the diagonal entries in the packed values, in the order
    of the packed indices: a block's first value plus (m + 1) per step."""
    first = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, sizes)
    place = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return first + place * (np.repeat(sizes, sizes) + 1)


def _diagonal(state: FockState):
    """(n1, n2, real rho[n, n]) over the stored diagonal."""
    indices, values, sizes = state._packed
    n1, n2 = np.divmod(indices, state.n_cut + 1)
    return n1, n2, values[_diagonal_places(sizes)].real


def _rk4_increment(generator: np.ndarray, h: float) -> np.ndarray:
    """R - I for classical RK4's one-step matrix R = E4(h generator),
    formed from its terms alone: the h-sized increment kept apart from
    the identity keeps its low digits, which I + D would round away."""
    hm = h * generator
    hm2 = hm @ hm
    return hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0


def _increment_power(increment: np.ndarray, n: int) -> np.ndarray:
    """(I + increment)^n - I by square-and-multiply on increments (n >= 0):
    a square is (I + D)^2 - I = 2 D + D D, a product
    (I + P)(I + D) - I = P + D + P D."""
    result = np.zeros_like(increment)
    while n:
        if n & 1:
            result = result + increment + result @ increment
        n >>= 1
        if n:
            increment = 2.0 * increment + increment @ increment
    return result


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
    return [np.flatnonzero(labels == value) for value in np.unique(labels)]


def _group_blocks(rows, cols, values, groups) -> tuple:
    """Dense block on each index group of a matrix given by its entries,
    as (indices, block) views of one packed array.

    groups partition the basis, and every entry has its row and column
    in one group (as :func:`_label_groups` returns them).
    """
    indices = np.concatenate(groups)
    sizes = np.array([idx.size for idx in groups])
    # per basis index: its block's size, its place in the block, and
    # where the block starts in the packed values
    width = np.empty(indices.size, dtype=np.intp)
    place = np.empty(indices.size, dtype=np.intp)
    start = np.empty(indices.size, dtype=np.intp)
    width[indices] = np.repeat(sizes, sizes)
    place[indices] = np.arange(indices.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    start[indices] = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, sizes)
    packed = np.zeros(int((sizes * sizes).sum()), dtype=values.dtype)
    packed[start[rows] + place[rows] * width[rows] + place[cols]] = values
    return _unpack(indices, packed, sizes)


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


def _above_ode_floor(sigma):
    """The moment ODE's instability gate: det alpha > 0 and both symplectic
    eigenvalues >= 0.45, per matrix for a stack (..., 4, 4).  A blown-up
    step violates the vacuum floor 1/2 by orders of magnitude, while
    rounding noise on the degenerate spectrum stays tiny against this
    margin, so the gate is deliberately coarser than physicality_check.
    It reads signs only; a matrix with det alpha <= 0 (or not finite)
    fails whatever _det4 gives for it, so call it under np.errstate."""
    return (_det2(sigma[..., :2, :2]) > 0.0) & _spectrum_at_least(
        sigma, _det4(sigma), 0.45**2
    )


def _mode_rotation(angle1, angle2) -> np.ndarray:
    """Block-diagonal phase-space rotation, one angle per mode; array
    angles give a stack of rotations, one per point."""
    rot = np.zeros(np.shape(angle1) + (4, 4))
    for k, ang in enumerate((angle1, angle2)):
        c, s = np.cos(ang), np.sin(ang)
        rot[..., 2 * k, 2 * k] = c
        rot[..., 2 * k, 2 * k + 1] = s
        rot[..., 2 * k + 1, 2 * k] = -s
        rot[..., 2 * k + 1, 2 * k + 1] = c
    return rot


def evolve_moments_ode(
    params: PdcParams, tau_end, temperature, step: float = 1e-4
) -> MomentTrajectory:
    """Integrate the second-moment equations and return lab-frame samples.

    The 10 independent moments are carried to the samples (every 0.05 in
    tau, and tau_end) by powers of the RK4 step matrix, kept as increments
    over the identity; the samples then pass the instability gate and are
    rotated to the lab frame together, as one stack.

    Parameters
    ----------
    step : maximum step size, must be <= 1e-3; the actual step divides
        tau_end evenly.

    Raises
    ------
    IntegrationError
        If a sampled matrix fails the instability gate (the sign of an
        unstable step, or of moments past the float range); the message
        names the first such sample's tau.

    Notes
    -----
    Everything runs in float64.  The step matrix R = I + D has D of order
    h, and a float64 I + D would round away all but about 12 digits of D;
    compounded over 10^4 steps and amplified by the propagator's
    exp(2 x tau) growth, that loss would show above the 1e-8 absolute
    agreement this oracle is held to at high temperature.  So D is formed
    from its Taylor terms directly, powers are taken on increments,
    (I + D)^2 - I = 2 D + D D and (I + P)(I + D) - I = P + D + P D, and a
    moment vector moves as v + P v (N. J. Higham, *Functions of
    Matrices*, SIAM 2008, ch. 10).  The stride samples are made by
    doubling, block <- [block, block + block P^T] and then P <- 2 P + P P;
    the last, possibly shorter gap takes its own increment power.

    The gate reads float64 matrices, so it fails a little earlier in tau
    than on long-double moments.  First failing sample at the default
    step, tau_end = 16 (long-double moments and gate in brackets): 8.70
    at y = 0, T = 0 (9.05); 9.2 at y = 0, T = 50 or 300 K (9.5); 9.8 at
    y = 0.5, T = 0 (10.05); none at y = 0.9.  Long-double moments put
    through the float64 gate fail at 8.55 at y = 0, T = 0, so the reach
    is set by the gate's arithmetic, not by the integration.
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < step <= MAX_MOMENT_STEP:
        raise ValidationError(f"step must lie in (0, {MAX_MOMENT_STEP}]")
    init = thermal_init(params, temperature)
    moments = np.diag([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2)[_UPPER][None]
    taus = np.zeros(1)

    # overflow or NaN in a blown-up vector fails the gate, which raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if tau_end != 0.0:
            n_steps = math.ceil(float(tau_end) / step)
            h = float(tau_end) / n_steps
            # a stride past the end gives the same samples, 0 and the end;
            # the cap keeps 0.05 / h = inf at a subnormal tau_end out
            stride = round(min(0.05 / h, n_steps))
            count = -(-n_steps // stride)  # samples at 0, stride, ... below n_steps
            increment = _rk4_increment(_LYAP_COUPLING + params.y * _LYAP_MISMATCH, h)
            power = _increment_power(increment, stride)
            gap = n_steps - (count - 1) * stride
            last = power if gap == stride else _increment_power(increment, gap)
            while len(moments) < count:
                head = moments[: count - len(moments)]
                moments = np.concatenate([moments, head + head @ power.T])
                if len(moments) < count:
                    power = 2.0 * power + power @ power
            end = moments[-1] + last @ moments[-1]
            moments = np.concatenate([moments, end[None]])
            taus = h * np.append(stride * np.arange(count, dtype=np.float64), n_steps)
            taus[-1] = float(tau_end)  # the last sample is step n_steps
        sigma = moments[:, _MOMENT_PLACE]  # (n, 4, 4), exactly symmetric
        stable = _above_ode_floor(sigma)
        if not stable.all():
            raise IntegrationError(
                f"unphysical covariance matrix at tau={float(taus[np.argmin(stable)])}:"
                " step too large"
            )
        # float64 angle arithmetic deliberately mirrors covariance_matrix:
        # at |angle| ~ 1e3 rad a one-ulp angle difference already moves
        # 1e4-scale entries by ~1e-9
        rot = _mode_rotation(
            (params.omega1_bar + params.y) * taus, (params.omega2_bar + params.y) * taus
        )
        lab = rot @ sigma @ rot.swapaxes(-1, -2)
        lab = (lab + lab.swapaxes(-1, -2)) / 2.0
    return MomentTrajectory(taus=taus, entries=lab)


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Truncated geometric distribution; deliberately not renormalized
    after the cut so that 1 - sum(weights) is the dropped tail mass."""
    if nbar == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    q = nbar / (nbar + 1.0)
    return q ** np.arange(dim) / (nbar + 1.0)


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

    H conserves n1 - n2, so H is assembled from its nonzeros alone, split
    into its difference sectors (real tridiagonal, dimension <= n_cut + 1)
    and the state is returned as one block per sector; no matrix over the
    whole (n_cut+1)^2 basis is formed.  RK4 is a polynomial in H, so its
    n-step propagator is taken in each sector's eigenbasis
    (:func:`_rk4_propagator`): the same integrator as the power of the
    one-step matrix, with ``step`` fixing h and n as before.

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
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < step < math.inf:
        raise ValidationError("step must be positive and finite")
    if not isinstance(n_cut, (int, np.integer)) or n_cut < 1:
        raise ValidationError(f"n_cut must be an integer >= 1, got {n_cut!r}")
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

    basis = np.arange(dim * dim)
    n1, n2 = np.divmod(basis, dim)  # basis index n1*dim + n2
    # H by its entries: the diagonal, then c1 c2 |n1, n2> = sqrt(n1)
    # sqrt(n2) |n1 - 1, n2 - 1>, whose basis index is dim + 1 lower, and
    # its adjoint; H holds -(c1 c2 + c1^dag c2^dag)
    upper = np.flatnonzero((n1 > 0) & (n2 > 0))
    lower = upper - (dim + 1)
    pair = -(np.sqrt(n1[upper]) * np.sqrt(n2[upper]))
    rows = np.concatenate([basis, lower, upper])
    cols = np.concatenate([basis, upper, lower])
    ham = np.concatenate([-params.y * (n1 + n2), pair, pair])
    # the sectors are checked against every entry of H, not assumed
    sectors = _label_groups(rows, cols, n1 - n2)

    n_steps = max(1, int(np.ceil(float(tau_end) / step)))
    h = float(tau_end) / n_steps
    # exact local-phase restoration to the lab frame
    a1 = (params.omega1_bar + params.y) * float(tau_end)
    a2 = (params.omega2_bar + params.y) * float(tau_end)
    phases = np.exp(-1j * (a1 * n1 + a2 * n2))

    # the thermal input is diagonal, so each sector evolves on its own:
    # rho_d = (P U_d) diag(w_d) (P U_d)^dag with P the lab-frame phases.
    # Sectors with equal H (d and -d, by the mode-swap symmetry of H)
    # share one propagator and are evolved together.
    shared = {}
    for idx, ham_d in _group_blocks(rows, cols, ham, sectors):
        shared.setdefault(ham_d.tobytes(), (ham_d, []))[1].append(idx)
    blocks, trace = [], 0.0
    for ham_d, members in shared.values():
        idx = np.stack(members)
        lab = phases[idx][:, :, None] * _rk4_propagator(ham_d, h, n_steps)
        sector = (lab * weights[idx][:, None, :]) @ lab.conj().transpose(0, 2, 1)
        sector = (sector + sector.conj().transpose(0, 2, 1)) / 2.0
        trace += float(np.trace(sector, axis1=1, axis2=2).real.sum())
        blocks.extend(zip(members, sector))

    leakage = 1.0 - trace
    if leakage > LEAKAGE_LIMIT:
        raise TruncationError(
            f"basis leakage {leakage:.2e} exceeds {LEAKAGE_LIMIT}; raise n_cut"
        )
    if not leakage >= -LEAKAGE_LIMIT:
        raise IntegrationError(
            f"trace grew to {trace:.3e}: step {step} is past the RK4 stability limit"
        )
    return FockState(n_cut=n_cut, leakage=leakage, blocks=blocks)


def fock_log_negativity(state: FockState) -> float:
    """ln of the trace norm of the partial transpose over mode 2, >= 0.

    The partial transpose is assembled from the stored blocks.  A state
    whose blocks conserve n1 - n2 gives one partial-transpose block per
    total-number sector n1 + n2, each diagonalized on its own by a
    Hermitian eigensolver (one dense solve when the partial transpose
    couples sectors).  The result is normalized by trace(rho) so a
    truncated product state gives exactly 0.
    """
    dim = state.n_cut + 1
    rows, cols, values = _entries(state)
    # the partial transpose moves rho[(a1, a2), (b1, b2)] to
    # [(a1, b2), (b1, a2)]: it swaps the n2 digits of row and column
    swap = cols % dim - rows % dim
    rows += swap
    cols -= swap
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    sectors = _label_groups(rows, cols, n1 + n2)
    eigs = np.concatenate(
        [np.linalg.eigvalsh(b) for _, b in _group_blocks(rows, cols, values, sectors)]
    )
    # ||pt||_1 = trace - 2 * (negative mass); log1p keeps a PT-positive
    # state at exactly zero
    negative_mass = float(eigs[eigs < 0.0].sum())
    trace = float(_diagonal(state)[2].sum())
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
    dim = state.n_cut + 1
    n1, n2, diag = _diagonal(state)
    trace = float(diag.sum())
    rows, cols, values = _entries(state)
    a1, a2 = np.divmod(rows, dim)
    b1, b2 = np.divmod(cols, dim)
    # one code per shift (a1 - b1, a2 - b2): |a2 - b2| < dim, so a base
    # of 2 dim keeps distinct shifts apart
    shift = (a1 - b1) * (2 * dim) + (a2 - b2)

    def ladder(s1, s2, weight):
        on = shift == s1 * (2 * dim) + s2
        return complex(np.dot(weight(a1[on], a2[on]), values[on])) / trace

    def numbers(n):
        """<c^dag c> and <c c^dag> of one mode"""
        return float(n @ diag) / trace, float(((n + 1.0) * (n < state.n_cut)) @ diag) / trace

    m1 = ladder(1, 0, lambda k1, k2: np.sqrt(k1))
    m2 = ladder(0, 1, lambda k1, k2: np.sqrt(k2))
    means = np.sqrt(2.0) * np.array([m1.real, m1.imag, m2.real, m2.imag])
    if float(np.max(np.abs(means))) > 1e-9:
        raise ValidationError("state has nonzero first moments")
    local = [
        _mode_moments(*numbers(n1), ladder(2, 0, lambda k1, k2: np.sqrt(k1 * (k1 - 1.0)))),
        _mode_moments(*numbers(n2), ladder(0, 2, lambda k1, k2: np.sqrt(k2 * (k2 - 1.0)))),
    ]
    pair = ladder(1, 1, lambda k1, k2: np.sqrt(k1 * k2))  # <c1 c2>
    swap = ladder(1, -1, lambda k1, k2: np.sqrt(k1 * (k2 + 1.0)))  # <c1 c2^dag>
    # modes commute, so the cross products need no symmetrizing
    cross = np.array(
        [
            [pair.real + swap.real, pair.imag - swap.imag],
            [pair.imag + swap.imag, swap.real - pair.real],
        ]
    )
    sigma = np.block([[local[0], cross], [cross.T, local[1]]]) - np.outer(means, means)
    return CovarianceMatrix(sigma)
