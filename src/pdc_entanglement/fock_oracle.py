"""Brute-force validation backends for the closed-form dynamics.

Two independent routes certify the covariance-matrix pipeline:

* :func:`evolve_moments_ode` integrates the linear second-moment
  equations d sigma/d tau = F sigma + sigma F^T with classical
  fixed-step 4th-order stepping and compares entrywise against the
  closed form.
* :func:`evolve_fock` evolves the full density matrix in a truncated
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
E4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so n steps are applied as the
matrix power R^n (square-and-multiply).  The moment samples lie a fixed
stride of steps apart, except for a shorter last gap, so the ODE forms
R^stride once (and R^rest for the last gap) and carries the moment
vector from sample to sample, v <- R^gap v.  The composition is
associative, hence identical (up to rounding) to stepping one by one,
and the error retains the O(h^4) signature checked by the step-halving
test.

The Fock stages work sector by sector.  The generator conserves the
photon difference n1 - n2 (the model's integral of motion), so the
propagator and the evolved state split into one block per difference
sector, and the partial transpose of such a state splits into one block
per total-number sector n1 + n2.  Blocks are found from the matrix
itself (:func:`_sector_blocks`): a matrix that couples two sectors is
treated as one block, so a state without the structure still gets the
exact dense answer.  The blocking rests on a symmetry of the generator,
not on the Gaussian closed form, so the oracle stays independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import IntegrationError, TruncationError, ValidationError
from .gaussian_core import CovarianceMatrix, _det2, _det4, _spectrum_at_least
from .pdc_dynamics import PdcParams, thermal_init

MAX_MOMENT_STEP = 1e-3
LEAKAGE_LIMIT = 1e-4
MAX_ORACLE_OCCUPATION = 2.0
# 63 for the x86 80-bit long double, 52 where it is a plain double
_LONGDOUBLE_NMANT = np.finfo(np.longdouble).nmant


@dataclass(frozen=True)
class MomentTrajectory:
    """Ordered (tau, CovarianceMatrix) samples of a moment integration."""

    samples: Tuple[Tuple[float, CovarianceMatrix], ...]

    def final(self) -> CovarianceMatrix:
        return self.samples[-1][1]


@dataclass(frozen=True)
class FockState:
    """Two-mode density matrix over |n1> x |n2>, truncated at n_cut per mode.

    leakage reports 1 - trace(rho): the thermal weight dropped at
    truncation (the geometric distribution is normalized over the full
    ladder, not renormalized after the cut) plus any integrator drift.
    Truncated evolution conserves the trace, so leakage cannot see
    population pushed against the cutoff during the evolution; that
    shows in edge_population.
    """

    rho: np.ndarray
    n_cut: int
    leakage: float

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex, copy=True)
        dim = (self.n_cut + 1) ** 2
        if rho.shape != (dim, dim):
            raise ValidationError(
                f"rho must be {dim}x{dim} for n_cut={self.n_cut}, got {rho.shape}"
            )
        # a NaN or inf entry makes the defect NaN or inf, which fails this test too
        if not _hermitian_defect(rho) <= 1e-12:
            raise ValidationError("rho is not Hermitian within 1e-12, or not finite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def edge_population(self) -> float:
        """Diagonal mass on the cutoff edge, n1 = n_cut or n2 = n_cut.

        A state that has not reached the cutoff leaves this near zero;
        a sizable value means the truncated dynamics has been distorted.
        """
        dim = self.n_cut + 1
        diag = np.real(np.diagonal(self.rho)).reshape(dim, dim)
        return float(diag[-1, :].sum() + diag[:-1, -1].sum())


def _hermitian_defect(rho: np.ndarray) -> float:
    """max |rho - rho^dag|, read tile by tile.

    The transposed read of a whole large matrix strides across memory;
    tile pairs (i, j) and (j, i) stay in cache.  The defect is symmetric
    under the pair swap, so only tiles on and above the diagonal are
    visited.  A NaN or infinite entry gives a NaN or inf result, as a
    single whole-matrix max would, and without a warning.
    """
    tile = 128
    size = rho.shape[0]
    maxima = []
    with np.errstate(invalid="ignore"):
        for i in range(0, size, tile):
            for j in range(i, size, tile):
                defect = rho[i:i + tile, j:j + tile] - rho[j:j + tile, i:i + tile].conj().T
                maxima.append(np.max(np.abs(defect)))
    return float(np.max(maxima))


def _matrix_power(base: np.ndarray, n: int) -> np.ndarray:
    """base**n by square-and-multiply (n >= 0)."""
    result = np.eye(base.shape[0], dtype=base.dtype)
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def _rk4_step_matrix(generator: np.ndarray, h) -> np.ndarray:
    """One-step matrix of classical RK4 for dx/dt = generator @ x."""
    hm = h * generator
    hm2 = hm @ hm
    return (
        np.eye(generator.shape[0], dtype=generator.dtype)
        + hm
        + hm2 / 2.0
        + (hm2 @ hm) / 6.0
        + (hm2 @ hm2) / 24.0
    )


def _sector_blocks(matrix: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Basis indices grouped by an integer label, one group per label.

    If any nonzero entry of matrix couples two different labels, the
    matrix does not split and a single group holding every index is
    returned, so callers treat the dense case as one block.
    """
    labels = np.asarray(labels)
    if np.any((matrix != 0) & (labels[:, None] != labels[None, :])):
        return [np.arange(labels.size)]
    return [np.flatnonzero(labels == value) for value in np.unique(labels)]


def _above_ode_floor(sigma) -> bool:
    """The moment ODE's instability gate: det alpha > 0 and both symplectic
    eigenvalues >= 0.45.  A blown-up step violates the vacuum floor 1/2 by
    orders of magnitude, while rounding noise on the degenerate spectrum
    stays tiny against this margin, so the gate is deliberately coarser
    than physicality_check.  It reads signs only and raises nothing."""
    return bool(
        _det2(sigma[:2, :2]) > 0.0 and _spectrum_at_least(sigma, _det4(sigma), 0.45**2)
    )


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
    """Integrate the second-moment equations and return lab-frame samples.

    Parameters
    ----------
    step : maximum step size, must be <= 1e-3; the actual step divides
        tau_end evenly.

    Raises
    ------
    IntegrationError
        If long double has fewer than 63 mantissa bits, or if a sampled
        matrix fails the physicality check (the sign of an unstable step).

    Notes
    -----
    Internals run in extended precision: the propagator norm grows like
    exp(2 x tau) and double-precision rounding amplified by that growth
    would show up above the 1e-8 absolute agreement this oracle is held
    to at high temperature (8.2e-8 on the ``oracle-check`` grid).
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if not 0.0 < step <= MAX_MOMENT_STEP:
        raise ValidationError(f"step must lie in (0, {MAX_MOMENT_STEP}]")
    if _LONGDOUBLE_NMANT < 63:
        raise IntegrationError(
            f"the moment ODE needs 63 mantissa bits of long double, not {_LONGDOUBLE_NMANT}"
        )
    ld = np.longdouble
    init = thermal_init(params, temperature)
    diag0 = np.array(
        [init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2, dtype=ld
    )
    v0 = np.diag(diag0).reshape(16)

    y = ld(params.y)
    drift = np.zeros((4, 4), dtype=ld)
    drift[0, 1] = -y
    drift[1, 0] = y
    drift[2, 3] = -y
    drift[3, 2] = y
    drift[0, 3] = drift[1, 2] = drift[2, 1] = drift[3, 0] = ld(1.0)
    eye4 = np.eye(4, dtype=ld)
    lyap = np.kron(drift, eye4) + np.kron(eye4, drift)

    n_steps = max(1, int(np.ceil(float(tau_end) / step)))
    h = ld(tau_end) / n_steps
    step_matrix = _rk4_step_matrix(lyap, h)

    if tau_end == 0.0:
        indices = [0]
    else:
        stride = max(1, int(round(0.05 / float(h))))
        indices = sorted(set(range(0, n_steps, stride)) | {n_steps})

    # R^gap for each distinct gap between samples: the stride, and the
    # shorter last gap
    powers = {}
    vec, done = v0, 0
    samples = []
    for k in indices:
        gap = k - done
        if gap:
            if gap not in powers:
                powers[gap] = _matrix_power(step_matrix, gap)
            vec = powers[gap] @ vec
            done = k
        sig_ld = vec.reshape(4, 4)
        sig_ld = (sig_ld + sig_ld.T) / 2.0
        tau_k = float(h) * k if k < n_steps else float(tau_end)
        if not _above_ode_floor(sig_ld):
            raise IntegrationError(
                f"unphysical covariance matrix at tau={tau_k}: step too large"
            )
        sig = sig_ld.astype(np.float64)
        # float64 angle arithmetic deliberately mirrors covariance_matrix:
        # at |angle| ~ 1e3 rad a one-ulp angle difference already moves
        # 1e4-scale entries by ~1e-9
        a1 = (params.omega1_bar + params.y) * tau_k
        a2 = (params.omega2_bar + params.y) * tau_k
        rot = _mode_rotation(a1, a2)
        lab = rot @ sig @ rot.T
        samples.append((tau_k, CovarianceMatrix((lab + lab.T) / 2.0)))
    return MomentTrajectory(samples=tuple(samples))


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


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

    H conserves n1 - n2, so the RK4 propagator is built and applied per
    difference sector (dimension <= n_cut + 1); RK4 is a polynomial in
    H, so this is the same integrator as the dense product.

    The oracle is restricted to small occupation (nbar <= 2) and demands
    n_cut >= 8*(1 + max(nbar)); tighter cutoffs raise ValidationError.
    TruncationError is raised when the initial thermal tail dropped at
    the cut (plus integrator drift) exceeds LEAKAGE_LIMIT.  Population
    driven against the cutoff during the evolution is not caught by that
    check, because truncated evolution conserves the trace; read
    FockState.edge_population to see it.
    """
    if not 0.0 <= tau_end < math.inf:
        raise ValidationError("tau_end must be finite and >= 0")
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if n_cut < 1:
        raise ValidationError("n_cut must be >= 1")
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
    ham = np.zeros((dim * dim, dim * dim))
    ham[basis, basis] = -params.y * (n1 + n2)
    # c1 c2 |n1, n2> = sqrt(n1) sqrt(n2) |n1 - 1, n2 - 1>, whose basis
    # index is dim + 1 lower; H holds -(c1 c2 + its adjoint)
    upper = np.flatnonzero((n1 > 0) & (n2 > 0))
    lower = upper - (dim + 1)
    ham[lower, upper] = ham[upper, lower] = -(np.sqrt(n1[upper]) * np.sqrt(n2[upper]))

    n_steps = max(1, int(np.ceil(float(tau_end) / step)))
    h = float(tau_end) / n_steps
    # exact local-phase restoration to the lab frame
    a1 = (params.omega1_bar + params.y) * float(tau_end)
    a2 = (params.omega2_bar + params.y) * float(tau_end)
    phases = np.exp(-1j * (a1 * n1 + a2 * n2))

    # the thermal input is diagonal, so each sector evolves on its own:
    # rho_d = (P U_d) diag(w_d) (P U_d)^dag with P the lab-frame phases
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx in _sector_blocks(ham, n1 - n2):
        block = np.ix_(idx, idx)
        step_matrix = _rk4_step_matrix(-1j * ham[block], h)
        lab = phases[idx, None] * _matrix_power(step_matrix, n_steps)
        sector = (lab * weights[idx]) @ lab.conj().T
        rho[block] = (sector + sector.conj().T) / 2.0

    leakage = float(1.0 - np.real(np.trace(rho)))
    if leakage > LEAKAGE_LIMIT:
        raise TruncationError(
            f"basis leakage {leakage:.2e} exceeds {LEAKAGE_LIMIT}; raise n_cut"
        )
    return FockState(rho=rho, n_cut=n_cut, leakage=leakage)


def fock_log_negativity(state: FockState) -> float:
    """ln of the trace norm of the partial transpose over mode 2, >= 0.

    The spectrum comes from a Hermitian eigensolver per total-number
    sector n1 + n2 of the partial transpose (one dense solve when the
    partial transpose couples sectors); the result is normalized by
    trace(rho) so a truncated product state gives exactly 0.
    """
    dim = state.n_cut + 1
    rho = state.rho  # Hermitian: FockState checks it before freezing rho
    pt = (
        rho.reshape(dim, dim, dim, dim)
        .transpose(0, 3, 2, 1)
        .reshape(dim * dim, dim * dim)
    )
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    blocks = _sector_blocks(pt, n1 + n2)
    eigs = np.concatenate([np.linalg.eigvalsh(pt[np.ix_(b, b)]) for b in blocks])
    trace = float(np.real(np.trace(rho)))
    # ||pt||_1 = trace - 2 * (negative mass); log1p keeps a PT-positive
    # state at exactly zero
    negative_mass = float(eigs[eigs < 0.0].sum())
    return float(max(0.0, np.log1p(-2.0 * negative_mass / trace)))


def moments_from_fock(state: FockState) -> CovarianceMatrix:
    """Quadrature covariance matrix of a Fock-basis state.

    First moments must vanish (within 1e-9): every state this oracle
    produces carries only pair coherences.  Expectations are normalized
    by trace(rho) to remove the truncation-tail bias.

    Single-mode moments come from the reduced density matrices and the
    cross-mode moments from one contraction of the four-index rho, so
    the cost is O(dim^4) and no block structure is assumed.
    """
    dim = state.n_cut + 1
    lower = _destroy(dim)
    # local quadratures (q, p), the same operators on either mode
    quads = np.stack(
        [(lower + lower.T) / np.sqrt(2.0), -1j * (lower - lower.T) / np.sqrt(2.0)]
    )
    r = state.rho.reshape(dim, dim, dim, dim)  # r[i1, i2, j1, j2]
    trace = float(np.real(np.trace(state.rho)))
    reduced = (np.einsum("ajbj->ab", r), np.einsum("jajb->ab", r))
    means = np.concatenate(
        [np.einsum("xab,ba->x", quads, red) for red in reduced]
    ) / trace
    if float(np.max(np.abs(means))) > 1e-9:
        raise ValidationError("state has nonzero first moments")
    # tr(X Y rho) for X, Y on one mode, and tr((X (x) Y) rho) across modes
    local = [np.einsum("xab,ybc,ca->xy", quads, quads, red) for red in reduced]
    cross = np.einsum("xab,ycd,bdac->xy", quads, quads, r, optimize=True)
    second = np.block([[local[0], cross], [cross.T, local[1]]]) / trace
    # symmetrized products (X_i X_j + X_j X_i) / 2 of the Hermitian quadratures
    sigma = np.real(second + second.T) / 2.0 - np.real(np.outer(means, means))
    return CovarianceMatrix(sigma)
