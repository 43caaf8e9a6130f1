import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pdc_entanglement import (
    CovarianceMatrix,
    FockState,
    IntegrationError,
    ValidationError,
    covariance_matrix,
    evolve_fock,
    evolve_moments_ode,
    fock_log_negativity,
    fock_oracle,
    log_negativity,
    moments_from_fock,
    physicality_check,
    thermal_init,
)
from pdc_entanglement.fock_oracle import (
    _above_ode_floor,
    _entries,
    _label_groups,
    _mode_rotation,
    _rk4_propagator,
)

# temperatures giving small occupations at the reference frequencies:
# nbar1(1.2 K) ~ 0.40, nbar1(0.8 K) ~ 0.18
T_SMALL = 1.2
T_TINY = 0.8


def _matrix_power(base, n):
    """base**n by square-and-multiply (n >= 0)."""
    result = np.eye(base.shape[0], dtype=base.dtype)
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def _rk4_step_matrix(generator, h):
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


def lab_moments_by_step_powers(params, temp, tau_end, tau_k):
    """The lab-frame moment ODE sample at tau_k as R^k v0, with R the RK4
    step matrix of the full 16-entry Lyapunov operator, formed afresh in
    long double at the default step."""
    y = params.y
    init = thermal_init(params, temp)
    ld = np.longdouble
    v0 = np.diag(
        np.array([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2, dtype=ld)
    ).reshape(16)
    drift = np.array(
        [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]], dtype=ld
    )
    eye4 = np.eye(4, dtype=ld)
    n_steps = max(1, int(np.ceil(tau_end / 1e-4)))
    h = ld(tau_end) / n_steps
    k = int(round(tau_k / float(h))) if tau_end else 0
    step_matrix = _rk4_step_matrix(np.kron(drift, eye4) + np.kron(eye4, drift), h)
    sig = (_matrix_power(step_matrix, k) @ v0).reshape(4, 4)
    sig = ((sig + sig.T) / 2.0).astype(np.float64)
    rot = _mode_rotation(
        (params.omega1_bar + y) * tau_k, (params.omega2_bar + y) * tau_k
    )
    lab = rot @ sig @ rot.T
    return (lab + lab.T) / 2.0


def dense_rho(state):
    """The dense (n_cut+1)^2 x (n_cut+1)^2 rho of a block-stored state."""
    size = (state.n_cut + 1) ** 2
    rows, cols, values = _entries(state)
    rho = np.zeros((size, size), dtype=complex)
    rho[rows, cols] = values
    return rho


def dense_state(rho, n_cut):
    """A FockState holding a dense rho as one block over every index."""
    return FockState(n_cut=n_cut, leakage=0.0, blocks=[(np.arange(len(rho)), rho)])


def number_expectation(state, mode):
    dim = state.n_cut + 1
    n_op = np.diag(np.arange(dim, dtype=float))
    eye = np.eye(dim)
    full = np.kron(n_op, eye) if mode == 1 else np.kron(eye, n_op)
    rho = dense_rho(state)
    return float(np.real(np.trace(full @ rho))) / float(np.real(np.trace(rho)))


class TestMomentsOde:
    def test_zero_time_returns_initial_state(self, make_params):
        params = make_params(y=0.3)
        traj = evolve_moments_ode(params, 0.0, 120.0)
        init = thermal_init(params, 120.0)
        expected = np.diag([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2)
        assert np.allclose(traj.final().entries, expected, rtol=0, atol=1e-12)
        assert len(traj.taus) == 1

    def test_matched_vacuum_growth(self, reference_params):
        traj = evolve_moments_ode(reference_params, 1.0, 0.0)
        assert traj.final().entries[0, 0] == pytest.approx(
            np.sinh(1.0) ** 2 + 0.5, abs=1e-9
        )

    def test_grid_equivalence_with_closed_form(self, make_params):
        worst = 0.0
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (0.0, 50.0, 300.0):
                for tau in (0.5, 2.881):
                    dev = np.max(
                        np.abs(
                            evolve_moments_ode(params, tau, temp).final().entries
                            - covariance_matrix(params, tau, temp).entries
                        )
                    )
                    worst = max(worst, float(dev))
        assert worst < 1e-8

    def test_trajectory_is_ordered_and_physical(self, make_params):
        traj = evolve_moments_ode(make_params(y=0.5), 1.5, 80.0)
        taus = traj.taus.tolist()
        assert taus == sorted(taus)
        assert len(set(taus)) == len(taus)
        assert taus[-1] == 1.5
        for sigma in traj.entries:
            assert physicality_check(CovarianceMatrix(sigma))

    def test_photon_difference_conserved_along_trajectory(self, make_params):
        params = make_params(y=0.4)
        init = thermal_init(params, 200.0)
        diff0 = init.nbar1 - init.nbar2
        for sigma in evolve_moments_ode(params, 2.0, 200.0).entries:
            n1 = sigma[0, 0] - 0.5
            n2 = sigma[2, 2] - 0.5
            assert (n1 - n2) == pytest.approx(diff0, abs=1e-8)

    def test_step_halving_fourth_order(self, reference_params):
        # self-convergence against a fine-step reference isolates the
        # integrator truncation error from shared rounding floors
        ref = evolve_moments_ode(reference_params, 2.881, 300.0, step=1e-4)
        ref_entries = ref.final().entries
        err = []
        for step in (1e-3, 5e-4):
            traj = evolve_moments_ode(reference_params, 2.881, 300.0, step=step)
            err.append(float(np.max(np.abs(traj.final().entries - ref_entries))))
        ratio = err[0] / err[1]
        assert 12.0 < ratio < 21.0

    @pytest.mark.parametrize(
        "y,tau,temp,count", [(0.5, 1.234, 80.0, 26), (0.9, 1.5, 300.0, 31)]
    )
    def test_samples_match_per_sample_matrix_powers(
        self, make_params, y, tau, temp, count
    ):
        # the integrator carries the moment vector from sample to sample;
        # each sample must equal R^k v0 formed afresh, as it was before.
        # tau = 1.234 ends on a short gap (12340 = 24 * 500 + 340 steps),
        # tau = 1.5 on a full stride
        params = make_params(y=y)
        init = thermal_init(params, temp)
        ld = np.longdouble
        v0 = np.diag(
            np.array([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2, dtype=ld)
        ).reshape(16)
        drift = np.array(
            [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]], dtype=ld
        )
        eye4 = np.eye(4, dtype=ld)
        n_steps = int(np.ceil(tau / 1e-4))
        h = ld(tau) / n_steps
        step_matrix = _rk4_step_matrix(
            np.kron(drift, eye4) + np.kron(eye4, drift), h
        )
        traj = evolve_moments_ode(params, tau, temp)
        assert len(traj.taus) == count
        for tau_k, sigma_k in zip(traj.taus, traj.entries):
            k = int(round(tau_k / float(h)))
            sig = (_matrix_power(step_matrix, k) @ v0).reshape(4, 4)
            sig = ((sig + sig.T) / 2.0).astype(np.float64)
            rot = _mode_rotation(
                (params.omega1_bar + y) * tau_k, (params.omega2_bar + y) * tau_k
            )
            lab = rot @ sig @ rot.T
            expected = (lab + lab.T) / 2.0
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sigma_k - expected)) <= 1e-14 * scale

    def test_rejects_oversized_step(self, reference_params):
        with pytest.raises(ValidationError):
            evolve_moments_ode(reference_params, 1.0, 0.0, step=5e-3)

    def test_rejects_negative_time(self, reference_params):
        with pytest.raises(ValidationError):
            evolve_moments_ode(reference_params, -1.0, 0.0)

    @pytest.mark.parametrize(
        "y,temp,tau,count",
        [
            (0.0, 0.0, 0.0, 1),  # tau = 0: the initial state alone
            (0.3, 300.0, 0.03, 2),  # below one stride: sample 0 and the end
            (0.3, 300.0, 5e-324, 2),  # one subnormal step, 0.05 / h = inf
            (0.9, 50.0, 0.05, 2),  # one stride, ending on it
            (0.0, 300.0, 1.55, 32),  # 31 stride samples, full last gap
            (0.5, 80.0, 1.58, 33),  # 32 = 2^5 stride samples, short last gap
            (0.0, 0.0, 1.6, 33),  # 32 stride samples, full last gap
            (0.3, 300.0, 1.62, 34),  # 33 = 2^5 + 1 stride samples, short last gap
        ],
    )
    def test_doubled_samples_match_per_sample_matrix_powers(
        self, make_params, y, temp, tau, count
    ):
        # the stride samples are made by doubling a block of them, the end
        # by its own gap; each sample must equal R^k v0 formed afresh
        params = make_params(y=y)
        traj = evolve_moments_ode(params, tau, temp)
        assert len(traj.taus) == count
        assert traj.taus[-1] == tau
        for tau_k, sigma_k in zip(traj.taus, traj.entries):
            expected = lab_moments_by_step_powers(params, temp, tau, tau_k)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sigma_k - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("tau", [300.0, 400.0])
    def test_long_tau_fails_the_gate_without_a_warning(self, reference_params, tau):
        # the moments overflow long before tau = 300; the blown-up samples
        # must reach the gate quietly and be refused there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="unphysical covariance matrix at tau="):
                evolve_moments_ode(reference_params, tau, 300.0, step=1e-3)

    def test_trajectory_is_stored_as_one_array(self, reference_params, monkeypatch):
        # the samples are checked as one stack, so the only CovarianceMatrix
        # built is the one final() returns
        built = []
        post_init = CovarianceMatrix.__post_init__

        def counting(cm):
            built.append(cm)
            post_init(cm)

        monkeypatch.setattr(CovarianceMatrix, "__post_init__", counting)
        traj = evolve_moments_ode(reference_params, 2.881, 300.0)
        final = traj.final()
        assert len(built) == 1
        assert traj.entries.shape == (59, 4, 4)
        assert traj.entries.dtype == np.float64 and traj.taus.dtype == np.float64
        assert not traj.entries.flags.writeable and not traj.taus.flags.writeable
        with pytest.raises(ValueError):
            traj.entries[0, 0, 0] = 0.0
        assert np.array_equal(final.entries, traj.entries[-1])

    def test_trajectory_refuses_what_covariance_matrix_refuses(self):
        sigma = np.stack([0.5 * np.eye(4)] * 3)
        sigma[1, 0, 2] = 1e-3  # no symmetric partner
        with pytest.raises(ValidationError, match="not symmetric"):
            fock_oracle.MomentTrajectory(taus=[0.0, 0.1, 0.2], entries=sigma)
        sigma[1, 0, 2] = np.nan
        with pytest.raises(ValidationError, match="must be finite"):
            fock_oracle.MomentTrajectory(taus=[0.0, 0.1, 0.2], entries=sigma)
        with pytest.raises(ValidationError):
            fock_oracle.MomentTrajectory(taus=[0.0, 0.1], entries=sigma)

    def test_trajectory_refuses_no_samples(self):
        # the empty stack used to reach numpy's max and raise its ValueError
        with pytest.raises(ValidationError, match="at least one sample"):
            fock_oracle.MomentTrajectory(taus=[], entries=np.zeros((0, 4, 4)))

    def test_trajectory_scales_the_symmetry_bound_per_matrix(self):
        # each matrix may be off by 1e-12 max(1, its largest |entry|), as a
        # CovarianceMatrix of its own: 5e-9 passes at 1e4, not at 1
        big, small = 1e4 * np.eye(4), 0.5 * np.eye(4)
        big[0, 2] = small[0, 2] = 5e-9
        CovarianceMatrix(big)
        with pytest.raises(ValidationError, match="not symmetric"):
            CovarianceMatrix(small)
        fock_oracle.MomentTrajectory(taus=[0.0, 0.1], entries=[big, big])
        with pytest.raises(ValidationError, match="not symmetric"):
            fock_oracle.MomentTrajectory(taus=[0.0, 0.1], entries=[big, small])

    @pytest.mark.parametrize("failing", [0, 7, 30])
    def test_gate_failure_names_the_first_failing_tau(
        self, reference_params, monkeypatch, failing
    ):
        # sample `failing` fails the gate, and so does the last one
        gate = fock_oracle._above_ode_floor

        def failing_gate(sigma):
            verdicts = gate(sigma)
            verdicts[[failing, -1]] = False
            return verdicts

        tau = evolve_moments_ode(reference_params, 1.5, 80.0).taus[failing]
        monkeypatch.setattr(fock_oracle, "_above_ode_floor", failing_gate)
        with pytest.raises(IntegrationError, match=re.escape(f"at tau={tau}:")):
            evolve_moments_ode(reference_params, 1.5, 80.0)


class TestEvolveFock:
    def test_zero_time_vacuum(self, reference_params):
        state = evolve_fock(reference_params, 0.0, 0.0, n_cut=8)
        expected = np.zeros((81, 81), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(dense_rho(state), expected, atol=1e-15)
        assert state.leakage == pytest.approx(0.0, abs=1e-12)

    def test_matched_vacuum_mean_photons(self, reference_params):
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=20, step=1e-4)
        assert number_expectation(state, 1) == pytest.approx(
            np.sinh(0.5) ** 2, abs=1e-6
        )

    def test_photon_difference_integral_of_motion(self, make_params):
        params = make_params(y=0.5)
        init = thermal_init(params, T_SMALL)
        diff0 = init.nbar1 - init.nbar2
        for tau in (0.25, 0.5, 1.0):
            state = evolve_fock(params, tau, T_SMALL, n_cut=26, step=1e-4)
            diff = number_expectation(state, 1) - number_expectation(state, 2)
            assert abs(diff - diff0) < 1e-8

    def test_trace_hermiticity_positivity(self, make_params):
        state = evolve_fock(make_params(y=0.5), 1.0, T_SMALL, n_cut=24, step=1e-4)
        rho = dense_rho(state)
        trace = float(np.real(np.trace(rho)))
        assert 1.0 - 1e-6 <= trace <= 1.0 + 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_leakage_reports_truncated_tail(self, make_params):
        # thermal tail beyond n_cut: (nbar/(nbar+1))^(n_cut+1) per mode
        params = make_params()
        init = thermal_init(params, T_SMALL)
        n_cut = 12
        state = evolve_fock(params, 0.0, T_SMALL, n_cut=n_cut)
        expect = 1.0 - (
            (1 - (init.nbar1 / (init.nbar1 + 1)) ** (n_cut + 1))
            * (1 - (init.nbar2 / (init.nbar2 + 1)) ** (n_cut + 1))
        )
        assert state.leakage == pytest.approx(expect, rel=1e-6)
        assert 0.0 < state.leakage < 1e-4

    def test_rejects_large_occupation(self, make_params):
        # nbar1 ~ 5.3 at 8 K exceeds the small-occupation contract
        with pytest.raises(ValidationError):
            evolve_fock(make_params(), 0.5, 8.0, n_cut=60)

    def test_rejects_undersized_cutoff(self, make_params):
        with pytest.raises(ValidationError):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=8)

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_rejects_a_step_that_is_not_finite(self, make_params, step):
        # NaN used to reach math.ceil and raise its ValueError; inf ran one
        # RK4 step of length tau_end
        with pytest.raises(ValidationError, match="step must be positive and finite"):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=20, step=step)

    def test_rejects_a_cutoff_that_is_not_an_integer(self, make_params):
        # 8.5 used to reach np.zeros and raise numpy's TypeError
        with pytest.raises(ValidationError, match="n_cut must be an integer"):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=8.5)

    @pytest.mark.parametrize("step", [0.2, 0.5])
    def test_refuses_a_grown_trace(self, make_params, step):
        # RK4 amplifies the modes with |h E| > 2 sqrt 2: at step 0.2 the
        # trace grows to 4.9e56, and the state would give E_N = 1.44
        with pytest.raises(IntegrationError, match="trace grew"):
            evolve_fock(make_params(y=0.5), 3.0, 1.0, n_cut=20, step=step)


class TestFockLogNegativity:
    def test_thermal_product_is_zero(self, reference_params):
        state = evolve_fock(reference_params, 0.0, T_SMALL, n_cut=16)
        assert fock_log_negativity(state) == 0.0

    def test_tmsv_half(self, reference_params):
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=20, step=1e-4)
        assert fock_log_negativity(state) == pytest.approx(1.0, abs=2e-3)

    def test_cross_backend_agreement(self, make_params):
        params = make_params(y=0.5)
        state = evolve_fock(params, 1.0, T_SMALL, n_cut=30, step=1e-4)
        gauss = log_negativity(covariance_matrix(params, 1.0, T_SMALL))
        assert fock_log_negativity(state) == pytest.approx(gauss, abs=1e-3)


class TestMomentsFromFock:
    def test_vacuum(self, reference_params):
        state = evolve_fock(reference_params, 0.0, 0.0, n_cut=8)
        cm = moments_from_fock(state)
        assert np.allclose(cm.entries, 0.5 * np.eye(4), atol=1e-12)

    def test_thermal_diagonal(self, make_params):
        # temperature tuned so nbar1 = 1 exactly; truncated tail at
        # n_cut = 30 is ~5e-10, invisible at the checked tolerance
        from pdc_entanglement import HBAR, K_B

        params = make_params()
        temp = HBAR * params.omega1_bar * params.g / (K_B * np.log(2.0))
        init = thermal_init(params, temp)
        assert init.nbar1 == pytest.approx(1.0, rel=1e-12)
        state = evolve_fock(params, 0.0, temp, n_cut=30)
        cm = moments_from_fock(state)
        assert cm.entries[0, 0] == pytest.approx(1.5, abs=1e-7)
        assert cm.entries[2, 2] == pytest.approx(init.nbar2 + 0.5, abs=1e-7)
        assert abs(cm.entries[0, 2]) < 1e-12

    @pytest.mark.parametrize(
        "y,tau,temp,n_cut",
        [
            (0.0, 0.5, 0.0, 20),
            (0.5, 0.6, T_TINY, 24),
            (0.9, 0.5, T_SMALL, 26),
        ],
    )
    def test_entrywise_equivalence_with_closed_form(
        self, make_params, y, tau, temp, n_cut
    ):
        params = make_params(y=y)
        state = evolve_fock(params, tau, temp, n_cut=n_cut, step=1e-4)
        fock_cm = moments_from_fock(state)
        closed = covariance_matrix(params, tau, temp)
        assert np.max(np.abs(fock_cm.entries - closed.entries)) < 1e-5


# Independent dense references for the sector-blocked Fock stages: the
# generator is built from Kronecker products and propagated exactly by a
# dense eigendecomposition, the negativity comes from one dense eigvalsh
# of the partial transpose, and the moments from full two-mode quadrature
# operators.  The package keeps no dense path; these are the references.


def dense_operators(n_cut):
    dim = n_cut + 1
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    number = np.diag(np.arange(dim, dtype=float))
    eye = np.eye(dim)
    return lower, number, eye


def dense_hamiltonian(y, n_cut):
    lower, number, eye = dense_operators(n_cut)
    return -y * (np.kron(number, eye) + np.kron(eye, number)) - (
        np.kron(lower.T, lower.T) + np.kron(lower, lower)
    )


def dense_reference_state(params, tau, temp, n_cut, rk4_step=None):
    """The evolved state from the exact propagator, or with rk4_step from
    classical RK4 applied as one dense matrix power."""
    _, number, _ = dense_operators(n_cut)
    ham = dense_hamiltonian(params.y, n_cut)
    if rk4_step is None:
        energies, vecs = np.linalg.eigh(ham)
        propagator = (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
    else:
        n_steps = int(np.ceil(tau / rk4_step))
        propagator = _matrix_power(
            _rk4_step_matrix(-1j * ham, tau / n_steps), n_steps
        )
    init = thermal_init(params, temp)
    weights = []
    for nbar in (init.nbar1, init.nbar2):
        levels = np.arange(n_cut + 1)
        weights.append(
            (nbar / (nbar + 1.0)) ** levels / (nbar + 1.0)
            if nbar > 0.0
            else (levels == 0).astype(float)
        )
    rho0 = np.diag(np.kron(weights[0], weights[1]))
    phase1 = np.exp(-1j * (params.omega1_bar + params.y) * tau * np.diag(number))
    phase2 = np.exp(-1j * (params.omega2_bar + params.y) * tau * np.diag(number))
    lab = np.kron(phase1, phase2)[:, None] * propagator
    return lab @ rho0 @ lab.conj().T


def dense_log_negativity(state):
    dim = state.n_cut + 1
    rho = dense_rho(state)
    pt = rho.reshape(dim, dim, dim, dim).transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log(np.abs(eigs).sum() / np.real(np.trace(rho))))


def dense_moments(state):
    lower, _, eye = dense_operators(state.n_cut)
    q = (lower + lower.T) / np.sqrt(2.0)
    p = -1j * (lower - lower.T) / np.sqrt(2.0)
    quads = [np.kron(q, eye), np.kron(p, eye), np.kron(eye, q), np.kron(eye, p)]
    rho = dense_rho(state)
    trace = np.real(np.trace(rho))
    sigma = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            sym = quads[i] @ quads[j] + quads[j] @ quads[i]
            sigma[i, j] = np.real(np.trace(sym @ rho)) / (2.0 * trace)
    return sigma


def random_density_matrix(n_cut, rng, sector_labels=None):
    """Random full-rank state, stored as one block per label (one block
    over every index if no labels are given)."""
    size = (n_cut + 1) ** 2
    labels = np.zeros(size, dtype=int) if sector_labels is None else sector_labels
    blocks = []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        a = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(
            size=(idx.size, idx.size)
        )
        block = a @ a.conj().T
        blocks.append((idx, (block + block.conj().T) / 2.0))
    trace = sum(np.real(np.trace(block)) for _, block in blocks)
    return FockState(
        n_cut=n_cut, leakage=0.0, blocks=[(idx, block / trace) for idx, block in blocks]
    )


class TestDenseReference:
    @pytest.mark.parametrize("y,tau", [(0.0, 0.7), (0.5, 1.0), (0.9, 0.4)])
    def test_evolved_state_matches_dense_propagator(self, make_params, y, tau):
        params = make_params(y=y)
        state = evolve_fock(params, tau, T_TINY, n_cut=10, step=1e-4)
        expected = dense_reference_state(params, tau, T_TINY, 10)
        assert np.max(np.abs(dense_rho(state) - expected)) < 1e-10

    def test_negativity_of_evolved_state(self, make_params):
        state = evolve_fock(make_params(y=0.5), 1.0, T_TINY, n_cut=10, step=1e-4)
        reference = dense_log_negativity(state)
        assert reference > 0.5
        assert abs(fock_log_negativity(state) - reference) < 1e-12

    def test_negativity_of_unstructured_state(self):
        # every entry is nonzero, so the partial transpose couples all
        # total-number sectors and the spectrum comes from one dense block
        state = random_density_matrix(8, np.random.default_rng(11))
        reference = dense_log_negativity(state)
        assert reference > 0.0
        assert abs(fock_log_negativity(state) - reference) < 1e-12

    def test_moments_of_sector_diagonal_state(self):
        n_cut = 9
        n1, n2 = np.divmod(np.arange((n_cut + 1) ** 2), n_cut + 1)
        state = random_density_matrix(n_cut, np.random.default_rng(5), n1 - n2)
        cm = moments_from_fock(state)
        assert np.max(np.abs(cm.entries - dense_moments(state))) < 1e-12


def test_edge_population_exposes_dynamical_truncation(reference_params):
    # tau = 3 at T = 0 pumps the pairs far past n_cut = 8: the trace is
    # conserved, so leakage stays at rounding level, while the true
    # E_N = 2 tau = 6 is badly underestimated
    state = evolve_fock(reference_params, 3.0, 0.0, n_cut=8)
    assert abs(state.leakage) < 1e-10
    assert state.edge_population == pytest.approx(5.67e-2, rel=1e-2)
    assert fock_log_negativity(state) < 2.0
    with pytest.raises(AttributeError):
        state.edge_population = 0.0
    resolved = evolve_fock(reference_params, 0.5, 0.0, n_cut=20)
    assert resolved.edge_population < 1e-10


class TestFockStateHermiticity:
    """FockState reads the Hermiticity defect over every stored entry; at
    n_cut = 15 a random 256 x 256 rho couples all sectors, so it is
    stored as one block."""

    @pytest.mark.parametrize("defect", [1e-3, 1e-6])
    def test_rejects_non_hermitian_block(self, defect):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = defect  # no conjugate partner
        with pytest.raises(ValidationError):
            dense_state(rho, n_cut=1)

    @pytest.mark.parametrize("where", [(10, 200), (255, 3), (255, 255)])
    def test_rejects_one_anti_hermitian_entry(self, where):
        rho = dense_rho(random_density_matrix(15, np.random.default_rng(3)))
        i, j = where
        rho[i, j] += 1e-11j  # its partner rho[j, i] stays as it was
        with pytest.raises(ValidationError):
            dense_state(rho, n_cut=15)

    def test_accepts_random_hermitian_state(self):
        state = random_density_matrix(15, np.random.default_rng(4))
        assert dense_rho(state).shape == (256, 256)

    def test_rejects_nan_entry(self):
        # a NaN defect compares False with any bound; such a state used to
        # pass and give fock_log_negativity = 0.0, a silent "separable"
        rho = dense_rho(random_density_matrix(1, np.random.default_rng(5)))
        rho[0, 0] = np.nan
        with pytest.raises(ValidationError):
            dense_state(rho, n_cut=1)

    def test_rejects_infinite_entry(self):
        # inf - inf in the defect used to warn before the state was refused
        rho = dense_rho(random_density_matrix(1, np.random.default_rng(5)))
        rho[0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                dense_state(rho, n_cut=1)


class TestFockStateTrace:
    """trace(rho) must be positive and finite: the negativity and the
    moments divide by it."""

    def test_rejects_a_negative_trace(self):
        # trace -0.8 passed the Hermiticity check, and fock_log_negativity
        # then returned 0.0 after a RuntimeWarning: a silent "separable"
        with pytest.raises(ValidationError, match="trace of rho must be positive"):
            FockState(n_cut=1, leakage=0.0, blocks=[([0, 1], [[-1.0, 0.0], [0.0, 0.2]])])

    def test_rejects_a_zero_trace(self):
        # both stages used to raise ZeroDivisionError on it
        with pytest.raises(ValidationError, match="trace of rho must be positive"):
            dense_state(np.zeros((4, 4)), n_cut=1)

    def test_reads_the_diagonal_of_every_block(self):
        # blocks of sizes 1, 2 and 1, stored out of index order, whose
        # diagonals sum to 1; an off-diagonal entry read as diagonal would
        # make the trace negative
        blocks = [([3], [[0.5]]), ([0, 2], [[0.2, -5.0], [-5.0, 0.05]]), ([1], [[0.25]])]
        state = FockState(n_cut=1, leakage=0.0, blocks=blocks)
        assert np.real(np.trace(dense_rho(state))) == 1.0
        # n_cut = 1: every index but 0, (n1, n2) = (0, 0), is on the edge
        assert state.edge_population == pytest.approx(0.8, abs=1e-15)


def test_sector_blocks_single_coupling_merges_all_labels():
    labels = np.array([0, 0, 1, 1, 2, 2])
    matrix = np.diag(np.arange(1.0, 7.0))
    blocks = _label_groups(*np.nonzero(matrix), labels)
    assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4, 5]]
    matrix[1, 4] = 1e-300  # the only entry coupling two labels
    blocks = _label_groups(*np.nonzero(matrix), labels)
    assert len(blocks) == 1
    assert list(blocks[0]) == list(range(6))


def gate_matrices():
    """2000 seeded positive-definite matrices around the gate's floor."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = rng.normal(size=(4, 4)) * rng.uniform(0.2, 1.2)
        yield m @ m.T + rng.uniform(0.01, 0.3) * np.eye(4)


def test_ode_gate_matches_symplectic_spectrum():
    # the gate's sign test against a direct reference: the symplectic
    # eigenvalues of sigma are the moduli of the eigenvalues of i Omega sigma
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    passed = 0
    for sigma in gate_matrices():
        nu_min = np.abs(np.linalg.eigvals(1j * omega @ sigma)).min()
        assert _above_ode_floor(sigma) == (nu_min >= 0.45)
        passed += nu_min >= 0.45
    assert 200 < passed < 1800  # both verdicts are exercised


def test_ode_gate_on_a_stack_matches_per_matrix_verdicts():
    stack = np.stack(list(gate_matrices()))
    verdicts = _above_ode_floor(stack)
    assert verdicts.shape == (2000,)
    assert verdicts.tolist() == [bool(_above_ode_floor(sigma)) for sigma in stack]


# step 1e-3 keeps RK4 3e-9 to 4e-8 away from the exact propagator on these
# cases, so agreement to 1e-12 tells the two integrators apart (at 1e-4 the
# gap falls to a few 1e-13 and could not)
RK4_CASES = [(0.0, 0.7), (0.5, 1.0), (0.9, 0.4)]
RK4_STEP = 1e-3


@pytest.mark.parametrize("y,tau", RK4_CASES)
def test_sector_propagator_is_the_rk4_matrix_power(y, tau):
    n_cut = 10
    ham = dense_hamiltonian(y, n_cut)
    n_steps = int(np.ceil(tau / RK4_STEP))
    h = tau / n_steps
    n1, n2 = np.divmod(np.arange((n_cut + 1) ** 2), n_cut + 1)
    for d in range(-n_cut, n_cut + 1):
        idx = np.flatnonzero(n1 - n2 == d)
        ham_d = ham[np.ix_(idx, idx)]
        expected = _matrix_power(_rk4_step_matrix(-1j * ham_d, h), n_steps)
        assert np.max(np.abs(_rk4_propagator(ham_d, h, n_steps) - expected)) <= 1e-12
        if d == 0:  # the largest sector, where the integrators differ most
            e, v = np.linalg.eigh(ham_d)
            exact = (v * np.exp(-1j * e * tau)) @ v.T
            assert np.max(np.abs(exact - expected)) > 1e-9


@pytest.mark.parametrize("y,tau", RK4_CASES)
def test_evolve_fock_step_selects_rk4(make_params, y, tau):
    # the whole state against one dense RK4 matrix power over all sectors;
    # in the state the integrators differ less than in the propagator, so
    # a coarser step keeps them apart
    params, n_cut, step = make_params(y=y), 10, 1e-2
    state = evolve_fock(params, tau, T_TINY, n_cut=n_cut, step=step)
    expected = dense_reference_state(params, tau, T_TINY, n_cut, rk4_step=step)
    rho = dense_rho(state)
    assert np.max(np.abs(rho - expected)) < 1e-12
    exact = dense_reference_state(params, tau, T_TINY, n_cut)
    assert np.max(np.abs(rho - exact)) > 1e-9


def test_block_storage_peak_memory_at_n_cut_60(reference_params):
    # the three stages never form a (n_cut+1)^2 x (n_cut+1)^2 matrix: a
    # dense rho alone would take 3721^2 x 16 B = 221 MB here
    tracemalloc.start()
    try:
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=60)
        e_fock = fock_log_negativity(state)
        cm = moments_from_fock(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert len(state.blocks) == 121
    # matched vacuum: E_N = 2 tau and <n1> = sinh(tau)^2
    assert e_fock == pytest.approx(1.0, abs=1e-8)
    assert cm.entries[0, 0] == pytest.approx(np.sinh(0.5) ** 2 + 0.5, abs=1e-8)


def test_moments_of_parity_diagonal_state():
    # a state block-diagonal in the parity of n1 + n2 has no first moments
    # but coherences at every even shift, among them (0, n_cut) next to
    # (1, -1) and (1, 2 - dim) next to (0, 2): each ladder expectation
    # must read its own shift only
    n_cut = 8
    n1, n2 = np.divmod(np.arange((n_cut + 1) ** 2), n_cut + 1)
    state = random_density_matrix(n_cut, np.random.default_rng(7), (n1 + n2) % 2)
    cm = moments_from_fock(state)
    assert np.max(np.abs(cm.entries - dense_moments(state))) < 1e-12
