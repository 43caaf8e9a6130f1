import warnings

import numpy as np
import pytest

from pdc_entanglement import (
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
    _matrix_power,
    _mode_rotation,
    _rk4_step_matrix,
    _sector_blocks,
)

# temperatures giving small occupations at the reference frequencies:
# nbar1(1.2 K) ~ 0.40, nbar1(0.8 K) ~ 0.18
T_SMALL = 1.2
T_TINY = 0.8


def number_expectation(state, mode):
    dim = state.n_cut + 1
    n_op = np.diag(np.arange(dim, dtype=float))
    eye = np.eye(dim)
    full = np.kron(n_op, eye) if mode == 1 else np.kron(eye, n_op)
    return float(np.real(np.trace(full @ state.rho))) / float(
        np.real(np.trace(state.rho))
    )


class TestMomentsOde:
    def test_zero_time_returns_initial_state(self, make_params):
        params = make_params(y=0.3)
        traj = evolve_moments_ode(params, 0.0, 120.0)
        init = thermal_init(params, 120.0)
        expected = np.diag([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2)
        assert np.allclose(traj.final().entries, expected, rtol=0, atol=1e-12)
        assert len(traj.samples) == 1

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
        taus = [t for t, _ in traj.samples]
        assert taus == sorted(taus)
        assert len(set(taus)) == len(taus)
        assert taus[-1] == 1.5
        for _, cm in traj.samples:
            assert physicality_check(cm)

    def test_photon_difference_conserved_along_trajectory(self, make_params):
        params = make_params(y=0.4)
        init = thermal_init(params, 200.0)
        diff0 = init.nbar1 - init.nbar2
        for _, cm in evolve_moments_ode(params, 2.0, 200.0).samples:
            n1 = cm.entries[0, 0] - 0.5
            n2 = cm.entries[2, 2] - 0.5
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
        samples = evolve_moments_ode(params, tau, temp).samples
        assert len(samples) == count
        for tau_k, cm in samples:
            k = int(round(tau_k / float(h)))
            sig = (_matrix_power(step_matrix, k) @ v0).reshape(4, 4)
            sig = ((sig + sig.T) / 2.0).astype(np.float64)
            rot = _mode_rotation(
                (params.omega1_bar + y) * tau_k, (params.omega2_bar + y) * tau_k
            )
            lab = rot @ sig @ rot.T
            expected = (lab + lab.T) / 2.0
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(cm.entries - expected)) <= 1e-14 * scale

    def test_rejects_oversized_step(self, reference_params):
        with pytest.raises(ValidationError):
            evolve_moments_ode(reference_params, 1.0, 0.0, step=5e-3)

    def test_rejects_negative_time(self, reference_params):
        with pytest.raises(ValidationError):
            evolve_moments_ode(reference_params, -1.0, 0.0)

    def test_refuses_long_double_without_63_mantissa_bits(
        self, reference_params, monkeypatch
    ):
        # where long double is a plain double (52 bits) the moments miss the
        # 1e-8 tolerance, so the integrator refuses before it starts
        monkeypatch.setattr(fock_oracle, "_LONGDOUBLE_NMANT", 52)
        with pytest.raises(IntegrationError, match="63 mantissa bits"):
            evolve_moments_ode(reference_params, 1.0, 10.0)


class TestEvolveFock:
    def test_zero_time_vacuum(self, reference_params):
        state = evolve_fock(reference_params, 0.0, 0.0, n_cut=8)
        expected = np.zeros((81, 81), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(state.rho, expected, atol=1e-15)
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
        trace = float(np.real(np.trace(state.rho)))
        assert 1.0 - 1e-6 <= trace <= 1.0 + 1e-10
        assert np.max(np.abs(state.rho - state.rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(state.rho).min() > -1e-10

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

    def test_rejects_non_hermitian(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = 1e-3  # no conjugate partner
        with pytest.raises(ValidationError):
            FockState(rho=rho, n_cut=1, leakage=0.0)


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


def dense_reference_state(params, tau, temp, n_cut):
    lower, number, eye = dense_operators(n_cut)
    ham = -params.y * (np.kron(number, eye) + np.kron(eye, number)) - (
        np.kron(lower.T, lower.T) + np.kron(lower, lower)
    )
    energies, vecs = np.linalg.eigh(ham)
    propagator = (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
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
    pt = (
        state.rho.reshape(dim, dim, dim, dim)
        .transpose(0, 3, 2, 1)
        .reshape(dim * dim, dim * dim)
    )
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log(np.abs(eigs).sum() / np.real(np.trace(state.rho))))


def dense_moments(state):
    lower, _, eye = dense_operators(state.n_cut)
    q = (lower + lower.T) / np.sqrt(2.0)
    p = -1j * (lower - lower.T) / np.sqrt(2.0)
    quads = [np.kron(q, eye), np.kron(p, eye), np.kron(eye, q), np.kron(eye, p)]
    rho = state.rho
    trace = np.real(np.trace(rho))
    sigma = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            sym = quads[i] @ quads[j] + quads[j] @ quads[i]
            sigma[i, j] = np.real(np.trace(sym @ rho)) / (2.0 * trace)
    return sigma


def random_density_matrix(n_cut, rng, sector_labels=None):
    """Random full-rank state; block-diagonal in the given labels if any."""
    size = (n_cut + 1) ** 2
    labels = np.zeros(size, dtype=int) if sector_labels is None else sector_labels
    rho = np.zeros((size, size), dtype=complex)
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        a = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(
            size=(idx.size, idx.size)
        )
        rho[np.ix_(idx, idx)] = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return FockState(rho=rho / np.real(np.trace(rho)), n_cut=n_cut, leakage=0.0)


class TestDenseReference:
    @pytest.mark.parametrize("y,tau", [(0.0, 0.7), (0.5, 1.0), (0.9, 0.4)])
    def test_evolved_state_matches_dense_propagator(self, make_params, y, tau):
        params = make_params(y=y)
        state = evolve_fock(params, tau, T_TINY, n_cut=10, step=1e-4)
        expected = dense_reference_state(params, tau, T_TINY, 10)
        assert np.max(np.abs(state.rho - expected)) < 1e-10

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


def test_fock_state_rejects_non_hermitian_rho():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho[0, 1] = 1e-6
    with pytest.raises(ValidationError):
        FockState(rho=rho, n_cut=1, leakage=0.0)


class TestFockStateHermiticity:
    """FockState reads the Hermiticity defect tile by tile; at n_cut = 15
    the 256 x 256 rho spans two tiles per side."""

    @pytest.mark.parametrize("where", [(10, 200), (255, 3), (255, 255)])
    def test_rejects_one_anti_hermitian_entry(self, where):
        rho = random_density_matrix(15, np.random.default_rng(3)).rho.copy()
        i, j = where
        rho[i, j] += 1e-11j  # its partner rho[j, i] stays as it was
        with pytest.raises(ValidationError):
            FockState(rho=rho, n_cut=15, leakage=0.0)

    def test_accepts_random_hermitian_state(self):
        state = random_density_matrix(15, np.random.default_rng(4))
        assert state.rho.shape == (256, 256)

    def test_rejects_nan_entry(self):
        # a NaN defect compares False with any bound; such a state used to
        # pass and give fock_log_negativity = 0.0, a silent "separable"
        rho = random_density_matrix(1, np.random.default_rng(5)).rho.copy()
        rho[0, 0] = np.nan
        with pytest.raises(ValidationError):
            FockState(rho=rho, n_cut=1, leakage=0.0)

    def test_rejects_infinite_entry(self):
        # inf - inf in the defect used to warn before the state was refused
        rho = random_density_matrix(1, np.random.default_rng(5)).rho.copy()
        rho[0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                FockState(rho=rho, n_cut=1, leakage=0.0)


def test_sector_blocks_single_coupling_merges_all_labels():
    labels = np.array([0, 0, 1, 1, 2, 2])
    matrix = np.diag(np.arange(1.0, 7.0))
    blocks = _sector_blocks(matrix, labels)
    assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4, 5]]
    matrix[1, 4] = 1e-300  # the only entry coupling two labels
    blocks = _sector_blocks(matrix, labels)
    assert len(blocks) == 1
    assert list(blocks[0]) == list(range(6))


def test_ode_gate_matches_symplectic_spectrum():
    # the gate's sign test against a direct reference: the symplectic
    # eigenvalues of sigma are the moduli of the eigenvalues of i Omega sigma
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    rng = np.random.default_rng(11)
    passed = 0
    for _ in range(2000):
        m = rng.normal(size=(4, 4)) * rng.uniform(0.2, 1.2)
        sigma = m @ m.T + rng.uniform(0.01, 0.3) * np.eye(4)
        nu_min = np.abs(np.linalg.eigvals(1j * omega @ sigma)).min()
        assert _above_ode_floor(sigma.astype(np.longdouble)) == (nu_min >= 0.45)
        passed += nu_min >= 0.45
    assert 200 < passed < 1800  # both verdicts are exercised
