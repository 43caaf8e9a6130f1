import ast
import gc
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdc_entanglement import (
    CovarianceMatrix,
    FockState,
    IntegrationError,
    NumericalDomainError,
    TruncationError,
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
    _COUPLING,
    _MISMATCH,
    _MOMENT_STEP,
    _Layout,
    _mode_rotation,
)

# temperatures giving small occupations at the reference frequencies:
# nbar1(1.2 K) ~ 0.40, nbar1(0.8 K) ~ 0.18
T_SMALL = 1.2
T_TINY = 0.8


def _rk4_step_increment(generator, h):
    """R - I for the one-step matrix R of classical RK4 for
    dx/dt = generator @ x."""
    hm = h * generator
    hm2 = hm @ hm
    return hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0


def lab_moments_by_step_powers(params, temp, tau_end):
    """The lab-frame moment ODE end point at tau_end as P sigma0 P^T, with
    P = E4(hF)^(2^k) the 2^k-th power of the RK4 step matrix of the drift
    F at h = tau_end / 2^k, k >= 0 the least with h <= 1e-4, formed afresh
    in long double.  It is squared k times on its increment over the
    identity, D <- 2D + D D: squaring I + D itself would lose about
    2^k eps of long double, up to 6.5e-14 of the largest entry by
    tau_end = 20, while this stays within 4.3e-16 of the exact flow."""
    y = params.y
    init = thermal_init(params, temp)
    ld = np.longdouble
    sigma0 = np.diag(
        np.array([init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2, dtype=ld)
    )
    drift = np.array(
        [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]], dtype=ld
    )
    k = 0
    while tau_end / 2.0**k > 1e-4:
        k += 1
    increment = _rk4_step_increment(drift, ld(tau_end) / 2**k)
    for _ in range(k):
        increment = 2.0 * increment + increment @ increment
    propagator = np.eye(4, dtype=ld) + increment
    sig = propagator @ sigma0 @ propagator.T
    sig = ((sig + sig.T) / 2.0).astype(np.float64)
    rot = _mode_rotation(
        (params.omega1_bar + y) * tau_end, (params.omega2_bar + y) * tau_end
    )
    lab = rot @ sig @ rot.T
    return (lab + lab.T) / 2.0


def dense_rho(state):
    """The dense (n_cut+1)^2 x (n_cut+1)^2 rho of a block-stored state."""
    size = (state.n_cut + 1) ** 2
    rho = np.zeros((size, size), dtype=complex)
    for idx, block in state.blocks:
        rho[np.ix_(idx, idx)] = block
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
        assert traj.tau == 0.0

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

    @pytest.mark.parametrize("temp", [0.0, 300.0])
    def test_end_point_past_the_gate_reach_matches_closed_form(
        self, make_params, temp
    ):
        # the end point stays within 5e-13 of the closed form past
        # tau_end = 9, relative to its largest entry
        params = make_params(y=0.9)
        for tau in (8.0, 9.5, 10.0, 12.0, 16.0):
            sigma = evolve_moments_ode(params, tau, temp).final().entries
            expected = covariance_matrix(params, tau, temp).entries
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sigma - expected)) <= 5e-13 * scale

    def test_end_point_is_physical_along_tau(self, make_params):
        params = make_params(y=0.5)
        for tau in (0.0, 0.05, 0.3, 1.234, 1.5, 2.881):
            traj = evolve_moments_ode(params, tau, 80.0)
            assert traj.tau == tau
            assert physicality_check(traj.final())

    def test_photon_difference_conserved_along_trajectory(self, make_params):
        params = make_params(y=0.4)
        init = thermal_init(params, 200.0)
        diff0 = init.nbar1 - init.nbar2
        for tau in (0.0, 0.05, 0.5, 1.0, 2.0):
            sigma = evolve_moments_ode(params, tau, 200.0).final().entries
            n1 = sigma[0, 0] - 0.5
            n2 = sigma[2, 2] - 0.5
            assert (n1 - n2) == pytest.approx(diff0, abs=1e-8)

    @pytest.mark.parametrize(
        "y,temp,tau",
        [
            (0.0, 0.0, 0.0),  # the initial state alone
            (0.3, 300.0, 5e-324),  # one subnormal step
            (0.3, 300.0, 0.03),
            (0.9, 50.0, 0.05),
            (0.5, 80.0, 1.234),
            (0.9, 300.0, 1.5),
            (0.3, 300.0, 2.881),
            # tau / 1e-4 is exactly 2^13 and 2^14: 2^k steps of h = 1e-4
            (0.5, 80.0, 0.8192),
            (0.9, 300.0, 1.6384),
        ],
    )
    def test_end_point_matches_step_matrix_power(self, make_params, y, temp, tau):
        # the integrator squares the increment D = R - I k times, as
        # D (D + 2I), to R^(2^k) - I; the end point must equal
        # R^(2^k) sigma0 (R^(2^k))^T formed afresh in long double
        params = make_params(y=y)
        sigma = evolve_moments_ode(params, tau, temp).final().entries
        expected = lab_moments_by_step_powers(params, temp, tau)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(sigma - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "tau,steps",
        [(0.0, 1), (5e-324, 1), (1e-4, 1), (1.5e-4, 2), (0.8192, 2**13), (0.8193, 2**14),
         (2.881, 2**15), (20.0, 2**18)],
    )
    def test_step_is_tau_over_the_least_power_of_two_within_the_largest(
        self, reference_params, monkeypatch, tau, steps
    ):
        # the end point cannot tell h from h / 2 (the truncation error at
        # 2e-4 is far below its rounding), so the step is read as it is formed
        taken = []
        increment = fock_oracle._rk4_increment
        monkeypatch.setattr(
            fock_oracle, "_rk4_increment", lambda generator, h: taken.append(h) or increment(generator, h)
        )
        evolve_moments_ode(reference_params, tau, 0.0)
        assert taken == [tau / steps]

    def test_end_point_matches_step_matrix_power_on_a_seeded_sweep(self, make_params):
        # y < 0.99, T < 300 K and tau <= 20 drawn at random; over seeds 0 to
        # 149 of 40 draws each the median read 4.0e-15 and the worst 1.0e-13
        # (y = 0.95, tau = 18.5), against 7.3e-14 by the earlier set-bit
        # scheme: the rounding of 2 + D_ii is the same on every diagonal
        # entry, and each squaring D (D + 2I) scales the time its increment
        # spans by up to 1 +- eps / 2
        rng = np.random.default_rng(30)
        draws = [rng.uniform(0.0, 0.99, 40), rng.uniform(0.0, 300.0, 40), rng.uniform(0.0, 20.0, 40)]
        for y, temp, tau in np.column_stack(draws).tolist():
            params = make_params(y=y)
            sigma = evolve_moments_ode(params, tau, temp).final().entries
            expected = lab_moments_by_step_powers(params, temp, tau)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sigma - expected)) <= 2e-13 * scale, (y, temp, tau)

    def test_rejects_negative_time(self, reference_params):
        with pytest.raises(ValidationError):
            evolve_moments_ode(reference_params, -1.0, 0.0)

    def test_long_tau_end_point_is_returned_without_a_warning(self, reference_params):
        # at y = 0 the moments grow as exp(2 tau) and overflow past
        # tau = 352; at tau = 300 the largest entry is 2.8e262, finite and
        # within rounding of the closed form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_moments_ode(reference_params, 300.0, 300.0)
        expected = covariance_matrix(reference_params, 300.0, 300.0).entries
        scale = np.max(np.abs(expected))
        assert scale > 1e262
        assert np.max(np.abs(traj.final().entries - expected)) <= 2e-10 * scale

    @pytest.mark.parametrize("tau", [400.0])
    def test_long_tau_fails_the_gate_without_a_warning(self, reference_params, tau):
        # the moments overflow by tau = 400; the blown-up end point must
        # reach the finiteness check quietly and be refused there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                IntegrationError, match="moment ODE end point at tau=400.0: an entry"
            ):
                evolve_moments_ode(reference_params, tau, 300.0)

    @pytest.mark.parametrize("tau", [1e307, 1.7e308])
    def test_refuses_a_step_count_past_the_float_range(self, reference_params, tau):
        # tau / 1e-4 overflows to inf, refused before math.ceil meets it
        with pytest.raises(
            IntegrationError, match=re.escape(f"moment ODE end point at tau={tau}: the step count")
        ):
            evolve_moments_ode(reference_params, tau, 0.5)

    @pytest.mark.parametrize("y", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("temp", [0.0, 300.0])
    def test_refusals_set_in_at_one_tau_and_hold(self, make_params, y, temp):
        # tau_end = 0.25 k from 9 to 500: every point is returned until the
        # end point leaves the float range, and none after; each returned
        # point agrees with the closed form wherever that exists (worst
        # measured 2.9e-11 relative to the largest entry)
        params = make_params(y=y)
        first_refused = None
        for tau in 0.25 * np.arange(36, 2001):
            tau = float(tau)
            try:
                sigma = evolve_moments_ode(params, tau, temp).final().entries
            except IntegrationError:
                first_refused = first_refused or tau
                continue
            assert first_refused is None, f"tau={tau} returned after a refusal"
            try:
                expected = covariance_matrix(params, tau, temp).entries
            except NumericalDomainError:
                continue
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sigma - expected)) <= 2e-10 * scale
        # where the exact flow leaves the float range; at 352.5 and 406.75
        # the propagator (largest 6.1e152 and 5.6e152) and the lab-frame
        # product (1.1e308 and 9.3e307) are still finite and the
        # symmetrization overflows, so a check before it would let
        # CovarianceMatrix raise ValidationError there
        expected_first = {
            (0.0, 0.0): 355.25, (0.0, 300.0): 352.5,
            (0.5, 0.0): 410.25, (0.5, 300.0): 406.75,
        }
        assert first_refused == expected_first.get((y, temp))

    def test_refusal_at_long_tau_takes_constant_memory(self, make_params):
        # only the end point is formed: refusing tau_end = 1e4 (1e8 steps)
        # holds no per-sample storage
        tracemalloc.start()
        try:
            with pytest.raises(IntegrationError) as refused:
                evolve_moments_ode(make_params(y=0.5), 1e4, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert "at tau=10000.0:" in str(refused.value)

    def test_one_covariance_matrix_per_call(self, reference_params, monkeypatch):
        # the end point is checked once, as the CovarianceMatrix final()
        # returns
        built = []
        post_init = CovarianceMatrix.__post_init__

        def counting(cm):
            built.append(cm)
            post_init(cm)

        monkeypatch.setattr(CovarianceMatrix, "__post_init__", counting)
        traj = evolve_moments_ode(reference_params, 2.881, 300.0)
        final = traj.final()
        assert built == [final]
        assert traj.tau == 2.881
        assert final.entries.dtype == np.float64
        with pytest.raises(ValueError):
            final.entries[0, 0] = 0.0

    @pytest.mark.parametrize("tau", [0.0, 0.7, 1.5])
    def test_gate_failure_names_tau_end(self, reference_params, tau):
        # at T = 1.5e308 K the occupations, 1.0e308 and 5.0e307, are finite
        # and the end point is not: at tau = 0 the lab-frame symmetrization
        # alone overflows
        with pytest.raises(IntegrationError, match=re.escape(f"at tau={tau}:")):
            evolve_moments_ode(reference_params, tau, 1.5e308)

    @pytest.mark.parametrize("y", [0.0, 0.37, 0.9])
    def test_drift_is_hamiltonian(self, y):
        # F J + J F^T = 0: the drift is Hamiltonian and its flow symplectic;
        # and the drift the integrator steps is this one
        drift = np.array(
            [[0, -y, 0, 1], [y, 0, 1, 0], [0, 1, 0, -y], [1, 0, y, 0]], dtype=float
        )
        omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not np.any(drift @ omega + omega @ drift.T)
        assert np.array_equal(_COUPLING + y * _MISMATCH, drift)

    @pytest.mark.parametrize("y", [0.0, 0.5, 0.9, 0.999])
    def test_largest_step_stays_inside_the_stability_bound(self, y):
        # the eigenvalues of F are +-sqrt(1 - y^2), so |h lambda| <= 1e-4 at
        # the largest step, h = 1e-4, up to rounding
        generator = _MOMENT_STEP * (_COUPLING + y * _MISMATCH)
        radius = np.abs(np.linalg.eigvals(generator)).max()
        assert radius <= 1e-4 * (1.0 + 1e-12)


def test_oracle_takes_nothing_from_the_closed_forms():
    # the oracles check the closed forms, so they import none of them; the
    # moment ODE steps F, and with F^2 = (1 - y^2) I its flow is one line
    # of cosh and sinh away, so neither is called
    tree = ast.parse(Path(fock_oracle.__file__).read_text())
    imported = sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("pdc_entanglement"))
        for alias in node.names
    )
    assert imported == [
        ("errors", "IntegrationError"),
        ("errors", "TruncationError"),
        ("errors", "ValidationError"),
        ("gaussian_core", "CovarianceMatrix"),
        ("gaussian_core", "_check_scalar"),
        ("pdc_dynamics", "PdcParams"),
        ("pdc_dynamics", "thermal_init"),
    ]
    modules = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert modules == {"functools", "math", "numpy"}
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"sinh", "cosh", "_stretch", "covariance_matrix"}


# each scalar argument of the oracle entry points, at y = 0.5, tau = 0.5
# and T = 0.5 K where the others are set
ORACLE_ARGUMENTS = {
    "evolve_moments_ode tau_end": lambda p, v: evolve_moments_ode(p, v, 0.5),
    "evolve_moments_ode temperature": lambda p, v: evolve_moments_ode(p, 0.5, v),
    "evolve_fock tau_end": lambda p, v: evolve_fock(p, v, 0.5, n_cut=20),
    "evolve_fock temperature": lambda p, v: evolve_fock(p, 0.5, v, n_cut=20),
    "evolve_fock step": lambda p, v: evolve_fock(p, 0.5, 0.5, n_cut=20, step=v),
    "thermal_init temperature": lambda p, v: thermal_init(p, v),
}


def _fields(result):
    """What a result of an ORACLE_ARGUMENTS call holds, for comparison."""
    if isinstance(result, fock_oracle.MomentTrajectory):
        return [result.tau, result.cm.entries]
    if isinstance(result, FockState):
        return [result.leakage, *(block for _, block in result.blocks)]
    return [result]


@pytest.mark.parametrize("call", ORACLE_ARGUMENTS)
@pytest.mark.parametrize("value", [None, 1 + 0j, "abc", np.complex128(0.5)])
def test_refuses_an_argument_that_is_not_a_real_number(make_params, call, value):
    # None, complex and 'abc' used to raise a bare TypeError, or pass as
    # the real part with a ComplexWarning for the numpy complex scalar
    message = f"{call.split()[1]} must be a real number, got {value!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ORACLE_ARGUMENTS[call](make_params(y=0.5), value)


@pytest.mark.parametrize("call", ORACLE_ARGUMENTS)
def test_a_numeric_string_is_read_as_its_number(make_params, call):
    params = make_params(y=0.5)
    np.testing.assert_equal(
        _fields(ORACLE_ARGUMENTS[call](params, "0.5")), _fields(ORACLE_ARGUMENTS[call](params, 0.5))
    )


class TestEvolveFock:
    def test_zero_time_vacuum(self, reference_params):
        state = evolve_fock(reference_params, 0.0, 0.0, n_cut=8)
        expected = np.zeros((81, 81), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(dense_rho(state), expected, atol=1e-15)
        assert state.leakage == pytest.approx(0.0, abs=1e-12)

    def test_matched_vacuum_mean_photons(self, reference_params):
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=20)
        assert number_expectation(state, 1) == pytest.approx(
            np.sinh(0.5) ** 2, abs=1e-6
        )

    def test_photon_difference_integral_of_motion(self, make_params):
        params = make_params(y=0.5)
        init = thermal_init(params, T_SMALL)
        diff0 = init.nbar1 - init.nbar2
        for tau in (0.25, 0.5, 1.0):
            state = evolve_fock(params, tau, T_SMALL, n_cut=26)
            diff = number_expectation(state, 1) - number_expectation(state, 2)
            assert abs(diff - diff0) < 1e-8

    def test_trace_hermiticity_positivity(self, make_params):
        state = evolve_fock(make_params(y=0.5), 1.0, T_SMALL, n_cut=24)
        rho = dense_rho(state)
        trace = float(np.real(np.trace(rho)))
        assert 1.0 - 1e-6 <= trace <= 1.0 + 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_leakage_reports_truncated_tail(self, make_params, monkeypatch):
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
        # the nbar <= 2 cap and the n_cut rule keep the tail below
        # LEAKAGE_LIMIT (7.92e-5 at most), so its refusal is seen with the
        # limit set below this tail
        monkeypatch.setattr(fock_oracle, "LEAKAGE_LIMIT", 1e-8)
        message = f"basis leakage {state.leakage:.2e} exceeds 1e-08; raise n_cut"
        with pytest.raises(TruncationError, match=re.escape(message)):
            evolve_fock(params, 0.0, T_SMALL, n_cut=n_cut)

    def test_rejects_large_occupation(self, make_params):
        # nbar1 ~ 5.3 at 8 K exceeds the small-occupation contract
        with pytest.raises(ValidationError):
            evolve_fock(make_params(), 0.5, 8.0, n_cut=60)

    def test_rejects_undersized_cutoff(self, make_params):
        with pytest.raises(ValidationError):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=8)

    @pytest.mark.parametrize("tau", [np.nan, -0.5, np.inf])
    def test_rejects_a_tau_end_that_is_not_finite_or_is_negative(self, make_params, tau):
        with pytest.raises(ValidationError, match="^tau_end must be finite and >= 0$"):
            evolve_fock(make_params(), tau, T_SMALL, n_cut=20)

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_rejects_a_step_that_is_not_finite(self, make_params, step):
        # step selects nothing, but a NaN or inf one still fails loudly
        with pytest.raises(ValidationError, match="step must be positive and finite"):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=20, step=step)

    def test_rejects_a_cutoff_that_is_not_an_integer(self, make_params):
        # 8.5 used to reach np.zeros and raise numpy's TypeError
        with pytest.raises(ValidationError, match="n_cut must be an integer"):
            evolve_fock(make_params(), 0.5, T_SMALL, n_cut=8.5)

    @pytest.mark.parametrize("tau", [1e307, 1.7e308])
    @pytest.mark.parametrize(
        "omega_bar,temp",
        # the lab phases overflow first; at omega_bar = 1e-3 they stay
        # finite at 1e307 and the propagator's tau E overflows
        [((200.0, 400.0), 0.5), ((1e-3, 1e-3), 0.0)],
    )
    def test_refuses_past_the_float_range(self, make_params, tau, omega_bar, temp):
        params = make_params(y=0.5, omega1_bar=omega_bar[0], omega2_bar=omega_bar[1])
        with pytest.raises(IntegrationError, match=re.escape(f"Fock end point at tau={tau}:")):
            evolve_fock(params, tau, temp, n_cut=20)

    def test_trace_is_conserved_at_long_times(self, make_params):
        # the propagator is unitary, so the trace stays at its tau = 0
        # value however long the evolution
        params = make_params(y=0.5)
        start = evolve_fock(params, 0.0, 0.5, n_cut=20)
        late = evolve_fock(params, 1e15, 0.5, n_cut=20)
        assert abs(late.leakage - start.leakage) < 1e-14


class TestFockLogNegativity:
    def test_thermal_product_is_zero(self, reference_params):
        state = evolve_fock(reference_params, 0.0, T_SMALL, n_cut=16)
        assert fock_log_negativity(state) == 0.0

    def test_tmsv_half(self, reference_params):
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=20)
        assert fock_log_negativity(state) == pytest.approx(1.0, abs=2e-3)

    def test_cross_backend_agreement(self, make_params):
        params = make_params(y=0.5)
        state = evolve_fock(params, 1.0, T_SMALL, n_cut=30)
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
        state = evolve_fock(params, tau, temp, n_cut=n_cut)
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


def dense_reference_state(params, tau, temp, n_cut):
    """The evolved state from the exact propagator of the dense H."""
    _, number, _ = dense_operators(n_cut)
    energies, vecs = np.linalg.eigh(dense_hamiltonian(params.y, n_cut))
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
    @pytest.mark.parametrize(
        "n_cut,y,temp,tau",
        [
            (10, 0.0, T_TINY, 0.7),
            (10, 0.5, T_TINY, 1.0),
            (10, 0.9, T_TINY, 0.4),
            # evolve_fock stacks the sector groups of sizes 1 .. n_cut + 1
            # four at a time, so the last stack holds 1, 2, 3 and 4 groups
            # at n_cut = 8, 9, 10 and 11, the shapes of the one stack at
            # n_cut = 1 and 2 among them; T = 0 gives q1 = q2 = 0
            (8, 0.5, 0.0, 0.8),
            (9, 0.3, 0.3, 0.6),
            (11, 0.7, T_TINY, 0.5),
            # at y = 0 each odd-size block has an eigenvalue 0, degenerate
            # with its stack's padding
            (12, 0.0, T_TINY, 1.1),
            (12, 0.6, T_TINY, 0.0),
        ],
        # the n_cut = 10 cases keep their ids, y-tau
        ids=["0.0-0.7", "0.5-1.0", "0.9-0.4", "n_cut8-T0", "n_cut9", "n_cut11", "n_cut12-y0", "n_cut12-tau0"],
    )
    def test_evolved_state_matches_dense_propagator(self, make_params, n_cut, y, temp, tau):
        params = make_params(y=y)
        state = evolve_fock(params, tau, temp, n_cut=n_cut)
        expected = dense_reference_state(params, tau, temp, n_cut)
        assert np.max(np.abs(dense_rho(state) - expected)) < 1e-12

    def test_negativity_of_evolved_state(self, make_params):
        state = evolve_fock(make_params(y=0.5), 1.0, T_TINY, n_cut=10)
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

    def test_rejects_blocks_with_no_entries(self):
        # zero-size blocks alone used to raise a bare numpy ValueError
        with pytest.raises(ValidationError, match="trace of rho must be positive"):
            FockState(n_cut=1, leakage=0.0, blocks=[([], np.zeros((0, 0)))])

    def test_rejects_a_negative_population(self):
        # its trace is positive, and fock_log_negativity used to report
        # E_N = 0.336 for it without a word
        blocks = [(np.arange(4), np.diag([1.2, -0.1, -0.1, 0.0]))]
        with pytest.raises(ValidationError, match="negative population"):
            FockState(n_cut=1, leakage=0.0, blocks=blocks)

    def test_reads_the_diagonal_of_every_block(self):
        # blocks of sizes 1, 2 and 1, stored out of index order, whose
        # diagonals sum to 1; an off-diagonal entry read as diagonal would
        # move the trace and the edge population (|-0.09|^2 stays within
        # the 2 x 2 minor 0.2 * 0.05, so the state is positive definite)
        blocks = [([3], [[0.5]]), ([0, 2], [[0.2, -0.09], [-0.09, 0.05]]), ([1], [[0.25]])]
        state = FockState(n_cut=1, leakage=0.0, blocks=blocks)
        assert np.real(np.trace(dense_rho(state))) == 1.0
        # n_cut = 1: every index but 0, (n1, n2) = (0, 0), is on the edge
        assert state.edge_population == pytest.approx(0.8, abs=1e-15)


class TestFockStateArguments:
    @pytest.mark.parametrize("n_cut", [1.5, np.float64(1.0), 0])
    def test_rejects_a_cutoff_that_is_not_an_integer_from_one(self, n_cut):
        # 1.5 and np.float64(1.0) used to raise a bare numpy IndexError
        with pytest.raises(ValidationError, match="n_cut must be an integer >= 1"):
            FockState(n_cut=n_cut, leakage=0.0, blocks=[([0], [[1.0]])])

    @pytest.mark.parametrize("leakage", [np.nan, np.inf, -np.inf])
    def test_rejects_a_leakage_that_is_not_finite(self, leakage):
        # a NaN leakage used to be stored
        with pytest.raises(ValidationError, match="leakage must be finite"):
            FockState(n_cut=1, leakage=leakage, blocks=[([0], [[1.0]])])

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([([0, 1], [[1.0]])], "blocks must be square over their indices, at least one"),
            ([], "blocks must be square over their indices, at least one"),
            ([([0, 0], np.eye(2) / 2)], "block indices must be distinct and below 4"),
            ([([0], [[0.5]]), ([0], [[0.5]])], "block indices must be distinct and below 4"),
            ([([0, 4], np.eye(2) / 2)], "block indices must be distinct and below 4"),
            ([([-1], [[1.0]])], "block indices must be distinct and below 4"),
        ],
        ids=["not_square", "none", "repeated", "repeated_across_blocks", "above", "negative"],
    )
    def test_rejects_blocks_that_do_not_fit_the_basis(self, blocks, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FockState(n_cut=1, leakage=0.0, blocks=blocks)


class TestFockStatePositivity:
    """Every stored entry must lie within its 2 x 2 principal minor,
    |rho[a, b]|^2 <= rho[a, a] rho[b, b] + 1e-12, on both constructor paths."""

    @staticmethod
    def minor_breaking_rho():
        # eigenvalues -0.3, 0, 0 and 1.3, with every population >= 0:
        # fock_log_negativity used to report E_N = 0.956 for it
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.8
        return rho

    def test_rejects_an_entry_above_its_minor(self):
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            dense_state(self.minor_breaking_rho(), n_cut=1)

    def test_rejects_it_on_a_planned_layout(self):
        layout = _Layout(1, np.arange(4), (4,))
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            FockState._from_values(layout, 0.0, self.minor_breaking_rho().ravel())

    def test_accepts_pure_sectors_at_equality(self, reference_params):
        # at T = 0 the state is pure, |rho[a, b]|^2 = rho[a, a] rho[b, b] on
        # its coherences, and rounding puts some entries above equality:
        # the tolerance, not the bound alone, lets it pass.  Scaled to a
        # trace of 1e4 the rounding excess passes 1e-12, so the tolerance
        # must scale with the trace
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=20)
        for scale in (1.0, 1e4):
            blocks = [(idx, scale * block) for idx, block in state.blocks]
            rho = dense_rho(FockState(n_cut=20, leakage=0.0, blocks=blocks))
            diag = np.diag(rho).real
            excess = np.abs(rho) ** 2 - np.outer(diag, diag)
            assert 0.0 < excess.max() <= 1e-12 * scale**2
        assert excess.max() > 1e-12


def plan_arrays(plan):
    """Every array a plan holds, the cached properties worked out so far
    among them."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for item in plan:
            yield from plan_arrays(item)
    elif isinstance(plan, dict):
        for item in plan.values():
            yield from plan_arrays(item)
    elif hasattr(plan, "__dict__"):
        yield from plan_arrays(list(vars(plan).values()))


class TestPlans:
    """The index bookkeeping of the Fock stages is planned once per cutoff,
    and once per state built from blocks."""

    @staticmethod
    def clear_plans():
        fock_oracle._small_plans.cache_clear()
        fock_oracle._large_plans.cache_clear()

    def test_a_second_call_reuses_the_plan(self, reference_params):
        self.clear_plans()

        def run():
            state = evolve_fock(reference_params, 0.5, T_SMALL, n_cut=12)
            return state, fock_log_negativity(state), moments_from_fock(state)

        first = run()
        info = fock_oracle._small_plans.cache_info()
        assert (info.misses, info.hits) == (1, 0)  # the one plan is built
        second = run()
        info = fock_oracle._small_plans.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert second[0]._layout is first[0]._layout
        assert [(i.tobytes(), b.tobytes()) for i, b in second[0].blocks] == [
            (i.tobytes(), b.tobytes()) for i, b in first[0].blocks
        ]
        assert second[1] == first[1]
        assert second[2].entries.tobytes() == first[2].entries.tobytes()

    def test_each_state_from_blocks_gets_its_own_plan(self, monkeypatch):
        n_cut = 8
        n1, n2 = np.divmod(np.arange((n_cut + 1) ** 2), n_cut + 1)
        dense = random_density_matrix(n_cut, np.random.default_rng(11))
        parity = random_density_matrix(n_cut, np.random.default_rng(7), (n1 + n2) % 2)
        assert [m for _, _, m in dense._layout.blocks] == [81]
        assert [m for _, _, m in parity._layout.blocks] == [41, 40]
        first = [fock_log_negativity(state) for state in (dense, parity)]
        for state, e_fock in zip((dense, parity), first):
            assert abs(e_fock - dense_log_negativity(state)) < 1e-12
        parity_cm = moments_from_fock(parity)
        assert np.max(np.abs(parity_cm.entries - dense_moments(parity))) < 1e-12
        # the dense state has coherences at shift (1, 0): first moments
        with pytest.raises(ValidationError, match="first moments"):
            moments_from_fock(dense)
        # a second call on a state reads the plan its first call built
        calls = []
        monkeypatch.setattr(_Layout, "_place", lambda *args: calls.append(args))
        assert [fock_log_negativity(state) for state in (dense, parity)] == first
        assert moments_from_fock(parity).entries.tobytes() == parity_cm.entries.tobytes()
        assert calls == []

    def test_plan_caches_are_bounded(self):
        self.clear_plans()
        for n_cut in range(1, fock_oracle._PLANS + 4):
            fock_oracle._sector_plan(n_cut)
        info = fock_oracle._small_plans.cache_info()
        assert info.maxsize == fock_oracle._PLANS
        assert info.currsize <= info.maxsize
        # n_cut = 72 is the largest cutoff whose plans are kept eight at a time
        fock_oracle._sector_plan(72)
        assert fock_oracle._large_plans.cache_info().currsize == 0
        fock_oracle._sector_plan(73)
        fock_oracle._sector_plan(74)
        assert fock_oracle._large_plans.cache_info().currsize == 1

    def test_large_plans_are_kept_one_at_a_time(self):
        # what a scan over large cutoffs leaves cached, its states gone:
        # one plan, not one per cutoff
        def retained(cutoffs):
            self.clear_plans()
            gc.collect()
            tracemalloc.start()
            try:
                for n_cut in cutoffs:
                    layout, _ = fock_oracle._sector_plan(n_cut)
                    layout.partial_transpose, layout.ladders
                    del layout
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        one = retained([76])
        assert one > 4e6  # about 17 B per stored entry, 306 k entries
        assert retained([73, 74, 75, 76]) < 1.2 * one

    def test_cached_arrays_are_read_only(self, reference_params):
        state = evolve_fock(reference_params, 0.5, T_SMALL, n_cut=12)
        fock_log_negativity(state)
        moments_from_fock(state)
        plan = fock_oracle._sector_plan(12)
        layout, stacks = plan
        assert state._layout is layout
        # sectors -d and d share a block, d = 0 is alone, and the blocks,
        # of sizes 13 - d, are stacked four at a time
        assert [m for _, _, m in layout.blocks] == [m for m in range(1, 13) for _ in "-+"] + [13]
        assert [sizes.tolist() for _, _, sizes in stacks] == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13]]
        assert {"partial_transpose", "ladders"} <= set(vars(layout))
        arrays = list(plan_arrays(plan)) + [state._values]
        assert len(arrays) > 20
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


@pytest.mark.parametrize("n_cut", [1, 2, 5, 12, 30])
def test_sector_plan_is_h_on_each_sector(n_cut):
    # the plan writes H's sectors down from the model: each stacked block,
    # its diagonal filled in as evolve_fock fills it, must be the dense H on
    # every member sector and zero on its padding, the members must cover
    # the basis once, and no entry of H may couple two of them
    layout, stacks = fock_oracle._build_sector_plan(n_cut)
    members = [idx for idx, _, _ in layout.blocks]
    assert np.array_equal(np.sort(layout.indices), np.arange((n_cut + 1) ** 2))
    member_of = np.empty(layout.indices.size, dtype=int)
    for k, row in enumerate(members):
        member_of[row] = k
    for y in (0.0, 0.37, 0.9):
        ham = dense_hamiltonian(y, n_cut)
        rows, cols = np.nonzero(ham)
        assert np.array_equal(member_of[rows], member_of[cols])
        # sectors -d and d of each block, one after another in the layout
        sectors = iter(members)
        for coupling, number, sizes in stacks:
            count, big = number.shape
            assert coupling.shape == (count, big, big) and big == sizes.max()
            for block, diagonal, m in zip(coupling.copy(), number, sizes.tolist()):
                np.fill_diagonal(block, -y * diagonal)
                assert not block[m:].any() and not block[:, m:].any()
                for row in [next(sectors) for _ in range(1 if m == n_cut + 1 else 2)]:
                    assert np.array_equal(ham[np.ix_(row, row)], block[:m, :m])
        assert next(sectors, None) is None


@pytest.mark.parametrize("n_cut", [1, 2, 5, 12, 30])
def test_sector_plan_partial_transpose_blocks_are_total_number_sectors(n_cut):
    # the plan writes the partial transpose's blocks down from the model:
    # each holds one total number N = n1 + n2 by ascending n1, and taken in
    # the order of their first eigenvalues they run through N = 0, 1, ...,
    # each first eigenvalue after those of the blocks before it
    dim = n_cut + 1
    layout, _ = fock_oracle._build_sector_plan(n_cut)
    blocks = sorted(
        (int(first), row.tolist()) for firsts, idx in layout.pt_blocks for first, row in zip(firsts, idx)
    )
    assert all(len({a // dim + a % dim for a in row}) == 1 for _, row in blocks)
    basis = sorted(range(dim * dim), key=lambda a: (a // dim + a % dim, a // dim))
    assert [a for _, row in blocks for a in row] == basis
    sizes = np.array([len(row) for _, row in blocks])
    assert [first for first, _ in blocks] == (np.cumsum(sizes) - sizes).tolist()


def test_block_storage_peak_memory_at_n_cut_60(reference_params):
    # the three stages never form a (n_cut+1)^2 x (n_cut+1)^2 matrix: a
    # dense rho alone would take 3721^2 x 16 B = 221 MB here; the plans are
    # built inside the traced window
    fock_oracle._small_plans.cache_clear()
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


def test_evolve_fock_peak_memory_at_n_cut_60(reference_params):
    # with the plan built first, evolve_fock peaks in the state's checks,
    # which free the Hermiticity defect before the 2 x 2 minor test
    fock_oracle._sector_plan(60)
    tracemalloc.start()
    try:
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * state._values.nbytes


def test_evolve_fock_peak_memory_at_n_cut_120(reference_params):
    # with the plan built first, the state's checks hold at most two
    # float arrays per stored entry next to the values, one of them the
    # intp copy take makes of its int32 places (48.2 MB for 18.9 MB
    # stored measured; 57.9 MB when the minor test held three)
    fock_oracle._sector_plan(120)
    tracemalloc.start()
    try:
        state = evolve_fock(reference_params, 0.5, 0.0, n_cut=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * state._values.nbytes


def test_sector_map_plans_peak_memory_at_n_cut_120():
    # the partial transpose and ladders of the evolved layout come from
    # index arithmetic, batch by batch: 5.8 MB traced at this cutoff, under
    # the 18.9 MB of one state (the label sort they replace took 66 MB)
    fock_oracle._large_plans.cache_clear()
    layout, _ = fock_oracle._sector_plan(120)
    tracemalloc.start()
    try:
        layout.partial_transpose, layout.ladders
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        fock_oracle._large_plans.cache_clear()
    assert peak < 19e6


@pytest.mark.parametrize("n_cut", [1, 2, 5, 12])
def test_evolved_layout_matches_dense_references(make_params, n_cut):
    # evolve_fock refuses cutoffs below 8, so the dense reference evolution
    # is put on the evolved layout here; its partial transpose and ladders
    # are written down from the sector map, down to blocks of one entry
    layout, _ = fock_oracle._sector_plan(n_cut)
    rho = dense_reference_state(make_params(y=0.5), 1.0, T_TINY, n_cut)
    rows = layout.indices.take(layout.row_slot)
    cols = layout.indices.take(layout.row_slot.take(layout.transpose))
    state = FockState._from_values(layout, 0.0, rho[rows, cols])
    reference = dense_log_negativity(state)
    assert reference > 0.1
    assert abs(fock_log_negativity(state) - reference) < 1e-12
    assert np.max(np.abs(moments_from_fock(state).entries - dense_moments(state))) < 1e-12


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


def blockwise_log_negativity(state):
    """E_N from a dense partial transpose cut into blocks here: one per
    total-number sector n1 + n2 where no entry couples two of them, else
    one over every index; each block solved on its own, in sector order."""
    dim = state.n_cut + 1
    rho = dense_rho(state)
    pt = rho.reshape(dim, dim, dim, dim).transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    total = n1 + n2
    rows, cols = np.nonzero(pt)
    groups = (
        [np.flatnonzero(total == n) for n in np.unique(total)]
        if np.array_equal(total[rows], total[cols])
        else [np.arange(dim * dim)]
    )
    eigs = np.concatenate([np.linalg.eigvalsh(pt[np.ix_(idx, idx)]) for idx in groups])
    trace = np.concatenate([np.diagonal(block).real for _, block in state.blocks]).sum()
    return float(max(0.0, np.log1p(-2.0 * float(eigs[eigs < 0.0].sum()) / float(trace))))


class TestStackedStages:
    """The Fock stages solve blocks together and write the evolved
    sectors into one array.  The partial transpose stacks blocks of one
    size, and its E_N is that of one solve per block, to the bit; the
    evolution pads four sector groups to one size per solve, which
    TestDenseReference holds to the dense propagator."""

    @pytest.mark.parametrize("n_cut,y,temp,tau", [(12, 0.3, T_SMALL, 0.5), (20, 0.7, T_TINY, 0.4)])
    def test_negativity_of_evolved_state_is_the_blockwise_one(self, make_params, n_cut, y, temp, tau):
        state = evolve_fock(make_params(y=y), tau, temp, n_cut=n_cut)
        e_fock = fock_log_negativity(state)
        assert e_fock > 0.1
        assert e_fock == blockwise_log_negativity(state)

    def test_negativity_of_states_from_blocks_is_the_blockwise_one(self):
        n_cut = 8
        n1, n2 = np.divmod(np.arange((n_cut + 1) ** 2), n_cut + 1)
        for state in (
            random_density_matrix(n_cut, np.random.default_rng(11)),
            random_density_matrix(n_cut, np.random.default_rng(7), (n1 + n2) % 2),
        ):
            assert fock_log_negativity(state) == blockwise_log_negativity(state)

    def test_one_solve_per_block_size(self, reference_params, monkeypatch):
        # sector N and 2 n_cut - N of the partial transpose have one size,
        # 13 solves at n_cut = 12; d and -d of the evolution have one H,
        # and its 13 groups go four to a solve, 4 solves
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            solve = getattr(np.linalg, name)

            def counting(*args, _name=name, _solve=solve):
                calls[_name] += 1
                return _solve(*args)

            monkeypatch.setattr(np.linalg, name, counting)
        state = evolve_fock(reference_params, 0.5, T_SMALL, n_cut=12)
        assert calls == {"eigh": 4, "eigvalsh": 0}
        fock_log_negativity(state)
        assert calls == {"eigh": 4, "eigvalsh": 13}

    def test_evolved_values_are_hermitian_exactly(self, make_params):
        state = evolve_fock(make_params(y=0.4), 0.5, T_SMALL, n_cut=12)
        values = state._values
        assert np.array_equal(values, values.take(state._layout.transpose).conj())
