import numpy as np
import pytest

from pdc_entanglement import (
    NumericalDomainError,
    ValidationError,
    birth_time,
    covariance_matrix,
    critical_temperature,
    log_negativity,
    mean_photon_numbers,
    phase_boundary,
    s0_threshold,
    separability_indicator,
    thermal_init,
    witness,
)


class TestS0Threshold:
    def test_vacuum(self):
        assert s0_threshold(0.0, 0.0) == 0.0

    def test_unit_occupations(self):
        assert s0_threshold(1.0, 1.0) == 4.0

    def test_reference_temperature(self, reference_params):
        init = thermal_init(reference_params, 300.0)
        value = s0_threshold(init.nbar1, init.nbar2)
        assert value == pytest.approx(4.028e8, rel=1e-3)

    def test_matches_invariant_combination(self, make_params):
        # independent route: I1 - I2/4 + 1/16 on the initial CM
        from pdc_entanglement import symplectic_invariants

        for temp in (20.0, 140.0, 450.0):
            params = make_params(y=0.1)
            init = thermal_init(params, temp)
            direct = s0_threshold(init.nbar1, init.nbar2)
            inv = symplectic_invariants(covariance_matrix(params, 0.0, temp))
            assert inv.s0 == pytest.approx(direct, rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            s0_threshold(-0.1, 1.0)


class TestBirthTime:
    def test_zero_temperature_zero_bte(self, make_params):
        for y in (0.0, 0.5, 0.9):
            for method in ("closed_form", "bisection"):
                res = birth_time(make_params(y=y), 0.0, method=method)
                assert res.tau_e == 0.0
                assert res.method == method

    def test_reference_point(self, reference_params):
        # frozen from the bisection oracle on |det gamma(tau)| - S0
        res = birth_time(reference_params, 300.0)
        assert res.tau_e == pytest.approx(2.7938815487, abs=1e-8)

    def test_closed_form_vs_bisection_grid(self, make_params):
        for y in (0.0, 0.4, 0.8, 0.99):
            params = make_params(y=y)
            for temp in (5.0, 77.0, 300.0):
                closed = birth_time(params, temp, method="closed_form")
                bisect = birth_time(params, temp, method="bisection")
                assert abs(closed.tau_e - bisect.tau_e) < 1e-8

    def test_state_flips_across_bte(self, make_params):
        eps = 1e-6
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (50.0, 300.0):
                tau_e = birth_time(params, temp).tau_e
                before = separability_indicator(
                    covariance_matrix(params, max(0.0, tau_e - eps), temp)
                )
                after = separability_indicator(
                    covariance_matrix(params, tau_e + eps, temp)
                )
                assert before > 0.0
                assert after < 0.0

    def test_monotone_in_temperature(self, make_params):
        params = make_params(y=0.5)
        values = [birth_time(params, float(t)).tau_e for t in np.linspace(0, 400, 41)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_mismatch(self, make_params):
        values = [
            birth_time(make_params(y=float(y)), 300.0).tau_e
            for y in np.linspace(0.0, 0.99, 34)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_rejects_unknown_method(self, reference_params):
        with pytest.raises(ValidationError):
            birth_time(reference_params, 10.0, method="newton")


class TestCriticalTemperature:
    def test_reference_point(self, reference_params):
        t_c = critical_temperature(reference_params, 2.881)
        assert t_c is not None
        assert 342.0 <= t_c <= 378.0  # 3.6e2 K within 5%

    def test_boundary_brackets_the_root(self, make_params):
        for y in (0.0, 0.5):
            params = make_params(y=y)
            t_c = critical_temperature(params, 2.881)
            below = covariance_matrix(params, 2.881, t_c * (1 - 1e-4))
            above = covariance_matrix(params, 2.881, t_c * (1 + 1e-4))
            assert separability_indicator(below) < 0.0
            assert separability_indicator(above) > 0.0
            assert log_negativity(below) > 0.0
            assert log_negativity(above) == 0.0

    def test_decreases_with_mismatch(self, make_params):
        t_first = critical_temperature(make_params(y=0.1), 2.881)
        t_second = critical_temperature(make_params(y=0.6), 2.881)
        assert t_first > t_second

    def test_no_interaction_reports_no_root(self, reference_params):
        assert critical_temperature(reference_params, 0.0) is None

    def test_bracket_too_small_reports_no_root(self, reference_params):
        assert critical_temperature(reference_params, 2.881, t_max=100.0) is None


class TestPhaseBoundary:
    def test_strictly_decreasing(self, reference_params):
        points = phase_boundary(reference_params, 2.881, [0.0, 0.3, 0.5, 0.7])
        assert len(points) == 4
        t_values = [p.t_c for p in points]
        assert all(b < a for a, b in zip(t_values, t_values[1:]))

    def test_single_point_matches_direct_call(self, reference_params):
        points = phase_boundary(reference_params, 2.881, [0.0])
        direct = critical_temperature(reference_params, 2.881)
        assert points[0].t_c == direct

    def test_room_temperature_anchor(self, make_params):
        # at tau_i = 2.881 the y = 0.3 state is still entangled at 300 K
        s = separability_indicator(
            covariance_matrix(make_params(y=0.3), 2.881, 300.0)
        )
        assert s < 0.0
        points = phase_boundary(make_params(), 2.881, [0.3])
        assert points[0].t_c > 300.0

    def test_no_entanglement_gives_empty(self, reference_params):
        assert phase_boundary(reference_params, 0.0, [0.0, 0.5]) == []

    def test_rejects_bad_mismatch(self, reference_params):
        with pytest.raises(ValidationError):
            phase_boundary(reference_params, 2.881, [0.2, 1.0])


class TestWitness:
    def test_zero_temperature_closed_form(self, make_params):
        for y in (0.0, 0.6):
            params = make_params(y=y)
            x = np.sqrt(1 - y * y)
            for tau in (0.5, 2.0):
                val = witness(params, tau, 0.0)
                assert val.threshold == 0.0
                assert val.w == pytest.approx(
                    -np.sinh(x * tau) ** 2 / x**2, rel=1e-12
                )
                assert val.w < 0.0

    def test_initial_thermal_state_separable(self, make_params):
        # tau = 0 with equal occupations: w = n(n+1) - n = n^2
        params = make_params(omega1_bar=200.0, omega2_bar=200.0)
        init = thermal_init(params, 90.0)
        val = witness(params, 0.0, 90.0)
        assert val.w == pytest.approx(init.nbar1**2, rel=1e-10)
        assert val.w > 0.0

    def test_definition_identity(self, reference_params):
        val = witness(reference_params, 2.881, 210.0)
        assert val.w == val.threshold - val.mean_pair_photons
        n1, n2 = mean_photon_numbers(reference_params, 2.881, 210.0)
        assert val.mean_pair_photons == pytest.approx(float(n1 + n2) / 2, rel=1e-14)

    @pytest.mark.parametrize("y", [0.0, 0.5, 0.7])
    def test_sign_change_tracks_critical_temperature(self, make_params, y):
        params = make_params(y=y)
        t_c = critical_temperature(params, 2.881)
        lo, hi = 1.0, 2000.0
        assert witness(params, 2.881, lo).w < 0.0
        assert witness(params, 2.881, hi).w > 0.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if witness(params, 2.881, mid).w < 0.0:
                lo = mid
            else:
                hi = mid
        crossing = (lo + hi) / 2
        assert abs(crossing - t_c) / t_c < 0.01


class TestNonFiniteInput:
    """Non-finite input is refused, never turned into a verdict."""

    def test_birth_time_nan_temperature(self, reference_params):
        with pytest.raises(ValidationError):
            birth_time(reference_params, np.nan)

    def test_birth_time_bisection_infinite_temperature(self, reference_params):
        with pytest.raises(ValidationError):
            birth_time(reference_params, np.inf, method="bisection")

    @pytest.mark.parametrize("tau_i,t_max", [(np.nan, 2000.0), (2.881, np.inf)])
    def test_critical_temperature_non_finite(self, reference_params, tau_i, t_max):
        with pytest.raises(ValidationError):
            critical_temperature(reference_params, tau_i, t_max=t_max)


class TestFloatRange:
    """Past the float range every route refuses; up to it the two birth-time
    routes agree, however late the onset."""

    @pytest.mark.parametrize("method", ["closed_form", "bisection"])
    def test_birth_time_refused_where_s0_overflows(self, reference_params, method):
        # S0 = K^2 = inf at 1e160 K; the bisection used to bisect a NaN
        # condition and return tau_E = 0.99999999997
        with pytest.raises(NumericalDomainError):
            birth_time(reference_params, 1e160, method=method)

    @pytest.mark.parametrize(
        "y, temp", [(0.0, 1e70), (0.0, 1e76), (1.0 - 1e-15, 1e5)]
    )
    def test_routes_agree_at_late_onsets(self, make_params, y, temp):
        # tau_E = 80.5, 87.4 and 149.2, past the old bisection cap of 60;
        # at 1e70 K S0 K^2 overflows while S0 and K^2 do not
        params = make_params(y=y)
        closed = birth_time(params, temp).tau_e
        bisected = birth_time(params, temp, method="bisection").tau_e
        assert closed > 60.0
        assert abs(closed - bisected) <= 1e-9

    def test_witness_refused_where_s0_overflows(self, reference_params):
        # sqrt(S0) = inf used to give w = inf
        for temps in (1e80, np.array([300.0, 1e80])):
            with pytest.raises(NumericalDomainError):
                witness(reference_params, 1.0, temps)
