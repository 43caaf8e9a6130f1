import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pdc_entanglement import (
    HBAR,
    K_B,
    NumericalDomainError,
    ValidationError,
    birth_time,
    covariance_matrix,
    critical_temperature,
    entanglement_report,
    log_negativity,
    mean_photon_numbers,
    pair_invariants,
    phase_boundary,
    s0_threshold,
    symplectic_invariants,
    thermal_init,
    witness,
)
from pdc_entanglement import analysis
from pdc_entanglement.analysis import BTE_ABS_TOL
from pdc_entanglement.gaussian_core import _check_finite, _working
from pdc_entanglement.pdc_dynamics import _pair_inputs, _pair_state, _pair_threshold, _stretch
from test_array_core import ref_birth_time, ref_occupations, ref_pair_gain


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
                before = symplectic_invariants(
                    covariance_matrix(params, max(0.0, tau_e - eps), temp)
                ).s
                after = symplectic_invariants(
                    covariance_matrix(params, tau_e + eps, temp)
                ).s
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


def stretch_bisection(params, temperature, y=None):
    """The bisection birth time that re-derives (x, sinh(x tau)/x) from y
    with ``_stretch``, in the library of the y given, at every evaluation."""
    pair = _pair_state(params, 0.0, temperature, y)
    m_star = _pair_threshold(pair.nbar1, pair.nbar2)
    if m_star == 0.0:
        return 0.0
    y = params.y if y is None else y
    lib = _working(y)

    def f(tau):
        _, ratio = _stretch(y, tau, lib)
        return ratio * ratio - m_star

    lo, hi = 0.0, 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= BTE_ABS_TOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


class TestBisectionRoute:
    """The bisection takes x from the pair state, outside its loop, and
    returns exactly what re-deriving it at every evaluation returns."""

    def test_matches_stretch_at_every_evaluation(self, make_params):
        rng = np.random.default_rng(1102)
        cases = [(0.0, 1e70, None), (0.0, 1e76, None), (1.0 - 1e-15, 1e5, None)]
        cases += [(0.5, 0.0, None), (0.5, 300.0, np.array(0.5)), (0.3, 77.0, 0.8)]
        for _ in range(60):
            cases.append((0.99 * rng.random(), 10.0 ** rng.uniform(-1.0, 5.0), None))
        for y, temp, y_arg in cases:
            params = make_params(y=y)
            got = birth_time(params, temp, method="bisection", y=y_arg).tau_e
            assert got == stretch_bisection(params, temp, y_arg), (y, temp, y_arg)

    def test_refuses_past_the_exp_range(self, reference_params, monkeypatch):
        # tau_E = 2.79 at 300 K: with the range cut to x*tau <= 2 the
        # doubling reaches tau = 4 before it brackets the onset
        monkeypatch.setattr(analysis, "_EXP_MAX", 2.0)
        with pytest.raises(NumericalDomainError, match="overflows sinh"):
            birth_time(reference_params, 300.0, method="bisection")


def closure_bisection(params, temperature, y=None):
    """The bisection birth time with every evaluation through a closure
    that checks x tau against the exp range, as the route was written
    before its loop went inline."""
    mismatch, _, _, nbar1, nbar2, _ = _pair_inputs(params, 0.0, temperature, y)
    _check_finite(nbar1 + nbar2, "thermal occupation", "T", temperature)
    m_star = _pair_threshold(nbar1, nbar2)
    x = math.sqrt((1.0 - mismatch) * (1.0 + mismatch))
    if m_star == 0.0:
        return 0.0

    def f(tau):
        z = x * tau
        if not z <= analysis._EXP_MAX:
            raise analysis._sinh_overflow(z)
        ratio = math.sinh(z) / x
        return ratio * ratio - m_star

    lo, hi = 0.0, 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    while hi - lo > BTE_ABS_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def outcome(route, *args):
    """The hex of a float result, or the type and message of a refusal."""
    try:
        return route(*args).hex()
    except (ValidationError, NumericalDomainError) as exc:
        return type(exc), str(exc)


class TestInlineBisection:
    """The bisection's loop evaluates m(tau) inline, with the overflow
    check in the doubling alone, and gives the closure loop's bits and
    refusals."""

    def cases(self):
        rng = np.random.default_rng(1104)
        cases = [(0.0, 0.0), (0.5, 0.0), (1.0 - 1e-15, 1e5), (1.0 - 1e-15, 300.0)]
        cases += [(0.3, 1e300), (0.0, 1e160), (0.0, 1e13), (1.0 - 1e-15, 1e13)]
        for _ in range(200):
            cases.append((0.99 * rng.random(), 10.0 ** rng.uniform(-1.0, 7.0)))
        return cases

    def test_same_floats_as_the_closure_loop(self, make_params):
        for y, temp in self.cases():
            params = make_params(y=y)
            inline = outcome(lambda: birth_time(params, temp, method="bisection").tau_e)
            assert isinstance(inline, str) and inline == outcome(closure_bisection, params, temp)

    def test_same_refusals(self, make_params, monkeypatch):
        tiny = make_params(omega1_bar=1.0, omega2_bar=1.0, g=1.0)
        cases = [(tiny, 2e297), (tiny, 7e296), (make_params(), -1.0), (make_params(), math.nan)]
        # with the exp range cut to x tau <= 2 the doubling passes it
        # before it brackets the onset at every T above about 30 K
        monkeypatch.setattr(analysis, "_EXP_MAX", 2.0)
        cases += [(make_params(y=y), temp) for y, temp in self.cases()]
        refusals = 0
        for params, temp in cases:
            inline = outcome(lambda: birth_time(params, temp, method="bisection").tau_e)
            assert inline == outcome(closure_bisection, params, temp), (params, temp)
            refusals += not isinstance(inline, str)
        assert refusals > 100


@pytest.fixture
def occupation_calls(monkeypatch):
    """[n]: the calls of analysis._occupations since the test last set n.
    Past 500 a call fails, so a solver that does not converge fails in
    bounded time."""
    calls = [0]
    real = analysis._occupations

    def counting(*args):
        calls[0] += 1
        assert calls[0] <= 500, "critical_temperature does not converge"
        return real(*args)

    monkeypatch.setattr(analysis, "_occupations", counting)
    return calls


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
            assert symplectic_invariants(below).s < 0.0
            assert symplectic_invariants(above).s > 0.0
            assert log_negativity(below) > 0.0
            assert log_negativity(above) == 0.0

    def test_verdict_flips_at_the_float_root(self, make_params, occupation_calls):
        # entanglement_report reads the condition T_c solves: separable at
        # T_c, entangled one float below.  Below tau_i of about 1e-154 m
        # is subnormal, and the float m* is flat over some 1e9 floats of
        # T, where a solver that steps one float at a time does not
        # return.  Below about 1e-162 m is 0 and there is no root.
        rng = np.random.default_rng(2403)
        cases = [(make_params(y=y), 2.881, 1e6) for y in np.linspace(0.0, 0.9, 19).tolist()]
        cases += [(make_params(y=0.99 * rng.random()), rng.uniform(0.2, 6.0), 1e6) for _ in range(120)]
        cases += [(make_params(), 1e-6, 2000.0), (make_params(), 1e-160, 1e4)]
        cases += [
            (make_params(y=0.99 * rng.random()), 10 ** rng.uniform(-165, -150), 1e4) for _ in range(40)
        ]
        # omega2_bar/omega1_bar of 1e4 to 1e8 and a subnormal m: there the
        # float sign change can lie outside 2^-49 T_c of the closed form
        for _ in range(40):
            w1 = 10 ** rng.uniform(-2, 2)
            params = make_params(
                y=0.99 * rng.random(), omega1_bar=w1, omega2_bar=w1 * 10 ** rng.uniform(4, 8)
            )
            cases.append((params, rng.uniform(7.5e-155, 1.5e-154), 1e6))
        for params, tau, t_max in cases:
            occupation_calls[0] = 0
            t_c = critical_temperature(params, tau, t_max=t_max)
            if t_c is None:  # m = 0: entangled at no T
                assert _stretch(params.y, tau, math)[1] ** 2 == 0.0, (params.y, tau)
                continue
            at = entanglement_report(covariance_matrix(params, tau, t_c))
            below = entanglement_report(covariance_matrix(params, tau, math.nextafter(t_c, 0.0)))
            assert (at.entangled, below.entangled) == (False, True), (params, tau, t_c)

    def test_decreases_with_mismatch(self, make_params):
        t_first = critical_temperature(make_params(y=0.1), 2.881)
        t_second = critical_temperature(make_params(y=0.6), 2.881)
        assert t_first > t_second

    def test_no_interaction_reports_no_root(self, reference_params):
        assert critical_temperature(reference_params, 0.0) is None

    def test_bracket_too_small_reports_no_root(self, reference_params):
        assert critical_temperature(reference_params, 2.881, t_max=100.0) is None


def ref_indicator(params, m, temp):
    """nbar1 nbar2 - m K at T in the current decimal context, from the same
    float omegas as the package."""
    n1, n2 = (
        1 / ((Decimal(HBAR) * Decimal(omega_bar * params.g) / (Decimal(K_B) * temp)).exp() - 1)
        for omega_bar in (params.omega1_bar, params.omega2_bar)
    )
    return n1 * n2 - m * (n1 + n2 + 1)


def ref_critical_temperature(params, tau_i, t_c):
    """(root, condition number) of nbar1 nbar2 - m K in T, to 50 digits.

    Bisected from a bracket 1e-6 around t_c, after checking that it holds
    the sign change.  The condition number (P + mK)/(T |f'|) is the
    root's error, in units of T's float spacing, that an error of one
    rounding in P and mK gives."""
    with localcontext() as ctx:
        # exp(theta/T) - 1 loses about log10(T) digits
        ctx.prec = 50 + max(0, Decimal(t_c).adjusted())
        y = Decimal(params.y)
        x = (1 - y * y).sqrt()
        z = x * Decimal(tau_i)
        m = ((z.exp() - (-z).exp()) / (2 * x)) ** 2
        lo, hi = Decimal(t_c) * Decimal("0.999999"), Decimal(t_c) * Decimal("1.000001")
        assert ref_indicator(params, m, lo) < 0 < ref_indicator(params, m, hi)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if ref_indicator(params, m, mid) < 0 else (lo, mid)
        root = (lo + hi) / 2
        h = root * Decimal("1e-20")
        slope = (ref_indicator(params, m, root + h) - ref_indicator(params, m, root - h)) / (2 * h)
        n1n2 = ref_indicator(params, Decimal(0), root)
        return root, float(2 * n1n2 / (root * slope))


class TestCriticalTemperaturePrecision:
    """The root is solved to neighbouring floats, in a few evaluations."""

    def test_within_a_few_ulps_of_the_decimal_root(self, make_params):
        rng = np.random.default_rng(2201)
        cases = list(zip(rng.uniform(0.0, 0.95, 12), rng.uniform(0.3, 3.5, 12)))
        # at tau_i = 1e-6 T_c is far below the figures' hundreds of kelvin
        cases.append((0.0, 1e-6))
        for y, tau_i in cases:
            params = make_params(y=float(y))
            t_c = critical_temperature(params, float(tau_i), t_max=1e4)
            root, cond = ref_critical_temperature(params, float(tau_i), t_c)
            ulps = abs(Decimal(t_c) - root) / Decimal(math.ulp(t_c))
            assert ulps <= 4 * max(1.0, cond), (y, tau_i, float(ulps), cond)
        assert critical_temperature(make_params(), 1e-6) == 0.16257421305826128

    def test_falls_back_to_bisection_over_the_whole_bracket(
        self, reference_params, occupation_calls
    ):
        # at tau_i = 1e-155 m is subnormal and 1/m overflows, so the closed
        # form gives no bracket and [0, t_max] is bisected; the answer is
        # still the float verdict's flip, at theta/ln(1/m) as 1/m >> 1
        tau_i = 1e-155
        m = _stretch(reference_params.y, tau_i, math)[1] ** 2
        assert 0.0 < m < 2.0**-1022 and math.isinf(1.0 / m)
        t_c = critical_temperature(reference_params, tau_i, t_max=1e4)
        assert 20 < occupation_calls[0] <= 2100
        theta = analysis.HBAR * 600.0 * reference_params.g / analysis.K_B
        assert t_c == pytest.approx(theta / -math.log(m), rel=1e-12)
        at = entanglement_report(covariance_matrix(reference_params, tau_i, t_c))
        below = covariance_matrix(reference_params, tau_i, math.nextafter(t_c, 0.0))
        assert (at.entangled, entanglement_report(below).entangled) == (False, True)

    def test_fig4_grid_takes_few_occupation_evaluations(self, make_params, occupation_calls):
        counts = []
        for y in np.linspace(0.0, 0.9, 19):
            occupation_calls[0] = 0
            assert critical_temperature(make_params(y=float(y)), 2.881) is not None
            counts.append(occupation_calls[0])
        assert max(counts) <= 8, counts


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
        s = symplectic_invariants(
            covariance_matrix(make_params(y=0.3), 2.881, 300.0)
        ).s
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

    def test_nonnegative_witness_certifies_separability(self, reference_params):
        # w <= nbar1 nbar2 - mK, which is < 0 on every entangled state
        rng = np.random.default_rng(2202)
        y = rng.uniform(0.0, 0.99, 20000)
        tau = 10.0 ** rng.uniform(-4.0, math.log10(6.3), 20000)
        temp = 10.0 ** rng.uniform(-1.0, 3.0, 20000)
        w = witness(reference_params, tau, temp, y=y).w
        s = pair_invariants(reference_params, tau, temp, y=y).s
        assert np.all(s[w >= 0.0] >= 0.0)
        # both signs of w occur, and a negative w on separable states too
        assert (w >= 0.0).any() and ((w < 0.0) & (s > 0.0)).any()

    def test_negative_witness_on_a_product_state(self, reference_params):
        # at tau = 0 the thermal product state is separable, yet w < 0
        val = witness(reference_params, 0.0, 1.0)
        s = pair_invariants(reference_params, 0.0, 1.0).s
        assert val.w == pytest.approx(-2.6945926360525646e-2, rel=1e-12)
        assert s == pytest.approx(2.0590667686169278e-2, rel=1e-12)

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
    def test_birth_time_answers_where_s0_overflows(self, make_params, method):
        # S0 = inf from about 1e77 K, where both routes used to refuse; the
        # reference keeps S0 and the paper's quadratic in m
        params = make_params(y=0.3)
        for temp in (1e80, 1e100, 1e150, 1e200, 1e300):
            with localcontext() as ctx:
                ctx.prec = 400  # exp(theta/T) - 1 keeps 100 digits at 1e300 K
                x, _ = ref_pair_gain(0.3, 0.0)
                want = ref_birth_time(*ref_occupations(params, temp), x)
            routes = [birth_time(params, temp, method=method).tau_e]
            if method == "closed_form":
                routes.append(float(birth_time(params, np.array([300.0, temp])).tau_e[1]))
            for got in routes:
                assert abs(Decimal(got) - want) <= Decimal("1e-12") * want, temp

    @pytest.mark.parametrize("temp", [7e296, 2e297])
    def test_refused_where_the_occupations_overflow(self, make_params, temp):
        # nbar = 9.2e307 each at 7e296 K, so K = inf and m* = nbar1 (nbar2/K)
        # would read 0; at 2e297 K each occupation is inf
        params = make_params(omega1_bar=1.0, omega2_bar=1.0, g=1.0)
        for method in ("closed_form", "bisection"):
            with pytest.raises(NumericalDomainError, match="thermal occupation"):
                birth_time(params, temp, method=method)
        with pytest.raises(NumericalDomainError, match="thermal occupation"):
            critical_temperature(params, 1.0, t_max=temp)

    @pytest.mark.parametrize(
        "y, temp",
        [(0.0, 1e70), (0.0, 1e76), (1.0 - 1e-15, 1e5), (0.0, 1e160), (0.0, 1e300)],
    )
    def test_routes_agree_at_late_onsets(self, make_params, y, temp):
        # tau_E = 80.5, 87.4 and 149.2, past the old bisection cap of 60.
        # nbar1 nbar2 = inf at 1e160 and 1e300 K: the condition written
        # m K - P never turns positive there, and the bisection returned
        # tau_E = 255.99999999997 at 1e160 K
        params = make_params(y=y)
        closed = birth_time(params, temp).tau_e
        bisected = birth_time(params, temp, method="bisection").tau_e
        assert closed > 60.0
        assert abs(closed - bisected) <= 1e-9

    @pytest.mark.parametrize("temp", [1e12, 1e13])
    def test_bisection_ends_below_the_float_spacing(self, make_params, temp):
        # tau_E = 4.7e5 and 1.5e6, where neighbouring floats lie 5.8e-11 and
        # 2.3e-10 apart: with the 1e-10 tolerance unreachable at 1e13 K the
        # bracket stops shrinking, and the bisection must end there
        params = make_params(y=1.0 - 1e-15)
        closed = birth_time(params, temp).tau_e
        bisected = birth_time(params, temp, method="bisection").tau_e
        assert closed > 4e5
        assert abs(closed - bisected) <= 2.0 * math.ulp(closed)

    @pytest.mark.parametrize("t_max", [1e78, 1e200, 1e300])
    def test_critical_temperature_answers_where_s0_overflows(
        self, reference_params, t_max
    ):
        # S0 = inf at t_max, where the bracket check used to refuse
        expected = critical_temperature(reference_params, 2.881)
        assert critical_temperature(reference_params, 2.881, t_max=t_max) == expected
        wide = phase_boundary(reference_params, 2.881, [0.0, 0.5], t_max=t_max)
        assert wide == phase_boundary(reference_params, 2.881, [0.0, 0.5])

    @pytest.mark.parametrize("tau_i", [180.0, 200.0, 300.0])
    def test_critical_temperature_where_p_and_mk_overflow(self, reference_params, tau_i):
        # T_c = 2.5e156, 5.9e173 and 4.2e260 K, where nbar1 nbar2 and mK
        # are both inf: solving P - mK = NaN sends every step to the upper
        # end, and gives T_c = 2.84e154 K for all three
        t_c = critical_temperature(reference_params, tau_i, t_max=1e300)
        root, cond = ref_critical_temperature(reference_params, tau_i, t_c)
        ulps = abs(Decimal(t_c) - root) / Decimal(math.ulp(t_c))
        assert ulps <= 4 * max(1.0, cond), (tau_i, float(ulps), cond)

    @pytest.mark.parametrize("t_max", [1e60, 1e70, 1e76])
    def test_critical_temperature_in_a_wide_bracket(self, reference_params, t_max):
        # the bisection used to stop after 200 halvings, with these brackets
        # still open: t_max = 1e70 gave T_c = 3.1e9 K
        expected = critical_temperature(reference_params, 2.881)
        t_c = critical_temperature(reference_params, 2.881, t_max=t_max)
        assert t_c == pytest.approx(expected, rel=1e-6)
        assert round(t_c, 1) == 357.1

    def test_critical_temperature_where_m_overflows(self, reference_params):
        # m(m+1) = inf at tau_i = 400 makes S = -inf, which keeps its sign:
        # still entangled at t_max
        assert critical_temperature(reference_params, 400.0) is None

    def test_witness_refused_where_s0_overflows(self, reference_params):
        # sqrt(S0) = inf used to give w = inf
        for temps in (1e80, np.array([300.0, 1e80])):
            with pytest.raises(NumericalDomainError):
                witness(reference_params, 1.0, temps)
