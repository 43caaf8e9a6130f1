import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pdc_entanglement import (
    HBAR,
    K_B,
    NumericalDomainError,
    PdcParams,
    ThermalInit,
    ValidationError,
    birth_time,
    covariance_matrix,
    critical_temperature,
    det_gamma_closed_form,
    log_negativity,
    mean_photon_numbers,
    symplectic_invariants,
    pair_invariants,
    thermal_init,
    thermal_occupation,
    witness,
)
from pdc_entanglement.pdc_dynamics import _pair_state, _stretch
from conftest import G_COUPLING
from test_array_core import ref_stretch


class TestParams:
    @pytest.mark.parametrize("y", [-0.1, 1.0, 1.5])
    def test_mismatch_range(self, y):
        with pytest.raises(ValidationError):
            PdcParams(omega1_bar=200, omega2_bar=400, g=1.0, y=y)

    def test_positive_rates(self):
        with pytest.raises(ValidationError):
            PdcParams(omega1_bar=-1, omega2_bar=400, g=1.0)
        with pytest.raises(ValidationError):
            PdcParams(omega1_bar=200, omega2_bar=400, g=0.0)

    def test_numpy_scalar_fields_become_python_floats(self):
        # a long-double field used to carry long double into _bose and come
        # back as np.float64 occupations and witness fields
        params = PdcParams(
            omega1_bar=np.longdouble(200.0),
            omega2_bar=np.float32(400.0),
            g=np.int64(98017690),
            y=np.longdouble(0.5),
        )
        for name in ("omega1_bar", "omega2_bar", "g", "y"):
            assert type(getattr(params, name)) is float
        init = thermal_init(params, 300.0)
        assert type(init.nbar1) is float and type(init.nbar2) is float
        wit = witness(params, 2.881, 300.0)
        assert type(wit.w) is float

    @pytest.mark.parametrize("field", ["omega1_bar", "omega2_bar", "g", "y"])
    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, np.nan, np.longdouble("1e400")]
    )
    def test_rejects_non_finite_field(self, field, value):
        # inf used to pass and fail later as "occupations must be >= 0"
        kwargs = dict(omega1_bar=200.0, omega2_bar=400.0, g=G_COUPLING, y=0.5)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            PdcParams(**kwargs)

    def test_thermal_init_consistency(self):
        with pytest.raises(ValidationError):
            ThermalInit(temperature=0.0, nbar1=1.0, nbar2=0.0)
        with pytest.raises(ValidationError):
            ThermalInit(temperature=10.0, nbar1=-0.5, nbar2=0.0)
        with pytest.raises(ValidationError, match="^temperature must be >= 0$"):
            ThermalInit(temperature=-1.0, nbar1=0.0, nbar2=0.0)

    @pytest.mark.parametrize("field", ["temperature", "nbar1", "nbar2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_thermal_init_rejects_non_finite_field(self, field, value):
        # NaN used to pass every comparison and construct
        kwargs = dict(temperature=1.0, nbar1=1.0, nbar2=1.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            ThermalInit(**kwargs)

    @pytest.mark.parametrize("omega_bar, g", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_mode_frequency_must_be_a_float(self, omega_bar, g):
        # omega1_bar*g past the float range, or hbar*omega1_bar*g below
        # it: the occupations used to be NaN or divide by zero
        with pytest.raises(ValidationError, match="omega1_bar\\*g must be finite"):
            PdcParams(omega1_bar=omega_bar, omega2_bar=400.0, g=g)


class TestThermalOccupation:
    def test_zero_temperature_exact(self):
        assert thermal_occupation(1e10, 0.0) == 0.0

    def test_ln2_point(self):
        # hbar*omega/(k_B T) = ln 2  =>  nbar = 1
        temp = 4.2
        omega = np.log(2.0) * K_B * temp / HBAR
        assert thermal_occupation(omega, temp) == pytest.approx(1.0, rel=1e-12)

    def test_reference_microwave_occupation(self):
        # omega = 2*pi*3.12e10 rad/s at 300 K
        value = thermal_occupation(2 * np.pi * 3.12e10, 300.0)
        assert value == pytest.approx(199.8525230120, rel=1e-10)

    def test_lower_frequency_more_photons(self):
        assert thermal_occupation(1e10, 100.0) > thermal_occupation(2e10, 100.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            thermal_occupation(0.0, 10.0)
        with pytest.raises(ValidationError):
            thermal_occupation(1e10, -1.0)

    @pytest.mark.parametrize("temp", [np.nan, np.inf])
    def test_rejects_non_finite_temperature(self, temp):
        with pytest.raises(ValidationError):
            thermal_occupation(1e10, temp)

    @pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan, 1e-300])
    @pytest.mark.parametrize("temp", [300.0, 0.0, np.array([0.0, 300.0])])
    def test_rejects_non_finite_omega(self, omega, temp):
        # inf gave NaN; 1e-300 has hbar*omega = 0 and divided by zero
        with pytest.raises(ValidationError, match="^omega must be finite"):
            thermal_occupation(omega, temp)

    @pytest.mark.parametrize(
        "omega, temp",
        [
            (1.0, 1e300),  # 1/expm1(beta) overflows
            (1.0, np.array([300.0, 1e300])),
            (1e-5, 1.7e308),  # beta underflows to 0: a division by zero
            (1e-5, np.array([0.0, 1.7e308])),
        ],
    )
    def test_occupation_past_float_range_is_refused(self, omega, temp):
        # these returned inf, with a RuntimeWarning for the arrays
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="thermal occupation overflows"):
                thermal_occupation(omega, temp)

    def test_array_of_omega_matches_scalar_calls(self):
        omegas = np.array([1e12, 2e12])
        nbar = thermal_occupation(omegas, 300.0)
        assert nbar.tolist() == [thermal_occupation(w, 300.0) for w in omegas.tolist()]

    @pytest.mark.parametrize("temp", [300.0, np.array([0.0, 300.0])])
    def test_array_of_omega_with_one_bad_point_is_refused(self, temp):
        with pytest.raises(ValidationError, match="^omega must be finite.*, got 0.0$"):
            thermal_occupation(np.array([1e12, 0.0]), temp)

    def test_zero_temperature_exact_in_arrays(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nbar = thermal_occupation(1e-5, np.array([0.0, 1.0, 0.0]))
        assert nbar[0] == 0.0 and nbar[2] == 0.0 and nbar[1] > 0.0
        assert thermal_occupation(1e-5, 0.0) == 0.0

    def test_thermal_init_past_float_range_is_refused(self):
        params = PdcParams(omega1_bar=1.0, omega2_bar=1.0, g=1.0)
        with pytest.raises(NumericalDomainError, match="thermal occupation overflows"):
            thermal_init(params, 1.7e308)

    def test_thermal_init_ordering(self, reference_params):
        init = thermal_init(reference_params, 150.0)
        assert init.nbar1 >= init.nbar2  # omega1 < omega2


class TestStretch:
    """_stretch gives (x, sinh(x tau)/x); the Bogoliubov pair of the mode
    evolution is A = cosh(x tau) + i y ratio, B = i ratio."""

    def test_identity_at_tau_zero(self):
        # (A, B) = (1, 0)
        for y in (0.0, 0.5, 0.999):
            _, ratio = _stretch(y, 0.0, math)
            assert ratio == 0.0

    def test_matched_case(self):
        x, ratio = _stretch(0.0, 1.0, math)
        assert x == 1.0
        assert ratio == pytest.approx(np.sinh(1.0), rel=1e-14)

    def test_near_unit_mismatch_limit(self):
        # x = sqrt(2e-14) ~ 1.4e-7: ratio -> tau, so A -> 1 + 2i and
        # B -> 2i at tau = 2
        _, ratio = _stretch(1.0 - 1e-14, 2.0, math)
        assert ratio == pytest.approx(2.0, abs=1e-7)

    def test_branch_continuity(self):
        # y values straddling x = 1e-6 differ by ~1e-19, so any visible
        # jump would be an artifact of the evaluation
        x_lo, x_hi = 1e-6 * (1 - 1e-7), 1e-6 * (1 + 1e-7)
        y_lo = np.sqrt(1.0 - x_lo * x_lo)
        y_hi = np.sqrt(1.0 - x_hi * x_hi)
        for tau in (0.5, 3.0, 10.0):
            _, ratio_lo = _stretch(y_lo, tau, math)
            _, ratio_hi = _stretch(y_hi, tau, math)
            assert abs(ratio_lo - ratio_hi) < 1e-9

    def test_canonical_invariant_on_grid(self):
        # |A|^2 - |B|^2 = ch^2 - x^2 ratio^2 = 1 cancels ~1e8 hyperbolics at
        # tau = 10, below float64 resolution; so x and ratio are each held
        # to the decimal reference instead, to a few ulps
        with localcontext() as ctx:
            ctx.prec = 40
            for y in np.linspace(0.0, 0.99, 12).tolist():
                for tau in np.linspace(0.0, 10.0, 11).tolist():
                    for got, want in zip(_stretch(y, tau, math), ref_stretch(y, tau)):
                        assert abs(Decimal(got) - want) <= Decimal("1e-14") * want

    def test_array_temperature_leaves_scalar_y_and_tau_in_math(self, make_params):
        # the pair state's x and sinh are those of the scalar call
        for y_arg, tau in ((None, 2.881), (np.array(0.3), np.array(4.543))):
            pair = _pair_state(make_params(y=0.3), tau, np.array([0.0, 300.0]), y_arg)
            assert all(type(v) is float for v in (pair.x, pair.ratio))
            assert (pair.x, pair.ratio) == _stretch(0.3, float(tau), math)


class TestMeanPhotonNumbers:
    def test_initial_values(self, reference_params):
        init = thermal_init(reference_params, 300.0)
        n1, n2 = mean_photon_numbers(reference_params, 0.0, 300.0)
        assert n1 == pytest.approx(init.nbar1, rel=1e-14)
        assert n2 == pytest.approx(init.nbar2, rel=1e-14)

    def test_vacuum_two_mode_squeezing(self, reference_params):
        for r in (0.3, 1.0, 2.0):
            n1, n2 = mean_photon_numbers(reference_params, r, 0.0)
            assert n1 == pytest.approx(np.sinh(r) ** 2, rel=1e-12)
            assert n2 == pytest.approx(np.sinh(r) ** 2, rel=1e-12)

    def test_difference_is_integral_of_motion(self, make_params):
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (0.0, 50.0, 300.0):
                init = thermal_init(params, temp)
                for tau in np.linspace(0.0, 5.0, 21):
                    n1, n2 = mean_photon_numbers(params, float(tau), temp)
                    assert abs(float(n1 - n2) - (init.nbar1 - init.nbar2)) < 1e-9

    def test_agreement_with_bogoliubov_route(self, make_params):
        # n1 = |A|^2 nbar1 + |B|^2 (nbar2 + 1) must match the m*K form,
        # with A = cosh(x tau) + i (y/x) sinh(x tau), B = (i/x) sinh(x tau)
        params = make_params(y=0.4)
        init = thermal_init(params, 80.0)
        y = np.longdouble(params.y)
        x = np.sqrt(1 - y * y)
        for tau in (0.5, 2.0):
            sh, ch = np.sinh(x * tau), np.cosh(x * tau)
            a2 = float(ch**2 + (y * sh / x) ** 2)
            b2 = float((sh / x) ** 2)
            n1_alt = a2 * init.nbar1 + b2 * (init.nbar2 + 1.0)
            n2_alt = b2 * (init.nbar1 + 1.0) + a2 * init.nbar2
            n1, n2 = mean_photon_numbers(params, tau, 80.0)
            assert n1 == pytest.approx(n1_alt, rel=1e-9)
            assert n2 == pytest.approx(n2_alt, rel=1e-9)


class TestCovarianceMatrix:
    def test_initial_thermal_product(self, reference_params):
        init = thermal_init(reference_params, 150.0)
        cm = covariance_matrix(reference_params, 0.0, 150.0)
        expected = np.diag(
            [init.nbar1 + 0.5] * 2 + [init.nbar2 + 0.5] * 2
        )
        assert np.allclose(cm.entries, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "tau, temp", [(1.0, np.array([300.0])), (np.array([1.0]), 300.0)]
    )
    def test_refuses_array_inputs(self, reference_params, tau, temp):
        # a T of shape (1,) used to fail in numpy with "inhomogeneous shape"
        with pytest.raises(ValidationError, match="scalar tau and T"):
            covariance_matrix(reference_params, tau, temp)

    def test_zero_dim_and_numpy_scalar_inputs(self, reference_params):
        want = covariance_matrix(reference_params, 2.881, 300.0).entries
        for temp in (np.float64(300.0), np.float32(300.0), np.longdouble(300.0)):
            got = covariance_matrix(reference_params, np.float32(2.881), temp).entries
            assert np.array_equal(got, covariance_matrix(
                reference_params, float(np.float32(2.881)), float(temp)).entries)
        got = covariance_matrix(reference_params, np.array(2.881), np.array(300.0))
        assert got.entries.dtype == np.float64
        assert np.allclose(got.entries, want, rtol=1e-14, atol=0.0)

    def test_entry_symmetry_structure(self, make_params):
        cm = covariance_matrix(make_params(y=0.3), 1.1, 60.0).entries
        assert cm[0, 1] == 0.0 and cm[2, 3] == 0.0
        assert cm[1, 3] == -cm[0, 2]  # sigma_24 = -sigma_13
        assert cm[1, 2] == cm[0, 3]  # sigma_23 = sigma_14
        assert cm[0, 0] == cm[1, 1] and cm[2, 2] == cm[3, 3]

    def test_det_gamma_independent_of_local_phase(self, make_params):
        # |det gamma| = |A|^2 |B|^2 K^2 regardless of theta
        cm = covariance_matrix(make_params(y=0.0), 1.0, 0.0)
        det = np.linalg.det(cm.entries[:2, 2:])
        assert det == pytest.approx(-np.sinh(1.0) ** 2 * np.cosh(1.0) ** 2, rel=1e-12)

    def test_closed_form_det_gamma_matches_block(self, make_params):
        params = make_params(y=0.5)
        for tau, temp in [(2.0, 50.0), (0.7, 300.0), (4.0, 0.0)]:
            closed = det_gamma_closed_form(params, tau, temp)
            block = np.linalg.det(covariance_matrix(params, tau, temp).entries[:2, 2:])
            assert block == pytest.approx(closed, rel=1e-10)

    def test_det_gamma_nonpositive_and_increasing(self, make_params):
        params = make_params(y=0.7)
        taus = np.linspace(0.0, 5.0, 40)
        mags = [-det_gamma_closed_form(params, float(t), 120.0) for t in taus]
        assert mags[0] == 0.0
        assert all(m >= 0.0 for m in mags)
        assert all(b > a for a, b in zip(mags[1:], mags[2:]))

    def test_theta_independence_of_invariants(self, make_params):
        # scale omega_bar and g inversely: physical frequencies (and thus
        # occupations) fixed, theta varies; I1, I2, S, E_N must not move
        results = []
        for scale in (0.5, 1.0, 2.0, 3.7):
            params = make_params(
                y=0.5,
                omega1_bar=200.0 * scale,
                omega2_bar=400.0 * scale,
                g=G_COUPLING / scale,
            )
            cm = covariance_matrix(params, np.longdouble(2.881), np.longdouble(300.0))
            inv = symplectic_invariants(cm)
            results.append(
                (float(inv.i1), float(inv.i2), float(inv.s), log_negativity(cm))
            )
        ref = results[0]
        for other in results[1:]:
            for a, b in zip(ref, other):
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_degenerate_branch_continuity(self):
        x_lo, x_hi = 1e-6 * (1 - 1e-7), 1e-6 * (1 + 1e-7)
        params_lo = PdcParams(
            omega1_bar=200, omega2_bar=400, g=G_COUPLING,
            y=float(np.sqrt(1 - x_lo * x_lo)),
        )
        params_hi = PdcParams(
            omega1_bar=200, omega2_bar=400, g=G_COUPLING,
            y=float(np.sqrt(1 - x_hi * x_hi)),
        )
        lo = covariance_matrix(params_lo, 2.0, 30.0).entries
        hi = covariance_matrix(params_hi, 2.0, 30.0).entries
        assert np.max(np.abs(lo - hi)) < 1e-9 * max(1.0, np.max(np.abs(lo)))

    def test_zero_temperature_entanglement_from_start(self, make_params):
        s = symplectic_invariants(covariance_matrix(make_params(y=0.9), 0.01, 0.0)).s
        assert s < 0.0


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_closed_forms_reject_non_finite_tau(reference_params, tau):
    for closed_form in (covariance_matrix, mean_photon_numbers, det_gamma_closed_form):
        with pytest.raises(ValidationError):
            closed_form(reference_params, tau, 10.0)


HUGE = np.longdouble("1e400")  # finite in long double, past the float range


@pytest.mark.parametrize(
    "call",
    [
        lambda p: thermal_occupation(1e10, HUGE),
        lambda p: covariance_matrix(p, 1.0, HUGE),
        lambda p: covariance_matrix(p, HUGE, 10.0),
        lambda p: birth_time(p, HUGE),
        lambda p: witness(p, 1.0, HUGE),
        lambda p: witness(p, HUGE, 10.0),
        lambda p: pair_invariants(p, 1.0, HUGE),
        lambda p: pair_invariants(p, HUGE, 10.0),
        lambda p: critical_temperature(p, HUGE),
    ],
    ids=[
        "thermal_occupation_T",
        "covariance_matrix_T",
        "covariance_matrix_tau",
        "birth_time_T",
        "witness_T",
        "witness_tau",
        "pair_invariants_T",
        "pair_invariants_tau",
        "critical_temperature_tau",
    ],
)
def test_numpy_scalar_past_float_range_is_refused(reference_params, call):
    # a numpy scalar enters as a Python float, so 1e400 arrives as inf and
    # is refused like inf; it used to divide by zero or give an answer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(reference_params)


def test_longdouble_tau_gives_float_answers(reference_params):
    # a long double input gives the same Python floats a float input gives
    ld = witness(reference_params, np.longdouble(2.881), np.longdouble(300.0))
    assert ld == witness(reference_params, 2.881, 300.0)
    assert all(type(value) is float for value in ld._asdict().values())
    cm = covariance_matrix(reference_params, np.longdouble(2.881), np.longdouble(300.0))
    assert np.array_equal(cm.entries, covariance_matrix(reference_params, 2.881, 300.0).entries)


class TestOccupationUnderflow:
    def test_float_beta_past_exp_range_is_exact_zero(self):
        # beta = hbar*omega/(k_B T) ~ 748 at omega2 = 400 g, T = 4 mK:
        # exp(beta) overflows a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_occupation(400 * G_COUPLING, 0.004) == 0.0

    def test_longdouble_beta_past_exp_range_is_exact_zero(self):
        # a long double T enters as a float: beta ~ 3e5, far past the exp range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = thermal_occupation(400 * G_COUPLING, np.longdouble(1e-8))
        assert value == 0.0

    def test_occupations_underflow_in_closed_forms(self, reference_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            init = thermal_init(reference_params, 0.004)
            cm = covariance_matrix(reference_params, 1.0, 0.004)
        assert init.nbar2 == 0.0
        assert cm.entries[2, 2] == covariance_matrix(reference_params, 1.0, 0.0).entries[2, 2]
