"""The exact refusal messages of the closed forms' range checks.

Every closed form checks tau, then T, then the mismatch y, and names the
first argument that fails; a mismatch refusal also gives its first bad
point.  Scalars and arrays (one bad point among good ones) refuse alike.
"""

import re

import numpy as np
import pytest

from pdc_entanglement import (
    ValidationError,
    birth_time,
    covariance_matrix,
    det_gamma_closed_form,
    pair_invariants,
    witness,
)

TAU_MESSAGE = "^tau must be finite and >= 0$"
T_MESSAGE = "^temperature must be finite and >= 0$"

# closed forms of (params, tau, T)
TAU_AND_T = {
    "covariance_matrix": covariance_matrix,
    "pair_invariants": pair_invariants,
    "witness": witness,
    "det_gamma_closed_form": det_gamma_closed_form,
}
ARRAY_TAU_AND_T = {k: f for k, f in TAU_AND_T.items() if k != "covariance_matrix"}

# closed forms of (params, T), with the mismatch in place of params.y
BIRTH_TIMES = {
    "birth_time_closed_form": lambda p, temp, y=None: birth_time(p, temp, y=y),
    "birth_time_bisection": lambda p, temp, y=None: birth_time(
        p, temp, method="bisection", y=y
    ),
}

# closed forms that take the mismatch as an argument, at (tau, T) = (2.881, 300 K)
WITH_Y = {
    "pair_invariants": lambda p, y: pair_invariants(p, 2.881, 300.0, y=y),
    "witness": lambda p, y: witness(p, 2.881, 300.0, y=y),
    **{name: lambda p, y, call=call: call(p, 300.0, y=y) for name, call in BIRTH_TIMES.items()},
}

BAD_SCALARS = [-1.0, -1e-300, np.nan, np.inf, -np.inf]


def y_message(got):
    return "^" + re.escape(f"mismatch y must lie in [0, 1), got {got}") + "$"


@pytest.mark.parametrize("name", TAU_AND_T)
@pytest.mark.parametrize("tau", BAD_SCALARS)
def test_scalar_tau(reference_params, name, tau):
    with pytest.raises(ValidationError, match=TAU_MESSAGE):
        TAU_AND_T[name](reference_params, tau, 300.0)


@pytest.mark.parametrize("name", TAU_AND_T)
@pytest.mark.parametrize("temp", BAD_SCALARS)
def test_scalar_temperature(reference_params, name, temp):
    with pytest.raises(ValidationError, match=T_MESSAGE):
        TAU_AND_T[name](reference_params, 2.881, temp)


@pytest.mark.parametrize("name", TAU_AND_T)
def test_tau_is_named_when_tau_and_temperature_are_bad(reference_params, name):
    with pytest.raises(ValidationError, match=TAU_MESSAGE):
        TAU_AND_T[name](reference_params, -1.0, np.nan)


@pytest.mark.parametrize("name", ARRAY_TAU_AND_T)
def test_array_tau_with_one_bad_point(reference_params, name):
    with pytest.raises(ValidationError, match=TAU_MESSAGE):
        ARRAY_TAU_AND_T[name](reference_params, np.array([0.5, 2.881, -1.0]), 300.0)


@pytest.mark.parametrize("name", ARRAY_TAU_AND_T)
def test_array_temperature_with_one_bad_point(reference_params, name):
    with pytest.raises(ValidationError, match=T_MESSAGE):
        ARRAY_TAU_AND_T[name](reference_params, 2.881, np.array([0.0, np.inf, 300.0]))


@pytest.mark.parametrize("name", ARRAY_TAU_AND_T)
def test_array_tau_is_named_when_both_are_bad(reference_params, name):
    with pytest.raises(ValidationError, match=TAU_MESSAGE):
        ARRAY_TAU_AND_T[name](
            reference_params, np.array([1.0, -1.0]), np.array([[np.nan], [300.0]])
        )


@pytest.mark.parametrize("name", BIRTH_TIMES)
@pytest.mark.parametrize(
    "temp", BAD_SCALARS + [np.array([300.0, -2.0]), np.array([np.nan, 300.0])], ids=str
)
def test_birth_time_temperature(reference_params, name, temp):
    with pytest.raises(ValidationError, match=T_MESSAGE):
        BIRTH_TIMES[name](reference_params, temp)


@pytest.mark.parametrize("name", WITH_Y)
@pytest.mark.parametrize(
    "y, got",
    [
        (1.0, "1.0"),
        (-0.5, "-0.5"),
        (np.nan, "nan"),
        (np.inf, "inf"),
        (np.float32(1.5), "1.5"),
        (np.array([0.2, 1.5, 2.0]), "1.5"),
        (np.array([[0.0], [-0.25]]), "-0.25"),
        (np.array([np.nan, 0.3]), "nan"),
    ],
    ids=str,
)
def test_mismatch(reference_params, name, y, got):
    with pytest.raises(ValidationError, match=y_message(got)):
        WITH_Y[name](reference_params, y)


@pytest.mark.parametrize("name", ["pair_invariants", "witness"])
def test_temperature_is_named_before_the_mismatch(reference_params, name):
    call = TAU_AND_T[name]
    with pytest.raises(ValidationError, match=T_MESSAGE):
        call(reference_params, 2.881, -1.0, y=1.5)
    with pytest.raises(ValidationError, match=TAU_MESSAGE):
        call(reference_params, np.array([-1.0]), -1.0, y=np.array([1.5]))
