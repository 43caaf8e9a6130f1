"""The exact refusal messages of the closed forms' range checks, and of
every entry point given an input that is not a real number.

Every closed form checks tau, then T, then the mismatch y, and names the
first argument that fails; a mismatch refusal also gives its first bad
point.  Scalars and arrays (one bad point among good ones) refuse alike.
"""

import re
import warnings

import numpy as np
import pytest

from pdc_entanglement import (
    FockState,
    PdcParams,
    ThermalInit,
    ValidationError,
    birth_time,
    covariance_matrix,
    critical_temperature,
    det_gamma_closed_form,
    evolve_fock,
    evolve_moments_ode,
    mean_photon_numbers,
    pair_invariants,
    phase_boundary,
    s0_threshold,
    thermal_init,
    thermal_occupation,
    witness,
)
from conftest import G_COUPLING

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


def test_s0_threshold_shapes_that_do_not_broadcast():
    # named as the closed forms name theirs, not numpy's bare ValueError
    message = "array arguments do not broadcast together: nbar1 of shape (3,), nbar2 of shape (2,)"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        s0_threshold(np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0]))


# the range of the critical-temperature bracket, refused alike by
# critical_temperature and by phase_boundary on any grid, an empty one too
BRACKET_CALLS = {
    "critical_temperature": lambda p, tau_i, t_max: critical_temperature(p, tau_i, t_max),
    "phase_boundary": lambda p, tau_i, t_max: phase_boundary(p, tau_i, [0.5], t_max),
    "phase_boundary, empty y_grid": lambda p, tau_i, t_max: phase_boundary(p, tau_i, [], t_max),
}


@pytest.mark.parametrize("name", BRACKET_CALLS)
@pytest.mark.parametrize(
    "tau_i, t_max, message",
    [(tau_i, 2000.0, "tau_i must be finite and >= 0") for tau_i in BAD_SCALARS]
    + [(2.881, t_max, "t_max must be finite and positive") for t_max in [-5.0, 0.0, np.nan, np.inf]],
    ids=str,
)
def test_bracket_range(reference_params, name, tau_i, t_max, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        BRACKET_CALLS[name](reference_params, tau_i, t_max)


def _params(**fields):
    """PdcParams at the reference frequencies, y = 0.5, with ``fields`` replaced."""
    return PdcParams(**{"omega1_bar": 200.0, "omega2_bar": 400.0, "g": G_COUPLING, "y": 0.5, **fields})


# every real argument of the public entry points: (call of params p and
# the probed value v, the argument's name, and for an entry point that
# takes scalars only its message for an array or a list).  The others
# are set to y = 0.5, tau = 0.5 and T = 0.5 K.
TAKES_ARRAYS = None
REAL_ARGUMENTS = {
    "pair_invariants tau": (lambda p, v: pair_invariants(p, v, 0.5), "tau", TAKES_ARRAYS),
    "pair_invariants temperature": (
        lambda p, v: pair_invariants(p, 0.5, v), "temperature", TAKES_ARRAYS
    ),
    "pair_invariants y": (lambda p, v: pair_invariants(p, 0.5, 0.5, y=v), "y", TAKES_ARRAYS),
    "witness tau": (lambda p, v: witness(p, v, 0.5), "tau", TAKES_ARRAYS),
    "witness temperature": (lambda p, v: witness(p, 0.5, v), "temperature", TAKES_ARRAYS),
    "witness y": (lambda p, v: witness(p, 0.5, 0.5, y=v), "y", TAKES_ARRAYS),
    "mean_photon_numbers tau": (lambda p, v: mean_photon_numbers(p, v, 0.5), "tau", TAKES_ARRAYS),
    "mean_photon_numbers temperature": (
        lambda p, v: mean_photon_numbers(p, 0.5, v), "temperature", TAKES_ARRAYS
    ),
    "det_gamma_closed_form tau": (
        lambda p, v: det_gamma_closed_form(p, v, 0.5), "tau", TAKES_ARRAYS
    ),
    "det_gamma_closed_form temperature": (
        lambda p, v: det_gamma_closed_form(p, 0.5, v), "temperature", TAKES_ARRAYS
    ),
    "covariance_matrix tau": (
        lambda p, v: covariance_matrix(p, v, 0.5),
        "tau",
        "covariance_matrix takes a scalar tau and T; pair_invariants takes arrays",
    ),
    "covariance_matrix temperature": (
        lambda p, v: covariance_matrix(p, 0.5, v),
        "temperature",
        "covariance_matrix takes a scalar tau and T; pair_invariants takes arrays",
    ),
    "birth_time temperature": (lambda p, v: birth_time(p, v), "temperature", TAKES_ARRAYS),
    "birth_time y": (lambda p, v: birth_time(p, 0.5, y=v), "y", TAKES_ARRAYS),
    "birth_time bisection temperature": (
        lambda p, v: birth_time(p, v, method="bisection"), "temperature", TAKES_ARRAYS
    ),
    "thermal_occupation omega": (lambda p, v: thermal_occupation(v, 0.5), "omega", TAKES_ARRAYS),
    "thermal_occupation temperature": (
        lambda p, v: thermal_occupation(1e10, v), "temperature", TAKES_ARRAYS
    ),
    "s0_threshold nbar1": (lambda p, v: s0_threshold(v, 1.0), "nbar1", TAKES_ARRAYS),
    "s0_threshold nbar2": (lambda p, v: s0_threshold(1.0, v), "nbar2", TAKES_ARRAYS),
    "critical_temperature tau_i": (
        lambda p, v: critical_temperature(p, v),
        "tau_i",
        "critical_temperature takes a scalar tau_i and t_max",
    ),
    "critical_temperature t_max": (
        lambda p, v: critical_temperature(p, 0.5, t_max=v),
        "t_max",
        "critical_temperature takes a scalar tau_i and t_max",
    ),
    "phase_boundary tau_i": (
        lambda p, v: phase_boundary(p, v, [0.5]),
        "tau_i",
        "phase_boundary takes a scalar tau_i and t_max",
    ),
    "phase_boundary tau_i, empty y_grid": (
        lambda p, v: phase_boundary(p, v, []),
        "tau_i",
        "phase_boundary takes a scalar tau_i and t_max",
    ),
    "phase_boundary t_max, empty y_grid": (
        lambda p, v: phase_boundary(p, 0.5, [], t_max=v),
        "t_max",
        "phase_boundary takes a scalar tau_i and t_max",
    ),
    "phase_boundary y_grid entry": (
        lambda p, v: phase_boundary(p, 0.5, [v]),
        "y",
        "phase_boundary takes a scalar y per y_grid entry",
    ),
    **{
        f"PdcParams {field}": (
            lambda p, v, field=field: _params(**{field: v}),
            field,
            f"PdcParams takes a scalar {field}",
        )
        for field in ("omega1_bar", "omega2_bar", "g", "y")
    },
    **{
        f"ThermalInit {field}": (
            lambda p, v, field=field: ThermalInit(
                **{"temperature": 0.5, "nbar1": 0.5, "nbar2": 0.5, field: v}
            ),
            field,
            f"ThermalInit takes a scalar {field}",
        )
        for field in ("temperature", "nbar1", "nbar2")
    },
    "FockState leakage": (
        lambda p, v: FockState(n_cut=1, leakage=v, blocks=[([0], [[1.0]])]),
        "leakage",
        "FockState takes a scalar leakage",
    ),
    "thermal_init temperature": (
        lambda p, v: thermal_init(p, v), "temperature", "thermal_init takes a scalar temperature"
    ),
    "evolve_moments_ode tau_end": (
        lambda p, v: evolve_moments_ode(p, v, 0.5),
        "tau_end",
        "evolve_moments_ode takes a scalar tau_end and temperature",
    ),
    "evolve_moments_ode temperature": (
        lambda p, v: evolve_moments_ode(p, 0.5, v),
        "temperature",
        "evolve_moments_ode takes a scalar tau_end and temperature",
    ),
    **{
        f"evolve_fock {name}": (
            call, name, "evolve_fock takes a scalar tau_end, temperature and step"
        )
        for name, call in {
            "tau_end": lambda p, v: evolve_fock(p, v, 0.5, n_cut=20),
            "temperature": lambda p, v: evolve_fock(p, 0.5, v, n_cut=20),
            "step": lambda p, v: evolve_fock(p, 0.5, 0.5, n_cut=20, step=v),
        }.items()
    },
}

# what is not a real number: a numeric string, a bool and a complex
# number with no imaginary part included
NOT_REAL = [
    None,
    True,
    1 + 0j,
    np.complex128(0.5),
    "0.5",
    "abc",
    [0.5],
    np.array([0.5 + 1j, 1.0]),
    np.array([True, False]),
    np.array(["0.5", "1"]),
]


# y=None asks for params.y
PROBES = [
    pytest.param(argument, value, id=f"{argument}-{value!r}")
    for argument in REAL_ARGUMENTS
    for value in NOT_REAL
    if not (value is None and argument in ("pair_invariants y", "witness y", "birth_time y"))
]


@pytest.mark.parametrize("argument, value", PROBES)
def test_refuses_an_argument_that_is_not_a_real_number(argument, value):
    # these used to raise a bare TypeError or ValueError, to read a string
    # as its number or a bool as 0 or 1, or to take the real part of a
    # numpy complex input with only a ComplexWarning
    call, name, scalar_message = REAL_ARGUMENTS[argument]
    if scalar_message is not None and np.ndim(value):
        message = scalar_message
    else:
        message = f"{name} must be a real number, got {value!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            call(_params(), value)
