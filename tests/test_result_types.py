"""The contract of the result types: immutable NamedTuples whose fields are
Python floats for scalar input (bar a bool verdict and a str route)."""

import numpy as np
import pytest

from pdc_entanglement import (
    BteResult,
    EntanglementReport,
    PhasePoint,
    SymplecticInvariants,
    WitnessValue,
    birth_time,
    covariance_matrix,
    entanglement_report,
    log_negativity,
    pair_invariants,
    phase_boundary,
    symplectic_invariants,
    witness,
)

NOT_FLOAT = {"entangled": bool, "method": str}


@pytest.fixture
def scalar_results(reference_params):
    cm = covariance_matrix(reference_params, 2.881, 300.0)
    (point,) = phase_boundary(reference_params, 2.881, [0.3])
    return [
        symplectic_invariants(cm),
        pair_invariants(reference_params, 2.881, 300.0),
        entanglement_report(cm),
        witness(reference_params, 2.881, 300.0),
        birth_time(reference_params, 300.0),
        birth_time(reference_params, 300.0, method="bisection"),
        birth_time(reference_params, 0.0, method="bisection"),
        point,
    ]


def test_every_result_type_is_covered(scalar_results):
    types = {type(r) for r in scalar_results}
    assert types == {SymplecticInvariants, EntanglementReport, WitnessValue, BteResult, PhasePoint}


def test_scalar_fields_are_python_floats(scalar_results):
    for result in scalar_results:
        for name, value in result._asdict().items():
            assert type(value) is NOT_FLOAT.get(name, float), (type(result).__name__, name)


def test_fields_cannot_be_assigned(scalar_results):
    for result in scalar_results:
        for name in result._fields:
            with pytest.raises(AttributeError):
                setattr(result, name, 0.0)


def test_results_unpack_and_compare_as_tuples(reference_params, scalar_results):
    for result in scalar_results:
        assert result == tuple(result)
        assert result == type(result)(*result)
    tau_e, method = birth_time(reference_params, 300.0)
    assert (tau_e, method) == birth_time(reference_params, 300.0)
    assert method == "closed_form"


def test_log_negativity_on_array_fields(reference_params):
    temps = np.array([0.0, 150.0, 300.0, 600.0])
    inv = pair_invariants(reference_params, 2.881, temps)
    e_n = inv.log_negativity
    assert e_n.shape == temps.shape
    # numpy's and math's exp and log may differ by an ulp on some hosts
    for temp, value in zip(temps, e_n):
        want = log_negativity(covariance_matrix(reference_params, 2.881, temp))
        assert value == pytest.approx(want, rel=1e-13, abs=1e-15)
