"""How many Python frames one Python-float point of the pair route opens.

A point of the phase map (``covariance_matrix``, ``entanglement_report``,
``witness`` and ``birth_time`` on Python floats) does a few dozen ``math``
operations and, for every Python function it enters, opens a frame:
binding the arguments, running the body and returning cost more than the
arithmetic the small helpers do.  So the scalar path keeps its checks inline and
builds its results with ``tuple.__new__``.  Each budget below is the
number of frames the call opens now, counted with ``sys.setprofile``
(its ``call`` events; C functions such as ``math.sinh`` give
``c_call`` and are not counted).  A change that adds a layer to the
scalar path fails here, and must either be worth its frames or raise
the budget on purpose.
"""

import sys

import pytest

from pdc_entanglement import birth_time, covariance_matrix, entanglement_report, witness

TAU, T = 2.881, 300.0

# frames per call, the call itself included
BUDGETS = {
    # covariance_matrix, _pair_state, _bose twice, _pair_matrix, _of_pair
    "covariance_matrix": (6, lambda p, cm: covariance_matrix(p, TAU, T)),
    # entanglement_report, invariants, entangled, _critical_ratio,
    # _entangled_at and the log_negativity property
    "entanglement_report": (6, lambda p, cm: entanglement_report(cm)),
    # the _pointwise wrapper, witness, _pair_state, _bose twice, _witness
    "witness": (6, lambda p, cm: witness(p, TAU, T)),
    # the _pointwise wrapper, birth_time, _check_occupations, _threshold_gain
    "birth_time": (4, lambda p, cm: birth_time(p, T)),
}


def frames_of(call, *args):
    """The number of Python frames ``call(*args)`` opens, its own excluded."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return count - 1  # the frame of ``call`` itself


@pytest.mark.parametrize("name", BUDGETS)
def test_a_float_point_stays_within_its_frame_budget(reference_params, name):
    budget, call = BUDGETS[name]
    cm = covariance_matrix(reference_params, TAU, T)
    call(reference_params, cm)  # warm: no first-call work is counted
    frames = frames_of(call, reference_params, cm)
    assert frames <= budget, f"{name} opens {frames} Python frames, budget {budget}"
