import numpy as np
import pytest

from pdc_entanglement import PdcParams

# reference configuration: nu1 = 3.12e10 Hz, g = pi*1e-2*nu1, so that
# omega1_bar = 2*pi*nu1/g = 200 and omega2_bar = 400
NU1_HZ = 3.12e10
G_COUPLING = np.pi * 1e-2 * NU1_HZ


@pytest.fixture
def make_params():
    def _make(y=0.0, omega1_bar=200.0, omega2_bar=400.0, g=G_COUPLING):
        return PdcParams(omega1_bar=omega1_bar, omega2_bar=omega2_bar, g=g, y=y)

    return _make


@pytest.fixture
def reference_params(make_params):
    return make_params()
