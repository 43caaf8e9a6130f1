import numpy as np
import pytest

from pdc_entanglement import (
    CovarianceMatrix,
    NumericalDomainError,
    ValidationError,
    block_decompose,
    covariance_matrix,
    entanglement_report,
    log_negativity,
    physicality_check,
    separability_indicator,
    symplectic_invariants,
)


def tmsv_cm(r):
    """Two-mode squeezed vacuum CM built directly from its standard form."""
    c = np.cosh(2 * r) / 2
    s = np.sinh(2 * r) / 2
    return CovarianceMatrix(
        np.array(
            [
                [c, 0, s, 0],
                [0, c, 0, -s],
                [s, 0, c, 0],
                [0, -s, 0, c],
            ]
        )
    )


def thermal_product_cm(n1, n2):
    return CovarianceMatrix(np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5]))


class TestCovarianceMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            CovarianceMatrix(bad)

    def test_rejects_non_finite(self):
        bad = 0.5 * np.eye(4)
        bad[2, 2] = np.inf
        with pytest.raises(ValidationError):
            CovarianceMatrix(bad)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.longdouble("1e400")])
    def test_rejects_entries_not_finite_as_float64(self, value):
        bad = 0.5 * np.eye(4, dtype=np.longdouble)
        bad[1, 1] = value
        with pytest.raises(ValidationError, match="finite"):
            CovarianceMatrix(bad)

    def test_accepts_large_finite_longdouble(self):
        big = np.longdouble("1e300") * np.eye(4, dtype=np.longdouble)
        assert CovarianceMatrix(big).entries[3, 3] == big[3, 3]

    def test_entries_read_only(self):
        cm = CovarianceMatrix.vacuum()
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 1.0

    def test_preserves_longdouble(self):
        cm = CovarianceMatrix(np.eye(4, dtype=np.longdouble) / 2)
        assert cm.entries.dtype == np.longdouble


class TestBlockDecompose:
    def test_vacuum(self):
        blocks = block_decompose(CovarianceMatrix.vacuum())
        assert np.array_equal(blocks.alpha, 0.5 * np.eye(2))
        assert np.array_equal(blocks.beta, 0.5 * np.eye(2))
        assert np.array_equal(blocks.gamma, np.zeros((2, 2)))

    def test_product_state_has_zero_gamma(self):
        blocks = block_decompose(thermal_product_cm(0.7, 2.3))
        assert np.array_equal(blocks.gamma, np.zeros((2, 2)))

    def test_reassembly_bit_exact(self, make_params):
        cm = covariance_matrix(make_params(y=0.4), 1.3, 77.0)
        blocks = block_decompose(cm)
        rebuilt = np.block(
            [[blocks.alpha, blocks.gamma], [blocks.gamma.T, blocks.beta]]
        )
        assert np.array_equal(rebuilt, cm.entries)

    def test_pdc_gamma_determinant(self, reference_params):
        # oracle: |det gamma| = sinh^2 cosh^2 at y=0, tau=1, T=0
        blocks = block_decompose(covariance_matrix(reference_params, 1.0, 0.0))
        det = np.linalg.det(blocks.gamma)
        expected = -np.sinh(1.0) ** 2 * np.cosh(1.0) ** 2
        assert det == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-3.28853, abs=1e-5)


class TestSymplecticInvariants:
    def test_vacuum_boundary_exact(self):
        inv = symplectic_invariants(CovarianceMatrix.vacuum())
        assert inv.i1 == 1.0 / 16.0
        assert inv.i2 == 0.5
        assert inv.s0 == 0.0
        assert inv.s == 0.0
        assert inv.nu_minus_pt == 0.5

    def test_tmsv_r1(self):
        inv = symplectic_invariants(tmsv_cm(1.0))
        assert inv.nu_minus_pt == pytest.approx(np.exp(-2.0) / 2.0, rel=1e-12)
        assert inv.nu_minus_pt == pytest.approx(0.06766764, abs=1e-8)

    def test_thermal_product_nbar1(self):
        inv = symplectic_invariants(thermal_product_cm(1.0, 1.0))
        assert inv.s == pytest.approx(4.0, rel=1e-12)
        assert inv.s0 == pytest.approx(4.0, rel=1e-12)
        assert inv.s >= 0.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    def test_pt_root_identities(self, r):
        inv = symplectic_invariants(tmsv_cm(r))
        prod = inv.nu_minus_pt**2 * inv.nu_plus_pt**2
        total = inv.nu_minus_pt**2 + inv.nu_plus_pt**2
        assert prod == pytest.approx(inv.i1, rel=1e-10)
        assert total == pytest.approx(inv.delta_tilde, rel=1e-10)

    def test_s_definition_matches_stated_combination(self, make_params):
        cm = covariance_matrix(make_params(y=0.3), 1.7, 120.0)
        inv = symplectic_invariants(cm)
        det_gamma = np.linalg.det(block_decompose(cm).gamma)
        assert inv.s == pytest.approx(
            inv.s0 + (det_gamma - abs(det_gamma)) / 2.0, rel=1e-12
        )

    def test_unphysical_domain_raises(self):
        # positively correlated gamma block with unit local blocks gives a
        # negative large PT root: inconsistent invariants must raise
        bad = np.array(
            [
                [1.0, 0.0, 1.5, 0.0],
                [0.0, 1.0, 0.0, 1.2],
                [1.5, 0.0, 1.0, 0.0],
                [0.0, 1.2, 0.0, 1.0],
            ]
        )
        with pytest.raises(NumericalDomainError):
            symplectic_invariants(CovarianceMatrix(bad))


class TestSeparabilityIndicator:
    def test_vacuum_boundary(self):
        assert separability_indicator(CovarianceMatrix.vacuum()) == 0.0

    def test_pdc_point(self, reference_params):
        s = separability_indicator(covariance_matrix(reference_params, 1.0, 0.0))
        assert s == pytest.approx(-np.sinh(1.0) ** 2 * np.cosh(1.0) ** 2, rel=1e-10)

    def test_initial_state_never_entangled(self, make_params):
        # at tau = 0, S = S0 = n1 n2 (n1+1)(n2+1) >= 0
        for temp in (0.0, 10.0, 300.0):
            s = separability_indicator(
                covariance_matrix(make_params(y=0.2), 0.0, temp)
            )
            assert s >= 0.0


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert log_negativity(CovarianceMatrix.vacuum()) == 0.0

    def test_tmsv_r1(self):
        assert log_negativity(tmsv_cm(1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_thermal_product_zero(self):
        assert log_negativity(thermal_product_cm(3.0, 0.4)) == 0.0


class TestPhysicality:
    def test_vacuum(self):
        assert physicality_check(CovarianceMatrix.vacuum())

    def test_below_vacuum_noise(self):
        assert not physicality_check(CovarianceMatrix(0.25 * np.eye(4)))

    def test_negative_definite(self):
        assert not physicality_check(CovarianceMatrix(-np.eye(4)))

    def test_pdc_grid(self, make_params):
        # extended precision: float64 entry quantization alone pushes the
        # degenerate vacuum-seeded spectrum past the 1e-9 slack near tau=5
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (0.0, 50.0, 300.0):
                for tau in np.linspace(0.0, 5.0, 11):
                    cm = covariance_matrix(
                        params, np.longdouble(tau), np.longdouble(temp)
                    )
                    assert physicality_check(cm)


class TestEntanglementReport:
    def test_verdict_matches_indicator_sign(self, make_params):
        for y, tau, temp in [
            (0.0, 1.0, 0.0),
            (0.5, 2.881, 300.0),
            (0.3, 2.881, 300.0),
            (0.0, 0.0, 200.0),
        ]:
            rep = entanglement_report(covariance_matrix(make_params(y=y), tau, temp))
            assert rep.entangled == (rep.s < 0.0)
            inv = symplectic_invariants(covariance_matrix(make_params(y=y), tau, temp))
            if inv.nu_plus_pt > 0.5 + 1e-9:
                assert rep.entangled == (rep.log_negativity > 0.0)
                assert rep.entangled == (rep.nu_minus_pt < 0.5)


class TestPairRoute:
    """Matrices from covariance_matrix carry their pair state and take the
    cancellation-free route; a matrix rebuilt from its entries takes the
    generic 4x4 route."""

    @pytest.mark.parametrize("tau", [5.0, 20.0, 50.0, 100.0, 150.0])
    def test_squeezed_vacuum_log_negativity_at_large_tau(self, reference_params, tau):
        report = entanglement_report(covariance_matrix(reference_params, tau, 0.0))
        assert report.entangled
        assert report.log_negativity == pytest.approx(2.0 * tau, rel=1e-9)

    def test_routes_agree_on_invariant_conservation_grid(self, make_params):
        # the grid of acceptance criterion 04, in extended precision
        misses = []
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (0.0, 50.0, 300.0):
                for tau in np.linspace(0.0, 5.0, 50):
                    cm = covariance_matrix(
                        params, np.longdouble(tau), np.longdouble(temp)
                    )
                    assert cm.pair is not None
                    generic_cm = CovarianceMatrix(cm.entries)
                    assert generic_cm.pair is None
                    assert np.array_equal(generic_cm.entries, cm.entries)
                    pair = symplectic_invariants(cm)
                    generic = symplectic_invariants(generic_cm)
                    correlation = (pair.delta_tilde - pair.i2) / 4.0
                    scales = {
                        "i1": pair.i1,
                        "i2": pair.i2,
                        "s0": pair.i1 + pair.i2 / 4.0 + 1.0 / 16.0,
                        "s": pair.s0 + correlation,
                        "delta_tilde": pair.delta_tilde,
                        "nu_minus_pt": pair.nu_minus_pt,
                        "nu_plus_pt": pair.nu_plus_pt,
                    }
                    for name, scale in scales.items():
                        diff = abs(getattr(pair, name) - getattr(generic, name))
                        if not diff <= 1e-9 * scale:
                            misses.append((y, temp, float(tau), name, float(diff)))
        assert misses == []

    def test_pair_state_stays_out_of_repr(self, reference_params):
        cm = covariance_matrix(reference_params, 1.0, 10.0)
        assert repr(cm) == repr(CovarianceMatrix(cm.entries))

    def test_overflow_past_float_range_raises(self, reference_params):
        # m(m+1)K^2 overflows a double from tau ~ 177 on at y = 0, T = 0
        cm = covariance_matrix(reference_params, 200.0, 0.0)
        for measure in (symplectic_invariants, entanglement_report, log_negativity):
            with pytest.raises(NumericalDomainError):
                measure(cm)


class TestGenericRouteGuard:
    """A matrix built from entries alone takes the generic route, which
    refuses once the rounding of its entries can move E_N by more than
    GENERIC_EN_TOL."""

    @pytest.mark.parametrize("y", [0.0, 0.5])
    @pytest.mark.parametrize("temp", [0.0, 300.0])
    def test_refuses_at_large_tau(self, make_params, y, temp):
        # here the generic route used to report E_N = 0 and "separable"
        # for states with E_N between 29 and 40
        cm = covariance_matrix(make_params(y=y), 20.0, temp)
        generic = CovarianceMatrix(cm.entries)
        for measure in (symplectic_invariants, entanglement_report, log_negativity):
            with pytest.raises(NumericalDomainError, match="generic route"):
                measure(generic)

    def test_right_or_refused(self, make_params):
        # float64 entries: every answer the generic route gives agrees with
        # the pair route within a few GENERIC_EN_TOL; it answers every tau
        # up to 4 and starts refusing at tau = 4.25 (y = 0) to 7.75 (y = 0.9)
        refused = 0
        for y in (0.0, 0.5, 0.9):
            params = make_params(y=y)
            for temp in (0.0, 50.0, 300.0):
                for tau in np.arange(0.0, 12.01, 0.25):
                    cm = covariance_matrix(params, float(tau), temp)
                    try:
                        e_n = log_negativity(CovarianceMatrix(cm.entries))
                    except NumericalDomainError:
                        assert tau > 4.0
                        refused += 1
                        continue
                    assert abs(e_n - log_negativity(cm)) <= 1e-8
        assert refused > 0

    def test_refuses_non_positive_determinant(self):
        # det(sigma) <= 0 is no physical state; the route no longer returns NaN
        with pytest.raises(NumericalDomainError):
            symplectic_invariants(CovarianceMatrix(np.diag([1.0, -0.5, 0.5, 0.5])))
