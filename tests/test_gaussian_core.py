import ast
import copy
import dataclasses
import math
import pickle
import re
import sys
import threading
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from pdc_entanglement import gaussian_core
from pdc_entanglement.pdc_dynamics import _occupations, _pair_threshold
from pdc_entanglement import (
    CovarianceMatrix,
    NumericalDomainError,
    ValidationError,
    covariance_matrix,
    entanglement_report,
    evolve_moments_ode,
    log_negativity,
    physicality_check,
    symplectic_invariants,
    witness,
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

    @pytest.mark.parametrize(
        "entries, dtype",
        [(np.eye(4) * (0.5 + 1j), "complex128"), (np.full((4, 4), "0.5"), "<U3")],
        ids=["complex", "str"],
    )
    def test_rejects_entries_that_are_not_real_numbers(self, entries, dtype):
        # numpy's float64 copy would cut a complex matrix to its real part
        # with a ComplexWarning, and raise UFuncTypeError on strings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"real numbers, got dtype {dtype}$"):
                CovarianceMatrix(entries)

    def test_accepts_large_finite_longdouble(self):
        big = np.longdouble("1e300") * np.eye(4, dtype=np.longdouble)
        assert CovarianceMatrix(big).entries[3, 3] == float(big[3, 3])

    def test_symmetry_bound_scales_with_the_largest_entry(self):
        # off by at most 1e-12 max(1, largest |entry|): 5e-9 passes at 1e4,
        # not at 1
        big, small = 1e4 * np.eye(4), 0.5 * np.eye(4)
        big[0, 2] = small[0, 2] = 5e-9
        CovarianceMatrix(big)
        with pytest.raises(ValidationError, match="not symmetric"):
            CovarianceMatrix(small)

    def test_entries_read_only(self):
        cm = CovarianceMatrix(0.5 * np.eye(4))
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 1.0

    def test_equality_is_identity(self):
        # the generated __eq__ compared the entries arrays inside a tuple
        # and raised numpy's ambiguous-truth ValueError
        cm = CovarianceMatrix(0.5 * np.eye(4))
        assert cm == cm
        assert cm != CovarianceMatrix(0.5 * np.eye(4))
        assert len({cm, cm}) == 1

    @pytest.mark.parametrize(
        "entries",
        [np.eye(4, dtype=np.longdouble) / 2, np.eye(4, dtype=int)],
        ids=["longdouble", "int"],
    )
    def test_entries_are_float64(self, entries):
        cm = CovarianceMatrix(entries)
        assert cm.entries.dtype == np.float64
        assert np.array_equal(cm.entries, entries.astype(np.float64))


class TestSymplecticInvariants:
    def test_vacuum_boundary_exact(self):
        inv = symplectic_invariants(CovarianceMatrix(0.5 * np.eye(4)))
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

    def test_degenerate_pt_spectrum_stays_ordered(self):
        # 0.6 I under local rotations by 0.1 and 0.2: the discriminant
        # rounds below 0 and is clamped, and nu_minus_pt used to come out
        # one ulp above nu_plus_pt
        rot = np.zeros((4, 4))
        for at, angle in ((0, 0.1), (2, 0.2)):
            c, s = np.cos(angle), np.sin(angle)
            rot[at:at + 2, at:at + 2] = [[c, -s], [s, c]]
        inv = symplectic_invariants(CovarianceMatrix(rot @ (0.6 * np.eye(4)) @ rot.T))
        assert inv.delta_tilde * inv.delta_tilde - 4.0 * inv.i1 < 0.0
        assert inv.nu_minus_pt <= inv.nu_plus_pt
        assert inv.nu_plus_pt == pytest.approx(0.6, rel=1e-15)
        assert inv.log_negativity == 0.0

    def test_s_definition_matches_stated_combination(self, make_params):
        cm = covariance_matrix(make_params(y=0.3), 1.7, 120.0)
        inv = symplectic_invariants(cm)
        det_gamma = np.linalg.det(cm.entries[:2, 2:])
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
        assert symplectic_invariants(CovarianceMatrix(0.5 * np.eye(4))).s == 0.0

    def test_pdc_point(self, reference_params):
        s = symplectic_invariants(covariance_matrix(reference_params, 1.0, 0.0)).s
        assert s == pytest.approx(-np.sinh(1.0) ** 2 * np.cosh(1.0) ** 2, rel=1e-10)

    def test_initial_state_never_entangled(self, make_params):
        # at tau = 0, S = S0 = n1 n2 (n1+1)(n2+1) >= 0
        for temp in (0.0, 10.0, 300.0):
            s = symplectic_invariants(
                covariance_matrix(make_params(y=0.2), 0.0, temp)
            ).s
            assert s >= 0.0


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert log_negativity(CovarianceMatrix(0.5 * np.eye(4))) == 0.0

    def test_tmsv_r1(self):
        assert log_negativity(tmsv_cm(1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_thermal_product_zero(self):
        assert log_negativity(thermal_product_cm(3.0, 0.4)) == 0.0


class TestPhysicality:
    def test_vacuum(self):
        assert physicality_check(CovarianceMatrix(0.5 * np.eye(4)))

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


def leibniz_det(rows):
    """Determinant over exact rationals by the Leibniz sum."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def reference_physicality(entries):
    """Positive definite (every leading minor > 0) and both symplectic
    eigenvalues >= 1/2 - 1e-9, in Fractions: nu^2 are the roots of
    z^2 - I2 z + I1, so with t^2 = (1/2 - 1e-9)^2 that is q(t^2) >= 0
    and I2 >= 2 t^2."""
    rows = [[Fraction(v) for v in row] for row in entries.tolist()]
    if any(leibniz_det([row[:k] for row in rows[:k]]) <= 0 for k in range(1, 5)):
        return False

    def block(r, c):
        return leibniz_det([row[c:c + 2] for row in rows[r:r + 2]])

    i2 = block(0, 0) + block(2, 2) + 2 * block(0, 2)
    t_sq = (Fraction(1, 2) - Fraction(1, 10**9)) ** 2
    return t_sq * t_sq - i2 * t_sq + leibniz_det(rows) >= 0 and i2 >= 2 * t_sq


def two_mode_squeezer(r):
    c, s = np.cosh(r), np.sinh(r)
    return np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])


def physicality_cases():
    rng = np.random.default_rng(23)
    cases = [0.5 * np.eye(4), 0.25 * np.eye(4), -np.eye(4), np.zeros((4, 4))]
    # exactly singular: equal first rows (second minor 0), and a rank-3
    # integer Gram matrix whose first three minors are positive
    cases.append(np.array([[1.0, 1.0, 0, 0], [1.0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]))
    vecs = np.array([[1.0, 0, 0, 1.0], [0, 1.0, 0, 2.0], [0, 0, 1.0, 3.0]])
    cases.append(vecs.T @ vecs)
    # on the 1/2 - 1e-9 threshold and one ulp to either side, thermal and
    # squeezed
    nu = 0.5 - 1e-9
    for value in (np.nextafter(nu, 0.0), nu, np.nextafter(nu, 1.0)):
        for r in (0.0, 0.3, 1.5):
            sq = two_mode_squeezer(r)
            cases.append(value * sq @ sq.T)
    # seeded: positive definite around the floor, and indefinite
    for _ in range(150):
        m = rng.normal(size=(4, 4)) * rng.uniform(0.2, 1.2)
        cases.append(m @ m.T + rng.uniform(0.01, 0.3) * np.eye(4))
    for _ in range(30):
        m = rng.normal(size=(4, 4))
        cases.append(m + m.T)
    return [CovarianceMatrix(c) for c in cases]


def test_physicality_check_matches_leibniz_reference():
    verdicts = []
    for cm in physicality_cases():
        verdict = physicality_check(cm)
        assert verdict is reference_physicality(cm.entries)
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < len(verdicts) - 20  # both verdicts are exercised


def spectrum_matrices():
    """2000 seeded positive-definite matrices around a symplectic floor of
    0.45."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = rng.normal(size=(4, 4)) * rng.uniform(0.2, 1.2)
        yield m @ m.T + rng.uniform(0.01, 0.3) * np.eye(4)


def spectrum_at_least_045(sigma):
    i1 = symplectic_invariants(CovarianceMatrix(sigma)).i1
    return gaussian_core._spectrum_at_least(sigma, i1, 0.45**2)


def test_spectrum_sign_test_matches_symplectic_spectrum():
    # the sign test physicality_check runs on rationals, here in float64
    # with the Schur-complement det(sigma) of the generic route, against a
    # direct reference: the symplectic eigenvalues of sigma are the moduli
    # of the eigenvalues of i Omega sigma
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    passed = 0
    for sigma in spectrum_matrices():
        nu_min = np.abs(np.linalg.eigvals(1j * omega @ sigma)).min()
        assert spectrum_at_least_045(sigma) == (nu_min >= 0.45)
        passed += nu_min >= 0.45
    assert 200 < passed < 1800  # both verdicts are exercised


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

    def test_ode_end_point_verdict_is_the_closed_forms(self, make_params):
        # an ODE end point carries no pair state: the generic route answers
        # it and its verdict is S < 0, which away from the boundary (m/m*
        # at least 6, or at most 0.73, here) is the closed form's m > m*
        verdicts = []
        for y, tau, temp in [
            (0.0, 1.0, 0.0),
            (0.5, 1.5, 0.0),
            (0.9, 4.543, 50.0),
            (0.5, 2.881, 300.0),
            (0.9, 0.5, 300.0),
            (0.0, 2.0, 600.0),
        ]:
            params = make_params(y=y)
            end = evolve_moments_ode(params, tau, temp).final()
            assert end.pair is None
            closed = entanglement_report(covariance_matrix(params, tau, temp))
            assert entanglement_report(end).entangled == closed.entangled
            verdicts.append(closed.entangled)
        assert verdicts == [True] * 3 + [False] * 3


class TestPairRoute:
    """Matrices from covariance_matrix carry their pair state and take the
    cancellation-free route; a matrix rebuilt from its entries takes the
    generic 4x4 route."""

    @pytest.mark.parametrize("tau", [5.0, 20.0, 50.0, 100.0, 150.0])
    def test_squeezed_vacuum_log_negativity_at_large_tau(self, reference_params, tau):
        report = entanglement_report(covariance_matrix(reference_params, tau, 0.0))
        assert report.entangled
        assert report.log_negativity == pytest.approx(2.0 * tau, rel=1e-9)

    def test_pair_state_stays_out_of_repr(self, reference_params):
        cm = covariance_matrix(reference_params, 1.0, 10.0)
        assert cm.pair is not None
        generic_cm = CovarianceMatrix(cm.entries)
        assert generic_cm.pair is None
        assert np.array_equal(generic_cm.entries, cm.entries)
        assert repr(cm) == repr(generic_cm)

    def test_overflow_past_float_range_raises(self, reference_params):
        # m(m+1)K^2 overflows a double from tau ~ 177 on at y = 0, T = 0
        cm = covariance_matrix(reference_params, 200.0, 0.0)
        for measure in (symplectic_invariants, entanglement_report, log_negativity):
            with pytest.raises(NumericalDomainError):
                measure(cm)


class TestPairConstructor:
    """covariance_matrix builds its matrix without the checks of the public
    constructor; the entries are the ones those checks would store."""

    def sweep(self, make_params):
        rng = np.random.default_rng(1101)
        points = [(0.0, 20.0, 0.0), (1.0 - 1e-15, 20.0, 600.0), (1.0 - 1e-15, 1.0, 0.0)]
        for _ in range(200):
            points.append((0.99 * rng.random(), 20.0 * rng.random(), 600.0 * rng.random()))
        for y, tau, temp in points:
            yield covariance_matrix(make_params(y=y), tau, temp)

    def test_entries_are_what_the_checks_would_store(self, make_params):
        for cm in self.sweep(make_params):
            checked = CovarianceMatrix(cm.entries).entries
            assert cm.entries.dtype == np.float64 and cm.entries.shape == (4, 4)
            assert cm.entries.tobytes() == checked.tobytes()
            assert not cm.entries.flags.writeable
            assert cm.entries.base is None or not cm.entries.base.flags.writeable
            with pytest.raises(ValueError):
                cm.entries[0, 0] = 0.0

    def test_covariance_matrix_skips_the_checks(self, reference_params, monkeypatch):
        calls = []
        checked_entries = gaussian_core._checked_entries

        def counting(arr):
            calls.append(arr)
            return checked_entries(arr)

        monkeypatch.setattr(gaussian_core, "_checked_entries", counting)
        cm = covariance_matrix(reference_params, 2.881, 300.0)
        assert calls == []
        CovarianceMatrix(cm.entries)  # the counter sees the public constructor
        assert len(calls) == 1

    def test_only_covariance_matrix_calls_it(self):
        # every reference to the private constructor in the package source
        # sits inside pdc_dynamics._pair_matrix, the matrix reader of a pair
        # state, and that reader is called only where the pair state was
        # just built by _pair_state: in covariance_matrix and in eval
        package = Path(gaussian_core.__file__).parent

        def sites(attr):
            return [
                (path.name, function)
                for path in sorted(package.glob("*.py"))
                for function in enclosing_functions(ast.parse(path.read_text()), attr)
            ]

        assert sites("_of_pair") == [("pdc_dynamics.py", "_pair_matrix")]
        assert sites("_pair_matrix") == [
            ("cli.py", "cmd_eval"),
            ("pdc_dynamics.py", "covariance_matrix"),
        ]


class TestBothKindsOfMatrix:
    """A matrix from covariance_matrix keeps its four distinct entries and
    forms the 4x4 array on its first read; it is the same class, with the
    same invariants, as a matrix built from entries."""

    def kinds(self, make_params):
        rng = np.random.default_rng(1103)
        for _ in range(20):
            y, tau, temp = 0.99 * rng.random(), 20.0 * rng.random(), 600.0 * rng.random()
            cm = covariance_matrix(make_params(y=y), tau, temp)
            generic = CovarianceMatrix(np.array(cm.entries))
            yield covariance_matrix(make_params(y=y), tau, temp), generic

    def test_same_class_and_repr(self, make_params):
        for cm, generic in self.kinds(make_params):
            assert type(cm) is CovarianceMatrix and type(generic) is CovarianceMatrix
            assert "entries" not in vars(cm)
            assert repr(cm) == repr(generic)  # repr reads the entries
            assert cm.entries.tobytes() == generic.entries.tobytes()

    def test_frozen_and_read_only(self, make_params):
        for cm, generic in self.kinds(make_params):
            for matrix in (cm, generic):
                for name in ("entries", "pair"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(matrix, name, np.eye(4))
                entries = matrix.entries
                assert entries is matrix.entries  # formed once
                assert entries.dtype == np.float64 and entries.shape == (4, 4)
                assert not entries.flags.writeable
                with pytest.raises(ValueError):
                    entries[0, 0] = 0.0
            assert cm == cm and cm != generic  # == is identity

    def test_pickle_and_deepcopy_keep_bits_and_route(self, make_params):
        # the pair state holds numbers and the params alone, so both kinds
        # of matrix copy, before and after the first read of the entries
        for cm, generic in self.kinds(make_params):
            report = entanglement_report(cm)
            for matrix in (cm, generic, cm):  # cm again, its entries formed
                for copied in (pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix)):
                    assert copied.entries.tobytes() == matrix.entries.tobytes()
                    assert (copied.pair is None) == (matrix.pair is None)
                    if matrix is cm:
                        assert copied.pair == cm.pair
                        assert entanglement_report(copied) == report

    def test_an_unknown_attribute_is_an_attribute_error(self, reference_params):
        cm = covariance_matrix(reference_params, 2.881, 300.0)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cm.nope  # noqa: B018
        assert not hasattr(CovarianceMatrix.__new__(CovarianceMatrix), "entries")

    def test_threads_that_form_one_array_read_the_same_bits(self, make_params):
        pairs = list(self.kinds(make_params)) * 10
        seen = [[] for _ in range(8)]

        def read(out):
            out.extend(cm.entries for cm, _ in pairs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in seen:
            assert len(out) == len(pairs)
            for entries, (cm, generic) in zip(out, pairs):
                assert not entries.flags.writeable
                assert entries.tobytes() == generic.entries.tobytes() == cm.entries.tobytes()

    def test_readers_of_the_verdict_do_not_form_the_array(self, make_params, monkeypatch):
        formed = []
        form = CovarianceMatrix.__getattr__

        def counting(cm, name):
            formed.append(name)
            return form(cm, name)

        monkeypatch.setattr(CovarianceMatrix, "__getattr__", counting)
        for y, tau, temp in [(0.0, 2.881, 300.0), (0.5, 20.0, 0.0), (0.9, 0.0, 600.0)]:
            params = make_params(y=y)
            cm = covariance_matrix(params, tau, temp)
            symplectic_invariants(cm)
            entanglement_report(cm)
            log_negativity(cm)
            assert physicality_check(cm)
            witness(params, tau, temp)
            assert formed == [] and "entries" not in vars(cm)
            cm.entries  # noqa: B018
            cm.entries  # noqa: B018
            assert formed == ["entries"]  # the counter sees the first read alone
            formed.clear()


@pytest.mark.parametrize("omega_bars", [(0.00754, 59113.0), (59113.0, 0.00754)])
def test_pair_threshold_keeps_the_bits_of_a_subnormal_occupation(make_params, omega_bars):
    # at 0.624 K the high mode's occupation is 9.5e-309, below the normal
    # range, and K = 1.1e4: divided by K first it lost about 1800 ulps
    params = make_params(y=0.657, omega1_bar=omega_bars[0], omega2_bar=omega_bars[1])
    nbar1, nbar2 = _occupations(params, 0.624)
    assert min(nbar1, nbar2) < sys.float_info.min < 1e4 < max(nbar1, nbar2)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(nbar1) * Decimal(nbar2) / (Decimal(nbar1) + Decimal(nbar2) + 1)
    m_star = _pair_threshold(nbar1, nbar2)
    assert type(m_star) is float
    assert abs(Decimal(m_star) - exact) <= 2 * Decimal(math.ulp(m_star))
    swapped = _pair_threshold(nbar2, nbar1)
    arrays = _pair_threshold(np.array([nbar1, nbar2]), np.array([nbar2, nbar1]))
    assert swapped == m_star and arrays.tolist() == [m_star, m_star]


def enclosing_functions(node, attr, function=None):
    """Name of the innermost function around each ``.attr`` or bare ``attr``
    in the tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (
        isinstance(node, ast.Attribute) and node.attr == attr
        or isinstance(node, ast.Name) and node.id == attr
    ):
        yield function
    for child in ast.iter_child_nodes(node):
        yield from enclosing_functions(child, attr, function)


def test_four_functions_pick_the_library():
    # math or numpy is picked once per call, where the call converts its
    # inputs; the readers of the pair state follow the type of its
    # occupations
    package = Path(gaussian_core.__file__).parent
    sites = [
        (path.name, function)
        for path in sorted(package.glob("*.py"))
        for function in enclosing_functions(ast.parse(path.read_text()), "_working")
    ]
    assert sites == [
        ("gaussian_core.py", "log_negativity"),
        ("pdc_dynamics.py", "thermal_occupation"),
        ("pdc_dynamics.py", "_pair_inputs"),
        ("pdc_dynamics.py", "_pair_state"),
    ]


def test_the_pair_route_lives_in_pdc_dynamics():
    # gaussian_core holds the generic 4x4 algebra and calls the pair
    # state's two methods; it defines and loads no name of the pair route,
    # and the CLI reaches gaussian_core through public names alone
    package = Path(gaussian_core.__file__).parent
    named = set()
    for node in ast.walk(ast.parse((package / "gaussian_core.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.asname or alias.name for alias in node.names)
    assert "CovarianceMatrix" in named  # the scan reads the module
    assert named & {"PairState", "_pair_threshold", "_pair_invariants", "_verdict"} == set()
    privates = []
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "gaussian_core" and node.attr.startswith("_"):
                privates.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gaussian_core"):
            privates += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert privates == []


def test_one_function_decides_what_a_real_number_is():
    # every entry point converts through gaussian_core._real, so no other
    # function refuses a non-real input, and none tests for complex types
    # itself
    package = Path(gaussian_core.__file__).parent
    refusing, complex_checks = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            messages = [
                node.value
                for statement in ast.walk(function)
                if isinstance(statement, ast.Raise)
                for node in ast.walk(statement)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            ]
            if any("must be a real number" in message for message in messages):
                refusing.append((path.name, function.name))
        complex_checks += [
            path.name for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "complexfloating"
        ]
    assert refusing == [("gaussian_core.py", "_real")]
    assert complex_checks == []


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

    @pytest.mark.parametrize("tau, temp", [(98.45, 0.0), (100.0, 300.0)])
    def test_refuses_entries_past_float64_determinants(self, make_params, tau, temp):
        # max|sigma| ~ 1e85 and 1e88: the determinants overflow float64, and
        # the route refuses up front instead of answering E_N = NaN
        entries = covariance_matrix(make_params(), tau, temp).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="generic route"):
                log_negativity(CovarianceMatrix(entries))

    def test_refuses_non_positive_determinant(self):
        # det(sigma) <= 0 is no physical state; the route no longer returns NaN
        with pytest.raises(NumericalDomainError):
            symplectic_invariants(CovarianceMatrix(np.diag([1.0, -0.5, 0.5, 0.5])))

    @pytest.mark.parametrize(
        "diagonal, sigma_11, schur_11",
        [((1.0, 1.0, -1.0, -1.0), "1.0", "-1.0"), ((-1.0, -1.0, 1.0, 1.0), "-1.0", "1.0")],
        ids=["negative_beta", "negative_alpha"],
    )
    def test_refuses_a_matrix_that_is_not_positive_definite(self, diagonal, sigma_11, schur_11):
        # det alpha = 1 and det sigma = 1 pass; diag(1, 1, -1, -1) used to
        # get E_N = 0 and "separable" while physicality_check said False
        cm = CovarianceMatrix(np.diag(diagonal))
        assert not physicality_check(cm)
        message = (
            f"sigma_11 = {sigma_11}, (beta - gamma^T alpha^-1 gamma)_11 = {schur_11}: "
            "not positive definite, not a CM"
        )
        for measure in (symplectic_invariants, log_negativity, entanglement_report):
            with pytest.raises(NumericalDomainError, match=re.escape(message)):
                measure(cm)

    def test_pt_pair_refuses_a_deficit_past_rounding(self):
        # no positive-definite matrix has delta^2 < 4 det(sigma), so the
        # generic route cannot send one; the pair solver still refuses it
        message = (
            "delta^2 < 4*det(sigma): covariance matrix is not a physical "
            "two-mode Gaussian state (delta=1.0, det=1.0)"
        )
        with pytest.raises(NumericalDomainError, match=re.escape(message)):
            gaussian_core._pt_eigenvalue_pair(1.0, 1.0)

    @pytest.mark.parametrize(
        "entries",
        [
            np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]),
            np.block([[np.ones((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]),
        ],
        ids=["mode_swap", "singular_alpha"],
    )
    def test_refuses_non_positive_det_alpha_up_front(self, entries):
        # no CM has det alpha < 1/4; the Schur determinant would divide by
        # det alpha = 0, so these are refused before it, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="det alpha"):
                symplectic_invariants(CovarianceMatrix(entries))
