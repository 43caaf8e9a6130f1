"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they stream; without ``-s`` pytest shows them for failures only.

Criterion 2 contains a deliberate, documented red assertion: its three
anchors are mutually inconsistent with criterion 3 under the model's own
closed forms (see the failure message), and with CODATA constants the
y = 0.9 anchor misses by E_N ~ 2.5e-3.  It is asserted as stated rather
than loosened.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import pdc_entanglement as pe
from pdc_entanglement.cli import main as cli_main

NU1_HZ = 3.12e10
G = np.pi * 1e-2 * NU1_HZ


def params_for(y=0.0, omega1_bar=200.0, omega2_bar=400.0, g=G):
    return pe.PdcParams(omega1_bar=omega1_bar, omega2_bar=omega2_bar, g=g, y=y)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_criterion_01_zero_temperature_bte():
    with criterion(1, "zero-temperature birth time is exactly zero"):
        for y in (0.0, 0.5, 0.9):
            assert pe.birth_time(params_for(y), 0.0).tau_e == 0.0


def test_criterion_02_fig3_anchors():
    with criterion(2, "fig3 anchors at tau=4.543"):
        tau = 4.543
        en_50_99 = pe.log_negativity(
            pe.covariance_matrix(params_for(0.99), tau, 50.0)
        )
        assert en_50_99 > 1e-6
        en_300_95 = pe.log_negativity(
            pe.covariance_matrix(params_for(0.95), tau, 300.0)
        )
        assert en_300_95 == 0.0
        en_300_90 = pe.log_negativity(
            pe.covariance_matrix(params_for(0.9), tau, 300.0)
        )
        # Known-red anchor: requiring E_N = 0 here demands an entanglement
        # threshold m*(300 K) >= m(0.9, 4.543) = 66.45050, while criterion 3
        # demands m*(300 K) < m(0.3, 2.881) = 66.44641 -- no thermal
        # occupation model satisfies both.  With CODATA constants m* =
        # 66.2853, the state is (barely) entangled and E_N = 2.5e-3; the
        # true zero crossing sits at y = 0.9002.  See the README section
        # "Tests and acceptance suite".
        assert en_300_90 == 0.0, (
            f"E_N(300 K, y=0.9, tau=4.543) = {en_300_90:.6e}, not 0: this "
            "anchor is mathematically incompatible with criterion 3"
        )


def test_criterion_03_fig4_anchor_and_boundary():
    with criterion(3, "fig4 anchor: entangled at (300 K, y=0.3), T_c decreasing"):
        s = pe.symplectic_invariants(
            pe.covariance_matrix(params_for(0.3), 2.881, 300.0)
        ).s
        assert s < 0.0
        points = pe.phase_boundary(
            params_for(), 2.881, [round(0.1 * k, 1) for k in range(8)]
        )
        assert len(points) == 8
        t_values = [p.t_c for p in points]
        assert all(b < a for a, b in zip(t_values, t_values[1:]))


def test_criterion_04_invariant_conservation():
    with criterion(4, "I1, I2 conserved to 1e-9 relative over tau in [0, 5]"):
        worst = 0.0
        for y in (0.0, 0.5, 0.9):
            params = params_for(y)
            for temp in (0.0, 50.0, 300.0):
                ref = pe.symplectic_invariants(
                    pe.covariance_matrix(
                        params, np.longdouble(0.0), np.longdouble(temp)
                    )
                )
                for tau in np.linspace(0.0, 5.0, 50):
                    inv = pe.symplectic_invariants(
                        pe.covariance_matrix(
                            params, np.longdouble(tau), np.longdouble(temp)
                        )
                    )
                    worst = max(
                        worst,
                        abs(float(inv.i1 / ref.i1 - 1.0)),
                        abs(float(inv.i2 / ref.i2 - 1.0)),
                    )
        assert worst < 1e-9, f"worst relative drift {worst:.3e}"


def test_criterion_05_s0_identity_random_draws():
    with criterion(5, "S0 equals I1 - I2/4 + 1/16 on 100 random draws"):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            temp = rng.uniform(1.0, 600.0)
            params = params_for(
                0.0,
                omega1_bar=rng.uniform(50.0, 400.0),
                omega2_bar=rng.uniform(50.0, 400.0),
            )
            init = pe.thermal_init(params, temp)
            direct = pe.s0_threshold(init.nbar1, init.nbar2)
            inv = pe.symplectic_invariants(
                pe.covariance_matrix(params, 0.0, temp)
            )
            assert inv.s0 == pytest.approx(direct, rel=1e-10)


def test_criterion_06_photon_difference_integral():
    with criterion(6, "photon difference conserved to 1e-9 over the grid"):
        for y in (0.0, 0.5, 0.9):
            params = params_for(y)
            for temp in (0.0, 50.0, 300.0):
                init = pe.thermal_init(params, temp)
                diff0 = init.nbar1 - init.nbar2
                for tau in np.linspace(0.0, 5.0, 26):
                    n1, n2 = pe.mean_photon_numbers(params, float(tau), temp)
                    assert abs(float(n1 - n2) - diff0) < 1e-9


def test_criterion_07_criterion_equivalence():
    with criterion(7, "sign(S), E_N > 0 and nu_minus < 1/2 always agree"):
        checked = 0
        for y in (0.0, 0.3, 0.5, 0.7, 0.9, 0.99):
            params = params_for(y)
            for temp in (0.0, 10.0, 50.0, 150.0, 300.0, 600.0):
                for tau in np.linspace(0.0, 5.0, 28):
                    inv = pe.symplectic_invariants(
                        pe.covariance_matrix(params, float(tau), temp)
                    )
                    if not inv.nu_plus_pt > 0.5 + 1e-9:
                        continue
                    checked += 1
                    from_s = inv.s < 0.0
                    from_en = max(0.0, -np.log(2 * inv.nu_minus_pt)) > 0.0
                    from_nu = inv.nu_minus_pt < 0.5
                    assert from_s == from_en == from_nu
        assert checked >= 1000, f"only {checked} grid points qualified"


def test_criterion_08_moment_oracle_equivalence():
    with criterion(8, "closed-form CM matches RK4 integration to 1e-8"):
        points = 0
        for y in (0.0, 0.5, 0.9):
            params = params_for(y)
            for temp in (0.0, 50.0, 300.0):
                for tau in (0.5, 1.5, 2.881):
                    traj = pe.evolve_moments_ode(params, tau, temp)
                    closed = pe.covariance_matrix(params, tau, temp)
                    dev = float(
                        np.max(np.abs(traj.final().entries - closed.entries))
                    )
                    assert dev <= 1e-8, f"(y={y}, T={temp}, tau={tau}): {dev:.3e}"
                    points += 1
        assert points >= 27


def test_criterion_09_fock_negativity_equivalence():
    with criterion(9, "Gaussian E_N matches Fock partial transpose to 1e-3"):
        # temperatures chosen for nbar <= 0.5 at the reference frequencies
        cases = [
            (0.0, 0.5, 0.0, 20),
            (0.0, 1.0, 0.0, 30),
            (0.5, 1.0, 0.0, 28),
            (0.0, 0.8, 1.2, 24),
            (0.5, 1.0, 1.2, 30),
            (0.9, 1.0, 0.8, 26),
        ]
        for y, tau, temp, n_cut in cases:
            params = params_for(y)
            init = pe.thermal_init(params, temp)
            assert max(init.nbar1, init.nbar2) <= 0.5
            state = pe.evolve_fock(params, tau, temp, n_cut=n_cut)
            assert state.leakage < 1e-6
            e_fock = pe.fock_log_negativity(state)
            e_gauss = pe.log_negativity(pe.covariance_matrix(params, tau, temp))
            assert e_fock == pytest.approx(e_gauss, abs=1e-3), (
                f"(y={y}, tau={tau}, T={temp}, n_cut={n_cut})"
            )


def test_criterion_10_tmsv_limit():
    with criterion(10, "E_N = 2 tau at (y=0, T=0) to 1e-9"):
        for tau in (0.5, 1.0, 4.543):
            e_n = pe.log_negativity(pe.covariance_matrix(params_for(), tau, 0.0))
            assert e_n == pytest.approx(2.0 * tau, abs=1e-9)


def test_criterion_11_witness_consistency():
    with criterion(11, "witness sign change matches T_c within 1%"):
        for y in (0.0, 0.5, 0.7):
            params = params_for(y)
            t_c = pe.critical_temperature(params, 2.881)
            lo, hi = 1.0, 2000.0
            assert pe.witness(params, 2.881, lo).w < 0.0
            assert pe.witness(params, 2.881, hi).w > 0.0
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if pe.witness(params, 2.881, mid).w < 0.0:
                    lo = mid
                else:
                    hi = mid
            crossing = (lo + hi) / 2.0
            assert abs(crossing - t_c) / t_c < 0.01


def test_criterion_12_monotonicity_suites():
    with criterion(12, "BTE/E_N monotonicity over the default figure grids"):
        # fig1: tau_E non-decreasing in T for each default mismatch
        for y in (0.0, 0.5, 0.9):
            params = params_for(y)
            curve = [
                pe.birth_time(params, float(t)).tau_e
                for t in np.linspace(0.0, 400.0, 81)
            ]
            assert all(b >= a for a, b in zip(curve, curve[1:]))
        # fig2: tau_E non-decreasing in y for each default temperature
        for temp in (50.0, 150.0, 300.0):
            curve = [
                pe.birth_time(params_for(float(y)), temp).tau_e
                for y in np.linspace(0.0, 0.99, 100)
            ]
            assert all(b >= a for a, b in zip(curve, curve[1:]))
        # fig3: E_N non-increasing in y for each default temperature
        for temp in (0.0, 50.0, 300.0):
            curve = [
                pe.log_negativity(
                    pe.covariance_matrix(params_for(float(y)), 4.543, temp)
                )
                for y in np.linspace(0.0, 0.99, 100)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


def test_criterion_13_csv_determinism(tmp_path):
    with criterion(13, "fig commands are byte-deterministic"):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            first = tmp_path / f"{name}_a.csv"
            second = tmp_path / f"{name}_b.csv"
            assert cli_main([name, "--out", str(first)]) == 0
            assert cli_main([name, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
