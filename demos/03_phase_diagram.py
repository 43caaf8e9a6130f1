"""Separable/entangled phase boundary and the photon-number witness.

For a fixed interaction time there is a critical temperature above which
the output turns separable; larger mismatch means a colder boundary.
An experiment that only counts photons sees almost the same boundary:
the witness w = sqrt(S0) - <n> changes sign close to T_c.  Its sign is
one-sided: w >= 0 certifies separability, and every entangled state has
w < 0, but a negative w alone proves nothing.
"""

import numpy as np

import pdc_entanglement as pe

NU1 = 3.12e10
G = np.pi * 1e-2 * NU1
TAU = 2.881

base = pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=0.0)

points = pe.phase_boundary(base, TAU, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
print(f"phase boundary at tau = {TAU} (entangled below T_c):")
print(f"{'y':>6} {'T_c [K]':>10}")
for point in points:
    print(f"{point.y:6.1f} {point.t_c:10.2f}")

print("\nroom temperature (300 K) verdicts along the boundary:")
for point in points:
    params = pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=point.y)
    cm = pe.covariance_matrix(params, TAU, 300.0)
    verdict = "entangled" if pe.entanglement_report(cm).entangled else "separable"
    print(f"  y = {point.y:.1f}: {verdict}")

print("\nwitness sign change vs critical temperature:")
for y in (0.0, 0.5, 0.7):
    params = pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=y)
    t_c = pe.critical_temperature(params, TAU)
    lo, hi = 1.0, 2000.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pe.witness(params, TAU, mid).w < 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    print(f"  y = {y:.1f}: T_c = {t_c:8.3f} K, w = 0 at {crossing:8.3f} K "
          f"(relative gap {abs(crossing - t_c) / t_c:.2e})")
