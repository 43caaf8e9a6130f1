"""Entanglement build-up along the interaction time.

At zero temperature the two modes are entangled from the first instant.
Seeding the interaction with thermal photons delays the onset: the pair
correlations |det gamma| must first overtake the thermal threshold S0.
This script sweeps tau at a fixed mismatch and temperature and watches
the indicator S change sign exactly at the predicted birth time.
"""

import numpy as np

import pdc_entanglement as pe

NU1 = 3.12e10
G = np.pi * 1e-2 * NU1

params = pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=0.5)
temperature = 300.0

init = pe.thermal_init(params, temperature)
print(f"thermal seed at {temperature} K: nbar1 = {init.nbar1:.2f}, "
      f"nbar2 = {init.nbar2:.2f}")

bte = pe.birth_time(params, temperature)
print(f"predicted birth time of entanglement: tau_E = {bte.tau_e:.4f}\n")

print(f"{'tau':>6} {'S':>12} {'E_N':>10} {'witness':>12}  verdict")
for tau in np.arange(0.0, 6.5, 0.5):
    cm = pe.covariance_matrix(params, float(tau), temperature)
    report = pe.entanglement_report(cm)
    wit = pe.witness(params, float(tau), temperature)
    verdict = "entangled" if report.entangled else "separable"
    print(f"{tau:6.2f} {report.s:12.3e} {report.log_negativity:10.4f} "
          f"{wit.w:12.3e}  {verdict}")

# the sign flip brackets tau_E
eps = 1e-6
before = pe.entanglement_report(
    pe.covariance_matrix(params, bte.tau_e - eps, temperature)
).s
after = pe.entanglement_report(
    pe.covariance_matrix(params, bte.tau_e + eps, temperature)
).s
print(f"\nS(tau_E - 1e-6) = {before:+.3e}, S(tau_E + 1e-6) = {after:+.3e}")
