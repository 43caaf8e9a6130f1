"""Birth time of entanglement against temperature and against mismatch.

Two trends: hotter media need longer interaction before the break-even
(more uncorrelated photons to outgrow), and a larger phase mismatch slows
the pair production (squeezing rate x = sqrt(1 - y^2) shrinks), which
also pushes the onset later.
"""

import numpy as np

import pdc_entanglement as pe

NU1 = 3.12e10
G = np.pi * 1e-2 * NU1


def params_for(y):
    return pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=y)


base = params_for(0.0)

# one array call per curve: birth_time takes an array of temperatures, or
# an array of mismatches passed next to the temperature as y
temps = np.array([0.0, 50.0, 100.0, 200.0, 300.0, 400.0])
curves = [pe.birth_time(base, temps, y=y).tau_e for y in (0.0, 0.5, 0.9)]
print("tau_E vs temperature (columns: y = 0, 0.5, 0.9)")
print(f"{'T [K]':>8} {'y=0':>9} {'y=0.5':>9} {'y=0.9':>9}")
for temp, *row in zip(temps, *curves):
    print(f"{temp:8.0f} {row[0]:9.4f} {row[1]:9.4f} {row[2]:9.4f}")

mismatches = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99])
curves = [pe.birth_time(base, temp, y=mismatches).tau_e for temp in (50.0, 150.0, 300.0)]
print("\ntau_E vs mismatch (columns: T = 50, 150, 300 K)")
print(f"{'y':>8} {'50 K':>9} {'150 K':>9} {'300 K':>9}")
for y, *row in zip(mismatches, *curves):
    print(f"{y:8.2f} {row[0]:9.4f} {row[1]:9.4f} {row[2]:9.4f}")

# the bisection solves the same m = m* with the same sinh(x tau)/x, so it
# checks only the asinh inversion of the closed form
closed = pe.birth_time(params_for(0.7), 300.0, method="closed_form")
bisect = pe.birth_time(params_for(0.7), 300.0, method="bisection")
print(f"\ncross-check at (y=0.7, 300 K): closed form {closed.tau_e:.10f}, "
      f"bisection {bisect.tau_e:.10f}")
