"""Brute-force backends against the closed forms.

Route one: integrate the linear second-moment equations with a classical
fixed-step 4th-order scheme and compare every covariance entry.  Route
two: evolve the full density matrix in a truncated two-mode Fock basis
and compute the entanglement from the partial-transpose trace norm,
which never touches a Gaussian formula.  Both must land on the closed
forms to their stated tolerances.
"""

import numpy as np

import pdc_entanglement as pe

NU1 = 3.12e10
G = np.pi * 1e-2 * NU1


def params_for(y):
    return pe.PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G, y=y)


print("second-moment integration vs closed-form covariance matrix")
worst = 0.0
for y in (0.0, 0.5, 0.9):
    for temp in (0.0, 50.0, 300.0):
        for tau in (0.5, 1.5, 2.881):
            traj = pe.evolve_moments_ode(params_for(y), tau, temp)
            closed = pe.covariance_matrix(params_for(y), tau, temp)
            dev = float(np.max(np.abs(traj.final().entries - closed.entries)))
            worst = max(worst, dev)
print(f"  27 parameter points, worst entrywise deviation: {worst:.3e} "
      "(tolerance 1e-8)")

print("\ntruncated-Fock partial-transpose negativity vs Gaussian E_N")
cases = [
    (0.0, 0.5, 0.0, 20),
    (0.5, 1.0, 1.2, 36),
    (0.9, 1.0, 0.8, 26),
]
for y, tau, temp, n_cut in cases:
    state = pe.evolve_fock(params_for(y), tau, temp, n_cut=n_cut, step=1e-4)
    e_fock = pe.fock_log_negativity(state)
    e_gauss = pe.log_negativity(pe.covariance_matrix(params_for(y), tau, temp))
    print(f"  y={y}, tau={tau}, T={temp} K, n_cut={n_cut}: "
          f"Fock {e_fock:.6f} vs Gaussian {e_gauss:.6f} "
          f"(diff {abs(e_fock - e_gauss):.1e}, leakage {state.leakage:.1e}, "
          f"edge population {state.edge_population:.1e})")

print("\nquadrature moments recovered from the Fock state")
state = pe.evolve_fock(params_for(0.5), 0.6, 0.8, n_cut=24, step=1e-4)
fock_cm = pe.moments_from_fock(state)
closed = pe.covariance_matrix(params_for(0.5), 0.6, 0.8)
dev = float(np.max(np.abs(fock_cm.entries - closed.entries)))
print(f"  entrywise deviation at (y=0.5, tau=0.6, T=0.8 K): {dev:.3e} "
      "(tolerance 1e-5)")
