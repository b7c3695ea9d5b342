"""The principal eigenpair by two unrelated algorithms, plus refinement.

Normalized power iteration on eight semigroup steps and Howard policy
iteration with a Perron inner solve must land on the same (rho, phi);
grid refinement shows the discrete eigenvalues settling down.
"""

import numpy as np

from nisio import build_generator, solve_evolution, solve_policy_iteration
from nisio import problems

spec = problems.torus_two_control(64)
gen = build_generator(spec)

# the min and the max envelope's pairs, from one loop over both orbits
pe, beta = solve_evolution(gen, senses=("minimize", "maximize"))
pp = solve_policy_iteration(gen)
print(f"evolution solve      : rho = {pe.rho:.12f}  residual {pe.residual:.1e} "
      f"({pe.stats.n_iterations} iterations of 8 Euler steps)")
print(f"policy iteration     : rho = {pp.rho:.12f}  residual {pp.residual:.1e} "
      f"({pp.policy_iterations} sweeps)")
print(f"method disagreement  : {abs(pe.rho - pp.rho):.2e}")

print(f"max-version pair     : beta = {beta.rho:.12f} (beta >= rho: "
      f"{beta.rho >= pe.rho})")

switches = int(np.sum(np.diff(pe.policy) != 0))
print(f"optimal policy       : {np.bincount(pe.policy)} nodes per control, "
      f"{switches} switch points")

print("\ngrid refinement (uncontrolled cosine potential):")
prev = None
for n in (32, 64, 128, 256):
    rho = solve_evolution(build_generator(problems.torus_cosine(n))).rho
    delta = "" if prev is None else f"  |change| = {abs(rho - prev):.2e}"
    print(f"  n = {n:3d}: rho = {rho:.10f}{delta}")
    prev = rho
