"""Sandwich bounds on rho from arbitrary positive test functions.

Any strictly positive grid function f gives the two-sided bound
min(Gf/f) <= rho <= max(Gf/f); iterating the semigroup tightens both
sides monotonically until they pinch the eigenvalue.
"""

import numpy as np

from nisio import build_generator, cw_bounds, cw_search, solve_evolution
from nisio import problems

gen = build_generator(problems.torus_two_control(64))
pair = solve_evolution(gen)
print(f"solved rho = {pair.rho:.10f}\n")

rng = np.random.default_rng(2)
print("bounds from random positive f:")
for k in range(4):
    f = rng.uniform(0.05, 2.0, gen.size)
    rep = cw_bounds(gen, f)
    print(f"  {rep.lower:+.4f} <= rho <= {rep.upper:+.4f}")

rep = cw_bounds(gen, pair.phi)
print(f"\nat phi the bracket collapses: gap = {rep.gap:.2e}")

print("\ntightening along the semigroup orbit (every 10th iterate):")
reports = cw_search(gen, iters=50, rho=pair.rho)
for k in range(0, 51, 10):
    r = reports[k]
    print(f"  iterate {k:2d}: [{r.lower:+.6f}, {r.upper:+.6f}]  "
          f"gap {r.gap:.2e}")
