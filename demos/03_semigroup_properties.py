"""Structural properties of the discrete control semigroup, checked exactly.

The explicit Euler step through the envelope of Metzler matrices keeps
order properties exact in floating point (not just up to scheme error):
monotonicity, the frozen-control envelope, positive 1-homogeneity for
power-of-two factors, and bit-exact composition of evolutions.
"""

import numpy as np

from nisio import EvolveOptions, build_generator, evolve
from nisio import problems

gen = build_generator(problems.torus_two_control(64))
rng = np.random.default_rng(1)
dt = 2.0 ** -13
opts = EvolveOptions(dt=dt, t_final=1.0)

f = rng.uniform(0.1, 1.0, gen.size)
g = f + rng.uniform(0.0, 1.0, gen.size)
sf, sg = evolve(gen, f, opts), evolve(gen, g, opts)

print(f"monotone      : f <= g  =>  S_t f <= S_t g   -> {np.all(sf <= sg)}")
print(f"homogeneous   : S_t(2f) == 2 S_t f (bitwise)  -> "
      f"{np.array_equal(evolve(gen, 2 * f, opts), 2 * sf)}")

h = rng.uniform(0.05, 2.0, gen.size)
slack = np.min(evolve(gen, f + h, opts) - (sf + evolve(gen, h, opts)))
print(f"superadditive : min slack of S(f+h) - Sf - Sh = {slack:.3e} (>= 0)")

env = all(np.all(evolve(gen.frozen(v), f, opts) >= sf)
          for v in range(gen.n_controls))
print(f"envelope      : T_t^v f >= S_t f for each v   -> {env}")

split = evolve(gen, evolve(gen, f, EvolveOptions(dt, 0.25)),
               EvolveOptions(dt, 0.75))
print(f"composition   : S_.75 S_.25 == S_1 (bitwise)  -> "
      f"{np.array_equal(split, sf)}")

rmax = gen.r_max
print(f"bounded       : |S_t f| <= e^(rmax t)|f|      -> "
      f"{np.max(np.abs(sf)) <= np.exp(rmax) * np.max(np.abs(f)) + 1e-9}")
