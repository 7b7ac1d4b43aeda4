"""The harmonic function V of the killed walk and the exit constant kappa.

V(x) is the mean exit value -E[S at exit] starting from x.  It is the
unique (up to scale) positive function with E[V(x + X); x + X >= 0] =
V(x), it grows like x + constant, and its value at 0 for a symmetric
continuous law is sigma/sqrt(2).  The constant kappa = integral of the
one-step killing probability against the dual V* gives the prefactor of
P(exit exactly at n), and for symmetric continuous laws equals
sigma^2/2.

Run:  python demos/02_harmonic_function_and_kappa.py
"""

import math
import warnings

from condwalk import (CensoringExcess, IncrementLaw, build_harmonic_table,
                      estimate_V_killed, estimate_V_ladder,
                      harmonicity_residual, kappa_constant,
                      kappa_extension_form)
from condwalk.harmonic import default_grid

warnings.simplefilter("ignore", CensoringExcess)

law = IncrementLaw.gaussian(0.0, 1.0)

print("=" * 72)
print("Two Monte Carlo estimators of V(0) for the standard gaussian walk")
print("=" * 72)
ladder = estimate_V_ladder(law, 0.0, cap=10 ** 6, samples=2 * 10 ** 5, seed=1)
print(f"  ladder (walk to exit):    {ladder.mean:.5f} +- {ladder.stderr:.5f}"
      f"   censored {ladder.censor_rate:.2e}")
for n in (100, 10 ** 3, 10 ** 4):
    killed = estimate_V_killed(law, 0.0, n, 10 ** 5, seed=n)
    print(f"  killed, horizon {n:6d}:   {killed.mean:.5f} +- {killed.stderr:.5f}")
print(f"  sigma/sqrt(2) =           {2 ** -0.5:.5f}")

print()
print("=" * 72)
print("V on a geometric grid; V(x) - x approaches a constant")
print("(solved from the integral equation on a lattice of step 0.05,")
print("read off the table by linear interpolation)")
print("=" * 72)
table = build_harmonic_table(law)
print(f"  {len(table.grid)} lattice points on [0, {table.grid[-1]:.0f}], "
      f"largest error estimate {max(v.stderr for v in table.values):.1e}")
for x in default_grid(law.sigma):
    v = table(x)
    print(f"  x={x:7.3f}   V={v:8.4f}   V-x={v - x:+.4f}")
print(f"  extrapolation offset: {table.extrapolation_offset:.4f}")
print(f"  query beyond the grid: V(64) ~ {table(64.0):.4f}")

print()
print("Harmonicity: E[V(x + X); x + X >= 0] - V(x) should vanish")
for seed, x in enumerate((0.0, 1.0, 5.0), start=17):  # one stream each
    r = harmonicity_residual(law, table, x, 10 ** 5, seed=seed)
    print(f"  x={x}: residual {r.mean:+.5f} +- {r.stderr:.5f}")

print()
print("=" * 72)
print("kappa from its two integral forms (they agree by harmonicity)")
print("=" * 72)
for name, l2 in (("gaussian", law), ("uniform(-1,1)", IncrementLaw.uniform(-1, 1))):
    tab = build_harmonic_table(l2)
    k1 = kappa_constant(l2, tab)
    k2 = kappa_extension_form(l2, tab)
    print(f"  {name:14s} killing form {k1:.5f}   extension form {k2:.5f}"
          f"   sigma^2/2 = {l2.variance / 2:.5f}")
