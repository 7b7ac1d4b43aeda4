"""Negative drift: exponential tilting as exact importance sampling.

With drift mu < 0 survival is exponentially rare.  The Cramér root lam
solves E[X exp(lam X)] = 0, and reweighting each surviving tilted path
by exp(n Lambda + lam x - lam (x + S_n)) gives an unbiased estimator of
the original survival probability at a tiny fraction of the direct
cost.  The drifted survival asymptotic (exit-time prefactor times
exp(n Lambda)) is evaluated alongside.

Run:  python demos/04_drifted_walks_importance_sampling.py
"""

from condwalk import (IncrementLaw, Statistic, build_harmonic_table,
                      cramer_tilt, kappa_constant, mc_estimate,
                      mc_tilted_survival, predict, weighted_table_integral)

law = IncrementLaw.gaussian(-0.5, 1.0)
tilt = cramer_tilt(law)
print(f"law: gaussian(mu=-0.5, sigma=1)")
print(f"Cramér root lam = {tilt.lam:.6f}, Lambda(lam) = {tilt.log_mgf:.6f}, "
      f"tilted variance = {tilt.tilted_variance:.6f}")
print(f"(the tilted law is the standard gaussian; survival decays like "
      f"exp({tilt.log_mgf:.4f} n) x n^-1.5)")

print()
print("=" * 72)
print("Unbiasedness: direct vs tilted estimates where direct is feasible")
print("=" * 72)
for n in (5, 10, 20):
    direct = mc_estimate(law, 0.0, n, Statistic.survival(), 10 ** 6, seed=n)
    tilted = mc_tilted_survival(law, tilt, 0.0, n, Statistic.survival(),
                                10 ** 5, seed=100 + n)
    print(f"  n={n:3d}: direct {direct.mean:.4e} +- {direct.stderr:.1e}   "
          f"tilted {tilted.mean:.4e} +- {tilted.stderr:.1e}")

print()
print("=" * 72)
print("Where direct sampling is hopeless the tilted estimator still works")
print("=" * 72)
tab = build_harmonic_table(law, dual=True, tilt=tilt)
i_integral = weighted_table_integral(tab, tilt.lam)
kap = kappa_constant(law, tab, tilt=tilt)
# IGL1 is AA002.1 under the tilt: the tilted law's ingredients, with
# f_vstar_int = I, times exp(n Lambda + lam x)
ing = {"lam": tilt.lam, "log_mgf": tilt.log_mgf,
       "sigma": tilt.tilted_sigma, "v_x": 2 ** -0.5,
       "f_vstar_int": i_integral}
print(f"ingredients: I = {i_integral:.4f}, kappa_lam = {kap:.4f}")
for n in (50, 100, 200):
    tilted = mc_tilted_survival(law, tilt, 0.0, n, Statistic.survival(),
                                10 ** 6, seed=300 + n)
    pred = predict("IGL1", n=n, x=0.0, **ing)
    print(f"  n={n:4d}: tilted MC {tilted.mean:.4e} +- {tilted.stderr:.1e}"
          f"   predictor {pred.value:.4e}   ratio {tilted.mean / pred.value:.3f}")
print("(the n^-3/2 asymptotic converges like 1 - c/n for this drift; the "
      "ratio climbs toward one)")
