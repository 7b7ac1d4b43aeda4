"""condwalk: numerics for random walks conditioned to stay non-negative.

Monte Carlo estimation of exit-time and conditioned local-limit
functionals, harmonic functions of the killed walk, the explicit
constants of the local exit-time asymptotics, closed-form predictors for
the limit theorems, and exact combinatorial oracles for verifying all of
it at small scale.
"""

from .asymptotics import Prediction, THEOREM_IDS, predict
from .errors import CensoringExcess, CondwalkError, DomainError, \
    DriftedLaw, InsufficientSweep, MismatchedTilt, MissingIngredient, \
    NoTiltExists, QuadratureFailure, StateExplosion, UnknownTheorem
from .harmonic import HarmonicTable, LadderEstimate, TableParams, \
    build_harmonic_table, estimate_V_killed, estimate_V_ladder, \
    harmonicity_residual, kappa_constant, kappa_extension_form, \
    weighted_table_integral
from .harness import ExperimentConfig, IngredientCache, ReportRow, band_pass, \
    convergence_sweep, emit_report, parse_report, run_experiment
from .increments import IncrementLaw, TiltedLaw, cramer_tilt, format_law, \
    is_lattice, left_exit_prob, log_mgf, parse_law, tilted_mean
from .oracle import JointLaw, KilledLaw, exact_joint_law, \
    exact_killed_moment, killed_law, sparre_andersen_exit_at, \
    sparre_andersen_survival, verify_duality
from .special import KernelSpec, brownian_exit, conv_normal_levy, \
    conv_normal_rayleigh, fuk_nagaev_bound, kernel_fourier, \
    kernel_fourier_exact, levy_psi, levy_psi_integral, psi_normalizer, \
    rayleigh, rayleigh_levy_integral, smoothing_kernel
from .targets import TargetFunction, eval_target, parse_target
from .walk import Censored, ExitSample, McEstimate, Statistic, mc_estimate, \
    mc_estimates, mc_max_abs_walk, mc_scaled_cdf_curve, mc_tilted_survival, \
    mc_unconditioned, simulate_exit

__version__ = "0.1.0"
