"""Simulation and numerical verification toolkit for scalar BSDEs with
sub-quadratic drivers on a finite time interval [0, T]; the paper's T = infinity
case is out of scope for now.

Layout:
    paths       time grids, Brownian bundles, named random streams, conditional-expectation projectors
    constants   explicit constants of the a-priori bounds (log-space safe)
    generators  drivers, builtin examples, truncation / reflection / theta transforms
    conditions  sampled verdicts for the structural growth and convexity conditions
    solver      backward regression sweep, Picard oracle, truncation ladder
    bounds      a-priori bound checks, comparison order, moment estimates
    envelopes   band constructions and theta-difference inequalities for scalar functions
    families    named admissible function families for the lemma sweeps
    cli         experiment runner with reproducible CSV/report outputs
"""

from .bounds import (BoundCheckResult, MomentEstimate, fhat_process, verify_comparison,
                     verify_fhat_moment, verify_pointwise_bound, verify_sup_bound)
from .conditions import (ConditionReport, SampleCloud, build_cloud, check_condition,
                         check_growth, check_theta_convexity, check_y_regularity,
                         check_z_regularity)
from .constants import (ConstantSet, LogValue, conjugate_exponent, derive_constants, khat,
                        k_threshold, mu_schedule, theta_constants, young_margin)
from .envelopes import (EnvelopeConstruction, ScalarFunction, construct_A2_envelope,
                        construct_A3_envelope, lemmaA1_check, lemmaA2_check, lemmaA3_check,
                        lemma_samples, remainder_check)
from .generators import (CoefficientProfile, Generator, TerminalData, TruncationIndex,
                         builtin_example_1, builtin_example_2, make_generator,
                         make_terminal, reflect_generator, theta_difference_generator,
                         truncate_generator, truncate_terminal)
from .paths import PathBundle, RegressionBasis, TimeGrid, build_grid, sample_paths
from .solver import (LadderResult, SolutionField, ThetaResidual, picard_solve,
                     solve_bounded, solve_ladder, theta_residual)

__version__ = "0.1.0"
