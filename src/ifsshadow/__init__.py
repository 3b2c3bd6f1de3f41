"""Numerical shadowing, expansiveness and stability toolkit for iterated
function systems on tori (and contracting families on the unit interval)."""

from .space import (AntipodalError, DimensionError, MetricGrid, Space,
                    ball_sample, default_resolution, grid_for, lattice_samples)
from .maps import (InversionError, SmoothMap, affine_map, compose, fd_jacobian,
                   identity_map)
from .core import (ChainRecord, ChainVerdict, IFS, SymbolSequence, dist_D0,
                   dist_D1, gen_pseudo_orbit, iterate_chain, link_residuals,
                   make_ifs, orbit_map, orbit_steps, rho0, rho1,
                   validate_chain)
from .shadowing import (NotContractingError, NotHyperbolicError, ShadowResult,
                        ShadowingConvergenceError, UniquenessVerdict,
                        VerifyVerdict, check_uniqueness, hyperbolic_splitting,
                        lipschitz_estimate, shadow_auto, shadow_contraction,
                        shadow_linear_hyperbolic, shadow_newton,
                        verify_shadowing)
from .expansive import (ExpansivenessReport, estimate_N_of_mu,
                        estimate_expansive_const, max_orbit_separation,
                        separation_time, separation_times_batch)
from .perturb import (BumpDiffeo, CoverageError, CoverReport, PerturbedIFS,
                      SemiConjugacy, SupportError, adjusted_points, build_semiconj,
                      bump_profile, bump_profile_deriv, check_ball_cover,
                      inverse_lipschitz_estimate, move_points_diffeo,
                      perturbed_ifs, semiconj_residual)
from .systems import (CATALOG, SystemCatalogEntry, build_bumped_cat_ifs,
                      build_cat_ifs, build_contraction_ifs, build_identity_ifs,
                      build_rotation_ifs, build_system, build_torus_example,
                      build_torus_f1, build_torus_f2)

__version__ = "0.1.0"
