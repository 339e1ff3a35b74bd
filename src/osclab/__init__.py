"""Numerical laboratory for the geometry of oscillator Lie groups."""

__version__ = "0.1.0"

from .algebra import (LambdaSpec, Subspace, ad, bracket, basis_vector, cartan,
                      center, derived_ideal, jacobi_residual, ker_ad)
from .metrics import (BiInvariantForm, Metric, SymIso, ad_invariance_residual,
                      completeness_criteria, k_lambda, k_symmetry_residual,
                      locsym_conditions, metric_from_iso, named_family,
                      parse_sym_iso, random_k_symmetric, signature)
from .connection import (AffineProduct, ConnTable, CurvOp, affine_product,
                         closed_form_L, compatibility_residual, connection_report,
                         curvature, flatness_residual, levi_civita,
                         local_symmetry_residual, torsion_residual)
from .flows import (FlowProblem, FirstIntegral, FirstIntegralSet, Trajectory,
                    analytic_gamma1, completeness_probe, first_integrals,
                    gamma1_residual, integrate, scalar_blowup_time,
                    trajectory_csv)
from .isometry import (CurvIsometry, GroupElem, IsomElem, LatticeVerdict,
                       act_sigma_on_u, commensurability_oracle,
                       g_exp, g_inv, g_log, g_mul, geodesic_exponential,
                       identity_elem, isom_dim, isom_identity, isom_inv,
                       isom_mul, lattice_criterion, polar,
                       triple_bracket_residual)
