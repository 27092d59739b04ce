"""Numerical Lie sphere geometry for isoparametric and Dupin hypersurface checks."""

from .indefinite import (LieTransform, Signature, SignedVector, compose, inner,
                         invert, is_lie_transform, random_lie_transform)
from .quadric import (ContactElement, LieCurvatureValue, ProjectiveCurvature, QuadricPoint,
                      cross_ratio, curvature_sphere, legendre_lift, lie_curvature,
                      lie_curvature_of_values, moebius_coefficients, moebius_curvature,
                      parallel_transform)
from .isoparam import (FamilyInvariants, IsoparametricFamily, mean_curvature, minimal_theta,
                       principal_curvatures, scalar_curvature, theta_from_mean_curvature)
from .polygon import (AngleGaps, CircleMobius, GeodesicPolygon, angle_table,
                      build_parallel_polygon, conformal_normalize, constraint_search,
                      g4_grid_oracle, g4_residual, g6_grid_oracle, is_parallel,
                      isometry_reduction, link_check, link_partner,
                      polygon_from_positions, polygon_lie_curvature, psi_values,
                      solve_g4_normalized, solve_g6_normalized)
from .dji import (DerivativeSystem, KernelAnalysis, SignCertificate, build_system,
                  critical_point_pinning, g6_d5_obstruction, kernel_analysis,
                  recover_pair, sign_certificates)
from .report import (VerificationCase, __version__, emit_polygon_svg, emit_report,
                     run_suite)
