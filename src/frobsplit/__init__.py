"""frobsplit: exact Frobenius-splitting computations over prime fields.

Trace-map splitting tests on the projective line and on hypersurfaces,
F-pure thresholds at monomial ideals, Legendre-curve supersingularity,
the F-discriminant of the Legendre fibration, KGFR decisions, and the
anticanonical superadditivity catalog.
"""

__version__ = "0.1.0"

from .arith import ExtFieldElement, FieldElement, binom_mod_p, splitting_level
from .mpoly import MPoly, format_poly, parse_poly
from .fedder import NuSequence, fpt_bounds, in_bracket_ideal, is_fpure_pair, nu
from .elliptic import (LegendreCurve, SupersingularReport, classify_curve_kgfr,
                       count_points, hasse_closed, hasse_coeff,
                       supersingular_report)
from .gsplit import (DoubleCover, GfsVerdict, P1Divisor, P1Point,
                     gfr_p1_bounded, gfs_bigraded_hypersurface,
                     gfs_cy_hypersurface, gfs_p1, gfs_p1_level,
                     pushforward_splitting_check)
from .fibration import (FDiscriminantReport, KgfrVerdict, cbf_iii_check,
                        classify_fibers, f_discriminant_legendre,
                        is_kgfr_legendre, prime_scan, s0_fiber_legendre,
                        s0_product, total_space_gfs)
from .kappa import (H0Interval, KappaResult, check_superadditivity, h0_curve,
                    h0_ruled_anticanonical, kappa_estimate)

__all__ = [
    "__version__",
    "FieldElement", "ExtFieldElement", "binom_mod_p", "splitting_level",
    "MPoly", "parse_poly", "format_poly",
    "NuSequence", "in_bracket_ideal", "nu", "fpt_bounds", "is_fpure_pair",
    "LegendreCurve", "SupersingularReport", "hasse_closed", "hasse_coeff",
    "count_points", "supersingular_report", "classify_curve_kgfr",
    "P1Point", "P1Divisor", "GfsVerdict", "DoubleCover",
    "gfs_p1_level", "gfs_p1", "gfr_p1_bounded", "gfs_cy_hypersurface",
    "gfs_bigraded_hypersurface", "pushforward_splitting_check",
    "FDiscriminantReport", "KgfrVerdict", "f_discriminant_legendre",
    "classify_fibers", "total_space_gfs", "cbf_iii_check", "s0_fiber_legendre",
    "s0_product", "is_kgfr_legendre", "prime_scan",
    "H0Interval", "KappaResult", "h0_curve", "h0_ruled_anticanonical",
    "kappa_estimate", "check_superadditivity",
]
