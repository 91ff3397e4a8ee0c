"""frobsplit: exact Frobenius-splitting computations over prime fields.

Trace-map splitting tests on the projective line and on hypersurfaces,
F-pure thresholds at monomial ideals, Legendre-curve supersingularity,
the F-discriminant of the Legendre fibration, KGFR decisions, and the
anticanonical superadditivity catalog.

Importing the package runs none of its modules: each public name below is
looked up in its module on first use (PEP 562), so `import frobsplit.cli`
loads only what the CLI imports.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, which __getattr__ looks up there
_EXPORTS = {
    "arith": "FieldElement ExtFieldElement binom_mod_p splitting_level",
    "mpoly": "MPoly parse_poly format_poly",
    "fedder": "NuSequence in_bracket_ideal nu fpt_bounds is_fpure_pair",
    "elliptic": "LegendreCurve SupersingularReport hasse_closed hasse_coeff count_points "
                "supersingular_report classify_curve_kgfr",
    "gsplit": "P1Point P1Divisor GfsVerdict gfs_p1_level gfs_p1 gfr_p1_bounded "
              "gfs_cy_hypersurface gfs_bigraded_hypersurface",
    "cover": "DoubleCover pushforward_splitting_check",
    "fibration": "FDiscriminantReport KgfrVerdict f_discriminant_legendre classify_fibers "
                 "total_space_gfs cbf_iii_check s0_fiber_legendre s0_product "
                 "is_kgfr_legendre prime_scan",
    "kappa": "H0Interval KappaResult h0_curve h0_ruled_anticanonical kappa_estimate "
             "check_superadditivity",
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
