"""Escape-time dynamics for exponential-type entire maps.

Symbolic map algebra with an overflow-safe evaluation ladder, orbit
classification with certified non-escape early exits, escape-field
rendering, and sampling-based verification suites for the structural
laws the escape sets obey.

The map algebra, the one-seed orbit engine and the parser import no
numpy.  The names of the other modules (the block engine, fields,
sampling, strips and verify) are imported on first use (PEP 562), so
``import expdyn`` does not load numpy.
"""

import importlib

from .maps import (Compose, Conjugate, DegeneratePhaseError, Directed,
                   ExtendedPoint, Family, FamilyF, FamilyG, InvalidMapError,
                   IterationConfig, Iterate, MapExpr, ScaledExp, Shift, Window,
                   chart, evaluate, period_of, validate)
from .orbits import (AbsorptionRule, BoundedAtBudget, Classification, Escaping,
                     NonEscapingProven, OrbitRecord, Undetermined, classify,
                     orbit_to_csv, run_orbit)
from .parser import MapSyntaxError, format_complex, format_map, parse_complex, parse_map

__version__ = "0.1.0"

# name -> the module, imported on first use, that defines it
_LAZY = {
    **dict.fromkeys(("evaluate_points", "classify_points"), "blocks"),
    **dict.fromkeys(("EscapeField", "classify_grid", "export_field_csv",
                     "import_field_csv", "overlay_strips", "render_ppm"),
                    "fields"),
    **dict.fromkeys(("SampleSet", "splitmix64"), "sampling"),
    **dict.fromkeys(("StripId", "strip_boundaries", "strip_of"), "strips"),
    **dict.fromkeys(("VerificationReport", "verify_composite_laws",
                     "verify_conjugacy", "verify_disjointness",
                     "verify_halfplane_bound", "verify_image_superset",
                     "verify_period_shift", "verify_strip_containment"),
                    "verify"),
}


def __getattr__(name):
    # Only the table's names: any other name, a dunder such as __path__
    # included, must raise, or the import system would load numpy looking
    # it up.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AbsorptionRule", "BoundedAtBudget", "Classification", "Compose",
    "Conjugate", "DegeneratePhaseError", "Directed", "EscapeField",
    "Escaping", "ExtendedPoint", "Family", "FamilyF", "FamilyG",
    "InvalidMapError", "IterationConfig", "Iterate", "MapExpr",
    "MapSyntaxError", "NonEscapingProven", "OrbitRecord", "SampleSet", "ScaledExp", "Shift",
    "StripId", "Undetermined", "VerificationReport", "Window", "chart",
    "classify", "classify_grid", "classify_points", "evaluate",
    "evaluate_points", "export_field_csv", "format_complex",
    "format_map", "import_field_csv", "orbit_to_csv", "overlay_strips",
    "parse_complex", "parse_map", "period_of", "render_ppm", "run_orbit",
    "splitmix64", "strip_boundaries", "strip_of", "validate",
    "verify_composite_laws", "verify_conjugacy", "verify_disjointness",
    "verify_halfplane_bound", "verify_image_superset", "verify_period_shift",
    "verify_strip_containment",
]
