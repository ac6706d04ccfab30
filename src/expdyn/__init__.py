"""Escape-time dynamics for exponential-type entire maps.

Symbolic map algebra with an overflow-safe evaluation ladder, orbit
classification with certified non-escape early exits, escape-field
rendering, and sampling-based verification suites for the structural
laws the escape sets obey.
"""

from .fields import (
    EscapeField,
    Window,
    classify_grid,
    export_field_csv,
    import_field_csv,
    overlay_strips,
    render_ppm,
)
from .maps import (
    Compose,
    Conjugate,
    DegeneratePhaseError,
    Directed,
    ExtendedPoint,
    FamilyF,
    FamilyG,
    InvalidMapError,
    IterationConfig,
    Iterate,
    MapExpr,
    ScaledExp,
    Shift,
    chart,
    evaluate,
    evaluate_points,
    period_of,
    validate,
)
from .orbits import (
    AbsorptionRule,
    BoundedAtBudget,
    Classification,
    Escaping,
    NonEscapingProven,
    OrbitRecord,
    Undetermined,
    classify,
    classify_points,
    orbit_to_csv,
    run_orbit,
)
from .parser import MapSyntaxError, format_complex, format_map, parse_complex, parse_map
from .sampling import SampleSet, splitmix64
from .strips import Family, StripId, strip_boundaries, strip_of
from .verify import (
    VerificationReport,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)

__version__ = "0.1.0"

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
