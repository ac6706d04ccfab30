"""Sampling-based verification suites for the escape-set laws.

Each suite checks one statement against concrete orbits and returns a
:class:`VerificationReport`.  One rule grades every comparison of two
verdicts in the sample suites: an ``Escaping`` verdict against a
``NonEscapingProven`` one is a violation, a comparison with a
``BoundedAtBudget`` or ``Undetermined`` side is counted as skipped, never
as pass or fail, and anything else passes.  The only determined verdicts
are the two rigorous ones, so two determined verdicts that differ always
conflict.  The grid suites likewise count budget-limited and undetermined
cells as skipped.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .fields import EscapeField
from .maps import (
    Compose,
    Conjugate,
    DegeneratePhaseError,
    FamilyF,
    FamilyG,
    IterationConfig,
    Iterate,
    MapExpr,
    Shift,
    _same_points,
    evaluate,
    evaluate_points,
    period_of,
    validate,
)
from .orbits import (KIND_BUDGET, KIND_ESCAPING, KIND_UNDETERMINED,
                     Classification, Escaping, NonEscapingProven, _chart_tests,
                     _iterate)
from .parser import format_complex
from .sampling import SampleSet
from .strips import strip_of

__all__ = [
    "VerificationReport",
    "verify_halfplane_bound",
    "verify_strip_containment",
    "verify_disjointness",
    "verify_period_shift",
    "verify_composite_laws",
    "verify_image_superset",
    "verify_conjugacy",
]

# slack on the half-plane bound 1 + |const|
BOUND_TOL = 1e-9
# period shift: g^n(z) and f^(n*s)(z) + c agree to this relative error;
# the orbits are followed until either modulus passes the cap
REL_TOL = 1e-6
MODULUS_CAP = 1e8

# The sample suites validate their maps once on entry and by default
# classify through the non-validating path, each map's chart looked up
# once per suite; a classify_fn passed in (tests, tracing) is called as
# given, once per classification.
ClassifyFn = Callable[[MapExpr, complex, IterationConfig], Classification]


def _classifier(classify_fn: Optional[ClassifyFn], expr: MapExpr,
                cfg: IterationConfig) -> Callable[[complex], Classification]:
    """The classification of one seed under the validated map expr."""
    if classify_fn is not None:
        return lambda z0: classify_fn(expr, z0, cfg)
    tests = _chart_tests(expr)
    return lambda z0: _iterate(expr, z0, cfg, False, tests)[0]


@dataclass
class VerificationReport:
    suite_name: str
    total: int
    violations: List[Dict[str, str]] = field(default_factory=list)
    skipped_undetermined: int = 0

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "fail"

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "total": self.total,
            "skipped": self.skipped_undetermined,
            "violations": self.violations,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _violation(inp: object, expected: str, observed: str) -> Dict[str, str]:
    if isinstance(inp, complex):
        inp = format_complex(inp)
    return {"input": str(inp), "expected": expected, "observed": observed}


def _is_escaping(c: Optional[Classification]) -> bool:
    return isinstance(c, Escaping)


def _determined(*cs: Optional[Classification]) -> bool:
    """True when every verdict is Escaping or NonEscapingProven; a
    comparison with any other side (None: no verdict) is skipped."""
    return all(isinstance(c, (Escaping, NonEscapingProven)) for c in cs)


def _conflict(c1: Optional[Classification], c2: Optional[Classification]) -> bool:
    """An Escaping verdict against a NonEscapingProven one: a violation."""
    return {type(c1), type(c2)} == {Escaping, NonEscapingProven}


def _kind_name(c: Classification) -> str:
    return type(c).__name__


def _image(expr: MapExpr, z: complex, cfg: IterationConfig) -> Optional[complex]:
    """expr(z), or None when the phase is degenerate or the image is not
    a finite complex number (Directed, NaN or infinite)."""
    try:
        w = evaluate(expr, z, cfg)
    except DegeneratePhaseError:
        return None
    return w if isinstance(w, complex) and cmath.isfinite(w) else None


def _undetermined_cells(fld: EscapeField) -> np.ndarray:
    return (fld.kinds == KIND_BUDGET) | (fld.kinds == KIND_UNDETERMINED)


# ---------------------------------------------------------------------------
# half-plane bound
# ---------------------------------------------------------------------------

def verify_halfplane_bound(expr: Union[FamilyF, FamilyG], samples: SampleSet,
                           k_max: int) -> VerificationReport:
    """Orbits started in the absorbing half plane stay within 1 + |const|.

    Checks |f^k(z)| <= 1 + |xi| + BOUND_TOL (1 + |zeta| for G-maps) for every
    sample and every k up to k_max.  Samples must come from the absorbing
    half plane (Re >= 0 for F, <= 0 for G).  All orbits advance together
    through maps.evaluate_points, the step of the orbit engine; an iterate
    that leaves the double range or has a degenerate phase counts as
    unbounded.  An orbit stops once it is back, bit for bit, at its last
    or second-last point: the step is a function of the point, so every
    later point is one already measured.
    """
    validate(expr)
    if getattr(expr, "sign", None) is None:
        raise TypeError("half-plane bound applies to the two families only")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bound = 1.0 + abs(expr.const) + BOUND_TOL
    report = VerificationReport("halfplane-bound", total=samples.count)

    worst = np.zeros(samples.count)
    live = np.arange(samples.count)  # orbits still moving
    z = (samples.points.real, samples.points.imag,
         np.zeros(samples.count, dtype=bool))
    before = None
    for _ in range(k_max):
        *nxt, bad = evaluate_points(expr, *z)
        nr, ni, nd = nxt
        worst[live] = np.maximum(
            worst[live], np.where(nd | bad, np.inf, np.hypot(nr, ni)))
        keep = ~bad & ~_same_points(nxt, z)
        if before is not None:
            keep &= ~_same_points(nxt, before)
        live = live[keep]
        before = [a[keep] for a in z]
        z = [a[keep] for a in nxt]
        if not len(live):
            break
    for idx in np.nonzero(~(worst <= bound))[0]:
        report.violations.append(_violation(
            complex(samples.points[idx]),
            f"|f^k(z)| <= {bound!r} for k <= {k_max}",
            f"max modulus {float(worst[idx])!r}"))
    return report


# ---------------------------------------------------------------------------
# strip containment
# ---------------------------------------------------------------------------

def verify_strip_containment(fld: EscapeField,
                             expr: Union[FamilyF, FamilyG]) -> VerificationReport:
    """Every escaping cell center must land in an escape strip."""
    validate(expr)
    if getattr(expr, "sign", None) is None:
        raise TypeError("strip containment applies to the two families only")
    report = VerificationReport("strip-containment", total=fld.nx * fld.ny)
    report.skipped_undetermined = int(np.count_nonzero(_undetermined_cells(fld)))
    for idx in fld.escaping_indices():
        i, j = int(idx) % fld.nx, int(idx) // fld.nx
        center = fld.center(i, j)
        if strip_of(center, expr.family, expr.param) is None:
            report.violations.append(_violation(
                center,
                "escaping cell inside an escape strip of the open half plane",
                "escaping cell outside every strip"))
    return report


# ---------------------------------------------------------------------------
# disjointness of the two families' escape sets
# ---------------------------------------------------------------------------

def verify_disjointness(field_f: EscapeField,
                        field_g: EscapeField) -> VerificationReport:
    """No cell may escape under both fields, those of f in F and g in F'."""
    if (field_f.nx, field_f.ny) != (field_g.nx, field_g.ny) or \
            field_f.window != field_g.window:
        raise ValueError("fields must share window and resolution")
    report = VerificationReport("disjointness", total=field_f.nx * field_f.ny)
    report.skipped_undetermined = int(np.count_nonzero(
        _undetermined_cells(field_f) | _undetermined_cells(field_g)))
    both = np.nonzero((field_f.kinds == KIND_ESCAPING)
                      & (field_g.kinds == KIND_ESCAPING))[0]
    for idx in both:
        i, j = int(idx) % field_f.nx, int(idx) // field_f.nx
        report.violations.append(_violation(
            field_f.center(i, j),
            "escaping under at most one of the two maps",
            "escaping under both"))
    return report


# ---------------------------------------------------------------------------
# period shift: g = f^s + c reproduces f's orbits
# ---------------------------------------------------------------------------

def verify_period_shift(expr: MapExpr, s: int, samples: SampleSet,
                        cfg: IterationConfig,
                        classify_fn: Optional[ClassifyFn] = None
                        ) -> VerificationReport:
    """For a map f of period c and g = f^s + c, g^n must equal f^(n*s) + c
    along every orbit, and the classifications of f and g must not clash.
    """
    validate(expr)
    if s < 1:
        raise ValueError("s must be >= 1")
    c = period_of(expr)
    s_fold = Iterate(expr, s)
    shifted = Shift(s_fold, c)
    validate(shifted)  # the period c must be finite
    classify_f = _classifier(classify_fn, expr, cfg)
    classify_g = _classifier(classify_fn, shifted, cfg)
    report = VerificationReport("period-shift", total=samples.count)

    for z0 in samples.points:
        z0 = complex(z0)
        u = v = z0
        for _ in range(cfg.max_iter):
            u, v = _image(shifted, u, cfg), _image(s_fold, v, cfg)
            if u is None or v is None:
                break
            target = v + c
            if abs(u - target) > REL_TOL * (1.0 + abs(v)):
                report.violations.append(_violation(
                    z0,
                    f"g^n(z) == f^(n*s)(z) + c within rel {REL_TOL}",
                    f"|diff| = {abs(u - target)!r} at |f^(n*s)(z)| = {abs(v)!r}"))
                break
            if abs(u) > MODULUS_CAP or abs(v) > MODULUS_CAP:
                break
        c1 = classify_f(z0)
        c2 = classify_g(z0)
        if _conflict(c1, c2):
            report.violations.append(_violation(
                z0, "no escaping-vs-proven conflict between f and g",
                f"f: {_kind_name(c1)}, g: {_kind_name(c2)}"))
        elif not _determined(c1, c2):
            report.skipped_undetermined += 1
    return report


# ---------------------------------------------------------------------------
# composite laws for commuting pairs (realized as g = f^j)
# ---------------------------------------------------------------------------

def verify_composite_laws(expr: MapExpr, i: int, j: int, samples: SampleSet,
                          cfg: IterationConfig,
                          classify_fn: Optional[ClassifyFn] = None
                          ) -> VerificationReport:
    """Subset, iterate and invariance laws for h = f o g with g = f^j.

    Per sample: (a) escape under h implies escape under f or g; (b) the
    verdicts of h and of f^(i+j) may not conflict; (c) the escape set of
    h is invariant under g, so g of an escaping seed may not be proven
    non-escaping.  A sample with any skipped comparison counts as
    skipped once.
    """
    validate(expr)
    if i < 1 or j < 1:
        raise ValueError("iterate exponents must be >= 1")
    g = Iterate(expr, j)
    composite = Compose(expr, g)
    tall = Iterate(expr, i + j)
    classify_comp = _classifier(classify_fn, composite, cfg)
    classify_tall = _classifier(classify_fn, tall, cfg)
    classify_f = _classifier(classify_fn, expr, cfg)
    classify_g = _classifier(classify_fn, g, cfg)
    report = VerificationReport("composite-laws", total=samples.count)

    for z0 in samples.points:
        z0 = complex(z0)
        c_comp = classify_comp(z0)
        c_tall = classify_tall(z0)
        c_f = classify_f(z0)
        c_g = classify_g(z0)
        skipped = False

        # (a) "escapes under f or g" passes when either escapes, conflicts
        # when both are proven and is undetermined otherwise
        if _is_escaping(c_comp) and not (_is_escaping(c_f) or _is_escaping(c_g)):
            if _determined(c_f, c_g):
                report.violations.append(_violation(
                    z0, "escape under f o g implies escape under f or g",
                    f"f: {_kind_name(c_f)}, g: {_kind_name(c_g)}"))
            else:
                skipped = True

        if _conflict(c_comp, c_tall):
            report.violations.append(_violation(
                z0, "verdicts of f o g and of the tall iterate agree",
                f"f o g: {_kind_name(c_comp)}, iterate: {_kind_name(c_tall)}"))
        elif not _determined(c_comp, c_tall):
            skipped = True

        if _is_escaping(c_comp):
            w = _image(g, z0, cfg)
            c_w = None if w is None else classify_comp(w)
            if _conflict(c_comp, c_w):
                report.violations.append(_violation(
                    z0, "g(z) of an escaping seed must not be proven bounded",
                    f"classification at g(z): {_kind_name(c_w)}"))
            elif not _determined(c_w):
                skipped = True

        if skipped:
            report.skipped_undetermined += 1
    return report


# ---------------------------------------------------------------------------
# image superset: g(I(f)) contains I(f), sampled through its contrapositive
# ---------------------------------------------------------------------------

def verify_image_superset(expr: MapExpr, j: int, samples: SampleSet,
                          cfg: IterationConfig,
                          classify_fn: Optional[ClassifyFn] = None
                          ) -> VerificationReport:
    """If w is proven non-escaping then g(w) = f^j(w) may not escape:
    the orbit of g(w) under f is the tail of a bounded orbit."""
    validate(expr)
    if j < 1:
        raise ValueError("j must be >= 1")
    g = Iterate(expr, j)
    classify_f = _classifier(classify_fn, expr, cfg)
    report = VerificationReport("image-superset", total=samples.count)

    for w0 in samples.points:
        w0 = complex(w0)
        c1 = classify_f(w0)
        if _is_escaping(c1):
            continue  # the law says nothing about escaping seeds
        w1 = _image(g, w0, cfg) if _determined(c1) else None
        c2 = None if w1 is None else classify_f(w1)
        if _conflict(c1, c2):
            report.violations.append(_violation(
                w0, "image of a proven non-escaping seed must not escape",
                f"classification at f^j(w): {_kind_name(c2)}"))
        elif not _determined(c2):
            report.skipped_undetermined += 1
    return report


# ---------------------------------------------------------------------------
# conjugacy: phi maps the escape set of f onto the escape set of g
# ---------------------------------------------------------------------------

def verify_conjugacy(expr: MapExpr, a: complex, b: complex, samples: SampleSet,
                     cfg: IterationConfig,
                     classify_fn: Optional[ClassifyFn] = None
                     ) -> VerificationReport:
    """Classify f at z and g = phi o f o phi^-1 at phi(z) = a*z + b.

    The orbit of g is its own: each step is evaluate on the Conjugate
    node, a*f((z-b)/a) + b in floating point, never f's orbit mapped
    through phi.  When f has a chart, g's termination tests read the
    composed chart (maps.chart), so both orbits meet the same half plane
    and escape test; the suite then checks that rounding along g's orbit
    does not move a verdict.  A map without a chart is classified by the
    generic modulus rule on both sides.
    """
    g = Conjugate(a, b, expr)
    validate(g)
    classify_f = _classifier(classify_fn, expr, cfg)
    classify_g = _classifier(classify_fn, g, cfg)
    report = VerificationReport("conjugacy", total=samples.count)

    for z0 in samples.points:
        z0 = complex(z0)
        c1 = classify_f(z0)
        c2 = classify_g(a * z0 + b)
        if _conflict(c1, c2):
            report.violations.append(_violation(
                z0, "no escaping-vs-proven conflict between f and its conjugate",
                f"f: {_kind_name(c1)}, conjugate: {_kind_name(c2)}"))
        elif not _determined(c1, c2):
            report.skipped_undetermined += 1
    return report
