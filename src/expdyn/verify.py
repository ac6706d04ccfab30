"""Sampling-based verification suites for the escape-set laws.

Each suite checks one statement against concrete orbits and returns a
:class:`VerificationReport`.  One rule grades every comparison of two
verdicts in the sample suites: an ``Escaping`` verdict against a
``NonEscapingProven`` one is a violation, a comparison with a
``BoundedAtBudget`` or ``Undetermined`` side is counted as skipped, never
as pass or fail, and anything else passes.  Of the two determined
verdicts, ``NonEscapingProven`` is rigorous and ``Escaping`` numerical
(see ``orbits``), so what a violation proves is not settled here.  The
grid suites likewise count budget-limited and undetermined cells as
skipped.  Every suite grades verdict codes E/P/B/U: the sample suites
classify fields._BLOCK samples at a time under each map through
blocks.classify_points (an image without a finite complex value counts
as U), or call a classify_fn passed in (tests, tracing) once per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fields
from .blocks import (_classify_points, _finite, _from_u_points, _same_points,
                     _to_u_points, evaluate_points)
from .fields import EscapeField
from .maps import (
    Compose,
    Conjugate,
    IterationConfig,
    Iterate,
    MapExpr,
    Shift,
    Window,
    chart,
    period_of,
    validate,
)
from .orbits import (KIND_BUDGET, KIND_ESCAPING, KIND_PROVEN,
                     KIND_UNDETERMINED, BoundedAtBudget, Classification,
                     Escaping, NonEscapingProven, Undetermined, _real_u)
from .parser import format_complex
from .sampling import SampleSet
from .strips import strip_test

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

ClassifyFn = Callable[[MapExpr, complex, IterationConfig], Classification]
_CODES = {Escaping: KIND_ESCAPING, NonEscapingProven: KIND_PROVEN,
          BoundedAtBudget: KIND_BUDGET, Undetermined: KIND_UNDETERMINED}
_NAMES = {code: cls.__name__ for cls, code in _CODES.items()}


def _classifier(classify_fn: Optional[ClassifyFn], expr: MapExpr,
                cfg: IterationConfig) -> Callable:
    """(re, im) -> the verdict codes of re + i*im under validated expr."""
    if classify_fn is None:
        ch = chart(expr)
        return lambda re, im: _classify_points(expr, re, im, cfg, ch)[0]
    return lambda re, im: np.array(
        [_CODES[type(classify_fn(expr, complex(x, y), cfg))]
         for x, y in zip(re.tolist(), im.tolist())], dtype=np.uint8)


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


def _violation(z: complex, expected: str, observed: str) -> Dict[str, str]:
    return dict(input=format_complex(z), expected=expected, observed=observed)


def _determined(k: np.ndarray) -> np.ndarray:
    """Codes E or P; a comparison with any other side is skipped."""
    return (k == KIND_ESCAPING) | (k == KIND_PROVEN)


def _conflict(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """An Escaping verdict against a NonEscapingProven one: a violation."""
    return _determined(k1) & _determined(k2) & (k1 != k2)


def _sample_report(name: str, samples: SampleSet,
                   grade: Callable) -> VerificationReport:
    """grade(re, im) of a block of fields._BLOCK samples gives its skipped
    mask and laws (violated mask, expected, observed(k)); the report
    lists the violations in sample order, then law order."""
    report = VerificationReport(name, total=samples.count)
    for start in range(0, samples.count, fields._BLOCK):
        pts = samples.points[start:start + fields._BLOCK]
        skipped, laws = grade(pts.real, pts.imag)
        report.skipped_undetermined += int(np.count_nonzero(skipped))
        for k, n in sorted((k, n) for n, law in enumerate(laws)
                           for k in np.flatnonzero(law[0]).tolist()):
            report.violations.append(
                _violation(complex(pts[k]), laws[n][1], laws[n][2](k)))
    return report


def _images(expr: MapExpr, re: np.ndarray,
            im: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, ok) of expr at re + i*im; ok is false where the phase is
    degenerate or the image is Directed, NaN or infinite."""
    wr, wi, wd, bad = evaluate_points(expr, re, im,
                                      np.zeros(len(re), dtype=bool))
    return wr, wi, ~bad & ~wd & _finite(wr, wi)


def _codes_at_images(classify: Callable, expr: MapExpr, re: np.ndarray,
                     im: np.ndarray, where: np.ndarray) -> np.ndarray:
    """classify at expr(z) where `where` holds; U elsewhere or no image."""
    codes = np.full(len(re), KIND_UNDETERMINED, dtype=np.uint8)
    at = np.flatnonzero(where)
    wr, wi, ok = _images(expr, re[at], im[at])
    codes[at[ok]] = classify(wr[ok], wi[ok])
    return codes


# ---------------------------------------------------------------------------
# half-plane bound
# ---------------------------------------------------------------------------

def verify_halfplane_bound(expr: MapExpr, samples: SampleSet,
                           k_max: int) -> VerificationReport:
    """Orbits started in the absorbing half plane stay within 1 + |const|.

    Checks |u_k| <= 1 + |const| + BOUND_TOL, u_k = (f^k(z) - b)/a and const
    from expr's chart (maps.chart), for every sample and k <= k_max.  Samples
    must come from the absorbing half plane (Re u >= 0 for F, <= 0 for G):
    a samples.window with a corner outside it is a ValueError.
    The orbits of a block advance together through blocks.evaluate_points,
    the step of the orbit engine; an iterate that leaves the double range or
    has a degenerate phase counts as unbounded.  An orbit stops once it is
    back, bit for bit, at its last or second-last point: the step is a
    function of the point, so every later point is one already measured.
    """
    validate(expr)
    ch = chart(expr)
    if ch is None:
        raise TypeError("half-plane bound applies to maps with a chart")
    f, a, b = ch
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # the bound is a theorem about the absorbing half plane H of u only;
    # H is convex, so a window lies inside it when its four corners do
    w = samples.window
    if any(_real_u(complex(x, y), ch) > 0.0
           for x in (w.x_min, w.x_max) for y in (w.y_min, w.y_max)):
        side = "Re u >= 0" if f.sign < 0 else "Re u <= 0"
        raise ValueError("halfplane-bound needs a window inside the absorbing "
                         f"half plane {side} of the map, u = (z - b)/a")
    bound = 1.0 + abs(f.const) + BOUND_TOL

    def grade(re, im):
        worst = np.zeros(len(re))
        live = np.arange(len(re))  # orbits still moving
        z = (re, im, np.zeros(len(re), dtype=bool))
        before = None
        for _ in range(k_max):
            *nxt, bad = evaluate_points(expr, *z)
            nr, ni, nd = nxt
            with np.errstate(all="ignore"):  # where nd | bad: unused
                nr, ni = _to_u_points(nr, ni, nd, a, b)
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
        return False, [(~(worst <= bound),
                        f"|u_k| <= {bound!r} for k <= {k_max}, "
                        "u_k = (f^k(z) - b)/a",
                        lambda k: f"max modulus {float(worst[k])!r}")]
    return _sample_report("halfplane-bound", samples, grade)


# ---------------------------------------------------------------------------
# strip containment
# ---------------------------------------------------------------------------

def verify_strip_containment(fld: EscapeField,
                             expr: MapExpr) -> VerificationReport:
    """Every escaping cell center z has u = (z - b)/a in an escape strip."""
    validate(expr)
    ch = chart(expr)
    if ch is None:
        raise TypeError("strip containment applies to maps with a chart")
    f, a, b = ch
    report = VerificationReport("strip-containment", total=fld.nx * fld.ny)
    report.skipped_undetermined = int(np.sum(~_determined(fld.kinds)))
    j, i = np.divmod(fld.escaping_indices(), fld.nx)
    x, y = fields._centers(fld.window, fld.nx, fld.ny, i, j)
    ux, uy = _to_u_points(x, y, False, a, b)
    _, inside = strip_test(ux, uy, f.family, f.param)
    for k in np.flatnonzero(~inside).tolist():
        report.violations.append(_violation(
            complex(x[k], y[k]),
            "escaping cell inside an escape strip of the open half plane",
            "escaping cell outside every strip"))
    return report


# ---------------------------------------------------------------------------
# disjointness of the two families' escape sets
# ---------------------------------------------------------------------------

def verify_disjointness(field_f: EscapeField,
                        field_g: EscapeField) -> VerificationReport:
    """No cell may escape under both fields, of F and F' maps in one chart."""
    if (field_f.nx, field_f.ny) != (field_g.nx, field_g.ny) or \
            field_f.window != field_g.window:
        raise ValueError("fields must share window and resolution")
    report = VerificationReport("disjointness", total=field_f.nx * field_f.ny)
    report.skipped_undetermined = int(np.count_nonzero(
        ~(_determined(field_f.kinds) & _determined(field_g.kinds))))
    both = np.nonzero((field_f.kinds == KIND_ESCAPING)
                      & (field_g.kinds == KIND_ESCAPING))[0]
    for idx in both:
        report.violations.append(_violation(
            field_f.center(int(idx) % field_f.nx, int(idx) // field_f.nx),
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

    Both orbits of a block's seeds advance in lockstep, for up to
    max_iter steps, until an image is missing, the identity fails (one
    violation), a modulus passes MODULUS_CAP or both orbits repeat their
    points of the step before.  Each block is then
    classified under f and g, or classify_fn is called per seed.
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

    def grade(re, im):
        seen = np.full((2, len(re)), np.nan)  # |u - (v + c)|, |v| at parting
        live = np.arange(len(re))
        ur, ui, vr, vi = re, im, re, im
        for _ in range(cfg.max_iter):
            finite = np.zeros(len(live), dtype=bool)
            u_was, v_was = (ur, ui, finite), (vr, vi, finite)
            ur, ui, u_ok = _images(shifted, ur, ui)
            vr, vi, v_ok = _images(s_fold, vr, vi)
            with np.errstate(all="ignore"):
                # CPython's complex -, + and abs, part by part
                diff = np.hypot(ur - (vr + c.real), ui - (vi + c.imag))
                mod_v = np.hypot(vr, vi)
                parted = u_ok & v_ok & (diff > REL_TOL * (1.0 + mod_v))
                keep = u_ok & v_ok & ~parted & (mod_v <= MODULUS_CAP) \
                    & (np.hypot(ur, ui) <= MODULUS_CAP)
            # u and v both back at their points of the step before: every
            # later step would repeat this one's comparison
            keep &= ~(_same_points((ur, ui, finite), u_was)
                      & _same_points((vr, vi, finite), v_was))
            seen[:, live[parted]] = diff[parted], mod_v[parted]
            live, ur, ui, vr, vi = (live[keep], ur[keep], ui[keep],
                                    vr[keep], vi[keep])
            if not len(live):
                break
        k_f, k_g = classify_f(re, im), classify_g(re, im)
        return ~(_determined(k_f) & _determined(k_g)), [
            (~np.isnan(seen[0]),
             f"g^n(z) == f^(n*s)(z) + c within rel {REL_TOL}",
             lambda k: f"|diff| = {float(seen[0, k])!r} at "
                       f"|f^(n*s)(z)| = {float(seen[1, k])!r}"),
            (_conflict(k_f, k_g),
             "no escaping-vs-proven conflict between f and g",
             lambda k: f"f: {_NAMES[k_f[k]]}, g: {_NAMES[k_g[k]]}")]
    return _sample_report("period-shift", samples, grade)


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
    skipped once.  Each block is classified under h, f^(i+j), f, g and h
    at g(z) of its escaping seeds, or classify_fn is called per seed; g
    = f^1 reuses f's verdicts where it has f's chart tests.
    """
    validate(expr)
    if i < 1 or j < 1:
        raise ValueError("iterate exponents must be >= 1")
    g = Iterate(expr, j)
    composite = Compose(expr, g)
    tall = Iterate(expr, i + j)
    classifiers = [_classifier(classify_fn, e, cfg)
                   for e in (composite, tall, expr)]
    # g = f^1 takes f's steps; with f's chart (none: f has no chart) it
    # runs f's tests too, so it gets f's verdicts and is not classified
    classify_g = None if j == 1 and chart(g) == chart(expr) else \
        _classifier(classify_fn, g, cfg)

    def grade(re, im):
        k_comp, k_tall, k_f = (c(re, im) for c in classifiers)
        k_g = k_f if classify_g is None else classify_g(re, im)
        esc = k_comp == KIND_ESCAPING
        k_w = _codes_at_images(classifiers[0], g, re, im, esc)
        # (a) "escapes under f or g" passes when either escapes, conflicts
        # when both are proven and is undetermined otherwise
        open_a = esc & (k_f != KIND_ESCAPING) & (k_g != KIND_ESCAPING)
        law_a = open_a & _determined(k_f) & _determined(k_g)
        skipped = (open_a & ~law_a) | (esc & ~_determined(k_w)) \
            | ~(_determined(k_comp) & _determined(k_tall))
        return skipped, [
            (law_a, "escape under f o g implies escape under f or g",
             lambda k: f"f: {_NAMES[k_f[k]]}, g: {_NAMES[k_g[k]]}"),
            (_conflict(k_comp, k_tall),
             "verdicts of f o g and of the tall iterate agree",
             lambda k: f"f o g: {_NAMES[k_comp[k]]}, "
                       f"iterate: {_NAMES[k_tall[k]]}"),
            (esc & _conflict(k_comp, k_w),
             "g(z) of an escaping seed must not be proven bounded",
             lambda k: f"classification at g(z): {_NAMES[k_w[k]]}")]
    return _sample_report("composite-laws", samples, grade)


# ---------------------------------------------------------------------------
# image superset: g(I(f)) contains I(f), sampled through its contrapositive
# ---------------------------------------------------------------------------

def verify_image_superset(expr: MapExpr, j: int, samples: SampleSet,
                          cfg: IterationConfig,
                          classify_fn: Optional[ClassifyFn] = None
                          ) -> VerificationReport:
    """If w is proven non-escaping then g(w) = f^j(w) may not escape:
    the orbit of g(w) under f is the tail of a bounded orbit.

    Escaping seeds are neither checked nor skipped.  Each block is classified
    at w and at g(w) of its proven seeds, or classify_fn is called per seed.
    """
    validate(expr)
    if j < 1:
        raise ValueError("j must be >= 1")
    g = Iterate(expr, j)
    classify_f = _classifier(classify_fn, expr, cfg)

    def grade(re, im):
        k1 = classify_f(re, im)
        k2 = _codes_at_images(classify_f, g, re, im, k1 == KIND_PROVEN)
        return (k1 != KIND_ESCAPING) & ~_determined(k2), [
            (_conflict(k1, k2),
             "image of a proven non-escaping seed must not escape",
             lambda k: f"classification at f^j(w): {_NAMES[k2[k]]}")]
    return _sample_report("image-superset", samples, grade)


# ---------------------------------------------------------------------------
# conjugacy: phi maps the escape set of f onto the escape set of g
# ---------------------------------------------------------------------------

def _require_finite_phi(a: complex, b: complex, window: Window) -> None:
    """A ValueError naming a and b unless phi(z) = a*z + b is finite at
    the four corners of window, and so on all of it: each part of phi,
    fl(fl(c1*x) -+ fl(c2*y)) + c3 as blocks._from_u_points takes it, is
    monotone in x and in y."""
    x = np.array([window.x_min, window.x_max] * 2)
    y = np.repeat([window.y_min, window.y_max], 2)
    with np.errstate(all="ignore"):
        finite = _finite(*_from_u_points(x, y, False, a, b)).all()
    if not finite:
        raise ValueError(
            f"conjugacy: phi(z) = a*z + b with a = {format_complex(a)}, "
            f"b = {format_complex(b)} is not finite on the sample window")


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
    generic modulus rule on both sides.  Blocks are classified under f and
    g, or classify_fn is called per seed.  A phi that is not finite on
    samples.window is a ValueError, raised before anything is classified.
    """
    g = Conjugate(a, b, expr)
    validate(g)
    _require_finite_phi(a, b, samples.window)
    classify_f = _classifier(classify_fn, expr, cfg)
    classify_g = _classifier(classify_fn, g, cfg)

    def grade(re, im):
        k1 = classify_f(re, im)
        k2 = classify_g(*_from_u_points(re, im, False, a, b))
        return ~(_determined(k1) & _determined(k2)), [
            (_conflict(k1, k2),
             "no escaping-vs-proven conflict between f and its conjugate",
             lambda k: f"f: {_NAMES[k1[k]]}, conjugate: {_NAMES[k2[k]]}")]
    return _sample_report("conjugacy", samples, grade)
