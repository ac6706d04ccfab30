"""Sampling-based verification suites for the escape-set laws.

Each suite checks one statement against concrete orbits and returns a
:class:`VerificationReport`.  The grading is asymmetric on purpose:

* conflicts with a rigorous verdict (an orbit proven non-escaping that a
  paired classification calls escaping, or vice versa) are violations at
  zero tolerance;
* disagreements between two heuristic verdicts are tallied and only fail
  the suite when agreement over determined samples drops below 99%,
  because finite budgets make boundary seeds flaky;
* undetermined or budget-limited comparisons are counted as skipped,
  never as pass or fail.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .fields import EscapeField, KIND_BUDGET, KIND_ESCAPING, KIND_UNDETERMINED
from .maps import (
    Compose,
    Conjugate,
    DegeneratePhaseError,
    Directed,
    FamilyF,
    FamilyG,
    IterationConfig,
    Iterate,
    MapExpr,
    Shift,
    evaluate,
    period_of,
    validate,
)
from .orbits import (
    BoundedAtBudget,
    Classification,
    Escaping,
    NonEscapingProven,
    classify,
)
from .parser import format_complex
from .sampling import SampleSet
from .strips import strip_of

__all__ = [
    "VerificationReport",
    "NoKnownPeriodError",
    "verify_halfplane_bound",
    "verify_strip_containment",
    "verify_disjointness",
    "verify_period_shift",
    "verify_composite_laws",
    "verify_image_superset",
    "verify_conjugacy",
]

log = logging.getLogger("expdyn.verify")

AGREEMENT_THRESHOLD = 0.99

ClassifyFn = Callable[[MapExpr, complex, IterationConfig], Classification]


class NoKnownPeriodError(ValueError):
    """The map has no structurally derivable additive period."""


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


def _is_escaping(c: Classification) -> bool:
    return isinstance(c, Escaping)


def _is_proven(c: Classification) -> bool:
    return isinstance(c, NonEscapingProven)


def _is_determined(c: Classification) -> bool:
    return isinstance(c, (Escaping, NonEscapingProven))


def _rigorous_conflict(c1: Classification, c2: Classification) -> bool:
    return (_is_escaping(c1) and _is_proven(c2)) or \
           (_is_proven(c1) and _is_escaping(c2))


def _kind_name(c: Classification) -> str:
    return type(c).__name__


# ---------------------------------------------------------------------------
# half-plane bound
# ---------------------------------------------------------------------------

def verify_halfplane_bound(expr: Union[FamilyF, FamilyG], samples: SampleSet,
                           k_max: int, tol: float = 1e-9) -> VerificationReport:
    """Orbits started in the absorbing half plane stay within 1 + |const|.

    Checks |f^k(z)| <= 1 + |xi| + tol (1 + |zeta| for G-maps) for every
    sample and every k up to k_max.  Samples must come from the absorbing
    half plane (Re >= 0 for F, <= 0 for G); inside it the exponent is
    always negative, so the iteration is vectorized directly.
    """
    validate(expr)
    sgn = getattr(expr, "sign", None)
    if sgn is None:
        raise TypeError("half-plane bound applies to the two families only")
    par, const = expr.param, expr.const
    bound = 1.0 + abs(const) + tol
    report = VerificationReport("halfplane-bound", total=samples.count)

    zr = samples.points.real.copy()
    zi = samples.points.imag.copy()
    worst = np.zeros_like(zr)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k_max):
            t = np.exp(sgn * zr + par.real)
            ang = sgn * zi + par.imag
            zr = t * np.cos(ang) + const.real
            zi = t * np.sin(ang) + const.imag
            np.maximum(worst, np.hypot(zr, zi), out=worst)
    bad = np.nonzero(~(worst <= bound))[0]
    for idx in bad:
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
    report.skipped_undetermined = int(np.count_nonzero(
        (fld.kinds == KIND_BUDGET) | (fld.kinds == KIND_UNDETERMINED)))
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
    """No cell may escape under both an F-map and a G-map."""
    if (field_f.nx, field_f.ny) != (field_g.nx, field_g.ny) or \
            field_f.window != field_g.window:
        raise ValueError("fields must share window and resolution")
    report = VerificationReport("disjointness", total=field_f.nx * field_f.ny)
    und_f = (field_f.kinds == KIND_BUDGET) | (field_f.kinds == KIND_UNDETERMINED)
    und_g = (field_g.kinds == KIND_BUDGET) | (field_g.kinds == KIND_UNDETERMINED)
    report.skipped_undetermined = int(np.count_nonzero(und_f | und_g))
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

def _finite_or_none(z) -> Optional[complex]:
    if isinstance(z, Directed):
        return None
    if math.isnan(z.real) or math.isnan(z.imag):
        return None
    return z


def verify_period_shift(expr: MapExpr, s: int, samples: SampleSet,
                        cfg: IterationConfig, rel_tol: float = 1e-6,
                        modulus_cap: float = 1e8,
                        classify_fn: ClassifyFn = classify) -> VerificationReport:
    """For a map f of period c and g = f^s + c, g^n must equal f^(n*s) + c
    along every orbit, and the classifications of f and g must not clash.
    """
    validate(expr)
    if s < 1:
        raise ValueError("s must be >= 1")
    c = period_of(expr)
    if c is None:
        raise NoKnownPeriodError("map has no structurally known period")
    s_fold = Iterate(expr, s)
    shifted = Shift(s_fold, c)
    report = VerificationReport("period-shift", total=samples.count)

    for z0 in samples.points:
        z0 = complex(z0)
        u: object = z0
        v: object = z0
        for _ in range(cfg.max_iter):
            try:
                u = evaluate(shifted, u, cfg)
                v = evaluate(s_fold, v, cfg)
            except DegeneratePhaseError:
                break
            uf, vf = _finite_or_none(u), _finite_or_none(v)
            if uf is None or vf is None:
                break
            target = vf + c
            if abs(uf - target) > rel_tol * (1.0 + abs(vf)):
                report.violations.append(_violation(
                    z0,
                    f"g^n(z) == f^(n*s)(z) + c within rel {rel_tol}",
                    f"|diff| = {abs(uf - target)!r} at |f^(n*s)(z)| = {abs(vf)!r}"))
                break
            if abs(uf) > modulus_cap or abs(vf) > modulus_cap:
                break
        c1 = classify_fn(expr, z0, cfg)
        c2 = classify_fn(shifted, z0, cfg)
        if _rigorous_conflict(c1, c2):
            report.violations.append(_violation(
                z0, "no escaping-vs-proven conflict between f and g",
                f"f: {_kind_name(c1)}, g: {_kind_name(c2)}"))
        elif not (_is_determined(c1) and _is_determined(c2)):
            report.skipped_undetermined += 1
    return report


# ---------------------------------------------------------------------------
# composite laws for commuting pairs (realized as g = f^j)
# ---------------------------------------------------------------------------

def verify_composite_laws(expr: MapExpr, i: int, j: int, samples: SampleSet,
                          cfg: IterationConfig,
                          classify_fn: ClassifyFn = classify) -> VerificationReport:
    """Subset, iterate and invariance laws for h = f o g with g = f^j.

    Per sample: (a) escape under h implies escape under f or g; (b) the
    verdicts of h and of f^(i+j) may not conflict and must agree on at
    least 99% of determined samples; (c) the escape set of h is invariant
    under g, so g of an escaping seed may not be proven non-escaping.
    """
    validate(expr)
    if i < 1 or j < 1:
        raise ValueError("iterate exponents must be >= 1")
    g = Iterate(expr, j)
    composite = Compose(expr, g)
    tall = Iterate(expr, i + j)
    report = VerificationReport("composite-laws", total=samples.count)
    determined_pairs = 0
    agreements = 0
    budget_flagged = 0

    for z0 in samples.points:
        z0 = complex(z0)
        c_comp = classify_fn(composite, z0, cfg)
        c_tall = classify_fn(tall, z0, cfg)
        c_f = classify_fn(expr, z0, cfg)
        c_g = classify_fn(g, z0, cfg)
        skipped = False

        if _is_escaping(c_comp):
            if _is_determined(c_f) and _is_determined(c_g):
                if not (_is_escaping(c_f) or _is_escaping(c_g)):
                    report.violations.append(_violation(
                        z0, "escape under f o g implies escape under f or g",
                        f"f: {_kind_name(c_f)}, g: {_kind_name(c_g)}"))
            elif not (_is_escaping(c_f) or _is_escaping(c_g)):
                skipped = True

        if _is_determined(c_comp) and _is_determined(c_tall):
            determined_pairs += 1
            if type(c_comp) is type(c_tall):
                agreements += 1
            else:
                report.violations.append(_violation(
                    z0, "verdicts of f o g and of the tall iterate agree",
                    f"f o g: {_kind_name(c_comp)}, iterate: {_kind_name(c_tall)}"))
        else:
            skipped = True

        if _is_escaping(c_comp):
            try:
                w = evaluate(g, z0, cfg)
            except DegeneratePhaseError:
                w = None
            w = _finite_or_none(w) if w is not None else None
            if w is None:
                skipped = True
            else:
                c_w = classify_fn(composite, w, cfg)
                if _is_proven(c_w):
                    report.violations.append(_violation(
                        z0, "g(z) of an escaping seed must not be proven bounded",
                        f"classification at g(z): {_kind_name(c_w)}"))
                elif isinstance(c_w, BoundedAtBudget):
                    budget_flagged += 1
                elif not _is_determined(c_w):
                    skipped = True

        if skipped:
            report.skipped_undetermined += 1

    if budget_flagged:
        log.info("composite-laws: %d invariance image orbits hit the budget",
                 budget_flagged)
    _check_agreement(report, determined_pairs, agreements)
    return report


def _check_agreement(report: VerificationReport, pairs: int, agreements: int) -> None:
    if pairs == 0:
        return
    ratio = agreements / pairs
    if ratio < AGREEMENT_THRESHOLD:
        report.violations.append(_violation(
            "aggregate",
            f"determined verdicts agree on >= {AGREEMENT_THRESHOLD:.0%} of samples",
            f"{agreements}/{pairs} = {ratio:.4f}"))
    elif agreements != pairs:
        log.info("%s: %d/%d determined verdicts agree",
                 report.suite_name, agreements, pairs)


# ---------------------------------------------------------------------------
# image superset: g(I(f)) contains I(f), sampled through its contrapositive
# ---------------------------------------------------------------------------

def verify_image_superset(expr: MapExpr, j: int, samples: SampleSet,
                          cfg: IterationConfig,
                          classify_fn: ClassifyFn = classify) -> VerificationReport:
    """If w is proven non-escaping then g(w) = f^j(w) may not escape:
    the orbit of g(w) under f is the tail of a bounded orbit."""
    validate(expr)
    if j < 1:
        raise ValueError("j must be >= 1")
    g = Iterate(expr, j)
    report = VerificationReport("image-superset", total=samples.count)

    for w0 in samples.points:
        w0 = complex(w0)
        c1 = classify_fn(expr, w0, cfg)
        if not _is_determined(c1):
            report.skipped_undetermined += 1
            continue
        if not _is_proven(c1):
            continue
        try:
            w1 = evaluate(g, w0, cfg)
        except DegeneratePhaseError:
            report.skipped_undetermined += 1
            continue
        w1 = _finite_or_none(w1)
        if w1 is None:
            report.skipped_undetermined += 1
            continue
        c2 = classify_fn(expr, w1, cfg)
        if _is_escaping(c2):
            report.violations.append(_violation(
                w0, "image of a proven non-escaping seed must not escape",
                f"classification at f^j(w): {_kind_name(c2)}"))
        elif not _is_determined(c2):
            report.skipped_undetermined += 1
    return report


# ---------------------------------------------------------------------------
# conjugacy: phi maps the escape set of f onto the escape set of g
# ---------------------------------------------------------------------------

def verify_conjugacy(expr: MapExpr, a: complex, b: complex, samples: SampleSet,
                     cfg: IterationConfig,
                     classify_fn: ClassifyFn = classify) -> VerificationReport:
    """Classify f at z and g = phi o f o phi^-1 at phi(z) = a*z + b.

    g is classified directly by the generic engine rules, never by
    delegating to f, so the comparison is not circular.
    """
    g = Conjugate(a, b, expr)
    validate(g)
    report = VerificationReport("conjugacy", total=samples.count)
    determined_pairs = 0
    agreements = 0

    for z0 in samples.points:
        z0 = complex(z0)
        c1 = classify_fn(expr, z0, cfg)
        c2 = classify_fn(g, a * z0 + b, cfg)
        if _rigorous_conflict(c1, c2):
            report.violations.append(_violation(
                z0, "no escaping-vs-proven conflict between f and its conjugate",
                f"f: {_kind_name(c1)}, conjugate: {_kind_name(c2)}"))
        elif _is_determined(c1) and _is_determined(c2):
            determined_pairs += 1
            if type(c1) is type(c2):
                agreements += 1
        else:
            report.skipped_undetermined += 1
    _check_agreement(report, determined_pairs, agreements)
    return report
