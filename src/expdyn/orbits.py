"""Orbit iteration and classification.

A seed is iterated until one of the termination rules fires.  Two kinds
of verdict come out of this:

* ``NonEscapingProven`` is rigorous.  It rests on the absorption facts
  for the two families (an orbit of an F-map that touches the closed
  right half plane stays within distance 1 of xi forever, symmetrically
  for G-maps and the left half plane), so it is independent of the
  iteration budget.  The facts carry over to every map with a chart
  (``maps.chart``): a conjugate by an affine phi, or a shift that keeps
  the family's constant in range, is tested in the coordinate u in
  which it is a family map.  Under every chart, a point on the overflow
  ladder whose u lies in the closed absorbing half plane is proven at its
  own step, once that step succeeds (the underflow rule).
* ``Escaping`` is a numerical verdict at finite resolution: two
  consecutive deepening steps beyond a threshold (in u, for a map with a
  chart; on the modulus otherwise).  A single huge iterate of a family
  map with the wrong sign provably returns next to the fixed constant,
  so one crossing alone is not evidence.

``BoundedAtBudget`` and ``Undetermined`` are the honest remainders.  An
orbit whose step returns the point it was given, bit for bit, ends
``BoundedAtBudget`` at once: the step is a pure function, so every later
step would repeat the same tests with the same outcome until the budget
ran out.  Only the count of applications performed changes.

Two engines run these rules.  ``_iterate`` follows one seed and backs
``classify`` and ``run_orbit``.  Every exp, cos, sin and log it takes is
the ``math`` function, or ``cmath.exp`` for a finite exponential (which
calls the same libm exp, cos and sin), and this module imports no numpy.
``blocks.classify_points`` runs the same tests in the same order on an
array of seeds in lockstep, with the same bits (see ``blocks``), so the
two agree seed by seed, in verdict class and step; it backs
``classify_grid`` and the sample suites of ``verify``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple, Union

from .maps import (
    DEFAULT_CONFIG,
    PHASE_RESOLUTION_LIMIT,
    DegeneratePhaseError,
    Directed,
    ExtendedPoint,
    IterationConfig,
    MapExpr,
    _exp_sat,
    _log_modulus,
    _same_point,
    _scale,
    chart,
    evaluate,
    validate,
)

__all__ = [
    "AbsorptionRule",
    "Escaping",
    "NonEscapingProven",
    "BoundedAtBudget",
    "Undetermined",
    "Classification",
    "OrbitRecord",
    "classify",
    "run_orbit",
    "orbit_to_csv",
]


class AbsorptionRule(enum.Enum):
    """Which proven fact terminated the orbit."""

    RIGHT_HALF_PLANE_F = "right-half-plane-F"
    LEFT_HALF_PLANE_G = "left-half-plane-G"
    UNDERFLOW_TO_FIXED_NEIGHBORHOOD = "underflow-to-fixed-neighborhood"


# byte codes of the four verdict classes in blocks.classify_points and fields
KIND_ESCAPING = ord("E")
KIND_PROVEN = ord("P")
KIND_BUDGET = ord("B")
KIND_UNDETERMINED = ord("U")

# keyed by the chart's sign, the family's sign
_HALF_PLANE_RULE = {-1.0: AbsorptionRule.RIGHT_HALF_PLANE_F,
                    1.0: AbsorptionRule.LEFT_HALF_PLANE_G}


@dataclass(frozen=True, slots=True)
class Escaping:
    step: int


@dataclass(frozen=True, slots=True)
class NonEscapingProven:
    rule: AbsorptionRule
    step: int


@dataclass(frozen=True, slots=True)
class BoundedAtBudget:
    pass


@dataclass(frozen=True, slots=True)
class Undetermined:
    reason: str


Classification = Union[Escaping, NonEscapingProven, BoundedAtBudget, Undetermined]


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    seed: complex
    points: Tuple[ExtendedPoint, ...]
    classification: Classification
    steps_taken: int


def _effective_real(z: ExtendedPoint) -> float:
    if isinstance(z, complex):
        return z.real
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        return math.nan  # unresolvable sign; comparisons must not fire
    return _scale(_exp_sat(z.log_modulus), math.cos(z.angle))


def _is_nan(z: ExtendedPoint) -> bool:
    if isinstance(z, complex):
        return math.isnan(z.real) or math.isnan(z.imag)
    return math.isnan(z.log_modulus) or math.isnan(z.angle)


def _escaped(r: Optional[float], rn: Optional[float], z: ExtendedPoint,
             nxt: ExtendedPoint, cfg: IterationConfig) -> bool:
    # Maps with a chart (r, rn: sign*Re u of z and nxt): consecutive
    # deepening into the repelling half plane sign*Re u > 0.
    if r is not None:
        return r >= cfg.escape_real_threshold and rn >= r
    # Generic shapes: two consecutive modulus checks on finite points, or
    # a strictly growing chain of overflowed points.  A mixed pair proves
    # nothing: a single jump onto the overflow rung can still collapse
    # back next step when the exponent flips sign.
    if isinstance(z, Directed):
        return isinstance(nxt, Directed) and nxt.log_modulus > z.log_modulus
    if isinstance(nxt, Directed):
        return False
    lm = _log_modulus(z)
    return lm >= math.log(cfg.generic_escape_radius) and _log_modulus(nxt) >= lm


# (a, b, ln|a|, arg a) of the chart coordinate u = (z - b)/a
_UChart = Tuple[complex, complex, float, float]
_ChartTests = Tuple[Optional[MapExpr], Optional[_UChart]]


def _chart_tests(expr: MapExpr) -> _ChartTests:
    """(f, uc) for the engines and the family suites, looked up once per map.

    f is the chart's family map (None without one).  uc gives u = (z - b)/a
    (see _to_u); it is None for the identity chart, which tests z itself.
    """
    ch = chart(expr)
    if ch is None:
        return None, None
    f, a, b = ch
    if a == 1 and b == 0:
        return f, None
    return f, (complex(a), complex(b), math.log(abs(a)),
               math.atan2(a.imag, a.real))


def _to_u(z: ExtendedPoint, uc: Optional[_UChart]) -> ExtendedPoint:
    """u = (z - b)/a, or z under the identity chart (uc is None); a
    Directed u keeps its log scale, as evaluate's Conjugate branch has it."""
    if uc is None:
        return z
    a, b, log_a, arg_a = uc
    if isinstance(z, complex):
        return (z - b) / a
    return Directed(z.log_modulus - log_a, z.angle - arg_a)


def _iterate(expr: MapExpr, z0: complex, cfg: IterationConfig, record: bool,
             tests: _ChartTests):
    """Shared loop behind classify and run_orbit; callers validate expr
    and pass _chart_tests(expr).  blocks._classify_points repeats it on
    arrays.

    The termination tests read the map's chart: each reads
    r = sign*Re u of the point, u = (z - b)/a, in which the map is a
    family map.  The orbit ends at the first step that returns its point
    bit for bit (maps._same_point), once that step's escape test has not
    fired.  Returns (classification, points-or-None, steps_taken) where
    steps_taken counts map applications actually performed.
    """
    z: ExtendedPoint = complex(z0)
    points = [z] if record else None
    f, uc = tests

    def real_u(p: ExtendedPoint) -> Optional[float]:
        # r of a point; None without a chart
        return None if f is None else f.sign * _effective_real(_to_u(p, uc))

    r = real_u(z)
    for n in range(cfg.max_iter + 1):
        if isinstance(z, complex):
            if _is_nan(z):
                return Undetermined("nan"), points, n
            if r is not None and r <= 0.0:
                return (NonEscapingProven(_HALF_PLANE_RULE[f.sign], n),
                        points, n)
        if n == cfg.max_iter:
            return BoundedAtBudget(), points, n
        try:
            nxt = evaluate(expr, z, cfg)
        except DegeneratePhaseError:
            return Undetermined("degenerate-phase"), points, n
        if record:
            points.append(nxt)
        if _is_nan(nxt):
            return Undetermined("nan"), points, n + 1
        if r is not None and isinstance(z, Directed) and r <= 0.0:
            # a ladder point in the absorbing half plane of u whose step
            # succeeded: under the identity chart, exactly the underflows
            return (NonEscapingProven(AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, n),
                    points, n + 1)
        rn = real_u(nxt)
        if _escaped(r, rn, z, nxt, cfg):
            return Escaping(n), points, n + 1
        # A fixed point of the step: every later step would repeat this
        # one's tests on the same pair until the budget runs out.  `==`
        # holds for any two equal points but NaNs, which ended above.
        if nxt == z and _same_point(nxt, z):
            return BoundedAtBudget(), points, n + 1
        z, r = nxt, rn

    raise AssertionError("unreachable")


def classify(expr: MapExpr, z0: complex,
             cfg: IterationConfig = DEFAULT_CONFIG) -> Classification:
    """Classify one seed.  Pure function of (expr, z0, cfg)."""
    validate(expr)
    return _iterate(expr, z0, cfg, False, _chart_tests(expr))[0]


def run_orbit(expr: MapExpr, z0: complex,
              cfg: IterationConfig = DEFAULT_CONFIG) -> OrbitRecord:
    """Classify one seed keeping the full trace (terminal point included)."""
    validate(expr)
    verdict, points, steps = _iterate(expr, z0, cfg, True, _chart_tests(expr))
    return OrbitRecord(seed=complex(z0), points=tuple(points),
                       classification=verdict, steps_taken=steps)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _g17(x: float) -> str:
    return f"{x:.17g}"


def orbit_to_csv(rec: OrbitRecord, out: TextIO) -> None:
    """Write "n,kind,a,b" rows (kind F: a=Re, b=Im; kind D: a=log-modulus,
    b=angle) followed by a "# classification=...,step=..." trailer."""
    out.write("n,kind,a,b\n")
    for n, p in enumerate(rec.points):
        if isinstance(p, complex):
            out.write(f"{n},F,{_g17(p.real)},{_g17(p.imag)}\n")
        else:
            out.write(f"{n},D,{_g17(p.log_modulus)},{_g17(p.angle)}\n")
    c = rec.classification
    step = getattr(c, "step", rec.steps_taken)
    out.write(f"# classification={type(c).__name__},step={step}\n")
