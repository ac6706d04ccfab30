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
  which it is a family map.
* ``Escaping`` is a numerical verdict at finite resolution: two
  consecutive deepening steps beyond a threshold (in u, for a map with a
  chart; on the modulus otherwise).  A single huge iterate of a family
  map with the wrong sign provably returns next to the fixed constant,
  so one crossing alone is not evidence.

``BoundedAtBudget`` and ``Undetermined`` are the honest remainders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, TextIO, Tuple, Union

from .maps import (
    DEFAULT_CONFIG,
    PHASE_RESOLUTION_LIMIT,
    DegeneratePhaseError,
    Directed,
    ExtendedPoint,
    IterationConfig,
    MapExpr,
    _exp_sat,
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


def _log_modulus(z: ExtendedPoint) -> float:
    if isinstance(z, Directed):
        return z.log_modulus
    m = abs(z)
    return math.log(m) if m > 0.0 else -math.inf


def _is_nan(z: ExtendedPoint) -> bool:
    if isinstance(z, complex):
        return math.isnan(z.real) or math.isnan(z.imag)
    return math.isnan(z.log_modulus) or math.isnan(z.angle)


def _escaped(sign: Optional[float], z: ExtendedPoint, nxt: ExtendedPoint,
             cfg: IterationConfig) -> bool:
    # Maps with a chart (z, nxt in chart coordinates): consecutive
    # deepening into the repelling half plane sign*Re z > 0.
    if sign is not None:
        r = sign * _effective_real(z)
        return r >= cfg.escape_real_threshold and sign * _effective_real(nxt) >= r
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


_ChartTests = Tuple[Optional[float],
                    Optional[Callable[[ExtendedPoint], ExtendedPoint]]]


def _chart_tests(expr: MapExpr) -> _ChartTests:
    """(sign, to_u) for _iterate, looked up once per map.

    sign is None when expr has no chart.  to_u maps z to u = (z - b)/a,
    a Directed u keeping its log scale as evaluate's Conjugate branch
    computes it; it is None for the identity chart, which tests z itself.
    """
    ch = chart(expr)
    if ch is None:
        return None, None
    sign, a, b = ch
    if a == 1 and b == 0:
        return sign, None
    log_a, arg_a = math.log(abs(a)), math.atan2(a.imag, a.real)

    def to_u(z: ExtendedPoint) -> ExtendedPoint:
        if isinstance(z, complex):
            return (z - b) / a
        return Directed(z.log_modulus - log_a, z.angle - arg_a)
    return sign, to_u


def _iterate(expr: MapExpr, z0: complex, cfg: IterationConfig, record: bool,
             tests: _ChartTests):
    """Shared loop behind classify, run_orbit and classify_grid; callers
    validate expr and pass _chart_tests(expr).

    The termination tests read the map's chart: they test u = (z - b)/a,
    in which the map is a family map.  Returns (classification,
    points-or-None, steps_taken) where steps_taken counts map
    applications actually performed.
    """
    z: ExtendedPoint = complex(z0)
    points = [z] if record else None
    sign, to_u = tests
    u = z if to_u is None else to_u(z)

    for n in range(cfg.max_iter + 1):
        if isinstance(z, complex):
            if _is_nan(z):
                return Undetermined("nan"), points, n
            if sign is not None and sign * u.real <= 0.0:
                return (NonEscapingProven(_HALF_PLANE_RULE[sign], n),
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
        if sign is not None and to_u is None and isinstance(z, Directed) \
                and isinstance(nxt, complex):
            # exponential underflowed: the orbit landed exactly on the
            # additive constant, inside the absorbing half plane.  Under
            # another chart the collapsed point has u = const, and the
            # half-plane test takes it before the next application.
            return (NonEscapingProven(AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, n),
                    points, n + 1)
        v = nxt if to_u is None else to_u(nxt)
        if _escaped(sign, u, v, cfg):
            return Escaping(n), points, n + 1
        z, u = nxt, v

    raise AssertionError("unreachable")


def classify(expr: MapExpr, z0: complex,
             cfg: IterationConfig = DEFAULT_CONFIG) -> Classification:
    """Classify one seed.  Pure function of (expr, z0, cfg)."""
    validate(expr)
    return _classify(expr, z0, cfg)


def _classify(expr: MapExpr, z0: complex, cfg: IterationConfig) -> Classification:
    """classify for a caller that has validated expr."""
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
