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
from typing import Optional, TextIO, Tuple, Union

from .maps import (  # KIND_*: callers may read the codes from here too
    _LOG_ESCAPE_RADIUS,
    DEFAULT_CONFIG,
    KIND_BUDGET,
    KIND_ESCAPING,
    KIND_PROVEN,
    KIND_UNDETERMINED,
    PHASE_RESOLUTION_LIMIT,
    Chart,
    DegeneratePhaseError,
    Directed,
    ExtendedPoint,
    IterationConfig,
    MapExpr,
    _exp_sat,
    _g17,
    _log_modulus,
    _same_point,
    _scale,
    _set,
    _to_u,
    _Value,
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


class Escaping(_Value):
    __slots__ = __match_args__ = ("step",)

    def __init__(self, step: int):
        _set(self, "step", step)


class NonEscapingProven(_Value):
    __slots__ = __match_args__ = ("rule", "step")

    def __init__(self, rule: AbsorptionRule, step: int):
        _set(self, "rule", rule)
        _set(self, "step", step)


class BoundedAtBudget(_Value):
    __slots__ = ()


class Undetermined(_Value):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):
        _set(self, "reason", reason)


Classification = Union[Escaping, NonEscapingProven, BoundedAtBudget, Undetermined]


class OrbitRecord(_Value):
    __slots__ = __match_args__ = ("seed", "points", "classification",
                                  "steps_taken")

    def __init__(self, seed: complex, points: Tuple[ExtendedPoint, ...],
                 classification: Classification, steps_taken: int):
        _set(self, "seed", seed)
        _set(self, "points", points)
        _set(self, "classification", classification)
        _set(self, "steps_taken", steps_taken)


def _is_nan(z: ExtendedPoint) -> bool:
    if isinstance(z, complex):
        return math.isnan(z.real) or math.isnan(z.imag)
    return math.isnan(z.log_modulus) or math.isnan(z.angle)


def _escaped(r: Optional[float], rn: Optional[float], z: ExtendedPoint,
             nxt: ExtendedPoint) -> bool:
    # Maps with a chart (r, rn: sign*Re u of z and nxt): consecutive
    # deepening into the repelling half plane sign*Re u > 0.
    if r is not None:
        return r >= IterationConfig.escape_real_threshold and rn >= r
    # Generic shapes: two consecutive modulus checks on finite points, or
    # a strictly growing chain of overflowed points.  A mixed pair proves
    # nothing: a single jump onto the overflow rung can still collapse
    # back next step when the exponent flips sign.
    if isinstance(z, Directed):
        return isinstance(nxt, Directed) and nxt.log_modulus > z.log_modulus
    if isinstance(nxt, Directed):
        return False
    lm = _log_modulus(z)
    return lm >= _LOG_ESCAPE_RADIUS and _log_modulus(nxt) >= lm


def _real_u(z: ExtendedPoint, ch: Optional[Chart]) -> Optional[float]:
    """r = sign*Re u, u = (z - b)/a in the chart ch = (f, a, b) of
    maps.chart, which every chart test reads; None without a chart.  With
    blocks._real_u_points, the one place that knows the identity chart."""
    if ch is None:
        return None
    f, a, b = ch
    if not (a == 1 and b == 0):
        z = _to_u(z, a, b)
    if isinstance(z, complex):
        return f.sign * z.real
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        return math.nan  # unresolvable sign; comparisons must not fire
    return f.sign * _scale(_exp_sat(z.log_modulus), math.cos(z.angle))


def _iterate(expr: MapExpr, z0: complex, cfg: IterationConfig,
             ch: Optional[Chart]):
    """The loop behind run_orbit, and so classify; callers validate expr
    and pass maps.chart(expr).  blocks._classify_points repeats it on
    arrays.  The termination tests read the chart through _real_u.

    The orbit ends at the first step that returns its point bit for bit
    (maps._same_point), once that step's escape test has not fired.
    Returns (classification, points, steps_taken) where steps_taken
    counts map applications actually performed.
    """
    z: ExtendedPoint = complex(z0)
    points = [z]
    r = _real_u(z, ch)
    for n in range(cfg.max_iter + 1):
        if isinstance(z, complex):
            if _is_nan(z):
                return Undetermined("nan"), points, n
            if r is not None and r <= 0.0:
                return (NonEscapingProven(_HALF_PLANE_RULE[ch[0].sign], n),
                        points, n)
        if n == cfg.max_iter:
            return BoundedAtBudget(), points, n
        try:
            nxt = evaluate(expr, z)
        except DegeneratePhaseError:
            return Undetermined("degenerate-phase"), points, n
        points.append(nxt)
        if _is_nan(nxt):
            return Undetermined("nan"), points, n + 1
        if r is not None and isinstance(z, Directed) and r <= 0.0:
            # a ladder point in the absorbing half plane of u whose step
            # succeeded: under the identity chart, exactly the underflows
            return (NonEscapingProven(AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, n),
                    points, n + 1)
        rn = _real_u(nxt, ch)
        if _escaped(r, rn, z, nxt):
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
    """Classify one seed: run_orbit's classification, without building
    its record.  Pure function of (expr, z0, cfg)."""
    validate(expr)
    return _iterate(expr, z0, cfg, chart(expr))[0]


def run_orbit(expr: MapExpr, z0: complex,
              cfg: IterationConfig = DEFAULT_CONFIG) -> OrbitRecord:
    """Classify one seed keeping the full trace (terminal point included)."""
    validate(expr)
    verdict, points, steps = _iterate(expr, z0, cfg, chart(expr))
    return OrbitRecord(seed=complex(z0), points=tuple(points),
                       classification=verdict, steps_taken=steps)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

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
