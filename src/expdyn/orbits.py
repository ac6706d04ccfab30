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

``maps._stop`` is the one home of these rules and of their order, and
two loops ask it once per step (a seed's own tests are a step -1).
``_iterate`` follows one seed and backs ``classify`` and ``run_orbit``.
Every exp, cos, sin and log it takes is the ``math`` function, or
``cmath.exp`` for a finite exponential (which calls the same libm exp,
cos and sin), and this module imports no numpy.
``blocks.classify_points`` moves an array of seeds in lockstep with the
same bits (see ``blocks``), so the two agree seed by seed, in verdict
class and step; it backs ``classify_grid`` and the sample suites of
``verify``.
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
    _stop,
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


def _escaped_generic(z: ExtendedPoint, nxt: ExtendedPoint) -> bool:
    # The escape test of a map without a chart: two consecutive modulus
    # checks on finite points, or a strictly growing chain of overflowed
    # points.  A mixed pair proves nothing: a single jump onto the
    # overflow rung can still collapse back next step when the exponent
    # flips sign.
    if isinstance(z, Directed):
        return isinstance(nxt, Directed) and nxt.log_modulus > z.log_modulus
    if isinstance(nxt, Directed):
        return False
    lm = _log_modulus(z)
    return lm >= _LOG_ESCAPE_RADIUS and _log_modulus(nxt) >= lm


def _real_u(z: ExtendedPoint, ch: Optional[Chart]) -> float:
    """r = sign*Re u, u = (z - b)/a in the chart ch = (f, a, b) of
    maps.chart, which every chart test reads; NaN without a chart, which
    no test passes.  With blocks._real_u_points, the one place that knows
    the identity chart."""
    if ch is None:
        return math.nan
    f, a, b = ch
    if not (a == 1 and b == 0):
        z = _to_u(z, a, b)
    if isinstance(z, complex):
        return f.sign * z.real
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        return math.nan  # unresolvable sign; comparisons must not fire
    return f.sign * _scale(_exp_sat(z.log_modulus), math.cos(z.angle))


# the verdict of each code of maps._stop at step n (5 needs a chart)
_VERDICTS = (None, lambda n, ch: Undetermined("nan"),
             lambda n, ch: NonEscapingProven(
                 AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, n),
             lambda n, ch: Escaping(n), lambda n, ch: BoundedAtBudget(),
             lambda n, ch: NonEscapingProven(_HALF_PLANE_RULE[ch[0].sign],
                                             n + 1))


def _iterate(expr: MapExpr, z0: complex, cfg: IterationConfig,
             ch: Optional[Chart]):
    """The loop behind run_orbit, and so classify, for callers that have
    validated expr and pass maps.chart(expr): (classification, points,
    steps_taken), steps_taken the map applications actually performed.
    blocks._classify_points is its array twin."""
    z: ExtendedPoint = complex(z0)
    points = [z]
    r = _real_u(z, ch)
    code, n = _stop(_is_nan(z), False, False, math.nan, r, False, False), -1
    while not code:
        n += 1
        if n == cfg.max_iter:
            return BoundedAtBudget(), points, n
        try:
            nxt = evaluate(expr, z)
        except DegeneratePhaseError:
            return Undetermined("degenerate-phase"), points, n
        points.append(nxt)
        rn = _real_u(nxt, ch)
        # `==` holds for any two equal points but NaNs, which code 1 takes
        code = _stop(_is_nan(nxt), isinstance(z, Directed),
                     isinstance(nxt, Directed), r, rn,
                     ch is None and _escaped_generic(z, nxt),
                     nxt == z and _same_point(nxt, z))
        z, r = nxt, rn
    return _VERDICTS[code](n, ch), points, n + 1


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
