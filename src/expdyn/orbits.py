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
two loops ask it once per step (a seed's own tests are a step -1)
through the engine's ``start`` and ``stop`` (``maps._Engine``), which
write once the inputs r, far and same that the rules read.  ``_iterate``
follows one seed on the engine's float path and backs ``classify`` and
``run_orbit``; it keeps only the bookkeeping (points, count, verdict).
Every exp, cos, sin and log it takes is the ``math`` function, or
``cmath.exp`` (which calls the same libm exp, cos and sin), and this
module imports no numpy.  ``blocks.classify_points`` runs the same
helpers on arrays of seeds in lockstep (see ``blocks``), so the two agree
seed by seed, in verdict class and step; it backs ``classify_grid`` and
the sample suites of ``verify``.
"""

from __future__ import annotations

import enum
from typing import Optional, TextIO, Union

from .maps import (  # KIND_*: callers may read the codes from here too
    _FLOATS,
    DEFAULT_CONFIG,
    KIND_BUDGET,
    KIND_ESCAPING,
    KIND_PROVEN,
    KIND_UNDETERMINED,
    Chart,
    DegeneratePhaseError,
    Directed,
    IterationConfig,
    MapExpr,
    _g17,
    _Value,
    chart,
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


class NonEscapingProven(_Value):
    __slots__ = __match_args__ = ("rule", "step")


class BoundedAtBudget(_Value):
    __slots__ = ()


class Undetermined(_Value):
    __slots__ = __match_args__ = ("reason",)


Classification = Union[Escaping, NonEscapingProven, BoundedAtBudget, Undetermined]


class OrbitRecord(_Value):
    __slots__ = __match_args__ = ("seed", "points", "classification",
                                  "steps_taken")


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
    Its step and stop inputs are the engine's on floats (maps._FLOATS)."""
    z = complex(z0)
    points = [z]
    pt = (z.real, z.imag, False)
    code, r = _FLOATS.start(z.real, z.imag, ch)
    n = -1
    while not code:
        n += 1
        if n == cfg.max_iter:
            return BoundedAtBudget(), points, n
        try:
            nxt = _FLOATS.step(expr, *pt)[:3]
        except DegeneratePhaseError:
            return Undetermined("degenerate-phase"), points, n
        points.append(Directed(nxt[0], nxt[1]) if nxt[2] else
                      complex(nxt[0], nxt[1]))
        code, r = _FLOATS.stop(pt, r, nxt, ch)
        pt = nxt
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
    return OrbitRecord(complex(z0), tuple(points), verdict, steps)


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
