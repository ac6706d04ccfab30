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

``BoundedAtBudget`` and ``Undetermined`` are the honest remainders.  An
orbit whose step returns the point it was given, bit for bit, ends
``BoundedAtBudget`` at once: the step is a pure function, so every later
step would repeat the same tests with the same outcome until the budget
ran out.  Only the count of applications performed changes.

Two engines run these rules.  ``_iterate`` follows one seed and backs
``classify`` and ``run_orbit``.  ``classify_points`` moves an array of
seeds in lockstep through ``maps.evaluate_points``, which hands each
seed that makes a rare move to ``evaluate``, and runs the same tests in
the same order; it backs ``classify_grid`` and the sample suites of
``verify``.  Every exp, cos, sin and log of ``_iterate`` is the ``math``
function, or ``cmath.exp`` for a finite exponential (which calls the
same libm exp, cos and sin).  ``classify_points`` takes every exp, cos
and sin as numpy's complex exp, which calls libm's ``cexp`` and gives
the same bits (``maps._cexp``), and each log as ``math.log``.  Complex
quotients and products are CPython's in both, so the two agree seed by
seed, in verdict class and step.  Their results depend on the libm
behind ``math`` and ``cmath`` and on numpy's complex exp being the
platform ``cexp``, not on numpy's SIMD build.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple, Union

import numpy as np

from .maps import (
    DEFAULT_CONFIG,
    PHASE_RESOLUTION_LIMIT,
    DegeneratePhaseError,
    Directed,
    ExtendedPoint,
    IterationConfig,
    MapExpr,
    _cexp,
    _exp_sat,
    _exp_sat_points,
    _log_modulus,
    _phase_ok,
    _points,
    _same_point,
    _same_points,
    _scale,
    _scale_points,
    _to_u_points,
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
    "classify_points",
    "run_orbit",
    "orbit_to_csv",
]


class AbsorptionRule(enum.Enum):
    """Which proven fact terminated the orbit."""

    RIGHT_HALF_PLANE_F = "right-half-plane-F"
    LEFT_HALF_PLANE_G = "left-half-plane-G"
    UNDERFLOW_TO_FIXED_NEIGHBORHOOD = "underflow-to-fixed-neighborhood"


# byte codes of the four verdict classes in classify_points and fields
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


def _to_u(z: ExtendedPoint, uc: _UChart) -> ExtendedPoint:
    # a Directed u keeps its log scale, as evaluate's Conjugate branch
    # computes it
    a, b, log_a, arg_a = uc
    if isinstance(z, complex):
        return (z - b) / a
    return Directed(z.log_modulus - log_a, z.angle - arg_a)


def _iterate(expr: MapExpr, z0: complex, cfg: IterationConfig, record: bool,
             tests: _ChartTests):
    """Shared loop behind classify and run_orbit; callers validate expr
    and pass _chart_tests(expr).  _classify_points repeats it on arrays.

    The termination tests read the map's chart: they test u = (z - b)/a,
    in which the map is a family map.  The orbit ends at the first step
    that returns its point bit for bit (maps._same_point), once that
    step's escape test has not fired.  Returns (classification,
    points-or-None, steps_taken) where steps_taken counts map
    applications actually performed.
    """
    z: ExtendedPoint = complex(z0)
    points = [z] if record else None
    f, uc = tests
    sign = None if f is None else f.sign
    u = z if uc is None else _to_u(z, uc)

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
        if sign is not None and uc is None and isinstance(z, Directed) \
                and isinstance(nxt, complex):
            # exponential underflowed: the orbit landed exactly on the
            # additive constant, inside the absorbing half plane.  Under
            # another chart the collapsed point has u = const, and the
            # half-plane test takes it before the next application.
            return (NonEscapingProven(AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, n),
                    points, n + 1)
        v = nxt if uc is None else _to_u(nxt, uc)
        if _escaped(sign, u, v, cfg):
            return Escaping(n), points, n + 1
        # A fixed point of the step: every later step would repeat this
        # one's tests on the same pair until the budget runs out.  `==`
        # holds for any two equal points but NaNs, which ended above.
        if nxt == z and _same_point(nxt, z):
            return BoundedAtBudget(), points, n + 1
        z, u = nxt, v

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# lockstep classification of a batch of seeds
# ---------------------------------------------------------------------------

def _effective_real_points(re: np.ndarray, im: np.ndarray,
                           d: np.ndarray) -> np.ndarray:
    """_effective_real of each point of a batch."""
    if not d.any():
        return re
    ph = d & _phase_ok(im)
    mag = _exp_sat_points(re, ph)
    return np.where(ph, _scale_points(mag, _cexp(0.0, im, ph).real),
                    np.where(d, math.nan, re))


def _log_modulus_points(re: np.ndarray, im: np.ndarray,
                        where: np.ndarray) -> np.ndarray:
    """_log_modulus of each finite point where `where` holds (0 elsewhere),
    one call per point."""
    out = np.zeros(len(re))
    if where.any():
        out[where] = np.fromiter(
            map(_log_modulus, map(complex, re[where].tolist(),
                                  im[where].tolist())), dtype=float)
    return out


def _escaped_generic(re: np.ndarray, im: np.ndarray, d: np.ndarray,
                     nr: np.ndarray, ni: np.ndarray, nd: np.ndarray,
                     cfg: IterationConfig) -> np.ndarray:
    """_escaped of each pair (z, nxt) of a map without a chart."""
    both = ~d & ~nd
    lz = _log_modulus_points(re, im, both)
    far = both & (lz >= math.log(cfg.generic_escape_radius))
    return np.where(d, nd & (nr > re),
                    far & (_log_modulus_points(nr, ni, far) >= lz))


def _classify_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                     cfg: IterationConfig,
                     tests: _ChartTests) -> Tuple[np.ndarray, np.ndarray]:
    """classify_points of the seeds re + i*im for a caller that has
    validated expr and passes _chart_tests(expr).

    Every step runs _iterate's tests in _iterate's order on all live
    seeds at once: nan, the half plane, the budget, the step itself
    (degenerate phase), nan, underflow (identity chart only), escape and
    the repeated point (maps._same_points).  Seeds that stop are
    compressed out.
    """
    n = len(re)
    kinds = np.full(n, KIND_BUDGET, dtype=np.uint8)
    steps = np.full(n, -1, dtype=np.int64)
    f, uc = tests
    sign = None if f is None else f.sign
    idx = np.arange(n)
    d = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        # r: sign * the effective real part of u, which the half-plane and
        # escape tests read; without a chart it is unused and u is z
        r = re if sign is None else \
            sign * (re if uc is None else _to_u_points(re, im, d, uc)[0])
        for step in range(cfg.max_iter + 1):
            stop = ~d & (np.isnan(re) | np.isnan(im))
            kinds[idx[stop]] = KIND_UNDETERMINED
            if sign is not None:
                hit = ~d & ~stop & (r <= 0.0)
                kinds[idx[hit]] = KIND_PROVEN
                steps[idx[hit]] = step
                stop |= hit
            keep = ~stop
            idx, re, im, d, r = idx[keep], re[keep], im[keep], d[keep], r[keep]
            if step == cfg.max_iter or not len(idx):
                break  # what is left stays bounded at budget
            nr, ni, nd, stop = _points(expr, re, im, d, cfg)
            stop |= np.isnan(nr) | np.isnan(ni)
            kinds[idx[stop]] = KIND_UNDETERMINED
            if sign is None:
                rn = nr
                hit = ~stop & _escaped_generic(re, im, d, nr, ni, nd, cfg)
            else:
                if uc is None:
                    hit = ~stop & d & ~nd  # underflow, as in _iterate
                    kinds[idx[hit]] = KIND_PROVEN
                    steps[idx[hit]] = step
                    stop |= hit
                    vr, vi = nr, ni
                else:
                    vr, vi = _to_u_points(nr, ni, nd, uc)
                rn = sign * _effective_real_points(vr, vi, nd)
                hit = ~stop & (r >= cfg.escape_real_threshold) & (rn >= r)
            kinds[idx[hit]] = KIND_ESCAPING
            steps[idx[hit]] = step
            # a seed at a fixed point of the step stays bounded at budget
            keep = ~(stop | hit | _same_points((nr, ni, nd), (re, im, d)))
            idx, re, im, d, r = (idx[keep], nr[keep], ni[keep], nd[keep],
                                 rn[keep])
    return kinds, steps


def classify(expr: MapExpr, z0: complex,
             cfg: IterationConfig = DEFAULT_CONFIG) -> Classification:
    """Classify one seed.  Pure function of (expr, z0, cfg)."""
    validate(expr)
    return _iterate(expr, z0, cfg, False, _chart_tests(expr))[0]


def classify_points(expr: MapExpr, points: np.ndarray,
                    cfg: IterationConfig = DEFAULT_CONFIG
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Classify each seed of a 1-D complex array, all in lockstep.

    Returns (kinds, steps): kinds[k] is the byte code (KIND_ESCAPING,
    KIND_PROVEN, KIND_BUDGET or KIND_UNDETERMINED) of
    classify(expr, points[k], cfg), steps[k] the step of an Escaping or
    NonEscapingProven verdict and -1 otherwise.  The codes agree with
    classify seed by seed: the step is maps.evaluate_points, which gives
    each point evaluate's bits, and the tests are _iterate's.
    """
    validate(expr)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise ValueError(f"points must be a 1-D array, got shape {pts.shape}")
    return _classify_points(expr, pts.real, pts.imag, cfg, _chart_tests(expr))


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
