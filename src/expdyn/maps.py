"""Symbolic map language and single-step evaluation.

The map language covers two parametrized exponential families plus the
combinators needed to build iterates, additive shifts, compositions and
affine conjugates of them:

    F(lam, xi)   : z -> exp(-z + lam) + xi      (Re lam < 0, Re xi >= +1)
    G(mu, zeta)  : z -> exp(+z + mu) + zeta     (Re mu  < 0, Re zeta <= -1)
    exp(lam)     : z -> exp(lam * z)            (lam != 0)

Expression trees are immutable; evaluation is a pure function and safe to
run from any number of workers.

Values too large for floating point are carried on a log scale: a
``Directed`` point stores the natural log of the modulus together with an
(unreduced) angle, and its log-modulus is always above the rung (700).
F, G and exp(lam) are all z -> exp(m*z + p) + q (m = -1, +1 or lam), and
each engine writes their step on a Directed point once: it deepens, or
the exponential underflows and it collapses onto q.  A step whose result
is at or below the rung returns an ordinary complex with the map's
constant added.  A finite point whose conjugation ``(z - b)/a`` or
``a*v + b`` overflows moves onto the ladder the same way.

Each engine builds a point from its exponent in one place (``_exp``
here, ``blocks._exp_points``) and drops an additive constant on the
ladder in one place (``_plus``, ``blocks._plus_points``).  ``_exp``
takes a finite exponential exp(w), Re w at most the rung and Im w
finite, as one ``cmath.exp`` call.  Below Re w = 708.3 CPython computes
it as exactly exp(Re w)*cos(Im w) and exp(Re w)*sin(Im w), with the libm
functions that ``math.exp``, ``math.cos`` and ``math.sin`` call, so the
bits are those of the three ``math`` calls.

``blocks.evaluate_points`` applies a map once to a whole batch of points
on numpy arrays and gives each point ``evaluate``'s bits.  This module
imports no numpy, so the commands that step one seed at a time (parse,
orbit) start without it.
"""

from __future__ import annotations

import cmath
import enum
import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple, Union

__all__ = [
    "Family",
    "FamilyF",
    "FamilyG",
    "ScaledExp",
    "Iterate",
    "Shift",
    "Compose",
    "Conjugate",
    "MapExpr",
    "Directed",
    "ExtendedPoint",
    "IterationConfig",
    "DEFAULT_CONFIG",
    "Window",
    "InvalidMapError",
    "DegeneratePhaseError",
    "validate",
    "evaluate",
    "period_of",
    "chart",
]

TWO_PI_I = complex(0.0, 2.0 * math.pi)

# exp() of anything above this saturates to +inf instead of raising
_EXP_OVERFLOW = 709.0


class InvalidMapError(ValueError):
    """A map expression violates one of a node's own constraints."""

    def __init__(self, path: str, constraint: str, detail: str = ""):
        self.path = path or "root"
        self.constraint = constraint
        msg = f"{self.path}: constraint {constraint!r} violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegeneratePhaseError(ArithmeticError):
    """The phase of an overflowed point is too close to +-pi/2 to decide
    the sign of the next exponent; the caller must classify the orbit as
    undetermined."""


class Family(enum.Enum):
    """Which exponential family a map or strip query refers to (F or its
    mirror G)."""

    F = "F"
    G = "G"


@dataclass(frozen=True, slots=True)
class FamilyF:
    """z -> exp(-z + lam) + xi, with Re lam < 0 and Re xi >= 1.

    The closed right half plane is absorbing for these maps.
    """

    lam: complex
    xi: complex
    sign: ClassVar[float] = -1.0
    family: ClassVar[Family] = Family.F


@dataclass(frozen=True, slots=True)
class FamilyG:
    """z -> exp(z + mu) + zeta, with Re mu < 0 and Re zeta <= -1.

    Mirror image of :class:`FamilyF`; the left half plane is absorbing.
    """

    mu: complex
    zeta: complex
    sign: ClassVar[float] = 1.0
    family: ClassVar[Family] = Family.G


# One description of both families: z -> exp(sign*z + param) + const,
# with the closed half plane sign*Re z <= 0 absorbing.  Every other node
# lacks ``sign``, so ``getattr(expr, "sign", None)`` tells a family map
# apart.  ``param``/``const`` alias the parameter slots themselves: a
# property would cost about five times as much on the evaluate path.
FamilyF.param, FamilyF.const = FamilyF.lam, FamilyF.xi
FamilyG.param, FamilyG.const = FamilyG.mu, FamilyG.zeta


@dataclass(frozen=True, slots=True)
class ScaledExp:
    """z -> exp(lam * z), lam != 0."""

    lam: complex


@dataclass(frozen=True, slots=True)
class Iterate:
    """s-fold composition of the base map, s >= 1."""

    base: "MapExpr"
    s: int


@dataclass(frozen=True, slots=True)
class Shift:
    """base map plus an additive constant."""

    base: "MapExpr"
    c: complex


@dataclass(frozen=True, slots=True)
class Compose:
    """outer after inner."""

    outer: "MapExpr"
    inner: "MapExpr"


@dataclass(frozen=True, slots=True)
class Conjugate:
    """phi o base o phi^-1 with phi(z) = a*z + b, a != 0.

    Evaluated algebraically as a*base((z-b)/a) + b; the tree is never
    expanded.
    """

    a: complex
    b: complex
    base: "MapExpr"


MapExpr = Union[FamilyF, FamilyG, ScaledExp, Iterate, Shift, Compose, Conjugate]


@dataclass(frozen=True, slots=True)
class Directed:
    """Stand-in for a complex value whose modulus exceeded the floating
    point range: ``log_modulus`` is ln|z| and ``angle`` is arg z.

    The angle is kept unreduced (not folded into (-pi, pi]) so that
    diagnostics can still see the magnitude of the imaginary part that
    produced it; consumers reduce mod 2*pi themselves (``math.cos`` /
    ``math.sin`` do).
    """

    log_modulus: float
    angle: float


ExtendedPoint = Union[complex, Directed]


@dataclass(frozen=True, slots=True)
class IterationConfig:
    """The iteration budget of orbit classification.

    max_iter, the map applications per seed (at least 1), is the one
    setting, and only the orbit loops read it: a step of a map reads no
    setting.  The other attributes are constants of the verdict rules:

    overflow_log_threshold: Re of an exponent above which the result is
        represented as Directed (700, just under the double limit
        ~709.78, leaving headroom for additive constants).
    escape_real_threshold: |Re z| beyond which two consecutive deepening
        steps count as numerical escape for the two families.
    generic_escape_radius: modulus threshold of the escape test used for
        every other map shape.
    degeneracy_eps: at a Directed z, the sign of the exponent m*z of F, G
        or exp(lam) is unresolvable where the direction cosine
        Re(m*e^{i angle}) lies within degeneracy_eps*|m| of 0.
    """

    max_iter: int = 1000
    overflow_log_threshold: ClassVar[float] = 700.0
    escape_real_threshold: ClassVar[float] = 50.0
    degeneracy_eps: ClassVar[float] = 1e-12
    generic_escape_radius: ClassVar[float] = 1e10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_CONFIG = IterationConfig()


@dataclass(frozen=True, slots=True)
class Window:
    """The rectangle [x_min, x_max] x [y_min, y_max] of a grid or a
    sample set; finite, with a finite positive width and height."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.x_min, self.x_max, self.y_min, self.y_max)):
            raise ValueError("window bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window must have x_min < x_max and y_min < y_max")
        if not (math.isfinite(self.x_max - self.x_min)
                and math.isfinite(self.y_max - self.y_min)):
            # an infinite width would put every cell center at inf
            raise ValueError("window width and height must be finite")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# One row per node kind: its grammar keyword (the parser takes the first
# one the text starts with, so no keyword is a prefix of another), its
# arguments in field order, the order the grammar writes them ("c" a
# complex, "i" an int, "m" a sub-map), and its own constraints in checking
# order: a text, a test of the node and any value a violation reports.
NodeKind = namedtuple("NodeKind", "keyword args constraints", defaults=((),))
Constraint = namedtuple("Constraint", "text holds got", defaults=(None,))
NODE_KINDS = {
    FamilyF: NodeKind("F", "cc", (
        Constraint("Re(lambda) < 0", lambda f: f.lam.real < 0, lambda f: f.lam.real),
        Constraint("Re(xi) >= 1", lambda f: f.xi.real >= 1, lambda f: f.xi.real))),
    FamilyG: NodeKind("G", "cc", (
        Constraint("Re(mu) < 0", lambda g: g.mu.real < 0, lambda g: g.mu.real),
        Constraint("Re(zeta) <= -1", lambda g: g.zeta.real <= -1,
                   lambda g: g.zeta.real))),
    ScaledExp: NodeKind("exp", "c", (Constraint("lambda != 0", lambda e: e.lam != 0),)),
    Iterate: NodeKind("iter", "mi", (
        Constraint("s >= 1", lambda i: i.s >= 1, lambda i: i.s),)),
    Shift: NodeKind("shift", "mc"),
    Compose: NodeKind("comp", "mm"),
    Conjugate: NodeKind("conj", "ccm", (Constraint("a != 0", lambda c: c.a != 0),)),
}


def node_fields(expr: MapExpr) -> List[Tuple[str, str, object]]:
    """(field name, argument kind, value) of each argument, in field order."""
    kind = NODE_KINDS.get(type(expr))
    if kind is None:
        raise TypeError(f"not a map expression: {expr!r}")
    return [(name, arg, getattr(expr, name))
            for name, arg in zip(expr.__match_args__, kind.args)]


def validate(expr: MapExpr) -> None:
    """Raise :class:`InvalidMapError` naming the first violated constraint.

    The error carries the node path (root / base / outer / inner chains)
    and the inequality that failed.  After a node's own constraints, its
    complex parameters must be finite and its sub-maps valid, in field
    order.  A map is validated once per call of ``classify``,
    ``run_orbit`` or ``classify_grid``, not once per seed.
    """
    _validate(expr, "")


def _validate(expr: MapExpr, path: str) -> None:
    args = node_fields(expr)
    for c in NODE_KINDS[type(expr)].constraints:
        if not c.holds(expr):
            raise InvalidMapError(path, c.text, f"got {c.got(expr)}" if c.got else "")
    for name, arg, value in args:
        if arg == "m":
            _validate(value, f"{path}.{name}" if path else name)
        elif arg == "c" and not cmath.isfinite(value):
            raise InvalidMapError(path, f"{name} finite", f"got {value}")


# ---------------------------------------------------------------------------
# one-step evaluation
# ---------------------------------------------------------------------------

def _exp_sat(x: float) -> float:
    # math.exp raises OverflowError past ~709.78; saturate instead
    return math.exp(x) if x < _EXP_OVERFLOW else math.inf


def _scale(mag: float, x: float) -> float:
    # mag * x avoiding inf * 0 -> nan; an exact zero factor wins
    return 0.0 if x == 0.0 else mag * x


def _exp(wr: float, wi: float) -> ExtendedPoint:
    """exp(wr + i*wi): one cmath.exp where wr <= the rung, else (NaN too)
    Directed(wr, wi); with wi not finite only a zero modulus survives, and
    anything else is NaN.  The scalar twin of blocks._exp_points."""
    if wr <= IterationConfig.overflow_log_threshold:
        if math.isfinite(wi):
            return cmath.exp(complex(wr, wi))
        return 0j if math.exp(wr) == 0.0 else complex(math.nan, math.nan)
    return Directed(wr, wi)


def _plus(v: ExtendedPoint, c: complex) -> ExtendedPoint:
    """v + c; on the ladder c is ~1e-300 relative and is dropped.  The
    scalar twin of blocks._plus_points."""
    return v + c if isinstance(v, complex) else v


_LN2 = math.log(2.0)


def _log_modulus(z: complex) -> float:
    """ln|z|, also where |z| passes DBL_MAX with finite parts: abs then
    raises OverflowError, and z is halved first, which is exact."""
    try:
        m = abs(z)
    except OverflowError:
        return math.log(abs(0.5 * z)) + _LN2
    return math.log(m) if m > 0.0 else -math.inf


_PAIR = struct.Struct("dd")


def _same_point(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """p and q are the same point bit for bit: the same kind and the same
    bits of both floats (0.0 and -0.0 differ; a NaN equals itself).
    The scalar twin of blocks._same_points."""
    if isinstance(p, complex):
        return isinstance(q, complex) and \
            _PAIR.pack(p.real, p.imag) == _PAIR.pack(q.real, q.imag)
    return isinstance(q, Directed) and \
        _PAIR.pack(p.log_modulus, p.angle) == _PAIR.pack(q.log_modulus, q.angle)


def _normalize(log_modulus: float, angle: float) -> ExtendedPoint:
    # Directed values must stay above the rung; anything representable is
    # demoted back to an ordinary complex number.
    if log_modulus > IterationConfig.overflow_log_threshold:
        return Directed(log_modulus, angle)
    if not math.isfinite(angle):
        raise DegeneratePhaseError("angle saturated past phase resolution")
    return cmath.exp(complex(log_modulus, angle))


def _log_polar(w: complex) -> Tuple[float, float]:
    """(ln|w|, arg w), arg by math.atan2: cmath.phase raises OverflowError
    where atan2 underflows (cmath.phase(1e300+1e-30j))."""
    return _log_modulus(w), math.atan2(w.imag, w.real)


def _to_u(z: ExtendedPoint, a: complex, b: complex) -> ExtendedPoint:
    """phi^-1(z) = (z - b)/a of the chart phi(u) = a*u + b; a ladder point
    shifts by -ln|a| and -arg a.  Twin of blocks._to_u_points."""
    if isinstance(z, complex):
        return (z - b) / a
    log_a, arg_a = _log_polar(a)
    return Directed(z.log_modulus - log_a, z.angle - arg_a)


def _from_u(v: ExtendedPoint, a: complex, b: complex) -> ExtendedPoint:
    """phi(v) = a*v + b; a ladder point shifts by ln|a| and arg a (b is
    negligible there).  Twin of blocks._from_u_points."""
    if isinstance(v, complex):
        return a * v + b
    log_a, arg_a = _log_polar(a)
    return Directed(v.log_modulus + log_a, v.angle + arg_a)


def _crossed(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    # q, a transport of p, overflowed from a finite p: p crosses onto the ladder
    return isinstance(q, complex) and cmath.isfinite(p) and not cmath.isfinite(q)


# Above this magnitude one ulp of the angle exceeds half a radian, so the
# reduced phase is pure rounding noise.
PHASE_RESOLUTION_LIMIT = 2.0 ** 52


def _ladder_step(z: Directed, m: complex, p: complex, q: complex) -> ExtendedPoint:
    """exp(m*z + p) + q at a Directed z, the ladder step of F and G
    ((m, p, q) = (sign, param, const)) and of exp(lam) ((lam, 0, 0)).
    With dr + i*di = m*e^{i angle}, z collapses onto q where
    dr <= -eps*|m| and deepens to _exp(|z|*dr + Re p, |z|*di + Im p) + q
    where dr >= eps*|m|; in between, or past PHASE_RESOLUTION_LIMIT (where
    the angle carries no usable phase), its phase is degenerate."""
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        raise DegeneratePhaseError(f"angle {z.angle} beyond phase resolution")
    ca, sa = math.cos(z.angle), math.sin(z.angle)
    # CPython's complex product m * (ca + i*sa)
    dr = m.real * ca - m.imag * sa
    di = m.real * sa + m.imag * ca
    eps = IterationConfig.degeneracy_eps
    if dr <= -eps * abs(m):
        return complex(q)  # q may be real: a map built with real parameters
    if dr >= eps * abs(m):
        mag = _exp_sat(z.log_modulus)
        return _plus(_exp(mag * dr + p.real, _scale(mag, di) + p.imag), q)
    raise DegeneratePhaseError(f"direction cosine {dr / abs(m)} below {eps}")


def evaluate(expr: MapExpr, z: ExtendedPoint,
             cfg: IterationConfig = DEFAULT_CONFIG) -> ExtendedPoint:
    """Apply the map once to a finite or overflowed point.

    Composite nodes evaluate structurally; Iterate applies its base s
    times.  Raises :class:`DegeneratePhaseError` where the phase of a
    Directed point is degenerate for an F, G or exp(lam) node (_ladder_step).
    A step reads no setting: cfg is accepted and not read (max_iter is
    read by the orbit loops only).
    """
    sign = getattr(expr, "sign", None)
    if sign is not None:
        p = expr.param
        if isinstance(z, Directed):
            return _ladder_step(z, sign, p, expr.const)
        return _plus(_exp(sign * z.real + p.real, sign * z.imag + p.imag),
                     expr.const)

    if isinstance(expr, ScaledExp):
        lam = expr.lam
        if isinstance(z, Directed):
            return _ladder_step(z, lam, 0.0, 0.0)
        return _exp(lam.real * z.real - lam.imag * z.imag,
                    lam.real * z.imag + lam.imag * z.real)

    if isinstance(expr, Iterate):
        for _ in range(expr.s):
            z = evaluate(expr.base, z)
        return z

    if isinstance(expr, Shift):
        return _plus(evaluate(expr.base, z), expr.c)

    if isinstance(expr, Compose):
        return evaluate(expr.outer, evaluate(expr.inner, z))

    if isinstance(expr, Conjugate):
        # phi^-1, the base, then phi; a finite point whose transport overflows
        # crosses onto the ladder first, b dropped as Shift drops c there
        a, b = expr.a, expr.b
        u = _to_u(z, a, b)
        if _crossed(z, u):
            u = _to_u(Directed(*_log_polar(z - b)), a, b)
        if isinstance(u, Directed):
            u = _normalize(u.log_modulus, u.angle)
        v = evaluate(expr.base, u)
        w = _from_u(v, a, b)
        if _crossed(v, w):
            w = _from_u(Directed(*_log_polar(v)), a, b)
        if isinstance(w, Directed):
            return _normalize(w.log_modulus, w.angle)
        return w

    raise TypeError(f"not a map expression: {expr!r}")


# ---------------------------------------------------------------------------
# additive periods and affine charts
# ---------------------------------------------------------------------------

def period_of(expr: MapExpr) -> complex:
    """Return a structurally known additive period c with f(z+c) = f(z).

    Every node kind has one: a period of a composite's inner map is a
    period of the composite.
    """
    if getattr(expr, "sign", None) is not None:
        return TWO_PI_I
    if isinstance(expr, ScaledExp):
        return TWO_PI_I / expr.lam
    if isinstance(expr, (Iterate, Shift)):
        # the first application of the base absorbs the period
        return period_of(expr.base)
    if isinstance(expr, Compose):
        return period_of(expr.inner)
    if isinstance(expr, Conjugate):
        return expr.a * period_of(expr.base)
    raise TypeError(f"not a map expression: {expr!r}")


Chart = Tuple[Union[FamilyF, FamilyG], complex, complex]


def chart(expr: MapExpr) -> Optional[Chart]:
    """(f, a, b) when expr is, in the coordinate u = (z - b)/a, the family
    map f (an F or G node); None otherwise.

    The family tests then hold on u: the closed half plane f.sign*Re u <= 0
    absorbs, and deepening at f.sign*Re u >= escape_real_threshold escapes.
    A conjugate by phi(z) = a'*z + b' composes phi with its base's chart;
    shift(f, c) of a family map f is f with constant const + c while that
    stays in range.  Iterate and Compose get None: the two-step deepening
    rule has not been shown valid for f^s or for a composite.
    """
    if getattr(expr, "sign", None) is not None:
        return expr, 1.0, 0.0
    if isinstance(expr, Conjugate):
        inner = chart(expr.base)
        if inner is None:
            return None
        f, a, b = inner
        return f, expr.a * a, expr.a * b + expr.b
    if isinstance(expr, Shift) and getattr(expr.base, "sign", None) is not None:
        f = type(expr.base)(expr.base.param, expr.base.const + expr.c)
        if all(c.holds(f) for c in NODE_KINDS[type(f)].constraints):
            return f, 1.0, 0.0
    return None
