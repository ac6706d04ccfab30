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
(unreduced) angle, and one map application is continued analytically on
that representation.  When the exponent of the next step is hugely
negative the exponential term underflows and evaluation collapses the
point back to the additive constant of the map.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

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
    "InvalidMapError",
    "DegeneratePhaseError",
    "validate",
    "evaluate",
    "period_of",
]

TWO_PI_I = complex(0.0, 2.0 * math.pi)

# exp() of anything above this saturates to +inf instead of raising
_EXP_OVERFLOW = 709.0


class InvalidMapError(ValueError):
    """A map expression violates one of its family constraints."""

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
    """The iteration budget shared by evaluation and orbit classification.

    max_iter, the map applications per seed (at least 1), is the one
    setting.  The other attributes are constants of the verdict rules:

    overflow_log_threshold: Re of an exponent above which the result is
        represented as Directed (700, just under the double limit
        ~709.78, leaving headroom for additive constants).
    escape_real_threshold: |Re z| beyond which two consecutive deepening
        steps count as numerical escape for the two families.
    generic_escape_radius: modulus threshold of the escape test used for
        every other map shape.
    degeneracy_eps: |cos angle| below this on a Directed point means the
        sign of the next exponent is unresolvable.
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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(expr: MapExpr) -> None:
    """Raise :class:`InvalidMapError` naming the first violated constraint.

    The error carries the node path (root / base / outer / inner chains)
    and the inequality that failed.
    """
    _validate(expr, "")


def _validate(expr: MapExpr, path: str) -> None:
    if isinstance(expr, FamilyF):
        if not expr.lam.real < 0:
            raise InvalidMapError(path, "Re(lambda) < 0", f"got {expr.lam.real}")
        if not expr.xi.real >= 1:
            raise InvalidMapError(path, "Re(xi) >= 1", f"got {expr.xi.real}")
    elif isinstance(expr, FamilyG):
        if not expr.mu.real < 0:
            raise InvalidMapError(path, "Re(mu) < 0", f"got {expr.mu.real}")
        if not expr.zeta.real <= -1:
            raise InvalidMapError(path, "Re(zeta) <= -1", f"got {expr.zeta.real}")
    elif isinstance(expr, ScaledExp):
        if expr.lam == 0:
            raise InvalidMapError(path, "lambda != 0")
    elif isinstance(expr, Iterate):
        if expr.s < 1:
            raise InvalidMapError(path, "s >= 1", f"got {expr.s}")
        _validate(expr.base, _join(path, "base"))
    elif isinstance(expr, Shift):
        _validate(expr.base, _join(path, "base"))
    elif isinstance(expr, Compose):
        _validate(expr.outer, _join(path, "outer"))
        _validate(expr.inner, _join(path, "inner"))
    elif isinstance(expr, Conjugate):
        if expr.a == 0:
            raise InvalidMapError(path, "a != 0")
        _validate(expr.base, _join(path, "base"))
    else:
        raise TypeError(f"not a map expression: {expr!r}")


def _join(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


# ---------------------------------------------------------------------------
# one-step evaluation
# ---------------------------------------------------------------------------

def _exp_sat(x: float) -> float:
    # math.exp raises OverflowError past ~709.78; saturate instead
    return math.exp(x) if x < _EXP_OVERFLOW else math.inf


def _scale(mag: float, x: float) -> float:
    # mag * x avoiding inf * 0 -> nan; an exact zero factor wins
    return 0.0 if x == 0.0 else mag * x


def _cis(m: float, angle: float) -> tuple:
    """m * (cos angle, sin angle) tolerating non-finite angles.

    A zero modulus wins over a lost phase; otherwise the value is
    genuinely indeterminate and becomes NaN for the caller to abort on.
    """
    if math.isfinite(angle):
        return m * math.cos(angle), m * math.sin(angle)
    if m == 0.0:
        return 0.0, 0.0
    return math.nan, math.nan


def _normalize(log_modulus: float, angle: float, threshold: float) -> ExtendedPoint:
    # Directed values must stay above the overflow threshold; anything
    # representable is demoted back to an ordinary complex number.
    if log_modulus > threshold:
        return Directed(log_modulus, angle)
    if not math.isfinite(angle):
        raise DegeneratePhaseError("angle saturated past phase resolution")
    m = math.exp(log_modulus)
    return complex(m * math.cos(angle), m * math.sin(angle))


# Above this magnitude one ulp of the angle exceeds half a radian, so the
# reduced phase is pure rounding noise.
PHASE_RESOLUTION_LIMIT = 2.0 ** 52


def _phase_cos(angle: float) -> float:
    # A Directed angle past the resolution limit (or saturated to +-inf)
    # carries no usable phase; iterating further would be guessing.
    if not (-PHASE_RESOLUTION_LIMIT <= angle <= PHASE_RESOLUTION_LIMIT):
        raise DegeneratePhaseError("angle beyond phase resolution")
    return math.cos(angle)


def evaluate(expr: MapExpr, z: ExtendedPoint,
             cfg: IterationConfig = DEFAULT_CONFIG) -> ExtendedPoint:
    """Apply the map once to a finite or overflowed point.

    Composite nodes evaluate structurally; Iterate applies its base s
    times.  Raises :class:`DegeneratePhaseError` when a Directed input
    has |cos angle| < cfg.degeneracy_eps, because the sign of the next
    exponent is then below phase resolution.
    """
    thresh = cfg.overflow_log_threshold
    sign = getattr(expr, "sign", None)
    if sign is not None:
        p, const = expr.param, expr.const
        if isinstance(z, complex):
            wr = sign * z.real + p.real
            wi = sign * z.imag + p.imag
            if wr <= thresh:
                m = math.exp(wr)
                cr, ci = _cis(m, wi)
                return complex(cr + const.real, ci + const.imag)
            # const is ~1e-300 relative at this scale and is dropped
            return Directed(wr, wi)
        c = sign * _phase_cos(z.angle)
        if c <= -cfg.degeneracy_eps:
            # Re(sign*z) is hugely negative: the exponential underflows to
            # 0; complex() because the map may be built with real parameters
            return complex(const)
        if c >= cfg.degeneracy_eps:
            mag = _exp_sat(z.log_modulus)
            return Directed(mag * c + p.real,
                            _scale(mag, sign * math.sin(z.angle)) + p.imag)
        raise DegeneratePhaseError(f"|cos {z.angle}| < {cfg.degeneracy_eps}")

    if isinstance(expr, ScaledExp):
        lam = expr.lam
        if isinstance(z, complex):
            wr = lam.real * z.real - lam.imag * z.imag
            wi = lam.real * z.imag + lam.imag * z.real
            if wr <= thresh:
                m = math.exp(wr)
                cr, ci = _cis(m, wi)
                return complex(cr, ci)
            return Directed(wr, wi)
        # w = lam * z has direction lam * e^{i angle}
        ca, sa = _phase_cos(z.angle), math.sin(z.angle)
        dr = lam.real * ca - lam.imag * sa
        di = lam.real * sa + lam.imag * ca
        scale = abs(lam)
        if dr <= -cfg.degeneracy_eps * scale:
            return complex(0.0, 0.0)
        if dr >= cfg.degeneracy_eps * scale:
            mag = _exp_sat(z.log_modulus)
            return Directed(mag * dr, _scale(mag, di))
        raise DegeneratePhaseError(
            f"direction cosine {dr / scale} below {cfg.degeneracy_eps}")

    if isinstance(expr, Iterate):
        for _ in range(expr.s):
            z = evaluate(expr.base, z, cfg)
        return z

    if isinstance(expr, Shift):
        v = evaluate(expr.base, z, cfg)
        if isinstance(v, complex):
            return v + expr.c
        return v  # additive constant is negligible past the overflow rung

    if isinstance(expr, Compose):
        return evaluate(expr.outer, evaluate(expr.inner, z, cfg), cfg)

    if isinstance(expr, Conjugate):
        a, b = expr.a, expr.b
        if isinstance(z, complex):
            pre: ExtendedPoint = (z - b) / a
        else:
            pre = _normalize(z.log_modulus - math.log(abs(a)),
                             z.angle - math.atan2(a.imag, a.real), thresh)
        v = evaluate(expr.base, pre, cfg)
        if isinstance(v, complex):
            return a * v + b
        return _normalize(v.log_modulus + math.log(abs(a)),
                          v.angle + math.atan2(a.imag, a.real), thresh)

    raise TypeError(f"not a map expression: {expr!r}")


# ---------------------------------------------------------------------------
# additive periods
# ---------------------------------------------------------------------------

def period_of(expr: MapExpr) -> Optional[complex]:
    """Return a structurally known additive period c with f(z+c) = f(z),
    or None when no period is derivable (Compose is conservative)."""
    if getattr(expr, "sign", None) is not None:
        return TWO_PI_I
    if isinstance(expr, ScaledExp):
        return TWO_PI_I / expr.lam
    if isinstance(expr, (Iterate, Shift)):
        # the first application of the base absorbs the period
        return period_of(expr.base)
    if isinstance(expr, Conjugate):
        c = period_of(expr.base)
        return None if c is None else expr.a * c
    return None
