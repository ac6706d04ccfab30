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

Every value type of the package (the node kinds, ``Directed``,
``IterationConfig``, ``Window``, the verdicts and ``OrbitRecord`` of
``orbits``, ``EscapeField``, ``SampleSet``, ``StripId`` and
``VerificationReport``) is a ``__slots__`` class on ``_Value``.  A class
lists its fields once, as ``__slots__ = __match_args__``, and its
``__init__`` checks and sets them; ``_Value`` reads that tuple for
==, hash, repr, copy and pickle and refuses assignment, as a frozen
dataclass does.  It generates no code, so importing the package costs no
class generation and no ``dataclasses`` (nor the ``inspect`` that module
loads).
"""

from __future__ import annotations

import cmath
import enum
import math
import struct
from collections import namedtuple
from typing import Optional, Tuple, Union

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


_set = object.__setattr__  # how an __init__ sets a field past _Value's guard


class _Value:
    """Base of the value types: an immutable record of the fields named
    by ``__match_args__`` (also the class's ``__slots__``), in
    constructor order, which its own ``__init__`` sets with ``_set``.

    Two values are equal when they are of the very same class and their
    fields are equal (as tuples: a field that is one object on both sides
    is equal); the hash is that of the field tuple, and the repr is
    ``Name(field=value, ...)``.  ``_compared`` names the fields these
    three read where that is not all of them.  Assigning or deleting a
    field raises AttributeError; copy and pickle rebuild a value through
    its constructor.  This is what ``@dataclass(frozen=True)`` gives.
    """

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()
    _compared: Optional[Tuple[str, ...]] = None

    def _names(self) -> Tuple[str, ...]:
        return self.__match_args__ if self._compared is None else self._compared

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names()])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._names())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self.__match_args__])


class Family(enum.Enum):
    """Which exponential family a map or strip query refers to (F or its
    mirror G)."""

    F = "F"
    G = "G"


class FamilyF(_Value):
    """z -> exp(-z + lam) + xi, with Re lam < 0 and Re xi >= 1.

    The closed right half plane is absorbing for these maps.
    """

    __slots__ = __match_args__ = ("lam", "xi")
    sign = -1.0
    family = Family.F

    def __init__(self, lam: complex, xi: complex):
        _set(self, "lam", lam)
        _set(self, "xi", xi)


class FamilyG(_Value):
    """z -> exp(z + mu) + zeta, with Re mu < 0 and Re zeta <= -1.

    Mirror image of :class:`FamilyF`; the left half plane is absorbing.
    """

    __slots__ = __match_args__ = ("mu", "zeta")
    sign = 1.0
    family = Family.G

    def __init__(self, mu: complex, zeta: complex):
        _set(self, "mu", mu)
        _set(self, "zeta", zeta)


# One description of both families: z -> exp(sign*z + param) + const,
# with the closed half plane sign*Re z <= 0 absorbing.  Every other node
# lacks ``sign``, so ``getattr(expr, "sign", None)`` tells a family map
# apart.  ``param``/``const`` alias the parameter slots themselves: a
# property would cost about five times as much on the evaluate path.
FamilyF.param, FamilyF.const = FamilyF.lam, FamilyF.xi
FamilyG.param, FamilyG.const = FamilyG.mu, FamilyG.zeta


class ScaledExp(_Value):
    """z -> exp(lam * z), lam != 0."""

    __slots__ = __match_args__ = ("lam",)

    def __init__(self, lam: complex):
        _set(self, "lam", lam)


class Iterate(_Value):
    """s-fold composition of the base map, s >= 1."""

    __slots__ = __match_args__ = ("base", "s")

    def __init__(self, base: "MapExpr", s: int):
        _set(self, "base", base)
        _set(self, "s", s)


class Shift(_Value):
    """base map plus an additive constant."""

    __slots__ = __match_args__ = ("base", "c")

    def __init__(self, base: "MapExpr", c: complex):
        _set(self, "base", base)
        _set(self, "c", c)


class Compose(_Value):
    """outer after inner."""

    __slots__ = __match_args__ = ("outer", "inner")

    def __init__(self, outer: "MapExpr", inner: "MapExpr"):
        _set(self, "outer", outer)
        _set(self, "inner", inner)


class Conjugate(_Value):
    """phi o base o phi^-1 with phi(z) = a*z + b, a != 0.

    Evaluated algebraically as a*base((z-b)/a) + b; the tree is never
    expanded.
    """

    __slots__ = __match_args__ = ("a", "b", "base")

    def __init__(self, a: complex, b: complex, base: "MapExpr"):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "base", base)


MapExpr = Union[FamilyF, FamilyG, ScaledExp, Iterate, Shift, Compose, Conjugate]


class Directed(_Value):
    """Stand-in for a complex value whose modulus exceeded the floating
    point range: ``log_modulus`` is ln|z| and ``angle`` is arg z.

    The angle is kept unreduced (not folded into (-pi, pi]) so that
    diagnostics can still see the magnitude of the imaginary part that
    produced it; consumers reduce mod 2*pi themselves (``math.cos`` /
    ``math.sin`` do).
    """

    __slots__ = __match_args__ = ("log_modulus", "angle")

    def __init__(self, log_modulus: float, angle: float):
        _set(self, "log_modulus", log_modulus)
        _set(self, "angle", angle)

    # _Value's ==, written out: the orbit loop's fixed-point test compares
    # ladder points at every step on the ladder
    def __eq__(self, other):
        if other.__class__ is Directed:
            return (self.log_modulus, self.angle) == \
                (other.log_modulus, other.angle)
        return NotImplemented

    __hash__ = _Value.__hash__


ExtendedPoint = Union[complex, Directed]


class IterationConfig(_Value):
    """The iteration budget of orbit classification.

    max_iter, the map applications per seed (an int, at least 1), is the one
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

    __slots__ = __match_args__ = ("max_iter",)
    overflow_log_threshold = 700.0
    escape_real_threshold = 50.0
    degeneracy_eps = 1e-12
    generic_escape_radius = 1e10

    def __init__(self, max_iter: int = 1000):
        if not isinstance(max_iter, int) or isinstance(max_iter, bool):
            raise TypeError(f"max_iter must be an int, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _set(self, "max_iter", max_iter)


DEFAULT_CONFIG = IterationConfig()

# byte codes of the four verdict classes in blocks.classify_points and
# fields; here rather than in orbits, so that render loads no orbit engine
KIND_ESCAPING = ord("E")
KIND_PROVEN = ord("P")
KIND_BUDGET = ord("B")
KIND_UNDETERMINED = ord("U")

_LOG_ESCAPE_RADIUS = math.log(IterationConfig.generic_escape_radius)


def _g17(x: float) -> str:
    """x in CSV: 17 significant digits, so that it reads back bit for bit."""
    return f"{x:.17g}"


class Window(_Value):
    """The rectangle [x_min, x_max] x [y_min, y_max] of a grid or a
    sample set; finite, with a finite positive width and height."""

    __slots__ = __match_args__ = ("x_min", "x_max", "y_min", "y_max")

    def __init__(self, x_min: float, x_max: float, y_min: float,
                 y_max: float):
        if not all(math.isfinite(v) for v in (x_min, x_max, y_min, y_max)):
            raise ValueError("window bounds must be finite")
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("window must have x_min < x_max and y_min < y_max")
        if not (math.isfinite(x_max - x_min) and math.isfinite(y_max - y_min)):
            # an infinite width would put every cell center at inf
            raise ValueError("window width and height must be finite")
        _set(self, "x_min", x_min)
        _set(self, "x_max", x_max)
        _set(self, "y_min", y_min)
        _set(self, "y_max", y_max)


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


# (field name, argument kind) of each argument of a node kind, in field
# order, paired once here: validation and parser.format_map walk them
_NODE_FIELDS = {cls: tuple(zip(cls.__match_args__, kind.args))
                for cls, kind in NODE_KINDS.items()}


def node_fields(expr: MapExpr) -> Tuple[Tuple[str, str], ...]:
    """(field name, argument kind) of each argument, in field order."""
    try:
        return _NODE_FIELDS[type(expr)]
    except KeyError:
        raise TypeError(f"not a map expression: {expr!r}") from None


def validate(expr: MapExpr) -> None:
    """Raise :class:`InvalidMapError` naming the first violated constraint.

    The error carries the node path (root / base / outer / inner chains)
    and the inequality that failed.  First each argument must be of its
    kind (a number, an int that is not a bool, a map), then come a node's
    own constraints; then its complex parameters must be finite and its
    sub-maps valid, in field order.  A map is validated once per call of
    ``classify``, ``run_orbit`` or ``classify_grid``, not once per seed.
    """
    _validate(expr, "")


# the types each argument kind takes ("i" no bool), and their name
_ARG_TYPES = {"c": ((int, float, complex), "a number"), "i": (int, "an int"),
              "m": (tuple(NODE_KINDS), "a map")}


def _validate(expr: MapExpr, path: str) -> None:
    args = node_fields(expr)
    for name, arg in args:
        value = getattr(expr, name)
        types, what = _ARG_TYPES[arg]
        if not isinstance(value, types) or \
                (arg == "i" and isinstance(value, bool)):
            raise InvalidMapError(path, f"{name} is {what}", f"got {value!r}")
    for c in NODE_KINDS[type(expr)].constraints:
        if not c.holds(expr):
            raise InvalidMapError(path, c.text, f"got {c.got(expr)}" if c.got else "")
    for name, arg in args:
        value = getattr(expr, name)
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


def _direction(m: complex, ca, sa):
    """dr + i*di = m*(ca + i*sa), CPython's product, and whether dr is at
    most -eps*|m| or at least eps*|m|; on floats or arrays (both engines)."""
    dr = m.real * ca - m.imag * sa
    di = m.real * sa + m.imag * ca
    eps = IterationConfig.degeneracy_eps * abs(m)
    return dr, di, dr <= -eps, dr >= eps


def _stop(nan, d, nd, r, rn, far, same):
    """The one home of the stop rules of both orbit loops: which rule
    stops an orbit at its step n, z to its image; 0 if none, else the
    number of the first that fires of
    1. nan: the image is NaN, or the step made none -> Undetermined;
    2. underflow: z is on the ladder with r <= 0 -> NonEscapingProven(n);
    3. escape: r >= escape_real_threshold and rn >= r, or far -> Escaping(n);
    4. repeat: same, the image is z bit for bit -> BoundedAtBudget;
    5. half plane: rn <= 0 off the ladder -> NonEscapingProven(n + 1).
    d and nd: z and the image are on the ladder; r and rn: their sign*Re u
    (orbits._real_u), NaN without a chart; far: the modulus test of a map
    without one.  A seed is the image of a step -1.  Floats and bools or
    arrays of them: comparisons, & and | only, as ~True == -2 (on bools,
    a > b is a and not b); from the last rule to the first, each that
    fires sets the code."""
    code = 5 * ((rn <= 0.0) > nd)
    code += same * (4 - code)
    code += ((r >= IterationConfig.escape_real_threshold) & (rn >= r)
             | far) * (3 - code)
    code += (d & (r <= 0.0)) * (2 - code)
    return code + nan * (1 - code)


def _ladder_step(z: Directed, m: complex, p: complex, q: complex) -> ExtendedPoint:
    """exp(m*z + p) + q at a Directed z, the ladder step of F and G
    ((m, p, q) = (sign, param, const)) and of exp(lam) ((lam, 0, 0)).
    z collapses onto q or deepens to _exp(|z|*dr + Re p, |z|*di + Im p) + q
    as _direction says; else, or past PHASE_RESOLUTION_LIMIT (where the
    angle carries no usable phase), its phase is degenerate."""
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        raise DegeneratePhaseError(f"angle {z.angle} beyond phase resolution")
    dr, di, under, over = _direction(m, math.cos(z.angle), math.sin(z.angle))
    if under:
        return complex(q)  # q may be real: a map built with real parameters
    if over:
        mag = _exp_sat(z.log_modulus)
        return _plus(_exp(mag * dr + p.real, _scale(mag, di) + p.imag), q)
    eps = IterationConfig.degeneracy_eps
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
