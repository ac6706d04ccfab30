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
their step on a Directed point is written once (``_Engine.ladder``): it
deepens, or the exponential underflows and it collapses onto q.  A step
whose result is at or below the rung returns an ordinary complex with the
map's constant added.  A finite point whose conjugation ``(z - b)/a`` or
``a*v + b`` overflows moves onto the ladder the same way.

There is one evaluation engine, ``_Engine``: each step and stop helper of
the orbit loops is written once, on a point as the triple (re, im,
directed), over a few primitives.  Here the primitives take Python
floats (``_FLOATS``, behind ``evaluate`` and ``orbits._iterate``);
``blocks._Arrays`` gives them numpy arrays of points (behind
``evaluate_points`` and ``classify_points``).  ``_Engine.exp`` takes a
finite exponential exp(w), Re w at most the rung and Im w finite, as one
``cmath.exp`` call.  Below Re w = 708.3 CPython computes it as exactly
exp(Re w)*cos(Im w) and exp(Re w)*sin(Im w), with the libm functions
that ``math.exp``, ``math.cos`` and ``math.sin`` call, so the bits are
those of the three ``math`` calls.  This module imports no numpy, so the
commands that step one seed at a time (parse, orbit) start without it.

Every value type of the package (the node kinds, ``Directed``,
``IterationConfig``, ``Window``, the verdicts and ``OrbitRecord`` of
``orbits``, ``EscapeField``, ``SampleSet``, ``StripId`` and
``VerificationReport``) is a ``__slots__`` class on ``_Value``.  A class
lists its fields once, as ``__slots__ = __match_args__``; ``_Value``
reads that tuple for its one ``__init__`` and for ==, hash, repr, copy
and pickle, and refuses assignment, as a frozen dataclass does.  A class
writes its own ``__init__`` only to check its fields (``Window``,
``IterationConfig``, ``EscapeField``, ``SampleSet``).  It generates no code,
so importing the package costs no class generation and no
``dataclasses`` (nor the ``inspect`` that module loads).
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
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


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The fields of ``cls(*args, **kwargs)`` in order, or a TypeError
    naming the class and its fields where the arguments do not bind to
    them one to one."""
    names = cls.__match_args__
    given = dict(zip(names, args))
    if len(args) > len(names) or given.keys() & kwargs.keys() or \
            given.keys() | kwargs.keys() != set(names):
        raise TypeError(f"{cls.__qualname__} takes the fields "
                        f"({', '.join(names)}), given {len(args)} by "
                        f"position and {list(kwargs)} by keyword")
    given.update(kwargs)
    return tuple([given[name] for name in names])


class _Value:
    """Base of the value types: an immutable record of the fields named
    by ``__match_args__`` (also the class's ``__slots__``), in
    constructor order.  Its ``__init__`` binds positional and keyword
    arguments to them, as a dataclass's does; a class writes its own
    only to check them.

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

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

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


class FamilyG(_Value):
    """z -> exp(z + mu) + zeta, with Re mu < 0 and Re zeta <= -1.

    Mirror image of :class:`FamilyF`; the left half plane is absorbing.
    """

    __slots__ = __match_args__ = ("mu", "zeta")
    sign = 1.0
    family = Family.G


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


class Iterate(_Value):
    """s-fold composition of the base map, s >= 1."""

    __slots__ = __match_args__ = ("base", "s")


class Shift(_Value):
    """base map plus an additive constant."""

    __slots__ = __match_args__ = ("base", "c")


class Compose(_Value):
    """outer after inner."""

    __slots__ = __match_args__ = ("outer", "inner")


class Conjugate(_Value):
    """phi o base o phi^-1 with phi(z) = a*z + b, a != 0.

    Evaluated algebraically as a*base((z-b)/a) + b; the tree is never
    expanded.
    """

    __slots__ = __match_args__ = ("a", "b", "base")


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
        super().__init__(x_min, x_max, y_min, y_max)


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
# one-step evaluation and the stop inputs: one engine, on floats or arrays
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def _log_modulus(z: complex) -> float:
    """ln|z|, also where |z| passes DBL_MAX with finite parts: abs then
    raises OverflowError, and z is halved first, which is exact."""
    try:
        m = abs(z)
    except OverflowError:
        return math.log(abs(0.5 * z)) + _LN2
    return math.log(m) if m > 0.0 else -math.inf


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


# Above this magnitude one ulp of the angle exceeds half a radian, so the
# reduced phase is pure rounding noise.
PHASE_RESOLUTION_LIMIT = 2.0 ** 52


def _direction(m: complex, ca, sa):
    """dr + i*di = m*(ca + i*sa), CPython's product, and whether dr is at
    most -eps*|m| or at least eps*|m|; on floats or arrays."""
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
    (_Engine.real_u), NaN without a chart; far: the modulus test of a map
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


# The three rare moves, which only the float path makes (_Engine.rare):
# each returns the point it moves to, as a (re, im, directed) triple.

def _lost_phase(wr: float):
    # exp(wr + i*wi), wr at most the rung and wi not finite: only a zero
    # modulus survives, and anything else is NaN
    return (0.0, 0.0, False) if math.exp(wr) == 0.0 else \
        (math.nan, math.nan, False)


def _degenerate(angle: float):
    raise DegeneratePhaseError(
        f"ladder point at angle {angle}: past PHASE_RESOLUTION_LIMIT, or "
        "its direction cosine within degeneracy_eps of 0")


def _transported(z, t, a: complex, b: complex, sign: float):
    """A conj transport t = (tr, ti) of z = (re, im, directed), by phi^-1
    (sign -1) or by phi (sign +1, b = 0), that crosses onto the ladder or
    drops off it: a finite z moves onto the ladder at ln|z - b| and
    arg(z - b), shifted by sign*ln|a| and sign*arg a, as a ladder point is;
    then _normalize demotes a point at the rung or below."""
    re, im, d = z
    lm, angle = t
    if not d:
        lm, angle = _log_polar(complex(re, im) - b)
        log_a, arg_a = _log_polar(a)
        lm, angle = lm + sign * log_a, angle + sign * arg_a
    v = _normalize(lm, angle)
    if isinstance(v, Directed):
        return v.log_modulus, v.angle, True
    return v.real, v.imag, False


_F64 = struct.Struct("d")


class _Engine:
    """The one evaluation engine: each step and stop helper of the orbit
    loops, written once.

    A point is the triple (re, im, directed): complex(re, im), or
    Directed(re, im) where directed.  The helpers reach numbers only
    through the primitives at the top, which here take Python floats and
    bools (_FLOATS: evaluate and orbits._iterate); blocks._Arrays takes
    numpy arrays of points instead, with the same bits (blocks._ARRAYS:
    evaluate_points and classify_points).  Flags combine by &, |,
    comparisons and not_ only: on a bool ~True is -2, and on bools a > b
    is a and not b.  Where a point makes a rare move (_lost_phase,
    _degenerate, _transported), ``rare`` makes it at once on floats and
    marks the point slow on arrays, for evaluate_points to step by
    evaluate.
    """

    # -- primitives, on Python floats and bools -----------------------------

    @staticmethod
    def where(c, x, y):
        return x if c else y

    @staticmethod
    def any(mask):
        return mask

    not_ = staticmethod(operator.not_)
    isfinite = staticmethod(math.isfinite)
    isnan = staticmethod(math.isnan)

    @staticmethod
    def cexp(wr, wi, where):
        # exp(wr + i*wi) where `where` holds, 0 elsewhere
        return cmath.exp(complex(wr, wi)) if where else 0j

    @staticmethod
    def rexp(x, where):
        # exp(x) where `where` holds (x below the cut), 0 elsewhere
        return math.exp(x) if where else 0.0

    @staticmethod
    def log_modulus(re, im, where):
        # _log_modulus where `where` holds, 0 elsewhere
        return _log_modulus(complex(re, im)) if where else 0.0

    @staticmethod
    def quot(xr, xi, a):
        # (xr + i*xi) / a by CPython's complex division
        q = complex(xr, xi) / a
        return q.real, q.imag

    @staticmethod
    def bits(x):
        # the bits of a double, for equality (0.0 and -0.0 differ; a NaN
        # equals itself)
        return _F64.pack(x)

    @staticmethod
    def rare(slow, pt, move, *args):
        # pt and its slow flag: on floats move(*args) replaces pt where slow
        return (*(move(*args) if slow else pt), False)

    # -- one step ------------------------------------------------------------

    def finite(self, re, im):
        return self.isfinite(re) & self.isfinite(im)

    def exp(self, wr, wi, where):
        """exp(w), w = wr + i*wi, where `where` holds, as the point
        (re, im, directed, slow): one cexp where Re w is at most the rung,
        Directed(w) past it (NaN too).  Below the rung cexp is exactly
        exp(Re w)*cos(Im w) and exp(Re w)*sin(Im w), with the libm
        functions that math calls.  An Im w that is not finite there is
        a rare move (_lost_phase)."""
        if not self.any(where):
            return wr, wi, where, where
        low = where & (wr <= IterationConfig.overflow_log_threshold)
        ok = low & self.isfinite(wi)
        e = self.cexp(wr, wi, ok)
        return self.rare(low > ok, (self.where(ok, e.real, wr),
                                    self.where(ok, e.imag, wi), where > low),
                         _lost_phase, wr)

    def plus(self, pt, c: complex):
        """pt + c; on the ladder c is ~1e-300 relative and is dropped."""
        re, im, d, slow = pt
        return (self.where(d, re, re + c.real), self.where(d, im, im + c.imag),
                d, slow)

    def scale(self, mag, x):
        # mag * x avoiding inf * 0 -> nan; an exact zero factor wins
        return self.where(x == 0.0, 0.0, mag * x)

    def exp_sat(self, x, where):
        # exp(x) where `where` holds, saturating to +inf from _EXP_OVERFLOW
        # on (where math.exp raises OverflowError) and for NaN
        low = where & (x < _EXP_OVERFLOW)
        return self.where(low, self.rexp(x, low), math.inf)

    def ladder(self, re, im, d, m: complex, p: complex, q: complex, out):
        """exp(m*z + p) + q at each Directed z (where d holds) over out,
        the step of the other points: the ladder step of F and G ((m, p,
        q) = (sign, param, const)) and of exp(lam) ((lam, 0, 0)).  z
        collapses onto q or deepens to exp(|z|*dr + Re p + i(|z|*di +
        Im p)) + q as _direction says; else, or past
        PHASE_RESOLUTION_LIMIT (where the angle carries no usable phase),
        its phase is degenerate, a rare move (_degenerate)."""
        if not self.any(d):
            return out
        out_re, out_im, out_d, slow = out
        ph = d & (abs(im) <= PHASE_RESOLUTION_LIMIT)
        cs = self.cexp(0.0, im, ph)  # (cos, sin) of the angle, 0 off ph
        dr, di, under, over = _direction(m, cs.real, cs.imag)
        under, over = ph & under, ph & over  # dr = 0 off ph passes a 0 eps*|m|
        nr = ni = 0.0  # where no point deepens, nr and ni are not read
        past = s = False
        if self.any(over):
            mag = self.exp_sat(re, over)
            nr, ni, past, s = self.plus(self.exp(
                mag * dr + p.real, self.scale(mag, di) + p.imag, over), q)
        # a collapse is q itself, not 0 + q: complex(q) keeps q's -0.0
        *pt, bad = self.rare(
            d > (under | over),
            (self.where(over, nr, self.where(d, q.real, out_re)),
             self.where(over, ni, self.where(d, q.imag, out_im)),
             out_d | past), _degenerate, im)
        return (*pt, slow | s | bad)

    def to_u(self, re, im, d, a: complex, b: complex):
        """phi^-1(z) = (z - b)/a of the chart phi(u) = a*u + b at each
        point, by CPython's complex division; a ladder point shifts by
        -ln|a| and -arg a."""
        qr, qi = self.quot(re - b.real, im - b.imag, a)
        if not self.any(d):
            return qr, qi
        log_a, arg_a = _log_polar(a)
        return self.where(d, re - log_a, qr), self.where(d, im - arg_a, qi)

    def from_u(self, re, im, d, a: complex, b: complex):
        """phi(v) = a*v + b at each point, by CPython's complex product; a
        ladder point shifts by ln|a| and arg a (b is negligible there)."""
        pr = a.real * re - a.imag * im + b.real
        pi = a.real * im + a.imag * re + b.imag
        if not self.any(d):
            return pr, pi
        log_a, arg_a = _log_polar(a)
        return self.where(d, re + log_a, pr), self.where(d, im + arg_a, pi)

    def crossings(self, re, im, d, tr, ti):
        # where a transport (tr, ti) of the points crosses onto the ladder
        # (a finite point, a transport not finite) or drops off it, to the
        # rung or below
        rung = IterationConfig.overflow_log_threshold
        return self.where(d, self.not_(tr > rung),
                          self.finite(re, im) > self.finite(tr, ti))

    def step(self, expr: MapExpr, re, im, d):
        """expr applied once to each point: (re, im, directed, slow).
        Composite nodes step structurally; Iterate applies its base s
        times."""
        sign = getattr(expr, "sign", None)
        if sign is not None:
            p, q = expr.param, expr.const
            return self.ladder(re, im, d, sign, p, q, self.plus(self.exp(
                sign * re + p.real, sign * im + p.imag, self.not_(d)), q))

        if isinstance(expr, ScaledExp):
            lam = expr.lam
            return self.ladder(re, im, d, lam, 0.0, 0.0, self.exp(
                lam.real * re - lam.imag * im, lam.real * im + lam.imag * re,
                self.not_(d)))

        if isinstance(expr, Iterate):
            slow = False
            for _ in range(expr.s):
                re, im, d, s = self.step(expr.base, re, im, d)
                slow = slow | s
            return re, im, d, slow

        if isinstance(expr, Shift):
            return self.plus(self.step(expr.base, re, im, d), expr.c)

        if isinstance(expr, Compose):
            re, im, d, slow = self.step(expr.inner, re, im, d)
            re, im, d, s = self.step(expr.outer, re, im, d)
            return re, im, d, slow | s

        if isinstance(expr, Conjugate):
            # phi^-1, the base, then phi; a transport that crosses onto the
            # ladder or drops off it is a rare move, b dropped on the ladder
            # as Shift drops c there
            a, b = expr.a, expr.b
            u = self.to_u(re, im, d, a, b)
            ur, ui, ud, slow = self.rare(self.crossings(re, im, d, *u), (*u, d),
                                         _transported, (re, im, d), u, a, b,
                                         -1.0)
            vr, vi, vd, s = self.step(expr.base, ur, ui, ud)
            w = self.from_u(vr, vi, vd, a, b)
            wr, wi, wd, t = self.rare(self.crossings(vr, vi, vd, *w), (*w, vd),
                                      _transported, (vr, vi, vd), w, a, 0.0,
                                      1.0)
            return wr, wi, wd, slow | s | t

        raise TypeError(f"not a map expression: {expr!r}")

    # -- the stop inputs -----------------------------------------------------

    def real_u(self, re, im, d, ch: Optional[Chart]):
        """r = sign*Re u, u = (z - b)/a in the chart ch = (f, a, b) of
        chart, which every chart test reads; NaN without a chart, which
        no test passes.  The one place that knows the identity chart."""
        if ch is None:
            return re + math.nan
        f, a, b = ch
        if not (a == 1 and b == 0):
            re, im = self.to_u(re, im, d, a, b)
        if self.any(d):
            # past the phase limit the sign is unresolvable: NaN, so that
            # no comparison fires
            ph = d & (abs(im) <= PHASE_RESOLUTION_LIMIT)
            re = self.where(ph, self.scale(self.exp_sat(re, ph),
                                           self.cexp(0.0, im, ph).real),
                            self.where(d, math.nan, re))
        return f.sign * re

    def far(self, re, im, d, nr, ni, nd):
        """The escape test of a map without a chart, at each step z to nxt:
        two consecutive modulus checks on finite points, or a strictly
        growing chain of ladder points.  A mixed pair proves nothing: a
        single jump onto the rung can still collapse back next step when
        the exponent flips sign."""
        both = self.not_(d | nd)
        lz = self.log_modulus(re, im, both)
        far = both & (lz >= _LOG_ESCAPE_RADIUS)
        return self.where(d, nd & (nr > re),
                          far & (self.log_modulus(nr, ni, far) >= lz))

    def same(self, p, q):
        """Where the points p and q are equal bit for bit."""
        return ((self.bits(p[0]) == self.bits(q[0]))
                & (self.bits(p[1]) == self.bits(q[1])) & (p[2] == q[2]))

    def start(self, re, im, ch: Optional[Chart]):
        """(_stop's code, r) of the seeds re + i*im, images of a step -1."""
        r = self.real_u(re, im, False, ch)
        return _stop(self.isnan(re) | self.isnan(im), False, False, math.nan,
                     r, False, False), r

    def stop(self, z, r, nxt, ch: Optional[Chart], failed=False):
        """(_stop's code, rn) of the step from z, whose r is given, to nxt;
        failed: the step made no image."""
        nr, ni, nd = nxt
        rn = self.real_u(nr, ni, nd, ch)
        far = False if ch else self.far(*z, *nxt)
        return _stop(failed | self.isnan(nr) | self.isnan(ni), z[2], nd, r, rn,
                     far, self.same(nxt, z)), rn


_FLOATS = _Engine()


def evaluate(expr: MapExpr, z: ExtendedPoint,
             cfg: IterationConfig = DEFAULT_CONFIG) -> ExtendedPoint:
    """Apply the map once to a finite or overflowed point (_Engine.step on
    floats).

    Raises :class:`DegeneratePhaseError` where the phase of a Directed
    point is degenerate for an F, G or exp(lam) node (_Engine.ladder).  A
    step reads no setting: cfg is accepted and not read (max_iter is read
    by the orbit loops only).
    """
    if isinstance(z, Directed):
        re, im, d, _ = _FLOATS.step(expr, z.log_modulus, z.angle, True)
    else:
        re, im, d, _ = _FLOATS.step(expr, z.real, z.imag, False)
    return Directed(re, im) if d else complex(re, im)


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
