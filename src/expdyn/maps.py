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
(unreduced) angle.  F, G and exp(lam) are all z -> exp(m*z + p) + q
(m = -1, +1 or lam), and each engine writes their step on a Directed
point once: it deepens, or the exponential underflows and it collapses
onto q.  A finite point whose conjugation ``(z - b)/a`` or ``a*v + b``
overflows moves onto the ladder the same way.

``evaluate`` takes a finite exponential exp(w), Re w at most the rung
(700) and Im w finite, as one ``cmath.exp`` call.  Below Re w = 708.3
CPython computes it as exactly exp(Re w)*cos(Im w) and exp(Re w)*sin(Im
w), with the libm functions that ``math.exp``, ``math.cos`` and
``math.sin`` call, so the bits are those of the three ``math`` calls.

``evaluate_points`` applies a map once to a whole batch of points.  It
makes the common moves on numpy arrays and takes every exp, cos and sin
there as numpy's complex exp, which calls libm's ``cexp``: glibc's
computes the same products with the same libm functions, so the bits are
again those of the ``math`` calls.  ``evaluate`` itself steps each point
that makes a rare move (a degenerate phase, a non-finite exponent, a conj
crossing onto or off the ladder), so each point gets the bits
``evaluate`` gives it.  Two numpy kernels reach a verdict: this complex
exp, and the ``hypot`` of verify's half-plane bound.  On a numpy built
without the platform ``cexp`` (it then uses its own) bytes can move, and
TestExpStep in tests/test_maps.py fails.
"""

from __future__ import annotations

import cmath
import enum
import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple, Union

import numpy as np

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
    "evaluate_points",
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


def _lost_phase(m: float) -> complex:
    """m * (cos angle, sin angle) for an angle that is not finite.

    A zero modulus wins over a lost phase; otherwise the value is
    genuinely indeterminate and becomes NaN for the caller to abort on.
    """
    return 0j if m == 0.0 else complex(math.nan, math.nan)


_LN2 = math.log(2.0)


def _log_modulus(z: ExtendedPoint) -> float:
    """ln|z|, also where |z| passes DBL_MAX with finite parts: abs then
    raises OverflowError, and z is halved first, which is exact."""
    if isinstance(z, Directed):
        return z.log_modulus
    try:
        m = abs(z)
    except OverflowError:
        return math.log(abs(0.5 * z)) + _LN2
    return math.log(m) if m > 0.0 else -math.inf


_PAIR = struct.Struct("dd")


def _same_point(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """p and q are the same point bit for bit: the same kind and the same
    bits of both floats (0.0 and -0.0 differ; a NaN equals itself).
    The scalar twin of _same_points."""
    if isinstance(p, complex):
        return isinstance(q, complex) and \
            _PAIR.pack(p.real, p.imag) == _PAIR.pack(q.real, q.imag)
    return isinstance(q, Directed) and \
        _PAIR.pack(p.log_modulus, p.angle) == _PAIR.pack(q.log_modulus, q.angle)


def _normalize(log_modulus: float, angle: float, threshold: float) -> ExtendedPoint:
    # Directed values must stay above the overflow threshold; anything
    # representable is demoted back to an ordinary complex number.
    if log_modulus > threshold:
        return Directed(log_modulus, angle)
    if not math.isfinite(angle):
        raise DegeneratePhaseError("angle saturated past phase resolution")
    return cmath.exp(complex(log_modulus, angle))


# Above this magnitude one ulp of the angle exceeds half a radian, so the
# reduced phase is pure rounding noise.
PHASE_RESOLUTION_LIMIT = 2.0 ** 52


def _ladder_step(z: Directed, m: complex, p: complex, q: complex,
                 eps: float) -> ExtendedPoint:
    """exp(m*z + p) + q at a Directed z, the ladder step of F and G
    ((m, p, q) = (sign, param, const)) and of exp(lam) ((lam, 0, 0)).
    With dr + i*di = m*e^{i angle}, z collapses onto q where
    dr <= -eps*|m| and deepens to Directed(|z|*dr + Re p, |z|*di + Im p)
    where dr >= eps*|m|; in between, or past PHASE_RESOLUTION_LIMIT (where
    the angle carries no usable phase), its phase is degenerate."""
    if not (-PHASE_RESOLUTION_LIMIT <= z.angle <= PHASE_RESOLUTION_LIMIT):
        raise DegeneratePhaseError(f"angle {z.angle} beyond phase resolution")
    ca, sa = math.cos(z.angle), math.sin(z.angle)
    # CPython's complex product m * (ca + i*sa)
    dr = m.real * ca - m.imag * sa
    di = m.real * sa + m.imag * ca
    if dr <= -eps * abs(m):
        return complex(q)  # q may be real: a map built with real parameters
    if dr >= eps * abs(m):
        mag = _exp_sat(z.log_modulus)
        return Directed(mag * dr + p.real, _scale(mag, di) + p.imag)
    raise DegeneratePhaseError(f"direction cosine {dr / abs(m)} below {eps}")


def evaluate(expr: MapExpr, z: ExtendedPoint,
             cfg: IterationConfig = DEFAULT_CONFIG) -> ExtendedPoint:
    """Apply the map once to a finite or overflowed point.

    Composite nodes evaluate structurally; Iterate applies its base s
    times.  Raises :class:`DegeneratePhaseError` where the phase of a
    Directed point is degenerate for an F, G or exp(lam) node (_ladder_step).
    """
    thresh = cfg.overflow_log_threshold
    sign = getattr(expr, "sign", None)
    if sign is not None:
        p, const = expr.param, expr.const
        if isinstance(z, Directed):
            return _ladder_step(z, sign, p, const, cfg.degeneracy_eps)
        wr = sign * z.real + p.real
        wi = sign * z.imag + p.imag
        if wr <= thresh:
            if math.isfinite(wi):
                return cmath.exp(complex(wr, wi)) + const
            return _lost_phase(math.exp(wr)) + const
        # const is ~1e-300 relative at this scale and is dropped
        return Directed(wr, wi)

    if isinstance(expr, ScaledExp):
        lam = expr.lam
        if isinstance(z, Directed):
            return _ladder_step(z, lam, 0.0, 0.0, cfg.degeneracy_eps)
        wr = lam.real * z.real - lam.imag * z.imag
        wi = lam.real * z.imag + lam.imag * z.real
        if wr <= thresh:
            if math.isfinite(wi):
                return cmath.exp(complex(wr, wi))
            return _lost_phase(math.exp(wr))
        return Directed(wr, wi)

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
        # A finite point whose (z - b)/a or a*v + b overflows moves onto
        # the ladder instead, b dropped as Shift drops its constant there
        a, b = expr.a, expr.b
        if isinstance(z, complex):
            pre: ExtendedPoint = (z - b) / a
            if not cmath.isfinite(pre) and cmath.isfinite(z):
                pre = Directed(_log_modulus(z - b), cmath.phase(z - b))
        else:
            pre = z
        if isinstance(pre, Directed):
            pre = _normalize(pre.log_modulus - math.log(abs(a)),
                             pre.angle - math.atan2(a.imag, a.real), thresh)
        v = evaluate(expr.base, pre, cfg)
        if isinstance(v, complex):
            w = a * v + b
            if cmath.isfinite(w) or not cmath.isfinite(v):
                return w
            v = Directed(_log_modulus(v), cmath.phase(v))
        return _normalize(v.log_modulus + math.log(abs(a)),
                          v.angle + math.atan2(a.imag, a.real), thresh)

    raise TypeError(f"not a map expression: {expr!r}")


# ---------------------------------------------------------------------------
# one step on a batch of points
# ---------------------------------------------------------------------------

# A batch is three arrays: point k is complex(re[k], im[k]), or
# Directed(re[k], im[k]) where directed[k].  Arrays make the moves grids
# make at scale: finite steps, the ladder step of F, G and exp(lam)
# (_ladder_points) and conj's shift past the rung; evaluate makes the
# rest (_evaluate_each).  Every exp, cos and sin of the arrays is numpy's
# complex exp (_cexp), which calls libm's cexp and so gives the bits of
# cmath.exp, math.exp, math.cos and math.sin.
# numpy's float exp/cos/sin/log and its complex / and * are not used: they
# are numpy's own (SIMD) code, which differs from libm's and CPython's in
# the last ulp on a share of inputs, and that would move verdicts.

Points = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cexp(wr, wi, where: np.ndarray) -> np.ndarray:
    """exp(wr + i*wi) where `where` holds (0 elsewhere), as a complex array;
    wr and wi are arrays or floats.

    numpy's complex exp calls the platform's cexp.  glibc's computes
    exp(wr)*cos(wi) and exp(wr)*sin(wi) with the libm exp, cos and sin
    that cmath.exp and math call, for wr below 709: the bits of
    cmath.exp(w), and with wi = 0 of math.exp(wr), with wr = 0 of
    math.cos(wi) and math.sin(wi).  TestExpStep in tests/test_maps.py
    fails where a numpy build or libm breaks this."""
    out = np.zeros(len(where), dtype=complex)
    if where.any():
        w = np.empty(len(where), dtype=complex)
        w.real, w.imag = wr, wi
        np.exp(w, out=out, where=where)
    return out


def _finite(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.isfinite(re) & np.isfinite(im)


def _same_points(p: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 q: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Which points of two (re, im, directed) batches are equal bit for
    bit (0.0 and -0.0 differ; a NaN equals itself), as _same_point."""
    return ((p[0].view(np.int64) == q[0].view(np.int64))
            & (p[1].view(np.int64) == q[1].view(np.int64)) & (p[2] == q[2]))


def _exp_sat_points(x: np.ndarray, where: np.ndarray) -> np.ndarray:
    # _exp_sat: exp(x + 0i) below the cut, +inf from it on and for NaN
    low = where & (x < _EXP_OVERFLOW)
    return np.where(low, _cexp(x, 0.0, low).real, math.inf)


def _scale_points(mag: np.ndarray, x: np.ndarray) -> np.ndarray:
    # _scale: an exact zero factor wins over an infinite magnitude
    return np.where(x == 0.0, 0.0, mag * x)


def _phase_ok(angle: np.ndarray) -> np.ndarray:
    # where an angle is within PHASE_RESOLUTION_LIMIT (so not NaN or inf)
    return np.abs(angle) <= PHASE_RESOLUTION_LIMIT


def _exp_points(wr: np.ndarray, wi: np.ndarray, where: np.ndarray,
                thresh: float) -> Points:
    """exp(w), w = wr + i*wi, where `where` holds, as evaluate's finite
    branches take it: (re, im, directed, slow), Directed(w) past thresh;
    slow marks a wi that is not finite below thresh, left to evaluate."""
    low = where & (wr <= thresh)
    ok = low & np.isfinite(wi)
    e = _cexp(wr, wi, ok)
    return (np.where(ok, e.real, wr), np.where(ok, e.imag, wi),
            where & ~low, low & ~ok)


def _ladder_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                   d: np.ndarray, m: complex, p: complex, q: complex,
                   out: Points, cfg: IterationConfig) -> Points:
    """_ladder_step(z, m, p, q) of each Directed point z, on arrays of those
    points only, into out, the node's finite step (fresh arrays, the last
    one slow); evaluate steps the slow points and the rejected ones."""
    out_re, out_im, out_d, slow = out
    k = np.flatnonzero(d)
    if len(k):
        ph = _phase_ok(im[k])
        cs = _cexp(0.0, im[k], ph)  # (cos, sin) of the angle
        dr = m.real * cs.real - m.imag * cs.imag
        under = ph & (dr <= -cfg.degeneracy_eps * abs(m))
        over = ph & (dr >= cfg.degeneracy_eps * abs(m))
        out_re[k], out_im[k], slow[k] = q.real, q.imag, ~(under | over)
        if over.any():
            mag = _exp_sat_points(re[k], over)
            di = m.real * cs.imag + m.imag * cs.real
            out_re[k[over]] = (mag * dr + p.real)[over]
            out_im[k[over]] = (_scale_points(mag, di) + p.imag)[over]
            out_d[k[over]] = True
    return _evaluate_each(expr, re, im, d, slow,
                          (out_re, out_im, out_d, np.zeros_like(d)), cfg)


def _quot(xr: np.ndarray, xi: np.ndarray, a: complex):
    """(xr + i*xi) / a by CPython's complex division (Smith's algorithm,
    _Py_c_quot), elementwise; a is nonzero."""
    if abs(a.real) >= abs(a.imag):
        ratio = a.imag / a.real
        denom = a.real + a.imag * ratio
        return (xr + xi * ratio) / denom, (xi - xr * ratio) / denom
    ratio = a.real / a.imag
    denom = a.real * ratio + a.imag
    return (xr * ratio + xi) / denom, (xi * ratio - xr) / denom


def _to_u_points(re: np.ndarray, im: np.ndarray, d: np.ndarray,
                 uc: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """(z - b)/a of each point as evaluate takes it; uc = (a, b, ln|a|, arg a)."""
    a, b, log_a, arg_a = uc
    qr, qi = _quot(re - b.real, im - b.imag, a)
    return np.where(d, re - log_a, qr), np.where(d, im - arg_a, qi)


def _evaluate_each(expr: MapExpr, re: np.ndarray, im: np.ndarray, d: np.ndarray,
                   where: np.ndarray, out: Points, cfg: IterationConfig) -> Points:
    """Step the points where `where` holds by evaluate, into out (fresh arrays)."""
    out_re, out_im, out_d, bad = out
    for k in np.flatnonzero(where).tolist():
        z = complex(re[k], im[k])
        try:
            v = evaluate(expr, Directed(z.real, z.imag) if d[k] else z, cfg)
        except DegeneratePhaseError:
            bad[k] = True
            continue
        bad[k], out_d[k] = False, isinstance(v, Directed)
        out_re[k], out_im[k] = (v.log_modulus, v.angle) if out_d[k] else \
            (v.real, v.imag)
    return out


def evaluate_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                    directed: np.ndarray,
                    cfg: IterationConfig = DEFAULT_CONFIG) -> Points:
    """evaluate applied to each point of a batch.

    Point k is complex(re[k], im[k]), or Directed(re[k], im[k]) where
    directed[k].  Returns (re, im, directed, degenerate): degenerate[k]
    is true exactly where evaluate raises DegeneratePhaseError, and the
    other arrays mean nothing there.  Elsewhere every point has the bits
    evaluate gives it (itself, for a point that makes a rare move).
    """
    with np.errstate(all="ignore"):
        return _points(expr, re, im, directed, cfg)


def _points(expr: MapExpr, re: np.ndarray, im: np.ndarray, d: np.ndarray,
            cfg: IterationConfig) -> Points:
    thresh = cfg.overflow_log_threshold
    sign = getattr(expr, "sign", None)
    if sign is not None:
        p, q = expr.param, expr.const
        out_re, out_im, out_d, slow = _exp_points(
            sign * re + p.real, sign * im + p.imag, ~d, thresh)
        return _ladder_points(expr, re, im, d, sign, p, q,
                              (np.where(out_d, out_re, out_re + q.real),
                               np.where(out_d, out_im, out_im + q.imag),
                               out_d, slow), cfg)

    if isinstance(expr, ScaledExp):
        lr, li = expr.lam.real, expr.lam.imag
        return _ladder_points(expr, re, im, d, expr.lam, 0.0, 0.0,
                              _exp_points(lr * re - li * im, lr * im + li * re,
                                          ~d, thresh), cfg)

    if isinstance(expr, Iterate):
        bad = np.zeros(len(re), dtype=bool)
        for _ in range(expr.s):
            re, im, d, b = _points(expr.base, re, im, d, cfg)
            bad |= b
        return re, im, d, bad

    if isinstance(expr, Shift):
        re, im, d, bad = _points(expr.base, re, im, d, cfg)
        c = complex(expr.c)
        return np.where(d, re, re + c.real), np.where(d, im, im + c.imag), d, bad

    if isinstance(expr, Compose):
        re, im, d, bad = _points(expr.inner, re, im, d, cfg)
        re, im, d, b = _points(expr.outer, re, im, d, cfg)
        return re, im, d, bad | b

    if isinstance(expr, Conjugate):
        a, b = complex(expr.a), complex(expr.b)
        uc = (a, b, math.log(abs(a)), math.atan2(a.imag, a.real))
        ur, ui = _to_u_points(re, im, d, uc)
        # evaluate takes each crossing onto or off the ladder: a pre-image ...
        slow = np.where(d, ~(ur > thresh), _finite(re, im) & ~_finite(ur, ui))
        vr, vi, vd, bad = _points(expr.base, np.where(slow, 0.0, ur),
                                  np.where(slow, 0.0, ui), d & ~slow, cfg)
        # a*v + b by CPython's complex product (_Py_c_prod)
        pr = a.real * vr - a.imag * vi + b.real
        pi = a.real * vi + a.imag * vr + b.imag
        wr, wi = np.where(vd, vr + uc[2], pr), np.where(vd, vi + uc[3], pi)
        # ... or an image that overflows or drops below the rung
        slow |= ~bad & np.where(vd, ~(wr > thresh),
                                _finite(vr, vi) & ~_finite(pr, pi))
        return _evaluate_each(expr, re, im, d, slow, (wr, wi, vd, bad), cfg)

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
