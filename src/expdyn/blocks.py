"""The block engine: one map step and orbit classification on numpy arrays.

``evaluate_points`` applies a map once to a whole batch of points.  It
makes the common moves on numpy arrays and takes every exp, cos and sin
there as numpy's complex exp, which calls libm's ``cexp``: glibc's
computes the same products with the same libm functions, so the bits are
again those of the ``math`` calls that ``maps.evaluate`` makes.
A node only marks each point that makes a rare move (a degenerate phase,
a non-finite exponent, a conj crossing onto or off the ladder) as slow;
``evaluate`` then steps each slow point once per batch, on the whole map,
so each point gets the bits ``evaluate`` gives it.  A step reads no
setting, so ``evaluate_points`` takes no ``IterationConfig``: its
``max_iter`` is read by the orbit loops only.

``classify_points`` moves an array of seeds in lockstep through
``evaluate_points`` and runs ``orbits._iterate``'s tests in the same
order, each log as ``math.log``.  Complex quotients and products are
CPython's in both engines, so they agree seed by seed, in verdict class
and step.  Two numpy kernels reach a verdict: this complex exp, and the
``hypot`` of verify's half-plane bound.  Results depend on the libm
behind ``math`` and ``cmath`` and on numpy's complex exp being the
platform ``cexp``, not on numpy's SIMD build: on a numpy built without
the platform ``cexp`` (it then uses its own) bytes can move, and
TestExpStep in tests/test_maps.py fails.

Only the commands that work on grids or sample sets (render, verify)
import this module, and with it numpy.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .maps import (
    _EXP_OVERFLOW,
    _LOG_ESCAPE_RADIUS,
    DEFAULT_CONFIG,
    KIND_BUDGET,
    KIND_ESCAPING,
    KIND_PROVEN,
    KIND_UNDETERMINED,
    PHASE_RESOLUTION_LIMIT,
    Chart,
    Compose,
    Conjugate,
    DegeneratePhaseError,
    Directed,
    IterationConfig,
    Iterate,
    MapExpr,
    ScaledExp,
    Shift,
    _direction,
    _log_modulus,
    _log_polar,
    chart,
    evaluate,
    validate,
)

__all__ = ["evaluate_points", "classify_points"]


# ---------------------------------------------------------------------------
# one step on a batch of points
# ---------------------------------------------------------------------------

# A batch is three arrays: point k is complex(re[k], im[k]), or
# Directed(re[k], im[k]) where directed[k].  Arrays make the moves grids
# make at scale: finite steps, the ladder step of F, G and exp(lam)
# (_ladder_points) and conj's shift past the rung.  A node only marks a
# rare move as slow; evaluate_points then steps each slow point once, by
# evaluate on the whole map.  Every exp, cos and sin of the arrays is numpy's
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
    bit (0.0 and -0.0 differ; a NaN equals itself), as maps._same_point."""
    return ((p[0].view(np.int64) == q[0].view(np.int64))
            & (p[1].view(np.int64) == q[1].view(np.int64)) & (p[2] == q[2]))


def _exp_sat_points(x: np.ndarray, where: np.ndarray) -> np.ndarray:
    # maps._exp_sat: exp(x + 0i) below the cut, +inf from it on and for NaN
    low = where & (x < _EXP_OVERFLOW)
    return np.where(low, _cexp(x, 0.0, low).real, math.inf)


def _scale_points(mag: np.ndarray, x: np.ndarray) -> np.ndarray:
    # maps._scale: an exact zero factor wins over an infinite magnitude
    return np.where(x == 0.0, 0.0, mag * x)


def _phase_ok(angle: np.ndarray) -> np.ndarray:
    # where an angle is within PHASE_RESOLUTION_LIMIT (so not NaN or inf)
    return np.abs(angle) <= PHASE_RESOLUTION_LIMIT


def _exp_points(wr: np.ndarray, wi: np.ndarray, where: np.ndarray) -> Points:
    """exp(w), w = wr + i*wi, where `where` holds, as evaluate's finite
    branches take it: (re, im, directed, slow), Directed(w) past the rung;
    slow marks a wi that is not finite below it, left to evaluate."""
    low = where & (wr <= IterationConfig.overflow_log_threshold)
    ok = low & np.isfinite(wi)
    e = _cexp(wr, wi, ok)
    return (np.where(ok, e.real, wr), np.where(ok, e.imag, wi),
            where & ~low, low & ~ok)


def _plus_points(pts: Points, c: complex) -> Points:
    """maps._plus of each point of pts: c is dropped where directed."""
    re, im, d, slow = pts
    return np.where(d, re, re + c.real), np.where(d, im, im + c.imag), d, slow


def _ladder_points(re: np.ndarray, im: np.ndarray, d: np.ndarray, m: complex,
                   p: complex, q: complex, out: Points) -> Points:
    """maps._ladder_step(z, m, p, q) at each Directed point z (where d
    holds) over out, the finite step of the others; a degenerate phase is
    slow.  q by np.where, not _plus_points: complex(q) keeps q's -0.0."""
    if not d.any():
        return out
    out_re, out_im, out_d, slow = out
    ph = d & _phase_ok(im)
    cs = _cexp(0.0, im, ph)  # (cos, sin) of the angle, 0 off ph
    dr, di, under, over = _direction(m, cs.real, cs.imag)
    under, over = ph & under, ph & over  # dr = 0 off ph passes a 0 eps*|m|
    mag = _exp_sat_points(re, over)
    re, im, past, s = _plus_points(_exp_points(
        mag * dr + p.real, _scale_points(mag, di) + p.imag, over), q)
    return (np.where(over, re, np.where(d, q.real, out_re)),
            np.where(over, im, np.where(d, q.imag, out_im)),
            out_d | past, slow | s | (d & ~(under | over)))


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


def _to_u_points(re: np.ndarray, im: np.ndarray, d: np.ndarray, a: complex,
                 b: complex) -> Tuple[np.ndarray, np.ndarray]:
    """maps._to_u of each point: (z - b)/a by CPython's _Py_c_quot."""
    log_a, arg_a = _log_polar(a)
    qr, qi = _quot(re - b.real, im - b.imag, a)
    return np.where(d, re - log_a, qr), np.where(d, im - arg_a, qi)


def _from_u_points(re: np.ndarray, im: np.ndarray, d: np.ndarray, a: complex,
                   b: complex) -> Tuple[np.ndarray, np.ndarray]:
    """maps._from_u of each point: a*v + b by CPython's _Py_c_prod."""
    log_a, arg_a = _log_polar(a)
    pr = a.real * re - a.imag * im + b.real
    pi = a.real * im + a.imag * re + b.imag
    return np.where(d, re + log_a, pr), np.where(d, im + arg_a, pi)


def _crossings(re: np.ndarray, im: np.ndarray, d: np.ndarray, tr: np.ndarray,
               ti: np.ndarray) -> np.ndarray:
    """Where a transport (tr, ti) of the points crosses onto the ladder
    (maps._crossed) or drops off it, to the rung or below."""
    return np.where(d, ~(tr > IterationConfig.overflow_log_threshold),
                    _finite(re, im) & ~_finite(tr, ti))


def evaluate_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                    directed: np.ndarray) -> Points:
    """evaluate applied to each point of a batch.

    Point k is complex(re[k], im[k]), or Directed(re[k], im[k]) where
    directed[k].  Returns (re, im, directed, degenerate): degenerate[k]
    is true exactly where evaluate raises DegeneratePhaseError, and the
    other arrays mean nothing there.  Elsewhere every point has the bits
    evaluate gives it: a point that makes a rare move at some node is
    stepped by evaluate on the whole map, which is compositional.
    """
    with np.errstate(all="ignore"):
        out_re, out_im, out_d, slow = _points(expr, re, im, directed)
    degenerate = np.zeros(len(out_re), dtype=bool)
    for k in np.flatnonzero(slow).tolist():
        z = complex(re[k], im[k])
        try:
            v = evaluate(expr, Directed(z.real, z.imag) if directed[k] else z)
        except DegeneratePhaseError:
            degenerate[k] = True
            continue
        out_d[k] = isinstance(v, Directed)
        out_re[k], out_im[k] = (v.log_modulus, v.angle) if out_d[k] else \
            (v.real, v.imag)
    return out_re, out_im, out_d, degenerate


def _points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
            d: np.ndarray) -> Points:
    sign = getattr(expr, "sign", None)
    if sign is not None:
        p, q = expr.param, expr.const
        return _ladder_points(re, im, d, sign, p, q, _plus_points(
            _exp_points(sign * re + p.real, sign * im + p.imag, ~d), q))

    if isinstance(expr, ScaledExp):
        lr, li = expr.lam.real, expr.lam.imag
        return _ladder_points(re, im, d, expr.lam, 0.0, 0.0,
                              _exp_points(lr * re - li * im, lr * im + li * re,
                                          ~d))

    if isinstance(expr, Iterate):
        slow = np.zeros(len(re), dtype=bool)
        for _ in range(expr.s):
            re, im, d, s = _points(expr.base, re, im, d)
            slow |= s
        return re, im, d, slow

    if isinstance(expr, Shift):
        return _plus_points(_points(expr.base, re, im, d), expr.c)

    if isinstance(expr, Compose):
        re, im, d, slow = _points(expr.inner, re, im, d)
        re, im, d, s = _points(expr.outer, re, im, d)
        return re, im, d, slow | s

    if isinstance(expr, Conjugate):
        # each crossing onto or off the ladder, on the way in or out, is slow
        a, b = expr.a, expr.b
        ur, ui = _to_u_points(re, im, d, a, b)
        vr, vi, vd, slow = _points(expr.base, ur, ui, d)
        wr, wi = _from_u_points(vr, vi, vd, a, b)
        return wr, wi, vd, slow | _crossings(re, im, d, ur, ui) \
            | _crossings(vr, vi, vd, wr, wi)

    raise TypeError(f"not a map expression: {expr!r}")


# ---------------------------------------------------------------------------
# lockstep classification of a batch of seeds
# ---------------------------------------------------------------------------

def _real_u_points(re: np.ndarray, im: np.ndarray, d: np.ndarray,
                   ch: Optional[Chart]) -> np.ndarray:
    """orbits._real_u of each point; without a chart re, which no test reads."""
    if ch is None:
        return re
    f, a, b = ch
    if not (a == 1 and b == 0):
        re, im = _to_u_points(re, im, d, a, b)
    if d.any():
        ph = d & _phase_ok(im)
        re = np.where(ph, _scale_points(_exp_sat_points(re, ph),
                                        _cexp(0.0, im, ph).real),
                      np.where(d, math.nan, re))
    return f.sign * re


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
                     nr: np.ndarray, ni: np.ndarray,
                     nd: np.ndarray) -> np.ndarray:
    """orbits._escaped of each pair (z, nxt) of a map without a chart."""
    both = ~d & ~nd
    lz = _log_modulus_points(re, im, both)
    far = both & (lz >= _LOG_ESCAPE_RADIUS)
    return np.where(d, nd & (nr > re),
                    far & (_log_modulus_points(nr, ni, far) >= lz))


def _classify_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                     cfg: IterationConfig,
                     ch: Optional[Chart]) -> Tuple[np.ndarray, np.ndarray]:
    """classify_points of the seeds re + i*im for a caller that has
    validated expr and passes maps.chart(expr).

    Every step runs orbits._iterate's tests in their order on all live
    seeds at once: nan, the half plane, the budget, the step itself
    (degenerate phase), nan, underflow, escape and the repeated point
    (_same_points).  Seeds that stop are compressed out.
    """
    n = len(re)
    kinds = np.full(n, KIND_BUDGET, dtype=np.uint8)
    steps = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    d = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        # r = sign*Re u, which the half-plane, underflow and escape tests read
        r = _real_u_points(re, im, d, ch)
        for step in range(cfg.max_iter + 1):
            stop = ~d & (np.isnan(re) | np.isnan(im))
            kinds[idx[stop]] = KIND_UNDETERMINED
            if ch is not None:
                hit = ~d & ~stop & (r <= 0.0)
                kinds[idx[hit]] = KIND_PROVEN
                steps[idx[hit]] = step
                stop |= hit
            keep = ~stop
            idx, re, im, d, r = idx[keep], re[keep], im[keep], d[keep], r[keep]
            if step == cfg.max_iter or not len(idx):
                break  # what is left stays bounded at budget
            nr, ni, nd, stop = evaluate_points(expr, re, im, d)
            stop |= np.isnan(nr) | np.isnan(ni)
            kinds[idx[stop]] = KIND_UNDETERMINED
            rn = _real_u_points(nr, ni, nd, ch)
            if ch is None:
                hit = ~stop & _escaped_generic(re, im, d, nr, ni, nd)
            else:
                # a ladder point in the absorbing half plane of u
                hit = ~stop & d & (r <= 0.0)
                kinds[idx[hit]] = KIND_PROVEN
                steps[idx[hit]] = step
                stop |= hit
                hit = ~stop & (r >= cfg.escape_real_threshold) & (rn >= r)
            kinds[idx[hit]] = KIND_ESCAPING
            steps[idx[hit]] = step
            # a seed at a fixed point of the step stays bounded at budget
            keep = ~(stop | hit | _same_points((nr, ni, nd), (re, im, d)))
            idx, re, im, d, r = (idx[keep], nr[keep], ni[keep], nd[keep],
                                 rn[keep])
    return kinds, steps


def classify_points(expr: MapExpr, points: np.ndarray,
                    cfg: IterationConfig = DEFAULT_CONFIG
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Classify each seed of a 1-D complex array, all in lockstep.

    Returns (kinds, steps): kinds[k] is the byte code (KIND_ESCAPING,
    KIND_PROVEN, KIND_BUDGET or KIND_UNDETERMINED) of
    classify(expr, points[k], cfg), steps[k] the step of an Escaping or
    NonEscapingProven verdict and -1 otherwise.  The codes agree with
    classify seed by seed: the step is evaluate_points, which gives
    each point evaluate's bits, and the tests are orbits._iterate's.
    """
    validate(expr)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise ValueError(f"points must be a 1-D array, got shape {pts.shape}")
    return _classify_points(expr, pts.real, pts.imag, cfg, chart(expr))
