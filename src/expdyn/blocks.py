"""The engine on numpy arrays: one map step and lockstep orbit
classification of batches of points.

``_Arrays`` runs the step and stop helpers of ``maps._Engine``, written
once, on numpy arrays of points.  It takes every exp, cos and sin as
numpy's complex exp, which calls libm's ``cexp``: glibc's computes the
same products with the same libm functions, so the bits are again those
of the ``math`` calls of the float path.  ``evaluate_points`` steps a
batch by it, rare moves included (a lost phase, a conj transport that
crosses onto or off the ladder), so each point gets the bits
``evaluate`` gives it and no point leaves the arrays (a point that
crosses onto the ladder takes ``maps._log_polar``, one call per point).
A degenerate phase, where ``evaluate`` raises, is a flag.  The escape
test of a map without a chart takes no log where ``np.hypot`` puts a
point below R/2.  A step reads no setting, so
``evaluate_points`` takes no ``IterationConfig``: its ``max_iter`` is
read by the orbit loops only.

``classify_points`` moves an array of seeds in lockstep through
``evaluate_points`` and stops them by the engine's ``start`` and
``stop``, as ``orbits._iterate`` does one seed, each log as ``math.log``.
Complex quotients and products are CPython's on both paths, so the two
loops agree seed by seed, in verdict class and step.  Two numpy kernels
reach a verdict: this complex exp, and the ``hypot`` of verify's
half-plane bound (the escape test's ``hypot`` leaves a factor of 2 to
its exact test, so its last bits reach none).  Results depend on the
libm behind ``math`` and ``cmath`` and on numpy's complex exp being the
platform ``cexp``, not on numpy's SIMD build: on a numpy built without
the platform ``cexp`` (it then uses its own) bytes can move, and
TestExpStep in tests/test_maps.py fails.

Only the commands that work on grids or sample sets (render, verify)
import this module, and with it numpy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .maps import (
    DEFAULT_CONFIG,
    KIND_BUDGET,
    Chart,
    IterationConfig,
    MapExpr,
    _Engine,
    _log_modulus,
    _log_polar,
    chart,
    validate,
)

__all__ = ["evaluate_points", "classify_points"]


# ---------------------------------------------------------------------------
# the engine on arrays
# ---------------------------------------------------------------------------

# A batch is three arrays: point k is complex(re[k], im[k]), or
# Directed(re[k], im[k]) where directed[k].  Every exp, cos and sin of the
# arrays is numpy's complex exp (_cexp), which calls libm's cexp and so
# gives the bits of cmath.exp, math.exp, math.cos and math.sin.
# numpy's float exp/cos/sin/log and its complex / and * are not used: they
# are numpy's own (SIMD) code, which differs from libm's and CPython's in
# the last ulp on a share of inputs, and that would move verdicts.

Points = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# whether any point of a mask is set: np.count_nonzero costs 0.3 us a
# call, ndarray.any 1 us and np.any 2.4 us (numpy 2.4, 10 to 4096 points,
# 2-core x86-64)
_nonzero = np.count_nonzero


def _cexp(wr, wi, where: np.ndarray) -> np.ndarray:
    """exp(wr + i*wi) where `where` holds (0 elsewhere), as a complex array;
    wr and wi are arrays or floats.

    numpy's complex exp calls the platform's cexp.  glibc's computes
    exp(wr)*cos(wi) and exp(wr)*sin(wi) with the libm exp, cos and sin
    that cmath.exp and math call, for wr below 709: the bits of
    cmath.exp(w) up to the rung, and with wi = 0 of math.exp(wr), with
    wr = 0 of math.cos(wi) and math.sin(wi).  TestExpStep in
    tests/test_maps.py fails where a numpy build or libm breaks this."""
    out = np.zeros(len(where), dtype=complex)
    if _nonzero(where):
        w = np.empty(len(where), dtype=complex)
        w.real, w.imag = wr, wi
        np.exp(w, out=out, where=where)
    return out


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


def _each(fn, re: np.ndarray, im: np.ndarray, where: np.ndarray) -> list:
    """fn(complex(re[k], im[k])) for each k where `where` holds, in order."""
    return list(map(fn, map(complex, re[where].tolist(), im[where].tolist())))


def _log_modulus_points(re: np.ndarray, im: np.ndarray,
                        where: np.ndarray) -> np.ndarray:
    """_log_modulus of each finite point where `where` holds (0 elsewhere),
    one call per point."""
    out = np.zeros(len(re))
    if _nonzero(where):
        out[where] = _each(_log_modulus, re, im, where)
    return out


def _log_polar_points(re: np.ndarray, im: np.ndarray,
                      where: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """_log_polar of each point where `where` holds ((0, 0) elsewhere),
    one call per point."""
    out = np.zeros((2, len(re)))
    if _nonzero(where):
        out[:, where] = np.array(_each(_log_polar, re, im, where)).T
    return out[0], out[1]


class _Arrays(_Engine):
    """maps._Engine's primitives on numpy arrays of points; its step and
    stop helpers are the float path's, unchanged.  ``degenerate`` only
    flags the points, for the caller to read."""

    where = staticmethod(np.where)
    any = staticmethod(_nonzero)
    not_ = staticmethod(np.logical_not)
    isfinite = staticmethod(np.isfinite)
    isnan = staticmethod(np.isnan)
    hypot = staticmethod(np.hypot)
    cexp = staticmethod(_cexp)
    quot = staticmethod(_quot)
    log_modulus = staticmethod(_log_modulus_points)
    log_polar = staticmethod(_log_polar_points)

    @staticmethod
    def rexp(x, where):
        return _cexp(x, 0.0, where).real

    @staticmethod
    def bits(x):
        return x.view(np.int64)

    @staticmethod
    def degenerate(where, angle):
        return where


_ARRAYS = _Arrays()


def evaluate_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                    directed: np.ndarray) -> Points:
    """evaluate applied to each point of a batch: _ARRAYS.step, the same
    step on arrays, rare moves included.

    Point k is complex(re[k], im[k]), or Directed(re[k], im[k]) where
    directed[k].  Returns (re, im, directed, degenerate): degenerate[k]
    is true exactly where evaluate raises DegeneratePhaseError, and the
    other arrays mean nothing there.  Elsewhere every point has the bits
    evaluate gives it.  Where no point is on the ladder, degenerate can
    be the all-false directed itself: read the results, do not write them.
    """
    with np.errstate(all="ignore"):
        return _ARRAYS.step(expr, re, im, directed)


# ---------------------------------------------------------------------------
# lockstep classification of a batch of seeds
# ---------------------------------------------------------------------------

# the kind of each code of maps._stop, and the step a stop at step n
# records: n plus this, unless it is -1
_STOP_KINDS = np.frombuffer(b"BUPEBP", dtype=np.uint8)
_STOP_STEPS = np.array([-1, -1, 0, 0, -1, 1])


def _classify_points(expr: MapExpr, re: np.ndarray, im: np.ndarray,
                     cfg: IterationConfig,
                     ch: Optional[Chart]) -> Tuple[np.ndarray, np.ndarray]:
    """classify_points of the seeds re + i*im for a caller that has
    validated expr and passes maps.chart(expr): orbits._iterate on all
    live seeds at once.  Each step records the seeds that maps._stop stops
    (a degenerate phase stops as a NaN) and compresses them out."""
    n = len(re)
    kinds = np.full(n, KIND_BUDGET, dtype=np.uint8)
    steps = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    d = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        code, r = _ARRAYS.start(re, im, ch)
        step = -1
        while True:
            stop = code > 0
            if _nonzero(stop):
                k, c = idx[stop], code[stop]
                kinds[k] = _STOP_KINDS[c]
                steps[k] = np.where(_STOP_STEPS < 0, -1, step + _STOP_STEPS)[c]
                keep = ~stop
                idx, re, im, d, r = (idx[keep], re[keep], im[keep], d[keep],
                                     r[keep])
            step += 1
            if step == cfg.max_iter or not len(idx):
                return kinds, steps  # what is left stays bounded at budget
            *nxt, failed = evaluate_points(expr, re, im, d)
            code, r = _ARRAYS.stop((re, im, d), r, nxt, ch, failed)
            re, im, d = nxt


def classify_points(expr: MapExpr, points: np.ndarray,
                    cfg: IterationConfig = DEFAULT_CONFIG
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Classify each seed of a 1-D complex array, all in lockstep.

    Returns (kinds, steps): kinds[k] is the byte code (KIND_ESCAPING,
    KIND_PROVEN, KIND_BUDGET or KIND_UNDETERMINED) of
    classify(expr, points[k], cfg), steps[k] the step of an Escaping or
    NonEscapingProven verdict and -1 otherwise.  The codes agree with
    classify seed by seed: the step is evaluate_points, which gives
    each point evaluate's bits, and the stops are maps._stop's.
    """
    validate(expr)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise ValueError(f"points must be a 1-D array, got shape {pts.shape}")
    return _classify_points(expr, pts.real, pts.imag, cfg, chart(expr))
