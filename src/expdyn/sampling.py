"""Deterministic sample generation for the verification suites.

Samples are drawn from a splitmix64 stream and mapped into a rectangular
window by a rejection-free affine transform, so a (seed, count, window)
triple always yields the same points, on any platform.
"""

from __future__ import annotations

import numpy as np

from .maps import Window, _Value

__all__ = ["SampleSet", "splitmix64"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 update: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return state, z ^ (z >> 31)


def _stream(seed: int, n: int) -> np.ndarray:
    """First n outputs of the splitmix64 stream, vectorized.

    The state after k updates is seed + k*GOLDEN mod 2^64, so the whole
    stream is a counter mix and needs no sequential loop.
    """
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SampleSet(_Value):
    """count points drawn deterministically from window.

    points is a complex128 array; sample i consumes stream outputs 2i
    (real part) and 2i+1 (imaginary part).  Each is finite and inside the
    closed window, so a suite may read the window for its points.  ==
    compares the points too: (seed, count, window) determine them only
    for generate.  hash and repr read (seed, count, window).

    The set keeps a read-only view of the points it is given, not a copy:
    a caller that builds one directly and still holds a writable
    reference to them must not write through it.  generate keeps none.
    """

    __slots__ = __match_args__ = ("seed", "count", "window", "points")
    _compared = ("seed", "count", "window")

    def __init__(self, seed: int, count: int, window: Window,
                 points: np.ndarray):
        p, w = points, window
        if len(p) != count or not (
                np.isfinite(p) & (w.x_min <= p.real) & (p.real <= w.x_max)
                & (w.y_min <= p.imag) & (p.imag <= w.y_max)).all():
            raise ValueError(f"need {count} finite points inside the "
                             "closed window")
        # a read-only view, so that a copy or a pickle is read-only too
        points = points.view()
        points.setflags(write=False)
        super().__init__(seed, count, window, points)

    def __eq__(self, other):
        # _Value's compare reads only (seed, count, window)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and \
            np.array_equal(self.points, other.points)

    # defining __eq__ resets __hash__; equal sets share the hashed fields
    __hash__ = _Value.__hash__

    @classmethod
    def generate(cls, seed: int, count: int, window: Window) -> "SampleSet":
        if count < 0:
            raise ValueError("count must be non-negative")
        out = _stream(seed, 2 * count)
        # 53-bit mantissa fractions in [0, 1)
        u = (out >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        x = window.x_min + u[0::2] * (window.x_max - window.x_min)
        y = window.y_min + u[1::2] * (window.y_max - window.y_min)
        return cls(seed, count, window, x + 1j * y)
