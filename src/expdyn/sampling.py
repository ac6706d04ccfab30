"""Deterministic sample generation for the verification suites.

Samples are drawn from a splitmix64 stream and mapped into a rectangular
window by a rejection-free affine transform, so a (seed, count, window)
triple always yields the same points, on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maps import Window

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


@dataclass(frozen=True)
class SampleSet:
    """count points drawn deterministically from window.

    points is a complex128 array; sample i consumes stream outputs 2i
    (real part) and 2i+1 (imaginary part).  Each is finite and inside the
    closed window, so a suite may read the window for its points.
    """

    seed: int
    count: int
    window: Window
    points: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        p, w = self.points, self.window
        if len(p) != self.count or not (
                np.isfinite(p) & (w.x_min <= p.real) & (p.real <= w.x_max)
                & (w.y_min <= p.imag) & (p.imag <= w.y_max)).all():
            raise ValueError(f"need {self.count} finite points inside the "
                             "closed window")

    @classmethod
    def generate(cls, seed: int, count: int, window: Window) -> "SampleSet":
        if count < 0:
            raise ValueError("count must be non-negative")
        out = _stream(seed, 2 * count)
        # 53-bit mantissa fractions in [0, 1)
        u = (out >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        x = window.x_min + u[0::2] * (window.x_max - window.x_min)
        y = window.y_min + u[1::2] * (window.y_max - window.y_min)
        pts = x + 1j * y
        pts.setflags(write=False)
        return cls(seed=seed, count=count, window=window, points=pts)
