"""Escape-time fields over rectangular windows, with PPM and CSV export.

Cells are sampled at their centers (so window edges are unbiased) and
classified independently; grid rows are distributed across workers and
reassembled by row index, which makes the result identical for any
worker count.  PPM (binary P6) is the image format: dependency-free and
byte-exact, so golden tests can compare files directly.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Iterable, List, Optional, TextIO, Tuple, Union

import numpy as np

from .maps import DEFAULT_CONFIG, IterationConfig, MapExpr, validate
from .orbits import (BoundedAtBudget, Escaping, NonEscapingProven, _chart_tests,
                     _g17, _iterate)
from .strips import Family, strip_boundaries

__all__ = [
    "Window",
    "EscapeField",
    "classify_grid",
    "render_ppm",
    "export_field_csv",
    "import_field_csv",
    "overlay_strips",
]

KIND_ESCAPING = ord("E")
KIND_PROVEN = ord("P")
KIND_BUDGET = ord("B")
KIND_UNDETERMINED = ord("U")


@dataclass(frozen=True, slots=True)
class Window:
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


@dataclass(frozen=True)
class EscapeField:
    """Row-major grid of cell verdicts.

    kinds holds one of the byte codes E/P/B/U per cell, steps the escape
    or absorption step (-1 when not applicable).  Cell (i, j) sits at
    index j*nx + i; its center is
    (x_min + (i+0.5)*dx, y_max - (j+0.5)*dy).
    """

    window: Window
    nx: int
    ny: int
    kinds: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must be at least 1x1")
        if self.kinds.shape != (self.nx * self.ny,):
            raise ValueError("kinds array has wrong length")
        if self.steps.shape != (self.nx * self.ny,):
            raise ValueError("steps array has wrong length")

    @property
    def dx(self) -> float:
        return (self.window.x_max - self.window.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.window.y_max - self.window.y_min) / self.ny

    def center(self, i: int, j: int) -> complex:
        return complex(self.window.x_min + (i + 0.5) * self.dx,
                       self.window.y_max - (j + 0.5) * self.dy)

    def cell(self, i: int, j: int) -> Tuple[str, Optional[int]]:
        idx = j * self.nx + i
        step = int(self.steps[idx])
        return chr(self.kinds[idx]), (step if step >= 0 else None)

    def cells_equal(self, other: "EscapeField") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.steps, other.steps))

    def escaping_indices(self) -> np.ndarray:
        return np.nonzero(self.kinds == KIND_ESCAPING)[0]


def _classification_code(verdict) -> Tuple[int, int]:
    if isinstance(verdict, Escaping):
        return KIND_ESCAPING, verdict.step
    if isinstance(verdict, NonEscapingProven):
        return KIND_PROVEN, verdict.step
    if isinstance(verdict, BoundedAtBudget):
        return KIND_BUDGET, -1
    return KIND_UNDETERMINED, -1


def _compute_row(expr: MapExpr, window: Window, nx: int, ny: int,
                 cfg: IterationConfig, j: int) -> Tuple[int, bytes, List[int]]:
    dx = (window.x_max - window.x_min) / nx
    dy = (window.y_max - window.y_min) / ny
    y = window.y_max - (j + 0.5) * dy
    kinds = bytearray(nx)
    steps = [0] * nx
    tests = _chart_tests(expr)
    for i in range(nx):
        x = window.x_min + (i + 0.5) * dx
        verdict = _iterate(expr, complex(x, y), cfg, False, tests)[0]
        kinds[i], steps[i] = _classification_code(verdict)
    return j, bytes(kinds), steps


def classify_grid(expr: MapExpr, window: Window, nx: int, ny: int,
                  cfg: IterationConfig = DEFAULT_CONFIG,
                  workers: Optional[int] = None) -> EscapeField:
    """Classify every cell center; identical output for any worker count.

    The map is validated once per call, not once per cell.  workers None
    means one per CPU; a count below 1 is a ValueError.
    """
    validate(expr)
    if nx < 1 or ny < 1:
        raise ValueError("grid must be at least 1x1")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    row_fn = partial(_compute_row, expr, window, nx, ny, cfg)
    if workers <= 1 or ny == 1:
        rows = [row_fn(j) for j in range(ny)]
    else:
        with multiprocessing.Pool(processes=min(workers, ny)) as pool:
            rows = pool.map(row_fn, range(ny))
    kinds = np.empty(nx * ny, dtype=np.uint8)
    steps = np.empty(nx * ny, dtype=np.int64)
    for j, krow, srow in rows:
        kinds[j * nx:(j + 1) * nx] = np.frombuffer(krow, dtype=np.uint8)
        steps[j * nx:(j + 1) * nx] = srow
    kinds.setflags(write=False)
    steps.setflags(write=False)
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_ppm(field: EscapeField, out: BinaryIO,
               marks: Optional[np.ndarray] = None) -> None:
    """Binary P6 image, rows top to bottom, byte-exact for a given field.

    Palette: Escaping{n} -> (min(255, 8+4n), 0, 64); proven non-escaping
    -> black; bounded-at-budget -> (0, 48, 0); undetermined -> grey;
    cells with a true mark (one boolean per cell, as overlay_strips
    returns) -> white.
    """
    rgb = np.zeros((field.nx * field.ny, 3), dtype=np.uint8)
    esc = field.kinds == KIND_ESCAPING
    rgb[esc, 0] = np.minimum(255, 8 + 4 * field.steps[esc]).astype(np.uint8)
    rgb[esc, 2] = 64
    rgb[field.kinds == KIND_BUDGET, 1] = 48
    rgb[field.kinds == KIND_UNDETERMINED] = (128, 128, 128)
    if marks is not None:
        rgb[marks] = (255, 255, 255)
    out.write(f"P6\n{field.nx} {field.ny}\n255\n".encode("ascii"))
    out.write(rgb.tobytes())


def overlay_strips(field: EscapeField, family: Family,
                   param: complex) -> np.ndarray:
    """Read-only boolean mark per cell, in storage order: true where the
    cell's vertical span crosses a strip boundary.

    Spans are half-open [lo, hi), so a boundary sitting exactly on a
    shared cell edge marks one row, not two.
    """
    marks = np.zeros(field.nx * field.ny, dtype=bool)
    for j in range(field.ny):
        hi = field.window.y_max - j * field.dy
        lo = hi - field.dy
        if any(b < hi for b in strip_boundaries(lo, hi, family, param)):
            marks[j * field.nx:(j + 1) * field.nx] = True
    marks.setflags(write=False)
    return marks


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def export_field_csv(field: EscapeField, out: TextIO) -> None:
    """Rows "i,j,re,im,class,step" in storage order; step is empty unless
    the cell escaped or was proven non-escaping."""
    out.write("i,j,re,im,class,step\n")
    for j in range(field.ny):
        y = field.window.y_max - (j + 0.5) * field.dy
        base = j * field.nx
        for i in range(field.nx):
            x = field.window.x_min + (i + 0.5) * field.dx
            kind = chr(field.kinds[base + i])
            step = field.steps[base + i]
            step_txt = str(int(step)) if step >= 0 else ""
            out.write(f"{i},{j},{_g17(x)},{_g17(y)},{kind},{step_txt}\n")


def import_field_csv(src: Union[TextIO, Iterable[str]],
                     window: Optional[Window] = None) -> EscapeField:
    """Rebuild a field from its CSV export.

    Cells are recovered exactly.  The window is taken from the argument
    when given; otherwise it is inferred from the cell centers, which
    needs at least a 2x2 grid and reproduces the original bounds only up
    to float rounding.
    """
    rows = []
    header_seen = False
    for line in src:
        line = line.strip()
        if not line:
            continue
        if not header_seen:
            if line != "i,j,re,im,class,step":
                raise ValueError(f"unexpected CSV header: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed CSV row: {line!r}")
        i, j = int(parts[0]), int(parts[1])
        rows.append((i, j, float(parts[2]), float(parts[3]), parts[4],
                     int(parts[5]) if parts[5] else -1))
    if not rows:
        raise ValueError("empty CSV")
    nx = max(r[0] for r in rows) + 1
    ny = max(r[1] for r in rows) + 1
    if len(rows) != nx * ny:
        raise ValueError("CSV does not cover a full grid")
    kinds = np.zeros(nx * ny, dtype=np.uint8)
    steps = np.full(nx * ny, -1, dtype=np.int64)
    xs = {}
    ys = {}
    for i, j, x, y, kind, step in rows:
        if kind not in ("E", "P", "B", "U"):
            raise ValueError(f"unknown cell class {kind!r}")
        if i < 0 or j < 0 or kinds[j * nx + i]:
            raise ValueError(f"CSV cell ({i}, {j}) is repeated or out of range")
        kinds[j * nx + i] = ord(kind)
        steps[j * nx + i] = step
        xs[i] = x
        ys[j] = y
    if window is None:
        if nx < 2 or ny < 2:
            raise ValueError("window cannot be inferred from a degenerate grid")
        dx = (xs[nx - 1] - xs[0]) / (nx - 1)
        dy = (ys[0] - ys[ny - 1]) / (ny - 1)
        window = Window(xs[0] - 0.5 * dx, xs[nx - 1] + 0.5 * dx,
                        ys[ny - 1] - 0.5 * dy, ys[0] + 0.5 * dy)
    kinds.setflags(write=False)
    steps.setflags(write=False)
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)
