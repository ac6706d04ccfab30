"""Escape-time fields over rectangular windows, with PPM and CSV export.

Cells are sampled at their centers (so window edges are unbiased) and
classified independently.  The grid is cut, in storage order, into
blocks of a fixed size, classified one after another in the calling
process; each block goes through ``blocks.classify_points``, which moves
its seeds in lockstep and gives each cell the verdict ``classify`` gives
it.  The bytes of a field depend on the libm behind Python's ``math``
and ``cmath`` modules and on numpy's complex exp, which calls that
libm's ``cexp``, not on numpy's SIMD build or the block size.
PPM (binary P6) is the image format: dependency-free and byte-exact, so
golden tests can compare files directly.
"""

from __future__ import annotations

from typing import BinaryIO, Iterable, List, Optional, TextIO, Tuple, Union

import numpy as np

from .blocks import _classify_points
from .maps import (DEFAULT_CONFIG, KIND_BUDGET, KIND_ESCAPING,
                   KIND_UNDETERMINED, Family, IterationConfig, MapExpr, Window,
                   _g17, _set, _Value, chart, validate)

__all__ = [
    "Window",
    "EscapeField",
    "classify_grid",
    "render_ppm",
    "export_field_csv",
    "import_field_csv",
    "overlay_strips",
]

class EscapeField(_Value):
    """Row-major grid of cell verdicts.

    kinds holds one of the byte codes E/P/B/U per cell, steps the escape
    or absorption step (-1 when not applicable).  Cell (i, j) sits at
    index j*nx + i; its center is (x_min + (i+0.5)*dx, y_max - (j+0.5)*dy)
    (_centers).
    """

    __slots__ = __match_args__ = ("window", "nx", "ny", "kinds", "steps")

    def __init__(self, window: Window, nx: int, ny: int, kinds: np.ndarray,
                 steps: np.ndarray):
        if nx < 1 or ny < 1:
            raise ValueError("grid must be at least 1x1")
        if kinds.shape != (nx * ny,):
            raise ValueError("kinds array has wrong length")
        if steps.shape != (nx * ny,):
            raise ValueError("steps array has wrong length")
        _set(self, "window", window)
        _set(self, "nx", nx)
        _set(self, "ny", ny)
        _set(self, "kinds", kinds)
        _set(self, "steps", steps)

    @property
    def dx(self) -> float:
        return (self.window.x_max - self.window.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.window.y_max - self.window.y_min) / self.ny

    def _index(self, i: int, j: int) -> int:
        # the storage index of cell (i, j), which must lie in the grid
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"cell ({i}, {j}) outside the grid of "
                             f"(nx, ny) = ({self.nx}, {self.ny}) cells")
        return j * self.nx + i

    def center(self, i: int, j: int) -> complex:
        self._index(i, j)
        return complex(*_centers(self.window, self.nx, self.ny, i, j))

    def cell(self, i: int, j: int) -> Tuple[str, Optional[int]]:
        idx = self._index(i, j)
        step = int(self.steps[idx])
        return chr(self.kinds[idx]), (step if step >= 0 else None)

    def cells_equal(self, other: "EscapeField") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.steps, other.steps))

    def __eq__(self, other):
        # the arrays compared whole: _Value's tuple compare asks bool() of
        # an array, which fails past one cell; defining __eq__ leaves the
        # class unhashable, as its arrays are
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.window == other.window and self.cells_equal(other)

    def escaping_indices(self) -> np.ndarray:
        return np.nonzero(self.kinds == KIND_ESCAPING)[0]


# Points per block of the grid engine and of the verify sample suites.
# A fixed constant, not a setting: the verdicts are the same for every
# block size, and blocks keep the lockstep arrays small (the peak memory
# of a whole 512x512 grid is about twice that of a row at a time).
_BLOCK = 4096


def _centers(window: Window, nx: int, ny: int, i: np.ndarray,
             j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) of the cells (i, j), arrays or ints: the one formula of the
    cell centers."""
    dx = (window.x_max - window.x_min) / nx
    dy = (window.y_max - window.y_min) / ny
    return window.x_min + (i + 0.5) * dx, window.y_max - (j + 0.5) * dy


def classify_grid(expr: MapExpr, window: Window, nx: int, ny: int,
                  cfg: IterationConfig = DEFAULT_CONFIG,
                  workers: Optional[int] = None) -> EscapeField:
    """Classify every cell center, in the calling process.

    Cells go through blocks.classify_points in blocks of a fixed size,
    so each cell gets classify's verdict.  The map is validated once per
    call, not once per cell or block.  workers is accepted and has no
    effect; a count below 1 is a ValueError.
    """
    validate(expr)
    if nx < 1 or ny < 1:
        raise ValueError("grid must be at least 1x1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ch = chart(expr)
    kinds = np.empty(nx * ny, dtype=np.uint8)
    steps = np.empty(nx * ny, dtype=np.int64)
    for start in range(0, nx * ny, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, nx * ny))
        kinds[k], steps[k] = _classify_points(
            expr, *_centers(window, nx, ny, k % nx, k // nx), cfg, ch)
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
    shared cell edge marks one row, not two.  The boundaries in [lo, hi]
    rise, so each row compares only the first with hi.
    """
    from .strips import _boundaries
    marks = np.zeros(field.nx * field.ny, dtype=bool)
    for j in range(field.ny):
        hi = field.window.y_max - j * field.dy
        if next(_boundaries(hi - field.dy, hi, family, param), hi) < hi:
            marks[j * field.nx:(j + 1) * field.nx] = True
    marks.setflags(write=False)
    return marks


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _texts(texts: List[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 matrix."""
    table = np.array(texts, dtype=bytes)
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def export_field_csv(field: EscapeField, out: TextIO) -> None:
    """Rows "i,j,re,im,class,step" in storage order; step is empty unless
    the cell escaped or was proven non-escaping.

    Each column's "i," and "x,", each row's "j," and "y," and each step
    present is formatted once.  Whole grid rows, about _BLOCK cells at a
    time, are laid out as one NUL-padded byte matrix of these pieces; its
    NULs are dropped and the rest is written as one string.
    """
    out.write("i,j,re,im,class,step\n")
    nx = field.nx
    # names[c] is ",", the text of the c-th smallest step present ("" for
    # none, -1) and "\n", found a sorted block at a time: time and memory
    # follow the cells
    present = set()
    for start in range(0, field.steps.size, _BLOCK):
        b = np.sort(field.steps[start:start + _BLOCK])
        present.update(b[np.concatenate(([True], b[1:] != b[:-1]))].tolist())
    present = np.array(sorted(present), dtype=np.int64)
    names = _texts(["," + ("" if s < 0 else str(s)) + "\n"
                    for s in present.tolist()])
    i_txt = _texts([f"{i}," for i in range(nx)])
    xs = _centers(field.window, nx, field.ny, np.arange(nx), 0)[0]
    x_txt = _texts([_g17(x) + "," for x in xs.tolist()])
    rows = max(1, _BLOCK // nx)
    for j0 in range(0, field.ny, rows):
        js = range(j0, min(j0 + rows, field.ny))
        j_txt = _texts([f"{j}," for j in js])
        ys = _centers(field.window, nx, field.ny, 0, np.arange(j0, js.stop))[1]
        y_txt = _texts([_g17(y) + "," for y in ys.tolist()])
        cells, shape = slice(j0 * nx, js.stop * nx), (len(js), nx)
        kinds = field.kinds[cells].reshape(shape + (1,))
        codes = np.searchsorted(present, field.steps[cells]).reshape(shape)
        m = np.concatenate([np.broadcast_to(p, shape + p.shape[-1:]) for p in
                            (i_txt, j_txt[:, None], x_txt, y_txt[:, None],
                             kinds, names[codes])], axis=2)
        out.write(m[m != 0].tobytes().decode("ascii"))


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
        i, j, kind, step = int(parts[0]), int(parts[1]), parts[4], parts[5]
        if kind not in ("E", "P", "B", "U"):
            raise ValueError(f"unknown cell class {kind!r}")
        # the export rule: a non-negative integer step for E and P, none
        # for B and U
        if not (step.isdigit() if kind in ("E", "P") else step == ""):
            raise ValueError(f"step {step!r} does not fit class {kind!r} "
                             f"in row {line!r}")
        rows.append((i, j, float(parts[2]), float(parts[3]), kind,
                     int(step) if step else -1))
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
