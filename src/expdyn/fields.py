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
golden tests can compare files directly.  classify_grid stores each
step in the smallest signed integer type that holds max_iter (_step_type),
so a field at a budget of 250 takes 3 bytes per cell.
Both writers stream the field in blocks of whole rows (_row_blocks), so
a render holds the field and one block of output, whatever the grid's
size.
"""

from __future__ import annotations

import math
from typing import (BinaryIO, Iterable, Iterator, List, Optional, TextIO,
                    Tuple, Union)

import numpy as np

from .blocks import _classify_points
from .maps import (DEFAULT_CONFIG, KIND_BUDGET, KIND_ESCAPING,
                   KIND_UNDETERMINED, Family, IterationConfig, MapExpr, Window,
                   _g17, _Value, chart, validate)
from .parser import _REAL

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
    or absorption step (-1 when not applicable) in any signed integer
    type.  classify_grid gives steps the smallest signed type that holds
    max_iter (int8 up to 127), so a caller widens them before doing
    arithmetic on them.  Cell (i, j) sits at
    index j*nx + i; its center is (x_min + (i+0.5)*dx, y_max - (j+0.5)*dy)
    (_centers).

    The field keeps read-only views of the arrays it is given, not
    copies: a caller that builds one directly and still holds a writable
    reference to kinds or steps must not write through it.
    classify_grid and import_field_csv keep no such reference.
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
        # the writers copy kinds as bytes and format steps as integers
        if kinds.dtype != np.uint8:
            raise ValueError(f"kinds array must be uint8, not {kinds.dtype}")
        if steps.dtype.kind != "i":
            raise ValueError("steps array must be a signed integer type, "
                             f"not {steps.dtype}")
        # read-only views, so that a copy or a pickle is read-only too
        kinds, steps = kinds.view(), steps.view()
        kinds.setflags(write=False)
        steps.setflags(write=False)
        super().__init__(window, nx, ny, kinds, steps)

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


# Points per block of the grid engine and of the verify sample suites,
# and cells per block of the PPM and CSV writers (whole rows, at least
# one: _row_blocks).  A fixed constant, not a setting: the verdicts and
# the bytes written are the same for every block size, and blocks keep
# the lockstep arrays and the writers' buffers small (the peak memory of
# a whole 512x512 grid is about twice that of a row at a time).
_BLOCK = 4096


def _row_blocks(nx: int, ny: int) -> Iterator[Tuple[int, int]]:
    """(first row, end row) of each block of whole rows the writers
    stream: _BLOCK // nx rows, at least one."""
    rows = max(1, _BLOCK // nx)
    for j0 in range(0, ny, rows):
        yield j0, min(j0 + rows, ny)


def _centers(window: Window, nx: int, ny: int, i: np.ndarray,
             j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) of the cells (i, j), arrays or ints: the one formula of the
    cell centers."""
    dx = (window.x_max - window.x_min) / nx
    dy = (window.y_max - window.y_min) / ny
    return window.x_min + (i + 0.5) * dx, window.y_max - (j + 0.5) * dy


def _step_type(max_iter: int) -> type:
    """The smallest of int8, int16, int32 that holds every step in
    [-1, max_iter], else int64 (max_iter may exceed even that)."""
    for t in (np.int8, np.int16, np.int32):
        if np.iinfo(t).max >= max_iter:
            return t
    return np.int64


def classify_grid(expr: MapExpr, window: Window, nx: int, ny: int,
                  cfg: IterationConfig = DEFAULT_CONFIG,
                  workers: Optional[int] = None) -> EscapeField:
    """Classify every cell center, in the calling process.

    Cells go through blocks.classify_points in blocks of a fixed size,
    so each cell gets classify's verdict, and its step is stored in the
    smallest signed type that holds cfg.max_iter (_step_type).  The map
    is validated once per call, not once per cell or block.  workers is
    accepted and has no effect; a count below 1 is a ValueError.
    """
    validate(expr)
    if nx < 1 or ny < 1:
        raise ValueError("grid must be at least 1x1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ch = chart(expr)
    kinds = np.empty(nx * ny, dtype=np.uint8)
    steps = np.empty(nx * ny, dtype=_step_type(cfg.max_iter))
    for start in range(0, nx * ny, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, nx * ny))
        kinds[k], steps[k] = _classify_points(
            expr, *_centers(window, nx, ny, k % nx, k // nx), cfg, ch)
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_ppm(field: EscapeField, out: BinaryIO,
               marks: Optional[np.ndarray] = None) -> None:
    """Binary P6 image, rows top to bottom, byte-exact for a given field.

    Palette: Escaping{n} -> (min(255, 8+4n), 0, 64); proven non-escaping
    -> black; bounded-at-budget -> (0, 48, 0); undetermined -> grey;
    cells with a true mark (a bool array of one mark per cell, as
    overlay_strips returns) -> white.  Each block of rows is coloured
    and written in turn.
    """
    nx, ny = field.nx, field.ny
    if marks is not None and (not isinstance(marks, np.ndarray)
                              or marks.dtype != bool
                              or marks.shape != (nx * ny,)):
        raise ValueError(f"marks must be a bool array of shape ({nx * ny},)")
    out.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
    for j0, j1 in _row_blocks(nx, ny):
        cells = slice(j0 * nx, j1 * nx)
        kinds, steps = field.kinds[cells], field.steps[cells]
        rgb = np.zeros((kinds.size, 3), dtype=np.uint8)
        esc = kinds == KIND_ESCAPING
        # clamped in the steps' own type, then widened: 8 + 4n overflows
        # an int8 step, and an int64 one near its maximum
        n = np.minimum(steps[esc], 62).astype(np.int64)
        rgb[esc, 0] = np.minimum(255, 8 + 4 * n).astype(np.uint8)
        rgb[esc, 2] = 64
        rgb[kinds == KIND_BUDGET, 1] = 48
        rgb[kinds == KIND_UNDETERMINED] = (128, 128, 128)
        if marks is not None:
            rgb[marks[cells]] = (255, 255, 255)
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
    """ASCII texts as a NUL-padded bytes array."""
    return np.array(texts, dtype=bytes)


def export_field_csv(field: EscapeField, out: TextIO) -> None:
    """Rows "i,j,re,im,class,step" in storage order; step is empty unless
    the cell escaped or was proven non-escaping.

    Each column's "i," and "x,", each row's "j," and "y," and each step
    present is formatted once.  Each block of rows is laid out as one
    packed record per cell, each piece a NUL-padded field filled by one
    strided copy; the NULs are dropped and the rest is written as one
    string.
    """
    out.write("i,j,re,im,class,step\n")
    nx = field.nx
    # names[c] is ",", the text of the c-th smallest step present ("" for
    # none, -1) and "\n", found a sorted block at a time: time and memory
    # follow the cells
    present = set()
    for j0, j1 in _row_blocks(nx, field.ny):
        b = np.sort(field.steps[j0 * nx:j1 * nx])
        present.update(b[np.concatenate(([True], b[1:] != b[:-1]))].tolist())
    present = np.array(sorted(present), dtype=np.int64)
    names = _texts(["," + ("" if s < 0 else str(s)) + "\n"
                    for s in present.tolist()])
    i_txt = _texts([f"{i}," for i in range(nx)])
    xs = _centers(field.window, nx, field.ny, np.arange(nx), 0)[0]
    x_txt = _texts([_g17(x) + "," for x in xs.tolist()])
    for j0, j1 in _row_blocks(nx, field.ny):
        j_txt = _texts([f"{j}," for j in range(j0, j1)])
        ys = _centers(field.window, nx, field.ny, 0, np.arange(j0, j1))[1]
        y_txt = _texts([_g17(y) + "," for y in ys.tolist()])
        cells, shape = slice(j0 * nx, j1 * nx), (j1 - j0, nx)
        rec = np.empty(shape, dtype=[
            ("i", i_txt.dtype), ("j", j_txt.dtype), ("x", x_txt.dtype),
            ("y", y_txt.dtype), ("kind", np.uint8), ("step", names.dtype)])
        rec["i"] = i_txt
        rec["j"] = j_txt[:, None]
        rec["x"] = x_txt
        rec["y"] = y_txt[:, None]
        rec["kind"] = field.kinds[cells].reshape(shape)
        rec["step"] = names[np.searchsorted(present, field.steps[cells])
                            ].reshape(shape)
        m = rec.view(np.uint8)
        out.write(m[m != 0].tobytes().decode("ascii"))


def _digits(text: str) -> bool:
    """text as the export writes a step, i or j: ASCII digits that fit
    int64 (E and P cells carry a step, B and U none)."""
    return text.isascii() and text.isdigit() and int(text) < 2 ** 63


def _finite_real(text: str) -> Optional[float]:
    """text as the export writes a center's re or im, an ASCII decimal by
    the map literals' rule, read as a finite double; None otherwise."""
    x = float(text) if _REAL.fullmatch(text) else math.nan
    return x if math.isfinite(x) else None


def import_field_csv(src: Union[TextIO, Iterable[str]],
                     window: Optional[Window] = None) -> EscapeField:
    """Rebuild a field from its CSV export.

    Only rows the export could have written are read: a row with blanks
    around it, an i, j or step that is not ASCII digits fitting int64, or
    a re or im that is not an ASCII decimal of a finite double, is a
    ValueError (a negative i or j is out of range).  Cells are
    recovered exactly.  The window is taken from the argument
    when given; otherwise it is inferred from the cell centers, which
    needs at least a 2x2 grid and reproduces the original bounds only up
    to float rounding.
    """
    rows = []
    header_seen = False
    for line in src:
        if not line.strip():
            continue
        line = line.rstrip("\r\n")
        if not header_seen:
            if line != "i,j,re,im,class,step":
                raise ValueError(f"unexpected CSV header: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed CSV row: {line!r}")
        i, j, x, y, kind, step = parts
        x, y = _finite_real(x), _finite_real(y)
        # i and j by the step's rule, a '-' kept for the range check below
        if not (_digits(i.removeprefix("-")) and _digits(j.removeprefix("-"))
                and x is not None and y is not None):
            raise ValueError(f"malformed CSV row: {line!r}")
        if kind not in ("E", "P", "B", "U"):
            raise ValueError(f"unknown cell class {kind!r}")
        if not (_digits(step) if kind in ("E", "P") else step == ""):
            raise ValueError(f"step {step!r} does not fit class {kind!r} "
                             f"in row {line!r}")
        rows.append((int(i), int(j), x, y, kind, int(step) if step else -1))
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
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)
