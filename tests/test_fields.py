import copy
import hashlib
import io
import math
import multiprocessing
import pickle
import tracemalloc

import numpy as np
import pytest

from expdyn import blocks, fields, maps, orbits
from expdyn.fields import (
    EscapeField,
    Window,
    classify_grid,
    export_field_csv,
    import_field_csv,
    overlay_strips,
    render_ppm,
)
from expdyn.maps import (DegeneratePhaseError, Directed, FamilyF, FamilyG,
                         InvalidMapError, IterationConfig, chart, validate)
from expdyn.orbits import (BoundedAtBudget, Escaping, NonEscapingProven,
                           Undetermined, _g17, _iterate)
from expdyn.parser import parse_map
from expdyn.strips import Family, strip_boundaries

from helpers import floats_refused, run_fresh, same_point

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))


def make_field(window, nx, ny, cells):
    """cells: list of (kind_char, step) in row-major order."""
    kinds = np.array([ord(k) for k, _ in cells], dtype=np.uint8)
    steps = np.array([s for _, s in cells], dtype=np.int64)
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)


HEADER = "i,j,re,im,class,step\n"
MARKS = r"bool array of shape \(4,\)"


def render_four(marks):
    field = make_field(Window(0, 4, 0, 1), 4, 1, [("B", -1)] * 4)
    render_ppm(field, io.BytesIO(), marks=marks)


@pytest.mark.parametrize("make, match", [
    (lambda: make_field(Window(0, 1, 0, 1), 0, 1, []), "at least 1x1"),
    (lambda: EscapeField(Window(0, 1, 0, 1), 2, 1,
                         np.zeros(1, dtype=np.uint8), np.zeros(2, dtype=np.int64)),
     "kinds array has wrong length"),
    (lambda: EscapeField(Window(0, 1, 0, 1), 2, 1,
                         np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.int64)),
     "steps array has wrong length"),
    # int64 codes, as np.array([ord("E"), ...]) gives: the CSV wrote each
    # code followed by seven NULs
    (lambda: EscapeField(Window(0, 2, 0, 1), 2, 1, np.array([69, 66]),
                         np.array([3, -1])), "kinds array must be uint8"),
    (lambda: EscapeField(Window(0, 2, 0, 1), 2, 1,
                         np.array([69, 66], dtype=np.uint16),
                         np.array([3, -1])), "kinds array must be uint8"),
    (lambda: EscapeField(Window(0, 2, 0, 1), 2, 1,
                         np.array([69, 66], dtype=np.uint8),
                         np.array([3.0, -1.0])), "signed integer"),
    (lambda: EscapeField(Window(0, 2, 0, 1), 2, 1,
                         np.array([69, 66], dtype=np.uint8),
                         np.array([3, 0], dtype=np.uint64)), "signed integer"),
    (lambda: classify_grid(F11, Window(-1, 1, -1, 1), 0, 4), "at least 1x1"),
    # an int mask was read as fancy indices: cells 0 and 1 went white
    (lambda: render_four(np.array([1, 0, 0, 0])), MARKS),
    (lambda: render_four(np.array([True, False, False])), MARKS),
    (lambda: render_four(np.ones((1, 4), dtype=bool)), MARKS),
    (lambda: render_four([True, False, False, True]), MARKS),
    (lambda: import_field_csv(io.StringIO(HEADER + "0,0,0.5,0.5,P\n")),
     "malformed CSV row"),
    # i and j are ASCII digits, as the export writes them; int alone read
    # each of these as 0, and 1_0 as 10
    *[(lambda row=row: import_field_csv(io.StringIO(HEADER + row)),
       "malformed CSV row")
      for row in ("\u0660,0,0.5,0.5,P,0\n", "+0,0,0.5,0.5,P,0\n",
                  " 0,0,0.5,0.5,P,0\n", "1_0,0,10.5,0.5,P,0\n")],
    # re and im are ASCII decimals of finite doubles, as the export writes
    # them; float read each of these, and with a window given nothing
    # else looked at them
    *[(lambda row=row: import_field_csv(io.StringIO(HEADER + row),
                                        Window(0, 1, 0, 1)),
       "malformed CSV row")
      for row in ("0,0,1_0,0.5,P,0\n", "0,0,0.5,\u0661,P,0\n",
                  "0,0, 0.5,0.5,P,0\n", "0,0,nan,0.5,P,0\n",
                  "0,0,0.5,1e999,P,0\n", "0,0,inf,0.5,P,0\n")],
    (lambda: import_field_csv(io.StringIO(HEADER)), "empty CSV"),
    (lambda: import_field_csv(io.StringIO(
        HEADER + "0,0,0.5,0.5,P,0\n0,1,0.5,-0.5,B,\n")),
     "cannot be inferred from a degenerate grid")],
    ids=["escape-field-size", "escape-field-kinds", "escape-field-steps",
         "escape-field-int64-kinds", "escape-field-uint16-kinds",
         "escape-field-float-steps", "escape-field-unsigned-steps",
         "classify-grid-nx", "ppm-int-marks", "ppm-short-marks",
         "ppm-2d-marks", "ppm-list-marks", "csv-malformed-row",
         "csv-arabic-index", "csv-plus-index", "csv-blank-index",
         "csv-underscore-index", "csv-underscore-re", "csv-arabic-im",
         "csv-blank-re", "csv-nan-re", "csv-overflow-im", "csv-inf-re",
         "csv-empty", "csv-degenerate-grid"])
def test_input_checks(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_csv_import_skips_blank_lines():
    text = HEADER + "\n0,0,0.5,0.5,P,0\n  \n0,1,0.5,-0.5,B,\n\n"
    field = import_field_csv(io.StringIO(text), Window(0, 1, -1, 1))
    assert (field.nx, field.ny) == (1, 2)
    assert field.cell(0, 0) == ("P", 0) and field.cell(0, 1) == ("B", None)


def test_arrays_read_only_in_copies():
    # the constructor stores read-only views of the arrays it is given, so
    # a copy or a pickle, which it rebuilds from writable arrays, is
    # read-only too; a view shares the caller's memory and flags
    kinds = np.array([ord("E"), ord("B")], dtype=np.uint8)
    steps = np.array([3, -1], dtype=np.int16)
    built = EscapeField(Window(0, 2, 0, 1), 2, 1, kinds, steps)
    assert np.shares_memory(built.kinds, kinds) and kinds.flags.writeable
    assert np.shares_memory(built.steps, steps) and steps.flags.writeable
    grid = classify_grid(F11, Window(-3, 3, -3, 3), 4, 4,
                         IterationConfig(max_iter=20))
    text = io.StringIO()
    export_field_csv(grid, text)
    text.seek(0)
    for field in (built, grid, import_field_csv(text)):
        for same in (field, copy.copy(field), copy.deepcopy(field),
                     pickle.loads(pickle.dumps(field))):
            assert same == field
            for cells in (same.kinds, same.steps):
                with pytest.raises(ValueError, match="read-only"):
                    cells[0] = 0


class TestWindow:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Window(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Window(0.0, 1.0, 2.0, 1.0)

    def test_rejects_non_finite(self):
        # an infinite bound would give NaN cell centers
        for bounds in ((-math.inf, 0, -1, 1), (0, 1, -1, math.inf),
                       (0, math.nan, -1, 1)):
            with pytest.raises(ValueError):
                Window(*bounds)

    def test_rejects_span_that_overflows(self):
        # finite bounds whose width or height is inf would put every cell
        # center at inf
        for bounds in ((-1e308, 1e308, -1, 1), (-1, 1, -1.5e308, 1e308)):
            with pytest.raises(ValueError, match="width and height"):
                Window(*bounds)
        assert Window(-8e307, 8e307, -1, 1).x_max == 8e307


def test_fields_compare_by_window_and_cells():
    # == compares the arrays whole: on more than one cell the field tuples
    # used to ask bool() of an array and raise ValueError
    window = Window(-30, 5, -20, 20)
    a = classify_grid(F11, window, 4, 4, IterationConfig(max_iter=50))
    b = classify_grid(F11, window, 4, 4, IterationConfig(max_iter=50))
    assert a == b and not a != b
    kinds, steps = a.kinds.copy(), a.steps.copy()
    kinds[5] = ord("U") if kinds[5] != ord("U") else ord("B")
    steps[5] += 1
    for other in (EscapeField(window, 4, 4, kinds, a.steps),
                  EscapeField(window, 4, 4, a.kinds, steps),
                  EscapeField(Window(-30, 5, -20, 21), 4, 4, a.kinds, a.steps),
                  EscapeField(window, 2, 8, a.kinds, a.steps)):
        assert a != other and not a == other
    with pytest.raises(TypeError):
        hash(a)


class TestClassifyGrid:
    def test_all_absorbed_window(self):
        field = classify_grid(F11, Window(0, 10, -5, 5), 50, 50,
                              IterationConfig(max_iter=50), workers=1)
        assert (field.kinds == ord("P")).all()
        assert (field.steps == 0).all()

    def test_single_cell_grid(self):
        field = classify_grid(F11, Window(4.5, 5.5, -0.5, 0.5), 1, 1,
                              IterationConfig(max_iter=10), workers=1)
        assert field.cell(0, 0) == ("P", 0)
        assert field.center(0, 0) == complex(5, 0)

    @pytest.mark.parametrize("max_iter, dtype", [
        (127, np.int8), (128, np.int16), (32767, np.int16),
        (32768, np.int32), (2 ** 31 - 1, np.int32), (2 ** 31, np.int64),
        (10 ** 30, np.int64)])
    def test_steps_in_smallest_signed_type(self, max_iter, dtype):
        # every step lies in [-1, max_iter]; past int64 the steps stay int64
        field = classify_grid(F11, Window(4.5, 5.5, -0.5, 0.5), 1, 1,
                              IterationConfig(max_iter=max_iter))
        assert field.steps.dtype == dtype
        assert field.cell(0, 0) == ("P", 0)

    def test_escaping_cells_exist(self):
        field = classify_grid(F11, Window(-30, 5, -20, 20), 120, 120,
                              IterationConfig(max_iter=300), workers=1)
        assert len(field.escaping_indices()) >= 1

    def test_worker_count_independence(self, monkeypatch):
        # workers is accepted and starts no process: the grid of nine
        # blocks is classified in this one
        cfg = IterationConfig(max_iter=120)
        w = Window(-30, 5, -20, 20)
        monkeypatch.setattr(fields, "_BLOCK", 100)
        one = classify_grid(F11, w, 37, 23, cfg, workers=1)

        def no_process(*args, **kwargs):
            raise AssertionError("classify_grid started a process")

        monkeypatch.setattr(multiprocessing, "Pool", no_process)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_process)
        two = classify_grid(F11, w, 37, 23, cfg, workers=2)
        assert two.cells_equal(one)

    def test_cell_centers(self):
        field = classify_grid(F11, Window(0, 4, 0, 2), 4, 2,
                              IterationConfig(max_iter=5), workers=1)
        assert field.center(0, 0) == complex(0.5, 1.5)
        assert field.center(3, 1) == complex(3.5, 0.5)

    @pytest.mark.parametrize("i, j", [(-1, 0), (4, 0), (0, 3), (0, -1),
                                      (4, 2), (-5, -1)])
    def test_cell_outside_the_grid_is_an_index_error(self, i, j):
        # (-1, 0) used to read the last cell, (4, 0) cell (0, 1), and
        # center(4, 0) gave 3.75+2i, outside the window
        field = make_field(Window(-3, 3, -3, 3), 4, 3,
                           [("P", 0)] * 11 + [("E", 2)])
        for read in (field.cell, field.center):
            with pytest.raises(IndexError,
                               match=rf"\({i}, {j}\).*\(4, 3\)"):
                read(i, j)
        assert field.cell(3, 2) == ("E", 2)
        assert field.center(3, 2) == complex(2.25, -2)

    def test_rejects_workers_below_one(self):
        # the count has no effect, but 0 or a negative count is still an
        # error, not a silent run
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                classify_grid(F11, Window(0, 1, 0, 1), 2, 2, workers=workers)

    def test_validation_propagates(self):
        with pytest.raises(InvalidMapError):
            classify_grid(FamilyF(complex(1, 0), complex(1, 0)),
                          Window(0, 1, 0, 1), 2, 2)

    def test_map_validated_once_per_grid(self, monkeypatch):
        calls = []

        def counting_validate(expr):
            calls.append(expr)
            validate(expr)

        for module in (fields, orbits):
            monkeypatch.setattr(module, "validate", counting_validate)
        classify_grid(F11, Window(-2, 2, -2, 2), 4, 4, workers=1)
        assert calls == [F11]

    def test_no_escaping_cell_with_nonnegative_real(self):
        # grid restatement of strip containment for family F
        field = classify_grid(F11, Window(-10, 10, -10, 10), 80, 80,
                              IterationConfig(max_iter=200), workers=1)
        for idx in field.escaping_indices():
            i, j = int(idx) % field.nx, int(idx) // field.nx
            assert field.center(i, j).real < 0


def scalar_grid(expr, window, nx, ny, cfg):
    """The grid cell by cell through the scalar _iterate: (kinds, steps,
    what the orbits reached), the oracle of the block engine."""
    ch = chart(expr)
    dx = (window.x_max - window.x_min) / nx
    dy = (window.y_max - window.y_min) / ny
    kinds, steps, reached = [], [], set()
    for j in range(ny):
        y = window.y_max - (j + 0.5) * dy
        for i in range(nx):
            x = window.x_min + (i + 0.5) * dx
            verdict, points, _ = _iterate(expr, complex(x, y), cfg, ch)
            if isinstance(verdict, (Escaping, NonEscapingProven)):
                code, step = ("E" if isinstance(verdict, Escaping) else "P",
                              verdict.step)
            else:
                code, step = ("B" if isinstance(verdict, BoundedAtBudget)
                              else "U"), -1
            kinds.append(ord(code))
            steps.append(step)
            reached.add(code)
            if isinstance(verdict, Undetermined):
                reached.add(verdict.reason)
            if any(isinstance(p, Directed) for p in points):
                reached.add("ladder")
    return (np.array(kinds, dtype=np.uint8), np.array(steps, dtype=np.int64),
            reached)


class TestBlockEngine:
    """classify_grid against the scalar loop, cell by cell."""

    # F and G deepen ladder points inside a composite; small, since every
    # bounded seed of this map spends its whole budget
    COMPOSITE = ("comp(F(-1, 1), G(-1, -1))", (-4, 4, -4, 4), (12, 12), 30,
                 {"B", "degenerate-phase", "ladder"})
    # one row per node kind: map, window, res, max_iter and what the
    # scalar orbits of the window must reach
    CASES = [
        ("F(-1, 1)", (-30, 5, -20, 20), (24, 24), 60, {"E", "P", "ladder"}),
        ("F(-1, 1)", (-30, 5, -20, 20), (24, 24), 2, {"E", "P", "B"}),
        ("G(-1, -1)", (-5, 30, -20, 20), (24, 24), 60,
         {"E", "P", "degenerate-phase", "ladder"}),
        ("exp(0.5+2i)", (-10, 10, -10, 10), (24, 24), 40,
         {"E", "B", "degenerate-phase", "ladder"}),
        ("iter(exp(1), 2)", (-3, 3, -3, 3), (24, 24), 30,
         {"E", "B", "degenerate-phase", "ladder"}),
        ("shift(exp(1), 1)", (-3, 3, -3, 3), (24, 24), 30,
         {"E", "degenerate-phase", "ladder"}),
        ("shift(F(-1, 1), 0.5)", (-30, 5, -20, 20), (24, 24), 60,
         {"E", "P", "ladder"}),
        ("comp(exp(1), iter(exp(1), 1))", (-2, 2, -2, 2), (24, 24), 30,
         {"E", "B", "degenerate-phase", "ladder"}),
        ("conj(3+1i, -1, G(-1, -1))", (-30, 30, -30, 30), (24, 24), 60,
         {"E", "P", "degenerate-phase", "ladder"}),
        # a*v + b overflows on a finite v: v moves onto the ladder
        ("conj(1e5+1e5i, 0, exp(1))", (6.9e7, 7.1e7, 6.9e7, 7.1e7), (12, 12),
         20, {"E", "degenerate-phase", "ladder"}),
        # |z| passes DBL_MAX with finite parts on the first step
        ("conj(2e4, 0, exp(1))", (13999790, 13999810, 47120, 47130), (4, 4),
         5, {"B"}),
        # the exponent's imaginary part overflows on the row y = 0
        ("exp(0+1e300i)", (-1e9, 1e9, -1, 1), (12, 11), 20,
         {"nan", "degenerate-phase", "ladder"}),
        COMPOSITE,
        # lam*z passes the rung on the first step; the next deepens the
        # ladder point back below it
        ("exp(1e-305)", (7.0e307, 7.1e307, -1, 1), (16, 16), 20,
         {"E", "B", "ladder"}),
    ]

    @pytest.mark.parametrize("text, window, res, max_iter, reach", CASES)
    def test_cells_match_scalar_loop(self, text, window, res, max_iter, reach):
        expr, window = parse_map(text), Window(*window)
        cfg = IterationConfig(max_iter=max_iter)
        kinds, steps, reached = scalar_grid(expr, window, *res, cfg)
        assert reach <= reached
        field = classify_grid(expr, window, *res, cfg, workers=1)
        assert np.array_equal(field.kinds, kinds)
        assert np.array_equal(field.steps, steps)

    @pytest.mark.parametrize("case", [COMPOSITE, CASES[3]],
                             ids=["composite", "exp"])
    def test_exponential_ladder_moves_on_arrays(self, case, monkeypatch):
        # an F, G or exp(lam) node collapses and deepens its ladder points
        # on arrays; it flags degenerate only ladder points whose phase is
        # degenerate, and gives the finite points whose exponent is not
        # finite evaluate's bits (Directed, 0 or NaN)
        ladder = blocks._ARRAYS.ladder
        deepened = []

        def checking(re, im, d, m, p, q, out):
            out = ladder(re, im, d, m, p, q, out)
            degenerate = out[3]
            deepened.append(np.count_nonzero(d & out[2]))
            # the node: F and G have Re p < 0, exp(lam) has p = q = 0
            node = maps.ScaledExp(m) if p == 0 else \
                (maps.FamilyF if m == -1 else maps.FamilyG)(p, q)
            assert not (degenerate & ~d).any()
            for k in np.flatnonzero(degenerate).tolist():
                with pytest.raises(DegeneratePhaseError):
                    maps.evaluate(node, Directed(float(re[k]), float(im[k])))
            wr = m.real * re - m.imag * im + p.real
            wi = m.real * im + m.imag * re + p.imag
            for k in np.flatnonzero(~d & ~(np.isfinite(wr) & np.isfinite(wi))
                                    ).tolist():
                want = maps.evaluate(node, complex(re[k], im[k]))
                got = Directed(out[0][k], out[1][k]) if out[2][k] else \
                    complex(out[0][k], out[1][k])
                assert same_point(got, want), (re[k], im[k], got, want)
            return out

        monkeypatch.setattr(blocks._ARRAYS, "ladder", checking)
        text, window, res, max_iter, _ = case
        classify_grid(parse_map(text), Window(*window), *res,
                      IterationConfig(max_iter=max_iter), workers=1)
        assert sum(deepened) > 0

    def test_deepening_to_the_rung_stays_on_arrays(self):
        # the exp(1e-305) window deepens ladder points to the rung and
        # below; _Engine.exp makes each a finite point, so no point of
        # the grid is stepped by the scalar evaluate
        text, window, res, max_iter, _ = self.CASES[-1]
        with floats_refused():
            classify_grid(parse_map(text), Window(*window), *res,
                          IterationConfig(max_iter=max_iter), workers=1)

    @pytest.mark.parametrize("text, window, res, max_iter", [
        ("F(-1, 1)", (-30, 5, -20, 20), (128, 128), 250),
        ("conj(2, 1, F(-1, 1))", (-19, 5, -16, 16), (80, 80), 60)],
        ids=["render-shallow", "render-deep"])
    def test_degenerate_phases_stay_on_arrays(self, text, window, res,
                                               max_iter):
        # the render windows' degenerate phases are decided on arrays: no
        # point is stepped by the scalar evaluate, and the scalar loop
        # ends some of the grid's U cells with a degenerate phase
        expr, window = parse_map(text), Window(*window)
        cfg = IterationConfig(max_iter=max_iter)
        with floats_refused():
            field = classify_grid(expr, window, *res, cfg, workers=1)
        nx = res[0]
        reasons = {_iterate(expr, field.center(k % nx, k // nx), cfg,
                            chart(expr))[0]
                   for k in np.flatnonzero(field.kinds == ord("U")).tolist()}
        assert Undetermined("degenerate-phase") in reasons

    def test_overflow_seed_window(self):
        # the cells of this window sit next to 13999800+47123.88980384689i,
        # whose first image has |z| past DBL_MAX
        field = classify_grid(parse_map("conj(2e4, 0, exp(1))"),
                              Window(13999799, 13999801, 47122.88980384689,
                                     47124.88980384689), 1, 1,
                              IterationConfig(max_iter=5), workers=1)
        assert field.center(0, 0) == complex(13999800, 47123.88980384689)
        assert field.cell(0, 0) == ("B", None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_ending_mid_row(self, workers):
        # 97 x 61 cells: the first block ends 22 cells into row 42
        nx, ny = 97, 61
        assert fields._BLOCK < nx * ny and fields._BLOCK % nx
        cfg = IterationConfig(max_iter=60)
        window = Window(-19, 5, -16, 16)
        expr = parse_map("conj(2, 1, F(-1, 1))")
        kinds, steps, _ = scalar_grid(expr, window, nx, ny, cfg)
        field = classify_grid(expr, window, nx, ny, cfg, workers=workers)
        assert np.array_equal(field.kinds, kinds)
        assert np.array_equal(field.steps, steps)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_size_does_not_move_a_cell(self, monkeypatch, workers):
        cfg = IterationConfig(max_iter=100)
        window = Window(-30, 5, -20, 20)
        whole = classify_grid(F11, window, 37, 23, cfg, workers=1)
        monkeypatch.setattr(fields, "_BLOCK", 100)
        blocks = classify_grid(F11, window, 37, 23, cfg, workers=workers)
        assert blocks.cells_equal(whole)


class TestRenderPpm:
    def test_golden_two_by_one(self):
        field = make_field(Window(0, 2, 0, 1), 2, 1, [("E", 0), ("P", 3)])
        out = io.BytesIO()
        render_ppm(field, out)
        assert out.getvalue() == b"P6\n2 1\n255\n\x08\x00\x40\x00\x00\x00"

    def test_all_bounded_single_cell(self):
        field = make_field(Window(0, 1, 0, 1), 1, 1, [("B", -1)])
        out = io.BytesIO()
        render_ppm(field, out)
        data = out.getvalue()
        assert len(data) == 14
        assert data == b"P6\n1 1\n255\n\x00\x30\x00"

    def test_file_size_500(self):
        cells = [("B", -1)] * (500 * 500)
        field = make_field(Window(0, 1, 0, 1), 500, 500, cells)
        out = io.BytesIO()
        render_ppm(field, out)
        assert len(out.getvalue()) == 15 + 750000

    def test_escape_ramp_clamps(self):
        field = make_field(Window(0, 1, 0, 1), 2, 1, [("E", 100), ("U", -1)])
        out = io.BytesIO()
        render_ppm(field, out)
        body = out.getvalue()[11:]
        assert body == bytes([255, 0, 64, 128, 128, 128])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32,
                                       np.int64])
    def test_escape_ramp_in_every_step_type(self, dtype):
        # the ramp is taken on widened steps: in the step's own type an
        # int8 raised OverflowError, an int16 10000 painted 72 and an
        # int64 2**62 painted 8
        top = int(np.iinfo(dtype).max)
        ns = [n for n in (0, 61, 62, 63, 10000) if n <= top] + [top]
        field = EscapeField(Window(0, 1, 0, 1), len(ns), 1,
                            np.full(len(ns), ord("E"), dtype=np.uint8),
                            np.array(ns, dtype=dtype))
        out = io.BytesIO()
        render_ppm(field, out)
        body = out.getvalue()[len(f"P6\n{len(ns)} 1\n255\n"):]
        assert body == b"".join(bytes((min(255, 8 + 4 * n), 0, 64))
                                for n in ns)

    def test_marks_render_white(self):
        # dy = pi/2, so 3pi/2 is the bottom edge of row 0 and pi/2 the
        # bottom edge of row 2; half-open spans mark exactly those rows
        field = make_field(Window(-1, 1, 0, 2 * math.pi), 1, 4,
                           [("B", -1)] * 4)
        marks = overlay_strips(field, Family.F, complex(-1, 0))
        out = io.BytesIO()
        render_ppm(field, out, marks=marks)
        body = out.getvalue()[len(b"P6\n1 4\n255\n"):]
        rows = [body[3 * k:3 * k + 3] for k in range(4)]
        assert rows[0] == b"\xff\xff\xff"
        assert rows[2] == b"\xff\xff\xff"
        assert rows[1] == rows[3] == b"\x00\x30\x00"


class _Sink:
    """A writer that keeps only the length of what it is given."""

    size = 0

    def write(self, data):
        self.size += len(data)


@pytest.mark.parametrize("write, min_size", [
    (render_ppm, len(b"P6\n1024 1024\n255\n") + (3 << 20)),
    (export_field_csv, 40 << 20)], ids=["ppm", "csv"])
def test_writer_holds_one_block(write, min_size):
    # a render holds the field and one block: on 1024x1024 cells the
    # writer's own peak stays under 1 MiB (the whole image was 3 MiB,
    # copied once more to bytes), so a writer that builds the whole image
    # or text again fails here
    n = 1024
    k = np.arange(n * n)
    kinds = np.frombuffer(b"EPBU", dtype=np.uint8)[k % 7 % 4]
    steps = np.where((kinds == ord("E")) | (kinds == ord("P")), k % 997, -1)
    field = EscapeField(Window(-30.1, 5.3, -20.7, 20.9), n, n, kinds, steps)
    out = _Sink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write(field, out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.size >= min_size
    assert peak < 1 << 20


def test_grid_holds_three_bytes_per_cell():
    # at max_iter 250 a step fits in an int16: classify_grid's traced peak
    # on 1024x1024 cells stays under 3 bytes per cell (a uint8 kind and an
    # int16 step) plus 1 MiB for one block; int64 steps made it 9 bytes
    n = 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = classify_grid(F11, Window(-30, 5, -20, 20), n, n,
                              IterationConfig(max_iter=250))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert field.steps.dtype == np.int16
    assert peak < 3 * n * n + (1 << 20)


class TestOverlay:
    def test_boundary_rows_marked(self):
        field = make_field(Window(-5, 5, 0, 2 * math.pi), 1, 628,
                           [("B", -1)] * 628)
        marks = overlay_strips(field, Family.F, complex(-1, 0))
        marked_rows = {j for j in range(628) if marks[j]}
        # independent check: direct interval membership per row
        expected = set()
        for j in range(628):
            hi = field.window.y_max - j * field.dy
            lo = hi - field.dy
            for b in (math.pi / 2, 3 * math.pi / 2):
                if lo <= b < hi:
                    expected.add(j)
        assert len(expected) == 2
        assert marked_rows == expected

    def test_window_inside_strip_has_no_marks(self):
        field = make_field(Window(-5, 5, 1.8, 4.5), 2, 10, [("B", -1)] * 20)
        marks = overlay_strips(field, Family.F, complex(-1, 0))
        assert not marks.any()

    def test_family_g_marks(self):
        field = make_field(Window(-5, 5, -2, 2), 1, 100, [("B", -1)] * 100)
        marks = overlay_strips(field, Family.G, complex(-1, 0))
        ys = [field.window.y_max - (j + 0.5) * field.dy
              for j in range(100) if marks[j]]
        assert len(ys) == 2
        assert any(abs(y - math.pi / 2) < 0.05 for y in ys)
        assert any(abs(y + math.pi / 2) < 0.05 for y in ys)

    def test_classifications_untouched(self):
        field = make_field(Window(-1, 1, -4, 4), 2, 4,
                           [("E", 1)] * 8)
        kinds, steps = field.kinds.copy(), field.steps.copy()
        marks = overlay_strips(field, Family.F, complex(-1, 0))
        assert np.array_equal(field.kinds, kinds)
        assert np.array_equal(field.steps, steps)
        assert marks.dtype == bool and marks.shape == (8,)
        assert not marks.flags.writeable

    @pytest.mark.parametrize("family, param", [(Family.F, complex(-1, 0.3)),
                                               (Family.G, complex(-1, -1.2))])
    def test_rows_match_listing_every_boundary(self, family, param):
        # each row [lo, hi) is marked iff a listed boundary lies below hi;
        # rows start and end exactly on boundaries, or an ulp away
        rng = np.random.default_rng(25)
        bounds = strip_boundaries(-60.0, 60.0, family, param)
        rows = []
        for _ in range(3000):
            b = float(rng.choice(bounds))
            h = float(rng.uniform(0.0, 0.5 * abs(b)))  # hi - b exact
            lo = float(rng.uniform(-60.0, 60.0))
            rows += [(lo, lo + float(rng.uniform(0.0, 8.0))), (b - h, b),
                     (b, b + h), (np.nextafter(b, -np.inf), b + h),
                     (b - h, np.nextafter(b, np.inf))]
        starts = 0
        for lo, hi in rows:
            field = make_field(Window(-1, 1, lo, hi), 1, 1, [("B", -1)])
            lo = hi - field.dy  # the row's span, as overlay_strips takes it
            starts += lo in bounds
            want = any(b < hi for b in strip_boundaries(lo, hi, family, param))
            assert overlay_strips(field, family, param)[0] == want, (lo, hi)
        assert starts >= 3000
        # and row by row over windows of many rows
        for _ in range(200):
            y_min = float(rng.uniform(-60.0, 50.0))
            y_max = float(rng.choice([y_min + rng.uniform(0.1, 20.0),
                                      rng.choice(bounds)]))
            if y_max <= y_min:
                continue
            ny = int(rng.integers(1, 60))
            field = make_field(Window(-1, 1, y_min, y_max), 1, ny,
                               [("B", -1)] * ny)
            marks = overlay_strips(field, family, param)
            for j in range(ny):
                hi = y_max - j * field.dy
                want = any(b < hi for b in strip_boundaries(
                    hi - field.dy, hi, family, param))
                assert marks[j] == want, (y_min, y_max, ny, j)

    def test_tall_window_marks_every_row(self):
        # 1.6e11 boundaries per row; listing them ran out of memory, so
        # the child runs under an address-space limit and fails fast
        code, out, err = run_fresh("-c", (
            "import os, resource\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from expdyn.fields import EscapeField, Window, overlay_strips\n"
            "from expdyn.strips import Family\n"
            "field = EscapeField(Window(-30, 5, -1e12, 1e12), 4, 4,\n"
            "                    np.full(16, 66, dtype=np.uint8),\n"
            "                    np.full(16, -1))\n"
            "print(overlay_strips(field, Family.F, 1j - 1).all())\n"))
        assert (code, out) == (0, "True\n"), err


class TestFieldCsv:
    def test_single_absorbed_row(self):
        field = classify_grid(F11, Window(4.5, 5.5, -0.5, 0.5), 1, 1,
                              IterationConfig(max_iter=5), workers=1)
        out = io.StringIO()
        export_field_csv(field, out)
        assert out.getvalue() == "i,j,re,im,class,step\n0,0,5,0,P,0\n"

    def test_round_trip_cells(self):
        field = classify_grid(F11, Window(-12, 4, -7, 7), 50, 50,
                              IterationConfig(max_iter=200), workers=1)
        out = io.StringIO()
        export_field_csv(field, out)
        back = import_field_csv(io.StringIO(out.getvalue()))
        assert back.cells_equal(field)

    def test_round_trip_byte_exact_with_window(self):
        field = classify_grid(F11, Window(-12, 4, -7, 7), 20, 20,
                              IterationConfig(max_iter=100), workers=1)
        out = io.StringIO()
        export_field_csv(field, out)
        back = import_field_csv(io.StringIO(out.getvalue()),
                                window=field.window)
        out2 = io.StringIO()
        export_field_csv(back, out2)
        assert out2.getvalue() == out.getvalue()

    def test_escaping_row_has_step(self):
        field = make_field(Window(0, 1, 0, 1), 1, 1, [("E", 12)])
        out = io.StringIO()
        export_field_csv(field, out)
        assert out.getvalue().splitlines()[1].endswith(",E,12")

    def test_budget_row_has_empty_step(self):
        field = make_field(Window(0, 1, 0, 1), 1, 1, [("B", -1)])
        out = io.StringIO()
        export_field_csv(field, out)
        assert out.getvalue().splitlines()[1].endswith(",B,")

    def test_large_step_is_formatted_alone(self):
        # the cost follows the cells, not the largest step: no table of
        # every step up to 10**6
        field = make_field(Window(0, 1, 0, 1), 1, 1, [("E", 10 ** 6)])
        out = io.StringIO()
        tracemalloc.start()
        try:
            export_field_csv(field, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue() == "i,j,re,im,class,step\n0,0,0.5,0.5,E,1000000\n"
        assert peak < 1 << 20

    def test_matches_cell_by_cell_formatter(self, monkeypatch):
        def per_cell(field):
            lines = ["i,j,re,im,class,step\n"]
            for j in range(field.ny):
                y = field.window.y_max - (j + 0.5) * field.dy
                for i in range(field.nx):
                    x = field.window.x_min + (i + 0.5) * field.dx
                    k, step = field.cell(i, j)
                    step_txt = "" if step is None else str(step)
                    lines.append(f"{i},{j},{_g17(x)},{_g17(y)},{k},{step_txt}\n")
            return "".join(lines)

        grid = classify_grid(F11, Window(-30, 5, -20, 20), 37, 23,
                             IterationConfig(max_iter=100), workers=1)
        small = classify_grid(G11, Window(-0.1, 1e-3, -7e5, 3.3), 5, 3,
                              IterationConfig(max_iter=3), workers=1)
        # steps of 1 to 7 digits next to cells without one
        digits = make_field(Window(0, 1, 0, 1), 4, 3, [
            ("E", 0), ("P", 7), ("E", 42), ("P", 123), ("E", 1234),
            ("P", 12345), ("E", 123456), ("P", 1234567), ("E", 9999999),
            ("B", -1), ("U", -1), ("B", -1)])
        # centers whose text is in exponent notation
        tiny_huge = make_field(Window(-3e-7, 5e-7, 1e22, 4.5e22), 3, 2,
                               [("B", -1), ("E", 3), ("P", 0)] * 2)
        # (cells per block, field): nx > 16 puts one row in each block;
        # 37 does not divide 100: blocks of two rows, and the last of one
        for block, field in ((fields._BLOCK, grid), (fields._BLOCK, small),
                             (16, grid), (100, grid), (4, digits),
                             (fields._BLOCK, tiny_huge)):
            monkeypatch.setattr(fields, "_BLOCK", block)
            out = io.StringIO()
            export_field_csv(field, out)
            assert out.getvalue() == per_cell(field)

    @pytest.mark.parametrize("block", [4, 16, 100, None])
    @pytest.mark.parametrize("marked", [False, True])
    def test_ppm_matches_cell_by_cell_palette(self, monkeypatch, block,
                                              marked):
        def per_cell(field, marks):
            palette = {"P": (0, 0, 0), "B": (0, 48, 0), "U": (128, 128, 128)}
            body = bytearray()
            for j in range(field.ny):
                for i in range(field.nx):
                    k, step = field.cell(i, j)
                    if marks is not None and marks[j * field.nx + i]:
                        body += bytes((255, 255, 255))
                    elif k == "E":
                        body += bytes((min(255, 8 + 4 * step), 0, 64))
                    else:
                        body += bytes(palette[k])
            return f"P6\n{field.nx} {field.ny}\n255\n".encode() + bytes(body)

        # 37 x 23 cells: blocks of 4 and 16 cells hold one row, shorter
        # than it; 100 cells end mid-row, so a block is two rows and the
        # last one; None keeps the whole grid in one block
        field = classify_grid(F11, Window(-30, 5, -20, 20), 37, 23,
                              IterationConfig(max_iter=100), workers=1)
        assert {chr(c) for c in field.kinds.tolist()} == {"E", "P", "U"}
        marks = None
        if marked:
            marks = overlay_strips(field, Family.F, complex(-1, 0)) | \
                (np.arange(37 * 23) % 5 == 0)
        if block is not None:
            monkeypatch.setattr(fields, "_BLOCK", block)
        out = io.BytesIO()
        render_ppm(field, out, marks=marks)
        assert out.getvalue() == per_cell(field, marks)

    def test_render_shallow_bytes_pinned(self):
        # the render-shallow benchmark's grid: CSV and PPM bytes are pinned
        # as digests taken with the per-cell formatter and the math engine
        field = classify_grid(F11, Window(-30, 5, -20, 20), 512, 512,
                              IterationConfig(max_iter=250))
        out = io.StringIO()
        export_field_csv(field, out)
        ppm = io.BytesIO()
        render_ppm(field, ppm)
        assert hashlib.sha256(out.getvalue().encode("ascii")).hexdigest() == \
            "3ec5cc30b7dcd07b9d7db1df97075a108a6c585b1f63c49a5dc9e1d07ea13a8d"
        assert hashlib.sha256(ppm.getvalue()).hexdigest() == \
            "7b43843dfd9232c119865322d63b9c5b98c66006416f769135cd67eb80463474"

    def test_render_deep_bytes_pinned(self):
        # the render-deep benchmark's grid, whose orbits cross the ladder
        # of a conjugated F
        field = classify_grid(parse_map("conj(2, 1, F(-1, 1))"),
                              Window(-19, 5, -16, 16), 160, 160,
                              IterationConfig(max_iter=60))
        ppm = io.BytesIO()
        render_ppm(field, ppm)
        assert hashlib.sha256(ppm.getvalue()).hexdigest() == \
            "c0f2738e0f3cc53e61dc2618bbb5c06821bc00d282dc33481981827607b54467"

    def test_import_rejects_partial_grid(self):
        text = "i,j,re,im,class,step\n0,0,0.5,0.5,B,\n2,0,2.5,0.5,B,\n"
        with pytest.raises(ValueError):
            import_field_csv(io.StringIO(text))

    def test_import_rejects_repeated_cell(self):
        # right row count, but (0, 1) twice and (1, 1) missing
        text = ("i,j,re,im,class,step\n0,0,0.5,1.5,B,\n1,0,1.5,1.5,B,\n"
                "0,1,0.5,0.5,B,\n0,1,0.5,0.5,B,\n")
        with pytest.raises(ValueError, match="repeated or out of range"):
            import_field_csv(io.StringIO(text))

    def test_import_rejects_negative_index(self):
        text = ("i,j,re,im,class,step\n0,0,0.5,1.5,B,\n-1,0,1.5,1.5,B,\n"
                "0,1,0.5,0.5,B,\n1,1,1.5,0.5,B,\n")
        with pytest.raises(ValueError, match="repeated or out of range"):
            import_field_csv(io.StringIO(text))

    def test_import_rejects_class_that_is_not_one_letter(self):
        for kind in ("", "EP"):
            text = f"i,j,re,im,class,step\n0,0,0.5,0.5,{kind},\n"
            with pytest.raises(ValueError, match="unknown cell class"):
                import_field_csv(io.StringIO(text))

    # the export writes a step exactly for E and P, as a non-negative
    # integer; a row that breaks this rule is not one of its rows
    def test_import_rejects_step_on_budget_cell(self):
        for row in ("B,7", "U,0", "B,-1"):
            text = f"i,j,re,im,class,step\n0,0,0.5,0.5,{row}\n"
            with pytest.raises(ValueError, match="does not fit class"):
                import_field_csv(io.StringIO(text))

    def test_import_rejects_missing_step(self):
        for row in ("E,", "P,"):
            text = f"i,j,re,im,class,step\n0,0,0.5,0.5,{row}\n"
            with pytest.raises(ValueError, match="does not fit class"):
                import_field_csv(io.StringIO(text))

    def test_import_rejects_negative_step(self):
        # E,-9 would render red 228: 8 + 4*(-9) wraps in uint8; the export
        # writes a step in ASCII digits that fits int64, and nothing else
        for row in ("E,-9", "P,-1", "E,+3", "E,1.5",
                    "E,99999999999999999999", "E,\u0663"):
            text = f"i,j,re,im,class,step\n0,0,0.5,0.5,{row}\n"
            with pytest.raises(ValueError, match="does not fit class"):
                import_field_csv(io.StringIO(text))

    def test_import_rejects_bad_header(self):
        with pytest.raises(ValueError):
            import_field_csv(io.StringIO("a,b,c\n"))
