import hashlib
import io
import math
import multiprocessing
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
from expdyn.maps import (Directed, FamilyF, FamilyG, InvalidMapError,
                         IterationConfig, validate)
from expdyn.orbits import (BoundedAtBudget, Escaping, NonEscapingProven,
                           Undetermined, _chart_tests, _g17, _iterate)
from expdyn.parser import parse_map
from expdyn.strips import Family

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))


def make_field(window, nx, ny, cells):
    """cells: list of (kind_char, step) in row-major order."""
    kinds = np.array([ord(k) for k, _ in cells], dtype=np.uint8)
    steps = np.array([s for _, s in cells], dtype=np.int64)
    return EscapeField(window=window, nx=nx, ny=ny, kinds=kinds, steps=steps)


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
    tests = _chart_tests(expr)
    dx = (window.x_max - window.x_min) / nx
    dy = (window.y_max - window.y_min) / ny
    kinds, steps, reached = [], [], set()
    for j in range(ny):
        y = window.y_max - (j + 0.5) * dy
        for i in range(nx):
            x = window.x_min + (i + 0.5) * dx
            verdict, points, _ = _iterate(expr, complex(x, y), cfg, True, tests)
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
        # on arrays; it hands evaluate only the ladder points whose phase
        # is degenerate and the finite points whose exponent is not finite
        step_each = blocks._evaluate_each
        deepened = []

        def checking(expr, re, im, d, where, out, cfg):
            sign = getattr(expr, "sign", None)
            if sign is None and not isinstance(expr, maps.ScaledExp):
                return step_each(expr, re, im, d, where, out, cfg)
            deepened.append(np.count_nonzero(d & out[2]))
            out = step_each(expr, re, im, d, where, out, cfg)
            assert out[3][where & d].all()
            m, p = (sign, expr.param) if sign is not None else (expr.lam, 0j)
            wr = m.real * re - m.imag * im + p.real
            wi = m.real * im + m.imag * re + p.imag
            assert not (np.isfinite(wr) & np.isfinite(wi))[where & ~d].any()
            return out

        monkeypatch.setattr(blocks, "_evaluate_each", checking)
        text, window, res, max_iter, _ = case
        classify_grid(parse_map(text), Window(*window), *res,
                      IterationConfig(max_iter=max_iter), workers=1)
        assert sum(deepened) > 0

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
        # E,-9 would render red 228: 8 + 4*(-9) wraps in uint8
        for row in ("E,-9", "P,-1", "E,+3", "E,1.5"):
            text = f"i,j,re,im,class,step\n0,0,0.5,0.5,{row}\n"
            with pytest.raises(ValueError, match="does not fit class"):
                import_field_csv(io.StringIO(text))

    def test_import_rejects_bad_header(self):
        with pytest.raises(ValueError):
            import_field_csv(io.StringIO("a,b,c\n"))
