import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from expdyn import cli
from expdyn.fields import Window
from expdyn.sampling import SampleSet, splitmix64


class TestSplitmix64:
    def test_known_stream(self):
        # scalar reference values for seed 42
        state = 42
        outs = []
        for _ in range(3):
            state, v = splitmix64(state)
            outs.append(v)
        assert outs == [13679457532755275413, 2949826092126892291,
                        5139283748462763858]

    def test_vectorized_stream_matches_scalar(self):
        window = Window(0.0, 1.0, 0.0, 1.0)
        ss = SampleSet.generate(987654321, 500, window)
        state = 987654321
        for k in range(500):
            state, vx = splitmix64(state)
            state, vy = splitmix64(state)
            x = (vx >> 11) * 2.0 ** -53
            y = (vy >> 11) * 2.0 ** -53
            assert ss.points[k] == complex(x, y)


class TestSampleSet:
    def test_deterministic(self):
        w = Window(-3, 3, -2, 2)
        a = SampleSet.generate(7, 1000, w)
        b = SampleSet.generate(7, 1000, w)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_stream(self):
        w = Window(-3, 3, -2, 2)
        a = SampleSet.generate(7, 100, w)
        b = SampleSet.generate(8, 100, w)
        assert not np.array_equal(a.points, b.points)

    def test_points_inside_window(self):
        w = Window(-3, 3, -2, 2)
        pts = SampleSet.generate(11, 10000, w).points
        assert (pts.real >= -3).all() and (pts.real < 3).all()
        assert (pts.imag >= -2).all() and (pts.imag < 2).all()

    def test_count_and_fields(self):
        w = Window(0, 1, 0, 1)
        ss = SampleSet.generate(5, 17, w)
        assert ss.count == 17 and ss.seed == 5 and ss.window == w
        assert len(ss.points) == 17

    def test_equality_reads_the_points(self):
        # (seed, count, window) fix the points only for generate, so sets
        # built by hand with other points differ; their hashes may agree
        w = Window(0, 1, 0, 1)
        a = SampleSet(0, 1, w, np.array([0.25 + 0.25j]))
        b = SampleSet(0, 1, w, np.array([0.75 + 0.75j]))
        assert a != b and not a == b and hash(a) == hash(b)
        drawn = SampleSet.generate(0, 1, w)
        assert a != drawn and drawn == SampleSet(0, 1, w, drawn.points.copy())

    def test_points_immutable(self):
        # a copy or a pickle is rebuilt through the constructor, which
        # stores a read-only view: read-only too
        ss = SampleSet.generate(5, 4, Window(0, 1, 0, 1))
        for same in (ss, copy.copy(ss), copy.deepcopy(ss),
                     pickle.loads(pickle.dumps(ss))):
            assert same == ss and (same.points == ss.points).all()
            with pytest.raises(ValueError, match="read-only"):
                same.points[0] = 0
        pts = np.array([0.5 + 0.5j])
        built = SampleSet(1, 1, Window(0, 1, 0, 1), pts)
        assert np.shares_memory(built.points, pts) and pts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            built.points[0] = 0

    @pytest.mark.parametrize("make", [
        lambda: SampleSet.generate(1, -1, Window(0, 1, 0, 1)),
        lambda: SampleSet(1, 2, Window(0, 1, 0, 1), np.array([0.5 + 0.5j])),
        lambda: SampleSet(1, 1, Window(0, 1, 0, 1), np.array([-50 + 0j])),
        lambda: SampleSet(1, 1, Window(0, 1, 0, 1), np.array([0.5 + 1.5j])),
        lambda: SampleSet(1, 1, Window(0, 1, 0, 1),
                          np.array([complex(math.nan, 0.5)])),
        lambda: SampleSet(1, 1, Window(0, 1, 0, 1),
                          np.array([complex(0.5, math.inf)]))],
        ids=["negative-count", "count", "left", "above", "nan", "inf"])
    def test_input_checks(self, make):
        with pytest.raises(ValueError):
            make()

    def test_closed_window_holds_its_edges(self):
        pts = np.array([0j, 1 + 1j, 0.5 + 1j])
        assert SampleSet(1, 3, Window(0, 1, 0, 1), pts).count == 3

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
           st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
           st.integers(0, 2 ** 64 - 1))
    def test_generate_constructs_on_random_windows(self, x0, x1, y0, y1, seed):
        (x0, x1), (y0, y1) = sorted((x0, x1)), sorted((y0, y1))
        assume(x0 < x1 and y0 < y1)
        assume(math.isfinite(x1 - x0) and math.isfinite(y1 - y0))
        assert SampleSet.generate(seed, 200, Window(x0, x1, y0, y1)).count == 200

    def test_generate_constructs_on_cli_default_windows(self):
        for suite in cli._SUITES.values():
            windows = suite.window.values() if isinstance(suite.window, dict) \
                else [suite.window]
            for w in windows:
                assert SampleSet.generate(1, 10000, w).count == 10000
