import math

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

    def test_points_immutable(self):
        ss = SampleSet.generate(5, 4, Window(0, 1, 0, 1))
        try:
            ss.points[0] = 0
            raised = False
        except ValueError:
            raised = True
        assert raised

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
