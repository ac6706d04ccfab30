import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expdyn.fields import EscapeField, Window
from expdyn.maps import FamilyF, FamilyG
from expdyn.orbits import KIND_ESCAPING, KIND_PROVEN
from expdyn.parser import format_complex
from expdyn.sampling import SampleSet
from expdyn.strips import (Family, StripId, strip_boundaries, strip_of,
                           strip_test)
from expdyn.verify import verify_strip_containment

PI = math.pi


class TestStripOf:
    def test_principal_strip(self):
        assert strip_of(complex(-2, PI), Family.F, complex(-1, 0)) == \
            StripId(1, Family.F)

    def test_real_axis_excluded(self):
        assert strip_of(complex(-2, 0), Family.F, complex(-1, 0)) is None

    def test_translate_by_two_pi(self):
        assert strip_of(complex(-2, 3 * PI), Family.F, complex(-1, 0)) == \
            StripId(2, Family.F)

    def test_family_g_zero_strip(self):
        assert strip_of(complex(2, 0), Family.G, complex(-1, 0)) == \
            StripId(0, Family.G)

    def test_wrong_half_plane(self):
        assert strip_of(complex(2, PI), Family.F, complex(-1, 0)) is None
        assert strip_of(complex(-2, 0), Family.G, complex(-1, 0)) is None

    def test_boundary_belongs_to_no_strip(self):
        assert strip_of(complex(-1, PI / 2), Family.F, complex(-1, 0)) is None
        assert strip_of(complex(1, PI / 2), Family.G, complex(-1, 0)) is None

    def test_imaginary_offset_shifts_strips(self):
        lam = complex(-1, 0.75)
        # y - Im lam = pi sits inside strip 1
        assert strip_of(complex(-3, PI + 0.75), Family.F, lam) == \
            StripId(1, Family.F)
        assert strip_of(complex(-3, PI), Family.F, lam) == StripId(1, Family.F)

    def test_sign_test_agreement_bulk(self):
        # cross-check against the cosine characterization on 10^6 points
        pts = SampleSet.generate(2024, 1_000_000,
                                 Window(-50, 50, -50, 50)).points
        lam = complex(-2, 0.3)
        mu = complex(-1, -1.2)
        x = pts.real
        y = pts.imag
        expect_f = (x < 0) & (np.cos(y - lam.imag) < 0)
        expect_g = (x > 0) & (np.cos(y + mu.imag) > 0)
        got_f = np.fromiter(
            (strip_of(complex(a, b), Family.F, lam) is not None
             for a, b in zip(x, y)), dtype=bool, count=len(x))
        assert np.array_equal(got_f, expect_f)
        got_g = np.fromiter(
            (strip_of(complex(a, b), Family.G, mu) is not None
             for a, b in zip(x, y)), dtype=bool, count=len(x))
        assert np.array_equal(got_g, expect_g)

    @given(st.floats(-40, 40, allow_nan=False),
           st.floats(-40, -0.1, allow_nan=False),
           st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_two_pi_periodicity(self, y, x, im_lam):
        lam = complex(-1, im_lam)
        # stay away from boundaries; one float 2*pi step wobbles ~1e-15
        frac = ((y - im_lam) / (PI / 2)) % 1.0
        assume(min(frac, 1 - frac) > 1e-6)
        base = strip_of(complex(x, y), Family.F, lam)
        shifted = strip_of(complex(x, y) + complex(0, 2 * PI), Family.F, lam)
        if base is None:
            assert shifted is None
        else:
            assert shifted == StripId(base.k + 1, Family.F)


def strip_of_on_ints(z, family, param):
    """The strip test with Python's round and int bounds, compared with t
    exactly: the oracle of strip_test."""
    s = -1 if family is Family.F else 1
    if not s * z.real > 0.0:
        return None
    t = (z.imag + s * param.imag) / (PI / 2)
    k = round((t + (1 - s)) / 4.0)
    if 4 * k - 2 + s < t < 4 * k + s:
        return StripId(k, family)
    return None


class TestStripTest:
    """strip_test on arrays and strip_of's float path on one point, both
    against the int oracle."""

    PARAMS = [(Family.F, complex(-1, 0)), (Family.F, complex(-2, 0.3)),
              (Family.G, complex(-1, 0)), (Family.G, complex(-1, -1.2)),
              (Family.G, complex(-3, 1e-300))]

    @staticmethod
    def points(param_imag):
        """Boundary lines and their neighbours a few ulps away, where
        t - 4k is inexact (t near 1 under F), |Im z| around and past
        2^53/(pi/2) and up to 1e308, on both half planes and the axis."""
        ts = [m + d for m in range(-9, 10) for d in (0.0, 0.25, 0.5)]
        ts += [float(2 ** e + m) for e in (52, 53, 54, 60, 200)
               for m in range(-6, 9)]
        ts += [-t for t in ts] + [1e300, -1e300]
        ys = []
        for t in ts:
            y = t * (PI / 2)
            for sign_im in (1.0, -1.0):
                y0 = y + sign_im * param_imag  # t back after the offset
                ys.append(y0)
                for _ in range(3):
                    y0 = np.nextafter(y0, math.inf)
                    ys.append(y0)
                y0 = ys[-4]
                for _ in range(3):
                    y0 = np.nextafter(y0, -math.inf)
                    ys.append(y0)
        ys += [1.7e308, -1.7e308, 5e-324, -0.0, 0.0]
        return [complex(x, y) for x in (-2.0, -0.0, 0.0, 3.5) for y in ys]

    @pytest.mark.parametrize("family, param", PARAMS)
    def test_matches_int_oracle(self, family, param):
        zs = self.points(param.imag)
        k, inside = strip_test(np.array([z.real for z in zs]),
                               np.array([z.imag for z in zs]), family, param)
        assert inside.any() and not inside.all()
        for n, z in enumerate(zs):
            want = strip_of_on_ints(z, family, param)
            assert strip_of(z, family, param) == want, z
            got = StripId(int(k[n]), family) if inside[n] else None
            assert got == want, z

    def test_t_near_one_under_f(self):
        # t - 4k = -3 + 2^-52 rounds to -3 here; the bounds are compared
        # instead
        z = complex(-1, (1 + 2.0 ** -52) * (PI / 2))
        assert strip_of_on_ints(z, Family.F, 0j) == StripId(1, Family.F)
        assert strip_of(z, Family.F, 0j) == StripId(1, Family.F)

    @pytest.mark.parametrize("family, y_far", [(Family.F, -1.7e308),
                                               (Family.G, 1.7e308)])
    def test_t_not_finite(self, family, y_far):
        # Im z +- Im param past DBL_MAX, or Im z not finite: in no strip,
        # and strip_of warns about nothing
        param = complex(-1, 1.7e308)
        zs = [complex(x, y) for x in (-2.0, 3.5)
              for y in (y_far, math.inf, -math.inf, math.nan)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [strip_of(z, family, param) for z in zs] == [None] * len(zs)
        with np.errstate(all="ignore"):
            _, inside = strip_test(np.array([z.real for z in zs]),
                                   np.array([z.imag for z in zs]), family,
                                   param)
        assert not inside.any()

    @pytest.mark.parametrize("expr", [FamilyF(complex(-1, 0.3), 1),
                                      FamilyG(complex(-1, -1.2), -1)])
    def test_planted_field(self, expr):
        # escaping cells planted in and out of the strips: the violations
        # are the per-cell oracle's, in storage order, with its text
        nx, ny = 37, 29
        window = Window(-9.0, 9.0, -2e16, 7e16)
        rng = np.random.default_rng(7)
        kinds = np.where(rng.random(nx * ny) < 0.3, KIND_ESCAPING,
                         KIND_PROVEN).astype(np.uint8)
        fld = EscapeField(window, nx, ny, kinds,
                          np.zeros(nx * ny, dtype=np.int64))
        want = []
        for idx in np.flatnonzero(kinds == KIND_ESCAPING).tolist():
            c = fld.center(idx % nx, idx // nx)
            if strip_of_on_ints(c, expr.family, expr.param) is None:
                want.append(format_complex(c))
        report = verify_strip_containment(fld, expr)
        assert len(want) > 20
        assert [v["input"] for v in report.violations] == want
        assert {(v["expected"], v["observed"]) for v in report.violations} == {
            ("escaping cell inside an escape strip of the open half plane",
             "escaping cell outside every strip")}


class TestStripBoundaries:
    def test_window_with_two_boundaries(self):
        got = strip_boundaries(0.0, 2 * PI, Family.F, complex(-1, 0))
        assert got == pytest.approx([PI / 2, 3 * PI / 2])

    def test_window_inside_one_strip(self):
        assert strip_boundaries(0.6 * PI, 1.4 * PI, Family.F,
                                complex(-1, 0)) == []

    def test_family_g_offset_sign(self):
        # boundaries at (2m+1)pi/2 - Im mu
        got = strip_boundaries(-2.0, 2.0, Family.G, complex(-1, 0.25))
        assert got == pytest.approx([-PI / 2 - 0.25, PI / 2 - 0.25])

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            strip_boundaries(1.0, 0.0, Family.F, complex(-1, 0))
        # non-finite bounds raised OverflowError, or a float conversion's
        # ValueError that named neither bound
        inf = math.inf
        for y_lo, y_hi in ((0.0, inf), (-inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="need finite y_lo <= y_hi, "
                               f"got {y_lo!r}, {y_hi!r}"):
                strip_boundaries(y_lo, y_hi, Family.F, complex(-1, 0))


class TestFamilyArgument:
    """Every strip query reads F or G from a Family and rejects anything
    else; a plain "F" used to be read as G."""

    @pytest.mark.parametrize("family", ["F", "G", None, FamilyF(-1, 1), -1.0])
    def test_not_a_family_is_a_type_error(self, family):
        with pytest.raises(TypeError, match="Family"):
            strip_of(complex(-2, 3.14159), family, -1)
        with pytest.raises(TypeError, match="Family"):
            strip_test(-2.0, 3.14159, family, -1)
        with pytest.raises(TypeError, match="Family"):
            strip_boundaries(0.0, 5.0, family, 1j)

    def test_boundaries_of_each_family_with_an_offset(self):
        assert strip_boundaries(0.0, 5.0, Family.F, 1j) == \
            pytest.approx([PI / 2 + 1])
        assert strip_boundaries(0.0, 5.0, Family.G, 1j) == \
            pytest.approx([PI / 2 - 1, 3 * PI / 2 - 1])
