import cmath
import json
import math

import numpy as np
import pytest

from expdyn import fields, orbits, verify
from expdyn.fields import Window, classify_grid
from expdyn.maps import (
    Compose,
    Conjugate,
    DegeneratePhaseError,
    Directed,
    FamilyF,
    FamilyG,
    InvalidMapError,
    IterationConfig,
    Iterate,
    ScaledExp,
    Shift,
    chart,
    evaluate,
    period_of,
    validate,
)
from expdyn.orbits import (
    AbsorptionRule,
    BoundedAtBudget,
    Escaping,
    NonEscapingProven,
    classify,
)
from expdyn.parser import format_complex
from expdyn.sampling import SampleSet
from expdyn.verify import (
    _images,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)

import test_orbits
from test_fields import make_field

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))
EXP1 = ScaledExp(complex(1, 0))
CFG = IterationConfig(max_iter=300)
PROVEN = NonEscapingProven(AbsorptionRule.RIGHT_HALF_PLANE_F, 0)
# F11 sends Re z <= -800 past the overflow rung; its second step is
# degenerate when the first lands on the angle pi/2
OVERFLOWING = complex(-800, 0.5)
DEGENERATE = complex(-800, -math.pi / 2)


def points(*zs):
    """A sample set of the points zs, in a window around them."""
    re, im = [z.real for z in zs], [z.imag for z in zs]
    return SampleSet(seed=0, count=len(zs),
                     window=Window(min(re) - 1, max(re) + 1,
                                   min(im) - 1, max(im) + 1),
                     points=np.array(zs, dtype=complex))


@pytest.mark.parametrize("run, match", [
    (lambda ss: verify_period_shift(F11, 0, ss, CFG), "s must be >= 1"),
    (lambda ss: verify_composite_laws(F11, 0, 1, ss, CFG),
     "iterate exponents must be >= 1"),
    (lambda ss: verify_composite_laws(F11, 1, 0, ss, CFG),
     "iterate exponents must be >= 1"),
    (lambda ss: verify_image_superset(F11, 0, ss, CFG), "j must be >= 1"),
    (lambda ss: verify_halfplane_bound(F11, ss, 0), "k_max must be >= 1")],
    ids=["period-shift-s", "composite-laws-i", "composite-laws-j",
         "image-superset-j", "halfplane-bound-k-max"])
def test_input_checks(run, match):
    with pytest.raises(ValueError, match=match):
        run(SampleSet.generate(1, 5, Window(1, 2, -1, 1)))


def small_field(expr, window, n=60, max_iter=200):
    return classify_grid(expr, window, n, n,
                         IterationConfig(max_iter=max_iter), workers=1)


# maps with a chart other than a bare F or G map: conj and shift
TRANSPORTED = [expr for expr, _ in test_orbits.TestChartVerdicts.TRANSPORTED]


def chart_window(expr, u0, r):
    """The square of half-width r*|a| around phi(u0) = a*u0 + b, where
    (f, a, b) is the chart of expr."""
    _, a, b = chart(expr)
    z, h = a * u0 + b, r * abs(a)
    return Window(z.real - h, z.real + h, z.imag - h, z.imag + h)


class TestValidation:
    def test_each_map_validated_once_per_suite(self, monkeypatch):
        calls = []

        def counting_validate(expr):
            calls.append(expr)
            validate(expr)

        for module in (verify, orbits):
            monkeypatch.setattr(module, "validate", counting_validate)
        ss = SampleSet.generate(2, 40, Window(-3, 3, -3, 3))
        conj = Conjugate(complex(2, 0), complex(1, 0), F11)
        for run, maps in [
                (lambda: verify_period_shift(F11, 2, ss, CFG),
                 [F11, Shift(Iterate(F11, 2), complex(0, 2 * math.pi))]),
                (lambda: verify_composite_laws(F11, 2, 1, ss, CFG), [F11]),
                (lambda: verify_image_superset(F11, 2, ss, CFG), [F11]),
                (lambda: verify_conjugacy(F11, complex(2, 0), complex(1, 0),
                                          ss, CFG), [conj])]:
            calls.clear()
            run()
            assert calls == maps


    # classify_fn calls per suite (period-shift, composite-laws,
    # image-superset, conjugacy) on the 40 seeds below, where each suite
    # classifies only the samples whose verdict a law reads: the traced
    # run's classify_calls are these counts
    HOOK_CALLS = [
        (F11, (80, 40, 80, 80)),
        (G11, (80, 40, 80, 80)),
        (EXP1, (77, 70, 40, 77)),
        (Conjugate(complex(2, 0), complex(1, 0), F11), (80, 40, 80, 80)),
        (Compose(F11, G11), (40, 40, 40, 40)),
    ]

    def test_each_chart_looked_up_once_per_suite(self, monkeypatch):
        charts = []

        def counting_chart(e):
            charts.append(e)
            return chart(e)

        monkeypatch.setattr(verify, "chart", counting_chart)
        ss = SampleSet.generate(2, 40, Window(-3, 3, -3, 3))
        a, b = complex(2, 0), complex(1, 0)
        for expr, calls in self.HOOK_CALLS:
            shifted = Shift(Iterate(expr, 2), period_of(expr))
            for (run, maps, own), count in zip([
                    (lambda fn: verify_period_shift(expr, 2, ss, CFG, fn),
                     [expr, shifted], []),
                    (lambda fn: verify_composite_laws(expr, 2, 1, ss, CFG, fn),
                     [Compose(expr, Iterate(expr, 1)), Iterate(expr, 3), expr,
                      Iterate(expr, 1)], []),
                    (lambda fn: verify_image_superset(expr, 2, ss, CFG, fn),
                     [expr], []),
                    (lambda fn: verify_conjugacy(expr, a, b, ss, CFG, fn),
                     [expr, Conjugate(a, b, expr)], [])], calls):
                charts.clear()
                default = run(None)
                assert charts == maps
                # a classify_fn passed in is called as given, once for each
                # classification, and gives the default path's report
                seen = []

                def counting_classify(e, z0, cfg):
                    seen.append(e)
                    return classify(e, z0, cfg)

                charts.clear()
                assert run(counting_classify).to_json() == default.to_json()
                assert charts == own and len(seen) == count
            # the family suites read the chart's family map and u from
            # one lookup; a map without a chart is rejected after it
            field = small_field(expr, Window(-3, 3, -3, 3), n=8)
            # halfplane-bound samples the absorbing half plane of u
            ch = chart(expr)
            hs = ss if ch is None else SampleSet.generate(
                2, 40, chart_window(expr, -12 * ch[0].sign, 5))
            for run in (lambda: verify_halfplane_bound(expr, hs, 5),
                        lambda: verify_strip_containment(field, expr)):
                charts.clear()
                if chart(expr) is None:
                    with pytest.raises(TypeError):
                        run()
                else:
                    run()
                assert charts == [expr]

    def test_hook_gives_the_default_violations(self):
        # two conjugacy violations of the overflow ladder, in sample order:
        # P by the underflow rule at step 3 under f, E under the conjugate,
        # as `verify --suite conjugacy --seed 9 --a 3+1i --b -1` reports;
        # a margin on that rule (ROADMAP item 1) skips them and edits this
        ss = SampleSet.generate(9, 2000, Window(-10, 2, -8, 8))
        a, b = complex(3, 1), complex(-1, 0)
        seen = []

        def counting_classify(e, z0, cfg):
            seen.append(e)
            return classify(e, z0, cfg)

        default = verify_conjugacy(F11, a, b, ss, CFG)
        assert verify_conjugacy(F11, a, b, ss, CFG,
                                counting_classify).to_json() == default.to_json()
        # f at the 2000 samples, the conjugate at the 1991 where f is
        # determined
        assert len(seen) == 3991
        assert default.skipped_undetermined == 9
        assert [v["input"] for v in default.violations] == [
            "-4.812499579257532-3.7848942538105703i",
            "-4.669538735511878-2.721089752091366i"]
        assert {v["observed"] for v in default.violations} == \
            {"f: NonEscapingProven, conjugate: Escaping"}


class TestBlocks:
    def test_block_size_does_not_move_a_report(self, monkeypatch):
        # violations of every law and of period-shift's identity (1 is not
        # a period), on blocks of 7 samples against one block; a bound
        # of 0.5 that every F(-1, 1) orbit breaks
        monkeypatch.setattr(verify, "period_of", lambda expr: complex(1, 0))
        monkeypatch.setattr(verify, "BOUND_TOL", -1.5)
        ss = SampleSet.generate(3, 40, Window(-8, 2, -6, 6))
        seeds = {complex(z) for z in ss.points}

        def liar(expr, z, cfg):
            # f o g escapes at the seeds; everything else is proven
            return Escaping(2) if isinstance(expr, (Compose, Shift)) \
                and z in seeds else PROVEN

        runs = [
            lambda: verify_halfplane_bound(
                F11, SampleSet.generate(4, 50, Window(20, 30, 2, 4)), 3),
            lambda: verify_period_shift(F11, 1, ss, CFG, liar),
            lambda: verify_composite_laws(F11, 2, 1, ss, CFG, liar),
            lambda: verify_image_superset(
                F11, 2, ss, CFG,
                lambda e, z, cfg: PROVEN if z in seeds else Escaping(1)),
            lambda: verify_conjugacy(
                F11, complex(3, 1), complex(-1, 0),
                SampleSet.generate(9, 2000, Window(-10, 2, -8, 8)), CFG)]
        one_block = [run().to_json() for run in runs]
        assert [len(json.loads(r)["violations"]) for r in one_block] == \
            [50, 80, 120, 40, 2]
        monkeypatch.setattr(fields, "_BLOCK", 7)
        assert [run().to_json() for run in runs] == one_block


class TestReport:
    def test_json_shape(self):
        rep = verify_halfplane_bound(
            F11, SampleSet.generate(1, 10, Window(0, 100, -100, 100)), 5)
        data = json.loads(rep.to_json())
        assert list(data) == ["suite_name", "total", "skipped",
                              "violations", "verdict"]
        assert data["verdict"] == "pass" and data["total"] == 10

    def test_reports_deterministic(self):
        ss = SampleSet.generate(5, 200, Window(-3, 3, -3, 3))
        a = verify_period_shift(EXP1, 2, ss, CFG)
        b = verify_period_shift(EXP1, 2, ss, CFG)
        assert a.to_json() == b.to_json()


def image(expr, z):
    """verify._images at the one point z: expr(z), or None where it has
    no finite complex value."""
    wr, wi, ok = _images(expr, np.array([z.real]), np.array([z.imag]))
    return complex(wr[0], wi[0]) if ok[0] else None


class TestImage:
    def test_finite_image(self):
        assert image(F11, complex(0, 0)) == complex(math.exp(-1) + 1, 0)

    def test_overflowed_image_is_none(self):
        assert isinstance(evaluate(F11, OVERFLOWING, CFG), Directed)
        assert image(F11, OVERFLOWING) is None

    def test_nan_image_is_none(self):
        assert math.isnan(evaluate(F11, complex(0, math.inf), CFG).real)
        assert image(F11, complex(0, math.inf)) is None

    def test_degenerate_phase_is_none(self):
        with pytest.raises(DegeneratePhaseError):
            evaluate(Iterate(F11, 2), DEGENERATE, CFG)
        assert image(Iterate(F11, 2), DEGENERATE) is None


class TestHalfplaneBound:
    def test_bulk_samples_pass(self):
        ss = SampleSet.generate(3, 10000, Window(0, 100, -100, 100))
        rep = verify_halfplane_bound(F11, ss, 200)
        assert rep.verdict == "pass" and not rep.violations

    def test_single_sample_scalar_oracle(self):
        ss = SampleSet.generate(1, 1, Window(5, 5.0000001, 0, 0.0000001))
        rep = verify_halfplane_bound(F11, ss, 1)
        # |f(5)| = |e^-6 + 1| ~ 1.0024787521766664 <= 2
        assert rep.verdict == "pass"

    def test_family_g_side(self):
        ss = SampleSet.generate(2, 1000, Window(-100, 0, -100, 100))
        rep = verify_halfplane_bound(G11, ss, 100)
        assert rep.verdict == "pass"

    def test_points_outside_the_window_raise(self):
        # the window check reads samples.window, so a sample set cannot
        # hold a point outside it
        with pytest.raises(ValueError, match="inside the closed window"):
            verify_halfplane_bound(F11, SampleSet(1, 1, Window(0, 1, 0, 1),
                                                  np.array([-50 + 0j])), 3)

    def test_window_outside_half_plane_raises(self):
        # the bound is a theorem on the absorbing half plane of u only: a
        # window with a corner outside it is bad input, not a violation
        conj = Conjugate(complex(2, 0), complex(1, 0), F11)
        for expr, window, side in ((F11, Window(-5, 5, -5, 5), ">="),
                                   (G11, Window(-5, 1, -5, 5), "<="),
                                   (conj, Window(0.5, 100, -50, 50), ">=")):
            with pytest.raises(ValueError) as exc:
                verify_halfplane_bound(expr, SampleSet.generate(1, 50, window),
                                       5)
            assert str(exc.value) == (
                "halfplane-bound needs a window inside the absorbing half "
                f"plane Re u {side} 0 of the map, u = (z - b)/a")
        # phi(H) = {Re z >= 1}: a corner on its edge is inside
        assert verify_halfplane_bound(conj, SampleSet.generate(
            1, 50, Window(1, 3, -1, 1)), 5).verdict == "pass"

    def test_transported_violation_names_u(self, monkeypatch):
        # conj(2, 1, F(-1, 1)) bounds u_k = (z_k - 1)/2, not z_k; with the
        # bound lowered to 0.5, every orbit from Re u in [10, 20] breaks it
        monkeypatch.setattr(verify, "BOUND_TOL", -1.5)
        conj = Conjugate(complex(2, 0), complex(1, 0), F11)
        rep = verify_halfplane_bound(conj, SampleSet.generate(4, 50, Window(
            21, 41, 2, 4)), 3)
        assert rep.verdict == "fail" and len(rep.violations) == 50
        for v in rep.violations:
            assert v["expected"] == \
                "|u_k| <= 0.5 for k <= 3, u_k = (f^k(z) - b)/a"
            # a plain float repr, the same under numpy 1 and 2
            float(v["observed"].removeprefix("max modulus "))

    @pytest.mark.parametrize("expr", TRANSPORTED)
    def test_transported_window_passes(self, expr):
        # u0 = -12*sign lies in H; the window's corners are within
        # 5*sqrt(2) of it in u, so all of it lies in phi(H).  Without
        # phi^-1, |z_k| of conj(2, 1, F(-1, 1)) reaches about 2*|u_k| + 1.
        f, _, _ = chart(expr)
        ss = SampleSet.generate(7, 500, chart_window(expr, -12 * f.sign, 5))
        rep = verify_halfplane_bound(expr, ss, 100)
        assert rep.verdict == "pass" and rep.total == 500

    def test_rejects_composites(self):
        with pytest.raises(TypeError):
            verify_halfplane_bound(
                Iterate(F11, 2),
                SampleSet.generate(1, 1, Window(0, 1, 0, 1)), 1)

    def test_rejects_k_max_below_one(self):
        ss = SampleSet.generate(1, 5, Window(0, 1, 0, 1))
        for k_max in (0, -5):
            with pytest.raises(ValueError):
                verify_halfplane_bound(F11, ss, k_max)


class TestStripContainment:
    def test_family_f_field_passes(self):
        rep = verify_strip_containment(
            small_field(F11, Window(-30, 5, -20, 20)), F11)
        assert rep.verdict == "pass"

    def test_family_g_field_passes(self):
        rep = verify_strip_containment(
            small_field(G11, Window(-5, 30, -20, 20)), G11)
        assert rep.verdict == "pass"

    def test_planted_escaping_cell_fails(self):
        field = make_field(Window(0.5, 1.5, -0.5, 0.5), 1, 1, [("E", 4)])
        rep = verify_strip_containment(field, F11)
        assert rep.verdict == "fail"
        assert len(rep.violations) == 1
        assert rep.violations[0]["input"] == "1.0"

    @pytest.mark.parametrize("expr", TRANSPORTED)
    def test_transported_field_passes(self, expr):
        # the strips hold in u = (z - b)/a; without phi^-1 about half of
        # the escaping cells of conj(2, 1, F(-1, 1)) fall outside them
        field = small_field(expr, chart_window(expr, 0, 16), n=80)
        assert len(field.escaping_indices()) >= 500
        rep = verify_strip_containment(field, expr)
        assert rep.verdict == "pass"

    def test_transported_violation_names_z(self):
        # the planted cell z = 3 has u = 1, in the absorbing half plane
        conj = Conjugate(complex(2, 0), complex(1, 0), F11)
        field = make_field(Window(2.5, 3.5, -0.5, 0.5), 1, 1, [("E", 4)])
        rep = verify_strip_containment(field, conj)
        assert [v["input"] for v in rep.violations] == ["3.0"]


class TestDisjointness:
    def test_acceptance_pair_passes(self):
        w = Window(-30, 30, -30, 30)
        rep = verify_disjointness(small_field(F11, w), small_field(G11, w))
        assert rep.verdict == "pass"

    def test_field_against_itself_fails(self):
        field = small_field(F11, Window(-30, 5, -20, 20))
        assert len(field.escaping_indices()) >= 1
        rep = verify_disjointness(field, field)
        assert rep.verdict == "fail"

    def test_two_all_bounded_fields_pass_vacuously(self):
        w = Window(0, 1, 0, 1)
        a = make_field(w, 2, 2, [("B", -1)] * 4)
        b = make_field(w, 2, 2, [("P", 0)] * 4)
        rep = verify_disjointness(a, b)
        assert rep.verdict == "pass" and not rep.violations

    def test_dimension_mismatch(self):
        a = make_field(Window(0, 1, 0, 1), 2, 2, [("B", -1)] * 4)
        b = make_field(Window(0, 1, 0, 1), 1, 4, [("B", -1)] * 4)
        with pytest.raises(ValueError):
            verify_disjointness(a, b)


class TestPeriodShift:
    def test_scaled_exp_acceptance_shape(self):
        ss = SampleSet.generate(7, 500, Window(-3, 3, -3, 3))
        rep = verify_period_shift(EXP1, 2, ss, CFG)
        assert rep.verdict == "pass"

    def test_family_f_period(self):
        ss = SampleSet.generate(8, 500, Window(-3, 3, -3, 3))
        rep = verify_period_shift(F11, 1, ss, CFG)
        assert rep.verdict == "pass"

    def test_compose_map_takes_inner_period(self):
        # a period of the inner map is a period of the composite
        rep = verify_period_shift(Compose(F11, G11), 1,
                                  SampleSet.generate(1, 50, Window(-3, 3, -3, 3)),
                                  CFG)
        assert rep.verdict == "pass" and rep.total == 50

    def test_non_finite_period_is_invalid(self):
        with pytest.raises(InvalidMapError, match="c finite"):
            verify_period_shift(ScaledExp(complex(1e-320, 0)), 1,
                                SampleSet.generate(1, 3, Window(0, 1, 0, 1)),
                                CFG)

    def test_planted_conflict_fails(self):
        ss = SampleSet.generate(9, 5, Window(-1, 1, -1, 1))

        def liar(expr, z, cfg):
            if isinstance(expr, Shift):
                return Escaping(3)
            return PROVEN

        rep = verify_period_shift(F11, 1, ss, CFG, classify_fn=liar)
        assert rep.verdict == "fail"
        assert len(rep.violations) == 5

    @staticmethod
    def pointwise(expr, s, c, z0, cfg):
        """Observed text of the first step at which g^n(z0) and
        f^(n*s)(z0) + c part, or None: the identity checked one seed at
        a time through evaluate."""
        f_s, g = Iterate(expr, s), Shift(Iterate(expr, s), c)
        u = v = z0
        for _ in range(cfg.max_iter):
            try:
                u, v = evaluate(g, u, cfg), evaluate(f_s, v, cfg)
            except DegeneratePhaseError:
                return None
            if not all(isinstance(w, complex) and cmath.isfinite(w)
                       for w in (u, v)):
                return None
            diff = abs(u - (v + c))
            if diff > verify.REL_TOL * (1.0 + abs(v)):
                return f"|diff| = {diff!r} at |f^(n*s)(z)| = {abs(v)!r}"
            if abs(u) > verify.MODULUS_CAP or abs(v) > verify.MODULUS_CAP:
                return None
        return None

    def test_pointwise_violation_before_the_conflict(self, monkeypatch):
        # 1 is not a period of f, so g = f + 1 and f^n + 1 part after the
        # first step; every seed also gets a planted classification conflict
        monkeypatch.setattr(verify, "period_of", lambda expr: complex(1, 0))
        ss = SampleSet.generate(3, 40, Window(-8, 2, -6, 6))

        def liar(expr, z, cfg):
            return Escaping(3) if isinstance(expr, Shift) else PROVEN

        rep = verify_period_shift(F11, 1, ss, CFG, classify_fn=liar)
        want = []
        for z in ss.points:
            z = complex(z)
            observed = self.pointwise(F11, 1, complex(1, 0), z, CFG)
            if observed is not None:
                want.append((format_complex(z),
                             "g^n(z) == f^(n*s)(z) + c within rel 1e-06",
                             observed))
            want.append((format_complex(z),
                         "no escaping-vs-proven conflict between f and g",
                         "f: NonEscapingProven, g: Escaping"))
        assert [(v["input"], v["expected"], v["observed"])
                for v in rep.violations] == want
        assert len(want) == 80  # each seed once per kind
        # the default classification sees no conflict here
        rep = verify_period_shift(F11, 1, ss, CFG)
        assert [v["observed"] for v in rep.violations] == [
            w[2] for w in want if w[1].startswith("g^n")]

    def test_orbits_that_repeat_stop_before_the_budget(self, monkeypatch):
        # F11's orbits settle on points that both maps return bit for bit;
        # from there every step would repeat the same comparison
        calls, images = [], verify._images

        def counting_images(expr, re, im):
            calls.append(len(re))
            return images(expr, re, im)

        monkeypatch.setattr(verify, "_images", counting_images)
        cfg = IterationConfig(max_iter=1000)
        ss = SampleSet.generate(7, 200, Window(-8, 2, -6, 6))
        rep = verify_period_shift(F11, 1, ss, cfg)
        assert rep.violations == [] and [
            self.pointwise(F11, 1, period_of(F11), complex(z), cfg)
            for z in ss.points] == [None] * 200
        assert len(calls) < 2 * cfg.max_iter

    def test_one_orbit_repeating_does_not_stop_the_other(self, monkeypatch):
        # g's orbit repeats its seed from the first step on, while f's
        # lands on seed - c and then walks off by 1e-3 per step: the
        # parting at the second step is still found
        c, f_steps = period_of(F11), []

        def scripted_images(expr, re, im):
            ok = np.ones(len(re), dtype=bool)
            if isinstance(expr, Shift):
                return re, im, ok
            f_steps.append(len(re))
            if len(f_steps) == 1:
                return re - c.real, im - c.imag, ok
            return re + 1e-3, im, ok

        monkeypatch.setattr(verify, "_images", scripted_images)
        ss = SampleSet.generate(4, 10, Window(-8, 2, -6, 6))
        rep = verify_period_shift(F11, 1, ss, CFG)
        assert [v["expected"] for v in rep.violations] == \
            ["g^n(z) == f^(n*s)(z) + c within rel 1e-06"] * 10
        assert f_steps == [10, 10]


class TestCompositeLaws:
    def test_scaled_exp_passes(self):
        ss = SampleSet.generate(5, 400, Window(-2, 2, -2, 2))
        rep = verify_composite_laws(EXP1, 2, 1, ss, CFG)
        assert rep.verdict == "pass"

    def test_family_f_passes(self):
        ss = SampleSet.generate(6, 400, Window(-8, 2, -6, 6))
        rep = verify_composite_laws(F11, 1, 1, ss, CFG)
        assert rep.verdict == "pass"

    def test_planted_iterate_conflict_fails(self):
        ss = SampleSet.generate(9, 4, Window(-1, 1, -1, 1))

        def liar(expr, z, cfg):
            if isinstance(expr, Compose):
                return Escaping(2)       # composite escapes...
            if isinstance(expr, Iterate) and expr.s == 3:
                return PROVEN            # ...but the tall iterate is absorbed
            return Escaping(2)

        rep = verify_composite_laws(F11, 2, 1, ss, CFG, classify_fn=liar)
        assert rep.verdict == "fail"
        assert any("iterate" in v["expected"] for v in rep.violations)

    def test_planted_subset_violation_fails(self):
        ss = SampleSet.generate(9, 4, Window(-1, 1, -1, 1))

        def liar(expr, z, cfg):
            if isinstance(expr, Compose):
                return Escaping(2)
            return PROVEN

        rep = verify_composite_laws(F11, 2, 1, ss, CFG, classify_fn=liar)
        assert rep.verdict == "fail"
        assert any("f or g" in v["expected"] for v in rep.violations)

    def test_subset_law_skips_an_undetermined_side(self):
        ss = SampleSet.generate(9, 4, Window(-1, 1, -1, 1))

        def liar(expr, z, cfg):
            if isinstance(expr, FamilyF):
                return BoundedAtBudget()
            if isinstance(expr, Iterate) and expr.s == 1:
                return PROVEN            # g = f^1
            return Escaping(2)

        rep = verify_composite_laws(F11, 2, 1, ss, CFG, classify_fn=liar)
        assert rep.verdict == "pass"
        assert rep.skipped_undetermined == 4

    @staticmethod
    def invariance_liar(seeds, at_image):
        # every verdict at the seeds escapes; g(z) gets at_image
        def liar(expr, z, cfg):
            return Escaping(2) if z in seeds else at_image
        return liar

    def test_invariance_violation_when_proven_at_image(self):
        ss = SampleSet.generate(9, 4, Window(-1, 1, -1, 1))
        seeds = {complex(z) for z in ss.points}
        rep = verify_composite_laws(F11, 2, 1, ss, CFG,
                                    classify_fn=self.invariance_liar(seeds, PROVEN))
        assert rep.verdict == "fail"
        assert rep.skipped_undetermined == 0
        assert [v["expected"] for v in rep.violations] == \
            ["g(z) of an escaping seed must not be proven bounded"] * 4
        assert rep.violations[0]["observed"] == \
            "classification at g(z): NonEscapingProven"

    def test_invariance_budget_at_image_is_skipped(self):
        ss = SampleSet.generate(9, 4, Window(-1, 1, -1, 1))
        seeds = {complex(z) for z in ss.points}
        rep = verify_composite_laws(
            F11, 2, 1, ss, CFG,
            classify_fn=self.invariance_liar(seeds, BoundedAtBudget()))
        assert rep.verdict == "pass"
        assert rep.skipped_undetermined == 4

    def test_g_classified_only_where_its_verdict_is_read(self):
        # only law (a) reads g's verdict, and only where f o g escapes and
        # f does not: g is classified at those seeds and nowhere else
        ss = SampleSet.generate(9, 40, Window(-8, 2, -6, 6))
        seeds = [complex(z) for z in ss.points]
        h_escapes, f_escapes = set(seeds[::2]), set(seeds[::3])
        g_calls = []

        def liar(expr, z, cfg):
            if expr == Iterate(F11, 1):
                g_calls.append(z)
            if isinstance(expr, Compose):
                return Escaping(2) if z in h_escapes else PROVEN
            return Escaping(1) if expr == F11 and z in f_escapes else PROVEN

        rep = verify_composite_laws(F11, 2, 1, ss, CFG, classify_fn=liar)
        read = [z for z in seeds if z in h_escapes and z not in f_escapes]
        assert g_calls == read and len(read) == 13
        # where it is read, g's proven verdict breaks law (a)
        assert [v["input"] for v in rep.violations
                if v["expected"].endswith("f or g")] == \
            [format_complex(z) for z in read]


class TestImageSuperset:
    def test_family_f_passes(self):
        ss = SampleSet.generate(4, 500, Window(-10, 10, -10, 10))
        rep = verify_image_superset(F11, 2, ss, CFG)
        assert rep.verdict == "pass"

    def test_scaled_exp_small_window(self):
        ss = SampleSet.generate(4, 200, Window(-2, 0, -1, 1))
        rep = verify_image_superset(EXP1, 1, ss, CFG)
        assert rep.verdict == "pass"

    def test_planted_conflict_fails(self):
        ss = SampleSet.generate(9, 3, Window(4, 5, -1, 1))
        seeds = {complex(z) for z in ss.points}

        def liar(expr, z, cfg):
            # seeds are "proven bounded" but their images "escape"
            return PROVEN if z in seeds else Escaping(1)

        rep = verify_image_superset(F11, 1, ss, CFG, classify_fn=liar)
        assert rep.verdict == "fail"

    def test_image_without_finite_value_is_skipped(self):
        def liar(expr, z, cfg):
            # an image that got classified would "escape" and fail
            return PROVEN if z in (OVERFLOWING, DEGENERATE) else Escaping(1)

        rep = verify_image_superset(F11, 1, points(OVERFLOWING), CFG,
                                    classify_fn=liar)
        assert rep.verdict == "pass" and rep.skipped_undetermined == 1
        rep = verify_image_superset(F11, 2, points(DEGENERATE), CFG,
                                    classify_fn=liar)
        assert rep.verdict == "pass" and rep.skipped_undetermined == 1


class TestConjugacy:
    def test_acceptance_shape_passes(self):
        ss = SampleSet.generate(3, 500, Window(-10, 2, -8, 8))
        rep = verify_conjugacy(F11, complex(2, 0), complex(1, 0), ss, CFG)
        assert rep.verdict == "pass"

    def test_identity_conjugation_bitwise(self):
        ss = SampleSet.generate(3, 200, Window(-2, 2, -2, 2))
        cfg = IterationConfig(max_iter=60)
        rep = verify_conjugacy(EXP1, complex(1, 0), complex(0, 0), ss, cfg)
        assert rep.verdict == "pass"
        # phi = identity: the generic engine sees the same orbit bitwise
        from expdyn.maps import Conjugate
        g = Conjugate(complex(1, 0), complex(0, 0), EXP1)
        for z in ss.points[:50]:
            assert classify(EXP1, complex(z), cfg) == \
                classify(g, complex(z), cfg)

    @pytest.mark.parametrize("a, b, window", [
        (complex(1e308, 1e308), complex(1, 0), Window(-10, 2, -8, 8)),
        # finite on [-1, 1]^2, overflowing at the corners of [-2, 2]^2 only
        (complex(1e308, 0), complex(0, 0), Window(-2, 2, -2, 2)),
        (complex(1, 0), complex(1e308, 0), Window(1e308, 1.5e308, 0, 1))])
    def test_phi_not_finite_on_the_window_is_a_value_error(self, a, b,
                                                            window):
        # raised before a sample is classified, with no numpy warning
        def no_classify(expr, z, cfg):
            raise AssertionError("a sample was classified")

        ss = SampleSet.generate(2, 30, window)
        with pytest.raises(ValueError, match="is not finite on the sample"):
            verify_conjugacy(F11, a, b, ss, CFG, no_classify)
        with pytest.raises(ValueError, match="is not finite on the sample"):
            verify_conjugacy(F11, a, b, ss, CFG)

    def test_phi_finite_at_the_corners_runs(self):
        rep = verify_conjugacy(F11, complex(1e307, 0), complex(0, 0),
                               SampleSet.generate(2, 30, Window(-1, 1, -1, 1)),
                               CFG)
        assert rep.total == 30

    def test_planted_mismatch_fails(self):
        ss = SampleSet.generate(9, 6, Window(-1, 1, -1, 1))

        def liar(expr, z, cfg):
            if isinstance(expr, FamilyF):
                return PROVEN
            return Escaping(0)

        rep = verify_conjugacy(F11, complex(2, 0), complex(1, 0), ss, CFG,
                               classify_fn=liar)
        assert rep.verdict == "fail"
        assert len(rep.violations) == 6
