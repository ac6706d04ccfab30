import json

import pytest

from expdyn.fields import Window, classify_grid
from expdyn.maps import (
    Compose,
    FamilyF,
    FamilyG,
    IterationConfig,
    Iterate,
    ScaledExp,
    Shift,
)
from expdyn.orbits import (
    AbsorptionRule,
    Escaping,
    NonEscapingProven,
    classify,
)
from expdyn.sampling import SampleSet
from expdyn.verify import (
    NoKnownPeriodError,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)

from test_fields import make_field

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))
EXP1 = ScaledExp(complex(1, 0))
CFG = IterationConfig(max_iter=300)
PROVEN = NonEscapingProven(AbsorptionRule.RIGHT_HALF_PLANE_F, 0)


def small_field(expr, window, n=60, max_iter=200):
    return classify_grid(expr, window, n, n,
                         IterationConfig(max_iter=max_iter), workers=1)


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

    def test_samples_outside_half_plane_violate(self):
        # misuse on purpose: deep left-half-plane seeds blow the bound
        ss = SampleSet.generate(4, 50, Window(-30, -20, 2, 4))
        rep = verify_halfplane_bound(F11, ss, 3)
        assert rep.verdict == "fail"
        assert rep.violations
        # a plain float repr, the same under numpy 1 and 2
        for v in rep.violations:
            float(v["observed"].removeprefix("max modulus "))

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

    def test_unknown_period_is_an_error(self):
        with pytest.raises(NoKnownPeriodError):
            verify_period_shift(Compose(F11, G11), 1,
                                SampleSet.generate(1, 1, Window(0, 1, 0, 1)),
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
