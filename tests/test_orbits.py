import dataclasses
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdyn.maps import (
    Directed,
    FamilyF,
    FamilyG,
    InvalidMapError,
    IterationConfig,
    Iterate,
    ScaledExp,
    evaluate,
)
from expdyn.orbits import (
    AbsorptionRule,
    BoundedAtBudget,
    Escaping,
    NonEscapingProven,
    Undetermined,
    classify,
    orbit_to_csv,
    run_orbit,
)

from helpers import complexes, family_f_maps, family_g_maps, pullback_escaping_seed

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))
RIGHT = AbsorptionRule.RIGHT_HALF_PLANE_F
LEFT = AbsorptionRule.LEFT_HALF_PLANE_G


class TestIterationConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iter=0)

    def test_thresholds_are_constants(self):
        assert [f.name for f in dataclasses.fields(IterationConfig)] == \
            ["max_iter"]
        for name in ("overflow_log_threshold", "escape_real_threshold",
                     "degeneracy_eps", "generic_escape_radius"):
            with pytest.raises(TypeError):
                IterationConfig(**{name: 1.0})

    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.max_iter == 1000
        assert cfg.overflow_log_threshold == 700.0
        assert cfg.escape_real_threshold == 50.0
        assert cfg.generic_escape_radius == 1e10
        assert cfg.degeneracy_eps == 1e-12


class TestClassify:
    def test_absorbed_immediately(self):
        assert classify(F11, complex(3, 4)) == NonEscapingProven(RIGHT, 0)

    def test_absorbed_after_one_step(self):
        # f(-0.5) = e^{-0.5} + 1 ~ 1.6065 lands in the right half plane
        assert classify(F11, complex(-0.5, 0)) == NonEscapingProven(RIGHT, 1)

    def test_imaginary_axis_is_absorbed(self):
        z0 = complex(0, 2 * math.pi)
        assert classify(F11, z0) == NonEscapingProven(RIGHT, 0)

    def test_family_g_left_half_plane(self):
        assert classify(G11, complex(-3, 0)) == NonEscapingProven(LEFT, 0)

    def test_pullback_seed_escapes(self):
        # G(lam + pi*i, -xi) sends -z to -F(z), so the mirrored seed escapes
        # under the mirrored G map at the same step
        seed = pullback_escaping_seed(F11, depth=10)
        g = FamilyG(complex(-1, math.pi), complex(-1, 0))
        for fam, z0 in ((F11, seed), (g, -seed)):
            verdict = classify(fam, z0, IterationConfig(max_iter=100))
            assert isinstance(verdict, Escaping)
            assert verdict.step <= 100

    def test_pullback_seed_escapes_general_params(self):
        fam = FamilyF(complex(-1.5, 0.8), complex(2, -1))
        seed = pullback_escaping_seed(fam, depth=8)
        verdict = classify(fam, seed, IterationConfig(max_iter=100))
        assert isinstance(verdict, Escaping)

    def test_directed_collapse_is_proven(self):
        # deep in the escaping half plane with a phase pointing back: one
        # rung up, then the exponential underflows to the additive constant
        # inside the absorbing half plane
        for fam, z0 in ((F11, complex(-750, 0)), (G11, complex(750, math.pi))):
            assert classify(fam, z0) == NonEscapingProven(
                AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD, 1)

    def test_real_parameters_match_complex(self):
        # the underflow collapses onto the additive constant, which must
        # come back complex however the map was built
        cases = ((FamilyF, -1, 1, complex(-800, 0), Directed(700.5, 0.0)),
                 (FamilyG, -1, -1, complex(750, math.pi),
                  Directed(700.5, math.pi)))
        for fam, p, c, z0, deep in cases:
            want = fam(complex(p), complex(c))
            for built in (fam(p, c), fam(float(p), float(c))):
                assert classify(built, z0) == classify(want, z0)
                assert evaluate(Iterate(built, 2), deep) == \
                    evaluate(Iterate(want, 2), deep)

    def test_scaled_exp_escapes_via_overflow_chain(self):
        verdict = classify(ScaledExp(complex(1, 0)), complex(10, 0))
        assert isinstance(verdict, Escaping)
        assert verdict.step <= 3

    def test_bounded_at_budget(self):
        # orbit of exp(z)/wandering seed that stays small for a short budget
        verdict = classify(ScaledExp(complex(0.2, 0)), complex(0, 0),
                           IterationConfig(max_iter=5))
        assert verdict == BoundedAtBudget()

    def test_nan_seed_is_undetermined(self):
        verdict = classify(F11, complex(math.nan, 0))
        assert verdict == Undetermined("nan")

    def test_invalid_map_raises(self):
        with pytest.raises(InvalidMapError):
            classify(FamilyF(complex(1, 0), complex(1, 0)), complex(0, 0))

    def test_determinism(self):
        cfg = IterationConfig(max_iter=200)
        z = complex(-4.25, 3.125)
        assert classify(F11, z, cfg) == classify(F11, z, cfg)


class TestRunOrbit:
    def test_trace_matches_termination(self):
        cfg = IterationConfig(max_iter=3)
        rec = run_orbit(F11, complex(-1, 0), cfg)
        assert rec.classification == NonEscapingProven(RIGHT, 1)
        assert rec.points == (complex(-1, 0), complex(2, 0))
        assert rec.steps_taken == 1
        assert len(rec.points) == rec.steps_taken + 1

    def test_immediate_absorption_records_seed_only(self):
        rec = run_orbit(F11, complex(5, 0), IterationConfig())
        assert rec.points == (complex(5, 0),)
        assert rec.classification == NonEscapingProven(RIGHT, 0)
        assert rec.steps_taken == 0

    def test_escaping_orbit_includes_terminal_point(self):
        cfg = IterationConfig(max_iter=50)
        rec = run_orbit(ScaledExp(complex(1, 0)), complex(10, 0), cfg)
        assert isinstance(rec.classification, Escaping)
        assert len(rec.points) == rec.steps_taken + 1
        assert isinstance(rec.points[-1], Directed)

    def test_budget_orbit_length(self):
        cfg = IterationConfig(max_iter=7)
        rec = run_orbit(ScaledExp(complex(0.2, 0)), complex(0, 0), cfg)
        assert rec.classification == BoundedAtBudget()
        assert rec.steps_taken == 7
        assert len(rec.points) == 8

    def test_classification_agrees_with_classify(self):
        cfg = IterationConfig(max_iter=40)
        for k in range(60):
            z = complex(-20 + 0.7 * k, -10 + 0.35 * k)
            assert run_orbit(F11, z, cfg).classification == \
                classify(F11, z, IterationConfig(max_iter=40))


class TestOrbitCsv:
    def test_golden_format(self):
        cfg = IterationConfig(max_iter=3)
        rec = run_orbit(F11, complex(-1, 0), cfg)
        out = io.StringIO()
        orbit_to_csv(rec, out)
        assert out.getvalue() == (
            "n,kind,a,b\n"
            "0,F,-1,0\n"
            "1,F,2,0\n"
            "# classification=NonEscapingProven,step=1\n")

    def test_directed_rows_use_log_scale(self):
        cfg = IterationConfig(max_iter=5)
        rec = run_orbit(F11, complex(-750, 0), cfg)
        out = io.StringIO()
        orbit_to_csv(rec, out)
        lines = out.getvalue().splitlines()
        assert lines[2] == "1,D,749,0"
        assert lines[-1] == "# classification=NonEscapingProven,step=1"

    def test_seventeen_significant_digits(self):
        cfg = IterationConfig(max_iter=1)
        rec = run_orbit(F11, complex(-0.1234567890123456789, 0), cfg)
        out = io.StringIO()
        orbit_to_csv(rec, out)
        assert "-0.12345678901234568" in out.getvalue()


class TestEngineProperties:
    @given(family_f_maps(), complexes(0.0, 50.0, -50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_right_half_plane_forward_invariant(self, fam, z):
        image = evaluate(fam, z)
        assert isinstance(image, complex)
        assert image.real > 0.0

    @given(family_g_maps(), complexes(-50.0, 0.0, -50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_left_half_plane_forward_invariant(self, fam, z):
        image = evaluate(fam, z)
        assert isinstance(image, complex)
        assert image.real < 0.0

    @given(family_f_maps(), complexes(-30.0, 30.0, -30.0, 30.0))
    @settings(max_examples=120, deadline=None)
    def test_absorption_soundness(self, fam, z):
        # once proven non-escaping, 100 further steps stay within
        # distance 1 of xi (from the step after absorption on)
        cfg = IterationConfig(max_iter=60)
        rec = run_orbit(fam, z, cfg)
        if not isinstance(rec.classification, NonEscapingProven):
            return
        if rec.classification.rule is not AbsorptionRule.RIGHT_HALF_PLANE_F:
            return
        w = rec.points[-1]
        for _ in range(100):
            w = evaluate(fam, w, cfg)
            assert isinstance(w, complex)
            assert abs(w - fam.xi) < 1.0

    @given(family_f_maps(), complexes(-40.0, 10.0, -30.0, 30.0),
           st.integers(5, 40))
    @settings(max_examples=120, deadline=None)
    def test_budget_monotonicity_and_exclusivity(self, fam, z, budget):
        small = classify(fam, z, IterationConfig(max_iter=budget))
        large = classify(fam, z, IterationConfig(max_iter=4 * budget))
        if isinstance(small, Escaping):
            assert large == small
        if isinstance(small, NonEscapingProven):
            assert large == small
        # a budget-limited verdict may only refine, never contradict
        if isinstance(small, BoundedAtBudget) and \
                isinstance(large, (Escaping, NonEscapingProven)):
            assert large.step >= budget or isinstance(large, NonEscapingProven)

    @given(st.integers(0, 2 ** 63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_escaping_step_stable_across_budgets(self, raw):
        # seeds on the escaping ray of the principal strip
        x = -5.0 - (raw % 997) / 41.0
        z = complex(x, math.pi)
        n_small = classify(F11, z, IterationConfig(max_iter=150))
        n_large = classify(F11, z, IterationConfig(max_iter=600))
        if isinstance(n_small, Escaping):
            assert n_large == n_small
