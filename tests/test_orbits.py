import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdyn import blocks, maps, orbits
from expdyn.blocks import classify_points
from expdyn.fields import Window, classify_grid
from expdyn.maps import (
    Compose,
    Conjugate,
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
from expdyn.sampling import SampleSet

from helpers import (complexes, family_f_maps, family_g_maps,
                     pullback_escaping_seed, same_point)

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))
RIGHT = AbsorptionRule.RIGHT_HALF_PLANE_F
LEFT = AbsorptionRule.LEFT_HALF_PLANE_G
UNDERFLOW = AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD


class TestIterationConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            IterationConfig(max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "5", None])
    def test_budget_must_be_an_int(self, max_iter):
        # at construction, not mid-orbit, and a bool never runs as 0 or 1
        with pytest.raises(TypeError, match="max_iter must be an int"):
            IterationConfig(max_iter=max_iter)
        with pytest.raises(TypeError, match="max_iter must be an int"):
            IterationConfig(max_iter)

    def test_thresholds_are_constants(self):
        assert IterationConfig.__match_args__ == ("max_iter",)
        for name in ("overflow_log_threshold", "escape_real_threshold",
                     "degeneracy_eps", "generic_escape_radius"):
            with pytest.raises(TypeError):
                IterationConfig(**{name: 1.0})

    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg == IterationConfig(1000) == IterationConfig(max_iter=1000)
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


class TestChartVerdicts:
    """The family tests read through chart(expr) on conj and shift: conj's
    u = (z - b)/a, and shift's family map with a moved constant."""

    CONJ_F = Conjugate(complex(2, 0), complex(1, 0), F11)
    # (map, its constant in the chart coordinate u = (z - b)/a)
    TRANSPORTED = [
        (CONJ_F, complex(1, 0)),
        (Conjugate(complex(0.5, 1), complex(-3, 0), G11), complex(-1, 0)),
        (Shift(F11, complex(0.5, 0)), complex(1.5, 0)),
    ]

    @pytest.mark.parametrize("expr, const", TRANSPORTED)
    def test_transported_absorption_soundness(self, expr, const):
        # after a proven verdict, 100 further steps keep u within
        # distance 1 of the chart's constant
        f, a, b = chart(expr)
        assert f.const == const
        cfg = IterationConfig(max_iter=60)
        proven = 0
        for z0 in SampleSet.generate(5, 400, Window(-20, 20, -20, 20)).points:
            rec = run_orbit(expr, complex(z0), cfg)
            if not isinstance(rec.classification, NonEscapingProven):
                continue
            proven += 1
            w = rec.points[-1]
            for _ in range(100):
                w = evaluate(expr, w, cfg)
                assert isinstance(w, complex)
                assert abs((w - b) / a - const) <= 1.0 + 1e-9
        assert proven >= 100

    def test_ladder_point_in_the_half_plane_is_proven_at_its_step(self):
        # u = -750: one rung up, to a ladder point whose u lies in the
        # absorbing half plane; its step succeeds (the exponential
        # underflows onto phi(xi) = 3), and that proves the seed at step 1
        rec = run_orbit(self.CONJ_F, complex(-1499, 0))
        assert rec.classification == NonEscapingProven(UNDERFLOW, 1)
        assert rec.steps_taken == 2 and rec.points[-1] == complex(3, 0)

    @pytest.mark.parametrize("u0", [complex(-750, 0), complex(-800, 0.5)])
    def test_ladder_collapse_gets_the_family_maps_verdict(self, u0):
        # the seed u0 of F(-1, 1) and phi(u0) = 2*u0 + 1 of its conjugate
        # by phi get one verdict, from either engine
        want = classify(F11, u0)
        assert want.rule is UNDERFLOW
        assert classify(self.CONJ_F, 2 * u0 + 1) == want
        kinds, steps = classify_points(self.CONJ_F, np.array([2 * u0 + 1]))
        assert (int(kinds[0]), int(steps[0])) == verdict_code(want)

    def test_render_deep_grid_spends_no_budget(self):
        field = classify_grid(self.CONJ_F, Window(-19, 5, -16, 16), 40, 40,
                              IterationConfig(max_iter=60), workers=1)
        kinds = set(field.kinds.tobytes().decode())
        assert "B" not in kinds and "P" in kinds and "E" in kinds

    @pytest.mark.parametrize("mu, zeta", [
        (complex(-1, 0), complex(-1, 0)), (complex(-0.5, 1), complex(-2, 0.5)),
        (complex(-2, -1), complex(-1.5, -3))])
    def test_g_is_a_conjugate_of_f(self, mu, zeta):
        # G(mu, zeta) = conj(-1, 0, F(mu - i*pi, -zeta)): the same
        # half-plane test, and the same verdict kind on every seed whose
        # G orbit stays finite.  Overflow-ladder seeds are left out: their
        # phase can be lost to rounding (ROADMAP item 1).
        g = FamilyG(mu, zeta)
        f = Conjugate(complex(-1, 0), 0j,
                      FamilyF(mu - complex(0, math.pi), -zeta))
        g_u, a_g, b_g = chart(g)
        f_u, a_f, b_f = chart(f)
        for z in (complex(0.5, 3), complex(-2, -1), 0j):
            assert g_u.sign * ((z - b_g) / a_g).real == \
                f_u.sign * ((z - b_f) / a_f).real
        cfg = IterationConfig(max_iter=200)
        compared = 0
        for z0 in SampleSet.generate(3, 1000, Window(-10, 10, -10, 10)).points:
            rec = run_orbit(g, complex(z0), cfg)
            if not all(isinstance(p, complex) for p in rec.points):
                continue
            compared += 1
            assert type(classify(f, complex(z0), cfg)) is \
                type(rec.classification)
        assert compared >= 900
        # first-rung ladder seeds, whose phases are still exact: the
        # chart turns f's Directed points by arg(-1) = pi as well
        for z0 in (complex(750, 0), complex(750, 1), complex(760, -2)):
            assert type(classify(f, z0)) is type(classify(g, z0))


def verdict_code(verdict):
    """(kind code, step) as classify_points reports a verdict."""
    if isinstance(verdict, Escaping):
        return ord("E"), verdict.step
    if isinstance(verdict, NonEscapingProven):
        return ord("P"), verdict.step
    if isinstance(verdict, BoundedAtBudget):
        return ord("B"), -1
    return ord("U"), -1


# |z| of its first image passes DBL_MAX, with both parts finite
OVERFLOW_MAP = Conjugate(complex(2e4, 0), 0j, ScaledExp(complex(1, 0)))
OVERFLOW_SEED = complex(13999800, 47123.88980384689)


# a*v + b of its first step overflows on a finite v = exp(699 + i)
CONJ_OVERFLOW_MAP = Conjugate(complex(1e5, 0), 0j, ScaledExp(complex(1, 0)))
CONJ_OVERFLOW_SEED = complex(69900000, 100000)


class TestClassifyPoints:
    SEEDS = [complex(3, 4), complex(-0.5, 0), complex(-750, 0),
             complex(750, math.pi), complex(-4.25, 3.125), complex(10, 0),
             complex(0, 0), complex(math.nan, 0), complex(0, math.inf),
             OVERFLOW_SEED, complex(-30, 17.5), complex(-701, -2),
             CONJ_OVERFLOW_SEED, CONJ_OVERFLOW_SEED + complex(-1e5, 1e5),
             CONJ_OVERFLOW_SEED + complex(1e5, -3e5), complex(1e304, 1e303)]

    @pytest.mark.parametrize("expr", [
        F11, G11, FamilyF(-1, 1), FamilyG(-1.0, -1.0),
        ScaledExp(complex(1, 0)), ScaledExp(complex(0.5, 2)),
        Iterate(ScaledExp(complex(1, 0)), 2), Shift(F11, 0.5),
        Shift(ScaledExp(1), 1), Compose(F11, G11),
        Conjugate(2, 1, F11), Conjugate(complex(3, 1), -1, G11),
        Conjugate(complex(0.5, 1), complex(-3, 0), F11), OVERFLOW_MAP,
        CONJ_OVERFLOW_MAP, Conjugate(1e-5, 0, ScaledExp(1j))])
    def test_codes_match_classify(self, expr):
        for max_iter in (1, 5, 60):
            cfg = IterationConfig(max_iter=max_iter)
            kinds, steps = classify_points(expr, np.array(self.SEEDS), cfg)
            assert kinds.dtype == np.uint8 and steps.dtype == np.int64
            assert [(int(k), int(s)) for k, s in zip(kinds, steps)] == \
                [verdict_code(classify(expr, z, cfg)) for z in self.SEEDS]

    def test_empty_batch(self):
        kinds, steps = classify_points(F11, np.array([], dtype=complex))
        assert kinds.shape == steps.shape == (0,)

    def test_invalid_map_raises(self):
        with pytest.raises(InvalidMapError):
            classify_points(FamilyF(complex(1, 0), complex(1, 0)),
                            np.zeros(3, dtype=complex))

    def test_points_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            classify_points(F11, np.zeros((2, 2), dtype=complex))


class TestModulusOverflow:
    def test_log_modulus_past_dbl_max(self):
        z = complex(1.5e308, 1.5e308)
        assert maps._log_modulus(z) == pytest.approx(
            math.log(1.5e308) + 0.5 * math.log(2.0), rel=1e-15)
        assert maps._log_modulus(complex(3.0, 4.0)) == math.log(5.0)
        assert maps._log_modulus(0j) == -math.inf

    def test_classify_past_dbl_max(self):
        cfg = IterationConfig(max_iter=5)
        rec = run_orbit(OVERFLOW_MAP, OVERFLOW_SEED, cfg)
        z1 = rec.points[1]
        assert math.isfinite(z1.real) and math.isfinite(z1.imag)
        assert math.hypot(z1.real / 2, z1.imag / 2) > 0.5 * sys.float_info.max
        assert classify(OVERFLOW_MAP, OVERFLOW_SEED, cfg) == BoundedAtBudget()


class TestConjugateOverflow:
    def test_first_step_moves_onto_the_ladder(self):
        rec = run_orbit(CONJ_OVERFLOW_MAP, CONJ_OVERFLOW_SEED,
                        IterationConfig(max_iter=5))
        z1 = rec.points[1]
        assert isinstance(z1, Directed)
        assert z1.log_modulus == pytest.approx(699 + math.log(1e5), rel=1e-15)
        assert not isinstance(rec.classification, Undetermined)


# an orbit of iter(exp(1), 3) that saturates at Directed(inf, 0.0)
SATURATED_SEED = complex(-1.4629668047662054, -0.34743441032888267)


class TestFixedPointStop:
    """An orbit ends, bounded at budget, once the step returns the point it
    was given."""

    def test_saturated_orbit_stops_at_the_repeat(self):
        rec = run_orbit(Iterate(ScaledExp(1), 3), SATURATED_SEED)
        assert rec.classification == BoundedAtBudget()
        assert rec.steps_taken == 5
        assert rec.points[-2:] == (Directed(math.inf, 0.0),) * 2

    def test_lockstep_engine_stops_at_the_repeat(self, monkeypatch):
        live = []  # seeds moved by each lockstep application
        apply = blocks.evaluate_points

        def counting(*args):
            live.append(len(args[1]))
            return apply(*args)

        monkeypatch.setattr(blocks, "evaluate_points", counting)
        kinds, _ = classify_points(Iterate(ScaledExp(1), 3),
                                   np.array([SATURATED_SEED]))
        assert kinds.tolist() == [ord("B")]
        assert live == [1] * 5

    def test_signed_zero_is_not_a_repeat(self):
        # z -> exp(z) - 1 takes 0-0j to 0j, equal but not the same bits,
        # and 0j to itself
        rec = run_orbit(Shift(ScaledExp(1), -1), complex(0.0, -0.0))
        assert rec.points == (complex(0.0, -0.0), 0j, 0j)
        assert [math.copysign(1, p.imag) for p in rec.points] == [-1, 1, 1]
        assert rec.classification == BoundedAtBudget()
        assert rec.steps_taken == 2

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the repeat stop compares a point with the last one only, so a "
        "float cycle of period 2 spends the whole budget; Brent cycle "
        "detection is the remainder of ROADMAP item 18"))
    def test_period_two_cycle_stops_before_the_budget(self):
        rec = run_orbit(ScaledExp(-5), 0.3, IterationConfig(250))
        tail = rec.points[58:]
        # the cycle itself, which a mended stop still walks into; not an
        # assert, so that its loss fails the test instead of passing as
        # the expected failure
        if len(tail) < 3 or tail[2:] != tail[:-2] or tail[0] == tail[1]:
            pytest.fail(f"no period-2 cycle from step 58: {tail[:3]}")
        assert rec.steps_taken < 250, rec.classification

    def test_composite_laws_sample(self):
        # the maps and seeds of verify_composite_laws(exp(1), 2, 1) at 314
        samples = SampleSet.generate(314, 2000, Window(-2, 2, -2, 2))
        f = ScaledExp(complex(1, 0))
        g = Iterate(f, 1)
        cfg = IterationConfig()
        for expr in (Compose(f, g), Iterate(f, 3), f, g):
            codes, stopped = [], 0
            for z0 in samples.points:
                rec = run_orbit(expr, complex(z0), cfg)
                codes.append(verdict_code(rec.classification))
                if rec.classification == BoundedAtBudget() and \
                        rec.steps_taken < cfg.max_iter:
                    last = rec.points[-1]
                    assert same_point(evaluate(expr, last), last)
                    stopped += 1
            assert stopped == codes.count((ord("B"), -1))
            kinds, steps = classify_points(expr, samples.points, cfg)
            assert list(zip(kinds.tolist(), steps.tolist())) == codes


class TestGenericEscape:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the generic escape rule (|z| >= 1e10 and the next modulus no "
        "smaller) calls a far bounded orbit escaping; charts through "
        "shifted iterates are ROADMAP item 2"))
    def test_far_bounded_orbit_is_not_escaping(self):
        expr = Shift(Iterate(F11, 2), 1e11j)
        z = complex(0.5, 0.5)
        for _ in range(10):  # each iterate stays within 1.13 of 1e11*i
            z = evaluate(expr, z)
            if not abs(z - 1e11j) < 1.2:  # fails, not the expected failure
                pytest.fail(f"the orbit left 1e11*i: {z}")
        verdict = classify(expr, complex(0.5, 0.5), IterationConfig(10))
        assert not isinstance(verdict, Escaping), verdict
