"""The engines' NonEscapingProven verdicts against an independent replay
in mpmath (tests/oracle.py), which runs no code of the engines: it
contradicts the two known lost-phase verdicts and confirms sampled early
ones."""

import numpy as np
import pytest

from expdyn.fields import Window, classify_grid
from expdyn.maps import IterationConfig, ScaledExp
from expdyn.orbits import AbsorptionRule, NonEscapingProven, classify
from expdyn.parser import parse_map

from oracle import (
    CONFIRMED,
    CONTRADICTED,
    family_chart,
    replay_proven,
)

UNDERFLOW = AbsorptionRule.UNDERFLOW_TO_FIXED_NEIGHBORHOOD


class TestProvenReplay:
    # underflow-rule verdicts of ladder points whose angle the doubles
    # no longer carry: the true point lies far out in the repelling half
    # plane (ROADMAP item 1)
    @pytest.mark.parametrize("text, seed, max_iter", [
        ("F(-1, 1)", complex(-6.1767578125, 17.0703125), 250),
        ("conj(2, 1, F(-1, 1))",
         complex(-8.575000000000001, 7.299999999999999), 60),
    ], ids=["F", "render-deep"])
    def test_lost_phase_is_contradicted(self, text, seed, max_iter):
        expr = parse_map(text)
        verdict = classify(expr, seed, IterationConfig(max_iter=max_iter))
        assert verdict == NonEscapingProven(UNDERFLOW, 3)
        assert replay_proven(expr, seed, 3) == CONTRADICTED

    # steps 0 and 1 keep the phase: every sampled one is a theorem
    @pytest.mark.parametrize("text, window", [
        ("F(-1, 1)", (-30, 5, -20, 20)),
        ("G(-1, -1)", (-5, 30, -20, 20)),
        ("conj(2, 1, F(-1, 1))", (-19, 5, -16, 16)),
        ("conj(3+1i, -1, G(-1, -1))", (-30, 30, -30, 30)),
        ("shift(F(-1, 2), -0.5+1i)", (-30, 5, -20, 20)),
    ])
    def test_early_verdicts_are_confirmed(self, text, window):
        expr = parse_map(text)
        field = classify_grid(expr, Window(*window), 96, 96,
                              IterationConfig(max_iter=60))
        early = np.flatnonzero((field.kinds == ord("P")) & (field.steps <= 1))
        assert set(field.steps[early].tolist()) == {0, 1}
        rng = np.random.default_rng(20140609)
        for k in rng.choice(early, size=min(150, len(early)),
                            replace=False).tolist():
            z0 = field.center(k % field.nx, k // field.nx)
            assert replay_proven(expr, z0, int(field.steps[k])) == CONFIRMED, z0

    def test_replay_needs_a_family_chart(self):
        with pytest.raises(ValueError, match="no family chart"):
            family_chart(ScaledExp(1))
        with pytest.raises(ValueError, match="leaves the family"):
            family_chart(parse_map("shift(F(-1, 1), -3)"))
