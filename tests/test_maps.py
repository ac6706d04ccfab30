import cmath
import hashlib
import itertools
import math
import struct
import typing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expdyn import blocks, maps, orbits
from expdyn.blocks import _ARRAYS, evaluate_points
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
    MapExpr,
    ScaledExp,
    Shift,
    chart,
    evaluate,
    period_of,
    validate,
)
from expdyn.parser import parse_map

from helpers import complexes, family_f_maps, map_exprs, naive_apply, same_point

F11 = FamilyF(complex(-1, 0), complex(1, 0))
G11 = FamilyG(complex(-1, 0), complex(-1, 0))
# (map, a Directed angle pointing into its absorbing half plane, one
# pointing into its escaping half plane, the sign of z in its exponent);
# both maps have parameter -1 and additive constant -sign
LADDER_CASES = [(F11, 0.0, math.pi, -1.0), (G11, math.pi, 0.0, 1.0)]
TWO_PI_I = complex(0.0, 2.0 * math.pi)
_PAIR = struct.Struct("dd")


def _replace(node, name, value):
    """node with its field name set to value."""
    return type(node)(*(value if field == name else getattr(node, field)
                        for field in node.__match_args__))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidate:
    def test_valid_family_f(self):
        validate(F11)  # no raise

    def test_valid_family_g(self):
        validate(G11)  # no raise

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("node, name", [
        (F11, "lam"), (F11, "xi"), (G11, "mu"), (G11, "zeta"),
        (ScaledExp(complex(1, 0)), "lam"), (Shift(F11, complex(1, 0)), "c"),
        (Conjugate(complex(2, 0), complex(1, 0), F11), "a"),
        (Conjugate(complex(2, 0), complex(1, 0), F11), "b"),
    ])
    def test_non_finite_parameter_rejected(self, node, name, value):
        # a non-finite real or imaginary part, two levels down the tree
        good = getattr(node, name)
        for bad in (complex(value, good.imag), complex(good.real, value)):
            expr = Compose(F11, Iterate(_replace(node, name, bad), 2))
            with pytest.raises(InvalidMapError) as exc:
                validate(expr)
            assert exc.value.path == "inner.base"

    def test_own_constraint_reported_before_finiteness(self):
        with pytest.raises(InvalidMapError, match=r"Re\(zeta\) <= -1"):
            validate(FamilyG(complex(-1, 0), complex(math.inf, 0)))

    def test_node_kinds_are_the_map_kinds(self):
        assert tuple(maps.NODE_KINDS) == typing.get_args(MapExpr)

    def test_no_keyword_is_a_prefix_of_another(self):
        # the parser takes the first keyword the text starts with
        keywords = [kind.keyword for kind in maps.NODE_KINDS.values()]
        assert len(set(keywords)) == len(keywords)
        for a, b in itertools.permutations(keywords, 2):
            assert not b.startswith(a)

    # each node breaks only the named constraint, two levels down the tree
    @pytest.mark.parametrize("node, constraint, message", [
        (FamilyF(complex(1, 0), complex(1, 0)), "Re(lambda) < 0",
         "inner.base: constraint 'Re(lambda) < 0' violated (got 1.0)"),
        (FamilyF(complex(-1, 0), complex(0.5, 2)), "Re(xi) >= 1",
         "inner.base: constraint 'Re(xi) >= 1' violated (got 0.5)"),
        (FamilyG(complex(0, 0), complex(-1, 0)), "Re(mu) < 0",
         "inner.base: constraint 'Re(mu) < 0' violated (got 0.0)"),
        (FamilyG(complex(-1, 0), complex(-0.5, -2)), "Re(zeta) <= -1",
         "inner.base: constraint 'Re(zeta) <= -1' violated (got -0.5)"),
        (ScaledExp(complex(0, 0)), "lambda != 0",
         "inner.base: constraint 'lambda != 0' violated"),
        (Iterate(F11, 0), "s >= 1",
         "inner.base: constraint 's >= 1' violated (got 0)"),
        (Conjugate(complex(0, 0), complex(1, 0), F11), "a != 0",
         "inner.base: constraint 'a != 0' violated"),
    ])
    def test_each_own_constraint(self, node, constraint, message):
        with pytest.raises(InvalidMapError) as exc:
            validate(Compose(F11, Iterate(node, 2)))
        assert exc.value.constraint == constraint
        assert exc.value.path == "inner.base"
        assert str(exc.value) == message

    # an argument of the wrong kind, two levels down the tree: reported
    # before any constraint reads it, and never run as some other value
    @pytest.mark.parametrize("node, constraint, message", [
        (Iterate(F11, True), "s is an int",
         "inner.base: constraint 's is an int' violated (got True)"),
        (Iterate(F11, 2.0), "s is an int",
         "inner.base: constraint 's is an int' violated (got 2.0)"),
        (FamilyF("a", 1), "lam is a number",
         "inner.base: constraint 'lam is a number' violated (got 'a')"),
        (FamilyG(-1, None), "zeta is a number",
         "inner.base: constraint 'zeta is a number' violated (got None)"),
        (Conjugate(2, 1j, "F(-1, 1)"), "base is a map",
         "inner.base: constraint 'base is a map' violated (got 'F(-1, 1)')"),
        (Compose(F11, 1j), "inner is a map",
         "inner.base: constraint 'inner is a map' violated (got 1j)"),
    ])
    def test_argument_of_the_wrong_kind(self, node, constraint, message):
        with pytest.raises(InvalidMapError) as exc:
            validate(Compose(F11, Iterate(node, 2)))
        assert exc.value.constraint == constraint
        assert exc.value.path == "inner.base"
        assert str(exc.value) == message

    def test_numbers_of_every_kind_are_parameters(self):
        # ints and floats are numbers too, as chart's shifted maps carry
        validate(Conjugate(2, 1.5, Shift(FamilyF(-1, 1), 0.5)))
        validate(Iterate(ScaledExp(1.0), 3))

    def test_trees_are_immutable(self):
        with pytest.raises(AttributeError):
            F11.lam = complex(-2, 0)


# ---------------------------------------------------------------------------
# one-step evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_exponent_cancels(self):
        assert evaluate(F11, complex(-1, 0)) == complex(2, 0)

    def test_high_precision_scalar(self):
        # independently computed with 40-digit arithmetic
        got = evaluate(F11, complex(0, 0))
        assert abs(got - complex(1.3678794411714423216, 0)) < 1e-15

    def test_high_precision_offaxis(self):
        got = evaluate(F11, complex(0.3, 0.7))
        want = complex(1.208443812688697705663, -0.1755698014071126805579)
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_high_precision_general_params(self):
        fam = FamilyF(complex(-2, 0.5), complex(1.5, -0.25))
        got = evaluate(fam, complex(-0.4, 1.1))
        want = complex(1.666632386827241850989, -0.3639993492903474937335)
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_overflow_to_directed(self):
        got = evaluate(F11, complex(-750, 0))
        assert got == Directed(749.0, 0.0)

    def test_directed_underflow_collapses_to_xi(self):
        for fam, absorbing, _, sign in LADDER_CASES:
            assert evaluate(fam, Directed(749.0, absorbing)) == complex(-sign, 0)

    def test_directed_deepening(self):
        mag = math.exp(700.5)
        for fam, _, escaping, sign in LADDER_CASES:
            got = evaluate(fam, Directed(700.5, escaping))
            assert isinstance(got, Directed)
            assert got.log_modulus == mag * (sign * math.cos(escaping)) - 1.0
            assert got.angle == sign * mag * math.sin(escaping)

    def test_directed_saturates_past_double_range(self):
        for fam, _, escaping, _ in LADDER_CASES:
            got = evaluate(fam, Directed(749.0, escaping))
            assert isinstance(got, Directed)
            assert got.log_modulus == math.inf

    def test_directed_degenerate_phase(self):
        for fam in (F11, G11):
            with pytest.raises(DegeneratePhaseError):
                evaluate(fam, Directed(800.0, math.pi / 2))

    def test_directed_angle_beyond_resolution(self):
        with pytest.raises(DegeneratePhaseError):
            evaluate(F11, Directed(800.0, 1e17))

    def test_family_g_mirrors_family_f(self):
        # exp(z+mu)+zeta = [exp(-(-z)+mu)+xi] - xi + zeta
        z = complex(0.4, -1.3)
        got = evaluate(G11, z)
        mirror = evaluate(FamilyF(complex(-1, 0), complex(1, 0)), -z)
        assert abs(got - (mirror - 2)) < 1e-15

    def test_scaled_exp(self):
        got = evaluate(ScaledExp(complex(0.5, -0.3)), complex(1, 2))
        want = complex(2.29771291272093473664, 1.93533688802482113899)
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_scaled_exp_directed_underflow_to_zero(self):
        got = evaluate(ScaledExp(complex(1, 0)), Directed(800.0, math.pi))
        assert got == complex(0, 0)

    def test_shift_drops_constant_on_directed(self):
        expr = Shift(F11, complex(5, 5))
        assert evaluate(expr, complex(-750, 0)) == Directed(749.0, 0.0)

    def test_conjugate_algebraic_form(self):
        expr = Conjugate(complex(2, 0), complex(1, 0), F11)
        z = complex(0.2, 0.1)
        want = 2 * naive_apply(F11, (z - 1) / 2) + 1
        got = evaluate(expr, z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_conjugate_rescales_directed(self):
        expr = Conjugate(complex(math.e, 0), complex(0, 0), F11)
        got = evaluate(expr, complex(-750 * math.e, 0))
        assert isinstance(got, Directed)
        assert got.log_modulus == pytest.approx(749.0 + 1.0)

    def test_conjugate_image_overflow_moves_onto_the_ladder(self):
        # a*v + b overflows on the finite v = exp(699 + i)
        w = evaluate(Conjugate(1e5, 0, ScaledExp(1)), complex(69900000, 100000))
        assert isinstance(w, Directed)
        assert w.log_modulus == pytest.approx(699 + math.log(1e5), rel=1e-15)
        assert w.angle == pytest.approx(1.0, rel=1e-15)

    def test_conjugate_preimage_overflow_moves_onto_the_ladder(self):
        # (z - b)/a overflows: u = Directed(ln|z| + ln 1e5, arg z), whose
        # image under exp(i u) underflows to 0
        assert evaluate(Conjugate(1e-5, 0, ScaledExp(1j)),
                        complex(1e304, 1e303)) == 0j

    def test_non_finite_phase_becomes_nan(self):
        got = evaluate(F11, complex(0.0, math.inf))
        assert math.isnan(got.real) and math.isnan(got.imag)


class TestStepReadsNoSetting:
    """evaluate accepts a config and reads none of it: with none, with
    max_iter 1 and with the default, each point gets the same bits, or
    DegeneratePhaseError under all three."""

    @staticmethod
    def sample():
        """Seeded finite points, some past the rung, and ladder points, a
        third of them within 1e-12 of a zero of cos(angle)."""
        rng = np.random.default_rng(22)
        finite = (rng.uniform(-800, 800, 300)
                  + 1j * rng.uniform(-1e3, 1e3, 300)).tolist()
        lm = 700.0 + 10.0 ** rng.uniform(-2, 5, 300)
        angle = np.concatenate([
            rng.uniform(-10, 10, 200),
            rng.choice([-0.5, 0.5], 100) * math.pi
            + rng.uniform(-1e-12, 1e-12, 100)])
        return finite + [Directed(a, b)
                         for a, b in zip(lm.tolist(), angle.tolist())]

    @pytest.mark.parametrize("expr", [
        F11, G11, ScaledExp(-2), Conjugate(2, 1, F11),
        Conjugate(-3, 1j, ScaledExp(1)), Compose(F11, G11),
        Compose(ScaledExp(1j), Conjugate(2, 1, G11))])
    def test_same_bits_under_every_config(self, expr):
        reached = set()
        for z in self.sample():
            got = []
            for cfg in ((), (IterationConfig(max_iter=1),),
                        (maps.DEFAULT_CONFIG,)):
                try:
                    got.append(evaluate(expr, z, *cfg))
                except DegeneratePhaseError:
                    got.append(None)
            if got[0] is None:
                assert got == [None] * 3, z
            else:
                assert all(v is not None and same_point(v, got[0])
                           for v in got[1:]), (z, got)
            reached.add(type(got[0]))
        assert reached == {complex, Directed, type(None)}


def _bits(x: float) -> str:
    # tells -0.0 from 0.0; every NaN reads alike
    return repr(float(x))


class TestEvaluatePoints:
    """evaluate_points against evaluate, point by point, to the bit."""

    FINITE = ([complex(x, y) for x in (-760, -701, -30, -2.5, -1, 0, 0.5, 3,
                                       699.5, 705, 1e6)
               for y in (-1e17, -4, -math.pi / 2, 0, 1e-300, 2.75, 7e16)]
              + [complex(math.nan, 0), complex(0, math.inf),
                 complex(-math.inf, 1), complex(-0.0, -0.0),
                 complex(1.5e308, -1.5e308), complex(69900000, 100000),
                 complex(1e304, 1e303),
                 # exp(1) puts it at Directed(705, pi/2 + 4.7e-7), where
                 # F(-1e300, 1) deepens to a log-modulus of -2.9e299
                 complex(705, 1.5707968)])
    DIRECTED = [Directed(lm, angle)
                for lm in (700.5, 705, 709.0, 709.5, 800, 1e300, math.inf)
                for angle in (0.0, 1.0, math.pi / 2, -math.pi / 2 + 1e-13,
                              math.pi, 2.0 ** 53, -5e15, math.nan)]

    @pytest.mark.parametrize("expr", [
        F11, G11, FamilyF(-1, 1), FamilyF(complex(-0.5, 2), complex(3, -1)),
        ScaledExp(complex(1, 0)), ScaledExp(complex(-0.5, 2)),
        Iterate(F11, 3), Iterate(ScaledExp(1), 2),
        Shift(G11, complex(0.5, 1)), Shift(ScaledExp(1), 1.0),
        Compose(ScaledExp(1), F11), Compose(G11, Iterate(F11, 2)),
        Conjugate(2, 1, F11), Conjugate(complex(3, 1), -1, G11),
        Conjugate(complex(0.25, -4), complex(1, 1), ScaledExp(1)),
        Conjugate(complex(1e5, 1e5), 0j, ScaledExp(1)),
        Conjugate(1e5, 0, ScaledExp(1)), Conjugate(1e-5, 0, ScaledExp(1j)),
        # a base that is degenerate at 0: a pre-image that drops below the
        # rung is stepped by evaluate, whatever the base gives at 0
        Conjugate(math.e, 0,
                  Compose(ScaledExp(1j), Iterate(ScaledExp(710), 2))),
        # ladder steps that deepen to the rung or below: F's constant and
        # a tiny lam pull the log-modulus down from above 700
        Compose(FamilyF(-1e300, 1), ScaledExp(1)), ScaledExp(1e-305)])
    def test_matches_evaluate(self, expr):
        pts = self.FINITE + self.DIRECTED
        re = np.array([p.real if isinstance(p, complex) else p.log_modulus
                       for p in pts])
        im = np.array([p.imag if isinstance(p, complex) else p.angle
                       for p in pts])
        directed = np.array([isinstance(p, Directed) for p in pts])
        out_re, out_im, out_d, bad = evaluate_points(expr, re, im, directed)
        for k, p in enumerate(pts):
            try:
                want = evaluate(expr, p)
            except DegeneratePhaseError:
                assert bad[k], p
                continue
            assert not bad[k], p
            assert out_d[k] == isinstance(want, Directed), p
            got = (out_re[k], out_im[k])
            if isinstance(want, Directed):
                assert [_bits(v) for v in got] == \
                    [_bits(want.log_modulus), _bits(want.angle)], p
                # a ladder point always lies above the rung
                assert not want.log_modulus <= 700.0, p
            else:
                assert [_bits(v) for v in got] == \
                    [_bits(want.real), _bits(want.imag)], p
        assert not np.any(out_d & ~bad & (out_re <= 700.0))


def math_exp_step(expr, z: complex):
    """One step of F, G or exp(lam) from a finite-or-infinite complex z by
    math.exp, math.cos and math.sin: exp(wr)*cos(wi), exp(wr)*sin(wi)
    up to the rung, Directed(w) past it or for a NaN wr, NaN or 0 for a
    wi that is not finite.  The oracle of the engines' exponential."""
    sign = getattr(expr, "sign", None)
    if sign is not None:
        wr = sign * z.real + expr.param.real
        wi = sign * z.imag + expr.param.imag
        const = complex(expr.const)
    else:  # no constant, and so no +0.0 added to a -0.0 part
        lam = expr.lam
        wr = lam.real * z.real - lam.imag * z.imag
        wi = lam.real * z.imag + lam.imag * z.real
        const = None
    if not wr <= 700.0:
        return Directed(wr, wi)
    m = math.exp(wr)
    if math.isfinite(wi):
        cr, ci = m * math.cos(wi), m * math.sin(wi)
    else:
        cr = ci = 0.0 if m == 0.0 else math.nan
    if const is None:
        return complex(cr, ci)
    return complex(cr + const.real, ci + const.imag)


class TestExpStep:
    """The finite exponential of both engines against math_exp_step.

    The block engine takes every exp, cos and sin as numpy's complex exp,
    so this class fails, under its own name, on a platform where that is
    not the cexp that matches the math module bit for bit."""

    MAPS = [F11, G11, FamilyF(-1, 1), FamilyF(complex(-1, -0.0), 1),
            FamilyF(complex(-0.5, 2), complex(3, -1)),
            FamilyG(complex(-2.5, -1e-3), complex(-1, 4)),
            ScaledExp(1.0), ScaledExp(complex(1, 0)),
            ScaledExp(complex(-0.5, 2)), ScaledExp(complex(0, -3))]

    @staticmethod
    def points(expr):
        """Seeded z whose exponent w has Re in [-760, 705] and |Im| up to
        1e17, then edge inputs: Re w at the subnormal end and at the rung
        700 exactly, signed zero, huge and non-finite Im, Re z infinite."""
        rng = np.random.default_rng(20140609)
        wr = rng.uniform(-760.0, 705.0, 8000)
        wi = rng.choice([-1.0, 1.0], 8000) * 10.0 ** rng.uniform(-3, 17, 8000)
        wr[:1000] = rng.uniform(-745.2, -708.0, 1000)  # subnormal results
        edge_r = [-745.2, -745.13, -745.0, -744.5, -708.4, -708.0, -1.0,
                  -0.0, 0.0, 699.0, 700.0, np.nextafter(700.0, 701.0)]
        edge_i = [0.0, -0.0, 1e-310, -1.0, 2.0 ** 52, -(2.0 ** 52), 2.0 ** 53 + 2,
                  1e17, -1e17, 1e300, math.inf, -math.inf, math.nan]
        w = [complex(r, i) for r, i in zip(wr.tolist(), wi.tolist())]
        w += [complex(r, i) for r in edge_r for i in edge_i]
        # z with that exponent, up to the rounding of the inverse
        sign = getattr(expr, "sign", None)
        if sign is not None:
            zs = [complex(sign * (v.real - expr.param.real),
                          sign * (v.imag - expr.param.imag)) for v in w]
        else:
            zs = [v / expr.lam for v in w]
        # Re w = 700 and signed zero Im w exactly, and Re w = -inf
        zs += [complex(x, y) for x in (-701.0, 699.0, 700.0, -700.0, 5.0, -5.0)
               for y in (0.0, -0.0)]
        zs += [complex(x, y) for x in (math.inf, -math.inf)
               for y in (0.0, -0.0, 1.0, -2.0, 2.0 ** 60)]
        return zs

    @pytest.mark.parametrize("expr", MAPS)
    def test_evaluate_matches_math(self, expr):
        for z in self.points(expr):
            want, got = math_exp_step(expr, z), evaluate(expr, z)
            assert same_point(got, want), (z, got, want)

    @pytest.mark.parametrize("expr", MAPS)
    def test_evaluate_points_matches_math(self, expr):
        zs = self.points(expr)
        re = np.array([z.real for z in zs])
        im = np.array([z.imag for z in zs])
        out_re, out_im, out_d, bad = evaluate_points(
            expr, re, im, np.zeros(len(zs), dtype=bool))
        assert not bad.any()
        for k, z in enumerate(zs):
            got = Directed(out_re[k], out_im[k]) if out_d[k] else \
                complex(out_re[k], out_im[k])
            want = math_exp_step(expr, z)
            assert same_point(got, want), (z, got, want)

    @staticmethod
    def ladder():
        """Seeded Directed points past the rung, log-modulus up to 1e5 and
        angles up to 2^52, then edges: exp of the log-modulus saturating,
        signed zero and subnormal angles, the phase limit 2^52 and just
        past it, cos near 0, and non-finite angles."""
        rng = np.random.default_rng(20140610)
        lm = np.concatenate([rng.uniform(700.0, 709.0, 3000),
                             700.0 + 10.0 ** rng.uniform(-2, 5, 1000)])
        angle = rng.choice([-1.0, 1.0], 4000) * 2.0 ** rng.uniform(-10, 52, 4000)
        pts = [Directed(a, b) for a, b in zip(lm.tolist(), angle.tolist())]
        edge_lm = [700.5, 708.9, 709.0, 709.5, 709.78, 710.0, 1e5, math.inf]
        edge_angle = [0.0, -0.0, 1e-310, -1.0, math.pi / 2, -math.pi / 2,
                      2.0 ** 52, -(2.0 ** 52), np.nextafter(2.0 ** 52, math.inf),
                      1e17, math.inf, math.nan]
        return pts + [Directed(a, b) for a in edge_lm for b in edge_angle]

    @pytest.mark.parametrize("expr", MAPS)
    def test_ladder_points_match_evaluate(self, expr):
        # the collapse of F and G, and exp(lam) on the ladder
        pts = self.ladder()
        re = np.array([p.log_modulus for p in pts])
        im = np.array([p.angle for p in pts])
        out_re, out_im, out_d, bad = evaluate_points(
            expr, re, im, np.ones(len(pts), dtype=bool))
        for k, p in enumerate(pts):
            try:
                want = evaluate(expr, p)
            except DegeneratePhaseError:
                assert bad[k], p
                continue
            assert not bad[k], p
            got = Directed(out_re[k], out_im[k]) if out_d[k] else \
                complex(out_re[k], out_im[k])
            assert same_point(got, want), (p, got, want)

    @pytest.mark.parametrize("expr", MAPS + [Conjugate(2, 1, F11),
                                             Conjugate(complex(3, 1), -1, G11)])
    def test_ladder_seeds_match_classify(self, expr):
        # seeds whose first step lands past the rung: the effective real
        # part of a Directed point in the escape test, the collapse and
        # the ladder of exp(lam)
        rng = np.random.default_rng(20140611)
        wr = 700.0 + 10.0 ** rng.uniform(-2, 5, 600)
        wi = rng.choice([-1.0, 1.0], 600) * 2.0 ** rng.uniform(-10, 52, 600)
        base = getattr(expr, "base", expr)
        sign = getattr(base, "sign", None)
        w = wr + 1j * wi
        z = sign * (w - base.param) if sign is not None else w / base.lam
        if isinstance(expr, Conjugate):
            z = expr.a * z + expr.b
        cfg = IterationConfig(max_iter=12)
        kinds, steps = blocks.classify_points(expr, z, cfg)
        codes = {orbits.Escaping: "E", orbits.NonEscapingProven: "P",
                 orbits.BoundedAtBudget: "B", orbits.Undetermined: "U"}
        for k, z0 in enumerate(z.tolist()):
            v = orbits.classify(expr, z0, cfg)
            assert (chr(kinds[k]), steps[k]) == \
                (codes[type(v)], getattr(v, "step", -1)), (z0, v)

    @pytest.mark.parametrize("expr", MAPS + [Conjugate(2, 1, F11)])
    def test_no_numpy_float_kernel(self, expr, monkeypatch):
        # numpy's float exp, cos, sin and log are its own code, not libm's,
        # and may differ in the last bit; the block engine calls none of
        # them, and np.exp only on complex arrays
        def refuse(*args, **kwargs):
            raise AssertionError("numpy float kernel called")

        np_exp = np.exp

        def complex_exp(x, *args, **kwargs):
            assert np.asarray(x).dtype == complex, "np.exp on floats"
            return np_exp(x, *args, **kwargs)

        pts = self.ladder()
        re = np.array([p.log_modulus for p in pts])
        im = np.array([p.angle for p in pts])
        zs = np.array(self.points(getattr(expr, "base", expr)))
        for name in ("cos", "sin", "log"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(np, "exp", complex_exp)
        evaluate_points(expr, re, im, np.ones(len(pts), dtype=bool))
        evaluate_points(expr, zs.real, zs.imag, np.zeros(len(zs), dtype=bool))
        blocks.classify_points(expr, zs, IterationConfig(max_iter=12))

    @staticmethod
    def pinned_ladder():
        """Seeded Directed points for the ladder pin: five log-moduli, from
        just past the rung to saturated, each with edge angles (signed
        zeros, the doubles around +-pi/2, the phase limit 2^52 and the
        next double, non-finite) and 2,000 seeded ones, of which 600 sit
        within 1e-10 of a zero of cos(angle) or of Re((0.5+2i)e^{i angle})."""
        rng = np.random.default_rng(20140612)
        angles = (rng.choice([-1.0, 1.0], 1400)
                  * 2.0 ** rng.uniform(-10, 52, 1400)).tolist()
        near = (math.pi / 2 + math.pi * rng.integers(-1000, 1000, 600)
                - rng.choice([0.0, math.atan2(2.0, 0.5)], 600)
                + rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-16, -10, 600))
        angles += near.tolist()
        for a in (math.pi / 2, -math.pi / 2, 2.0 ** 52, -(2.0 ** 52)):
            angles += [np.nextafter(a, -math.inf), a, np.nextafter(a, math.inf)]
        angles += [0.0, -0.0, math.inf, -math.inf, math.nan]
        return [Directed(lm, a) for lm in (700.5, 709.0, 709.5, 1e5, math.inf)
                for a in angles]

    # sha256 of each step's kind and bits, or of the raise
    LADDER_PINS = [
        ("F(-1, 1)",
         "26c822410f6daa1e4175927ebf5b8be01a5d91e5efd4dd127307c97181c41699"),
        ("G(-1, -1)",
         "8248d41b911cca31acfa1d91febb9a134b1b17f13dea00f159fda865b95bd474"),
        ("F(-1-0i, 1-0i)",
         "9673bcaa7b01fe11ee42dde9b3150703fb969d9c35a0e0ec79e801fe59437f28"),
        ("G(-2+3i, -1-2i)",
         "4b99638c169a5bac9aca9220416a3a848c61887c5f87c2f88da898b0b6931333"),
        ("exp(1)",
         "8507ce72086e3e3196f7588299a3381aef3c37cc1c534fa13ae59260f51f9fee"),
        ("exp(0.5+2i)",
         "ea1667e39d9c0ad858cb838df62e78762f9cf645253e9507ef9d8038267fa355"),
        ("exp(-0.3-0i)",
         "93bd600b62d248904c47b7688657278ca54af6c29677a750b011c9c68d97b492"),
    ]

    @pytest.mark.parametrize("text, digest", LADDER_PINS)
    def test_ladder_bits_pinned(self, text, digest):
        # evaluate on the ladder, bit for bit; test_ladder_points_match_evaluate
        # holds evaluate_points to it
        expr = parse_map(text)
        h = hashlib.sha256()
        for p in self.pinned_ladder():
            try:
                v = evaluate(expr, p)
            except DegeneratePhaseError:
                h.update(b"X")
                continue
            h.update(b"D" + _PAIR.pack(v.log_modulus, v.angle)
                     if isinstance(v, Directed) else
                     b"F" + _PAIR.pack(v.real, v.imag))
        assert h.hexdigest() == digest

    @staticmethod
    def pinned_steps():
        """Seeded points for the step pin: 1,500 finite ones with Re in
        [-760, 760] and |Im| up to 1e17, and 300 of modulus up to 1e308;
        finite edges where the exponent of F(-1, 1), G(-1, -1), exp(1) or
        exp(0.5+2i) is 700 or one ulp either side, with signed zero, huge
        and non-finite Im; the conj crossings of TestLadderCrossings; and
        ladder points, seeded ones and edges at the rung, the saturation
        of exp and the phase limit 2^52."""
        rng = np.random.default_rng(20140613)
        pts = [complex(x, y) for x, y in zip(
            rng.uniform(-760.0, 760.0, 1500).tolist(),
            (rng.choice([-1.0, 1.0], 1500)
             * 10.0 ** rng.uniform(-3, 17, 1500)).tolist())]
        pts += [cmath.rect(r, t) for r, t in zip(
            (10.0 ** rng.uniform(0, 308, 300)).tolist(),
            rng.uniform(-math.pi, math.pi, 300).tolist())]
        xs = [v for x in (700.0, 701.0, 1400.0) for s in (-1.0, 1.0)
              for v in (math.nextafter(s * x, -math.inf), s * x,
                        math.nextafter(s * x, math.inf))]
        pts += [complex(x, y) for x in xs
                for y in (0.0, -0.0, 1.0, -2.5, 2.0 ** 52, 1e17, math.inf,
                          -math.inf, math.nan)]
        pts += [z0 for _, z0 in TestLadderCrossings.CASES]
        pts += [Directed(a, b) for a, b in zip(
            (700.0 + 10.0 ** rng.uniform(-2, 5, 500)).tolist(),
            (rng.choice([-1.0, 1.0], 500)
             * 2.0 ** rng.uniform(-10, 52, 500)).tolist())]
        pts += [Directed(a, b)
                for a in (700.5, 709.0, 709.5, 1e5, math.inf)
                for b in (0.0, -0.0, 1.0, math.pi / 2, -math.pi / 2, 2.0 ** 52,
                          math.nextafter(2.0 ** 52, math.inf), math.inf,
                          math.nan)]
        return pts

    # sha256 of each step's kind and bits, or of the raise: one map per
    # node kind, then conj maps whose transport crosses onto the ladder
    # (TestLadderCrossings) or drops a ladder point off it, on the way in
    # or out
    STEP_PINS = [
        ("F(-1, 1)",
         "f788bdb5ffe6997030061bd6e819c0d5b60787504e4d60c423f255a9c6cf4723"),
        ("G(-2+3i, -1-2i)",
         "702ea2471456f781193596e8946a3ef82c6a7e3aca0fafcdef1bb28456845d8d"),
        ("exp(0.5+2i)",
         "030aaa9ae4f58e6662c6251c871c4dab2ce6679492c0583ef41786d6bca8a120"),
        ("iter(exp(1), 3)",
         "25487f718c9b8b592890ee07689f8c16518171319f3c4feb15f069f0b90417ba"),
        ("shift(iter(exp(1), 2), 0+6.283185307179586i)",
         "462df3ce6bda23c556109545e4d7df3bbac0b7bed62a239add062166073b7ecf"),
        ("comp(F(-1, 1), G(-1, -1))",
         "8cce339f965cae3c97d5a2b9f1ecfb883acbe7680316bbde56c94e954a342e87"),
        ("conj(2, 1, F(-1, 1))",
         "1a8b169794b70a001b76fd41178fd103978af10de63c0e58950128e66601d491"),
        ("conj(-1e-300, 0, F(-1, 1))",
         "432b34d853f17385484a8f1d05ba2008009f58eceff28c7af5321eb45d378240"),
        ("conj(1e10, 0, F(-1, 1e300))",
         "07d9b28a959c1ab90c051ca6f5f9ff30a907efbf5dc996f512b61ea9b2b92909"),
        ("conj(1e10, 0, exp(1))",
         "6f890f15b9d36af6ae7fe1b1990d72692e88ebaffa3d68cb7ef244c4b408a606"),
        ("conj(1e-10, 1, exp(1))",
         "aded9e5ff4dbd2e97d6cdaecb2d218d1e199faeb3088620e3a5f593089491d4d"),
    ]

    @pytest.mark.parametrize("text, digest", STEP_PINS)
    def test_step_bits_pinned(self, text, digest):
        # evaluate on finite and ladder points, bit for bit;
        # TestEvaluatePoints holds evaluate_points to it
        expr = parse_map(text)
        h = hashlib.sha256()
        for p in self.pinned_steps():
            try:
                v = evaluate(expr, p)
            except DegeneratePhaseError:
                h.update(b"X")
                continue
            h.update(b"D" + _PAIR.pack(v.log_modulus, v.angle)
                     if isinstance(v, Directed) else
                     b"F" + _PAIR.pack(v.real, v.imag))
        assert h.hexdigest() == digest

    def test_conjugate_demotion_matches_math(self):
        # a Directed point that drops below the rung in conj is demoted
        # to exp(log_modulus)*(cos, sin) angle
        for lm in (-745.0, -700.5, -1.0, 0.0, 3.5, 699.0, 700.0):
            for angle in (0.0, -0.0, 2.5, -1e-300, 2.0 ** 52, -1e17):
                m = math.exp(lm)
                want = complex(m * math.cos(angle), m * math.sin(angle))
                assert same_point(maps._normalize(lm, angle), want)


class TestLadderCrossings:
    """A finite point whose conj transport overflows moves onto the ladder
    at the angle math.atan2 gives: cmath.phase raised OverflowError where
    atan2 underflows."""

    # (map, seed): (z - b)/a overflows on the way in; a*v + b on the way out
    CASES = [("conj(-1e-300, 0, F(-1, 1))", complex(1e300, 1e-30)),
             ("conj(1e10, 0, F(-1, 1e300))", complex(-5e10, 1e-20))]

    def test_atan2_is_cmath_phase(self):
        rng = np.random.default_rng(21)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   1.0, -1.0, 1e-300, -1e300, 1.7e308]
        values = special + (rng.choice([-1.0, 1.0], 300)
                            * 10.0 ** rng.uniform(-320, 308, 300)).tolist()
        raised = 0
        for x, y in itertools.product(values, repeat=2):
            try:
                phase = cmath.phase(complex(x, y))
            except OverflowError:
                raised += 1
                continue
            assert _bits(math.atan2(y, x)) == _bits(phase), (x, y)
        assert raised > 0

    @pytest.mark.parametrize("text, z0", CASES)
    def test_crossing_steps_in_both_engines(self, text, z0):
        expr = parse_map(text)
        v = evaluate(expr, z0)
        assert isinstance(v, Directed)
        re, im, d, bad = evaluate_points(expr, np.array([z0.real]),
                                         np.array([z0.imag]), np.array([False]))
        assert not bad[0] and d[0]
        assert [_bits(re[0]), _bits(im[0])] == \
            [_bits(v.log_modulus), _bits(v.angle)]
        cfg = IterationConfig(max_iter=5)
        verdict = orbits.classify(expr, z0, cfg)
        kinds, steps = blocks.classify_points(expr, np.array([z0]), cfg)
        assert chr(kinds[0]) == {orbits.NonEscapingProven: "P",
                                 orbits.Escaping: "E",
                                 orbits.BoundedAtBudget: "B",
                                 orbits.Undetermined: "U"}[type(verdict)]
        assert steps[0] == getattr(verdict, "step", -1)


class TestSamePoint:
    """Bit equality of two points: the tests' same_point against the
    engine's on arrays."""

    PAIRS = [(0j, 0j, True), (0j, complex(-0.0, 0.0), False),
             (complex(1, -0.0), complex(1, 0.0), False),
             (complex(1, 2), complex(1, 2.0000000000000004), False),
             (complex(math.nan, 0), complex(math.nan, 0), True),
             (Directed(math.inf, 0.0), Directed(math.inf, 0.0), True),
             (Directed(math.inf, 0.0), Directed(math.inf, -0.0), False),
             (Directed(800.0, 1.0), complex(800, 1), False),
             (complex(800, 1), Directed(800.0, 1.0), False)]

    def test_twins_agree(self):
        def batch(pts):
            re, im, directed = zip(*[
                (p.real, p.imag, False) if isinstance(p, complex)
                else (p.log_modulus, p.angle, True) for p in pts])
            return np.array(re), np.array(im), np.array(directed)

        want = [same for _, _, same in self.PAIRS]
        assert [same_point(p, q) for p, q, _ in self.PAIRS] == want
        assert _ARRAYS.same(batch([p for p, _, _ in self.PAIRS]),
                            batch([q for _, q, _ in self.PAIRS])).tolist() == want

    def test_float_path_agrees(self):
        # the kernel orbits._iterate reads, on Python floats and bools
        got = [maps._FLOATS.same(_point(p), _point(q)) for p, q, _ in self.PAIRS]
        assert got == [same for _, _, same in self.PAIRS]
        assert all(type(v) is bool for v in got)


# r and rn at +-0, one ulp either side of 0 and of the escape threshold,
# +-inf and NaN, under every combination of the five flags
_T = IterationConfig.escape_real_threshold
_REALS = [0.0, -0.0, math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
          math.nextafter(_T, 0.0), _T, math.nextafter(_T, math.inf),
          math.inf, -math.inf, math.nan]
STOP_CASES = [(*flags[:3], r, rn, *flags[3:])
              for flags in itertools.product((False, True), repeat=5)
              for r in _REALS for rn in _REALS]


def _stop_rule(nan, d, nd, r, rn, far, same):
    """maps._stop's documented order, written as a chain of ifs."""
    if nan:
        return 1
    if d and r <= 0.0:
        return 2
    if far or (r >= _T and rn >= r):
        return 3
    if same:
        return 4
    if not nd and rn <= 0.0:
        return 5
    return 0


class TestStopKernel:
    """maps._stop on Python floats and bools, as orbits._iterate calls it,
    and on arrays, as blocks._classify_points does: the same codes, and
    those of the documented order.  The scalar calls take Python bools,
    not np.bool_: on them ~ is an int (~True == -2), so a kernel that
    negates a flag with ~ and so moves a code fails here."""

    def test_scalar_codes_follow_the_order(self):
        for case in STOP_CASES:
            assert all(type(v) in (bool, float) for v in case)
            code = maps._stop(*case)
            assert type(code) is int and code == _stop_rule(*case), case

    def test_arrays_agree_with_scalars(self):
        want = [maps._stop(*case) for case in STOP_CASES]
        columns = [np.array(column) for column in zip(*STOP_CASES)]
        assert maps._stop(*columns).tolist() == want
        for case, code in zip(STOP_CASES, want):
            assert maps._stop(*[np.array([v]) for v in case]).tolist() == \
                [code]

    def test_seed_form_mixes_scalars_and_arrays(self):
        # a seed is the image of a step -1: its nan flag and rn are arrays
        nan = np.array([True, False, False, False, False])
        rn = np.array([-1.0, -0.0, 1e-300, math.nan, -math.inf])
        assert maps._stop(nan, False, False, math.nan, rn, False,
                          False).tolist() == [1, 5, 0, 0, 5]


def _batch(pts):
    """(re, im, directed) arrays of a list of points."""
    re, im, directed = zip(*[
        (p.real, p.imag, False) if isinstance(p, complex)
        else (p.log_modulus, p.angle, True) for p in pts])
    return np.array(re), np.array(im), np.array(directed)


def _point(p):
    """The (re, im, directed) triple of a point."""
    if isinstance(p, complex):
        return p.real, p.imag, False
    return p.log_modulus, p.angle, True


def real_u_of_point(p, ch):
    return maps._FLOATS.real_u(*_point(p), ch)


def real_u_of_batch(pts, ch):
    with np.errstate(all="ignore"):  # as the orbit loop runs it
        return _ARRAYS.real_u(*_batch(pts), ch)


def far_of_point(p, q):
    return maps._FLOATS.far(*_point(p), *_point(q))


def far_of_batch(ps, qs):
    with np.errstate(all="ignore"):
        return _ARRAYS.far(*_batch(ps), *_batch(qs))


# points at the edges of r and far: finite ones with NaN and infinite
# parts and |z| one ulp around the escape radius, and ladder points at
# the saturation of exp and around the phase limit
_LIM = maps.PHASE_RESOLUTION_LIMIT
_ANGLES = [0.0, -0.0, 1.0, math.pi / 2, -math.pi, _LIM, -_LIM,
          math.nextafter(_LIM, math.inf),
          math.nextafter(-_LIM, -math.inf), math.inf, -math.inf,
          math.nan]
_LOG_MODULI = [700.5, math.nextafter(709.0, 0.0), 709.0,
              math.nextafter(709.0, math.inf), 1e5, math.inf, math.nan]
_R = IterationConfig.generic_escape_radius
_FINITE = [complex(x, y) for x in (0.0, -3.5, 1e300, -math.inf, math.nan)
          for y in (0.0, -0.0, 2.0, math.inf)] + [
    complex(v, 0.0) for v in (math.nextafter(_R, 0.0), _R,
                              math.nextafter(_R, math.inf), -_R)] + [
    complex(0.0, _R), complex(6e9, 8e9), complex(6e9, 8.000000000000002e9),
    complex(6e9, 7.999999999999999e9), complex(1.7e308, 1.7e308)]
_LADDER = [Directed(lm, a) for lm in _LOG_MODULI for a in _ANGLES]


class TestStopInputs:
    """The inputs r and far of maps._stop on floats, as orbits._iterate
    takes them, against arrays, as blocks._classify_points does, at their
    edges: the same bits of r and the same far."""

    # the identity chart, a conj chart of each family, and no chart
    CHARTS = [chart(F11), chart(G11),
              chart(parse_map("conj(2+1i, -1, G(-1, -1))")),
              chart(parse_map("conj(1e-5, 3, F(-1, 1))")), None]

    @pytest.mark.parametrize("ch", CHARTS)
    def test_real_u(self, ch):
        pts = _FINITE + _LADDER
        got = real_u_of_batch(pts, ch)
        want = [real_u_of_point(p, ch) for p in pts]
        assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in want]
        if ch is not None:
            kinds = {_bits(v) if not math.isfinite(v) else "finite"
                     for v in want}
            assert kinds == {"finite", "inf", "-inf", "nan"}

    def test_far(self):
        # every ordered pair: finite then finite, finite then ladder,
        # ladder then finite, and two ladder points with equal log-modulus
        pts = _FINITE + _LADDER
        ps, qs = zip(*itertools.product(pts, repeat=2))
        want = [far_of_point(p, q) for p, q in zip(ps, qs)]
        assert far_of_batch(ps, qs).tolist() == want
        assert any(want) and not all(want)
        ladder = [isinstance(p, Directed) for p in pts]
        reached = {(ladder[k // len(pts)], ladder[k % len(pts)], w)
                   for k, w in enumerate(want)}
        assert {(False, False, True), (True, True, True),
                (True, True, False), (False, True, False)} <= reached


class TestEvaluateProperties:
    @given(map_exprs(), complexes(-8, 8, -8, 8), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_iterate_matches_repeated_application(self, expr, z, s):
        cfg = IterationConfig()
        try:
            via_node = evaluate(Iterate(expr, s), z, cfg)
            step = z
            for _ in range(s):
                step = evaluate(expr, step, cfg)
        except DegeneratePhaseError:
            assume(False)
        assert via_node == step  # bitwise, both routes share each step

    @given(map_exprs(),
           st.builds(complex, st.floats(-3, 3).filter(lambda x: abs(x) > 0.25),
                     st.floats(-3, 3)),
           complexes(-2, 2, -2, 2), complexes(-6, 6, -6, 6))
    @settings(max_examples=150, deadline=None)
    def test_conjugation_identity(self, expr, a, b, z):
        cfg = IterationConfig()
        phi_z = a * z + b
        try:
            direct = evaluate(expr, z, cfg)
            conjugated = evaluate(Conjugate(a, b, expr), phi_z, cfg)
        except DegeneratePhaseError:
            assume(False)
        assume(isinstance(direct, complex) and isinstance(conjugated, complex))
        want = a * direct + b
        assert abs(conjugated - want) <= 1e-9 * (1 + abs(want))

    @given(st.one_of(family_f_maps(), st.builds(
        ScaledExp, st.builds(complex, st.floats(0.2, 2), st.floats(-1, 1)))),
        complexes(-4, 4, -4, 4))
    @settings(max_examples=150, deadline=None)
    def test_periodicity(self, expr, z):
        c = period_of(expr)
        assume(c is not None)
        cfg = IterationConfig()
        try:
            base = evaluate(expr, z, cfg)
            shifted = evaluate(expr, z + c, cfg)
        except DegeneratePhaseError:
            assume(False)
        assume(isinstance(base, complex) and isinstance(shifted, complex))
        assert abs(shifted - base) <= 1e-9 * (1 + abs(base))


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

class TestPeriodOf:
    def test_scaled_exp_unit(self):
        assert period_of(ScaledExp(complex(1, 0))) == TWO_PI_I

    def test_scaled_exp_general(self):
        lam = complex(0.5, -1.5)
        c = period_of(ScaledExp(lam))
        assert abs(c - TWO_PI_I / lam) == 0

    def test_families(self):
        assert period_of(F11) == TWO_PI_I
        assert period_of(G11) == TWO_PI_I

    def test_family_f_period_numerically(self):
        # verified at 100 pseudo-random points
        rng_points = [complex(-3 + 0.061 * k, -2.9 + 0.059 * k) for k in range(100)]
        for z in rng_points:
            a = evaluate(F11, z)
            b = evaluate(F11, z + TWO_PI_I)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_iterate_and_shift_propagate(self):
        assert period_of(Iterate(F11, 3)) == TWO_PI_I
        assert period_of(Shift(F11, complex(4, 2))) == TWO_PI_I

    def test_conjugate_scales_period(self):
        a = complex(0, 2)
        assert period_of(Conjugate(a, complex(1, 1), F11)) == a * TWO_PI_I

    def test_compose_takes_inner_period(self):
        # o(i(z + c)) = o(i(z)) for a period c of the inner map
        assert period_of(Compose(F11, ScaledExp(complex(0, 2)))) == \
            TWO_PI_I / complex(0, 2)
        assert period_of(Compose(ScaledExp(complex(0, 2)), G11)) == TWO_PI_I
        inner = ScaledExp(complex(0.5, 1))
        c = period_of(Compose(F11, inner))
        for z in (complex(-1, 0.3), complex(0.2, -2)):
            a = evaluate(Compose(F11, inner), z)
            b = evaluate(Compose(F11, inner), z + c)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))


# ---------------------------------------------------------------------------
# affine charts
# ---------------------------------------------------------------------------

class TestChart:
    def test_families_are_their_own_chart(self):
        assert chart(F11) == (F11, 1, 0)
        assert chart(G11) == (G11, 1, 0)

    def test_conjugate_composes_with_base_chart(self):
        inner = Conjugate(complex(0, 2), complex(1, 1), F11)
        assert chart(inner) == (F11, complex(0, 2), complex(1, 1))
        # phi(z) = 3z - 1 after the inner chart u = (z - (1+i))/(2i)
        assert chart(Conjugate(complex(3, 0), complex(-1, 0), inner)) == \
            (F11, complex(0, 6), complex(2, 3))
        assert chart(Conjugate(complex(-1, 0), 0j, G11)) == (G11, -1, 0)

    def test_chart_coordinate_makes_the_map_a_family_map(self):
        # phi^-1(g(z)) = F(phi^-1(z)) with phi(u) = a*u + b
        expr = Conjugate(complex(2, 0), complex(1, 0),
                         Conjugate(complex(0.5, 1), complex(-3, 0), F11))
        _, a, b = chart(expr)
        for z in (complex(-4, 1), complex(2, -3), complex(0.5, 0.5)):
            u = (z - b) / a
            assert abs((evaluate(expr, z) - b) / a - evaluate(F11, u)) <= \
                1e-12 * (1 + abs(evaluate(F11, u)))

    def test_shift_keeps_family_chart_while_constant_in_range(self):
        # the chart's family map takes the shift into its constant
        assert chart(Shift(F11, complex(0.5, 3))) == \
            (FamilyF(-1, complex(1.5, 3)), 1, 0)
        assert chart(Shift(F11, complex(0, -1))) == \
            (FamilyF(-1, complex(1, -1)), 1, 0)
        assert chart(Shift(G11, complex(-2, 0))) == (FamilyG(-1, -3), 1, 0)
        # ... and is f itself in u: f(u) + c = f_c(u)
        for expr in (Shift(F11, complex(0.5, 3)), Shift(G11, -2)):
            f, _, _ = chart(expr)
            for z in (complex(-1, 2), complex(0.5, -0.25)):
                assert abs(evaluate(expr, z) - evaluate(f, z)) <= 1e-12
        # the shifted constant leaves Re xi >= 1 / Re zeta <= -1
        assert chart(Shift(F11, complex(-0.5, 0))) is None
        assert chart(Shift(G11, complex(0.25, 0))) is None
        # a shift of anything but a family map
        assert chart(Shift(Conjugate(2, 1, F11), 1)) is None

    def test_shift_chart_boundaries(self):
        # Re xi = 1 and Re zeta = -1 exactly keep the chart; one ulp
        # inside the excluded side loses it
        assert chart(Shift(FamilyG(-1, -3), 2)) == (G11, 1, 0)
        assert chart(Shift(F11, math.nextafter(1, 0) - 1)) is None
        assert chart(Shift(G11, math.nextafter(-1, 0) + 1)) is None

    def test_shift_chart_exactly_when_shifted_map_validates(self):
        # finite shifts that put Re(const + c) within a few ulps of the
        # edge, or anywhere in [-6, 6]
        rng = np.random.default_rng(20140610)
        for _ in range(2000):
            cls, edge = ((FamilyF, 1.0), (FamilyG, -1.0))[rng.integers(2)]
            f = cls(complex(-rng.uniform(0.1, 5), rng.uniform(-3, 3)),
                    complex(edge * rng.uniform(1, 5), rng.uniform(-3, 3)))
            near = edge + float(rng.integers(-3, 4)) * 2.0 ** -52
            re = near if rng.random() < 0.5 else rng.uniform(-6, 6)
            c = complex(re - f.const.real, rng.uniform(-3, 3))
            shifted = cls(f.param, f.const + c)
            try:
                validate(shifted)
                valid = True
            except InvalidMapError:
                valid = False
            assert chart(Shift(f, c)) == ((shifted, 1, 0) if valid else None)

    def test_other_nodes_have_no_chart(self):
        exp1 = ScaledExp(complex(1, 0))
        for expr in (exp1, Iterate(F11, 2), Compose(F11, F11),
                     Compose(F11, G11), Conjugate(2, 1, exp1),
                     Conjugate(2, 1, Iterate(F11, 1))):
            assert chart(expr) is None
