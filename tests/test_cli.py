import json

import numpy as np
import pytest

from expdyn import cli, fields, orbits, verify
from expdyn.orbits import OrbitRecord, Undetermined
from expdyn.verify import verify_disjointness

from helpers import run_fresh

# the engine thresholds are constants of IterationConfig, not settings
THRESHOLDS = ("overflow-log-threshold", "escape-real-threshold",
              "degeneracy-eps", "generic-escape-radius")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStrips:
    def test_strip_query(self, capsys):
        code, out, _ = run(capsys, "strips", "--family", "F",
                           "--param", "-1+0i", "--z", "-2+3.14159i")
        assert code == 0
        assert out == "k=1\n"

    def test_none_result(self, capsys):
        code, out, _ = run(capsys, "strips", "--family", "F",
                           "--param", "-1+0i", "--z", "-2+0i")
        assert code == 0
        assert out == "none\n"

    def test_t_not_finite_leaves_stderr_empty(self):
        # t = (Im z - Im lam)/(pi/2) is -inf: no strip, and no numpy
        # warning on stderr
        assert run_fresh("-m", "expdyn", "strips", "--family", "F",
                         "--param", "-1+1.7e308i", "--z", "-1-1.7e308i") == \
            (0, "none\n", "")


class TestParse:
    def test_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", "--map", "iter( exp(1),2 )")
        assert code == 0
        assert out == "iter(exp(1.0), 2)\n"

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--map", "F(-1")
        assert code == 2
        assert "error" in err

    def test_validation_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--map", "F(1, 1)")
        assert code == 2
        assert "Re(lambda)" in err

    @pytest.mark.parametrize("text, err", [
        ("F(1, 1)", "root: constraint 'Re(lambda) < 0' violated (got 1.0)"),
        ("F(-1, 0.5)", "root: constraint 'Re(xi) >= 1' violated (got 0.5)"),
        ("G(0, -1)", "root: constraint 'Re(mu) < 0' violated (got 0.0)"),
        ("G(-1, 0)", "root: constraint 'Re(zeta) <= -1' violated (got 0.0)"),
        ("exp(0)", "root: constraint 'lambda != 0' violated"),
        ("iter(F(-1, 1), 0)", "root: constraint 's >= 1' violated (got 0)"),
        ("conj(0, 1, F(-1, 1))", "root: constraint 'a != 0' violated"),
        ("comp(F(-1,1), iter(exp(0), 2))",
         "inner.base: constraint 'lambda != 0' violated"),
        ("H(1, 2)",
         "expected one of F, G, exp, iter, shift, comp, conj (at offset 0)"),
        ("F(-1, 1e400)", "decimal real overflows to infinity (at offset 6)"),
        ("iter(F(-1, 1), x)", "expected an integer (at offset 15)"),
        ("F(x, 1)", "expected a decimal real (at offset 2)"),
        # Arabic-Indic digits, which \d matched and float and int read
        ("F(-\u0661, \u0661)", "expected a decimal real (at offset 2)"),
        ("iter(F(-1, 1), \u0662)", "expected an integer (at offset 15)"),
    ])
    def test_error_bytes_pinned(self, capsys, text, err):
        assert run(capsys, "parse", "--map", text) == (2, "", f"error: {err}\n")


class TestNonFiniteInput:
    # an overflowing literal or a non-finite map parameter is a usage error
    @pytest.mark.parametrize("argv", [
        ("parse", "--map", "shift(F(-1, 1), 1e400)"),
        ("verify", "--suite", "conjugacy", "--a", "1e400", "--samples", "5"),
        ("orbit", "--map", "F(-1, 1)", "--z0", "-1e400", "--max-iter", "3"),
        ("strips", "--family", "F", "--param", "-1", "--z", "-1e400+3i"),
    ])
    def test_exit_2_with_empty_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "infinity" in err


class TestOrbit:
    def test_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "F(-1, 1)",
                           "--z0", "-1", "--max-iter", "3")
        assert code == 0
        assert out == ("n,kind,a,b\n"
                       "0,F,-1,0\n"
                       "1,F,2,0\n"
                       "# classification=NonEscapingProven,step=1\n")

    def test_trace_ends_at_a_fixed_point(self, capsys):
        # the step maps the point of row 4 to itself: row 5 repeats it
        code, out, _ = run(capsys, "orbit", "--map", "iter(exp(1), 3)", "--z0",
                           "-1.4629668047662054-0.34743441032888267i")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[-3:] == ["4,D,inf,0", "5,D,inf,0",
                              "# classification=BoundedAtBudget,step=5"]

    def test_nan_abort_exit_3(self, capsys, monkeypatch):
        def fake_run_orbit(expr, z0, cfg):
            return OrbitRecord(seed=z0, points=(z0,),
                               classification=Undetermined("nan"),
                               steps_taken=0)

        monkeypatch.setattr(orbits, "run_orbit", fake_run_orbit)
        code, out, err = run(capsys, "orbit", "--map", "F(-1, 1)", "--z0", "0")
        assert code == 3
        assert "NaN" in err


class TestRender:
    def test_render_ppm_and_csv(self, capsys, tmp_path):
        ppm = tmp_path / "field.ppm"
        csv = tmp_path / "field.csv"
        code, _, err = run(capsys, "render", "--map", "F(-1, 1)",
                           "--window", "-6,2,-4,4", "--res", "16,12",
                           "--max-iter", "60",
                           "--out", str(ppm), "--csv", str(csv))
        assert code == 0
        data = ppm.read_bytes()
        assert data.startswith(b"P6\n16 12\n255\n")
        assert len(data) == len(b"P6\n16 12\n255\n") + 16 * 12 * 3
        assert csv.read_text().startswith("i,j,re,im,class,step\n")

    def test_render_overlay_requires_family(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--map", "exp(1)",
                           "--window", "-1,1,-1,1", "--res", "4,4",
                           "--out", str(tmp_path / "x.ppm"),
                           "--overlay-strips")
        assert code == 2

    def test_overlay_fails_before_classifying(self, capsys, tmp_path,
                                              monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("classified a grid")

        monkeypatch.setattr(fields, "classify_grid", no_grid)
        code, _, err = run(capsys, "render", "--map", "conj(2, 1, F(-1, 1))",
                           "--window", "-19,5,-16,16", "--res", "400,400",
                           "--out", str(tmp_path / "x.ppm"),
                           "--overlay-strips")
        assert code == 2
        assert "--overlay-strips needs the identity chart" in err
        assert not (tmp_path / "x.ppm").exists()

    def test_overlay_of_a_shift_marks_its_family_maps_strips(self, capsys,
                                                              tmp_path):
        # shift(F(-1, 1), 0.5) is F(-1, 1.5) in the identity chart, and
        # the strips depend on the parameter -1 only
        white = []
        for m in ("F(-1, 1)", "shift(F(-1, 1), 0.5)"):
            ppm = tmp_path / "x.ppm"
            code, _, _ = run(capsys, "render", "--map", m,
                             "--window", "-30,5,-20,20", "--res", "200,200",
                             "--out", str(ppm), "--overlay-strips")
            assert code == 0
            rgb = np.frombuffer(ppm.read_bytes(), dtype=np.uint8,
                                offset=len(b"P6\n200 200\n255\n"))
            white.append((rgb.reshape(200, 200, 3) == 255).all(axis=2))
        assert (white[0] == white[1]).all()
        assert white[0].all(axis=1).sum() == white[0].any(axis=1).sum() == 12

    def test_window_span_overflow_exit_2(self, capsys, tmp_path):
        # finite bounds, infinite width: every cell center would be inf
        code, out, err = run(capsys, "render", "--map", "F(-1, 1)",
                             "--window=-1e308,1e308,-1,1", "--res", "4,2",
                             "--out", str(tmp_path / "x.ppm"),
                             "--csv", str(tmp_path / "x.csv"))
        assert code == 2
        assert "width and height" in err
        assert not (tmp_path / "x.ppm").exists()
        assert not (tmp_path / "x.csv").exists()
        code, out, err = run(capsys, "verify", "--suite", "disjointness",
                             "--window=-1,1,-1e308,1e308", "--res", "4,4")
        assert code == 2
        assert out == ""
        assert "width and height" in err

    def test_render_invalid_map_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "render", "--map", "F(1,1)",
                         "--window", "-1,1,-1,1", "--res", "4,4",
                         "--out", str(tmp_path / "x.ppm"))
        assert code == 2

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        argv = ["render", "--map", "G(-1, -1)", "--window", "-2,6,-4,4",
                "--res", "20,10", "--max-iter", "50"]
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


# runs `python -m expdyn <argv>` under a 1 GiB address-space limit, so
# that a request too large for memory fails to allocate even on a host
# that overcommits
UNDER_1GIB = ("import resource, runpy\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "runpy.run_module('expdyn', run_name='__main__', "
              "alter_sys=True)\n")


@pytest.mark.parametrize("argv", [
    ("render", "--map", "F(-1, 1)", "--window=0,1,0,1",
     "--res", "1000000,1000000", "--out", "m.ppm"),
    ("verify", "--suite", "halfplane-bound", "--samples", "10000000000"),
    # strip-containment's grid, after halfplane-bound has run: no report
    # either, halfplane-bound's included
    ("verify", "--suite", "all", "--samples", "20", "--k-max", "5",
     "--res", "100000,100000"),
], ids=["render", "verify", "verify-all"])
def test_too_large_for_memory_exit_2(argv, tmp_path):
    # a usage error, not a verification violation (exit 1), and no file
    code, out, err = run_fresh("-c", UNDER_1GIB, *argv, cwd=tmp_path)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# runs `python -m expdyn <argv>` with fields.classify_grid and the block
# engine's step and classifier replaced by a function that raises (verify
# imports the latter two when it loads, after this), so that a run which
# classifies a grid or follows an orbit fails
NO_GRID = ("import runpy\n"
           "from expdyn import blocks, fields\n"
           "def no_grid(*args, **kwargs):\n"
           "    raise AssertionError('a grid or orbit was run')\n"
           "fields.classify_grid = no_grid\n"
           "blocks.evaluate_points = blocks._classify_points = no_grid\n"
           "runpy.run_module('expdyn', run_name='__main__', "
           "alter_sys=True)\n")


class TestModulusPastDblMax:
    # the first image of this seed has finite parts and |z| past DBL_MAX
    MAP = "conj(2e4, 0, exp(1))"

    def test_orbit(self, capsys):
        code, out, err = run(capsys, "orbit", "--map", self.MAP,
                             "--z0", "13999800+47123.88980384689i",
                             "--max-iter", "5")
        assert code == 0 and err == ""
        assert out.endswith("# classification=BoundedAtBudget,step=5\n")

    def test_render(self, capsys, tmp_path):
        ppm = tmp_path / "x.ppm"
        code, _, err = run(capsys, "render", "--map", self.MAP,
                           "--window=13999790,13999810,47120,47130",
                           "--res", "4,4", "--workers", "1", "--out", str(ppm))
        assert code == 0 and "Traceback" not in err
        assert ppm.read_bytes().startswith(b"P6\n4 4\n255\n")


class TestLadderCrossings:
    """conj crossings onto the ladder whose angle underflows atan2: each
    command ends with a verdict, where it used to exit 1 with a traceback
    (cmath.phase raised OverflowError)."""

    @pytest.mark.parametrize("text, z0, trailer", [
        # (z - b)/a overflows on the way in
        ("conj(-1e-300, 0, F(-1, 1))", "1e300+1e-30i",
         "# classification=Undetermined,step=1\n"),
        # a*v + b overflows on the way out
        ("conj(1e10, 0, F(-1, 1e300))", "-5e10+1e-20i",
         "# classification=NonEscapingProven,step=1\n")])
    def test_orbit(self, capsys, text, z0, trailer):
        code, out, err = run(capsys, "orbit", "--map", text, "--z0", z0,
                             "--max-iter", "5")
        assert (code, err) == (0, "")
        assert out.endswith(trailer)

    def test_render(self, capsys, tmp_path):
        ppm, csv = tmp_path / "x.ppm", tmp_path / "x.csv"
        code, _, err = run(capsys, "render", "--map",
                           "conj(-1e-300, 0, F(-1, 1))",
                           "--window=1e9,2e9,-1e-320,1e-320", "--res", "4,4",
                           "--out", str(ppm), "--csv", str(csv))
        assert code == 0 and "Traceback" not in err
        assert ppm.read_bytes().startswith(b"P6\n4 4\n255\n")
        with open(csv) as fh:
            field = fields.import_field_csv(fh)
        assert bytes(field.kinds) == b"U" * 16


class TestLadderRung:
    """A ladder step whose deepened log-modulus is at or below the rung
    (700) returns an ordinary complex with the map's constant added.  Both
    orbits used to carry D rows below the rung: the first ended
    Undetermined at 1,D,-2.877e+299,-1.505e+306 where the point is xi = 1,
    the second printed 15.05, 3.4e-299 and 1e-305 for 3.4e6 and 1."""

    @pytest.mark.parametrize("text, z0, csv", [
        ("comp(F(-1e300, 1), exp(1))", "705+1.5707968i",
         "n,kind,a,b\n"
         "0,F,705,1.5707968000000001\n"
         "1,F,1,0\n"
         "2,F,1,0\n"
         "# classification=BoundedAtBudget,step=2\n"),
        ("exp(1e-305)", "7.05e307",
         "n,kind,a,b\n"
         "0,F,7.05e+307,0\n"
         "1,D,705,0\n"
         "2,F,3445357.8445400596,0\n"
         "3,F,1,0\n"
         "4,F,1,0\n"
         "# classification=BoundedAtBudget,step=4\n")],
        ids=["comp-F-exp", "exp-tiny-lam"])
    def test_orbit_bytes_pinned(self, capsys, text, z0, csv):
        assert run(capsys, "orbit", "--map", text, "--z0", z0) == (0, csv, "")


class TestVerifyCommand:
    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "halfplane-bound",
                           "--seed", "7", "--samples", "200", "--k-max", "50")
        assert code == 0
        data = json.loads(out)
        assert data["suite_name"] == "halfplane-bound"
        assert data["verdict"] == "pass"

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        # comparing an escaping field with itself must fail disjointness;
        # the CLI refuses two F maps, so the suite is handed the F field
        # twice
        monkeypatch.setattr(verify, "verify_disjointness",
                            lambda f, g: verify_disjointness(f, f))
        code, out, _ = run(capsys, "verify", "--suite", "disjointness",
                           "--window", "-30,5,-20,20", "--res", "40,40",
                           "--max-iter", "150", "--seed", "1")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("argv", [
        ("--suite", "disjointness", "--map-g", "F(-1, 1)"),
        ("--suite", "disjointness", "--map", "G(-1, -1)"),
        ("--suite", "disjointness", "--map", "exp(1)", "--map-g", "exp(1)"),
        ("--suite", "disjointness", "--map", "conj(2, 1, F(-1, 1))",
         "--map-g", "F(-1, 1)"),
        # I(f) and I(g) are disjoint in u, but these two u differ
        ("--suite", "disjointness", "--map", "conj(2, 1, F(-1, 1))",
         "--map-g", "G(-1, -1)"),
        # before the reports of the suites that run first
        ("--suite", "all", "--map-g", "F(-1, 1)", "--samples", "5"),
        ("--suite", "all", "--map", "G(-1, -1)", "--samples", "5"),
        # a map without a chart
        ("--suite", "all", "--map-g", "exp(1)", "--samples", "5"),
    ])
    def test_disjointness_needs_maps_of_both_families_exit_2(
            self, capsys, monkeypatch, argv):
        # the first four were reported as hundreds of law violations
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was classified")

        monkeypatch.setattr(fields, "classify_grid", no_grid)
        code, out, err = run(capsys, "verify", "--res", "60,60", *argv)
        assert code == 2
        assert out == ""
        assert "disjointness needs" in err

    @pytest.mark.parametrize("argv", [
        ("--suite", "all", "--samples", "50", "--res", "40,40",
         "--map", "conj(1e308, 0, F(-1, 1))",
         "--map-g", "conj(1e308, 0, G(-1, -1))"),
        ("--suite", "period-shift", "--map", "exp(1e-310)")])
    def test_period_shift_needs_a_finite_period_exit_2(
            self, capsys, monkeypatch, argv):
        # the period c = a*2*pi*i or 2*pi*i/lam is infinite: every suite
        # is resolved before any runs, so `all` prints no report, and the
        # error names no internal node
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was classified")

        monkeypatch.setattr(fields, "classify_grid", no_grid)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == ("error: period-shift: the period c = 0.0+infi of the "
                       "map is not finite\n")

    @pytest.mark.parametrize("argv, texts", [
        ((), ["F(-1, 1)", "G(-1, -1)", "exp(1)"]),
        (("--map", "F(-1, 1)"), ["F(-1, 1)", "G(-1, -1)"])])
    def test_each_map_text_parsed_once(self, capsys, monkeypatch, argv,
                                       texts):
        # the pre-checks and the seven suites share one parse per text
        calls = []
        parse = cli.parse_map
        monkeypatch.setattr(cli, "parse_map",
                            lambda text: calls.append(text) or parse(text))
        code, out, _ = run(capsys, "verify", "--suite", "all", "--samples",
                           "5", "--res", "8,8", "--k-max", "5", *argv)
        assert out.count("suite_name") == 7
        assert sorted(calls) == sorted(texts)

    @pytest.mark.parametrize("suite", ["all", "conjugacy"])
    def test_bad_map_error_exit_2(self, capsys, suite):
        with pytest.raises(ValueError) as exc:
            cli.parse_map("F(-1")
        assert run(capsys, "verify", "--suite", suite, "--map", "F(-1") == \
            (2, "", f"error: {exc.value}\n")

    def test_disjointness_takes_the_families_in_either_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "disjointness",
                           "--map", "G(-1, -1)", "--map-g", "F(-1, 1)",
                           "--res", "30,30", "--max-iter", "100")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_disjointness_of_conjugates_by_one_phi(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "disjointness",
                           "--map", "conj(2, 1, F(-1, 1))",
                           "--map-g", "conj(2, 1, G(-1, -1))",
                           "--res", "40,40", "--max-iter", "100")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("suite", ["conjugacy", "all"])
    def test_conjugacy_phi_overflowing_exit_2(self, suite):
        # phi(z) = a*z + b overflows on the default window: the suite
        # passed with 19 of 20 samples skipped and printed numpy's
        # RuntimeWarning; with `all`, before the first report and grid
        code, out, err = run_fresh("-c", NO_GRID, "verify", "--suite", suite,
                                   "--samples", "20", "--a", "1e308+1e308i")
        assert (code, out) == (2, "")
        assert err == ("error: conjugacy: phi(z) = a*z + b with "
                       "a = 1e+308+1e+308i, b = 1.0 is not finite on the "
                       "sample window\n")

    def test_halfplane_window_checked_before_any_suite_runs(self):
        # the window test is halfplane-bound's row check: with two faults,
        # `all` reports halfplane-bound's, the first suite's, where the
        # window test in the suite's run let conjugacy's check fail first
        code, out, err = run_fresh(
            "-c", NO_GRID, "verify", "--suite", "all", "--samples", "20",
            "--res", "20,20", "--window=-10,10,-10,10", "--a", "1e308+1e308i")
        assert (code, out) == (2, "")
        assert err == ("error: halfplane-bound needs a window inside the "
                       "absorbing half plane Re u >= 0 of the map, "
                       "u = (z - b)/a\n")

    def test_halfplane_bound_of_a_conjugate(self, capsys):
        # F's default window [0,100]x[-100,100] leaves phi(H) = {Re z >= 1}
        argv = ("verify", "--suite", "halfplane-bound", "--samples", "300",
                "--map", "conj(2, 1, F(-1, 1))")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "absorbing half plane" in err
        code, out, _ = run(capsys, *argv, "--window", "2,100,-50,50")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_halfplane_window_outside_absorbing_half_plane_exit_2(
            self, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was classified")

        monkeypatch.setattr(fields, "classify_grid", no_grid)
        # the last two override --suite: under `all`, no report and no grid
        for extra in (["--window", "-10,0,-5,5"],
                      ["--map", "G(-1, -1)", "--window", "-5,1,-5,5"],
                      ["--map", "exp(1)"],
                      ["--suite", "all", "--window", "-10,0,-5,5"],
                      ["--suite", "all", "--map", "exp(1)"]):
            code, out, err = run(capsys, "verify", "--suite", "halfplane-bound",
                                 "--samples", "20", *extra)
            assert code == 2
            assert out == ""
            assert "error" in err

    def test_halfplane_k_max_below_one_exit_2(self, capsys, tmp_path):
        # the library's own error named neither the flag nor the file
        for k_max in ("0", "-5"):
            code, out, err = run(capsys, "verify", "--suite", "halfplane-bound",
                                 "--samples", "20", "--k-max", k_max)
            assert (code, out) == (2, "")
            assert "argument --k-max: expected a positive integer" in err
        cfg = tmp_path / "k.cfg"
        cfg.write_text("k_max = 0\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg),
                             "--suite", "halfplane-bound", "--samples", "20")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: argument --k-max: "
                              "expected a positive integer")

    @pytest.mark.parametrize("flag, value", [
        ("--a", "1e400"), ("--b", "1e400"), ("--map-g", "G(-1, 1e400)"),
        ("--a", "0"), ("--s", "0"), ("--i", "0"), ("--j", "-1"),
        # numbers are ASCII decimals: int, float and \d also read these
        ("--b", "\u0662+\u0663i"), ("--samples", "1_0"), ("--seed", "1_0"),
        ("--seed", "\u0663"), ("--seed", "+3"), ("--window", "1_0,20,0,1")])
    def test_all_checks_suite_arguments_before_any_report(self, capsys, flag,
                                                           value):
        code, out, err = run(capsys, "verify", "--suite", "all", flag, value,
                             "--samples", "5", "--res", "10,10")
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("argv, reports", [
        (("--suite", "all", "--seed", "44", "--samples", "250",
          "--res", "180,180"),
         [("halfplane-bound", 250, 0), ("strip-containment", 32400, 70),
          ("disjointness", 32400, 84), ("period-shift", 250, 250),
          ("composite-laws", 250, 250), ("image-superset", 250, 6),
          ("conjugacy", 250, 3)]),
        (("--suite", "period-shift", "--map", "F(-1, 1)", "--seed", "7",
          "--samples", "100", "--max-iter", "200"),
         [("period-shift", 100, 100)]),
        (("--suite", "composite-laws", "--map", "F(-1, 1)",
          "--window=-2,10,-8,8", "--seed", "7", "--samples", "300"),
         [("composite-laws", 300, 300)]),
        (("--suite", "image-superset", "--map", "G(-1, -1)", "--seed", "7",
          "--samples", "300"),
         [("image-superset", 300, 3)]),
        # the conjugate is classified only where f is determined
        (("--suite", "conjugacy", "--map", "exp(1)", "--seed", "7",
          "--samples", "300"),
         [("conjugacy", 300, 4)]),
        # strip-containment through the chart: render-deep's own map must
        # pass, and so must a shift whose family map has a moved constant
        (("--suite", "strip-containment", "--map", "conj(2, 1, F(-1, 1))",
          "--window=-19,5,-16,16", "--res", "120,120"),
         [("strip-containment", 14400, 46)]),
        (("--suite", "strip-containment", "--map",
          "shift(F(-1, 2), -0.5+1i)", "--window=-30,5,-20,20",
          "--res", "120,120"),
         [("strip-containment", 14400, 38)]),
        # and halfplane-bound at its default sample count, inside phi(H)
        (("--suite", "halfplane-bound", "--map", "conj(2, 1, F(-1, 1))",
          "--window=2,100,-50,50"),
         [("halfplane-bound", 10000, 0)]),
    ])
    def test_golden_stdout(self, capsys, argv, reports):
        # the whole output of these runs, byte for byte: a verify run
        # writes nothing to stderr
        code, out, err = run(capsys, "verify", *argv)
        assert code == 0
        assert err == ""
        assert out == "".join(
            f'{{"suite_name": "{name}", "total": {total}, "skipped": '
            f'{skipped}, "violations": [], "verdict": "pass"}}\n'
            for name, total, skipped in reports)

    def test_seeded_runs_identical(self, capsys):
        argv = ["verify", "--suite", "period-shift", "--seed", "11",
                "--samples", "150", "--max-iter", "200"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_all_runs_every_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "3",
                           "--samples", "40", "--res", "24,24",
                           "--max-iter", "120", "--k-max", "30")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        names = [json.loads(line)["suite_name"] for line in lines]
        assert names == list(cli.SUITES)


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# strip query\n"
                       "family = F\n"
                       "param = -1+0i\n"
                       "z = -2+3.14159i\n")
        code, out, _ = run(capsys, "strips", "--config", str(cfg))
        assert code == 0
        assert out == "k=1\n"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("map = F(-1, 1)\nz0 = -1\nmax_iter = 3\n")
        code, out, _ = run(capsys, "orbit", "--config", str(cfg),
                           "--z0", "5")
        assert code == 0
        assert out.splitlines()[1] == "0,F,5,0"

    def test_render_resolution_from_nx_ny_keys(self, capsys, tmp_path):
        cfg = tmp_path / "render.cfg"
        cfg.write_text("map = F(-1, 1)\nwindow = -2,2,-2,2\n"
                       "nx = 6\nny = 5\nmax_iter = 20\n")
        out = tmp_path / "f.ppm"
        code, _, _ = run(capsys, "render", "--config", str(cfg),
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n6 5\n255\n")

    def test_family_value_checked_like_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = f\nparam = -1+0i\nz = -2+3.14159i\n")
        code, out, _ = run(capsys, "strips", "--config", str(cfg))
        assert code == 2
        assert out == ""

    def test_every_render_flag_is_a_key(self, capsys, tmp_path):
        argv = ["--map", "F(-1, 1)", "--window", "-6,2,-4,4", "--res", "16,12",
                "--max-iter", "60"]
        cfg = tmp_path / "render.cfg"
        cfg.write_text(f"csv = {tmp_path / 'c.csv'}\noverlay_strips = true\n")
        code, _, _ = run(capsys, "render", "--config", str(cfg), *argv,
                         "--out", str(tmp_path / "c.ppm"))
        assert code == 0
        code, _, _ = run(capsys, "render", *argv, "--overlay-strips",
                         "--csv", str(tmp_path / "f.csv"),
                         "--out", str(tmp_path / "f.ppm"))
        assert code == 0
        for ext in ("csv", "ppm"):
            assert (tmp_path / f"c.{ext}").read_bytes() == \
                (tmp_path / f"f.{ext}").read_bytes()

    def test_nx_without_ny_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for text in ("nx = 7\n", "ny = 7\n"):
            cfg.write_text(text)
            code, out, err = run(capsys, "verify", "--config", str(cfg),
                                 "--suite", "strip-containment")
            assert code == 2
            assert out == ""
            assert "nx and ny" in err

    def test_unknown_suite_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = bogus\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "bogus" in err

    def test_removed_threshold_keys_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for key in THRESHOLDS:
            cfg.write_text(f"{key.replace('-', '_')} = 1\n")
            code, _, err = run(capsys, "strips", "--config", str(cfg))
            assert code == 2
            assert key in err

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "strips", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_key_not_a_flag_of_the_subcommand_exit_2(self, capsys, tmp_path):
        # keys are the running subcommand's exact flags, not those of any
        # subcommand nor abbreviations; the error names the key and the
        # config file
        cfg = tmp_path / "run.cfg"
        for text, argv, key in (
                ("max_iter = 0\n",
                 ["strips", "--family", "F", "--param", "-1", "--z", "-2+3i"],
                 "max-iter"),
                ("window = -1,1,-1,1\n", ["parse", "--map", "exp(1)"],
                 "window"),
                ("work = 1\n",
                 ["render", "--map", "F(-1, 1)", "--window", "-1,1,-1,1",
                  "--res", "4,4", "--out", str(tmp_path / "x.ppm")],
                 "work")):
            cfg.write_text(text)
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 2
            assert out == ""
            assert key in err
            assert str(cfg) in err
        assert not (tmp_path / "x.ppm").exists()

    def test_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config = {cfg}\n")
        code, _, err = run(capsys, "parse", "--map", "exp(1)",
                           "--config", str(cfg))
        assert code == 2
        assert "config" in err

    def test_overlay_strips_switch_value(self, capsys, tmp_path):
        argv = ["render", "--map", "F(-1, 1)", "--window", "-6,2,-4,4",
                "--res", "16,12", "--max-iter", "60"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("overlay_strips = false\n")
        assert run(capsys, *argv, "--config", str(cfg),
                   "--out", str(tmp_path / "c.ppm"))[0] == 0
        assert run(capsys, *argv, "--overlay-strips=false",
                   "--out", str(tmp_path / "f.ppm"))[0] == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "n.ppm"))[0] == 0
        plain = (tmp_path / "n.ppm").read_bytes()
        assert (tmp_path / "c.ppm").read_bytes() == plain
        assert (tmp_path / "f.ppm").read_bytes() == plain
        cfg.write_text("overlay_strips = maybe\n")
        code, _, err = run(capsys, *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "m.ppm"))
        assert code == 2
        assert "maybe" in err

    def test_flag_beats_config_window_and_res(self, capsys, tmp_path):
        argv = ["verify", "--suite", "strip-containment", "--max-iter", "100"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = -20,5,-10,10\nnx = 30\nny = 30\n")
        _, want, _ = run(capsys, *argv, "--window", "-10,5,-6,6",
                         "--res", "12,12")
        code, got, _ = run(capsys, *argv, "--config", str(cfg),
                           "--window", "-10,5,-6,6", "--res", "12,12")
        assert code == 0
        assert got == want
        _, cfg_only, _ = run(capsys, *argv, "--config", str(cfg))
        assert json.loads(cfg_only)["total"] == 900
        assert json.loads(got)["total"] == 144

    def test_missing_value_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        code, _, _ = run(capsys, "strips", "--config", str(cfg))
        assert code == 2


class TestArguments:
    def usage_error(self, capsys, *argv):
        code = cli.main(list(argv))
        capsys.readouterr()
        return code

    def test_removed_threshold_flags_exit_2(self, capsys):
        for command in ("orbit", "render", "strips", "verify", "parse"):
            for flag in THRESHOLDS:
                assert self.usage_error(capsys, command, f"--{flag}", "1") == 2

    def test_abbreviated_flag_exit_2(self, capsys, tmp_path):
        # a flag is its exact name, like its config key
        assert self.usage_error(
            capsys, "render", "--map", "F(-1, 1)", "--window", "-1,1,-1,1",
            "--res", "4,4", "--out", str(tmp_path / "x.ppm"),
            "--work", "1") == 2
        assert not (tmp_path / "x.ppm").exists()

    def test_workers_below_one_exit_2(self, capsys, tmp_path):
        for workers in ("0", "-2"):
            code, _, err = run(capsys, "render", "--map", "F(-1, 1)",
                               "--window", "-1,1,-1,1", "--res", "4,4",
                               "--out", str(tmp_path / "x.ppm"),
                               "--workers", workers)
            assert code == 2
            assert "workers" in err
            assert not (tmp_path / "x.ppm").exists()
        code, out, err = run(capsys, "verify", "--suite", "all",
                             "--workers", "0")
        assert code == 2
        assert out == ""
        assert "workers" in err

    def test_zero_samples_exit_2(self, capsys, tmp_path):
        # a pass on no sample at all says nothing
        code, out, err = run(capsys, "verify", "--suite", "period-shift",
                             "--samples", "0")
        assert code == 2
        assert out == ""
        assert "samples" in err
        cfg = tmp_path / "v.cfg"
        cfg.write_text("suite = period-shift\nsamples = 0\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "samples" in err

    @pytest.mark.parametrize("argv", [
        ("orbit", "--map", "F(-1, 1)", "--z0", "0"),
        ("render", "--map", "F(-1, 1)", "--window", "-1,1,-1,1", "--res",
         "4,4", "--out", "x.ppm"),
        ("verify", "--suite", "conjugacy", "--samples", "5")],
        ids=["orbit", "render", "verify"])
    def test_max_iter_not_an_integer_exit_2(self, capsys, tmp_path,
                                            monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--max-iter", "abc")
        assert (code, out) == (2, "")
        assert "expected a positive integer, got 'abc'" in err
        assert not (tmp_path / "x.ppm").exists()

    def test_max_iter_below_one_names_the_flag(self, capsys, tmp_path):
        # IterationConfig's own error named neither the flag nor the file
        for command, extra in [
                ("orbit", ["--map", "F(-1, 1)", "--z0", "0"]),
                ("render", ["--map", "F(-1, 1)", "--window", "-1,1,-1,1",
                            "--res", "4,4", "--out", str(tmp_path / "x.ppm")]),
                ("verify", ["--suite", "conjugacy", "--samples", "5"])]:
            code, out, err = run(capsys, command, "--max-iter", "0", *extra)
            assert (code, out) == (2, "")
            assert "argument --max-iter: expected a positive integer" in err
            cfg = tmp_path / "m.cfg"
            cfg.write_text("max_iter = 0\n")
            code, out, err = run(capsys, command, "--config", str(cfg), *extra)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {cfg}: argument --max-iter:")
        assert not (tmp_path / "x.ppm").exists()

    @pytest.mark.parametrize("extra, err", [
        ((), "render needs --window, --res, --out"),
        (("--window=0,1,0,1", "--res", "3", "--out", "x.ppm"),
         "argument --res: resolution must be 'NX,NY'"),
        (("--window=0,1,0", "--res", "3,3", "--out", "x.ppm"),
         "argument --window: window must be 'x_min,x_max,y_min,y_max'"),
        (("--window=0,1,0,1", "--res", "\u0662,\u0662", "--out", "x.ppm"),
         "argument --res: expected a positive integer, got '\u0662'"),
        (("--window=1_0,20,0,1", "--res", "3,3", "--out", "x.ppm"),
         "argument --window: bad window: could not convert string to float: "
         "'1_0'"),
    ])
    def test_render_usage_error_bytes(self, capsys, tmp_path, monkeypatch,
                                      extra, err):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "render", "--map", "F(-1, 1)", *extra) == \
            (2, "", f"error: {err}\n")
        assert not (tmp_path / "x.ppm").exists()

    def test_max_iter_only_where_it_acts(self, capsys):
        for command in ("strips", "parse"):
            assert self.usage_error(capsys, command, "--max-iter", "5") == 2
