import json

from expdyn import cli
from expdyn.orbits import OrbitRecord, Undetermined


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


class TestOrbit:
    def test_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "F(-1, 1)",
                           "--z0", "-1", "--max-iter", "3")
        assert code == 0
        assert out == ("n,kind,a,b\n"
                       "0,F,-1,0\n"
                       "1,F,2,0\n"
                       "# classification=NonEscapingProven,step=1\n")

    def test_nan_abort_exit_3(self, capsys, monkeypatch):
        def fake_run_orbit(expr, z0, cfg):
            return OrbitRecord(seed=z0, points=(z0,),
                               classification=Undetermined("nan"),
                               steps_taken=0)

        monkeypatch.setattr(cli, "run_orbit", fake_run_orbit)
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


class TestVerifyCommand:
    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "halfplane-bound",
                           "--seed", "7", "--samples", "200", "--k-max", "50")
        assert code == 0
        data = json.loads(out)
        assert data["suite_name"] == "halfplane-bound"
        assert data["verdict"] == "pass"

    def test_failing_suite_exit_1(self, capsys):
        # comparing an escaping field with itself must fail disjointness
        code, out, _ = run(capsys, "verify", "--suite", "disjointness",
                           "--map", "F(-1, 1)", "--map-g", "F(-1, 1)",
                           "--window", "-30,5,-20,20", "--res", "40,40",
                           "--max-iter", "150", "--seed", "1")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_halfplane_window_outside_absorbing_half_plane_exit_2(self, capsys):
        for extra in (["--window", "-10,0,-5,5"],
                      ["--map", "G(-1, -1)", "--window", "-5,1,-5,5"],
                      ["--map", "exp(1)"]):
            code, out, err = run(capsys, "verify", "--suite", "halfplane-bound",
                                 "--samples", "20", *extra)
            assert code == 2
            assert out == ""
            assert "error" in err

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

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "strips", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_value_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        code, _, _ = run(capsys, "strips", "--config", str(cfg))
        assert code == 2
