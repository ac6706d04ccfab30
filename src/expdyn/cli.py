"""Command line front end.

Subcommands: orbit (trace one seed as CSV), render (escape field to PPM,
optionally CSV), strips (strip index of a point), verify (run one or all
verification suites, JSON reports on stdout) and parse (canonical form of
a map expression).  The iteration budget --max-iter (orbit, render,
verify) is the one engine setting; the thresholds of the verdict rules
are constants of IterationConfig.

Reports and data go to stdout, human messages to stderr.  A plain-text
config file ("key = value" lines, '#' comments) can predefine any value;
explicit flags win.  Identical argv + config + seed produce byte
identical output.

Exit codes: 0 success / all suites pass; 1 verification violations;
2 usage, parse or validation errors; 3 numeric failure (NaN abort).
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
                    TypeVar, Union)

from .fields import (
    Window,
    classify_grid,
    export_field_csv,
    overlay_strips,
    render_ppm,
)
from .maps import (DEFAULT_CONFIG, Family, InvalidMapError, IterationConfig,
                   MapExpr)
from .orbits import Undetermined, orbit_to_csv, run_orbit
from .parser import MapSyntaxError, format_map, parse_complex, parse_map
from .sampling import SampleSet
from .strips import strip_of
from .verify import (
    NoKnownPeriodError,
    VerificationReport,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)

T = TypeVar("T")


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit code 2."""


def _config_keys() -> Set[str]:
    """Every long option of every subcommand except --config, plus the
    nx/ny pair that stands in for --res."""
    keys = {"nx", "ny"}
    for action in build_parser()._subparsers._group_actions:
        for sub in action.choices.values():
            for option in sub._actions:
                keys.update(flag[2:] for flag in option.option_strings
                            if flag.startswith("--"))
    return keys - {"config", "help"}


def load_config(path: str) -> Dict[str, str]:
    known = _config_keys()
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if key not in known:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace, cfg: Dict[str, str], key: str,
             convert: Callable[[str], T], default: Optional[T]) -> Optional[T]:
    """Flag value if given, else config file value, else default."""
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return convert(flag_value) if isinstance(flag_value, str) else flag_value
    if key in cfg:
        return convert(cfg[key])
    return default


def _parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("window must be 'x_min,x_max,y_min,y_max'")
    try:
        a, b, c, d = (float(p) for p in parts)
        return Window(a, b, c, d)
    except ValueError as exc:
        raise CliError(f"bad window: {exc}") from exc


def _parse_switch(text: str) -> bool:
    if text not in ("true", "false"):
        raise CliError(f"expected 'true' or 'false', got {text!r}")
    return text == "true"


def _parse_res(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError("resolution must be 'NX,NY'")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CliError(f"bad resolution: {exc}") from exc
    if nx < 1 or ny < 1:
        raise CliError("resolution must be positive")
    return nx, ny


def _resolve_res(args, cfg: Dict[str, str], default):
    """--res NX,NY, or nx/ny config keys, or the given default."""
    res = _resolve(args, cfg, "res", _parse_res, None)
    if res is not None:
        return res
    nx = _resolve(args, cfg, "nx", str, None)
    ny = _resolve(args, cfg, "ny", str, None)
    if nx is None and ny is None:
        return default
    if nx is None or ny is None:
        raise CliError("config keys nx and ny must be given together")
    return _parse_res(f"{nx},{ny}")


def _iteration_config(args: argparse.Namespace, cfg: Dict[str, str],
                      default: int = DEFAULT_CONFIG.max_iter
                      ) -> IterationConfig:
    return IterationConfig(
        max_iter=_resolve(args, cfg, "max-iter", int, default))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="expdyn",
        description="orbit tracing, escape-field rendering and verification "
                    "suites for exponential-type entire maps")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="config file with 'key = value' lines")
        return p

    p = command("orbit", _cmd_orbit, "trace one seed, CSV on stdout")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--map")
    p.add_argument("--z0")

    p = command("render", _cmd_render, "classify a grid and write a PPM image")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--map")
    p.add_argument("--window")
    p.add_argument("--res")
    p.add_argument("--out")
    p.add_argument("--csv", help="also export the field as CSV to this path")
    p.add_argument("--overlay-strips", action="store_true", default=None)
    p.add_argument("--workers", type=int)

    p = command("strips", _cmd_strips, "strip index of a point")
    p.add_argument("--family", type=Family, help="F or G")
    p.add_argument("--param")
    p.add_argument("--z")

    p = command("verify", _cmd_verify,
                "run verification suites, JSON on stdout")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--map")
    p.add_argument("--map-g", help="G-family map for the disjointness suite")
    p.add_argument("--window")
    p.add_argument("--res")
    p.add_argument("--k-max", type=int)
    p.add_argument("--s", type=int, help="iterate exponent for period-shift")
    p.add_argument("--i", type=int, help="first exponent for composite-laws")
    p.add_argument("--j", type=int,
                   help="second exponent for composite-laws / image-superset")
    p.add_argument("--a", help="conjugacy scale (complex)")
    p.add_argument("--b", help="conjugacy offset (complex)")
    p.add_argument("--workers", type=int,
                   help="worker processes of the grid suites "
                        "(strip-containment, disjointness)")

    p = command("parse", _cmd_parse, "canonical form of a map expression")
    p.add_argument("--map")

    return top


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_orbit(args, cfg: Dict[str, str]) -> int:
    map_text = _resolve(args, cfg, "map", str, None)
    z0_text = _resolve(args, cfg, "z0", str, None)
    if map_text is None or z0_text is None:
        raise CliError("orbit needs --map and --z0")
    expr = parse_map(map_text)
    z0 = parse_complex(z0_text)
    rec = run_orbit(expr, z0, _iteration_config(args, cfg))
    orbit_to_csv(rec, sys.stdout)
    if isinstance(rec.classification, Undetermined) and \
            rec.classification.reason == "nan":
        print("orbit aborted on NaN", file=sys.stderr)
        return 3
    return 0


def _family_map(expr: MapExpr, what: str) -> MapExpr:
    """expr itself if it is an F or G map (it then has sign, family and
    param), else a usage error naming what needed one."""
    if getattr(expr, "sign", None) is None:
        raise CliError(f"{what} needs a top-level F or G map")
    return expr


def _cmd_render(args, cfg: Dict[str, str]) -> int:
    map_text = _resolve(args, cfg, "map", str, None)
    if map_text is None:
        raise CliError("render needs --map")
    expr = parse_map(map_text)
    window = _resolve(args, cfg, "window", _parse_window, None)
    if window is None:
        raise CliError("render needs --window x_min,x_max,y_min,y_max")
    res = _resolve_res(args, cfg, None)
    if res is None:
        raise CliError("render needs --res NX,NY")
    out_path = _resolve(args, cfg, "out", str, None)
    if out_path is None:
        raise CliError("render needs --out")
    icfg = _iteration_config(args, cfg)
    workers = _resolve(args, cfg, "workers", int, None)
    field = classify_grid(expr, window, res[0], res[1], icfg, workers=workers)
    target = field
    if _resolve(args, cfg, "overlay-strips", _parse_switch, False):
        _family_map(expr, "--overlay-strips")
        target = overlay_strips(field, expr.family, expr.param)
    with open(out_path, "wb") as fh:
        render_ppm(target, fh)
    csv_path = _resolve(args, cfg, "csv", str, None)
    if csv_path:
        with open(csv_path, "w", encoding="ascii") as fh:
            export_field_csv(field, fh)
    print(f"wrote {out_path} ({res[0]}x{res[1]})", file=sys.stderr)
    return 0


def _cmd_strips(args, cfg: Dict[str, str]) -> int:
    family = _resolve(args, cfg, "family", Family, None)
    param_text = _resolve(args, cfg, "param", str, None)
    z_text = _resolve(args, cfg, "z", str, None)
    if family is None or param_text is None or z_text is None:
        raise CliError("strips needs --family, --param and --z")
    sid = strip_of(parse_complex(z_text), family, parse_complex(param_text))
    print(f"k={sid.k}" if sid is not None else "none")
    return 0


def _cmd_parse(args, cfg: Dict[str, str]) -> int:
    map_text = _resolve(args, cfg, "map", str, None)
    if map_text is None:
        raise CliError("parse needs --map")
    print(format_map(parse_map(map_text)))
    return 0


def _halfplane_bound(r: SimpleNamespace) -> VerificationReport:
    # the bound is a theorem about the absorbing half plane sign*Re z <= 0
    # only; samples outside it are a usage error
    sign, window = r.expr.sign, r.window
    if max(sign * window.x_min, sign * window.x_max) > 0.0:
        side = "Re z >= 0" if sign < 0 else "Re z <= 0"
        raise CliError("halfplane-bound needs a window inside the absorbing "
                       f"half plane {side} of the map")
    return verify_halfplane_bound(r.expr, r.samples, r.opt("k-max", int, 200))


def _disjointness(r: SimpleNamespace) -> VerificationReport:
    expr_g = parse_map(r.opt("map-g", str, "G(-1, -1)"))
    return verify_disjointness(r.grid(r.expr), r.grid(expr_g))


class _Suite(NamedTuple):
    """Defaults and runner of one verify suite.

    window is one window, or one per family for the suites that need an
    F or G map.  samples is the default sample count, None for the grid
    suites, which classify a --res grid over the window instead.
    """

    map: str
    window: Union[Window, Dict[Family, Window]]
    samples: Optional[int]
    run: Callable[[SimpleNamespace], VerificationReport]
    max_iter: int = DEFAULT_CONFIG.max_iter


# in the order `--suite all` runs them
_SUITES = {
    "halfplane-bound": _Suite(
        "F(-1, 1)",  # the closed absorbing half plane
        {Family.F: Window(0.0, 100.0, -100.0, 100.0),
         Family.G: Window(-100.0, 0.0, -100.0, 100.0)},
        10000, _halfplane_bound),
    "strip-containment": _Suite(
        "F(-1, 1)",  # reaching into the escape strips
        {Family.F: Window(-30.0, 5.0, -20.0, 20.0),
         Family.G: Window(-5.0, 30.0, -20.0, 20.0)},
        None, lambda r: verify_strip_containment(r.grid(r.expr), r.expr),
        max_iter=500),
    "disjointness": _Suite(
        "F(-1, 1)", Window(-30.0, 30.0, -30.0, 30.0), None, _disjointness,
        max_iter=500),
    "period-shift": _Suite(
        "exp(1)", Window(-3.0, 3.0, -3.0, 3.0), 2000,
        lambda r: verify_period_shift(
            r.expr, r.opt("s", int, 2), r.samples, r.icfg)),
    "composite-laws": _Suite(
        "exp(1)", Window(-2.0, 2.0, -2.0, 2.0), 2000,
        lambda r: verify_composite_laws(
            r.expr, r.opt("i", int, 2), r.opt("j", int, 1), r.samples,
            r.icfg)),
    "image-superset": _Suite(
        "F(-1, 1)", Window(-10.0, 10.0, -10.0, 10.0), 2000,
        lambda r: verify_image_superset(
            r.expr, r.opt("j", int, 2), r.samples, r.icfg)),
    "conjugacy": _Suite(
        "F(-1, 1)", Window(-10.0, 2.0, -8.0, 8.0), 2000,
        lambda r: verify_conjugacy(
            r.expr, r.opt("a", parse_complex, complex(2.0, 0.0)),
            r.opt("b", parse_complex, complex(1.0, 0.0)), r.samples, r.icfg)),
}
SUITES = tuple(_SUITES)


def _run_suite(name: str, args, cfg: Dict[str, str]) -> VerificationReport:
    suite = _SUITES.get(name)
    if suite is None:
        raise CliError(f"unknown suite {name!r}")

    def opt(key: str, convert: Callable[[str], T], default: Optional[T]):
        return _resolve(args, cfg, key, convert, default)

    seed = opt("seed", int, 1)
    n = opt("samples", int, suite.samples)
    workers = opt("workers", int, None)
    icfg = _iteration_config(args, cfg, suite.max_iter)
    expr = parse_map(opt("map", str, suite.map))
    window = suite.window
    if isinstance(window, dict):
        window = window[_family_map(expr, name).family]
    window = opt("window", _parse_window, window)

    def grid(e: MapExpr):
        nx, ny = _resolve_res(args, cfg, (500, 500))
        return classify_grid(e, window, nx, ny, icfg, workers=workers)

    samples = SampleSet.generate(seed, n, window) if suite.samples else None
    return suite.run(SimpleNamespace(expr=expr, window=window, icfg=icfg,
                                     samples=samples, grid=grid, opt=opt))


def _cmd_verify(args, cfg: Dict[str, str]) -> int:
    suite = _resolve(args, cfg, "suite", str, None)
    if suite is None:
        raise CliError("verify needs --suite")
    names = SUITES if suite == "all" else (suite,)
    any_fail = False
    for name in names:
        report = _run_suite(name, args, cfg)
        print(report.to_json())
        if report.verdict != "pass":
            any_fail = True
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------

# flags whose values may start with '-' (complex literals, windows);
# fused into --flag=value so argparse does not read them as options
_LITERAL_FLAGS = {"--param", "--z", "--z0", "--a", "--b", "--window"}


def _fuse_literal_values(argv: List[str]) -> List[str]:
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _LITERAL_FLAGS and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_literal_values(list(argv)))
    try:
        cfg = load_config(args.config) if args.config else {}
        return args.run(args, cfg)
    except (CliError, MapSyntaxError, InvalidMapError, NoKnownPeriodError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
