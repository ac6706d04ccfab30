"""Command line front end.

Subcommands: orbit (trace one seed as CSV), render (escape field to PPM,
optionally CSV), strips (strip index of a point), verify (run one or all
verification suites, JSON reports on stdout) and parse (canonical form of
a map expression).

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
from typing import Callable, Dict, List, Optional, Sequence, Set, TypeVar

from .fields import (
    Window,
    classify_grid,
    export_field_csv,
    overlay_strips,
    render_ppm,
)
from .maps import Family, InvalidMapError, IterationConfig, MapExpr
from .orbits import Undetermined, orbit_to_csv, run_orbit
from .parser import MapSyntaxError, format_map, parse_complex, parse_map
from .sampling import SampleSet
from .strips import strip_of
from .verify import (
    NoKnownPeriodError,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)

SUITES = ("halfplane-bound", "strip-containment", "disjointness",
          "period-shift", "composite-laws", "image-superset", "conjugacy")

# default windows of the two family suites: the closed absorbing half
# plane for halfplane-bound, a window reaching into the escape strips for
# strip-containment
_HALFPLANE_WINDOW = {Family.F: Window(0.0, 100.0, -100.0, 100.0),
                     Family.G: Window(-100.0, 0.0, -100.0, 100.0)}
_STRIP_WINDOW = {Family.F: Window(-30.0, 5.0, -20.0, 20.0),
                 Family.G: Window(-5.0, 30.0, -20.0, 20.0)}

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
    nx = _resolve(args, cfg, "nx", int, None)
    ny = _resolve(args, cfg, "ny", int, None)
    if nx is not None and ny is not None:
        return nx, ny
    return default


def _iteration_config(args: argparse.Namespace, cfg: Dict[str, str],
                      max_iter_default: int = 1000) -> IterationConfig:
    return IterationConfig(
        max_iter=_resolve(args, cfg, "max-iter", int, max_iter_default),
        overflow_log_threshold=_resolve(
            args, cfg, "overflow-log-threshold", float, 700.0),
        escape_real_threshold=_resolve(
            args, cfg, "escape-real-threshold", float, 50.0),
        degeneracy_eps=_resolve(args, cfg, "degeneracy-eps", float, 1e-12),
        generic_escape_radius=_resolve(
            args, cfg, "generic-escape-radius", float, 1e10),
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="expdyn",
        description="orbit tracing, escape-field rendering and verification "
                    "suites for exponential-type entire maps")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="config file with 'key = value' lines")
        p.add_argument("--max-iter", type=int)
        p.add_argument("--overflow-log-threshold", type=float)
        p.add_argument("--escape-real-threshold", type=float)
        p.add_argument("--degeneracy-eps", type=float)
        p.add_argument("--generic-escape-radius", type=float)

    p = sub.add_parser("orbit", help="trace one seed, CSV on stdout")
    common(p)
    p.add_argument("--map")
    p.add_argument("--z0")

    p = sub.add_parser("render", help="classify a grid and write a PPM image")
    common(p)
    p.add_argument("--map")
    p.add_argument("--window")
    p.add_argument("--res")
    p.add_argument("--out")
    p.add_argument("--csv", help="also export the field as CSV to this path")
    p.add_argument("--overlay-strips", action="store_true", default=None)
    p.add_argument("--workers", type=int)

    p = sub.add_parser("strips", help="strip index of a point")
    common(p)
    p.add_argument("--family", type=Family, help="F or G")
    p.add_argument("--param")
    p.add_argument("--z")

    p = sub.add_parser("verify", help="run verification suites, JSON on stdout")
    common(p)
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
    p.add_argument("--workers", type=int)

    p = sub.add_parser("parse", help="canonical form of a map expression")
    common(p)
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


def _run_suite(name: str, args, cfg: Dict[str, str]) -> "VerificationReport":
    seed = _resolve(args, cfg, "seed", int, 1)
    samples_n = _resolve(args, cfg, "samples", int, 2000)
    workers = _resolve(args, cfg, "workers", int, None)
    icfg = _iteration_config(args, cfg)

    if name == "halfplane-bound":
        expr = _family_map(
            parse_map(_resolve(args, cfg, "map", str, "F(-1, 1)")), name)
        window = _resolve(args, cfg, "window", _parse_window,
                          _HALFPLANE_WINDOW[expr.family])
        # the bound is a theorem about the absorbing half plane
        # sign*Re z <= 0 only; samples outside it are a usage error
        if max(expr.sign * window.x_min, expr.sign * window.x_max) > 0.0:
            side = "Re z >= 0" if expr.sign < 0 else "Re z <= 0"
            raise CliError(f"{name} needs a window inside the absorbing "
                           f"half plane {side} of the map")
        n = _resolve(args, cfg, "samples", int, 10000)
        k_max = _resolve(args, cfg, "k-max", int, 200)
        return verify_halfplane_bound(
            expr, SampleSet.generate(seed, n, window), k_max)

    if name == "strip-containment":
        expr = _family_map(
            parse_map(_resolve(args, cfg, "map", str, "F(-1, 1)")), name)
        window = _resolve(args, cfg, "window", _parse_window,
                          _STRIP_WINDOW[expr.family])
        nx, ny = _resolve_res(args, cfg, (500, 500))
        icfg = _iteration_config(args, cfg, max_iter_default=500)
        field = classify_grid(expr, window, nx, ny, icfg, workers=workers)
        return verify_strip_containment(field, expr)

    if name == "disjointness":
        expr_f = parse_map(_resolve(args, cfg, "map", str, "F(-1, 1)"))
        expr_g = parse_map(_resolve(args, cfg, "map-g", str, "G(-1, -1)"))
        window = _resolve(args, cfg, "window", _parse_window,
                          Window(-30.0, 30.0, -30.0, 30.0))
        nx, ny = _resolve_res(args, cfg, (500, 500))
        icfg = _iteration_config(args, cfg, max_iter_default=500)
        field_f = classify_grid(expr_f, window, nx, ny, icfg, workers=workers)
        field_g = classify_grid(expr_g, window, nx, ny, icfg, workers=workers)
        return verify_disjointness(field_f, field_g)

    if name == "period-shift":
        expr = parse_map(_resolve(args, cfg, "map", str, "exp(1)"))
        window = _resolve(args, cfg, "window", _parse_window,
                          Window(-3.0, 3.0, -3.0, 3.0))
        s = _resolve(args, cfg, "s", int, 2)
        return verify_period_shift(
            expr, s, SampleSet.generate(seed, samples_n, window), icfg)

    if name == "composite-laws":
        expr = parse_map(_resolve(args, cfg, "map", str, "exp(1)"))
        window = _resolve(args, cfg, "window", _parse_window,
                          Window(-2.0, 2.0, -2.0, 2.0))
        i = _resolve(args, cfg, "i", int, 2)
        j = _resolve(args, cfg, "j", int, 1)
        return verify_composite_laws(
            expr, i, j, SampleSet.generate(seed, samples_n, window), icfg)

    if name == "image-superset":
        expr = parse_map(_resolve(args, cfg, "map", str, "F(-1, 1)"))
        window = _resolve(args, cfg, "window", _parse_window,
                          Window(-10.0, 10.0, -10.0, 10.0))
        j = _resolve(args, cfg, "j", int, 2)
        return verify_image_superset(
            expr, j, SampleSet.generate(seed, samples_n, window), icfg)

    if name == "conjugacy":
        expr = parse_map(_resolve(args, cfg, "map", str, "F(-1, 1)"))
        window = _resolve(args, cfg, "window", _parse_window,
                          Window(-10.0, 2.0, -8.0, 8.0))
        a = _resolve(args, cfg, "a", parse_complex, complex(2.0, 0.0))
        b = _resolve(args, cfg, "b", parse_complex, complex(1.0, 0.0))
        return verify_conjugacy(
            expr, a, b, SampleSet.generate(seed, samples_n, window), icfg)

    raise CliError(f"unknown suite {name!r}")


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
    parser = build_parser()
    args = parser.parse_args(_fuse_literal_values(list(argv)))
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.command == "orbit":
            return _cmd_orbit(args, cfg)
        if args.command == "render":
            return _cmd_render(args, cfg)
        if args.command == "strips":
            return _cmd_strips(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        if args.command == "parse":
            return _cmd_parse(args, cfg)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, MapSyntaxError, InvalidMapError, NoKnownPeriodError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
