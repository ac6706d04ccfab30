"""Command line front end.

Subcommands: orbit (trace one seed as CSV), render (escape field to PPM,
optionally CSV), strips (strip index of a point), verify (run one or all
verification suites, JSON reports on stdout) and parse (canonical form of
a map expression).  The iteration budget --max-iter (orbit, render,
verify) is the one engine setting; the thresholds of the verdict rules
are constants of IterationConfig.

Reports and data go to stdout, human messages to stderr.  A plain-text
config file ("key = value" lines, '#' comments) can predefine any value.
Its keys are exactly the long flags of the running subcommand ('_' may
stand for '-'; no abbreviations, no keys of other subcommands), and nx/ny
together stand for --res.  Each line becomes the argument --key=value,
placed right after the subcommand, so config values go through the same
argparse parser as flags and explicit flags win.  --overlay-strips takes
an optional true/false, so that it has a config value too.  Usage errors
carry argparse's wording.  Identical argv + config + seed produce byte
identical output.

Exit codes: 0 success / all suites pass; 1 verification violations;
2 usage, parse or validation errors, and a grid or sample set too large
for memory; 3 numeric failure (NaN abort).  verify resolves every
selected suite (map, chart, window, samples, its row's check) before any
runs and prints the reports once all have run: a usage error exits 2
before any orbit is followed, and a run that exits 2 prints no report.

Both process entries, `python -m expdyn` and the `expdyn` script, call
run(): main() with OPENBLAS_NUM_THREADS defaulted to 1 (expdyn makes no
BLAS call) and gc.freeze() before the exit.  main() itself leaves the
environment and the garbage collector alone, so in-process callers keep
theirs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import gc
import os
import sys
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from .maps import (DEFAULT_CONFIG, Family, IterationConfig, MapExpr, Window,
                   chart, period_of)
from .parser import (_INT, _REAL, format_complex, format_map, parse_complex,
                     parse_map)

if TYPE_CHECKING:
    from .verify import VerificationReport


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise CliError, so that main
    reports them like every other usage error instead of exiting."""

    def error(self, message: str):
        raise CliError(message)


def load_config(path: str) -> List[str]:
    """The "key = value" lines of a config file as arguments "--key=value"
    ('_' in a key reads as '-'); an nx/ny pair becomes --res=nx,ny."""
    argv: List[str] = []
    res: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if key == "config":
                raise CliError(f"{path}:{lineno}: a config file cannot name "
                               "another config file")
            if key in ("nx", "ny"):
                res[key] = value
            else:
                argv.append(f"--{key}={value}")
    if res:
        if len(res) != 2:
            raise CliError(f"{path}: config keys nx and ny must be given "
                           "together")
        # first, so that a res key in the same file wins
        argv.insert(0, f"--res={res['nx']},{res['ny']}")
    return argv


def _decimal(text: str) -> float:
    """text as the map grammar's decimal real, blanks around it allowed,
    else float's error: float alone also reads other Unicode digits, '_',
    'inf' and 'nan'."""
    if _REAL.fullmatch(text.strip()) is None:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "window must be 'x_min,x_max,y_min,y_max'")
    try:
        return Window(*(_decimal(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window: {exc}") from exc


def _parse_switch(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(
            f"expected 'true' or 'false', got {text!r}")
    return text == "true"


def _positive_int(text: str) -> int:
    # ASCII digits only: int alone also reads other Unicode digits, '_',
    # a sign and blanks; anything else is reported like a value below 1
    value = int(text) if _INT.fullmatch(text) else 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    """ASCII digits after an optional '-', else type=int's usage error:
    int alone also reads other Unicode digits, '_', '+' and blanks."""
    if _INT.fullmatch(text.removeprefix("-")) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _checked(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type that runs parse, so that a bad value is a usage
    error naming its flag, raised before the subcommand runs."""
    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _conjugacy_scale(text: str) -> complex:
    a = parse_complex(text)
    if a == 0:
        raise ValueError("the conjugacy scale must be nonzero")
    return a


def _parse_res(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("resolution must be 'NX,NY'")
    return _positive_int(parts[0]), _positive_int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="expdyn",
        description="orbit tracing, escape-field rendering and verification "
                    "suites for exponential-type entire maps")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str):
        # no abbreviated flags: a flag and its config key are one name
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--config", help="config file with 'key = value' lines")
        return p

    p = command("orbit", _cmd_orbit, "trace one seed, CSV on stdout")
    p.add_argument("--max-iter", type=_positive_int,
                   default=DEFAULT_CONFIG.max_iter)
    p.add_argument("--map")
    p.add_argument("--z0")

    p = command("render", _cmd_render, "classify a grid and write a PPM image")
    p.add_argument("--max-iter", type=_positive_int,
                   default=DEFAULT_CONFIG.max_iter)
    p.add_argument("--map")
    p.add_argument("--window", type=_parse_window)
    p.add_argument("--res", type=_parse_res)
    p.add_argument("--out")
    p.add_argument("--csv", help="also export the field as CSV to this path")
    p.add_argument("--overlay-strips", nargs="?", const=True, default=False,
                   type=_parse_switch,
                   help="mark strip boundaries white (optional value "
                        "true or false)")
    p.add_argument("--workers", type=_positive_int,
                   help="accepted and has no effect: the grid is classified "
                        "in this process")

    p = command("strips", _cmd_strips, "strip index of a point")
    p.add_argument("--family", type=Family, help="F or G")
    p.add_argument("--param")
    p.add_argument("--z")

    p = command("verify", _cmd_verify,
                "run verification suites, JSON on stdout")
    p.add_argument("--max-iter", type=_positive_int)
    p.add_argument("--suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--map")
    p.add_argument("--map-g", type=_checked(parse_map), default="G(-1, -1)",
                   help="map of the other family, for disjointness")
    p.add_argument("--window", type=_parse_window)
    p.add_argument("--res", type=_parse_res, default=(500, 500))
    p.add_argument("--k-max", type=_positive_int, default=200)
    p.add_argument("--s", type=_positive_int, default=2,
                   help="iterate exponent for period-shift")
    p.add_argument("--i", type=_positive_int, default=2,
                   help="first exponent for composite-laws")
    p.add_argument("--j", type=_positive_int,
                   help="second exponent for composite-laws / image-superset")
    p.add_argument("--a", type=_checked(_conjugacy_scale), default="2",
                   help="conjugacy scale (complex, nonzero)")
    p.add_argument("--b", type=_checked(parse_complex), default="1",
                   help="conjugacy offset (complex)")
    p.add_argument("--workers", type=_positive_int,
                   help="accepted and has no effect: the grid suites "
                        "(strip-containment, disjointness) classify in "
                        "this process")

    p = command("parse", _cmd_parse, "canonical form of a map expression")
    p.add_argument("--map")

    return top


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _require(args: argparse.Namespace, *keys: str) -> None:
    """A usage error naming every one of keys that no flag or config
    line gave."""
    missing = [f"--{key}" for key in keys if getattr(args, key) is None]
    if missing:
        raise CliError(f"{args.command} needs {', '.join(missing)}")


def _cmd_orbit(args) -> int:
    _require(args, "map", "z0")
    from . import orbits
    expr = parse_map(args.map)
    z0 = parse_complex(args.z0)
    rec = orbits.run_orbit(expr, z0, IterationConfig(max_iter=args.max_iter))
    orbits.orbit_to_csv(rec, sys.stdout)
    if isinstance(rec.classification, orbits.Undetermined) and \
            rec.classification.reason == "nan":
        print("orbit aborted on NaN", file=sys.stderr)
        return 3
    return 0


def _chart(expr: MapExpr, what: str) -> Tuple[MapExpr, complex, complex]:
    """maps.chart(expr) (f, a, b), else a usage error naming what needed
    one: the family suites hold in u = (z - b)/a, where expr is f."""
    ch = chart(expr)
    if ch is None:
        raise CliError(f"{what} needs a map with a chart")
    return ch


def _cmd_render(args) -> int:
    _require(args, "map", "window", "res", "out")
    expr = parse_map(args.map)
    if args.overlay_strips:
        # before the grid, so that a wrong map fails at once
        f, *ab = _chart(expr, "--overlay-strips")
        if ab != [1, 0]:  # the strips are drawn in u
            raise CliError("--overlay-strips needs the identity chart")
    from . import fields
    nx, ny = args.res
    field = fields.classify_grid(expr, args.window, nx, ny,
                                 IterationConfig(max_iter=args.max_iter),
                                 workers=args.workers)
    marks = None
    if args.overlay_strips:
        marks = fields.overlay_strips(field, f.family, f.param)
    with open(args.out, "wb") as fh:
        fields.render_ppm(field, fh, marks=marks)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fields.export_field_csv(field, fh)
    print(f"wrote {args.out} ({nx}x{ny})", file=sys.stderr)
    return 0


def _cmd_strips(args) -> int:
    _require(args, "family", "param", "z")
    from . import strips
    sid = strips.strip_of(parse_complex(args.z), args.family,
                          parse_complex(args.param))
    print(f"k={sid.k}" if sid is not None else "none")
    return 0


def _cmd_parse(args) -> int:
    _require(args, "map")
    print(format_map(parse_map(args.map)))
    return 0


class _Suite(NamedTuple):
    """Defaults, check and runner of one verify suite.

    window is one window, or one per family (that of the chart's family
    map) for the suites that need a chart.  samples is the default sample
    count, None for the grid suites, which classify a --res grid over the
    window instead.  j is the default of --j for the suites that read it,
    and check raises the usage errors of the resolved suite.
    """

    map: str
    window: Union[Window, Dict[Family, Window]]
    samples: Optional[int]
    run: Callable[[SimpleNamespace], VerificationReport]
    max_iter: int = DEFAULT_CONFIG.max_iter
    j: Optional[int] = None
    check: Callable[[SimpleNamespace], None] = lambda r: None


def _one_chart(r: SimpleNamespace) -> None:
    """f in F and g in F' (either order) in one chart."""
    f, *ab = _chart(r.expr, "disjointness")
    g, *ab_g = _chart(r.args.map_g, "disjointness")
    if f.sign == g.sign or ab != ab_g:
        raise CliError("disjointness needs F and G maps in one chart")


def _finite_period(r: SimpleNamespace) -> None:
    """The shift g = f^s + c needs a finite period c."""
    c = period_of(r.expr)
    if not cmath.isfinite(c):
        raise CliError(f"period-shift: the period c = {format_complex(c)}"
                       " of the map is not finite")


# in the order `--suite all` runs them
_SUITES = {
    "halfplane-bound": _Suite(
        "F(-1, 1)",  # the closed absorbing half plane
        {Family.F: Window(0.0, 100.0, -100.0, 100.0),
         Family.G: Window(-100.0, 0.0, -100.0, 100.0)},
        10000, lambda r: r.verify.verify_halfplane_bound(r.expr, r.samples,
                                                         r.args.k_max),
        check=lambda r: r.verify._require_absorbing_window(chart(r.expr),
                                                           r.window)),
    "strip-containment": _Suite(
        "F(-1, 1)",  # reaching into the escape strips
        {Family.F: Window(-30.0, 5.0, -20.0, 20.0),
         Family.G: Window(-5.0, 30.0, -20.0, 20.0)},
        None, lambda r: r.verify.verify_strip_containment(r.grid(r.expr),
                                                          r.expr),
        max_iter=500),
    "disjointness": _Suite(
        "F(-1, 1)", Window(-30.0, 30.0, -30.0, 30.0), None,
        lambda r: r.verify.verify_disjointness(r.grid(r.expr),
                                               r.grid(r.args.map_g)),
        max_iter=500, check=_one_chart),
    "period-shift": _Suite(
        "exp(1)", Window(-3.0, 3.0, -3.0, 3.0), 2000,
        lambda r: r.verify.verify_period_shift(
            r.expr, r.args.s, r.samples, r.icfg),
        check=_finite_period),
    "composite-laws": _Suite(
        "exp(1)", Window(-2.0, 2.0, -2.0, 2.0), 2000,
        lambda r: r.verify.verify_composite_laws(
            r.expr, r.args.i, r.j, r.samples, r.icfg),
        j=1),
    "image-superset": _Suite(
        "F(-1, 1)", Window(-10.0, 10.0, -10.0, 10.0), 2000,
        lambda r: r.verify.verify_image_superset(r.expr, r.j, r.samples,
                                                 r.icfg),
        j=2),
    "conjugacy": _Suite(
        "F(-1, 1)", Window(-10.0, 2.0, -8.0, 8.0), 2000,
        lambda r: r.verify.verify_conjugacy(
            r.expr, r.args.a, r.args.b, r.samples, r.icfg),
        check=lambda r: r.verify._require_finite_phi(r.args.a, r.args.b,
                                                     r.window)),
}
SUITES = tuple(_SUITES)


def _resolve_suite(name: str, args, parse) -> SimpleNamespace:
    """One suite ready to run: its row's defaults fill what no flag or
    config line gave, and its usage errors are raised, no orbit followed."""
    from . import fields, sampling, verify
    suite = _SUITES[name]
    expr = parse(suite.map if args.map is None else args.map)
    icfg = IterationConfig(max_iter=args.max_iter or suite.max_iter)
    window = suite.window
    if isinstance(window, dict):
        window = window[_chart(expr, name)[0].family]
    window = args.window or window

    def grid(e: MapExpr):
        return fields.classify_grid(e, window, *args.res, icfg,
                                    workers=args.workers)

    samples = suite.samples and sampling.SampleSet.generate(
        args.seed, args.samples or suite.samples, window)
    r = SimpleNamespace(suite=suite, args=args, expr=expr, window=window,
                        icfg=icfg, samples=samples, grid=grid, verify=verify,
                        j=suite.j if args.j is None else args.j)
    suite.check(r)
    return r


def _cmd_verify(args) -> int:
    _require(args, "suite")
    names = SUITES if args.suite == "all" else (args.suite,)
    parse = functools.cache(parse_map)  # once per distinct map text
    # resolve all, run all, then print: a run that exits 2 prints nothing
    resolved = [_resolve_suite(name, args, parse) for name in names]
    reports = [r.suite.run(r) for r in resolved]
    for report in reports:
        print(report.to_json())
    return 0 if all(rep.verdict == "pass" for rep in reports) else 1


# ---------------------------------------------------------------------------

# flags whose values may start with '-' (complex literals, windows);
# fused into --flag=value so argparse does not read them as options
_LITERAL_FLAGS = {"--param", "--z", "--z0", "--a", "--b", "--window"}


def _fuse_literal_values(argv: List[str]) -> List[str]:
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _LITERAL_FLAGS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _fuse_literal_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config lines go right after the subcommand, so that the
            # explicit flags, parsed later, win
            at = argv.index(args.command) + 1
            lines = load_config(args.config)
            try:
                args = parser.parse_args(argv[:at] + lines + argv[at:])
            except CliError as exc:
                raise CliError(f"{args.config}: {exc}") from None
        return args.run(args)
    except (CliError, ValueError, OSError, MemoryError) as exc:
        # ValueError covers map syntax and map validation errors;
        # MemoryError a grid or sample set too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """main() as a process: the entry of `python -m expdyn` and of the
    `expdyn` script."""
    # expdyn makes no BLAS call, so OpenBLAS's worker thread would only
    # spin beside the run; set before numpy loads, and a user's value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    # the exit frees what is left; frozen, it spares the interpreter's
    # final full collections over everything numpy loaded
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
