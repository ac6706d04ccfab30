"""The traced run: per-layer metrics for one workload.

Everything is measured from outside the program, around calls into the
public functions of each module in ``src/expdyn``.  A span records
(name, start, end, parent span, run id); spans stay in memory and are
written out when the run ends.  A span named ``<module>.<function>``
belongs to that module's layer.  The one hook into the program is the
public ``classify_fn=`` parameter of the sample suites, which
:class:`CountingClassify` wraps to count and time classifications; that
time is charged to the orbits layer inside the suite's span.

Per-layer metrics come from two sources:

* the workload's pipeline, the library calls the CLI makes for it, run
  untraced and traced, alternating (the difference of the median walls
  is the tracing overhead, and the traced spans give self times along
  the blocking path);
* layer probes: timed calls on the workload's own map, window and seeds,
  for layers the pipeline does not reach in isolation.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from expdyn import (
    BoundedAtBudget,
    Directed,
    Escaping,
    Family,
    IterationConfig,
    NonEscapingProven,
    SampleSet,
    Window,
    classify,
    classify_grid,
    evaluate,
    export_field_csv,
    import_field_csv,
    overlay_strips,
    parse_map,
    render_ppm,
    run_orbit,
    strip_of,
    validate,
    verify_composite_laws,
    verify_conjugacy,
    verify_disjointness,
    verify_halfplane_bound,
    verify_image_superset,
    verify_period_shift,
    verify_strip_containment,
)
from expdyn.maps import DegeneratePhaseError

from workloads import SUITES, Render, VerifyAll, WORKLOADS

CLASSES = "EPBU"

# Map of each node kind for maps.evaluate_ns.<kind>; the combinator
# forms are the ones the verify suites build.
EVALUATE_MAPS = {
    "F": "F(-1, 1)",
    "G": "G(-1, -1)",
    "exp": "exp(1)",
    "iter": "iter(exp(1), 3)",
    "shift": "shift(iter(exp(1), 2), 0+6.283185307179586i)",
    "comp": "comp(exp(1), iter(exp(1), 1))",
    "conj": "conj(2, 1, F(-1, 1))",
}
DIRECTED_MAPS = ("F(-1, 1)", "G(-1, -1)", "exp(1)")

ORBIT_SUBSAMPLE = 1500
PIPELINE_REPEATS = 3


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._open: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def current(self) -> dict:
        return self._open[-1]

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part its children cover (child spans
        and classifications timed by CountingClassify)."""
        covered = defaultdict(float)
        for s in self.spans:
            covered[s["id"]] += s.get("classify_s", 0.0)
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]]
                for s in self.spans}

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer: the module prefix of the span name;
        classification time inside suites goes to orbits."""
        out = defaultdict(float)
        for s, t in zip(self.spans, self.self_times().values()):
            out[s["name"].split(".", 1)[0]] += t
            if "classify_s" in s:
                out["orbits"] += s["classify_s"]
        return dict(out)


class NoTrace:
    """Stand-in with the Tracer interface that records nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield {}


class CountingClassify:
    """classify_fn for the suites: counts and times every classification
    and keeps its inputs, which are the verify-all workload's seeds."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.seeds: List[tuple] = []

    def __call__(self, expr, z0, cfg):
        t0 = time.perf_counter()
        verdict = classify(expr, z0, cfg)
        dt = time.perf_counter() - t0
        rec = self.tracer.current()
        rec["classify_s"] = rec.get("classify_s", 0.0) + dt
        rec["classify_calls"] = rec.get("classify_calls", 0) + 1
        self.seeds.append((expr, z0, cfg))
        return verdict


# ---------------------------------------------------------------------------
# pipelines: the library calls the CLI makes for a workload
# ---------------------------------------------------------------------------

def render_pipeline(tr, wl: Render, seed: int, ppm: str, csv: Optional[str]):
    with tr.span("pipeline"):
        with tr.span("parser.parse_map"):
            expr = parse_map(wl.map_text)
        cfg = IterationConfig(max_iter=wl.max_iter)
        with tr.span("fields.classify_grid"):
            field = classify_grid(expr, Window(*wl.window_for(seed)),
                                  wl.res[0], wl.res[1], cfg, workers=wl.workers)
        with tr.span("fields.render_ppm"), open(ppm, "wb") as fh:
            render_ppm(field, fh)
        if wl.csv:
            with tr.span("fields.export_field_csv"), \
                    open(csv, "w", encoding="ascii") as fh:
                export_field_csv(field, fh)
    return field


def verify_pipeline(tr, wl: VerifyAll, seed: int,
                    classify_fn: Callable = classify) -> list:
    """The seven suites with the arguments `expdyn verify --suite all`
    gives them under the workload's flags (defaults as in cli.py)."""
    cfg = IterationConfig()
    grid_cfg = IterationConfig(max_iter=500)
    nx, ny = wl.res
    n = wl.samples
    reports = []

    def parse(text):
        with tr.span("parser.parse_map"):
            return parse_map(text)

    def samples(window):
        with tr.span("sampling.generate"):
            return SampleSet.generate(seed, n, window)

    def grid(expr, window):
        with tr.span("fields.classify_grid"):
            return classify_grid(expr, window, nx, ny, grid_cfg, workers=wl.workers)

    with tr.span("pipeline"):
        with tr.span("suite.halfplane-bound"):
            expr = parse("F(-1, 1)")
            s = samples(Window(0.0, 100.0, -100.0, 100.0))
            with tr.span("verify.verify_halfplane_bound"):
                reports.append(verify_halfplane_bound(expr, s, 200))
        with tr.span("suite.strip-containment"):
            expr = parse("F(-1, 1)")
            field = grid(expr, Window(-30.0, 5.0, -20.0, 20.0))
            with tr.span("verify.verify_strip_containment"):
                reports.append(verify_strip_containment(field, expr))
        with tr.span("suite.disjointness"):
            window = Window(-30.0, 30.0, -30.0, 30.0)
            field_f = grid(parse("F(-1, 1)"), window)
            field_g = grid(parse("G(-1, -1)"), window)
            with tr.span("verify.verify_disjointness"):
                reports.append(verify_disjointness(field_f, field_g))
        with tr.span("suite.period-shift"):
            expr = parse("exp(1)")
            s = samples(Window(-3.0, 3.0, -3.0, 3.0))
            with tr.span("verify.verify_period_shift"):
                reports.append(verify_period_shift(expr, 2, s, cfg,
                                                   classify_fn=classify_fn))
        with tr.span("suite.composite-laws"):
            expr = parse("exp(1)")
            s = samples(Window(-2.0, 2.0, -2.0, 2.0))
            with tr.span("verify.verify_composite_laws"):
                reports.append(verify_composite_laws(expr, 2, 1, s, cfg,
                                                     classify_fn=classify_fn))
        with tr.span("suite.image-superset"):
            expr = parse("F(-1, 1)")
            s = samples(Window(-10.0, 10.0, -10.0, 10.0))
            with tr.span("verify.verify_image_superset"):
                reports.append(verify_image_superset(expr, 2, s, cfg,
                                                     classify_fn=classify_fn))
        with tr.span("suite.conjugacy"):
            expr = parse("F(-1, 1)")
            s = samples(Window(-10.0, 2.0, -8.0, 8.0))
            with tr.span("verify.verify_conjugacy"):
                reports.append(verify_conjugacy(expr, complex(2.0, 0.0),
                                                complex(1.0, 0.0), s, cfg,
                                                classify_fn=classify_fn))
    return reports


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------

def _per_call(fn: Callable[[], None], calls: int, repeats: int = 5) -> float:
    """Median over repeats of the seconds per call of a batch."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def probe_parser(map_text: str) -> dict:
    expr = parse_map(map_text)

    def parse_batch():
        for _ in range(300):
            parse_map(map_text)

    def validate_batch():
        for _ in range(2000):
            validate(expr)

    return {"parser.parse_us": _per_call(parse_batch, 300) * 1e6,
            "maps.validate_us": _per_call(validate_batch, 2000) * 1e6}


def _evaluable(expr, points, cfg) -> list:
    """The points whose single evaluation does not raise."""
    out = []
    for z in points:
        try:
            evaluate(expr, z, cfg)
        except DegeneratePhaseError:
            continue
        out.append(z)
    return out


def probe_evaluate(rng: np.random.Generator) -> dict:
    cfg = IterationConfig()
    xy = rng.uniform(-2.0, 2.0, size=(2000, 2))
    finite = [complex(x, y) for x, y in xy]
    out = {}
    for kind, text in EVALUATE_MAPS.items():
        expr = parse_map(text)
        pts = _evaluable(expr, finite, cfg)

        def batch():
            for z in pts:
                evaluate(expr, z, cfg)

        out[f"maps.evaluate_ns.{kind}"] = _per_call(batch, len(pts)) * 1e9
    lm = rng.uniform(701.0, 760.0, size=2000)
    ang = rng.uniform(-3.0, 3.0, size=2000)
    directed = [Directed(float(a), float(b)) for a, b in zip(lm, ang)
                if abs(math.cos(b)) > 1e-3]
    pairs = []
    for k, text in enumerate(DIRECTED_MAPS):
        expr = parse_map(text)
        pairs += [(expr, z) for z in _evaluable(expr, directed[k::3], cfg)]

    def directed_batch():
        for expr, z in pairs:
            evaluate(expr, z, cfg)

    out["maps.evaluate_ns.directed"] = _per_call(directed_batch, len(pairs)) * 1e9
    return out


def verdict_class(verdict) -> str:
    if isinstance(verdict, Escaping):
        return "E"
    if isinstance(verdict, NonEscapingProven):
        return "P"
    if isinstance(verdict, BoundedAtBudget):
        return "B"
    return "U"


def probe_orbits(seeds: List[tuple], rng: np.random.Generator) -> dict:
    """run_orbit on a seeded subsample of the workload's own seeds.

    Iteration cost (apps_per_s) and iteration count per verdict class
    (apps_per_seed) tell a cheaper-iteration gain from a fewer-iteration
    one.  Time is not split per class, because a class can be empty on a
    workload (render-shallow has no budget-bound seed); the share of
    orbit time spent on seeds left undecided (B or U) is the waste.
    """
    pick = rng.choice(len(seeds), size=min(ORBIT_SUBSAMPLE, len(seeds)),
                      replace=False)
    time_by = dict.fromkeys(CLASSES, 0.0)
    apps_by = dict.fromkeys(CLASSES, 0)
    count_by = dict.fromkeys(CLASSES, 0)
    for k in pick:
        expr, z0, cfg = seeds[k]
        t0 = time.perf_counter()
        rec = run_orbit(expr, z0, cfg)
        dt = time.perf_counter() - t0
        c = verdict_class(rec.classification)
        time_by[c] += dt
        apps_by[c] += rec.steps_taken
        count_by[c] += 1
    total_t = sum(time_by.values())
    out = {"orbits.classify_us": total_t / len(pick) * 1e6,
           "orbits.apps_per_s": sum(apps_by.values()) / total_t,
           "orbits.undecided_time_frac": (time_by["B"] + time_by["U"]) / total_t}
    for c in CLASSES:
        out[f"orbits.apps_per_seed.{c}"] = (apps_by[c] / count_by[c]
                                            if count_by[c] else 0.0)
        out[f"orbits.verdicts.{c}"] = count_by[c]
    return out


def grid_seeds(wl: Render, seed: int) -> List[tuple]:
    expr = parse_map(wl.map_text)
    cfg = IterationConfig(max_iter=wl.max_iter)
    x0, x1, y0, y1 = wl.window_for(seed)
    nx, ny = wl.res
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    return [(expr, complex(x0 + (i + 0.5) * dx, y1 - (j + 0.5) * dy), cfg)
            for j in range(ny) for i in range(nx)]


def probe_grid(expr, window: Window, res: Tuple[int, int], cfg) -> Tuple[dict, object]:
    cells = res[0] * res[1]
    rate = {}
    field = None
    for workers in (1, 2):
        t0 = time.perf_counter()
        field = classify_grid(expr, window, res[0], res[1], cfg, workers=workers)
        rate[workers] = cells / (time.perf_counter() - t0)
    return {"fields.cells_per_s.w1": rate[1], "fields.cells_per_s.w2": rate[2],
            "fields.pool_speedup": rate[2] / rate[1]}, field


def probe_field_io(field) -> dict:
    def ppm():
        render_ppm(field, io.BytesIO())

    texts = []

    def export():
        buf = io.StringIO()
        export_field_csv(field, buf)
        texts.append(buf.getvalue())

    def overlay():
        overlay_strips(field, Family.F, complex(-1.0, 0.0))

    export_s = _per_call(export, 1, repeats=3)
    text = texts[0]
    return {
        "fields.render_ppm_s": _per_call(ppm, 1),
        "fields.export_csv_s": export_s,
        "fields.export_csv_mb_per_s": len(text) / 1e6 / export_s,
        "fields.import_csv_s": _per_call(
            lambda: import_field_csv(io.StringIO(text)), 1, repeats=3),
        "fields.overlay_strips_s": _per_call(overlay, 1),
    }


def probe_sampling(seed: int, wl: VerifyAll) -> dict:
    windows = [Window(0.0, 100.0, -100.0, 100.0), Window(-3.0, 3.0, -3.0, 3.0),
               Window(-2.0, 2.0, -2.0, 2.0), Window(-10.0, 10.0, -10.0, 10.0),
               Window(-10.0, 2.0, -8.0, 8.0)]

    def batch():
        for w in windows:
            SampleSet.generate(seed, wl.samples, w)

    return {"sampling.generate_s": _per_call(batch, 1, repeats=9)}


def probe_strips(window: Window, rng: np.random.Generator) -> dict:
    x = rng.uniform(window.x_min, window.x_max, size=20000)
    y = rng.uniform(window.y_min, window.y_max, size=20000)
    pts = [complex(a, b) for a, b in zip(x, y)]
    lam = complex(-1.0, 0.0)

    def batch():
        for z in pts:
            strip_of(z, Family.F, lam)

    return {"strips.strip_of_us": _per_call(batch, len(pts), repeats=3) * 1e6}


def verify_metrics(tr: Tracer, reports: list) -> dict:
    out = {}
    by_name = {s["name"]: s for s in tr.spans}
    for name, rep in zip(SUITES, reports):
        span = by_name[f"suite.{name}"]
        inner = next(s for s in tr.spans if s["parent"] == span["id"]
                     and s["name"].startswith("verify."))
        out[f"verify.{name}.s"] = span["end"] - span["start"]
        out[f"verify.{name}.determined_frac"] = (
            (rep.total - rep.skipped_undetermined) / rep.total)
        out[f"verify.{name}.classify_calls"] = inner.get("classify_calls", 0)
    return out


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def timed(fn: Callable):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def traced_run(wl, seed: int, work: str, cli_wall: float) -> Tuple[dict, dict]:
    """Per-layer metrics for one workload, and the trace record to write.

    cli_wall is the median wall time of the same workload through the
    CLI.  The pipeline runs PIPELINE_REPEATS times untraced and traced,
    alternating; walls are medians, spans come from the traced run with
    the median wall.  Returns (metrics, record); record["outputs"] holds
    what the library pipeline produced, for the caller to check.
    """
    rng = np.random.default_rng([seed, 0x7ACE])
    va = wl if isinstance(wl, VerifyAll) else WORKLOADS["verify-all"]
    outputs = {}
    if isinstance(wl, Render):
        outputs["ppm"] = os.path.join(work, "lib.ppm")
        outputs["csv"] = os.path.join(work, "lib.csv") if wl.csv else None

    def pipeline(tr):
        """Returns the classify_fn the suites got (None for render)."""
        if isinstance(wl, Render):
            render_pipeline(tr, wl, seed, outputs["ppm"], outputs["csv"])
            return None
        counter = CountingClassify(tr) if isinstance(tr, Tracer) else classify
        outputs["reports"] = verify_pipeline(tr, wl, seed, classify_fn=counter)
        return counter

    walls_lib, traced_runs = [], []
    for k in range(PIPELINE_REPEATS):
        walls_lib.append(timed(lambda: pipeline(NoTrace()))[1])
        tr = Tracer(f"{wl.name}:{seed}:pipeline:{k}")
        counter, wall = timed(lambda: pipeline(tr))
        traced_runs.append((wall, tr, counter))
    wall_lib = statistics.median(walls_lib)
    wall_traced, tr, counter = sorted(traced_runs, key=lambda r: r[0])[
        PIPELINE_REPEATS // 2]

    self_times = tr.self_times()
    root_self = self_times[0]
    metrics = {
        "cli.overhead_s": cli_wall - wall_lib,
        "trace.overhead_s": wall_traced - wall_lib,
        "trace.unattributed_s": root_self,
        "trace.accounted_frac": (wall_traced - root_self) / wall_lib,
    }
    metrics.update(probe_parser(wl.map_text))
    metrics.update(probe_evaluate(rng))

    # the verify layer: this pipeline on verify-all, a traced probe of
    # the verify-all suite set (same seed) on the render workloads
    if isinstance(wl, VerifyAll):
        vtr, vreports = tr, outputs["reports"]
        own_seeds = counter.seeds
        # its own grid: the strip-containment suite's
        gexpr = parse_map("F(-1, 1)")
        gwindow = Window(-30.0, 5.0, -20.0, 20.0)
        gcfg = IterationConfig(max_iter=500)
    else:
        vtr = Tracer(f"{wl.name}:{seed}:verify-probe")
        vreports = verify_pipeline(vtr, va, seed,
                                   classify_fn=CountingClassify(vtr))
        own_seeds = grid_seeds(wl, seed)
        gexpr = parse_map(wl.map_text)
        gwindow = Window(*wl.window_for(seed))
        gcfg = IterationConfig(max_iter=wl.max_iter)
    metrics.update(verify_metrics(vtr, vreports))
    metrics.update(probe_orbits(own_seeds, rng))
    grid_metrics, gfield = probe_grid(gexpr, gwindow, wl.res, gcfg)
    metrics.update(grid_metrics)
    metrics.update(probe_field_io(gfield))
    metrics.update(probe_sampling(seed, va))
    metrics.update(probe_strips(gwindow, rng))

    record = {
        "workload": wl.name, "seed": seed,
        "wall_s": {"cli": cli_wall, "library": wall_lib, "traced": wall_traced,
                   "library_runs": walls_lib,
                   "traced_runs": [w for w, _, _ in traced_runs]},
        "layer_self_s": tr.layer_self_times(),
        "spans": [s for _, t, _ in traced_runs for s in t.spans]
        + (vtr.spans if vtr is not tr else []),
        "outputs": outputs,
    }
    return metrics, record
