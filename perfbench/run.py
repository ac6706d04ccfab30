"""expdyn benchmark: drives the CLI workloads and prints one JSON result.

    python3 perfbench/run.py --workload render-shallow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the workload runs through
``python -m expdyn`` in a subprocess, one at a time, repeatedly for the
given seconds, each output checked; the end-to-end metrics are printed.
With ``--trace 1`` the per-layer metrics of ``tracing.py`` are printed and
the spans are written to ``perfbench/_work/``.  The last stdout line is
the JSON result; the lines before it (prefixed ``#``) give the machine
record and a readable summary.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time

import numpy as np

from check import check_render, check_verify
from workloads import CAL_REF_S, SLOTS, WORKLOADS, Render, calibrate, run_cli

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_RUNS = 9


def machine_record() -> dict:
    """What results depend on: results from different machines (or SIMD
    builds of numpy) must not be compared."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_runtime()
    text = buf.getvalue()
    m = re.search(r"'simd_extensions':\s*(\{.*?\})\}", text, re.S)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "simd": ast.literal_eval(m.group(1)) if m else text.strip()}


def load_reference(wl, seed: int):
    """Reference verdict map (E/P/B/U per cell) recorded by
    make_reference.py for the window this seed selects."""
    with np.load(os.path.join(BENCH, "reference", f"{wl.name}.npz")) as ref:
        slot = seed % SLOTS
        if tuple(ref["res"]) != wl.res or \
                tuple(ref["windows"][slot]) != wl.window_for(seed):
            raise SystemExit(f"reference for {wl.name} does not match the "
                             "workload; rerun perfbench/make_reference.py")
        return ref["kinds"][slot]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def run_setup(wl, work: str, tally: Tally) -> list:
    """Wall times of `expdyn parse --map <map>` in fresh subprocesses, at
    reference speed: each is divided by the mean slowdown of the
    one-core calibrations right before and right after it."""
    from expdyn import format_map, parse_map

    want = format_map(parse_map(wl.map_text)) + "\n"
    walls, cals = [], [calibrate()]
    for _ in range(SETUP_RUNS):
        r = run_cli(ROOT, ["parse", "--map", wl.map_text], work)
        cals.append(calibrate())
        ok = r.returncode == 0 and r.stdout == want
        tally.add(1, 0 if ok else 1, "" if ok else f"parse printed {r.stdout!r}")
        walls.append(r.wall_s / ((cals[-2] + cals[-1]) / 2 / CAL_REF_S))
    return walls


def read_render_outputs(ppm: str, csv):
    """The PPM bytes and CSV text a render left (empty when missing)."""
    data = text = None
    if os.path.exists(ppm):
        with open(ppm, "rb") as fh:
            data = fh.read()
    if csv and os.path.exists(csv):
        with open(csv, encoding="ascii", errors="replace") as fh:
            text = fh.read()
    return data or b"", (text or "") if csv else None


def run_rep(wl, seed: int, work: str, reference, tally: Tally,
            after_cli=lambda: None):
    """One CLI run of the workload, checked; after_cli runs between the
    CLI's exit and the check.  Returns (cli run, seeds, determined
    seeds, info)."""
    if isinstance(wl, Render):
        ppm = os.path.join(work, "out.ppm")
        csv = os.path.join(work, "out.csv") if wl.csv else None
        for path in (ppm, csv):
            if path and os.path.exists(path):
                os.remove(path)
        r = run_cli(ROOT, wl.argv(seed, ppm, csv), work)
        after_cli()
        c = check_render(r.returncode, *read_render_outputs(ppm, csv),
                         wl.res[0], wl.res[1], reference)
        tally.add(c.attempted, c.failed, c.problem)
        info = {"flips": c.flips, "newly_decided": c.newly_decided,
                "newly_undecided": c.newly_undecided}
        return r, wl.cells, c.determined, info
    r = run_cli(ROOT, wl.argv(seed), work)
    after_cli()
    c = check_verify(r.returncode, r.stdout)
    tally.add(c.attempted, c.failed, c.problem)
    return r, c.seeds, c.determined, {}


def end_to_end(wl, seed: int, seconds: float, work: str, tally: Tally) -> dict:
    """Set-up runs, then the workload repeated for the given seconds.

    Timings are scaled to the reference machine speed: each block of CLI
    time is divided by the slowdown that calibration runs right before
    and right after it measured (see workloads.calibrate).
    """
    reference = load_reference(wl, seed) if isinstance(wl, Render) else None
    setup = run_setup(wl, work, tally)
    reps = []
    cals = [calibrate(wl.workers)]
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        r, seeds, determined, info = run_rep(
            wl, seed, work, reference, tally,
            after_cli=lambda: cals.append(calibrate(wl.workers)))
        slowdown = (cals[-2] + cals[-1]) / 2 / CAL_REF_S
        reps.append((r, seeds, determined, slowdown))
        print(f"# {wl.name} rep {len(reps)}: wall {r.wall_s:.3f} s, "
              f"{seeds} seeds, raw {seeds / r.wall_s:.1f} seeds/s, "
              f"machine slowdown {slowdown:.3f}, {determined} determined, "
              f"peak rss {r.peak_rss_mb:.1f} MB {info}")
    seeds = sum(rep[1] for rep in reps)
    return {
        "seeds_per_s": seeds / sum(r.wall_s / sd for r, _, _, sd in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rep[0].peak_rss_mb for rep in reps),
        "determined_frac": sum(rep[2] for rep in reps) / seeds,
        "passed_frac": 1.0 - tally.failed / tally.attempted,
    }


def traced(wl, seed: int, work: str, tally: Tally):
    """Per-layer metrics and the trace record; the CLI runs and the
    library pipeline's outputs are checked like the end-to-end ones."""
    from tracing import PIPELINE_REPEATS, traced_run

    reference = load_reference(wl, seed) if isinstance(wl, Render) else None
    cli_walls = [run_rep(wl, seed, work, reference, tally)[0].wall_s
                 for _ in range(PIPELINE_REPEATS)]
    metrics, record = traced_run(wl, seed, work, statistics.median(cli_walls))
    outputs = record.pop("outputs")
    if isinstance(wl, Render):
        c = check_render(0, *read_render_outputs(outputs["ppm"], outputs["csv"]),
                         wl.res[0], wl.res[1], reference)
        tally.add(c.attempted, c.failed, c.problem)
    else:
        for rep in outputs["reports"]:
            bad = rep.verdict != "pass"
            tally.add(1, int(bad), f"library {rep.suite_name}: fail" if bad else "")
    w = record["wall_s"]
    print(f"# walls: cli {w['cli']:.3f} s, library {w['library']:.3f} s, "
          f"traced {w['traced']:.3f} s; layer self times (s): "
          + json.dumps({k: round(v, 4) for k, v in record["layer_self_s"].items()}))
    return metrics, record


def declared_units(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = os.path.join(BENCH, "_work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    load_before = os.getloadavg()
    machine = machine_record()
    try:
        if trace:
            metrics, record = traced(wl, seed, work, tally)
        else:
            metrics = end_to_end(wl, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_before"] = load_before
    machine["loadavg_after"] = os.getloadavg()
    print("# machine " + json.dumps(machine))
    if trace:
        path = os.path.join(BENCH, "_work", f"trace-{name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**record, "machine": machine, "metrics": metrics}, fh, indent=1)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    for p in tally.problems[:20]:
        print(f"# FAILED: {p}")
    print(f"# {name}: failed_frac {tally.failed / tally.attempted} "
          f"({tally.failed}/{tally.attempted})")
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "expdyn", "__init__.py")):
        print(f"error: no expdyn sources under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import expdyn
    if not os.path.abspath(expdyn.__file__).startswith(src + os.sep):
        print(f"error: expdyn imported from {expdyn.__file__}, not {src}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: workload must be one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, res in results.items():
        for k, m in res["metrics"].items():
            print(f"# {n:15s} {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
