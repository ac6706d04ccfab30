"""Tests of the benchmark itself (not of expdyn).

    python3 perfbench/selftest.py

Runs in about half a minute: the checker must reject planted failures,
inputs must follow the seed, and count metrics must repeat exactly.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from expdyn import EscapeField, Window, export_field_csv, render_ppm  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from check import B, E, P, U, check_render, check_verify  # noqa: E402
from workloads import SUITES, WORKLOADS, Render, VerifyAll  # noqa: E402

NX, NY = 4, 3
REFERENCE = np.array([ord(c) for c in "EEPPEPBUPPPE"], dtype=np.uint8)


def _ppm_and_csv(kinds: np.ndarray):
    steps = np.where((kinds == E) | (kinds == P), 2, -1).astype(np.int64)
    field = EscapeField(Window(-1.0, 1.0, -1.0, 1.0), NX, NY, kinds, steps)
    ppm, csv = io.BytesIO(), io.StringIO()
    render_ppm(field, ppm)
    export_field_csv(field, csv)
    return ppm.getvalue(), csv.getvalue()


def test_render_checker_accepts_the_reference():
    ppm, csv = _ppm_and_csv(REFERENCE)
    c = check_render(0, ppm, csv, NX, NY, REFERENCE)
    assert (c.attempted, c.failed, c.determined) == (12, 0, 10), c


def test_render_checker_rejects_planted_flip():
    kinds = REFERENCE.copy()
    kinds[0] = P  # E -> P
    kinds[2] = E  # P -> E
    ppm, csv = _ppm_and_csv(kinds)
    c = check_render(0, ppm, csv, NX, NY, REFERENCE)
    assert (c.failed, c.flips) == (2, 2), c


def test_render_checker_counts_newly_decided_without_failing():
    kinds = REFERENCE.copy()
    kinds[6] = P  # B -> P
    kinds[7] = E  # U -> E
    kinds[4] = U  # E -> U
    ppm, csv = _ppm_and_csv(kinds)
    c = check_render(0, ppm, csv, NX, NY, REFERENCE)
    assert (c.failed, c.newly_decided, c.newly_undecided) == (0, 2, 1), c


def test_render_checker_rejects_bad_outputs():
    ppm, csv = _ppm_and_csv(REFERENCE)
    for code, data, text in (
            (1, ppm, csv),                                   # non-zero exit
            (0, ppm[:-3], csv),                              # truncated PPM
            (0, ppm.replace(b"P6", b"P5", 1), csv),          # bad header
            (0, ppm, csv.replace(",E,", ",P,", 1)),          # CSV differs
            (0, ppm, csv.replace("i,j", "x,y", 1))):         # CSV unreadable
        c = check_render(code, data, text, NX, NY, REFERENCE)
        assert c.failed == NX * NY, (code, c)


def _verify_stdout(**override) -> str:
    lines = []
    for name in SUITES:
        rep = {"suite_name": name, "total": 100, "skipped": 10,
               "violations": [], "verdict": "pass"}
        rep.update(override.get(name, {}))
        lines.append(json.dumps(rep))
    return "\n".join(lines) + "\n"


def test_verify_checker():
    c = check_verify(0, _verify_stdout())
    assert (c.attempted, c.failed, c.seeds, c.determined) == (8, 0, 700, 630), c
    bad = {"verdict": "fail", "violations": [{"input": "0"}]}
    assert check_verify(1, _verify_stdout(conjugacy=bad)).failed == 2
    assert check_verify(0, _verify_stdout(conjugacy=bad)).failed == 1
    assert check_verify(1, _verify_stdout()).failed == 1
    extra_key = {"coverage": 0.5}
    assert check_verify(0, _verify_stdout(**{"period-shift": extra_key})).failed == 1
    missing = "\n".join(_verify_stdout().splitlines()[:6])
    assert check_verify(0, missing).failed == 2


def test_inputs_follow_the_seed():
    for wl in WORKLOADS.values():
        if isinstance(wl, Render):
            a, b = wl.argv(5, "o.ppm", "o.csv"), wl.argv(5, "o.ppm", "o.csv")
            c = wl.argv(6, "o.ppm", "o.csv")
            assert wl.window_for(5) != wl.window_for(6)
        else:
            a, b, c = wl.argv(5), wl.argv(5), wl.argv(6)
        assert a == b and a != c, wl.name
    rng = [np.random.default_rng([s, 0x7ACE]).uniform(size=4)
           for s in (5, 5, 6)]
    assert (rng[0] == rng[1]).all() and not (rng[0] == rng[2]).all()


def _tiny_render() -> Render:
    return Render("tiny-deep", "conj(2, 1, F(-1, 1))", (-19.0, 5.0, -16.0, 16.0),
                  (24, 24), max_iter=60, workers=1, csv=True)


def test_count_metrics_repeat_exactly():
    wl = _tiny_render()
    seeds = tracing.grid_seeds(wl, 3)
    runs = [tracing.probe_orbits(seeds, np.random.default_rng([3, 0x7ACE]))
            for _ in range(2)]
    counts = [{k: v for k, v in r.items()
               if k.startswith(("orbits.apps_per_seed.", "orbits.verdicts."))}
              for r in runs]
    assert counts[0] == counts[1] and sum(
        v for k, v in counts[0].items() if ".verdicts." in k) == len(seeds)

    va = VerifyAll("tiny-verify", "F(-1, 1)", samples=60, res=(16, 16), workers=1)
    metrics = []
    for _ in range(2):
        tr = tracing.Tracer("selftest")
        reports = tracing.verify_pipeline(tr, va, 3, tracing.CountingClassify(tr))
        metrics.append(tracing.verify_metrics(tr, reports))
    for name in SUITES:
        for key in (f"verify.{name}.determined_frac", f"verify.{name}.classify_calls"):
            assert metrics[0][key] == metrics[1][key], key


def test_determined_frac_repeats_exactly_through_the_cli():
    wl = _tiny_render()
    work = os.path.join(BENCH, "_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        reference = np.full(wl.cells, B, dtype=np.uint8)
        tally = run.Tally()
        found = [run.run_rep(wl, 3, work, reference, tally)[2] for _ in range(2)]
        assert found[0] == found[1] > 0 and tally.failed == 0, (found, tally.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
