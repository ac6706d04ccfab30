"""Workload definitions and the inputs each one derives from a seed.

Inputs come from the benchmark's own arithmetic, never from
``expdyn.sampling``: the render workloads shift their window by a
seed-derived fraction of a cell, verify-all hands the seed to the CLI as
``--seed``.  The program itself only ever sees the generated argv.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

# Render windows take one of SLOTS sub-cell offsets, so a recorded
# reference verdict map exists for every seed (slot = seed mod SLOTS).
SLOTS = 16

# Suite order and report keys of `expdyn verify --suite all`.
SUITES = ("halfplane-bound", "strip-containment", "disjointness",
          "period-shift", "composite-laws", "image-superset", "conjugacy")


@dataclass(frozen=True)
class Render:
    """`expdyn render` over a grid; why: see NOTES.md."""

    name: str
    map_text: str
    window: Tuple[float, float, float, float]
    res: Tuple[int, int]
    max_iter: int
    workers: int
    csv: bool

    @property
    def cells(self) -> int:
        return self.res[0] * self.res[1]

    def window_for(self, seed: int) -> Tuple[float, float, float, float]:
        """The base window moved by a sub-cell offset picked by the seed."""
        slot = seed % SLOTS
        fx = (slot % 4 + 0.5) / 4.0
        fy = (slot // 4 + 0.5) / 4.0
        x0, x1, y0, y1 = self.window
        sx = fx * (x1 - x0) / self.res[0]
        sy = fy * (y1 - y0) / self.res[1]
        return (x0 + sx, x1 + sx, y0 + sy, y1 + sy)

    def argv(self, seed: int, ppm: str, csv: Optional[str]) -> List[str]:
        window = ",".join(repr(v) for v in self.window_for(seed))
        out = ["render", "--map", self.map_text, f"--window={window}",
               "--res", f"{self.res[0]},{self.res[1]}",
               "--max-iter", str(self.max_iter),
               "--workers", str(self.workers), "--out", ppm]
        if self.csv:
            out += ["--csv", csv]
        return out


@dataclass(frozen=True)
class VerifyAll:
    """`expdyn verify --suite all`; why: see NOTES.md."""

    name: str
    map_text: str  # the map setup_s parses; the suites use their defaults
    samples: int
    res: Tuple[int, int]
    workers: int

    def argv(self, seed: int) -> List[str]:
        return ["verify", "--suite", "all", "--seed", str(seed),
                "--samples", str(self.samples),
                "--res", f"{self.res[0]},{self.res[1]}",
                "--workers", str(self.workers)]


WORKLOADS = {
    w.name: w for w in (
        Render("render-shallow", "F(-1, 1)", (-30.0, 5.0, -20.0, 20.0),
               (512, 512), max_iter=250, workers=1, csv=True),
        Render("render-deep", "conj(2, 1, F(-1, 1))", (-19.0, 5.0, -16.0, 16.0),
               (160, 160), max_iter=60, workers=2, csv=False),
        VerifyAll("verify-all", "F(-1, 1)", samples=250, res=(180, 180),
                  workers=1),
    )
}


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# Starts the CLI and reports its wall time, peak RSS and exit status to
# the file named by argv[1].  A child's wait4 peak RSS includes the RSS
# of the process it was started from (recorded at exec), so the CLI is
# started from this small process, not from the benchmark, which holds
# reference maps and checked outputs.
_LAUNCHER = """
import json, os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable,
                     [sys.executable, "-m", "expdyn", *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    json.dump({"returncode": os.waitstatus_to_exitcode(status),
               "wall_s": wall, "maxrss_kb": usage.ru_maxrss}, fh)
"""


def _end_session(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill whatever is left of the session `proc` leads (pool workers of
    a CLI that died, say) and wait until none of its processes exists."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of CLI session {proc.pid} did not end")
        time.sleep(0.01)


def run_cli(root: str, args: List[str], work: str, timeout: float = 170.0) -> CliRun:
    """Run `python -m expdyn <args>` from the checkout root and wait for it.

    Wall time spans process start to reaped exit.  The peak resident set
    comes from wait4, so it is that of the CLI process, or of a pool
    worker it reaped, whichever was larger.
    """
    out_path = os.path.join(work, "cli.stdout")
    err_path = os.path.join(work, "cli.stderr")
    result_path = os.path.join(work, "cli.result")
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER, result_path, *args],
            cwd=root, env=cli_env(root), stdout=out, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _end_session(proc)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if not os.path.exists(result_path):
        return CliRun(-1, timeout, 0.0, stdout, stderr + "\nlauncher failed")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    return CliRun(res["returncode"], res["wall_s"], res["maxrss_kb"] / 1024.0,
                  stdout, stderr)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# Seconds the calibration loop takes at the reference speed; end-to-end
# throughput is reported at that speed.
CAL_REF_S = 0.2
CAL_STEPS = 400_000


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    z = complex(0.5, 0.5)
    for _ in range(CAL_STEPS):
        m = math.exp(-z.real - 1.0)
        z = complex(m * math.cos(-z.imag) + 1.0, m * math.sin(-z.imag))
    return time.perf_counter() - t0


# A calibration copy on another core: loads this module (the same loop
# as calibrate(1)), reports ready, waits for the go line, prints its time.
_CAL_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from workloads import _calibration_loop
print("ready", flush=True)
sys.stdin.readline()
print(repr(_calibration_loop()), flush=True)
"""


def calibrate(workers: int = 1) -> float:
    """Seconds a fixed pure-Python loop takes now, on `workers` cores at
    once (mean over the copies).

    The loop does the interpreter and libm work of expdyn's orbit loop
    (complex exponential steps of an F map) without calling expdyn, so no
    change to the program can move it.  On a shared machine the speed of
    a core drifts by tens of percent over seconds to minutes, and the
    cores drift apart; timing this loop right before and after each CLI
    run, on as many cores as the run uses, measures that drift.  Extra
    copies are plain subprocesses, each waited for before this returns.
    """
    if workers == 1:
        return _calibration_loop()
    here = os.path.dirname(os.path.abspath(__file__))
    procs = []
    try:
        for _ in range(workers):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _CAL_CHILD, here], text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        for p in procs:
            if p.stdout.readline().strip() != "ready":
                raise RuntimeError("calibration copy did not start")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        times = [float(p.stdout.readline()) for p in procs]
    finally:
        for p in procs:
            p.stdin.close()
            try:
                p.wait(timeout=60)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
    return sum(times) / workers
