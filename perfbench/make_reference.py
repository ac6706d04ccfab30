"""Record the reference verdict maps the render checker compares against.

    python3 perfbench/make_reference.py

For every render workload and every one of the SLOTS windows a seed can
select, runs the workload through the CLI of this checkout and stores
the per-cell verdict kinds in ``perfbench/reference/<workload>.npz``.
The stored maps are the verdicts of the commit that recorded them; rerun
only when a workload's inputs change, never to absorb a verdict change.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    from check import decode_ppm
    from workloads import SLOTS, WORKLOADS, Render, run_cli

    work = os.path.join(BENCH, "_work", f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(BENCH, "reference"), exist_ok=True)
    try:
        for wl in WORKLOADS.values():
            if not isinstance(wl, Render):
                continue
            kinds, windows = [], []
            for slot in range(SLOTS):
                ppm = os.path.join(work, "ref.ppm")
                csv = os.path.join(work, "ref.csv")
                r = run_cli(ROOT, wl.argv(slot, ppm, csv), work)
                if r.returncode != 0:
                    print(r.stderr, file=sys.stderr)
                    return 1
                with open(ppm, "rb") as fh:
                    kinds.append(decode_ppm(fh.read(), *wl.res))
                windows.append(wl.window_for(slot))
                print(f"{wl.name} slot {slot}: "
                      + " ".join(f"{c}={int(np.count_nonzero(kinds[-1] == ord(c)))}"
                                 for c in "EPBU"))
            np.savez_compressed(os.path.join(BENCH, "reference", f"{wl.name}.npz"),
                                kinds=np.array(kinds), windows=np.array(windows),
                                res=np.array(wl.res))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
