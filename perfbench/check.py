"""Output checker: decides which operations of a workload run failed.

render: the PPM header and size must be valid and every pixel must be a
palette colour; the CSV, when written, must round-trip through
``import_field_csv`` to a field that renders to the same bytes; each
cell is compared with the reference verdict map recorded for its window.
An E<->P flip against the reference is a failed operation (one per
cell).  A B/U cell that became decided is counted, not failed.

verify-all: exit code 0, then seven JSON lines in suite order with
exactly the report keys, no violations and verdict "pass".  Each bad
suite line and a non-zero exit is a failed operation (eight per run).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from workloads import SUITES

E, P, B, U = (ord(c) for c in "EPBU")
REPORT_KEYS = {"suite_name", "total", "skipped", "violations", "verdict"}


class MalformedOutput(ValueError):
    pass


@dataclass
class RenderCheck:
    attempted: int
    failed: int
    determined: int     # cells decoded as E or P
    flips: int          # E<->P against the reference
    newly_decided: int  # reference B/U, now E/P
    newly_undecided: int  # reference E/P, now B/U
    problem: str = ""


@dataclass
class VerifyCheck:
    attempted: int
    failed: int
    seeds: int          # sum of the suites' totals
    determined: int     # sum of total - skipped
    problem: str = ""


def decode_ppm(data: bytes, nx: int, ny: int) -> np.ndarray:
    """Per-cell kind codes (E/P/B/U) read back from the render palette."""
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    if not data.startswith(header):
        raise MalformedOutput(f"bad PPM header {data[:24]!r}")
    body = data[len(header):]
    if len(body) != 3 * nx * ny:
        raise MalformedOutput(f"PPM body has {len(body)} bytes, want {3 * nx * ny}")
    rgb = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
    r, g, b = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    kinds = np.zeros(nx * ny, dtype=np.uint8)
    kinds[(g == 0) & (b == 64) & (r >= 8)] = E
    kinds[(r == 0) & (g == 0) & (b == 0)] = P
    kinds[(r == 0) & (g == 48) & (b == 0)] = B
    kinds[(r == 128) & (g == 128) & (b == 128)] = U
    if not kinds.all():
        raise MalformedOutput(f"{int(np.count_nonzero(kinds == 0))} pixels "
                              "outside the palette")
    return kinds


def check_render(returncode: int, ppm: bytes, csv_text: Optional[str],
                 nx: int, ny: int, reference: np.ndarray) -> RenderCheck:
    # expdyn is importable only once run.py has put the checkout's src
    # on the path
    from expdyn import import_field_csv, render_ppm

    cells = nx * ny
    try:
        if returncode != 0:
            raise MalformedOutput(f"exit code {returncode}")
        kinds = decode_ppm(ppm, nx, ny)
        if csv_text is not None:
            try:
                field = import_field_csv(io.StringIO(csv_text))
            except ValueError as exc:
                raise MalformedOutput(f"CSV does not import: {exc}") from exc
            buf = io.BytesIO()
            render_ppm(field, buf)
            if (field.nx, field.ny) != (nx, ny) or buf.getvalue() != ppm:
                raise MalformedOutput("CSV cells differ from the PPM")
    except MalformedOutput as exc:
        return RenderCheck(cells, cells, 0, 0, 0, 0, str(exc))
    decided = (kinds == E) | (kinds == P)
    ref_decided = (reference == E) | (reference == P)
    flips = int(np.count_nonzero(decided & ref_decided & (kinds != reference)))
    return RenderCheck(
        attempted=cells, failed=flips,
        determined=int(np.count_nonzero(decided)), flips=flips,
        newly_decided=int(np.count_nonzero(decided & ~ref_decided)),
        newly_undecided=int(np.count_nonzero(~decided & ref_decided)),
        problem=f"{flips} E<->P flips against the reference" if flips else "")


def check_verify(returncode: int, stdout: str) -> VerifyCheck:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    failed = 0
    seeds = determined = 0
    problems = []
    if returncode != 0 or len(lines) != len(SUITES):
        failed += 1
        problems.append(f"exit code {returncode}, {len(lines)} report lines")
    for k, name in enumerate(SUITES):
        try:
            rep = json.loads(lines[k])
        except (IndexError, ValueError):
            failed += 1
            problems.append(f"{name}: no report line")
            continue
        if not isinstance(rep, dict) or set(rep) != REPORT_KEYS \
                or rep["suite_name"] != name:
            failed += 1
            problems.append(f"{name}: malformed report {lines[k][:80]!r}")
            continue
        total, skipped = rep["total"], rep["skipped"]
        if not (isinstance(total, int) and isinstance(skipped, int)
                and 0 <= skipped <= total and total > 0):
            failed += 1
            problems.append(f"{name}: bad counts {total}/{skipped}")
            continue
        seeds += total
        determined += total - skipped
        if rep["verdict"] != "pass" or rep["violations"]:
            failed += 1
            problems.append(f"{name}: verdict {rep['verdict']}")
    return VerifyCheck(len(SUITES) + 1, failed, seeds, determined,
                       "; ".join(problems))
