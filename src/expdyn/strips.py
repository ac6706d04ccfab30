"""Horizontal strip geometry of the escape regions.

Every escaping point of an F-map lies in the open left half plane inside
one of the strips

    (4k-3)*pi/2 < Im z - Im lam < (4k-1)*pi/2,    k integer,

and every escaping point of a G-map in the open right half plane inside

    (4k-1)*pi/2 < Im z + Im mu < (4k+1)*pi/2.

The imaginary-part offsets come from where the exponential's real part
changes sign; with a real family parameter they vanish and the strips sit
at the literal unshifted bands.  Boundary lines belong to no strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .maps import Family

__all__ = ["Family", "StripId", "strip_of", "strip_boundaries"]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True, slots=True)
class StripId:
    k: int
    family: Family


def strip_of(z: complex, family: Family, param: complex) -> Optional[StripId]:
    """Strip containing z, or None (wrong half plane or on a boundary).

    param is lam for family F and mu for family G.  Equivalent sign test:
    for F a strip exists iff Re z < 0 and cos(Im z - Im lam) < 0; for G
    iff Re z > 0 and cos(Im z + Im mu) > 0.
    """
    if family is Family.F:
        if not z.real < 0.0:
            return None
        t = (z.imag - param.imag) / _HALF_PI
        # 4k-3 < t < 4k-1  <=>  (t+2)/4 in (k - 1/4, k + 1/4)
        k = round((t + 2.0) / 4.0)
        if 4 * k - 3 < t < 4 * k - 1:
            return StripId(k, family)
        return None
    if not z.real > 0.0:
        return None
    t = (z.imag + param.imag) / _HALF_PI
    k = round(t / 4.0)
    if 4 * k - 1 < t < 4 * k + 1:
        return StripId(k, family)
    return None


def strip_boundaries(y_lo: float, y_hi: float, family: Family,
                     param: complex) -> List[float]:
    """Strip boundary ordinates y = (2m+1)*pi/2 + offset inside [y_lo, y_hi].

    The offset is +Im lam for family F and -Im mu for family G.
    """
    if y_hi < y_lo:
        raise ValueError("empty interval")
    offset = param.imag if family is Family.F else -param.imag
    m_lo = math.ceil((y_lo - offset) / math.pi - 0.5)
    m_hi = math.floor((y_hi - offset) / math.pi - 0.5)
    return [(2 * m + 1) * _HALF_PI + offset for m in range(m_lo, m_hi + 1)]
