"""Horizontal strip geometry of the escape regions.

Every escaping point of an F-map lies in the open left half plane inside
one of the strips

    (4k-3)*pi/2 < Im z - Im lam < (4k-1)*pi/2,    k integer,

and every escaping point of a G-map in the open right half plane inside

    (4k-1)*pi/2 < Im z + Im mu < (4k+1)*pi/2.

The imaginary-part offsets come from where the exponential's real part
changes sign; with a real family parameter they vanish and the strips sit
at the literal unshifted bands.  Boundary lines belong to no strip.  One
rule (_strip) and one boundary index (_boundaries) serve every query.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

from .maps import Family, _Value

__all__ = ["Family", "StripId", "strip_of", "strip_test",
           "strip_boundaries"]

_HALF_PI = math.pi / 2.0


class StripId(_Value):
    __slots__ = __match_args__ = ("k", "family")


def _sign(family: Family) -> float:
    """The family sign s: -1 for F, +1 for G; TypeError for a non-Family."""
    if not isinstance(family, Family):
        raise TypeError(f"family must be Family.F or Family.G, got {family!r}")
    return -1.0 if family is Family.F else 1.0


def _strip(x, y, s: float, param: complex, rint):
    """(k, inside) of x + i*y under the family sign s, k rounded by rint:
    z lies in strip k iff s*Re z > 0 and 4k-2+s < t < 4k+s for
    t = (Im z + s*Im param)/(pi/2)."""
    t = (y + s * param.imag) / _HALF_PI
    # (t+1-s)/4 lies in (k - 1/4, k + 1/4) inside strip k
    k = rint((t + (1.0 - s)) / 4.0)
    # Compared exactly: while |t| < 8 the bounds are small integers; from
    # 8 on t - 4k is exact (Sterbenz) and is compared with (s-2, s), as
    # 4k-2+s may not be a double there
    off = 4.0 * k * (abs(t) >= 8.0)
    rel, base = t - off, 4.0 * k - off
    return k, (s * x > 0.0) & (base + (s - 2.0) < rel) & (rel < base + s)


def strip_test(x, y, family: Family, param: complex):
    """(k, inside) of each point x + i*y, for floats or arrays: k is the
    index of the strip nearest the point (a float), inside whether the
    point lies in it.  It lies in none (wrong half plane, on a boundary
    or not finite; an infinite t raises numpy's invalid-value warning)
    where inside is false.  param is lam for family F and mu for family G.
    """
    import numpy as np  # here, so that strip_of starts without numpy

    return _strip(x, y, _sign(family), param, np.rint)


def strip_of(z: complex, family: Family, param: complex) -> Optional[StripId]:
    """Strip containing z, or None (wrong half plane, on a boundary or t
    not finite): strip_test's rule on plain floats, where round breaks
    ties to even as np.rint does."""
    try:
        k, inside = _strip(z.real, z.imag, _sign(family), param, round)
    except (OverflowError, ValueError):  # round of an infinite or NaN t
        return None
    return StripId(k, family) if inside else None


def _boundaries(y_lo: float, y_hi: float, family: Family,
                param: complex) -> Iterator[float]:
    """The strip boundaries y = (2m+1)*pi/2 + offset in [y_lo, y_hi],
    rising with m and made one at a time; the offset is +Im lam for
    family F and -Im mu for family G."""
    offset = -_sign(family) * param.imag
    m_lo = math.ceil((y_lo - offset) / math.pi - 0.5)
    m_hi = math.floor((y_hi - offset) / math.pi - 0.5)
    return ((2 * m + 1) * _HALF_PI + offset for m in range(m_lo, m_hi + 1))


def strip_boundaries(y_lo: float, y_hi: float, family: Family,
                     param: complex) -> List[float]:
    """Strip boundary ordinates inside [y_lo, y_hi], rising (_boundaries)."""
    if not -math.inf < y_lo <= y_hi < math.inf:
        raise ValueError(f"need finite y_lo <= y_hi, got {y_lo!r}, {y_hi!r}")
    return list(_boundaries(y_lo, y_hi, family, param))
