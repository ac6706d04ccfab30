"""An independent replay of NonEscapingProven verdicts in mpmath.

The engines step a seed in double precision, and the scalar and block
engines agree bit for bit, so neither can check the other's arithmetic.
This oracle replays the true orbit of a seed under the family map of the
map's chart, u = (z - b)/a, in multiple precision, and says whether the
engine's claim that the orbit touches the closed absorbing half plane
sign*Re u <= 0 by step n holds.

* The chart is derived here from the map's nodes, with a and b composed
  exactly, and the seed u_0 = (z_0 - b)/a starts from the exact binary
  value of z_0.
* Precision grows with the orbit: an error in u_j is multiplied by about
  |u_{j+1}| at each step, so the replay runs at 30 digits more than the
  sum of log10|u_j|, and runs again at a higher precision until that sum
  fits.
* A point too large to form (|u| above about 10^2000) is not formed: it
  is exp(w) + q with Re w huge, so its side of the half plane is the sign
  of cos(Im w).  The orbit is not followed past it.

``replay_proven`` returns CONFIRMED if some true u_k with k <= n lies in
the closed absorbing half plane, CONTRADICTED if none does, and
UNCONFIRMED where a side cannot be told apart at the precision reached
(within a few units of its last digits, or past the precision cap).
It uses no code of the engines.
"""

import mpmath

from expdyn.maps import Conjugate, FamilyF, FamilyG, Shift

CONFIRMED = "confirmed"
CONTRADICTED = "contradicted"
UNCONFIRMED = "unconfirmed"

GUARD_DIGITS = 30
MAX_DIGITS = 4000
# log of the modulus above which a point is not formed (10^2000)
HUGE_LOG = 2000 * mpmath.log(10)


def family_chart(expr):
    """(sign, param, const, a, b) of the family map f(u) = exp(sign*u +
    param) + const that expr is in u = (z - b)/a, as exact mpc values at the
    working precision; a ValueError for a map without such a chart.  The
    family's constraints are checked on f itself: the half plane absorbs
    only for a map of the family."""
    if isinstance(expr, (FamilyF, FamilyG)):
        sign = -1 if isinstance(expr, FamilyF) else 1
        param, const = mpmath.mpc(expr.param), mpmath.mpc(expr.const)
        if not (param.real < 0 and sign * const.real <= -1):
            raise ValueError(f"not a family map: {expr!r}")
        return sign, param, const, mpmath.mpc(1), mpmath.mpc(0)
    if isinstance(expr, Shift):
        sign, param, const, a, b = family_chart(expr.base)
        if a != 1 or b != 0:
            raise ValueError(f"no family chart: {expr!r}")
        const += mpmath.mpc(expr.c)
        if not sign * const.real <= -1:
            raise ValueError(f"shift leaves the family: {expr!r}")
        return sign, param, const, a, b
    if isinstance(expr, Conjugate):
        sign, param, const, a, b = family_chart(expr.base)
        ca, cb = mpmath.mpc(expr.a), mpmath.mpc(expr.b)
        return sign, param, const, ca * a, ca * b + cb
    raise ValueError(f"no family chart: {expr!r}")


def _replay(expr, z0: complex, n: int, digits: int):
    """(verdict, digits needed) of one replay at `digits` digits."""
    with mpmath.workdps(digits):
        sign, param, const, a, b = family_chart(expr)
        u = (mpmath.mpc(z0.real, z0.imag) - b) / a
        lost, unsure = 0, False  # u_k is good to about 10^(lost - digits)
        for k in range(n + 1):
            lost += int(mpmath.ceil(mpmath.log10(max(1, abs(u)))))
            tol = mpmath.mpf(10) ** (lost - digits + 10)
            side = sign * u.real  # <= 0: absorbed
            if abs(side) <= tol:
                unsure = True
            elif side < 0:
                return CONFIRMED, lost + GUARD_DIGITS
            if k == n:
                break
            w = sign * u + param
            if w.real > HUGE_LOG:
                # u_{k+1} = exp(w) + const, dominated by exp(w); Im w is
                # good to the absolute precision of u_k
                c = mpmath.cos(w.imag)
                if abs(c) <= tol:
                    return UNCONFIRMED, lost + GUARD_DIGITS
                if sign * c < 0:
                    return CONFIRMED, lost + GUARD_DIGITS
                if k + 1 < n:
                    return UNCONFIRMED, lost + GUARD_DIGITS  # not followed
                break
            u = mpmath.exp(w) + const
        return (UNCONFIRMED if unsure else CONTRADICTED), lost + GUARD_DIGITS


def replay_proven(expr, z0: complex, n: int) -> str:
    """Replay the claim NonEscapingProven(_, n) of the seed z0 under expr."""
    digits = 2 * GUARD_DIGITS
    while digits <= MAX_DIGITS:
        verdict, needed = _replay(expr, complex(z0), n, digits)
        if needed <= digits:
            return verdict
        digits = needed + GUARD_DIGITS
    return UNCONFIRMED
