"""Shared test utilities: independent oracles, hypothesis strategies and
fresh interpreters."""

import cmath
import math
import os
import struct
import subprocess
import sys

from hypothesis import strategies as st

import expdyn
from expdyn.maps import (
    Compose,
    Conjugate,
    Directed,
    FamilyF,
    FamilyG,
    Iterate,
    ScaledExp,
    Shift,
)

TWO_PI = 2.0 * math.pi


def run_fresh(*args: str, cwd=None, env=None):
    """`python *args` in a fresh interpreter that imports the expdyn under
    test: (exit code, stdout, stderr).  env updates this environment; a
    None value removes its variable."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(expdyn.__file__))))
    env = {key: value for key, value in env.items() if value is not None}
    run = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                         capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


_PAIR = struct.Struct("dd")


def same_point(p, q) -> bool:
    """p and q are the same point bit for bit: the same kind and the same
    bits of both floats (0.0 and -0.0 differ; a NaN equals itself)."""
    if isinstance(p, complex):
        return isinstance(q, complex) and \
            _PAIR.pack(p.real, p.imag) == _PAIR.pack(q.real, q.imag)
    return isinstance(q, Directed) and \
        _PAIR.pack(p.log_modulus, p.angle) == _PAIR.pack(q.log_modulus, q.angle)


# ---------------------------------------------------------------------------
# naive reference interpreter: plain complex arithmetic, no overflow ladder
# ---------------------------------------------------------------------------

def naive_apply(expr, z: complex) -> complex:
    """One application using cmath only; raises OverflowError when the
    exponential leaves the double range."""
    if isinstance(expr, FamilyF):
        return cmath.exp(-z + expr.lam) + expr.xi
    if isinstance(expr, FamilyG):
        return cmath.exp(z + expr.mu) + expr.zeta
    if isinstance(expr, ScaledExp):
        return cmath.exp(expr.lam * z)
    if isinstance(expr, Iterate):
        for _ in range(expr.s):
            z = naive_apply(expr.base, z)
        return z
    if isinstance(expr, Shift):
        return naive_apply(expr.base, z) + expr.c
    if isinstance(expr, Compose):
        return naive_apply(expr.outer, naive_apply(expr.inner, z))
    if isinstance(expr, Conjugate):
        return expr.a * naive_apply(expr.base, (z - expr.b) / expr.a) + expr.b
    raise TypeError(expr)


def naive_orbit(expr, z0: complex, max_steps: int = 100,
                abort_modulus: float = 1e100):
    """Orbit prefix under the naive interpreter, aborting past the modulus
    cap or on overflow."""
    points = [z0]
    z = z0
    for _ in range(max_steps):
        if abs(z) > abort_modulus:
            break
        try:
            z = naive_apply(expr, z)
        except OverflowError:
            break
        points.append(z)
        # overflow can also show up as inf components
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            points.pop()
            break
    return points


# ---------------------------------------------------------------------------
# escaping seed construction by inverse-branch pullback
# ---------------------------------------------------------------------------

def pullback_escaping_seed(fam: FamilyF, depth: int = 10,
                           w0: complex = complex(-1e6, math.pi)) -> complex:
    """Seed whose orbit reaches w0 after `depth` steps, staying inside the
    principal escape strip.

    Inverse branch of z -> exp(-z+lam)+xi is z = lam - log(w - xi); the
    log branch is chosen so Im z - Im lam lands in (pi/2, 3pi/2).
    """
    w = w0
    for _ in range(depth):
        z = fam.lam - cmath.log(w - fam.xi)
        y = z.imag - fam.lam.imag
        m = round((math.pi - y) / TWO_PI)
        z = complex(z.real, z.imag + TWO_PI * m)
        assert math.pi / 2 < z.imag - fam.lam.imag < 3 * math.pi / 2
        w = z
    return w


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def reals(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


def complexes(re_lo=-5.0, re_hi=5.0, im_lo=-5.0, im_hi=5.0):
    return st.builds(complex, reals(re_lo, re_hi), reals(im_lo, im_hi))


def family_f_maps():
    return st.builds(FamilyF,
                     st.builds(complex, reals(-5.0, -0.1), reals(-3.0, 3.0)),
                     st.builds(complex, reals(1.0, 5.0), reals(-3.0, 3.0)))


def family_g_maps():
    return st.builds(FamilyG,
                     st.builds(complex, reals(-5.0, -0.1), reals(-3.0, 3.0)),
                     st.builds(complex, reals(-5.0, -1.0), reals(-3.0, 3.0)))


def scaled_exp_maps():
    nonzero = st.builds(complex, reals(-2.0, 2.0), reals(-2.0, 2.0)).filter(
        lambda z: abs(z) > 1e-3)
    return st.builds(ScaledExp, nonzero)


def leaf_maps():
    return st.one_of(family_f_maps(), family_g_maps(), scaled_exp_maps())


def map_exprs(max_leaves: int = 4):
    scale = st.builds(complex, reals(-3.0, 3.0), reals(-3.0, 3.0)).filter(
        lambda z: 0.25 <= abs(z) <= 4.0)
    offset = complexes(-3.0, 3.0, -3.0, 3.0)
    return st.recursive(
        leaf_maps(),
        lambda inner: st.one_of(
            st.builds(Iterate, inner, st.integers(1, 3)),
            st.builds(Shift, inner, offset),
            st.builds(Compose, inner, inner),
            st.builds(Conjugate, scale, offset, inner),
        ),
        max_leaves=max_leaves)
