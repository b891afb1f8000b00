"""Pole-free-region machinery: cubic branch, closed-form phase, boundary.

The scaled plane is organized by the branch S(x) of

    S^3 + x*S - 2i = 0

cut on the two radial rays Sigma_S = {r e^(+-2pi i/3) : r >= 3} and picked
by S ~ -i sqrt(x) as x -> +inf.  From S come the derived points

    Delta = (-4i/S)^(1/2)  (principal),  a = (S-Delta)/2,
    b = (S+Delta)/2,       c = -S/2,

the square root r(z) with r^2 = (z-a)(z-b), r ~ z, cut on the segment
[a, b], and the scalar phase

    h(z) = (i/6) r(z) (4z^2 + 2Sz + 2x) - 2i U(sqrt((a-z)/(a-b)))
           + i x S/6 + log(-4/Delta) + 1/3 + i pi,

with U(w) = -i log(i w + eta(w)), eta(w) = ((1-w)(1+w))^(1/2) cut on
[-1, 1] and eta ~ i w at infinity.  The trailing +i pi pins the additive
branch constant so that 2h(b) + lambda = 0 exactly, where

    lambda = -2 (i x S/6 + log(-4/Delta) + 1/3).

With principal square roots and logs the formula is analytic off the
band [a, b] and the straight ray from a in the direction a - b (the
logarithmic cut); h' = i (S + 2z) r(z) everywhere off those cuts.

The function c(x) = Re(2h(c) + lambda) vanishes exactly on the boundary
between the pole-free and pole regions; its zero-level set consists of
the two rays of Sigma_S, a curved arc joining the apexes 3 e^(+-2pi i/3)
through a real root x0 ~ -1.588, and two curved branches leaving the
apexes into the right half-plane.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OnCut, OnCutWarning, TraceFailure, WrongRegion

APEX_PLUS = 3.0 * np.exp(2j * np.pi / 3.0)
APEX_MINUS = 3.0 * np.exp(-2j * np.pi / 3.0)
_RAY_DIR_PLUS = np.exp(2j * np.pi / 3.0)
_RAY_DIR_MINUS = np.exp(-2j * np.pi / 3.0)


def phase(z, x):
    """Cubic phase (4/3) z^3 + x z."""
    return (4.0 / 3.0) * z ** 3 + x * z


def phase_prime(z, x):
    return 4.0 * z ** 2 + x


class RegionLabel(enum.Enum):
    POLE_FREE_LEFT = "PoleFreeLeft"
    POLE_FREE_RIGHT = "PoleFreeRight"
    POLE_REGION_UP = "PoleRegionUp"
    POLE_REGION_DOWN = "PoleRegionDown"
    BOUNDARY_POINT = "BoundaryPoint"
    APEX_POINT = "ApexPoint"

    @property
    def pole_free(self):
        return self in (RegionLabel.POLE_FREE_LEFT, RegionLabel.POLE_FREE_RIGHT,
                        RegionLabel.BOUNDARY_POINT)


@dataclass(frozen=True)
class Genus0Data:
    """Branch data at one x: root S and the derived points and constant."""

    x: complex
    S: complex
    Delta: complex
    a: complex
    b: complex
    c: complex
    lam: complex


def dist_to_ray(x, apex, direction):
    """Distance from x to the ray {apex + t*direction, t >= 0}."""
    w = x - apex
    t = (w.real * direction.real + w.imag * direction.imag)
    t = max(t, 0.0)
    return abs(w - t * direction)


def dist_sigma_s(x):
    x = complex(x)
    return min(dist_to_ray(x, APEX_PLUS, _RAY_DIR_PLUS),
               dist_to_ray(x, APEX_MINUS, _RAY_DIR_MINUS))


def _cubic_roots(x):
    return np.roots([1.0, 0.0, x, -2.0j])


def _polish(S, x):
    for _ in range(2):
        S = S - (S ** 3 + x * S - 2.0j) / (3.0 * S ** 2 + x)
    return S


def solve_S(x, hint=None):
    """Branch of S^3 + xS - 2i = 0 continuous off Sigma_S, S ~ -i sqrt(x).

    Solved by Cardano (companion matrix) plus continuation: the branch is
    anchored at S(0) = -i 2^(1/3) and tracked along the straight segment
    from 0 to x, which never crosses the radial rays of Sigma_S.  Inputs
    on the cut are nudged to the plus (pole-free) side and warned about.
    """
    x = complex(x)
    if dist_sigma_s(x) < 1e-10 and abs(x) >= 3.0 - 1e-10:
        warnings.warn("x lies on the branch cut of S; returning the plus-side value",
                      OnCutWarning, stacklevel=2)
        apex = APEX_PLUS if x.imag > 0 else APEX_MINUS
        ray = _RAY_DIR_PLUS if x.imag > 0 else _RAY_DIR_MINUS
        side = 1j * ray  # left of the outward ray orientation
        x = x + 1e-12 * (1.0 + abs(x)) * side

    if hint is not None:
        roots = _cubic_roots(x)
        return _polish(roots[np.argmin(np.abs(roots - hint))], x)

    S = -1j * 2.0 ** (1.0 / 3.0)
    if x == 0:
        return S
    t = 0.0
    guard = 0
    while t < 1.0:
        guard += 1
        if guard > 10000:
            raise TraceFailure("branch continuation for S stalled")
        x_here = t * x
        dS = -S / (3.0 * S ** 2 + x_here)
        roots = _cubic_roots(x_here)
        sep = min(abs(r - S) for r in roots if abs(r - S) > 1e-14) if len(roots) else np.inf
        # step keeps the predicted move well under the root separation
        dt_max = 0.2 * sep / (abs(dS) * abs(x) + 1e-300)
        dt = min(1.0 - t, max(dt_max, 1e-6), 0.5)
        t_new = t + dt
        pred = S + dS * (x * dt)
        roots = _cubic_roots(t_new * x)
        S = roots[np.argmin(np.abs(roots - pred))]
        t = t_new
    return _polish(S, x)


def genus0_data(x, hint=None):
    x = complex(x)
    S = solve_S(x, hint=hint)
    Delta = np.sqrt(-4.0j / S)
    a = (S - Delta) / 2.0
    b = (S + Delta) / 2.0
    c = -S / 2.0
    lam = -2.0 * (1j * x * S / 6.0 + np.log(-4.0 / Delta) + 1.0 / 3.0)
    return Genus0Data(x=x, S=complex(S), Delta=complex(Delta), a=complex(a),
                      b=complex(b), c=complex(c), lam=complex(lam))


def _dist_to_segment(z, p, q):
    d = q - p
    L2 = abs(d) ** 2
    t = np.clip(((np.conj(d) * (z - p)).real) / L2, 0.0, 1.0)
    return np.abs(z - (p + t * d))


def cut_root(scale, t):
    """scale * sqrt(t - 1) * sqrt(t + 1), the root of t^2 - 1 cut on [-1, 1].

    The root behaves like t at infinity.  Adding +0j first gives a real t
    the imaginary part +0.0 in both factors.  Otherwise t - 1 keeps an
    imaginary part of -0.0 while t + 1 (a float promoted with +0j) gets
    +0.0, the two principal roots sit on opposite sides of their cuts,
    and the product flips sign along the real extension of the band
    beyond t = -1.
    """
    t = t + 0j
    return scale * np.sqrt(t - 1.0) * np.sqrt(t + 1.0)


def r_eval(z, d, guard=True):
    """Square root with r^2 = (z-a)(z-b), r ~ z at infinity, cut on [a, b]."""
    z = np.asarray(z, dtype=complex)
    if guard and np.any(_dist_to_segment(z, d.a, d.b) < 1e-10):
        raise OnCut("z lies on the band [a, b]")
    m = 0.5 * (d.a + d.b)
    half = 0.5 * (d.b - d.a)
    out = cut_root(half, (z - m) / half)
    return out if out.shape else complex(out)


def _arcsine_branch(w):
    """U(w) = -i log(i w + eta(w)) with eta cut on [-1, 1], eta ~ i w."""
    eta = cut_root(1j, w)
    return -1j * np.log(1j * w + eta)


def two_h_plus_lambda(z, d, guard=True):
    """2 h(z) + lambda in closed form (the formula constants cancel).

    At the endpoint z = b the value is exactly 0; the formula itself
    only reaches sqrt(machine-eps) there because of the 3/2-power
    branch point, so that limit is special-cased.
    """
    z = np.asarray(z, dtype=complex)
    r = r_eval(z, d, guard=guard)
    w = np.sqrt((d.a - z) / (d.a - d.b))
    val = (1j / 3.0) * r * (4.0 * z ** 2 + 2.0 * d.S * z + 2.0 * d.x) \
        - 4.0j * _arcsine_branch(w) + 2j * np.pi
    val = np.where(z == d.b, 0.0 + 0.0j, val)
    return val if val.shape else complex(val)


def h_eval(z, d, guard=True):
    """Scalar phase h(z); cut on [a, b] and on the ray from a along a - b."""
    return (two_h_plus_lambda(z, d, guard=guard) - d.lam) / 2.0


def h_prime(z, d, guard=True):
    """h'(z) = i (S + 2z) r(z)."""
    z = np.asarray(z, dtype=complex)
    out = 1j * (d.S + 2.0 * z) * r_eval(z, d, guard=guard)
    return out if out.shape else complex(out)


def frak_c(x, hint=None):
    """Boundary functional: Re(2 h(c(x); x) + lambda(x))."""
    d = genus0_data(x, hint=hint)
    return float(np.real(two_h_plus_lambda(d.c, d, guard=False)))


def x0_root():
    """Real-axis zero of the boundary functional, bracketed in [-2.5, -1.2]."""
    from scipy.optimize import brentq  # only the boundary dump pays for scipy

    return brentq(lambda t: frak_c(complex(t, 0.0)), -2.5, -1.2, xtol=1e-10)


# ---------------------------------------------------------------------------
# boundary tracing and region classification
# ---------------------------------------------------------------------------

_TRACE_STEP = 0.05
_TRACE_RMAX = 30.0


def _grad_c(x, S_hint, h=1e-6):
    cpp = frak_c(x + h, hint=S_hint)
    cpm = frak_c(x - h, hint=S_hint)
    cip = frak_c(x + 1j * h, hint=S_hint)
    cim = frak_c(x - 1j * h, hint=S_hint)
    return complex((cpp - cpm) / (2 * h), (cip - cim) / (2 * h))


def _newton_onto_curve(x, S_hint, tol=1e-11, iters=8):
    for _ in range(iters):
        val = frak_c(x, hint=S_hint)
        if abs(val) <= tol:
            return x
        g = _grad_c(x, S_hint)
        if abs(g) < 1e-14:
            raise TraceFailure("vanishing gradient while correcting onto the boundary")
        x = x - val * g / abs(g) ** 2
    if abs(frak_c(x, hint=S_hint)) > 100 * tol:
        raise TraceFailure("corrector did not land on the boundary curve")
    return x


def _trace_curve(start, direction, stop, step=_TRACE_STEP, max_steps=4000):
    """Predictor-corrector continuation of the zero curve of frak_c."""
    pts = [start]
    x = start
    S_hint = solve_S(x)
    prev = direction / abs(direction)
    for _ in range(max_steps):
        g = _grad_c(x, S_hint)
        tan = 1j * g / abs(g)
        if (tan.real * prev.real + tan.imag * prev.imag) < 0:
            tan = -tan
        x = _newton_onto_curve(x + step * tan, S_hint)
        S_hint = solve_S(x, hint=S_hint)
        prev = tan
        pts.append(x)
        if stop(x):
            return np.array(pts)
    raise TraceFailure("boundary trace exceeded its step budget")


def _zero_directions_near_apex(apex, radius=0.12, n=720):
    from scipy.optimize import brentq  # only the boundary dump pays for scipy

    angles = np.linspace(-np.pi, np.pi, n, endpoint=False)
    with warnings.catch_warnings():
        # scan points that brentq pushes onto the ray are discarded later
        warnings.simplefilter("ignore", OnCutWarning)
        vals = np.array([frak_c(apex + radius * np.exp(1j * t)) for t in angles])
    hits = []
    f = lambda t: frak_c(apex + radius * np.exp(1j * t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        for i in range(n):
            j = (i + 1) % n
            if vals[i] == 0.0 or vals[i] * vals[j] < 0:
                lo_t, hi_t = angles[i], angles[i] + (angles[1] - angles[0])
                try:
                    t_star = brentq(f, lo_t, hi_t, xtol=1e-12)
                except ValueError:
                    t_star = lo_t
                hits.append(t_star)
    return hits


@lru_cache(maxsize=1)
def _boundary_data():
    """Traced boundary curves (cached): arc through x0 and the up branch.

    Only the ``boundary`` dump needs them; the region classifier works
    from the sign of frak_c directly.
    """
    apex = APEX_PLUS
    ray_angle = 2.0 * np.pi / 3.0
    radius = 0.12
    dirs = [t for t in _zero_directions_near_apex(apex, radius)
            if abs(np.angle(np.exp(1j * (t - ray_angle)))) > np.radians(12)]
    if len(dirs) < 2:
        raise TraceFailure("could not locate the boundary directions at the apex")
    # the arc heads into the lower half toward the real root; the branch
    # heads into the right half-plane
    arc_dir = min(dirs, key=lambda t: np.sin(t))
    branch_dir = max(dirs, key=lambda t: np.cos(t))

    start_arc = _newton_onto_curve(apex + radius * np.exp(1j * arc_dir), solve_S(apex + radius * np.exp(1j * arc_dir)))
    half = _trace_curve(start_arc, start_arc - apex, stop=lambda x: x.imag <= 0.0)
    # symmetrize: frak_c(conj(x)) = frak_c(x)
    x_axis = half[-1]
    arc = np.concatenate(([apex], half[:-1], [complex(x_axis.real, 0.0)],
                          np.conj(half[:-1])[::-1], [APEX_MINUS]))

    start_br = _newton_onto_curve(apex + radius * np.exp(1j * branch_dir), solve_S(apex + radius * np.exp(1j * branch_dir)))
    branch_up = _trace_curve(start_br, start_br - apex, stop=lambda x: abs(x) >= _TRACE_RMAX)
    branch_up = np.concatenate(([apex], branch_up))
    return {"arc": arc, "branch_up": branch_up}


def classify_region(x):
    """Label x by its region of the scaled plane, from the sign of frak_c.

    Points within 1e-8 of an apex are APEX_POINT.  Points below the real
    axis are classified by their mirror image x -> conj(x), since
    frak_c(conj x) = frak_c(x), and a pole-region label becomes DOWN.
    |frak_c| <= 1e-8 gives BOUNDARY_POINT.  Otherwise, with
    w = (x - 3 e^(2pi i/3)) e^(-2pi i/3) the point in the frame of the
    ray of Sigma_S: Re w > 0 and Im w > 0 (beyond the ray) is
    POLE_FREE_LEFT; frak_c < 0 is POLE_FREE_RIGHT; Re w > 0 (between the
    ray and the zero curve) is the pole region; the rest, where
    frak_c > 0 left of the arc through x0, is POLE_FREE_LEFT.
    """
    x = complex(x)
    if min(abs(x - APEX_PLUS), abs(x - APEX_MINUS)) <= 1e-8:
        return RegionLabel.APEX_POINT

    mirrored = x.imag < 0
    xu = np.conj(x) if mirrored else x
    up_label = RegionLabel.POLE_REGION_DOWN if mirrored else RegionLabel.POLE_REGION_UP

    c = frak_c(xu)
    if abs(c) <= 1e-8:
        return RegionLabel.BOUNDARY_POINT

    w = (xu - APEX_PLUS) * np.conj(_RAY_DIR_PLUS)
    if w.real > 0 and w.imag > 0:
        return RegionLabel.POLE_FREE_LEFT
    if c < 0:
        return RegionLabel.POLE_FREE_RIGHT
    if w.real > 0:
        return up_label
    return RegionLabel.POLE_FREE_LEFT


def genus0_value(x):
    """Leading asymptotic value -i S(x)/2 in the pole-free region."""
    label = classify_region(x)
    if not label.pole_free:
        raise WrongRegion(f"x={x} classified {label.value}; the elementary "
                          "asymptotic formula only applies in the pole-free region")
    return -1j * genus0_data(x).S / 2.0
