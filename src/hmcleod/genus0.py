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

``solve_S``, ``classify_region`` and ``classify_and_value`` take a scalar
or an array of x.  The branch continuation is level-synchronous: one
eigvals call on stacked companion matrices gives the roots at every x
of a level, and each x keeps the step rule, root picks and rounding of
a one-point solve, so a batch gives every point's S to the bit.
"""

from __future__ import annotations

import enum
import operator
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
    """Distance from x to the ray {apex + t*direction, t >= 0}.

    Broadcasts over arrays.  np.hypot of the parts rounds like Python's
    abs of a complex scalar.
    """
    w = x - apex
    t = np.maximum(w.real * direction.real + w.imag * direction.imag, 0.0)
    d = w - t * direction
    return np.hypot(d.real, d.imag)


def dist_sigma_s(x):
    x = complex(x)
    return min(dist_to_ray(x, APEX_PLUS, _RAY_DIR_PLUS),
               dist_to_ray(x, APEX_MINUS, _RAY_DIR_MINUS))


# ---------------------------------------------------------------------------
# the branch S: one batched kernel
#
# A call solves all its x together: the cubic's roots come from stacked
# companion matrices, one eigvals call per continuation level, while
# each point's step, prediction, root pick and polish are the scalar
# complex arithmetic of a one-point solve.  A point's S is therefore the
# same to the bit whether it is solved alone or in a batch.
# ---------------------------------------------------------------------------

_S_AT_ZERO = -1j * 2.0 ** (1.0 / 3.0)      # the anchor S(0), a Python complex
_SIDE_PLUS = 1j * _RAY_DIR_PLUS             # left of the outward ray orientation
_SIDE_MINUS = 1j * _RAY_DIR_MINUS
_MAX_LEVELS = 10000
# the companion matrix np.roots builds for S^3 + xS - 2i, less its -x entry
_COMPANION = np.zeros((3, 3), dtype=complex)
_COMPANION[0] = -np.array([1.0, 0.0, 0.0, -2.0j])[1:] / (1.0 + 0.0j)
_COMPANION[1, 0] = _COMPANION[2, 1] = 1.0


def _cubic_roots(x):
    """Roots of S^3 + xS - 2i for each x of a 1-d array, shape (n, 3).

    The companion matrices are the ones np.roots builds (its -x entry is
    -x / (1 + 0j)), stacked, so one eigvals call gives np.roots' values
    bit for bit.
    """
    A = np.repeat(_COMPANION[None], len(x), axis=0)
    A[:, 0, 1] = -x / (1.0 + 0.0j)
    return np.linalg.eigvals(A)


# At t = 0 the roots are those of S^3 = 2i: t x is a signed zero, and no
# sign of it changes the roots' bits.
_ROOTS_AT_ZERO = _cubic_roots(np.zeros(1, dtype=complex))[0]


def _polish(S, x):
    for _ in range(2):
        S = S - (S ** 3 + x * S - 2.0j) / (3.0 * S ** 2 + x)
    return S


def _points(x):
    """The x of a 1-d array as a one-point solve computes with them.

    That is a Python complex, or, for an x on Sigma_S, the numpy complex
    that nudging it off the cut (see ``solve_S``) makes of it, with a
    warning.
    """
    pts = [complex(v) for v in x]
    on_cut = [i for i, v in enumerate(pts)
              if abs(v) >= 3.0 - 1e-10 and dist_sigma_s(v) < 1e-10]
    if on_cut:
        warnings.warn("x lies on the branch cut of S; returning the plus-side value",
                      OnCutWarning, stacklevel=3)
    for i in on_cut:
        v = pts[i]
        side = _SIDE_PLUS if v.imag > 0 else _SIDE_MINUS
        pts[i] = v + 1e-12 * (1.0 + abs(v)) * side
    return pts


def _continue_from_zero(pts):
    """Cold branch values: continuation from S(0) along the segments [0, x].

    Level-synchronous: each level advances every x still short of t = 1
    by its own step, and the roots at all the new t x come from one call.
    x = 0 keeps S(0), unpolished; every other S is polished.
    """
    S = [_S_AT_ZERO] * len(pts)
    t = [0.0] * len(pts)
    roots = [_ROOTS_AT_ZERO] * len(pts)
    live = [i for i, x in enumerate(pts) if x != 0]
    levels = 0
    while live:
        levels += 1
        if levels > _MAX_LEVELS:
            raise TraceFailure("branch continuation for S stalled")
        preds, targets = [], []
        for i in live:
            x, Si, ti = pts[i], S[i], t[i]
            dS = -Si / (3.0 * Si ** 2 + ti * x)
            sep = min(abs(r - Si) for r in roots[i] if abs(r - Si) > 1e-14)
            # step keeps the predicted move well under the root separation
            dt_max = 0.2 * sep / (abs(dS) * abs(x) + 1e-300)
            dt = min(1.0 - ti, max(dt_max, 1e-6), 0.5)
            t[i] = ti + dt
            preds.append(Si + dS * (x * dt))
            targets.append(t[i] * x)
        # the roots at the new t x are also the next level's
        for i, r, pred in zip(live, _cubic_roots(np.array(targets)), preds):
            S[i] = r[np.argmin(np.abs(r - pred))]
            roots[i] = r
        live = [i for i in live if t[i] < 1.0]
    return [_polish(Si, x) if x != 0 else Si for Si, x in zip(S, pts)]


def solve_S(x):
    """Branch of S^3 + xS - 2i = 0 continuous off Sigma_S, S ~ -i sqrt(x).

    Takes a scalar or an array of x (the result has its shape).  Solved
    by Cardano (companion matrix) plus continuation: the branch is
    anchored at S(0) = -i 2^(1/3) and tracked along the straight segment
    from 0 to x, which never crosses the radial rays of Sigma_S.  Inputs
    on the cut are nudged to the left of the ray's outward direction and
    warned about: that is the pole-free side of the upper ray, but the
    pole-region side of the lower one.
    """
    x = np.asarray(x, dtype=complex)
    S = _continue_from_zero(_points(x.ravel()))
    return np.array(S, dtype=complex).reshape(x.shape)[()]


def solve_S_chain(xs):
    """S along a chain of nearby points.

    The first point is solved cold; each next one takes the root nearest
    the S before it, polished.  All roots come from one batched call.
    """
    pts = _points(np.asarray(xs, dtype=complex).ravel())
    S = _continue_from_zero(pts[:1])
    for r, p in zip(_cubic_roots(np.array(pts[1:])), pts[1:]):
        S.append(_polish(r[np.argmin(np.abs(r - S[-1]))], p))
    return np.array(S, dtype=complex)


def _cmul(a, b):
    """a * b with the products written out, as scalar complex arithmetic
    rounds it (numpy's array loop may fuse them)."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out[()]


def genus0_data(x):
    """Branch data at x; for an array x every field is an array of its shape."""
    x = np.asarray(x, dtype=complex)[()]
    S = solve_S(x)
    Delta = np.sqrt(-4.0j / S)
    a = (S - Delta) / 2.0
    b = (S + Delta) / 2.0
    c = -S / 2.0
    lam = -2.0 * (_cmul(1j * x, S) / 6.0 + np.log(-4.0 / Delta) + 1.0 / 3.0)
    fields = (x, S, Delta, a, b, c, lam)
    if np.ndim(x) == 0:
        fields = tuple(complex(f) for f in fields)
    return Genus0Data(*fields)


def _dist_to_segment(z, p, q):
    d = q - p
    L2 = abs(d) ** 2
    t = np.clip(((np.conj(d) * (z - p)).real) / L2, 0.0, 1.0)
    return np.abs(z - (p + t * d))


def cut_root(scale, t, mul=operator.mul):
    """scale * sqrt(t - 1) * sqrt(t + 1), the root of t^2 - 1 cut on [-1, 1].

    The root behaves like t at infinity.  Adding +0j first gives a real t
    the imaginary part +0.0 in both factors.  Otherwise t - 1 keeps an
    imaginary part of -0.0 while t + 1 (a float promoted with +0j) gets
    +0.0, the two principal roots sit on opposite sides of their cuts,
    and the product flips sign along the real extension of the band
    beyond t = -1.  ``mul`` takes the two products, left to right; the
    phase h passes _cmul.
    """
    t = t + 0j
    return mul(mul(scale, np.sqrt(t - 1.0)), np.sqrt(t + 1.0))


def r_eval(z, d, guard=True):
    """Square root with r^2 = (z-a)(z-b), r ~ z at infinity, cut on [a, b]."""
    z = np.asarray(z, dtype=complex)
    if guard and np.any(_dist_to_segment(z, d.a, d.b) < 1e-10):
        raise OnCut("z lies on the band [a, b]")
    m = 0.5 * (d.a + d.b)
    half = 0.5 * (d.b - d.a)
    out = cut_root(half, (z - m) / half, mul=_cmul)
    return out if out.shape else complex(out)


def _arcsine_branch(w):
    """U(w) = -i log(i w + eta(w)) with eta cut on [-1, 1], eta ~ i w."""
    eta = cut_root(1j, w, mul=_cmul)
    return -1j * np.log(1j * w + eta)


def two_h_plus_lambda(z, d, guard=True):
    """2 h(z) + lambda in closed form (the formula constants cancel).

    At the endpoint z = b the value is exactly 0; the formula itself
    only reaches sqrt(machine-eps) there because of the 3/2-power
    branch point, so that limit is special-cased.

    An array of z or of branch data gives each point the value a scalar
    call gives it, to the bit.  The general complex products are written
    out (_cmul), as scalar arithmetic rounds them; numpy's array loops
    may fuse them.  2 S z is the exception: a scalar z is a 0-d array
    here, so both paths take it from the same numpy loop.
    """
    z = np.asarray(z, dtype=complex)
    r = r_eval(z, d, guard=guard)
    w = np.sqrt((d.a - z) / (d.a - d.b))
    val = _cmul((1j / 3.0) * r, 4.0 * z ** 2 + 2.0 * d.S * z + 2.0 * d.x) \
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


def frak_c(x):
    """Boundary functional: Re(2 h(c(x); x) + lambda(x)).

    Broadcasts over an array x; each value is the scalar one to the bit.
    """
    return _frak_c_of(genus0_data(x))


def _frak_c_of(d):
    val = np.real(two_h_plus_lambda(d.c, d, guard=False))
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# the boundary curves: zeros of frak_c along horizontal rows
#
# frak_c does not depend on k, so the boundary is one fixed curve.  Each
# traced piece crosses a row Im x = t at most once: the arc's Im falls
# strictly from the apex to x0 (its Re stays in [-1.589, -1.5]), and the
# branch's Im and Re both rise up to |x| = 30.
# ---------------------------------------------------------------------------

_X0_BRACKET = (-2.5, -1.2)
_BRANCH_RE_MAX = 40.0
_BRANCH_IM_MAX = 26.6     # the branch is at |x| ~ 30 there
_ROWS = 200               # rows per curve


def _row_roots(t, lo, hi):
    """Re x where frak_c(x + i t) changes sign in [lo, hi], for each row.

    t, lo and hi broadcast to one row each.  Illinois false position,
    with one batched frak_c call per step over the rows still live; a
    row stops when frak_c is 0 at its point or its bracket is two
    floats wide.  A row's steps are elementwise, so it gets the same
    bits alone or in a batch.
    """
    t, lo, hi = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(t, lo, hi))
    f_lo, f_hi = frak_c(lo + 1j * t), frak_c(hi + 1j * t)
    signs = np.sign(f_lo) * np.sign(f_hi)
    if np.any(signs > 0):
        raise TraceFailure("a boundary row has no sign change in its bracket")
    x = np.where(f_lo == 0, lo, hi)
    live = signs < 0
    kept = np.zeros(len(t))       # the end a row kept last: +1 hi, -1 lo
    for _ in range(100):          # the boundary rows all close within 16 steps
        live &= hi - lo > 2.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        i = np.flatnonzero(live)
        if not len(i):
            return x
        x[i] = lo[i] + (hi[i] - lo[i]) * (f_lo[i] / (f_lo[i] - f_hi[i]))
        f = frak_c(x[i] + 1j * t[i])
        up = np.sign(f) == np.sign(f_lo[i])       # the zero lies right of x
        j, k = i[up], i[~up]
        lo[j], f_lo[j] = x[j], f[up]
        hi[k], f_hi[k] = x[k], f[~up]
        # Illinois: an end kept twice in a row has its value halved
        f_hi[j[kept[j] > 0]] /= 2.0
        f_lo[k[kept[k] < 0]] /= 2.0
        kept[j], kept[k] = 1.0, -1.0
        live[i[f == 0]] = False
    raise TraceFailure("a boundary row did not converge")


def x0_root():
    """Real-axis zero of the boundary functional: the arc's row Im x = 0."""
    return float(_row_roots(0.0, *_X0_BRACKET)[0])


@lru_cache(maxsize=1)
def _boundary_data():
    """Boundary curves (cached): the arc through x0 and the up branch.

    Both start at the apex, and the arc runs through x0 to the lower
    apex (its lower half is the mirror image: frak_c(conj x) =
    frak_c(x)).  All rows are solved in one ``_row_roots`` call: the
    arc's at 0 <= Im x < Im apex, bracketed by ``_X0_BRACKET``, and the
    branch's at Im apex < Im x <= 26.6, bracketed from 1e-6 right of the
    ray of Sigma_S to Re x = 40.  Only the ``boundary`` dump needs them;
    the region classifier works from the sign of frak_c directly.
    """
    apex = APEX_PLUS
    t_arc = np.linspace(apex.imag, 0.0, _ROWS + 1)[1:]
    t_branch = np.linspace(apex.imag, _BRANCH_IM_MAX, _ROWS + 1)[1:]
    # Re x of the ray of Sigma_S on each branch row
    ray = apex.real - (t_branch - apex.imag) / np.sqrt(3.0)
    re = _row_roots(np.concatenate([t_arc, t_branch]),
                    np.concatenate([np.full(_ROWS, _X0_BRACKET[0]), ray + 1e-6]),
                    np.repeat([_X0_BRACKET[1], _BRANCH_RE_MAX], _ROWS))
    half = re[:_ROWS] + 1j * t_arc           # its last row is x0, on the axis
    arc = np.concatenate(([apex], half, np.conj(half[:-1])[::-1], [APEX_MINUS]))
    branch_up = np.concatenate(([apex], re[_ROWS:] + 1j * t_branch))
    return {"arc": arc, "branch_up": branch_up}


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------

_LABEL_ORDER = np.array([RegionLabel.POLE_FREE_LEFT, RegionLabel.POLE_FREE_RIGHT,
                         RegionLabel.POLE_REGION_UP, RegionLabel.POLE_REGION_DOWN,
                         RegionLabel.BOUNDARY_POINT, RegionLabel.APEX_POINT], dtype=object)


def _classify(x):
    """Region labels of the array x, and the ``genus0_data`` of the classified points.

    The classified point is x itself where Im x >= 0 and conj(x) below
    the axis.  An apex point stands in as x = 0, which needs no
    continuation.
    """
    to_plus, to_minus = x - APEX_PLUS, x - APEX_MINUS
    apex = np.minimum(np.hypot(to_plus.real, to_plus.imag),
                      np.hypot(to_minus.real, to_minus.imag)) <= 1e-8
    mirrored = x.imag < 0
    xu = np.where(apex, 0.0, np.where(mirrored, np.conj(x), x))
    d = genus0_data(xu)
    c = _frak_c_of(d)
    w = _cmul(xu - APEX_PLUS, np.conj(_RAY_DIR_PLUS))
    # indices into _LABEL_ORDER, by the rules of classify_region
    code = np.where(w.real > 0, np.where(mirrored, 3, 2), 0)
    code = np.where(c < 0, 1, code)
    code = np.where((w.real > 0) & (w.imag > 0), 0, code)
    code = np.where(np.abs(c) <= 1e-8, 4, code)
    code = np.where(apex, 5, code)
    return _LABEL_ORDER[code], d


def classify_region(x):
    """Label x by its region of the scaled plane, from the sign of frak_c.

    Takes a scalar (gives a RegionLabel) or an array (gives an object
    array of them), one cold solve of S per point.  Points within 1e-8
    of an apex are APEX_POINT.  Points below the real axis are
    classified by their mirror image x -> conj(x), since
    frak_c(conj x) = frak_c(x), and a pole-region label becomes DOWN.
    |frak_c| <= 1e-8 gives BOUNDARY_POINT.  Otherwise, with
    w = (x - 3 e^(2pi i/3)) e^(-2pi i/3) the point in the frame of the
    ray of Sigma_S: Re w > 0 and Im w > 0 (beyond the ray) is
    POLE_FREE_LEFT; frak_c < 0 is POLE_FREE_RIGHT; Re w > 0 (between the
    ray and the zero curve) is the pole region; the rest, where
    frak_c > 0 left of the arc through x0, is POLE_FREE_LEFT.
    """
    return _classify(np.asarray(x, dtype=complex))[0]


def classify_and_value(x):
    """Region labels of x and the leading asymptotic values -i S(x)/2.

    The value is NaN where x is not pole-free.  Each value comes from
    the S of the classification, one cold solve per point: S(x) itself
    where Im x >= 0, and S(conj x) below the real axis, where the value
    is the conjugate of the one at conj x (S(conj x) = -conj S(x)).
    """
    x = np.asarray(x, dtype=complex)
    labels, d = _classify(x)
    free = np.vectorize(lambda lab: lab.pole_free, otypes=[bool])(labels)
    values = np.where(free, _cmul(-1j, d.S) / 2.0, np.nan)
    return labels, np.where(x.imag < 0, np.conj(values), values)[()]


def genus0_value(x):
    """Leading asymptotic value -i S(x)/2 in the pole-free region.

    Takes a scalar or an array; raises WrongRegion if any x is not
    pole-free.
    """
    labels, values = classify_and_value(x)
    for xi, label in zip(np.ravel(x), np.ravel(labels)):
        if not label.pole_free:
            raise WrongRegion(f"x={xi} classified {label.value}; the elementary "
                              "asymptotic formula only applies in the pole-free region")
    return values
