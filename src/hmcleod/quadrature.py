"""Contour representation and quadrature.

All analytic modules integrate along oriented polylines in the complex
plane.  The workhorse is fixed-order Gauss-Legendre per segment with
recursive bisection; tails from infinity are handled by the rational
substitution w = start + direction*t/(1-t); loops around a cut use a
stadium contour.  Integrands are expected to be vectorized over numpy
arrays of complex points (scalar-only callables also work).  Paths that
avoid the branch cuts are built by ``endpoints.ChainRouter`` from the
segment-crossing test at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, NonFinite

TAIL_RADIUS = 1e6


@dataclass(frozen=True)
class Path:
    """Oriented polyline through the given vertices."""

    vertices: tuple
    closed: bool = False

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if self.closed and verts[0] != verts[-1]:
            verts = verts + (verts[0],)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        for u, v in zip(verts, verts[1:]):
            if u == v:
                raise ValueError("consecutive path vertices must be distinct")
        object.__setattr__(self, "vertices", verts)

    def reverse(self):
        return Path(self.vertices[::-1], closed=self.closed)

    def segments(self):
        return list(zip(self.vertices, self.vertices[1:]))


@dataclass(frozen=True)
class QuadratureRule:
    nodes_per_segment: int = 32
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 12

    def __post_init__(self):
        if self.nodes_per_segment < 2:
            raise ValueError("nodes_per_segment must be >= 2")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=32)
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    # map to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def _eval(f, w):
    vals = f(w)
    vals = np.asarray(vals, dtype=complex)
    if vals.shape != w.shape:
        vals = np.array([complex(f(wi)) for wi in w])
    if not np.all(np.isfinite(vals)):
        bad = w[~np.isfinite(vals)][:1]
        raise NonFinite(f"integrand not finite near w={bad[0] if len(bad) else '?'}")
    return vals


def _gl_panel(f, a, b, n):
    t, wt = _gl_nodes(n)
    pts = a + (b - a) * t
    return (b - a) * np.sum(wt * _eval(f, pts))


def _adaptive(f, a, b, rule, depth=0, prev_err=np.inf):
    coarse = _gl_panel(f, a, b, rule.nodes_per_segment)
    mid = 0.5 * (a + b)
    fine = _gl_panel(f, a, mid, rule.nodes_per_segment) + _gl_panel(f, mid, b, rule.nodes_per_segment)
    err = abs(fine - coarse)
    if err <= rule.abs_tol + rule.rel_tol * abs(fine):
        return fine
    if (depth >= 4 and err >= 0.9 * prev_err
            and err <= 300.0 * (rule.abs_tol + rule.rel_tol * abs(fine))):
        # bisection has stopped reducing an already-tiny estimate:
        # roundoff floor, not a genuine feature
        return fine
    if depth >= rule.max_depth:
        raise NonConvergence(
            f"adaptive bisection hit depth {rule.max_depth} on [{a}, {b}] (err~{err:.2e})"
        )
    return (_adaptive(f, a, mid, rule, depth + 1, err)
            + _adaptive(f, mid, b, rule, depth + 1, err))


def _segment_sqrt_start(f, a, b, rule):
    # w = a + (b-a) * t^2 absorbs a (w-a)^(-1/2) singularity at the start
    def g(t):
        return f(a + (b - a) * t * t) * 2.0 * t * (b - a)
    coarse = _gl_panel(g, 0.0, 1.0, rule.nodes_per_segment)
    fine = _gl_panel(g, 0.0, 0.5, rule.nodes_per_segment) + _gl_panel(g, 0.5, 1.0, rule.nodes_per_segment)
    if abs(fine - coarse) <= rule.abs_tol + rule.rel_tol * abs(fine):
        return fine
    return _adaptive(g, 0.0, 1.0, rule)


def integrate_path(f, path, rule=DEFAULT_RULE, sqrt_start=False, sqrt_end=False):
    """Integrate f along the path.

    ``sqrt_start``/``sqrt_end`` enable a square-root substitution on the
    first/last segment, for integrands behaving like (w-p)^(±1/2) at a
    declared branch-point endpoint of the path.
    """
    segs = path.segments()
    total = 0.0 + 0.0j
    for i, (a, b) in enumerate(segs):
        if sqrt_start and i == 0:
            total += _segment_sqrt_start(f, a, b, rule)
        elif sqrt_end and i == len(segs) - 1:
            total -= _segment_sqrt_start(f, b, a, rule)
        else:
            total += _adaptive(f, a, b, rule)
    return total


def integrate_tail(f, ray_start, direction, rule=DEFAULT_RULE):
    """Integral of f from infinity to ``ray_start`` along the given ray.

    Requires |f(w)| = O(1/|w|^2) along the ray.  Uses the substitution
    w = start + direction*t/(1-t), truncated where |w - start| reaches
    TAIL_RADIUS, with the remainder checked against the tolerance.
    """
    start = complex(ray_start)
    d = complex(direction)
    d = d / abs(d)

    def g(t):
        w = start + d * t / (1.0 - t)
        return f(w) * d / (1.0 - t) ** 2

    t_max = TAIL_RADIUS / (1.0 + TAIL_RADIUS)
    body = _adaptive(g, 0.0, t_max, rule)
    # beyond the truncation radius the O(1/w^2) tail integrates to
    # w*f(w) at the cutoff up to O(1/R^2), below tolerance at R = 1e6
    w_cut = start + d * TAIL_RADIUS
    remainder = _eval(f, np.array([w_cut]))[0] * w_cut
    return -(body + remainder)


def loop_around_segment(f, p, q, clearance=None, rule=DEFAULT_RULE, n_arc=None):
    """Counterclockwise stadium-contour integral around the segment [p, q].

    ``clearance`` is the offset distance of the straight sides from the
    segment (default 10% of the segment length).  f must be analytic in
    the swept annular neighborhood.
    """
    p = complex(p)
    q = complex(q)
    length = abs(q - p)
    if length == 0:
        raise ValueError("degenerate segment")
    cl = 0.1 * length if clearance is None else float(clearance)
    u = (q - p) / length
    n = 1j * u

    total = _adaptive(f, p - cl * n, q - cl * n, rule)
    total += _arc(f, q, cl, u, -0.5 * np.pi, 0.5 * np.pi, rule)
    total += _adaptive(f, q + cl * n, p + cl * n, rule)
    total += _arc(f, p, cl, u, 0.5 * np.pi, 1.5 * np.pi, rule)
    return total


def _arc(f, center, radius, u, th0, th1, rule):
    # arc angles are measured from the segment direction u
    def g(th):
        pt = center + radius * u * np.exp(1j * th)
        return f(pt) * 1j * radius * u * np.exp(1j * th)
    return _adaptive(g, th0, th1, rule)


def cheb_theta_nodes(m):
    """Midpoint angles and weight for the substitution t = cos(theta).

    With t = cos(theta_j) these integrate smooth-in-theta integrands on
    [0, pi] spectrally (the Gauss-Chebyshev viewpoint); used by the band
    and gap integrals that carry inverse-square-root endpoint behavior.
    """
    theta = (np.arange(m) + 0.5) * np.pi / m
    return theta, np.pi / m


# --- segment-crossing test for cut-avoiding paths ---

def segments_cross(a0, a1, b0, b1, tol=1e-13):
    """True if the open segments (a0,a1) and (b0,b1) properly intersect."""
    d1 = a1 - a0
    d2 = b1 - b0
    den = (d1.real * d2.imag - d1.imag * d2.real)
    if abs(den) < tol * (abs(d1) * abs(d2) + 1e-300):
        return False
    w = b0 - a0
    s = (w.real * d2.imag - w.imag * d2.real) / den
    t = (w.real * d1.imag - w.imag * d1.real) / den
    eps = 1e-12
    return eps < s < 1 - eps and eps < t < 1 - eps

