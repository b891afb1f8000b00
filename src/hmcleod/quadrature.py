"""Contour representation and quadrature.

All analytic modules integrate along oriented polylines in the complex
plane.  The workhorse is fixed-order Gauss-Legendre per segment with
recursive bisection, plus a square-root substitution for a segment that
starts at a branch point.  Integrands are expected to be vectorized over
numpy arrays of complex points (scalar-only callables also work).  Paths
that avoid the branch cuts are built by ``endpoints.ChainRouter`` from
the segment-crossing test at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, NonFinite

# Gauss-Legendre nodes per panel of the adaptive rule
PANEL_NODES = 32


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
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=1)
def _gl_nodes():
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
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


def _gl_panel(f, a, b):
    t, wt = _gl_nodes()
    pts = a + (b - a) * t
    return (b - a) * np.sum(wt * _eval(f, pts))


def _adaptive(f, a, b, rule, depth=0, prev_err=np.inf, coarse=None):
    # ``coarse`` is the panel on [a, b] when the caller has it already
    if coarse is None:
        coarse = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left, right = _gl_panel(f, a, mid), _gl_panel(f, mid, b)
    fine = left + right
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
    return (_adaptive(f, a, mid, rule, depth + 1, err, left)
            + _adaptive(f, mid, b, rule, depth + 1, err, right))


def _segment_sqrt_start(f, a, b, rule):
    # w = a + (b-a) * t^2 absorbs a (w-a)^(-1/2) singularity at the start
    def g(t):
        return f(a + (b - a) * t * t) * 2.0 * t * (b - a)
    return _adaptive(g, 0.0, 1.0, rule)


def integrate_path(f, path, rule=DEFAULT_RULE, sqrt_start=False):
    """Integrate f along the path.

    ``sqrt_start`` enables a square-root substitution on the first
    segment, for integrands behaving like (w-p)^(±1/2) at a declared
    branch-point start of the path.
    """
    total = 0.0 + 0.0j
    for i, (a, b) in enumerate(path.segments()):
        if sqrt_start and i == 0:
            total += _segment_sqrt_start(f, a, b, rule)
        else:
            total += _adaptive(f, a, b, rule)
    return total


def cheb_theta_nodes(m):
    """Midpoint angles and weight for the substitution t = cos(theta).

    With t = cos(theta_j) these integrate smooth-in-theta integrands on
    [0, pi] spectrally (the Gauss-Chebyshev viewpoint); used by the band
    and gap integrals that carry inverse-square-root endpoint behavior.
    """
    theta = (np.arange(m) + 0.5) * np.pi / m
    return theta, np.pi / m


# --- segment-crossing test for cut-avoiding paths ---

def segments_cross(a0, a1, b0, b1):
    """True if the open segments (a0,a1) and (b0,b1) properly intersect.

    Segments within a relative 1e-13 of parallel never cross.
    """
    d1 = a1 - a0
    d2 = b1 - b0
    den = (d1.real * d2.imag - d1.imag * d2.real)
    if abs(den) < 1e-13 * (abs(d1) * abs(d2) + 1e-300):
        return False
    w = b0 - a0
    s = (w.real * d2.imag - w.imag * d2.real) / den
    t = (w.real * d1.imag - w.imag * d1.real) / den
    eps = 1e-12
    return eps < s < 1 - eps and eps < t < 1 - eps

