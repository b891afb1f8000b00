"""A fixed composite Gauss-Legendre rule along polylines: the tests' path-integral oracle."""

import numpy as np

from hmcleod.genus0 import _dist_to_segment
from hmcleod.quadrature import segments_cross

# panels per segment and Gauss-Legendre nodes per panel, and the nodes of
# the one panel of a square-root start
PANELS = 64
NODES = 16
SQRT_NODES = 64


def _gl(n):
    t, wt = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * wt


def integrate_polyline(f, vertices, sqrt_start=False):
    """int f dw along the polyline through ``vertices``.

    Each segment is split into PANELS equal panels of NODES Gauss-Legendre
    nodes; f must be vectorized.  With ``sqrt_start`` the first segment
    takes w = v0 + (v1 - v0) t^2, so that f dw is smooth in t where f has
    a square-root zero or singularity at v0, and one panel of SQRT_NODES
    nodes in t: finer panels at t = 0 would put nodes where f rounds
    poorly, as R does when w - v0 cancels.
    """
    t, wt = _gl(NODES)
    t = ((np.arange(PANELS)[:, None] + t) / PANELS).ravel()
    wt = np.tile(wt / PANELS, PANELS)
    total = 0.0 + 0.0j
    for i, (a, b) in enumerate(zip(vertices, vertices[1:])):
        if i == 0 and sqrt_start:
            s, ws = _gl(SQRT_NODES)
            total += np.sum(ws * f(a + (b - a) * s * s) * 2.0 * s) * (b - a)
        else:
            total += np.sum(wt * f(a + (b - a) * t)) * (b - a)
    return total


def chain_detour(e, start, end):
    """Vertices from start to end through three points of a far circle, crossing no chain segment.

    The far circle has the radius 4 max|P - centre| + 2 about the chain's
    centre, and the three points sit 120 degrees apart.  Of the 24 turns
    of them in steps of 15 degrees whose legs cross no segment of the
    chain A-B-C-D, the detour keeps the one whose legs pass farthest from
    the chain ends.
    """
    pts = np.array(e.points())
    center = pts.mean()
    radius = 4.0 * max(abs(pts - center)) + 2.0
    best, clear = None, 0.0
    for psi in np.arange(24) * np.pi / 12:
        verts = (start, *(center + radius * np.exp(1j * (psi + 2 * np.pi / 3 * np.arange(3)))), end)
        legs = list(zip(verts, verts[1:]))
        if any(np.any(segments_cross(a, b, pts[:-1], pts[1:])) for a, b in legs):
            continue
        c = min(np.min(_dist_to_segment(pts, a, b)) for a, b in legs)
        if c > clear:
            best, clear = verts, c
    if best is None:
        raise AssertionError("no clear detour through the far circle")
    return best
