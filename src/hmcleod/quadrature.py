"""Contour representation and quadrature.

Only the ``endpoints`` dump integrates along paths: the phase H behind
its jump constant Lambda, and its Upsilon constant; the Abel map of every
pipeline has a closed form (``theta.AbelMap``).  The workhorse is
fixed-order Gauss-Legendre per segment with adaptive bisection.  The
bisection is level-synchronous: every segment that shares an integrand,
over one path or several (``integrate_paths``), has all panels of one
bisection level evaluated in a single integrand call, with the values of
depth-first recursion bit for bit.  Integrands must be vectorized over
numpy arrays of complex points.  Paths that avoid the cut chain A-B-C-D
are shortest paths between waypoints ringing the chain's ends, built by
``endpoints.ChainRouter`` from the broadcast segment-crossing test at the
end of this module; H takes its logarithmic cut from the principal Log,
so they avoid the chain only.
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

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        for u, v in zip(verts, verts[1:]):
            if u == v:
                raise ValueError("consecutive path vertices must be distinct")
        object.__setattr__(self, "vertices", verts)

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


def _panels(f, lo, hi):
    """Gauss-Legendre panels on [lo[i], hi[i]], all in one integrand call.

    Returns the panel integrals, the nodes and where f is not finite.
    """
    t, wt = _gl_nodes()
    h = hi - lo
    pts = lo[:, None] + h[:, None] * t
    vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(pts.shape)
    s = np.sum(wt * vals, axis=1)
    # h * s with the real and imaginary products written out: numpy's
    # array complex multiply rounds differently from its scalar one
    out = np.empty(len(h), dtype=complex)
    out.real = h.real * s.real - h.imag * s.imag
    out.imag = h.real * s.imag + h.imag * s.real
    return out, pts, ~np.isfinite(vals)


def _bisect(f, ends, rule):
    """Adaptive Gauss-Legendre integrals of f over the intervals ``ends``.

    Level-synchronous bisection: at each level the two halves of every
    unresolved interval, across all intervals, go to f in one call (the
    first level adds each whole interval, the coarse panel).  A node is
    resolved when its halves agree with its coarse panel to
    abs_tol + rel_tol |fine|, or, at depth >= 4, when bisection has
    stopped reducing an already-tiny estimate (roundoff floor, not a
    genuine feature).  An unresolved node at ``max_depth`` raises
    NonConvergence, a non-finite f NonFinite.  Each tree is summed
    bottom-up, left + right per node, so the values and the error raised
    are those of depth-first recursion over the intervals in turn.
    """
    a = np.array([p for p, _ in ends])
    b = np.array([q for _, q in ends])
    coarse = prev_err = None
    # where each node starts, in units of its interval: failures are
    # reported in depth-first order
    key = np.arange(len(ends), dtype=float)
    levels = []     # per depth: each node's fine sum and whether it was split
    failures = []   # (key, error)
    depth = 0
    while len(a):
        mid = 0.5 * (a + b)
        if coarse is None:
            lo, hi = np.stack([a, a, mid], axis=1), np.stack([b, mid, b], axis=1)
        else:
            lo, hi = np.stack([a, mid], axis=1), np.stack([mid, b], axis=1)
        vals, pts, nonfinite = _panels(f, lo.ravel(), hi.ravel())
        vals = vals.reshape(lo.shape)
        panel_bad = nonfinite.any(axis=1).reshape(lo.shape)
        bad = panel_bad.any(axis=1)
        for i in np.flatnonzero(bad):
            j = i * lo.shape[1] + np.argmax(panel_bad[i])
            failures.append((key[i], NonFinite(
                f"integrand not finite near w={pts[j][nonfinite[j]][0]}")))
        if coarse is None:
            coarse = vals[:, 0]
            lo, hi, vals = lo[:, 1:], hi[:, 1:], vals[:, 1:]
        fine = vals[:, 0] + vals[:, 1]
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)
        tol = rule.abs_tol + rule.rel_tol * np.hypot(fine.real, fine.imag)
        done = err <= tol
        if depth >= 4:
            done |= (err >= 0.9 * prev_err) & (err <= 300.0 * tol)
        if depth >= rule.max_depth:
            for i in np.flatnonzero(~bad & ~done):
                failures.append((key[i], NonConvergence(
                    f"adaptive bisection hit depth {rule.max_depth} on "
                    f"[{a[i].item()}, {b[i].item()}] (err~{err[i]:.2e})")))
        split = ~bad & ~done & (depth < rule.max_depth)
        if failures:
            # depth-first recursion never reaches the nodes after a failure
            split &= key < min(k for k, _ in failures)
        levels.append((fine, split))
        a, b, coarse = lo[split].ravel(), hi[split].ravel(), vals[split].ravel()
        prev_err = np.repeat(err[split], 2)
        key = np.stack([key, key + 0.5 ** (depth + 1)], axis=1)[split].ravel()
        depth += 1
    if failures:
        raise min(failures, key=lambda kf: kf[0])[1]
    total = np.empty(0, dtype=complex)
    for fine, split in reversed(levels):
        node = fine.copy()
        node[split] = total[::2] + total[1::2]
        total = node
    return total


def integrate_path(f, path, rule=DEFAULT_RULE):
    """Integrate f along the path."""
    total = 0.0 + 0.0j
    for v in _bisect(f, path.segments(), rule):
        total += v
    return total


def integrate_paths(f, paths, rule=DEFAULT_RULE):
    """``integrate_path`` on each path, all their segments bisected together.

    The values are those of one ``integrate_path`` call per path, bit
    for bit, and an error is the one the first failing path would raise.
    """
    segs = [p.segments() for p in paths]
    vals = iter(_bisect(f, [s for ss in segs for s in ss], rule))
    totals = []
    for ss in segs:
        total = 0.0 + 0.0j
        for _ in ss:
            total += next(vals)
        totals.append(total)
    return totals


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

    Broadcasts over arrays of ends; scalar ends give a bool.  Segments
    within a relative 1e-13 of parallel never cross.
    """
    a0, a1, b0, b1 = (np.asarray(v, dtype=complex) for v in (a0, a1, b0, b1))
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1.real * d2.imag - d1.imag * d2.real
    parallel = np.abs(den) < 1e-13 * (np.abs(d1) * np.abs(d2) + 1e-300)
    den = np.where(parallel, 1.0, den)
    w = b0 - a0
    s = (w.real * d2.imag - w.imag * d2.real) / den
    t = (w.real * d1.imag - w.imag * d1.real) / den
    eps = 1e-12
    out = ~parallel & (eps < s) & (s < 1 - eps) & (eps < t) & (t < 1 - eps)
    return out if out.shape else bool(out)

