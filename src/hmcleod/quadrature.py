"""Fixed quadrature rules and the segment-crossing test.

Every genus-1 integral sums over a fixed rule.  The band and gap
integrals take the midpoint rule in theta under t = cos(theta)
(``cheb_theta_nodes``, mapped by ``endpoints.segment_rule``).  The
``endpoints`` dump integrates along straight legs that end at a chain
end P, where R has a square-root zero: ``leg_rule`` takes Gauss-Legendre
in t under w = P + (z - P) t^2, which makes the integrand smooth in t.
``segments_cross`` is the broadcast test that keeps those legs off the
cuts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Gauss-Legendre nodes of the leg rule
LEG_NODES = 64


@lru_cache(maxsize=1)
def _gl_nodes():
    t, wt = np.polynomial.legendre.leggauss(LEG_NODES)
    # map to [0, 1]
    return 0.5 * (t + 1.0), 0.5 * wt


def leg_rule(p, z):
    """Nodes w and weights dw of int_z^p f dw along the straight leg from z to p.

    The substitution w = p + (z - p) t^2, t in [0, 1], with ``LEG_NODES``
    Gauss-Legendre nodes in t: where f has a square-root zero or
    singularity at p, f dw is smooth in t.  The rule converges like
    rho^(-2 LEG_NODES), with rho the Bernstein parameter in t of the
    nearest singularity of f off p.
    """
    t, wt = _gl_nodes()
    return p + (z - p) * t * t, -2.0 * (z - p) * t * wt


def cheb_theta_nodes(m):
    """Midpoint angles and weight for the substitution t = cos(theta).

    With t = cos(theta_j) these integrate smooth-in-theta integrands on
    [0, pi] spectrally (the Gauss-Chebyshev viewpoint); used by the band
    and gap integrals that carry inverse-square-root endpoint behavior.
    """
    theta = (np.arange(m) + 0.5) * np.pi / m
    return theta, np.pi / m


# --- segment-crossing test for cut-avoiding legs ---

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
