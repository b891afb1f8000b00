"""Two-band endpoint system for the pole region.

In the pole region the single band [a, b] bifurcates into two bands with
endpoints A, B, C, D fixed by six real moment conditions

    e1 = A+B+C+D = 0,   e2 = sum of pairwise products = x/2,
    e3 = sum of triple products = -i,

(e3 is the full elementary symmetric polynomial: that choice is the one
consistent with R(z) = z^2 + x/4 + i/(2z) + O(1/z^2) at infinity) plus
two Boutroux reality conditions

    Im int_{Sigma1} R_plus dw = 0,   Im int_Gamma R dw = 0,

where R(z)^2 = (z-A)(z-B)(z-C)(z-D), R ~ z^2, cut on the straight bands
Sigma1 = [A, B] and Sigma2 = [C, D], and Gamma = [B, C] is the gap.

The scalar phase is H(z) = i theta(z)/2 - G(z) whose derivative has the
closed form H'(z) = 2i R(z); G is normalized like log(z) at infinity
with a logarithmic cut L running horizontally left from A.  H jumps by
the constants -Lambda (across Sigma1), -i omega (across Gamma) and
-Lambda - i Omega (across Sigma2); omega and Omega are real exactly when
the Boutroux conditions hold.

Band and gap integrals use the substitution t = cos(theta), which turns
the square-root endpoint behavior of R into smooth periodic integrands
(midpoint rule in theta converges spectrally).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature as quad
from .errors import (DegenerateEndpoints, NoConvergence, NonConvergence, OnCut,
                     RealityViolation, WrongRegion)
from .genus0 import (RegionLabel, _dist_to_segment, classify_region, cut_root,
                     genus0_data, phase, phase_prime)

_L_RAY_LENGTH = 1e3

# rule of the path integrals that propagate H and the Abel map
LEG_RULE = quad.QuadratureRule(abs_tol=1e-12, rel_tol=1e-12, max_depth=18)


@dataclass(frozen=True)
class EndpointSet:
    A: complex
    B: complex
    C: complex
    D: complex
    x: complex

    def points(self):
        return (self.A, self.B, self.C, self.D)

    def separation(self):
        pts = self.points()
        return min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])


@dataclass(frozen=True)
class SurfaceContours:
    sigma1: quad.Path
    gamma: quad.Path
    sigma2: quad.Path
    log_cut: tuple

    def cut_segments(self):
        """Segments that evaluation paths must not cross."""
        return [
            (self.sigma1.vertices[0], self.sigma1.vertices[-1]),
            (self.gamma.vertices[0], self.gamma.vertices[-1]),
            (self.sigma2.vertices[0], self.sigma2.vertices[-1]),
            self.log_cut,
        ]


@dataclass(frozen=True)
class SpectralConstants:
    Lambda: complex
    omega: float
    Omega: float


def contours_for(e):
    """Straight-segment contours A-B (band), B-C (gap), C-D (band).

    Raises DegenerateEndpoints when the chain self-intersects, in which
    case the straight placement is invalid for this x.
    """
    segs = [(e.A, e.B), (e.B, e.C), (e.C, e.D)]
    if quad.segments_cross(e.A, e.B, e.C, e.D):
        raise DegenerateEndpoints("straight bands cross; contour placement invalid")
    L = (e.A, e.A - _L_RAY_LENGTH)
    for p, q in segs[1:]:
        if quad.segments_cross(L[0], L[1], p, q):
            raise DegenerateEndpoints("logarithmic cut crosses a band")
    return SurfaceContours(
        sigma1=quad.Path((e.A, e.B)),
        gamma=quad.Path((e.B, e.C)),
        sigma2=quad.Path((e.C, e.D)),
        log_cut=L,
    )


# ---------------------------------------------------------------------------
# the square root R and its boundary values
# ---------------------------------------------------------------------------

def _halves(e):
    m1 = 0.5 * (e.A + e.B)
    h1 = 0.5 * (e.B - e.A)
    m2 = 0.5 * (e.C + e.D)
    h2 = 0.5 * (e.D - e.C)
    return m1, h1, m2, h2


def R_eval(z, e, guard=True):
    """R with R^2 = (z-A)(z-B)(z-C)(z-D), R ~ z^2, cut on the two bands."""
    z = np.asarray(z, dtype=complex)
    if guard and (np.any(_dist_to_segment(z, e.A, e.B) < 1e-10)
                  or np.any(_dist_to_segment(z, e.C, e.D) < 1e-10)):
        raise OnCut("z lies on a band")
    m1, h1, m2, h2 = _halves(e)
    out = cut_root(h1, (z - m1) / h1) * cut_root(h2, (z - m2) / h2)
    return out if out.shape else complex(out)


@lru_cache(maxsize=8)
def _theta_nodes(m):
    return quad.cheb_theta_nodes(m)


def band_plus_nodes(e, band, m):
    """Nodes w(theta) on a band and the plus-boundary values of R there."""
    m1, h1, m2, h2 = _halves(e)
    theta, wt = _theta_nodes(m)
    t = np.cos(theta)
    if band == 1:
        w = m1 + h1 * t
        r_plus = 1j * h1 * np.sin(theta) * cut_root(h2, (w - m2) / h2)
    else:
        w = m2 + h2 * t
        r_plus = cut_root(h1, (w - m1) / h1) * 1j * h2 * np.sin(theta)
    return theta, wt, w, r_plus


def band_integral(e, band, f=None, m=96):
    """int over the band of f(w) R_plus(w) dw."""
    m1, h1, m2, h2 = _halves(e)
    h = h1 if band == 1 else h2
    theta, wt, w, r_plus = band_plus_nodes(e, band, m)
    vals = r_plus * np.sin(theta) * h
    if f is not None:
        vals = vals * f(w)
    return np.sum(wt * vals)


def band_integral_inv(e, band, f=None, m=96):
    """int over the band of f(w) / R_plus(w) dw."""
    m1, h1, m2, h2 = _halves(e)
    h = h1 if band == 1 else h2
    theta, wt, w, r_plus = band_plus_nodes(e, band, m)
    vals = np.sin(theta) * h / r_plus
    if f is not None:
        vals = vals * f(w)
    return np.sum(wt * vals)


def gap_nodes(e, m):
    mg = 0.5 * (e.B + e.C)
    hg = 0.5 * (e.C - e.B)
    theta, wt = _theta_nodes(m)
    w = mg + hg * np.cos(theta)
    return theta, wt, w, hg


def gap_integral(e, f=None, m=96):
    """int over the gap of f(w) R(w) dw (R is analytic across the gap)."""
    theta, wt, w, hg = gap_nodes(e, m)
    vals = R_eval(w, e, guard=False) * np.sin(theta) * hg
    if f is not None:
        vals = vals * f(w)
    return np.sum(wt * vals)


def gap_integral_inv(e, f=None, m=96):
    theta, wt, w, hg = gap_nodes(e, m)
    vals = np.sin(theta) * hg / R_eval(w, e, guard=False)
    if f is not None:
        vals = vals * f(w)
    return np.sum(wt * vals)


# ---------------------------------------------------------------------------
# moment + Boutroux residuals and the Newton solver
# ---------------------------------------------------------------------------

def symmetric_functions(e):
    """Elementary symmetric functions e1..e4 of the endpoints A, B, C, D."""
    A, B, C, D = e.points()
    e1 = A + B + C + D
    e2 = A * B + A * C + A * D + B * C + B * D + C * D
    e3 = A * B * C + A * B * D + A * C * D + B * C * D
    e4 = A * B * C * D
    return e1, e2, e3, e4


def residuals(e, m=96):
    """Eight real residuals: moments (6) and Boutroux imaginary parts (2)."""
    if e.separation() < 1e-6:
        raise DegenerateEndpoints("endpoint separation below 1e-6")
    e1, e2, e3, _ = symmetric_functions(e)
    m2_target = e.x / 2.0
    bt1 = band_integral(e, 1, m=m)
    btg = gap_integral(e, m=m)
    return np.array([
        e1.real, e1.imag,
        (e2 - m2_target).real, (e2 - m2_target).imag,
        (e3 + 1j).real, (e3 + 1j).imag,
        bt1.imag, btg.imag,
    ])


def _vec_to_set(v, x):
    return EndpointSet(A=complex(v[0], v[1]), B=complex(v[2], v[3]),
                       C=complex(v[4], v[5]), D=complex(v[6], v[7]), x=x)


def _set_to_vec(e):
    return np.array([e.A.real, e.A.imag, e.B.real, e.B.imag,
                     e.C.real, e.C.imag, e.D.real, e.D.imag])


def _newton(x, v0):
    v = v0.copy()
    F = residuals(_vec_to_set(v, x))
    n_iter = 0
    while np.max(np.abs(F)) > 1e-11:
        n_iter += 1
        if n_iter > 100:
            raise NoConvergence(f"endpoint Newton did not converge at x={x}")
        J = np.empty((8, 8))
        for j in range(8):
            h = 1e-6 * (1.0 + abs(v[j]))
            vp = v.copy(); vp[j] += h
            vm = v.copy(); vm[j] -= h
            J[:, j] = (residuals(_vec_to_set(vp, x))
                       - residuals(_vec_to_set(vm, x))) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Jacobian at x={x}") from exc
        lam = 1.0
        norm0 = np.max(np.abs(F))
        for _ in range(30):
            v_try = v + lam * step
            try:
                F_try = residuals(_vec_to_set(v_try, x))
            except DegenerateEndpoints:
                lam *= 0.5
                continue
            if np.max(np.abs(F_try)) < norm0:
                v, F = v_try, F_try
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"endpoint Newton stalled at x={x}")
    return v, F, n_iter


def degenerate_seed(x, eps=0.06, rotate=0.0):
    """Seed near the one-band degeneration: bands split at c(x)."""
    d = genus0_data(x)
    u = (d.b - d.a) / abs(d.b - d.a) * np.exp(1j * rotate)
    return EndpointSet(A=d.a, B=d.c - eps * u, C=d.c + eps * u, D=d.b, x=complex(x))


_WEDGE_ANCHOR_OFFSET = 0.45


def _wedge_anchor(upper):
    apex = 3.0 * np.exp(2j * np.pi / 3.0) if upper else 3.0 * np.exp(-2j * np.pi / 3.0)
    return apex + (1j if upper else -1j) * _WEDGE_ANCHOR_OFFSET


@lru_cache(maxsize=2)
def _bootstrap(upper):
    x0 = _wedge_anchor(upper)
    last_exc = None
    for eps in (0.06, 0.12, 0.03):
        for rot in (0.0, 0.5 * np.pi, -0.5 * np.pi):
            seed = degenerate_seed(x0, eps=eps, rotate=rot)
            try:
                v, F, n_iter = _newton(complex(x0), _set_to_vec(seed))
                return _vec_to_set(v, complex(x0)), F, n_iter
            except (NoConvergence, DegenerateEndpoints) as exc:
                last_exc = exc
    raise NoConvergence(f"bootstrap near the apex failed: {last_exc}")


def solve_endpoints(x, seed=None, return_info=False):
    """Solve the eight-condition endpoint system at x.

    With no seed, the solution is continued along a straight path from
    an anchor just inside the pole wedge next to the relevant apex; the
    anchor itself is seeded by splitting the degenerate one-band data.
    The region check applies to that cold path only: a seeded solve is a
    continuation step and may be asked for any x.
    """
    x = complex(x)
    if seed is None:
        label = classify_region(x)
        if label not in (RegionLabel.POLE_REGION_UP, RegionLabel.POLE_REGION_DOWN):
            raise WrongRegion(f"x={x} is not in the pole region ({label.value})")

    if seed is not None:
        v, F, n_iter = _newton(x, _set_to_vec(seed))
        e = _vec_to_set(v, x)
        contours_for(e)
        if return_info:
            return e, {"newton_iters": n_iter, "residual": float(np.max(np.abs(F)))}
        return e

    e, F, n_iter = _bootstrap(upper=(x.imag > 0))
    x_cur = complex(e.x)
    step = 0.5
    guard = 0
    while x_cur != x:
        guard += 1
        if guard > 400:
            raise NoConvergence(f"continuation toward x={x} stalled")
        remaining = x - x_cur
        dx = remaining if abs(remaining) <= step else remaining / abs(remaining) * step
        try:
            v, F, n_iter = _newton(x_cur + dx, _set_to_vec(e))
            e = _vec_to_set(v, x_cur + dx)
            x_cur = x_cur + dx
            step = min(0.5, step * 1.5)
        except (NoConvergence, DegenerateEndpoints):
            step *= 0.5
            if step < 1e-3:
                raise
    contours_for(e)
    if return_info:
        return e, {"newton_iters": n_iter, "residual": float(np.max(np.abs(F)))}
    return e


# ---------------------------------------------------------------------------
# the phase H, its derivative, and the jump constants
# ---------------------------------------------------------------------------

def H_prime(z, e):
    """Closed form H'(z) = 2i R(z) on the plus sheet."""
    return 2j * R_eval(z, e)


def G_prime_quadrature(z, e, m=192):
    """Direct Cauchy-integral evaluation of G'(z) over both bands."""
    z = complex(z)
    x = e.x

    def f(w):
        return 1j * phase_prime(w, x) / (w - z)

    total = band_integral_inv(e, 1, f=f, m=m) + band_integral_inv(e, 2, f=f, m=m)
    return R_eval(z, e) / (2j * np.pi) * total


def H_prime_oracle(z, e, m=192):
    """i theta'(z)/2 - G'(z) with G' by quadrature; cross-check for H_prime."""
    return 1j * phase_prime(z, e.x) / 2.0 - G_prime_quadrature(z, e, m=m)


def _tail_direction(e, cuts):
    """Reference point and outgoing ray direction with clearance from cuts."""
    pts = np.array(e.points())
    center = pts.mean()
    rho = 4.0 * max(1.0, np.max(np.abs(pts - center)))
    best = None
    for ang in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        d = np.exp(1j * ang)
        z_ref = center + rho * d
        far = z_ref + d * 1e4
        clear = np.inf
        for (p, q) in cuts:
            for s in np.linspace(0.0, 1.0, 41):
                seg_pt = p + s * (q - p)
                w = seg_pt - z_ref
                t = max((w.real * d.real + w.imag * d.imag), 0.0)
                clear = min(clear, abs(w - t * d))
        if best is None or clear > best[0]:
            best = (clear, z_ref, d)
    if best[0] < 0.3:
        raise NoConvergence("no clear tail direction for the H normalization")
    return best[1], best[2]


def _g_prime_regularized(w, e):
    """2iR(w) - i theta'(w)/2 + 1/(w - A), computed without cancellation.

    With P = w^2 + x/4 the combination 2i(R - P) equals
    2i (R^2 - P^2)/(R + P), and R^2 - P^2 reduces to a quadratic in w via
    the symmetric functions of the endpoints (exact up to the solved
    moment residuals), which stays accurate for |w| up to the tail radius.
    """
    x = e.x
    _, e2, e3, e4 = symmetric_functions(e)
    P = w * w + x / 4.0
    num = (e2 - x / 2.0) * w * w - e3 * w + (e4 - x * x / 16.0)
    R = R_eval(w, e, guard=False)
    return 2j * num / (R + P) + 1.0 / (w - e.A)


def _sqrt_series(coeffs, order):
    """Taylor coefficients of sqrt(1 + q1 u + q2 u^2 + ...) up to ``order``."""
    q = list(coeffs) + [0.0] * (order + 1 - len(coeffs))
    s = [1.0 + 0.0j]
    for k in range(1, order + 1):
        acc = q[k] - sum(s[j] * s[k - j] for j in range(1, k))
        s.append(acc / 2.0)
    return s


def _tail_series_value(e, z_from, order=12):
    """int from infinity to z_from of (2iR - i theta'/2 + 1/(w-A)).

    Valid once |z_from| is well outside the endpoint cluster: R/w^2 is
    expanded as a square-root series in 1/w and integrated term-wise
    (the 1/w coefficient vanishes identically by the moment conditions).
    """
    e1, e2, e3, e4 = symmetric_functions(e)
    s = _sqrt_series([1.0, -e1, e2, -e3, e4], order + 2)
    total = 0.0 + 0.0j
    for m_pow in range(2, order + 1):
        a_m = 2j * s[m_pow + 2] + e.A ** (m_pow - 1)
        total -= a_m / ((m_pow - 1) * z_from ** (m_pow - 1))
    return total


def h_reference(e):
    """Absolute H value at a far reference point, via the regularized tail.

    H(z) = i theta(z)/2 - log(z - A) + int_inf^z (2iR - i theta'/2 + 1/(w-A)) dw

    The far part of the tail (beyond ~100x the endpoint scale) is summed
    analytically; the remainder is integrated with the cancellation-free
    form of the integrand.
    """
    cuts = contours_for(e).cut_segments()
    z_ref, d = _tail_direction(e, cuts)
    x = e.x

    scale = max(abs(p) for p in e.points())
    z_far = z_ref + d * max(0.0, 120.0 * scale - abs(z_ref))
    tail = _tail_series_value(e, z_far)
    if z_far != z_ref:
        tail += quad.integrate_path(lambda w: _g_prime_regularized(w, e),
                                    quad.Path((z_far, z_ref)), LEG_RULE)
    val = 0.5j * phase(z_ref, x) - np.log(z_ref - e.A) + tail
    return z_ref, val


class ChainRouter:
    """Paths around the cut chain (log ray + A-B-C-D) via an offset corridor.

    The obstacle is the open polyline [far end of L, A, B, C, D]; the
    corridor is its offset curve at a clearance, traversed only around
    the D end (never around the far end of the logarithmic ray, which
    would change the branch and cost precision).
    """

    def __init__(self, e, include_log_cut=True):
        pts = [e.A, e.B, e.C, e.D]
        scale = max(1.0, max(abs(p - e.A) for p in pts))
        if include_log_cut:
            verts = [e.A - 60.0 * scale, e.A, e.B, e.C, e.D]
        else:
            verts = [e.A, e.B, e.C, e.D]
        self.verts = [complex(v) for v in verts]
        self.segments = list(zip(self.verts[:-1], self.verts[1:]))
        seg_lens = [abs(q - p) for p, q in zip(pts[:-1], pts[1:])]
        c = 0.3 * min(seg_lens)
        for _ in range(4):
            corridor = self._offset_corridor(c)
            if self._corridor_clear(corridor):
                break
            c *= 0.5
        else:
            raise NoConvergence("could not build a clear routing corridor")
        self.corridor = corridor

    def _offset_corridor(self, c, fan_step=0.7):
        V = self.verts
        units = [(q - p) / abs(q - p) for p, q in zip(V[:-1], V[1:])]
        normals = [1j * u for u in units]

        def fan(center, a0, a1):
            sweep = np.angle(np.exp(1j * (a1 - a0)))
            n_pts = max(1, int(np.ceil(abs(sweep) / fan_step)))
            return [center + c * np.exp(1j * (a0 + sweep * k / n_pts))
                    for k in range(1, n_pts)]

        def miter(vertex, u_in, u_out):
            # intersection of the two offset lines left of the walk
            bis = (u_out - u_in)
            if abs(bis) < 1e-12:
                return [vertex + c * 1j * u_in]
            bis = bis / abs(bis)
            cos_half = (np.conj(u_in) * bis).imag
            return [vertex + np.sign(cos_half) * bis * c / max(abs(cos_half), 0.2)]

        def bank(sigma):
            # sigma = +1: left side walked start->end; -1: right side end->start
            idx = list(range(len(units))) if sigma > 0 else list(range(len(units) - 1, -1, -1))
            pts = []
            skip_lead = False
            for i in idx:
                p, q = (V[i], V[i + 1]) if sigma > 0 else (V[i + 1], V[i])
                u = units[i] if sigma > 0 else -units[i]
                n = 1j * u
                if not skip_lead:
                    pts.append(p + c * n)
                pts.append(q + c * n)
                skip_lead = False
                nxt = i + 1 if sigma > 0 else i - 1
                if 0 <= nxt < len(units):
                    u2 = units[nxt] if sigma > 0 else -units[nxt]
                    turn = (np.conj(u) * u2).imag
                    vertex = V[i + 1] if sigma > 0 else V[i]
                    if turn < 0:
                        pts.extend(fan(vertex, np.angle(1j * u), np.angle(1j * u2)))
                    else:
                        pts = pts[:-1] + miter(vertex, u, u2)
                        skip_lead = True
            return pts

        left = bank(+1)
        right = bank(-1)
        aD0 = np.angle(normals[-1])
        aDm = np.angle(units[-1])
        aD1 = np.angle(-normals[-1])
        cap = fan(V[-1], aD0, aD0 + np.angle(np.exp(1j * (aDm - aD0))))
        cap += [V[-1] + c * np.exp(1j * aDm)]
        cap += fan(V[-1], aDm, aDm + np.angle(np.exp(1j * (aD1 - aDm))))
        pts = left + cap + right
        out = [pts[0]]
        for z in pts[1:]:
            if abs(z - out[-1]) > 1e-12:
                out.append(z)
        return out

    def _clear(self, a, b):
        return all(not quad.segments_cross(a, b, p, q) for p, q in self.segments)

    def _corridor_clear(self, corridor):
        return all(self._clear(p, q) for p, q in zip(corridor[:-1], corridor[1:]))

    def path(self, start, end):
        start, end = complex(start), complex(end)
        if self._clear(start, end):
            return quad.Path((start, end)) if start != end else None
        cor = self.corridor
        i_s = self._attach(start)
        i_e = self._attach(end)
        lo, hi = min(i_s, i_e), max(i_s, i_e)
        walk = cor[lo:hi + 1]
        if i_e < i_s:
            walk = walk[::-1]
        pts = [start] + walk + [end]
        return quad.Path(tuple(self._shortcut(pts)))

    def _attach(self, z):
        order = np.argsort([abs(c - z) for c in self.corridor])
        for idx in order:
            if self._clear(z, self.corridor[idx]):
                return int(idx)
        raise NoConvergence(f"no corridor attachment visible from {z}")

    def _shortcut(self, pts):
        out = [pts[0]]
        i = 0
        while i < len(pts) - 1:
            j = len(pts) - 1
            while j > i + 1 and not self._clear(pts[i], pts[j]):
                j -= 1
            if abs(pts[j] - out[-1]) > 1e-12:
                out.append(pts[j])
            i = j
        return out


def integrate_leg(f, path, rule, **kw):
    """Path integral with one tolerance relaxation before giving up."""
    try:
        return quad.integrate_path(f, path, rule, **kw)
    except NonConvergence:
        relaxed = quad.QuadratureRule(abs_tol=30.0 * rule.abs_tol,
                                      rel_tol=30.0 * rule.rel_tol,
                                      max_depth=rule.max_depth + 4)
        return quad.integrate_path(f, path, relaxed, **kw)


class HField:
    """Evaluator for H by propagating 2iR integrals from one reference."""

    def __init__(self, e):
        self.e = e
        self.router = ChainRouter(e, include_log_cut=True)
        self.z_ref, self.h_ref = h_reference(e)

    def value(self, z):
        """H(z) along a cut-avoiding path from the reference point."""
        z = complex(z)
        f = lambda w: 2j * R_eval(w, self.e, guard=False)
        total = self.h_ref
        path = self.router.path(self.z_ref, z)
        if path is not None:
            total += integrate_leg(f, path, LEG_RULE)
        return total


def adaptive_band_nodes(e):
    """Node count scaled to the band/gap separation (near-degenerate x)."""
    pts = e.points()
    scale = max(abs(p - q) for p in pts for q in pts)
    feature = min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])
    m = int(16.0 * np.sqrt(max(scale / max(feature, 1e-9), 1.0)) * 8)
    return int(np.clip(m, 128, 1024))


def midpoint_two_sided(hf, p, q):
    """Two-sided H limits at the midpoint of the cut [p, q].

    H is evaluated at three transversal offsets on each side (the largest
    is 1e-3 of the cut length) and the one-sided limits are obtained by
    second-order Richardson elimination (the sum and difference of the
    limits are the jump constants).
    """
    mid = 0.5 * (p + q)
    n = 1j * (q - p) / abs(q - p)
    E = 1e-3 * abs(q - p)
    ladder = []
    for s in (1.0, 0.5, 0.25):
        up = hf.value(mid + s * E * n)
        dn = hf.value(mid - s * E * n)
        ladder.append((up + dn, up - dn))
    sum0 = (8.0 * ladder[2][0] - 6.0 * ladder[1][0] + ladder[0][0]) / 3.0
    diff0 = (8.0 * ladder[2][1] - 6.0 * ladder[1][1] + ladder[0][1]) / 3.0
    return sum0, diff0


def spectral_constants(e, m=None, hfield=None, hint=None):
    """Jump constants Lambda, omega, Omega of the phase H.

    Lambda is minus the two-sided H sum at the first-band midpoint.  The
    values of omega and Omega come from cycle integrals (the gap jump
    collapses onto the second band around the D end of the chain, and
    the second-band jump onto the gap), with signs fixed against direct
    two-sided H differences at the cut midpoints, which must agree with
    them to a relative 1e-3; reality of the cycle values is equivalent to
    the Boutroux conditions.

    With ``hint`` (constants at a nearby x) the signs are taken by
    continuity instead and the expensive H-field pass, including Lambda,
    is skipped (Lambda is then propagated approximately from the hint).
    """
    if m is None:
        m = adaptive_band_nodes(e)
    I2 = band_integral(e, 2, m=m)
    Ig = gap_integral(e, m=m)

    if hint is not None:
        omega_cyc = min((4.0 * I2, -4.0 * I2), key=lambda w: abs(w - hint.omega))
        Omega_cyc = min((4.0 * Ig, -4.0 * Ig), key=lambda w: abs(w - hint.Omega))
        if abs(omega_cyc.imag) > 1e-8 or abs(Omega_cyc.imag) > 1e-8:
            raise RealityViolation("omega/Omega acquired an imaginary part > 1e-8")
        return SpectralConstants(Lambda=hint.Lambda,
                                 omega=float(omega_cyc.real),
                                 Omega=float(Omega_cyc.real))

    hf = hfield or HField(e)
    sum1, _ = midpoint_two_sided(hf, e.A, e.B)
    _, diff_g = midpoint_two_sided(hf, e.B, e.C)
    sum2, _ = midpoint_two_sided(hf, e.C, e.D)

    Lambda = -sum1
    omega_jump = 1j * diff_g          # H_+ - H_- = -i omega on the gap
    Omega_jump = 1j * (Lambda + sum2)  # H_+ + H_- = -Lambda - i Omega on band 2

    omega_cyc = min((4.0 * I2, -4.0 * I2), key=lambda w: abs(w - omega_jump))
    Omega_cyc = min((4.0 * Ig, -4.0 * Ig), key=lambda w: abs(w - Omega_jump))

    if abs(omega_cyc - omega_jump) > 1e-3 * max(1.0, abs(omega_cyc)):
        raise RealityViolation(
            f"cycle and jump values of omega disagree: {omega_cyc} vs {omega_jump}")
    if abs(Omega_cyc - Omega_jump) > 1e-3 * max(1.0, abs(Omega_cyc)):
        raise RealityViolation(
            f"cycle and jump values of Omega disagree: {Omega_cyc} vs {Omega_jump}")
    if abs(omega_cyc.imag) > 1e-8 or abs(Omega_cyc.imag) > 1e-8:
        raise RealityViolation("omega/Omega acquired an imaginary part > 1e-8")
    return SpectralConstants(Lambda=complex(Lambda),
                             omega=float(omega_cyc.real),
                             Omega=float(Omega_cyc.real))
