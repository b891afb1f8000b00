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

Only the endpoint dump evaluates H (``HField``, behind ``jump_lambda``):
as i theta(z)/2 - Log(z - A) plus the integral from infinity to z of
g = 2iR - i theta'/2 + 1/(w - A).  g is analytic off the chain A-B-C-D
and O(1/w^2) at infinity, so its integral is single-valued off the
chain: the 1/w series carries it to the far point (``far_point``) and
``ChainRouter`` paths, which avoid the chain only (shortest paths between
waypoints that ring its ends), carry it on to z.
The principal Log places the cut L.  The dump's Upsilon constant
(``theta``) takes the same far point and router; a pipeline takes none.

Every band and gap integral sums over one rule, ``segment_rule``: the
substitution t = cos(theta), which turns the square-root endpoint
behavior of R into smooth periodic integrands (midpoint rule in theta
converges spectrally).

Newton on the eight conditions uses a closed-form Jacobian.  Each
condition is the real or imaginary part of a function g holomorphic in
each endpoint P, so Cauchy-Riemann gives its columns (Re P, Im P) from
g'(P): [Re g', -Im g'] in the Re g row and [Im g', Re g'] in the Im g
row.  For the moments

    de1/dP = 1,   de2/dP = e1 - P,   de3/dP = e2 - P (e1 - P).

For the Boutroux integrals, R^2 = prod (w - P_j) gives
dR/dP = -R / (2 (w - P)), and

    d/dP int R dw = -1/2 int R / (w - P) dw

over band 1 and over the gap.  The terms from moving the limits of
integration vanish because R is zero at the ends of a band and of the
gap; where P is such an end, the square-root zero of R times sin(theta)
cancels the 1/(w - P), so the integrand stays smooth on the theta nodes.
The code differentiates the t = cos(theta) rule itself, its nodes moving
with the ends: the same formula up to quadrature error, and exactly the
derivative of the residual that Newton drives to zero, also where a
near-degenerate chain leaves the rule unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature as quad
from .errors import DegenerateEndpoints, NonConvergence, OnCut, RealityViolation, WrongRegion
from .genus0 import RegionLabel, _classify, _dist_to_segment, cut_root, phase, phase_prime

_L_RAY_LENGTH = 1e3

# rule of the endpoint dump's path integrals (H and Upsilon)
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

    def mirror(self):
        """The chain at conj x, -conj(D, C, B, A): the conditions at conj x mirror those at x."""
        return EndpointSet(A=-self.D.conjugate(), B=-self.C.conjugate(), C=-self.B.conjugate(),
                           D=-self.A.conjugate(), x=self.x.conjugate())

    def separation(self):
        pts = self.points()
        return min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])


@dataclass(frozen=True)
class SpectralConstants:
    omega: float
    Omega: float


def contours_for(e):
    """The cuts that evaluation paths must not cross.

    These are the straight bands A-B and C-D, the gap B-C and the
    logarithmic cut L.  Raises DegenerateEndpoints when the chain
    self-intersects, in which case the straight placement is invalid for
    this x.
    """
    segs = [(e.A, e.B), (e.B, e.C), (e.C, e.D)]
    if quad.segments_cross(e.A, e.B, e.C, e.D):
        raise DegenerateEndpoints("straight bands cross; contour placement invalid")
    L = (e.A, e.A - _L_RAY_LENGTH)
    for p, q in segs[1:]:
        if quad.segments_cross(L[0], L[1], p, q):
            raise DegenerateEndpoints("logarithmic cut crosses a band")
    return segs + [L]


# ---------------------------------------------------------------------------
# the square root R and its boundary values
# ---------------------------------------------------------------------------

def _band_root(p, q, z):
    """sqrt((z - p)(z - q)) ~ z at infinity, cut on the band [p, q]."""
    half = 0.5 * (q - p)
    return cut_root(half, (z - 0.5 * (p + q)) / half)


def R_eval(z, e, guard=True):
    """R with R^2 = (z-A)(z-B)(z-C)(z-D), R ~ z^2, cut on the two bands."""
    z = np.asarray(z, dtype=complex)
    if guard and (np.any(_dist_to_segment(z, e.A, e.B) < 1e-10)
                  or np.any(_dist_to_segment(z, e.C, e.D) < 1e-10)):
        raise OnCut("z lies on a band")
    out = _band_root(e.A, e.B, z) * _band_root(e.C, e.D, z)
    return out if out.shape else complex(out)


@lru_cache(maxsize=8)
def _theta_nodes(m):
    """cos(theta), sin(theta) and the weights of int_{-1}^{1} g(t) dt at m nodes."""
    theta, wt = quad.cheb_theta_nodes(m)
    sin = np.sin(theta)
    return np.cos(theta), sin, wt * sin


# the segments of the chain: band 1 [A, B], the gap [B, C], band 2 [C, D]
BAND1, GAP, BAND2 = 0, 1, 2


@lru_cache(maxsize=3)
def segment_rule(e, seg, m):
    """The t = cos(theta) rule with m nodes on band 1, the gap or band 2.

    Returns the nodes w = mid + half t, the weights dw, with sum(dw f(w))
    the integral of f from the first end of the segment to the second, and
    R at the nodes: R_plus on a band, whose own root factor is
    i half sin(theta) there.  R and dw both vanish like sin(theta) at the
    ends, so f R dw and f dw / R are smooth in theta and the rule
    converges spectrally for both.  The last three rules are kept
    (read-only), so a pipeline's constants and periods build each segment
    once.
    """
    p, q = e.points()[seg:seg + 2]
    t, sin, wt = _theta_nodes(m)
    half = 0.5 * (q - p)
    w = 0.5 * (p + q) + half * t
    if seg == BAND1:
        R = 1j * half * sin * _band_root(e.C, e.D, w)
    elif seg == BAND2:
        R = _band_root(e.A, e.B, w) * 1j * half * sin
    else:
        R = R_eval(w, e, guard=False)
    rule = (w, half * wt, R)
    for a in rule:
        a.flags.writeable = False
    return rule


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


# t = cos(theta) nodes per segment of the Newton system
NEWTON_NODES = 96


def _system(e, m):
    """Residuals at e and the band-1 and gap node terms they are summed from.

    The node terms are (t, band1, gap), each segment as (v, w, half):
    v = dw R, the node terms of int R dw, w the nodes and half the
    half-length of the segment.
    """
    if e.separation() < 1e-6:
        raise DegenerateEndpoints("endpoint separation below 1e-6")
    e1, e2, e3, _ = symmetric_functions(e)
    m2_target = e.x / 2.0
    terms = []
    for seg in (BAND1, GAP):
        w, dw, R = segment_rule(e, seg, m)
        p, q = e.points()[seg:seg + 2]
        terms.append((dw * R, w, 0.5 * (q - p)))
    bt1, btg = np.sum(terms[0][0]), np.sum(terms[1][0])
    F = np.array([
        e1.real, e1.imag,
        (e2 - m2_target).real, (e2 - m2_target).imag,
        (e3 + 1j).real, (e3 + 1j).imag,
        bt1.imag, btg.imag,
    ])
    return F, (_theta_nodes(m)[0], *terms)


def residuals(e, m=NEWTON_NODES):
    """Eight real residuals: moments (6) and Boutroux imaginary parts (2)."""
    return _system(e, m)[0]


def _vec_to_set(v, x):
    return EndpointSet(A=complex(v[0], v[1]), B=complex(v[2], v[3]),
                       C=complex(v[4], v[5]), D=complex(v[6], v[7]), x=x)


def _set_to_vec(e):
    return np.array([e.A.real, e.A.imag, e.B.real, e.B.imag,
                     e.C.real, e.C.imag, e.D.real, e.D.imag])


def _rule_derivatives(v, t, w, half, others):
    """Endpoint derivatives of a t-rule sum over a band or the gap.

    ``v`` are the weighted node values of int R dw over the segment
    w = mid + half t, which vanish like half^2 (1 - t^2) at its ends.
    The nodes move with the two ends, so differentiating the sum itself
    gives, for the start, the end and the two ``others``,
    sum v [(1 -+ t)/4 sum_others 1/(w - Q) -+ 1/half] and
    -1/2 sum v/(w - Q): no division by a distance to a segment end.
    """
    inv = sum(1.0 / (w - q) for q in others)
    return (np.sum(v * (0.25 * (1.0 - t) * inv - 1.0 / half)),
            np.sum(v * (0.25 * (1.0 + t) * inv + 1.0 / half)),
            *(-0.5 * np.sum(v / (w - q)) for q in others))


def jacobian(e, nodes):
    """Analytic 8x8 Jacobian of ``residuals`` in (Re A, Im A, ..., Re D, Im D).

    Every condition is the real or imaginary part of a function g
    holomorphic in each endpoint P, so its two columns for P follow from
    g'(P) by Cauchy-Riemann (see the module docstring).  ``nodes`` are the
    node terms of ``_system`` at e, from which the Boutroux derivatives
    are summed.
    """
    A, B, C, D = pts = np.array(e.points())
    e1, e2, _, _ = symmetric_functions(e)
    de2 = e1 - pts
    t, (v1, w1, h1), (vg, wg, hg) = nodes
    dA1, dB1, dC1, dD1 = _rule_derivatives(v1, t, w1, h1, (C, D))
    dBg, dCg, dAg, dDg = _rule_derivatives(vg, t, wg, hg, (A, D))
    g = np.array([np.ones(4), de2, e2 - pts * de2,
                  [dA1, dB1, dC1, dD1], [dAg, dBg, dCg, dDg]])
    J = np.empty((8, 8))
    re_rows, im_rows = [0, 2, 4], [1, 3, 5, 6, 7]
    J[re_rows, 0::2] = g[:3].real
    J[re_rows, 1::2] = -g[:3].imag
    J[im_rows, 0::2] = g.imag
    J[im_rows, 1::2] = g.real
    return J


def _newton(x, v0):
    # one residual pass per trial point; the Jacobian reuses the nodes of
    # the accepted one
    v = v0.copy()
    e = _vec_to_set(v, x)
    F, nodes = _system(e, NEWTON_NODES)
    n_iter = 0
    while np.max(np.abs(F)) > 1e-11:
        n_iter += 1
        if n_iter > 100:
            raise NonConvergence(f"endpoint Newton did not converge at x={x}")
        try:
            step = np.linalg.solve(jacobian(e, nodes), -F)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"singular Jacobian at x={x}") from exc
        lam = 1.0
        norm0 = np.max(np.abs(F))
        for _ in range(30):
            v_try = v + lam * step
            e_try = _vec_to_set(v_try, x)
            try:
                F_try, nodes_try = _system(e_try, NEWTON_NODES)
            except DegenerateEndpoints:
                lam *= 0.5
                continue
            if np.max(np.abs(F_try)) < norm0:
                v, e, F, nodes = v_try, e_try, F_try, nodes_try
                break
            lam *= 0.5
        else:
            raise NonConvergence(f"endpoint Newton stalled at x={x}")
    return v, F, n_iter


def degenerate_seed(x):
    """Seed near the one-band degeneration: bands split by 0.12 at c(x).

    x must lie in the lower pole region, else WrongRegion.  The seed is
    the mirror of the one at conj x, from the genus-0 data that x's
    classification solves there, so that a cold chain solves S once.
    """
    x = complex(x)
    label, d = _classify(np.asarray(x))
    if label is not RegionLabel.POLE_REGION_DOWN:
        raise WrongRegion(f"x={x} is not in the pole region ({label.value})")
    u = (d.b - d.a) / abs(d.b - d.a)
    return EndpointSet(A=d.a, B=d.c - 0.06 * u, C=d.c + 0.06 * u, D=d.b, x=d.x).mirror()


def solve_endpoints(x, seed=None):
    """Solve the eight-condition endpoint system at x: one Newton from a seed.

    Above the axis the chain is the ``EndpointSet.mirror`` of the one
    solved at conj x from the mirrored seed.  With no seed, x must lie in
    the pole region and Newton starts from x's own split one-band data
    (``degenerate_seed``): at the region's boundary the two bands fall
    back onto a, c, c, b.  This cold chain depends on x alone.  A seeded
    solve starts from ``seed``, a solved chain near x, and may be asked
    for any x; its last bits depend on the seed.
    """
    x = complex(x)
    if x.imag > 0:
        return solve_endpoints(x.conjugate(), None if seed is None else seed.mirror()).mirror()
    e = _vec_to_set(_newton(x, _set_to_vec(seed or degenerate_seed(x)))[0], x)
    contours_for(e)
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

    total = 0.0
    for seg in (BAND1, BAND2):
        w, dw, R = segment_rule(e, seg, m)
        total += np.sum(dw * 1j * phase_prime(w, x) / (w - z) / R)
    return R_eval(z, e) / (2j * np.pi) * total


def H_prime_oracle(z, e, m=192):
    """i theta'(z)/2 - G'(z) with G' by quadrature; cross-check for H_prime."""
    return 1j * phase_prime(z, e.x) / 2.0 - G_prime_quadrature(z, e, m=m)


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


def inv_r_series(e, order):
    """Coefficients t_k of 1/R = sum_k t_k w^(-2-k), k = 0..order."""
    e1, e2, e3, e4 = symmetric_functions(e)
    s = _sqrt_series([1.0, -e1, e2, -e3, e4], order)
    t = [1.0 + 0.0j]
    for k in range(1, order + 1):
        t.append(-sum(s[j] * t[k - j] for j in range(1, k + 1)))
    return t


def series_tail(coeffs, z):
    """int_z^inf of sum_j coeffs[j] w^(-2-j) dw, a series that starts at w^-2."""
    return sum(c * z ** (-1 - j) / (1 + j) for j, c in enumerate(coeffs))


def _tail_series_value(e, z_from):
    """int from infinity to z_from of (2iR - i theta'/2 + 1/(w-A)).

    Valid once |z_from| is well outside the endpoint cluster: R/w^2 is
    expanded as a square-root series in 1/w and integrated term-wise
    (the 1/w coefficient vanishes identically by the moment conditions).
    The w^-m coefficient, m = 2..24, is 2i s_(m+2) from 2iR plus A^(m-1)
    from 1/(w-A).
    """
    e1, e2, e3, e4 = symmetric_functions(e)
    s = _sqrt_series([1.0, -e1, e2, -e3, e4], 26)
    return -series_tail([2j * s[m + 2] + e.A ** (m - 1) for m in range(2, 25)], z_from)


def far_point(e):
    """Point well outside the endpoint cluster with the most clearance from the chain."""
    pts = np.array(e.points())
    center = pts.mean()
    radius = max(4.0 * max(np.abs(pts - center)), 2.5 * max(np.abs(pts)) + 2.0)
    z = center + radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))
    clear = np.min([_dist_to_segment(z, p, q) for p, q in zip(pts[:-1], pts[1:])], axis=0)
    return complex(z[np.argmax(clear)])


# which of the four chain ends are not an end of which of the three segments
_NOT_OWN_END = ~np.eye(4, 3, dtype=bool) & ~np.eye(4, 3, k=-1, dtype=bool)


class ChainRouter:
    """Shortest cut-avoiding paths on a visibility graph around the chain A-B-C-D.

    The waypoints ring each chain end: four points at the clearance c.  A
    path is the straight leg when that is visible (``_visible``), else the
    shortest path through one waypoint that sees both ends, else the
    shortest path through the waypoints' all-pairs table, built on first
    need.
    """

    def __init__(self, e):
        V = self.ends = np.array(e.points())
        # a folded chain passes close to itself: the rings keep clear of the
        # segments that do not end at their centres
        fold = _dist_to_segment(V[:, None], V[:-1], V[1:])[_NOT_OWN_END].min()
        self.c = min(0.3 * np.min(np.abs(np.diff(V))), 0.45 * fold)
        ring = self.c * np.exp(0.5j * np.pi * (np.arange(4) + 0.5))
        self.waypoints = (V[:, None] + ring).ravel()
        self._table = None

    def _visible(self, a, b):
        """Whether each leg a-b, broadcast, crosses no chain segment and keeps clear of A-D.

        The interior of a leg keeps min(c/2, half the distance from the
        chain end to either end of the leg) from each chain end, so that
        legs still reach points close to an end.  A zero-length leg reads
        as not visible.
        """
        a, b, P = np.asarray(a)[..., None], np.asarray(b)[..., None], self.ends
        room = np.minimum(0.5 * self.c, 0.5 * np.minimum(np.abs(P - a), np.abs(P - b)))
        with np.errstate(invalid="ignore", divide="ignore"):
            clear = (_dist_to_segment(P, a, b) >= room).all(axis=-1)
        return clear & ~quad.segments_cross(a, b, P[:-1], P[1:]).any(axis=-1)

    def _all_pairs(self):
        """Floyd-Warshall over the waypoints: shortest distances and next hops."""
        if self._table is None:
            W = self.waypoints
            dist = np.where(self._visible(W[:, None], W), np.abs(W[:, None] - W), np.inf)
            np.fill_diagonal(dist, 0.0)
            hop = np.tile(np.arange(len(W)), (len(W), 1))
            for k in range(len(W)):
                via = dist[:, k, None] + dist[k]
                better = via < dist
                dist, hop = np.where(better, via, dist), np.where(better, hop[:, k, None], hop)
            self._table = dist, hop
        return self._table

    def path(self, start, end):
        start, end = complex(start), complex(end)
        if start == end:
            return None
        W = self.waypoints
        # the legs start-end and start-W in the first row, end-W in the second
        vis = self._visible(np.array([[start], [end]]), np.concatenate(([end], W)))
        if vis[0, 0]:
            return quad.Path((start, end))
        to_start = np.where(vis[0, 1:], np.abs(W - start), np.inf)
        to_end = np.where(vis[1, 1:], np.abs(W - end), np.inf)
        via_one = to_start + to_end
        if np.isfinite(via_one).any():
            return quad.Path((start, W[np.argmin(via_one)], end))
        dist, hop = self._all_pairs()
        total = to_start[:, None] + dist + to_end
        i, j = np.unravel_index(np.argmin(total), total.shape)
        if not np.isfinite(total[i, j]):
            raise NonConvergence(f"no cut-avoiding path from {start} to {end}")
        verts = [start, W[i]]
        while i != j:
            i = hop[i, j]
            verts.append(W[i])
        return quad.Path((*verts, end))

    def integrals(self, f, start, zs):
        """int_start^z f dw at each z of zs along ``path``, the legs bisected together."""
        paths = [self.path(start, z) for z in zs]
        legs = iter(integrate_legs(f, [p for p in paths if p is not None], LEG_RULE))
        return [0.0 if p is None else next(legs) for p in paths]


def integrate_leg(f, path, rule):
    """Path integral with one tolerance relaxation before giving up."""
    try:
        return quad.integrate_path(f, path, rule)
    except NonConvergence:
        relaxed = quad.QuadratureRule(abs_tol=30.0 * rule.abs_tol,
                                      rel_tol=30.0 * rule.rel_tol,
                                      max_depth=rule.max_depth + 4)
        return quad.integrate_path(f, path, relaxed)


def integrate_legs(f, paths, rule):
    """``integrate_leg`` on each path, all their segments bisected together.

    A NonConvergence sends the paths through ``integrate_leg`` one by one,
    so that each relaxes on its own as before.
    """
    try:
        return quad.integrate_paths(f, paths, rule)
    except NonConvergence:
        return [integrate_leg(f, p, rule) for p in paths]


class HField:
    """Evaluator of H from the far point (see the module docstring)."""

    def __init__(self, e):
        self.e = e
        self.router = ChainRouter(e)
        self.z_far = far_point(e)
        self.tail = _tail_series_value(e, self.z_far)

    def values(self, zs):
        """H at each z of zs, off the chain and off L."""
        e = self.e
        legs = self.router.integrals(lambda w: _g_prime_regularized(w, e), self.z_far, zs)
        return [0.5j * phase(z, e.x) - np.log(z - e.A) + self.tail + leg
                for z, leg in zip(zs, legs)]


def adaptive_band_nodes(e):
    """Node count scaled to the band/gap separation (near-degenerate x)."""
    pts = e.points()
    scale = max(abs(p - q) for p in pts for q in pts)
    m = int(16.0 * np.sqrt(max(scale / max(e.separation(), 1e-9), 1.0)) * 8)
    return int(np.clip(m, 128, 1024))


def midpoint_two_sided(hf, p, q):
    """Two-sided H limits at the midpoint of the cut [p, q].

    H is evaluated, in one batched call, at three transversal offsets on
    each side (the largest is 1e-3 of the cut length) and the one-sided
    limits are obtained by second-order Richardson elimination (the sum
    and difference of the limits are the jump constants).
    """
    mid = 0.5 * (p + q)
    n = 1j * (q - p) / abs(q - p)
    E = 1e-3 * abs(q - p)
    steps = [s * E * n for s in (1.0, 0.5, 0.25)]
    h = hf.values([z for d in steps for z in (mid + d, mid - d)])
    ladder = [(up + dn, up - dn) for up, dn in zip(h[::2], h[1::2])]
    sum0 = (8.0 * ladder[2][0] - 6.0 * ladder[1][0] + ladder[0][0]) / 3.0
    diff0 = (8.0 * ladder[2][1] - 6.0 * ladder[1][1] + ladder[0][1]) / 3.0
    return sum0, diff0


def spectral_constants(e, m):
    """Jump constants omega and Omega of the phase H, from their cycle integrals.

    The gap jump collapses onto band 2 around the D end of the chain, and
    the band-2 jump onto the gap: omega = 4 int_{Sigma2} R_plus dw and
    Omega = -4 int_Gamma R dw, signs fixed by the orientations of
    ``segment_rule`` (R_plus on a band, the + side of the gap), not by x.
    Reality of these values is equivalent to the Boutroux conditions.
    """
    I2, Ig = (np.sum(dw * R) for _, dw, R in (segment_rule(e, BAND2, m),
                                               segment_rule(e, GAP, m)))
    omega, Omega = 4.0 * I2, -4.0 * Ig
    if abs(omega.imag) > 1e-8 or abs(Omega.imag) > 1e-8:
        raise RealityViolation("omega/Omega acquired an imaginary part > 1e-8")
    return SpectralConstants(omega=float(omega.real), Omega=float(Omega.real))


def jump_lambda(e, constants):
    """The jump constant Lambda from an H-field pass; only the endpoint dump reads it.

    Lambda is minus the two-sided H sum at the band-1 midpoint.  The same
    pass checks ``constants``: omega and Omega must match the two-sided H
    jumps to a relative 1e-3, else RealityViolation.
    """
    hf = HField(e)
    sum1, _ = midpoint_two_sided(hf, e.A, e.B)
    _, diff_g = midpoint_two_sided(hf, e.B, e.C)
    sum2, _ = midpoint_two_sided(hf, e.C, e.D)
    Lambda = complex(-sum1)
    # H_+ - H_- = -i omega on the gap, H_+ + H_- = -Lambda - i Omega on band 2
    for name, cyc, jump in (("omega", constants.omega, 1j * diff_g),
                            ("Omega", constants.Omega, 1j * (Lambda + sum2))):
        if abs(cyc - jump) > 1e-3 * max(1.0, abs(cyc)):
            raise RealityViolation(f"cycle and jump values of {name} disagree: {cyc} vs {jump}")
    return Lambda
