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

Only the endpoint dump evaluates H, and only at the chain ends A, B and
D (``H_at_end``, behind ``jump_lambda``): as i theta(z)/2 - Log(z - A)
plus the integral from infinity to z of g = 2iR - i theta'/2 + 1/(w - A).
g is analytic off the chain A-B-C-D and O(1/w^2) at infinity, so its
integral is single-valued off the chain, and the principal Log places
the cut L.  A 1/w series carries the integral to a far point on a ray
from the end, and one straight leg, which crosses no cut, carries it on
to the end under the fixed rule ``quadrature.leg_rule`` (``end_leg``).
The dump's Upsilon constant (``theta``) takes A's leg; a pipeline takes
none.

Every band and gap integral is a complete integral of p(w) dw/R with
deg p <= 4: a combination of the moments I_k = int w^k dw/R, k = 0, 1, 2,
of its segment (``segment_moments``), summed over one rule,
``segment_rule``, at the node count m(e) = ``adaptive_band_nodes(e)``.
The rule substitutes t = cos(theta), which turns the square-root
endpoint behavior of R into smooth periodic integrands (midpoint rule in
theta converges spectrally).  With R^2 = P4(w) = sum_j c_j w^j, and R
zero at both ends of a band and of the gap, int d(w^j R) = 0 for j = 0, 1
gives I_3 and I_4 exactly (``moment_reduction``):

    4 I_3 + 3 c_3 I_2 + 2 c_2 I_1 + c_1 I_0 = 0,
    3 I_4 + (5/2) c_3 I_3 + 2 c_2 I_2 + (3/2) c_1 I_1 + c_0 I_0 = 0,

and int R dw = sum_j c_j I_j.

Newton on the eight conditions uses a closed-form Jacobian.  Each
condition is the real or imaginary part of a function g holomorphic in
each endpoint P, so Cauchy-Riemann gives its columns (Re P, Im P) from
g'(P): [Re g', -Im g'] in the Re g row and [Im g', Re g'] in the Im g
row.  With s_1, s_2, s_3 the elementary symmetric functions of the other
three ends, de1/dP = 1, de2/dP = s_1 and de3/dP = s_2.  Over band 1 and
over the gap, dR/dP = -R / (2 (w - P)) and R = 0 at the moving limits, so

    d/dP int R dw = -1/2 int R / (w - P) dw = -1/2 (I_3 - s_1 I_2 + s_2 I_1 - s_3 I_0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import quadrature as quad
from .errors import DegenerateEndpoints, NonConvergence, OnCut, RealityViolation, WrongRegion
from .genus0 import RegionLabel, _classify, _dist_to_segment, cut_root, phase, phase_prime

_L_RAY_LENGTH = 1e3


@dataclass(frozen=True)
class EndpointSet:
    A: complex
    B: complex
    C: complex
    D: complex
    x: complex
    moments: np.ndarray = field(default=None, compare=False, repr=False)

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


def segment_rule(e, seg, m):
    """The t = cos(theta) rule with m nodes on band 1, the gap or band 2.

    Returns the nodes w = mid + half t, the weights dw, with sum(dw f(w))
    the integral of f from the first end of the segment to the second, and
    R at the nodes: R_plus on a band, whose own root factor is
    i half sin(theta) there.  R and dw both vanish like sin(theta) at the
    ends, so f R dw and f dw / R are smooth in theta and the rule
    converges spectrally for both.
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
    return w, half * wt, R


def segment_moments(e, seg, m):
    """The moments I_k = int w^k dw/R, k = 0, 1, 2, of one segment by its m-node rule."""
    w, dw, R = segment_rule(e, seg, m)
    f = dw / R
    fw = f * w
    return np.array([f.sum(), fw.sum(), (fw * w).sum()])


def chain_moments(e):
    """The moments of band 1, the gap and band 2 at m(e), one row each; a solved chain has two."""
    m = adaptive_band_nodes(e)
    head = [segment_moments(e, seg, m) for seg in (BAND1, GAP)] if e.moments is None else e.moments
    return np.vstack([head, segment_moments(e, BAND2, m)])


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


def moment_reduction(e):
    """Rows a_3, a_4, r with I_3 = M a_3, I_4 = M a_4 and int R dw = M r (module docstring).

    M holds the moments I_0, I_1, I_2 of each segment in its last axis.
    """
    e1, e2, e3, e4 = symmetric_functions(e)
    c0, c1, c2, c3 = e4, -e3, e2, -e1
    a3 = np.array([c1, 2.0 * c2, 3.0 * c3]) / -4.0
    a4 = (np.array([c0, 1.5 * c1, 2.0 * c2]) + 2.5 * c3 * a3) / -3.0
    return a3, a4, np.array([c0, c1, c2]) + c3 * a3 + a4


def _system(e, m):
    """Residuals at e and the band-1 and gap moments at m nodes they are built from."""
    if e.separation() < 1e-6:
        raise DegenerateEndpoints("endpoint separation below 1e-6")
    e1, e2, e3, _ = symmetric_functions(e)
    m2_target = e.x / 2.0
    moments = np.array([segment_moments(e, seg, m) for seg in (BAND1, GAP)])
    bt1, btg = moments @ moment_reduction(e)[2]
    F = np.array([
        e1.real, e1.imag,
        (e2 - m2_target).real, (e2 - m2_target).imag,
        (e3 + 1j).real, (e3 + 1j).imag,
        bt1.imag, btg.imag,
    ])
    return F, moments


def residuals(e, m=None):
    """Eight real residuals: moment conditions (6) and Boutroux imaginary parts (2).

    The Boutroux integrals sum at m nodes, by default m(e) as in the Newton.
    """
    return _system(e, adaptive_band_nodes(e) if m is None else m)[0]


def _vec_to_set(v, x):
    return EndpointSet(A=complex(v[0], v[1]), B=complex(v[2], v[3]),
                       C=complex(v[4], v[5]), D=complex(v[6], v[7]), x=x)


def _set_to_vec(e):
    return np.array([e.A.real, e.A.imag, e.B.real, e.B.imag,
                     e.C.real, e.C.imag, e.D.real, e.D.imag])


def jacobian(e, moments):
    """Analytic 8x8 Jacobian of the eight conditions in (Re A, Im A, ..., Re D, Im D).

    Every condition is the real or imaginary part of a function g
    holomorphic in each endpoint P, so its two columns for P follow from
    g'(P) by Cauchy-Riemann.  The Boutroux derivatives are combinations
    of ``moments``, the band-1 and gap moments of ``_system`` at e (see
    the module docstring).
    """
    pts = np.array(e.points())
    e1, e2, e3, _ = symmetric_functions(e)
    s1 = e1 - pts
    s2 = e2 - pts * s1
    s3 = e3 - pts * s2
    I3 = moments @ moment_reduction(e)[0]
    dR = -0.5 * (I3[:, None] + moments @ np.array([-s3, s2, -s1]))
    g = np.vstack([np.ones(4), s1, s2, dR])
    J = np.empty((8, 8))
    re_rows, im_rows = [0, 2, 4], [1, 3, 5, 6, 7]
    J[re_rows, 0::2] = g[:3].real
    J[re_rows, 1::2] = -g[:3].imag
    J[im_rows, 0::2] = g.imag
    J[im_rows, 1::2] = g.real
    return J


def _newton(x, v0):
    # one residual pass per trial point, at its own m(e); the Jacobian
    # reuses the moments of the accepted one, and so does a pipeline
    v = v0.copy()
    e = _vec_to_set(v, x)
    F, moments = _system(e, adaptive_band_nodes(e))
    n_iter = 0
    while np.max(np.abs(F)) > 1e-11:
        n_iter += 1
        if n_iter > 100:
            raise NonConvergence(f"endpoint Newton did not converge at x={x}")
        try:
            step = np.linalg.solve(jacobian(e, moments), -F)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"singular Jacobian at x={x}") from exc
        lam = 1.0
        norm0 = np.max(np.abs(F))
        for _ in range(30):
            v_try = v + lam * step
            e_try = _vec_to_set(v_try, x)
            try:
                F_try, moments_try = _system(e_try, adaptive_band_nodes(e_try))
            except DegenerateEndpoints:
                lam *= 0.5
                continue
            if np.max(np.abs(F_try)) < norm0:
                v, e, F, moments = v_try, e_try, F_try, moments_try
                break
            lam *= 0.5
        else:
            raise NonConvergence(f"endpoint Newton stalled at x={x}")
    return v, F, n_iter, moments


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
    for any x; its last bits depend on the seed.  A chain solved below the
    axis carries the moments of the Newton's accepted pass.
    """
    x = complex(x)
    if x.imag > 0:
        return solve_endpoints(x.conjugate(), None if seed is None else seed.mirror()).mirror()
    v, _, _, moments = _newton(x, _set_to_vec(seed or degenerate_seed(x)))
    e = replace(_vec_to_set(v, x), moments=moments)
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


def _h_prime_less_phase(w, e):
    """2iR(w) - i theta'(w)/2, computed without cancellation.

    With P = w^2 + x/4 the combination 2i(R - P) equals
    2i (R^2 - P^2)/(R + P), and R^2 - P^2 reduces to a quadratic in w via
    the symmetric functions of the endpoints (exact up to the solved
    moment residuals), which stays accurate for |w| up to the tail radius.
    It is bounded at the chain ends, where R vanishes.
    """
    x = e.x
    _, e2, e3, e4 = symmetric_functions(e)
    P = w * w + x / 4.0
    num = (e2 - x / 2.0) * w * w - e3 * w + (e4 - x * x / 16.0)
    R = R_eval(w, e, guard=False)
    return 2j * num / (R + P)


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


# the directions tried for a chain end's leg; none runs along L
_LEG_DIRECTIONS = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


def end_leg(e, P):
    """The far point z of the chain end P's leg, and the leg's rule from z to P.

    z lies on a ray from P, with |z| at least the radius where the 1/w
    series of ``_tail_series_value`` holds.  A ray qualifies when its leg
    crosses no contour of ``contours_for(e)``.  Of those, the leg keeps
    the most clearance from the other ends: their images under
    t = sqrt((w - P)/(z - P)) have the largest smallest Bernstein
    parameter, which sets the error of ``quad.leg_rule``.  Raises
    DegenerateEndpoints when no ray qualifies.
    """
    pts = np.array(e.points())
    radius = max(4.0 * max(np.abs(pts - pts.mean())), 2.5 * max(np.abs(pts)) + 2.0)
    z = P + (radius + abs(P)) * _LEG_DIRECTIONS
    c0, c1 = np.array(contours_for(e)).T
    crosses = quad.segments_cross(P, z[:, None], c0, c1).any(axis=1)
    s = 2.0 * np.sqrt((pts[pts != P, None] - P) / (z - P)) - 1.0
    clear = np.where(crosses, 0.0, np.min(np.abs(s + cut_root(1.0, s)), axis=0))
    best = np.argmax(clear)
    if crosses[best]:
        raise DegenerateEndpoints(f"every leg from the chain end {P} crosses a contour")
    return complex(z[best]), quad.leg_rule(P, z[best])


def H_at_end(e, P):
    """H at the chain end P (its limit along P's leg) and the far point z of that leg.

    H(P) = i theta(P)/2 - Log(P - A) + tail(z) + int_z^P g dw with
    g = (2iR - i theta'/2) + 1/(w - A).  The leg crosses no contour, L
    included, so the 1/(w - A) part integrates to Log(P - A) - Log(z - A)
    and H(P) = i theta(P)/2 - Log(z - A) + tail(z) + int_z^P (2iR - i theta'/2) dw,
    at A as at the other ends.
    """
    z, (w, dw) = end_leg(e, P)
    return (0.5j * phase(P, e.x) - np.log(z - e.A) + _tail_series_value(e, z)
            + np.sum(dw * _h_prime_less_phase(w, e))), z


def adaptive_band_nodes(e):
    """Node count scaled to the band/gap separation (near-degenerate x)."""
    pts = e.points()
    scale = max(abs(p - q) for p in pts for q in pts)
    m = int(16.0 * np.sqrt(max(scale / max(e.separation(), 1e-9), 1.0)) * 8)
    return min(max(m, 128), 1024)


def spectral_constants(e, moments):
    """Jump constants omega and Omega of the phase H, from their cycle integrals.

    The gap jump collapses onto band 2 around the D end of the chain, and
    the band-2 jump onto the gap: omega = 4 int_{Sigma2} R_plus dw and
    Omega = -4 int_Gamma R dw, signs fixed by the orientations of
    ``segment_rule`` (R_plus on a band, the + side of the gap), not by x.
    ``moments`` are ``chain_moments(e)``.  Reality of these values is
    equivalent to the Boutroux conditions.
    """
    gap, band2 = moments[GAP:] @ moment_reduction(e)[2]
    omega, Omega = 4.0 * band2, -4.0 * gap
    if abs(omega.imag) > 1e-8 or abs(Omega.imag) > 1e-8:
        raise RealityViolation("omega/Omega acquired an imaginary part > 1e-8")
    return SpectralConstants(omega=float(omega.real), Omega=float(Omega.real))


def _ccw(u, v):
    """The counterclockwise angle from the direction u to the direction v, in [0, 2 pi)."""
    return np.angle(v / u) % (2.0 * np.pi)


def end_jumps(e):
    """Lambda, and the values of omega and Omega that H at the chain ends gives.

    Lambda follows the branch rule of ``jump_lambda``.  At D the two sides
    of band 2 meet, so 2H(D) + Lambda + i Omega = 0.  At B the gap jump
    H_+ - H_- = -i omega splits the band-1 sum H_+ + H_- = -Lambda:
    2H(B) + Lambda + i omega = 0 on the + side (left) of the gap, where
    B's leg arrives when it leaves counterclockwise of the gap and
    clockwise of band 1, and 2H(B) + Lambda - i omega = 0 on the other.
    """
    (hA, zA), (hB, zB), (hD, _) = (H_at_end(e, P) for P in (e.A, e.B, e.D))
    ccw = _ccw(zA - e.A, -1.0) < _ccw(zA - e.A, e.B - e.A)
    Lambda = complex(-2.0 * hA + (-2j if ccw else 2j) * np.pi)
    plus_side = _ccw(e.C - e.B, zB - e.B) < _ccw(e.C - e.B, e.A - e.B)
    omega = (1j if plus_side else -1j) * (2.0 * hB + Lambda)
    return Lambda, omega, 1j * (2.0 * hD + Lambda)


def jump_lambda(e, constants):
    """The jump constant Lambda from H at the chain ends; only the endpoint dump reads it.

    H_+ + H_- = -Lambda along band 1, so also at its end A.  H at A is
    continuous but for the jump of -Log(z - A) across L.  The side of
    band 1 that shares a sector with A's leg takes the leg's value H(A).
    The other side is reached by the arc at A from the leg that crosses L
    and not band 1.  Counterclockwise, that arc crosses L from above to
    below, where -Log gains 2 pi i, so Lambda = -2H(A) - 2 pi i;
    clockwise, Lambda = -2H(A) + 2 pi i.

    The same pass checks ``constants``: omega and Omega must match their
    chain-end values (``end_jumps``) to a relative 1e-3, else
    RealityViolation.
    """
    Lambda, *jumps = end_jumps(e)
    for name, cyc, jump in zip(("omega", "Omega"), (constants.omega, constants.Omega), jumps):
        if abs(cyc - jump) > 1e-3 * max(1.0, abs(cyc)):
            raise RealityViolation(f"cycle and chain-end values of {name} disagree: {cyc} vs {jump}")
    return Lambda
