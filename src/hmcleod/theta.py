"""Periods, Abel map, theta functions, and the two-band asymptotic value.

The two-sheeted surface defined by R carries the homology basis of an
a-cycle (a loop around the first band, realized as -2x the plus-side
cut integral) and a b-cycle threading the gap through both sheets
(realized as +-2x the plus-sheet gap integral, the sign fixed so that
the period

    B = (2 pi i / oint_a dw/R) oint_b dw/R

has negative real part, as the theta series requires).  The Abel map is

    A(z) = (2 pi i / oint_a dw/R) int_A^z dw/R,

with A(infinity) finite and the 1/z coefficient A_(-1).  The theta
function used throughout is the scalar lattice sum

    Theta(z; B) = sum_k exp(k z + B k^2 / 2),   Re B < 0,

with zeros exactly on K + lattice, K = i pi + B/2.  The leading
asymptotic value of the scaled solution in the pole region is

    i ( A_(-1) (L22 - L12) - (B^2 + D^2 - A^2 - C^2) / (2 (B+D-A-C)) )

where L22/L12 are differences of log-derivatives of Theta at the four
arguments A(inf) +- (A(Q) + K) with and without the shift k F1 U, and
Q = (BD - AC)/(B+D-A-C).  The asymptotic formula blows up exactly where
a theta denominator vanishes; those x form the predicted pole set, and
the excised domain keeps a distance delta/k^(2/3) away from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import endpoints as ep
from . import genus0
from . import quadrature as quad
from .errors import (AssumptionViolated, GridTooCoarse, HmcleodError,
                     NormalizationFailure, ThetaZero, TruncationInsufficient)

THETA_TRUNCATION = 40


@dataclass(frozen=True)
class PeriodData:
    A_minus1: complex
    A_inf: complex
    B_period: complex
    K: complex
    U: complex
    F1: complex
    Q: complex
    nu: complex          # Abel normalization 2 pi i / oint_a dw/R
    b_sign: int          # orientation of the realized b-cycle
    c_upsilon: complex   # a-cycle average of w^2/R


@dataclass(frozen=True)
class ThetaParams:
    B_period: complex

    def __post_init__(self):
        if self.B_period.real >= 0:
            raise NormalizationFailure("theta parameter must have Re < 0")


# ---------------------------------------------------------------------------
# theta sums
# ---------------------------------------------------------------------------

def theta(z, p):
    """Truncated lattice sum sum_k exp(k z + B k^2/2), |k| <= THETA_TRUNCATION."""
    z = complex(z)
    k = np.arange(-THETA_TRUNCATION, THETA_TRUNCATION + 1)
    expo = k * z + 0.5 * p.B_period * k ** 2
    shift = np.max(expo.real)
    terms = np.exp(expo - shift)
    total = np.sum(terms)
    tail = max(abs(terms[0]), abs(terms[-1]))
    if tail > 1e-14 * abs(total):
        raise TruncationInsufficient(
            f"theta truncation {THETA_TRUNCATION} too short for |z|={abs(z):.3g}")
    return total * np.exp(shift)


def log_theta_deriv(z, B):
    """Theta'(z)/Theta(z), stable for arguments with large real part.

    The summation window is centered on the dominant lattice index; a
    normalized theta value below 1e-12 raises ThetaZero.
    """
    z = complex(z)
    re_b = B.real
    j_star = -z.real / re_b
    width = int(np.ceil(np.sqrt(90.0 / abs(re_b)))) + 2
    k = np.arange(int(np.floor(j_star)) - width, int(np.ceil(j_star)) + width + 1)
    expo = k * z + 0.5 * B * k ** 2
    shift = np.max(expo.real)
    terms = np.exp(expo - shift)
    den = np.sum(terms)
    if abs(den) < 1e-12:
        raise ThetaZero(f"theta denominator ~{abs(den):.2e} at z={z}")
    num = np.sum(k * terms)
    return num / den


# ---------------------------------------------------------------------------
# periods and the Abel map
# ---------------------------------------------------------------------------

def _series_inv_sqrt(e, order):
    """Coefficients of 1/sqrt(prod(1 - p_i u)) = R-series reciprocal."""
    e1, e2, e3, e4 = ep.symmetric_functions(e)
    s = ep._sqrt_series([1.0, -e1, e2, -e3, e4], order)
    t = [1.0 + 0.0j]
    for k in range(1, order + 1):
        acc = -sum(s[j] * t[k - j] for j in range(1, k + 1))
        t.append(acc)
    return t


def _far_point(e):
    """Point well outside the endpoint cluster with the most clearance from the chain."""
    cuts = [(e.A, e.B), (e.B, e.C), (e.C, e.D)]
    pts = np.array(e.points())
    center = pts.mean()
    radius = max(4.0 * max(np.abs(pts - center)), 2.5 * max(np.abs(pts)) + 2.0)
    best = None
    for ang in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        d = np.exp(1j * ang)
        z = center + radius * d
        clear = min(min(abs(z - p), abs(z - q)) for p, q in cuts)
        seg_clear = min(genus0._dist_to_segment(z, p, q) for p, q in cuts)
        score = min(clear, seg_clear)
        if best is None or score > best[0]:
            best = (score, z)
    return best[1]


class AbelMap:
    """Normalized incomplete integral of dw/R from the base endpoint A."""

    def __init__(self, e, nu):
        self.e = e
        self.nu = nu
        self.router = ep.ChainRouter(e, include_log_cut=False)
        seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
        u1 = (e.B - e.A) / abs(e.B - e.A)
        self.stage = e.A - 0.4 * seg * u1
        self._inv_r = lambda w: 1.0 / ep.R_eval(w, e, guard=False)
        self._stage_val = ep.integrate_leg(
            self._inv_r, quad.Path((e.A, self.stage)), ep.LEG_RULE, sqrt_start=True)

    def raw_integral(self, z):
        """int_A^z dw/R along the router's cut-avoiding path from the stage point."""
        z = complex(z)
        if abs(z - self.e.A) < 1e-13:
            return 0.0 + 0.0j
        path = self.router.path(self.stage, z)
        if path is None:
            return self._stage_val
        return self._stage_val + ep.integrate_leg(self._inv_r, path, ep.LEG_RULE)

    def value(self, z):
        return self.nu * self.raw_integral(z)


def compute_periods(e, constants, m):
    """Period data needed by the two-band asymptotic value at one x.

    Returns the period data and the Abel map normalized by them.  The
    straight chain placement is used throughout (every quantity here is
    invariant under deformations that do not cross other cuts).
    """
    a_inv = -2.0 * ep.band_integral_inv(e, 1, m=m)
    nu = 2j * np.pi / a_inv
    A_minus1 = -nu

    gap_inv = ep.gap_integral_inv(e, m=m)
    b_sign = 0
    for s in (+1, -1):
        cand = nu * (s * 2.0 * gap_inv)
        if cand.real < 0:
            b_sign = s
            B_period = cand
            break
    if b_sign == 0:
        raise NormalizationFailure("no b-cycle orientation gives Re(B) < 0")

    c_upsilon = (-2.0 * ep.band_integral_inv(e, 1, f=lambda w: w ** 2, m=m)) / (2j * np.pi)
    U = b_sign * 2.0 * ep.gap_integral_inv(e, f=lambda w: w ** 2 - c_upsilon * nu, m=m)
    F1 = (1j * constants.omega * gap_inv
          + 1j * constants.Omega * ep.band_integral_inv(e, 2, m=m)) / (2j * np.pi)
    K = 1j * np.pi + B_period / 2.0
    A, B, C, D = e.points()
    Q = (B * D - A * C) / (B + D - A - C)

    abel = AbelMap(e, nu)
    z_far = _far_point(e)
    base = abel.raw_integral(z_far)

    t = _series_inv_sqrt(e, 16)
    # tail of int dw/R: 1/R = sum t_k w^(-2-k)
    tail_abel = sum(t[k] * z_far ** (-1 - k) / (1 + k) for k in range(len(t)))
    A_inf = nu * (base + tail_abel)

    pd = PeriodData(A_minus1=complex(A_minus1), A_inf=complex(A_inf),
                    B_period=complex(B_period), K=complex(K), U=complex(U),
                    F1=complex(F1), Q=complex(Q),
                    nu=complex(nu), b_sign=b_sign, c_upsilon=complex(c_upsilon))
    _check_offdiagonal_zero(e, pd)
    return pd, abel


def gamma_quarter(z, e):
    """((z-A)(z-C)/((z-B)(z-D)))^(1/4), cut on the bands, -> 1 at infinity."""
    z = np.asarray(z, dtype=complex)
    u1 = (z - e.A) / (z - e.B)
    u2 = (z - e.C) / (z - e.D)
    out = u1 ** 0.25 * u2 ** 0.25
    return out if out.shape else complex(out)


def f_diagonal(z, e):
    g = gamma_quarter(z, e)
    return (g + 1.0 / g) / 2.0


def f_offdiagonal(z, e):
    g = gamma_quarter(z, e)
    return (g - 1.0 / g) / 2j


def _check_offdiagonal_zero(e, pd, tol=1e-10):
    fod = f_offdiagonal(pd.Q, e)
    if abs(fod) <= tol:
        return
    fd = f_diagonal(pd.Q, e)
    if abs(fd) <= tol:
        raise AssumptionViolated(
            "the diagonal factor vanishes at Q for this x; the final formula "
            "is unchanged but this configuration is outside the assumed case")
    raise NormalizationFailure(
        f"neither factor vanishes at Q: fD={fd:.2e}, fOD={fod:.2e}")


# ---------------------------------------------------------------------------
# assembled pipeline and the asymptotic value
# ---------------------------------------------------------------------------

class Genus1Pipeline:
    """Everything needed to evaluate the two-band asymptotics at one x."""

    def __init__(self, x=None, endpoint_set=None, seed=None, constants_hint=None):
        if endpoint_set is None:
            endpoint_set = ep.solve_endpoints(x, seed=seed)
        self.e = endpoint_set
        self.x = complex(self.e.x)
        m = ep.adaptive_band_nodes(self.e)
        self.constants = ep.spectral_constants(self.e, m=m, hint=constants_hint)
        self.periods, self.abel = compute_periods(self.e, self.constants, m=m)
        self.A_Q = self.abel.value(self.periods.Q)

    def theta_shift(self, k):
        """Argument shift of the theta ratios: k F1 U plus a half period.

        The half-b-period augmentation is required for the formula to
        match the direct ODE numerics: with it the O(1/k) convergence
        holds and the formula's blowups coincide with the observed pole
        field; with the bare k F1 U both fail.  (Adding a full b-period
        leaves the value unchanged, so the sign of the half period is
        immaterial.)
        """
        pd = self.periods
        return k * pd.F1 * pd.U + pd.B_period / 2.0

    def value(self, k, a_cycles=0, b_cycles=0):
        """Leading asymptotic value of the scaled solution at this x."""
        pd = self.periods
        a_q = self.A_Q + 2j * np.pi * a_cycles + pd.B_period * b_cycles
        v_plus = pd.A_inf + a_q + pd.K
        v_minus = pd.A_inf - a_q - pd.K
        shift = self.theta_shift(k)
        B = pd.B_period
        l22 = log_theta_deriv(v_plus + shift, B) - log_theta_deriv(v_plus, B)
        l12 = log_theta_deriv(v_minus + shift, B) - log_theta_deriv(v_minus, B)
        A, Bp, C, D = self.e.points()
        corner = (Bp ** 2 + D ** 2 - A ** 2 - C ** 2) / (2.0 * (Bp + D - A - C))
        return 1j * (pd.A_minus1 * (l22 - l12) - corner)

    def upsilon_constants(self):
        """(Upsilon0_const, Upsilon_minus1) of Upsilon = (w^2 - c_upsilon nu)/R dw.

        Upsilon0_const = A - int_A^inf (Upsilon - dw) and Upsilon_minus1
        is the 1/z coefficient; only the endpoint dump reads them.
        """
        e, pd, abel = self.e, self.periods, self.abel

        def upsilon_minus_one(w):
            return (w ** 2 - pd.c_upsilon * pd.nu) / ep.R_eval(w, e, guard=False) - 1.0

        z_far = _far_point(e)
        seg_val = ep.integrate_leg(upsilon_minus_one, quad.Path((e.A, abel.stage)),
                                   ep.LEG_RULE, sqrt_start=True)
        seg_val += ep.integrate_leg(upsilon_minus_one, abel.router.path(abel.stage, z_far),
                                    ep.LEG_RULE)
        # series tail: (w^2 - cU*nu)/R - 1 = sum_{m>=2} (t_m - cU*nu*t_{m-2}) w^-m
        t = _series_inv_sqrt(e, 16)
        tail_up = 0.0 + 0.0j
        for mm in range(2, len(t)):
            coeff = t[mm] - pd.c_upsilon * pd.nu * t[mm - 2]
            tail_up += coeff * z_far ** (1 - mm) / (mm - 1)
        return (complex(e.A - (seg_val + tail_up)),
                complex(-e.x / 4.0 + pd.A_minus1 * pd.c_upsilon))

    def pole_residual(self, k, family):
        """Lattice-reduced defect of the pole condition for one family.

        The asymptotic formula blows up where a theta denominator
        vanishes: v + theta_shift(k) = K (mod lattice) with v the plus
        (family=+1) or minus (family=-1) argument combination.
        """
        pd = self.periods
        v = pd.A_inf + family * (self.A_Q + pd.K)
        r = v + self.theta_shift(k) - pd.K
        return reduce_mod_lattice(r, pd.B_period)


def reduce_mod_lattice(v, B_period):
    basis = np.array([[0.0, B_period.real], [2.0 * np.pi, B_period.imag]])
    coeff = np.linalg.solve(basis, np.array([v.real, v.imag]))
    n = np.round(coeff)
    red = v - n[0] * 2j * np.pi - n[1] * B_period
    # rounding ties: check the 8 neighbors for the true minimum
    best = red
    for d0 in (-1, 0, 1):
        for d1 in (-1, 0, 1):
            cand = v - (n[0] + d0) * 2j * np.pi - (n[1] + d1) * B_period
            if abs(cand) < abs(best):
                best = cand
    return best


# ---------------------------------------------------------------------------
# predicted poles and the excised domain
# ---------------------------------------------------------------------------

class _PipelineCache:
    """Continuation-aware cache of pipelines over an x-window.

    A new pipeline is seeded from the nearest solved one in the same
    half-plane.  The two halves of the pole region meet the real axis
    only at the boundary point x0, so a seed from across the axis starts
    a chain of seeded solves through the pole-free region, which can end
    on another solution of the endpoint system.
    """

    def __init__(self):
        self.solved = {}

    def get(self, x):
        x = complex(x)
        key = (round(x.real, 9), round(x.imag, 9))
        if key in self.solved:
            return self.solved[key]
        seed = None
        hint = None
        same_half = [p for p in self.solved.values() if (p.x.imag > 0) == (x.imag > 0)]
        if same_half:
            nearest = min(same_half, key=lambda p: abs(p.x - x))
            if abs(nearest.x - x) < 1.5:
                seed = nearest.e
                hint = nearest.constants
        pipe = Genus1Pipeline(x, seed=seed, constants_hint=hint)
        self.solved[key] = pipe
        return pipe


def _newton_pole(cache, x0, k, sign, tol=1e-9, max_iter=18, fd=1e-4):
    x = complex(x0)
    r = cache.get(x).pole_residual(k, sign)
    J = None
    for _ in range(max_iter):
        if abs(r) < tol:
            return x
        if J is None:
            rpp = cache.get(x + fd).pole_residual(k, sign)
            rip = cache.get(x + 1j * fd).pole_residual(k, sign)
            J = np.array([[(rpp - r).real / fd, (rip - r).real / fd],
                          [(rpp - r).imag / fd, (rip - r).imag / fd]])
        try:
            step = np.linalg.solve(J, -np.array([r.real, r.imag]))
        except np.linalg.LinAlgError:
            return None
        step_c = complex(step[0], step[1])
        if abs(step_c) > 0.5:
            step_c *= 0.5 / abs(step_c)
        x_new = x + step_c
        r_new = cache.get(x_new).pole_residual(k, sign)
        # Broyden update of the 2x2 Jacobian
        s = np.array([step_c.real, step_c.imag])
        dr = np.array([(r_new - r).real, (r_new - r).imag])
        J = J + np.outer(dr - J @ s, s) / np.dot(s, s)
        if abs(r_new) > 3.0 * abs(r):
            J = None  # fresh Jacobian next round
        x, r = x_new, r_new
    return None


def predict_poles(window, k, spacing=0.45, cache=None, verify=True):
    """Predicted pole locations of the asymptotic formula in a window.

    ``window`` is (re_min, re_max, im_min, im_max), contained in the
    pole region.  Newton on the lattice-reduced pole condition is run
    from a coarse grid of seeds for both sign choices; ``verify``
    re-runs a refined seed grid and demands a consistent pole set.
    """
    re0, re1, im0, im1 = window
    cache = cache or _PipelineCache()

    def sweep(h):
        res = []
        for xr in np.arange(re0, re1 + 1e-12, h):
            for xi in np.arange(im0, im1 + 1e-12, h):
                for sign in (+1, -1):
                    try:
                        root = _newton_pole(cache, complex(xr, xi), k, sign)
                    except HmcleodError:
                        continue
                    if root is None:
                        continue
                    if not (re0 - 0.25 <= root.real <= re1 + 0.25
                            and im0 - 0.25 <= root.imag <= im1 + 0.25):
                        continue
                    if genus0.classify_region(root).pole_free:
                        continue
                    if all(abs(root - q) > 1e-4 for q in res):
                        res.append(root)
        return sorted(res, key=lambda z: (z.real, z.imag))

    poles = sweep(spacing)
    if verify:
        refined = sweep(spacing / 1.7)
        for p in poles:
            if min((abs(p - q) for q in refined), default=np.inf) > 1e-6:
                raise GridTooCoarse("pole set changed under seed refinement")
        poles = refined
    return poles


def in_Sk(x, k, delta=0.5, cache=None):
    """True when x keeps distance delta/k^(2/3) from every predicted pole."""
    x = complex(x)
    cache = cache or _PipelineCache()
    radius = delta / k ** (2.0 / 3.0)
    seeds = [x] + [x + 1.3 * radius * np.exp(2j * np.pi * j / 4) for j in range(4)]
    for sign in (+1, -1):
        for s in seeds:
            try:
                root = _newton_pole(cache, s, k, sign)
            except HmcleodError:
                continue
            if root is not None and abs(root - x) <= radius:
                return False
    return True
