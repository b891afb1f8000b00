"""Periods, Abel map, theta functions, and the two-band asymptotic value.

The two-sheeted surface defined by R carries the homology basis of an
a-cycle (a loop around the first band, realized as -2x the plus-side
cut integral) and a b-cycle threading the gap through both sheets
(realized as +-2x the plus-sheet gap integral, the sign fixed so that
the period

    B = (2 pi i / oint_a dw/R) oint_b dw/R

has negative real part, as the theta series requires).  The Abel map is

    A(z) = (2 pi i / oint_a dw/R) int_A^z dw/R,

with A(infinity) finite and the 1/z coefficient A_(-1), in closed form
(``AbelMap``) modulo the lattice 2 pi i m + B n, under which all below is
invariant.  The theta function used throughout is the scalar lattice sum

    Theta(z; B) = sum_k exp(k z + B k^2 / 2),   Re B < 0,

with zeros exactly on K + lattice, K = i pi + B/2.  The leading
asymptotic value of the scaled solution in the pole region is

    i ( A_(-1) (L22 - L12) - (B^2 + D^2 - A^2 - C^2) / (2 (B+D-A-C)) )

where L22/L12 are differences of log-derivatives of Theta at the four
arguments A(inf) +- (A(Q) + K) with and without the shift k F1 U, and
Q = (BD - AC)/(B+D-A-C).  The asymptotic formula blows up exactly where
a theta denominator vanishes; those x form the predicted pole set, and
the excised domain keeps a distance delta/k^(2/3) away from it.  Since
Theta vanishes exactly on K + lattice, x is a pole of the family s = +-1
where

    r(x) = A(inf) + s (A(Q) + K) + k F1 U + B/2 - K = 2 pi i m + B n

for integers m, n.  The lattice coordinates (m, n) of r are
c(x) = c0(x; s) + k c1(x), with c1 those of F1 U, so the poles are the
preimages of the integer points under a smooth map of the x-plane.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import endpoints as ep
from . import genus0
from .errors import (AssumptionViolated, HmcleodError, NormalizationFailure,
                     ThetaZero, TruncationInsufficient, WrongRegion)

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

def carlson_rf(x, y, z):
    """Carlson's R_F for complex x, y, z off (-inf, 0], at most one 0, by duplication.

    Carlson, Numer. Algorithms 10 (1995) 13: a fifth-order series ends it.
    """
    while True:
        a = (x + y + z) / 3.0
        if max(abs(x - a), abs(y - a), abs(z - a)) < 1e-3 * abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / cmath.sqrt(a)


class AbelMap:
    """int_A^z dw/R in closed form (DLMF 19.29), modulo the periods of dw/R.

    +-int_A^z dw/R = 2 R_F(U_B, U_C, U_D), U_P = (z-P)/(z-A) prod (A-P')
    over the other two of P' = B, C, D, and (z-P)/(z-A) = 1 at infinity.
    """

    def __init__(self, e):
        self.e = e

    def _closed_form(self, z):
        A, B, C, D = self.e.points()
        q = [1.0 if cmath.isinf(z) else (z - p) / (z - A) for p in (B, C, D)]
        return 2.0 * carlson_rf(q[0] * (A - C) * (A - D), q[1] * (A - B) * (A - D),
                                q[2] * (A - B) * (A - C))

    def raw_integral(self, zs):
        """int_A^z dw/R at each z of zs (inf included), modulo the periods.

        The sign makes it a primitive of 1/R_eval: a central difference at
        z, or at a far point for z = inf.
        """
        pts = self.e.points()
        out = []
        for z in map(complex, zs):
            at = 1e3 * (1.0 + max(map(abs, pts))) if cmath.isinf(z) else z
            h = 1e-4 * min(abs(at - p) for p in pts)
            slope = (self._closed_form(at + h) - self._closed_form(at - h)) / (2.0 * h)
            sign = 1.0 if (slope * ep.R_eval(at, self.e, guard=False)).real > 0 else -1.0
            out.append(sign * self._closed_form(z))
        return out


def compute_periods(e, constants, m):
    """Period data needed by the two-band asymptotic value at one x.

    Returns the period data and the Abel map's value A(Q).  A_inf and
    A(Q) come from ``AbelMap``'s closed form, modulo the lattice.  The
    straight chain placement is used throughout (every quantity here is
    invariant under deformations that do not cross other cuts).
    """
    w1, dw1, R1 = ep.segment_rule(e, ep.BAND1, m)
    wg, dwg, Rg = ep.segment_rule(e, ep.GAP, m)
    _, dw2, R2 = ep.segment_rule(e, ep.BAND2, m)
    a_inv = -2.0 * np.sum(dw1 / R1)
    nu = 2j * np.pi / a_inv
    A_minus1 = -nu

    gap_inv = np.sum(dwg / Rg)
    b_sign = 1 if (nu * (2.0 * gap_inv)).real < 0 else -1
    B_period = nu * (b_sign * 2.0 * gap_inv)
    if not B_period.real < 0:
        raise NormalizationFailure("no b-cycle orientation gives Re(B) < 0")

    c_upsilon = (-2.0 * np.sum(dw1 * w1 ** 2 / R1)) / (2j * np.pi)
    U = b_sign * 2.0 * np.sum(dwg * (wg ** 2 - c_upsilon * nu) / Rg)
    F1 = (1j * constants.omega * gap_inv
          + 1j * constants.Omega * np.sum(dw2 / R2)) / (2j * np.pi)
    K = 1j * np.pi + B_period / 2.0
    A, B, C, D = e.points()
    Q = (B * D - A * C) / (B + D - A - C)

    raw_inf, raw_q = AbelMap(e).raw_integral((np.inf, Q))
    pd = PeriodData(A_minus1=complex(A_minus1), A_inf=complex(nu * raw_inf),
                    B_period=complex(B_period), K=complex(K), U=complex(U),
                    F1=complex(F1), Q=complex(Q),
                    nu=complex(nu), b_sign=b_sign, c_upsilon=complex(c_upsilon))
    _check_offdiagonal_zero(e, pd)
    return pd, nu * raw_q


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

    def __init__(self, x, seed=None):
        self.e = ep.solve_endpoints(x, seed=seed)
        self.x = complex(self.e.x)
        m = ep.adaptive_band_nodes(self.e)
        self.constants = ep.spectral_constants(self.e, m)
        self.periods, self.A_Q = compute_periods(self.e, self.constants, m=m)

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

    def value(self, k):
        """Leading asymptotic value of the scaled solution at this x."""
        pd = self.periods
        v_plus = pd.A_inf + self.A_Q + pd.K
        v_minus = pd.A_inf - self.A_Q - pd.K
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
        is the 1/z coefficient; only the endpoint dump reads them.  One
        router leg from the far point to A takes the part of Upsilon - dw
        that is bounded at A, less c/((w - B) r1), whose primitive
        2 c r1/((A - B)(w - B)) vanishes at A (r1 the band-1 root).
        """
        e, pd = self.e, self.periods
        A, B = e.A, e.B
        c_nu = pd.c_upsilon * pd.nu
        c = (A ** 2 - c_nu) * (A - B) / ep._band_root(e.C, e.D, A)

        def bounded(w):
            return ((w ** 2 - c_nu) / ep.R_eval(w, e, guard=False) - 1.0
                    - c / ((w - B) * ep._band_root(A, B, w)))

        z_far, t = ep.far_point(e), ep.inv_r_series(e, 16)
        # series tail: (w^2 - cU*nu)/R - 1 = sum_{m>=2} (t_m - cU*nu*t_{m-2}) w^-m
        tail = ep.series_tail([t[m] - c_nu * t[m - 2] for m in range(2, len(t))], z_far)
        leg, = ep.ChainRouter(e).integrals(bounded, z_far, [A])
        primitive = 2.0 * c * ep._band_root(A, B, z_far) / ((A - B) * (z_far - B))
        return (complex(A - (primitive - leg + tail)),
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

    def lattice_coords(self, family):
        """Lattice coordinates (c0, c1) of the unreduced pole residual of one family.

        Before its reduction, ``pole_residual`` is 2 pi i m + B n with
        (m, n) = c0 + k c1: c1 are the coordinates of F1 U and c0 those of
        the rest, which does not depend on k.
        """
        pd = self.periods
        r0 = pd.A_inf + family * (self.A_Q + pd.K) + pd.B_period / 2.0 - pd.K
        return np.linalg.solve(_lattice_basis(pd.B_period), _real2([r0, pd.F1 * pd.U])).T


def _lattice_basis(B_period):
    """The real 2x2 matrix taking lattice coordinates (m, n) to 2 pi i m + B n as (Re, Im)."""
    return np.array([[0.0, B_period.real], [2.0 * np.pi, B_period.imag]])


def _real2(z):
    """2 x n real matrix (Re z; Im z) of complex z."""
    z = np.asarray(z, dtype=complex)
    return np.array([z.real, z.imag])


def reduce_mod_lattice(v, B_period):
    coeff = np.linalg.solve(_lattice_basis(B_period), np.array([v.real, v.imag]))
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

# spacing of the fixed lattice of anchors that seed the pipelines
ANCHOR_SPACING = 1.0


class _PipelineCache:
    """Cache of the pipelines at Im x <= 0, keyed by x.

    Values and poles at Im x > 0 mirror those at conj x: the cache
    refuses an x above the axis.  A pipeline depends on x alone, not on
    what the cache holds: its endpoint Newton starts from the anchor of
    x, the cold chain (``endpoints.solve_endpoints``) at x's nearest node
    of the lattice ANCHOR_SPACING (m + i n).  x is solved cold itself
    when that node is not in the pole region, or when the anchor's solve
    or x's seeded pipeline raises.  The cache also keeps each window's
    classified pole grid, which every k shares.
    """

    def __init__(self):
        self.solved = {}
        self._anchors = {}
        self._grids = {}

    def classified_grid(self, window):
        """``pole_grid(window)`` and its region labels, classified once per window."""
        if window not in self._grids:
            nodes = pole_grid(window)
            labels = genus0.classify_region(nodes.ravel()).reshape(nodes.shape)
            self._grids[window] = nodes, labels
        return self._grids[window]

    def _anchor(self, x):
        """The cold chain at x's nearest lattice node, or None where it raises."""
        node = (round(x.real / ANCHOR_SPACING), round(x.imag / ANCHOR_SPACING))
        if node not in self._anchors:
            try:
                self._anchors[node] = ep.solve_endpoints(ANCHOR_SPACING * complex(*node))
            except HmcleodError:
                self._anchors[node] = None
        return self._anchors[node]

    def get(self, x):
        x = complex(x)
        if x.imag > 0:
            raise WrongRegion(f"x={x} lies above the axis: take the mirror of conj x")
        if x not in self.solved:
            anchor = self._anchor(x)
            try:
                self.solved[x] = Genus1Pipeline(x, seed=anchor)
            except HmcleodError:
                if anchor is None:
                    raise
                self.solved[x] = Genus1Pipeline(x)
        return self.solved[x]


# Newton polish of the pole condition: residual tolerance and iteration cap
POLE_TOL = 1e-9
POLE_MAX_ITER = 18


def _newton_pole(cache, x0, k, sign, J):
    """Polish x0 to a root of the reduced pole residual, or None.

    ``J`` is the starting 2x2 Jacobian of (Re r, Im r) in (Re x, Im x);
    Broyden updates refine it from step to step.
    """
    x = complex(x0)
    r = cache.get(x).pole_residual(k, sign)
    for _ in range(POLE_MAX_ITER):
        if abs(r) < POLE_TOL:
            return x
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
        x, r = x_new, r_new
    return None


# node spacing of the pole grid, and how far outside its window a
# predicted pole is still kept
POLE_GRID = 0.3
POLE_MARGIN = 0.25


def pole_grid(window):
    """The nodes of predict_poles: spacing at most POLE_GRID over the window +- POLE_MARGIN.

    A 2-D array, one row per Im x.
    """
    re0, re1, im0, im1 = window
    re, im = (np.linspace(lo - POLE_MARGIN, hi + POLE_MARGIN,
                          int(np.ceil((hi - lo + 2.0 * POLE_MARGIN) / POLE_GRID)) + 1)
              for lo, hi in ((re0, re1), (im0, im1)))
    return re[None, :] + 1j * im[:, None]


def _triangles(shape):
    """Corner index triples of the two triangles of every grid cell."""
    for i in range(shape[0] - 1):
        for j in range(shape[1] - 1):
            yield (i, j), (i, j + 1), (i + 1, j + 1)
            yield (i, j), (i + 1, j + 1), (i + 1, j)


def _cell_seeds(xs, cs):
    """Preimages of the integer points of grid triangles' c-images.

    ``xs`` are the corner x of n triangles, (n, 3), and ``cs`` their
    corner lattice coordinates, (n, 3, 2).  Gives each triangle's seeds
    and dc/dx of the affine map through its corners; a triangle whose
    map is singular gets no seeds and None.  The triangles share each
    LAPACK and BLAS call, one per shape of the integer box and per seed
    count, so that every triangle gets the bits of its own calls.
    """
    xs = np.asarray(xs, dtype=complex).reshape(-1, 3)
    cs = np.asarray(cs, dtype=float).reshape(-1, 3, 2)
    d = xs[:, 1:] - xs[:, :1]
    dx = np.stack([d.real, d.imag], axis=1)
    dc = (cs[:, 1:] - cs[:, :1]).transpose(0, 2, 1)
    regular = np.abs(np.linalg.det(dc)) > 1e-12 * np.abs(dc).max(axis=(1, 2)) ** 2
    seeds, dcdx = [[] for _ in xs], [None] * len(xs)
    rows = np.flatnonzero(regular)
    for i, jac in zip(rows, dc[rows] @ np.linalg.inv(dx[rows])):
        dcdx[i] = jac
    lo = np.floor(cs.min(axis=1))
    box = np.ceil(cs.max(axis=1)) - lo + 1.0
    for nx, ny in {tuple(b) for b in box[regular]}:
        rows = np.flatnonzero(regular & (box == (nx, ny)).all(axis=1))
        ints = lo[rows, None, :] + np.stack(np.meshgrid(np.arange(nx), np.arange(ny)),
                                             axis=-1).reshape(-1, 2)
        lam = np.linalg.solve(dc[rows], (ints - cs[rows, :1]).transpose(0, 2, 1))
        inside = ((lam[:, 0] >= -1e-9) & (lam[:, 1] >= -1e-9)
                  & (lam[:, 0] + lam[:, 1] <= 1.0 + 1e-9))
        counts = inside.sum(axis=1)
        for q in set(counts[counts > 0].tolist()):
            sel = np.flatnonzero(counts == q)
            lam_in = lam.transpose(0, 2, 1)[sel][inside[sel]].reshape(len(sel), q, 2)
            pre = dx[rows[sel]] @ np.ascontiguousarray(lam_in.transpose(0, 2, 1))
            for i, p in zip(rows[sel], pre):
                seeds[i] = [xs[i, 0] + complex(a, b) for a, b in p.T]
    return seeds, dcdx


def _in_margin(z, window):
    re0, re1, im0, im1 = window
    return (re0 - POLE_MARGIN <= z.real <= re1 + POLE_MARGIN
            and im0 - POLE_MARGIN <= z.imag <= im1 + POLE_MARGIN)


def fold(window):
    """The window folded onto Im x <= 0: its lower part and the mirror of its upper part."""
    re0, re1, im0, im1 = window
    return (re0, re1, min(im0, -im1), min(-im0, im1, 0.0))


def predict_poles(window, k, cache=None):
    """Predicted pole locations of the asymptotic formula in a window.

    ``window`` is (re_min, re_max, im_min, im_max).  The poles are
    predicted over its ``fold`` and mirrored above the axis.  The
    unreduced pole residual is r = L(c0 + k c1), with L the lattice basis
    and (c0, c1) from ``Genus1Pipeline.lattice_coords``, so a pole is an
    x where the lattice coordinates c(x) = c0 + k c1 are integers.  c is
    computed at the pole-region nodes of ``pole_grid``; in each grid
    triangle the affine map through the corner values of c gives one
    seed per integer point of the triangle's image, which
    ``_newton_pole`` polishes from the Jacobian L dc/dx of that map.  A
    corner whose c0 differs from the first corner's by an integer vector
    (the Abel map took another representative of A(Q) or A(inf)) is
    unwrapped first.  Only a triangle whose three corners have a
    pole-region pipeline that agrees on the b-cycle orientation has such
    a map and gives seeds.  Roots outside the window +- POLE_MARGIN and
    pole-free roots are dropped, and roots within 1e-4 of each other are
    one pole.
    """
    folded = fold(window)
    cache = cache or _PipelineCache()
    nodes, labels = cache.classified_grid(folded)
    pipes = {}
    for idx, label in np.ndenumerate(labels):
        if not label.pole_free:
            try:
                pipes[idx] = cache.get(nodes[idx])
            except HmcleodError:
                pass

    roots = []

    def polish(x0, sign, dcdx):
        try:
            pipe = cache.get(x0)
            J = _lattice_basis(pipe.periods.B_period) @ dcdx
            root = _newton_pole(cache, x0, k, sign, J)
        except HmcleodError:
            return
        if root is not None and _in_margin(root, folded):
            roots.append(root)

    for sign in (+1, -1):
        coords = {idx: pipe.lattice_coords(sign) for idx, pipe in pipes.items()}
        xs, cs = [], []
        for tri in _triangles(nodes.shape):
            if (any(idx not in pipes for idx in tri)
                    or len({pipes[idx].periods.b_sign for idx in tri}) > 1):
                continue
            c0 = np.array([coords[idx][0] for idx in tri])
            c0[1:] -= np.round(c0[1:] - c0[0])
            xs.append([nodes[idx] for idx in tri])
            cs.append(c0 + k * np.array([coords[idx][1] for idx in tri]))
        for seeds, dcdx in zip(*_cell_seeds(xs, cs)):
            for x0 in seeds:
                polish(x0, sign, dcdx)

    poles = []
    for root, label in zip(roots, genus0.classify_region(roots)):
        if not label.pole_free and all(abs(root - q) > 1e-4 for q in poles):
            poles.append(root)
    poles += [z.conjugate() for z in poles if z.imag < 0]
    return sorted((z for z in poles if _in_margin(z, window)), key=lambda z: (z.real, z.imag))
