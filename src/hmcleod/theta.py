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
the excised domain keeps a distance delta/k^(2/3) away from it.  Since
Theta vanishes exactly on K + lattice, x is a pole of the family s = +-1
where

    r(x) = A(inf) + s (A(Q) + K) + k F1 U + B/2 - K = 2 pi i m + B n

for integers m, n.  The lattice coordinates (m, n) of r are
c(x) = c0(x; s) + k c1(x), with c1 those of F1 U, so the poles are the
preimages of the integer points under a smooth map of the x-plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import endpoints as ep
from . import genus0
from . import quadrature as quad
from .errors import (AssumptionViolated, HmcleodError,
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

class AbelMap:
    """Normalized incomplete integral of dw/R from the base endpoint A.

    Its 1/w series of 1/R carries the integrals from its far point to infinity.
    """

    def __init__(self, e, nu):
        self.e = e
        self.nu = nu
        self.router = ep.ChainRouter(e)
        self.z_far = ep.far_point(e)
        self.inv_r_series = ep.inv_r_series(e, 16)
        seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
        u1 = (e.B - e.A) / abs(e.B - e.A)
        self.stage = e.A - 0.4 * seg * u1
        self._inv_r = lambda w: 1.0 / ep.R_eval(w, e, guard=False)

    def integrals(self, f, zs):
        """int_A^z f dw at each z, for f with at most a square-root singularity at A.

        Each path is the leg from A to the stage point, with the square-root
        start, and then the router's cut-avoiding path to z.  The stage leg
        is integrated once and the router paths together.
        """
        at_a = [abs(complex(z) - self.e.A) < 1e-13 for z in zs]
        if all(at_a):
            return [0.0 + 0.0j for _ in zs]
        stage = ep.integrate_leg(f, quad.Path((self.e.A, self.stage)), ep.LEG_RULE,
                                 sqrt_start=True)
        legs = iter(self.router.integrals(f, self.stage,
                                          [z for z, a in zip(zs, at_a) if not a]))
        return [0.0 + 0.0j if a else stage + next(legs) for a in at_a]

    def integral(self, f, z):
        """int_A^z f dw (see ``integrals``)."""
        return self.integrals(f, [z])[0]

    def raw_integral(self, zs):
        """int_A^z dw/R at each z of zs."""
        return self.integrals(self._inv_r, zs)

    def value(self, z):
        return self.nu * self.raw_integral([z])[0]


def compute_periods(e, constants, m):
    """Period data needed by the two-band asymptotic value at one x.

    Returns the period data, the Abel map normalized by them and its
    value A(Q), from one pass over the Abel paths to z_far and Q.  The
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

    abel = AbelMap(e, nu)
    base, raw_q = abel.raw_integral((abel.z_far, Q))
    A_inf = nu * (base + ep.series_tail(abel.inv_r_series, abel.z_far))

    pd = PeriodData(A_minus1=complex(A_minus1), A_inf=complex(A_inf),
                    B_period=complex(B_period), K=complex(K), U=complex(U),
                    F1=complex(F1), Q=complex(Q),
                    nu=complex(nu), b_sign=b_sign, c_upsilon=complex(c_upsilon))
    _check_offdiagonal_zero(e, pd)
    return pd, abel, nu * raw_q


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
        self.periods, self.abel, self.A_Q = compute_periods(self.e, self.constants, m=m)

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
        e, pd = self.e, self.periods

        def upsilon_minus_one(w):
            return (w ** 2 - pd.c_upsilon * pd.nu) / ep.R_eval(w, e, guard=False) - 1.0

        z_far, t = self.abel.z_far, self.abel.inv_r_series
        # series tail: (w^2 - cU*nu)/R - 1 = sum_{m>=2} (t_m - cU*nu*t_{m-2}) w^-m
        tail = ep.series_tail([t[m] - pd.c_upsilon * pd.nu * t[m - 2]
                               for m in range(2, len(t))], z_far)
        return (complex(e.A - (self.abel.integral(upsilon_minus_one, z_far) + tail)),
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

def _cache_key(x):
    """Key of x in ``_PipelineCache.solved``."""
    return (round(x.real, 12), round(x.imag, 12))


class _PipelineCache:
    """Continuation-aware cache of pipelines over an x-window.

    A new pipeline's endpoint Newton starts from the endpoints of the
    nearest solved pipeline within 1.5 in the same half-plane (else it
    is a cold solve); that seed is all it takes from its neighbour.  The
    two halves of the pole region meet the real axis only at the
    boundary point x0, so a seed from across the axis starts a chain of
    seeded solves through the pole-free region, which can end on
    another solution of the endpoint system.  The cache also keeps each
    window's classified pole grid, which every k shares.
    """

    def __init__(self):
        self.solved = {}
        # per half-plane (Im x > 0): the solved x in insertion order, with
        # spare room at the end, their pipelines, and each key's slot
        self._x = {True: np.empty(64, dtype=complex), False: np.empty(64, dtype=complex)}
        self._pipes = {True: [], False: []}
        self._slot = {}
        self._grids = {}

    def classified_grid(self, window):
        """``pole_grid(window)`` and its region labels, classified once per window."""
        if window not in self._grids:
            nodes = pole_grid(window)
            labels = genus0.classify_region(nodes.ravel()).reshape(nodes.shape)
            self._grids[window] = nodes, labels
        return self._grids[window]

    def add(self, pipe):
        """Register a solved pipeline, in the place of one with the same key."""
        key = _cache_key(pipe.x)
        if key not in self._slot:
            upper = pipe.x.imag > 0
            self._slot[key] = (upper, len(self._pipes[upper]))
            self._pipes[upper].append(None)
            if len(self._pipes[upper]) > len(self._x[upper]):
                self._x[upper] = np.concatenate([self._x[upper], np.empty_like(self._x[upper])])
        upper, i = self._slot[key]
        self._pipes[upper][i] = pipe
        self._x[upper][i] = pipe.x
        self.solved[key] = pipe

    def get(self, x):
        x = complex(x)
        key = _cache_key(x)
        if key in self.solved:
            return self.solved[key]
        seed = None
        upper = x.imag > 0
        pipes = self._pipes[upper]
        if pipes:
            d = self._x[upper][:len(pipes)] - x
            dist = np.hypot(d.real, d.imag)
            i = int(np.argmin(dist))
            if dist[i] < 1.5:
                seed = pipes[i].e
        pipe = Genus1Pipeline(x, seed=seed)
        self.add(pipe)
        return pipe


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


def predict_poles(window, k, cache=None):
    """Predicted pole locations of the asymptotic formula in a window.

    ``window`` is (re_min, re_max, im_min, im_max).  The unreduced pole
    residual is r = L(c0 + k c1), with L the lattice basis and (c0, c1)
    from ``Genus1Pipeline.lattice_coords``, so a pole is an x where the
    lattice coordinates c(x) = c0 + k c1 are integers.  c is computed at
    the pole-region nodes of ``pole_grid``; in each grid triangle the
    affine map through the corner values of c gives one seed per
    integer point of the triangle's image, which ``_newton_pole``
    polishes from the Jacobian L dc/dx of that map.  A corner whose c0
    differs from the first corner's by an integer vector (the Abel map
    took another representative of A(Q) or A(inf)) is unwrapped first.
    A triangle with a corner outside the pole region or without a
    pipeline, or whose corners disagree on the b-cycle orientation, takes
    its corner values of c from the affine map of the nearest regular
    triangle.  Roots outside the window +- POLE_MARGIN and pole-free
    roots are dropped, and roots within 1e-4 of each other are one pole.
    """
    re0, re1, im0, im1 = window
    cache = cache or _PipelineCache()
    nodes, labels = cache.classified_grid(tuple(window))
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
        if root is not None and (re0 - POLE_MARGIN <= root.real <= re1 + POLE_MARGIN
                                 and im0 - POLE_MARGIN <= root.imag <= im1 + POLE_MARGIN):
            roots.append(root)

    for sign in (+1, -1):
        coords = {idx: pipe.lattice_coords(sign) for idx, pipe in pipes.items()}
        cells = []
        for tri in _triangles(nodes.shape):
            xs = [nodes[idx] for idx in tri]
            if (any(idx not in pipes for idx in tri)
                    or len({pipes[idx].periods.b_sign for idx in tri}) > 1):
                cells.append((xs, None))
                continue
            c0 = np.array([coords[idx][0] for idx in tri])
            c0[1:] -= np.round(c0[1:] - c0[0])
            cells.append((xs, c0 + k * np.array([coords[idx][1] for idx in tri])))
        own = [cell for cell in cells if cell[1] is not None]
        maps = zip(*_cell_seeds([xs for xs, _ in own], [cs for _, cs in own]))
        regular, irregular = [], []
        for xs, cs in cells:
            seeds, dcdx = next(maps) if cs is not None else ([], None)
            if dcdx is None:
                irregular.append(xs)
                continue
            regular.append((np.mean(xs), np.mean(cs, axis=0), dcdx))
            for x0 in seeds:
                polish(x0, sign, dcdx)
        if not regular:
            continue
        centres = np.array([x for x, _, _ in regular])
        borrowed = [regular[int(np.argmin(np.abs(centres - np.mean(xs))))] for xs in irregular]
        borrowed_cs = [c_mid + (dcdx @ _real2(np.array(xs) - x_mid)).T
                       for xs, (x_mid, c_mid, dcdx) in zip(irregular, borrowed)]
        for seeds, (_, _, dcdx) in zip(_cell_seeds(irregular, borrowed_cs)[0], borrowed):
            for x0 in seeds:
                polish(x0, sign, dcdx)

    poles = []
    for root, label in zip(roots, genus0.classify_region(roots)):
        if not label.pole_free and all(abs(root - q) > 1e-4 for q in poles):
            poles.append(root)
    return sorted(poles, key=lambda z: (z.real, z.imag))
