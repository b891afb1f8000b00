"""Taylor-to-Pade pole-vaulting continuation for u'' = 2u^3 + yu - alpha.

An initial-value jet at y0 is built from the ODE recursion

    (k+2)(k+1) c_{k+2} = 2 (c^3)_k + y0 c_k + c_{k-1} - alpha delta_{k0},

then converted to a diagonal rational approximant of type (n/2, n/2).
Rational approximants stay usable across nearby poles, so the solution
can be continued through pole fields: paths step from center to center
(length h, five candidate directions, smallest |u| wins), recording one
approximant per step, until a coarse node grid over the target window
is covered.  Evaluation picks the nearest center.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (Overflow, PathStall, PoleProximity, SingularSystem,
                     Uncovered)

OVERFLOW_LIMIT = 1e100


@dataclass(frozen=True)
class TaylorJet:
    center: complex
    coefficients: np.ndarray
    alpha: float

    @property
    def order(self):
        return len(self.coefficients) - 1


def taylor_from_ivp(y0, u0, u0prime, alpha, n=24):
    """Jet of the solution with data (u, u') at y0; n must be even."""
    if n % 2 != 0:
        raise ValueError("jet order must be even")
    c = np.zeros(n + 1, dtype=complex)
    c[0] = u0
    c[1] = u0prime
    for k, cube_k in enumerate(_cube_coeffs(c, n - 1)):
        prev = c[k - 1] if k >= 1 else 0.0
        rhs = 2.0 * cube_k + y0 * c[k] + prev - (alpha if k == 0 else 0.0)
        c[k + 2] = rhs / ((k + 2) * (k + 1))
        if abs(c[k + 2]) > OVERFLOW_LIMIT:
            raise Overflow(f"jet diverges at order {k + 2} near y0={y0}")
    return TaylorJet(center=complex(y0), coefficients=c, alpha=float(alpha))


def _cube_coeffs(c, count):
    """Coefficients of h^0..h^(count-1) in (sum c_j h^j)^3, one per draw.

    Draw k reads c_0..c_k only, so a caller may fill c_(k+2) between
    draws.  The square series sq_m = sum_j c_j c_(m-j) is kept as it
    grows, and (c^3)_k = sum_i c_i sq_(k-i): O(k) work per coefficient.
    """
    cs = []
    sq = []
    for k in range(count):
        cs.append(c[k])
        inner = 0.0 + 0.0j
        for j in range(k + 1):
            inner += cs[j] * cs[k - j]
        sq.append(inner)
        acc = 0.0 + 0.0j
        for i in range(k + 1):
            acc += cs[i] * sq[k - i]
        yield acc


def jet_residual(jet):
    """Max relative defect of the recursion over orders 0..n-2."""
    c = jet.coefficients
    n = jet.order
    y0 = jet.center
    worst = 0.0
    for k, cube_k in enumerate(_cube_coeffs(c, n - 1)):
        lhs = (k + 2) * (k + 1) * c[k + 2]
        rhs = 2.0 * cube_k + y0 * c[k] + (c[k - 1] if k >= 1 else 0.0) \
            - (jet.alpha if k == 0 else 0.0)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass(frozen=True)
class PadeApprox:
    center: complex
    num: np.ndarray   # a_0..a_nu
    den: np.ndarray   # 1, b_1..b_nu

    def __call__(self, h):
        return (np.polynomial.polynomial.polyval(h, self.num)
                / np.polynomial.polynomial.polyval(h, self.den))

    def eval_checked(self, h, den_tol=1e-12):
        den = np.polynomial.polynomial.polyval(h, self.den)
        if abs(den) < den_tol:
            roots = self.denominator_roots()
            pole = (complex(roots[np.argmin(np.abs(roots - (self.center + h)))])
                    if len(roots) else None)
            raise PoleProximity(
                f"Pade denominator ~{abs(den):.1e} at offset {h}", pole_estimate=pole)
        return np.polynomial.polynomial.polyval(h, self.num) / den

    def derivative(self, h):
        cnum = np.polynomial.polynomial.polyder(self.num)
        cden = np.polynomial.polynomial.polyder(self.den)
        P = np.polynomial.polynomial.polyval(h, self.num)
        Q = np.polynomial.polynomial.polyval(h, self.den)
        Pp = np.polynomial.polynomial.polyval(h, cnum)
        Qp = np.polynomial.polynomial.polyval(h, cden)
        return (Pp * Q - P * Qp) / Q ** 2

    def denominator_roots(self):
        return self.center + np.roots(self.den[::-1])


def pade_from_taylor(jet, nu=None):
    """Diagonal (nu, nu) approximant matching the jet through h^(2 nu).

    The denominator comes from the Toeplitz system expressing vanishing
    of the coefficients h^(nu+1)..h^n; a rank-deficient table retries
    with nu reduced, up to 3 times.
    """
    c = jet.coefficients
    n = jet.order
    nu0 = n // 2 if nu is None else nu
    last = None
    for drop in range(4):
        nu = nu0 - drop
        if nu < 1:
            break
        T = np.empty((nu, nu), dtype=complex)
        for i in range(nu):
            for j in range(nu):
                idx = nu + 1 + i - 1 - j
                T[i, j] = c[idx] if idx >= 0 else 0.0
        rhs = -c[nu + 1: 2 * nu + 1]
        try:
            b = np.linalg.solve(T, rhs)
        except np.linalg.LinAlgError as exc:
            last = exc
            continue
        if not np.all(np.isfinite(b)):
            last = SingularSystem("non-finite denominator coefficients")
            continue
        den = np.concatenate(([1.0 + 0.0j], b))
        num = np.convolve(c, den)[: nu + 1]
        return PadeApprox(center=jet.center, num=num, den=den)
    raise SingularSystem(f"degenerate Pade table at y0={jet.center}: {last}")


def pade_match_residual(approx, jet):
    """Relative mismatch of the expanded rational against the jet."""
    n = jet.order
    c = jet.coefficients
    den_full = np.zeros(n + 1, dtype=complex)
    den_full[: len(approx.den)] = approx.den
    prod = np.convolve(c, den_full)[: n + 1]
    num_full = np.zeros(n + 1, dtype=complex)
    num_full[: len(approx.num)] = approx.num
    scale = max(1.0, float(np.max(np.abs(c))))
    return float(np.max(np.abs(prod - num_full))) / scale


@dataclass
class VaultConfig:
    h: float = 0.5
    n: int = 24
    seed: int = 0


@dataclass
class AtlasEntry:
    approx: PadeApprox
    u: complex
    uprime: complex


@dataclass
class VaultAtlas:
    alpha: float
    config: VaultConfig
    entries: list = field(default_factory=list)
    removed_nodes: list = field(default_factory=list)

    @property
    def centers(self):
        return np.array([e.approx.center for e in self.entries])

    def nearest_entry(self, y):
        c = self.centers
        i = int(np.argmin(np.abs(c - y)))
        return self.entries[i], abs(c[i] - y)

    def coverage_ok(self):
        c = self.centers
        return all(np.min(np.abs(c - node)) <= self.config.h + 1e-12
                   for node in self.removed_nodes)

    def to_json(self):
        return json.dumps({
            "version": 1,
            "alpha": self.alpha,
            "h": self.config.h,
            "n": self.config.n,
            "seed": self.config.seed,
            "centers": [
                {
                    "y": [e.approx.center.real, e.approx.center.imag],
                    "u": [e.u.real, e.u.imag],
                    "uprime": [e.uprime.real, e.uprime.imag],
                    "a": [[z.real, z.imag] for z in e.approx.num],
                    "b": [[z.real, z.imag] for z in e.approx.den[1:]],
                }
                for e in self.entries
            ],
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ValueError("unknown atlas document version")
        cfg = VaultConfig(h=doc["h"], n=doc["n"], seed=doc["seed"])
        atlas = cls(alpha=doc["alpha"], config=cfg)
        for entry in doc["centers"]:
            num = np.array([complex(re, im) for re, im in entry["a"]])
            den = np.concatenate(([1.0 + 0.0j],
                                  [complex(re, im) for re, im in entry["b"]]))
            approx = PadeApprox(center=complex(*entry["y"]), num=num, den=den)
            atlas.entries.append(AtlasEntry(approx=approx,
                                            u=complex(*entry["u"]),
                                            uprime=complex(*entry["uprime"])))
        return atlas


_CANDIDATE_OFFSETS = np.radians([0.0, 22.5, -22.5, 45.0, -45.0])
# targets drawn in a row without removing a node before the vault gives up
_MAX_STALL = 1000


def run_vault(window, anchor, alpha, config=None):
    """Build a Pade atlas covering the window from one anchored jet.

    ``window`` is (re_min, re_max, im_min, im_max) in the y-plane;
    ``anchor`` is (y0, u0, u0prime) with values accurate at y0 (e.g.
    from a collocation run).  The target nodes are spaced h apart.
    Deterministic for a fixed seed.
    """
    cfg = config or VaultConfig()
    rng = np.random.default_rng(cfg.seed)
    re0, re1, im0, im1 = window
    nodes = [complex(xr, xi)
             for xr in np.arange(re0, re1 + 1e-9, cfg.h)
             for xi in np.arange(im0, im1 + 1e-9, cfg.h)]
    nodes.sort(key=lambda z: (z.real, z.imag))

    y0, u0, u0p = anchor
    atlas = VaultAtlas(alpha=float(alpha), config=cfg)
    _record(atlas, y0, u0, u0p, cfg)
    nodes = _remove_near(atlas, nodes, atlas.entries[-1].approx.center, cfg.h)

    stall = 0
    while nodes:
        target = nodes[int(rng.integers(len(nodes)))]
        entry, _ = atlas.nearest_entry(target)
        steps_budget = int(abs(target - entry.approx.center) / cfg.h * 10) + 100
        progressed = False
        for _ in range(steps_budget):
            if target not in nodes:
                break
            current = entry.approx.center
            aim = np.angle(target - current)
            cands = current + cfg.h * np.exp(1j * (aim + _CANDIDATE_OFFSETS))
            order = sorted(
                range(5),
                key=lambda i: (abs(entry.approx(cands[i] - current)),
                               abs(_CANDIDATE_OFFSETS[i])))
            placed = False
            for i in order:
                cand = cands[i]
                u_c = entry.approx(cand - current)
                up_c = entry.approx.derivative(cand - current)
                try:
                    new_entry = _record(atlas, cand, u_c, up_c, cfg)
                except (Overflow, SingularSystem):
                    continue
                entry = new_entry
                before = len(nodes)
                nodes = _remove_near(atlas, nodes, cand, cfg.h)
                progressed = progressed or len(nodes) < before
                placed = True
                break
            if not placed:
                break
        stall = 0 if progressed else stall + 1
        if stall > _MAX_STALL:
            raise PathStall("vault stopped removing targets")
    if not atlas.coverage_ok():
        raise PathStall("atlas coverage check failed")
    return atlas


def _record(atlas, y, u, uprime, cfg):
    jet = taylor_from_ivp(y, u, uprime, atlas.alpha, n=cfg.n)
    approx = pade_from_taylor(jet)
    entry = AtlasEntry(approx=approx, u=complex(u), uprime=complex(uprime))
    atlas.entries.append(entry)
    return entry


def _remove_near(atlas, nodes, center, h):
    kept = [n for n in nodes if abs(n - center) > h]
    atlas.removed_nodes.extend(n for n in nodes if abs(n - center) <= h)
    return kept


def evaluate(atlas, y):
    """Value of the continued solution at y from the nearest center."""
    y = complex(y)
    entry, dist = atlas.nearest_entry(y)
    if dist > 2.0 * atlas.config.h:
        raise Uncovered(f"nearest Pade center is {dist:.2f} away from y={y}")
    h = y - entry.approx.center
    return entry.approx.eval_checked(h)


def nearby_pole_estimates(atlas, radius_factor=1.5):
    """Denominator roots within the convergence radius of each center."""
    out = []
    lim = radius_factor * atlas.config.h
    for e in atlas.entries:
        for root in e.approx.denominator_roots():
            if abs(root - e.approx.center) <= lim:
                out.append(complex(root))
    return out
