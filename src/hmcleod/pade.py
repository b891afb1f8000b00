"""Taylor-to-Pade pole-vaulting continuation for u'' = 2u^3 + yu - alpha.

An initial-value jet at y0 is built from the ODE recursion

    (k+2)(k+1) c_{k+2} = 2 (c^3)_k + y0 c_k + c_{k-1} - alpha delta_{k0},

then converted to a diagonal rational approximant of type (n/2, n/2).
Rational approximants stay usable across nearby poles, so the solution
can be continued through pole fields: paths step from center to center
(length h, five candidate directions, smallest |u| wins), recording one
approximant per step, until a coarse node grid over the target window
is covered.  Evaluation picks the nearest center.

A vault is last-bit sensitive: one changed bit in a value can send a
path down another chain of centers.  The per-center arithmetic (the jet
recursion and the Horner evaluation of P, Q, P' and Q') runs on Python
``complex`` scalars, with every operand a complex, as numpy promotes a
real one: they round exactly as numpy's complex scalars do, without
numpy's cost per call.  Two numpy roundings must be kept.  numpy's
complex division multiplies by the reciprocal of the divisor where
Python's divides, so the jet writes numpy's division out and each
quotient is a numpy division.  numpy's complex array loops fuse products
into FMAs (44 % of products differed in the last bit), so this
arithmetic uses no array loop.  The Pade fit and the candidate
directions keep the numpy calls they always made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property

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
    """Jet of the solution with data (u, u') at y0; n must be even.

    The division by (k+2)(k+1) is written as numpy's complex division by
    a real d does it, a product with 1/d.  numpy first adds the other
    part times zero to each part, which changes only a part that is -0
    or beside a non-finite one; no part of rhs is -0, since 2 (c^3)_k is
    a sum from +0.
    """
    if n % 2 != 0:
        raise ValueError("jet order must be even")
    y0 = complex(y0)
    c = [complex(u0), complex(u0prime)]
    for k, cube_k in enumerate(_cube_coeffs(c, n - 1)):
        prev = c[k - 1] if k >= 1 else 0j
        rhs = (2.0 + 0j) * cube_k + y0 * c[k] + prev - (complex(alpha) if k == 0 else 0j)
        s = 1.0 / ((k + 2) * (k + 1))
        ck = complex(rhs.real * s, rhs.imag * s)
        if abs(ck) > OVERFLOW_LIMIT:
            raise Overflow(f"jet diverges at order {k + 2} near y0={y0}")
        c.append(ck)
    return TaylorJet(center=y0, coefficients=np.array(c), alpha=float(alpha))


def _cube_coeffs(c, count):
    """Coefficients of h^0..h^(count-1) in (sum c_j h^j)^3, one per draw.

    Draw k reads c_0..c_k only, so a caller may append c_(k+2) between
    draws.  The square series sq_m = sum_j c_j c_(m-j) is kept as it
    grows, and (c^3)_k = sum_i c_i sq_(k-i): O(k) work per coefficient.
    ``c`` holds Python complex numbers.
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
    c = jet.coefficients.tolist()
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


def _horner(r, h):
    """``np.polynomial.polynomial.polyval(h, c)`` with ``r = c[::-1]`` a list, in its order."""
    v = r[0] + h * 0j
    for a in r[1:]:
        v = a + v * h
    return v


def _polyder(c):
    """``np.polynomial.polynomial.polyder(c)`` of a list, in its arithmetic.

    polyder scales the coefficients by 1 before it differentiates, which
    can change the sign of a zero part; a constant's derivative is c_0 * 0.
    """
    if len(c) == 1:
        return [c[0] * 0j]
    return [complex(j) * (c[j] * (1.0 + 0j)) for j in range(1, len(c))]


@dataclass(frozen=True)
class PadeApprox:
    """P/Q about ``center``; the offset h of every evaluation is a scalar."""

    center: complex
    num: np.ndarray   # a_0..a_nu
    den: np.ndarray   # 1, b_1..b_nu

    @cached_property
    def _reversed_coeffs(self):
        """P, Q, P' and Q' as lists of Python complex, highest degree first."""
        num, den = self.num.tolist(), self.den.tolist()
        return [a[::-1] for a in (num, den, _polyder(num), _polyder(den))]

    def __call__(self, h):
        rnum, rden = self._reversed_coeffs[:2]
        h = complex(h)
        return np.complex128(_horner(rnum, h)) / _horner(rden, h)

    def eval_checked(self, h, den_tol=1e-12):
        rnum, rden = self._reversed_coeffs[:2]
        den = np.complex128(_horner(rden, complex(h)))
        if abs(den) < den_tol:
            roots = self.denominator_roots()
            pole = (complex(roots[np.argmin(np.abs(roots - (self.center + h)))])
                    if len(roots) else None)
            raise PoleProximity(
                f"Pade denominator ~{abs(den):.1e} at offset {h}", pole_estimate=pole)
        return np.complex128(_horner(rnum, complex(h))) / den

    def derivative(self, h):
        rnum, rden, rdnum, rdden = self._reversed_coeffs
        h = complex(h)
        P, Q = _horner(rnum, h), _horner(rden, h)
        Pp, Qp = _horner(rdnum, h), _horner(rdden, h)
        # Q * Q is numpy's Q ** 2 for every Q but zero, where only the
        # division's sign of zero would differ, and numpy drops that sign
        return np.complex128(Pp * Q - P * Qp) / (Q * Q)

    def denominator_roots(self):
        return self.center + np.roots(self.den[::-1])


@cache
def _toeplitz_index(nu):
    """Index of the Pade system matrix: T[i, j] = c[nu + i - j], each index at least 1."""
    return nu + np.arange(nu)[:, None] - np.arange(nu)


def pade_from_taylor(jet):
    """Diagonal (nu, nu) approximant matching the jet through h^(2 nu), nu = order // 2.

    The denominator comes from the Toeplitz system expressing vanishing
    of the coefficients h^(nu+1)..h^n; a rank-deficient table retries
    with nu reduced, up to 3 times.
    """
    c = jet.coefficients
    last = None
    for drop in range(4):
        nu = jet.order // 2 - drop
        if nu < 1:
            break
        try:
            b = np.linalg.solve(c[_toeplitz_index(nu)], -c[nu + 1: 2 * nu + 1])
        except np.linalg.LinAlgError as exc:
            last = exc
            continue
        if not np.isfinite(b).all():
            last = SingularSystem("non-finite denominator coefficients")
            continue
        den = np.empty(nu + 1, dtype=complex)
        den[0] = 1.0
        den[1:] = b
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

    def __post_init__(self):
        # the centres of the entries, in a buffer that doubles when full
        self._centers = np.array([e.approx.center for e in self.entries], dtype=complex)

    def add(self, entry):
        """Append an entry; entries are added only here, which keeps ``centers`` in step."""
        n = len(self.entries)
        if n == len(self._centers):
            self._centers = np.concatenate([self._centers, np.empty(max(n, 16), complex)])
        self._centers[n] = entry.approx.center
        self.entries.append(entry)

    @property
    def centers(self):
        return self._centers[:len(self.entries)]

    def nearest_entry(self, y):
        """The entry whose center is nearest y, and that distance.

        np.abs over the centers may differ from a scalar abs in the last
        bit; it only chooses the center, and has always done so.
        """
        c = self.centers
        i = int(np.argmin(np.abs(c - y)))
        return self.entries[i], abs(c[i] - y)

    def coverage_ok(self):
        c, nodes = self.centers, np.array(self.removed_nodes, dtype=complex)
        return all((np.abs(c - nodes[i:i + 256, None]).min(axis=1) <= self.config.h + 1e-12).all()
                   for i in range(0, len(nodes), 256))

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
                    "a": e.approx.num.view(float).reshape(-1, 2).tolist(),
                    "b": e.approx.den[1:].view(float).reshape(-1, 2).tolist(),
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
            atlas.add(AtlasEntry(approx=approx, u=complex(*entry["u"]),
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
    nodes = np.array(nodes)
    nodes_re = nodes.real.copy()
    alive = np.ones(len(nodes), dtype=bool)

    y0, u0, u0p = anchor
    atlas = VaultAtlas(alpha=float(alpha), config=cfg)
    _record(atlas, y0, u0, u0p, cfg)
    _remove_near(atlas, nodes, nodes_re, alive, atlas.entries[-1].approx.center, cfg.h)

    stall = 0
    while alive.any():
        # the i-th alive node in sorted order, as a list of the alive
        # nodes would draw it
        i_target = np.flatnonzero(alive)[int(rng.integers(np.count_nonzero(alive)))]
        target = complex(nodes[i_target])
        entry, _ = atlas.nearest_entry(target)
        steps_budget = int(abs(target - entry.approx.center) / cfg.h * 10) + 100
        progressed = False
        for _ in range(steps_budget):
            if not alive[i_target]:
                break
            current = entry.approx.center
            aim = np.angle(target - current)
            cands = (current + cfg.h * np.exp(1j * (aim + _CANDIDATE_OFFSETS))).tolist()
            # one scalar evaluation per candidate: an array evaluation may
            # round differently in the last bit, and the path with it
            us = [entry.approx(cand - current) for cand in cands]
            order = sorted(range(5), key=lambda i: (abs(us[i]), abs(_CANDIDATE_OFFSETS[i])))
            placed = False
            for i in order:
                cand, u_c = cands[i], us[i]
                up_c = entry.approx.derivative(cand - current)
                try:
                    new_entry = _record(atlas, cand, u_c, up_c, cfg)
                except (Overflow, SingularSystem):
                    continue
                entry = new_entry
                progressed = (_remove_near(atlas, nodes, nodes_re, alive, cand, cfg.h)
                              or progressed)
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
    atlas.add(entry)
    return entry


def _remove_near(atlas, nodes, nodes_re, alive, center, h):
    """Retire the alive nodes within h of center; True when there were any.

    ``nodes`` is sorted by real part, ``nodes_re``; only the nodes whose
    real part lies within 2h of the center's are tested (h is a margin
    for rounding).  The distance is np.hypot of the parts, which rounds
    like Python's abs of a complex (np.abs of a complex array does not,
    in the last bit), so ties at distance exactly h fall as they always
    did.
    """
    lo, hi = np.searchsorted(nodes_re, (center.real - 2.0 * h, center.real + 2.0 * h))
    d = nodes[lo:hi] - center
    near = alive[lo:hi] & (np.hypot(d.real, d.imag) <= h)
    if not near.any():
        return False
    atlas.removed_nodes.extend(nodes[lo:hi][near].tolist())
    alive[lo:hi] &= ~near
    return True


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
