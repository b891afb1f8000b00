"""Correctness checks for the workload outputs, written apart from the program.

Every check comes from a property of the method or from an independent
computation (``scipy.integrate.solve_ivp`` on the Painleve-II equation,
``scipy.integrate.quad`` against a square root written here); none
compares against a stored copy of output, so they hold under any BLAS
thread count.  Each check function takes the directory of one round's
outputs and a ``numpy.random.Generator`` for sampling, and returns
``(failures, figures)``: a list of messages (empty when correct) and the
reference figures shown in the README.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


def scale(k):
    """ck with y = -ck x (the package's x <-> y scaling)."""
    return k ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cval(row, re, im):
    return complex(float(row[re]), float(row[im]))


def load_atlas(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    centres = np.array([complex(*c["y"]) for c in doc["centers"]])
    u = np.array([complex(*c["u"]) for c in doc["centers"]])
    up = np.array([complex(*c["uprime"]) for c in doc["centers"]])
    return doc, centres, u, up


# ---------------------------------------------------------------------------
# Painleve II integrated by scipy along straight segments and circles
# ---------------------------------------------------------------------------

def integrate_segment(alpha, y0, u0, up0, y1):
    """(u, u') at y1 from (u, u') at y0 along the straight segment."""
    d = complex(y1) - complex(y0)

    def rhs(s, v):
        y = y0 + s * d
        return [v[1] * d, (2.0 * v[0] ** 3 + y * v[0] - alpha) * d]

    sol = solve_ivp(rhs, (0.0, 1.0), [complex(u0), complex(up0)],
                    method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise ArithmeticError(sol.message)
    return sol.y[0, -1], sol.y[1, -1]


def integrate_line(alpha, y0, u0, up0, ys):
    """u and u' at the real points ys from data at real y0 (t_eval form)."""
    ys = np.asarray(ys, dtype=float)

    def rhs(y, v):
        return [v[1], 2.0 * v[0] ** 3 + y * v[0] - alpha]

    out = {}
    for side in (ys[ys > y0], ys[ys < y0]):
        if len(side) == 0:
            continue
        order = np.sort(side) if side[0] > y0 else np.sort(side)[::-1]
        sol = solve_ivp(rhs, (y0, order[-1]), [u0, up0], t_eval=order,
                        method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
        if not sol.success:
            raise ArithmeticError(sol.message)
        for y, u, up in zip(sol.t, sol.y[0], sol.y[1]):
            out[float(y)] = (u, up)
    return out


def contour_pole(alpha, centre, radius, y_start, u_start, up_start):
    """Residue and location of the poles of u inside a circle.

    Starting from data at ``y_start`` the equation is integrated along
    the straight segment to the circle and once around it, accumulating
    oint u dy and oint y u dy.  For the simple poles of Painleve II the
    first is 2 pi i times the sum of residues (+-1 each); their ratio is
    the pole location when there is exactly one.  Also returns the
    mismatch of u after the full turn, which is small when u is
    single-valued along the loop.
    """
    direction = (y_start - centre) / abs(y_start - centre)
    on_circle = centre + radius * direction
    u_c, up_c = integrate_segment(alpha, y_start, u_start, up_start, on_circle)
    phi0 = np.angle(direction)

    def rhs(t, v):
        y = centre + radius * np.exp(1j * (phi0 + t))
        dy = 1j * radius * np.exp(1j * (phi0 + t))
        u, up = v[0], v[1]
        return [up * dy, (2.0 * u ** 3 + y * u - alpha) * dy, u * dy, y * u * dy]

    sol = solve_ivp(rhs, (0.0, 2.0 * np.pi), [u_c, up_c, 0j, 0j],
                    method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise ArithmeticError(sol.message)
    m0, m1 = sol.y[2, -1], sol.y[3, -1]
    residue = m0 / (2j * np.pi)
    location = m1 / m0 if abs(m0) > 1e-12 else None
    return residue, location, abs(sol.y[0, -1] - u_c)


def step_sources(centres, i, h):
    """Earlier centres exactly one vault step (h) from centre i."""
    d = np.abs(centres[:i] - centres[i])
    return np.flatnonzero(np.abs(d - h) <= 1e-9 * h)


def centre_errors(doc, centres, u, up, indices):
    """Worst relative (u, u') error of recorded centres against scipy.

    Each centre is re-derived by integrating from the earlier centre the
    vault stepped from (one at distance exactly h; the best of them when
    several are).  Also returns the centres with no such source, and the
    worst disagreement with any earlier centre within h, which measures
    how far separate chains of steps have drifted apart.
    """
    alpha, h = doc["alpha"], doc["h"]
    worst, drift = 0.0, 0.0
    missing = []

    def err(j, i):
        ui, upi = integrate_segment(alpha, centres[j], u[j], up[j], centres[i])
        return max(abs(ui - u[i]) / max(1.0, abs(u[i])),
                   abs(upi - up[i]) / max(1.0, abs(up[i])))

    for i in indices:
        sources = step_sources(centres, i, h)
        if len(sources) == 0:
            missing.append(i)
            continue
        worst = max(worst, min(err(j, i) for j in sources))
        near = np.flatnonzero(np.abs(centres[:i] - centres[i]) <= h * (1.0 + 1e-9))
        drift = max([drift] + [err(j, i) for j in near if j not in sources])
    return worst, missing, drift


# ---------------------------------------------------------------------------
# pole_free: genus-0 asymptotics, collocation, symmetry, O(1/k)
# ---------------------------------------------------------------------------

def cubic_residual(x, value):
    """|S^3 + xS - 2i| for S = 2i * value (value = -iS/2 is the genus-0 value)."""
    S = 2j * value
    return abs(S ** 3 + x * S - 2j)


def bvp_errors(path, alpha, rng, window):
    """Worst node-to-node and whole-trajectory disagreement of a bvp dump with solve_ivp.

    Node to node, each node continues its neighbour's data.  One
    trajectory runs from a node near y = 0 across |y| <= window, where the
    initial-value problem is well conditioned (errors grow like Airy
    functions toward both ends).
    """
    rows = read_rows(path)
    ys = np.array([float(r["y_re"]) for r in rows])
    us = np.array([float(r["u_re"]) for r in rows])
    ups = np.array([float(r["uprime_re"]) for r in rows])
    hop = 0.0
    for i in range(len(ys) - 1):
        ui, upi = integrate_segment(alpha, ys[i], us[i], ups[i], ys[i + 1])
        hop = max(hop, abs(ui - us[i + 1]) / max(1.0, abs(us[i + 1])),
                  abs(upi - ups[i + 1]) / max(1.0, abs(ups[i + 1])))
    i0 = int(rng.choice(np.flatnonzero(np.abs(ys) <= 0.25)))
    inside = np.abs(ys) <= window
    ivp = integrate_line(alpha, ys[i0], us[i0], ups[i0], ys[inside])
    traj = 0.0
    for y, u, up in zip(ys[inside], us[inside], ups[inside]):
        if float(y) in ivp:
            ui, upi = ivp[float(y)]
            traj = max(traj, abs(ui - u), abs(upi - up))
    return hop, traj


def check_pole_free(out, rng, ks=(1, 2, 3), bvp_alphas=(1.5,), bvp_window=2.5):
    fails = []
    E, med = {}, {}
    for k in ks:
        rows = read_rows(out / f"real.csv.k{k}.csv")
        errs = []
        for r in rows:
            x = cval(r, "x_re", "x_im")
            if r["flag"] != "ok":
                fails.append(f"real slice k={k}: row x={x} flagged {r['flag']}")
                continue
            a, n = cval(r, "asym_re", "asym_im"), cval(r, "num_re", "num_im")
            if x.imag != 0.0:
                fails.append(f"real slice k={k}: x={x} is off the real axis")
            if abs(a.imag) > 1e-12 or abs(n.imag) > 1e-10:
                fails.append(f"real slice k={k}: value at x={x.real} is not real")
            if cubic_residual(x, a) > 1e-10:
                fails.append(f"real slice k={k}: S(x) fails the cubic at x={x.real}")
            errs.append(abs(a - n))
        if not errs:
            fails.append(f"real slice k={k}: no ok rows")
            continue
        E[k], med[k] = max(errs), float(np.median(errs))
    if len(E) == len(ks):
        if not all(E[a] > E[b] for a, b in zip(ks, ks[1:])):
            fails.append(f"real slice: E(k) does not fall with k: {E}")
        prod = [k * E[k] for k in ks]
        if max(prod) > 3.0 * min(prod):
            fails.append(f"real slice: k E(k) spreads beyond a factor 3: {prod}")

    grid = read_rows(out / "grid.csv")
    values = {}
    for r in grid:
        x, v = cval(r, "x_re", "x_im"), cval(r, "value_re", "value_im")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            fails.append(f"grid: no value at x={x}")
            continue
        if cubic_residual(x, v) > 1e-10:
            fails.append(f"grid: S(x) fails the cubic at x={x}")
        values[(round(x.real, 9), round(x.imag, 9))] = v
    mirror_err = 0.0
    for (re, im), v in values.items():
        w = values.get((re, round(-im, 9)))
        if w is None:
            fails.append(f"grid: no mirror point for x={complex(re, im)}")
            continue
        mirror_err = max(mirror_err, abs(w - v.conjugate()))
    if mirror_err > 1e-10:
        fails.append(f"grid: value(conj x) != conj value(x), worst {mirror_err:.2e}")

    hop_err, bvp_err = 0.0, 0.0
    for i, alpha in enumerate(bvp_alphas):
        h, b = bvp_errors(out / f"bvp.{i}.csv", alpha, rng, bvp_window)
        if h > 1e-8:
            fails.append(f"bvp alpha={alpha}: neighbouring nodes disagree with solve_ivp by {h:.2e}")
        if b > 1e-6:
            fails.append(f"bvp alpha={alpha}: nodes differ from solve_ivp by {b:.2e}"
                         f" on |y| <= {bvp_window}")
        hop_err, bvp_err = max(hop_err, h), max(bvp_err, b)
    figures = {"E": E, "k_median_err": {k: k * med[k] for k in med},
               "grid_mirror_err": mirror_err, "bvp_vs_ivp": bvp_err, "bvp_hop_err": hop_err}
    return fails, figures


# ---------------------------------------------------------------------------
# atlas: vault centres re-derived by scipy, window coverage
# ---------------------------------------------------------------------------

def vault_nodes(window, h):
    """Target nodes of a ``vault`` call (the CLI widens the y-window to the anchor)."""
    re0, re1, im0, im1 = window
    re0, re1, im0 = min(re0, 1.0), max(re1, 3.0), min(im0, 0.0)
    return np.array([complex(a, b) for a in np.arange(re0, re1 + 1e-9, h)
                     for b in np.arange(im0, im1 + 1e-9, h)])


def check_atlas(out, rng, atlases, samples=12):
    """``atlases`` maps each atlas file to its (k, y-window)."""
    fails = []
    figures = {}
    for name, (k, window) in atlases.items():
        doc, centres, u, up = load_atlas(out / name)
        h = doc["h"]
        if doc["alpha"] != k + 0.5:
            fails.append(f"{name}: alpha is {doc['alpha']}")
        nodes = vault_nodes(window, h)
        gap = max(float(np.min(np.abs(centres - z))) for z in nodes)
        if gap > 2.0 * h:
            fails.append(f"{name}: a window node is {gap:.2f} from every centre")
        picks = rng.choice(np.arange(1, len(centres)), size=samples, replace=False)
        worst, missing, drift = centre_errors(doc, centres, u, up, picks)
        if missing:
            fails.append(f"{name}: centres {missing} have no step source at distance h")
        if worst > 1e-6:
            fails.append(f"{name}: centre data differ from solve_ivp by {worst:.2e}")
        figures[name] = {"centres": len(centres), "worst_rel_err": worst,
                         "coverage_gap": gap, "neighbour_drift": drift}
    return fails, figures


# ---------------------------------------------------------------------------
# pole_slice: convergence in k, predicted poles against numerical poles
# ---------------------------------------------------------------------------

def check_pole_slice(out, rng, pole_atlas, ks=(1, 2, 3), pole_k=3):
    fails = []
    E, med, masked = {}, {}, {}
    for k in ks:
        errs = []
        masked[k] = 0
        for r in read_rows(out / f"slice.csv.k{k}.csv"):
            if r["flag"] == "pole-mask":
                masked[k] += 1
                continue
            if r["flag"] != "ok":
                fails.append(f"pole slice k={k}: row flagged {r['flag']}")
                continue
            errs.append(abs(cval(r, "asym_re", "asym_im") - cval(r, "num_re", "num_im")))
        if len(errs) < 3:
            fails.append(f"pole slice k={k}: only {len(errs)} ok rows")
            continue
        E[k], med[k] = max(errs), float(np.median(errs))
    if len(E) == len(ks):
        if not all(E[a] > E[b] for a, b in zip(ks, ks[1:])):
            fails.append(f"pole slice: max error does not shrink with k: {E}")
        prod = [k * med[k] for k in ks]
        if max(prod) > 3.0 * min(prod):
            fails.append(f"pole slice: k * median error spreads beyond a factor 3: {prod}")

    poles = json.loads((out / "poles.json").read_text(encoding="utf-8"))
    predicted = [complex(*p) for p in poles["poles"]]
    if poles["k"] != pole_k or not predicted:
        fails.append(f"poles: expected at least one k={pole_k} pole, got {poles}")
    found = []
    if predicted:
        doc, centres, u, up = load_atlas(pole_atlas)
        ck = scale(pole_k)
        radius = 0.1 * ck
        for p in predicted:
            yp = -ck * p
            far = np.flatnonzero(np.abs(centres - yp) > 2.0 * radius)
            i = int(far[np.argmin(np.abs(centres[far] - yp))])
            worst, missing, _ = centre_errors(doc, centres, u, up, [i])
            if missing or worst > 1e-6:
                fails.append(f"poles: start centre {centres[i]} is not an ODE solution")
                continue
            res, loc, turn = contour_pole(doc["alpha"], yp, radius, centres[i], u[i], up[i])
            x_loc = -loc / ck if loc is not None else None
            found.append({"predicted": [p.real, p.imag], "residue": [res.real, res.imag],
                          "numeric": None if x_loc is None else [x_loc.real, x_loc.imag]})
            if min(abs(res - 1), abs(res + 1)) > 1e-4:
                fails.append(f"poles: residue {res:.6f} near predicted pole {p} is not +-1")
            elif abs(x_loc - p) > 0.1:
                fails.append(f"poles: numerical pole {x_loc} is {abs(x_loc - p):.3f} from {p}")
            if turn > 1e-6 * max(1.0, abs(u[i])):
                fails.append(f"poles: u is not single-valued around {p} ({turn:.1e})")
    figures = {"max_err": E, "k_median_err": {k: k * med[k] for k in med},
               "masked_rows": masked, "poles": found}
    return fails, figures


# ---------------------------------------------------------------------------
# cold_points: moment conditions, Boutroux conditions, periods, mirror
# ---------------------------------------------------------------------------

def _segment_integral_imag(p, q, others):
    """Im of int_p^q R dw on the straight segment, R^2 = (w-p)(w-q)(w-o1)(w-o2).

    With w = p + (q-p) t, (w-p)(w-q) = -(q-p)^2 t (1-t), and each
    (w-o)/(p-o) stays off the negative axis along the segment, so the
    principal roots below give one continuous branch of R (its overall
    sign does not change whether the imaginary part vanishes).
    """
    o1, o2 = others
    const = 1j * (q - p) * np.sqrt(p - o1) * np.sqrt(p - o2) * (q - p)

    def r_dw(t):
        w = p + (q - p) * t
        return const * math.sqrt(t * (1.0 - t)) * np.sqrt((w - o1) / (p - o1)) \
            * np.sqrt((w - o2) / (p - o2))

    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    im, _ = quad(lambda t: r_dw(t).imag, 0.0, 1.0, **kw)
    re, _ = quad(lambda t: r_dw(t).real, 0.0, 1.0, **kw)
    return im, abs(complex(re, im))


def check_endpoint_doc(doc):
    fails = []
    x = complex(*doc["x"])
    A, B, C, D = (complex(*doc["endpoints"][n]) for n in "ABCD")
    e1 = A + B + C + D
    e2 = A * B + A * C + A * D + B * C + B * D + C * D
    e3 = A * B * C + A * B * D + A * C * D + B * C * D
    for name, got, want in (("e1", e1, 0.0), ("e2", e2, x / 2.0), ("e3", e3, -1j)):
        if abs(got - want) > 1e-9:
            fails.append(f"x={x}: {name} = {got} instead of {want}")
    band_im, band_abs = _segment_integral_imag(A, B, (C, D))
    gap_im, gap_abs = _segment_integral_imag(B, C, (A, D))
    if abs(band_im) > 1e-8 * max(1.0, band_abs):
        fails.append(f"x={x}: Im int_A^B R = {band_im:.2e}, not 0")
    if abs(gap_im) > 1e-8 * max(1.0, gap_abs):
        fails.append(f"x={x}: Im int_B^C R = {gap_im:.2e}, not 0")
    per = doc["periods"]
    Bp, K, Q = complex(*per["B_period"]), complex(*per["K"]), complex(*per["Q"])
    if not Bp.real < 0:
        fails.append(f"x={x}: Re B = {Bp.real} is not negative")
    if abs(K - (1j * math.pi + Bp / 2.0)) > 1e-12 * max(1.0, abs(K)):
        fails.append(f"x={x}: K != i pi + B/2")
    Q_want = (B * D - A * C) / (B + D - A - C)
    if abs(Q - Q_want) > 1e-10 * max(1.0, abs(Q_want)):
        fails.append(f"x={x}: Q = {Q} instead of {Q_want}")
    return fails, max(abs(band_im), abs(gap_im))


def check_cold_points(out, rng, points, mirror_pairs):
    fails = []
    docs = {}
    boutroux = 0.0
    for i, x in enumerate(points):
        doc = json.loads((out / f"endpoints.{i}.json").read_text(encoding="utf-8"))
        if complex(*doc["x"]) != x:
            fails.append(f"endpoints.{i}: dumped x {doc['x']} is not {x}")
        f, b = check_endpoint_doc(doc)
        fails += f
        boutroux = max(boutroux, b)
        docs[i] = doc
    mirror = 0.0
    for i, j in mirror_pairs:
        pi = [complex(*docs[i]["endpoints"][n]) for n in "ABCD"]
        pj = [complex(*docs[j]["endpoints"][n]) for n in "ABCD"]
        dist = max(min(abs(-z.conjugate() - w) for w in pj) for z in pi)
        dist = max(dist, max(min(abs(-w.conjugate() - z) for z in pi) for w in pj))
        mirror = max(mirror, dist)
        if dist > 1e-8:
            fails.append(f"endpoints at {points[j]} are not the mirror of those at {points[i]}"
                         f" ({dist:.1e})")
    return fails, {"boutroux_max_im": boutroux, "mirror_err": mirror}
