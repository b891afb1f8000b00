"""Command-line front end: slices, grids, boundary traces, pole maps.

Subcommands emit plot-ready CSV/JSON only; no figure rendering here.
Exit codes: 0 on success, 2 when some sample points failed (rows are
kept with a reason flag), 1 on fatal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import collocation, endpoints, genus0, pade, scaled_from_u, theta, y_from_x
from .errors import HmcleodError, WrongRegion

SLICE_HEADER = "x_re,x_im,asym_re,asym_im,num_re,num_im,abs_err,flag"


def _fmt(z):
    if z is None or (isinstance(z, float) and np.isnan(z)):
        return "nan"
    return f"{z:.12e}"


class Harness:
    """Shared numeric/asymptotic evaluators with per-k caches."""

    def __init__(self, seed=0, n_cheb=200, taylor_order=24, step=0.5, delta=0.5):
        self.seed = seed
        self.n_cheb = n_cheb
        self.taylor_order = taylor_order
        self.step = step
        self.delta = delta
        self._colloc = {}
        self._atlas = {}
        self._pipes = theta._PipelineCache()
        self._pole_masks = {}

    def collocation_solution(self, k):
        """Real-axis collocation solution on -12 <= y <= 12."""
        if k not in self._colloc:
            prob = collocation.BvpProblem(alpha=k + 0.5, y1=-12.0 + 0j,
                                          y2=12.0 + 0j, N=self.n_cheb)
            self._colloc[k] = collocation.solve_bvp(prob)
        return self._colloc[k]

    def atlas(self, k, y_points):
        """Vault atlas covering the y-points plus a corridor to the anchor."""
        key = k
        if key in self._atlas:
            atlas = self._atlas[key]
            if all(np.min(np.abs(atlas.centers - y)) <= 2 * atlas.config.h
                   for y in y_points):
                return atlas
        anchor_y = 2.0
        sol = self.collocation_solution(k)
        u0, up0 = collocation.eval_solution(sol, anchor_y)
        ys = np.asarray(list(y_points) + [anchor_y])
        window = (float(ys.real.min()) - 1.0, float(ys.real.max()) + 1.0,
                  min(0.0, float(ys.imag.min()) - 1.0), float(ys.imag.max()) + 1.0)
        cfg = pade.VaultConfig(h=self.step, n=self.taylor_order, seed=self.seed)
        self._atlas[key] = pade.run_vault(window, (anchor_y, u0, up0), k + 0.5, cfg)
        return self._atlas[key]

    def numeric(self, x, k, atlas=None):
        y = y_from_x(x, k)
        if abs(x.imag) < 1e-12:
            sol = self.collocation_solution(k)
            u, _ = collocation.eval_solution(sol, y)
        elif atlas is not None:
            u = pade.evaluate(atlas, y)
        else:
            u = pade.evaluate(self.atlas(k, [y]), y)
        return scaled_from_u(u, k)

    def pole_mask(self, k, window):
        key = (k, tuple(np.round(window, 6)))
        if key not in self._pole_masks:
            self._pole_masks[key] = theta.predict_poles(
                window, k, cache=self._pipes, verify=False)
        return self._pole_masks[key]

    def asymptotic(self, x, k, poles=None):
        label = genus0.classify_region(x)
        if label.pole_free:
            return genus0.genus0_value(x), "genus0"
        radius = self.delta / k ** (2.0 / 3.0)
        if poles is not None and any(abs(x - q) <= radius for q in poles):
            return None, "pole-mask"
        pipe = self._pipes.get(x)
        return pipe.value(k), "genus1"


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_slice(args):
    ks = args.k if args.k else [int(args.alpha - 0.5)]
    if args.mode == "real":
        args.im = 0.0
    elif args.mode is None and abs(args.im) > 0:
        args.mode = "horizontal"
    xs = np.linspace(args.xmin, args.xmax, args.samples) + 1j * args.im
    harness = Harness(seed=args.seed, n_cheb=args.n_cheb,
                      taylor_order=args.taylor_order, step=args.step,
                      delta=args.delta)
    failures = 0
    for k in ks:
        rows = []
        poles = None
        if abs(args.im) > 1e-12:
            pad = 0.6
            window = (args.xmin - pad, args.xmax + pad, args.im - pad, args.im + pad)
            in_pole = any(not genus0.classify_region(x).pole_free for x in xs)
            if in_pole:
                poles = harness.pole_mask(k, window)
        atlas = None
        if abs(args.im) > 1e-12:
            atlas = harness.atlas(k, [y_from_x(x, k) for x in xs])
        for x in xs:
            asym = num = None
            flag = "ok"
            try:
                asym, backend = harness.asymptotic(x, k, poles=poles)
                if asym is None:
                    flag = "pole-mask"
            except HmcleodError as exc:
                flag = type(exc).__name__
            try:
                num = harness.numeric(x, k, atlas=atlas)
            except HmcleodError as exc:
                flag = flag if flag != "ok" else type(exc).__name__
            if flag != "ok":
                failures += 1
            err = abs(asym - num) if (asym is not None and num is not None) else None
            rows.append([
                _fmt(x.real), _fmt(x.imag),
                _fmt(asym.real if asym is not None else None),
                _fmt(asym.imag if asym is not None else None),
                _fmt(num.real if num is not None else None),
                _fmt(num.imag if num is not None else None),
                _fmt(err), flag,
            ])
        out = args.out if len(ks) == 1 else f"{args.out}.k{k}.csv"
        _write_rows(out, SLICE_HEADER, rows)
        print(f"wrote {out} ({len(rows)} rows)")
    return 2 if failures else 0


def cmd_grid(args):
    k = args.k[0] if args.k else int(args.alpha - 0.5)
    re0, re1, im0, im1 = args.window
    xs = np.linspace(re0, re1, args.res)
    ys = np.linspace(im0, im1, args.res)
    harness = Harness(seed=args.seed, n_cheb=args.n_cheb,
                      taylor_order=args.taylor_order, step=args.step,
                      delta=args.delta)
    poles = None
    grid_pts = [complex(xr, xi) for xi in ys for xr in xs]
    if (args.quantity in ("asymptotic", "error")
            and any(not genus0.classify_region(x).pole_free for x in grid_pts)):
        poles = harness.pole_mask(k, (re0 - 0.4, re1 + 0.4, im0 - 0.4, im1 + 0.4))
    atlas = None
    if args.quantity in ("numeric", "error"):
        off_axis = [y_from_x(x, k) for x in grid_pts if abs(x.imag) > 1e-12]
        if off_axis:
            atlas = harness.atlas(k, off_axis)
    failures = 0
    rows = []
    for x in grid_pts:
        val = None
        try:
            if args.quantity == "asymptotic":
                val, _ = harness.asymptotic(x, k, poles=poles)
            elif args.quantity == "numeric":
                val = harness.numeric(x, k, atlas=atlas)
            else:
                a, _ = harness.asymptotic(x, k, poles=poles)
                n = harness.numeric(x, k, atlas=atlas)
                val = abs(a - n) if a is not None and n is not None else None
        except HmcleodError:
            failures += 1
        rows.append([_fmt(x.real), _fmt(x.imag),
                     _fmt(val.real if isinstance(val, complex) else val),
                     _fmt(val.imag if isinstance(val, complex) else (0.0 if val is not None else None))])
    _write_rows(args.out, "x_re,x_im,value_re,value_im", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 2 if failures else 0


def cmd_boundary(args):
    data = genus0._boundary_data()
    x0 = genus0.x0_root()
    rows = []

    def emit(tag, pts):
        for z in pts:
            rows.append([_fmt(float(np.real(z))), _fmt(float(np.imag(z))), tag])

    emit("apex", [genus0.APEX_PLUS, genus0.APEX_MINUS])
    rows.append([_fmt(x0), _fmt(0.0), "x0"])
    emit("arc", data["arc"][:: max(1, len(data["arc"]) // args.res)])
    emit("branch_up", data["branch_up"][:: max(1, len(data["branch_up"]) // args.res)])
    emit("branch_down", np.conj(data["branch_up"])[:: max(1, len(data["branch_up"]) // args.res)])
    for sgn, tag in ((1, "ray_up"), (-1, "ray_down")):
        apex = genus0.APEX_PLUS if sgn > 0 else genus0.APEX_MINUS
        direction = np.exp(sgn * 2j * np.pi / 3.0)
        ts = np.linspace(0.0, 27.0, args.res)
        emit(tag, [apex + t * direction for t in ts])
    _write_rows(args.out, "x_re,x_im,curve", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_poles(args):
    k = args.k[0] if args.k else int(args.alpha - 0.5)
    re0, re1, im0, im1 = args.window
    corners = [complex(re0, im0), complex(re0, im1), complex(re1, im0), complex(re1, im1)]
    if all(genus0.classify_region(c).pole_free for c in corners):
        raise WrongRegion("pole window lies in the pole-free region")
    poles = theta.predict_poles((re0, re1, im0, im1), k, verify=args.verify)
    doc = {
        "k": k,
        "delta": args.delta,
        "mask_radius": args.delta / k ** (2.0 / 3.0),
        "poles": [[z.real, z.imag] for z in poles],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {args.out} ({len(poles)} poles)")
    return 0


def cmd_endpoints(args):
    x = complex(args.x[0], args.x[1])
    pipe = theta.Genus1Pipeline(x)
    e, sc, pd = pipe.e, pipe.constants, pipe.periods
    upsilon0_const, upsilon_minus1 = pipe.upsilon_constants()

    def c2l(z):
        return [z.real, z.imag]

    doc = {
        "x": c2l(x),
        "endpoints": {n: c2l(getattr(e, n)) for n in "ABCD"},
        "residual": float(np.max(np.abs(endpoints.residuals(e, m=160)))),
        "spectral_constants": {
            "Lambda": c2l(sc.Lambda), "omega": sc.omega, "Omega": sc.Omega,
        },
        "periods": {
            "A_minus1": c2l(pd.A_minus1), "A_inf": c2l(pd.A_inf),
            "B_period": c2l(pd.B_period), "K": c2l(pd.K), "U": c2l(pd.U),
            "F1": c2l(pd.F1), "Q": c2l(pd.Q),
            "Upsilon0_const": c2l(upsilon0_const),
            "Upsilon_minus1": c2l(upsilon_minus1),
        },
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_vault(args):
    k = args.k[0] if args.k else None
    alpha = args.alpha if args.alpha is not None else (k + 0.5)
    harness = Harness(seed=args.seed, n_cheb=args.n_cheb,
                      taylor_order=args.taylor_order, step=args.step)
    re0, re1, im0, im1 = args.window
    sol = harness.collocation_solution(alpha - 0.5)
    u0, up0 = collocation.eval_solution(sol, 2.0)
    cfg = pade.VaultConfig(h=args.step, n=args.taylor_order, seed=args.seed)
    atlas = pade.run_vault((min(re0, 1.0), max(re1, 3.0), min(im0, 0.0), im1),
                           (2.0, u0, up0), alpha, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(atlas.to_json())
    print(f"wrote {args.out} ({len(atlas.entries)} centers)")
    return 0


def cmd_bvp(args):
    alpha = args.alpha if args.alpha is not None else args.k[0] + 0.5
    prob = collocation.BvpProblem(alpha=alpha, y1=complex(args.y1, args.y_im),
                                  y2=complex(args.y2, args.y_im), N=args.n_cheb,
                                  allow_pole_region=args.allow_pole_region)
    sol = collocation.solve_bvp(prob)
    ys = prob.map_to_segment(sol.grid.nodes)
    rows = [[_fmt(y.real), _fmt(y.imag), _fmt(u.real), _fmt(u.imag),
             _fmt(up.real), _fmt(up.imag)]
            for y, u, up in zip(ys, sol.values, sol.derivative_values)]
    _write_rows(args.out, "y_re,y_im,u_re,u_im,uprime_re,uprime_im", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_SHARED_FLAGS = {
    "seed": {"type": int, "default": 0},
    "n-cheb": {"type": int, "default": 200},
    "taylor-order": {"type": int, "default": 24},
    "step": {"type": float, "default": 0.5},
    "delta": {"type": float, "default": 0.5},
}
# the Harness settings of the commands that build a collocation solution
# and a vault atlas
_HARNESS_FLAGS = ("seed", "n-cheb", "taylor-order", "step")


def _add_common(sp, *flags):
    """--k/--alpha, --out and the named flags of ``_SHARED_FLAGS``."""
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, nargs="+", help="parameter k (alpha = k + 1/2)")
    group.add_argument("--alpha", type=float, help="inhomogeneity parameter alpha")
    for name in flags:
        sp.add_argument(f"--{name}", **_SHARED_FLAGS[name])
    sp.add_argument("--out", default="out.csv")


def build_parser():
    ap = argparse.ArgumentParser(prog="hmcleod",
                                 description="Generalized Hastings-McLeod asymptotics vs numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("slice", help="compare asymptotic and numeric values on a slice")
    _add_common(sp, *_HARNESS_FLAGS, "delta")
    sp.add_argument("--slice", dest="mode", choices=["real", "horizontal"], default=None)
    sp.add_argument("--im", type=float, default=0.0, help="imaginary offset of the slice")
    sp.add_argument("--xmin", type=float, default=-3.0)
    sp.add_argument("--xmax", type=float, default=3.0)
    sp.add_argument("--samples", type=int, default=61)
    sp.set_defaults(func=cmd_slice)

    sp = sub.add_parser("grid", help="density-grid CSV over an x-window")
    _add_common(sp, *_HARNESS_FLAGS, "delta")
    sp.add_argument("--window", type=float, nargs=4, required=True,
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sp.add_argument("--res", type=int, default=16)
    sp.add_argument("--quantity", choices=["asymptotic", "numeric", "error"],
                    default="asymptotic")
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("boundary", help="trace the pole-region boundary")
    sp.add_argument("--res", type=int, default=200)
    sp.add_argument("--out", default="boundary.csv")
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("poles", help="predicted poles of the asymptotic formula")
    _add_common(sp, "delta")
    sp.add_argument("--window", type=float, nargs=4, required=True,
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sp.add_argument("--verify", action="store_true",
                    help="re-run with a refined seed grid and compare")
    sp.set_defaults(func=cmd_poles)

    sp = sub.add_parser("endpoints", help="dump the two-band data at one x as JSON")
    sp.add_argument("--x", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_endpoints)

    sp = sub.add_parser("vault", help="build and serialize a Pade atlas")
    _add_common(sp, *_HARNESS_FLAGS)
    sp.add_argument("--window", type=float, nargs=4, required=True,
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
                    help="window in the y-plane")
    sp.set_defaults(func=cmd_vault)

    sp = sub.add_parser("bvp", help="run the collocation solver, dump the grid")
    _add_common(sp, "n-cheb")
    sp.add_argument("--y1", type=float, default=-12.0)
    sp.add_argument("--y2", type=float, default=12.0)
    sp.add_argument("--y-im", type=float, default=0.0)
    sp.add_argument("--allow-pole-region", action="store_true")
    sp.set_defaults(func=cmd_bvp)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HmcleodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
