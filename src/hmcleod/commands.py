"""The subcommand bodies of the CLI and the harness they share.

``hmcleod.cli`` parses the arguments and then calls ``cmd_<command>``
here.  ``collocation`` and ``pade`` are imported by the commands that
solve a collocation system or build a vault, and ``theta`` and
``endpoints`` by the ones that need a genus-1 value.
"""

from __future__ import annotations

import copy
import json
import sys
from contextlib import contextmanager
from functools import cached_property, partial

import numpy as np

from . import genus0, scaled_from_u, y_from_x
from .errors import HmcleodError, WrongRegion


def _fmt(z):
    if z is None or (isinstance(z, float) and np.isnan(z)):
        return "nan"
    return f"{z:.12e}"


def _fmt_pair(z):
    """The real and imaginary part columns of z, both nan for a missing z."""
    return [_fmt(None), _fmt(None)] if z is None else [_fmt(z.real), _fmt(z.imag)]


class Harness:
    """Shared numeric/asymptotic evaluators with per-alpha collocation solutions."""

    # the real y where every vault starts from the collocation solution
    ANCHOR_Y = 2.0

    def __init__(self, seed=0, n_cheb=200, taylor_order=24, step=0.5, delta=0.5):
        self.seed = seed
        self.n_cheb = n_cheb
        self.taylor_order = taylor_order
        self.step = step
        self.delta = delta
        self._colloc = {}

    @classmethod
    def from_args(cls, args):
        """The harness of the settings flags a subcommand has (seed, n-cheb, ..., delta)."""
        names = ("seed", "n_cheb", "taylor_order", "step", "delta")
        return cls(**{name: getattr(args, name) for name in names if hasattr(args, name)})

    @cached_property
    def _pipes(self):
        """The genus-1 pipeline cache, made on first use."""
        from . import theta
        return theta._PipelineCache()

    def collocation_solution(self, alpha):
        """Real-axis collocation solution on -12 <= y <= 12 at ``alpha``."""
        from . import collocation
        if alpha not in self._colloc:
            prob = collocation.BvpProblem(alpha=alpha, y1=-12.0 + 0j,
                                          y2=12.0 + 0j, N=self.n_cheb)
            self._colloc[alpha] = collocation.solve_bvp(prob)
        return self._colloc[alpha]

    def vault(self, alpha, window):
        """Vault atlas over a y-window, anchored at ``ANCHOR_Y`` on the collocation solution."""
        from . import collocation, pade
        u0, up0 = collocation.eval_solution(self.collocation_solution(alpha), self.ANCHOR_Y)
        cfg = pade.VaultConfig(h=self.step, n=self.taylor_order, seed=self.seed)
        return pade.run_vault(window, (self.ANCHOR_Y, u0, up0), alpha, cfg)

    def atlas(self, k, y_points):
        """Vault atlas over the bounding rectangle of the y-points and the anchor.

        The rectangle is padded by 1 and reaches down to the real axis.
        """
        ys = np.asarray(list(y_points) + [self.ANCHOR_Y])
        window = (float(ys.real.min()) - 1.0, float(ys.real.max()) + 1.0,
                  min(0.0, float(ys.imag.min()) - 1.0), float(ys.imag.max()) + 1.0)
        return self.vault(k + 0.5, window)

    def numeric(self, x, k, atlas=None):
        """Scaled numeric value: collocation on the real axis, else from ``atlas``."""
        from . import collocation, pade
        y = y_from_x(x, k)
        if abs(x.imag) < 1e-12:
            sol = self.collocation_solution(k + 0.5)
            u, _ = collocation.eval_solution(sol, y)
        else:
            u = pade.evaluate(atlas, y)
        return scaled_from_u(u, k)

    def pole_mask(self, k, window):
        from . import theta
        return theta.predict_poles(window, k, cache=self._pipes)

    def asymptotic(self, x, k, region, poles=None):
        """(value, backend) at x.

        ``region`` is x's (label, genus-0 value), as genus0.classify_and_value
        gives them.
        """
        label, genus0_value = region
        if label.pole_free:
            return complex(genus0_value), "genus0"
        radius = self.delta / k ** (2.0 / 3.0)
        if poles is not None and any(abs(x - q) <= radius for q in poles):
            return None, "pole-mask"
        pipe = self._pipes.get(x)
        return pipe.value(k), "genus1"


def _regions(xs):
    """Each x's (label, genus-0 value), or the HmcleodError its classification raised.

    All the points are classified in one call; only when that call fails
    are they classified one by one, so that a failure flags its own row.
    """
    try:
        return list(zip(*genus0.classify_and_value(xs)))
    except HmcleodError:
        pass
    regions = []
    for x in xs:
        try:
            regions.append(genus0.classify_and_value(x))
        except HmcleodError as exc:
            regions.append(exc)
    return regions


def _needs_pole_mask(regions):
    return any(not isinstance(r, HmcleodError) and not r[0].pole_free for r in regions)


def _asymptotic_column(harness, k, xs, regions, poles):
    """Each x's (asymptotic value, flag).

    ``regions`` holds x's entry of ``_regions``, or None for no
    asymptotic value.  The flag is "ok", "pole-mask" or the name of the
    HmcleodError that the value raised.
    """
    column = []
    for x, region in zip(xs, regions):
        asym, flag = None, "ok"
        try:
            if isinstance(region, HmcleodError):
                raise region
            if region is not None:
                asym, _ = harness.asymptotic(x, k, region, poles=poles)
                flag = "ok" if asym is not None else "pole-mask"
        except HmcleodError as exc:
            flag = type(exc).__name__
        column.append((asym, flag))
    return column


def _numeric_column(harness, k, xs):
    """Each x's numeric value, or the name of the HmcleodError it raised.

    The vault atlas is built first when some x is off the real axis; an
    HmcleodError of that build propagates.
    """
    off_axis = [y_from_x(x, k) for x in xs if abs(x.imag) > 1e-12]
    atlas = harness.atlas(k, off_axis) if off_axis else None
    column = []
    for x in xs:
        try:
            column.append(harness.numeric(x, k, atlas=atlas))
        except HmcleodError as exc:
            column.append(type(exc).__name__)
    return column


@contextmanager
def _numeric_columns(harness, ks, xs):
    """Yields column(k), the ``_numeric_column`` of xs, to be called for ks in order.

    Without an x off the real axis the columns are computed in place.
    Otherwise the vault work goes to one forked worker, which computes
    the column of each k in turn while the caller computes its regions,
    pole masks and asymptotic values.  The collocation anchors are
    solved before the fork, as their solves use threaded BLAS; an anchor
    that fails there is solved again by the worker, so that column(k)
    raises its error in k's turn, like an atlas build's error, with its
    own class and message.  Leaving the block terminates and reaps the
    worker.
    """
    if all(abs(x.imag) <= 1e-12 for x in xs):
        yield lambda k: _numeric_column(harness, k, xs)
        return
    for k in ks:
        try:
            harness.collocation_solution(k + 0.5)
        except HmcleodError:
            pass
    import multiprocessing
    # a forked worker would write the buffered output once more
    sys.stdout.flush()
    sys.stderr.flush()
    # the pool pickles the tasks in a thread of its own, so they get a
    # copy of the harness: this process goes on filling its pipeline
    # cache, and does not touch the collocation solutions
    task = partial(_numeric_column, copy.copy(harness), xs=xs)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        yield pool.imap(task, ks).__next__


def _row(asym, flag, num):
    """(asym, num, flag, failed) of one point of a slice or grid.

    ``num`` is the numeric value, the name of the HmcleodError it
    raised, or None for no numeric value.  A masked point is no
    failure, but its numeric failure counts; the first failure names
    the flag.
    """
    failed = flag not in ("ok", "pole-mask")
    if isinstance(num, str):
        flag, num, failed = (num if flag == "ok" else flag), None, True
    return asym, num, flag, failed


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_slice(args):
    if args.mode == "real":
        args.im = 0.0
    xs = np.linspace(args.xmin, args.xmax, args.samples) + 1j * args.im
    harness = Harness.from_args(args)
    pad = 0.6
    window = (args.xmin - pad, args.xmax + pad, args.im - pad, args.im + pad)
    failures = 0
    with _numeric_columns(harness, args.k, xs) as numeric:
        # the labels and genus-0 values do not depend on k
        regions = _regions(xs)
        for k in args.k:
            poles = None
            if abs(args.im) > 1e-12 and _needs_pole_mask(regions):
                poles = harness.pole_mask(k, window)
            asymptotic = _asymptotic_column(harness, k, xs, regions, poles)
            rows = []
            for x, (asym, flag), num in zip(xs, asymptotic, numeric(k)):
                asym, num, flag, failed = _row(asym, flag, num)
                failures += failed
                err = abs(asym - num) if (asym is not None and num is not None) else None
                rows.append([*_fmt_pair(x), *_fmt_pair(asym), *_fmt_pair(num), _fmt(err), flag])
            out = args.out if len(args.k) == 1 else f"{args.out}.k{k}.csv"
            _write_rows(out, "x_re,x_im,asym_re,asym_im,num_re,num_im,abs_err,flag", rows)
            print(f"wrote {out} ({len(rows)} rows)")
    return 2 if failures else 0


def cmd_grid(args):
    k, = args.k
    re0, re1, im0, im1 = args.window
    xs = np.linspace(re0, re1, args.res)
    ys = np.linspace(im0, im1, args.res)
    harness = Harness.from_args(args)
    grid_pts = [complex(xr, xi) for xi in ys for xr in xs]
    poles = None
    regions = [None] * len(grid_pts)
    if args.quantity in ("asymptotic", "error"):
        regions = _regions(grid_pts)
        if _needs_pole_mask(regions):
            poles = harness.pole_mask(k, (re0 - 0.4, re1 + 0.4, im0 - 0.4, im1 + 0.4))
    nums = [None] * len(grid_pts)
    if args.quantity in ("numeric", "error"):
        nums = _numeric_column(harness, k, grid_pts)
    asymptotic = _asymptotic_column(harness, k, grid_pts, regions, poles)

    failures = 0
    rows = []
    for x, (asym, flag), num in zip(grid_pts, asymptotic, nums):
        asym, num, flag, failed = _row(asym, flag, num)
        failures += failed
        err = abs(asym - num) if asym is not None and num is not None else None
        val = {"asymptotic": asym, "numeric": num, "error": err}[args.quantity]
        rows.append([*_fmt_pair(x), *_fmt_pair(val), flag])
    _write_rows(args.out, "x_re,x_im,value_re,value_im,flag", rows)
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
    from . import theta
    k, = args.k
    window = tuple(args.window)
    # the nodes of predict_poles, classified once for both: a window
    # whose corners are pole-free may still cross the pole region inside
    cache = theta._PipelineCache()
    _, labels = cache.classified_grid(window)
    if all(label.pole_free for label in labels.ravel()):
        raise WrongRegion("pole window lies in the pole-free region")
    poles = theta.predict_poles(window, k, cache=cache)
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
    from . import endpoints, theta
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
            "Lambda": c2l(endpoints.jump_lambda(e, sc)), "omega": sc.omega, "Omega": sc.Omega,
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
    re0, re1, im0, im1 = args.window
    atlas = Harness.from_args(args).vault(args.alpha,
                                          (min(re0, 1.0), max(re1, 3.0), min(im0, 0.0), im1))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(atlas.to_json())
    print(f"wrote {args.out} ({len(atlas.entries)} centers)")
    return 0


def cmd_bvp(args):
    from . import collocation
    prob = collocation.BvpProblem(alpha=args.alpha, y1=complex(args.y1, args.y_im),
                                  y2=complex(args.y2, args.y_im), N=args.n_cheb,
                                  allow_pole_region=args.allow_pole_region)
    sol = collocation.solve_bvp(prob)
    ys = prob.map_to_segment(sol.grid.nodes)
    rows = [[*_fmt_pair(y), *_fmt_pair(u), *_fmt_pair(up)]
            for y, u, up in zip(ys, sol.values, sol.derivative_values)]
    _write_rows(args.out, "y_re,y_im,u_re,u_im,uprime_re,uprime_im", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0
