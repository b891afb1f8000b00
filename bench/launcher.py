"""Run one ``hmcleod`` CLI call with spans around the public functions of each layer.

    python3 bench/launcher.py SPANS_JSON -- <hmcleod arguments>

The wrapping happens from outside the package: after ``hmcleod.cli`` is
imported, each function named in ``LAYERS`` is replaced, in every
``hmcleod`` module that holds it, by a wrapper that records a span
(name, start, end, parent span, whether an ``HmcleodError`` left it, and
an optional count taken from its arguments or result).  Spans stay in
memory and are written to SPANS_JSON when the call ends.  The exit code
is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

T_START = time.perf_counter()


def _arg(args, kw, index, name):
    if name in kw:
        return kw[name]
    return args[index] if len(args) > index else None


# span name -> (module, attribute path, count).  The count is a function
# (args, kwargs, result) -> int; the result is None when the call raised.
LAYERS = {
    "cli.numeric": ("cli", "Harness.numeric", None),
    "cli.asymptotic": ("cli", "Harness.asymptotic", None),
    "cli.pole_mask": ("cli", "Harness.pole_mask", None),
    "genus0.classify_region": ("genus0", "classify_region", None),
    "genus0.solve_S": ("genus0", "solve_S", None),
    "collocation.solve_bvp": ("collocation", "solve_bvp", None),
    "collocation.eval_solution": ("collocation", "eval_solution", None),
    "pade.taylor_from_ivp": ("pade", "taylor_from_ivp", None),
    "pade.pade_from_taylor": ("pade", "pade_from_taylor", None),
    "pade.run_vault": ("pade", "run_vault",
                       lambda a, k, out: len(out.entries) if out is not None else 0),
    "pade.evaluate": ("pade", "evaluate", None),
    "endpoints.solve_endpoints": ("endpoints", "solve_endpoints",
                                  lambda a, k, out: int(_arg(a, k, 1, "seed") is None)),
    "endpoints.residuals": ("endpoints", "residuals", None),
    "endpoints.spectral_constants": ("endpoints", "spectral_constants",
                                     lambda a, k, out: int(_arg(a, k, 4, "hint") is not None)),
    "endpoints.chain_router_build": ("endpoints", "ChainRouter.__init__", None),
    "endpoints.chain_router": ("endpoints", "ChainRouter.path", None),
    "endpoints.integrate_leg": ("endpoints", "integrate_leg", None),
    "theta.pipeline": ("theta", "Genus1Pipeline.__init__", None),
    "theta.pipeline_cache": ("theta", "_PipelineCache.get", None),
    "theta.compute_periods": ("theta", "compute_periods", None),
    "theta.abel_raw_integral": ("theta", "AbelMap.raw_integral", None),
    "theta.value": ("theta", "Genus1Pipeline.value", None),
    "theta.predict_poles": ("theta", "predict_poles",
                            lambda a, k, out: len(out) if out is not None else 0),
    "theta.newton_pole": ("theta", "_newton_pole",
                          lambda a, k, out: int(out is not None)),
    "quadrature.route_path": ("quadrature", "route_path", None),
    "quadrature.integrate_path": ("quadrature", "integrate_path", None),
}

# The boundary trace is cached for the life of the process; its span is
# the first-call cost every CLI process pays.
BOUNDARY_SPAN = "genus0.boundary_trace"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = []   # [name, start, end, parent, failed, count]
        self.stack = []

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, time.perf_counter(), None,
                   tracer.stack[-1] if tracer.stack else -1, 0, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            out = None
            try:
                out = fn(*args, **kw)
                return out
            except tracer.error_type:
                rec[4] = 1
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
                if count is not None:
                    rec[5] = count(args, kw, out)

        return traced


def install(tracer, package):
    """Replace every function of ``LAYERS`` in all modules of ``package``."""
    import importlib

    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(package.__name__ + ".")]
    for name, (mod_name, attr, count) in LAYERS.items():
        owner = importlib.import_module(f"{package.__name__}.{mod_name}")
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        traced = tracer.wrap(name, original, count)
        setattr(owner, fn_name, traced)
        if not cls_path:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    genus0 = importlib.import_module(f"{package.__name__}.genus0")
    raw = genus0._boundary_data.__wrapped__
    cached = functools.lru_cache(maxsize=1)(tracer.wrap(BOUNDARY_SPAN, raw))
    for mod in modules:
        if vars(mod).get("_boundary_data") is genus0._boundary_data:
            mod._boundary_data = cached


STATS = ("calls", "s", "self_s", "fail", "n")


def aggregate(span_files):
    """Per-layer totals over the span files of one round.

    For each span name: ``calls``; ``s``, the busy time of its outermost
    spans; ``self_s``, busy time minus direct child spans; ``fail``,
    spans left by an ``HmcleodError``; ``n``, the sum of its counts.
    Derived entries follow the names of the per-layer table.
    """
    names = list(LAYERS) + [BOUNDARY_SPAN]
    tot = {f"{n}.{s}": 0.0 for n in names for s in STATS}
    tot.update({"proc.calls": 0, "proc.import_s": 0.0,
                "theta.pipeline_cache.hits": 0, "endpoints.integrate_leg.relaxed": 0})
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        tot["proc.calls"] += 1
        tot["proc.import_s"] += doc["import_s"]
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        children = [[] for _ in spans]
        for i, (name, t0, t1, parent, failed, count) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += t1 - t0
                children[parent].append(i)
        for i, (name, t0, t1, parent, failed, count) in enumerate(spans):
            tot[f"{name}.calls"] += 1
            tot[f"{name}.self_s"] += (t1 - t0) - child_s[i]
            tot[f"{name}.fail"] += failed
            tot[f"{name}.n"] += count
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                tot[f"{name}.s"] += t1 - t0
            kids = [spans[c] for c in children[i]]
            if name == "theta.pipeline_cache":
                tot["theta.pipeline_cache.hits"] += not any(c[0] == "theta.pipeline" for c in kids)
            if name == "endpoints.integrate_leg":
                tot["endpoints.integrate_leg.relaxed"] += any(
                    c[0] == "quadrature.integrate_path" and c[4] for c in kids)
    newton = tot["theta.newton_pole.calls"]
    tot.update({
        "genus0.boundary_trace_s": tot[f"{BOUNDARY_SPAN}.s"],
        "theta.pipeline.builds": tot["theta.pipeline.calls"],
        "theta.pipeline_cache.gets": tot["theta.pipeline_cache.calls"],
        "theta.newton_pole.roots": tot["theta.newton_pole.n"],
        "theta.poles_kept": tot["theta.predict_poles.n"],
        "theta.newton_pole.useful_ratio": tot["theta.predict_poles.n"] / newton if newton else 0.0,
        "endpoints.solve_endpoints.cold": tot["endpoints.solve_endpoints.n"],
        "endpoints.spectral_constants.hinted": tot["endpoints.spectral_constants.n"],
        "pade.centres": tot["pade.run_vault.n"],
    })
    return tot


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    spans_path, cli_args = argv[0], argv[2:]
    import hmcleod
    import hmcleod.cli
    from hmcleod.errors import HmcleodError

    t_import = time.perf_counter()
    tracer = Tracer(HmcleodError)
    install(tracer, hmcleod)
    rc = 1
    try:
        rc = hmcleod.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": t_import - T_START, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
