"""Command-line front end: slices, grids, boundary traces, pole maps.

Subcommands emit plot-ready CSV/JSON only; no figure rendering here.
Exit codes: 0 on success, 2 when some sample points failed (rows are
kept with a reason flag; a pole-mask row is not a failure), 1 on fatal
errors.

This module holds the parser and ``main`` and imports no numpy: the
command bodies (``hmcleod.commands``) are loaded after the arguments
are parsed, so a bad flag or ``--help`` costs no numpy import, and a
command that solves no collocation system can start numpy with a
one-thread BLAS (``pins_blas_threads``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import HmcleodError


def _number_type(rule, test, convert):
    """argparse type: ``convert`` of the finite number given where ``test`` holds, else ``rule``."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if not test(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return convert(value)
    return parse


# sample counts, collocation nodes, the jet order (the Pade fit splits it
# in two halves), the vault's random seed, and the vault step and pole-mask
# radius
_COUNT = _number_type("must be an integer >= 1", lambda n: n.is_integer() and n >= 1, int)
_N_CHEB = _number_type("must be an integer >= 3", lambda n: n.is_integer() and n >= 3, int)
_TAYLOR_ORDER = _number_type("must be an even integer >= 2",
                             lambda n: n.is_integer() and n >= 2 and n % 2 == 0, int)
_SEED = _number_type("must be an integer >= 0", lambda n: n.is_integer() and n >= 0, int)
_POSITIVE = _number_type("must be > 0", lambda v: v > 0, float)
# coordinates, and the ends of the bvp segment, which must straddle Re y = 0
_FINITE = _number_type("must be a number", lambda v: True, float)
_Y1 = _number_type("y1 must be < 0", lambda y: y < 0, float)
_Y2 = _number_type("y2 must be > 0", lambda y: y > 0, float)


class _Window(argparse.Action):
    """RE_MIN RE_MAX IM_MIN IM_MAX, each minimum at most its maximum."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] > values[1] or values[2] > values[3]:
            raise argparse.ArgumentError(
                self, f"a minimum exceeds its maximum, got {' '.join(map(str, values))}")
        setattr(namespace, self.dest, values)


_SHARED_FLAGS = {
    "seed": {"type": _SEED, "default": 0},
    "n-cheb": {"type": _N_CHEB, "default": 200},
    "taylor-order": {"type": _TAYLOR_ORDER, "default": 24},
    "step": {"type": _POSITIVE, "default": 0.5},
    "delta": {"type": _POSITIVE, "default": 0.5},
    "window": {"type": _FINITE, "nargs": 4, "required": True, "action": _Window,
               "metavar": ("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX")},
}
# the Harness settings of the commands that build a collocation solution
# and a vault atlas
_HARNESS_FLAGS = ("seed", "n-cheb", "taylor-order", "step")


def _add_common(sp, alpha_min, *flags, nargs=None):
    """--k/--alpha, --out and the named flags of ``_SHARED_FLAGS``.

    --k K and --alpha A both set ``args.alpha`` (a list for ``nargs``
    "+"), to K + 1/2 or A, which must be finite and above ``alpha_min``:
    1/2 for the asymptotics (k > 0), -1/2 for vault and bvp.
    """
    def alpha_of(name, shift):
        return _number_type(f"{name} must be > {alpha_min - shift:g}",
                            lambda v: v + shift > alpha_min,
                            lambda v: v + shift if shift else v)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", help="parameter k (alpha = k + 1/2)", dest="alpha", metavar="K",
                       nargs=nargs, type=alpha_of("k", 0.5))
    group.add_argument("--alpha", help="inhomogeneity parameter alpha", nargs=nargs,
                       type=alpha_of("alpha", 0.0))
    for name in flags:
        sp.add_argument(f"--{name}", **_SHARED_FLAGS[name])
    sp.add_argument("--out", default="out.csv")


def build_parser():
    ap = argparse.ArgumentParser(prog="hmcleod",
                                 description="Generalized Hastings-McLeod asymptotics vs numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("slice", help="compare asymptotic and numeric values on a slice")
    _add_common(sp, 0.5, *_HARNESS_FLAGS, "delta", nargs="+")
    sp.add_argument("--slice", dest="mode", choices=["real", "horizontal"], default=None)
    sp.add_argument("--im", type=_FINITE, default=0.0, help="imaginary offset of the slice")
    sp.add_argument("--xmin", type=_FINITE, default=-3.0)
    sp.add_argument("--xmax", type=_FINITE, default=3.0)
    sp.add_argument("--samples", type=_COUNT, default=61)

    sp = sub.add_parser("grid", help="density-grid CSV over an x-window")
    _add_common(sp, 0.5, *_HARNESS_FLAGS, "delta", "window")
    sp.add_argument("--res", type=_COUNT, default=16)
    sp.add_argument("--quantity", choices=["asymptotic", "numeric", "error"],
                    default="asymptotic")

    sp = sub.add_parser("boundary", help="trace the pole-region boundary")
    sp.add_argument("--res", type=_COUNT, default=200)
    sp.add_argument("--out", default="boundary.csv")

    sp = sub.add_parser("poles", help="predicted poles of the asymptotic formula")
    _add_common(sp, 0.5, "delta", "window")

    sp = sub.add_parser("endpoints", help="dump the two-band data at one x as JSON")
    sp.add_argument("--x", type=_FINITE, nargs=2, required=True, metavar=("RE", "IM"))
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("vault", help="build and serialize a Pade atlas")
    _add_common(sp, -0.5, *_HARNESS_FLAGS)
    sp.add_argument("--window", help="window in the y-plane", **_SHARED_FLAGS["window"])

    sp = sub.add_parser("bvp", help="run the collocation solver, dump the grid")
    _add_common(sp, -0.5, "n-cheb")
    sp.add_argument("--y1", type=_Y1, default=-12.0)
    sp.add_argument("--y2", type=_Y2, default=12.0)
    sp.add_argument("--y-im", type=_FINITE, default=0.0)
    sp.add_argument("--allow-pole-region", action="store_true")
    return ap


def pins_blas_threads(args):
    """Whether the parsed command runs with a one-thread BLAS when run as the program.

    ``endpoints``, ``poles``, ``boundary`` and an asymptotic ``grid``
    solve no collocation system; their largest dense solve is 8 x 8,
    too small for BLAS to thread, and their output does not depend on
    the thread count.  The collocation solve of ``slice``, ``vault``,
    ``bvp`` and a numeric or error ``grid`` (198 x 198 at the default
    ``--n-cheb``) rounds differently when threaded, and those commands
    keep the default thread pool.
    """
    if args.command == "grid":
        return args.quantity == "asymptotic"
    return args.command in ("endpoints", "poles", "boundary")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "slice" and args.mode == "real" and args.im != 0.0:
        parser.error(f"--slice real lies on Im x = 0, got --im {args.im}")
    # OpenBLAS reads its thread count when numpy loads it; a user's own
    # OPENBLAS_NUM_THREADS wins, and in-process calls change nothing
    if argv is None and "numpy" not in sys.modules and pins_blas_threads(args):
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import commands
    try:
        code = getattr(commands, f"cmd_{args.command}")(args)
        if argv is None:
            sys.stdout.flush()    # a closed pipe shows here, not at shutdown
        return code
    except HmcleodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        if argv is not None:
            raise
        # the reader of stdout is gone (`| head`): end quietly, and let the
        # flush at shutdown write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def __getattr__(name):
    # hmcleod.cli.Harness stays reachable for tools that wrap its methods
    # (bench/launcher.py); it loads the command bodies on first use
    if name == "Harness":
        from .commands import Harness
        return Harness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
