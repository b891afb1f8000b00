"""The four workloads: the ``hmcleod`` calls of one round, and their checks.

A round is the workload's CLI calls, run one after another, each in a
fresh interpreter, exactly as the README runs them.  ``seed`` is the
benchmark's ``--seed``: it is the vault ``--seed`` of every call that
builds a Pade atlas and the seed of the checks' sampling.

An operation is one output row of ``slice`` and ``grid`` and one call of
``poles``, ``vault``, ``bvp`` and ``endpoints``.  A ``slice`` row flagged
``pole-mask`` lies in the method's excised domain around a predicted
pole; it is not a failure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

import checks

KS = (1, 2, 3)

# pole_slice: the Im x = -9 comparison, cut to a short stretch.  The
# slice's pole mask runs the pole Newton from a 0.45-spaced seed grid over
# the stretch padded by 0.6, so the stretch is kept under 0.15 wide (3 x 3
# seeds per sign and k).  Next to the ray boundary (Re x ~ -5.2 here) a
# third of those seeds lie in the pole-free region and fail fast: the
# stretch costs ~17 s for k = 1, 2, 3, against ~35 s near -1.5 - 10i.
SLICE_IM = -9.0
SLICE_RE = (-4.9, -4.8)
SLICE_SAMPLES = 5
POLES_WINDOW = (-5.0, -4.55, -9.2, -8.8)

# pole_free: the README real-axis slice at criterion 12's sampling, a
# pole-free grid symmetric about the real axis, and the README bvp for
# alpha = k + 1/2, k = 1, 2, 3.
REAL_RE = (-3.0, 3.0)
REAL_SAMPLES = 31
GRID_K = 2
GRID_WINDOW = (-1.0, 3.0, -2.0, 2.0)
GRID_RES = 24
BVP_ALPHAS = (1.5, 2.5, 3.5)

# atlas: per k, two vault builds whose random target orders differ.
ATLAS_SEED_OFFSETS = (0, 1)

# cold_points: one endpoints dump per point, each from a fresh process
# (apex bootstrap, full H-field pass, periods, Abel map).  Points 0 and
# 1 are a mirrored pair.
COLD_POINTS = (complex(-1.5, -10.0), complex(-1.5, 10.0), complex(-4.0, -8.0),
               complex(1.0, -8.0), complex(-3.0, -9.5), complex(-2.5, -6.0))
MIRROR_PAIRS = ((0, 1),)


def atlas_window(k):
    """y-window of a vault covering the Im x = -9 slice on -6 <= Re x <= 2 and its mirror."""
    ck = checks.scale(k)
    return (-6.0 * ck - 1.0, 6.0 * ck + 1.0, 0.0, -SLICE_IM * ck + 1.0)


def pole_atlas_window(k=3):
    """y-window of the check-only vault that surrounds the k = 3 predicted poles."""
    ck = checks.scale(k)
    re0, re1, im0, im1 = POLES_WINDOW
    return (-re1 * ck - 1.0, -re0 * ck + 1.0, 0.0, -im0 * ck + 1.0)


def _num(v):
    return repr(float(v))


@dataclass
class Call:
    """One CLI call: its arguments and how its operations are counted."""

    label: str
    argv: list
    kind: str                                  # slice, grid or single
    outputs: list = field(default_factory=list)
    rows: int = 1                              # operations per output file


@dataclass
class Workload:
    calls: list
    check: object                              # (outdir, rng, checkdir) -> (fails, figures)


def count_ops(call, outdir, rc):
    """(attempted, failed) operations of one finished call."""
    if call.kind == "single":
        ok = rc == 0 and all((outdir / f).is_file() for f in call.outputs)
        return 1, 0 if ok else 1
    attempted = call.rows * len(call.outputs)
    failed = 0
    for name in call.outputs:
        path = outdir / name
        if not path.is_file():
            failed += call.rows
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        failed += max(0, call.rows - len(rows))
        for r in rows[:call.rows]:
            if call.kind == "slice":
                failed += r["flag"] not in ("ok", "pole-mask")
            else:
                failed += not all(math.isfinite(float(r[c])) for c in ("value_re", "value_im"))
    return attempted, failed


def pole_slice(seed):
    calls = [
        Call("slice", ["slice", "--k", *map(str, KS), "--slice", "horizontal",
                       "--im", _num(SLICE_IM), "--xmin", _num(SLICE_RE[0]),
                       "--xmax", _num(SLICE_RE[1]), "--samples", str(SLICE_SAMPLES),
                       "--seed", str(seed), "--out", "slice.csv"],
             "slice", [f"slice.csv.k{k}.csv" for k in KS], SLICE_SAMPLES),
        Call("poles", ["poles", "--k", "3", "--window", *map(_num, POLES_WINDOW),
                       "--out", "poles.json"], "single", ["poles.json"]),
    ]
    # The numerical poles are located from a vault around the predicted
    # ones; it is built once per run for the check and is not timed.
    helper = ["vault", "--k", "3", "--window", *map(_num, pole_atlas_window()),
              "--seed", str(seed), "--out", "pole_atlas.json"]

    def check(outdir, rng, checkdir):
        return checks.check_pole_slice(outdir, rng, checkdir / "pole_atlas.json", KS, 3)

    return Workload(calls, check), helper


def pole_free(seed):
    calls = [
        Call("real", ["slice", "--k", *map(str, KS), "--xmin", _num(REAL_RE[0]),
                      "--xmax", _num(REAL_RE[1]), "--samples", str(REAL_SAMPLES),
                      "--seed", str(seed), "--out", "real.csv"],
             "slice", [f"real.csv.k{k}.csv" for k in KS], REAL_SAMPLES),
        Call("grid", ["grid", "--k", str(GRID_K), "--window", *map(_num, GRID_WINDOW),
                      "--res", str(GRID_RES), "--quantity", "asymptotic",
                      "--out", "grid.csv"], "grid", ["grid.csv"], GRID_RES * GRID_RES),
    ] + [
        Call(f"bvp{i}", ["bvp", "--alpha", _num(a), "--y1", "-12", "--y2", "12",
                         "--out", f"bvp.{i}.csv"], "single", [f"bvp.{i}.csv"])
        for i, a in enumerate(BVP_ALPHAS)
    ]

    def check(outdir, rng, checkdir):
        return checks.check_pole_free(outdir, rng, KS, BVP_ALPHAS)

    return Workload(calls, check), None


def atlas(seed):
    windows = {k: atlas_window(k) for k in KS}
    runs = [(k, seed + d) for k in KS for d in ATLAS_SEED_OFFSETS]
    calls = [Call(f"vault{k}.{s}", ["vault", "--k", str(k), "--window", *map(_num, windows[k]),
                                    "--seed", str(s), "--out", f"atlas.k{k}.s{s}.json"],
                  "single", [f"atlas.k{k}.s{s}.json"]) for k, s in runs]

    def check(outdir, rng, checkdir):
        return checks.check_atlas(outdir, rng, {f"atlas.k{k}.s{s}.json": (k, windows[k])
                                                for k, s in runs})

    return Workload(calls, check), None


def cold_points(seed):
    calls = [Call(f"endpoints{i}", ["endpoints", "--x", _num(x.real), _num(x.imag),
                                    "--out", f"endpoints.{i}.json"],
                  "single", [f"endpoints.{i}.json"]) for i, x in enumerate(COLD_POINTS)]

    def check(outdir, rng, checkdir):
        return checks.check_cold_points(outdir, rng, COLD_POINTS, MIRROR_PAIRS)

    return Workload(calls, check), None


# name -> seed -> (Workload, argv of a check-only call or None)
WORKLOADS = {"pole_slice": pole_slice, "pole_free": pole_free,
             "atlas": atlas, "cold_points": cold_points}


def sampler(seed):
    return np.random.default_rng([seed, 20240412])
