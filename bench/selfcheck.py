"""Show that each correctness check fails on a corrupted output.

    python3 bench/selfcheck.py [--seed N]

Run from the checkout root after ``bench/run.py`` has run every
workload with the same ``--seed`` (it reads the last round under
``.bench_out/<workload>/``).  For each workload the untouched outputs
must pass; then each corruption below changes one value (or one
consistent set of values) in a copy, and the check it targets must
report it.  Prints one line per corruption and exits 1 if any check
missed its corruption.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def edit_csv(path, index, column, fn):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[index][column] = fn(rows[index][column], rows[index])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def add(delta):
    return lambda v, row: repr(float(v) + delta)


def edit_json(path, fn):
    doc = json.loads(path.read_text(encoding="utf-8"))
    fn(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def other_cubic_root(v, row):
    """value_re of the genus-0 value on a different root of S^3 + xS - 2i."""
    x = complex(float(row["x_re"]), float(row["x_im"]))
    S = 2j * complex(float(v), float(row["value_im"]))
    other = max(np.roots([1.0, 0.0, x, -2j]), key=lambda r: abs(r - S))
    val = -1j * other / 2.0
    row["value_im"] = repr(float(val.imag))
    return repr(float(val.real))


def quartic_shift(doc, eps=1e-4):
    """Endpoints moved with e1, e2, e3 kept: only e4 of the quartic changes."""
    pts = [complex(*doc["endpoints"][n]) for n in "ABCD"]
    coeffs = np.poly(pts)
    coeffs[-1] += eps
    roots = list(np.roots(coeffs))
    for n, p in zip("ABCD", pts):
        r = min(roots, key=lambda z: abs(z - p))
        roots.remove(r)
        doc["endpoints"][n] = [float(r.real), float(r.imag)]


def corrupt_sampled_centre(d, seed, index, factor):
    """Scale u at the first centre the atlas check samples in its index-th atlas."""
    rng = workloads.sampler(seed)
    for i, call in enumerate(workloads.WORKLOADS["atlas"](seed)[0].calls):
        path = d / call.outputs[0]
        doc = json.loads(path.read_text(encoding="utf-8"))
        j = int(rng.choice(np.arange(1, len(doc["centers"])), size=12, replace=False)[0])
        if i == index:
            doc["centers"][j]["u"][0] *= factor
            path.write_text(json.dumps(doc), encoding="utf-8")
            return


def atlas_file(seed, index):
    return workloads.WORKLOADS["atlas"](seed)[0].calls[index].outputs[0]


def asym_as_num(d, k, rows):
    """Set the numeric value to the asymptotic one: zero error on those rows."""
    for i in rows:
        edit_csv(d / f"slice.csv.k{k}.csv", i, "num_re", lambda v, r: r["asym_re"])
        edit_csv(d / f"slice.csv.k{k}.csv", i, "num_im", lambda v, r: r["asym_im"])


def drop_centres_near(doc, y, radius):
    doc["centers"] = [c for c in doc["centers"] if abs(complex(*c["y"]) - y) > radius]


def shift_pole(doc, dx):
    doc["poles"][0][0] += dx


def corruptions(seed):
    """(workload, what the check must catch, mutate(outdir), expected message part)."""
    return [
        ("pole_free", "a failed row", lambda d: edit_csv(
            d / "real.csv.k1.csv", 3, "flag", lambda v, r: "NonConvergence"), "flagged"),
        ("pole_free", "genus-0 value off the cubic", lambda d: edit_csv(
            d / "real.csv.k2.csv", 10, "asym_re", add(1e-6)), "fails the cubic"),
        ("pole_free", "complex value on the real axis", lambda d: edit_csv(
            d / "real.csv.k1.csv", 5, "num_im", lambda v, r: "1e-6"), "is not real"),
        ("pole_free", "E(k) not falling", lambda d: edit_csv(
            d / "real.csv.k3.csv", 15, "num_re", add(0.2)), "does not fall"),
        ("pole_free", "grid value on another cubic root", lambda d: edit_csv(
            d / "grid.csv", 40, "value_re", other_cubic_root), "conj"),
        ("pole_free", "bvp node far out", lambda d: edit_csv(
            d / "bvp.0.csv", 5, "u_re", add(1e-7)), "neighbouring nodes"),
        ("pole_free", "bvp node in the ivp window", lambda d: edit_csv(
            d / "bvp.2.csv", 100, "uprime_re", add(1e-5)), "differ from solve_ivp"),
        ("atlas", "centre data off the ODE", lambda d: corrupt_sampled_centre(
            d, seed, 3, 1.0 + 1e-5), "differ from solve_ivp"),
        ("atlas", "uncovered window node", lambda d: edit_json(
            d / atlas_file(seed, 5),
            lambda doc: drop_centres_near(doc, complex(-8.0, 12.0), 1.3)),
         "from every centre"),
        ("atlas", "wrong alpha", lambda d: edit_json(
            d / atlas_file(seed, 0), lambda doc: doc.__setitem__("alpha", 2.5)), "alpha is"),
        ("pole_slice", "a failed row", lambda d: edit_csv(
            d / "slice.csv.k2.csv", 1, "flag", lambda v, r: "ThetaZero"), "flagged"),
        ("pole_slice", "error not shrinking", lambda d: edit_csv(
            d / "slice.csv.k3.csv", 2, "num_re", add(0.5)), "does not shrink"),
        ("pole_slice", "k * median error off", lambda d: asym_as_num(d, 1, range(4)),
         "factor 3"),
        ("pole_slice", "predicted pole moved by 0.3", lambda d: edit_json(
            d / "poles.json", lambda doc: shift_pole(doc, 0.3)), "poles:"),
        ("pole_slice", "no predicted pole", lambda d: edit_json(
            d / "poles.json", lambda doc: doc.__setitem__("poles", [])), "at least one"),
        ("cold_points", "moment condition", lambda d: edit_json(
            d / "endpoints.2.json",
            lambda doc: doc["endpoints"]["A"].__setitem__(0, doc["endpoints"]["A"][0] + 1e-6)),
         "e1 ="),
        ("cold_points", "Boutroux condition", lambda d: edit_json(
            d / "endpoints.3.json", quartic_shift), "Im int_"),
        ("cold_points", "Re B >= 0", lambda d: edit_json(
            d / "endpoints.4.json",
            lambda doc: doc["periods"]["B_period"].__setitem__(0, 0.5)), "Re B"),
        ("cold_points", "K off i pi + B/2", lambda d: edit_json(
            d / "endpoints.5.json",
            lambda doc: doc["periods"]["K"].__setitem__(1, doc["periods"]["K"][1] + 1e-9)),
         "K != "),
        ("cold_points", "Q off", lambda d: edit_json(
            d / "endpoints.0.json",
            lambda doc: doc["periods"]["Q"].__setitem__(0, doc["periods"]["Q"][0] + 1e-8)),
         "Q = "),
        ("cold_points", "mirror pair", lambda d: edit_json(
            d / "endpoints.1.json", lambda doc: quartic_shift(doc, 1e-6)), "mirror"),
    ]


def last_round(name):
    rounds = sorted((Path(".bench_out") / name).glob("round*"),
                    key=lambda p: int(p.name[5:]))
    return rounds[-1] if rounds else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    work = Path(".bench_out") / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    missed = 0
    checked = {}
    for i, (name, what, mutate, expect) in enumerate(corruptions(args.seed)):
        src = last_round(name)
        if src is None:
            print(f"skip   {name}: no outputs; run bench/run.py --workload {name} first")
            continue
        wl, _ = workloads.WORKLOADS[name](args.seed)
        checkdir = Path(".bench_out") / name / "check"
        if name not in checked:
            fails, _ = wl.check(src, workloads.sampler(args.seed), checkdir)
            checked[name] = not fails
            print(f"{'clean' if not fails else 'DIRTY'}  {name}: untouched outputs "
                  f"{'pass' if not fails else 'fail: ' + fails[0]}")
            missed += bool(fails)
        dst = work / f"{i:02d}_{name}"
        shutil.copytree(src, dst)
        mutate(dst)
        fails, _ = wl.check(dst, workloads.sampler(args.seed), checkdir)
        hit = [m for m in fails if expect in m]
        missed += not hit
        print(f"{'caught' if hit else 'MISSED'} {name}: {what}: "
              f"{hit[0] if hit else (fails[0] if fails else 'no failure reported')}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
