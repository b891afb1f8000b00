"""Benchmark of the ``hmcleod`` CLI: end-to-end run, traced run, checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``
and ``BENCHMARK.json``).  Each CLI call runs in a fresh interpreter, one
at a time (a closed loop with one client).  A run repeats whole rounds
of the workload's calls until ``--seconds`` have passed, checks the
outputs of every round, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median of three fresh interpreters that import
``hmcleod.cli`` and classify one point, which traces the region
boundary), ``wall_s`` (median over rounds of the round's summed call
wall time) and ``peak_rss_mb`` (median over rounds of the largest
resident set of a call).

``--trace 1`` runs one untraced round, then traced rounds through
``bench/launcher.py``, and reports the per-layer metrics of
BENCHMARK.json (medians over traced rounds) with the tracing overhead.

Outputs go to ``.bench_out/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import launcher  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
SETUP_CODE = ("import hmcleod.cli\n"
              "from hmcleod import genus0\n"
              "genus0.classify_region(complex(-1.5, -10.0))\n")
RUN_LIMIT_S = 170.0


class Runner:
    """Runs CLI calls in fresh interpreters and records wall time and peak RSS."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def run(self, argv, cwd, log):
        """(wall seconds, peak RSS in MB, exit code) of one child process."""
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            return 0.0, 0.0, -1
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            lock = threading.Lock()
            exited = []

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            killer = threading.Timer(budget, kill)
            killer.start()
            try:
                # Wait without reaping, so the timer never signals a reused pid.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - t0
                with lock:
                    exited.append(True)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli(self, args, cwd, log, spans=None):
        if spans is None:
            argv = [sys.executable, "-m", "hmcleod.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans), "--", *args]
        return self.run(argv, cwd, log)


def run_round(runner, wl, outdir, traced):
    """Run every call of the workload once; returns the round's record."""
    outdir.mkdir(parents=True)
    wall, rss, attempted, failed, spans = 0.0, 0.0, 0, 0, []
    for call in wl.calls:
        span_file = outdir / f"{call.label}.spans.json" if traced else None
        w, r, rc = runner.cli(call.argv, outdir, outdir / f"{call.label}.log", span_file)
        wall += w
        rss = max(rss, r)
        a, f = workloads.count_ops(call, outdir, rc)
        attempted += a
        failed += f
        if traced and span_file.is_file():
            spans.append(span_file)
    return {"dir": outdir, "wall": wall, "rss": rss, "attempted": attempted,
            "failed": failed, "spans": spans}


def check_round(wl, rec, seed, checkdir):
    """Failures found by the workload's checks in one round's outputs."""
    if rec["failed"]:
        return [], {}  # the checks speak of operations that did not fail
    try:
        fails, figures = wl.check(rec["dir"], workloads.sampler(seed), checkdir)
    except (OSError, KeyError, ValueError, ArithmeticError) as exc:
        return [f"{type(exc).__name__}: {exc}"], {}
    return fails, figures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--figures", action="store_true",
                    help="also print the checks' reference figures as JSON on stderr")
    args = ap.parse_args(argv)

    # A terminated run still kills and reaps the call it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "hmcleod" / "cli.py").is_file():
        print("error: run from a checkout root holding src/hmcleod", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.monotonic()
    runner = Runner(root, start + RUN_LIMIT_S)
    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl, helper = workloads.WORKLOADS[args.workload](args.seed)

    values = {}
    rounds = []
    if args.trace:
        base = run_round(runner, wl, out / "untraced", traced=False)
        rounds.append(base)
    else:
        setup = [runner.run([sys.executable, "-c", SETUP_CODE], out, out / f"setup{i}.log")
                 for i in range(SETUP_PROBES)]
        if any(rc != 0 for _, _, rc in setup):
            print("error: set-up probe failed, see .bench_out logs", file=sys.stderr)
            return 1
        values["setup_s"] = statistics.median(w for w, _, _ in setup)
    measured = []
    t0 = time.monotonic()
    while True:
        rec = run_round(runner, wl, out / f"round{len(rounds)}", traced=bool(args.trace))
        rounds.append(rec)
        measured.append(rec)
        if time.monotonic() - t0 >= args.seconds or time.monotonic() >= runner.deadline:
            break

    checkdir = out / "check"
    checkdir.mkdir()
    if helper is not None:
        runner.cli(helper, checkdir, checkdir / "helper.log")
    failures, figures = [], None
    for rec in rounds:
        fails, figs = check_round(wl, rec, args.seed, checkdir)
        failures += [f"{rec['dir'].name}: {m}" for m in fails]
        figures = figures or figs
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.figures:
        print(json.dumps(figures, default=str, indent=1), file=sys.stderr)

    if args.trace:
        layers = [launcher.aggregate(rec["spans"]) for rec in measured]
        values.update({key: statistics.median(l[key] for l in layers) for key in layers[0]})
        traced_wall = statistics.median(rec["wall"] for rec in measured)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - base["wall"]
        values["trace.overhead_share"] = (traced_wall - base["wall"]) / base["wall"]
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = statistics.median(rec["wall"] for rec in measured)
        values["peak_rss_mb"] = statistics.median(rec["rss"] for rec in measured)
        wanted = spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": sum(rec["attempted"] for rec in rounds),
        "failed": sum(rec["failed"] for rec in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
