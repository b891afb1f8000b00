import importlib
import importlib.util
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "bench" / "launcher.py"

# LAYERS still names the deleted contour router; `bench/run.py --trace 1`
# fails on it until the benchmark drops that entry
UNRESOLVED = {"quadrature.route_path"}


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
