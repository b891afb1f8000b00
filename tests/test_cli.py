import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hmcleod import cli, theta


def run(argv):
    return cli.main(argv)


def test_slice_real_axis(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["slice", "--k", "1", "--xmin", "-1", "--xmax", "1",
                "--samples", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_re,x_im,asym_re,asym_im,num_re,num_im,abs_err,flag"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[-1] == "ok"
    assert float(first[6]) < 0.3


def test_slice_x_zero_value(tmp_path):
    out = tmp_path / "s0.csv"
    run(["slice", "--k", "3", "--xmin", "0", "--xmax", "1", "--samples", "2",
         "--out", str(out)])
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(-(2.0 ** (-2.0 / 3.0)), abs=1e-9)


def test_slice_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["slice", "--k", "1", "--xmin", "-2", "--xmax", "2", "--samples", "7",
            "--seed", "4"]
    run(argv + ["--out", str(a)])
    run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_grid_smoke(tmp_path):
    out = tmp_path / "g.csv"
    code = run(["grid", "--k", "1", "--window", "-2", "2", "-2", "2",
                "--res", "8", "--quantity", "asymptotic", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_re,x_im,value_re,value_im"
    assert len(lines) == 65


def test_numeric_grid_skips_pole_mask(tmp_path, monkeypatch):
    # the numeric grid never reads the pole mask, so it must not compute one
    def no_mask(*args, **kwargs):
        raise AssertionError("pole mask computed for a numeric grid")

    monkeypatch.setattr(theta, "predict_poles", no_mask)
    out = tmp_path / "gn.csv"
    code = run(["grid", "--k", "1", "--window", "-1.45", "-1.35", "-3.6", "-3.5",
                "--res", "2", "--quantity", "numeric", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert all("nan" not in ln for ln in lines[1:])


@pytest.mark.parametrize("argv", [
    ["bvp", "--alpha", "1.5", "--step", "0.3"],
    ["poles", "--k", "2", "--window", "-4", "0", "-9.5", "-8.5", "--seed", "1"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_asymptotic_masks_predicted_poles(pipe_refpoint, pipeline_cache):
    # pipe_refpoint comes first: it must be a cold solve (exact Lambda) for
    # the session tests that read its spectral constants
    k = 3
    poles = theta.predict_poles((-2.5, -1.0, -9.4, -8.6), k, spacing=0.5,
                                cache=pipeline_cache, verify=False)
    harness = cli.Harness()
    harness._pipes = pipeline_cache
    assert harness.asymptotic(poles[0], k, poles=poles) == (None, "pole-mask")
    far = pipe_refpoint.x
    assert min(abs(far - q) for q in poles) > harness.delta / k ** (2.0 / 3.0)
    assert harness.asymptotic(far, k, poles=poles) == (pipeline_cache.get(far).value(k),
                                                       "genus1")


def test_boundary_contains_anchors(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["boundary", "--res", "50", "--out", str(out)]) == 0
    text = out.read_text()
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    tags = {r[2] for r in rows}
    assert {"apex", "x0", "arc", "branch_up", "branch_down", "ray_up", "ray_down"} <= tags
    x0_rows = [r for r in rows if r[2] == "x0"]
    assert abs(float(x0_rows[0][0]) + 1.588) <= 2e-3
    apex_rows = [r for r in rows if r[2] == "apex"]
    assert abs(float(apex_rows[0][0]) + 1.5) < 1e-9
    assert abs(abs(float(apex_rows[0][1])) - 2.598076211353316) < 1e-9


def test_poles_window_in_pole_free_region_fails(tmp_path):
    out = tmp_path / "p.json"
    code = run(["poles", "--k", "2", "--window", "0", "1", "-1", "1",
                "--out", str(out)])
    assert code == 1


def test_endpoints_dump(tmp_path):
    out = tmp_path / "e.json"
    assert run(["endpoints", "--x", "-1.5", "-10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["residual"] <= 1e-10
    assert doc["periods"]["B_period"][0] < 0
    e1 = sum(complex(*doc["endpoints"][n]) for n in "ABCD")
    assert abs(e1) <= 1e-10


def test_bvp_dump(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["bvp", "--alpha", "1.5", "--n-cheb", "80", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "y_re,y_im,u_re,u_im,uprime_re,uprime_im"
    assert len(lines) == 81


def test_vault_build(tmp_path):
    out = tmp_path / "atlas.json"
    assert run(["vault", "--k", "1", "--window", "0", "3", "0", "2",
                "--seed", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == 1 and doc["alpha"] == 1.5
    assert len(doc["centers"]) >= 1


_SCIPY_FREE_CALLS = """
import sys
from hmcleod import cli
out = sys.argv[1]
assert cli.main(["bvp", "--alpha", "1.5", "--n-cheb", "40", "--out", out + "/v.csv"]) == 0
assert cli.main(["endpoints", "--x", "-1.5", "-10", "--out", out + "/e.json"]) == 0
assert cli.main(["vault", "--k", "1", "--window", "0", "1", "0", "1", "--seed", "2",
                 "--out", out + "/a.json"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert cli.main(["boundary", "--res", "40", "--out", out + "/b.csv"]) == 0
"""


def test_only_boundary_loads_scipy(tmp_path):
    # a fresh interpreter: the test process itself may already hold scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_CALLS, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "b.csv").stat().st_size > 0
