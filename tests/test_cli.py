import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmcleod import cli, collocation, commands, genus0, pade, theta, x_from_y, y_from_x
from hmcleod.errors import (HmcleodError, NewtonDivergence, PathStall, TraceFailure, Uncovered,
                            WrongRegion)


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


def test_classification_failure_flags_only_its_row(tmp_path, monkeypatch):
    # a point whose branch continuation stalls gets its own flag; the
    # other rows keep the values of an unbroken run
    argv = ["slice", "--k", "1", "--xmin", "-1", "--xmax", "3", "--samples", "5"]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    assert run(argv + ["--out", str(good)]) == 0
    continue_from_zero = genus0._continue_from_zero

    def stall_at_two(pts):
        if 2.0 in pts:
            raise TraceFailure("branch continuation for S stalled")
        return continue_from_zero(pts)

    monkeypatch.setattr(genus0, "_continue_from_zero", stall_at_two)
    assert run(argv + ["--out", str(bad)]) == 2
    good_rows = good.read_text().strip().split("\n")
    bad_rows = bad.read_text().strip().split("\n")
    for g, b in zip(good_rows, bad_rows):
        if b.startswith("2.000000000000e+00,"):
            fields = b.split(",")
            assert fields[2:4] == ["nan", "nan"] and fields[-1] == "TraceFailure"
            assert fields[4:6] == g.split(",")[4:6]
        else:
            assert b == g
    grid = tmp_path / "g.csv"
    assert run(["grid", "--k", "1", "--window", "-1", "3", "-1", "1", "--res", "5",
                "--quantity", "asymptotic", "--out", str(grid)]) == 2
    nan_rows = [r for r in grid.read_text().strip().split("\n") if "nan" in r]
    assert nan_rows == ["2.000000000000e+00,0.000000000000e+00,nan,nan,TraceFailure"]


def test_masked_slice_rows_are_not_failures(tmp_path, monkeypatch):
    # a row inside the pole mask is flagged but exits 0; a failed row
    # still exits 2
    x = -4.85 - 9.0j
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [x])
    monkeypatch.setattr(commands.Harness, "atlas", lambda self, k, ys: None)
    monkeypatch.setattr(commands.Harness, "numeric", lambda self, x, k, atlas=None: 0j)
    out = tmp_path / "m.csv"
    argv = ["slice", "--k", "3", "--slice", "horizontal", "--im", "-9",
            "--xmin", "-4.85", "--xmax", "-4.85", "--samples", "1", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_text().strip().split("\n")[1].split(",")[-1] == "pole-mask"

    def fail(self, x, k, atlas=None):
        raise WrongRegion("no numeric value")

    monkeypatch.setattr(commands.Harness, "numeric", fail)
    assert run(argv) == 2


def test_pole_mask_window_reaches_the_mask_radius(tmp_path, monkeypatch):
    # the pole -3.9856 - 9.9475i lies 1.25-1.32 from the three rows, inside
    # the radius 1.5 at k = 1, but beyond the POLE_MARGIN of predict_poles:
    # the mask window's pad of 1.5 - POLE_MARGIN reaches it
    monkeypatch.setattr(commands.Harness, "atlas", lambda self, k, ys: None)
    monkeypatch.setattr(commands.Harness, "numeric", lambda self, x, k, atlas=None: 0j)
    out = tmp_path / "d.csv"
    assert run(["slice", "--k", "1", "--slice", "horizontal", "--im", "-9",
                "--xmin", "-4.9", "--xmax", "-4.8", "--samples", "3", "--delta", "1.5",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[-1] for row in rows] == ["pole-mask"] * 3


def test_grid_smoke(tmp_path):
    out = tmp_path / "g.csv"
    code = run(["grid", "--k", "1", "--window", "-2", "2", "-2", "2",
                "--res", "8", "--quantity", "asymptotic", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_re,x_im,value_re,value_im,flag"
    assert len(lines) == 65
    assert all(ln.endswith(",ok") for ln in lines[1:])


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
    ["poles", "--k", "0", "--window", "-5.0", "-4.55", "-9.2", "-8.8"],
    ["slice", "--k", "0", "--samples", "3"],
    ["poles", "--alpha", "0.5", "--window", "-5.0", "-4.55", "-9.2", "-8.8"],
    ["slice", "--alpha", "3.5", "0.5"],
    ["slice", "--alpha", "0.5"],
    ["slice", "--samples", "3"],
    ["grid", "--k", "-1", "--window", "-1", "1", "-1", "1", "--res", "3"],
    ["grid", "--k", "1", "2", "--window", "-1", "1", "-1", "1", "--res", "3"],
    ["poles", "--k", "2", "3", "--window", "-4", "0", "-9.5", "-8.5"],
    ["vault", "--k", "1", "2", "--window", "0", "1", "0", "1"],
    ["vault", "--alpha", "-0.5", "--window", "0", "1", "0", "1"],
    ["bvp", "--k", "1", "2"],
    ["bvp", "--k", "-1"],
    ["slice", "--k", "1", "--samples", "-1"],
    ["grid", "--k", "1", "--window", "-1", "1", "-1", "1", "--res", "-2"],
    ["boundary", "--res", "0"],
    ["bvp", "--k", "1", "--n-cheb", "1"],
    ["bvp", "--k", "1", "--n-cheb", "2"],
    ["vault", "--k", "1", "--window", "0", "1", "0", "1", "--taylor-order", "23"],
    ["slice", "--k", "1", "--im", "-9", "--taylor-order", "7"],
    ["vault", "--k", "1", "--window", "0", "1", "0", "1", "--step", "0"],
    ["poles", "--k", "1", "--window", "1", "-1", "-9", "-8"],
    ["grid", "--k", "1", "--window", "-1", "-3", "-9", "-8"],
    ["vault", "--k", "1", "--window", "0", "1", "0", "1", "--seed", "-1"],
    ["slice", "--k", "1", "--seed", "1.5"],
    ["poles", "--k", "1", "--window", "-1", "1", "-9", "-8", "--delta", "-1"],
    ["grid", "--k", "1", "--window", "-1", "1", "-1", "1", "--delta", "0"],
    ["vault", "--k", "1", "--window", "0", "1", "2", "-1"],
    ["vault", "--k", "1", "--window", "5", "1", "0", "1"],
    ["slice", "--k", "1", "--slice", "real", "--im", "-9", "--samples", "3"],
    ["slice", "--k", "inf", "--samples", "3"],
    ["bvp", "--alpha", "inf"],
])
def test_bad_k_or_alpha_is_an_argparse_error(argv, capsys):
    # a finite alpha > 1/2 (k > 0) for the asymptotics, > -1/2 (k > -1)
    # for vault and bvp, one k outside slice; counts >= 1, n-cheb >= 3,
    # an even taylor-order, a seed >= 0, a positive step and delta,
    # ordered window bounds, and no --im off a real slice
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _documented_pin(args, text):
    """Whether README's BLAS paragraph names the parsed call as pinned to one thread.

    The paragraph lists the pinned commands in backticks between "the CLI
    pins" and "to one BLAS thread"; an entry's flags must have the
    call's values.
    """
    listed = re.search(r"the CLI pins ((?:`[^`]+`|,|\s|and)+) to one BLAS thread", text).group(1)
    for entry in re.findall(r"`([^`]+)`", listed):
        command, *flags = entry.split()
        if command == args.command and all(
                str(getattr(args, flag.lstrip("-").replace("-", "_"))) == value
                for flag, value in zip(flags[::2], flags[1::2])):
            return True
    return False


def test_readme_cli_examples_parse(capsys):
    # every hmcleod call of README's sh blocks, with its backslash
    # continuations joined, parses with the current flags, and the CLI
    # pins its BLAS threads as README's BLAS paragraph says
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```sh")[1:]]
    calls = [line.split()[1:] for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.split()[:1] == ["hmcleod"]]
    assert len(calls) == 9
    pinned = []
    for argv in calls:
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README call does not parse: hmcleod {' '.join(argv)}\n"
                        f"{capsys.readouterr().err}")
        assert cli.pins_blas_threads(args) == _documented_pin(args, text), argv
        pinned.append(cli.pins_blas_threads(args))
    assert pinned.count(True) == 4


@pytest.mark.parametrize("argv, attr, value", [
    (["slice", "--alpha", "3.5"], "alpha", [3.5]),
    (["slice", "--k", "1", "3"], "alpha", [1.5, 3.5]),
    (["grid", "--alpha", "2.5", "--window", "-1", "1", "-1", "1"], "alpha", 2.5),
    (["vault", "--k", "0", "--window", "0", "1", "0", "1"], "alpha", 0.5),
    (["bvp", "--alpha", "0.2"], "alpha", 0.2),
    (["slice", "--k", "1", "2.5"], "alpha", [1.5, 3.0]),
    (["slice", "--alpha", "2.0"], "alpha", [2.0]),
    (["slice", "--alpha", "2", "3.5"], "alpha", [2.0, 3.5]),
    (["grid", "--k", "1.5", "--window", "-1", "1", "-1", "1"], "alpha", 2.0),
    (["poles", "--alpha", "3", "--window", "-1", "1", "-1", "1"], "alpha", 3.0),
    (["vault", "--k", "0.5", "--window", "0", "1", "0", "1"], "alpha", 1.0),
    (["bvp", "--k", "-0.25"], "alpha", 0.25),
])
def test_k_and_alpha_parse_to_one_value(argv, attr, value):
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, attr) == value and not hasattr(args, "k")


def test_k_and_alpha_write_the_same_files(tmp_path):
    # --k K is --alpha K + 1/2 on every command, at any k above the
    # command's bound; an integral k names its file and dumps as an int
    calls = [
        (["slice", "--xmin", "-1", "--xmax", "1", "--samples", "3", "--n-cheb", "40"],
         ["1", "1.5", "2.5"]),
        (["grid", "--window", "-1", "1", "-1", "1", "--res", "2"], ["1.5"]),
        (["poles", "--window", "-2.5", "-1", "-9.4", "-8.6"], ["3"]),
        (["vault", "--window", "0", "1", "0", "1", "--n-cheb", "40"], ["0.5"]),
        (["bvp", "--n-cheb", "40"], ["-0.25"]),
    ]
    for argv, ks in calls:
        outs = {flag: tmp_path / f"{argv[0]}{flag}" for flag in ("--k", "--alpha")}
        for flag, values in (("--k", ks), ("--alpha", [str(float(k) + 0.5) for k in ks])):
            outs[flag].mkdir()
            assert run(argv + [flag, *values, "--out", str(outs[flag] / "out")]) == 0
        files = sorted(path.name for path in outs["--k"].iterdir())
        assert files == sorted(path.name for path in outs["--alpha"].iterdir())
        assert all((outs["--k"] / name).read_bytes() == (outs["--alpha"] / name).read_bytes()
                   for name in files)
    assert sorted(path.name for path in (tmp_path / "slice--k").iterdir()) == [
        "out.k1.5.csv", "out.k1.csv", "out.k2.5.csv"]
    assert '"k": 3,' in (tmp_path / "poles--k" / "out").read_text()


def test_a_repeated_k_is_computed_and_written_once(tmp_path, capsys):
    # --k 1 1.0 names one k, so the file is named as for a single k;
    # distinct ks keep their order
    out = tmp_path / "out"
    argv = ["slice", "--xmin", "-1", "--xmax", "1", "--samples", "3", "--n-cheb", "40",
            "--out", str(out)]
    assert run(argv + ["--k", "1", "1.0"]) == 0
    assert capsys.readouterr().out == f"wrote {out} (3 rows)\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out"]
    assert run(argv + ["--k", "2", "1", "2"]) == 0
    assert capsys.readouterr().out == f"wrote {out}.k2.csv (3 rows)\nwrote {out}.k1.csv (3 rows)\n"


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
    k = 3
    poles = theta.predict_poles((-2.5, -1.0, -9.4, -8.6), k, cache=pipeline_cache)
    harness = commands.Harness()
    harness._pipes = pipeline_cache
    assert harness.asymptotic(poles[0], k, genus0.classify_and_value(poles[0]),
                              poles=poles) == (None, "pole-mask")
    far = pipe_refpoint.x
    assert min(abs(far - q) for q in poles) > harness.delta / k ** (2.0 / 3.0)
    assert harness.asymptotic(far, k, genus0.classify_and_value(far),
                              poles=poles) == (pipeline_cache.get(far).value(k), "genus1")


def test_upper_half_plane_matches_vault_reflection():
    # the ODE and its boundary data are real: at mirrored x the vault
    # values, the asymptotic values and their differences are conjugate.
    # Both halves share one vault and one pipeline, so they agree exactly.
    k = 2
    upper = [complex(xr, 9.0) for xr in (-1.6, -1.5, -1.4)]
    harness = commands.Harness(seed=1)
    halves = []
    for xs in (upper, [x.conjugate() for x in upper]):
        atlas = harness.atlas(k, [y_from_x(x, k) for x in xs])
        halves.append([(harness.asymptotic(x, k, genus0.classify_and_value(x))[0],
                        harness.numeric(x, k, atlas=atlas)) for x in xs])
    for (asym_up, num_up), (asym_dn, num_dn) in zip(*halves):
        assert num_up == np.conj(num_dn)
        assert asym_up == np.conj(asym_dn)


def _rows(path):
    lines = path.read_text().strip().split("\n")[1:]
    return [line.split(",") for line in lines]


def _assert_mirrored(row, mirror, conjugated):
    """Columns of ``conjugated`` are negated in ``mirror``; the others are equal."""
    for i, (a, b) in enumerate(zip(row, mirror)):
        if i in conjugated:
            assert float(a) == -float(b)
        else:
            assert a == b


def test_upper_slice_is_the_conjugate_of_the_mirrored_slice(tmp_path):
    argv = ["slice", "--k", "1", "3", "--xmin", "-4.9", "--xmax", "-4.8", "--samples", "3",
            "--seed", "1"]
    for im in ("9", "-9"):
        assert run(argv + ["--im", im, "--out", str(tmp_path / im)]) == 0
    for k in (1, 3):
        up, down = (_rows(tmp_path / f"{im}.k{k}.csv") for im in ("9", "-9"))
        assert len(up) == 3
        for row, mirror in zip(up, down):
            # x, asym and num are conjugates; abs_err and flag are equal
            _assert_mirrored(row, mirror, {1, 3, 5})


def test_upper_poles_are_the_conjugates_of_the_mirrored_window(tmp_path):
    for name, window in (("up", ["-2.5", "-2.0", "8.6", "9.0"]),
                         ("down", ["-2.5", "-2.0", "-9.0", "-8.6"])):
        assert run(["poles", "--k", "3", "--window", *window,
                    "--out", str(tmp_path / name)]) == 0
    up, down = (json.loads((tmp_path / name).read_text())["poles"] for name in ("up", "down"))
    assert len(up) == 2
    assert sorted(up) == sorted([re, -im] for re, im in down)


def test_grid_across_the_axis_mirrors_its_lower_rows(tmp_path):
    # the rows Im x = 4 are the conjugates of the rows Im x = -4, pole-region
    # points included: one vault and one set of pipelines serve both
    for quantity in ("error", "asymptotic", "numeric"):
        out = tmp_path / quantity
        assert run(["grid", "--k", "1", "--window", "-2", "-1", "-4", "4", "--res", "3",
                    "--quantity", quantity, "--seed", "1", "--out", str(out)]) == 0
        rows = _rows(out)
        assert not any(genus0.classify_region(complex(float(r[0]), float(r[1]))).pole_free
                       for r in rows[6:])
        for row, mirror in zip(rows[6:], rows[:3]):
            _assert_mirrored(row, mirror, {1, 3})


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


def test_poles_window_with_pole_free_corners_runs(tmp_path, monkeypatch):
    # the four corners are pole-free, but the window crosses the pole
    # region inside; the pole Newton itself is not under test here
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    out = tmp_path / "p.json"
    assert run(["poles", "--k", "2", "--window", "-3", "2", "2.5", "3.5",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["poles"] == []
    args = cli.build_parser().parse_args(["poles", "--k", "2", "--window", "0", "1", "-1", "1",
                                          "--out", str(out)])
    with pytest.raises(WrongRegion):
        commands.cmd_poles(args)


def test_grid_solves_each_point_at_most_twice(tmp_path, monkeypatch):
    # one batched classification and value pass: at most two cold solves
    # of S per point, and the roots of many points per root call
    cold, root_calls = [], []
    solve_S, cubic_roots = genus0.solve_S, genus0._cubic_roots

    def counting_solve(x):
        cold.append(np.size(x))
        return solve_S(x)

    def counting_roots(x):
        root_calls.append(1)
        return cubic_roots(x)

    monkeypatch.setattr(genus0, "solve_S", counting_solve)
    monkeypatch.setattr(genus0, "_cubic_roots", counting_roots)
    out = tmp_path / "g.csv"
    assert run(["grid", "--k", "2", "--window", "-1", "3", "-2", "2", "--res", "24",
                "--quantity", "asymptotic", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 577
    assert sum(cold) <= 2 * 576
    assert len(root_calls) < 100


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


def _child_env(**overrides):
    """os.environ with this checkout's src on PYTHONPATH, for a fresh interpreter.

    A keyword names a variable to set, or with None one to remove.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


_SCIPY_FREE_CALLS = """
import sys
from hmcleod import cli
out = sys.argv[1]
assert cli.main(["bvp", "--alpha", "1.5", "--n-cheb", "40", "--out", out + "/v.csv"]) == 0
assert cli.main(["endpoints", "--x", "-1.5", "-10", "--out", out + "/e.json"]) == 0
assert cli.main(["vault", "--k", "1", "--window", "0", "1", "0", "1", "--seed", "2",
                 "--out", out + "/a.json"]) == 0
assert cli.main(["boundary", "--res", "40", "--out", out + "/b.csv"]) == 0
assert cli.main(["poles", "--k", "3", "--window", "-5.0", "-4.55", "-9.2", "-8.8",
                 "--out", out + "/p.json"]) == 0
assert cli.main(["slice", "--k", "1", "--samples", "3", "--n-cheb", "40",
                 "--out", out + "/s.csv"]) == 0
assert cli.main(["grid", "--k", "2", "--window", "-1", "3", "-2", "2", "--res", "3",
                 "--out", out + "/g.csv"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter: the test process itself may already hold scipy
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_CALLS, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "b.csv").stat().st_size > 0


def test_a_closed_stdout_ends_the_program_quietly(tmp_path):
    # `hmcleod endpoints ... | head`: the reader is gone before the dump
    # is written, and the program exits 1 without a traceback
    proc = subprocess.Popen([sys.executable, "-m", "hmcleod.cli", "endpoints", "--x", "-1.5",
                             "-10"], cwd=tmp_path, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert err == ""


_GENUS1_FREE_CALLS = """
import sys
from hmcleod import cli
out = sys.argv[1]
assert cli.main(["bvp", "--alpha", "1.5", "--n-cheb", "40", "--out", out + "/v.csv"]) == 0
assert cli.main(["vault", "--k", "1", "--window", "0", "1", "0", "1", "--seed", "2",
                 "--out", out + "/a.json"]) == 0
assert cli.main(["slice", "--k", "1", "--samples", "3", "--n-cheb", "40",
                 "--out", out + "/s.csv"]) == 0
assert cli.main(["grid", "--k", "2", "--window", "-1", "3", "-2", "2", "--res", "3",
                 "--out", out + "/g.csv"]) == 0
loaded = [m for m in ("hmcleod.theta", "hmcleod.endpoints", "hmcleod.quadrature")
          if m in sys.modules]
assert not loaded, loaded
"""


def test_calls_without_genus1_values_load_no_genus1_module(tmp_path):
    # bvp, vault, a real-axis slice and a pole-free grid never import
    # theta, endpoints or quadrature; a fresh interpreter, as above
    proc = subprocess.run([sys.executable, "-c", _GENUS1_FREE_CALLS, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_vault_solves_its_anchor_at_its_own_alpha(tmp_path, monkeypatch):
    # (-0.46 - 0.5) + 0.5 != -0.46: the anchor BVP and the vault share alpha
    alphas = []
    solve_bvp, run_vault = collocation.solve_bvp, pade.run_vault

    def recording_solve(prob):
        alphas.append(("bvp", prob.alpha))
        return solve_bvp(prob)

    def recording_vault(window, anchor, alpha, cfg):
        alphas.append(("vault", alpha))
        return run_vault(window, anchor, alpha, cfg)

    monkeypatch.setattr(collocation, "solve_bvp", recording_solve)
    monkeypatch.setattr(pade, "run_vault", recording_vault)
    assert run(["vault", "--alpha", "-0.46", "--n-cheb", "40", "--window", "0", "1", "0", "1",
                "--out", str(tmp_path / "a.json")]) == 0
    assert alphas == [("bvp", -0.46), ("vault", -0.46)]


def test_pole_grid_is_classified_once_per_window(tmp_path, monkeypatch):
    # the k = 1, 2, 3 masks of a slice share one classified pole grid,
    # and poles classifies its grid once for its pole-free check and mask
    sizes = []
    classify_region = genus0.classify_region

    def counting_classify(x):
        sizes.append(np.size(x))
        return classify_region(x)

    monkeypatch.setattr(genus0, "classify_region", counting_classify)
    # the mask window pads the points by the k = 1 radius 0.5 less POLE_MARGIN
    pad = 0.5 - theta.POLE_MARGIN
    slice_nodes = theta.pole_grid((-4.9 - pad, -4.8 + pad, -9.0 - pad, -9.0 + pad)).size
    assert run(["slice", "--k", "1", "2", "3", "--slice", "horizontal", "--im", "-9",
                "--xmin", "-4.9", "--xmax", "-4.8", "--samples", "2",
                "--out", str(tmp_path / "s.csv")]) == 0
    assert sizes.count(slice_nodes) == 1
    sizes.clear()
    window = (-5.0, -4.55, -9.2, -8.8)
    assert run(["poles", "--k", "3", "--window", *map(str, window),
                "--out", str(tmp_path / "p.json")]) == 0
    assert sizes.count(theta.pole_grid(window).size) == 1


# --- the numeric worker of pole-region slices, and the serial loop -------

POLE_SLICE = ["slice", "--k", "1", "2", "3", "--slice", "horizontal", "--im", "-9",
              "--xmin", "-4.9", "--xmax", "-4.8", "--samples", "5", "--seed", "1"]
ERROR_GRID = ["grid", "--k", "2", "--window", "-1.7", "-1.3", "-9.2", "-8.8", "--res", "4",
              "--quantity", "error", "--seed", "1"]


def _reference_rows(harness, k, xs, regions, poles, atlas):
    """(rows of (x, asym, num, flag), failures) of one k, one point at a time."""
    rows, failures = [], 0
    for x, region in zip(xs, regions):
        asym = num = None
        flag = "ok"
        try:
            if isinstance(region, HmcleodError):
                raise region
            asym, _ = harness.asymptotic(x, k, region, poles=poles)
            flag = "ok" if asym is not None else "pole-mask"
        except HmcleodError as exc:
            flag = type(exc).__name__
        failed = flag not in ("ok", "pole-mask")
        try:
            num = harness.numeric(x, k, atlas=atlas)
        except HmcleodError as exc:
            flag = flag if flag != "ok" else type(exc).__name__
            failed = True
        failures += failed
        rows.append((x, asym, num, flag))
    return rows, failures


def _harness(args):
    return commands.Harness(seed=args.seed, n_cheb=args.n_cheb, taylor_order=args.taylor_order,
                            step=args.step, delta=args.delta)


def _reference_slice(argv):
    """The serial pole-region slice: mask, atlas and rows of one k after another."""
    args = cli.build_parser().parse_args(argv)
    xs = np.linspace(args.xmin, args.xmax, args.samples) + 1j * args.im
    harness = _harness(args)
    regions = commands._regions(xs)
    failures = 0
    ks = [commands._k_of(alpha) for alpha in args.alpha]
    pad = max(0.0, harness.mask_radius(min(ks)) - theta.POLE_MARGIN)
    window = (args.xmin - pad, args.xmax + pad, args.im - pad, args.im + pad)
    for k in ks:
        poles = harness.pole_mask(k, window) if commands._needs_pole_mask(regions) else None
        atlas = harness.atlas(k, [y_from_x(x, k) for x in xs])
        rows, failed = _reference_rows(harness, k, xs, regions, poles, atlas)
        failures += failed
        out = args.out if len(ks) == 1 else f"{args.out}.k{k}.csv"
        commands._write_rows(out, "x_re,x_im,asym_re,asym_im,num_re,num_im,abs_err,flag", [
            [*commands._fmt_pair(x), *commands._fmt_pair(a), *commands._fmt_pair(n),
             commands._fmt(abs(a - n) if a is not None and n is not None else None), flag]
            for x, a, n, flag in rows])
    return 2 if failures else 0


def _reference_error_grid(argv):
    """The serial pole-region error grid."""
    args = cli.build_parser().parse_args(argv)
    k = commands._k_of(args.alpha)
    re0, re1, im0, im1 = args.window
    pts = [complex(xr, xi) for xi in np.linspace(im0, im1, args.res)
           for xr in np.linspace(re0, re1, args.res)]
    harness = _harness(args)
    regions = commands._regions(pts)
    pad = max(0.0, harness.mask_radius(k) - theta.POLE_MARGIN)
    poles = harness.pole_mask(k, (re0 - pad, re1 + pad, im0 - pad, im1 + pad))
    atlas = harness.atlas(k, [y_from_x(x, k) for x in pts])
    rows, failures = _reference_rows(harness, k, pts, regions, poles, atlas)
    commands._write_rows(args.out, "x_re,x_im,value_re,value_im,flag", [
        [*commands._fmt_pair(x),
         *commands._fmt_pair(abs(a - n) if a is not None and n is not None else None), flag]
        for x, a, n, flag in rows])
    return 2 if failures else 0


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _slice_files(out):
    return [out.with_name(f"{out.name}.k{k}.csv") for k in (1, 2, 3)]


def test_pole_slice_matches_the_serial_loop(tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert run(POLE_SLICE + ["--out", str(new)]) == 0
    _assert_no_child_left()
    assert _reference_slice(POLE_SLICE + ["--out", str(ref)]) == 0
    for a, b in zip(_slice_files(new), _slice_files(ref)):
        assert a.read_bytes() == b.read_bytes()


def test_error_grid_matches_the_serial_loop(tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert run(ERROR_GRID + ["--out", str(new)]) == 0
    _assert_no_child_left()
    assert _reference_error_grid(ERROR_GRID + ["--out", str(ref)]) == 0
    assert new.read_bytes() == ref.read_bytes()
    assert "pole-mask" in new.read_text()


def test_vault_work_runs_in_one_forked_worker(tmp_path, monkeypatch):
    log = tmp_path / "pids"
    atlas = commands.Harness.atlas

    def logging_atlas(self, k, ys):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return atlas(self, k, ys)

    monkeypatch.setattr(commands.Harness, "atlas", logging_atlas)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    assert run(POLE_SLICE + ["--samples", "2", "--out", str(tmp_path / "s.csv")]) == 0
    pids = log.read_text().split()
    assert len(pids) == 3 and len(set(pids)) == 1 and int(pids[0]) != os.getpid()
    _assert_no_child_left()


@pytest.mark.parametrize("quantity", ["error", "numeric"])
def test_off_axis_grid_builds_its_atlas_in_one_forked_worker(quantity, tmp_path, monkeypatch):
    # an error grid builds its atlas in the worker, beside the asymptotic
    # values; a numeric grid has nothing to run beside it and forks no worker
    log = tmp_path / "pids"
    atlas = commands.Harness.atlas

    def logging_atlas(self, k, ys):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return atlas(self, k, ys)

    monkeypatch.setattr(commands.Harness, "atlas", logging_atlas)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    assert run(["grid", "--k", "2", "--window", "-1.7", "-1.3", "-9.2", "-8.8", "--res", "2",
                "--quantity", quantity, "--seed", "1", "--out", str(tmp_path / "g.csv")]) == 0
    pids = log.read_text().split()
    assert len(pids) == 1 and (int(pids[0]) == os.getpid()) == (quantity == "numeric")
    _assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ["slice", "--k", "1", "--im", "1e-12", "--xmin", "-1", "--xmax", "1", "--samples", "3"],
    ["grid", "--k", "1", "--window", "-1", "1", "1e-12", "1e-12", "--res", "3",
     "--quantity", "numeric"],
])
def test_points_at_im_1e_12_take_the_collocation_value(argv, tmp_path):
    # every numeric check takes |Im x| <= 1e-12 as the real axis: the
    # numeric values are the collocation values of the points at Im x = 0
    on, off = tmp_path / "on.csv", tmp_path / "off.csv"
    assert run(argv + ["--out", str(off)]) == 0
    zero = [a.replace("1e-12", "0") for a in argv]
    assert run(zero + ["--out", str(on)]) == 0
    col = slice(4, 6) if argv[0] == "slice" else slice(2, 4)
    rows = [[line.split(",") for line in f.read_text().strip().split("\n")[1:]] for f in (off, on)]
    assert [r[col] for r in rows[0]] == [r[col] for r in rows[1]]
    assert all(r[-1] == "ok" for r in rows[0])


def test_failed_vault_ends_the_slice_as_before(tmp_path, monkeypatch, capsys):
    # the k = 2 atlas stalls: k = 1 is written, then exit 1 with the
    # vault's own message, as in the serial loop
    run_vault = pade.run_vault

    def stall_at_k2(window, anchor, alpha, cfg):
        if alpha == 2.5:
            raise PathStall("vault stopped removing targets")
        return run_vault(window, anchor, alpha, cfg)

    monkeypatch.setattr(pade, "run_vault", stall_at_k2)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    argv = POLE_SLICE + ["--samples", "2"]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert run(argv + ["--out", str(new)]) == 1
    _assert_no_child_left()
    out, err = capsys.readouterr()
    assert err == "error: vault stopped removing targets\n"
    assert out == f"wrote {new}.k1.csv (2 rows)\n"
    with pytest.raises(PathStall, match="^vault stopped removing targets$"):
        commands.cmd_slice(cli.build_parser().parse_args(argv + ["--out", str(tmp_path / "x.csv")]))
    _assert_no_child_left()
    with pytest.raises(PathStall):
        _reference_slice(argv + ["--out", str(ref)])
    k1, k2, _ = _slice_files(new)
    assert k1.read_bytes() == _slice_files(ref)[0].read_bytes()
    assert not k2.exists()


def test_uncovered_point_flags_its_row_as_before(tmp_path, monkeypatch):
    evaluate = pade.evaluate
    first = complex(-4.9, -9.0)

    def uncovered_first(atlas, y):
        if abs(x_from_y(y, atlas.alpha - 0.5) - first) < 1e-9:
            raise Uncovered("nearest Pade center is far away")
        return evaluate(atlas, y)

    monkeypatch.setattr(pade, "evaluate", uncovered_first)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    argv = POLE_SLICE + ["--samples", "2"]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert run(argv + ["--out", str(new)]) == 2
    _assert_no_child_left()
    assert _reference_slice(argv + ["--out", str(ref)]) == 2
    for a, b in zip(_slice_files(new), _slice_files(ref)):
        assert a.read_bytes() == b.read_bytes()
        first_row, second_row = a.read_text().strip().split("\n")[1:]
        assert first_row.endswith(",nan,nan,nan,Uncovered") and second_row.endswith(",ok")


def test_failures_beside_the_worker_leave_no_child(tmp_path, monkeypatch, capsys):
    def no_mask(*args, **kwargs):
        raise WrongRegion("mask failed")

    monkeypatch.setattr(theta, "predict_poles", no_mask)
    assert run(POLE_SLICE + ["--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == "error: mask failed\n"
    _assert_no_child_left()

    def broken_vault(*args):
        raise ValueError("not a package error")

    # an error of another class comes out of the worker as itself
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    monkeypatch.setattr(pade, "run_vault", broken_vault)
    with pytest.raises(ValueError, match="^not a package error$"):
        run(POLE_SLICE + ["--out", str(tmp_path / "s.csv")])
    _assert_no_child_left()


def test_the_worker_inherits_the_harness(tmp_path, monkeypatch):
    # a task carries only its k: the harness with its anchors (about 1 MB
    # pickled) would overfill the pipe, and a failure beside the worker
    # could then hang the pool's terminate on a half-sent task
    def unpicklable(self):
        raise TypeError("a Harness is not sent to the worker")

    monkeypatch.setattr(commands.Harness, "__reduce__", unpicklable)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    assert run(POLE_SLICE + ["--samples", "2", "--out", str(tmp_path / "s.csv")]) == 0
    _assert_no_child_left()


def test_failed_anchor_ends_the_slice_as_before(tmp_path, monkeypatch, capsys):
    # the k = 2 anchor BVP diverges.  It is first solved before the fork,
    # yet, as in the serial loop, k = 1 is written, and a k = 1 mask
    # failure keeps its own error line
    solve_bvp = collocation.solve_bvp

    def diverge_at_k2(prob):
        if prob.alpha == 2.5:
            raise NewtonDivergence("collocation Newton diverged")
        return solve_bvp(prob)

    monkeypatch.setattr(collocation, "solve_bvp", diverge_at_k2)
    monkeypatch.setattr(theta, "predict_poles", lambda *args, **kwargs: [])
    argv = POLE_SLICE + ["--samples", "2"]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert run(argv + ["--out", str(new)]) == 1
    _assert_no_child_left()
    out, err = capsys.readouterr()
    with pytest.raises(NewtonDivergence) as failure:
        _reference_slice(argv + ["--out", str(ref)])
    assert err == f"error: {failure.value}\n"
    assert out == f"wrote {new}.k1.csv (2 rows)\n"
    k1, k2, _ = _slice_files(new)
    assert k1.read_bytes() == _slice_files(ref)[0].read_bytes()
    assert not k2.exists()

    def no_mask_at_k1(window, k, cache=None):
        if k == 1:
            raise WrongRegion("mask failed")
        return []

    monkeypatch.setattr(theta, "predict_poles", no_mask_at_k1)
    assert run(argv + ["--out", str(tmp_path / "m.csv")]) == 1
    _assert_no_child_left()
    assert capsys.readouterr() == ("", "error: mask failed\n")


# --- parse first: the BLAS thread rule and the modules each call loads ---

@pytest.mark.parametrize("argv, message", [
    (["--y1", "1", "--y2", "1"], "argument --y1: y1 must be < 0, got '1'"),
    (["--y1", "0"], "argument --y1: y1 must be < 0, got '0'"),
    (["--y2", "-3"], "argument --y2: y2 must be > 0, got '-3'"),
])
def test_bvp_segment_must_straddle_zero(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        run(["bvp", "--k", "1", *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_THREAD_RULE = """
import json, os, sys, types
from hmcleod import cli
# command bodies that do nothing, so that numpy stays unloaded
commands = types.ModuleType("hmcleod.commands")
for name in ("slice", "grid", "boundary", "poles", "endpoints", "vault", "bvp"):
    setattr(commands, "cmd_" + name, lambda args: 0)
sys.modules["hmcleod.commands"] = commands
seen = []
for argv in json.loads(sys.argv[1]):
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
    assert cli.main(argv) == 0
    in_process = os.environ.get("OPENBLAS_NUM_THREADS")
    sys.argv[1:] = argv
    assert cli.main() == 0
    seen.append([in_process, os.environ.get("OPENBLAS_NUM_THREADS")])
os.environ["OPENBLAS_NUM_THREADS"] = "2"
assert cli.main() == 0
seen.append(os.environ["OPENBLAS_NUM_THREADS"])
assert "numpy" not in sys.modules
import numpy
os.environ.pop("OPENBLAS_NUM_THREADS")
assert cli.main() == 0
seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
print(json.dumps(seen))
"""

UNIT_WINDOW = ["--window", "-1", "1", "-1", "1"]
THREAD_RULE_CALLS = [
    (["endpoints", "--x", "-1.5", "-10"], True),
    (["poles", "--k", "1", *UNIT_WINDOW], True),
    (["boundary"], True),
    (["grid", "--k", "1", *UNIT_WINDOW], True),
    (["grid", "--k", "1", *UNIT_WINDOW, "--quantity", "asymptotic"], True),
    (["grid", "--k", "1", *UNIT_WINDOW, "--quantity", "numeric"], False),
    (["grid", "--k", "1", *UNIT_WINDOW, "--quantity", "error"], False),
    (["slice", "--k", "1"], False),
    (["slice", "--k", "3", "--slice", "horizontal", "--im", "-9"], False),
    (["vault", "--k", "1", *UNIT_WINDOW], False),
    (["bvp", "--k", "1"], False),
]


def test_only_the_program_pins_blas_threads_of_calls_without_collocation():
    # run as the program, a call without a collocation solve sets
    # OPENBLAS_NUM_THREADS=1 before numpy loads; the user's own value
    # wins, and in-process calls and calls after numpy loaded set nothing
    calls = [argv for argv, _ in THREAD_RULE_CALLS]
    proc = subprocess.run([sys.executable, "-c", _THREAD_RULE, json.dumps(calls)],
                          env=_child_env(OPENBLAS_NUM_THREADS=None), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    *seen, user, after_numpy = json.loads(proc.stdout)
    assert seen == [[None, "1" if pinned else None] for _, pinned in THREAD_RULE_CALLS]
    assert user == "2" and after_numpy is None
    for argv, pinned in THREAD_RULE_CALLS:
        assert cli.pins_blas_threads(cli.build_parser().parse_args(argv)) == pinned


PINNED_CALLS = {
    "poles": ["poles", "--k", "3", "--window", "-5.0", "-4.55", "-9.2", "-8.8",
              "--out", "out.json"],
    "endpoints": ["endpoints", "--x", "-1.5", "-10", "--out", "out.json"],
    "grid": ["grid", "--k", "2", "--window", "-1.7", "-1.3", "-9.2", "-8.8", "--res", "3",
             "--quantity", "asymptotic", "--out", "out.csv"],
    "boundary": ["boundary", "--res", "40", "--out", "out.csv"],
}


@pytest.mark.parametrize("command", sorted(PINNED_CALLS))
def test_pinned_commands_write_the_same_bytes_at_any_thread_count(command, tmp_path):
    # the pinned default (one thread) against a user's two threads, each
    # call run as the program in a fresh interpreter
    argv = PINNED_CALLS[command]
    runs = []
    for threads in (None, "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        proc = subprocess.Popen([sys.executable, "-m", "hmcleod.cli", *argv], cwd=cwd,
                                env=_child_env(OPENBLAS_NUM_THREADS=threads),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs.append((cwd / argv[-1], proc))
    for _, proc in runs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    one, two = (out.read_bytes() for out, _ in runs)
    assert one and one == two


_PARSE_ONLY = """
import sys
from hmcleod import cli
codes = []
for argv in (["--help"], ["poles", "--help"], ["poles", "--k", "1", "--seed", "1"],
             ["bvp", "--k", "1", "--y1", "1"], ["frobnicate"]):
    try:
        cli.main(argv)
    except SystemExit as exc:
        codes.append(exc.code)
assert "numpy" not in sys.modules, "numpy loaded"
print(codes)
"""


def test_help_and_bad_flags_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", _PARSE_ONLY], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 2, 2, 2]"


_PINNED_WITHOUT_COLLOCATION = """
import sys
from hmcleod import cli
out = sys.argv[1]
assert cli.main(["endpoints", "--x", "-1.5", "-10", "--out", out + "/e.json"]) == 0
assert cli.main(["poles", "--k", "3", "--window", "-5.0", "-4.55", "-9.2", "-8.8",
                 "--out", out + "/p.json"]) == 0
loaded = [m for m in ("hmcleod.collocation", "hmcleod.pade") if m in sys.modules]
assert not loaded, loaded
from hmcleod import collocation

def no_solve(prob):
    raise AssertionError("a pinned command solved a collocation system")

collocation.solve_bvp = no_solve
assert cli.main(["boundary", "--res", "40", "--out", out + "/b.csv"]) == 0
assert cli.main(["grid", "--k", "2", "--window", "-1.7", "-1.3", "-9.2", "-8.8", "--res", "3",
                 "--out", out + "/g.csv"]) == 0
"""


def test_pinned_commands_run_no_collocation_solve(tmp_path):
    # endpoints and poles load neither collocation nor pade; boundary and
    # an asymptotic grid run with a solve_bvp that raises
    proc = subprocess.run([sys.executable, "-c", _PINNED_WITHOUT_COLLOCATION, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
