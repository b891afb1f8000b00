import copy
import json

import numpy as np
import pytest

from hmcleod import cli, commands
from hmcleod import endpoints as ep
from hmcleod import genus0 as g0
from hmcleod import quadrature as quad
from hmcleod import theta as th
from hmcleod.errors import NonConvergence, NormalizationFailure, ThetaZero, WrongRegion
from polyline import chain_detour, integrate_polyline


@pytest.fixture(scope="module")
def periods(pipe_refpoint):
    return pipe_refpoint.periods


def test_theta_properties(periods):
    tp = th.ThetaParams(periods.B_period)
    B = periods.B_period
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = complex(2.5 * (rng.random() - 0.5), 2.5 * (rng.random() - 0.5))
        t0 = th.theta(z, tp)
        assert abs(th.theta(z + 2j * np.pi, tp) - t0) <= 1e-12 * abs(t0)
        quasi = np.exp(-B / 2.0) * np.exp(-z) * t0
        assert abs(th.theta(z + B, tp) - quasi) <= 1e-12 * abs(quasi)
        assert abs(th.theta(-z, tp) - t0) <= 1e-12 * abs(t0)


def test_theta_zero_at_riemann_constant(periods):
    tp = th.ThetaParams(periods.B_period)
    assert abs(th.theta(periods.K, tp)) <= 1e-12


def test_theta_params_requires_convergence():
    with pytest.raises(NormalizationFailure):
        th.ThetaParams(0.3 + 1.0j)


def test_log_theta_deriv_large_argument(periods):
    # stable ratio far along the lattice direction matches a shifted one
    B = periods.B_period
    z = 0.3 + 0.4j
    base = th.log_theta_deriv(z, B)
    assert abs(th.log_theta_deriv(z + 6 * B, B) - (base - 6.0)) < 1e-9
    assert abs(th.log_theta_deriv(z + 40.0, B)) < 40.0 / abs(B.real) + 5.0


def test_period_data_invariants(pipe_refpoint):
    pd = pipe_refpoint.periods
    assert pd.B_period.real < 0
    assert pd.K == 1j * np.pi + pd.B_period / 2.0
    e = pipe_refpoint.e
    A, B, C, D = e.points()
    assert abs(pd.Q - (B * D - A * C) / (B + D - A - C)) < 1e-13
    # normalized a-period of the second differential vanishes
    c_up = pd.c_upsilon
    w, dw, R = ep.segment_rule(e, ep.BAND1, 256)
    total = (-2.0) * np.sum(dw * (w ** 2 - c_up * pd.nu) / R)
    assert abs(total) < 1e-10
    assert abs(th.f_offdiagonal(pd.Q, e)) <= 1e-10


def test_pipeline_evaluates_each_segment_rule_once(pipe_refpoint, monkeypatch):
    # the Newton's accepted pass gives the band-1 and gap moments, so a
    # warm pipeline sums one segment, band 2, beyond its Newton's passes
    segments, passes = [], []
    rule, system = ep.segment_rule, ep._system
    monkeypatch.setattr(ep, "segment_rule", lambda e, seg, m: segments.append(seg) or rule(e, seg, m))
    monkeypatch.setattr(ep, "_system", lambda e, m: passes.append(m) or system(e, m))
    th.Genus1Pipeline(pipe_refpoint.x + 0.05, seed=pipe_refpoint.e)
    assert passes and segments == [ep.BAND1, ep.GAP] * len(passes) + [ep.BAND2]


def _closed_form(abel, z):
    return 2.0 * th.carlson_rf(*abel._arguments(z))


def _central_difference_sign(abel, z):
    """The sign that makes the closed form a primitive of 1/R_eval, by a central difference."""
    pts = abel.e.points()
    at = 1e3 * (1.0 + max(map(abs, pts))) if np.isinf(z) else z
    h = 1e-4 * min(abs(at - p) for p in pts)
    slope = (_closed_form(abel, at + h) - _closed_form(abel, at - h)) / (2.0 * h)
    return 1.0 if (slope * ep.R_eval(at, abel.e, guard=False)).real > 0 else -1.0


def test_abel_sign_matches_a_central_difference():
    # the sign that raw_integral reads from the closed form's derivative at
    # one point is the central difference's, at infinity and at 1,050 z
    # with |z| from 1e-2 to 1e3, on 7 chains
    rng = np.random.default_rng(43)
    for x in (-1.5 - 10j, -1.5 + 10j, -4.0 - 8j, 1.0 - 8j, 5.0 - 19j, -1.6 - 3.3j,
              -6 - 10.4347826j):
        abel = th.AbelMap(ep.solve_endpoints(x))
        r, turn = 10.0 ** rng.uniform(-2.0, 3.0, 150), rng.random(150)
        zs = [complex(np.inf), *map(complex, r * np.exp(2j * np.pi * turn))]
        for z, value in zip(zs, abel.raw_integral(zs)):
            assert value == _central_difference_sign(abel, z) * _closed_form(abel, z)


def test_abel_base_and_infinity(pipe_refpoint):
    pd, e = pipe_refpoint.periods, pipe_refpoint.e
    abel = th.AbelMap(e)
    # A(A) = 0: the map goes like sqrt(z - A) at its base
    near = pd.nu * abel.raw_integral([e.A + 1e-12 * (e.B - e.A)])[0]
    assert abs(near) < 1e-5
    # large-z limit approaches A_inf with residual ~ A_-1/z (modulo the lattice)
    for z in (40.0 + 25j, 80.0 + 50j):
        lhs = pd.nu * abel.raw_integral([z])[0]
        rhs = pd.A_inf + pd.A_minus1 / z
        assert abs(th.reduce_mod_lattice(lhs - rhs, pd.B_period)) < 10.0 / abs(z) ** 2


def test_abel_infinity_plus_Q_is_riemann_constant(pipe_refpoint):
    pd = pipe_refpoint.periods
    res = th.reduce_mod_lattice(pd.A_inf + pipe_refpoint.A_Q - pd.K, pd.B_period)
    assert abs(res) < 1e-9


def _integral_from_a(f, e, z):
    """int_A^z f dw for f with a square-root singularity at A.

    The leg from A to a point beyond A on band 1's line takes the
    substitution w = A + (s - A) t^2; a detour through a far circle goes
    on to z.
    """
    seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
    s = e.A - 0.4 * seg * (e.B - e.A) / abs(e.B - e.A)
    return integrate_polyline(f, (e.A, *chain_detour(e, s, z)), sqrt_start=True)


def test_large_z_fit_residuals_shrink(pipe_refpoint):
    # fit residuals for A_-1 and Upsilon_-1 drop like 1/z under doubling
    pd = pipe_refpoint.periods
    e = pipe_refpoint.e
    abel = th.AbelMap(e)
    upsilon0_const, upsilon_minus1 = pipe_refpoint.upsilon_constants()

    def abel_resid(z):
        lhs = pd.nu * abel.raw_integral([z])[0]
        return abs(th.reduce_mod_lattice(lhs - pd.A_inf - pd.A_minus1 / z, pd.B_period))

    def upsilon_resid(z):
        fI = lambda w: (w ** 2 - pd.c_upsilon * pd.nu) / ep.R_eval(w, e, guard=False) - 1.0
        i_up = _integral_from_a(fI, e, z) + (z - e.A)
        return abs((z - i_up) - upsilon0_const - upsilon_minus1 / z)

    z0 = 30.0 + 18j
    assert abel_resid(2 * z0) < 0.6 * abel_resid(z0)
    assert upsilon_resid(2 * z0) < 0.6 * upsilon_resid(z0)


def test_value_reduces_to_corner_without_shift(pipe_refpoint):
    # with a vanishing theta shift both log-derivative differences cancel
    # and only the endpoint (corner) term survives
    pd = pipe_refpoint.periods
    v_plus = pd.A_inf + pipe_refpoint.A_Q + pd.K
    v_minus = pd.A_inf - pipe_refpoint.A_Q - pd.K
    l22 = th.log_theta_deriv(v_plus + 0.0, pd.B_period) - th.log_theta_deriv(v_plus, pd.B_period)
    l12 = th.log_theta_deriv(v_minus + 0.0, pd.B_period) - th.log_theta_deriv(v_minus, pd.B_period)
    A, B, C, D = pipe_refpoint.e.points()
    corner = (B ** 2 + D ** 2 - A ** 2 - C ** 2) / (2.0 * (B + D - A - C))
    val = 1j * (pd.A_minus1 * (l22 - l12) - corner)
    assert abs(val - (-1j * corner)) < 1e-12


def test_genus1_value_cycle_invariance(pipe_refpoint):
    # moving A(Q) by a lattice vector 2 pi i a + B b leaves the value as it is
    base = pipe_refpoint.value(3)
    for da, db in ((1, 0), (0, 1), (-1, 1)):
        shifted = copy.copy(pipe_refpoint)
        shifted.A_Q += 2j * np.pi * da + pipe_refpoint.periods.B_period * db
        assert abs(shifted.value(3) - base) <= 1e-8


def test_pole_prediction_and_exclusion(pipeline_cache):
    # the mask built from these poles is tested in
    # test_cli::test_asymptotic_masks_predicted_poles
    k = 3
    poles = th.predict_poles((-2.5, -1.0, -9.4, -8.6), k, cache=pipeline_cache)
    assert len(poles) >= 3
    # residual is tiny at each reported pole for one of the families
    for z in poles:
        pipe = pipeline_cache.get(z)
        r = min(abs(pipe.pole_residual(k, +1)), abs(pipe.pole_residual(k, -1)))
        assert r < 1e-7


def test_failed_seed_does_not_abort_pole_search(pipeline_cache, monkeypatch):
    # one raising polish is skipped: every other seed "converges" to
    # itself and is kept
    seeds = []

    def fake_newton(cache, x0, k, sign, J):
        seeds.append(x0)
        if len(seeds) == 1:
            raise NonConvergence("endpoint Newton stalled")
        return x0

    monkeypatch.setattr(th, "_newton_pole", fake_newton)
    poles = th.predict_poles((-2.5, -1.0, -9.4, -8.6), 3, cache=pipeline_cache)
    assert len(seeds) >= 3
    kept = []
    for x0 in seeds[1:]:
        if all(abs(x0 - q) > 1e-4 for q in kept):
            kept.append(x0)
    assert poles == sorted(kept, key=lambda z: (z.real, z.imag))


def _one_cell_seeds(xs, cs):
    """Seeds and dc/dx of one grid triangle, one LAPACK call each: the reference."""
    dx = th._real2([xs[1] - xs[0], xs[2] - xs[0]])
    dc = np.array([cs[1] - cs[0], cs[2] - cs[0]]).T
    if abs(np.linalg.det(dc)) <= 1e-12 * np.abs(dc).max() ** 2:
        return [], None
    lo, hi = np.floor(np.min(cs, axis=0)), np.ceil(np.max(cs, axis=0))
    ints = np.stack(np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1)),
                    axis=-1).reshape(-1, 2)
    lam = np.linalg.solve(dc, (ints - cs[0]).T)
    inside = (lam[0] >= -1e-9) & (lam[1] >= -1e-9) & (lam[0] + lam[1] <= 1.0 + 1e-9)
    pre = dx @ lam[:, inside]
    seeds = [xs[0] + complex(a, b) for a, b in pre.T]
    return seeds, dc @ np.linalg.inv(dx)


def test_batched_cell_seeds_keep_the_bits_of_one_triangle_at_a_time(monkeypatch):
    # the triangles of the pole masks in tests/test_poles.py: the slice
    # mask window (k = 1, 2, 3), the small poles window and the README
    # window (k = 3), the stall test's window (k = 2), and one triangle
    # with a singular map
    batches = []
    cell_seeds = th._cell_seeds

    def recording(xs, cs):
        out = cell_seeds(xs, cs)
        batches.append((xs, cs, out))
        return out

    monkeypatch.setattr(th, "_cell_seeds", recording)
    for window, ks in (((-5.5, -4.2, -9.6, -8.4), (1, 2, 3)), ((-5.0, -4.55, -9.2, -8.8), (3,)),
                       ((-4.0, 0.0, -9.5, -8.5), (3,)), ((-2.7, -0.8, -9.65, -8.35), (2,))):
        cache = th._PipelineCache()
        for k in ks:
            th.predict_poles(window, k, cache=cache)
    recording([[0j, 1 + 0j, 1j]] * 2, [np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                                       np.array([[0.2, 0.1], [1.7, 0.4], [0.5, 1.9]])])
    triangles = seeded = singular = 0
    for xs, cs, (seeds, dcdx) in batches:
        assert len(seeds) == len(dcdx) == len(xs)
        for x, c, s, d in zip(xs, cs, seeds, dcdx):
            ref_seeds, ref_dcdx = _one_cell_seeds(x, c)
            triangles += 1
            if ref_dcdx is None:
                singular += 1
                assert d is None and s == []
                continue
            assert d.tobytes() == ref_dcdx.tobytes()
            assert (np.array(s, dtype=complex).tobytes()
                    == np.array(ref_seeds, dtype=complex).tobytes())
            seeded += bool(ref_seeds)
    assert triangles > 700 and seeded >= 20 and singular == 1


def test_excision_radius_scales():
    assert (0.5 / 6 ** (2.0 / 3.0)) == pytest.approx((0.5 / 3 ** (2.0 / 3.0)) * 2 ** (-2.0 / 3.0))


def test_theta_zero_guard(pipe_refpoint):
    pd = pipe_refpoint.periods
    with pytest.raises(ThetaZero):
        th.log_theta_deriv(pd.K, pd.B_period)


@pytest.mark.parametrize("x", [-4 + 8j, -3 + 9.5j, -2.5 + 6j, -4.85 + 9j])
def test_upper_half_plane_matches_reflection(x):
    # the ODE and its boundary data are real, so value(x) = conj(value(conj x))
    upper = th.Genus1Pipeline(x)
    lower = th.Genus1Pipeline(np.conj(x))
    for k in (1, 2, 3):
        assert abs(upper.value(k) - np.conj(lower.value(k))) <= 1e-9


def test_pipeline_cache_holds_no_upper_half_pipeline(tmp_path, monkeypatch):
    # an upper-half slice and a grid across the axis take every value
    # and pole above the axis from its mirror: no pipeline there is built
    caches = []

    class Recording(th._PipelineCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(th, "_PipelineCache", Recording)
    assert cli.main(["slice", "--k", "1", "--im", "9", "--xmin", "-4.9", "--xmax", "-4.8",
                     "--samples", "3", "--out", str(tmp_path / "s.csv")]) == 0
    assert cli.main(["grid", "--k", "1", "--window", "-2", "-1", "-4", "4", "--res", "3",
                     "--out", str(tmp_path / "g.csv")]) == 0
    assert len(caches) == 2 and all(cache.solved for cache in caches)
    assert all(pipe.x.imag <= 0 for cache in caches for pipe in cache.solved.values())
    with pytest.raises(WrongRegion):
        caches[0].get(-4.85 + 9j)


@pytest.mark.parametrize("x", [-2 - 9j, -3.2174 - 6.5217j])
def test_value_depends_on_x_alone(x, tmp_path, monkeypatch):
    # x's pipeline built alone, after a pole mask around x in the same
    # cache, and inside a slice call gives the same value to the bit
    alone = th._PipelineCache().get(x).value(2)
    cache = th._PipelineCache()
    th.predict_poles((x.real - 0.5, x.real + 0.5, x.imag - 0.5, x.imag + 0.5), 2, cache=cache)
    assert cache.get(x).value(2) == alone
    caches = []

    class Recording(th._PipelineCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(th, "_PipelineCache", Recording)
    monkeypatch.setattr(commands.Harness, "atlas", lambda self, k, ys: None)
    monkeypatch.setattr(commands.Harness, "numeric", lambda self, x, k, atlas=None: 0j)
    assert cli.main(["slice", "--k", "2", "--im", str(x.imag), "--xmin", str(x.real),
                     "--xmax", str(x.real), "--samples", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert x in caches[0].solved and caches[0].get(x).value(2) == alone


def test_cold_pipeline_builds_no_h_field(pipe_refpoint, monkeypatch):
    # only the endpoint dump's Lambda needs H
    def no_h_field(e, P):
        raise AssertionError("H evaluated for a pipeline")

    monkeypatch.setattr(ep, "H_at_end", no_h_field)
    pipe = th.Genus1Pipeline(pipe_refpoint.x)
    assert pipe.constants == pipe_refpoint.constants


def test_folded_chain_builds_a_router():
    # at this x the chain folds back on itself: D lies 0.085 from B
    x = -6 - 10.4347826j
    lower = th.Genus1Pipeline(x)
    upper = th.Genus1Pipeline(np.conj(x))
    assert np.max(np.abs(ep.residuals(lower.e))) <= 1e-10
    for k in (1, 2, 3):
        assert abs(lower.value(k) - np.conj(upper.value(k))) <= 1e-9


# the reference point, its mirror and a point 1e-2 inside the lower ray
@pytest.mark.parametrize("x", [-1.5 - 10j, -1.5 + 10j, -2.9913397459621542 - 5.201152422706632j])
def test_pipeline_integrates_along_no_path(x, monkeypatch):
    # A_inf and A(Q) come from the closed form: no leg, no path integral
    def no_path(*args, **kw):
        raise AssertionError("a pipeline integrated along a path")

    monkeypatch.setattr(ep, "end_leg", no_path)
    monkeypatch.setattr(quad, "leg_rule", no_path)
    pipe = th.Genus1Pipeline(x)
    assert np.isfinite(pipe.value(1))
    # A(Q) is the Abel map's own value at Q
    assert pipe.A_Q == pipe.periods.nu * th.AbelMap(pipe.e).raw_integral([pipe.periods.Q])[0]


# 1e-4 inside the branch of the pole-region boundary
@pytest.mark.parametrize("x", [9.097482855992114 - 18.799426547935568j,
                               11.266744571753476 - 22.399714783891273j])
def test_pipelines_build_next_to_the_branch(x):
    # the square-root leg of the routed Abel map rounded its first node
    # onto A, where R = 0, and met a non-finite integrand here
    pipe = th.Genus1Pipeline(x)
    assert np.isfinite(pipe.value(1))
    assert all(np.isfinite(c) for c in pipe.upsilon_constants())


def test_endpoints_dump_next_to_the_boundary(tmp_path):
    # the dump's Upsilon leg met the same non-finite integrand at this x
    out = tmp_path / "e.json"
    assert cli.main(["endpoints", "--x", "1.0935999587475598", "-6.078918103707684",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(np.isfinite(v) for v in doc["periods"]["Upsilon0_const"])


def _near_boundary_points():
    """Points 1e-4 and 1e-5 inside the lower ray and the curved branch of the boundary."""
    ray = g0._RAY_DIR_MINUS
    pts = []
    for d in (1e-4, 1e-5):
        pts += [pytest.param(complex(g0.APEX_MINUS + t * ray + d * 1j * ray), id=f"ray{t}-{d:g}")
                for t in (0.5, 2.0, 5.0, 10.0, 20.0)]
        for row in (-18.799426547935568, -14.0, -6.078918103707684):
            ray_re = g0.APEX_PLUS.real - (-row - g0.APEX_PLUS.imag) / np.sqrt(3.0)
            branch = g0._row_roots(row, ray_re + 1e-6, g0._BRANCH_RE_MAX)[0] + 1j * row
            pts.append(pytest.param(complex(branch - d), id=f"branch{row:.2f}-{d:g}"))
    return pts


@pytest.mark.parametrize("x", _near_boundary_points())
def test_pipelines_build_next_to_the_boundary(x, monkeypatch):
    # the band and gap sums are resolved at every separation: the pipeline,
    # Lambda and the Upsilon constants are finite, and the chain is the one
    # a cold 2048-node Newton finds (measured: 7.4e-10 at worst)
    pipe = th.Genus1Pipeline(x)
    assert np.isfinite(pipe.value(1))
    assert np.isfinite(ep.jump_lambda(pipe.e, pipe.constants))
    assert all(np.isfinite(c) for c in pipe.upsilon_constants())
    monkeypatch.setattr(ep, "adaptive_band_nodes", lambda e: 2048)
    reference = ep.solve_endpoints(x)
    assert max(abs(p - q) for p, q in zip(pipe.e.points(), reference.points())) <= 1e-9
