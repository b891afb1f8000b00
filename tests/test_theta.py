import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import quadrature as quad
from hmcleod import theta as th
from hmcleod.errors import NonFinite, NormalizationFailure, ThetaZero


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
    # the constants and the periods share the three t = cos(theta) rules
    # at the pipeline's node count; the seeded Newton uses its own count
    counts = []
    nodes = ep._theta_nodes
    monkeypatch.setattr(ep, "_theta_nodes", lambda m: counts.append(m) or nodes(m))
    ep.segment_rule.cache_clear()
    pipe = th.Genus1Pipeline(pipe_refpoint.x + 0.05, seed=pipe_refpoint.e)
    assert counts.count(ep.adaptive_band_nodes(pipe.e)) == 3


def test_abel_base_and_infinity(pipe_refpoint):
    pd = pipe_refpoint.periods
    abel = pipe_refpoint.abel
    assert abs(abel.value(pipe_refpoint.e.A)) == 0.0
    # large-z limit approaches A_inf with residual ~ A_-1/z
    for z in (40.0 + 25j, 80.0 + 50j):
        lhs = abel.value(z)
        rhs = pd.A_inf + pd.A_minus1 / z
        assert abs(lhs - rhs) < 10.0 / abs(z) ** 2


def test_abel_infinity_plus_Q_is_riemann_constant(pipe_refpoint):
    pd = pipe_refpoint.periods
    res = th.reduce_mod_lattice(pd.A_inf + pipe_refpoint.A_Q - pd.K, pd.B_period)
    assert abs(res) < 1e-9


def test_large_z_fit_residuals_shrink(pipe_refpoint):
    # fit residuals for A_-1 and Upsilon_-1 drop like 1/z under doubling
    pd = pipe_refpoint.periods
    e = pipe_refpoint.e
    abel = pipe_refpoint.abel
    upsilon0_const, upsilon_minus1 = pipe_refpoint.upsilon_constants()

    def abel_resid(z):
        return abs(abel.value(z) - pd.A_inf - pd.A_minus1 / z)

    def upsilon_resid(z):
        fI = lambda w: (w ** 2 - pd.c_upsilon * pd.nu) / ep.R_eval(w, e, guard=False) - 1.0
        i_up = abel.integral(fI, z) + (z - e.A)
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
    base = pipe_refpoint.value(3)
    for da, db in ((1, 0), (0, 1), (-1, 1)):
        assert abs(pipe_refpoint.value(3, a_cycles=da, b_cycles=db) - base) <= 1e-8


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
            raise NonFinite("integrand not finite")
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
    # window (k = 3), and one triangle with a singular map
    batches = []
    cell_seeds = th._cell_seeds

    def recording(xs, cs):
        out = cell_seeds(xs, cs)
        batches.append((xs, cs, out))
        return out

    monkeypatch.setattr(th, "_cell_seeds", recording)
    for window, ks in (((-5.5, -4.2, -9.6, -8.4), (1, 2, 3)), ((-5.0, -4.55, -9.2, -8.8), (3,)),
                       ((-4.0, 0.0, -9.5, -8.5), (3,))):
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


def test_pipeline_cache_hints_stay_in_their_half_plane(monkeypatch):
    # a solved lower pipeline 1.0 away from an upper x is not its seed
    seeds = []

    class Recorder:
        def __init__(self, x, seed=None):
            self.x = complex(x)
            seeds.append(seed)

    class Solved:
        x, e = -2.0 - 0.5j, "lower endpoints"

    monkeypatch.setattr(th, "Genus1Pipeline", Recorder)
    cache = th._PipelineCache()
    cache.add(Solved())
    cache.get(-2.0 + 0.5j)
    assert seeds == [None]
    cache.get(-2.0 - 1.0j)
    assert seeds[-1] == "lower endpoints"


def test_cold_pipeline_builds_no_h_field(pipe_refpoint, monkeypatch):
    # only the endpoint dump's Lambda needs the H field
    def no_h_field(e):
        raise AssertionError("H field built for a pipeline")

    monkeypatch.setattr(ep, "HField", no_h_field)
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


def test_pipeline_integrates_the_abel_stage_leg_once(pipe_refpoint, monkeypatch):
    # the square-root leg from A to the stage point serves both Abel paths,
    # to z_far and to Q, and A(Q) is the Abel map's own value at Q
    sqrt_legs = []
    integrate_path = quad.integrate_path

    def counting(f, path, rule=quad.DEFAULT_RULE, sqrt_start=False):
        sqrt_legs.append(sqrt_start)
        return integrate_path(f, path, rule, sqrt_start=sqrt_start)

    monkeypatch.setattr(quad, "integrate_path", counting)
    pipe = th.Genus1Pipeline(pipe_refpoint.x + 0.05, seed=pipe_refpoint.e)
    assert sqrt_legs.count(True) == 1
    assert pipe.A_Q == pipe.abel.value(pipe.periods.Q)
