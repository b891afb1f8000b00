import numpy as np
import pytest

from hmcleod import endpoints as ep
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
    total = (-2.0) * ep.band_integral_inv(e, 1, f=lambda w: w ** 2 - c_up * pd.nu, m=256)
    assert abs(total) < 1e-10
    assert abs(th.f_offdiagonal(pd.Q, e)) <= 1e-10


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
        from hmcleod import quadrature as quad
        fI = lambda w: (w ** 2 - pd.c_upsilon * pd.nu) / ep.R_eval(w, e, guard=False) - 1.0
        seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
        u1 = (e.B - e.A) / abs(e.B - e.A)
        stage = e.A - 0.4 * seg * u1
        val = ep.integrate_leg(fI, quad.Path((e.A, stage)), ep.LEG_RULE, sqrt_start=True)
        path = abel.router.path(stage, z)
        val += ep.integrate_leg(fI, path, ep.LEG_RULE)
        i_up = val + (z - e.A)
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
    k = 3
    poles = th.predict_poles((-2.5, -1.0, -9.4, -8.6), k, spacing=0.5,
                             cache=pipeline_cache, verify=False)
    assert len(poles) >= 3
    # residual is tiny at each reported pole for one of the families
    for z in poles:
        pipe = pipeline_cache.get(z)
        r = min(abs(pipe.pole_residual(k, +1)), abs(pipe.pole_residual(k, -1)))
        assert r < 1e-7
    # in_Sk: a point sitting on a pole is excluded, a far point is not
    assert not th.in_Sk(poles[0], k, delta=0.5, cache=pipeline_cache)
    far = poles[0] + 0.5 * (poles[1] - poles[0])
    if min(abs(far - q) for q in poles) > 0.5 / k ** (2.0 / 3.0):
        assert th.in_Sk(far, k, delta=0.5, cache=pipeline_cache)


def test_failed_seed_does_not_abort_pole_search(monkeypatch):
    # each seed "converges" to a point next to it, except the first one
    calls = []

    def fake_newton(cache, x0, k, sign):
        calls.append(x0 + 0.01 * sign)
        if len(calls) == 1:
            raise NonFinite("integrand not finite")
        return calls[-1]

    monkeypatch.setattr(th, "_newton_pole", fake_newton)
    poles = th.predict_poles((-2.5, -1.0, -9.4, -8.6), 3, spacing=0.5,
                             cache=object(), verify=False)
    assert len(calls) == 16
    assert poles == sorted(calls[1:], key=lambda z: (z.real, z.imag))
    calls.clear()
    assert not th.in_Sk(-1.5 - 9.0j, 3, cache=object())


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
        def __init__(self, x, seed=None, **kwargs):
            self.x = complex(x)
            seeds.append((seed, kwargs.get("constants_hint")))

    class Solved:
        x, e, constants = -2.0 - 0.5j, "lower endpoints", "lower constants"

    monkeypatch.setattr(th, "Genus1Pipeline", Recorder)
    cache = th._PipelineCache()
    cache.solved[(-2.0, -0.5)] = Solved()
    cache.get(-2.0 + 0.5j)
    assert seeds == [(None, None)]
    cache.get(-2.0 - 1.0j)
    assert seeds[-1] == ("lower endpoints", "lower constants")
