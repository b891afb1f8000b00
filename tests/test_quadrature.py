import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import quadrature as quad
from hmcleod import theta as th
from hmcleod.genus0 import _dist_to_segment
from hmcleod.errors import HmcleodError, NonConvergence, NonFinite


RULE = quad.QuadratureRule()


def test_unit_segment_constant():
    p = quad.Path((0.0, 1.0))
    val = quad.integrate_path(lambda w: np.ones_like(w), p, RULE)
    assert abs(val - 1.0) < 1e-13


def test_residue_on_unit_circle():
    # counterclockwise square around the origin is homotopic to the circle
    p = quad.Path((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j))
    val = quad.integrate_path(lambda w: 1.0 / w, p, RULE)
    assert abs(val - 2j * np.pi) < 1e-12


def test_polynomial_antiderivative():
    # int_0^(1+i) w^2 dw = (1+i)^3/3, frozen from the antiderivative w^3/3
    p = quad.Path((0.0, 1.0 + 1.0j))
    val = quad.integrate_path(lambda w: w ** 2, p, RULE)
    expected = (1.0 + 1.0j) ** 3 / 3.0
    assert abs(val - expected) < 1e-13


def test_path_reversal_negates():
    p = quad.Path((0.5 + 0.2j, 1.5 - 0.3j, 2.0 + 1.0j))
    f = lambda w: np.exp(w) / (w + 3.0)
    a = quad.integrate_path(f, p, RULE)
    b = quad.integrate_path(f, quad.Path(p.vertices[::-1]), RULE)
    assert abs(a + b) < 1e-12


def test_deformation_invariance():
    # two homotopic paths from 0 to 2 avoiding the pole at 1 + 0.2i
    f = lambda w: 1.0 / (w - (1.0 + 0.2j))
    p1 = quad.Path((0.0, 1.0 - 1.0j, 2.0))
    p2 = quad.Path((0.0, 0.5 - 0.4j, 1.5 - 0.7j, 2.0))
    a = quad.integrate_path(f, p1, RULE)
    b = quad.integrate_path(f, p2, RULE)
    assert abs(a - b) < 10 * (RULE.abs_tol + RULE.rel_tol * abs(a))


def test_closed_loop_entire_function_vanishes():
    p = quad.Path((2.0, 2.0j, -2.0, -2.0j, 2.0))
    val = quad.integrate_path(lambda w: np.exp(w) * (w ** 3 - 2.0 * w), p, RULE)
    assert abs(val) < 1e-12


def test_nonfinite_raises():
    p = quad.Path((-1.0, 1.0))
    with pytest.raises(NonFinite):
        quad.integrate_path(lambda w: np.full_like(w, np.nan), p, RULE)


def test_loop_collapses_to_cut_integral():
    # r^2 = (w-a)(w-b) cut on [a, b]: a closed path around the cut equals
    # -2 int_a^b f dw/r_plus, the identity behind the a-period
    a, b = -1.0 + 0.3j, 1.0 + 0.8j
    m, half = 0.5 * (a + b), 0.5 * (b - a)

    def f(w):
        t = (w - m) / half
        return w ** 2 / (half * np.sqrt(t - 1.0) * np.sqrt(t + 1.0))

    # counterclockwise rectangle 0.08 off the cut, in the frame of the cut
    u, c = half / abs(half), 0.08
    corners = [m + u * complex(x, y) for x, y in
               ((-abs(half) - c, -c), (abs(half) + c, -c),
                (abs(half) + c, c), (-abs(half) - c, c))]
    loop = quad.integrate_path(f, quad.Path(corners + corners[:1]), RULE)
    # plus-side boundary value along the cut via t = cos(theta):
    # r_plus = i*half*sin(theta), dw = half*dt
    theta, wt = quad.cheb_theta_nodes(400)
    w_nodes = m + half * np.cos(theta)
    cut = np.sum(wt * w_nodes ** 2) / 1j
    assert abs(loop - (-2.0) * cut) < 1e-9


def _beyond_a(e):
    """A point beyond A on band 1's line, 0.4 of the shortest chain segment from A."""
    seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
    return e.A - 0.4 * seg * (e.B - e.A) / abs(e.B - e.A)


def test_chain_router_avoids_cuts(pipe_refpoint, monkeypatch):
    # from beyond A to Q the straight segment crosses the gap
    e = pipe_refpoint.e
    chain = [(e.A, e.B), (e.B, e.C), (e.C, e.D)]
    router = ep.ChainRouter(e)
    start, end = _beyond_a(e), pipe_refpoint.periods.Q
    assert any(quad.segments_cross(start, end, p, q) for p, q in chain)
    path = router.path(start, end)
    assert path.vertices[0] == start and path.vertices[-1] == end
    assert len(path.segments()) > 1
    for a, b in path.segments():
        for p, q in chain:
            assert not quad.segments_cross(a, b, p, q)
    # a clear straight segment comes back as a single leg
    away = start - (e.B - e.A)
    assert router.path(start, away).vertices == (start, away)

    # the Upsilon path of the endpoint dump (z_far to A) and every H-field
    # path of jump_lambda (z_far to the cut midpoints), here and on a
    # folded chain whose end D lies 0.085 from B
    routed = []
    route = ep.ChainRouter.path

    def recording(self, a, b):
        path = route(self, a, b)
        routed.append((self, path))
        return path

    monkeypatch.setattr(ep.ChainRouter, "path", recording)
    for pipe in (pipe_refpoint, th.Genus1Pipeline(-6 - 10.4347826j)):
        pipe.upsilon_constants()
        ep.jump_lambda(pipe.e, pipe.constants)
    assert len(routed) >= 2 * (1 + 18)
    for router, path in routed:
        ends = router.ends
        for a, b in path.segments():
            assert not np.any(quad.segments_cross(a, b, ends[:-1], ends[1:]))
            # a leg's interior keeps min(c/2, half the distance from the
            # chain end to either end of the leg) from each chain end
            room = np.minimum(0.5 * router.c, 0.5 * np.minimum(abs(ends - a), abs(ends - b)))
            assert np.all(_dist_to_segment(ends, a, b) >= room)
    # some paths need the all-pairs table: two waypoints or more
    assert any(len(path.vertices) >= 4 for _, path in routed)


def test_abel_value_is_independent_of_the_routed_path(pipe_refpoint):
    # the closed-form A(Q) equals the integral from A out to three points
    # of a far circle and back to Q: dw/R is analytic off the chain and
    # O(1/w^2) at infinity, so no residue is picked up going round it.
    # The leg from A takes the substitution w = A + (s - A) t^2.  Below
    # the axis the closed form takes the detour's representative; above
    # it, the two differ by a lattice vector.
    for pipe in (pipe_refpoint, th.Genus1Pipeline(np.conj(pipe_refpoint.x))):
        e, pd, Q = pipe.e, pipe.periods, pipe.periods.Q
        start = _beyond_a(e)
        pts = np.array(e.points())
        center = pts.mean()
        radius = 4.0 * max(abs(pts - center)) + 2.0
        for psi in np.arange(24) * np.pi / 12:
            far = center + radius * np.exp(1j * (psi + 2 * np.pi / 3 * np.arange(3)))
            detour = quad.Path((start, *far, Q))
            if not any(np.any(quad.segments_cross(a, b, pts[:-1], pts[1:]))
                       for a, b in detour.segments()):
                break
        else:
            pytest.fail("no clear detour through the far circle")
        inv_r = lambda w: 1.0 / ep.R_eval(w, e, guard=False)
        leg = quad.integrate_path(
            lambda t: inv_r(e.A + (start - e.A) * t * t) * 2.0 * t * (start - e.A),
            quad.Path((0.0, 1.0)), ep.LEG_RULE)
        a_q = pd.nu * (leg + ep.integrate_leg(inv_r, detour, ep.LEG_RULE))
        diff = a_q - pipe.A_Q
        if pipe.x.imag > 0:
            diff = th.reduce_mod_lattice(diff, pd.B_period)
        # measured: 3.7e-13 below the axis and 6.8e-13 above it
        assert abs(diff) <= 1e-12 * max(1.0, abs(a_q))


def test_segments_cross_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(3)

    def points(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    a0, a1, b0, b1 = (points(200) for _ in range(4))
    d = points(20)
    # parallel, collinear (overlapping or not) and end-touching pairs
    a0 = np.r_[a0, d, d, d, d]
    a1 = np.r_[a1, d + 1, d + 1, d + 1, d + 1]
    b0 = np.r_[b0, d + 0.5j, d + 0.5, d + 2, d + 1]
    b1 = np.r_[b1, d + 1 + 0.5j, d + 1.5, d + 3, d + 1 + 1j]
    out = quad.segments_cross(a0, a1, b0, b1)
    scalar = [quad.segments_cross(*args) for args in zip(a0, a1, b0, b1)]
    assert out.dtype == bool and all(type(v) is bool for v in scalar)
    assert out.tolist() == scalar
    assert 0 < out.sum() < 200 and not out[200:].any()
    # broadcasting one segment against many
    assert quad.segments_cross(a0[:, None], a1[:, None], b0[:5], b1[:5]).tolist() == [
        [quad.segments_cross(p, q, u, v) for u, v in zip(b0[:5], b1[:5])]
        for p, q in zip(a0, a1)]


# --- the depth-first recursive rule, kept as the reference of the batched one ---

def _ref_panel(f, a, b):
    t, wt = quad._gl_nodes()
    pts = a + (b - a) * t
    vals = np.asarray(f(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NonFinite(f"integrand not finite near w={pts[~np.isfinite(vals)][0]}")
    return (b - a) * np.sum(wt * vals)


def _ref_adaptive(f, a, b, rule, depth=0, prev_err=np.inf, coarse=None):
    if coarse is None:
        coarse = _ref_panel(f, a, b)
    mid = 0.5 * (a + b)
    left, right = _ref_panel(f, a, mid), _ref_panel(f, mid, b)
    fine = left + right
    err = abs(fine - coarse)
    if err <= rule.abs_tol + rule.rel_tol * abs(fine):
        return fine
    if (depth >= 4 and err >= 0.9 * prev_err
            and err <= 300.0 * (rule.abs_tol + rule.rel_tol * abs(fine))):
        return fine
    if depth >= rule.max_depth:
        raise NonConvergence(
            f"adaptive bisection hit depth {rule.max_depth} on [{a}, {b}] (err~{err:.2e})")
    return (_ref_adaptive(f, a, mid, rule, depth + 1, err, left)
            + _ref_adaptive(f, mid, b, rule, depth + 1, err, right))


def _ref_integrate_path(f, path, rule):
    total = 0.0 + 0.0j
    for a, b in path.segments():
        total += _ref_adaptive(f, a, b, rule)
    return total


def _outcome(fn):
    """The value as its two floats, or the error as its type and message."""
    try:
        v = complex(fn())
    except HmcleodError as exc:
        return type(exc).__name__, str(exc)
    return v.real, v.imag


def _random_integrand(rng):
    # a rational part with poles near the plane's centre, times an exponential
    poles = rng.normal(size=3) + 1j * rng.normal(size=3)
    res = rng.normal(size=3) + 1j * rng.normal(size=3)
    alpha = complex(rng.normal(), rng.normal())
    return lambda w: sum(c / (w - p) for c, p in zip(res, poles)) * np.exp(alpha * w)


def test_batched_rule_matches_recursive_reference_bitwise():
    rng = np.random.default_rng(2024)
    rule = quad.QuadratureRule(max_depth=18)
    for _ in range(200):
        f = _random_integrand(rng)
        path = quad.Path(tuple(2.0 * (rng.normal(size=4) + 1j * rng.normal(size=4))))
        assert (_outcome(lambda: quad.integrate_path(f, path, rule))
                == _outcome(lambda: _ref_integrate_path(f, path, rule)))


def test_batched_paths_match_reference_path_by_path():
    rng = np.random.default_rng(7)
    f = _random_integrand(rng)
    paths = [quad.Path(tuple(1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))))
             for n in (2, 3, 5, 2)]
    ref = [_outcome(lambda: _ref_integrate_path(f, p, RULE)) for p in paths]
    got = quad.integrate_paths(f, paths, RULE)
    assert [(v.real, v.imag) for v in got] == ref


def test_deep_tree_matches_reference():
    # a pole 1e-6 off the segment forces some 20 levels of bisection
    calls = []

    def f(w):
        calls.append(1)
        return 1.0 / (w - (0.37 + 1e-6j))

    path = quad.Path((0.0, 1.0))
    rule = quad.QuadratureRule(max_depth=40)
    val = _outcome(lambda: quad.integrate_path(f, path, rule))
    assert len(calls) >= 15
    assert val == _outcome(lambda: _ref_integrate_path(f, path, rule))


def test_max_depth_and_nonfinite_errors_match_reference():
    near = lambda w: 1.0 / (w - (0.37 + 1e-6j))
    shallow = quad.QuadratureRule(max_depth=3)
    path = quad.Path((0.0, 1.0, 1.0 + 1.0j))
    ref = _outcome(lambda: _ref_integrate_path(near, path, shallow))
    assert ref[0] == "NonConvergence"
    with pytest.raises(NonConvergence):
        quad.integrate_path(near, path, shallow)
    assert _outcome(lambda: quad.integrate_path(near, path, shallow)) == ref
    # not finite on the second segment only
    hole = lambda w: np.where(w.imag > 0.5, np.nan, 1.0 / (w + 3.0))
    ref = _outcome(lambda: _ref_integrate_path(hole, path, RULE))
    assert ref[0] == "NonFinite"
    with pytest.raises(NonFinite):
        quad.integrate_path(hole, path, RULE)
    assert _outcome(lambda: quad.integrate_path(hole, path, RULE)) == ref
    # over several paths, the error is the first failing path's
    both = lambda w: near(w) + hole(w)
    paths = [quad.Path((0.0, 1.0)), quad.Path((1.0, 1.0 + 1.0j))]
    with pytest.raises(NonConvergence) as info:
        quad.integrate_paths(both, paths, shallow)
    assert str(info.value) == _outcome(lambda: _ref_integrate_path(both, paths[0], shallow))[1]
