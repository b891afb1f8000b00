import warnings

import numpy as np
import pytest

from hmcleod import genus0 as g0
from hmcleod import x_from_y
from hmcleod.errors import OnCut, OnCutWarning, TraceFailure, WrongRegion

CBRT2 = 2.0 ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# reference: S by continuation from S(0) along [0, x], one point at a time
# ---------------------------------------------------------------------------

def _ref_solve_S(x, hint=None):
    """S(x) one point at a time, with np.roots; the batched kernel must match its bits."""
    def roots_at(v):
        return np.roots([1.0, 0.0, v, -2.0j])

    def polish(S, v):
        for _ in range(2):
            S = S - (S ** 3 + v * S - 2.0j) / (3.0 * S ** 2 + v)
        return S

    x = complex(x)
    dist = min(g0.dist_to_ray(x, g0.APEX_PLUS, g0._RAY_DIR_PLUS),
               g0.dist_to_ray(x, g0.APEX_MINUS, g0._RAY_DIR_MINUS))
    if dist < 1e-10 and abs(x) >= 3.0 - 1e-10:
        warnings.warn("x lies on the branch cut of S", OnCutWarning)
        ray = g0._RAY_DIR_PLUS if x.imag > 0 else g0._RAY_DIR_MINUS
        x = x + 1e-12 * (1.0 + abs(x)) * (1j * ray)
    if hint is not None:
        roots = roots_at(x)
        return polish(roots[np.argmin(np.abs(roots - hint))], x)
    S = -1j * 2.0 ** (1.0 / 3.0)
    if x == 0:
        return S
    t = 0.0
    while t < 1.0:
        x_here = t * x
        dS = -S / (3.0 * S ** 2 + x_here)
        roots = roots_at(x_here)
        sep = min(abs(r - S) for r in roots if abs(r - S) > 1e-14)
        dt_max = 0.2 * sep / (abs(dS) * abs(x) + 1e-300)
        dt = min(1.0 - t, max(dt_max, 1e-6), 0.5)
        t_new = t + dt
        pred = S + dS * (x * dt)
        roots = roots_at(t_new * x)
        S = roots[np.argmin(np.abs(roots - pred))]
        t = t_new
    return polish(S, x)


def _bits(z):
    """The bit patterns of complex values, so that -0.0 differs from 0.0."""
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(np.int64)


def _assert_batch_matches_reference(xs):
    xs = np.asarray(xs, dtype=complex)
    ref = [_ref_solve_S(x) for x in xs]
    got = g0.solve_S(xs)
    assert got.shape == xs.shape
    assert np.array_equal(_bits(got), _bits(ref))


POLE_FREE_GRID = [complex(xr, xi) for xi in np.linspace(-2.0, 2.0, 24)
                  for xr in np.linspace(-1.0, 3.0, 24)]


def cubic_residual(S, x):
    return abs(S ** 3 + x * S - 2.0j)


def test_batched_solve_matches_reference_on_the_pole_free_grid():
    _assert_batch_matches_reference(POLE_FREE_GRID)


def test_batched_solve_matches_reference_on_random_points():
    rng = np.random.default_rng(37)
    xs = rng.uniform(-12.0, 12.0, 3000) + 1j * rng.uniform(-12.0, 12.0, 3000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        _assert_batch_matches_reference(xs)


def test_batched_solve_matches_reference_on_the_real_axis():
    xs = np.concatenate([[0.0, -0.0], np.linspace(-3.0, 3.0, 61), np.linspace(0.0, 3.0, 40)])
    _assert_batch_matches_reference(xs)
    # signed zeros in the parts of x
    _assert_batch_matches_reference([complex(2.0, -0.0), complex(-2.0, -0.0),
                                     complex(-0.0, 1.5), complex(-0.0, -1.5)])
    assert g0.solve_S(0.0) == -1j * CBRT2


def test_batched_solve_nudges_points_on_the_cut_like_the_reference():
    ts = np.linspace(0.0, 20.0, 41)
    on_ray = np.concatenate([g0.APEX_PLUS + ts * g0._RAY_DIR_PLUS,
                             g0.APEX_MINUS + ts * g0._RAY_DIR_MINUS])
    side = np.repeat([1j * g0._RAY_DIR_PLUS, 1j * g0._RAY_DIR_MINUS], 41)
    near = on_ray + 0.9e-10 * side
    for xs in (on_ray, near, np.conj(near)):
        with pytest.warns(OnCutWarning):
            _assert_batch_matches_reference(xs)
    # a point 1e-9 off the ray is not nudged
    with warnings.catch_warnings():
        warnings.simplefilter("error", OnCutWarning)
        g0.solve_S(on_ray[10:11] + 1e-9 * side[10:11])


def test_scalar_solve_is_the_one_point_batch():
    for x in [1.3 - 0.7j, -4.0 + 5.0j, 0.0, 3.0, complex(-2.0, -0.0)]:
        assert _bits(g0.solve_S(x)).tolist() == _bits(_ref_solve_S(x)).tolist()
    assert np.ndim(g0.solve_S(1.0)) == 0
    assert g0.solve_S(np.ones((2, 3))).shape == (2, 3)
    assert g0.solve_S([]).shape == (0,)


def test_cubic_roots_match_np_roots():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-20.0, 20.0, 2000) + 1j * rng.uniform(-20.0, 20.0, 2000)
    ref = [np.roots([1.0, 0.0, x, -2.0j]) for x in xs]
    assert np.array_equal(_bits(g0._cubic_roots(xs)), _bits(ref))


def test_batched_solve_matches_reference_in_the_disk_of_radius_40():
    rng = np.random.default_rng(41)
    xs = 40.0 * np.sqrt(rng.uniform(0.0, 1.0, 2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    _assert_batch_matches_reference(xs)


def test_batched_solve_matches_reference_beside_the_rays():
    # offsets from 1e-11 (nudged onto the left side) to 0.1 on either side
    # of both rays of Sigma_S, out to |x| = 40
    ts = np.linspace(0.0, 37.0, 20)
    xs = [apex + ts * ray + sign * offset * 1j * ray
          for apex, ray in ((g0.APEX_PLUS, g0._RAY_DIR_PLUS), (g0.APEX_MINUS, g0._RAY_DIR_MINUS))
          for sign in (1.0, -1.0) for offset in np.logspace(-11, -1, 11)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        _assert_batch_matches_reference(np.concatenate(xs))


def test_batched_solve_matches_reference_near_the_branch_points():
    # the apexes are branch points of S; at x = 3 the two other roots meet
    angles = np.linspace(-np.pi, np.pi, 24, endpoint=False) + 0.01
    xs = [centre + dist * np.exp(1j * angles) for centre in (g0.APEX_PLUS, g0.APEX_MINUS, 3.0)
          for dist in np.logspace(-14, np.log10(0.3), 14)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        _assert_batch_matches_reference(np.concatenate(xs))


@pytest.mark.parametrize("radius", [1e8, 1e12, 1e50])
def test_branch_far_from_the_origin(radius):
    # S ~ -i sqrt(x) left of the rays of Sigma_S, S ~ 2i/x beyond them
    angles = (np.arange(720) + 0.5) * np.pi / 360.0 - np.pi
    xs = radius * np.exp(1j * angles)
    want = np.where(np.abs(angles) < 2.0 * np.pi / 3.0, -1j * np.sqrt(xs), 2j / xs)
    assert np.all(np.abs(g0.solve_S(xs) - want) <= 1e-3 * np.abs(want))


def test_solve_S_out_of_range_is_a_trace_failure():
    # (x/3)^3 overflows from |x| ~ 1.7e103: no root is picked from NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in [1e104, -2e103j, complex(1e300, 1.0), [1.0, 1e200]]:
            with pytest.raises(TraceFailure):
                g0.solve_S(x)
        assert g0.solve_S(-1.6e103) == pytest.approx(2j / -1.6e103, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.5])
def test_chain_matches_successive_hinted_solves(alpha):
    # the collocation seed: solve_S on the Chebyshev nodes of [-12, 12]
    # gives the bits of the branch followed from node to node
    k = alpha - 0.5
    ys = 12.0 * np.cos(np.arange(200) * np.pi / 199) + 0j
    xs = [x_from_y(y, k) for y in ys]
    ref, hint = [], None
    for x in xs:
        hint = _ref_solve_S(x, hint=hint)
        ref.append(hint)
    assert np.array_equal(_bits(g0.solve_S(xs)), _bits(ref))


def test_solve_S_anchor_values():
    # x = 0: largest real root of T^3 - 2 = 0 is 2^(1/3), S = -i T
    assert abs(g0.solve_S(0.0) - (-1j * CBRT2)) < 1e-14
    # x = 3: T^3 - 3T - 2 = (T-2)(T+1)^2, largest root T = 2
    assert abs(g0.solve_S(3.0) - (-2.0j)) < 1e-13


def test_solve_S_asymptotes():
    assert abs(g0.solve_S(1e4) + 100.0j) <= 0.01
    assert abs(g0.solve_S(-1e4) + 2e-4j) <= 1e-6


def test_cubic_residual_grid():
    rng = np.random.default_rng(7)
    pts = 20.0 * (rng.random(100) - 0.5) + 20.0j * (rng.random(100) - 0.5)
    pts = [x for x in pts if g0.dist_sigma_s(x) > 1e-6]
    for x in pts:
        assert cubic_residual(g0.solve_S(x), x) <= 1e-12


def test_branch_continuity_along_circle():
    angles = np.linspace(-0.65 * np.pi, 0.65 * np.pi, 200)
    xs = 5.0 * np.exp(1j * angles)
    Ss = g0.solve_S(xs)
    for x_prev, x, S, S_new in zip(xs[:-1], xs[1:], Ss[:-1], Ss[1:]):
        dS = -S / (3.0 * S ** 2 + complex(x_prev))
        assert abs(S_new - S) <= 5.0 * abs(dS) * abs(x - x_prev) + 1e-8


def test_on_cut_warns_and_returns_plus_side():
    x_on = 5.0 * np.exp(2j * np.pi / 3.0)
    with pytest.warns(OnCutWarning):
        S = g0.solve_S(x_on)
    assert np.isfinite(S.real) and np.isfinite(S.imag)
    assert cubic_residual(S, x_on) < 1e-8


def test_genus0_data_at_zero():
    d = g0.genus0_data(0.0)
    assert abs(d.Delta - 2.0 ** (5.0 / 6.0)) < 1e-13
    assert abs(d.a - complex(-0.8908987181403393, -0.6299605249474366)) < 1e-12
    assert abs(d.b - complex(0.8908987181403393, -0.6299605249474366)) < 1e-12


def test_genus0_data_real_x_structure():
    for x in [-6.0, -2.0, 0.0, 1.0, 3.0, 8.0]:
        d = g0.genus0_data(complex(x))
        assert d.S.imag < 0 and abs(d.S.real) < 1e-12
        assert d.Delta.imag == pytest.approx(0.0, abs=1e-12)
        assert d.Delta.real > 0
        assert abs(d.a + np.conj(d.b)) < 1e-12
        assert abs(d.c.real) < 1e-12 and d.c.imag > 0
        assert d.a.real <= d.b.real


def test_c_at_three():
    d = g0.genus0_data(3.0)
    assert abs(d.c - 1.0j) < 1e-13


def test_r_eval_properties():
    d = g0.genus0_data(1.2 - 0.7j)
    # normalization r ~ z
    for z in [1e3, 1e3j, -1e3 + 5j]:
        assert abs(g0.r_eval(z, d) / z - 1.0) < 5e-3
    # defining relation at random points
    rng = np.random.default_rng(3)
    zs = 4.0 * (rng.random(40) - 0.5) + 4.0j * (rng.random(40) - 0.5)
    zs = zs[np.abs(zs - d.a) > 0.2]
    for z in zs:
        try:
            r = g0.r_eval(z, d)
        except OnCut:
            continue
        assert abs(r ** 2 - (z - d.a) * (z - d.b)) < 1e-12 * max(1.0, abs(z) ** 2)
    # square-root jump across the band midpoint
    m = 0.5 * (d.a + d.b)
    n = 1j * (d.b - d.a) / abs(d.b - d.a)
    up = g0.r_eval(m + 1e-8 * n, d)
    dn = g0.r_eval(m - 1e-8 * n, d)
    assert abs(up + dn) < 1e-7 * abs(up)


def test_h_at_b_matches_minus_lambda():
    for x in [-4.5, 1.5, 0.3 + 0.4j, -2.0 + 1.0j]:
        d = g0.genus0_data(complex(x))
        assert abs(g0.two_h_plus_lambda(d.b, d, guard=False)) < 1e-10


def test_h_prime_oracle_random_points():
    rng = np.random.default_rng(11)
    for x in [-4.5, -1.0, 0.0, 1.5, 2.5 - 1.0j, -3.0 + 1.5j]:
        d = g0.genus0_data(complex(x))
        count = 0
        while count < 50:
            z = complex(6.0 * (rng.random() - 0.5), 6.0 * (rng.random() - 0.5))
            if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                continue
            # stay away from the logarithmic ray as well
            ray_dir = (d.a - d.b) / abs(d.a - d.b)
            if g0.dist_to_ray(z, d.a, ray_dir) < 0.05:
                continue
            eps = 1e-5
            fd = (g0.h_eval(z + eps, d, guard=False) - g0.h_eval(z - eps, d, guard=False)) / (2 * eps)
            hp = g0.h_prime(z, d, guard=False)
            assert abs(fd - hp) <= 1e-6 * max(1.0, abs(hp))
            count += 1


def test_h_jump_relation_on_band():
    for x in [-4.5, 0.0, 1.5, 1.0 - 2.0j]:
        d = g0.genus0_data(complex(x))
        m = 0.5 * (d.a + d.b)
        n = 1j * (d.b - d.a) / abs(d.b - d.a)
        for frac in (0.3, 0.5, 0.7):
            p = d.a + frac * (d.b - d.a)
            eps = 1e-6
            s1 = g0.h_eval(p + eps * n, d, guard=False) + g0.h_eval(p - eps * n, d, guard=False)
            s2 = g0.h_eval(p + 0.5 * eps * n, d, guard=False) + g0.h_eval(p - 0.5 * eps * n, d, guard=False)
            richardson = 2.0 * s2 - s1
            assert abs(richardson - (-d.lam)) < 1e-8


def test_h_symmetry_real_x():
    rng = np.random.default_rng(5)
    for x in [-4.5, -1.588, 0.0, 1.5, 3.0]:
        d = g0.genus0_data(complex(x))
        for _ in range(100):
            z = complex(8.0 * (rng.random() - 0.5), 8.0 * (rng.random() - 0.5))
            if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                continue
            if abs(z.imag - d.a.imag) < 0.05:
                continue
            lhs = np.real(g0.two_h_plus_lambda(-np.conj(z), d, guard=False))
            rhs = np.real(g0.two_h_plus_lambda(z, d, guard=False))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_three_half_power_at_b():
    d = g0.genus0_data(-0.7 + 0.0j)
    phi = 2.3
    vals = []
    for t in (1e-3, 1e-4):
        z = d.b + t * np.exp(1j * phi)
        vals.append(g0.two_h_plus_lambda(z, d, guard=False) / (z - d.b) ** 1.5)
    assert abs(vals[0]) > 1e-2
    assert abs(vals[1] / vals[0] - 1.0) < 0.02


def test_sign_changes_on_real_line():
    us = np.linspace(-50.0, 50.0, 2001)
    for x in [-4.5, -2.0, 0.0, 1.5, 3.7]:
        d = g0.genus0_data(complex(x))
        vals = np.real(g0.two_h_plus_lambda(us.astype(complex), d, guard=False))
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes <= 2


def test_frak_c_signs_and_root():
    assert g0.frak_c(complex(-4.5)) > 0
    assert g0.frak_c(complex(1.5)) < 0
    assert abs(g0.x0_root() - (-1.5882620867566764)) <= 1e-12


def test_frak_c_asymptotics():
    left = g0.frak_c(complex(-64.0))
    assert abs(left - (np.sqrt(2.0) / 3.0) * 512.0) <= 10.0
    right = g0.frak_c(complex(64.0))
    assert abs(right - (-(2.0 / 3.0) * 512.0 - np.log(512.0))) <= 10.0


def test_frak_c_path_invariance():
    # independence of the band placement: the closed form equals the
    # quadrature of h' along two differently routed paths from b to c;
    # h' has a square-root zero at b
    from hmcleod import quadrature as quad
    from polyline import integrate_polyline
    for x in [1.5 + 0.5j, -2.5 + 1.0j]:
        d = g0.genus0_data(complex(x))
        f = lambda w: g0.h_prime(w, d, guard=False)
        direct = g0.frak_c(complex(x))
        for detour in (0.6 + 0.4j, -0.5 + 0.8j):
            mid = 0.5 * (d.b + d.c) + detour
            verts = (d.b, mid, d.c)
            ok = all(not quad.segments_cross(p, q, d.a, d.b) for p, q in zip(verts, verts[1:]))
            if not ok:
                continue
            val = 2.0 * np.real(integrate_polyline(f, verts, sqrt_start=True))
            assert abs(val - direct) < 1e-8


def test_classify_region_examples():
    assert g0.classify_region(1.5) is g0.RegionLabel.POLE_FREE_RIGHT
    assert g0.classify_region(-4.5) is g0.RegionLabel.POLE_FREE_LEFT
    assert g0.classify_region(3.0 * np.exp(2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
    assert g0.classify_region(3.0 * np.exp(-2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
    assert g0.classify_region(-1.5 + 6.0j) is g0.RegionLabel.POLE_REGION_UP
    assert g0.classify_region(-1.5 - 10.0j) is g0.RegionLabel.POLE_REGION_DOWN
    assert g0.classify_region(complex(g0.x0_root())) is g0.RegionLabel.BOUNDARY_POINT


def test_classify_region_does_not_trace_the_boundary():
    g0._boundary_data.cache_clear()
    g0.classify_region(-1.5 - 10.0j)
    assert g0._boundary_data.cache_info().currsize == 0


def test_classify_region_far_field_follows_frak_c():
    # beyond |x| = 29, past the end of the traced branch
    R, UP, DOWN = (g0.RegionLabel.POLE_FREE_RIGHT, g0.RegionLabel.POLE_REGION_UP,
                   g0.RegionLabel.POLE_REGION_DOWN)
    for x, sign, up, down in ((13.325 + 25.821j, -1.0, R, R), (16.16 + 31.05j, 1.0, UP, DOWN)):
        assert np.sign(g0.frak_c(x)) == sign
        assert g0.classify_region(x) is up
        assert g0.classify_region(np.conj(x)) is down


def test_boundary_curves_are_rows_of_zeros_of_frak_c():
    data = g0._boundary_data()
    arc, branch = data["arc"], data["branch_up"]
    # the apex first; the arc runs through x0 to the lower apex
    assert arc[0] == branch[0] == g0.APEX_PLUS and arc[-1] == g0.APEX_MINUS
    assert np.max(np.abs(g0.frak_c(arc[1:-1]))) <= 1e-12
    assert np.max(np.abs(g0.frak_c(branch[1:]))) <= 1e-12
    # Im falls strictly along the arc, and Im and Re rise along the branch
    assert np.all(np.diff(arc.imag) < 0) and np.all(np.diff(branch[1:].imag) > 0)
    assert np.all(np.diff(branch[1:].real) > 0)
    assert np.all((arc[1:-1].real >= -1.5883) & (arc[1:-1].real <= -1.5))
    # the arc's row on the real axis is x0, to the bit, and its lower half mirrors the upper
    mid = len(arc) // 2
    assert arc[mid] == complex(g0.x0_root(), 0.0)
    assert np.array_equal(arc[mid + 1:], np.conj(arc[:mid])[::-1])
    assert 29.0 <= abs(branch[-1]) <= 31.0


def test_row_roots_need_a_sign_change_in_each_bracket():
    with pytest.raises(TraceFailure):
        g0._row_roots([0.0, 0.0], [-2.5, 1.0], [-1.2, 2.0])


def _boundary_pairs():
    """Points 1e-3 either side of each boundary curve, with their labels."""
    L, R, UP, DOWN = (g0.RegionLabel.POLE_FREE_LEFT, g0.RegionLabel.POLE_FREE_RIGHT,
                      g0.RegionLabel.POLE_REGION_UP, g0.RegionLabel.POLE_REGION_DOWN)
    data = g0._boundary_data()
    # (points, unit tangents, label left of the tangent, label right of it)
    cases = []
    for pts, left, right in ((data["arc"], R, L), (data["branch_up"], UP, R),
                             (np.conj(data["branch_up"]), R, DOWN)):
        idx = [i for i in range(5, len(pts) - 1, 5) if abs(pts[i]) < 25.0]
        tan = pts[np.array(idx) + 1] - pts[np.array(idx) - 1]
        cases.append((pts[idx], tan / np.abs(tan), left, right))
    ts = np.linspace(0.5, 22.0, 40)
    cases.append((g0.APEX_PLUS + ts * g0._RAY_DIR_PLUS, g0._RAY_DIR_PLUS, L, UP))
    cases.append((g0.APEX_MINUS + ts * g0._RAY_DIR_MINUS, g0._RAY_DIR_MINUS, DOWN, L))
    eps = 1e-3
    pairs = []
    for pts, tan, left, right in cases:
        for x, n in np.broadcast(pts, 1j * tan):
            pairs += [(x + eps * n, left), (x - eps * n, right)]
    return pairs


def test_classify_region_across_boundary_curves():
    for x, label in _boundary_pairs():
        assert g0.classify_region(x) is label, x


def _apex_rings():
    angles = np.linspace(-np.pi, np.pi, 48, endpoint=False)
    return np.concatenate([apex + r * np.exp(1j * angles)
                           for apex in (g0.APEX_PLUS, g0.APEX_MINUS)
                           for r in (5e-9, 1e-6, 1e-3, 0.05, 0.5)])


def test_array_classification_gives_the_scalar_labels():
    pairs = _boundary_pairs()
    xs = np.array([x for x, _ in pairs])
    assert list(g0.classify_region(xs)) == [label for _, label in pairs]
    rings = _apex_rings()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        scalar = [g0.classify_region(x) for x in rings]
        batched = g0.classify_region(rings)
    assert list(batched) == scalar
    assert scalar.count(g0.RegionLabel.APEX_POINT) == 96
    assert set(scalar) == set(g0.RegionLabel)
    grid = np.array(POLE_FREE_GRID).reshape(24, 24)
    assert g0.classify_region(grid).shape == (24, 24)
    assert list(g0.classify_region(grid).ravel()) == [g0.classify_region(x) for x in POLE_FREE_GRID]


def test_array_frak_c_is_the_scalar_value():
    # the labels read the sign of frak_c and compare it with 1e-8, so the
    # values themselves must agree, also on the boundary curves
    data = g0._boundary_data()
    xs = np.concatenate([[x for x, _ in _boundary_pairs()], data["arc"], data["branch_up"],
                         np.conj(data["branch_up"]), _apex_rings(), POLE_FREE_GRID])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        scalar = np.array([g0.frak_c(x) for x in xs])
        batched = g0.frak_c(xs)
    assert np.sum(np.abs(scalar) <= 1e-8) > 100
    assert np.array_equal(batched.view(np.int64), scalar.view(np.int64))


def test_classify_and_value_reuse_the_solve_above_the_axis():
    # above the axis the value is -i S(x)/2, below it the conjugate of the
    # value at conj x: one cold solve of S per point
    rng = np.random.default_rng(8)
    xs = rng.uniform(-8.0, 8.0, 300) + 1j * rng.uniform(-8.0, 8.0, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        labels, values = g0.classify_and_value(xs)
        for x, label, value in zip(xs, labels, values):
            assert label is g0.classify_region(x)
            if label.pole_free:
                ref = -1j * complex(_ref_solve_S(x.conjugate() if x.imag < 0 else x)) / 2.0
                ref = ref.conjugate() if x.imag < 0 else ref
                assert _bits(value).tolist() == _bits(ref).tolist()
                assert _bits(g0.genus0_value(x)).tolist() == _bits(ref).tolist()
            else:
                assert np.isnan(value)
    cold = []
    real_solve = g0.solve_S

    def counting(x):
        cold.append(np.size(x))
        return real_solve(x)

    g0.solve_S = counting
    try:
        g0.classify_and_value(np.array(POLE_FREE_GRID))
    finally:
        g0.solve_S = real_solve
    assert sum(cold) == 576


def test_values_below_the_axis_are_the_conjugates_of_the_values_above():
    lower = np.array([x for x in POLE_FREE_GRID if x.imag < 0])
    labels, values = g0.classify_and_value(lower)
    mirror_labels, mirror_values = g0.classify_and_value(np.conj(lower))
    assert all(label.pole_free for label in labels)
    assert np.array_equal(_bits(values), _bits(np.conj(mirror_values)))


def test_value_on_the_lower_cut_ray_is_its_pole_free_neighbours():
    # S on the lower ray is nudged into the pole region, but the point is
    # a pole-free boundary point: its value is that of the pole-free side
    x = complex(g0.APEX_MINUS + g0._RAY_DIR_MINUS)
    neighbour = x + 1e-6 * np.conj(g0._SIDE_PLUS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OnCutWarning)
        (label, near), (value, near_value) = g0.classify_and_value(np.array([x, neighbour]))
        mirror = g0.classify_and_value(x.conjugate())[1]
    assert label is g0.RegionLabel.BOUNDARY_POINT
    assert near is g0.RegionLabel.POLE_FREE_LEFT
    assert abs(value - near_value) <= 1e-5
    assert _bits(value).tolist() == _bits(np.conj(mirror)).tolist()


def test_genus0_value_examples():
    assert abs(g0.genus0_value(0.0) - (-(2.0 ** (-2.0 / 3.0)))) < 1e-12
    vals = g0.genus0_value([0.0, 3.0])
    assert abs(vals[1] - (-1.0)) < 1e-12
    with pytest.raises(WrongRegion):
        g0.genus0_value([0.0, -1.5 - 10.0j])
    assert abs(g0.genus0_value(3.0) - (-1.0)) < 1e-12
    assert abs(g0.genus0_value(1e4) - (-50.0)) < 0.01
    with pytest.raises(WrongRegion):
        g0.genus0_value(-1.5 - 10.0j)


def test_on_cut_raises_for_h():
    d = g0.genus0_data(0.0)
    m = 0.5 * (d.a + d.b)
    with pytest.raises(OnCut):
        g0.r_eval(m, d)
